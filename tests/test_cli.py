"""CLI exit codes, output contracts, and rerun reproducibility."""

import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import eviground
from eviground import tensorio
from eviground.cli import _build_parser, cli_main
from eviground.cohort import Cohort
from eviground.config import RunConfig
from eviground.distill import DistillConfig, label_efficiency_experiment
from eviground.grounding import GrounderConfig
from eviground.metrics import write_rows_csv
from eviground.policy import ReportPolicy
from eviground.rules import RuleConfig
from eviground.segdecoder import SegDecoder
from eviground.textenc import Embedder


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_cohort")
    assert cli_main(["generate-cohort", "--out", str(root), "--n", "20", "--seed", "2"]) == 0
    return root


def test_unknown_subcommand_exits_1(capsys):
    assert cli_main(["explode"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_exits_1(capsys):
    assert cli_main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    assert cli_main(["generate-cohort"]) == 1
    err = capsys.readouterr().err
    assert "--out" in err


def test_missing_cohort_dir_exits_2(tmp_path, capsys):
    code = cli_main(
        ["train-sea", "--cohort", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_bad_config_exits_1(tmp_path, cohort_dir, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"grounder": {"not_a_knob": 1}}))
    code = cli_main(
        [
            "train-sea",
            "--cohort",
            str(cohort_dir),
            "--out",
            str(tmp_path / "o"),
            "--config",
            str(cfg),
        ]
    )
    assert code == 1


def test_generate_writes_run_json_and_manifest(cohort_dir):
    run = json.loads((cohort_dir / "run.json").read_text())
    assert run["command"] == "generate-cohort"
    assert run["seed"] == 2
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    assert manifest["files"]


def test_rerun_reproduces_manifest(tmp_path, cohort_dir):
    again = tmp_path / "again"
    assert cli_main(["generate-cohort", "--out", str(again), "--n", "20", "--seed", "2"]) == 0
    a = json.loads((cohort_dir / "manifest.json").read_text())["files"]
    b = json.loads((again / "manifest.json").read_text())["files"]
    assert a == b


def test_manifest_lists_only_files_of_the_last_run(tmp_path):
    used, fresh = tmp_path / "used", tmp_path / "fresh"
    for out, n in ((used, "6"), (used, "4"), (fresh, "4")):
        assert cli_main(["generate-cohort", "--out", str(out), "--n", n, "--seed", "5"]) == 0
    assert (used / "reports" / "p0005.txt").exists()  # left behind by the first run
    assert json.loads((used / "manifest.json").read_text()) == json.loads(
        (fresh / "manifest.json").read_text()
    )
    # in a fresh directory the manifest hashes every file but itself and
    # run.json (written after it), byte for byte as before
    files = {
        str(p.relative_to(fresh)): tensorio.file_sha256(p)
        for p in sorted(fresh.rglob("*"))
        if p.is_file() and p.name not in ("manifest.json", "run.json")
    }
    manifest = json.loads((fresh / "manifest.json").read_text())
    assert manifest["files"] == files
    assert (fresh / "manifest.json").read_text() == json.dumps(manifest, indent=2, sort_keys=True)


def test_score_report_gold_prints_max_total(cohort_dir, capsys):
    code = cli_main(
        [
            "score-report",
            "--report",
            str(cohort_dir / "reports" / "p0000.txt"),
            "--patient",
            "p0000",
            "--cohort",
            str(cohort_dir),
            "--config",
            str(cohort_dir / "rules.json"),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == pytest.approx(1.0, abs=1e-9)
    assert set(payload) == {
        "r_format",
        "r_cat",
        "r_bio",
        "r_feat",
        "r_nia",
        "r_consistency",
        "total",
    }


def test_score_report_unknown_patient_exits_1(cohort_dir, capsys):
    code = cli_main(
        [
            "score-report",
            "--report",
            str(cohort_dir / "reports" / "p0000.txt"),
            "--patient",
            "zzz",
            "--cohort",
            str(cohort_dir),
        ]
    )
    assert code == 1


def test_gradcheck_subcommand_passes(capsys):
    assert cli_main(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 7


def test_train_and_eval_pipeline(tmp_path, cohort_dir, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"grounder": {"epochs": 4, "decoder_epochs": 6}, "rft": {"iters": 8}})
    )
    sea_out = tmp_path / "sea"
    assert (
        cli_main(
            [
                "train-sea",
                "--cohort",
                str(cohort_dir),
                "--out",
                str(sea_out),
                "--config",
                str(cfg),
            ]
        )
        == 0
    )
    assert (sea_out / "embedder" / "manifest.json").exists()
    assert (sea_out / "decoder" / "manifest.json").exists()
    assert (sea_out / "run.json").exists()

    eval_out = tmp_path / "eval"
    assert (
        cli_main(
            [
                "eval-grounding",
                "--cohort",
                str(cohort_dir),
                "--checkpoint",
                str(sea_out),
                "--out",
                str(eval_out),
            ]
        )
        == 0
    )
    lines = (eval_out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    names = {line.split(",")[0] for line in lines[1:]}
    assert {"r_at_1", "r_at_3", "map", "dice.overall"} <= names

    # identical rerun must reproduce the metrics bytes
    eval_again = tmp_path / "eval2"
    cli_main(
        [
            "eval-grounding",
            "--cohort",
            str(cohort_dir),
            "--checkpoint",
            str(sea_out),
            "--out",
            str(eval_again),
        ]
    )
    assert (eval_out / "metrics.csv").read_bytes() == (eval_again / "metrics.csv").read_bytes()

    rft_out = tmp_path / "rft"
    assert (
        cli_main(
            [
                "train-grpo",
                "--cohort",
                str(cohort_dir),
                "--out",
                str(rft_out),
                "--config",
                str(cfg),
            ]
        )
        == 0
    )
    header = (rft_out / "rft_log.csv").read_text().splitlines()[0]
    assert header == "iter,mean_reward,r_format,r_nia,r_consistency,kl_ref"

    cons_out = tmp_path / "cons"
    assert (
        cli_main(
            [
                "eval-consistency",
                "--cohort",
                str(cohort_dir),
                "--out",
                str(cons_out),
                "--policy",
                str(rft_out / "policy"),
            ]
        )
        == 0
    )
    names = {
        line.split(",")[0]
        for line in (cons_out / "metrics.csv").read_text().splitlines()[1:]
    }
    assert names == {"accuracy", "valid_format_rate", "nia_consistency_rate", "entailment_rate"}


def test_train_sea_outputs_do_not_depend_on_blas_threads(tmp_path, cohort_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grounder": {"epochs": 1, "decoder_epochs": 2}}))
    src = str(Path(eviground.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):  # two threads are enough to split a BLAS sum; never ask for more
        out = tmp_path / f"sea{threads}"
        argv = ["train-sea", "--cohort", str(cohort_dir), "--out", str(out), "--config", str(cfg)]
        subprocess.run(
            [sys.executable, "-m", "eviground.cli", *argv],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
            check=True,
            capture_output=True,
        )
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digests.append({str(p.relative_to(out)): tensorio.file_sha256(p) for p in files})
    assert "grounding_log.csv" in digests[0]
    assert digests[0] == digests[1]


def test_train_grpo_outputs_do_not_depend_on_blas_threads(tmp_path, cohort_dir):
    src = str(Path(eviground.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):  # two threads are enough to split a BLAS sum; never ask for more
        out = tmp_path / f"rft{threads}"
        argv = ["train-grpo", "--cohort", str(cohort_dir), "--out", str(out)]
        subprocess.run(
            [sys.executable, "-m", "eviground.cli", *argv],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
            check=True,
            capture_output=True,
        )
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digests.append({str(p.relative_to(out)): tensorio.file_sha256(p) for p in files})
    assert "rft_log.csv" in digests[0]
    assert digests[0] == digests[1]


def test_label_efficiency_csv_schema(tmp_path, cohort_dir, capsys):
    out = tmp_path / "le"
    code = cli_main(
        [
            "label-efficiency",
            "--cohort",
            str(cohort_dir),
            "--out",
            str(out),
            "--fractions",
            "1.0",
        ]
    )
    assert code == 0
    lines = (out / "label_efficiency.csv").read_text().splitlines()
    assert lines[0] == "fraction,teacher_r3,student_r3,ratio,student_kl"
    assert len(lines) == 2
    student_kl = float(lines[1].split(",")[4])
    assert math.isfinite(student_kl) and student_kl >= 0.0
    assert f"student_kl {student_kl:.4f}" in capsys.readouterr().out


def test_label_efficiency_seed_reaches_teacher(tmp_path, cohort_dir):
    # one grounder epoch leaves teacher R@3 below 1.0 here, and the grounder
    # seed then changes it (0.973 at seed 0, 1.0 at seed 3)
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"grounder": {"epochs": 1}, "distill": {"epochs": 2}}))
    out = tmp_path / "le"
    args = ["label-efficiency", "--cohort", str(cohort_dir), "--out", str(out)]
    assert cli_main(args + ["--config", str(cfg), "--seed", "3", "--fractions", "1.0"]) == 0
    rows = label_efficiency_experiment(
        Cohort.load(cohort_dir),
        [1.0],
        DistillConfig(epochs=2),
        GrounderConfig(train_decoder=False, epochs=1),
        seed=3,
    )
    want = tmp_path / "want.csv"
    write_rows_csv(want, rows)
    assert (out / "label_efficiency.csv").read_bytes() == want.read_bytes()


def _log_cells(path: Path) -> tuple[str, list[list[str]]]:
    header, *lines = path.read_text().splitlines()
    return header, [line.split(",") for line in lines]


@pytest.mark.parametrize("epochs, decoder_epochs", [(3, 1), (1, 3)])
def test_grounding_log_csv(tmp_path, cohort_dir, capsys, epochs, decoder_epochs):
    cfg = tmp_path / "sea.json"
    cfg.write_text(json.dumps(
        {"grounder": {"epochs": epochs, "decoder_epochs": decoder_epochs, "decoder_layers": 1}}
    ))
    out = tmp_path / "sea"
    argv = ["train-sea", "--cohort", str(cohort_dir), "--out", str(out), "--config", str(cfg)]
    assert cli_main(argv) == 0
    header, cells = _log_cells(out / "grounding_log.csv")
    assert header == "epoch,l_se,l_mask,g_mask"
    n = max(epochs, decoder_epochs)
    assert [c[0] for c in cells] == [str(i) for i in range(n)]
    # a curve shorter than the other leaves its cells blank
    assert [c[1] == "" for c in cells] == [i >= epochs for i in range(n)]
    assert [c[2] == "" for c in cells] == [i >= decoder_epochs for i in range(n)]
    assert [c[3] == "" for c in cells] == [i >= decoder_epochs for i in range(n)]
    assert all(float(c[3]) > 0 for c in cells[:decoder_epochs])
    first, last = float(cells[0][1]), float(cells[epochs - 1][1])
    assert capsys.readouterr().out.splitlines()[-1] == f"l_se {first:.4f} -> {last:.4f}"


def test_distill_log_csv(tmp_path, cohort_dir, capsys):
    cfg = tmp_path / "distill.json"
    cfg.write_text(json.dumps(
        {"grounder": {"epochs": 1, "train_decoder": False}, "distill": {"epochs": 3}}
    ))
    sea, out = tmp_path / "sea", tmp_path / "distill"
    common = ["--cohort", str(cohort_dir), "--config", str(cfg)]
    assert cli_main(["train-sea", "--out", str(sea), *common]) == 0
    assert cli_main(["distill", "--teacher", str(sea), "--out", str(out), *common]) == 0
    header, cells = _log_cells(out / "distill_log.csv")
    assert header == "epoch,loss"
    assert [c[0] for c in cells] == ["0", "1", "2"]
    losses = [float(c[1]) for c in cells]
    assert all(math.isfinite(v) and v >= 0.0 for v in losses)
    assert (
        capsys.readouterr().out.splitlines()[-1]
        == f"distill loss {losses[0]:.6f} -> {losses[-1]:.6f}"
    )


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("distill", "distill", "epochs", 0),
        ("distill", "distill", "lr", -1.0),
        ("pretrain", "pretrain", "max_text_tokens", 0),
        ("pretrain", "pretrain", "max_text_tokens", -1),
        ("pretrain", "pretrain", "lr", 0.0),
        ("pretrain", "pretrain", "lr", -1.0),
        ("train-sea", "grounder", "decoder_lr", 0.0),
        ("train-sea", "grounder", "decoder_lr", -1.0),
        ("train-sea", "grounder", "decoder_epochs", 0),
        ("train-sea", "grounder", "decoder_epochs", -1),
        ("train-sea", "grounder", "decoder_layers", 0),
    ],
)
def test_config_out_of_range_exits_1(tmp_path, cohort_dir, capsys, command, section, key, value):
    _assert_config_rejected(tmp_path, cohort_dir, capsys, command, section, key, value)


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("pretrain", "pretrain", "use_momentum_negatives", False),
        ("pretrain", "pretrain", "ema_momentum", 0.995),
        ("distill", "distill", "lambda_kl", 1.0),
        ("distill", "distill", "init_from_teacher", False),
        ("train-sea", "grounder", "lambda_mask", 1.0),
    ],
)
def test_config_removed_key_exits_1(tmp_path, cohort_dir, capsys, command, section, key, value):
    # removed options are unknown keys, even at their old defaults
    _assert_config_rejected(tmp_path, cohort_dir, capsys, command, section, key, value)


def _assert_config_rejected(tmp_path, cohort_dir, capsys, command, section, key, value):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    # the config is checked before the teacher directory is read
    teacher = ["--teacher", str(tmp_path / "none")] if command == "distill" else []
    out = tmp_path / "o"
    argv = [command, "--cohort", str(cohort_dir), "--out", str(out), *teacher]
    assert cli_main(argv + ["--config", str(cfg)]) == 1
    assert key in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("section", ["cohort", "grounder", "distill", "rft", "pretrain"])
def test_config_section_seed_exits_1(tmp_path, capsys, section):
    # the top-level seed seeds every stage; a section seed would be ignored
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({section: {"seed": 1}}))
    code = cli_main(
        ["generate-cohort", "--out", str(tmp_path / "c"), "--n", "4", "--config", str(cfg)]
    )
    assert code == 1
    assert f"unknown keys in {section}: ['seed']" in _one_line_error(capsys)


def _config_fields():
    """(path, default) of every field of every run-config section and of cohort.rules."""
    cfg = RunConfig()
    for section in ("cohort", "cohort.rules", "grounder", "distill", "rft", "pretrain"):
        obj = attrgetter(section)(cfg)
        for f in fields(obj):
            yield f"{section}.{f.name}", getattr(obj, f.name)


# one value of each JSON type, by the kind of value a field's default is
_JSON_SAMPLES = {"bool": True, "int": 3, "float": 0.5, "string": "x", "array": [], "object": {}, "null": None}


def _json_kind(value) -> str:
    kinds = (("bool", bool), ("int", int), ("float", float), ("string", str), ("array", (list, tuple)))
    for kind, types in kinds:  # bool first: a bool is an int to isinstance
        if isinstance(value, types):
            return kind
    return "object"  # a dict or a nested config


@pytest.mark.parametrize("path, default", [pytest.param(*f, id=f[0]) for f in _config_fields()])
def test_config_value_of_wrong_json_type_exits_1(tmp_path, capsys, path, default):
    # built from the dataclass fields, so a field added later is covered too
    kind = _json_kind(default)
    accepted = {kind, "int"} if kind == "float" else {kind}
    cfg, out = tmp_path / "cfg.json", tmp_path / "c"
    for value in (v for k, v in _JSON_SAMPLES.items() if k not in accepted):
        doc = value
        for key in reversed(path.split(".")):
            doc = {key: doc}
        cfg.write_text(json.dumps(doc))
        argv = ["generate-cohort", "--out", str(out), "--n", "4", "--config", str(cfg)]
        assert cli_main(argv) == 1, value
        assert path in _one_line_error(capsys), value
        assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"rft": {"beta": NaN}}',
        '{"pretrain": {"lambda_res": Infinity}}',
        '{"cohort": {"rules": {"w_nia": NaN}}}',
    ],
)
def test_config_nan_or_infinity_exits_1(tmp_path, capsys, text):
    # both pass every range check, as NaN compares false, and JSON has neither
    cfg, out = tmp_path / "cfg.json", tmp_path / "c"
    cfg.write_text(text)
    argv = ["generate-cohort", "--out", str(out), "--n", "4", "--config", str(cfg)]
    assert cli_main(argv) == 1
    assert "is not a JSON number" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "label_mix, words",
    [
        ([0.5, 0.5], "one nonnegative number per label"),
        ([0.25, 0.25, 0.25, 0.25], "one nonnegative number per label"),
        ([1.5, -0.5, 0.0], "one nonnegative number per label"),
        ([0.5, "x", 0.5], "cohort.label_mix[1]"),
    ],
)
def test_config_bad_label_mix_exits_1(tmp_path, capsys, label_mix, words):
    cfg, out = tmp_path / "cfg.json", tmp_path / "c"
    cfg.write_text(json.dumps({"cohort": {"label_mix": label_mix}}))
    assert cli_main(["generate-cohort", "--out", str(out), "--n", "4", "--config", str(cfg)]) == 1
    assert words in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_generate_cohort_nonpositive_n_exits_1(tmp_path, capsys, n):
    assert cli_main(["generate-cohort", "--out", str(tmp_path / "c"), "--n", n]) == 1
    assert "n_patients" in _one_line_error(capsys)


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_gradcheck_nonpositive_seeds_exits_1(capsys, seeds):
    assert cli_main(["gradcheck", "--seeds", seeds]) == 1
    assert "--seeds" in _one_line_error(capsys)


def test_label_efficiency_no_fractions_exits_1(tmp_path, cohort_dir, capsys):
    code = cli_main(
        ["label-efficiency", "--cohort", str(cohort_dir), "--out", str(tmp_path / "le"),
         "--fractions", ""]
    )
    assert code == 1
    _one_line_error(capsys)
    assert not (tmp_path / "le" / "label_efficiency.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval-consistency", "--reports", "{cohort}/reports"],
        ["eval-grounding", "--checkpoint", "{sea}"],
    ],
)
def test_eval_unknown_split_exits_1(tmp_path, cohort_dir, capsys, argv):
    sea = tmp_path / "sea"
    Embedder().save(sea / "embedder")
    argv = [a.format(cohort=cohort_dir, sea=sea) for a in argv]
    code = cli_main(
        argv + ["--cohort", str(cohort_dir), "--out", str(tmp_path / "o"), "--split", "nosuch"]
    )
    assert code == 1
    assert "'nosuch'" in _one_line_error(capsys)


def test_config_seed_out_of_range_exits_1(tmp_path, cohort_dir, capsys):
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"seed": -1}))
    code = cli_main(
        ["pretrain", "--cohort", str(cohort_dir), "--out", str(tmp_path / "o"), "--config", str(cfg)]
    )
    assert code == 1
    assert "seed must be an unsigned 64-bit integer" in _one_line_error(capsys)


def _cue_rules_text(name, **change):
    """rules.json text whose cue lexicon ``name`` is the default, updated by ``change``."""
    cues = {**getattr(RuleConfig(), name), **change}
    return json.dumps({name: {k: v for k, v in cues.items() if v is not None}})


@pytest.mark.parametrize(
    "rules_text",
    [
        "{not json",
        '{"w_format": 0.2, "no_such_rule": 1}',
        '{"label_cues": []}',
        # each of these loaded before and failed later, or silently scored wrong
        pytest.param(_cue_rules_text("domain_cues", memory=None), id="domain-missing-memory"),
        pytest.param(_cue_rules_text("biomarker_cues", abeta=None), id="biomarker-missing-abeta"),
        pytest.param(_cue_rules_text("label_cues", AD=["alzheimer"]), id="label-unknown-key"),
        pytest.param(_cue_rules_text("label_cues", CN=[""]), id="label-empty-cue"),
        pytest.param(_cue_rules_text("biomarker_cues", abeta=["Amyloid"]), id="biomarker-uppercase-cue"),
    ],
)
def test_train_grpo_bad_rules_json_exits_1(tmp_path, cohort_dir, capsys, rules_text):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    (cohort / "rules.json").write_text(rules_text)
    code = cli_main(
        ["train-grpo", "--cohort", str(cohort), "--out", str(tmp_path / "o"), "--iters", "2"]
    )
    assert code == 1
    _one_line_error(capsys)


@pytest.mark.parametrize("name", ["split.json", "grounding.jsonl", "records.jsonl"])
def test_train_grpo_truncated_cohort_file_exits_1(tmp_path, cohort_dir, capsys, name):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    data = (cohort / name).read_bytes()
    (cohort / name).write_bytes(data[: len(data) // 2])
    code = cli_main(
        ["train-grpo", "--cohort", str(cohort), "--out", str(tmp_path / "o"), "--iters", "2"]
    )
    assert code == 1
    assert name in _one_line_error(capsys)


@pytest.mark.parametrize(
    "name, line, field",
    [
        ("grounding.jsonl", {"sentence": "Memory is low.", "evidence_ids": []}, "patient_id"),
        ("records.jsonl", {"id": "p9999"}, "demographics"),
        ("records.jsonl", [1, 2], "JSON object"),
    ],
)
def test_train_grpo_cohort_line_missing_fields_exits_1(
    tmp_path, cohort_dir, capsys, name, line, field
):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    with open(cohort / name, "a") as fh:
        fh.write(json.dumps(line) + "\n")
    code = cli_main(
        ["train-grpo", "--cohort", str(cohort), "--out", str(tmp_path / "o"), "--iters", "2"]
    )
    assert code == 1
    err = _one_line_error(capsys)
    assert name in err and field in err


@pytest.mark.parametrize(
    "name, change, path",
    [
        ("records.jsonl", {"biomarkers": [1]}, "biomarkers"),
        ("records.jsonl", {"cognition": {"memory": "low"}}, "cognition.memory"),
        ("records.jsonl", {"evidence": [{"id": "x", "descriptor": "d", "source_field": "s", "category": 5}]},
         "evidence[0].category"),
        ("grounding.jsonl", {"evidence_ids": "demo"}, "evidence_ids"),
        ("grounding.jsonl", {"mask_file": 3}, "mask_file"),
    ],
)
def test_train_grpo_cohort_line_wrong_type_exits_1(tmp_path, cohort_dir, capsys, name, change, path):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    lines = (cohort / name).read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), **change})
    (cohort / name).write_text("\n".join(lines) + "\n")
    code = cli_main(
        ["train-grpo", "--cohort", str(cohort), "--out", str(tmp_path / "o"), "--iters", "2"]
    )
    assert code == 1
    err = _one_line_error(capsys)
    assert f"{name}: line 1: " in err and path in err


def _drop(section, key):
    def edit(record):
        del record[section][key]

    return edit


def _set(section, key, value):
    def edit(record):
        record[section][key] = value

    return edit


@pytest.mark.parametrize(
    "edit, path",
    [
        (_drop("biomarkers", "abeta"), "biomarkers"),
        (_drop("cognition", "memory"), "cognition"),
        (_set("cognition", "mood", 0.0), "cognition"),
        (_drop("demographics", "age"), "demographics.age"),
        (_set("demographics", "age", "x"), "demographics.age"),
        (_set("demographics", "education_years", True), "demographics.education_years"),
        (_set("demographics", "sex", 3), "demographics.sex"),
        (_drop("genetics", "apoe"), "genetics.apoe"),
    ],
    ids=["no-abeta", "no-memory", "extra-domain", "no-age", "text-age", "bool-education",
         "number-sex", "no-apoe"],
)
def test_train_grpo_record_missing_or_mistyped_key_exits_1(tmp_path, cohort_dir, capsys, edit, path):
    """A record whose dicts lack a key the trainers read, or hold a value of
    the wrong kind, is a one-line error naming the file and line, not a
    traceback from deep inside the policy."""
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    records = [json.loads(line) for line in (cohort / "records.jsonl").read_text().splitlines()]
    for record in records:
        edit(record)
    (cohort / "records.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    code = cli_main(
        ["train-grpo", "--cohort", str(cohort), "--out", str(tmp_path / "o"), "--iters", "20"]
    )
    assert code == 1
    err = _one_line_error(capsys)
    assert "records.jsonl: line 1: " in err and path in err


def _edit_split(change):
    def edit(text):
        split = json.loads(text)
        change(split)
        return json.dumps(split)

    return edit


def _drop_rows_of(pid):
    def edit(text):
        return "".join(line for line in text.splitlines(True) if json.loads(line)["patient_id"] != pid)

    return edit


@pytest.mark.parametrize(
    "name, edit, words",
    [
        pytest.param("split.json", _edit_split(lambda s: s.pop("train")), "'train'", id="no-train"),
        pytest.param(
            "split.json", _edit_split(lambda s: s["train"].append("p9999")), "'train'",
            id="unknown-patient",
        ),
        pytest.param("split.json", _edit_split(lambda s: s.update(test=5)), "'test'", id="not-a-list"),
        pytest.param(
            "grounding.jsonl", lambda text: text.replace('"demo"', '"nope"', 1), "evidence",
            id="unknown-evidence",
        ),
        pytest.param("grounding.jsonl", _drop_rows_of("p0000"), "p0000", id="patient-without-rows"),
    ],
)
def test_train_grpo_inconsistent_cohort_exits_1(tmp_path, cohort_dir, capsys, name, edit, words):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    (cohort / name).write_text(edit((cohort / name).read_text()))
    code = cli_main(
        ["train-grpo", "--cohort", str(cohort), "--out", str(tmp_path / "o"), "--iters", "2"]
    )
    assert code == 1
    err = _one_line_error(capsys)
    assert name in err and words in err


def _cohort_with_bad_report(tmp_path, cohort_dir) -> tuple[Path, str]:
    """A copy of the cohort whose first train patient's report is not UTF-8."""
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    pid = Cohort.load(cohort).split["train"][0]
    (cohort / "reports" / f"{pid}.txt").write_bytes(b"[Diagnosis]\nMCI \xff\xfe\n")
    return cohort, pid


@pytest.mark.parametrize("command", ["score-report", "eval-consistency", "label-efficiency", "distill"])
def test_report_not_utf8_exits_1(tmp_path, cohort_dir, sea_checkpoint, capsys, command):
    cohort, pid = _cohort_with_bad_report(tmp_path, cohort_dir)
    report = cohort / "reports" / f"{pid}.txt"
    common = ["--cohort", str(cohort), "--out", str(tmp_path / "o")]
    argv = {
        "score-report": ["--report", str(report), "--patient", pid, "--cohort", str(cohort)],
        "eval-consistency": [*common, "--split", "train", "--reports", str(cohort / "reports")],
        "label-efficiency": [*common, "--fractions", "1.0"],
        "distill": [*common, "--teacher", str(sea_checkpoint)],
    }[command]
    assert cli_main([command, *argv]) == 1
    err = _one_line_error(capsys)
    assert f"{pid}.txt" in err and "UTF-8" in err


def test_score_report_invalid_rules_config_exits_1(tmp_path, cohort_dir, capsys):
    bad = tmp_path / "rules.json"
    bad.write_text("{not json")
    code = cli_main(
        [
            "score-report",
            "--report",
            str(cohort_dir / "reports" / "p0000.txt"),
            "--patient",
            "p0000",
            "--cohort",
            str(cohort_dir),
            "--config",
            str(bad),
        ]
    )
    assert code == 1
    assert "not JSON" in _one_line_error(capsys)


def test_pretrain_subcommand(tmp_path, cohort_dir):
    out = tmp_path / "pt"
    cfg = tmp_path / "pt.json"
    cfg.write_text(json.dumps({"pretrain": {"steps": 10}}))
    assert (
        cli_main(
            ["pretrain", "--cohort", str(cohort_dir), "--out", str(out), "--config", str(cfg)]
        )
        == 0
    )
    lines = (out / "pretrain_log.csv").read_text().splitlines()
    assert lines[0] == "step,l_itc,l_res_v,l_res_t,l_pt"
    assert len(lines) == 11


def test_eval_consistency_from_reports_dir(tmp_path, cohort_dir):
    out = tmp_path / "cons_reports"
    code = cli_main(
        [
            "eval-consistency",
            "--cohort",
            str(cohort_dir),
            "--out",
            str(out),
            "--reports",
            str(cohort_dir / "reports"),
        ]
    )
    assert code == 0
    rows = dict(
        line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]
    )
    assert float(rows["accuracy"]) == 1.0  # gold reports


def test_eval_consistency_missing_report_exits_2(tmp_path, cohort_dir, capsys):
    # a split patient without a report fails the run; it does not shrink the sample
    reports = tmp_path / "reports"
    shutil.copytree(cohort_dir / "reports", reports)
    pid = Cohort.load(cohort_dir).split["test"][-1]
    (reports / f"{pid}.txt").unlink()
    out = tmp_path / "o"
    code = cli_main(
        ["eval-consistency", "--cohort", str(cohort_dir), "--out", str(out), "--reports", str(reports)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1 and f"{pid}.txt" in err, err
    assert not out.exists()


def test_eval_consistency_requires_source(tmp_path, cohort_dir):
    code = cli_main(
        ["eval-consistency", "--cohort", str(cohort_dir), "--out", str(tmp_path / "x")]
    )
    assert code == 1


def test_negative_seed_rejected(tmp_path):
    code = cli_main(
        ["generate-cohort", "--out", str(tmp_path / "c"), "--n", "4", "--seed", "-1"]
    )
    assert code == 1


@pytest.fixture
def sea_checkpoint(tmp_path):
    """An untrained checkpoint laid out as train-sea writes it."""
    root = tmp_path / "sea"
    Embedder().save(root / "embedder")
    SegDecoder().save(root / "decoder")
    return root


def _eval_grounding_error(cohort_dir, checkpoint, out, capsys) -> str:
    code = cli_main(
        ["eval-grounding", "--cohort", str(cohort_dir), "--checkpoint", str(checkpoint),
         "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


_SEA_TENSORS = pytest.mark.parametrize(
    "part, tensor", [("decoder", "l0.sa_wq"), ("embedder", "head_w")]
)


@_SEA_TENSORS
def test_decoder_checkpoint_missing_tensor_exits_1(
    tmp_path, cohort_dir, sea_checkpoint, capsys, part, tensor
):
    manifest_path = sea_checkpoint / part / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["params"].remove(tensor)
    manifest_path.write_text(json.dumps(manifest))
    err = _eval_grounding_error(cohort_dir, sea_checkpoint, tmp_path / "eval", capsys)
    assert tensor in err


def test_embedder_manifest_negative_dim_exits_1(tmp_path, cohort_dir, sea_checkpoint, capsys):
    manifest_path = sea_checkpoint / "embedder" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["base_dim"] = -1
    manifest_path.write_text(json.dumps(manifest))
    err = _eval_grounding_error(cohort_dir, sea_checkpoint, tmp_path / "eval", capsys)
    assert "base_dim" in err


def test_zero_embedder_head_exits_1(tmp_path, cohort_dir, sea_checkpoint, capsys):
    """A head of zeros pools every text to the zero vector, which has no
    direction to rank by."""
    emb = Embedder()
    emb.flat[...] = 0.0
    emb.save(sea_checkpoint / "embedder")
    err = _eval_grounding_error(cohort_dir, sea_checkpoint, tmp_path / "eval", capsys)
    assert "norm below 1e-12" in err


@_SEA_TENSORS
def test_decoder_checkpoint_wrong_shape_exits_1(
    tmp_path, cohort_dir, sea_checkpoint, capsys, part, tensor
):
    tensorio.save_tensor(sea_checkpoint / part / f"{tensor}.emad", np.ones((3, 32)))
    err = _eval_grounding_error(cohort_dir, sea_checkpoint, tmp_path / "eval", capsys)
    assert tensor in err and "(3, 32)" in err


@pytest.fixture
def policy_checkpoint(tmp_path):
    """An untrained policy checkpoint laid out as train-grpo writes it."""
    root = tmp_path / "policy"
    ReportPolicy().save(root)
    return root


def _eval_consistency_error(cohort_dir, policy_dir, out, capsys) -> str:
    code = cli_main(
        ["eval-consistency", "--cohort", str(cohort_dir), "--policy", str(policy_dir),
         "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


def test_policy_checkpoint_missing_tensor_exits_1(tmp_path, cohort_dir, policy_checkpoint, capsys):
    manifest_path = policy_checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["params"].remove("diagnosis.w")
    manifest_path.write_text(json.dumps(manifest))
    err = _eval_consistency_error(cohort_dir, policy_checkpoint, tmp_path / "eval", capsys)
    assert "diagnosis.w" in err


def test_policy_checkpoint_wrong_shape_exits_1(tmp_path, cohort_dir, policy_checkpoint, capsys):
    tensorio.save_tensor(policy_checkpoint / "diagnosis.w.emad", np.ones((2, 16)))
    err = _eval_consistency_error(cohort_dir, policy_checkpoint, tmp_path / "eval", capsys)
    assert "diagnosis.w" in err and "(2, 16)" in err


def test_policy_checkpoint_truncated_header_exits_1(
    tmp_path, cohort_dir, policy_checkpoint, capsys
):
    path = policy_checkpoint / "order.b.emad"
    path.write_bytes(path.read_bytes()[:7])
    err = _eval_consistency_error(cohort_dir, policy_checkpoint, tmp_path / "eval", capsys)
    assert "truncated header" in err


def _files(root):
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_pipeline_matches_stage_commands(tmp_path, capsys):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({
        "grounder": {"epochs": 1, "decoder_epochs": 1},
        "pretrain": {"steps": 10},
        "distill": {"epochs": 1},
        "rft": {"iters": 20},
    }))
    flags = ["--seed", "3", "--config", str(cfg)]
    piped = tmp_path / "piped"
    assert cli_main(["pipeline", "--out", str(piped), "--n", "48"] + flags) == 0

    one = tmp_path / "one"
    cohort, sea, grpo = str(one / "cohort"), str(one / "sea"), str(one / "grpo")
    for argv in [
        ["generate-cohort", "--out", cohort, "--n", "48"],
        ["pretrain", "--cohort", cohort, "--out", str(one / "pretrain")],
        ["train-sea", "--cohort", cohort, "--out", sea],
        ["distill", "--cohort", cohort, "--teacher", sea, "--out", str(one / "distill")],
        ["label-efficiency", "--cohort", cohort, "--out", str(one / "label-efficiency")],
        ["train-grpo", "--cohort", cohort, "--out", grpo],
        ["eval-grounding", "--cohort", cohort, "--checkpoint", sea,
         "--out", str(one / "eval-grounding")],
        ["eval-consistency", "--cohort", cohort, "--policy", f"{grpo}/policy",
         "--out", str(one / "eval-consistency")],
    ]:
        assert cli_main(argv + flags) == 0, argv
    want = _files(one)
    assert {name.split("/")[0] for name in want} == {
        "cohort", "pretrain", "sea", "distill", "label-efficiency", "grpo",
        "eval-grounding", "eval-consistency",
    }
    assert _files(piped) == want


def test_pipeline_nonpositive_n_exits_1(tmp_path, capsys):
    assert cli_main(["pipeline", "--out", str(tmp_path / "p"), "--n", "0"]) == 1
    assert "n_patients" in _one_line_error(capsys)


def test_readme_commands_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = [
        line
        for line in readme.replace("\\\n", " ").splitlines()
        if line.startswith("eviground ")
    ]
    assert len(commands) >= 10
    parser = _build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])
