"""The four benchmark workloads, their input sizes, quality gates and layers.

Each workload is a fixed sequence of ``eviground`` CLI commands run against
a cohort generated from the benchmark seed. The benchmark reads the files
the commands write (outside-in) to compute the workload's quality number
and to check the acceptance thresholds.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from tracer import Tracer


@dataclass(frozen=True)
class Size:
    """Input size of one run; FULL is what the benchmark reports."""

    n_patients: int
    decoder_epochs: int
    pretrain_steps: int
    distill_epochs: int
    fractions: str
    grpo_iters: int
    gradcheck_seeds: int


FULL = Size(
    n_patients=100,
    decoder_epochs=10,
    pretrain_steps=200,
    distill_epochs=10,
    fractions="0.25,1.0",
    grpo_iters=500,
    gradcheck_seeds=3,
)
# Smallest size at which every command still runs: label-efficiency needs
# at least 8 labeled patients at fraction 0.25, so 48 patients (33 train).
TINY = Size(
    n_patients=48,
    decoder_epochs=1,
    pretrain_steps=10,
    distill_epochs=1,
    fractions="0.25,1.0",
    grpo_iters=20,
    gradcheck_seeds=1,
)

# acceptance thresholds (tests/test_acceptance.py criteria 6 and 7)
MIN_R_AT_3 = 0.9
MIN_MAP = 0.8
LE_MIN_RATIO = {0.25: 0.95, 1.0: 0.98}
STRUCTURES = ("left_hippocampus", "right_hippocampus", "overall")
# reward evaluation of a trained policy, as in acceptance criterion 5
REWARD_EVAL_SEED = 314
REWARD_EVAL_GROUP = 4

# loss functions whose evaluations the verify workload counts as its unit
LOSS_FUNCTIONS = (
    ("grounding", "multi_positive_infonce"),
    ("losses", "dice_bce_loss"),
    ("distill", "distill_loss"),
    ("pretrain", "itc_loss"),
    ("losses", "token_nll"),
    ("losses", "mse_loss"),
    ("policy", "grpo_loss"),
)


def _read_metrics_csv(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        return {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}


class Workload:
    name = ""
    unit = ""

    def config(self, size: Size) -> dict:
        """--config overrides written once per run (empty: none)."""
        return {}

    def commands(self, cohort: str, out: Path, config: str | None, size: Size):
        raise NotImplementedError

    def units(self, cohort, size: Size) -> int:
        """Units of work in one repeat, counted from the inputs."""
        raise NotImplementedError

    def check(self, cohort, out: Path, stdout: str, size: Size) -> tuple[float, list[str]]:
        """(quality, failed gates) of one repeat's outputs."""
        raise NotImplementedError


class Sea(Workload):
    name = "sea"
    unit = "decoder sample-steps"

    def config(self, size):
        return {"grounder": {"decoder_epochs": size.decoder_epochs}}

    def commands(self, cohort, out, config, size):
        return [
            ["train-sea", "--cohort", cohort, "--out", str(out / "sea"), "--config", config],
            ["eval-grounding", "--cohort", cohort, "--checkpoint", str(out / "sea"),
             "--out", str(out / "eval"), "--config", config],
        ]

    def units(self, cohort, size):
        samples = sum(
            1
            for pid in cohort.split["train"]
            for item in cohort.records[pid].evidence
            if item.anatomy_ref is not None
        )
        return samples * size.decoder_epochs

    def check(self, cohort, out, stdout, size):
        table = _read_metrics_csv(out / "eval" / "metrics.csv")
        failed = []
        if table["r_at_3"] < MIN_R_AT_3:
            failed.append(f"R@3 {table['r_at_3']:.3f} < {MIN_R_AT_3}")
        if table["map"] < MIN_MAP:
            failed.append(f"MAP {table['map']:.3f} < {MIN_MAP}")
        for structure in STRUCTURES:
            cond, abl = table[f"dice.{structure}"], table[f"dice_ablated.{structure}"]
            if not cond > abl:
                failed.append(f"{structure}: Dice {cond:.3f} <= ablated {abl:.3f}")
        return table["dice.overall"], failed


class Distill(Workload):
    name = "distill"
    unit = "student sentence-steps"

    def config(self, size):
        return {
            "pretrain": {"steps": size.pretrain_steps},
            "distill": {"epochs": size.distill_epochs},
        }

    def commands(self, cohort, out, config, size):
        return [
            ["pretrain", "--cohort", cohort, "--out", str(out / "pretrain"), "--config", config],
            ["label-efficiency", "--cohort", cohort, "--out", str(out / "le"),
             "--fractions", size.fractions, "--config", config],
        ]

    def units(self, cohort, size):
        from eviground.report import parse_report

        sentences = sum(
            len(parse_report(cohort.gold_report(pid)).reasoning_sentences)
            for pid in cohort.split["train"]
        )
        return sentences * size.distill_epochs * len(size.fractions.split(","))

    def check(self, cohort, out, stdout, size):
        with open(out / "le" / "label_efficiency.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = []
        for row in rows:
            fraction, ratio = float(row["fraction"]), float(row["ratio"])
            need = LE_MIN_RATIO.get(fraction)
            if need is not None and ratio < need:
                failed.append(f"LE ratio {ratio:.3f} < {need} at fraction {fraction}")
        return min(float(row["ratio"]) for row in rows), failed


class Rft(Workload):
    name = "rft"
    unit = "GRPO iterations"

    def commands(self, cohort, out, config, size):
        return [
            ["train-grpo", "--cohort", cohort, "--out", str(out / "rft"),
             "--iters", str(size.grpo_iters)],
            ["eval-consistency", "--cohort", cohort, "--policy", str(out / "rft" / "policy"),
             "--out", str(out / "consistency")],
        ]

    def units(self, cohort, size):
        return size.grpo_iters

    def check(self, cohort, out, stdout, size):
        import eviground.policy as policy_mod
        from eviground.rules import LexicalEntailmentScorer

        scorer = LexicalEntailmentScorer(cohort.rules)
        test = [cohort.records[pid] for pid in cohort.split["test"]]
        trained = policy_mod.ReportPolicy.load(out / "rft" / "policy")
        trained.rules = cohort.rules

        def reward(policy):
            return policy_mod.evaluate_policy_reward(
                policy, test, cohort.rules, scorer, REWARD_EVAL_GROUP, REWARD_EVAL_SEED
            )

        r_trained = reward(trained)
        r_uniform = reward(policy_mod.ReportPolicy(rules=cohort.rules))
        failed = []
        if not r_trained > r_uniform:
            failed.append(f"trained reward {r_trained:.4f} <= uniform {r_uniform:.4f}")
        return r_trained / cohort.rules.max_total(), failed


class Verify(Workload):
    name = "verify"
    unit = "loss evaluations"

    def commands(self, cohort, out, config, size):
        # gradcheck draws its instances from fixed seeds 0..n-1 of its own
        return [["gradcheck", "--seeds", str(size.gradcheck_seeds)]]

    def units(self, cohort, size):
        from eviground import gradcheck

        counter = Tracer()
        counter.install((module, name, None) for module, name in LOSS_FUNCTIONS)
        try:
            gradcheck.run_all(1)
        finally:
            counter.uninstall()
        return len(counter.closed_spans()) * size.gradcheck_seeds

    def check(self, cohort, out, stdout, size):
        from eviground import gradcheck

        lines = [line for line in stdout.splitlines() if "max rel err" in line]
        failed = []
        ok = 0
        for line in lines:
            err = float(line.split("max rel err")[1].split()[0])
            if err < gradcheck.TOLERANCE:
                ok += 1
            else:
                failed.append(line.strip())
        if len(lines) != len(gradcheck.SUITES):
            failed.append(f"{len(lines)} suite lines for {len(gradcheck.SUITES)} suites")
        return ok / max(1, len(gradcheck.SUITES)), failed


WORKLOADS = {w.name: w for w in (Sea(), Distill(), Rft(), Verify())}


def write_config(path: Path, overrides: dict) -> str | None:
    if not overrides:
        return None
    path.write_text(json.dumps(overrides, sort_keys=True))
    return str(path)


# --- layers traced in a --trace 1 run ---------------------------------------------

# module -> public functions wrapped by the tracer (calls + self_s each)
LAYERS = {
    "segdecoder": [
        "SegDecoder.forward", "SegDecoder.backward", "SegDecoder.volume_to_tokens",
        "Adam.step", "train_mask_decoder",
    ],
    "losses": ["dice_bce_loss", "finite_difference_check"],
    "textenc": [
        "Embedder.embed_text", "Embedder.features_of_texts", "Embedder.encode_features",
        "Embedder.backward_texts", "Embedder.embed_tokens",
    ],
    "grounding": ["train_grounding", "infonce_from_features", "grounding_logits"],
    "distill": [
        "train_student", "distill_loss", "teacher_evidence_distribution",
        "label_efficiency_experiment",
    ],
    "pretrain": ["run_pretrain", "pretrain_data_from_cohort", "itc_loss", "reconstruction_losses"],
    "policy": [
        "train_rft", "sample_group", "ReportPolicy.sample", "ReportPolicy.render",
        "score_group", "grpo_loss", "ReportPolicy.mean_kl_to",
    ],
    "report": ["parse_report", "format_reward"],
    "rules": [
        "total_reward", "category_alignment", "biomarker_consistency", "feature_coverage",
        "consistency_reward", "LexicalEntailmentScorer.classify",
    ],
    "metrics": ["eval_grounding", "eval_consistency", "rank_evidences"],
    "gradcheck": ["run_all", "check_grpo"],
    "cohort": ["generate_cohort", "Cohort.load", "Cohort.volume", "Cohort.mask"],
    "tensorio": ["save_tensor", "load_tensor", "save_params", "load_params"],
}
# every CLI command a workload runs; traced as cli.<command> around cli_main
CLI_COMMANDS = (
    "generate-cohort", "pretrain", "train-sea", "label-efficiency", "train-grpo",
    "eval-grounding", "eval-consistency", "gradcheck",
)


def _emad_bytes(x) -> int:
    """Size of the EMAD file holding ``x``: magic, rank, extents, float32s."""
    x = np.asarray(x)
    return 5 + 4 * x.ndim + 4 * x.size


def _count_saved_bytes(tracer, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.count("tensorio.save_tensor.bytes", _emad_bytes(x))


def _count_loaded_bytes(tracer, args, kwargs, result):
    tracer.count("tensorio.load_tensor.bytes", _emad_bytes(result))


def _distinct_embed_text(tracer, args, kwargs, result):
    emb, text = args[0], args[1] if len(args) > 1 else kwargs["text"]
    tracer.distinct("textenc.embed_text", (id(emb), text), owner=emb)


def _useful_group(tracer, args, kwargs, result):
    group = args[0] if args else kwargs["group"]
    if np.ptp(group.rewards) > 0.0:
        tracer.count("policy.useful_groups")


HOOKS = {
    ("tensorio", "save_tensor"): _count_saved_bytes,
    ("tensorio", "load_tensor"): _count_loaded_bytes,
    ("textenc", "Embedder.embed_text"): _distinct_embed_text,
    ("policy", "score_group"): _useful_group,
}


def trace_targets():
    return [
        (module, name, HOOKS.get((module, name)))
        for module, names in LAYERS.items()
        for name in names
    ]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, names in LAYERS.items():
        for name in names:
            out.append((f"{module}.{name}.calls", "count"))
            out.append((f"{module}.{name}.self_s", "s"))
            if module == "tensorio" and name in ("save_tensor", "load_tensor"):
                out.append((f"{module}.{name}.bytes", "B"))
    out.append(("textenc.embed_text.distinct_ratio", "1"))
    out.append(("policy.useful_group_ratio", "1"))
    out.append(("gradcheck.loss_evals", "count"))
    for command in CLI_COMMANDS:
        out.append((f"cli.{command}.self_s", "s"))
    out.append(("trace.overhead_s", "s"))
    out.append(("trace.overhead_share", "1"))
    return out


def layer_values(calls_self: dict[str, tuple[int, float]], tracer, run_id: int) -> dict[str, float]:
    """Per-layer metric values of one traced round."""
    values = {}
    for module, names in LAYERS.items():
        for name in names:
            calls, self_s = calls_self.get(f"{module}.{name}", (0, 0.0))
            values[f"{module}.{name}.calls"] = calls
            values[f"{module}.{name}.self_s"] = self_s
    for key in ("tensorio.save_tensor.bytes", "tensorio.load_tensor.bytes"):
        values[key] = int(tracer.counters.get((run_id, key), 0))
    embed_calls = values["textenc.Embedder.embed_text.calls"]
    values["textenc.embed_text.distinct_ratio"] = (
        tracer.distinct_count(run_id, "textenc.embed_text") / embed_calls if embed_calls else 0.0
    )
    groups = values["policy.score_group.calls"]
    values["policy.useful_group_ratio"] = (
        tracer.counters.get((run_id, "policy.useful_groups"), 0) / groups if groups else 0.0
    )
    checks = values["gradcheck.check_grpo.calls"]
    values["gradcheck.loss_evals"] = values["policy.grpo_loss.calls"] / checks if checks else 0
    for command in CLI_COMMANDS:
        values[f"cli.{command}.self_s"] = calls_self.get(f"cli.{command}", (0, 0.0))[1]
    return values
