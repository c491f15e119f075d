"""Command-line surface for the whole pipeline.

Exit codes: 0 success, 1 validation/usage error, 2 I/O error. Every
subcommand that writes outputs also records a run.json with the resolved
configuration and seed, so reruns reproduce identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import gradcheck, metrics, tensorio
from .cohort import Cohort, generate_cohort
from .config import RunConfig, check_seed
from .distill import (
    TeacherGrounder,
    generated_reports_for,
    label_efficiency_experiment,
    train_student,
)
from .errors import EvigroundError, MissingCheckpointError, ValidationError
from .grounding import train_grounding
from .policy import ReportPolicy, sample_group, train_rft
from .pretrain import pretrain_data_from_cohort, run_pretrain
from .report import parse_report
from .rules import LexicalEntailmentScorer, RuleConfig, total_reward
from .segdecoder import SegDecoder
from .textenc import Embedder


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="eviground", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON run-config overrides")
        p.add_argument("--seed", type=int, help="override the config seed")
        return p

    p = add("generate-cohort", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, help="number of patients")

    p = add("pretrain", help="alignment-stage training over the cohort")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)

    p = add("train-sea", help="train the grounding embedder and mask decoder")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)

    p = add("distill", help="distill a student from a trained grounder")
    p.add_argument("--cohort", required=True)
    p.add_argument("--teacher", required=True, help="train-sea output directory")
    p.add_argument("--out", required=True)

    p = add("label-efficiency", help="teacher/student R@3 across label fractions")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fractions", default="0.25,0.5,1.0")

    p = add("train-grpo", help="reinforcement fine-tuning of the report policy")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iters", type=int)

    p = add("score-report", help="print a reward breakdown JSON for one report")
    p.add_argument("--report", required=True)
    p.add_argument("--patient", required=True)
    p.add_argument("--cohort", required=True)

    p = add("eval-grounding", help="retrieval and Dice metrics on a split")
    p.add_argument("--cohort", required=True)
    p.add_argument("--checkpoint", required=True, help="train-sea output directory")
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="test")

    p = add("eval-consistency", help="accuracy/format/guideline/entailment table")
    p.add_argument("--cohort", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policy", help="policy checkpoint directory")
    p.add_argument("--reports", help="directory of <patient_id>.txt reports")
    p.add_argument("--split", default="test")

    p = add("gradcheck", help="finite-difference verification of all gradients")
    p.add_argument("--seeds", type=int, default=50)

    p = add("pipeline", help="run every training and evaluation stage under one directory")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, help="number of patients")

    return parser


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = check_seed(args.seed, "--seed")
    return cfg


def _write_run_json(out: Path, command: str, cfg: RunConfig) -> None:
    out.mkdir(parents=True, exist_ok=True)
    payload = {"command": command, "seed": cfg.seed, "config": cfg.to_json()}
    (out / "run.json").write_text(json.dumps(payload, indent=2, sort_keys=True))


def _load_embedder(root: Path) -> Embedder:
    if not (root / "embedder" / "manifest.json").exists():
        raise MissingCheckpointError(f"no embedder checkpoint under {root}")
    return Embedder.load(root / "embedder")


def _cmd_generate_cohort(args) -> int:
    cfg = _resolve_config(args)
    if args.n is not None:
        cfg.cohort = dataclasses.replace(cfg.cohort, n_patients=args.n)
    out = Path(args.out)
    manifest = generate_cohort(cfg.cohort, out, seed=cfg.seed)
    _write_run_json(out, "generate-cohort", cfg)
    print(f"wrote {len(manifest['files'])} files under {out}")
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _resolve_config(args)
    cohort = Cohort.load(args.cohort)
    data = pretrain_data_from_cohort(cohort, "train", cfg.pretrain)
    rows = run_pretrain(data, cfg.pretrain, seed=cfg.seed)
    out = Path(args.out)
    _write_run_json(out, "pretrain", cfg)
    metrics.write_rows_csv(out / "pretrain_log.csv", rows)
    print(f"l_pt {rows[0]['l_pt']:.4f} -> {rows[-1]['l_pt']:.4f}")
    return 0


def _cmd_train_sea(args) -> int:
    cfg = _resolve_config(args)
    cohort = Cohort.load(args.cohort)
    emb, dec, rows = train_grounding(cohort, cfg.grounder, seed=cfg.seed)
    out = Path(args.out)
    _write_run_json(out, "train-sea", cfg)
    emb.save(out / "embedder")
    if dec is not None:
        dec.save(out / "decoder")
    metrics.write_rows_csv(out / "grounding_log.csv", rows)
    print(f"l_se {rows[0]['l_se']:.4f} -> {rows[cfg.grounder.epochs - 1]['l_se']:.4f}")
    return 0


def _cmd_distill(args) -> int:
    cfg = _resolve_config(args)
    cohort = Cohort.load(args.cohort)
    emb = _load_embedder(Path(args.teacher))
    teacher = TeacherGrounder(emb, tau=cfg.grounder.tau, trained=True)
    reports = generated_reports_for(cohort, cohort.split["train"])
    student, rows = train_student(reports, teacher, cfg.distill, seed=cfg.seed)
    out = Path(args.out)
    _write_run_json(out, "distill", cfg)
    student.save(out / "embedder")
    metrics.write_rows_csv(out / "distill_log.csv", rows)
    print(f"distill loss {rows[0]['loss']:.6f} -> {rows[-1]['loss']:.6f}")
    return 0


def _cmd_label_efficiency(args) -> int:
    cfg = _resolve_config(args)
    try:
        fractions = [float(x) for x in args.fractions.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"bad --fractions: {exc}") from exc
    cohort = Cohort.load(args.cohort)
    grounder_cfg = cfg.grounder
    grounder_cfg.train_decoder = False
    rows = label_efficiency_experiment(
        cohort, fractions, cfg.distill, grounder_cfg, seed=cfg.seed
    )
    out = Path(args.out)
    _write_run_json(out, "label-efficiency", cfg)
    metrics.write_rows_csv(out / "label_efficiency.csv", rows)
    for row in rows:
        print(
            f"fraction {row['fraction']:.2f}: teacher {row['teacher_r3']:.3f} "
            f"student {row['student_r3']:.3f} ratio {row['ratio']:.3f} "
            f"student_kl {row['student_kl']:.4f}"
        )
    return 0


def _cmd_train_grpo(args) -> int:
    cfg = _resolve_config(args)
    if args.iters is not None:
        cfg.rft = dataclasses.replace(cfg.rft, iters=args.iters)
    cohort = Cohort.load(args.cohort)
    scorer = LexicalEntailmentScorer(cohort.rules)
    patients = [cohort.records[pid] for pid in cohort.split["train"]]
    policy = ReportPolicy(seed=cfg.seed, rules=cohort.rules)
    policy, rows = train_rft(policy, patients, cohort.rules, scorer, cfg.rft, seed=cfg.seed)
    out = Path(args.out)
    _write_run_json(out, "train-grpo", cfg)
    policy.save(out / "policy")
    metrics.write_rows_csv(out / "rft_log.csv", rows)
    print(f"mean reward {rows[0]['mean_reward']:.3f} -> {rows[-1]['mean_reward']:.3f}")
    return 0


def _cmd_score_report(args) -> int:
    """Here --config names a rules.json, not a run config."""
    cohort = Cohort.load(args.cohort)
    if args.patient not in cohort.records:
        raise ValidationError(f"unknown patient {args.patient!r}")
    text = tensorio.read_text(args.report)
    record = cohort.records[args.patient]
    rules = RuleConfig.load(args.config) if args.config else cohort.rules
    breakdown = total_reward(
        parse_report(text), record, rules, LexicalEntailmentScorer(rules)
    )
    print(json.dumps(breakdown.to_json(), indent=2, sort_keys=True))
    return 0


def _cmd_eval_grounding(args) -> int:
    cfg = _resolve_config(args)
    cohort = Cohort.load(args.cohort)
    root = Path(args.checkpoint)
    emb = _load_embedder(root)
    dec_dir = root / "decoder"
    dec = SegDecoder.load(dec_dir) if (dec_dir / "manifest.json").exists() else None
    table = metrics.eval_grounding(emb, dec, cohort, args.split, tau=cfg.grounder.tau)
    out = Path(args.out)
    _write_run_json(out, "eval-grounding", cfg)
    metrics.write_metrics_csv(out / "metrics.csv", table)
    for key in sorted(table):
        print(f"{key}: {table[key]:.4f}")
    return 0


def _cmd_eval_consistency(args) -> int:
    cfg = _resolve_config(args)
    cohort = Cohort.load(args.cohort)
    scorer = LexicalEntailmentScorer(cohort.rules)
    ids = cohort.split_ids(args.split)
    pairs = []
    if args.policy:
        policy = ReportPolicy.load(args.policy)
        policy.rules = cohort.rules
        rng = np.random.default_rng(cfg.seed)
        for pid in ids:
            record = cohort.records[pid]
            group = sample_group(policy, record, cfg.rft.group_size, rng.integers(2**63))
            pairs.extend((record, rollout.text) for rollout in group.rollouts)
    elif args.reports:
        for pid in ids:
            path = Path(args.reports) / f"{pid}.txt"
            if path.exists():
                pairs.append((cohort.records[pid], tensorio.read_text(path)))
        if not pairs:
            raise ValidationError(f"no <patient>.txt reports for split {args.split!r} in {args.reports}")
    else:
        raise ValidationError("one of --policy or --reports is required")
    table = metrics.eval_consistency(pairs, cohort.rules, scorer)
    out = Path(args.out)
    _write_run_json(out, "eval-consistency", cfg)
    metrics.write_metrics_csv(out / "metrics.csv", table)
    for key in ("accuracy", "valid_format_rate", "nia_consistency_rate", "entailment_rate"):
        print(f"{key}: {table[key]:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ValidationError("--seeds must be at least 1")
    results = gradcheck.run_all(args.seeds)
    failed = False
    for name, err in results.items():
        ok = err < gradcheck.TOLERANCE
        failed |= not ok
        print(f"{name}: max rel err {err:.3e} [{'ok' if ok else 'FAIL'}]")
    return 1 if failed else 0


def _cmd_pipeline(args) -> int:
    """Run the stages one after another, each as its own command would,
    under <out>/<stage>; stop at the first stage that fails."""
    out = Path(args.out)
    cohort, sea = str(out / "cohort"), str(out / "sea")
    shared = [f"--config={args.config}"] if args.config else []
    if args.seed is not None:
        shared += ["--seed", str(args.seed)]
    n = [] if args.n is None else ["--n", str(args.n)]
    stages = [
        ["generate-cohort", "--out", cohort, *n],
        ["pretrain", "--cohort", cohort, "--out", str(out / "pretrain")],
        ["train-sea", "--cohort", cohort, "--out", sea],
        ["distill", "--cohort", cohort, "--teacher", sea, "--out", str(out / "distill")],
        ["label-efficiency", "--cohort", cohort, "--out", str(out / "label-efficiency")],
        ["train-grpo", "--cohort", cohort, "--out", str(out / "grpo")],
        ["eval-grounding", "--cohort", cohort, "--checkpoint", sea,
         "--out", str(out / "eval-grounding")],
        ["eval-consistency", "--cohort", cohort, "--policy", str(out / "grpo" / "policy"),
         "--out", str(out / "eval-consistency")],
    ]
    parser = _build_parser()
    for argv in stages:
        print(f"== {argv[0]}")
        stage_args = parser.parse_args(argv + shared)
        code = _COMMANDS[stage_args.command](stage_args)
        if code:
            return code
    return 0


_COMMANDS = {
    "generate-cohort": _cmd_generate_cohort,
    "pretrain": _cmd_pretrain,
    "train-sea": _cmd_train_sea,
    "distill": _cmd_distill,
    "label-efficiency": _cmd_label_efficiency,
    "train-grpo": _cmd_train_grpo,
    "score-report": _cmd_score_report,
    "eval-grounding": _cmd_eval_grounding,
    "eval-consistency": _cmd_eval_consistency,
    "gradcheck": _cmd_gradcheck,
    "pipeline": _cmd_pipeline,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except MissingCheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvigroundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
