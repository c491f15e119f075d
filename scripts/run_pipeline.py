#!/usr/bin/env python3
"""End-to-end demo: cohort -> pretrain -> grounder -> distill -> RFT -> evals.

Writes everything under --workdir (default ./pipeline_run) and prints a
short summary per stage. Equivalent CLI invocations are noted inline.
"""

import argparse
import time
from pathlib import Path

import numpy as np

from eviground.cohort import Cohort, CohortConfig, generate_cohort
from eviground.config import RunConfig
from eviground.distill import TeacherGrounder, generated_reports_for, train_student
from eviground.grounding import train_grounding
from eviground.metrics import eval_consistency, eval_grounding
from eviground.policy import ReportPolicy, sample_group, train_rft
from eviground.pretrain import pretrain_data_from_cohort, run_pretrain
from eviground.rules import LexicalEntailmentScorer


def stage(name):
    print(f"\n=== {name} ===")
    return time.time()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="pipeline_run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--patients", type=int, default=100)
    args = parser.parse_args()

    work = Path(args.workdir)
    cfg = RunConfig(seed=args.seed)
    cfg.cohort = CohortConfig(n_patients=args.patients, seed=args.seed)

    t = stage("generate cohort  (eviground generate-cohort)")
    generate_cohort(cfg.cohort, work / "cohort")
    cohort = Cohort.load(work / "cohort")
    print(f"{args.patients} patients in {time.time() - t:.1f}s")

    t = stage("pretrain  (eviground pretrain)")
    history = run_pretrain(pretrain_data_from_cohort(cohort, "train", cfg.pretrain), cfg.pretrain)
    print(f"l_pt {history[0]['l_pt']:.3f} -> {history[-1]['l_pt']:.3f} in {time.time() - t:.1f}s")

    t = stage("train grounder  (eviground train-sea)")
    emb, dec, curves = train_grounding(cohort, cfg.grounder)
    emb.save(work / "sea" / "embedder")
    dec.save(work / "sea" / "decoder")
    print(f"l_se {curves['l_se'][0]:.4f} -> {curves['l_se'][-1]:.4f} in {time.time() - t:.1f}s")

    t = stage("distill student  (eviground distill)")
    teacher = TeacherGrounder(emb, tau=cfg.grounder.tau, trained=True)
    student, curve = train_student(
        generated_reports_for(cohort, cohort.split["train"]), teacher, cfg.distill
    )
    student.save(work / "student" / "embedder")
    print(f"distill loss {curve[0]:.5f} -> {curve[-1]:.5f} in {time.time() - t:.1f}s")

    t = stage("reinforcement fine-tuning  (eviground train-grpo)")
    scorer = LexicalEntailmentScorer(cohort.rules)
    patients = [cohort.records[pid] for pid in cohort.split["train"]]
    policy = ReportPolicy(seed=args.seed, rules=cohort.rules)
    pre_policy = policy.copy()
    policy, rows = train_rft(policy, patients, cohort.rules, scorer, cfg.rft)
    policy.save(work / "rft" / "policy")
    print(f"mean reward {rows[0]['mean_reward']:.3f} -> {rows[-1]['mean_reward']:.3f} "
          f"in {time.time() - t:.1f}s")

    t = stage("evaluation  (eviground eval-grounding / eval-consistency)")
    grounding_table = eval_grounding(emb, dec, cohort, "test", tau=cfg.grounder.tau)
    print("grounding:", {k: round(v, 3) for k, v in grounding_table.items() if "ablated" not in k})

    rng = np.random.default_rng(args.seed)
    def table_for(pol):
        pairs = []
        for pid in cohort.split["test"]:
            record = cohort.records[pid]
            group = sample_group(pol, record, cfg.rft.group_size, rng.integers(2**63))
            pairs.extend((record, r.text) for r in group.rollouts)
        return eval_consistency(pairs, cohort.rules, scorer)

    print("consistency before RFT:", {k: round(v, 3) for k, v in table_for(pre_policy).items()})
    print("consistency after  RFT:", {k: round(v, 3) for k, v in table_for(policy).items()})
    print(f"({time.time() - t:.1f}s)")


if __name__ == "__main__":
    main()
