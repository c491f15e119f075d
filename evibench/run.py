#!/usr/bin/env python3
"""Outside-in benchmark of eviground.

Run from the root of a checkout:

    python3 evibench/run.py --workload sea --seed 0 --seconds 30 --trace 0

One closed-loop caller in this single process drives ``eviground.cli.cli_main``
(the path users run, checkpoint and CSV writes included), imported from
``./src`` only. Each repeat starts when the previous one returns. BLAS is
pinned to one thread. Work files live under ``.bench_work/`` in the checkout.

``--trace 0`` prints the end-to-end metrics: the median set-up time (package
import, ``generate-cohort`` and ``Cohort.load``, sampled throughout the run),
the median wall time of one repeat of the workload's commands, work units
per second, peak RSS and the workload's quality number. ``--trace 1`` wraps
the public functions of every package module and prints per-layer calls,
self time and counts; its traced outputs are checked byte for byte against
an untraced repeat.

Every repeat and set-up sample is one attempted operation. It fails on a
non-zero exit, on an acceptance threshold missed, or on output bytes that
differ from the first repeat's. The last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, per_span_cost
from workloads import FULL, WORKLOADS, Size, layer_values, per_layer_metrics, trace_targets, write_config

PACKAGE = "eviground"
WORK_DIR = ".bench_work"
# share of the run spent on set-up samples, interleaved with the repeats
SETUP_SHARE = 0.15
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "quality": "1",
}


class ProgramMissing(Exception):
    pass


def import_program(root: Path):
    """Import eviground from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / PACKAGE / "__init__.py").is_file():
        raise ProgramMissing(f"no {PACKAGE} package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = _fresh_import()
    origin = Path(sys.modules[PACKAGE].__file__).resolve().parent
    if origin != src / PACKAGE:
        raise ProgramMissing(f"{PACKAGE} imported from {origin}, not {src / PACKAGE}")
    return cli


def _fresh_import():
    """Drop every loaded eviground module and import the CLI again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(f"{PACKAGE}.cli")


def release_space(work: Path) -> None:
    """Empty every file the run's operations wrote, but keep the files.

    Deleting them would be simpler, but ext4 without a journal passes over
    recently deleted inodes when it allocates one, for minutes. On a 2-core
    VM with such a root file system, over six back-to-back runs that deleted
    their cohorts, creating a file grew from about 40 us to 400 us and the
    median set-up from 0.31 s to 0.55 s.
    Truncation frees the data blocks and leaves the inodes allocated, so the
    next run's set-up costs what it cost in this one.
    """
    for path in work.glob("*/**/*"):
        if path.is_file():
            os.truncate(path, 0)


def digest(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile that has at least ten
    samples above it; None for ten samples or fewer."""
    if len(samples) <= 10:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


# --- environment ------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _fs_type(path: Path) -> str:
    path = path.resolve()
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1]
                inside = path == Path(mount) or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root: Path, work: Path, size: Size, seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": _blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "work_dir_fs": _fs_type(work),
        "git_commit": _git_commit(root),
        "cohort_size": size.n_patients,
        "seed": seed,
    }


# --- one run ----------------------------------------------------------------------


class Bench:
    """State of one benchmark run: its work directory, cohort and counters."""

    def __init__(self, workload: str, seed: int, seconds: float, size: Size, work: Path):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.config = None
        self.cohort_dir: Path | None = None  # the first set-up sample's cohort
        self.cohort_digest: dict[str, str] = {}
        self.cohort = None  # loaded by prepare(), read by the workload's gates
        self.first_outputs: dict[str, str] | None = None

    def fail(self, *reasons: str) -> None:
        """Count one failed operation, whatever the number of reasons; each
        reason starts with its kind: ``exit``, ``gate``, ``bytes`` or ``counts``."""
        if reasons:
            self.failed += 1
            self.failures.extend(reasons)
            for reason in reasons:
                print(f"FAILED {reason}", file=sys.stderr)

    @staticmethod
    def run_cli(argv: list[str], tracer: Tracer | None) -> tuple[int, str]:
        cli = sys.modules[f"{PACKAGE}.cli"]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                rc = cli.cli_main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", cli.cli_main, argv)
        return rc, buf.getvalue()

    def fresh_dir(self, prefix: str) -> Path:
        """A new directory for one operation's output; see release_space()
        for why nothing is ever deleted."""
        self.attempted += 1
        return self.work / f"{prefix}-{self.attempted}"

    def setup_sample(self, tracer: Tracer | None = None) -> tuple[float, Path]:
        """Time import + generate-cohort + Cohort.load once; check the bytes
        against the run's first cohort.

        A traced sample keeps the patched modules, so it skips the import.
        """
        dest = self.fresh_dir("setup")
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            _fresh_import()
        argv = ["generate-cohort", "--out", str(dest), "--n", str(self.size.n_patients),
                "--seed", str(self.seed)]
        rc, _ = self.run_cli(argv, tracer)
        if rc == 0:
            sys.modules[f"{PACKAGE}.cohort"].Cohort.load(dest)
        elapsed = time.perf_counter() - start
        if rc != 0:
            self.fail(f"exit: generate-cohort exited {rc}")
        elif self.cohort_digest and digest(dest) != self.cohort_digest:
            self.fail("bytes: generated cohort differs from the first one of this run")
        return elapsed, dest

    def prepare(self) -> float:
        self.work.mkdir(parents=True)
        self.config = write_config(self.work / "run-config.json", self.wl.config(self.size))
        elapsed, self.cohort_dir = self.setup_sample()
        if self.failures:
            raise RuntimeError("cohort generation failed")
        self.cohort_digest = digest(self.cohort_dir)
        self.cohort = sys.modules[f"{PACKAGE}.cohort"].Cohort.load(self.cohort_dir)
        return elapsed

    def repeat(self, tracer: Tracer | None = None) -> tuple[float, Path, str | None]:
        """One timed repeat of the workload's commands: its time, output
        directory and stdout (None on a non-zero exit)."""
        out = self.fresh_dir("out")
        out.mkdir()
        argvs = self.wl.commands(str(self.cohort_dir), out, self.config, self.size)
        stdout = []
        gc.collect()
        start = time.perf_counter()
        for argv in argvs:
            rc, text = self.run_cli(argv, tracer)
            stdout.append(text)
            if rc != 0:
                self.fail(f"exit: {argv[0]} exited {rc}")
                return time.perf_counter() - start, out, None
        return time.perf_counter() - start, out, "".join(stdout)

    def check(self, out: Path, stdout: str) -> float:
        """Gates of one repeat: thresholds, and the same bytes as the first."""
        quality, gates = self.wl.check(self.cohort, out, stdout, self.size)
        reasons = [f"gate: {gate}" for gate in gates]
        outputs = digest(out)
        outputs["<stdout>"] = hashlib.sha256(stdout.encode()).hexdigest()
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            changed = sorted(k for k in outputs.keys() | self.first_outputs.keys()
                             if outputs.get(k) != self.first_outputs.get(k))
            reasons.append(f"bytes: output bytes differ from the first repeat: {changed[:5]}")
        self.fail(*reasons)
        return quality

    def time_left(self, started: float, next_cost: float) -> bool:
        return time.perf_counter() + next_cost <= started + self.seconds

    # --- the two kinds of run -------------------------------------------------

    def measure(self) -> tuple[dict, dict]:
        """Untraced run: end-to-end metrics."""
        started = time.perf_counter()
        setups = [self.prepare()]
        units = self.wl.units(self.cohort, self.size)
        walls, qualities = [], []
        while True:
            wall, out, stdout = self.repeat()
            walls.append(wall)
            if stdout is not None:
                qualities.append(self.check(out, stdout))
            while (sum(setups) < SETUP_SHARE * (time.perf_counter() - started)
                   and self.time_left(started, statistics.median(setups))):
                setups.append(self.setup_sample()[0])
            if not self.time_left(started, statistics.median(walls) * (1 + SETUP_SHARE)):
                break
        # too little time is left for another repeat: spend it on set-up samples
        while self.time_left(started, statistics.median(setups)):
            setups.append(self.setup_sample()[0])
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "steps_per_s": units / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quality": qualities[0] if qualities else 0.0,
        }
        details = {
            "units_per_repeat": units,
            "unit": self.wl.unit,
            "repeat_walls_s": walls,
            "setup_samples_s": setups,
            "setup_s_tail": tail_percentile(setups),
            "qualities": qualities,
        }
        return metrics, details

    def measure_traced(self) -> tuple[dict, dict]:
        """Traced run: one untraced reference repeat, then traced rounds of
        (set-up sample + repeat) until the time is up; per-layer metrics."""
        started = time.perf_counter()
        self.prepare()
        untraced_wall, out, stdout = self.repeat()
        if stdout is None:
            raise RuntimeError("the untraced reference repeat failed")
        self.check(out, stdout)
        tracer = Tracer(PACKAGE)
        targets = trace_targets()
        round_walls = []
        while True:
            tracer.run_id = len(round_walls)
            tracer.install(targets)
            try:
                setup_wall = self.setup_sample(tracer)[0]
                wall, out, stdout = self.repeat(tracer)
            finally:
                tracer.uninstall()
            if stdout is not None:
                self.check(out, stdout)
            wall += setup_wall
            round_walls.append(wall)
            if not self.time_left(started, wall):
                break
        rounds = tracer.per_round()
        per_round = [layer_values(rounds.get(i, {}), tracer, i) for i in range(len(round_walls))]
        metrics = {}
        unsteady = []
        for name, unit in per_layer_metrics():
            if name.startswith("trace."):
                continue
            values = [r[name] for r in per_round]
            if unit == "s":
                metrics[name] = statistics.median(values)
            else:
                if any(v != values[0] for v in values):
                    unsteady.append(f"counts: {name} differs between traced rounds: {values}")
                metrics[name] = values[0]
        self.fail(*unsteady)
        spans_per_round = sum(1 for s in tracer.closed_spans() if s[4] == 0)
        overhead = per_span_cost() * spans_per_round
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / statistics.median(round_walls)
        with open(self.work / "spans.jsonl", "w") as fh:
            for span in tracer.closed_spans():
                fh.write(json.dumps(span) + "\n")
        details = {
            "untraced_repeat_s": untraced_wall,
            "traced_round_walls_s": round_walls,
            "spans_per_round": spans_per_round,
        }
        return metrics, details


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> dict:
    """One benchmark run; returns the printed result plus env and details."""
    work = root / WORK_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    import_program(root)
    bench = Bench(workload, seed, seconds, size, work)
    values, details = bench.measure_traced() if trace else bench.measure()
    units = dict(per_layer_metrics()) if trace else END_TO_END_UNITS
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "size": size.__dict__,
        "env": environment(root, work, size, seed),
        "details": details,
        "failures": bench.failures,
        "result": result,
    }
    with open(work / "result.json", "w") as fh:
        json.dump(record, fh, indent=2)
    release_space(work)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    root = Path.cwd()
    try:
        record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}; run from the root of an eviground checkout", file=sys.stderr)
        return 2
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("details " + json.dumps(record["details"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
