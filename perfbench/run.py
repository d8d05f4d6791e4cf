#!/usr/bin/env python3
"""Seeded benchmark of statetrees, timed per job and per module from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One workload runs in this single process (plus one short-lived
child interpreter at a time while set-up is timed).  BLAS and OpenMP
pools are pinned to one thread before numpy loads.

Phases:
  set-up   five times: a fresh interpreter imports statetrees.cli, then
           the inputs of round 0 are generated and written; the median
           is `setup_s`.
  warm-up  one job of each kind, from a separate input namespace, not
           timed and not counted, so first-call costs stay out of the numbers.
  rounds   the workload's job list with fresh inputs, repeated until
           `--seconds` have passed and at least the workload's minimum
           number of rounds ran.  Only the jobs are timed; every output
           is checked between jobs, outside the timed region.
           `job_tail_s` is taken over the jobs of the first minimum
           rounds only, so its rank in the job mix does not move with
           how many rounds fit into `--seconds`.

Times are reported in reference seconds.  The machine this benchmark
was tuned on changes speed by up to 2x for minutes at a time, so a fixed
calibration kernel (a pure-Python loop plus small numpy operations,
independent of statetrees) runs between jobs, and each measured time
is multiplied by CAL_REF_S over the kernel's mean time just before and
just after it: the result is the time the job takes on the machine at
its reference speed.  The header also prints measured seconds and the
speed factor.

With `--trace 0` nothing is installed and the end-to-end metrics are
reported.  With `--trace 1` the first half of the time runs untraced,
the second half runs with wrappers around the public functions each job
calls into, and the per-layer metrics (per-round medians over the traced
rounds) are reported; `trace.overhead_ratio` is traced over untraced
`wall_s`.  The last stdout line is the JSON result; the lines before it
are the run header and a readable table of the metrics.  Workload
rationales and metric units come from BENCHMARK.json.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
WARMUP_ROUND = 1 << 20  # input namespace of the untimed warm-up jobs
# calibrate() on an idle 2-vCPU 2.1 GHz virtual machine, Python 3.11, numpy 2.4
CAL_REF_S = 1.4e-3


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not touch statetrees."""
    start = time.perf_counter()
    acc = 0
    table = list(range(1000))
    for i in range(15000):
        acc += table[i % 1000] * i
    a = np.arange(2048.0)
    for _ in range(40):
        a = np.sqrt(a * 1.0001 + 1.0)
    return time.perf_counter() - start


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def tail_job(times: list[float]) -> tuple[float, float]:
    """(time, percentile) of the highest percentile with >= 10 jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Harness:
    def __init__(self, workload, seed: int, workdir: Path):
        self.w = workload
        self.seed = seed
        self.workdir = workdir
        self.job_times: dict[int, list[float]] = {}  # round -> reference seconds of successful jobs
        self.by_label: dict[str, list[float]] = {}
        self.round_wall: dict[int, float] = {}  # reference seconds
        self.round_raw: dict[int, float] = {}  # measured seconds
        self.speed: list[float] = []  # calibration time over CAL_REF_S, one per job
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.tracer = None
        self.first_jobs: list = []

    def inputs(self, r: int) -> list:
        d = self.workdir / f"r{r}"
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        return self.w.make_round(self.seed, r, d)

    def setup(self) -> tuple[float, float]:
        """Median (reference, measured) seconds of SETUP_REPEATS set-ups."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        scaled, raw = [], []
        for _ in range(SETUP_REPEATS):
            before = calibrate()
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import statetrees.cli"], env=env, check=True)
            self.first_jobs = self.inputs(0)
            elapsed = time.perf_counter() - start
            raw.append(elapsed)
            scaled.append(elapsed * 2 * CAL_REF_S / (before + calibrate()))
        return statistics.median(scaled), statistics.median(raw)

    def run_job(self, job, r: int) -> tuple[float, bool, int]:
        """(measured seconds, succeeded, job span index or -1)."""
        tracer = self.tracer
        idx = -1
        if tracer is not None:
            tracer.recording = True
            idx = tracer.open_job()
        start = time.perf_counter()
        try:
            result = job.run()
            error = None if (not job.cli or result == 0) else f"exit code {result}"
        except Exception as exc:  # a failing job is counted, and the run goes on
            result, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.close_job(idx, job.label, start, end)
            tracer.recording = False
            tracer.flush_counts()
        if error is None:
            try:
                job.check(result)
            except Exception as exc:  # any check error means the output is wrong
                error = f"wrong output: {type(exc).__name__}: {exc}"
                self.wrong += 1
        if error is not None:
            print(f"perfbench: round {r} job {job.label!r} failed: {error}", file=sys.stderr)
        return end - start, error is None, idx

    def run_round(self, r: int, jobs: list) -> None:
        if self.tracer is not None:
            self.tracer.round = r
        wall = raw = 0.0
        cal = calibrate()
        for job in jobs:
            elapsed, ok, span = self.run_job(job, r)
            cal_after = calibrate()
            factor = 2 * CAL_REF_S / (cal + cal_after)
            cal = cal_after
            self.speed.append(1.0 / factor)
            if self.tracer is not None:
                self.tracer.factors[span] = factor
            wall += elapsed * factor
            raw += elapsed
            self.attempted += 1
            if ok:
                self.job_times.setdefault(r, []).append(elapsed * factor)
                self.by_label.setdefault(job.label, []).append(elapsed * factor)
            else:
                self.failed += 1
        self.round_wall[r] = wall
        self.round_raw[r] = raw
        shutil.rmtree(self.workdir / f"r{r}")

    def run_rounds(self, first: int, seconds: float, min_rounds: int, jobs=None) -> list[int]:
        start = time.perf_counter()
        done = []
        r = first
        while True:
            self.run_round(r, jobs if jobs is not None and r == first else self.inputs(r))
            done.append(r)
            r += 1
            if len(done) >= min_rounds and time.perf_counter() - start >= seconds:
                return done


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "statetrees" / "cli.py").is_file():
        fail(f"no statetrees sources under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads
    from spans import LAYER_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]

    print(f"# perfbench workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {platform.python_version()} numpy {np.__version__} nproc {os.cpu_count()} "
          f"commit {git_commit()}")
    print("# threads pinned: " + " ".join(f"{v}=1" for v in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")))
    print(f"# why: {next(x['why'] for x in spec['workloads'] if x['name'] == w.name)}")
    print(f"# stresses: {w.stresses}")
    print(f"# bypasses: {w.bypasses}")
    if w.notes:
        print(f"# notes: {w.notes}")
    print("# loop: closed, one client; each job starts when the previous one and its check are done")
    print(f"# times in reference seconds: measured seconds x {CAL_REF_S:g} s / calibration kernel time")

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{w.name}-", dir=OUT))
    try:
        h = Harness(w, args.seed, workdir)
        setup_s, setup_raw = h.setup()
        first_jobs = h.first_jobs
        warmed: set[str] = set()
        for job in h.inputs(WARMUP_ROUND):
            if job.label not in warmed:
                warmed.add(job.label)
                h.run_job(job, WARMUP_ROUND)
        shutil.rmtree(workdir / f"r{WARMUP_ROUND}")

        if args.trace:
            base = h.run_rounds(0, args.seconds / 2, max(2, w.min_rounds // 2), first_jobs)
            untraced_wall = statistics.median(h.round_wall[r] for r in base)
            h.tracer = Tracer()
            h.tracer.install()
            traced = h.run_rounds(base[-1] + 1, args.seconds / 2, max(2, w.min_rounds // 2))
            h.tracer.uninstall()
            layer = h.tracer.layer_metrics(traced, h.round_wall, untraced_wall)
            h.tracer.write(OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics = {k: {"value": layer[k], "unit": unit} for k, unit in units.items()}
            print(f"# traced rounds {len(traced)} after {len(base)} untraced; "
                  f"untraced wall_s {untraced_wall:.4f}")
            for k, v in layer.items():
                print(f"#   {k:32s} {v:14.6g} {units[k]:9s} moves {LAYER_METRICS[k][1]}")
        else:
            rounds = h.run_rounds(0, args.seconds, w.min_rounds, first_jobs)
            all_jobs = [t for r in rounds for t in h.job_times.get(r, [])]
            tail_jobs = [t for r in rounds[:w.min_rounds] for t in h.job_times.get(r, [])]
            tail, pct = tail_job(tail_jobs)
            values = {
                "wall_s": statistics.median(h.round_wall[r] for r in rounds),
                "job_p50_s": statistics.median(all_jobs),
                "job_tail_s": tail,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ops_ok_frac": 1.0 - h.failed / h.attempted,
            }
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
            print(f"# rounds {len(rounds)}, jobs {h.attempted} ({len(first_jobs)} per round), "
                  f"ok {len(all_jobs)}")
            for k, v in values.items():
                print(f"#   {k:14s} {v:12.6g} {units[k]}")
            print(f"#   job_tail_s is the p{pct:.2f} job time of the first {w.min_rounds} rounds "
                  f"({len(tail_jobs)} jobs, 10 beyond it)")
            print(f"#   ops_failed_frac {h.failed / h.attempted:.6g} fraction")
            print(f"#   measured seconds: wall {statistics.median(h.round_raw[r] for r in rounds):.4f}, "
                  f"setup {setup_raw:.4f}")
            for label, times in sorted(h.by_label.items(), key=lambda kv: statistics.median(kv[1])):
                print(f"#   job {label:22s} median {statistics.median(times):.4f} s over {len(times)}")
        print(f"# speed factor (calibration time / reference): median {statistics.median(h.speed):.3f}, "
              f"range {min(h.speed):.3f}..{max(h.speed):.3f}")
        print("# round wall_s: " + " ".join(f"{h.round_wall[r]:.3f}" for r in sorted(h.round_wall)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": h.wrong == 0, "attempted": h.attempted, "failed": h.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
