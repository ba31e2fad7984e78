"""Benchmark of the acpair CLI: one workload per process, closed loop.

    python3 bench/run.py --workload certify|search|homology|all --seed N \
        --seconds S --trace 0|1

One client issues one job at a time.  A job is one in-process call of
``acpair.cli.main(argv)`` with cold ``canonical_key`` caches, on input files
generated from the seed during set-up; ``workloads`` checks every job's
output with ``oracle``.  Jobs come in passes (``workloads.Workload``) and a
run always runs whole passes.

The run's passes are those that take S/REPEATS reference seconds.  With
``--trace 0`` they run REPEATS times; each job's time is the median of its
runs.  Every time reported, of jobs and of set-up, is in reference seconds:
``speed`` times a fixed calibration between jobs and scales each wall time
by how fast the host ran around it, because a shared host runs the same
code up to 1.7 times slower from one second to the next.  The last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` the passes run once under ``tracing.Tracer`` and once more
untraced; the last line holds the per-layer metrics of exactly those jobs
and the tracing overhead.  The line before the last is the run's record:
environment, job counts, verdicts, the percentile reported as
``job_s.tail``, the wall-clock figures and the calibrations.
Records (with every job time) and span files are written to
``.bench_out/``; inputs live in ``.bench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from speed import REFERENCE_S, Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_work")
OUTPUT_DIR = os.path.join(ROOT, ".bench_out")
# Every job of an untraced run runs this many times, one round of passes
# apart, and its time is the median of them: other load on a shared host
# slows single jobs by up to a factor of two for seconds at a time.
REPEATS = 3
# The inputs are set up this many times before the first round and again
# after each round; setup_s is the median of all those set-ups.  They are
# spread over the run because creating the same files on a shared disk
# costs up to six times as much from one second to the next.
SETUPS_PER_BREAK = 2
BUNDLE_KINDS = ("bundle", "pipeline")
WORKLOADS = ("certify", "search", "homology")


def import_program() -> None:
    """Put the checkout's sources first on the path and refuse any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, os.path.join(ROOT, "tests")]
    try:
        import acpair.cli  # noqa: F401
        import lustig_fixtures  # noqa: F401
    except ImportError as e:
        raise SystemExit(f"bench: cannot import the program from {ROOT}: {e}")
    import acpair
    if not os.path.abspath(acpair.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: acpair was imported from {acpair.__file__}, not {src}")


class Stats:
    """Job times, verdicts and work counts of one loop over the tasks."""

    def __init__(self):
        self.seconds = []  # per job; reference seconds once `Runner.round` returns
        self.raw_seconds = []  # per job, wall seconds
        self.calibration = []  # per job, index of the last calibration before it
        self.job_kinds = []
        self.verdicts = Counter()
        self.errors = Counter()
        self.tasks = 0
        self.passes = 0
        self.bundle_replays = 0
        self.certificates = 0
        self.cache_hits = self.cache_misses = 0

    @property
    def jobs(self) -> int:
        return len(self.seconds)

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    @property
    def busy(self) -> float:
        return math.fsum(self.seconds)

    @property
    def raw_busy(self) -> float:
        return math.fsum(self.raw_seconds)

    @property
    def failed(self) -> int:
        return self.verdicts["failed"] + self.verdicts["wrong"]


class Runner:
    """Runs tasks in process with cold `canonical_key` caches."""

    def __init__(self, scratch: str, speed: Speed | None = None):
        from acpair import cli
        from acpair.presentations import canonical_key
        from workloads import JobResult
        self.cli = cli
        self.job_result = JobResult
        self.cache = canonical_key  # the cached function itself, never a trace wrapper
        self.scratch = scratch
        self.speed = speed or Speed()

    def run_job(self, argv):
        self.cache.cache_clear()
        out = io.StringIO()
        code, error = None, None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a job that raises is a failed job; the loop goes on
            error = type(e).__name__
        seconds = time.perf_counter() - start
        return self.job_result(code, out.getvalue(), seconds, error)

    def run_task(self, task, stats: Stats, tracer=None, calibrate=False) -> None:
        """Run the task's jobs and check them; with `calibrate`, take a
        calibration before each job once EVERY_S has passed since the last."""
        gc.collect()
        out = tempfile.mkdtemp(dir=self.scratch)
        results = []
        replays = tracer.counts["moves.replay.calls"] if tracer else 0
        for argv in task.commands(out):
            if calibrate and self.speed.due():
                self.speed.calibrate()
            if tracer is not None:
                tracer.job = stats.jobs + len(results)
            stats.calibration.append(len(self.speed.samples) - 1)
            results.append(self.run_job(argv))
            info = self.cache.cache_info()
            stats.cache_hits += info.hits
            stats.cache_misses += info.misses
        verdicts = task.check(results, out)
        shutil.rmtree(out)
        stats.tasks += 1
        for result, verdict in zip(results, verdicts):
            stats.seconds.append(result.seconds)
            stats.raw_seconds.append(result.seconds)
            stats.job_kinds.append(task.kind)
            stats.verdicts[verdict] += 1
            if result.error:
                stats.errors[result.error] += 1
        if tracer is not None and task.kind in BUNDLE_KINDS:
            stats.bundle_replays += tracer.counts["moves.replay.calls"] - replays
            found = re.search(r"^certificates: (\d+)$", results[0].stdout, re.M)
            stats.certificates += int(found.group(1)) if found else 0

    def round(self, passes, tracer=None) -> Stats:
        """Run every task of every pass once, in order, calibrating between
        jobs; job times come back in reference seconds."""
        stats = Stats()
        self.speed.calibrate()
        for tasks in passes:
            for task in tasks:
                self.run_task(task, stats, tracer, calibrate=True)
            stats.passes += 1
        self.speed.calibrate()
        stats.seconds = [s * self.speed.scale(k)
                         for s, k in zip(stats.raw_seconds, stats.calibration)]
        return stats


class SetUps:
    """Complete set-ups of the workload's inputs, each into a directory of
    its own, timed in wall seconds and in reference seconds.  Only the first
    set-up's inputs are kept; the others are removed once timed."""

    def __init__(self, workload, seed: int, count: int, run_dir: str, speed: Speed):
        self.workload, self.seed, self.count = workload, seed, count
        self.run_dir, self.speed = run_dir, speed
        self.seconds, self.raw_seconds = [], []

    def __call__(self) -> list:
        inputs = os.path.join(self.run_dir, f"inputs{len(self.seconds)}")
        os.makedirs(inputs)
        self.speed.calibrate()
        start = time.perf_counter()
        passes = self.workload.setup(self.seed, inputs, self.count)
        self.raw_seconds.append(time.perf_counter() - start)
        self.speed.calibrate()
        self.seconds.append(self.raw_seconds[-1] * self.speed.scale(len(self.speed.samples) - 2))
        if len(self.seconds) > 1:
            shutil.rmtree(inputs)
        return passes


def combine(rounds) -> Stats:
    """One Stats for rounds over the same jobs: verdicts and counts summed,
    each job's time the median of its runs."""
    total = Stats()
    for r in rounds:
        total.verdicts.update(r.verdicts)
        total.errors.update(r.errors)
        total.tasks += r.tasks
        total.passes += r.passes
    total.seconds = [statistics.median(times) for times in zip(*(r.seconds for r in rounds))]
    total.raw_seconds = [statistics.median(times)
                         for times in zip(*(r.raw_seconds for r in rounds))]
    total.job_kinds = rounds[0].job_kinds
    return total


def harrell_davis(samples, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of all order statistics.  Job times form clusters with gaps
    between them (one per job kind and size), and a single order statistic
    jumps across a gap when one job gets slightly faster; this estimate moves
    smoothly instead."""
    x = sorted(samples)
    n = len(x)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t):
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    steps = 64  # midpoint rule on each [i/n, (i+1)/n]
    weights = [math.fsum(density((i + (j + 0.5) / steps) / n) for j in range(steps))
               for i in range(n)]
    return math.fsum(w * v for w, v in zip(weights, x)) / math.fsum(weights)


def tail_percentile(samples) -> float:
    """The highest percentile with at least ten samples beyond it, and at
    least the median (tiny runs have fewer than twenty jobs)."""
    return max(50.0, 100 * (len(samples) - 10) / len(samples))


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "commit": git_commit(), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                return next(line.split()[0] for line in fh if line.rstrip().endswith(ref))
    except (OSError, StopIteration):
        return "unknown"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(seconds, setup_s: float, tail_pct: float) -> dict:
    return {
        "setup_s": metric(setup_s, "s"),
        "jobs_per_s": metric(len(seconds) / math.fsum(seconds), "1/s"),
        "job_s.p50": metric(harrell_davis(seconds, 0.5), "s"),
        "job_s.tail": metric(harrell_davis(seconds, tail_pct / 100), "s"),
    }


def end_to_end(stats: Stats, setup_s: float, tail_pct: float) -> dict:
    return {
        **timings(stats.seconds, setup_s, tail_pct),
        "completed_frac": metric(1 - stats.failed / stats.attempted, "frac"),
        "decided_frac": metric(1 - stats.verdicts["unknown"] / stats.attempted, "frac"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, stats: Stats, overhead: float) -> dict:
    c, jobs = tracer.counts, stats.jobs
    reference = stats.busy / stats.raw_busy  # wall seconds to reference seconds

    def per_job(x):
        return metric(x / jobs, "1/job")

    def self_s(layer):
        return metric(tracer.self_s[layer] * reference / jobs, "s/job")

    def ratio(part, whole):
        return metric(part / whole if whole else 0.0, "ratio")

    searches = c["moves.bounded_equivalence_search.calls"]
    witness_searches = c["constructions.search_normal_closure_witness.calls"]
    return {
        "words.calls": per_job(c["words.calls"]),
        "words.self_s": self_s("words"),
        "words.reduce.letters": per_job(c["words.reduce.letters"]),
        "words.cyclic_canonical.calls": per_job(c["words.cyclic_canonical.calls"]),
        "words.cyclic_canonical.letters": per_job(c["words.cyclic_canonical.letters"]),
        "presentations.constructed": per_job(c["presentations.constructed.calls"]),
        "presentations.self_s": self_s("presentations"),
        "presentations.canonical_key.calls": per_job(c["presentations.canonical_key.calls"]),
        "presentations.canonical_key.hit_ratio":
            ratio(stats.cache_hits, stats.cache_hits + stats.cache_misses),
        "moves.apply_move.calls": per_job(c["moves.apply_move.calls"]),
        "moves.replay.calls": per_job(c["moves.replay.calls"]),
        "moves.replay.moves": per_job(c["moves.replay.moves"]),
        "moves.self_s": self_s("moves"),
        "moves.search.calls": per_job(searches),
        "moves.search.found_ratio": ratio(c["moves.search.found"], searches),
        "moves.search.successors": per_job(c["moves.search.successors"]),
        "constructions.witness_search.calls": per_job(witness_searches),
        "constructions.witness_search.found_ratio":
            ratio(c["constructions.witness_search.found"], witness_searches),
        "constructions.witness_search.errors":
            per_job(c["constructions.search_normal_closure_witness.errors"]),
        "constructions.self_s": self_s("constructions"),
        "pairing.certificate_verify.calls": per_job(c["pairing.certificate_verify.calls"]),
        "pairing.replays_per_certificate":
            metric(stats.bundle_replays / stats.certificates if stats.certificates else 0.0,
                   "1/cert"),
        "pairing.self_s": self_s("pairing"),
        "homology.snf.calls": per_job(c["homology.smith_normal_form.calls"]),
        "homology.snf.entries": per_job(c["homology.snf.entries"]),
        "homology.snf.transform_bits": metric(c["homology.snf.transform_bits"], "bits"),
        "homology.restrict_scalars.calls": per_job(c["homology.restrict_scalars.calls"]),
        "homology.self_s": self_s("homology"),
        "cli.self_s": self_s("cli"),
        "trace.spans": per_job(tracer.span_total),
        "trace.overhead_frac": metric(overhead, "frac"),
    }


def describe(stats: Stats) -> dict:
    return {"jobs": stats.jobs, "attempted": stats.attempted, "tasks": stats.tasks,
            "passes": stats.passes, "busy_s": stats.busy, "raw_busy_s": stats.raw_busy,
            "jobs_by_kind": Counter(stats.job_kinds), "verdicts": dict(stats.verdicts),
            "errors": dict(stats.errors), "failed_frac": stats.failed / stats.attempted,
            "unknown_frac": stats.verdicts["unknown"] / stats.attempted}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' runs each workload in its own process and prints a table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_all(args) -> int:
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        for key, m in result["metrics"].items():
            print(f"{name:9} {key:42} {m['value']:>14.6g} {m['unit']}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK_DIR)
    try:
        speed = Speed()
        set_up = SetUps(workload, args.seed, workload.passes(args.seconds / REPEATS), run_dir,
                        speed)
        passes = set_up()
        runner = Runner(run_dir, speed)
        gc.collect()
        gc.freeze()
        record = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
                  "env": environment(args.seed)}
        stem = os.path.join(OUTPUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                stats = runner.round(passes, tracer)
            finally:
                tracer.uninstall()
            untraced = runner.round(passes)
            rounds = [stats, untraced]
            overhead = stats.busy / untraced.busy - 1
            metrics = per_layer(tracer, stats, overhead)
            tracer.write_spans(stem + ".spans.jsonl")
            record.update(describe(stats), untraced_busy_s=untraced.busy,
                          spans_recorded=tracer.span_total, spans_written=len(tracer.spans),
                          search_calls=tracer.counts["moves.bounded_equivalence_search.calls"],
                          witness_search_calls=tracer.counts[
                              "constructions.search_normal_closure_witness.calls"],
                          certificates=stats.certificates,
                          canonical_key_lookups=stats.cache_hits + stats.cache_misses)
        else:
            for _ in range(SETUPS_PER_BREAK - 1):
                set_up()
            rounds = []
            for _ in range(REPEATS):
                rounds.append(runner.round(passes))
                for _ in range(SETUPS_PER_BREAK):
                    set_up()
            stats = combine(rounds)
            tail_pct = tail_percentile(stats.seconds)
            metrics = end_to_end(stats, statistics.median(set_up.seconds), tail_pct)
            raw = timings(stats.raw_seconds, statistics.median(set_up.raw_seconds), tail_pct)
            record.update(describe(stats), repeats=REPEATS,
                          **{"job_s.p50.samples": stats.jobs, "job_s.tail.percentile": tail_pct},
                          wall_clock={k: m["value"] for k, m in raw.items()},
                          calibrations=len(speed.samples),
                          calibration_s={"median": speed.median(), "min": min(speed.samples),
                                         "max": max(speed.samples),
                                         "reference": REFERENCE_S})
        record.update(setup_s=set_up.seconds, raw_setup_s=set_up.raw_seconds)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": stats.verdicts["wrong"] == 0, "attempted": stats.attempted,
              "failed": stats.failed, "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump({"record": record, "result": result,
                   "job_seconds": list(zip(stats.job_kinds, stats.seconds)),
                   "calibrations": runner.speed.samples,
                   "rounds": [list(zip(r.raw_seconds, r.calibration)) for r in rounds]}, fh)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
