"""The benchmark's use of the program: its imports, the set-up of each
workload and the tracer, in a fresh interpreter.  bench/test_bench.py runs
whole benchmark runs and takes far longer; this check keeps a change to
src/ or tests/ that the benchmark needs from going unnoticed in tier-1."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHECK = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import run
run.import_program()
import oracle, tracing, workloads
passes = {}
for name, workload in workloads.WORKLOADS.items():
    with tempfile.TemporaryDirectory() as d:
        passes[name] = [len(tasks) for tasks in workload.setup(1, d, 1)]
tracer = tracing.Tracer()
tracer.install()
tracer.uninstall()
print(json.dumps(passes))
"""


def test_benchmark_imports_sets_up_and_traces_the_program():
    # -B: the check writes no bytecode files into bench/
    proc = subprocess.run([sys.executable, "-B", "-c", CHECK, str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    passes = json.loads(proc.stdout)
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(passes) == sorted(names)
    assert all(len(tasks) == 1 and tasks[0] > 0 for tasks in passes.values()), passes
