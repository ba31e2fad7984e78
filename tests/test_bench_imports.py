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


COUNTERS = """
import json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
import run
run.import_program()
import tracing
import acpair.cli
tracer = tracing.Tracer()
tracer.install()
codes = []
with tempfile.TemporaryDirectory() as d:
    for name, text in (("p", "gens: x y\\nrel: x y\\nrel: y\\n"),
                       ("q", "gens: x y\\nrel: x\\nrel: y\\n")):
        with open(os.path.join(d, name + ".pres"), "w") as fh:
            fh.write(text)
    p, q = os.path.join(d, "p.pres"), os.path.join(d, "q.pres")
    codes.append(acpair.cli.main(["search-equiv", p, q, "--depth", "2"]))
    codes.append(acpair.cli.main(["witness", q, "--target", "y x y^-1",
                                  "-o", os.path.join(d, "w.json")]))
tracer.uninstall()
print(json.dumps({"codes": codes, "counts": tracer.counts}))
"""


def traced(script) -> dict:
    """The JSON object that script, run under the benchmark's tracer in a
    fresh interpreter, prints last."""
    proc = subprocess.run([sys.executable, "-B", "-c", script, str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_search_counters_count_the_searches():
    # the tracer counts the searches by wrapping their public functions from
    # outside, so a refactor that moves the work elsewhere would read 0
    result = traced(COUNTERS)
    assert result["codes"] == [0, 0]
    counts = result["counts"]
    for name in ("moves.bounded_equivalence_search.calls", "moves.search.successors",
                 "constructions.search_normal_closure_witness.calls"):
        assert counts.get(name, 0) > 0, (name, counts)


HOMOLOGY_COUNTERS = """
import json, random, sys, tempfile
sys.path.insert(0, sys.argv[1])
import run
run.import_program()
import tracing, workloads
import acpair.cli
from acpair.homology import FiniteGroup
table = workloads.alternating_group_5()
with tempfile.TemporaryDirectory() as d:
    task = workloads.a5_task(random.Random(1), d, 0, FiniteGroup.from_table(table), table, 1)
    (argv,) = [a for a in task.argvs if a[a.index("--at") + 1] == "1"]
    tracer = tracing.Tracer()
    tracer.install()
    code = acpair.cli.main(argv)
    tracer.uninstall()
print(json.dumps({"code": code, "counts": tracer.counts}))
"""


def test_benchmark_homology_counters_count_the_restrictions():
    # the homology twin of the search check: one homology job on a Fox
    # chain over A5, as the homology workload runs them, must be counted in
    # restrict_scalars, whose calls are a per-layer metric
    result = traced(HOMOLOGY_COUNTERS)
    assert result["code"] == 0
    assert result["counts"].get("homology.restrict_scalars.calls", 0) > 0, result["counts"]
