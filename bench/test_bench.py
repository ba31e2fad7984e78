"""Self-test of the benchmark: python3 -m pytest bench"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import speed

run.import_program()
import workloads  # noqa: E402  (needs the program on the path)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bundle_task(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    passes = workloads.setup_certify(3, str(inputs), 1)
    return inputs, next(t for t in passes[0] if t.kind == "bundle")


def test_tampered_certificate_is_failed(tmp_path):
    _, task = _bundle_task(tmp_path)
    runner = run.Runner(str(tmp_path))
    out = tmp_path / "out"
    out.mkdir()
    pipeline, verify = task.commands(str(out))
    results = [runner.run_job(pipeline)]
    cert = out / "bundle" / "certs" / "cross.json"
    data = json.loads(cert.read_text())
    moves = data["script"]["moves"]
    moves.remove(next(m for m in moves if m["op"] == "SlideRel"))
    cert.write_text(json.dumps(data))
    results.append(runner.run_job(verify))
    assert task.check(results, str(out)) == [workloads.OK, workloads.FAILED]


def test_tampered_witness_file_is_failed(tmp_path):
    inputs, task = _bundle_task(tmp_path)
    wdir = task.argvs[0][task.argvs[0].index("--witnesses") + 1]
    path = os.path.join(wdir, "second_over_first_2.json")
    with open(path) as fh:
        data = json.load(fh)
    data["factors"][0]["sign"] *= -1
    with open(path, "w") as fh:
        json.dump(data, fh)
    stats = run.Stats()
    run.Runner(str(tmp_path)).run_task(task, stats)
    assert stats.failed == stats.jobs == 2


def test_forged_search_answer_is_wrong(tmp_path):
    rels = [(1, 2, -1, -2), (1, 1, 2)]
    out = tmp_path
    forged = {"target": "x y", "factors": [{"g": "1", "r_index": 2, "sign": 1}]}
    (out / "w.json").write_text(json.dumps(forged))
    result = workloads.JobResult(0, "", 0.0, None)
    assert workloads._check_witness(rels, (1, 2), [result], str(out)) == [workloads.WRONG]


def test_oracle_canonical_form_is_least_rotation():
    rng = random.Random(0)
    for _ in range(500):
        w = oracle.reduce(rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(rng.randint(0, 14)))
        c = oracle.cyclic_reduce(w)
        rotations = [r[i:] + r[:i] for r in (c, oracle.invert(c)) for i in range(len(c))]
        expected = min(rotations, key=oracle.word_order) if c else ()
        assert oracle.canonical(w) == expected


def test_job_times_are_scaled_by_the_calibrations_around_them(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    tasks = workloads.setup_homology(1, str(inputs), 1)[0][:2]
    runner = run.Runner(str(tmp_path))
    stats = runner.round([tasks])
    samples = runner.speed.samples
    assert stats.jobs == 4
    for seconds, raw, k in zip(stats.seconds, stats.raw_seconds, stats.calibration):
        assert 0 <= k < len(samples) - 1  # a calibration before the task and one after it
        around = (samples[k] + samples[k + 1]) / 2
        assert seconds == pytest.approx(raw * speed.REFERENCE_S / around)


def test_renamed_script_replays_to_renamed_relators():
    rng = random.Random(1)
    names = workloads.SCRIPT_GENS
    for _ in range(100):
        rels = [workloads._random_word(rng, 3, rng.randint(3, 6)) for _ in range(3)]
        moves = [workloads._random_script_move(rng, names, rels, False) for _ in range(8)]
        renaming = workloads.Renaming.draw(rng, 3, 3, signed=False)
        renamed = {"moves": [renaming.move(m, names) for m in moves]}
        assert oracle.replay(renaming.relators(rels), renamed, names) == \
            renaming.relators(oracle.replay(rels, {"moves": moves}, names))
