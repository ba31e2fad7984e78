"""Seeded fuzzing of every kind of file the CLI reads.

Valid files like the worked examples of test_cli.py are mutated at random
(fixed seed) and each mutated file is run through acpair.cli.main in
process.  Every run must return 0, 1 or 2, with no exception escaping main,
within RUN_SECONDS and allocating at most PEAK_BYTES at once (tracemalloc),
so that no short file makes the program blow up.

JSON mutations: a value swapped for one of another JSON type, an exponent
or number inflated, a list entry repeated (a move repeated in a script),
a value nested deep in arrays, a key dropped or given twice.  Text
mutations (presentations and group CSV files): an exponent or number
inflated, a line repeated or dropped, a token replaced by a malformed one.
Inflated exponents lie beyond the letter budget, so that each run stays
short; files of exactly the budget are loaded by the letter-budget tests of
test_cli.py.
"""

import contextlib
import io
import json
import os
import random
import re
import signal
import tracemalloc

from acpair.cli import main
from acpair.constructions import lustig
from acpair.homology import chain_to_json
from acpair.moves import (AddGen, AddTrivialRel, ConjRel, InvRel, MoveScript,
                          NielsenInv, NielsenMul, RestrictedSlide, RSFactor,
                          SlideRel, script_to_json)
from acpair.presentations import format_presentation

from chain_fixtures import cyclic_group, dump_group_csv, random_gn_fixture
from word_reference import encode

SEED = 20
RUNS_PER_SEED = 60
PEAK_BYTES = 16 << 20
RUN_SECONDS = 10  # each run takes milliseconds
PRES_X = "gens: x\nrel: x\n"
PRES_XY = "gens: x y\nrel: x\nrel: y\n"
# numbers past every bound: the letter budget of 1,000,000, the rank and cell
# bounds of chain files, and 64-bit integers
BIG = (10 ** 7, 10 ** 12, 2 ** 64, 10 ** 100)
SAMPLES = (0, 1, -1, 3, 1.5, -0.0, 1e308, True, False, None, "", "x", "1",
           "x^2 y", [], [1], ["x"], {}, {"op": "InvRel"})


class Pairs:
    """A JSON object written with the given (key, value) pairs, a key twice
    among them."""

    def __init__(self, pairs):
        self.pairs = pairs


class Nested:
    """A value written inside depth levels of JSON arrays."""

    def __init__(self, value, depth):
        self.value, self.depth = value, depth


def dumps(value) -> str:
    if isinstance(value, Nested):
        return "[" * value.depth + dumps(value.value) + "]" * value.depth
    if isinstance(value, (dict, Pairs)):
        pairs = value.pairs if isinstance(value, Pairs) else value.items()
        return "{" + ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in pairs) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dumps(v) for v in value) + "]"
    return json.dumps(value)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _paths(inner, path + (key,))
    elif isinstance(value, list):
        for i, inner in enumerate(value):
            yield from _paths(inner, path + (i,))


def _inflate_text(rng, text: str) -> str:
    spots = list(re.finditer(r"-?\d+", text))
    if not spots:
        return text + f"^{rng.choice(BIG)}"
    spot = rng.choice(spots)
    return text[:spot.start()] + str(rng.choice(BIG)) + text[spot.end():]


def _mutate_value(rng, value):
    """value with one mutation at its top."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([s for s in SAMPLES if type(s) is not type(value)])
    if kind == 1:
        if isinstance(value, str):
            return _inflate_text(rng, value)
        if isinstance(value, list) and value:
            i = rng.randrange(len(value))
            return value[:i] + [value[i]] * rng.choice((2, 16, 64)) + value[i:]
        return rng.choice(BIG) * rng.choice((1, -1))
    if kind == 2:
        return Nested(value, rng.choice((1, 40, 5000)))
    if isinstance(value, dict) and value:
        key = rng.choice(sorted(value))
        if kind == 3:
            return {k: v for k, v in value.items() if k != key}
        return Pairs(list(value.items()) + [(key, _mutate_value(rng, value[key]))])
    if isinstance(value, list) and value:
        i = rng.randrange(len(value))
        return value[:i] + value[i + 1:]
    return rng.choice(SAMPLES)


def mutate_json(rng, data) -> str:
    """The text of data with one or two values mutated."""
    data = json.loads(json.dumps(data))
    for _ in range(rng.randint(1, 2)):
        path = rng.choice(list(_paths(data)))
        if not path:
            data = _mutate_value(rng, data)
            continue
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = _mutate_value(rng, parent[path[-1]])
    return dumps(data)


TOKENS = ("", "^", "x^", "^-", "x^-", "x^+2", "x^1e3", "x^0x10", "x^٣", "x^1_0",
          "1.5", "-1", "nan", "é", "\x00", ",", "rel:", "gens:", "x y^",
          "x^99999999999999999999")


def mutate_text(rng, text: str) -> str:
    lines = text.splitlines()
    kind = rng.randrange(4)
    if kind == 0:
        return _inflate_text(rng, text)
    i = rng.randrange(len(lines))
    if kind == 1:
        lines[i:i] = [lines[i]] * rng.choice((2, 16, 500))
    elif kind == 2:
        del lines[i]
    else:
        tokens = re.split(r"([ ,])", lines[i])
        j = rng.randrange(len(tokens))
        tokens[j] = rng.choice(TOKENS)
        lines[i] = "".join(tokens)
    return "\n".join(lines) + "\n"


class Overrun(Exception):
    """A run still going after RUN_SECONDS; main lets it through."""


def _overrun(signum, frame):
    raise Overrun(f"still running after {RUN_SECONDS} s")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, RUN_SECONDS)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, peak, out.getvalue(), err.getvalue()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _bundle_files(tmp_path):
    """{file: content} of x.sum and the certificates of the bundle that
    pipeline writes for PRES_XY and another presentation of the trivial
    group, under b/: a nonzero x, as a zero one shows no null vector."""
    os.makedirs(tmp_path / "seed")
    pres, other = tmp_path / "seed" / "k.pres", tmp_path / "seed" / "l.pres"
    _write(pres, PRES_XY)
    _write(other, "gens: x y\nrel: x y\nrel: y\n")
    code, _, _, err = _run(["pipeline", str(pres), str(other), "-o",
                            str(tmp_path / "seed" / "bundle")])
    assert code == 0, err
    bundle = tmp_path / "seed" / "bundle"
    return {f"b/{path.relative_to(bundle)}": json.loads(path.read_text())
            for path in [bundle / "x.sum", *sorted((bundle / "certs").iterdir())]}


def corpus(tmp_path):
    """(name, {file: valid content}, the file to mutate, argv): one entry per
    kind of input file.  argv names files relative to the directory it runs
    in."""
    script = script_to_json(MoveScript((
        SlideRel(1, 0, "right"), ConjRel(0, encode((2, 1))), InvRel(1),
        RestrictedSlide(0, (RSFactor(encode((2,)), 1, 1, encode((1,))),)),
        NielsenMul(0, 1, "left"),
        NielsenInv(1), AddGen("z"), AddTrivialRel())), ("x", "y"))
    # x y over x and y, for a nonzero x as in _bundle_files
    witness = {"target": "x y", "factors": [{"g": "x", "r_index": 1, "sign": 1},
                                            {"g": "1", "r_index": 2, "sign": 1}]}
    iso = {"y_in_x": ["x"], "x_in_y": ["y"]}
    bundle = _bundle_files(tmp_path)
    chain = chain_to_json(random_gn_fixture("c2", 3, random.Random(60)))
    group_chain = chain_to_json(random_gn_fixture("c3", 3, random.Random(61)))
    group_chain["group"] = "c3.csv"
    return [
        ("presentation", {"k.pres": format_presentation(lustig(1))}, "k.pres",
         ["normalize", "k.pres"]),
        ("script", {"p.pres": PRES_XY, "s.json": script}, "s.json",
         ["apply", "p.pres", "s.json"]),
        ("witness", {"k.pres": PRES_XY, "l.pres": "gens: x y\nrel: x y\nrel: y\n",
                     "wits/second_over_first_1.json": witness},
         "wits/second_over_first_1.json",
         ["pipeline", "k.pres", "l.pres", "--witnesses", "wits", "--max-states", "200",
          "-o", "bundle"]),
        ("iso", {"p.pres": PRES_X, "q.pres": "gens: y\nrel: y\n", "iso.json": iso},
         "iso.json", ["pipeline", "p.pres", "q.pres", "--iso", "iso.json",
                      "--max-states", "200", "-o", "bundle"]),
        ("sum", bundle, "b/x.sum", ["verify-null", "b"]),
        ("certificate", bundle, "b/certs/cross.json", ["verify-null", "b"]),
        ("chain", {"c.json": chain}, "c.json", ["homology", "c.json", "--at", "2"]),
        ("glued chain", {"c.json": chain, "d.json": chain}, "d.json",
         ["glue", "c.json", "d.json", "-o", "g.json"]),
        ("group csv", {"c.json": group_chain, "c3.csv": dump_group_csv(cyclic_group(3))},
         "c3.csv", ["homology", "c.json", "--at", "2"]),
    ]


def _materialize(run_dir, files, target=None, mutated=None):
    """Write files under run_dir, target with the mutated text."""
    for name, content in files.items():
        path = run_dir / name
        os.makedirs(path.parent, exist_ok=True)
        _write(path, mutated if name == target else
               content if isinstance(content, str) else json.dumps(content))


def test_mutated_inputs_exit_0_1_or_2_within_the_memory_bound(tmp_path, monkeypatch):
    rng = random.Random(SEED)
    failures, codes = [], {}
    for n, (name, files, target, argv) in enumerate(corpus(tmp_path)):
        _materialize(tmp_path / f"{n}", files)
        monkeypatch.chdir(tmp_path / f"{n}")
        code, _, out, err = _run(argv)
        assert code == 0, (name, out, err)  # the unmutated file is valid
        content = files[target]
        for i in range(RUNS_PER_SEED):
            mutated = (mutate_text(rng, content) if isinstance(content, str)
                       else mutate_json(rng, content))
            _materialize(tmp_path / f"{n}-{i}", files, target, mutated)
            monkeypatch.chdir(tmp_path / f"{n}-{i}")
            try:
                code, peak, _, err = _run(argv)
            except Exception as e:  # noqa: BLE001 - any escape is the finding
                failures.append(f"{name}: {type(e).__name__}: {e} on {mutated[:300]!r}")
                continue
            codes[code] = codes.get(code, 0) + 1
            if code not in (0, 1, 2) or peak > PEAK_BYTES:
                failures.append(f"{name}: exit {code}, peak {peak} bytes, {err[:200]!r} "
                                f"on {mutated[:300]!r}")
    assert not failures, "\n".join(failures)
    # the mutations reach past the parsers: some runs still succeed
    assert codes.get(0, 0) >= 10 and codes.get(2, 0) >= 50, codes
