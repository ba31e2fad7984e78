"""The three workloads: seeded inputs written as files, tasks of CLI jobs
over those files, and the checks that judge every job's output.

A task is one or two CLI invocations that belong together (a pipeline and
the verify-null of its bundle, an apply and the normalize of its result,
homology at k = 1 and k = 2 of one chain).  Each invocation is one job.
Checks use ``oracle``, never the layer being timed.  A job's verdict is
``ok``, ``unknown`` (an honest exit 1 from a search), ``failed`` (it raised,
exited with another code, or its check rejected it) or ``wrong`` (it
claimed an answer that the check rejects; counted as failed, and it makes
the run incorrect).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle
from acpair.constructions import lustig, witness_to_json
from acpair.homology import FiniteGroup, chain_to_json
from acpair.presentations import format_presentation
from chain_fixtures import presentation_chain
from lustig_fixtures import lustig_witness_pair

OK, UNKNOWN, FAILED, WRONG = "ok", "unknown", "failed", "wrong"
OUT = "@out/"  # argv prefix for paths in the task's own output directory


@dataclass
class JobResult:
    code: object  # exit code, or None when the job raised
    stdout: str
    seconds: float
    error: str | None  # type of the exception the job raised


@dataclass
class Task:
    kind: str
    argvs: list
    check: Callable  # (results, out_dir) -> one verdict per job

    def commands(self, out_dir: str) -> list:
        return [[os.path.join(out_dir, a[len(OUT):]) if a.startswith(OUT) else a
                 for a in argv] for argv in self.argvs]


@dataclass(frozen=True)
class Workload:
    """`setup(seed, input_dir, count)` writes the inputs of `count` passes
    and returns them: lists of tasks with the same mix of task kinds and
    sizes.  `pass_seconds` is the job time of one pass in reference seconds
    (see ``speed``); the number of passes follows from the run's seconds
    alone, so the jobs measured depend only on the seconds and the seed, not
    on how fast the machine happened to be.

    The search problems and move scripts of pass p are drawn from a stream
    of their own, `problems(workload, p)`, the same for every seed; the seed
    renames them (`Renaming`) and orders the tasks.  With problems drawn
    from the seed itself, a run's median job time moved by up to a fifth
    from seed to seed.  Renamed problems keep their word lengths and search
    spaces; only the order in which a search meets its states changes.
    Homology inputs are drawn from the seed itself: their costs hardly vary."""

    name: str
    setup: Callable
    pass_seconds: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_seconds))


def problems(workload: str, p: int) -> random.Random:
    return random.Random(f"{workload}/{p}")


@dataclass(frozen=True)
class Renaming:
    """A permutation of the generators, signed when inverses may be
    swapped too, and one of the relators: an automorphism of the free group
    and a reordering, which keep every word's length and every search's
    state space up to renaming."""

    gens: tuple  # gens[g - 1]: the letter generator g becomes
    rels: tuple  # rels[j - 1]: the 1-based position relator j moves to

    @classmethod
    def draw(cls, rng, rank: int, count: int, signed: bool) -> "Renaming":
        gens = rng.sample(range(1, rank + 1), rank)
        if signed:
            gens = [g * rng.choice((1, -1)) for g in gens]
        return cls(tuple(gens), tuple(rng.sample(range(1, count + 1), count)))

    def word(self, w) -> tuple:
        return tuple(self.gens[x - 1] if x > 0 else -self.gens[-x - 1] for x in w)

    def relators(self, rels) -> list:
        out = [None] * len(rels)
        for j, r in enumerate(rels):
            out[self.rels[j] - 1] = self.word(r)
        return out

    def move(self, move: dict, names) -> dict:
        """The move that acts on renamed relators as `move` acts on the
        originals; unsigned renamings only."""
        m = dict(move)
        if m["op"].startswith("Nielsen"):
            for key in ("i", "j"):
                if key in m:
                    m[key] = self.gens[m[key] - 1]
        else:
            for key in ("j", "k"):
                if key in m:
                    m[key] = self.rels[m[key] - 1]
        if "w" in m:
            m["w"] = oracle.format_word(self.word(oracle.parse_word(m["w"], names)), names)
        return m


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _random_word(rng, rank: int, length: int) -> tuple:
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    w = []
    while len(w) < length:
        x = rng.choice(letters)
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


# ---------------------------------------------------------------------------
# certify: certificate traffic.  Bundle jobs (pipeline with supplied
# witnesses, then verify-null) keep replay, Presentation construction,
# reduce, product_stabilization and verify_null busy while cyclic_canonical
# sees only short words; script jobs (apply, then normalize) reverse that,
# since normalize is quadratic in word length.  Searches and homology idle.

LIGHT_PAIRS = ((1, 2), (1, 3), (2, 3))
HEAVY_PAIRS = ((1, 4), (2, 4), (3, 4))
SCRIPT_GENS = ("x", "y", "z")
# _size of the relators after each script of a pass: twelve steps from 150
# to 1300 letters, so that normalize costs the same in every pass and seed.
SCRIPT_SIZES = tuple(150 + k * 1150 / 11 for k in range(12))


def _random_script_move(rng, names, rels, small: bool) -> dict:
    """A random move; with `small`, only a conjugation or an inversion,
    which change the relators' size by at most six letters."""
    n, m = len(names), len(rels)
    roll = 0.7 + 0.3 * rng.random() if small else rng.random()
    if roll < 0.3:
        i, j = rng.sample(range(1, n + 1), 2)
        return {"op": "NielsenMul", "i": i, "j": j, "side": rng.choice(("left", "right"))}
    if roll < 0.4:
        return {"op": "NielsenInv", "i": rng.randint(1, n)}
    if roll < 0.7:
        j, k = rng.sample(range(1, m + 1), 2)
        return {"op": "SlideRel", "j": j, "k": k, "side": rng.choice(("left", "right"))}
    if roll < 0.9:
        w = _random_word(rng, n, rng.randint(1, 3))
        return {"op": "ConjRel", "j": rng.randint(1, m), "w": oracle.format_word(w, names)}
    return {"op": "InvRel", "j": rng.randint(1, m)}


def _check_script(expected, results, out):
    apply, normalize = results
    if apply.code != 0:
        first = FAILED
    else:
        gens, rels = oracle.parse_presentation(_read(os.path.join(out, "q.pres")))
        first = OK if (gens, rels) == (SCRIPT_GENS, expected) else WRONG
    if normalize.code != 0:
        second = FAILED
    else:
        got = oracle.parse_key(normalize.stdout)
        second = OK if got == (len(SCRIPT_GENS), oracle.key(expected)) else WRONG
    return [first, second]


def _size(rels) -> float:
    """Root of the summed squared relator lengths: normalize's rotation scan
    costs about this squared."""
    return math.sqrt(sum(len(r) ** 2 for r in rels))


def script_task(problem, rng, d: str, n: int, target: float) -> Task:
    """Apply a random Nielsen/slide/conjugate/invert script until the
    relators reach size `target` (within 5%), then normalize the result.
    The last tenth of the way is made by conjugations and inversions only,
    so that the walk never overshoots.  `problem` draws the script, `rng`
    its renaming."""
    names = SCRIPT_GENS
    start = [_random_word(problem, 3, problem.randint(3, 6)) for _ in range(3)]
    rels, moves = start, []
    while _size(rels) < target:
        move = _random_script_move(problem, names, rels, _size(rels) >= 0.9 * target)
        nxt = oracle.apply_move(rels, move, names)
        if _size(nxt) <= 1.05 * target:
            rels = nxt
            moves.append(move)
    renaming = Renaming.draw(rng, len(names), len(start), signed=False)
    start, rels = renaming.relators(start), renaming.relators(rels)
    moves = [renaming.move(m, names) for m in moves]
    pres = _write(os.path.join(d, f"p{n}.pres"), oracle.format_presentation(names, start))
    script = _write(os.path.join(d, f"s{n}.json"),
                    json.dumps({"regime": "full", "moves": moves}))
    return Task("script",
                [["apply", pres, script, "-o", OUT + "q.pres"], ["normalize", OUT + "q.pres"]],
                lambda results, out: _check_script(rels, results, out))


def _check_bundle(results, out):
    pipeline, verify = results
    built = (pipeline.code == 0 and "certificates: 4" in pipeline.stdout
             and "verify-null: pass" in pipeline.stdout)
    verified = verify.code == 0 and "null vector: yes" in verify.stdout
    return [OK if built else FAILED, OK if verified else FAILED]


def bundle_task(d: str, i: int, j: int) -> Task:
    return Task("bundle",
                [["pipeline", os.path.join(d, f"k{i}.pres"), os.path.join(d, f"k{j}.pres"),
                  "--witnesses", os.path.join(d, f"w{i}{j}"), "--jobs", "1",
                  "-o", OUT + "bundle"],
                 ["verify-null", OUT + "bundle"]],
                _check_bundle)


def write_lustig(d: str, indices) -> None:
    for i in indices:
        _write(os.path.join(d, f"k{i}.pres"), format_presentation(lustig(i)))


def write_witnesses(d: str, i: int, j: int) -> None:
    """Witness files for the pair (i, j) from the commutator calculus."""
    wdir = os.path.join(d, f"w{i}{j}")
    os.makedirs(wdir)
    names = lustig(i).gens
    for prefix, wits in zip(("second_over_first_", "first_over_second_"),
                            lustig_witness_pair(i, j)):
        for k, wit in enumerate(wits, start=1):
            _write(os.path.join(wdir, f"{prefix}{k}.json"),
                   json.dumps(witness_to_json(wit, names)))


def setup_certify(seed: int, d: str, count: int) -> list:
    rng = random.Random(seed)
    write_lustig(d, range(1, 5))
    for i, j in LIGHT_PAIRS + HEAVY_PAIRS:
        write_witnesses(d, i, j)
    passes, n = [], 0
    for p in range(count):
        problem = problems("certify", p)
        tasks = [bundle_task(d, *pair) for pair in LIGHT_PAIRS + HEAVY_PAIRS]
        for size in SCRIPT_SIZES:
            tasks.append(script_task(problem, rng, d, n, size))
            n += 1
        rng.shuffle(tasks)
        passes.append(tasks)
    return passes


# ---------------------------------------------------------------------------
# search: search traffic.  Many short-word multiply/reduce, apply_move and
# canonical_key calls with cache misses; both breadth-first searches do most
# of the work, replay runs at most once per found script, pairing and
# homology idle.  The witness-free pipeline stops on the state cap of all
# four cross searches, so job times span 2 ms to half a second.  Targets
# that hit the witness-search reconstruction defect (AssertionError) stay
# in and count as failed jobs.

SEARCH_GENS = ("x", "y")
# Each pass of the search workload holds one search-equiv pair for every
# (relator lengths, slides, other moves) stratum and two witness targets for
# every (relator lengths, factors) stratum, so every seed has the same mix of
# search depths and word sizes; only the letters are random.
EQUIV_LENGTHS = range(2, 6)
EQUIV_MOVES = ((1, 1), (2, 0), (2, 1), (3, 0))  # (slides, conjugations or inversions)
EQUIV_BUDGET = ["--depth", "3", "--max-states", "10000", "--max-relator-length", "24",
                "--conj-len", "3"]
WITNESS_LENGTHS = range(3, 6)
WITNESS_FACTORS = (2, 3, 4)
PIPELINE_EVERY = 120  # small search tasks between two witness-free pipelines


def _check_equiv(start, goal, results, out):
    (res,) = results
    if res.code == 1 and "unknown" in res.stdout:
        return [UNKNOWN]
    if res.code != 0:
        return [FAILED]
    try:
        script = json.loads(_read(os.path.join(out, "s.json")))
        reached = oracle.replay(start, script, SEARCH_GENS)
    except (ValueError, KeyError, IndexError):
        return [WRONG]
    return [OK if oracle.key(reached) == goal else WRONG]


def equiv_task(problem, rng, d: str, n: int, lengths, slides: int, others: int) -> Task:
    """`problem` draws the pair, `rng` its renaming."""
    names = SEARCH_GENS
    start = [_random_word(problem, 2, length) for length in lengths]
    moves = []
    for _ in range(slides):
        j, k = problem.sample((1, 2), 2)
        moves.append({"op": "SlideRel", "j": j, "k": k,
                      "side": problem.choice(("left", "right"))})
    for _ in range(others):
        if problem.random() < 0.5:
            w = _random_word(problem, 2, problem.randint(1, 2))
            move = {"op": "ConjRel", "j": problem.randint(1, 2),
                    "w": oracle.format_word(w, names)}
        else:
            move = {"op": "InvRel", "j": problem.randint(1, 2)}
        moves.insert(problem.randint(0, len(moves)), move)
    goal = oracle.replay(start, {"moves": moves}, names)
    renaming = Renaming.draw(rng, len(names), len(start), signed=True)
    start, goal = renaming.relators(start), renaming.relators(goal)
    a = _write(os.path.join(d, f"a{n}.pres"), oracle.format_presentation(names, start))
    b = _write(os.path.join(d, f"b{n}.pres"), oracle.format_presentation(names, goal))
    goal_key = oracle.key(goal)
    return Task("search-equiv",
                [["search-equiv", a, b, *EQUIV_BUDGET, "--jobs", "1", "-o", OUT + "s.json"]],
                lambda results, out: _check_equiv(start, goal_key, results, out))


def _check_witness(rels, target, results, out):
    (res,) = results
    if res.code == 1 and "unknown" in res.stdout:
        return [UNKNOWN]
    if res.code != 0:
        return [FAILED]
    try:
        data = json.loads(_read(os.path.join(out, "w.json")))
        product = ()
        for f in data["factors"]:
            g = oracle.parse_word(f["g"], SEARCH_GENS)
            rel = rels[f["r_index"] - 1]
            rel = rel if f["sign"] == 1 else oracle.invert(rel)
            product = oracle.multiply(product, oracle.invert(g), rel, g)
        claimed = oracle.parse_word(data["target"], SEARCH_GENS)
    except (ValueError, KeyError, IndexError):
        return [WRONG]
    return [OK if claimed == target == product else WRONG]


def witness_task(problem, rng, d: str, n: int, lengths, factors: int) -> Task:
    """Target: a product of `factors` conjugates of the relators, with
    conjugators of at most two letters, so it lies within the default
    budget.  `problem` draws the relators and target, `rng` their renaming."""
    rels = [_random_word(problem, 2, length) for length in lengths]
    target = ()
    for _ in range(factors):
        g = _random_word(problem, 2, problem.randint(0, 2))
        rel = problem.choice(rels)
        rel = rel if problem.random() < 0.5 else oracle.invert(rel)
        target = oracle.multiply(target, oracle.invert(g), rel, g)
    renaming = Renaming.draw(rng, len(SEARCH_GENS), len(rels), signed=True)
    rels, target = renaming.relators(rels), renaming.word(target)
    pres = _write(os.path.join(d, f"w{n}.pres"), oracle.format_presentation(SEARCH_GENS, rels))
    return Task("witness",
                [["witness", pres, "--target", oracle.format_word(target, SEARCH_GENS),
                  "-o", OUT + "w.json"]],
                lambda results, out: _check_witness(rels, target, results, out))


def _check_unknown_pipeline(results, out):
    (res,) = results
    if res.code == 1 and "unknown witnesses" in res.stdout:
        return [UNKNOWN]
    if res.code == 0 and "verify-null: pass" in res.stdout:
        return [OK]
    return [FAILED]


def setup_search(seed: int, d: str, count: int) -> list:
    rng = random.Random(seed)
    write_lustig(d, (1, 2))
    pipeline = Task("pipeline",
                    [["pipeline", os.path.join(d, "k1.pres"), os.path.join(d, "k2.pres"),
                      "--jobs", "1", "-o", OUT + "bundle"]],
                    _check_unknown_pipeline)
    passes, n = [], 0
    for p in range(count):
        problem = problems("search", p)
        small = []
        for lengths in itertools.product(EQUIV_LENGTHS, repeat=2):
            for slides, others in EQUIV_MOVES:
                small.append(equiv_task(problem, rng, d, n + len(small), lengths, slides,
                                        others))
        for _ in range(2):
            for lengths in itertools.product(WITNESS_LENGTHS, repeat=2):
                for factors in WITNESS_FACTORS:
                    small.append(witness_task(problem, rng, d, n + len(small), lengths,
                                              factors))
        n += len(small)
        rng.shuffle(small)
        tasks = []
        for k, task in enumerate(small):
            if k % PIPELINE_EVERY == 0:
                tasks.append(pipeline)
            tasks.append(task)
        passes.append(tasks)
    return passes


# ---------------------------------------------------------------------------
# homology: all work in homology (restrict_scalars and smith_normal_form);
# words, moves and pairing idle, so it is the bypass workload for every word
# or move change and the only one for SNF.

DENSE_SIZES = (24, 32, 40, 48)  # sides of the square top boundaries, one each per pass
DENSE_ENTRY = 5


def alternating_group_5() -> list:
    """Multiplication table of A5 on the even permutations of 0..4, identity
    first; table[a][b] is the index of a after b."""
    perms = [p for p in itertools.permutations(range(5))
             if sum(p[x] > p[y] for x in range(5) for y in range(x + 1, 5)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(5))] for b in perms] for a in perms]


def _order(table, g: int) -> int:
    k, x = 1, g
    while x != 0:
        k, x = k + 1, table[x][g]
    return k


def _generated(table, gens) -> int:
    """Order of the subgroup generated by `gens`."""
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[g][x]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _check_homology(euler, det, results, out):
    if any(r.code != 0 for r in results):
        return [OK if r.code == 0 else FAILED for r in results]
    try:
        h1, h2 = (json.loads(r.stdout) for r in results)
    except ValueError:
        return [WRONG, WRONG]
    verdicts = [OK, OK]
    if 1 - h1["free_rank"] + h2["free_rank"] != euler:
        verdicts = [WRONG, WRONG]
    if det:
        if h1["free_rank"] != 0 or math.prod(h1["torsion"]) != abs(det):
            verdicts[0] = WRONG
        if h2["free_rank"] != 0:
            verdicts[1] = WRONG
    return verdicts


def _homology_task(kind: str, path: str, euler: int, det: int | None) -> Task:
    return Task(kind,
                [["homology", path, "--at", str(k), "--format", "json"] for k in (1, 2)],
                lambda results, out: _check_homology(euler, det, results, out))


def a5_task(rng, d: str, n: int, group, table, i: int) -> Task:
    """Fox chain of lustig(i) over an A5 cover: s and t go to generators of
    A5 of orders 2 and 3, r to an involution, so every relator maps to 1."""
    involutions = [g for g in range(len(table)) if _order(table, g) == 2]
    triples = [g for g in range(len(table)) if _order(table, g) == 3]
    while True:
        s, t = rng.choice(involutions), rng.choice(triples)
        if _generated(table, (s, t)) == len(table):
            break
    chain = presentation_chain(group, [rng.choice(involutions), s, t], lustig(i).relators)
    path = _write(os.path.join(d, f"a5_{n}.json"), json.dumps(chain_to_json(chain)))
    # chi(lustig(i)) = 1 - 3 + 3; H0 = Z because the images generate A5.
    return _homology_task("a5-chain", path, len(table), None)


def dense_task(rng, d: str, n: int, size: int) -> Task:
    """Trivial-group chain Z^size -> Z^size -> Z with a dense top boundary
    and zero bottom boundary."""
    matrix = [[rng.randint(-DENSE_ENTRY, DENSE_ENTRY) for _ in range(size)]
              for _ in range(size)]
    data = {"group": {"order": 1, "identity": 0, "table": [[0]]}, "n": 2,
            "ranks": [1, size, size],
            "entries": [[2, r, c, 0, x] for r, row in enumerate(matrix)
                        for c, x in enumerate(row) if x]}
    path = _write(os.path.join(d, f"dense_{n}.json"), json.dumps(data))
    return _homology_task("dense-chain", path, 1, oracle.determinant(matrix))


def setup_homology(seed: int, d: str, count: int) -> list:
    rng = random.Random(seed)
    table = alternating_group_5()
    group = FiniteGroup.from_table(table)
    passes, n = [], 0
    for _ in range(count):
        tasks = []
        for i, size in zip(rng.sample(range(1, 5), 4), rng.sample(DENSE_SIZES, 4)):
            tasks.append(a5_task(rng, d, n, group, table, i))
            tasks.append(dense_task(rng, d, n + 1, size))
            n += 2
        passes.append(tasks)
    return passes


WORKLOADS = {w.name: w for w in (
    Workload("certify", setup_certify, 7.1),
    # A search pass takes 4.5 s; budgeting 3.4 s gives a 30 s run three passes
    # per round.  With two, the median job time spread by a tenth from seed to
    # seed, since renaming changes the order in which each search meets states.
    Workload("search", setup_search, 3.4),
    Workload("homology", setup_homology, 2.9),
)}
