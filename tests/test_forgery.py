"""Forged certificates and witnesses are refused: a differential soundness
test against the benchmark's independent oracle.

The supplied-witness bundles of lustig(1) x lustig(2) and of lustig(1) x
lustig(3) are mutated in ways that keep every file well-formed but may
change what it claims: an index +-1, a slide side or a coefficient sign
flipped, a conjugator letter added, dropped or changed, a move dropped,
duplicated or swapped with its neighbour, a letter added to an lhs or rhs
relator, the regime narrowed to k_prime, a certificate replaced by another
or one of another rank added, a coefficient changed, a move at the end
whose relator index is out of range, and a conjugation that makes a
relator longer than the word bound, and x made zero.
`verify-null` must exit 0 exactly when an independent null check says yes,
and 1 or 2 otherwise.  The witness files are mutated too: the pipeline must
accept exactly the witnesses whose products the oracle checks, and refuse
the others as witnesses, before it builds any certificate.  The k_prime
script pairs of `verify-smove` are mutated as well, and it must exit 0
exactly when both sides' scripts, all declared k_prime, reach their keys.
A sample of these verdicts must come out the same under `python -O` with
another hash seed.

The independent check is bench/oracle.py, which shares no code with acpair,
plus the few rules written here from the README: ranks must agree, indices
are 1-based and in range, k_prime admits ConjRel, InvRel and RestrictedSlide
(and the trivial-relator moves when stabilized), RestrictedSlide multiplies
as the README defines it, no relator may grow past the word bound, and the
certificates that replay join the keys whose coefficients must cancel in
the self-product, but must not cancel x itself.  A certificate holds
relator moves only, so one with a Nielsen move is refused
(test_a_nielsen_move_in_a_certificate_is_refused, beside the corpus).
"""

import contextlib
import copy
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import types
from collections import Counter, defaultdict
from fractions import Fraction

from acpair.cli import main
from acpair.moves import (ConjRel, InvRel, MoveScript, RestrictedSlide, RSFactor,
                          invert_script, replay, script_to_json)
from acpair.presentations import Presentation, format_presentation, product
from acpair.words import MAX_WORD_LENGTH

from lustig_fixtures import write_lustig_inputs
from word_reference import encode, reduce

SEED = 10
PER_KIND = 16
VALID_SMOVE_MUTANTS = 42  # of the 96 forged pairs, by the independent check
SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src"


def _load_oracle():
    """bench/oracle.py, compiled from its text so that no bytecode is
    written into bench/."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    module = types.ModuleType("oracle")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


oracle = _load_oracle()

K_PRIME = {"ConjRel", "InvRel", "RestrictedSlide"}
STABILIZED = {"AddTrivialRel", "RemoveTrivialRel"}
RELATOR_FIELDS = {"ConjRel": "j", "InvRel": "j", "SlideRel": "jk", "RemoveTrivialRel": "j",
                  "RestrictedSlide": "j"}
GENERATOR_FIELDS = {"NielsenInv": "i", "NielsenMul": "ij", "RemoveGen": "i"}
# the moves that keep the boundary wedge fixed, the only ones a certificate holds
RELATOR_MOVES = K_PRIME | STABILIZED | {"SlideRel"}


def _restricted_slide(rels: list, move: dict, names) -> list:
    """The README's RestrictedSlide: relator j is multiplied by
    w [R_k^sign, h] w^-1 for each factor, k != j, where [a, b] is
    a b a^-1 b^-1."""
    rels, j = list(rels), move["j"] - 1
    for f in move["factors"]:
        if f["k"] - 1 == j or f["sign"] not in (1, -1):
            raise ValueError("a factor on its own relator, or a bad sign")
        w, h = oracle.parse_word(f["w"], names), oracle.parse_word(f["h"], names)
        r = rels[f["k"] - 1] if f["sign"] == 1 else oracle.invert(rels[f["k"] - 1])
        rels[j] = oracle.multiply(rels[j], w, r, h, oracle.invert(r), oracle.invert(h),
                                  oracle.invert(w))
    return rels


def _replay(gens, rels: list, script: dict):
    """The relators that script takes rels to by the oracle's moves, the
    RestrictedSlide above and the rules above, or None where they refuse it."""
    regime, stabilized = script.get("regime", "full"), script.get("stabilized", False)
    admitted = K_PRIME | (STABILIZED if stabilized else set())
    for move in script["moves"]:
        op = move["op"]
        if regime == "k_prime" and op not in admitted:
            return None
        indices = ([(move[f], len(rels)) for f in RELATOR_FIELDS.get(op, "")]
                   + [(f["k"], len(rels)) for f in move.get("factors", ())]
                   + [(move[f], len(gens)) for f in GENERATOR_FIELDS.get(op, "")])
        if any(not 1 <= index <= count for index, count in indices):
            return None
        if move.get("side", "left") not in ("left", "right"):
            return None
        try:
            if op == "RestrictedSlide":
                rels = _restricted_slide(rels, move, gens)
            else:
                rels = oracle.apply_move(rels, move, gens)
        except ValueError:
            return None
        if any(len(r) > MAX_WORD_LENGTH for r in rels):
            return None
    return rels


def _replays(cert: dict, rank: int) -> bool:
    """Whether the certificate's script takes its lhs to the key of its rhs,
    both of the sum's rank."""
    gens, rels = oracle.parse_presentation(cert["lhs"])
    rgens, target = oracle.parse_presentation(cert["rhs"])
    if not len(gens) == len(rgens) == rank:
        return False
    if any(move["op"] not in RELATOR_MOVES for move in cert["script"]["moves"]):
        return False
    rels = _replay(gens, rels, cert["script"])
    return rels is not None and oracle.key(rels) == oracle.key(target)


def _oracle_null(xsum: list, certs: list, replays: dict) -> bool:
    """The independent verdict on a bundle; replays caches _replays by the
    certificate's text."""
    terms, rank = defaultdict(Fraction), None
    for item in xsum:
        gens, rels = oracle.parse_presentation(item["presentation"])
        rank = len(gens)
        terms[tuple(oracle.key(rels))] += Fraction(item["coeff"])
    product = defaultdict(Fraction)
    for k1, c1 in terms.items():
        for k2, c2 in terms.items():
            product[tuple(sorted(k1 + k2, key=oracle.word_order))] += c1 * c2
    parent = {}

    def find(key):
        while parent.get(key, key) != key:
            key = parent[key]
        return key

    all_ok = True
    for cert in certs:
        text = json.dumps(cert, sort_keys=True)
        if text not in replays:
            replays[text] = _replays(cert, rank)
        all_ok &= replays[text]
        if replays[text]:
            ends = [tuple(oracle.key(oracle.parse_presentation(cert[side])[1]))
                    for side in ("lhs", "rhs")]
            parent[find(ends[0])] = find(ends[1])
    residue, reduced = defaultdict(Fraction), defaultdict(Fraction)
    for key, coeff in product.items():
        residue[find(key)] += coeff
    for key, coeff in terms.items():
        reduced[find(key)] += coeff
    # x reduced to 0 has a self-product of 0 but shows no null vector
    return all_ok and not any(residue.values()) and any(reduced.values())


# ---------------------------------------------------------------------------
# Bundle mutations: each changes xsum and certs, copies of the valid
# bundle's, in place.


def _pick_move(rng, certs, ops):
    return rng.choice([(cert, n) for cert in certs
                       for n, move in enumerate(cert["script"]["moves"]) if move["op"] in ops])


def _index(rng, xsum, certs):
    cert, n = _pick_move(rng, certs, ("ConjRel", "InvRel", "SlideRel"))
    move = cert["script"]["moves"][n]
    field = rng.choice([f for f in "jk" if f in move])
    move[field] += rng.choice((1, -1))


def _side(rng, xsum, certs):
    cert, n = _pick_move(rng, certs, ("SlideRel",))
    move = cert["script"]["moves"][n]
    move["side"] = "right" if move["side"] == "left" else "left"


def _sign(rng, xsum, certs):
    item = rng.choice(xsum)
    item["coeff"] = -item["coeff"]


def _conjugator(rng, xsum, certs):
    cert, n = _pick_move(rng, certs, ("ConjRel",))
    move = cert["script"]["moves"][n]
    names = oracle.parse_presentation(cert["lhs"])[0]
    letters = list(oracle.parse_word(move["w"], names))
    at = rng.randrange(len(letters) + 1)
    letter = rng.choice([x for g in range(1, len(names) + 1) for x in (g, -g)])
    roll = rng.random()
    if roll < 1 / 3 or not letters:  # add
        letters.insert(at, letter)
    elif roll < 2 / 3:  # drop
        del letters[min(at, len(letters) - 1)]
    else:  # change
        letters[min(at, len(letters) - 1)] = letter
    move["w"] = oracle.format_word(oracle.reduce(letters), names)


def _drop(rng, xsum, certs):
    cert = rng.choice([c for c in certs if c["script"]["moves"]])
    del cert["script"]["moves"][rng.randrange(len(cert["script"]["moves"]))]


def _duplicate(rng, xsum, certs):
    moves = rng.choice([c for c in certs if c["script"]["moves"]])["script"]["moves"]
    n = rng.randrange(len(moves))
    moves.insert(n, copy.deepcopy(moves[n]))


def _swap(rng, xsum, certs):
    cert = rng.choice([c for c in certs if len(c["script"]["moves"]) > 1])
    moves = cert["script"]["moves"]
    n = rng.randrange(len(moves) - 1)
    moves[n], moves[n + 1] = moves[n + 1], moves[n]


def _relator_letter(rng, xsum, certs):
    cert = rng.choice(certs)
    side = rng.choice(("lhs", "rhs"))
    gens, rels = oracle.parse_presentation(cert[side])
    n = rng.randrange(len(rels))
    letters = list(rels[n])
    letters.insert(rng.randint(0, len(letters)),
                   rng.choice([x for g in range(1, len(gens) + 1) for x in (g, -g)]))
    rels[n] = oracle.reduce(letters)
    cert[side] = oracle.format_presentation(gens, rels)


def _regime(rng, xsum, certs):
    script = rng.choice(certs)["script"]
    script["regime"] = "k_prime"
    if rng.random() < 0.5:
        script["stabilized"] = True


def _certificate(rng, xsum, certs):
    if rng.random() < 0.5:
        n, m = rng.sample(range(len(certs)), 2)
        certs[n] = copy.deepcopy(certs[m])
    else:  # a valid certificate of another rank
        pres = "gens: a b c d\nrel: a b\n"
        certs.append({"label": "foreign", "lhs": pres, "rhs": pres,
                      "script": {"regime": "full", "moves": []}})


def _coefficient(rng, xsum, certs):
    item = rng.choice(xsum)
    item["coeff"] = rng.choice((item["coeff"] + 1, item["coeff"] - 1, 2 * item["coeff"]))


def _index_past_the_end(rng, xsum, certs):
    # a move at the end of a script on relator 0 or m + 1, which only the
    # range check refuses: a conjugation or an inversion, which leave the
    # key as it was, or a slide
    cert = rng.choice(certs)
    m = len(oracle.parse_presentation(cert["lhs"])[1])
    bad = rng.choice((0, m + 1))
    move = rng.choice(({"op": "InvRel", "j": bad}, {"op": "ConjRel", "j": bad, "w": "s"},
                       {"op": "SlideRel", "j": bad, "k": 1, "side": "left"},
                       {"op": "SlideRel", "j": 1, "k": bad, "side": "right"}))
    cert["script"]["moves"].append(move)


def _over_the_bound(rng, xsum, certs):
    # conjugating by s^500010 makes a relator of more than 1,000,000 letters
    # and leaves its key as it was
    cert = rng.choice(certs)
    cert["script"]["moves"].append({"op": "ConjRel", "j": 1, "w": "s^500010"})


def _zero(rng, xsum, certs):
    # every coefficient 0, or the first term's presentation in the second
    # term too, so that their coefficients, 1 and -1, meet
    if rng.random() < 0.5:
        for item in xsum:
            item["coeff"] = 0
    else:
        xsum[1]["presentation"] = xsum[0]["presentation"]


MUTATIONS = [(_index, PER_KIND), (_side, PER_KIND), (_sign, 2), (_conjugator, PER_KIND),
             (_drop, PER_KIND), (_duplicate, PER_KIND), (_swap, PER_KIND),
             (_relator_letter, PER_KIND), (_regime, 6), (_certificate, 8),
             (_coefficient, 8), (_index_past_the_end, 12), (_over_the_bound, 1),
             (_zero, 1)]


def test_a_nielsen_move_in_a_certificate_is_refused(tmp_path):
    # NielsenInv(i) once, or twice, which leaves every relator as it was, so
    # that only the rule on relator moves refuses the certificate
    xsum, certs = _valid_bundle(tmp_path)
    rng = random.Random(SEED)
    for n in range(8):
        forged = copy.deepcopy(certs)
        cert = rng.choice(forged)
        moves = cert["script"]["moves"]
        rank = len(oracle.parse_presentation(cert["lhs"])[0])
        at = rng.randint(0, len(moves))
        moves[at:at] = [{"op": "NielsenInv", "i": rng.randint(1, rank)}] * (1 + n % 2)
        assert not _oracle_null(xsum, forged, {})
        path = tmp_path / f"nielsen{n}"
        _write_bundle(path, xsum, forged)
        code, out, err = _run(["verify-null", path])
        assert code == 1 and f"move {at + 1} (NielsenInv) re-identifies" in out, (out, err)


def _write_bundle(path: pathlib.Path, xsum, certs) -> None:
    (path / "certs").mkdir(parents=True)
    (path / "x.sum").write_text(json.dumps(xsum))
    for n, cert in enumerate(certs):
        (path / "certs" / f"{n}_{cert['label']}.json").write_text(json.dumps(cert))


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _valid_bundle(tmp_path, pair=(1, 2)) -> tuple:
    """x.sum and the certificates of the supplied-witness lustig(i) x
    lustig(j) bundle of the pair (i, j)."""
    k1, k2, wdir = write_lustig_inputs(tmp_path, pair)
    bundle = tmp_path / "bundle"
    assert _run(["pipeline", k1, k2, "--witnesses", wdir, "-o", bundle])[0] == 0
    xsum = json.loads((bundle / "x.sum").read_text())
    return xsum, [json.loads(p.read_text()) for p in sorted((bundle / "certs").iterdir())]


def _forged_bundles(xsum, certs):
    """(mutation name, n, x.sum, certificates) of every forged bundle, in
    the same order for every run."""
    rng = random.Random(SEED)
    # a fresh copy of the bundle is read from its text, several times
    # faster than copy.deepcopy
    text = json.dumps([xsum, certs])
    for mutate, count in MUTATIONS:
        for n in range(count):
            forged_sum, forged = json.loads(text)
            mutate(rng, forged_sum, forged)
            yield mutate.__name__, n, forged_sum, forged


def test_forged_bundles_are_refused_as_the_oracle_refuses_them(tmp_path):
    # the bundles of lustig(1) x lustig(2) and of lustig(1) x lustig(3),
    # whose longest certificates hold 326 and 587 moves; of the 150 forged
    # bundles of each, 8 and 13 stay null
    for pair in ((1, 2), (1, 3)):
        root = tmp_path / f"lustig{pair[0]}x{pair[1]}"
        root.mkdir()
        xsum, certs = _valid_bundle(root, pair)
        replays = {}
        assert _oracle_null(xsum, certs, replays)
        verdicts = Counter()
        for name, n, forged_sum, forged in _forged_bundles(xsum, certs):
            path = root / f"{name}{n}"
            _write_bundle(path, forged_sum, forged)
            code, out, err = _run(["verify-null", path])
            null = _oracle_null(forged_sum, forged, replays)
            assert code == 0 if null else code in (1, 2), (pair, name, n, out, err)
            verdicts[name, "null" if null else "refused"] += 1
        # each kind that can forge is refused at times; duplicated moves and
        # flipped coefficient signs may keep the bundle null
        assert all(verdicts[m.__name__, "refused"] for m, _ in MUTATIONS
                   if m not in (_duplicate, _sign)), (pair, verdicts)
        null = sum(v for (_, verdict), v in verdicts.items() if verdict == "null")
        assert 5 <= null <= sum(count for _, count in MUTATIONS) // 2, (pair, verdicts)


def _witness_ok(wit: dict, target, relators) -> bool:
    """The oracle's check of a witness file: its target is the relator, and
    the product of its factors g^-1 R^sign g is the target."""
    names = ("r", "s", "t")
    out = ()
    for f in wit["factors"]:
        k, sign = f["r_index"], f["sign"]
        if not 1 <= k <= len(relators) or sign not in (1, -1):
            return False
        g = oracle.parse_word(f["g"], names)
        rel = relators[k - 1] if sign == 1 else oracle.invert(relators[k - 1])
        out = oracle.multiply(out, oracle.invert(g), rel, g)
    return oracle.parse_word(wit["target"], names) == target == out


def test_forged_witnesses_are_refused_before_any_certificate(tmp_path):
    k1, k2, wdir = write_lustig_inputs(tmp_path)
    relators = {"first": oracle.parse_presentation(pathlib.Path(k1).read_text())[1],
                "second": oracle.parse_presentation(pathlib.Path(k2).read_text())[1]}
    files = {p.name: json.loads(p.read_text()) for p in sorted(wdir.iterdir())}
    rng = random.Random(SEED)
    verdicts = Counter()
    for n in range(30):
        forged = copy.deepcopy(files)
        name = rng.choice(sorted(forged))
        factors = forged[name]["factors"]
        at = rng.randrange(len(factors))
        kind = rng.choice(("g", "r_index", "sign", "drop", "duplicate", "swap"))
        if kind == "g":
            letters = list(oracle.parse_word(factors[at]["g"], ("r", "s", "t")))
            letters.insert(rng.randint(0, len(letters)), rng.choice((1, -1, 2, -2, 3, -3)))
            factors[at]["g"] = oracle.format_word(oracle.reduce(letters), ("r", "s", "t"))
        elif kind == "r_index":
            factors[at]["r_index"] += rng.choice((1, -1))
        elif kind == "sign":
            factors[at]["sign"] = -factors[at]["sign"]
        elif kind == "drop":
            del factors[at]
        elif kind == "duplicate":
            factors.insert(at, dict(factors[at]))
        elif len(factors) > 1:
            at = min(at, len(factors) - 2)
            factors[at], factors[at + 1] = factors[at + 1], factors[at]
        path = tmp_path / f"w{n}"
        path.mkdir()
        for file, wit in forged.items():
            (path / file).write_text(json.dumps(wit))
        ok = True
        for file, wit in forged.items():
            over, i = file[:-len(".json")].rsplit("_", 1)
            # second_over_first_i: relator i of the second over the first
            target, base = over.split("_over_")
            ok &= _witness_ok(wit, relators[target][int(i) - 1], relators[base])
        code, out, err = _run(["pipeline", k1, k2, "--witnesses", path,
                               "-o", tmp_path / f"b{n}"])
        if ok:
            assert code == 0 and "verify-null: pass" in out, (kind, out, err)
        else:
            assert code == 2 and ("supplied witness" in err
                                  or "factor relator index" in err), (kind, out, err)
        verdicts[ok] += 1
    assert verdicts[False] >= 20, verdicts


# ---------------------------------------------------------------------------
# verify-smove: k_prime script pairs built as acceptance criterion 5 builds
# them, then mutated.  Each side's scripts are composed in file order.


def _smove_holds(l1: str, l2: str, sides: dict) -> bool:
    """The independent verdict on a script pair: every script is declared
    k_prime, and each side's scripts, replayed in turn from l1*l2 by
    _replay, reach the key of l1*l1 (to_l1l1) or of l2*l2 (to_l2l2)."""
    gens, first = oracle.parse_presentation(l1)
    second = oracle.parse_presentation(l2)[1]
    for prefix, target in (("to_l1l1", first + first), ("to_l2l2", second + second)):
        rels = first + second
        for script in sides[prefix]:
            if script.get("regime", "full") != "k_prime":
                return False
            rels = _replay(gens, rels, script)
            if rels is None:
                return False
        if oracle.key(rels) != oracle.key(target):
            return False
    return True


def _smove_pair(rng) -> tuple:
    """(l1 text, l2 text, scripts) of a valid pair: one to four moves on the
    second block of l1*l1 make l1*l2, their inverse script takes l1*l2 back
    to l1*l1, and the same moves on the first block take it to l2*l2.
    Conjugating or inverting a relator never changes a key, nor does a
    restricted slide over one generator, whose commutators are trivial, so
    l1 has two or three generators and two or three relators, and only
    pairs with a restricted slide are kept."""
    rank, m = rng.randint(2, 3), rng.randint(2, 3)
    names = tuple(f"g{i + 1}" for i in range(rank))

    def word(length):
        return encode(reduce([rng.choice((1, -1)) * rng.randint(1, rank)
                              for _ in range(rng.randint(0, length))]))

    l1 = Presentation(names, tuple(word(5) for _ in range(m)))
    moves, cur = [], product(l1, l1)
    for _ in range(rng.randint(1, 4)):
        j = rng.randrange(m, 2 * m)
        kind = rng.choice(("conj", "inv", "rslide") if m > 1 else ("conj", "inv"))
        if kind == "conj":
            move = ConjRel(j, word(2))
        elif kind == "inv":
            move = InvRel(j)
        else:
            k = rng.choice([i for i in range(m, 2 * m) if i != j])
            move = RestrictedSlide(j, (RSFactor(word(2), k, rng.choice((1, -1)), word(2)),))
        moves.append(move)
        cur = replay(cur, (move,))
    forward = MoveScript(tuple(moves), "k_prime")
    to_second = script_to_json(forward, names)
    for move in to_second["moves"]:
        move["j"] -= m
        for f in move.get("factors", ()):
            f["k"] -= m
    sides = {"to_l1l1": [script_to_json(invert_script(forward), names)],
             "to_l2l2": [to_second]}
    l2 = Presentation(names, cur.relators[m:])
    return format_presentation(l1), format_presentation(l2), sides


def _script_moves(sides, ops=None) -> list:
    return [(script["moves"], n) for scripts in sides.values() for script in scripts
            for n, move in enumerate(script["moves"]) if ops is None or move["op"] in ops]


# Each mutation changes the scripts in place, given the generator names and
# the relator count of l1*l2, or returns False where it finds nothing to
# change.

def _s_index(rng, names, relators, sides):
    fields = [(moves[n], "j") for moves, n in _script_moves(sides)]
    fields += [(f, "k") for moves, n in _script_moves(sides, ("RestrictedSlide",))
               for f in moves[n]["factors"]]
    obj, field = rng.choice(fields)
    obj[field] += rng.choice((1, -1))


def _s_sign(rng, names, relators, sides):
    slides = _script_moves(sides, ("RestrictedSlide",))
    if not slides:
        return False
    moves, n = rng.choice(slides)
    f = rng.choice(moves[n]["factors"])
    f["sign"] = -f["sign"]


def _s_conjugator(rng, names, relators, sides):
    words = [(moves[n], "w") for moves, n in _script_moves(sides, ("ConjRel",))]
    words += [(f, field) for moves, n in _script_moves(sides, ("RestrictedSlide",))
              for f in moves[n]["factors"] for field in "wh"]
    if not words:
        return False
    obj, field = rng.choice(words)
    letters = list(oracle.parse_word(obj[field], names))
    choices = [x for g in range(1, len(names) + 1) for x in (g, -g)]
    if letters:  # one letter changed to another
        at = rng.randrange(len(letters))
        letters[at] = rng.choice([x for x in choices if x != letters[at]])
    else:
        letters = [rng.choice(choices)]
    obj[field] = oracle.format_word(oracle.reduce(letters), names)


def _s_drop(rng, names, relators, sides):
    moves, n = rng.choice(_script_moves(sides))
    del moves[n]


def _s_duplicate(rng, names, relators, sides):
    moves, n = rng.choice(_script_moves(sides))
    moves.insert(n, copy.deepcopy(moves[n]))


def _s_swap(rng, names, relators, sides):
    pairs = [(moves, n) for moves, n in _script_moves(sides) if n + 1 < len(moves)]
    if not pairs:
        return False
    moves, n = rng.choice(pairs)
    moves[n], moves[n + 1] = moves[n + 1], moves[n]


def _s_raw_slide(rng, names, relators, sides):
    # a raw slide, or one undone by the same slide over the inverted relator,
    # which leaves every relator as it was: only the regime refuses that
    moves = rng.choice([scripts[0]["moves"] for scripts in sides.values()])
    j, k = rng.sample(range(1, relators + 1), 2)
    slide = {"op": "SlideRel", "j": j, "k": k, "side": rng.choice(("left", "right"))}
    inserted = [slide]
    if rng.random() < 0.5:
        invert = {"op": "InvRel", "j": k}
        inserted = [slide, invert, dict(slide), dict(invert)]
    at = rng.randint(0, len(moves))
    moves[at:at] = inserted


def _s_full(rng, names, relators, sides):
    rng.choice([scripts[0] for scripts in sides.values()])["regime"] = "full"


SMOVE_MUTATIONS = [_s_index, _s_sign, _s_conjugator, _s_drop, _s_duplicate, _s_swap,
                   _s_raw_slide, _s_full]
SMOVE_PER_KIND = 12


def _forged_smove_pairs():
    """(mutation name, n, l1 text, l2 text, scripts) of every forged pair, in
    the same order for every run.  A mutation that finds nothing to change
    in a pair is tried on the next pair."""
    rng = random.Random(SEED)
    for mutate in SMOVE_MUTATIONS:
        for n in range(SMOVE_PER_KIND):
            while True:
                l1, l2, sides = _smove_pair(rng)
                assert _smove_holds(l1, l2, sides), (l1, l2, sides)
                if not _script_moves(sides, ("RestrictedSlide",)):
                    continue
                gens, rels = oracle.parse_presentation(l1)
                if mutate(rng, gens, 2 * len(rels), sides) is not False:
                    break
            yield mutate.__name__, n, l1, l2, sides


def _write_smove(path: pathlib.Path, l1: str, l2: str, sides: dict) -> list:
    """verify-smove's command line for the pair, written under path."""
    (path / "scripts").mkdir(parents=True)
    (path / "l1.pres").write_text(l1)
    (path / "l2.pres").write_text(l2)
    for prefix, scripts in sides.items():
        for n, script in enumerate(scripts, start=1):
            (path / "scripts" / f"{prefix}_{n}.json").write_text(json.dumps(script))
    return ["verify-smove", path / "l1.pres", path / "l2.pres", "--scripts", path / "scripts"]


def test_forged_smove_pairs_are_refused_as_the_oracle_refuses_them(tmp_path):
    verdicts = Counter()
    for name, n, l1, l2, sides in _forged_smove_pairs():
        code, out, err = _run(_write_smove(tmp_path / f"{name}{n}", l1, l2, sides))
        holds = _smove_holds(l1, l2, sides)
        assert code == 0 if holds else code in (1, 2), (name, n, sides, out, err)
        verdicts[name, "valid" if holds else "refused"] += 1
    # every kind is refused at times; raw slides and full declarations always
    assert all(verdicts[m.__name__, "refused"] for m in SMOVE_MUTATIONS), verdicts
    assert verdicts["_s_raw_slide", "refused"] == verdicts["_s_full", "refused"] \
        == SMOVE_PER_KIND, verdicts
    valid = sum(v for (_, verdict), v in verdicts.items() if verdict == "valid")
    assert valid == VALID_SMOVE_MUTANTS, verdicts


# ---------------------------------------------------------------------------
# The verdicts do not rest on asserts or on the hash seed: a sample of the
# forged inputs is run again under python -O with PYTHONHASHSEED=1.

DRIVER = """
import contextlib, io, json, sys
from acpair.cli import main
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"optimize": sys.flags.optimize, "runs": runs}))
"""


def test_forged_verdicts_hold_under_python_O_and_another_hash_seed(tmp_path):
    xsum, certs = _valid_bundle(tmp_path)
    argvs = []
    for name, n, forged_sum, forged in list(_forged_bundles(xsum, certs))[::25]:
        _write_bundle(tmp_path / f"{name}{n}", forged_sum, forged)
        argvs.append(["verify-null", tmp_path / f"{name}{n}"])
    for name, n, l1, l2, sides in list(_forged_smove_pairs())[::16]:
        argvs.append(_write_smove(tmp_path / f"{name}{n}", l1, l2, sides))
    argvs = [[str(a) for a in argv] for argv in argvs]
    in_process = [list(_run(argv)) for argv in argvs]
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join([str(SOURCE), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", DRIVER], input=json.dumps(argvs),
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1
    assert result["runs"] == in_process
    assert len(argvs) == 12 and {0, 1} <= {code for code, *_ in in_process}, in_process
