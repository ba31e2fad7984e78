"""Forged certificates and witnesses are refused: a differential soundness
test against the benchmark's independent oracle.

The supplied-witness bundle of lustig(1) x lustig(2) is mutated in ways that
keep every file well-formed but may change what it claims: an index +-1, a
slide side or a coefficient sign flipped, a conjugator letter added,
dropped or changed, a move dropped, duplicated or swapped with its
neighbour, a letter added to an lhs or rhs relator, the regime narrowed to
k_prime, a certificate replaced by another or one of another rank added, a
coefficient changed, a move at the end whose relator index is out of range,
and a conjugation that makes a relator longer than the word bound.
`verify-null` must exit 0 exactly when an independent null check says yes,
and 1 or 2 otherwise.  The witness files are mutated too: the pipeline must
accept exactly the witnesses whose products the oracle checks, and refuse
the others as witnesses, before it builds any certificate.

The independent check is bench/oracle.py, which shares no code with acpair,
plus the few rules written here from the README: ranks must agree, indices
are 1-based and in range, k_prime admits ConjRel, InvRel and RestrictedSlide
(and the trivial-relator moves when stabilized), no relator may grow past
the word bound, and the certificates that replay join the keys whose
coefficients must cancel in the self-product.
"""

import contextlib
import copy
import io
import json
import pathlib
import random
import types
from collections import Counter, defaultdict
from fractions import Fraction

from acpair.cli import main
from acpair.words import MAX_WORD_LENGTH

from lustig_fixtures import write_lustig_inputs

SEED = 10
PER_KIND = 16


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
RELATOR_FIELDS = {"ConjRel": "j", "InvRel": "j", "SlideRel": "jk", "RemoveTrivialRel": "j"}
GENERATOR_FIELDS = {"NielsenInv": "i", "NielsenMul": "ij", "RemoveGen": "i"}


def _replays(cert: dict, rank: int) -> bool:
    """Whether the certificate's script takes its lhs to the key of its rhs,
    both of the sum's rank, by the oracle's moves and the rules above."""
    gens, rels = oracle.parse_presentation(cert["lhs"])
    rgens, target = oracle.parse_presentation(cert["rhs"])
    if not len(gens) == len(rgens) == rank:
        return False
    script = cert["script"]
    regime, stabilized = script.get("regime", "full"), script.get("stabilized", False)
    for move in script["moves"]:
        op = move["op"]
        admitted = K_PRIME | (STABILIZED if stabilized else set())
        if regime == "k_prime" and op not in admitted:
            return False
        indices = ([(move[f], len(rels)) for f in RELATOR_FIELDS.get(op, "")]
                   + [(move[f], len(gens)) for f in GENERATOR_FIELDS.get(op, "")])
        if any(not 1 <= index <= count for index, count in indices):
            return False
        if move.get("side", "left") not in ("left", "right"):
            return False
        try:
            rels = oracle.apply_move(rels, move, gens)
        except ValueError:
            return False
        if any(len(r) > MAX_WORD_LENGTH for r in rels):
            return False
    return oracle.key(rels) == oracle.key(target)


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
    residue = defaultdict(Fraction)
    for key, coeff in product.items():
        residue[find(key)] += coeff
    return all_ok and not any(residue.values())


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


MUTATIONS = [(_index, PER_KIND), (_side, PER_KIND), (_sign, 2), (_conjugator, PER_KIND),
             (_drop, PER_KIND), (_duplicate, PER_KIND), (_swap, PER_KIND),
             (_relator_letter, PER_KIND), (_regime, 6), (_certificate, 8),
             (_coefficient, 8), (_index_past_the_end, 12), (_over_the_bound, 1)]


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


def test_forged_bundles_are_refused_as_the_oracle_refuses_them(tmp_path):
    k1, k2, wdir = write_lustig_inputs(tmp_path)
    bundle = tmp_path / "bundle"
    assert _run(["pipeline", k1, k2, "--witnesses", wdir, "-o", bundle])[0] == 0
    xsum = json.loads((bundle / "x.sum").read_text())
    certs = [json.loads(p.read_text()) for p in sorted((bundle / "certs").iterdir())]
    replays = {}
    assert _oracle_null(xsum, certs, replays)
    rng = random.Random(SEED)
    verdicts = Counter()
    for mutate, count in MUTATIONS:
        for n in range(count):
            forged_sum, forged = copy.deepcopy(xsum), copy.deepcopy(certs)
            mutate(rng, forged_sum, forged)
            path = tmp_path / f"{mutate.__name__}{n}"
            _write_bundle(path, forged_sum, forged)
            code, out, err = _run(["verify-null", path])
            null = _oracle_null(forged_sum, forged, replays)
            assert code == 0 if null else code in (1, 2), (mutate.__name__, n, out, err)
            verdicts[mutate.__name__, "null" if null else "refused"] += 1
    # each kind that can forge is refused at times; duplicated moves and
    # flipped coefficient signs may keep the bundle null
    assert all(verdicts[m.__name__, "refused"] for m, _ in MUTATIONS
               if m not in (_duplicate, _sign)), verdicts
    null = sum(v for (_, verdict), v in verdicts.items() if verdict == "null")
    assert 5 <= null <= sum(count for _, count in MUTATIONS) // 2, verdicts


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
