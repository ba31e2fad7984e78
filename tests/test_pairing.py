import json
import random
from fractions import Fraction

import pytest

from acpair.constructions import lustig
from acpair.moves import ConjRel, MoveScript, SlideRel, replay
from acpair.pairing import (EquivalenceCertificate, FormalSum, _reduce,
                            certificate_from_json, certificate_to_json,
                            sum_from_json, sum_to_json, verify_null)
from acpair.presentations import (Presentation, canonical_key,
                                  forget_boundary, make_presentation, product,
                                  unit_presentation)
from acpair.words import reduce


def pres(gens, *rels):
    return make_presentation(gens, rels)


def fs(p, c=1):
    return FormalSum.of_presentation(p, c)


def test_add_scale_examples():
    p = fs(pres("x", "x"))
    assert (p - p).is_zero()
    assert p.scale(0).is_zero()
    assert fs(pres("x", "x"), 2) + fs(pres("x", "x"), 3) == fs(pres("x", "x"), 5)


def test_rank_mismatch():
    with pytest.raises(ValueError):
        fs(pres("x", "x")) + fs(pres("x y", "x"))
    with pytest.raises(ValueError):
        fs(pres("x", "x")).dot(fs(pres("x y", "x")))
    # zero sums of different ranks are unequal, a key of the wrong rank is
    # rejected even with coefficient 0, and a closed sum is never a formal sum
    assert FormalSum.zero(1) != FormalSum.zero(2)
    assert FormalSum(1, {canonical_key(pres("x", "x")): 0}) == FormalSum.zero(1)
    with pytest.raises(ValueError, match="key of rank 2 in a sum of rank 1"):
        FormalSum(1, {canonical_key(pres("x y", "x")): 0})
    closed = FormalSum.zero(1).bracket(FormalSum.zero(1))
    assert closed.is_zero() and closed != FormalSum.zero(1)


def test_rational_coefficients():
    half = fs(pres("x", "x"), Fraction(1, 2))
    assert (half + half) == fs(pres("x", "x"))
    with pytest.raises(TypeError):
        fs(pres("x", "x"), 0.5)


def test_dot_unit_and_matches_product():
    p = pres("x", "x^2")
    unit = unit_presentation(1, ("x",))
    assert fs(p).dot(fs(unit)) == fs(p)
    from acpair.presentations import product
    q = pres("x", "x^3 x^-1")
    assert fs(p).dot(fs(q)) == fs(product(p, q))


def test_dot_of_two_presentations_is_the_key_of_their_product():
    rng = random.Random(34)
    letters = (1, -1, 2, -2)
    for _ in range(100):
        p, q = (Presentation(("x", "y"), tuple(
            reduce([rng.choice(letters) for _ in range(rng.randint(0, 5))])
            for _ in range(rng.randint(0, 3)))) for _ in range(2))
        assert list(fs(p).dot(fs(q)).support) == [canonical_key(product(p, q))]


def test_dot_bilinear_square():
    p, q = pres("x y", "x"), pres("x y", "y x y")
    x = fs(p) - fs(q)
    sq = x.dot(x)
    pp = fs(p).dot(fs(p))
    pq = fs(p).dot(fs(q))
    qq = fs(q).dot(fs(q))
    assert sq == pp - pq.scale(2) + qq


def test_dot_lustig_expansion():
    x = fs(lustig(1)) - fs(lustig(2))
    sq = x.dot(x)
    assert len(sq.support) == 3
    coeffs = sorted(c for _, c in sq.items())
    assert coeffs == [-2, 1, 1]


def test_random_algebra_laws():
    rng = random.Random(31)
    basis = [pres("x y", "x"), pres("x y", "y"), pres("x y", "x y"),
             pres("x y", "x^2"), unit_presentation(2, ("x", "y"))]

    def random_sum():
        out = FormalSum.zero(2)
        for p in rng.sample(basis, rng.randint(0, 3)):
            out = out + fs(p, rng.randint(-3, 3))
        return out

    for _ in range(200):
        x, y, z = random_sum(), random_sum(), random_sum()
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert (x.scale(a) + y.scale(b)).dot(z) == \
            x.dot(z).scale(a) + y.dot(z).scale(b)
        assert x.dot(y) == y.dot(x)
        assert x.dot(y.dot(z)) == x.dot(y).dot(z)
        assert x.bracket(y) == y.bracket(x)


def test_bracket():
    p = pres("x", "x")
    unit = unit_presentation(1, ("x",))
    assert FormalSum.zero(1).bracket(fs(p)).is_zero()
    br = fs(p).bracket(fs(unit))
    assert br.coefficient(forget_boundary(p)) == 1
    assert len(list(br.items())) == 1


def test_bracket_linear():
    p, q = pres("x", "x"), pres("x", "x^2")
    x = fs(p) - fs(q)
    br = x.bracket(x)
    total = sum(c for _, c in br.items())
    assert total == 0  # coefficients always sum to zero for a difference squared


def test_reduce_by_certificates():
    a = pres("x", "x", "x^2")
    script = MoveScript((SlideRel(1, 0, "right"),))
    target = replay(a, script)
    cert = EquivalenceCertificate(a, target, script, "slide")
    x = fs(a) - fs(target)
    assert not x.is_zero()
    status, reduced = _reduce(x, [cert])
    assert status == [("slide", True, "ok")]
    assert reduced.is_zero()
    assert _reduce(x, []) == ([], x)


def test_reduce_reports_bad_certificate():
    # a failing certificate is reported under its label and joins nothing
    a = pres("x", "x")
    b = pres("x", "x^2")
    bad = EquivalenceCertificate(a, b, MoveScript(()), "bogus")
    status, reduced = _reduce(fs(a) - fs(b), [bad])
    assert status == [("bogus", False, "replay does not reach the right-hand key")]
    assert reduced == fs(a) - fs(b)


def test_reduce_labels_each_failing_certificate():
    # in list order, under its label or else its list position
    a = pres("x", "x", "x^2")
    script = MoveScript((SlideRel(1, 0, "right"),))
    good = EquivalenceCertificate(a, replay(a, script), script, "good")
    wrong_key = EquivalenceCertificate(a, pres("x", "x^3"), MoveScript(()))
    wrong_rank = EquivalenceCertificate(pres("x y"), pres("x y"), MoveScript(()),
                                        "wrong_rank")
    ok = ("good", True, "ok")
    no_key = (False, "replay does not reach the right-hand key")
    rank = ("wrong_rank", False, "certificate rank differs from the sum")
    status, _ = _reduce(fs(a), [good, wrong_key, wrong_rank])
    assert status == [ok, ("1", *no_key), rank]
    status, _ = _reduce(fs(a), [good, wrong_rank, wrong_key])
    assert status == [ok, rank, ("2", *no_key)]


def test_reduce_preserves_total_coefficient():
    rng = random.Random(32)
    a = pres("x y", "x", "y")
    script = MoveScript((SlideRel(0, 1, "right"),))
    b = replay(a, script)
    cert = EquivalenceCertificate(a, b, script, "s")
    for _ in range(50):
        x = fs(a, rng.randint(-4, 4)) + fs(b, rng.randint(-4, 4))
        _, red = _reduce(x, [cert])
        assert sum(c for _, c in red.items()) == sum(c for _, c in x.items())


def test_verify_null_trivial_cases():
    zero = FormalSum.zero(1)
    report = verify_null(zero, [])
    assert report.null
    single = fs(pres("x", "x"))
    report = verify_null(single, [])
    assert not report.null
    assert not report.residue.is_zero()


def test_verify_null_failed_certificate_forces_false():
    a = pres("x", "x")
    bad = EquivalenceCertificate(a, pres("x", "x^2"), MoveScript(()), "bad")
    report = verify_null(FormalSum.zero(1), [bad])
    assert not report.null
    assert report.certificate_status[0][1] is False
    assert "bad" in report.as_text()


def test_sum_json_roundtrip():
    p, q = pres("x y", "x"), pres("x y", "x y^2")
    x = fs(p, 2) - fs(q, Fraction(3, 2))
    reps = {canonical_key(p): p, canonical_key(q): q}
    data = sum_to_json(x, reps)
    assert [t["coeff"] for t in data] == [2, "-3/2"]
    loaded, loaded_reps = sum_from_json(json.loads(json.dumps(data)))
    assert loaded == x
    assert set(loaded_reps) == set(reps)
    # a string coefficient n/d need not be in lowest terms
    loaded, _ = sum_from_json([{**data[0], "coeff": "4/2"},
                               {**data[1], "coeff": "-6/4"}])
    assert loaded == x
    assert [type(c) for _, c in loaded.items()] == [int, Fraction]


def test_sum_json_writes_every_representative():
    # a representative without a term is written with coefficient 0, so the
    # zero sum a - a keeps its rank; a term without a representative raises
    p, q = pres("x y", "x"), pres("x y", "x y^2")
    reps = {canonical_key(p): p, canonical_key(q): q}
    data = sum_to_json(fs(q, 2), reps)
    assert [t["coeff"] for t in data] == [0, 2]
    assert data == sum_to_json(fs(q, 2) + fs(p) - fs(p), reps)
    loaded, loaded_reps = sum_from_json(sum_to_json(fs(p) - fs(p), reps))
    assert loaded == FormalSum.zero(2) and set(loaded_reps) == set(reps)
    with pytest.raises(KeyError):
        sum_to_json(fs(p), {canonical_key(q): q})
    with pytest.raises(ValueError, match="representative does not match its key"):
        sum_to_json(fs(p), {canonical_key(p): q})


def test_certificate_json_roundtrip():
    a = pres("x y", "x", "y")
    from acpair.moves import SlideRel, replay
    script = MoveScript((SlideRel(0, 1, "right"), ConjRel(1, (1, 2))))
    cert = EquivalenceCertificate(a, replay(a, script), script, "rt")
    data = json.loads(json.dumps(certificate_to_json(cert)))
    loaded = certificate_from_json(data)
    assert loaded == cert
    ok, msg = loaded.verify()
    assert ok, msg
