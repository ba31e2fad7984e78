import random

import pytest

from acpair.homology import AbelianGroup
from acpair.moves import (AddGen, ConjRel, MoveError, MoveScript, NielsenInv,
                          NielsenMul, apply_automorphism)
from acpair.presentations import (CanonicalKey, ClosedComplex, Presentation,
                                  abelianization, canonical_key,
                                  disjoint_union, euler_char, forget_boundary,
                                  format_presentation, fresh_name,
                                  make_presentation,
                                  parse_presentation, product, serialize_key,
                                  unit_presentation, wedge_s1, wedge_s2)
from acpair.words import EMPTY, invert, reduce


def test_construction_normalizes_relators():
    p = Presentation(("x",), ((1, -1, 1),))
    assert p.relators == ((1,),)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())
    with pytest.raises(ValueError):
        Presentation(("x",), ((2,),))
    with pytest.raises(ValueError):
        Presentation(("1",), ())


def test_canonical_key_quotients():
    conj = make_presentation("x y", ["y x y^-1"])
    plain = make_presentation("x y", ["x"])
    assert canonical_key(conj) == canonical_key(plain)
    assert canonical_key(make_presentation("x", ["x^-1"])) == \
        canonical_key(make_presentation("x", ["x"]))
    p = make_presentation("x y", ["x y", "y^-1"])
    q = make_presentation("x y", ["y^-1", "x y"])
    assert canonical_key(p) == canonical_key(q)


def test_canonical_key_random_invariance():
    rng = random.Random(11)
    for _ in range(150):
        rank = rng.randint(1, 3)
        names = tuple(f"g{i+1}" for i in range(rank))
        rels = []
        for _ in range(rng.randint(1, 3)):
            rels.append(reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                                for _ in range(rng.randint(0, 6))]))
        p = Presentation(names, tuple(rels))
        j = rng.randrange(len(rels))
        conj = reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                       for _ in range(rng.randint(0, 4))])
        mutated = list(rels)
        from acpair.words import conjugate
        mutated[j] = conjugate(mutated[j], conj)
        if rng.random() < 0.5:
            mutated[j] = invert(mutated[j])
        rng.shuffle(mutated)
        q = Presentation(names, tuple(mutated))
        assert canonical_key(p) == canonical_key(q)


def _random_presentation(rng, names):
    letters = [x for i in range(1, len(names) + 1) for x in (i, -i)]
    return Presentation(names, tuple(
        reduce([rng.choice(letters) for _ in range(rng.randint(0, 6))])
        for _ in range(rng.randint(0, 3))))


def test_canonical_key_sorts_its_own_classes():
    rng = random.Random(12)
    for _ in range(100):
        key = canonical_key(_random_presentation(rng, ("x", "y")))
        classes = list(key.classes)
        rng.shuffle(classes)
        assert CanonicalKey(2, tuple(classes)) == key
        assert CanonicalKey(2, tuple(reversed(classes))) == key


def test_product_and_wedges_match_the_validating_constructor():
    # product, wedge_s2 and wedge_s1 build without validation from
    # presentations already validated; wedge_s1 must dodge taken names
    rng = random.Random(13)
    for _ in range(100):
        names = ("g2", "x", "g3")[:rng.randint(1, 3)]
        p, q = _random_presentation(rng, names), _random_presentation(rng, names)
        count = rng.randint(0, 3)
        assert product(p, q) == Presentation(names, p.relators + q.relators)
        assert wedge_s2(p, count) == Presentation(names, p.relators + (EMPTY,) * count)
        s1 = wedge_s1(p, count)
        assert s1 == Presentation(s1.gens, p.relators)
        assert s1.gens[:len(names)] == names and len(s1.gens) == len(names) + count


def test_euler_char():
    from acpair.constructions import lustig
    assert euler_char(lustig(1)) == 1
    assert euler_char(make_presentation("", [])) == 1
    assert euler_char(make_presentation("x", [])) == 0


def test_product():
    p = make_presentation("x", ["x"])
    q = make_presentation("x", ["x^2"])
    pq = product(p, q)
    assert pq.relators == ((1,), (1, 1))
    assert canonical_key(product(p, q)) == canonical_key(product(q, p))
    unit = unit_presentation(1, ("x",))
    assert canonical_key(product(p, unit)) == canonical_key(p)
    assert euler_char(product(p, q)) == euler_char(p) + len(q.relators)


def test_product_boundary_mismatch():
    with pytest.raises(ValueError):
        product(make_presentation("x", []), make_presentation("x y", []))


def test_wedges():
    p = make_presentation("x", ["x"])
    w = wedge_s2(p, 1)
    assert w.relators == ((1,), EMPTY)
    assert wedge_s2(p, 0) == p
    assert euler_char(wedge_s2(p, 5)) == euler_char(p) + 5
    s = wedge_s1(p, 1)
    assert s.gens == ("x", "g2")
    assert s.relators == p.relators
    assert wedge_s1(p, 0) == p
    assert euler_char(wedge_s1(p, 3)) == euler_char(p) - 3


def test_wedge_s1_fresh_names():
    p = make_presentation("g2 x", [])
    s = wedge_s1(p, 1)
    assert len(set(s.gens)) == 3
    # a taken g<k> gets the first free suffix _2, _3, ...
    assert fresh_name({"g1"}, 0) == "g1_2"
    assert fresh_name({"g1", "g1_2"}, 0) == "g1_3"
    for wedge in (wedge_s2, wedge_s1):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            wedge(p, -1)


def test_apply_automorphism():
    p = make_presentation("x y", ["x y"])
    # NielsenInv(1) substitutes y -> y^-1
    q = apply_automorphism(p, [(1,), (-2,)], MoveScript((NielsenInv(1),)))
    assert q.relators == ((1, -2),)
    same = apply_automorphism(p, [(1,), (2,)], MoveScript(()))
    assert same == p
    # an inverse Nielsen pair restores the key: NielsenMul(0, 1, "right")
    # substitutes x -> x y^-1, and conjugating it by NielsenInv(1) gives
    # x -> x y
    step1 = apply_automorphism(p, [(1, -2), (2,)],
                               MoveScript((NielsenMul(0, 1, "right"),)))
    step2 = apply_automorphism(step1, [(1, 2), (2,)], MoveScript(
        (NielsenInv(1), NielsenMul(0, 1, "right"), NielsenInv(1))))
    assert canonical_key(step2) == canonical_key(p)


def test_apply_automorphism_rejects_uncertified():
    p = make_presentation("x y", ["x y"])
    with pytest.raises(ValueError, match="not certified"):
        apply_automorphism(p, [(1, 2), (2,)], MoveScript((NielsenInv(0),)))
    # the images of the declared map x -> x y are not what the move substitutes
    with pytest.raises(ValueError, match="not certified"):
        apply_automorphism(p, [(1, 2), (2,)],
                           MoveScript((NielsenMul(0, 1, "right"),)))


def test_apply_automorphism_rejects_bad_scripts():
    p = make_presentation("x y", ["x y"])
    # a script that is not only Nielsen moves certifies no automorphism,
    # even where its replay over the basis reaches the images
    for move in (ConjRel(0, (1,)), AddGen("z")):
        with pytest.raises(MoveError, match="Nielsen moves only"):
            apply_automorphism(p, [(1,), (2,)], MoveScript((move,)))
    with pytest.raises(MoveError, match="out of range"):
        apply_automorphism(p, [(1,), (2,)], MoveScript((NielsenInv(2),)))
    for images in ([(1,)], [(1,), (2,), (3,)]):
        with pytest.raises(ValueError, match="one image per generator"):
            apply_automorphism(p, images, MoveScript(()))


def test_forget_boundary_and_disjoint_union():
    unit = unit_presentation(2)
    c = forget_boundary(unit)
    assert c.components[0].rank == 2
    assert c.components[0].classes == ()
    conj = make_presentation("x y", ["y x y^-1"])
    plain = make_presentation("x y", ["x"])
    assert forget_boundary(conj) == forget_boundary(plain)
    p = make_presentation("x", ["x"])
    assert forget_boundary(p) != forget_boundary(wedge_s2(p, 1))
    empty = ClosedComplex(())
    a = forget_boundary(p)
    assert disjoint_union(a, empty) == a
    b = forget_boundary(wedge_s2(p, 1))
    assert disjoint_union(a, b) == disjoint_union(b, a)
    # the components are a multiset: their order is not part of the value
    ka, kb = a.components[0], b.components[0]
    assert ClosedComplex((ka, kb)) == ClosedComplex((kb, ka))
    assert ClosedComplex((kb, ka)).components == disjoint_union(b, a).components
    doubled = disjoint_union(a, a)
    assert len(doubled.components) == 2


def test_abelianization():
    assert abelianization(make_presentation("x", ["x^2"])) == AbelianGroup(0, (2,))
    assert abelianization(make_presentation("x y", [])) == AbelianGroup(2, ())
    # trefoil-like: x^2 = y^3 abelianizes to Z
    assert abelianization(make_presentation("x y", ["x^2 y^-3"])) == AbelianGroup(1, ())
    # relations as equalities
    assert abelianization(make_presentation("x y", ["x^2 = y^3"])) == AbelianGroup(1, ())


def test_parse_format_roundtrip():
    text = """\
# a sample input
gens: r s t
rel: s^2 t^-3
rel: r^2 s^3 r^-2 s^-3   # conjugation comment
"""
    p = parse_presentation(text)
    assert p.gens == ("r", "s", "t")
    assert len(p.relators) == 2
    assert parse_presentation(format_presentation(p)) == p


def test_parse_relation_equality():
    p = parse_presentation("gens: s t\nrel: s^2 = t^3\n")
    assert p.relators == ((1, 1, -2, -2, -2),)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_presentation("rel: x\n")
    with pytest.raises(ValueError):
        parse_presentation("gens: x\ngens: y\n")
    with pytest.raises(ValueError):
        parse_presentation("gens: x\nbogus: y\n")
    with pytest.raises(ValueError):
        parse_presentation("gens: x\nrel: a = b = c\n")
    # the relators of one file share one budget of MAX_WORD_LENGTH letters,
    # counted as spelled out: exactly that many load, one more does not
    exact = "gens: x y\nrel: x^500000 x^-499999\nrel: y\n"
    assert parse_presentation(exact).relators == ((1,), (2,))
    with pytest.raises(ValueError, match="presentation spells out more than 1000000"):
        parse_presentation(exact + "rel: y\n")


def test_serialize_key_deterministic():
    p = make_presentation("x y", ["y x y^-1", "y^2"])
    assert serialize_key(canonical_key(p)) == "2\ng1\ng2^2"
