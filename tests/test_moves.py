import json
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import make_dataclass

import pytest

from acpair import moves, words
from acpair.constructions import (IsoWitness, NormalClosureWitness,
                                  common_generators, lustig, null_vector_pipeline,
                                  stabilization_moves)
from acpair.moves import (AddGen, AddTrivialRel, ConjRel, InvRel, MoveError,
                          MoveScript, NielsenInv, NielsenMul, RegimeError,
                          RemoveGen, RemoveTrivialRel, RestrictedSlide,
                          RSFactor, SearchBudget, SlideRel, apply_automorphism,
                          bounded_equivalence_search, enumerate_words,
                          expand_restricted_slides, invert_script, replay,
                          script_from_json, script_to_json,
                          slide_exponent_ledger)
from acpair.presentations import (Presentation, abelianization, canonical_key,
                                  euler_char, make_presentation, product,
                                  wedge_s2)
from acpair.words import EMPTY, conjugate, invert, reduce, substitute
from lustig_fixtures import lustig_witness_pair
import search_reference


def pres(gens, *rels):
    return make_presentation(gens, rels)


def test_slide_example():
    p = pres("x y", "x", "y")
    q = replay(p, (SlideRel(1, 0, "right"),))
    assert q.relators == ((1,), (2, 1))


def test_conj_example():
    p = pres("x y", "x")
    q = replay(p, (ConjRel(0, (2,)),))
    assert q.relators == ((2, 1, -2),)


def test_restricted_slide_example():
    p = pres("x y", "x y", "y x")
    h = (1,)
    q = replay(p, (RestrictedSlide(1, (RSFactor(EMPTY, 0, 1, h),)),))
    r, s = p.relators
    from acpair.words import commutator, multiply
    assert q.relators[1] == multiply(s, commutator(r, h))


def test_restricted_slide_rejects_self_reference():
    with pytest.raises(MoveError):
        RestrictedSlide(1, (RSFactor(EMPTY, 1, 1, (1,)),))


def test_nielsen_moves_substitute_inverse_map():
    p = pres("x y", "x")
    q = replay(p, (NielsenMul(0, 1, "right"),))  # declared x -> x y
    assert q.relators == ((1, -2),)
    r = replay(p, (NielsenInv(0),))
    assert r.relators == ((-1,),)


def test_nielsen_moves_substitute_only_where_their_generator_occurs(monkeypatch):
    # a Nielsen move rewrites generator i only, so relators without it are
    # left as they are, and substitute runs once per relator that holds it
    calls = []

    def counted(u, images):
        calls.append(u)
        return substitute(u, images)

    monkeypatch.setattr(moves, "substitute", counted)
    p = Presentation(("x", "y"), ((1,),) * 10_000 + ((2, 1), (-2,)))
    q = replay(p, (NielsenMul(1, 0, "right"),))  # y -> y x^-1 substituted
    assert calls == [(2, 1), (-2,)]
    assert q.relators == ((1,),) * 10_000 + ((2,), (1, -2))
    calls.clear()
    assert replay(p, (NielsenInv(0),)).relators[-2:] == ((2, -1), (-2,))
    assert len(calls) == 10_001


def test_nielsen_moves_build_no_image_per_generator():
    # a Nielsen move builds images only for the generators of the relators
    # it rewrites, so its time does not grow with the rank: 200 moves over
    # 20,000 generators and one 4-letter relator replay at once
    p = Presentation(tuple(f"g{i}" for i in range(20_000)), ((1, 2, -1, -2),))
    script = MoveScript(tuple(NielsenInv(i % 3) for i in range(200)), "full")
    start = time.perf_counter()
    q = replay(p, script)
    elapsed = time.perf_counter() - start
    assert q.relators == ((-1, -2, 1, 2),)
    assert elapsed < 0.2, elapsed


def test_nielsen_moves_match_full_substitution():
    # the relators after a Nielsen move are those of substituting its map
    # through every relator
    rng = random.Random(1207)
    skipped = 0
    for _ in range(500):
        p = random_presentation(rng, max_gens=4, max_rels=6)
        i = rng.randrange(p.rank)
        if p.rank == 1 or rng.random() < 0.3:
            move, image = NielsenInv(i), (-(i + 1),)
        else:
            j = rng.choice([k for k in range(p.rank) if k != i])
            side = rng.choice(("left", "right"))
            move = NielsenMul(i, j, side)
            image = (i + 1, -(j + 1)) if side == "right" else (-(j + 1), i + 1)
        images = {k: (k + 1,) for k in range(p.rank)}
        images[i] = image
        assert replay(p, (move,)).relators == tuple(
            substitute(r, images) for r in p.relators), (p, move)
        skipped += sum(i + 1 not in r and -(i + 1) not in r for r in p.relators)
    assert skipped >= 100


def test_apply_automorphism_matches_substitution():
    # images composed here from the map each Nielsen move substitutes, the
    # inverse of its declared map: g_i -> g_i^-1, g_i -> g_i g_j^-1 (right),
    # g_i -> g_j^-1 g_i (left), the later move applied to the earlier images
    rng = random.Random(1201)
    for _ in range(1000):
        p = random_presentation(rng)
        rank = p.rank
        script, images = [], [(i + 1,) for i in range(rank)]
        for _ in range(rng.randint(0, 8)):
            i = rng.randrange(rank)
            step = {k: (k + 1,) for k in range(rank)}
            if rank == 1 or rng.random() < 0.3:
                script.append(NielsenInv(i))
                step[i] = (-(i + 1),)
            else:
                j = rng.choice([k for k in range(rank) if k != i])
                side = rng.choice(("left", "right"))
                script.append(NielsenMul(i, j, side))
                step[i] = (i + 1, -(j + 1)) if side == "right" else (-(j + 1), i + 1)
            images = [substitute(w, step) for w in images]
        q = apply_automorphism(p, images, MoveScript(tuple(script)))
        assert q.gens == p.gens
        assert q.relators == tuple(substitute(r, dict(enumerate(images)))
                                   for r in p.relators)


def test_addgen_removegen():
    p = pres("x", "x^2")
    q = replay(p, (AddGen("y"),))
    assert q.gens == ("x", "y")
    assert q.relators == ((1, 1), (2,))
    back = replay(q, (RemoveGen(1),))
    assert back == p
    with pytest.raises(MoveError):
        replay(p, (AddGen("x"),))
    with pytest.raises(MoveError):
        replay(q, (RemoveGen(0),))  # x occurs in another relator


def test_removegen_reindexes():
    p = pres("x y z", "y", "x z")
    q = replay(p, (RemoveGen(1),))
    assert q.gens == ("x", "z")
    assert q.relators == ((1, 2),)


def test_trivial_relator_moves():
    p = pres("x", "x")
    q = replay(p, (AddTrivialRel(),))
    assert q.relators == ((1,), EMPTY)
    assert replay(q, (RemoveTrivialRel(1),)) == p
    with pytest.raises(MoveError):
        replay(p, (RemoveTrivialRel(0),))


def test_replay_examples():
    p = pres("x y", "x y^-1", "y")
    assert replay(p, MoveScript(())) == p
    assert replay(p, MoveScript((InvRel(0), InvRel(0)))) == p
    with pytest.raises(MoveError) as err:
        replay(p, MoveScript((InvRel(0), RemoveTrivialRel(1))))
    assert "move 2" in str(err.value)


def test_replay_regime_enforcement():
    p = pres("x y", "x", "y")
    script = MoveScript((SlideRel(0, 1, "right"),), "k_prime")
    with pytest.raises(RegimeError):
        replay(p, script)
    stab = MoveScript((AddTrivialRel(),), "k_prime")
    with pytest.raises(RegimeError):
        replay(p, stab)
    flagged = MoveScript((AddTrivialRel(),), "k_prime", stabilized=True)
    assert len(replay(p, flagged).relators) == 3


def random_presentation(rng, max_gens=4, max_rels=4, max_len=8):
    rank = rng.randint(1, max_gens)
    names = tuple(f"g{i+1}" for i in range(rank))
    rels = []
    for _ in range(rng.randint(1, max_rels)):
        rels.append(reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                            for _ in range(rng.randint(0, max_len))]))
    return make_presentation(names, []).__class__(names, tuple(rels))


def random_word_over(rng, rank, max_len=3):
    return reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                   for _ in range(rng.randint(0, max_len))])


def random_move(rng, p):
    m = len(p.relators)
    n = p.rank
    kinds = ["addtriv"]
    if m >= 1:
        kinds += ["conj", "inv"]
    if m >= 2:
        kinds += ["slide", "rslide"]
    if n >= 2:
        kinds += ["ninv", "nmul"]
    if any(r == EMPTY for r in p.relators):
        kinds.append("rmtriv")
    kind = rng.choice(kinds)
    if kind == "conj":
        return ConjRel(rng.randrange(m), random_word_over(rng, n))
    if kind == "inv":
        return InvRel(rng.randrange(m))
    if kind == "slide":
        j = rng.randrange(m)
        k = rng.choice([i for i in range(m) if i != j])
        return SlideRel(j, k, rng.choice(["left", "right"]))
    if kind == "rslide":
        j = rng.randrange(m)
        factors = []
        for _ in range(rng.randint(1, 2)):
            k = rng.choice([i for i in range(m) if i != j])
            factors.append(RSFactor(random_word_over(rng, n), k,
                                    rng.choice([1, -1]),
                                    random_word_over(rng, n)))
        return RestrictedSlide(j, tuple(factors))
    if kind == "ninv":
        return NielsenInv(rng.randrange(n))
    if kind == "nmul":
        i = rng.randrange(n)
        j = rng.choice([x for x in range(n) if x != i])
        return NielsenMul(i, j, rng.choice(["left", "right"]))
    if kind == "addtriv":
        return AddTrivialRel()
    return RemoveTrivialRel(next(i for i, r in enumerate(p.relators) if r == EMPTY))


def random_script(rng, p, length):
    moves = []
    cur = p
    for _ in range(length):
        mv = random_move(rng, cur)
        moves.append(mv)
        cur = replay(cur, (mv,))
    return MoveScript(tuple(moves)), cur


def test_replay_preserves_abelianization():
    rng = random.Random(20)
    for _ in range(200):
        p = random_presentation(rng)
        script, expected = random_script(rng, p, rng.randint(0, 12))
        result = replay(p, script)
        assert result == expected
        assert abelianization(result) == abelianization(p)


def removable_generators(p):
    out = []
    for i in range(p.rank):
        hits = [r for r in p.relators if any(abs(x) == i + 1 for x in r)]
        if len(hits) == 1 and hits[0] in ((i + 1,), (-(i + 1),)):
            out.append(i)
    return out


def test_moves_build_what_the_validating_constructor_builds():
    # replay skips Presentation's checks; rebuilding each result through
    # the validating constructor must change nothing.
    rng = random.Random(25)
    fresh = 0
    for _ in range(300):
        cur = random_presentation(rng)
        for _ in range(rng.randint(1, 12)):
            roll = rng.random()
            if roll < 0.1:
                fresh += 1
                mv = AddGen(f"a{fresh}")
            elif roll < 0.2 and cur.rank > 1 and removable_generators(cur):
                mv = RemoveGen(rng.choice(removable_generators(cur)))
            else:
                mv = random_move(rng, cur)
            cur = replay(cur, (mv,))
            assert type(cur.gens) is tuple and type(cur.relators) is tuple
            assert all(type(r) is tuple for r in cur.relators)
            assert cur == Presentation(cur.gens, cur.relators)


def test_move_words_are_checked_and_reduced():
    p = pres("x y", "x y", "y^2")
    with pytest.raises(ValueError) as err:
        replay(p, (ConjRel(0, (1, 0)),))
    assert type(err.value) is ValueError
    with pytest.raises(ValueError) as err:
        replay(p, (RestrictedSlide(0, (RSFactor((0,), 1, 1, (1,)),)),))
    assert type(err.value) is ValueError
    with pytest.raises(MoveError):
        replay(p, (ConjRel(0, (3,)),))
    with pytest.raises(MoveError):
        replay(p, (RestrictedSlide(0, (RSFactor(EMPTY, 1, 1, (-3,)),)),))
    # An unreduced conjugator acts as its reduced form.
    raw = (2, 1, -1, 1, 2, -2)
    got = replay(p, (ConjRel(0, raw),))
    assert got == replay(p, (ConjRel(0, reduce(raw)),))
    assert got.relators[0] == conjugate(p.relators[0], (2, 1))
    unreduced = list(raw) + list(p.relators[0]) + [-x for x in reversed(raw)]
    assert got == Presentation(p.gens, (unreduced, p.relators[1]))
    slide = replay(p, (RestrictedSlide(0, (RSFactor(raw, 1, -1, (1, 2, -2)),)),))
    assert slide == replay(p, (RestrictedSlide(0, (RSFactor((2, 1), 1, -1, (1,)),)),))


def test_replay_raises_on_bookkeeping_drift(monkeypatch):
    # the apply step that replay dispatches to drops a relator
    original, *rest = moves._MOVES[InvRel]

    def drops_a_relator(rels, gens, move, budget):
        gens = original(rels, gens, move, budget)
        rels.pop()
        return gens

    monkeypatch.setitem(moves._MOVES, InvRel, (drops_a_relator, *rest))
    p = pres("x y", "x", "y")
    with pytest.raises(MoveError, match="bookkeeping drift at move 1"):
        replay(p, MoveScript((InvRel(0),)))


def test_search_raises_when_its_script_misses_the_goal(monkeypatch):
    # the search replays its fragments itself, so it is the check of the
    # script it found that fails here
    monkeypatch.setattr(moves.EquivalenceCertificate, "verify", lambda self: (False, ""))
    p = pres("x y", "x y", "y")
    q = pres("x y", "x", "y")
    with pytest.raises(ValueError, match="does not replay to the goal"):
        bounded_equivalence_search(p, q, SearchBudget(max_depth=2))


def test_expand_restricted_slides_matches():
    rng = random.Random(21)
    for _ in range(150):
        p = random_presentation(rng, max_rels=4)
        if len(p.relators) < 2:
            continue
        script, expected = random_script(rng, p, 6)
        expanded = expand_restricted_slides(script)
        assert not any(isinstance(m, RestrictedSlide) for m in expanded.moves)
        assert replay(p, expanded) == expected


def test_ledger_examples():
    s = MoveScript((SlideRel(1, 0, "right"), InvRel(0),
                    SlideRel(1, 0, "right"), InvRel(0)))
    assert slide_exponent_ledger(s) == {(1, 0): 0}
    assert slide_exponent_ledger(MoveScript((SlideRel(1, 0, "right"),))) == {(1, 0): 1}
    assert slide_exponent_ledger(MoveScript(())) == {}
    with pytest.raises(MoveError):
        slide_exponent_ledger(MoveScript((AddTrivialRel(),)))


def test_ledger_zero_for_expanded_restricted_slides():
    rng = random.Random(22)
    for _ in range(300):
        p = random_presentation(rng, max_gens=3, max_rels=4)
        if len(p.relators) < 2:
            continue
        moves = []
        cur = p
        for _ in range(rng.randint(1, 4)):
            j = rng.randrange(len(cur.relators))
            factors = []
            for _ in range(rng.randint(1, 2)):
                k = rng.choice([i for i in range(len(cur.relators)) if i != j])
                factors.append(RSFactor(random_word_over(rng, cur.rank), k,
                                        rng.choice([1, -1]),
                                        random_word_over(rng, cur.rank)))
            mv = RestrictedSlide(j, tuple(factors))
            moves.append(mv)
            cur = replay(cur, (mv,))
        expanded = expand_restricted_slides(MoveScript(tuple(moves)))
        ledger = slide_exponent_ledger(expanded)
        assert all(v == 0 for v in ledger.values()), ledger


def test_invert_script_roundtrip():
    rng = random.Random(23)
    for _ in range(150):
        p = random_presentation(rng)
        moves = []
        cur = p
        for _ in range(rng.randint(0, 8)):
            while True:
                mv = random_move(rng, cur)
                if not isinstance(mv, (AddTrivialRel, RemoveTrivialRel)):
                    break
            moves.append(mv)
            cur = replay(cur, (mv,))
        script = MoveScript(tuple(moves))
        back = replay(cur, invert_script(script))
        assert canonical_key(back) == canonical_key(p)
        # inverting structurally is exact on relator tuples too
        assert back.relators == p.relators


def test_invert_script_rejects_structural_moves():
    with pytest.raises(MoveError):
        invert_script(MoveScript((AddGen("z"),)))


def test_script_json_roundtrip():
    # every move kind, with words written over the names in force at each
    # move (z exists only between AddGen and RemoveGen)
    p = pres("x y", "x y", "y")
    script = MoveScript((ConjRel(0, (2,)), InvRel(1), SlideRel(0, 1, "left"),
                         AddGen("z"), ConjRel(0, (3, 3)), ConjRel(0, (-3, -3)),
                         RemoveGen(2), NielsenInv(1), NielsenMul(1, 0, "left"),
                         RestrictedSlide(0, (RSFactor((1,), 1, -1, (2,)),
                                             RSFactor(EMPTY, 1, 1, (-1, -1)))),
                         AddTrivialRel(), RemoveTrivialRel(2)))
    text = json.dumps(script_to_json(script, p.gens))
    assert text == (
        '{"regime": "full", "moves": ['
        '{"op": "ConjRel", "j": 1, "w": "y"}, {"op": "InvRel", "j": 2}, '
        '{"op": "SlideRel", "j": 1, "k": 2, "side": "left"}, '
        '{"op": "AddGen", "name": "z"}, {"op": "ConjRel", "j": 1, "w": "z^2"}, '
        '{"op": "ConjRel", "j": 1, "w": "z^-2"}, {"op": "RemoveGen", "i": 3}, '
        '{"op": "NielsenInv", "i": 2}, '
        '{"op": "NielsenMul", "i": 2, "j": 1, "side": "left"}, '
        '{"op": "RestrictedSlide", "j": 1, "factors": ['
        '{"w": "x", "k": 2, "sign": -1, "h": "y"}, '
        '{"w": "1", "k": 2, "sign": 1, "h": "x^-2"}]}, '
        '{"op": "AddTrivialRel"}, {"op": "RemoveTrivialRel", "j": 3}]}')
    loaded = script_from_json(json.loads(text), p.gens)
    assert loaded == script
    assert replay(p, loaded) == replay(p, script)


def test_script_json_examples_shape():
    p = pres("x y", "x")
    data = script_to_json(MoveScript((ConjRel(0, (2,)),)), p.gens)
    assert data["moves"][0] == {"op": "ConjRel", "j": 1, "w": "y"}
    bare = script_from_json([{"op": "InvRel", "j": 1}], p.gens)
    assert bare.regime == "full"
    assert bare.moves == (InvRel(0),)


def test_script_codec_is_linear_in_renaming_moves(monkeypatch):
    # the codec builds a token table only when a move with words follows a
    # change of names, so 2,000 AddGen moves need one table, built for the
    # ConjRel after them, and reading them holds memory linear in the
    # script; a table kept for each of the 2,001 naming contexts would hold
    # millions of entries
    n = 2000
    data = {"regime": "full",
            "moves": [{"op": "AddGen", "name": f"a{i}"} for i in range(n)]
            + [{"op": "ConjRel", "j": n, "w": f"a{n - 1}^-1"}]}
    builds = Counter()
    build = words._letter_tokens

    def counted(names):
        builds[len(names)] += 1
        return build(names)
    monkeypatch.setattr(words, "_letter_tokens", counted)  # read_word's table
    monkeypatch.setattr(moves, "_letter_tokens", counted)  # write_word's
    tracemalloc.start()
    try:
        script = script_from_json(data, ("x",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert script.moves[-1] == ConjRel(n - 1, (-(n + 1),)) and len(script.moves) == n + 1
    assert peak < 1_500_000, peak
    assert script_to_json(script, ("x",)) == data
    assert builds == {n + 1: 2}  # one to read, one to write


def test_bounded_search_finds_slide():
    p = pres("x y", "x y", "y")
    q = pres("x y", "x", "y")
    script = bounded_equivalence_search(p, q, SearchBudget(max_depth=2)).result
    assert script is not None
    assert canonical_key(replay(p, script)) == canonical_key(q)


def test_bounded_search_computes_each_relator_class_once(monkeypatch):
    # a fragment rewrites one relator, so the search keeps each relator's
    # class for the rest of the search: no relator word is classified
    # twice, fewer words are classified than states are reached, and the
    # keys are those of canonical_key
    classified = []

    def counted(u):
        classified.append(u)
        return words.cyclic_canonical(u)

    monkeypatch.setattr(moves, "cyclic_canonical", counted)
    outcome = bounded_equivalence_search(
        lustig(1), lustig(2), SearchBudget(max_depth=2, max_states=300))
    assert len(classified) == len(set(classified)) < outcome.states
    keys = {moves._key(p, counted) for p in (lustig(1), lustig(2))}
    assert keys == {canonical_key(lustig(1)), canonical_key(lustig(2))}


def test_bounded_search_identity():
    p = pres("x y", "x y", "y")
    outcome = bounded_equivalence_search(p, p, SearchBudget(max_depth=0))
    assert outcome.result == MoveScript((), "full")
    assert (outcome.reason, outcome.states) == ("found", 1)


def test_bounded_search_unknown_small_budget():
    from acpair.constructions import lustig
    outcome = bounded_equivalence_search(
        lustig(1), lustig(2),
        SearchBudget(max_depth=3, max_states=300, conjugator_length=1))
    assert outcome.result is None


def test_bounded_search_stop_reasons():
    p = pres("x y", "x y", "y")
    q = pres("x y", "x", "y")

    def stop(outcome):
        return outcome.result is not None, outcome.reason, outcome.states

    # one slide away: the search holds 3 states when it meets the goal
    assert stop(bounded_equivalence_search(p, q, SearchBudget(max_depth=2))) == \
        (True, "found", 3)
    capped = bounded_equivalence_search(p, q, SearchBudget(max_depth=2, max_states=2))
    assert stop(capped) == (False, "state_cap", 2)
    assert str(capped) == "state_cap after 2 states"
    # depth 0 searches only the start, to its end
    assert stop(bounded_equivalence_search(p, q, SearchBudget(max_depth=0))) == \
        (False, "exhausted", 1)
    # k_prime moves keep the relator count, so no script exists at all
    assert stop(bounded_equivalence_search(p, pres("x y", "x"), regime="k_prime")) == \
        (False, "exhausted", 0)
    # the full regime adds and removes a trivial relator in one fragment
    p, q = pres("x y", "x", "y"), wedge_s2(pres("x y", "x", "y"), 1)
    for start, goal, move in ((p, q, AddTrivialRel()), (q, p, RemoveTrivialRel(j=2))):
        outcome = bounded_equivalence_search(start, goal)
        assert stop(outcome) == (True, "found", 2)
        assert outcome.result.moves == (move,)


def test_bounded_search_rank_mismatch():
    with pytest.raises(ValueError, match="boundary mismatch: ranks 1 and 2"):
        bounded_equivalence_search(pres("x", "x"), pres("x y", "x"))
    with pytest.raises(ValueError, match="unknown regime 'restricted'"):
        bounded_equivalence_search(pres("x", "x"), pres("x", "x"), regime="restricted")


def test_bounded_search_k_prime_regime():
    # one restricted slide away, so the search takes a k_prime fragment
    p = pres("x y", "x", "y^2")
    q = replay(p, (RestrictedSlide(0, (RSFactor((2,), 1, 1, (1,)),)),))
    assert canonical_key(q) != canonical_key(p)
    outcome = bounded_equivalence_search(
        p, q, SearchBudget(max_depth=1, conjugator_length=1), regime="k_prime")
    script = outcome.result
    assert (outcome.reason, outcome.states) == ("found", 3)
    assert script.regime == "k_prime"
    assert len(script.moves) == 1
    assert all(isinstance(m, RestrictedSlide) for m in script.moves)
    assert canonical_key(replay(p, script)) == canonical_key(q)


def test_conj_inverse_pair_is_key_identity():
    rng = random.Random(24)
    for _ in range(100):
        p = random_presentation(rng)
        j = rng.randrange(len(p.relators))
        w = random_word_over(rng, p.rank, 4)
        q = replay(p, MoveScript((ConjRel(j, w), ConjRel(j, reduce(
            [-x for x in reversed(w)])))))
        assert q == p  # exact, hence key-level too
        # neither move changes a key, so the search never takes one alone
        assert canonical_key(replay(p, (ConjRel(j, w),))) == canonical_key(p)
        assert canonical_key(replay(p, (InvRel(j),))) == canonical_key(p)


def test_bounded_search_scope_excludes_conjugation():
    # Conjugating a relator is no search step, and each fragment acts on the
    # first representative met for its key.  So one slide fragment after
    # conjugating relator 0 by x reaches a key outside the space searched
    # to depth 2.
    p = pres("x y", "x y x^-1 y^-2", "x^2 y")
    script = MoveScript((ConjRel(0, (1,)), InvRel(1), SlideRel(0, 1, "left"),
                         InvRel(1)))
    q = replay(p, script)
    assert q == pres("x y", "x^-1 y^-2 x^-1", "x^2 y")
    outcome = bounded_equivalence_search(
        p, q, SearchBudget(max_depth=2, max_relator_length=10,
                           max_states=10_000_000, conjugator_length=1))
    assert outcome.result is None
    assert str(outcome) == "exhausted after 7 states"


def test_bookkeeping_counts():
    p = pres("x", "x")
    script = MoveScript((AddGen("y"), AddTrivialRel(), InvRel(0)))
    q = replay(p, script)
    assert (q.rank, len(q.relators)) == (2, 3)
    assert euler_char(q) == euler_char(p) + 1  # AddGen is chi-neutral


def test_enumerate_words_deterministic():
    words = list(enumerate_words(2, 2))
    assert words[:4] == [(1,), (-1,), (2,), (-2,)]
    assert len(words) == 4 + 12


def fold_apply_move(p, script):
    """replay spelled out as a fold of the apply steps of moves._MOVES, one
    presentation per move, with the same checks and error texts."""
    cur = p
    stabilized = script.regime == "k_prime" and script.stabilized
    regime = "stabilized" if stabilized else script.regime
    for pos, move in enumerate(script.moves, start=1):
        apply, _, _, regimes = moves._MOVES.get(type(move), moves._UNKNOWN)
        if regime not in regimes:
            raise RegimeError(f"move {pos} ({type(move).__name__}) violates the "
                              f"{script.regime} regime")
        rels = list(cur.relators)
        try:
            gens = apply(rels, cur.gens, move, None)
        except MoveError as e:
            raise MoveError(f"move {pos} ({type(move).__name__}): {e}") from None
        cur = Presentation._trusted(gens, tuple(rels))
    return cur


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


def test_replay_is_a_fold_of_apply_move():
    # replay runs one relator list through the script; on full-regime
    # scripts with every move kind it must reach what the apply steps reach
    # one presentation at a time
    rng = random.Random(26)
    fresh = 0
    for _ in range(200):
        p = random_presentation(rng)
        cur, script = p, []
        for _ in range(rng.randint(0, 14)):
            roll = rng.random()
            if roll < 0.15:
                fresh += 1
                mv = AddGen(f"a{fresh}")
            elif roll < 0.3 and cur.rank > 1 and removable_generators(cur):
                mv = RemoveGen(rng.choice(removable_generators(cur)))
            else:
                mv = random_move(rng, cur)
            script.append(mv)
            cur = replay(cur, (mv,))
        got = replay(p, MoveScript(tuple(script)))
        assert got == cur == fold_apply_move(p, MoveScript(tuple(script)))
        assert type(got.gens) is tuple and type(got.relators) is tuple


def test_replay_rejects_bad_scripts_as_apply_move_does():
    p = pres("x y", "x y", "y^2")
    bad = [
        (MoveScript((InvRel(0), InvRel(5))), MoveError,
         "move 2 (InvRel): relator index 5 out of range (have 2)"),
        (MoveScript((ConjRel(0, (1,)), SlideRel(1, 0, "left")), "k_prime"), RegimeError,
         "move 2 (SlideRel) violates the k_prime regime"),
        (MoveScript((AddGen("z"), RemoveGen(0))), MoveError,
         "move 2 (RemoveGen): generator 0 is not removable: need exactly one "
         "relator, equal to that generator or its inverse, and no other occurrence"),
        (MoveScript((NielsenMul(0, 2, "left"),)), MoveError,
         "move 1 (NielsenMul): generator index 2 out of range (have 2)"),
        # a script file's "j": 0 reads as index -1, which would name the
        # last relator
        (MoveScript((RemoveTrivialRel(-1),)), MoveError,
         "move 1 (RemoveTrivialRel): relator index -1 out of range (have 2)"),
        (MoveScript((AddTrivialRel(), RemoveTrivialRel(3))), MoveError,
         "move 2 (RemoveTrivialRel): relator index 3 out of range (have 3)"),
        (MoveScript((RestrictedSlide(2, (RSFactor(EMPTY, 0, 1, (1,)),)),)), MoveError,
         "move 1 (RestrictedSlide): relator index 2 out of range (have 2)"),
        # ConjRel makes relator 0 x^500000 y x^-499999, at the bound
        (MoveScript((ConjRel(0, (1,) * 499_999), NielsenMul(1, 0, "right"))), MoveError,
         "move 2 (NielsenMul): relator of 1000001 letters exceeds the "
         "1000000-letter bound"),
        (MoveScript((ConjRel(0, (1,) * 499_999),
                     RestrictedSlide(0, (RSFactor(EMPTY, 1, 1, (1,)),)))), MoveError,
         "move 2 (RestrictedSlide): relator of 1000006 letters exceeds the "
         "1000000-letter bound"),
        # moves refused when they are built: these rows build their scripts
        (lambda: MoveScript((SlideRel(1, 1, "left"),)), MoveError,
         "cannot slide a relator over itself"),
        (lambda: MoveScript((NielsenMul(0, 0, "right"),)), MoveError,
         "Nielsen multiplication needs distinct generators"),
        (lambda: MoveScript((RestrictedSlide(0, (RSFactor(EMPTY, 1, 2, (1,)),)),)),
         MoveError, "bad factor sign 2"),
        (MoveScript((make_dataclass("Twist", ["j"])(0),)), MoveError,
         "move 1 (Twist): unknown move Twist(j=0)"),
        (MoveScript((make_dataclass("Twist", ["j"])(0),), "k_prime"), RegimeError,
         "move 1 (Twist) violates the k_prime regime"),
    ]
    for script, kind, message in bad:
        build = script if callable(script) else lambda: script
        for run in (replay, fold_apply_move):
            assert outcome(lambda: run(p, build())) == (kind, message)
    # a zero letter is refused when the move is built, before any replay
    assert outcome(ConjRel, 1, (2, 0)) == (ValueError,
                                           "bad letter 0: letters are nonzero ints")
    # a failed replay leaves its input as it was
    assert p == pres("x y", "x y", "y^2")


def conjugated_slide_reference(base, witnesses):
    """stabilization_moves spelled out as one conjugated slide per factor:
    relator k is conjugated by g^-1 and inverted when s > 0, slid onto
    relator base + i from the left, and restored."""
    return [move for i, wit in enumerate(witnesses) for g, k, s in wit.factors
            for move in moves._conjugated_slide(base + i, k, invert(g), -s, "left")]


def shape_faults(script_moves, base):
    """The moves of a stabilization script that break its shape: a ConjRel
    with an empty word or on a base relator, and an InvRel of a relator
    already inverted since the last slide."""
    faults, inverted = [], set()
    for move in script_moves:
        if isinstance(move, ConjRel) and (not move.w or move.j < base):
            faults.append(move)
        elif isinstance(move, InvRel):
            if move.j in inverted:
                faults.append(move)
            inverted.add(move.j)
        elif isinstance(move, SlideRel):
            inverted.clear()
    return faults


def stabilization_cases():
    """(presentation, base, witnesses) with the targets as relators base on."""
    rng = random.Random(41)  # the self witnesses of test_product_stabilization_self_random
    for _ in range(30):
        rank = rng.randint(1, 3)
        rels = tuple(reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                             for _ in range(rng.randint(1, 5))])
                     for _ in range(rng.randint(1, 3)))
        p = Presentation(tuple(f"g{i+1}" for i in range(rank)), rels)
        yield product(p, p), len(rels), [NormalClosureWitness(r, ((EMPTY, i, 1),))
                                         for i, r in enumerate(rels)]
    for i in range(1, 5):
        for j in range(i + 1, 6):
            w_ji, w_ij = lustig_witness_pair(i, j)
            yield product(lustig(i), lustig(j)), 3, w_ji
            yield product(lustig(j), lustig(i)), 3, w_ij
    # random factors, so that the conjugator changes from factor to factor
    rng = random.Random(43)
    for _ in range(100):
        p = random_presentation(rng, max_gens=3, max_rels=3, max_len=5)
        m = len(p.relators)
        wits = []
        for _ in range(rng.randint(0, 3)):
            factors = tuple((random_word_over(rng, p.rank, 3), rng.randrange(m),
                             rng.choice((1, -1))) for _ in range(rng.randint(0, 6)))
            wits.append(NormalClosureWitness(
                NormalClosureWitness(EMPTY, factors).product_word(p.relators), factors))
        yield Presentation(p.gens, p.relators + tuple(w.target for w in wits)), m, wits


def test_stabilization_moves_match_conjugated_slides():
    # the frame-tracking construction reaches the relators of one conjugated
    # slide per factor, byte for byte, by the same slides with the same ledger
    cases = shorter = 0
    for p, base, wits in stabilization_cases():
        got = MoveScript(tuple(stabilization_moves(base, wits)))
        ref = MoveScript(tuple(conjugated_slide_reference(base, wits)))
        out = replay(p, got).relators
        assert out == replay(p, ref).relators
        assert out[base:] == (EMPTY,) * len(wits)
        assert ([m for m in got.moves if isinstance(m, SlideRel)]
                == [m for m in ref.moves if isinstance(m, SlideRel)])
        assert slide_exponent_ledger(got) == slide_exponent_ledger(ref)
        assert not shape_faults(got.moves, base)
        cases += 1
        shorter += len(got) < len(ref)
    # the 30 self cases take three moves a relator either way
    assert cases == 150 and shorter > 80


def test_cross_certificate_replay_letters_lustig_3_4():
    # a timing-free work guard: the letters of every relator that an apply
    # step writes while replaying the lustig(3) x lustig(4) cross certificates;
    # conjugating and inverting relator k around each slide writes 16,714
    # and 44,465, even with adjacent inverse moves cancelled
    class Written(list):
        letters = 0

        def __setitem__(self, idx, r):
            Written.letters += len(r)
            super().__setitem__(idx, r)

    common = common_generators(lustig(3), lustig(4), IsoWitness.identity(3))
    w43, w34 = lustig_witness_pair(3, 4)
    result = null_vector_pipeline(common, witnesses_second_over_first=w43,
                                  witnesses_first_over_second=w34)
    written = {}
    for cert in result.certificates[2:]:
        Written.letters = 0
        rels, gens = Written(cert.lhs.relators), cert.lhs.gens
        for move in cert.script.moves:
            gens = moves._MOVES[type(move)][0](rels, gens, move, None)
        written[cert.label] = (len(cert.script), Written.letters)
    assert written == {"cross": (237, 8046), "cross_second": (600, 27460)}


def test_pipeline_certificate_lengths_lustig_1_2():
    common = common_generators(lustig(1), lustig(2), IsoWitness.identity(3))
    w12, w21 = lustig_witness_pair(1, 2)
    result = null_vector_pipeline(common, witnesses_second_over_first=w12,
                                  witnesses_first_over_second=w21)
    assert result.complete
    assert [len(c.script) for c in result.certificates] == [9, 9, 141, 218]
    assert all(not shape_faults(c.script.moves, 3) for c in result.certificates)


def test_equivalence_search_matches_layer_loop_reference():
    # the search reaches the same keys in the same order as its reference,
    # the layer-by-layer loop: same stop reason, state count and script on
    # every problem, in both regimes
    rng = random.Random(2203)
    reasons, cases = [], Counter()
    for _ in range(400):
        regime = rng.choice(("full", "k_prime"))
        rank = rng.randint(1, 3)
        p = Presentation(("x", "y", "z")[:rank], tuple(
            random_word_over(rng, rank, 5) for _ in range(rng.randint(2, 3))))
        budget = SearchBudget(max_depth=rng.randint(0, 3),
                              max_relator_length=rng.randint(4, 10),
                              max_states=rng.choice((2, 6, 40, 200)),
                              conjugator_length=rng.randint(0, 1))
        shape = rng.random()
        if shape < 0.1:
            q = p
        elif shape < 0.25:  # one more relator: k_prime cannot reach it
            q = wedge_s2(p, 1)
        else:  # a few fragments of the search away, or not, after conjugations
            q = p
            for _ in range(rng.randint(1, 4)):
                fragments = list(moves._neighbor_fragments(
                    q, regime, len(q.relators) + rng.randint(0, 1), 1))
                if fragments:
                    for move in rng.choice(fragments):
                        q = replay(q, (move,))
            if q.relators and rng.random() < 0.3:
                q = replay(q, (ConjRel(rng.randrange(len(q.relators)),
                                       random_word_over(rng, q.rank, 2)),))
        outcome = bounded_equivalence_search(p, q, budget, regime)
        script = None if outcome.result is None else outcome.result.moves
        assert ((outcome.reason, outcome.states, script)
                == search_reference.equivalence_search(p, q, budget, regime))
        reasons.append(outcome.reason)
        cases["start = goal"] += canonical_key(q) == canonical_key(p)
        cases["depth 0"] += budget.max_depth == 0
        cases["k_prime count mismatch"] += (
            regime == "k_prime" and len(p.relators) != len(q.relators))
    assert all(reasons.count(r) >= 20 for r in ("found", "exhausted", "state_cap"))
    assert min(cases.values()) >= 20, cases
