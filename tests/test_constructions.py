import concurrent.futures
import random
import tracemalloc
from collections import Counter

import pytest

from acpair import constructions
from acpair.constructions import (IsoWitness, NormalClosureWitness,
                                  WitnessBudget, WitnessError,
                                  append_word_moves, common_generators, lustig,
                                  null_vector_pipeline, permutation_moves,
                                  product_stabilization,
                                  search_normal_closure_witness,
                                  swap_generators_moves,
                                  verify_smove_certificates, witness_from_json,
                                  witness_to_json)
from acpair.moves import (AddTrivialRel, ConjRel, InvRel, MoveError, MoveScript,
                          NielsenInv, NielsenMul, RegimeError, RemoveTrivialRel,
                          RestrictedSlide, RSFactor, SlideRel, invert_script, replay)
from acpair.pairing import verify_null
from acpair.presentations import (canonical_key, euler_char,
                                  format_presentation, make_presentation,
                                  parse_presentation, product, wedge_s2)
from acpair.words import EMPTY, commutator, invert, multiply, power, reduce

from lustig_fixtures import LustigCalculus, lustig_witness_pair


def pres(gens, *rels):
    return make_presentation(gens, rels)


# -- generator-level script builders ---------------------------------------


def test_swap_generators_moves():
    p = pres("x y", "x")
    cur = p
    for mv in swap_generators_moves(0, 1):
        cur = replay(cur, (mv,))
    assert cur.relators == ((2,),)
    q = pres("x y z", "x y^-1 z")
    cur = q
    for mv in swap_generators_moves(0, 2):
        cur = replay(cur, (mv,))
    assert cur.relators == ((3, -2, 1),)
    assert swap_generators_moves(1, 1) == []


def test_permutation_moves():
    p = pres("x y z", "x y^2 z^3")
    perm = [2, 0, 1]  # new position k holds old generator perm[k]
    cur = p
    for mv in permutation_moves(perm):
        cur = replay(cur, (mv,))
    # old z -> position 0, old x -> position 1, old y -> position 2
    assert cur.relators == ((2, 3, 3, 1, 1, 1),)


# -- common generators -------------------------------------------------------


def test_common_generators_micro_example():
    p = pres("x", "x^2")
    q = pres("y", "y^2")
    wit = IsoWitness(((1,),), ((1,),))  # y = x, x = y
    res = common_generators(p, q, wit)
    assert res.p_prime.rank == 2 and res.q_prime.rank == 2
    assert res.p_prime.relators == ((1, 1), (2, -1))
    assert res.q_prime.relators == ((2, 2), (1, -2))
    assert euler_char(res.p_prime) == euler_char(p)
    assert euler_char(res.q_prime) == euler_char(q)


def test_common_generators_symmetric_instance():
    p = pres("x", "x^3")
    wit = IsoWitness(((1,),), ((1,),))
    res = common_generators(p, p, wit)
    # same tuple but non-identity handling is skipped only for identity data
    assert res.p_prime is p and res.q_prime is p


def test_common_generators_lustig_skip():
    k1, k2 = lustig(1), lustig(2)
    res = common_generators(k1, k2, IsoWitness.identity(3))
    assert res.p_prime is k1 and res.q_prime is k2


def test_common_generators_relator_counts():
    p = pres("x y", "x y", "y^3")
    q = pres("u", "u^2")
    wit = IsoWitness(((1,),), ((1,), (1, 1)))
    res = common_generators(p, q, wit)
    assert len(res.p_prime.relators) == len(p.relators) + q.rank
    assert len(res.q_prime.relators) == len(q.relators) + p.rank
    assert res.p_prime.rank == res.q_prime.rank == 3


def test_common_generators_bounds_the_image_letters(monkeypatch):
    # both replays charge one budget of MAX_ISO_WORK letters: AddGen one
    # letter per generator it copies, and each Nielsen move one per
    # generator, per relator and per relator letter that it reads.  Here
    # the first side charges 1 + 6 + 6 + 7, an AddGen over x and three
    # Nielsen moves over two generators and two relators of 2, 2 and 3
    # letters, and the second side 1 + 6 + 54 for its AddGen, its one
    # Nielsen move and the eight of a generator swap; identity data needs
    # no moves and is not charged
    p, q = pres("x", "x"), pres("y", "y")
    wit = IsoWitness(((-1,),), ((1,),))
    monkeypatch.setattr(constructions, "MAX_ISO_WORK", 81)
    res = common_generators(p, q, wit)
    assert res.p_prime.relators == ((1,), (2, 1)) and res.q_prime.relators == ((2,), (1, -2))
    monkeypatch.setattr(constructions, "MAX_ISO_WORK", 80)
    with pytest.raises(ValueError, match="isomorphism witness spells out more than 80 letters"):
        common_generators(p, q, wit)
    # a long relator makes even a one-letter image costly: each Nielsen
    # move reads all of it, so the first side's three read 1005, 1005 and
    # 1006 letters
    monkeypatch.setattr(constructions, "MAX_ISO_WORK", 3_000)
    with pytest.raises(ValueError, match="more than 3000 letters"):
        common_generators(pres("x", "x^1000"), q, wit)
    monkeypatch.setattr(constructions, "MAX_ISO_WORK", 0)
    assert common_generators(p, p, IsoWitness.identity(1)).p_prime == p
    k1 = lustig(1)
    assert common_generators(k1, k1, IsoWitness.identity(3)).q_prime == k1


def test_common_generators_charges_generators_and_relators():
    # a Nielsen move builds an identity image for each generator and scans
    # each relator, and AddGen copies the generator names, so each is
    # charged even where it holds no letter: many free generators, or
    # many empty relators, cannot make the replays run uncharged
    x, y = pres("x", "x"), pres("y", "y")
    free = make_presentation(" ".join(f"y{i}" for i in range(3000)), [])
    with pytest.raises(ValueError, match="more than 3000000 letters"):
        common_generators(x, free, IsoWitness(((),) * 3000, ((1,),)))
    empty = pres("x", *["1"] * 20_000)
    with pytest.raises(ValueError, match="more than 3000000 letters"):
        common_generators(empty, y, IsoWitness(((-1,) * 100,), ((1,),)))


def test_common_generators_makes_moves_only_as_the_budget_charges_them(monkeypatch):
    # many free generators against a one-generator partner, in both orders:
    # the budget refuses the replay of the side that adjoins one generator
    # per free one after a few hundred AddGens, so the moves of the other
    # generators, and of the swaps that would reorder them, are never made
    n = 20_000
    one = pres("x", "x")
    free = make_presentation(" ".join(f"y{i}" for i in range(n)), [])
    monkeypatch.setattr(constructions, "MAX_ISO_WORK", 100_000)
    for p, q, wit in ((free, one, IsoWitness(((1,),), ((1,),) * n)),
                      (one, free, IsoWitness(((1,),) * n, ((1,),)))):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="more than 100000 letters"):
                common_generators(p, q, wit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, (p.rank, peak)


def test_append_word_moves_share_the_moves_of_a_letter():
    # the moves of a long image are built before its replay is charged,
    # so they cost a list of pointers: four move objects for two letters
    moves = append_word_moves(0, (2, -3) * 1000)
    assert moves[:4] == [NielsenMul(0, 2, "right"),
                         NielsenInv(1), NielsenMul(0, 1, "right"), NielsenInv(1)]
    assert len(moves) == 4000 and len(set(map(id, moves))) == 4


def test_common_generators_renames_images_whose_names_are_taken():
    # against itself with the swap witness, both names of the other side
    # are taken, so the added generators take the free names g3 and g4
    p = pres("x y", "x y^2")
    swap = IsoWitness(((2,), (1,)), ((2,), (1,)))
    res = common_generators(p, p, swap)
    assert res.p_prime.gens == res.q_prime.gens == ("x", "y", "g3", "g4")
    # g3 stands for the other side's x, which the witness sends to y, and g4
    # for its y, sent to x
    assert res.p_prime.relators == ((1, 2, 2), (3, -2), (4, -1))
    # the second side's own generators move to g3 and g4, after the first's
    assert res.q_prime.relators == ((3, 4, 4), (1, -4), (2, -3))


@pytest.mark.parametrize("build, error, message", [
    (lambda: append_word_moves(0, (2, -1)), ValueError,
     "may not involve the rewritten generator"),
    (lambda: list(permutation_moves([0, 0])), ValueError, "not a permutation"),
    (lambda: product_stabilization(pres("x", "x"), pres("x y", "x"), []), ValueError,
     "presentations do not share a boundary"),
    (lambda: product_stabilization(pres("x", "x"), pres("x", "x^2"), []), WitnessError,
     "need 1 witness, got 0"),
    (lambda: verify_smove_certificates(pres("x", "x"), pres("x y", "x"), [], []),
     ValueError, "boundary mismatch: ranks 1 and 2"),
])
def test_construction_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_common_generators_dimension_mismatch():
    with pytest.raises(WitnessError):
        common_generators(pres("x", "x"), pres("y", "y"), IsoWitness((), ((1,),)))
    # an image may use only the generators of the side it is written over
    for bad in (IsoWitness(((2,),), ((1,),)), IsoWitness(((1,),), ((1, -2),))):
        with pytest.raises(WitnessError, match="image 1 lies outside the generators"):
            common_generators(pres("x", "x"), pres("y", "y"), bad)


# -- normal closure witnesses -------------------------------------------------


def test_witness_verify():
    wit = NormalClosureWitness((1, 1), ((EMPTY, 0, 1), (EMPTY, 0, 1)))
    assert wit.verify([(1,)])
    assert not wit.verify([(1, 1)])
    with pytest.raises(WitnessError):
        NormalClosureWitness((1,), ((EMPTY, 0, 2),))


def test_witness_search_examples():
    wit = search_normal_closure_witness((1, 1), [(1,)], WitnessBudget(4, 2)).result
    assert wit.factors == ((EMPTY, 0, 1), (EMPTY, 0, 1))
    single = search_normal_closure_witness((1, 1, 1), [(1, 1, 1)],
                                           WitnessBudget(2, 1)).result
    assert single.factors == ((EMPTY, 0, 1),)
    assert search_normal_closure_witness((1,), [(1, 1)], WitnessBudget(
        6, 3, max_states=4000)).result is None


def test_witness_search_meet_keeps_forward_order():
    # y^2 x^-1 y^-2 x y^-2 over {x^2, y^2}: the halves meet after two
    # forward layers, so the forward factors must be listed first-to-last
    rels = [(1, 1), (2, 2)]
    target = (2, 2, -1, -2, -2, 1, -2, -2)
    outcome = search_normal_closure_witness(target, rels, WitnessBudget(4, 2))
    wit = outcome.result
    assert wit is not None and wit.verify(rels)
    assert len(wit.factors) <= 4
    assert all(len(g) <= 2 for g, _, _ in wit.factors)
    assert outcome.reason == "found"


def test_witness_search_found_witnesses_verify_random():
    rng = random.Random(11)
    letters = (1, -1, 2, -2)
    for _ in range(40):
        rels = [reduce([rng.choice(letters) for _ in range(rng.randint(2, 4))])
                or (1,) for _ in range(2)]
        target = EMPTY
        for _ in range(rng.randint(2, 4)):
            g = reduce([rng.choice(letters) for _ in range(rng.randint(0, 2))])
            rel = rng.choice(rels)
            rel = rel if rng.random() < 0.5 else invert(rel)
            target = multiply(target, multiply(multiply(invert(g), rel), g))
        wit = search_normal_closure_witness(target, rels, WitnessBudget(8, 4)).result
        if wit is not None:
            assert wit.verify(rels)
            assert len(wit.factors) <= 8
            assert all(len(g) <= 4 for g, _, _ in wit.factors)


def test_witness_search_stop_reasons():
    # the first insertion into x^2 over x^3 meets nothing and passes the cap
    outcome = search_normal_closure_witness((1, 1), [(1, 1, 1)],
                                            WitnessBudget(6, 3, max_states=1))
    assert (outcome.result, outcome.reason, outcome.states) == (None, "state_cap", 3)
    assert str(outcome) == "state_cap after 3 states"
    # x is not in the normal closure of x^2: the whole space is searched
    outcome = search_normal_closure_witness((1,), [(1, 1)],
                                            WitnessBudget(6, 3, max_states=4000))
    assert (outcome.result, outcome.reason, outcome.states) == (None, "exhausted", 14)
    outcome = search_normal_closure_witness((1, 1), [(1,)], WitnessBudget(4, 2))
    assert outcome.result is not None and outcome.reason == "found"


def test_relator_witness_matches_the_search():
    # an empty target gets no factors, and a target that is a relator or
    # its inverse gets one factor over the least such relator, also at the
    # smallest state cap that lets the first expansion meet it: the first
    # expansion adds at most 2 * len(rels) - 1 states before the meeting
    # one, to the 2 it starts with
    rng = random.Random(44)
    answered = 0
    for _ in range(300):
        rank = rng.randint(1, 3)
        letters = [x for i in range(1, rank + 1) for x in (i, -i)]
        rels = [reduce([rng.choice(letters) for _ in range(rng.randint(0, 5))])
                for _ in range(rng.randint(1, 4))]
        target = rng.choice([EMPTY, rng.choice(rels), invert(rng.choice(rels)),
                             reduce([rng.choice(letters) for _ in range(3)])])
        k = next((k for k, rel in enumerate(rels) if rel in (target, invert(target))),
                 None)
        if target and k is None:
            continue
        factors = ((EMPTY, k, 1 if rels[k] == target else -1),) if target else ()
        wit = NormalClosureWitness(target, factors)
        answered += 1
        budget = WitnessBudget(rng.randint(1, 8), rng.randint(0, 4), 2 * len(rels) + 1)
        assert wit == search_normal_closure_witness(target, rels).result
        assert wit == search_normal_closure_witness(target, rels, budget).result
    assert answered > 150


def test_witness_search_raises_when_its_witness_fails_verification(monkeypatch):
    # like the equivalence search, a failed self-check is an error (exit 2),
    # never an assert or a verdict
    monkeypatch.setattr(NormalClosureWitness, "verify", lambda self, relators: False)
    with pytest.raises(WitnessError, match="failed verification"):
        search_normal_closure_witness((1, 1), [(1,)], WitnessBudget(4, 2))


def test_witness_search_conjugated_target():
    rel = (1, 2, 1)
    target = reduce((2,) + rel + (-2,))
    wit = search_normal_closure_witness(target, [rel], WitnessBudget(3, 2)).result
    assert wit is not None and wit.verify([rel])


def test_witness_search_commutator_combination():
    # x^2 y^2 over {x^2, y^2}: needs a conjugate pair
    target = (1, 1, 2, 2)
    wit = search_normal_closure_witness(target, [(1, 1), (2, 2)],
                                        WitnessBudget(4, 3)).result
    assert wit is not None and wit.verify([(1, 1), (2, 2)])


def _junction(word, pos, body, nxt):
    """Where inserting body at pos of word cancels letters, nxt the result."""
    if len(nxt) <= len(word) - len(body):
        return "body cancels completely"
    if pos and word[pos - 1] == -body[0]:
        return "prefix junction"
    if pos < len(word) and body[-1] == -word[pos]:
        return "suffix junction"
    return "no cancellation"


def _cancelled(word, pos, body, nxt):
    """The letters that inserting body at pos of word cancels at the
    prefix's junction and then at the suffix's, nxt the result."""
    i = 0
    while i < min(pos, len(body)) and word[pos - 1 - i] == -body[i]:
        i += 1
    return i, (len(word) + len(body) - len(nxt)) // 2 - i


def _cancellation(word, pos, body, nxt):
    """_junction's label, or a finer one where both junctions cancel."""
    i, j = _cancelled(word, pos, body, nxt)
    if j > len(body) - i:
        return "suffix cancels into the prefix"
    if i and j:
        return "both junctions cancel"
    return _junction(word, pos, body, nxt)


def _tuple_witness_search(target, relators, max_factors, max_conj, max_states,
                          branches=None, classify=_junction):
    """Reference: the witness search on tuple words, each successor built
    as multiply(multiply(prefix, body), suffix).  Returns (reason, states,
    factors or None).  A Counter passed as branches counts the successors
    by classify(word, pos, body, successor), by default where their letters
    cancel."""
    target, relators = reduce(target), [reduce(r) for r in relators]
    max_len = (len(target) + 2 * max((len(r) for r in relators), default=0)
               + 2 * max_conj)
    if not target:
        return "found", 0, ()
    seen, frontiers, depth = ({target: None}, {EMPTY: None}), [[target], [EMPTY]], 0

    def factors(side, word):
        out = []
        while seen[side][word] is not None:
            word, pos, k, sign = seen[side][word]
            out.append((invert(word[:pos]), k, sign if side else -sign))
        return out if side else out[::-1]

    while (frontiers[0] or frontiers[1]) and depth < max_factors:
        side = 0 if frontiers[0] and (not frontiers[1] or
                                      len(frontiers[0]) <= len(frontiers[1])) else 1
        new = []
        for word in frontiers[side]:
            for pos in range(min(max_conj, len(word)) + 1):
                for k, rel in enumerate(relators):
                    for sign, body in ((1, rel), (-1, invert(rel))) if rel else ():
                        nxt = multiply(multiply(word[:pos], body), word[pos:])
                        if branches is not None:
                            branches[classify(word, pos, body, nxt)] += 1
                        if len(nxt) > max_len or nxt in seen[side]:
                            continue
                        seen[side][nxt] = (word, pos, k, sign)
                        states = len(seen[0]) + len(seen[1])
                        if nxt in seen[1 - side]:
                            return "found", states, tuple(factors(0, nxt) + factors(1, nxt))
                        new.append(nxt)
                        if states > max_states:
                            return "state_cap", states, None
        frontiers[side], depth = new, depth + 1
    return "exhausted", len(seen[0]) + len(seen[1]), None


def _reference_corpus():
    """(target, relators, budget) of the problems that the search is
    compared on against the reference."""
    rng = random.Random(2003)
    for _ in range(240):
        rank = rng.randint(1, 3)
        letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
        rels = [reduce(rng.choice(letters) for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(1, 3))]
        target = reduce(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        for _ in range(rng.randint(1, 3)):
            g = reduce(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            rel = rng.choice(rels)
            rel = rel if rng.random() < 0.5 else invert(rel)
            target = multiply(target, multiply(multiply(invert(g), rel), g))
        yield target, rels, (rng.randint(1, 8), rng.randint(0, 4), rng.choice((20, 200, 5000)))


def test_witness_search_matches_tuple_word_reference():
    # the byte encoding, the parent links that hold only the parent word and
    # the products cached per prefix change neither the space searched nor
    # its order: same stop reason, state count and factors on every problem
    reasons, branches = [], Counter()
    for target, rels, budget in _reference_corpus():
        outcome = search_normal_closure_witness(target, rels, WitnessBudget(*budget))
        factors = None if outcome.result is None else outcome.result.factors
        assert ((outcome.reason, outcome.states, factors)
                == _tuple_witness_search(target, rels, *budget, branches))
        reasons.append(outcome.reason)
    assert all(reasons.count(r) >= 20 for r in ("found", "exhausted", "state_cap"))
    # the corpus reaches every way a successor is built
    assert set(branches) == {"no cancellation", "prefix junction",
                             "suffix junction", "body cancels completely"}
    assert min(branches.values()) >= 100, branches


def test_reference_corpus_reaches_both_junctions():
    # the search joins a cached product prefix * body to the suffix; the
    # corpus that the reference test compares on reaches insertions that
    # cancel at both junctions, and ones whose suffix cancels all that is
    # left of the body and goes on into the prefix
    kinds = Counter()
    for target, rels, budget in _reference_corpus():
        _tuple_witness_search(target, rels, *budget, kinds, _cancellation)
    assert min(kinds["both junctions cancel"],
               kinds["suffix cancels into the prefix"]) >= 100, kinds


@pytest.mark.parametrize("target, rels, max_conj, states", [
    ((-1,), [(-1, 2), (-1, -1, -1)], 0, 98),
    ((-2,), [(2, 1, 1)], 1, 92),
])
def test_witness_search_keeps_words_of_the_length_bound(target, rels, max_conj, states):
    # words may hold len(target) + 2 * 3 + 2 * max_conj letters.  Run to its
    # end, this space builds successors of exactly that length and of one
    # letter more, both where the suffix's first letter cancels and where it
    # does not: the search keeps the first and drops the second as the
    # reference does
    bound = len(target) + 6 + 2 * max_conj
    budget, lengths = (8, max_conj, 100_000), Counter()
    expected = _tuple_witness_search(
        target, rels, *budget, lengths,
        lambda word, pos, body, nxt: (_cancelled(word, pos, body, nxt)[1] > 0, len(nxt)))
    assert {(cancels, n) for cancels in (False, True)
            for n in (bound, bound + 1)} <= set(lengths)
    assert expected == ("exhausted", states, None)
    outcome = search_normal_closure_witness(target, rels, WitnessBudget(*budget))
    assert (outcome.reason, outcome.states, outcome.result) == expected


def test_witness_search_takes_the_first_of_two_equal_insertions():
    # x^2 inserted at position 0 or 1 of x gives the same child x^3; the
    # search recorded position 0, so the rebuilt path must take it too
    rels = [(1, 1, 1), (1, 1)]
    budget = (4, 1, 1000)
    outcome = search_normal_closure_witness((1,), rels, WitnessBudget(*budget))
    expected = _tuple_witness_search((1,), rels, *budget)
    assert expected[2] == (((), 1, -1), ((), 0, 1))
    assert (outcome.reason, outcome.states, outcome.result.factors) == expected


def test_witness_json_roundtrip():
    wit = NormalClosureWitness((1, 1, 2), (((2, -1), 0, -1), (EMPTY, 1, 1)))
    names = ("x", "y")
    again = witness_from_json(witness_to_json(wit, names), names)
    assert again == wit


# -- product stabilization ----------------------------------------------------


def test_product_stabilization_micro():
    l1 = pres("x", "x")
    l2 = pres("x", "x^2")
    wit = [NormalClosureWitness((1, 1), ((EMPTY, 0, 1), (EMPTY, 0, 1)))]
    script = product_stabilization(l1, l2, wit)
    start = product(l1, l2)
    result = replay(start, script)
    assert canonical_key(result) == canonical_key(pres("x", "x", "1"))
    assert all(isinstance(m, (ConjRel, InvRel, SlideRel)) for m in script.moves)


def test_product_stabilization_empty_second():
    l1 = pres("x", "x")
    l2 = pres("x")
    script = product_stabilization(l1, l2, [])
    assert script.moves == ()


def test_product_stabilization_bad_witness():
    l1 = pres("x", "x")
    l2 = pres("x", "x^2")
    wrong = [NormalClosureWitness((1, 1), ((EMPTY, 0, 1),))]
    with pytest.raises(WitnessError):
        product_stabilization(l1, l2, wrong)


def test_product_stabilization_refuses_a_partial_product_over_the_word_bound():
    # each factor (1, relator 0, +1) adds the 100,000 letters of (x y)^50000
    # to the product: the eleventh partial product passes the bound, and
    # the product of forty would be a 4,000,000-letter tuple, 32 MB of
    # pointers
    l1 = pres("x y", "x y " * 50_000)
    wit = NormalClosureWitness(l1.relators[0], ((EMPTY, 0, 1),) * 40)
    tracemalloc.start()
    try:
        with pytest.raises(WitnessError, match="^witness 0: relator of 1100000 "
                                               "letters exceeds the 1000000-letter bound$"):
            product_stabilization(l1, l1, [wit])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000, peak


def test_product_stabilization_self_random():
    rng = random.Random(41)
    for _ in range(30):
        rank = rng.randint(1, 3)
        names = tuple(f"g{i+1}" for i in range(rank))
        rels = tuple(reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                             for _ in range(rng.randint(1, 5))])
                     for _ in range(rng.randint(1, 3)))
        p = make_presentation(names, [])
        p = type(p)(names, rels)
        wits = [NormalClosureWitness(r, ((EMPTY, i, 1),))
                for i, r in enumerate(p.relators)]
        script = product_stabilization(p, p, wits)
        out = replay(product(p, p), script)
        assert canonical_key(out) == canonical_key(wedge_s2(p, len(p.relators)))


# -- the certified pipeline ---------------------------------------------------


def lustig_common():
    return common_generators(lustig(1), lustig(2), IsoWitness.identity(3))


def test_pipeline_trivial_same_presentation():
    p = pres("x", "x")
    res = null_vector_pipeline(common_generators(p, p, IsoWitness.identity(1)))
    assert res.complete
    assert res.x.is_zero()
    assert verify_null(res.x, res.certificates).null


def test_pipeline_key_collision():
    p = pres("x", "x")
    q = pres("x", "x x x^-1")
    res = null_vector_pipeline(common_generators(p, q, IsoWitness.identity(1)))
    assert res.x.is_zero()
    assert verify_null(res.x, res.certificates).null


def test_pipeline_euler_mismatch():
    common = common_generators(pres("x", "x"), pres("x"), IsoWitness.identity(1))
    with pytest.raises(ValueError, match="Euler characteristics differ: 1 vs 0"):
        null_vector_pipeline(common)


def test_pipeline_raises_when_normalization_changes_relator_counts():
    # At equal rank, equal Euler characteristics force equal relator counts,
    # so a normalization that adds a relator fails the Euler check.
    good = lustig_common()
    bad = constructions.CommonGeneratorsResult(
        good.p_prime, wedge_s2(good.q_prime, 1))
    with pytest.raises(ValueError, match="Euler characteristics differ: 1 vs 2"):
        null_vector_pipeline(bad)


def test_pipeline_lustig_supplied_witnesses(monkeypatch):
    k1, k2 = lustig(1), lustig(2)
    w12, w21 = lustig_witness_pair(1, 2)
    verified = []
    original = NormalClosureWitness.verify

    def counted(wit, relators):
        verified.append(wit)
        return original(wit, relators)

    monkeypatch.setattr(NormalClosureWitness, "verify", counted)
    res = null_vector_pipeline(lustig_common(), witnesses_second_over_first=w12,
                               witnesses_first_over_second=w21)
    # each supplied witness is verified once, and nothing else is
    assert sorted(map(id, verified)) == sorted(map(id, w12 + w21))
    assert res.complete
    assert res.stabilizations == 3
    assert len(res.x.support) == 2
    labels = {c.label for c in res.certificates}
    assert labels == {"first_self", "second_self", "cross", "cross_second"}
    report = verify_null(res.x, res.certificates)
    assert report.null
    # the four-product identity chain: each certificate replays onto its own
    # right-hand key, and the endpoints are exactly the two stabilized wedges,
    # joined through the cross product
    for cert in res.certificates:
        assert canonical_key(replay(cert.lhs, cert.script)) == canonical_key(cert.rhs)
    endpoint_keys = {canonical_key(c.rhs) for c in res.certificates}
    assert endpoint_keys == {canonical_key(wedge_s2(k1, 3)),
                             canonical_key(wedge_s2(k2, 3))}


def test_pipeline_unknown_markers_with_tiny_budget():
    res = null_vector_pipeline(lustig_common(), WitnessBudget(2, 1, 200))
    assert not res.complete
    assert any("second_over_first" in u for u, _ in res.unknown)
    # labels are 1-based: relator 1 (shared by both) is found, 2 and 3 not;
    # each cross search stops at depth 2 holding 20 states, under the cap
    assert [label for label, _ in res.unknown] == [
        "second_over_first[2]", "second_over_first[3]",
        "first_over_second[2]", "first_over_second[3]"]
    assert [(o.result, o.reason, o.states) for _, o in res.unknown] == \
        [(None, "exhausted", 20)] * 4
    # nothing unverified is emitted: all returned certificates verify
    for cert in res.certificates:
        ok, msg = cert.verify()
        assert ok, (cert.label, msg)


def test_pipeline_one_direction_certifies_its_cross_product():
    # Only the first-over-second witnesses are at hand, so of the cross
    # certificates only cross_second is built.  It joins p1*p2 (the key of
    # p2*p1) to p2's stabilized wedge, so -2 p1*p2 and p2*p2 merge into one
    # surviving term and p1*p1 is the other.
    _, w21 = lustig_witness_pair(1, 2)
    res = null_vector_pipeline(lustig_common(), WitnessBudget(2, 1, 200),
                               witnesses_first_over_second=w21)
    assert [c.label for c in res.certificates] == [
        "first_self", "second_self", "cross_second"]
    assert [label for label, _ in res.unknown] == [
        "second_over_first[2]", "second_over_first[3]"]
    report = verify_null(res.x, res.certificates)
    assert all(ok for _, ok, _ in report.certificate_status)
    assert not report.null
    assert sorted(c for _, c in report.residue.items()) == [-1, 1]


def test_pipeline_certificates_use_relator_moves_only():
    # every pipeline certificate fixes the boundary wedge: it conjugates,
    # inverts and slides relators, and touches no generator
    w12, w21 = lustig_witness_pair(1, 2)
    for supplied in ({}, {"witnesses_second_over_first": w12},
                     {"witnesses_second_over_first": w12,
                      "witnesses_first_over_second": w21}):
        res = null_vector_pipeline(lustig_common(), WitnessBudget(2, 1, 200),
                                   **supplied)
        assert len(res.certificates) == 2 + len(supplied)
        for cert in res.certificates:
            assert all(isinstance(m, (ConjRel, InvRel, SlideRel))
                       for m in cert.script.moves), cert.label


def test_pipeline_unknown_path_verifies_its_certificates(monkeypatch):
    # The pipeline builds its scripts without replaying them, so its one
    # verify_null must catch a script that misses its key, also when the
    # result is incomplete.
    monkeypatch.setattr(constructions, "stabilization_moves",
                        lambda base, witnesses: [])
    with pytest.raises(WitnessError, match="first_self, second_self"):
        null_vector_pipeline(lustig_common(), WitnessBudget(2, 1, 200))


def test_pipeline_parallel_search_matches_sequential(monkeypatch):
    budget = WitnessBudget(2, 1, 200)
    seq = null_vector_pipeline(lustig_common(), budget)
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    par = null_vector_pipeline(lustig_common(), budget, jobs=2)
    # the searches missing in both directions share one pool
    assert len(pools) == 1
    assert {label.split("[")[0] for label, _ in par.unknown} == {
        "second_over_first", "first_over_second"}
    assert par.unknown == seq.unknown
    assert [c.script for c in par.certificates] == \
        [c.script for c in seq.certificates]


def test_pipeline_pool_is_sized_to_the_missing_searches(monkeypatch):
    # six witnesses are missing, so a pool of 64 would fork 58 idle
    # workers; the stand-in runs the searches in process and starts no
    # workers
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    budget = WitnessBudget(2, 1, 200)
    res = null_vector_pipeline(lustig_common(), budget, jobs=64)
    assert sizes == [6] and len(res.unknown) == 4
    # one missing search runs in process, with no pool at all
    w12, w21 = lustig_witness_pair(1, 2)
    res = null_vector_pipeline(lustig_common(), budget, w12, [*w21[:2], None],
                               jobs=64)
    assert sizes == [6] and len(res.unknown) == 1
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            null_vector_pipeline(lustig_common(), budget, jobs=jobs)
    assert sizes == [6]


def test_pipeline_searches_every_missing_witness(monkeypatch):
    # the search is the one source of a missing witness, the shared relator
    # s^2 t^-3 included, and a supplied witness is never searched
    calls = []

    def counting_search(target, relators, budget):
        calls.append(target)
        return search_normal_closure_witness(target, relators, budget)

    monkeypatch.setattr(constructions, "search_normal_closure_witness", counting_search)
    budget = WitnessBudget(2, 1, 200)
    w12, w21 = lustig_witness_pair(1, 2)
    for supplied, searches in (((None, None), 6), ((w12, w21), 0),
                               ((w12, [*w21[:2], None]), 1)):
        calls.clear()
        null_vector_pipeline(lustig_common(), budget, *supplied)
        assert len(calls) == searches


def test_pipeline_general_path_with_search():
    # different generator tuples: the doubling construction runs, and the
    # cross witnesses are small enough for the search to find live
    p = pres("x", "x^2")
    q = pres("y", "y^2")
    common = common_generators(p, q, IsoWitness(((1,),), ((1,),)))
    res = null_vector_pipeline(common, WitnessBudget(8, 4, 40000))
    assert res.complete, res.unknown
    assert common.p_prime.rank == 2
    assert res.stabilizations == 2
    report = verify_null(res.x, res.certificates)
    assert report.null
    # both normalized presentations replay from the originals
    assert len(res.x.support) == 2


def test_pipeline_parallel_jobs_matches_sequential():
    w12, w21 = lustig_witness_pair(1, 2)
    seq = null_vector_pipeline(lustig_common(), witnesses_second_over_first=w12,
                               witnesses_first_over_second=w21, jobs=1)
    par = null_vector_pipeline(lustig_common(), witnesses_second_over_first=w12,
                               witnesses_first_over_second=w21, jobs=2)
    assert seq.x == par.x
    assert [c.label for c in seq.certificates] == [c.label for c in par.certificates]


def test_pipeline_rejects_bad_supplied_witness():
    k1, k2 = lustig(1), lustig(2)
    bad = [NormalClosureWitness(k2.relators[0], ((EMPTY, 1, 1),))] * 3
    with pytest.raises(WitnessError):
        null_vector_pipeline(lustig_common(), witnesses_second_over_first=bad)
    # a bad first_over_second witness is named, also when every
    # second_over_first witness is left to a search that stops unknown
    bad21 = [None, NormalClosureWitness(k1.relators[1], ((EMPTY, 0, 1),))]
    with pytest.raises(WitnessError, match=r"first_over_second\[2\]: supplied "
                                           "witness fails verification"):
        null_vector_pipeline(lustig_common(), WitnessBudget(2, 1, 200),
                             witnesses_first_over_second=bad21)


# -- Lustig family -----------------------------------------------------------


def test_lustig_values():
    k1 = lustig(1)
    assert k1.gens == ("r", "s", "t")
    s, t, r = (2,), (3,), (1,)
    assert k1.relators[0] == multiply(power(s, 2), power(t, -3))
    assert k1.relators[1] == commutator(power(r, 2), power(s, 3))
    assert k1.relators[2] == commutator(power(r, 2), power(t, 4))
    assert euler_char(lustig(4)) == 1
    assert canonical_key(lustig(1)) != canonical_key(lustig(2))
    with pytest.raises(ValueError):
        lustig(0)


def test_lustig_index_bound_is_the_file_letter_budget():
    # lustig(i) spells out 10 i + 17 letters, and a presentation file may
    # spell out 1,000,000: the largest index still round-trips
    big = lustig(99_998)
    assert sum(map(len, big.relators)) == 999_997
    assert parse_presentation(format_presentation(big)) == big
    with pytest.raises(ValueError, match="lustig.99999. spells out more than 1000000"):
        lustig(99_999)


def test_lustig_calculus_scales():
    # witnesses exist and verify for a further family pair
    calc = LustigCalculus(2)
    wits = calc.witnesses_for(3)
    assert all(w.verify(lustig(2).relators) for w in wits)


# -- restricted-regime certificates -------------------------------------------


def _random_k_prime_script(rng, block, m, rank, length):
    """Moves touching only relators in `block` (absolute indices)."""
    moves = []
    for _ in range(length):
        j = rng.choice(block)
        kind = rng.choice(["conj", "inv", "rslide"])
        if kind == "conj":
            w = reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                        for _ in range(rng.randint(1, 2))])
            moves.append(ConjRel(j, w))
        elif kind == "inv":
            moves.append(InvRel(j))
        else:
            k = rng.choice([i for i in block if i != j])
            w = reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                        for _ in range(rng.randint(0, 2))])
            h = reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                        for _ in range(rng.randint(1, 2))])
            moves.append(RestrictedSlide(j, (RSFactor(w, k, rng.choice([1, -1]), h),)))
    return MoveScript(tuple(moves), "k_prime")


def test_verify_smove_identity():
    l1 = pres("x y", "x", "y")
    certs = verify_smove_certificates(l1, l1, [], [])
    assert len(certs) == 2
    for cert in certs:
        ok, msg = cert.verify()
        assert ok, msg


def test_verify_smove_synthetic_pair():
    rng = random.Random(42)
    l1 = pres("x y", "x", "y x")
    m = len(l1.relators)
    start = product(l1, l1)
    forward = _random_k_prime_script(rng, [m, m + 1], m, l1.rank, 4)
    moved = replay(start, forward)
    l2 = type(l1)(l1.gens, moved.relators[m:])
    # forward took l1*l1 to l1*l2, so its inverse goes back
    to_first = [invert_script(forward)]
    shifted = MoveScript(tuple(_shift_moves(forward.moves, -m)), "k_prime")
    to_second = [shifted]
    certs = verify_smove_certificates(l1, l2, to_first, to_second)
    assert len(certs) == 2


def _shift_moves(moves, offset):
    out = []
    for mv in moves:
        if isinstance(mv, ConjRel):
            out.append(ConjRel(mv.j + offset, mv.w))
        elif isinstance(mv, InvRel):
            out.append(InvRel(mv.j + offset))
        elif isinstance(mv, RestrictedSlide):
            out.append(RestrictedSlide(mv.j + offset, tuple(
                RSFactor(f.w, f.k + offset, f.sign, f.h) for f in mv.factors)))
        else:
            raise AssertionError(mv)
    return out


def test_verify_smove_rejects_raw_slide():
    l1 = pres("x y", "x", "y")
    bad = MoveScript((SlideRel(2, 0, "right"),), "k_prime")
    with pytest.raises(MoveError, match="violates the k_prime regime"):
        verify_smove_certificates(l1, l1, [bad], [])
    undeclared = MoveScript((InvRel(0),), "full")
    with pytest.raises(RegimeError, match="a k_prime script with a full script"):
        verify_smove_certificates(l1, l1, [undeclared], [])


def test_verify_smove_composes_each_side_once(monkeypatch):
    # each side's scripts are composed into one script, so each move is
    # copied once; adding the scripts one by one would copy every earlier
    # move again for each script, quadratic in the number of script files
    l1 = pres("x y", "x", "y")
    n = 2000
    flips = [MoveScript((InvRel(0),), "k_prime")] * n
    # a trivial relator added and removed again: only a stabilized script may
    flagged = MoveScript((AddTrivialRel(), RemoveTrivialRel(4)), "k_prime", True)
    copied = []
    post_init = MoveScript.__post_init__

    def counted(script):
        post_init(script)
        copied.append(len(script.moves))

    monkeypatch.setattr(MoveScript, "__post_init__", counted)
    first, second = verify_smove_certificates(l1, l1, flips, [flips[0], flagged])
    assert copied == [n, 3]
    assert first.script.moves == (InvRel(0),) * n and not first.script.stabilized
    assert second.script.stabilized
    unflagged = MoveScript(flagged.moves, "k_prime")
    with pytest.raises(MoveError, match="^to_second_self: replay failed: move 2 "
                                        "\\(AddTrivialRel\\) violates the k_prime regime$"):
        verify_smove_certificates(l1, l1, [], [flips[0], unflagged])


def test_verify_smove_wrong_target():
    l1 = pres("x y", "x", "y")
    l2 = pres("x y", "x^2", "y")
    with pytest.raises(MoveError, match="does not reach the right-hand key"):
        verify_smove_certificates(l1, l2, [], [])
