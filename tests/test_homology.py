import json
import random

import pytest

from acpair.constructions import lustig
from acpair.homology import (AbelianGroup, ChainComplexData, FiniteGroup,
                             GroupRingMatrix, chain_from_json, chain_to_json,
                             check_dyer_bound, cokernel_invariants,
                             determinant, diagonal_of, dump_group_csv,
                             euler_char_chain, glue_product, gr_mat_mul,
                             homology_at, invariant_factors, load_group_csv,
                             mat_mul, matrix_rank, product_euler,
                             rational_rank, restrict_scalars,
                             smith_normal_form, symmetric_group_3)

from chain_fixtures import (GROUP_KINDS, base_complex, presentation_chain,
                            random_gn_fixture)

Z = GroupRingMatrix.zero


def random_matrix(rng, max_dim=12, lo=-5, hi=5):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def elimination_cases(rng, dense, sparse):
    """Inputs that stress each elimination: dense +-5 squares of the given
    sides (many Euclid rounds, a non-unit last factor), sparse +-1
    rectangles up to sparse x sparse short of full rank, zero leading
    columns (the echelon skips them) and diagonals that force the
    divisibility fold."""
    cases = [[[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
             for n in dense]
    for _ in range(6):
        rows, cols = rng.randint(2, sparse), rng.randint(2, sparse)
        base = [[rng.choice((0, 0, 0, 0, 1, -1)) for _ in range(cols)]
                for _ in range(rng.randint(1, min(rows, cols) - 1))]
        cases.append([[x * rng.choice((1, -1)) for x in rng.choice(base)]
                      for _ in range(rows)])
    for _ in range(6):
        zeros = rng.randint(1, 3)
        cases.append([[0] * zeros + row for row in random_matrix(rng, max_dim=7)])
    cases += [[[4, 0, 0], [0, 6, 0], [0, 0, 10]], [[9, 0], [0, 6]],
              [[0, 0, 0, 15], [0, 0, 10, 0], [0, 6, 0, 0]]]
    return cases


# -- groups -------------------------------------------------------------------


def test_group_validation():
    g = FiniteGroup.cyclic(6)
    assert g.order == 6 and g.identity == 0
    assert g.mul(2, 5) == 1
    assert g.inv(2) == 4
    with pytest.raises(ValueError):
        FiniteGroup.from_table([[0, 1], [1, 1]])
    # Z_128 with one wrong entry: 2 + 3 = 7 is found although no identity or
    # inverse check sees it.
    z128 = [[(a + b) % 128 for b in range(128)] for a in range(128)]
    z128[2][3] = 7
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup.from_table(z128)
    # Z_3 on {0, 1, 2} and two self-inverse elements: adding 3 to the
    # generated Z_3 gives 4 elements, not a multiple of 3.
    with pytest.raises(ValueError, match="not a group"):
        FiniteGroup.from_table([[0, 1, 2, 3, 4], [1, 2, 0, 3, 3],
                                [2, 0, 1, 3, 3], [3, 3, 3, 0, 3],
                                [4, 3, 3, 3, 0]])


def test_symmetric_group_3():
    g = symmetric_group_3()
    assert g.order == 6
    noncomm = any(g.mul(a, b) != g.mul(b, a)
                  for a in range(6) for b in range(6))
    assert noncomm


def test_group_csv_roundtrip():
    g = symmetric_group_3()
    assert load_group_csv(dump_group_csv(g)) == g


@pytest.mark.parametrize("cell", ["0_0", "1_0", " 1", "+1", "-0", "1.0", ""])
def test_group_csv_cells_are_plain_digits(cell):
    # int() would read 0_0 as 0, 1_0 as 10, and " 1" and +1 as 1
    with pytest.raises(ValueError, match="plain decimal integer"):
        load_group_csv(f"2,0\n0,1\n1,{cell}\n")


# -- restrict_scalars ---------------------------------------------------------


def test_restrict_examples():
    g2 = FiniteGroup.cyclic(2)
    m = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1, 1: 1}})
    assert restrict_scalars(m, g2) == [[1, 1], [1, 1]]
    assert restrict_scalars(Z(2, 3), g2) == [[0] * 6 for _ in range(4)]
    triv = FiniteGroup.trivial()
    m = GroupRingMatrix.from_entries(2, 2, {(0, 1): {0: 5}, (1, 0): {0: -2}})
    assert restrict_scalars(m, triv) == [[0, 5], [-2, 0]]


def test_restrict_functorial():
    rng = random.Random(50)
    for group in (FiniteGroup.cyclic(3), symmetric_group_3()):
        for _ in range(20):
            a, b, c = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)

            def rand_mat(rows, cols):
                entries = {}
                for r in range(rows):
                    for co in range(cols):
                        if rng.random() < 0.6:
                            cell = {rng.randrange(group.order): rng.randint(-2, 2)
                                    for _ in range(rng.randint(1, 2))}
                            cell = {g: v for g, v in cell.items() if v}
                            if cell:
                                entries[(r, co)] = cell
                return GroupRingMatrix.from_entries(rows, cols, entries)

            m, n = rand_mat(a, b), rand_mat(b, c)
            left = restrict_scalars(gr_mat_mul(m, n, group), group)
            right = mat_mul(restrict_scalars(m, group), restrict_scalars(n, group))
            assert left == right


# -- Smith normal form --------------------------------------------------------


def test_snf_examples():
    d, u, v = smith_normal_form([[2, 0], [0, 3]])
    assert diagonal_of(d) == [1, 6]
    assert mat_mul(mat_mul(u, [[2, 0], [0, 3]]), v) == d
    d, _, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diagonal_of(d) == [0, 0]
    d, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert diagonal_of(d) == [1, 1]


def naive_diagonalize(a):
    """Independent oracle: gcd row/column reduction without transforms."""
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    t = 0
    while True:
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (pivot is None or
                                     abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        m[t], m[i] = m[i], m[t]
        for r in range(rows):
            m[r][t], m[r][j] = m[r][j], m[r][t]
        progress = True
        while progress:
            progress = False
            for r in range(t + 1, rows):
                if m[r][t] != 0:
                    q = m[r][t] // m[t][t]
                    m[r] = [x - q * y for x, y in zip(m[r], m[t])]
                    if m[r][t] != 0:
                        m[t], m[r] = m[r], m[t]
                        progress = True
            for c in range(t + 1, cols):
                if m[t][c] != 0:
                    q = m[t][c] // m[t][t]
                    for r in range(rows):
                        m[r][c] -= q * m[r][t]
                    if m[t][c] != 0:
                        for r in range(rows):
                            m[r][t], m[r][c] = m[r][c], m[r][t]
                        progress = True
        t += 1
        if t >= min(rows, cols):
            break
    import math
    diag = sorted((abs(m[i][i]) for i in range(min(rows, cols))
                   if m[i][i] != 0))
    # fix divisibility by invariant-factor arithmetic on the multiset
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            lcm = diag[i] * diag[j] // g if g else 0
            diag[i], diag[j] = g, lcm
        diag = diag[:i + 1] + sorted(diag[i + 1:])
    return [d for d in diag if d != 0]


def test_snf_known_values():
    # frozen from the naive reduction oracle
    assert invariant_factors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert invariant_factors([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == [1, 3]


def test_snf_against_naive_oracle():
    rng = random.Random(51)
    # the oracle does not finish on dense squares past 7 x 7, so
    # test_snf_transforms_random takes the larger ones, where u*a*v = d
    # with unimodular u, v and a divisibility chain pins the Smith form
    cases = [random_matrix(rng, max_dim=6, lo=-4, hi=4) for _ in range(150)]
    for a in cases + elimination_cases(rng, dense=(5, 6, 7), sparse=14):
        factors = invariant_factors(a)
        assert factors == naive_diagonalize(a)
        assert matrix_rank(a) == rational_rank(a) == len(factors)


def test_snf_transforms_random():
    # random dense matrices, then edge shapes, zero matrices, sparse +-1
    # matrices (unit pivots, no divisibility scan) and a divisibility fold
    rng = random.Random(52)
    cases = [random_matrix(rng, max_dim=8) for _ in range(100)]
    cases += [[], [[0] * 5], [[0]] * 4, [[0, 0, 0]] * 3, [[2, 0], [0, 3]]]
    for _ in range(20):
        n = rng.randint(1, 8)
        cases += [[[rng.randint(-5, 5) for _ in range(n)]],
                  [[rng.randint(-5, 5)] for _ in range(n)]]
    for _ in range(30):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        cases.append([[rng.choice((0, 0, 0, 1, -1)) for _ in range(cols)]
                      for _ in range(rows)])
    for a in cases + elimination_cases(rng, dense=(10, 13, 16), sparse=30):
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = [x for x in diagonal_of(d) if x != 0]
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        assert invariant_factors(a) == diag
        assert matrix_rank(a) == rational_rank(a) == len(diag)
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 2, 60]


def cofactor_determinant(a):
    """Independent oracle: Laplace expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * x * cofactor_determinant([row[:j] + row[j + 1:] for row in a[1:]])
               for j, x in enumerate(a[0]) if x)


def test_determinant_against_cofactor_expansion():
    # random squares up to 6 x 6, then singular ones (a repeated or scaled
    # row, a zero column) and ones whose elimination needs row swaps (a
    # zero corner) and negative pivots (all entries negative)
    rng = random.Random(57)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 6)
        cases.append([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
    for kind in list(range(4)) * 5:
        n = rng.randint(2, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice((-2, 1, 3))
            a[i] = [c * x for x in a[j]]
        elif kind == 1:
            for row in a:
                row[j] = 0
        elif kind == 2:
            a[0][0] = 0
        else:
            a = [[-rng.randint(1, 5) for _ in range(n)] for _ in range(n)]
        cases.append(a)
    cases += [[[0, 1], [1, 0]], [[0, 0, 2], [0, 3, 0], [5, 0, 0]], [[-2]]]
    singular = 0
    for a in cases:
        det = cofactor_determinant(a)
        assert determinant(a) == det, a
        singular += det == 0
    assert singular >= 10
    assert determinant([]) == 1
    with pytest.raises(ValueError, match="non-square"):
        determinant([[1, 2]])


def test_a5_fox_chains_of_the_benchmark_shape():
    # the homology workload's shape: Fox chains of lustig(1)..(4) over A5,
    # whose d_2 restricts to 180 x 180; images r, s involutions and t of
    # order 3, with s and t generating A5, so every relator maps to 1.
    # H_1 and H_2 are frozen values, so an elimination that moves them
    # fails here.
    a5 = FiniteGroup.from_permutations([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])

    def order(g):
        k, x = 1, g
        while x != a5.identity:
            k, x = k + 1, a5.mul(x, g)
        return k

    def generates(gens):
        reached, frontier = {a5.identity}, [a5.identity]
        for x in frontier:  # grows while it is walked
            for y in (a5.mul(x, g) for g in gens):
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        return len(reached) == a5.order

    involutions = [g for g in range(a5.order) if order(g) == 2]
    s, t = next((s, t) for s in involutions for t in range(a5.order)
                if order(t) == 3 and generates((s, t)))
    r = next(g for g in involutions if g != s)
    for i in range(1, 5):
        chain = presentation_chain(a5, [r, s, t], lustig(i).relators)
        assert len(restrict_scalars(chain.boundary(2), a5)) == 180
        h = [homology_at(chain, k) for k in range(3)]
        assert h[0] == AbelianGroup(1, ())
        assert (h[1], h[2]) == (AbelianGroup(43, ()), AbelianGroup(102, ()))
        assert 1 - h[1].free_rank + h[2].free_rank == a5.order


def test_cokernel_invariants():
    assert cokernel_invariants([[2, 0], [0, 3]], 2) == AbelianGroup(0, (6,))
    assert cokernel_invariants([], 3) == AbelianGroup(3, ())
    assert cokernel_invariants([[1, 0]], 2) == AbelianGroup(1, ())


def test_abelian_group_str():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(2, (2, 6))) == "Z^2 x C2 x C6"
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))  # 4 does not divide 6


# -- chain complexes ----------------------------------------------------------


def test_chain_validation():
    triv = FiniteGroup.trivial()
    good = ChainComplexData(triv, (1, 1),
                            (GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 2}}),))
    assert good.top_dim == 1
    with pytest.raises(ValueError):
        ChainComplexData(triv, (1, 1), ())
    d1 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1}})
    d2 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1}})
    with pytest.raises(ValueError):
        ChainComplexData(triv, (1, 1, 1), (d1, d2))  # d1 o d2 = 1 != 0


def test_homology_examples():
    g3 = FiniteGroup.cyclic(3)
    c = ChainComplexData(g3, (1, 1), (Z(1, 1),))
    assert homology_at(c, 0) == AbelianGroup(3, ())
    triv = FiniteGroup.trivial()
    c2 = ChainComplexData(triv, (1, 1),
                          (GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 2}}),))
    assert homology_at(c2, 0) == AbelianGroup(0, (2,))
    assert homology_at(c2, 1) == AbelianGroup(0, ())
    with pytest.raises(ValueError):
        homology_at(c2, 2)


def test_presentation_complex_homology():
    # universal cover of a presentation complex: H_0 = Z, H_1 = 0
    for kind in GROUP_KINDS:
        chain = base_complex(kind)
        assert homology_at(chain, 0) == AbelianGroup(1, ()), kind
        assert homology_at(chain, 1).is_trivial, kind


def test_glue_example():
    triv = FiniteGroup.trivial()
    d3 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1}})
    c1 = ChainComplexData(triv, (1, 0, 1, 1), (Z(0, 1), Z(1, 0), d3))
    assert homology_at(c1, 2).is_trivial
    glued = glue_product(c1, c1)
    assert glued.ranks == (1, 0, 1, 2)
    assert glued.boundary(3).as_dict() == {(0, 0): {0: 1}, (1, 0): {0: 1}}
    assert homology_at(glued, 2).is_trivial
    empty_top = ChainComplexData(triv, (1, 0, 1, 0), (Z(0, 1), Z(1, 0), Z(0, 1)))
    same = glue_product(c1, empty_top)
    assert same.ranks == c1.ranks
    assert same.boundaries == c1.boundaries


def test_glue_skeleton_mismatch():
    triv = FiniteGroup.trivial()
    d3 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1}})
    c1 = ChainComplexData(triv, (1, 0, 1, 1), (Z(0, 1), Z(1, 0), d3))
    other = ChainComplexData(triv, (1, 1, 1, 1),
                             (Z(1, 1), Z(1, 1), d3))
    with pytest.raises(ValueError):
        glue_product(c1, other)


def test_euler_and_dyer():
    triv = FiniteGroup.trivial()
    d3 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1}})
    c1 = ChainComplexData(triv, (1, 0, 1, 1), (Z(0, 1), Z(1, 0), d3))
    assert euler_char_chain(c1) == 1
    glued = glue_product(c1, c1)
    assert euler_char_chain(glued) == 0
    assert product_euler(c1, c1) == 0
    # dyer bound: equality case is accepted, mismatched chi rejected
    big = glue_product(glued, glue_product(c1, c1))
    assert check_dyer_bound(glued, glued, big) == (
        (-1) ** 3 * euler_char_chain(glued) >= 2 + (-1) ** 3 * euler_char_chain(big))
    assert not check_dyer_bound(c1, glued, glued)


def test_dyer_bound_inclusive_boundary():
    rng = random.Random(53)
    # n = 3: the signed bound compares top cell counts; two extra top cells
    # on both sides is exactly the boundary case, and >= is inclusive
    c1 = random_gn_fixture("c2", 3, rng, extra_rows=4)
    c0 = random_gn_fixture("c2", 3, rng, extra_rows=2)
    assert c1.ranks[3] - c0.ranks[3] == 2
    assert -euler_char_chain(c1) == 2 + -euler_char_chain(c0)
    assert check_dyer_bound(c1, c1, c0)
    assert not check_dyer_bound(c0, c0, c1)


def test_gn_fixtures_defining_property():
    rng = random.Random(54)
    for kind in ("trivial", "c2", "s3"):
        for n in (3, 4):
            c = random_gn_fixture(kind, n, rng)
            for k in range(2, n):
                assert homology_at(c, k).is_trivial
            assert c.ranks[n] >= 2


def test_glue_vanishing_random():
    rng = random.Random(55)
    for kind in ("c3", "c4", "s3"):
        for n in (3, 4):
            c1 = random_gn_fixture(kind, n, rng)
            c2 = random_gn_fixture(kind, n, rng)
            glued = glue_product(c1, c2)
            assert homology_at(glued, n - 1).is_trivial
            assert euler_char_chain(glued) == product_euler(c1, c2)


def test_chain_json_roundtrip():
    rng = random.Random(56)
    c = random_gn_fixture("s3", 3, rng)
    data = json.loads(json.dumps(chain_to_json(c)))
    again = chain_from_json(data)
    assert again == c
