import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from acpair import homology
from acpair.constructions import lustig
from acpair.homology import (AbelianGroup, ChainComplexData, FiniteGroup,
                             GroupRingMatrix, chain_from_json, chain_to_json,
                             check_dyer_bound, cokernel_invariants,
                             determinant, diagonal_of, euler_char_chain,
                             glue_product, gr_mat_mul, homology_at,
                             invariant_factors, load_group_csv, matrix_rank,
                             product_euler, restrict_scalars,
                             smith_normal_form, _echelon)

import chain_reference
import elimination_reference as reference
from chain_fixtures import (GROUP_KINDS, base_complex, cyclic_group,
                            dump_group_csv, mat_mul, permutation_group,
                            presentation_chain, random_gn_fixture,
                            rational_rank, symmetric_group_3, trivial_group)

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
    g = cyclic_group(6)
    assert g.order == 6 and g.identity == 0
    assert g.mul(2, 5) == 1
    assert g.inverses[2] == 4
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
    g2 = cyclic_group(2)
    m = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1, 1: 1}})
    assert restrict_scalars(m, g2) == [[1, 1], [1, 1]]
    assert restrict_scalars(Z(2, 3), g2) == [[0] * 6 for _ in range(4)]
    triv = trivial_group()
    m = GroupRingMatrix.from_entries(2, 2, {(0, 1): {0: 5}, (1, 0): {0: -2}})
    assert restrict_scalars(m, triv) == [[0, 5], [-2, 0]]


def test_restrict_functorial():
    rng = random.Random(50)
    for group in (cyclic_group(3), symmetric_group_3()):
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
    """Independent oracle: Euclid's algorithm by row and column passes,
    without transforms.  Each pass brings the least nonzero |x| of the
    trailing block to the pivot and reduces its column and row by floor
    quotients; a row the cleared pivot does not divide is folded into the
    pivot row.  The remainders shrink on every pass, so it ends."""
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    for t in range(min(rows, cols)):
        while True:
            block = [(abs(m[i][j]), i, j) for i in range(t, rows)
                     for j in range(t, cols) if m[i][j]]
            if not block:
                return diag
            _, i, j = min(block)
            m[t], m[i] = m[i], m[t]
            for row in m:
                row[t], row[j] = row[j], row[t]
            p = m[t][t]
            for r in range(t + 1, rows):
                q = m[r][t] // p
                m[r] = [x - q * y for x, y in zip(m[r], m[t])]
            for c in range(t + 1, cols):
                q = m[t][c] // p
                for row in m:
                    row[c] -= q * row[t]
            if any(m[r][t] for r in range(t + 1, rows)) or any(m[t][t + 1:]):
                continue
            bad = [r for r in range(t + 1, rows) if any(x % p for x in m[r])]
            if not bad:
                diag.append(abs(p))
                break
            m[t] = [x + y for x, y in zip(m[t], m[bad[0]])]
    return diag


def test_snf_known_values():
    # frozen from the naive reduction oracle
    assert invariant_factors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert invariant_factors([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == [1, 3]


def test_snf_against_naive_oracle():
    rng = random.Random(51)
    cases = [random_matrix(rng, max_dim=6, lo=-4, hi=4) for _ in range(150)]
    for a in cases + elimination_cases(rng, dense=(5, 6, 7, 8, 10, 13, 16), sparse=14):
        factors = invariant_factors(a)
        assert factors == naive_diagonalize(a)
        assert matrix_rank(a) == rational_rank(a) == len(factors)


def transform_cases():
    """Random dense matrices, then edge shapes, zero matrices, sparse +-1
    matrices (unit pivots, no divisibility scan), a divisibility fold and
    the elimination cases."""
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
    return cases + elimination_cases(rng, dense=(10, 13, 16), sparse=30)


def test_snf_transforms_random():
    for a in transform_cases():
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


def a5_fox_chains():
    """(A5, the Fox chains of lustig(1)..(4) over it): the homology
    workload's shape, whose d_2 restricts to 180 x 180.  The images r, s
    are involutions and t has order 3, with s and t generating A5, so
    every relator maps to 1."""
    a5 = permutation_group([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])

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
    return a5, [presentation_chain(a5, [r, s, t], lustig(i).relators)
                for i in range(1, 5)]


def test_a5_fox_chains_of_the_benchmark_shape():
    # H_1 and H_2 are frozen values, so an elimination that moves them
    # fails here
    a5, chains = a5_fox_chains()
    for chain in chains:
        assert len(restrict_scalars(chain.boundary(2), a5)) == 180
        h = [homology_at(chain, k) for k in range(3)]
        assert h[0] == AbelianGroup(1, ())
        assert (h[1], h[2]) == (AbelianGroup(43, ()), AbelianGroup(102, ()))
        assert 1 - h[1].free_rank + h[2].free_rank == a5.order


@pytest.fixture
def diagonalize_calls(monkeypatch):
    """(rows, cols) of each call of homology._diagonalize while a test runs."""
    diagonalize, calls = homology._diagonalize, []

    def watched(m, rows, cols):
        calls.append((rows, cols))
        diagonalize(m, rows, cols)

    monkeypatch.setattr(homology, "_diagonalize", watched)
    return calls


def dense_chain(matrix):
    """Trivial-group chain Z^n -> Z^n -> Z with top boundary `matrix`, as
    the dense chains of the homology benchmark."""
    n = len(matrix)
    top = GroupRingMatrix.from_entries(n, n, {(r, c): {0: x} for r, row in enumerate(matrix)
                                              for c, x in enumerate(row)})
    return ChainComplexData(trivial_group(), (1, n, n), (Z(n, 1), top))


def test_homology_runs_the_smith_elimination_only_where_minors_leave_it_open(diagonalize_calls):
    _, chains = a5_fox_chains()
    for chain in chains:  # |D| = 1
        assert homology_at(chain, 1) == AbelianGroup(43, ())
    assert diagonalize_calls == []
    rng = random.Random(62)
    a = [[rng.randint(-5, 5) for _ in range(24)] for _ in range(24)]
    # doubling two columns doubles every 23 x 23 minor, so g is even
    b = [row[:22] + [2 * x for x in row[22:]] for row in a]
    for matrix, stacked in ((a, []), (b, [(48, 24)])):
        minors = []
        _echelon(matrix, minors)
        assert (gcd(*minors) > 1) == bool(stacked)
        factors = reference.invariant_factors(matrix)
        assert homology_at(dense_chain(matrix), 1) == AbelianGroup(
            24 - len(factors), tuple(x for x in factors if x > 1))
        assert diagonalize_calls == stacked
        diagonalize_calls.clear()


def test_eliminations_match_the_dense_reference():
    # the eliminations update rows only over the pivot row's nonzero
    # entries and skip zero rows in the Smith pivot search; the reference
    # copies do neither, and every result must be the same, transforms
    # included.  The counts show that the corpus reaches each branch where
    # work is skipped.
    a5, chains = a5_fox_chains()
    cases = (elimination_cases(random.Random(53), dense=(5, 8, 13, 16), sparse=30)
             + transform_cases() + [[[2, 1], [0, 1], [0, 1]]]
             + [restrict_scalars(chain.boundary(2), a5) for chain in chains])
    branches = Counter()
    for a in cases:
        assert _echelon(a) == reference.echelon(a, branches), a
        assert invariant_factors(a) == reference.invariant_factors(a, branches), a
        assert smith_normal_form(a) == reference.smith_normal_form(a, branches), a
    assert min(branches[b] for b in (
        "echelon p == prev == 1", "echelon p == prev > 1",
        "echelon p != prev, zero x", "smith zero row skipped", "smith fold")) >= 10, branches


def sparse_rows(a):
    """The rows of nonzeros {col: coeff} of a."""
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def sparse_cases(rng):
    """Matrices of 2..14 rows and columns, square in half the cases, of
    densities 0.1..0.7 with entries in +-1, +-2 or +-5; in a third of them
    one row is a combination of two others."""
    cases = []
    for _ in range(800):
        rows = rng.randint(2, 14)
        cols = rows if rng.random() < 0.5 else rng.randint(2, 14)
        density, bound = rng.choice((0.1, 0.2, 0.3, 0.5, 0.7)), rng.choice((1, 2, 5))
        a = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.33:
            i, j, k = rng.sample(range(rows), 3)
            a[i] = [y - rng.choice((1, 2)) * z for y, z in zip(a[j], a[k])]
        cases.append(a)
    return cases


def test_sparse_echelon_matches_the_dense_echelons():
    # the sparse echelon takes the dense echelon's pivots, row order and
    # signs, so its rank, minor and trailing minors are those of _echelon
    # and of the reference, on random sparse matrices and on every A5 Fox
    # boundary.  The counts show that the corpus reaches each branch where
    # the sparse echelon changes its column index or its rows.
    a5, chains = a5_fox_chains()
    cases = sparse_cases(random.Random(81))
    for chain in chains:
        for k in (1, 2):
            d = chain.boundary(k)
            cases.append(restrict_scalars(d, a5))
            assert restrict_scalars(d, a5, sparse=True) == sparse_rows(cases[-1])
    branches = Counter()
    for a in cases:
        sparse, dense, expected = [], [], []
        result = homology._sparse_echelon(sparse_rows(a), len(a[0]), sparse)
        assert result == _echelon(a, dense) == reference.echelon(a, branches, expected), a
        assert sparse == dense == expected, a
    assert min(branches[b] for b in (
        "echelon fill-in", "echelon cancel", "echelon swap", "echelon negated pivot",
        "echelon p != prev, nonzero x", "echelon p != prev, zero x",
        "echelon trailing block")) >= 10, branches


def random_unimodular(rng, n):
    """A unit lower times a unit upper triangular matrix, entries in
    -2..2, with its rows permuted and signed: determinant +-1."""
    lower = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) or (rng.randint(-2, 2) if j > i else 0) for j in range(n)]
             for i in range(n)]
    rows = mat_mul(lower, upper)
    rng.shuffle(rows)
    return [[x * sign for x in row] for row, sign in zip(rows, rng.choices((1, -1), k=n))]


def with_factors(rng, diag, rows, cols):
    """U * D * V for random unimodular U and V, where D is rows x cols
    with `diag` down its diagonal: a matrix whose invariant factors are
    the nonzero entries of `diag`, a divisibility chain."""
    d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
         for i in range(rows)]
    return mat_mul(mat_mul(random_unimodular(rng, rows), d), random_unimodular(rng, cols))


def factor_cases(rng):
    """(kind, matrix, factors): square matrices U * diag(s) * V of known
    invariant factors for every rule of homology._invariant_factors, then
    rectangular and 1 x 1 ones."""
    cases = []

    def add(kind, diag, rows=None, cols=None, scale=1):
        rows = rows or len(diag)
        a = with_factors(rng, diag, rows, cols or rows)
        cases.append((kind, [[scale * x for x in row] for row in a],
                      [abs(scale) * x for x in diag if x]))

    for i in range(40):
        n = rng.randint(2, 7)
        if i < 10:
            add("unimodular", [1] * n)
        add("cyclic", [1] * (n - 1) + [rng.randint(2, 40)])
        q = rng.choice((2, 3, 6))
        add("s_{n-1} in {2, 3, 6}", [1] * (n - 2) + [q, q * rng.randint(1, 5)])
    for _ in range(20):
        n = rng.randint(3, 7)
        q = rng.choice((2, 3))
        add("repeated", [1] * (n - 3) + [q, q, q * rng.choice((1, 2, 5))])
        add("scaled", [1] * (n - 1) + [rng.randint(1, 9)], scale=rng.choice((2, 3, -2)))
        zeros = rng.randint(1, n - 1)
        add("singular", [1] * (n - zeros - 1) + [rng.choice((1, 2, 4))] + [0] * zeros)
        rows, cols = rng.sample(range(1, 8), 2)
        add("rectangular", [1] * (min(rows, cols) - 1) + [rng.randint(0, 6)], rows, cols)
    return cases + [("1 x 1", [[x]], [abs(x)] if x else []) for x in range(-12, 13)]


def test_invariant_factors_from_minors_match_the_reference(diagonalize_calls):
    # each matrix is U * diag(s) * V or 1 x 1, so its factors are known
    # twice over: from s and from the dense reference.  _diagonalize is watched to
    # tell the rules apart: no call for |D| = 1 or g = 1, one on
    # [A mod g; g * I] (2n x n) for g > 1, one on the bare matrix else.
    branches, kinds = Counter(), Counter()
    for kind, a, expected in factor_cases(random.Random(61)):
        diagonalize_calls.clear()
        factors = invariant_factors(a)
        assert factors == expected == reference.invariant_factors(a), (kind, a)
        rows, cols = len(a), len(a[0])
        rank, minor = reference.echelon(a)
        if rows == cols and abs(minor) == 1:
            branch = "|D| = 1"
            assert not diagonalize_calls
        elif rows == cols and rank == rows:
            branch = "g > 1" if diagonalize_calls else "g = 1"
            assert diagonalize_calls in ([], [(2 * rows, rows)]), (kind, a)
        else:
            branch = "smith"
            assert diagonalize_calls == [(rows, cols)], (kind, a)
        branches[branch] += 1
        kinds[kind, branch] += 1
    assert min(branches[b] for b in ("|D| = 1", "g = 1", "g > 1", "smith")) >= 10, branches
    assert kinds["s_{n-1} in {2, 3, 6}", "g > 1"] == 40, kinds


def test_invariant_factors_of_sparse_rows_follow_the_same_rules(diagonalize_calls):
    # rows of nonzeros go through the sparse echelon, and to the Smith
    # elimination as lists, under every rule of _invariant_factors
    rules = Counter()
    for kind, a, expected in factor_cases(random.Random(61)):
        diagonalize_calls.clear()
        assert homology._invariant_factors(sparse_rows(a), len(a[0])) == expected, (kind, a)
        rules["echelon only" if not diagonalize_calls else
              "bare" if diagonalize_calls == [(len(a), len(a[0]))] else "mod g"] += 1
    assert min(rules.values()) >= 10 and len(rules) == 3, rules


def test_packing_round_trips_through_64_bit_slots():
    big = (1 << 63) - 1
    for values in ([], [0], [1, 0, homology._P - 1, big], [big, big, 0, 1],
                   [homology._P - 1] * 5 + [0] * 3):
        packed = homology._pack(values)
        assert packed == sum(v << (64 * i) for i, v in enumerate(values))
        assert homology._unpack(packed, len(values)) == tuple(values)


def rank_cases(rng):
    """Matrices of 1..12 rows and columns, wide, tall and square, of
    densities 0..1, with entries in +-6 or +-10**30, some with a zero row
    or column and some with a row that is a combination of others."""
    cases = []
    for _ in range(4000):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        bound, density = rng.choice((6, 10 ** 30)), rng.random()
        a = [[rng.randint(-bound, bound) if rng.random() < density else 0
              for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.2:
            a[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.2:
            c = rng.randrange(cols)
            for row in a:
                row[c] = 0
        if rows > 1 and rng.random() < 0.4:
            weights = [rng.randint(-3, 3) for _ in range(rows - 1)]
            a[-1] = [sum(w * x for w, x in zip(weights, col)) for col in zip(*a[:-1])]
        cases.append(a)
    return cases


def test_rank_mod_p_against_the_echelon():
    # a rank modulo P never exceeds the rank over Q, and _rank, which takes
    # a full rank modulo P as the answer, must agree with the echelon
    routes = Counter()
    for a in rank_cases(random.Random(71)):
        rank = _echelon(a)[0]
        nonzeros = sum(x != 0 for row in a for x in row)
        modular = homology._rank_mod_p(a)
        assert modular <= rank, a
        assert homology._rank(a, nonzeros) == rank, a
        dense = 2 * nonzeros > len(a) * len(a[0])
        routes[dense, rank == min(len(a), len(a[0]))] += 1
    assert min(routes.values()) >= 200 and len(routes) == 4, routes


@pytest.fixture
def rank_calls(monkeypatch):
    """Names of the calls of homology._rank_mod_p, homology._echelon and
    homology._sparse_echelon while a test runs."""
    calls = []
    for name in ("_rank_mod_p", "_echelon", "_sparse_echelon"):
        def watched(*args, _name=name, _f=getattr(homology, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(homology, name, watched)
    return calls


def test_rank_falls_back_to_the_echelon_where_p_divides_the_determinant(rank_calls):
    # U * diag(P, 1, .., 1) * V is nonsingular, but singular modulo P
    rng = random.Random(72)
    for n in range(8, 17):
        a = with_factors(rng, [homology._P] + [1] * (n - 1), n, n)
        nonzeros = sum(x != 0 for row in a for x in row)
        assert 2 * nonzeros > n * n and abs(determinant(a)) == homology._P
        assert homology._rank_mod_p(a) == n - 1
        rank_calls.clear()
        assert homology._rank(a, nonzeros) == n
        assert rank_calls == ["_rank_mod_p", "_echelon"]


def test_homology_takes_the_rank_modulo_p_only_for_dense_boundaries(rank_calls):
    # an A5 Fox boundary has 780 of its 32,400 entries nonzero and rank 78:
    # the sparse echelon alone, for the rank of d_k and for the minors of
    # the square d_{k+1}; a dense full-rank top boundary needs no echelon
    _, chains = a5_fox_chains()
    for chain in chains:
        for k in (1, 2):
            homology_at(chain, k)
    assert rank_calls == ["_sparse_echelon"] * 12  # three per chain
    rng = random.Random(73)
    matrix = [[rng.randint(-5, 5) for _ in range(24)] for _ in range(24)]
    rank_calls.clear()
    assert homology_at(dense_chain(matrix), 2) == AbelianGroup(0, ())
    assert rank_calls == ["_rank_mod_p"]


@pytest.mark.parametrize("entry", [1.5, 0.5, 2.0, Fraction(3, 2), True, "1", None])
@pytest.mark.parametrize("elimination", [
    determinant, matrix_rank, invariant_factors, smith_normal_form,
    lambda a: cokernel_invariants(a, 2)])
def test_eliminations_refuse_entries_that_are_not_ints(elimination, entry):
    # int() made det [[1.5]] == 1, rank [[0.5]] == 0 and det [[3/2, 0],
    # [0, 2]] == 2 where it is 3, and invariant_factors [[1.5]] was [1.5];
    # a bool is refused as json_int refuses it
    message = re.escape(f"a matrix entry must be an integer, not {entry!r}")
    for a in ([[entry]], [[entry, 0], [0, 2]]):
        with pytest.raises(ValueError, match=message):
            elimination(a)



@pytest.mark.parametrize("elimination", [
    matrix_rank, invariant_factors, smith_normal_form, lambda a: cokernel_invariants(a, 2)])
def test_eliminations_refuse_ragged_rows(elimination):
    # invariant_factors([[1], [2, 3]]) was [1], and matrix_rank([[1, 2], [3]])
    # raised IndexError
    for a in ([[1], [2, 3]], [[1, 2], [3]], [[0, 0], []]):
        with pytest.raises(ValueError, match="rows differ in length"):
            elimination(a)


def test_cokernel_refuses_rows_outside_the_ambient_rank():
    # cokernel_invariants([[1, 0, 0]], 2) was Z
    for a, ambient in (([[1, 0, 0]], 2), ([[1]], 2), ([[2, 0], [0, 3]], 3)):
        with pytest.raises(ValueError, match=f"do not lie in Z\\^{ambient}"):
            cokernel_invariants(a, ambient)


def test_eliminations_take_int_tuples():
    a = ((3, 0), (0, 2))
    assert determinant(a) == 6 and matrix_rank(a) == 2 and invariant_factors(a) == [1, 6]
    assert smith_normal_form(a)[0] == [[1, 0], [0, 6]]


def test_cokernel_invariants():
    assert cokernel_invariants([[2, 0], [0, 3]], 2) == AbelianGroup(0, (6,))
    assert cokernel_invariants([], 3) == AbelianGroup(3, ())
    assert cokernel_invariants([[1, 0]], 2) == AbelianGroup(1, ())


def test_abelian_group_str():
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(1, ())) == "Z"
    assert str(AbelianGroup(2, (2, 6))) == "Z^2 x C2 x C6"
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 6))  # 4 does not divide 6


# -- chain complexes ----------------------------------------------------------


def test_chain_validation():
    triv = trivial_group()
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
    g3 = cyclic_group(3)
    c = ChainComplexData(g3, (1, 1), (Z(1, 1),))
    assert homology_at(c, 0) == AbelianGroup(3, ())
    triv = trivial_group()
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
    triv = trivial_group()
    d3 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1}})
    c1 = ChainComplexData(triv, (1, 0, 1, 1), (Z(0, 1), Z(1, 0), d3))
    assert homology_at(c1, 2).is_trivial
    glued = glue_product(c1, c1)
    assert glued.ranks == (1, 0, 1, 2)
    assert glued.boundary(3).entries == {(0, 0): {0: 1}, (1, 0): {0: 1}}
    assert homology_at(glued, 2).is_trivial
    empty_top = ChainComplexData(triv, (1, 0, 1, 0), (Z(0, 1), Z(1, 0), Z(0, 1)))
    same = glue_product(c1, empty_top)
    assert same.ranks == c1.ranks
    assert same.boundaries == c1.boundaries


def test_glue_skeleton_mismatch():
    triv = trivial_group()
    d3 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: 1}})
    c1 = ChainComplexData(triv, (1, 0, 1, 1), (Z(0, 1), Z(1, 0), d3))
    other = ChainComplexData(triv, (1, 1, 1, 1),
                             (Z(1, 1), Z(1, 1), d3))
    with pytest.raises(ValueError):
        glue_product(c1, other)


def _one_cell_chain(group, entry):
    """Ranks (1, 1, 0) over group, d_1 = (entry) at the identity."""
    d1 = GroupRingMatrix.from_entries(1, 1, {(0, 0): {0: entry}})
    return ChainComplexData(group, (1, 1, 0), (d1, Z(0, 1)))


@pytest.mark.parametrize("build, message", [
    (lambda: GroupRingMatrix.from_entries(1, 2, {(1, 0): {0: 1}}),
     r"entry position \(1, 0\) out of range"),
    (lambda: gr_mat_mul(Z(1, 2), Z(1, 1), trivial_group()), "shape mismatch"),
    (lambda: AbelianGroup(-1, ()), "negative free rank"),
    (lambda: AbelianGroup(0, (1,)), "torsion coefficients must exceed 1"),
    (lambda: ChainComplexData(trivial_group(), (0, 1), (Z(1, 0),)),
     "need rank_0 >= 1"),
    (lambda: ChainComplexData(trivial_group(), (1, 1), (Z(1, 2),)),
     r"boundary 1 has shape \(1, 2\), expected \(1, 1\)"),
    (lambda: ChainComplexData(trivial_group(), (1, 1), (
        GroupRingMatrix.from_entries(1, 1, {(0, 0): {1: 1}}),)),
     "group element index 1 out of range"),
    (lambda: glue_product(_one_cell_chain(trivial_group(), 2),
                          _one_cell_chain(trivial_group(), 3)),
     "lower skeleton boundary mismatch"),
    (lambda: product_euler(_one_cell_chain(trivial_group(), 2),
                           _one_cell_chain(cyclic_group(2), 2)),
     "complexes not gluable"),
    (lambda: check_dyer_bound(_one_cell_chain(trivial_group(), 2),
                              _one_cell_chain(trivial_group(), 2),
                              _one_cell_chain(cyclic_group(2), 2)),
     "complexes not comparable"),
])
def test_homology_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_euler_and_dyer():
    triv = trivial_group()
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


def valid_chain_file(rng) -> dict:
    """The chain file of a random fixture over one of the small groups, with
    some entries split in two on one (k, r, col, elem), cancelling pairs and
    zero terms added anywhere in range, and its entries mostly shuffled."""
    c = random_gn_fixture(rng.choice(GROUP_KINDS), rng.randint(2, 3), rng)
    data = chain_to_json(c)
    entries, ranks, order = data["entries"], c.ranks, c.group.order
    for entry in list(entries):
        if rng.random() < 0.2:
            part = rng.randint(-3, 3)
            entries.append(entry[:4] + [part])
            entry[4] -= part
    for _ in range(rng.randint(0, 3)):
        k = rng.randint(1, c.top_dim)
        if ranks[k] and ranks[k - 1]:
            at = [k, rng.randrange(ranks[k]), rng.randrange(ranks[k - 1])]
            elem, x = rng.randrange(order), rng.randint(1, 3)
            # a pair that cancels, and a zero term, which are dropped
            entries += [at + [elem, x], at + [elem, -x]]
            if rng.random() < 0.5:
                entries.append(at + [rng.choice((elem, rng.randrange(order))), 0])
    if rng.random() < 0.8:
        rng.shuffle(entries)
    return data


def _bad_entry(rng, data, kind: str) -> None:
    """Spoil one entry of data in the way kind names."""
    entries, n, ranks = data["entries"], data["n"], data["ranks"]
    i = rng.choice([i for i, e in enumerate(entries) if type(e) is list and len(e) == 5
                    and all(type(x) is int for x in e) and 1 <= e[0] <= n])
    entry = entries[i]
    k = entry[0]
    if kind == "k":
        entry[0] = rng.choice((0, -1, n + 1, n + 7))
    elif kind == "position":
        if rng.random() < 0.5:
            entry[1] = rng.choice((-1, ranks[k], ranks[k] + 3))
        else:
            entry[2] = rng.choice((-2, ranks[k - 1], ranks[k - 1] + 1))
    elif kind == "element":
        entry[3] = rng.choice((-1, len(data["group"]["table"]), 99))
        entry[4] = rng.choice((1, -2, 5))
    elif kind == "zero element":  # a zero term or a cancelling pair
        bad = entry[:3] + [rng.choice((-1, len(data["group"]["table"]), 99))]
        x = rng.choice((0, 1, -3))
        entries[i:i] = [bad + [x]] if x == 0 else [bad + [x], bad + [-x]]
    elif kind == "4 fields":
        del entry[rng.randrange(5)]
    elif kind == "6 fields":
        entry.insert(rng.randrange(6), rng.choice((0, 1, 7, True)))
    elif kind in ("bool", "float", "str", "null", "list"):
        entry[rng.randrange(5)] = rng.choice({
            "bool": (True, False), "float": (1.0, 0.5, -2.0), "str": ("1", "", "x"),
            "null": (None,), "list": ([1], [], [0, 0])}[kind])
    else:  # not a list
        entries[i] = rng.choice((5, "abcde", None, {"k": 1}, {}, 1.5))


def _bad_table(rng, data, kind: str) -> None:
    """Spoil the group table of data in the way kind names; the table has
    at least 3 elements for all but the first three kinds."""
    table = data["group"]["table"]
    order, e = len(table), data["group"]["identity"]
    a, b = rng.sample([x for x in range(order) if x != e], 2) if order > 2 else (0, 0)
    if kind == "non-square":
        row = rng.choice(table)
        row.pop() if rng.random() < 0.5 else row.append(0)
    elif kind == "range":
        rng.choice(table)[rng.randrange(order)] = rng.choice((-1, order))
    elif kind == "type":
        rng.choice(table)[rng.randrange(order)] = rng.choice((True, 1.0, "0", None))
    elif kind == "identity":  # swap two values throughout
        data["group"]["table"] = [[b if x == a else a if x == b else x for x in row]
                                  for row in table]
    elif kind == "inverse":  # a second identity in rows a and b
        if table[a][b] == e:
            b = table[a].index(rng.choice([x for x in table[a] if x != e]))
        table[a][b] = table[b][a] = e
    else:  # one product changed to another element that is not the identity
        if kind == "product":
            b = rng.choice([x for x in range(order) if x != e])
        else:  # by the first generator, which breaks the subgroups it generates
            b = min(x for x in range(order) if x != e)
        table[a][b] = rng.choice([x for x in range(order) if x not in (e, table[a][b])])


def test_chain_loader_matches_entry_by_entry_reference():
    # each load, valid or not, gives the reference's complex, with its
    # entries in the same order, or its exception type and message; the
    # counts show that the corpus reaches every branch of the reference
    rng = random.Random(71)

    def outcome(loader, data):
        try:
            c = loader(json.loads(json.dumps(data)))
        except (ValueError, TypeError, KeyError, IndexError) as e:
            return type(e), str(e)
        return c, chain_to_json(c)

    branches = Counter()
    corpus = [valid_chain_file(rng) for _ in range(150)]
    kinds = ("k", "position", "element", "zero element", "4 fields", "6 fields", "bool",
             "float", "str", "null", "list", "not a list")
    for kind in kinds * 20:
        data = valid_chain_file(rng)
        _bad_entry(rng, data, kind)
        # more spoiled entries: the first in file order, or in sorted order
        # for positions and elements, is the one reported
        for _ in range(min(rng.choice((0, 1, 2)), len(data["entries"]) - 1)):
            _bad_entry(rng, data, rng.choice((kind, kind, rng.choice(kinds))))
        corpus.append(data)
    for kind in ("non-square", "range", "type", "identity", "inverse", "product",
                 "generator") * 25:
        data = valid_chain_file(rng)
        while len(data["group"]["table"]) < 3 and kind not in ("non-square", "range", "type"):
            data = valid_chain_file(rng)
        _bad_table(rng, data, kind)
        corpus.append(data)
    for _ in range(20):
        data = valid_chain_file(rng)
        data["ranks"][-1] = rng.choice((10 ** 6, 2 ** 18 + 1))
        corpus.append(data)
        data = valid_chain_file(rng)
        k = rng.randint(1, data["n"])
        data["entries"].append([k, 0, 0, 0, rng.randint(1, 3)])
        corpus.append(data)
    for data in corpus:
        assert (outcome(chain_from_json, data)
                == outcome(lambda d: chain_reference.chain_from_json(d, branches), data)), data
    assert min(branches[b] for b in (
        "valid", "unsorted", "merged", "cancelled", "several boundaries",
        "k out of range", "position out of range", "element out of range",
        "element out of range in a zero term",
        "4 fields", "6 fields", "bool field", "float field", "str field",
        "NoneType field", "list field", "not a list", "non-square",
        "table entry out of range", "no identity", "no unique inverse",
        "not associative", "not a group", "cell bound",
        "boundary condition")) >= 10, branches
