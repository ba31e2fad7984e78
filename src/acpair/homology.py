"""Exact integer linear algebra and chain-level homology over group rings.

Matrices are plain lists of lists of ints.  Two exact eliminations serve
them.  Ranks and determinants come from a fraction-free (Bareiss)
echelon that pivots in each column on the least nonzero absolute value,
made positive.  Invariant factors and transforms come from a Smith
elimination that pivots once per diagonal position on the least nonzero
absolute value of the trailing block, then runs Euclid with
nearest-integer quotients.  ``smith_normal_form`` runs it on the matrix
bordered by identity blocks, which then hold the unimodular transforms;
invariant factors and homology run it on the bare matrix and build no
transforms.

Group-ring matrices follow the row-vector convention: a matrix with
``rows`` = rank of the domain and ``cols`` = rank of the codomain
represents a left-ZG-linear map via v -> v*M, and composites multiply as
``mul(d_k, d_{k-1})``.  With this convention the Fox-derivative matrices
of a presentation satisfy the boundary condition as written.
"""

from __future__ import annotations

import csv
import io
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .words import json_int

# ---------------------------------------------------------------------------
# Finite groups as explicit multiplication tables.


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple  # tuple[tuple[int, ...], ...]
    identity: int
    inverses: tuple  # tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]]) -> "FiniteGroup":
        n = len(rows)
        table = tuple(tuple(r) for r in rows)
        if any(len(r) != n for r in table):
            raise ValueError("multiplication table must be square")
        for r in table:
            for x in r:
                if not 0 <= x < n:
                    raise ValueError("table entry out of range")
        identity = None
        for e in range(n):
            if all(table[e][x] == x and table[x][e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise ValueError("table has no identity element")
        inverses = []
        for a in range(n):
            inv = [b for b in range(n) if table[a][b] == identity and table[b][a] == identity]
            if len(inv) != 1:
                raise ValueError(f"element {a} has no unique inverse")
            inverses.append(inv[0])
        for s in _greedy_generators(table, identity):
            # Light's test: (x s) y == x (s y) for every x, y.  The elements
            # passing it (the identity among them) are closed under the
            # product, so passing on generators makes the table associative.
            for x in range(n):
                xs, row = table[table[x][s]], table[x]
                for y, sy in enumerate(table[s]):
                    if xs[y] != row[sy]:
                        raise ValueError(f"table not associative at ({x},{s},{y})")
        return cls(table, identity, tuple(inverses))

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(((0,),), 0, (0,))

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroup":
        if m < 1:
            raise ValueError("order must be positive")
        rows = [[(a + b) % m for b in range(m)] for a in range(m)]
        return cls.from_table(rows)

    @classmethod
    def from_permutations(cls, perms: Sequence[Sequence[int]]) -> "FiniteGroup":
        """Group generated by the given permutations (as mapping tuples)."""
        deg = len(perms[0])
        ident = tuple(range(deg))
        elems = [ident]
        seen = {ident}
        frontier = [ident]
        gens = [tuple(p) for p in perms]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(p[g[i]] for i in range(deg))
                    if q not in seen:
                        seen.add(q)
                        elems.append(q)
                        nxt.append(q)
            frontier = nxt
        index = {p: i for i, p in enumerate(elems)}
        rows = []
        for p in elems:
            rows.append([index[tuple(p[q[i]] for i in range(deg))] for q in elems])
        return cls.from_table(rows)


def _greedy_generators(table, identity: int) -> list:
    """Generators that reach every element from the identity by right
    multiplication: the least element not yet reached, until all are.

    In a group each new generator at least doubles the subgroup reached
    (Lagrange), so there are at most log2(n) of them, and a table where one
    does not double it is no group.
    """
    n = len(table)
    gens, reached = [], {identity}
    while len(reached) < n:
        before = len(reached)
        gens.append(next(g for g in range(n) if g not in reached))
        elems, reached = [identity], {identity}
        for x in elems:  # grows while it is walked: a breadth-first search
            for g in gens:
                if table[x][g] not in reached:
                    reached.add(table[x][g])
                    elems.append(table[x][g])
        if len(reached) < 2 * before:
            raise ValueError(f"table is not a group: adding generator {gens[-1]} "
                             f"grows the generated set from {before} to "
                             f"{len(reached)}")
    return gens


def symmetric_group_3() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 2, 0), (1, 0, 2)])


# ---------------------------------------------------------------------------
# Sparse group-ring elements: dict {element index: integer coefficient}.


def gr_add(a: Mapping[int, int], b: Mapping[int, int]) -> dict:
    out = dict(a)
    for g, c in b.items():
        out[g] = out.get(g, 0) + c
        if out[g] == 0:
            del out[g]
    return out


def gr_mul(a: Mapping[int, int], b: Mapping[int, int], group: FiniteGroup) -> dict:
    out: dict = {}
    for g, c in a.items():
        for h, d in b.items():
            k = group.mul(g, h)
            out[k] = out.get(k, 0) + c * d
            if out[k] == 0:
                del out[k]
    return out


@dataclass(frozen=True)
class GroupRingMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple[((r, c), tuple[(elem, coeff), ...]), ...] sorted

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     entries: Mapping[tuple, Mapping[int, int]]) -> "GroupRingMatrix":
        norm = []
        for (r, c), elem in sorted(entries.items()):
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry position {(r, c)} out of range")
            cell = tuple(sorted((g, v) for g, v in elem.items() if v != 0))
            if cell:
                norm.append(((r, c), cell))
        return cls(rows, cols, tuple(norm))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "GroupRingMatrix":
        return cls(rows, cols, ())

    def as_dict(self) -> dict:
        return {(r, c): dict(cell) for (r, c), cell in self.entries}

    def check_elements(self, group: FiniteGroup) -> None:
        for _, cell in self.entries:
            for g, _ in cell:
                if not 0 <= g < group.order:
                    raise ValueError(f"group element index {g} out of range")


def gr_mat_mul(a: GroupRingMatrix, b: GroupRingMatrix, group: FiniteGroup) -> GroupRingMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    left = a.as_dict()
    right: dict = {}
    for (r, c), cell in b.entries:
        right.setdefault(r, []).append((c, dict(cell)))
    out: dict = {}
    for (r, j), cell in left.items():
        for c, other in right.get(j, ()):
            prod = gr_mul(cell, other, group)
            if prod:
                out[(r, c)] = gr_add(out.get((r, c), {}), prod)
    out = {pos: cell for pos, cell in out.items() if cell}
    return GroupRingMatrix.from_entries(a.rows, b.cols, out)


def gr_stack(a: GroupRingMatrix, b: GroupRingMatrix) -> GroupRingMatrix:
    """Stack two maps with the same codomain (domain rows concatenate)."""
    if a.cols != b.cols:
        raise ValueError("codomain mismatch")
    entries = a.as_dict()
    for (r, c), cell in b.as_dict().items():
        entries[(r + a.rows, c)] = cell
    return GroupRingMatrix.from_entries(a.rows + b.rows, a.cols, entries)


def restrict_scalars(m: GroupRingMatrix, group: FiniteGroup) -> list:
    """Integer matrix of the map on the underlying Z-module.

    Each ZG entry x becomes the |G| x |G| regular-representation block
    B[g][h] = coefficient of h in g*x, so restriction is multiplicative
    for composites taken in the row-vector convention.
    """
    m.check_elements(group)
    n = group.order
    out = [[0] * (m.cols * n) for _ in range(m.rows * n)]
    for (r, c), cell in m.entries:
        for g in range(n):
            row = out[r * n + g]
            for elem, coeff in cell:
                row[c * n + group.mul(g, elem)] += coeff
    return out


# ---------------------------------------------------------------------------
# Exact integer matrices.


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _echelon(a: Sequence[Sequence[int]]) -> tuple:
    """(r, minor): the rank r of a and the determinant of the r x r
    submatrix on its pivot rows and columns, by Bareiss's fraction-free
    elimination (Math. Comp. 1968).

    After each pivot the entries below it are minors of a, so every
    division is exact and no entry outgrows a minor.  Each column pivots
    on its least nonzero absolute value below the pivot rows, made
    positive; a column with none is skipped.
    """
    m = [list(map(int, row)) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        p, k = 0, None
        for i in range(rank, rows):
            x = abs(m[i][c])
            if x and (not p or x < p):
                p, k = x, i
                if x == 1:
                    break
        if k is None:
            continue
        if k != rank:
            m[rank], m[k] = m[k], m[rank]
            sign = -sign
        top = m[rank]
        if top[c] < 0:
            top[c:] = [-x for x in top[c:]]
            sign = -sign
        tail = top[c:]
        for row in m[rank + 1:]:
            x = row[c]
            if x:
                row[c:] = ([y * p - x * z for y, z in zip(row[c:], tail)] if prev == 1 else
                           [(y * p - x * z) // prev for y, z in zip(row[c:], tail)])
            elif p != prev:
                row[c:] = [y * p // prev for y in row[c:]]
        prev = p
        rank += 1
    return rank, sign * prev


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant, from the fraction-free echelon."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("determinant of a non-square matrix")
    rank, minor = _echelon(a)
    return minor if rank == len(a) else 0


def rational_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over Q by fraction elimination; independent oracle for SNF ranks."""
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivot_row = 0
    for col in range(cols):
        sel = None
        for r in range(pivot_row, rows):
            if m[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        pv = m[pivot_row][col]
        for r in range(rows):
            if r != pivot_row and m[r][col] != 0:
                factor = m[r][col] / pv
                m[r] = [x - factor * y for x, y in zip(m[r], m[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == rows:
            break
    return rank


def _diagonalize(m: list, rows: int, cols: int) -> None:
    """Bring the leading rows x cols block of m to Smith form, in place.

    Row operations act on whole rows among the first `rows` and column
    operations on whole columns among the first `cols`, so whatever m
    carries right of or below the block undergoes them too.  Each position
    t pivots on the least nonzero absolute value of the trailing block,
    which keeps coefficient growth tame for desk-scale inputs.  Euclid's
    algorithm with nearest-integer quotients then clears column t and row
    t, moving the least remainder into the pivot after each pass, until
    the pivot divides the whole trailing block.

    Left of column t the block's rows from t down are zero, so row
    operations skip those columns; in column t only the pivot and the
    rows below the block can be nonzero, so column operations touch only
    those rows.
    """
    below = m[rows:]
    for t in range(min(rows, cols)):
        p, pivot = 0, None
        for i in range(t, rows):
            for j, x in enumerate(m[i][t:cols], t):
                if x and (not p or abs(x) < p):
                    p, pivot = abs(x), (i, j)
                    if p == 1:
                        break
            if p == 1:
                break
        if pivot is None:
            return
        m[t], m[pivot[0]] = m[pivot[0]], m[t]
        col = pivot[1]
        while True:
            if col != t:
                for row in m[t:]:
                    row[t], row[col] = row[col], row[t]
                col = t
            top = m[t]
            if top[t] < 0:
                top[t:] = [-x for x in top[t:]]
            p, tail = top[t], top[t:]
            r, k = 0, None  # the least remainder in column t, and its row
            for i in range(t + 1, rows):
                row = m[i]
                x = row[t]
                if x:
                    q = (2 * x + p) // (2 * p)
                    row[t:] = [y - q * z for y, z in zip(row[t:], tail)]
                    if row[t] and (not r or abs(row[t]) < r):
                        r, k = abs(row[t]), i
            if k is not None:
                m[t], m[k] = m[k], m[t]
                continue
            carriers = [row for row in below if row[t]]
            for j in range(t + 1, cols):
                x = top[j]
                if x:
                    q = (2 * x + p) // (2 * p)
                    top[j] = x - q * p
                    for row in carriers:
                        row[j] -= q * row[t]
                    if top[j] and (not r or abs(top[j]) < r):
                        r, col = abs(top[j]), j
            if col != t:
                continue
            if p == 1:  # the pivot must divide the whole trailing block; 1 does
                break
            offender = next((row for row in m[t + 1:rows]
                             if any(x % p for x in row[t + 1:cols])), None)
            if offender is None:
                break
            # Fold the offending row into row t; clearing row t then brings
            # a remainder the pivot does not divide.
            top[t:] = [x + y for x, y in zip(top[t:], offender[t:])]


def smith_normal_form(a: Sequence[Sequence[int]]) -> tuple:
    """Smith normal form with transforms: returns (d, u, v) with u*a*v = d.

    d is diagonal with d1 | d2 | ..., u and v unimodular.  The transforms
    ride along as identity blocks: eliminating the leading block of
    [[a, I], [I, 0]] turns it into [[u*a*v, u], [v, 0]].  No operation
    touches the zero block, so it is not stored.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) + [int(i == r) for i in range(rows)] for r, row in enumerate(a)]
    m += [[int(i == r) for i in range(cols)] for r in range(cols)]
    _diagonalize(m, rows, cols)
    return [row[:cols] for row in m[:rows]], [row[cols:] for row in m[:rows]], m[rows:]


def diagonal_of(d: Sequence[Sequence[int]]) -> list:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def invariant_factors(a: Sequence[Sequence[int]]) -> list:
    """Nonzero diagonal entries of the Smith form, in divisibility order."""
    m = [list(row) for row in a]
    _diagonalize(m, len(m), len(m[0]) if m else 0)
    return [x for x in diagonal_of(m) if x != 0]


def matrix_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over Z, from the fraction-free echelon."""
    return _echelon(a)[0]


@dataclass(frozen=True)
class AbelianGroup:
    free_rank: int
    torsion: tuple  # tuple[int, ...], each > 1, d_i | d_{i+1}

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion coefficients must exceed 1")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"C{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "0"


def cokernel_invariants(a: Sequence[Sequence[int]], ambient_rank: int) -> AbelianGroup:
    """Z^ambient_rank modulo the row span of a."""
    factors = invariant_factors(a)
    if len(factors) > ambient_rank:
        raise ValueError("row span exceeds ambient rank")
    return AbelianGroup(ambient_rank - len(factors),
                        tuple(f for f in factors if f != 1))


# ---------------------------------------------------------------------------
# Chain complexes over ZG.


@dataclass(frozen=True)
class ChainComplexData:
    group: FiniteGroup
    ranks: tuple  # tuple[int, ...], ranks[k] = number of k-cells over ZG
    boundaries: tuple  # boundaries[k-1] = d_k: ranks[k] x ranks[k-1]

    def __post_init__(self):
        if not self.ranks or self.ranks[0] < 1:
            raise ValueError("need rank_0 >= 1")
        if len(self.boundaries) != len(self.ranks) - 1:
            raise ValueError("need one boundary map per dimension 1..n")
        for k, b in enumerate(self.boundaries, start=1):
            if (b.rows, b.cols) != (self.ranks[k], self.ranks[k - 1]):
                raise ValueError(f"boundary {k} has shape {(b.rows, b.cols)}, "
                                 f"expected {(self.ranks[k], self.ranks[k - 1])}")
            b.check_elements(self.group)
        for k in range(2, len(self.ranks)):
            prod = gr_mat_mul(self.boundaries[k - 1], self.boundaries[k - 2], self.group)
            if prod.entries:
                raise ValueError(f"boundary condition fails: d_{k-1} o d_{k} != 0")

    @property
    def top_dim(self) -> int:
        return len(self.ranks) - 1

    def boundary(self, k: int) -> GroupRingMatrix:
        return self.boundaries[k - 1]


def homology_at(c: ChainComplexData, k: int) -> AbelianGroup:
    """Homology of the restricted-scalars integer complex at position k."""
    n = c.top_dim
    if not 0 <= k <= n:
        raise ValueError(f"position {k} outside 0..{n}")
    rank_out = matrix_rank(restrict_scalars(c.boundary(k), c.group)) if k >= 1 else 0
    incoming = restrict_scalars(c.boundary(k + 1), c.group) if k < n else []
    # ker d_k is a direct summand of rank ranks[k] * |G| - rank_out, and it
    # holds im d_{k+1} because ChainComplexData checked d o d = 0
    return cokernel_invariants(incoming, c.ranks[k] * c.group.order - rank_out)


def glue_product(c1: ChainComplexData, c2: ChainComplexData) -> ChainComplexData:
    """Union of two complexes along the common codimension-1 skeleton.

    Both complexes must agree in ranks 0..n-1 and boundaries 1..n-1; the
    top boundaries stack.
    """
    if c1.group != c2.group:
        raise ValueError("complexes over different groups")
    if c1.top_dim != c2.top_dim:
        raise ValueError("dimension mismatch")
    n = c1.top_dim
    if c1.ranks[:n] != c2.ranks[:n]:
        raise ValueError("lower skeleton rank mismatch")
    if c1.boundaries[:n - 1] != c2.boundaries[:n - 1]:
        raise ValueError("lower skeleton boundary mismatch")
    top = gr_stack(c1.boundary(n), c2.boundary(n))
    return ChainComplexData(c1.group,
                            c1.ranks[:n] + (c1.ranks[n] + c2.ranks[n],),
                            c1.boundaries[:n - 1] + (top,))


def euler_char_chain(c: ChainComplexData) -> int:
    return sum((-1) ** k * r for k, r in enumerate(c.ranks))


def product_euler(c1: ChainComplexData, c2: ChainComplexData) -> int:
    """Euler characteristic of the glued complex, via the cell count identity."""
    if c1.group != c2.group or c1.top_dim != c2.top_dim:
        raise ValueError("complexes not gluable")
    n = c1.top_dim
    return euler_char_chain(c1) + (-1) ** n * c2.ranks[n]


def check_dyer_bound(c1: ChainComplexData, c2: ChainComplexData,
                     c0: ChainComplexData) -> bool:
    """Arithmetic hypothesis test: equal signed Euler characteristics sitting
    at least 2 above a reference complex."""
    if not (c1.group == c2.group == c0.group and c1.top_dim == c2.top_dim == c0.top_dim):
        raise ValueError("complexes not comparable")
    n = c1.top_dim
    s = (-1) ** n
    return (s * euler_char_chain(c1) == s * euler_char_chain(c2)
            and s * euler_char_chain(c1) >= 2 + s * euler_char_chain(c0))


# ---------------------------------------------------------------------------
# File formats.

# Most cells the integer matrix of one boundary map of a chain file may
# have after restriction of scalars, each row counting as at least one, so
# that a short file cannot demand a matrix of gigabytes.  The A5 Fox chains
# of the benchmark restrict to 180 x 180.
MAX_RESTRICTED_CELLS = 1 << 18


def _csv_cell(cell: str) -> int:
    if not re.fullmatch("[0-9]+", cell):
        raise ValueError(f"cell {cell!r} is not a plain decimal integer")
    return int(cell)


def load_group_csv(text: str) -> FiniteGroup:
    """Group file: first row `order,identity`, then `order` table rows."""
    reader = csv.reader(io.StringIO(text.strip()))
    rows = [[_csv_cell(x) for x in row] for row in reader if row]
    if not rows or len(rows[0]) != 2:
        raise ValueError("group file must start with 'order,identity'")
    order, identity = rows[0]
    table = rows[1:]
    if len(table) != order:
        raise ValueError(f"expected {order} table rows, got {len(table)}")
    group = FiniteGroup.from_table(table)
    if group.identity != identity:
        raise ValueError("declared identity disagrees with the table")
    return group


def dump_group_csv(group: FiniteGroup) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([group.order, group.identity])
    for row in group.table:
        writer.writerow(row)
    return out.getvalue()


def chain_to_json(c: ChainComplexData) -> dict:
    entries = []
    for k, b in enumerate(c.boundaries, start=1):
        for (r, col), cell in b.entries:
            for elem, coeff in cell:
                entries.append([k, r, col, elem, coeff])
    return {
        "group": {"order": c.group.order, "identity": c.group.identity,
                  "table": [list(r) for r in c.group.table]},
        "n": c.top_dim,
        "ranks": list(c.ranks),
        "entries": entries,
    }


def chain_from_json(data: Mapping, base_dir: str = ".") -> ChainComplexData:
    g = data["group"]
    if isinstance(g, str):
        # reference to a CSV group file, relative to the chain file
        try:
            with open(os.path.join(base_dir, g)) as fh:
                group = load_group_csv(fh.read())
        except (OSError, ValueError) as e:
            raise ValueError(f"group file {g}: {e}") from None
    else:
        group = FiniteGroup.from_table(
            [[json_int(x, "a group table entry") for x in row] for row in g["table"]])
        if group.identity != g.get("identity", group.identity):
            raise ValueError("declared identity disagrees with the table")
    n = json_int(data["n"], "n")
    ranks = tuple(json_int(r, "a rank") for r in data["ranks"])
    if len(ranks) != n + 1:
        raise ValueError("ranks must list dimensions 0..n")
    if any(r < 0 for r in ranks):
        raise ValueError("ranks must be nonnegative")
    for k in range(1, n + 1):
        rows, cols = ranks[k] * group.order, ranks[k - 1] * group.order
        if rows * max(cols, 1) > MAX_RESTRICTED_CELLS:
            raise ValueError(f"boundary {k} restricts to a {rows} x {cols} integer "
                             f"matrix, over the bound of {MAX_RESTRICTED_CELLS} cells")
    cells: dict = {k: {} for k in range(1, n + 1)}
    for entry in data["entries"]:
        k, r, col, elem, coeff = (json_int(x, "an entry field") for x in entry)
        if not 1 <= k <= n:
            raise ValueError(f"boundary index {k} out of range")
        cell = cells[k].setdefault((r, col), {})
        cell[elem] = cell.get(elem, 0) + coeff
    boundaries = tuple(
        GroupRingMatrix.from_entries(ranks[k], ranks[k - 1], cells[k])
        for k in range(1, n + 1))
    return ChainComplexData(group, ranks, boundaries)
