"""Exact integer linear algebra and chain-level homology over group rings.

Matrices are plain lists of lists of ints.  Two exact eliminations serve
them.  Ranks and determinants come from a fraction-free (Bareiss)
echelon that pivots in each column on the least nonzero absolute value,
made positive.  Transforms come from a Smith elimination that pivots
once per diagonal position on the least nonzero absolute value of the
trailing block, then runs Euclid with nearest-integer quotients.  A row
update runs only over the nonzero entries of the pivot row, where it can
change something.  ``smith_normal_form`` runs the Smith elimination on
the matrix bordered by identity blocks, which then hold the unimodular
transforms.

A rank alone of a dense matrix, one with more than half its entries
nonzero, as homology takes for the outgoing boundary and ``matrix_rank``
returns, is first taken modulo the prime P = 4,194,301, on rows packed
into Python ints.  A rank modulo P never exceeds the rank over Q, so when
it is min(rows, cols) it is the rank; otherwise the echelon decides.
One function settles each boundary that homology reads, the outgoing
d_k for its rank and the incoming d_{k+1} for its invariant factors.  A
boundary whose block rows each hold no term or two, x*a and -x*b with
x = +-1, as the Fox derivatives g - 1 of d_1 do, is ranked from its cells
and not restricted: each such block row restricts to |G| rows that are
empty or e_u - e_v up to sign, the edges of a graph on the restricted
columns, and an incidence matrix has rank (vertices - components) over Q.
It is totally unimodular (Schrijver, Theory of Linear and Integer
Programming, 1986), so that rank r also proves r invariant factors of 1.
Any other sparse boundary, such as an A5 Fox d_2, is restricted to rows
of nonzeros {col: coeff} and reduced with +-1 leads only (_unit_rank).
Where that succeeds, a unimodular transform took them to an echelon with
+-1 leads, so the kept rows number the rank and every invariant factor
is 1; otherwise the rows are made lists.

Invariant factors, and with them cokernels and homology, are read from
the echelon's minors where they settle the answer.  The first k factors
s_1..s_k multiply to the determinantal divisor d_k, the gcd of the k x k
minors.  For a square matrix A of side n the echelon gives its rank r,
the minor D on its pivot rows and columns, and g, the gcd of the four
(n-1)-minors in its trailing 2 x 2 block when two rows are left.  So
d_r | D, and s_1..s_{n-1} | d_{n-1} | g.

- If |D| = 1, then d_r = 1 and all r factors are 1.
- If A is nonsingular, the rows of [A mod g; g*I] span the lattice
  (row span of A) + gZ^n.  When U*A*V = diag(s) with U and V unimodular,
  V carries it to the lattice whose i-th coordinate ranges over
  s_i*Z + g*Z = gcd(s_i, g)*Z, so its factors are the gcd(s_i, g),
  which is s_i for i < n.  The Smith elimination of that
  2n x n matrix, on entries below g, gives s_1..s_{n-1}; with g = 1 they
  are all 1 and it does not run.  Then s_n = |D| / (s_1 * .. * s_{n-1}),
  because |D| = |det A| = s_1 * .. * s_n; a division that is not exact
  raises.  This works modulo a multiple of d_{n-1} as Domich, Kannan &
  Trotter (Math. Oper. Res. 1987) work modulo the determinant.
- Before that, g loses its primes p < 256 with rank_p(A) >= n - 1,
  tried in increasing order up to the first with a lower rank.  U and V
  stay invertible modulo p, so p divides n - rank_p(A) of the s_i, s_n
  at most: p does not divide d_{n-1}, which still divides what is left
  of g, and when that is 1 the stacked elimination does not run.
- The Smith elimination runs on the bare matrix only for a non-square
  matrix, which skips the echelon, and a singular square one with
  |D| > 1.

A group table is checked by one function, a row at a time, on rows
packed as bytes when its elements fit in a byte and on tuples otherwise:
entries in range, the identity by its row and its column, unique
two-sided inverses, and Light's associativity test as whole-row
compositions.  Only a check that fails runs element by element, to name
the first offender in its refusal.

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
import struct
from dataclasses import dataclass
from itertools import chain
from math import gcd, prod
from operator import itemgetter
from typing import Mapping, Sequence

from .words import json_int

# ---------------------------------------------------------------------------
# Finite groups as explicit multiplication tables.


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple  # tuple[tuple[int, ...], ...]
    identity: int

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @classmethod
    def from_table(cls, rows: Sequence[Sequence[int]]) -> "FiniteGroup":
        """The group of a multiplication table, table[a][b] = a*b, or the
        ValueError that names the first check it fails: square, entries in
        range, an identity (its row and column), unique two-sided inverses,
        greedy generators, and Light's associativity test.  Each check runs
        over whole rows, packed as bytes when every entry fits in a byte,
        and an element-level loop runs only after one fails, to name the
        first offender."""
        table = tuple(map(tuple, rows))
        return cls(table, _checked_table(table))


def _checked_table(table: tuple) -> int:
    """The identity of a group table, checked as from_table says;
    only the range test and Light's row composition differ between rows of
    bytes and of tuples."""
    n = len(table)
    if set(map(len, table)) - {n}:
        raise ValueError("multiplication table must be square")
    pack = bytes if n <= 256 else tuple
    try:
        rows = list(map(pack, table))
    except (TypeError, ValueError):  # an entry that is no int in 0..255
        pack, rows = tuple, table
    ident = pack(range(n))
    entries = b"".join(rows) if pack is bytes else tuple(chain.from_iterable(rows))
    # bytes: deleting 0..n-1 from the entries leaves those of n or more
    if (entries.translate(None, ident) if pack is bytes
            else rows and (min(map(min, rows)) < 0 or max(map(max, rows)) >= n)):
        raise ValueError("table entry out of range")
    # the identity's row and column are 0..n-1
    identity = next((e for e in range(n) if rows[e] == ident
                     and pack(map(itemgetter(e), rows)) == ident), None)
    if identity is None:
        raise ValueError("table has no identity element")
    # in a group each row holds the identity once (found in every row, n
    # times in all), at the inverse, and the inverse map is its own
    # inverse.  Otherwise the two-sided candidates decide: a row may hold
    # the identity twice and still have one.
    inverses = [row.index(identity) for row in rows if identity in row]
    if (len(inverses) != n or entries.count(identity) != n
            or list(map(inverses.__getitem__, inverses)) != list(range(n))):
        for a, row in enumerate(rows):
            inv = [b for b, x in enumerate(row) if x == identity and rows[b][a] == identity]
            if len(inv) != 1:
                raise ValueError(f"element {a} has no unique inverse")
    # Light's test: (x s) y == x (s y) for every x, y.  The elements passing
    # it (the identity among them) are closed under the product, so passing
    # on generators makes the table associative.  x (s y) for all y at once
    # is row_s translated by row_x, padded to the 256 bytes of a translation
    # table, or row_x picked at row_s's entries: a generator exists only for
    # n >= 2, so itemgetter returns a tuple.
    padded = [row.ljust(256, b"\0") for row in rows] if pack is bytes else rows
    for s in _greedy_generators(rows, identity):
        times_s = rows[s].translate if pack is bytes else itemgetter(*rows[s])
        lhs = list(map(times_s, padded))
        rhs = list(map(rows.__getitem__, map(itemgetter(s), rows)))
        if lhs != rhs:
            x, y = next((x, y) for x in range(n) for y in range(n) if lhs[x][y] != rhs[x][y])
            raise ValueError(f"table not associative at ({x},{s},{y})")
    return identity


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
    entries: dict  # {(r, c): {elem: coeff}}, nonzero, positions and cells sorted

    @classmethod
    def from_entries(cls, rows: int, cols: int,
                     entries: Mapping[tuple, Mapping[int, int]]) -> "GroupRingMatrix":
        norm = {}
        for (r, c), elem in sorted(entries.items()):
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry position {(r, c)} out of range")
            cell = {g: v for g, v in sorted(elem.items()) if v != 0}
            if cell:
                norm[(r, c)] = cell
        return cls(rows, cols, norm)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "GroupRingMatrix":
        return cls(rows, cols, {})


def gr_mat_mul(a: GroupRingMatrix, b: GroupRingMatrix, group: FiniteGroup) -> GroupRingMatrix:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    if not (a.entries and b.entries):
        return GroupRingMatrix.zero(a.rows, b.cols)
    right: dict = {}
    for (r, c), cell in b.entries.items():
        right.setdefault(r, []).append((c, cell))
    out: dict = {}
    for (r, j), cell in a.entries.items():
        for c, other in right.get(j, ()):
            prod = gr_mul(cell, other, group)
            if prod:
                out[(r, c)] = gr_add(out.get((r, c), {}), prod)
    return GroupRingMatrix.from_entries(a.rows, b.cols, out)


def restrict_scalars(m: GroupRingMatrix, group: FiniteGroup, sparse: bool = False) -> list:
    """Integer matrix of the map on the underlying Z-module, as row lists,
    or with sparse as rows of nonzeros {col: coeff}.

    Each ZG entry x becomes the |G| x |G| regular-representation block
    B[g][h] = coefficient of h in g*x, so restriction is multiplicative
    for composites taken in the row-vector convention.  As in gr_mul, the
    elements of m lie in 0..|G|-1, which ChainComplexData checks.  Each
    term writes its own nonzero entry, at column g*elem, in |G| rows.
    """
    n, table, width = group.order, group.table, m.cols * group.order
    blocks = [[] for _ in range(m.rows)]  # (first column, terms) of each row's cells
    for (r, c), cell in m.entries.items():
        blocks[r].append((c * n, cell.items()))
    rows = []
    for cells in blocks:
        for times in table:  # times[h] = g*h
            row = {} if sparse else [0] * width
            for base, terms in cells:
                for elem, coeff in terms:
                    row[base + times[elem]] = coeff
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Exact integer matrices.  The public eliminations refuse an entry that is
# not an int, a bool included, as json_int does: their divisions are exact
# only over the integers.  Matrices that restrict_scalars builds hold ints
# by construction and go to the private eliminations unchecked.


def _all_ints(values) -> bool:
    return not set(map(type, values)) - {int}


def _check_entries(a: Sequence[Sequence[int]]) -> None:
    if len(set(map(len, a))) > 1:
        raise ValueError("matrix rows differ in length")
    if not _all_ints(chain.from_iterable(a)):
        json_int(next(x for x in chain.from_iterable(a) if type(x) is not int),
                 "a matrix entry")


def _echelon(a: Sequence[Sequence[int]], minors: list | None = None) -> tuple:
    """(r, minor): the rank r of a and the determinant of the r x r
    submatrix on its pivot rows and columns, by Bareiss's fraction-free
    elimination (Math. Comp. 1968).

    After k pivots the entry in row i and column j below them is, up to
    sign, the minor on the pivot rows and row i and the pivot columns and
    column j, so every division is exact and no entry outgrows a minor.
    Each column pivots on its least nonzero absolute value below the
    pivot rows, made positive; a column with none is skipped.  Given a
    list `minors` and a square a of side n, the echelon adds to it the
    entries of the trailing 2 x 2 block when it reaches column n - 2 with
    n - 2 pivots, as a nonsingular a does: four (n-1)-minors of a.

    A row with x in the pivot column becomes (row * p - x * top) // prev.
    When the pivot p equals the previous pivot prev, that is the row
    itself wherever top is zero, and a row with x = 0 does not change, so
    only rows with x != 0 are updated, and only on top's nonzero entries.
    Otherwise every row is rescaled by p / prev and rebuilt whole.
    """
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        if minors is not None and c == rank == rows - 2 == cols - 2:
            minors += m[c][c:] + m[c + 1][c:]
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
        if p == prev:
            support = [(j, z) for j, z in enumerate(top[c:], c) if z]
            for row in m[rank + 1:]:
                x = row[c]
                if x and p == 1:
                    for j, z in support:
                        row[j] -= x * z
                elif x:
                    for j, z in support:
                        row[j] = (row[j] * p - x * z) // prev
        else:
            tail = top[c:]
            for row in m[rank + 1:]:
                x = row[c]
                if x:
                    row[c:] = ([y * p - x * z for y, z in zip(row[c:], tail)] if prev == 1 else
                               [(y * p - x * z) // prev for y, z in zip(row[c:], tail)])
                else:
                    row[c:] = [y * p // prev for y in row[c:]]
        prev = p
        rank += 1
    return rank, sign * prev


def _unit_rank(rows: list) -> int | None:
    """The rank of rows of nonzeros {col: coeff}, when a reduction with +-1
    leads proves all their invariant factors 1; else None.

    Shortest first, each row loses +-1 times the kept row that leads at
    its own leading column, until none does; then it is kept there, or it
    is zero.  None comes as soon as a leading entry read, as a multiplier
    or as a new lead, is not +-1.  Otherwise a unimodular transform took
    the rows to the kept rows and zeros, an echelon with +-1 leads, whose
    Smith form is the identity beside zeros.  The largest entry at most
    doubles a step.
    """
    kept = {}  # leading column -> kept row
    for row in sorted(rows, key=len):
        row = dict(row)
        while row:
            c = min(row)
            x = row[c]
            if x not in (1, -1):
                return None
            top = kept.get(c)
            if top is None:
                kept[c] = row
                break
            x *= top[c]  # top[c] = +-1
            for j, z in top.items():
                y = row.get(j, 0) - x * z
                if y:
                    row[j] = y
                else:
                    del row[j]
    return len(kept)


def determinant(a: Sequence[Sequence[int]]) -> int:
    """Exact determinant, from the fraction-free echelon."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("determinant of a non-square matrix")
    _check_entries(a)
    rank, minor = _echelon(a)
    return minor if rank == len(a) else 0


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
    those rows.  A row operation subtracts a multiple of the pivot row,
    which changes nothing where the pivot row is zero, so it runs over the
    pivot row's nonzero entries, right of the block too; column operations
    likewise run only on the pivot row's nonzero columns, the ones they
    clear.  The pivot search skips rows whose trailing block is zero, as
    they hold no candidate.
    """
    below = m[rows:]
    for t in range(min(rows, cols)):
        p, pivot = 0, None
        for i in range(t, rows):
            block = m[i][t:cols]
            if not any(block):
                continue
            for j, x in enumerate(block, t):
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
            p = top[t]
            support = [(j, z) for j, z in enumerate(top[t:], t) if z]
            r, k = 0, None  # the least remainder in column t, and its row
            for i in range(t + 1, rows):
                row = m[i]
                x = row[t]
                if x:
                    q = (2 * x + p) // (2 * p)
                    for j, z in support:
                        row[j] -= q * z
                    if row[t] and (not r or abs(row[t]) < r):
                        r, k = abs(row[t]), i
            if k is not None:
                m[t], m[k] = m[k], m[t]
                continue
            carriers = [row for row in below if row[t]]
            # top is as the support was taken: a row swap continued above
            for j, x in support[1:]:
                if j >= cols:
                    break
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
    _check_entries(a)
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
    _check_entries(a)
    return _invariant_factors([list(row) for row in a])


def _invariant_factors(m: list) -> list:
    """invariant_factors of m, a list of row lists that it overwrites; none
    and no elimination for no rows.

    A square m of side n goes through the echelon first, for its rank r,
    pivot minor D and g, the gcd of its trailing (n-1)-minors; the module
    docstring shows why these rules are exact.  If |D| = 1 the factors
    are r ones.  If m is nonsingular, g loses its primes below 256 that
    divide s_n alone, and s_1..s_{n-1} are those of the Smith elimination
    of [m mod g; g*I] with what is left of g, or all 1 when that is 1;
    s_n is |D| over their product.  A non-square m, and a singular square
    one with |D| > 1, go to the Smith elimination as they are.
    """
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    if rows == cols:
        minors = []
        rank, minor = _echelon(m, minors)
        if abs(minor) == 1:
            return [1] * rank
    if rows == cols and rank == rows:
        g = gcd(*minors) if minors else 1  # a 1 x 1 m has no trailing block
        for p in range(2, min(g + 1, 256)):
            if g % p == 0:  # so p is prime: the smaller primes left g
                if _rank_mod_p(m, p) < rows - 1:
                    break
                while g % p == 0:
                    g //= p
        head = [1] * (rows - 1)
        if g > 1:
            m[:] = ([[x % g for x in row] for row in m]
                    + [[g * (i == j) for i in range(rows)] for j in range(rows)])
            _diagonalize(m, 2 * rows, rows)
            head = diagonal_of(m)[:rows - 1]
        last, rest = divmod(abs(minor), prod(head))
        if rest:
            raise ArithmeticError(f"|det| {abs(minor)} is not a multiple of "
                                  f"the leading invariant factors {head}")
        return head + [last]
    _diagonalize(m, rows, cols)
    return [x for x in diagonal_of(m) if x != 0]


# Ranks modulo a prime.  A row of residues is packed into one Python int,
# one 64-bit slot per column, so that adding a multiple of one row to
# another is one multiplication and one addition at C speed.  Modulo any
# prime p <= P a slot starts below p, and each update adds less than
# p**2 <= P**2 to it, once per pivot, so it stays below
# P + min(rows, cols) * P**2.  That is under 2**63, and so never carries
# into the next slot, while min(rows, cols) < 2**19.
# MAX_RESTRICTED_CELLS keeps min(rows, cols) at 512 or less for chain files.
_P = 4_194_301  # the largest prime below 2**22
_SLOT_MASK = (1 << 64) - 1
_MOD_P_MAX_SIDE = 1 << 19


def _pack(values: Sequence[int]) -> int:
    """sum(v * 2**(64*i)) over values v in 0..2**64-1, with a fixed
    little-endian layout that depends on no host's byte order or C sizes."""
    return int.from_bytes(struct.pack(f"<{len(values)}Q", *values), "little")


def _unpack(row: int, n: int) -> tuple:
    """The n slot values of a packed row, as _pack takes them."""
    return struct.unpack(f"<{n}Q", row.to_bytes(8 * n, "little"))


def _rank_mod_p(m: Sequence[Sequence[int]], p: int = _P) -> int:
    """The rank of m over GF(p), for a prime p <= P, which never exceeds
    its rank over Q.

    Each row is packed and filed in a bucket by its lowest slot that is
    nonzero mod p, and kept shifted so that slot 0 is that column; a
    slot found to be zero mod p on the way is cleared.  Column c then
    touches only the rows filed under it.  One of them becomes the
    pivot: its slots are reduced below p and scaled so that slot 0 is 1,
    and slot 0 cleared gives tail.  Each other row, with x in slot 0,
    becomes row - x + (-x mod p) * tail, whose slot 0 is zero, and is
    filed again.  Slots are not reduced between updates.
    """
    cols = len(m[0]) if m else 0
    buckets = [[] for _ in range(cols)]

    def file(row: int, c: int) -> None:
        while row:
            x = row & _SLOT_MASK
            if x % p:
                buckets[c].append(row)
                return
            row -= x
            if row:
                skip = ((row & -row).bit_length() - 1) >> 6
                row >>= skip << 6
                c += skip

    for row in m:
        file(_pack([x % p for x in row]), 0)
    rank = 0
    for c in range(cols):
        # nothing is filed under c again, so its rows are freed after it
        bucket, buckets[c] = buckets[c], None
        if not bucket:
            continue
        top = _unpack(bucket.pop(), cols - c)
        inv = pow(top[0], -1, p)
        tail = _pack([0] + [x * inv % p for x in top[1:]])
        for row in bucket:
            x = row & _SLOT_MASK
            file((row - x + (-x % p) * tail) >> 64, c + 1)
        rank += 1
    return rank


def _dense(nonzeros: int, rows: int, cols: int) -> bool:
    """Whether a rows x cols matrix with this many nonzeros is dense."""
    return 2 * nonzeros > rows * cols


def _rank(m: Sequence[Sequence[int]], nonzeros: int) -> int:
    """The rank of m over Q, given the number of its nonzero entries; 0,
    with no elimination, for no rows.

    A matrix with more nonzero than zero entries and min(rows, cols)
    below _MOD_P_MAX_SIDE tries _rank_mod_p first; when that rank is
    min(rows, cols) it is the rank over Q too, since a rank modulo P
    never exceeds it.  The echelon decides every other case.
    """
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    full = min(rows, cols)
    if (_dense(nonzeros, rows, cols) and full < _MOD_P_MAX_SIDE
            and _rank_mod_p(m) == full):
        return full
    return _echelon(m)[0]


def _cell_graph_rank(d: GroupRingMatrix, group: FiniteGroup) -> int | None:
    """The rank of d restricted, and so its number of invariant factors,
    all 1, when each block row of d holds no term or two, x*a and -x*b with
    x = +-1, as the Fox derivatives g - 1 of d_1 do; else None.  Read from
    the cells, so d is not restricted.

    Such a block row restricts to the |G| rows x*(e_u - e_v), one for each
    g in G, with u = g*a and v = g*b placed in the blocks of their columns:
    the edges of a graph on the restricted columns, whose rank is the
    number of edges of a spanning forest, which union-find counts, and
    whose incidence matrix is totally unimodular (module docstring).  A
    restricted row holds one nonzero for each term of its
    block row, with the term's coefficient, so the restricted rows of any
    other block row are neither empty nor +-(e_u - e_v).
    """
    n, blocks = group.order, {}
    for (r, c), cell in d.entries.items():
        terms = blocks.setdefault(r, [])
        terms += [(c * n, elem, x) for elem, x in cell.items()]
        if len(terms) > 2:
            return None
    root = list(range(d.cols * n))

    def find(u: int) -> int:
        while root[u] != u:
            root[u] = u = root[root[u]]  # path halving
        return u

    rank = 0
    for terms in blocks.values():
        if len(terms) != 2:
            return None
        (p, a, x), (q, b, y) = terms
        if x + y or x not in (1, -1):
            return None
        for u, v in zip(map(itemgetter(a), group.table), map(itemgetter(b), group.table)):
            u, v = find(p + u), find(q + v)
            if u != v:
                root[u] = v
                rank += 1
    return rank


def matrix_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over Z, through _rank, with the nonzero entries counted by a
    scan: the rank modulo P where it is full, else the echelon's."""
    _check_entries(a)
    return _rank(a, sum(map(bool, chain.from_iterable(a))))


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
    _check_entries(a)
    if a and len(a[0]) != ambient_rank:
        raise ValueError(f"rows of length {len(a[0])} do not lie in Z^{ambient_rank}")
    return _cokernel(_invariant_factors([list(row) for row in a]), ambient_rank)


def _cokernel(factors: list, ambient_rank: int) -> AbelianGroup:
    """Z^ambient_rank modulo a row span with these invariant factors."""
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
            elems = list(chain.from_iterable(b.entries.values()))
            if elems and (min(elems) < 0 or max(elems) >= self.group.order):
                g = next(g for g in elems if not 0 <= g < self.group.order)
                raise ValueError(f"group element index {g} out of range")
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
    ones, m, nonzeros = _restricted(c.boundary(k), c.group) if k else (0, [], 0)
    rank_out = ones + _rank(m, nonzeros)
    ones, m, _ = _restricted(c.boundary(k + 1), c.group) if k < n else (0, [], 0)
    # ker d_k is a direct summand of rank ranks[k] * |G| - rank_out, and it
    # holds im d_{k+1} because ChainComplexData checked d o d = 0
    return _cokernel([1] * ones + _invariant_factors(m), c.ranks[k] * c.group.order - rank_out)


def _restricted(d: GroupRingMatrix, group: FiniteGroup) -> tuple:
    """(ones, m, nonzeros): d settled as far as it goes without an
    elimination, for its rank, ones + that of m, and its invariant factors,
    ones 1s and those of m.  m is empty when d is settled: ranked as a
    graph from its cells, or, restricted to rows of nonzeros, by _unit_rank.
    Otherwise m is d restricted, as row lists, with nonzeros, |G| per term."""
    if (rank := _cell_graph_rank(d, group)) is not None:
        return rank, [], 0
    nonzeros, cols = group.order * sum(map(len, d.entries.values())), d.cols * group.order
    if _dense(nonzeros, d.rows * group.order, cols):
        return 0, restrict_scalars(d, group), nonzeros
    rows = restrict_scalars(d, group, sparse=True)
    if (rank := _unit_rank(rows)) is not None:
        return rank, [], 0
    m = [[0] * cols for _ in rows]
    for dense, row in zip(m, rows):
        for j, x in row.items():
            dense[j] = x
    return 0, m, nonzeros


def glue_product(c1: ChainComplexData, c2: ChainComplexData) -> ChainComplexData:
    """Union of two complexes along the common codimension-1 skeleton.

    Both complexes must agree in ranks 0..n-1 and boundaries 1..n-1; the
    top boundaries stack, c2's domain rows after c1's, over the codomain
    of rank ranks[n-1] that both share.
    """
    if c1.group != c2.group:
        raise ValueError("complexes over different groups")
    if c1.top_dim != c2.top_dim:
        raise ValueError("dimension mismatch")
    n = c1.top_dim
    if n < 1:
        raise ValueError("0-dimensional complexes have no top boundary to glue")
    if c1.ranks[:n] != c2.ranks[:n]:
        raise ValueError("lower skeleton rank mismatch")
    if c1.boundaries[:n - 1] != c2.boundaries[:n - 1]:
        raise ValueError("lower skeleton boundary mismatch")
    entries = dict(c1.boundary(n).entries)
    for (r, c), cell in c2.boundary(n).entries.items():
        entries[(r + c1.ranks[n], c)] = cell
    rows = c1.ranks[n] + c2.ranks[n]
    top = GroupRingMatrix.from_entries(rows, c1.ranks[n - 1], entries)
    return ChainComplexData(c1.group, c1.ranks[:n] + (rows,),
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
    return _declared_group(rows[1:], *rows[0])


def _declared_group(table: list, order: int, identity: int | None) -> FiniteGroup:
    """The group of a table declared to have order rows and, unless it is
    None, the identity given: a group file's or an inline group's."""
    if order != len(table):
        raise ValueError(f"expected {order} table rows, got {len(table)}")
    group = FiniteGroup.from_table(table)
    if identity not in (None, group.identity):
        raise ValueError("declared identity disagrees with the table")
    return group


def chain_to_json(c: ChainComplexData) -> dict:
    entries = []
    for k, b in enumerate(c.boundaries, start=1):
        for (r, col), cell in b.entries.items():
            for elem, coeff in cell.items():
                entries.append([k, r, col, elem, coeff])
    return {
        "group": {"order": c.group.order, "identity": c.group.identity,
                  "table": [list(r) for r in c.group.table]},
        "n": c.top_dim,
        "ranks": list(c.ranks),
        "entries": entries,
    }


def _refuse_entries(entries, n: int) -> None:
    """Raise the error of the first entry, in file order, that is not a
    list [k, r, col, elem, coeff] of ints with k in 1..n; chain_from_json
    calls it only when one is."""
    for i, entry in enumerate(entries):
        if type(entry) is not list:
            raise ValueError(f"entries[{i}] is not a list [k, r, col, elem, coeff]")
        if len(entry) != 5:
            raise ValueError(f"entries[{i}] has {len(entry)} fields, expected 5: "
                             f"[k, r, col, elem, coeff]")
        k, *_ = (json_int(x, "an entry field") for x in entry)
        if not 1 <= k <= n:
            raise ValueError(f"boundary index {k} out of range")


def chain_from_json(data: Mapping, base_dir: str = ".") -> ChainComplexData:
    """The chain complex of a chain file, decoded from JSON.

    The fields of all entries are checked at once; only a file that fails
    those checks is scanned again, in file order, for the error to report.
    One pass over the sorted entries then merges repeated (k, r, col, elem)
    entries, checks positions and builds each boundary in its sorted form;
    the group elements of all entries are checked after it.
    """
    if type(data) is not dict:
        raise ValueError("a chain file is a JSON object with group, n, ranks and entries")
    g = data["group"]
    if isinstance(g, str):
        # reference to a CSV group file, relative to the chain file
        try:
            with open(os.path.join(base_dir, g)) as fh:
                group = load_group_csv(fh.read())
        except (OSError, ValueError) as e:
            raise ValueError(f"group file {g}: {e}") from None
    elif type(g) is not dict:
        raise ValueError("group is neither a group file name nor an object with a table")
    else:
        table = g["table"]
        if type(table) is not list:
            raise ValueError("group table is not a list of rows of element indices")
        order = json_int(g.get("order", len(table)), "the group order")
        identity = json_int(g["identity"], "the group identity") if "identity" in g else None
        if set(map(type, table)) - {list} or not _all_ints(chain.from_iterable(table)):
            for i, row in enumerate(table):
                if type(row) is not list:
                    raise ValueError(f"group table[{i}] is not a list of element indices")
            table = [[json_int(x, "a group table entry") for x in row] for row in table]
        group = _declared_group(table, order, identity)
    n = json_int(data["n"], "n")
    if type(data["ranks"]) is not list:
        raise ValueError("ranks is not a list of the ranks of dimensions 0..n")
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
    entries = data["entries"]
    if type(entries) is not list:
        raise ValueError("entries is not a list of entries [k, r, col, elem, coeff]")
    if (set(map(type, entries)) - {list} or set(map(len, entries)) - {5}
            or not _all_ints(chain.from_iterable(entries))):
        _refuse_entries(entries, n)
    entries = sorted(entries)
    if entries and not (1 <= entries[0][0] and entries[-1][0] <= n):
        _refuse_entries(data["entries"], n)
    # every element an entry names is checked, even in a term that is zero
    # or cancels, after the positions
    stray = entries and (min(map(itemgetter(3), entries)) < 0
                         or max(map(itemgetter(3), entries)) >= group.order)
    cells = [{} for _ in range(n + 1)]  # cells[k]: {(r, col): {elem: coeff}} of d_k
    pos, cell, zero = None, None, not all(map(itemgetter(4), entries))
    for k, r, col, elem, coeff in entries:
        if (k, r, col) != pos:
            if not (0 <= r < ranks[k] and 0 <= col < ranks[k - 1]):
                raise ValueError(f"entry position {(r, col)} out of range")
            pos, cell = (k, r, col), {}
            cells[k][r, col] = cell
        if elem in cell:
            cell[elem] += coeff
            zero = zero or not cell[elem]
        else:
            cell[elem] = coeff
    if stray:
        g = next(e[3] for e in entries if not 0 <= e[3] < group.order)
        raise ValueError(f"group element index {g} out of range")
    if zero:  # drop zero sums, then positions left without a term
        for m in cells:
            for at in list(m):
                m[at] = {g: v for g, v in m[at].items() if v}
                if not m[at]:
                    del m[at]
    boundaries = tuple(GroupRingMatrix(ranks[k], ranks[k - 1], cells[k])
                       for k in range(1, n + 1))
    return ChainComplexData(group, ranks, boundaries)
