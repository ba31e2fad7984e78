"""Reference copies of the dense exact eliminations, as test oracles.

`echelon` and `diagonalize` are the fraction-free echelon and the Smith
elimination of acpair.homology in their dense form: every row update
rebuilds the row's whole tail, and the pivot search scans every row of
the trailing block.  Their pivots and operations are those of
acpair.homology.  `echelon` also takes the trailing 2 x 2 block as
`minors`, as acpair.homology's echelons do.  The only other addition is
the optional `branches` Counter, which counts the branches in which
acpair.homology skips work or its sparse echelon keeps its index, so
that a test can show its corpus reaches each of them:

- "echelon p == prev == 1": a row updated after a unit pivot that follows
  a unit pivot (or starts the elimination);
- "echelon p == prev > 1": a row updated when the pivot equals the
  previous, non-unit pivot;
- "echelon p != prev, zero x": a row with a zero in the pivot column that
  is only rescaled;
- "echelon p != prev, nonzero x": a row rebuilt whole after a pivot that
  differs from the previous one;
- "echelon swap" and "echelon negated pivot": a pivot row moved up to the
  pivot position, and one made positive;
- "echelon fill-in" and "echelon cancel": an entry right of the pivot
  column that an update turns from zero to nonzero, or from nonzero to
  zero, which the sparse echelon adds to or drops from its column index;
- "echelon trailing block": the trailing 2 x 2 block taken as minors;
- "echelon pivot: first candidate a unit", "echelon pivot: first
  candidate +-q, a later unit" (q > 1) and "echelon pivot: no unit": a
  column whose first nonzero below the pivot rows is +-1, which the
  sparse echelon takes at once, one whose first is +-q with a +-1
  further down, and one with no +-1, where it keys every candidate by
  (|x|, place);
- "smith zero row skipped": a row of the trailing block that is all zero
  when the pivot search scans it;
- "smith fold": a non-unit pivot that does not divide the trailing block,
  so that a row is folded into the pivot row.
"""

from collections import Counter


def echelon(a, branches: Counter | None = None, minors: list | None = None) -> tuple:
    """(rank, minor), and the trailing block added to minors, as
    acpair.homology._echelon returns and adds them."""
    m = [list(map(int, row)) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    count = Counter() if branches is None else branches
    for c in range(cols):
        if rank == rows:
            break
        if minors is not None and c == rank == rows - 2 == cols - 2:
            minors += m[c][c:] + m[c + 1][c:]
            count["echelon trailing block"] += 1
        p, k = 0, None
        for i in range(rank, rows):
            x = abs(m[i][c])
            if x and (not p or x < p):
                p, k = x, i
                if x == 1:
                    break
        if k is None:
            continue
        first = next(abs(row[c]) for row in m[rank:] if row[c])
        count["echelon pivot: first candidate a unit" if first == 1 else
              "echelon pivot: no unit" if p > 1 else
              f"echelon pivot: first candidate +-{first}, a later unit"] += 1
        if k != rank:
            m[rank], m[k] = m[k], m[rank]
            sign = -sign
            count["echelon swap"] += 1
        top = m[rank]
        if top[c] < 0:
            top[c:] = [-x for x in top[c:]]
            sign = -sign
            count["echelon negated pivot"] += 1
        tail = top[c:]
        for row in m[rank + 1:]:
            x = row[c]
            if x:
                count["echelon p == prev == 1" if p == prev == 1 else
                      "echelon p == prev > 1" if p == prev else
                      "echelon p != prev, nonzero x"] += 1
                old = row[c + 1:]
                row[c:] = ([y * p - x * z for y, z in zip(row[c:], tail)] if prev == 1 else
                           [(y * p - x * z) // prev for y, z in zip(row[c:], tail)])
                for y, z in zip(old, row[c + 1:]):
                    if (y == 0) != (z == 0):
                        count["echelon fill-in" if z else "echelon cancel"] += 1
            elif p != prev:
                count["echelon p != prev, zero x"] += 1
                row[c:] = [y * p // prev for y in row[c:]]
        prev = p
        rank += 1
    return rank, sign * prev


def diagonalize(m: list, rows: int, cols: int, branches: Counter | None = None) -> None:
    below = m[rows:]
    for t in range(min(rows, cols)):
        p, pivot = 0, None
        for i in range(t, rows):
            if branches is not None and not any(m[i][t:cols]):
                branches["smith zero row skipped"] += 1
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
            if branches is not None:
                branches["smith fold"] += 1
            # Fold the offending row into row t; clearing row t then brings
            # a remainder the pivot does not divide.
            top[t:] = [x + y for x, y in zip(top[t:], offender[t:])]


def smith_normal_form(a, branches: Counter | None = None) -> tuple:
    """(d, u, v) as acpair.homology.smith_normal_form builds them, by
    `diagonalize` on the same bordered matrix."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(row) + [int(i == r) for i in range(rows)] for r, row in enumerate(a)]
    m += [[int(i == r) for i in range(cols)] for r in range(cols)]
    diagonalize(m, rows, cols, branches)
    return [row[:cols] for row in m[:rows]], [row[cols:] for row in m[:rows]], m[rows:]


def invariant_factors(a, branches: Counter | None = None) -> list:
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    diagonalize(m, rows, cols, branches)
    return [m[i][i] for i in range(min(rows, cols)) if m[i][i] != 0]
