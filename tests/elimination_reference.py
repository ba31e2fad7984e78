"""Reference copies of the dense exact eliminations, as test oracles.

`echelon` and `diagonalize` are the fraction-free echelon and the Smith
elimination of acpair.homology in their dense form: every row update
rebuilds the row's whole tail, and the pivot search scans every row of
the trailing block.  Their pivots and operations are those of
acpair.homology.  `echelon` also takes the trailing 2 x 2 block as
`minors`, as acpair.homology's echelon does.  The only other addition is
the optional `branches` Counter, which counts the branches in which
acpair.homology skips work or takes a rarer turn, so that a test can show
its corpus reaches each of them:

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
- "echelon trailing block": the trailing 2 x 2 block taken as minors;
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
                row[c:] = ([y * p - x * z for y, z in zip(row[c:], tail)] if prev == 1 else
                           [(y * p - x * z) // prev for y, z in zip(row[c:], tail)])
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
