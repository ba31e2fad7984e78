"""Synthetic chain fixtures with vanishing homology below the top degree.

Starting from honest presentation-complex chain data (cyclic groups and
the order-6 symmetric group via Fox derivatives), the top boundary is
extended with rows spanning exactly the kernel of the previous boundary,
computed as a ZG-module: integer kernel basis from the Smith form, then a
greedy ZG-generating subset via lattice membership tests.  Randomized
extra rows are ZG-combinations of the generators, so the image is
unchanged and the codimension-one homology stays zero.
"""

import csv
import io
import random
from fractions import Fraction
from functools import lru_cache

from acpair.homology import (ChainComplexData, FiniteGroup, GroupRingMatrix,
                             gr_add, gr_mul, restrict_scalars,
                             smith_normal_form)

# ---------------------------------------------------------------------------
# Test-only helpers: a named group, a group-file writer, and two independent
# integer-matrix oracles (a plain product and a rank over Q).


def symmetric_group_3() -> FiniteGroup:
    return FiniteGroup.from_permutations([(1, 2, 0), (1, 0, 2)])


def dump_group_csv(group: FiniteGroup) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([group.order, group.identity])
    for row in group.table:
        writer.writerow(row)
    return out.getvalue()


def mat_mul(a, b) -> list:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rational_rank(a) -> int:
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

# ---------------------------------------------------------------------------
# Integer lattice utilities (row lattices).


def left_kernel_basis(mat):
    """Integer basis of {v : v * mat = 0} from the Smith transform."""
    rows = len(mat)
    if rows == 0:
        return []
    d, u, _ = smith_normal_form(mat)
    rank = sum(1 for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0)
    return [u[i] for i in range(rank, rows)]


def in_row_lattice(rows, v):
    """Is v an integer combination of the given rows?"""
    if not rows:
        return all(x == 0 for x in v)
    d, _, vt = smith_normal_form(rows)
    cols = len(rows[0])
    w = [sum(v[c] * vt[c][j] for c in range(cols)) for j in range(cols)]
    diag = [d[i][i] for i in range(min(len(rows), cols))]
    for j in range(cols):
        dj = diag[j] if j < len(diag) else 0
        if dj == 0:
            if w[j] != 0:
                return False
        elif w[j] % dj != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# ZG-module structure on restricted coordinates: blocks of |G| per cell.


def g_shift(vec, g, group):
    """Left multiplication by g on a restricted chain vector."""
    n = group.order
    out = [0] * len(vec)
    for base in range(0, len(vec), n):
        for h in range(n):
            c = vec[base + h]
            if c:
                out[base + group.mul(g, h)] += c
    return out


def zg_row_generators(mat, group):
    """ZG-generators of the left kernel of a restricted-scalars matrix.

    Rows of `mat` are restricted coordinates (|G| per ZG-rank).  Returns
    kernel generators as ZG-rows: lists of dicts {element: coeff}.
    """
    basis = left_kernel_basis(mat)
    gens = []
    span_rows = []
    for vec in basis:
        if in_row_lattice(span_rows, vec):
            continue
        gens.append(vec)
        for g in range(group.order):
            span_rows.append(g_shift(vec, g, group))
    n = group.order
    out = []
    for vec in gens:
        row = []
        for base in range(0, len(vec), n):
            cell = {h: vec[base + h] for h in range(n) if vec[base + h]}
            row.append(cell)
        out.append(row)
    return out


def random_zg(rng, group, spread=1):
    out = {}
    for _ in range(rng.randint(1, 2)):
        g = rng.randrange(group.order)
        c = rng.choice([x for x in range(-spread, spread + 1) if x])
        out[g] = out.get(g, 0) + c
    return {g: c for g, c in out.items() if c}


def zg_row_combination(rows, rng, group):
    """Random ZG-combination of generator rows."""
    width = len(rows[0])
    out = [{} for _ in range(width)]
    for row in rows:
        coeff = random_zg(rng, group)
        if not coeff:
            continue
        for j, cell in enumerate(row):
            out[j] = gr_add(out[j], gr_mul(coeff, cell, group))
    return out


# ---------------------------------------------------------------------------
# Base complexes: presentation chain data via Fox derivatives.


def _fox_entry(word, gen, group, eval_elem):
    """Fox derivative d(word)/d(gen) evaluated in ZG.

    eval_elem(prefix) gives the image of a word prefix in G.
    """
    out = {}
    prefix = []
    for letter in word:
        idx = abs(letter) - 1
        if letter > 0:
            if idx == gen:
                g = eval_elem(prefix)
                out[g] = out.get(g, 0) + 1
            prefix.append(letter)
        else:
            prefix.append(letter)
            if idx == gen:
                g = eval_elem(prefix)
                out[g] = out.get(g, 0) - 1
    return {g: c for g, c in out.items() if c}


def presentation_chain(group, gen_images, relators):
    """Ranks (1, #gens, #relators) chain data for a presentation of `group`.

    gen_images: image in G of each presentation generator; relators: words
    over those generators (tuples of signed 1-based letters).
    """
    inv = group.inverses

    def eval_word(letters):
        g = group.identity
        for x in letters:
            img = gen_images[abs(x) - 1]
            g = group.mul(g, img if x > 0 else inv[img])
        return g

    ngens = len(gen_images)
    d1_entries = {}
    for i in range(ngens):
        cell = {gen_images[i]: 1}
        cell[group.identity] = cell.get(group.identity, 0) - 1
        cell = {g: c for g, c in cell.items() if c}
        if cell:
            d1_entries[(i, 0)] = cell
    d1 = GroupRingMatrix.from_entries(ngens, 1, d1_entries)
    entries = {}
    for r, word in enumerate(relators):
        for gen in range(ngens):
            cell = _fox_entry(word, gen, group, eval_word)
            if cell:
                entries[(r, gen)] = cell
    d2 = GroupRingMatrix.from_entries(len(relators), ngens, entries)
    return ChainComplexData(group, (1, ngens, len(relators)), (d1, d2))


@lru_cache(maxsize=None)
def base_complex(kind):
    """Presentation chain data for the supported groups."""
    if kind == "trivial":
        group = FiniteGroup.trivial()
        # one generator killed by one relator
        return presentation_chain(group, [0], [(1,)])
    if kind.startswith("c"):
        m = int(kind[1:])
        group = FiniteGroup.cyclic(m)
        return presentation_chain(group, [1 % m], [(1,) * m])
    if kind == "s3":
        group = symmetric_group_3()
        a = 1  # image of the 3-cycle generator
        b = next(g for g in range(6)
                 if group.mul(g, g) == group.identity and g != group.identity)
        relators = [(1, 1, 1), (2, 2), (1, 2, 1, 2)]
        return presentation_chain(group, [a, b], relators)
    raise ValueError(kind)


GROUP_KINDS = ("trivial", "c2", "c3", "c4", "c5", "c6", "s3")


@lru_cache(maxsize=None)
def _kernel_generators(kind, level):
    """ZG-generators of the kernel of the level-th boundary of the extension."""
    chain = extend_complex(kind, level) if level > 2 else base_complex(kind)
    mat = restrict_scalars(chain.boundary(level), chain.group)
    return tuple(tuple(tuple(sorted(cell.items())) for cell in row)
                 for row in zg_row_generators(mat, chain.group))


@lru_cache(maxsize=None)
def extend_complex(kind, n):
    """Deterministic (G, n) chain datum: each boundary above dimension 2
    has rows generating exactly the kernel of the previous one."""
    chain = base_complex(kind)
    while chain.top_dim < n:
        level = chain.top_dim
        gens = _kernel_generators(kind, level)
        rows = [[dict(cell) for cell in row] for row in gens]
        if not rows:
            rows = [[{} for _ in range(chain.ranks[level])]]
        entries = {}
        for r, row in enumerate(rows):
            for c, cell in enumerate(row):
                if cell:
                    entries[(r, c)] = cell
        top = GroupRingMatrix.from_entries(len(rows), chain.ranks[level], entries)
        chain = ChainComplexData(chain.group, chain.ranks + (len(rows),),
                                 chain.boundaries + (top,))
    return chain


def random_gn_fixture(kind, n, rng, extra_rows=None):
    """Randomized (G, n) chain datum over the shared lower skeleton.

    The top boundary holds every kernel generator plus random
    ZG-combinations, so its image equals the kernel and the fixture has
    vanishing homology in dimensions 2..n-1, with at least two top cells.
    """
    deterministic = extend_complex(kind, n)
    base = ChainComplexData(deterministic.group, deterministic.ranks[:n],
                            deterministic.boundaries[:n - 1])
    gens = [[dict(cell) for cell in row] for row in _kernel_generators(kind, n - 1)]
    if not gens:
        gens = [[{} for _ in range(base.ranks[n - 1])]]
    rows = [row[:] for row in gens]
    count = extra_rows if extra_rows is not None else rng.randint(1, 2)
    for _ in range(max(count, 2 - len(rows) + 1)):
        rows.append(zg_row_combination(gens, rng, base.group))
    entries = {}
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            if cell:
                entries[(r, c)] = cell
    top = GroupRingMatrix.from_entries(len(rows), base.ranks[n - 1], entries)
    return ChainComplexData(base.group, base.ranks + (len(rows),),
                            base.boundaries + (top,))
