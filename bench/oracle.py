"""Independent checks for benchmark outputs.

Everything here is written from the documented file formats and move
semantics and shares no code with ``acpair``, so a defect in the layer
being timed cannot also hide itself from the check.  Words are tuples of
nonzero ints: letter ``+k`` is generator ``k-1``, ``-k`` its inverse.
"""

from __future__ import annotations


def reduce(letters) -> tuple:
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def invert(w) -> tuple:
    return tuple(-x for x in reversed(w))


def multiply(*words) -> tuple:
    return reduce(x for w in words for x in w)


def cyclic_reduce(w) -> tuple:
    i, j = 0, len(w)
    while j - i > 1 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return tuple(w[i:j])


def _order(x: int) -> int:
    """Letter order of the canonical forms: index ascending, positive first."""
    return 2 * abs(x) + (x < 0)


def least_rotation(s) -> int:
    """Start of the lexicographically least rotation (Booth, IPL 1980)."""
    n = len(s)
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j % n]
        i = f[j - k - 1]
        while i != -1 and sj != s[(k + i + 1) % n]:
            if sj < s[(k + i + 1) % n]:
                k = j - i - 1
            i = f[i]
        if i == -1 and sj != s[(k + i + 1) % n]:
            if sj < s[(k + i + 1) % n]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return k


def canonical(w) -> tuple:
    """Least rotation of the cyclic reduction of w or of its inverse."""
    c = cyclic_reduce(w)
    if not c:
        return c
    best = None
    for cand in (c, invert(c)):
        ordered = [_order(x) for x in cand]
        k = least_rotation(ordered)
        rot = (ordered[k:] + ordered[:k], cand[k:] + cand[:k])
        if best is None or rot[0] < best[0]:
            best = rot
    return best[1]


def word_order(w) -> tuple:
    return (len(w), [_order(x) for x in w])


def key(relators) -> list:
    """Sorted canonical forms: the quotient by relator conjugation,
    inversion and reordering."""
    return sorted((canonical(r) for r in relators), key=word_order)


# ---------------------------------------------------------------------------
# Text formats: words are `name` / `name^k` tokens, `1` the identity.


def format_word(w, names) -> str:
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        name = names[abs(w[i]) - 1]
        k = j - i if w[i] > 0 else i - j
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(parts)


def parse_word(text: str, names) -> tuple:
    index = {name: i + 1 for i, name in enumerate(names)}
    letters = []
    for token in text.split():
        if token == "1":
            continue
        base, _, exp = token.partition("^")
        k = int(exp) if exp else 1
        letter = index[base] if k > 0 else -index[base]
        letters.extend([letter] * abs(k))
    return reduce(letters)


def format_presentation(gens, relators) -> str:
    lines = ["gens: " + " ".join(gens)]
    lines.extend("rel: " + format_word(r, gens) for r in relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> tuple:
    """(gens, relators) from presentation text without `=` relations."""
    gens, relators = None, []
    for line in text.splitlines():
        head, _, rest = line.partition(":")
        if head.strip() == "gens":
            gens = tuple(rest.split())
        elif head.strip() == "rel":
            relators.append(parse_word(rest, gens))
    return gens, relators


def parse_key(text: str) -> tuple:
    """(rank, classes) from the text printed by `acpair normalize`."""
    lines = text.strip().splitlines()
    rank = int(lines[0])
    names = [f"g{i + 1}" for i in range(rank)]
    return rank, [parse_word(line, names) for line in lines[1:]]


# ---------------------------------------------------------------------------
# Moves, as documented for script files (1-based indices).  Nielsen moves
# substitute the inverse of the declared map through every relator.


def _substitute(rel, images) -> tuple:
    """Image of `rel` under the map g -> images[g] (1-based generators)."""
    out = []
    for x in rel:
        for y in (images[x] if x > 0 else invert(images[-x])):
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def apply_move(rels: list, move: dict, names) -> list:
    op = move["op"]
    rels = list(rels)
    if op == "ConjRel":
        j = move["j"] - 1
        w = parse_word(move["w"], names)
        rels[j] = multiply(w, rels[j], invert(w))
    elif op == "InvRel":
        j = move["j"] - 1
        rels[j] = invert(rels[j])
    elif op == "SlideRel":
        j, k = move["j"] - 1, move["k"] - 1
        if j == k:
            raise ValueError("slide of a relator over itself")
        pair = (rels[k], rels[j]) if move["side"] == "left" else (rels[j], rels[k])
        rels[j] = multiply(*pair)
    elif op in ("NielsenInv", "NielsenMul"):
        i = move["i"]
        images = {g: (g,) for g in range(1, len(names) + 1)}
        if op == "NielsenInv":
            images[i] = (-i,)
        elif move["j"] == i:
            raise ValueError("Nielsen multiplication of a generator by itself")
        elif move["side"] == "right":
            images[i] = (i, -move["j"])
        else:
            images[i] = (-move["j"], i)
        rels = [_substitute(r, images) for r in rels]
    elif op == "AddTrivialRel":
        rels.append(())
    elif op == "RemoveTrivialRel":
        j = move["j"] - 1
        if rels[j]:
            raise ValueError(f"relator {j + 1} is not trivial")
        del rels[j]
    else:
        raise ValueError(f"move {op} is outside the checked move set")
    return rels


def replay(rels, script: dict, names) -> list:
    for move in script["moves"]:
        rels = apply_move(rels, move, names)
    return rels


# ---------------------------------------------------------------------------
# Integer matrices.


def determinant(a) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1
