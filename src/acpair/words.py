"""Freely reduced words in a finitely generated free group.

A word is a tuple of nonzero ints.  Letter ``+k`` is the generator with
0-based index ``k-1``, letter ``-k`` its inverse.  The empty tuple is the
identity.  All values are immutable and hashable, so words can be used as
dict keys and shared freely between threads.

``reduce`` and the parsers take any letters and return freely reduced
words; ``reduce`` returns a word that is already reduced as it is, after
checks that run at C speed.  ``multiply``, ``commutator`` and ``power``
take reduced words: they cancel letters only where their operands meet,
so their result is reduced when their operands are.

A byte word holds the same letters one per byte, letter x as the byte
2|x| + (x < 0), so that a letter's inverse is its byte XOR 1 and bytes
sort as ``letter_key`` does.  One byte holds the letters of at most
MAX_RANK generators, the program's generator limit.  ``_encode`` and
``_decode`` convert between the two forms at C speed, and the byte kernels
below them do a replay's work with ``bytes`` methods.

Generator names live at the presentation level (see ``presentations``);
words themselves are name-free, so the same word value makes sense in any
context with enough generators.  Rank checks happen where ranks are
declared.
"""

from __future__ import annotations

import re
from array import array
from itertools import chain, islice
from operator import add, neg
from typing import Iterable, Sequence

Word = tuple  # tuple[int, ...]

EMPTY: Word = ()

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")

# Most letters a parsed word, or all the relators of a presentation file,
# may spell out, so that a short token such as x^1000000000 cannot demand
# gigabytes.
MAX_WORD_LENGTH = 1_000_000

# Most generators a presentation may have: a byte word holds a letter in
# one byte (see the module docstring).
MAX_RANK = 127


def check_rank(rank: int, error: type = ValueError) -> None:
    """Refuse, with error, a rank beyond MAX_RANK."""
    if rank > MAX_RANK:
        raise error(f"{rank} generators: a presentation has at most "
                    f"{MAX_RANK} generators")


class LetterBudget:
    """The letters that one input may still spell out, or its work read,
    limit in all; `what` names the input in the error."""

    def __init__(self, what: str = "word", limit: int = MAX_WORD_LENGTH):
        self.what, self.limit, self.left = what, limit, limit

    def charge(self, letters: int) -> None:
        self.left -= letters
        if self.left < 0:
            raise ValueError(f"{self.what} spells out more than {self.limit} letters")

    def charge_tokens(self, tokens: int) -> None:
        """Charge the letters of `tokens` one-letter tokens at once, leaving
        the budget where charging them one at a time would stop it."""
        if tokens > self.left:
            self.charge(max(self.left, 0) + 1)
        self.left -= tokens


def reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence.  Idempotent: a tuple of nonzero
    ints in which no letter meets its inverse is returned as it is, after
    checks that each take one pass at C speed."""
    w = letters if type(letters) is tuple else tuple(letters)
    try:
        # the sum is an int for int (and bool) letters; a float or Fraction
        # letter makes it one of those, and a str or None raises TypeError
        if type(sum(w)) is int and 0 not in w and all(map(add, w, islice(w, 1, None))):
            return w
    except TypeError:
        pass
    return _reduce_letters(w)


def _reduce_letters(w: tuple) -> Word:
    """reduce, one letter at a time: the path for words that need it."""
    out: list[int] = []
    for x in w:
        if not isinstance(x, int) or x == 0:
            raise ValueError(f"bad letter {x!r}: letters are nonzero ints")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def multiply(u: Word, v: Word) -> Word:
    """Product of two reduced words: letters cancel only at the junction."""
    i, n, m = 0, len(u), min(len(u), len(v))
    while i < m and u[n - 1 - i] == -v[i]:
        i += 1
    return u[:n - i] + v[i:]


def invert(u: Word) -> Word:
    return tuple(map(neg, reversed(u)))


def multiply_inverse(u: Word, v: Word) -> Word:
    """u * v^-1 for reduced u and v.  Their longest common suffix cancels,
    found by comparing slices at C speed; what is left of u then meets the
    inverse of what is left of v without cancelling, and only that rest of
    v is inverted."""
    n, m = len(u), len(v)
    k = _longest(lambda k: u[n - k:] == v[m - k:], 0, min(n, m))
    return u[:n - k] + invert(v[:m - k])


def _longest(holds, low: int, high: int) -> int:
    """The largest k in low..high with holds(k), given holds(low) and that
    holds(k) implies holds(k - 1).  high is tried first, as words that
    meet mostly cancel all they can; then the rest is bisected."""
    k = high
    while low < high:
        if holds(k):
            low = k
        else:
            high = k - 1
        k = (low + high + 1) // 2
    return low


def commutator(u: Word, v: Word) -> Word:
    """u * v * u^-1 * v^-1."""
    return multiply(multiply(u, v), multiply(invert(u), invert(v)))


def power(u: Word, k: int) -> Word:
    """u^k as h c^k h^-1, where u = h c h^-1 with c cyclically reduced."""
    if k == 0:
        return EMPTY
    if k < 0:
        u, k = invert(u), -k
    core = cyclically_reduce(u)
    head = u[:(len(u) - len(core)) // 2]
    return head + core * k + invert(head)


def exponent_sum(u: Word, gen: int) -> int:
    """Signed count of occurrences of the generator with 0-based index gen."""
    target = gen + 1
    return sum(1 if x == target else -1 for x in u if abs(x) == target)


def identity_images(rank: int) -> tuple:
    """The images of the identity map g_i -> g_i, in generator order."""
    return tuple((i + 1,) for i in range(rank))


# Deterministic letter order: generator index ascending, positive sign first.

def letter_key(x: int) -> tuple:
    return (abs(x), x < 0)


def _letter_ranks(u: Word) -> list:
    """2|x| + (x < 0) for each letter x of u: ints in letter_key's order."""
    return [2 * x if x > 0 else 1 - 2 * x for x in u]


def word_key(u: Word) -> tuple:
    """Total order on words: by length, then letterwise."""
    return (len(u), tuple(_letter_ranks(u)))


def cyclically_reduce(u: Word) -> Word:
    i = 0
    while 2 * i + 1 < len(u) and u[i] == -u[-1 - i]:
        i += 1
    return u[i:len(u) - i]


def _least_rotation(keys: list) -> int:
    """Start of the lexicographically least rotation, by a two-pointer scan:
    i is the best start so far, j > i the next start not yet ruled out and
    k the length of their common prefix.  At the first difference, the
    larger side's start and the k after it each lose to the start as far
    after the other.  Linear: each step raises i + j + k, all below n."""
    n, doubled = len(keys), keys + keys
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
        elif a > b:
            i = max(i + k + 1, j)
            j, k = i + 1, 0
        else:
            j, k = j + k + 1, 0
    return i


def cyclic_canonical(u: Word) -> Word:
    """Canonical representative of the conjugacy-and-inversion class.

    Cyclically reduces, then takes the least rotation of the result or of
    its inverse under the letter order above.  Two words get equal outputs
    exactly when they are conjugate up to inversion.
    """
    u = cyclically_reduce(u)
    if not u:
        return u
    best = best_keys = None
    for cand in (u, invert(u)):
        keys = _letter_ranks(cand)
        r = _least_rotation(keys)
        keys = keys[r:] + keys[:r]
        if best_keys is None or keys < best_keys:
            best, best_keys = cand[r:] + cand[:r], keys
    return best


# ---------------------------------------------------------------------------
# Byte words (see the module docstring).  A letter x of a tuple word goes
# through array('b') to the byte x mod 256 and is then translated to
# 2|x| + (x < 0); decoding translates back and reads the signed bytes.  The
# kernels take reduced byte words, as multiply takes reduced words.

_TO_CODE = bytes(0 if r in (0, 128) else 2 * r if r < 128 else 513 - 2 * r
                 for r in range(256))
_FROM_CODE = bytes((c // 2 if c % 2 == 0 else -(c // 2)) % 256 for c in range(256))
_INVERSE = bytes(c ^ 1 for c in range(256))
# letters cancelled one at a time at a junction before endswith takes over
_RUN = 16


def _encode(u: Word) -> bytes:
    """The byte word of u, whose letters lie within MAX_RANK generators."""
    return array("b", u).tobytes().translate(_TO_CODE)


def _decode(u: bytes) -> Word:
    return tuple(memoryview(u.translate(_FROM_CODE)).cast("b"))


def _join(u: bytes, v: bytes) -> bytes:
    """u * v: letters cancel only where they meet, one at a time for the
    first _RUN, then found by endswith at C speed."""
    i, n, m = 0, len(u), len(v)
    while i < n and i < m and u[n - 1 - i] ^ 1 == v[i]:
        i += 1
        if i == _RUN:
            i = _longest(lambda k: u.endswith(_inverse(v[:k])), i, min(n, m))
            break
    return u[:n - i] + v[i:]


def _inverse(u: bytes) -> bytes:
    return u[::-1].translate(_INVERSE)


def _conjugate(u: bytes, w: bytes) -> bytes:
    """w * u * w^-1."""
    return _join(_join(w, u), _inverse(w))


def _commutator(u: bytes, v: bytes) -> bytes:
    """u * v * u^-1 * v^-1."""
    return _join(_join(u, v), _join(_inverse(u), _inverse(v)))


def _invert_generator(u: bytes, i: int) -> bytes:
    """u with g_i -> g_i^-1 substituted, i 0-based: one translate."""
    swap = _encode((i + 1, -(i + 1)))
    return u.translate(bytes.maketrans(swap, swap[::-1]))


def _multiply_generator(u: bytes, i: int, j: int, side: str) -> bytes:
    """u with g_i -> g_i g_j^-1 (right) or g_j^-1 g_i (left) substituted,
    i != j.  Two replaces write the images of g_i and g_i^-1.  Then the
    only letters that cancel are pairs g_j^-1 g_j (right) or g_j g_j^-1
    (left), each holding a letter that an image added, and removing them
    in one pass leaves a reduced word."""
    a, b = _encode((i + 1,)), _encode((j + 1,))
    inv_a, inv_b = _inverse(a), _inverse(b)
    if side == "right":
        return u.replace(a, a + inv_b).replace(inv_a, b + inv_a).replace(inv_b + b, b"")
    return u.replace(a, inv_b + a).replace(inv_a, inv_a + b).replace(b + inv_b, b"")


def _renumber_above(u: bytes, i: int) -> bytes:
    """u with every generator after g_i moved down one place; u holds no g_i."""
    above = _encode((-(i + 1),))[0]  # the higher byte of g_i's two
    return u.translate(bytes(c - 2 if c > above else c for c in range(256)))


# ---------------------------------------------------------------------------
# Text grammar: whitespace-separated tokens `name` or `name^k`, `1` = identity,
# where k is a nonzero decimal integer: ASCII digits, an optional minus sign.

def _letter_tokens(names: Sequence[str]) -> dict:
    """Letter -> the token that writes it alone: `name` or `name^-1`, the
    table write_word writes with.  A writer of many words builds it once
    per naming context."""
    tokens = {}
    for i, name in enumerate(names, 1):
        tokens[i], tokens[-i] = name, name + "^-1"
    return tokens


def _token_letters(names: Sequence[str]) -> dict:
    """`name` and `name^-1` -> letter: the table read_word reads with.  A
    reader of many words builds it once per naming context."""
    return {token: x for x, token in _letter_tokens(names).items()}


def parse_word(text: str, names: Sequence[str],
               budget: LetterBudget | None = None) -> Word:
    """Raises ValueError on text that is not a str, unknown names, bad
    exponents, and words that spell out more than the budget's letters
    before reduction: a fresh LetterBudget unless one is shared.  Each
    token is charged to the budget before it is expanded."""
    if budget is None:
        budget = LetterBudget()
    return read_word(text, _token_letters(names), budget)


def read_word(text: str, table: dict, budget: LetterBudget) -> Word:
    """parse_word over the table _token_letters(names).  One-letter tokens
    are charged together, before the next `name^k` token and at the end, as
    charging each in turn would."""
    if not isinstance(text, str):
        raise ValueError(f"a word must be text, not {text!r}")
    out: list[int] = []
    ones = 0  # one-letter tokens not yet charged
    for token in text.split():
        letter = table.get(token)
        if letter is not None:
            ones += 1
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
            continue
        if token == "1":
            continue
        if ones:
            budget.charge_tokens(ones)
            ones = 0
        base, _, exp = token.partition("^")
        letter = table.get(base)
        if letter is None:
            raise ValueError(f"unknown generator {base!r} in word {text!r}")
        digits = exp[1:] if exp[:1] == "-" else exp
        if not (digits.isdigit() and digits.isascii()):
            raise ValueError(f"bad exponent in token {token!r}")
        k = int(exp)
        if k == 0:
            raise ValueError(f"zero exponent in token {token!r}")
        if k < 0:
            letter, k = -letter, -k
        budget.charge(k)
        while k and out and out[-1] == -letter:
            out.pop()
            k -= 1
        out += [letter] * k
    if ones:
        budget.charge_tokens(ones)
    return tuple(out)


def json_int(value, what: str) -> int:
    """value, which must be a JSON integer: a float or a boolean is a
    ValueError, not an index, a count or a coefficient."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def write_word(u: Word, tokens: dict) -> str:
    """The text of u, one token per run of equal letters, written with the
    table _letter_tokens(names)."""
    if not u:
        return "1"
    parts = []
    prev, run = u[0], 0
    for x in chain(u, (None,)):  # None ends the last run
        if x == prev:
            run += 1
            continue
        token = tokens.get(prev)
        if token is None:
            raise ValueError(f"letter {prev} outside the naming context")
        parts.append(token if run == 1 else f"{tokens[abs(prev)]}^{run if prev > 0 else -run}")
        prev, run = x, 1
    return " ".join(parts)


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name)) and name != "1"
