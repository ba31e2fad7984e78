"""Freely reduced words in a finitely generated free group.

A word is a ``bytes`` value holding one letter per byte: the generator
with 0-based index i is the byte 2i + 2 and its inverse the byte 2i + 3.
So a letter's inverse is its byte XOR 1, and bytes sort in the letter
order: generator index ascending, each generator before its inverse.
Bytes 0 and 1 are no letter, and one byte holds the letters of at most
MAX_RANK generators, the program's generator limit.  The empty word is the
identity.  Words are immutable and hashable, so they can be dict keys and
shared freely between threads.

The parsers build freely reduced words, and the constructors that take
words from a caller refuse any other value through ``check_word``.  The
kernels below take reduced words and cancel letters only where their
operands meet, so their result is reduced when their operands are; they
do their work with ``bytes`` methods, at C speed.

Generator names live at the presentation level (see ``presentations``);
words themselves are name-free, so the same word value makes sense in any
context with enough generators.  Rank checks happen where ranks are
declared.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import Sequence

Word = bytes

EMPTY: Word = b""

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")

# Most letters a parsed word, or all the relators of a presentation file,
# may spell out, so that a short token such as x^1000000000 cannot demand
# gigabytes.
MAX_WORD_LENGTH = 1_000_000

# Most generators a presentation may have: a word holds a letter in one
# byte (see the module docstring).
MAX_RANK = 127

# The letters of MAX_RANK generators; the first 2n are those of n generators.
_LETTERS = bytes(range(2, 2 * MAX_RANK + 2))
_INVERSE = bytes(c ^ 1 for c in range(256))
# letters cancelled one at a time at a junction before endswith takes over
_RUN = 16


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


def generator(i: int) -> Word:
    """The one-letter word of the generator with 0-based index i."""
    return bytes((2 * i + 2,))


def identity_images(rank: int) -> tuple:
    """The images of the identity map g_i -> g_i, in generator order."""
    return tuple(map(generator, range(rank)))


def within(u: Word, rank: int) -> bool:
    """Whether every letter of u is one of the first rank generators' letters."""
    return not u.translate(None, _LETTERS[:2 * rank])


def check_word(u, rank: int = MAX_RANK, what: str = "word") -> Word:
    """u, refused with a ValueError led by `what` unless it is a freely
    reduced word over the first rank generators."""
    if type(u) is not bytes:
        raise ValueError(f"{what} must be a byte word, not {type(u).__name__}")
    if not within(u, rank):
        raise ValueError(f"{what} uses a generator outside the context")
    if len(u) > 1:
        # two neighbouring letters cancel exactly where their bytes XOR to
        # 1: u XOR u shifted by one letter is built at once, as an int
        shifted = int.from_bytes(u[1:], "little") ^ int.from_bytes(u[:-1], "little")
        if 1 in shifted.to_bytes(len(u) - 1, "little"):
            raise ValueError(f"{what} is not freely reduced")
    return u


def multiply(u: Word, v: Word) -> Word:
    """u * v: letters cancel only where they meet, one at a time for the
    first _RUN, then found by endswith at C speed."""
    i, n, m = 0, len(u), len(v)
    while i < n and i < m and u[n - 1 - i] ^ 1 == v[i]:
        i += 1
        if i == _RUN:
            i = _longest(lambda k: u.endswith(invert(v[:k])), i, min(n, m))
            break
    return u[:n - i] + v[i:]


def invert(u: Word) -> Word:
    return u[::-1].translate(_INVERSE)


def multiply_inverse(u: Word, v: Word) -> Word:
    """u * v^-1.  Their longest common suffix cancels, found by endswith;
    what is left of u then meets the inverse of what is left of v without
    cancelling, and only that rest of v is inverted."""
    n, m = len(u), len(v)
    k = _longest(lambda k: u.endswith(v[m - k:]), 0, min(n, m))
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


def _conjugate(u: Word, w: Word) -> Word:
    """w * u * w^-1."""
    return multiply(multiply(w, u), invert(w))


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
    letter = 2 * gen + 2
    return u.count(letter) - u.count(letter ^ 1)


def word_key(u: Word) -> tuple:
    """Total order on words: by length, then letterwise."""
    return (len(u), u)


def cyclically_reduce(u: Word) -> Word:
    i = 0
    while 2 * i + 1 < len(u) and u[i] ^ 1 == u[-1 - i]:
        i += 1
    return u[i:len(u) - i]


def _least_rotation(u) -> int:
    """Start of the lexicographically least rotation, by a two-pointer scan:
    i is the best start so far, j > i the next start not yet ruled out and
    k the length of their common prefix.  At the first difference, the
    larger side's start and the k after it each lose to the start as far
    after the other.  Linear: each step raises i + j + k, all below n."""
    n, doubled = len(u), u + u
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
    its inverse; bytes compare in the letter order.  Two words get equal
    outputs exactly when they are conjugate up to inversion.
    """
    u = cyclically_reduce(u)
    if not u:
        return u
    r = _least_rotation(u)
    best = u[r:] + u[:r]
    u = invert(u)
    r = _least_rotation(u)
    return min(best, u[r:] + u[:r])


# ---------------------------------------------------------------------------
# Substitutions of one generator map through a word, as a Nielsen move
# makes them.

def _invert_generator(u: Word, i: int) -> Word:
    """u with g_i -> g_i^-1 substituted, i 0-based: one translate."""
    swap = generator(i) + invert(generator(i))
    return u.translate(bytes.maketrans(swap, swap[::-1]))


def _multiply_generator(u: Word, i: int, j: int, side: str) -> Word:
    """u with g_i -> g_i g_j^-1 (right) or g_j^-1 g_i (left) substituted,
    i != j.  Two replaces write the images of g_i and g_i^-1.  Then the
    only letters that cancel are pairs g_j^-1 g_j (right) or g_j g_j^-1
    (left), each holding a letter that an image added, and removing them
    in one pass leaves a reduced word."""
    a, b = generator(i), generator(j)
    inv_a, inv_b = invert(a), invert(b)
    if side == "right":
        return u.replace(a, a + inv_b).replace(inv_a, b + inv_a).replace(inv_b + b, b"")
    return u.replace(a, inv_b + a).replace(inv_a, inv_a + b).replace(b + inv_b, b"")


def _renumber_above(u: Word, i: int) -> Word:
    """u with every generator after g_i moved down one place; u holds no g_i."""
    above = 2 * i + 3  # the higher byte of g_i's two
    return u.translate(bytes(c - 2 if c > above else c for c in range(256)))


# ---------------------------------------------------------------------------
# Text grammar: whitespace-separated tokens `name` or `name^k`, `1` = identity,
# where k is a nonzero decimal integer: ASCII digits, an optional minus sign.

def _letter_tokens(names: Sequence[str]) -> dict:
    """Letter -> the token that writes it alone: `name` or `name^-1`, the
    table write_word writes with.  A writer of many words builds it once
    per naming context."""
    tokens = {}
    for i, name in enumerate(names):
        tokens[2 * i + 2], tokens[2 * i + 3] = name, name + "^-1"
    return tokens


def _token_letters(names: Sequence[str]) -> dict:
    """`name` and `name^-1` -> letter: the table read_word reads with.  A
    reader of many words builds it once per naming context.  A letter is
    one byte, so more than MAX_RANK names are refused before it is built."""
    check_rank(len(names))
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
    charging each in turn would.  Each `name^k` token read is kept in table
    as (letter, count), and read from there at its next occurrence."""
    if not isinstance(text, str):
        raise ValueError(f"a word must be text, not {text!r}")
    out = bytearray()
    ones = 0  # one-letter tokens not yet charged
    for token in text.split():
        letter = table.get(token)
        if type(letter) is int:
            ones += 1
            if out and out[-1] ^ 1 == letter:
                out.pop()
            else:
                out.append(letter)
            continue
        if token == "1":
            continue
        if ones:
            budget.charge_tokens(ones)
            ones = 0
        if letter is None:
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
            letter = table[token] = (letter ^ 1, -k) if k < 0 else (letter, k)
        letter, k = letter
        budget.charge(k)
        while k and out and out[-1] ^ 1 == letter:
            out.pop()
            k -= 1
        out += bytes((letter,)) * k
    if ones:
        budget.charge_tokens(ones)
    return bytes(out)


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
            raise ValueError(f"generator {prev >> 1} outside the naming context")
        parts.append(token if run == 1 else
                     f"{tokens[prev & ~1]}^{-run if prev & 1 else run}")
        prev, run = x, 1
    return " ".join(parts)


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name)) and name != "1"
