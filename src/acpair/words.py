"""Freely reduced words in a finitely generated free group.

A word is a tuple of nonzero ints.  Letter ``+k`` is the generator with
0-based index ``k-1``, letter ``-k`` its inverse.  The empty tuple is the
identity.  All values are immutable and hashable, so words can be used as
dict keys and shared freely between threads.

``reduce`` and the parsers take any letters and return freely reduced
words; ``reduce`` returns a word that is already reduced as it is, after
checks that run at C speed.  ``multiply``, ``conjugate``, ``commutator``
and ``power`` take reduced words: they cancel letters only where their
operands meet, so their result is reduced when their operands are.

Generator names live at the presentation level (see ``presentations``);
words themselves are name-free, so the same word value makes sense in any
context with enough generators.  Rank checks happen where ranks are
declared.
"""

from __future__ import annotations

import re
from itertools import chain, islice
from operator import add, neg
from typing import Iterable, Mapping, Sequence

Word = tuple  # tuple[int, ...]

EMPTY: Word = ()

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")

# Most letters a parsed word, or all the relators of a presentation file,
# may spell out, so that a short token such as x^1000000000 cannot demand
# gigabytes.
MAX_WORD_LENGTH = 1_000_000


class LetterBudget:
    """The letters that the words of one input may still spell out before
    reduction, MAX_WORD_LENGTH in all; `what` names the input in the error."""

    def __init__(self, what: str = "word"):
        self.what, self.left = what, MAX_WORD_LENGTH

    def charge(self, letters: int) -> None:
        self.left -= letters
        if self.left < 0:
            raise ValueError(f"{self.what} spells out more than {MAX_WORD_LENGTH} letters")

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


def conjugate(u: Word, w: Word) -> Word:
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
    target = gen + 1
    return sum(1 if x == target else -1 for x in u if abs(x) == target)


def substitute(u: Word, images: Mapping[int, Word]) -> Word:
    """Homomorphic extension of a generator map (0-based index -> word).

    Raises ValueError when a generator occurring in u has no image: the
    first such generator in u.
    """
    signed = {}  # letter -> its image, inverted for a negative letter
    for x in dict.fromkeys(u):
        idx = abs(x) - 1
        try:
            img = images[idx]
        except KeyError:
            raise ValueError(f"no image for generator index {idx}") from None
        signed[x] = invert(img) if x < 0 else img
    out: list[int] = []
    for x in u:
        for y in signed[x]:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


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
    """Start of the lexicographically least rotation, by Booth's algorithm
    (IPL 1980): a failure function over the doubled sequence, linear time."""
    doubled = keys + keys
    fail = [-1] * len(doubled)
    k = 0
    for j in range(1, len(doubled)):
        c = doubled[j]
        i = fail[j - k - 1]
        while i != -1 and c != doubled[k + i + 1]:
            if c < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if c != doubled[k + i + 1]:  # here i == -1
            if c < doubled[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


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
