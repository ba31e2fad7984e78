"""Freely reduced words in a finitely generated free group.

A word is a tuple of nonzero ints.  Letter ``+k`` is the generator with
0-based index ``k-1``, letter ``-k`` its inverse.  The empty tuple is the
identity.  All values are immutable and hashable, so words can be used as
dict keys and shared freely between threads.

``reduce`` and the parsers take any letters and return freely reduced
words.  ``multiply``, ``conjugate``, ``commutator`` and ``power`` take
reduced words: they cancel letters only where their operands meet, so
their result is reduced when their operands are.

Generator names live at the presentation level (see ``presentations``);
words themselves are name-free, so the same word value makes sense in any
context with enough generators.  Rank checks happen where ranks are
declared.
"""

from __future__ import annotations

import re
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


def reduce(letters: Iterable[int]) -> Word:
    """Freely reduce a letter sequence.  Idempotent."""
    out: list[int] = []
    for x in letters:
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
    return tuple(map(int.__neg__, reversed(u)))


def conjugate(u: Word, w: Word) -> Word:
    """w * u * w^-1."""
    return multiply(multiply(w, u), invert(w))


def commutator(u: Word, v: Word) -> Word:
    """u * v * u^-1 * v^-1."""
    return multiply(multiply(u, v), multiply(invert(u), invert(v)))


def power(u: Word, k: int) -> Word:
    if k < 0:
        return power(invert(u), -k)
    out: Word = EMPTY
    for _ in range(k):
        out = multiply(out, u)
    return out


def exponent_sum(u: Word, gen: int) -> int:
    """Signed count of occurrences of the generator with 0-based index gen."""
    target = gen + 1
    return sum(1 if x == target else -1 for x in u if abs(x) == target)


def substitute(u: Word, images: Mapping[int, Word]) -> Word:
    """Homomorphic extension of a generator map (0-based index -> word).

    Raises ValueError when a generator occurring in u has no image.
    """
    out: list[int] = []
    for x in u:
        idx = abs(x) - 1
        try:
            img = images[idx]
        except KeyError:
            raise ValueError(f"no image for generator index {idx}") from None
        if x < 0:
            img = invert(img)
        for y in img:
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


def word_key(u: Word) -> tuple:
    """Total order on words: by length, then letterwise."""
    return (len(u), tuple(letter_key(x) for x in u))


def cyclically_reduce(u: Word) -> Word:
    while len(u) > 1 and u[0] == -u[-1]:
        u = u[1:-1]
    return u


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
        # 2|x| + (x < 0) orders letters exactly as letter_key does.
        keys = [2 * x if x > 0 else 1 - 2 * x for x in cand]
        r = _least_rotation(keys)
        keys = keys[r:] + keys[:r]
        if best_keys is None or keys < best_keys:
            best, best_keys = cand[r:] + cand[:r], keys
    return best


# ---------------------------------------------------------------------------
# Text grammar: whitespace-separated tokens `name` or `name^k`, `1` = identity.

def parse_word(text: str, names: Sequence[str],
               budget: LetterBudget | None = None) -> Word:
    """Raises ValueError on text that is not a str, unknown names, bad
    exponents, and words that spell out more than the budget's letters
    before reduction: a fresh LetterBudget unless one is shared."""
    if not isinstance(text, str):
        raise ValueError(f"a word must be text, not {text!r}")
    if budget is None:
        budget = LetterBudget()
    index = {name: i for i, name in enumerate(names)}
    out: list[int] = []
    for token in text.split():
        if token == "1":
            continue
        base, caret, exp = token.partition("^")
        if base not in index:
            raise ValueError(f"unknown generator {base!r} in word {text!r}")
        if caret:
            try:
                k = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
            if k == 0:
                raise ValueError(f"zero exponent in token {token!r}")
        else:
            k = 1
        budget.charge(abs(k))
        letter = index[base] + 1 if k > 0 else -(index[base] + 1)
        for _ in range(abs(k)):
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


def json_int(value, what: str) -> int:
    """value, which must be a JSON integer: a float or a boolean is a
    ValueError, not an index, a count or a coefficient."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def format_word(u: Word, names: Sequence[str]) -> str:
    if not u:
        return "1"
    parts = []
    i = 0
    while i < len(u):
        j = i
        while j < len(u) and u[j] == u[i]:
            j += 1
        idx = abs(u[i]) - 1
        if idx >= len(names):
            raise ValueError(f"letter {u[i]} outside the naming context")
        k = (j - i) if u[i] > 0 else -(j - i)
        parts.append(names[idx] if k == 1 else f"{names[idx]}^{k}")
        i = j
    return " ".join(parts)


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name)) and name != "1"
