"""Group presentations viewed as 2-complexes with a wedge-of-circles skeleton.

A presentation is an ordered generator tuple plus an ordered relator list.
The generator order is the identification of the 1-skeleton with the
ordered wedge of circles, so two presentations share a boundary exactly
when they have the same rank; generator names are display metadata and
carry no semantics (generator identity is positional).

Equality in the move-equivalence sense is handled in three regimes
elsewhere: the cheap canonical key below (sound, incomplete: it quotients
only by relator conjugation, inversion and reordering), certificate
replay, and bounded search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import homology
from .words import (EMPTY, LetterBudget, Word, _letter_tokens, _token_letters,
                    check_rank, cyclic_canonical, invert, multiply, read_word,
                    reduce, valid_name, word_key, write_word, exponent_sum)


@dataclass(frozen=True)
class Presentation:
    gens: tuple  # tuple[str, ...]
    relators: tuple  # tuple[Word, ...]

    def __post_init__(self):
        gens = tuple(self.gens)
        check_rank(len(gens))
        if len(set(gens)) != len(gens):
            raise ValueError("generator names must be unique")
        for name in gens:
            if not valid_name(name):
                raise ValueError(f"invalid generator name {name!r}")
        rels = tuple(reduce(r) for r in self.relators)
        for r in rels:
            if max(map(abs, r), default=0) > len(gens):
                raise ValueError(f"relator {r} uses a generator outside the context")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "relators", rels)

    @classmethod
    def _trusted(cls, gens: tuple, relators: tuple) -> "Presentation":
        """Build without validation.  The caller guarantees what
        ``__post_init__`` checks: unique valid names in a tuple, and a tuple
        of freely reduced relators using only those generators."""
        p = object.__new__(cls)
        object.__setattr__(p, "gens", gens)
        object.__setattr__(p, "relators", relators)
        return p

    @property
    def rank(self) -> int:
        return len(self.gens)

    def __str__(self):
        return format_presentation(self)


@dataclass(frozen=True)
class CanonicalKey:
    rank: int
    classes: tuple  # tuple[Word, ...], canonical forms, sorted here

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(sorted(self.classes, key=word_key)))

    def sort_key(self):
        return (self.rank, len(self.classes), tuple(word_key(w) for w in self.classes))


@dataclass(frozen=True)
class ClosedComplex:
    components: tuple  # tuple[CanonicalKey, ...], a multiset sorted here

    def __post_init__(self):
        object.__setattr__(self, "components",
                           tuple(sorted(self.components, key=CanonicalKey.sort_key)))

    def sort_key(self):
        return tuple(k.sort_key() for k in self.components)


@lru_cache(maxsize=1 << 16)
def canonical_key(p: Presentation) -> CanonicalKey:
    return _key(p, cyclic_canonical)


def _key(p: Presentation, canonical) -> CanonicalKey:
    """p's canonical key, with canonical(r) as the class of relator r."""
    return CanonicalKey(p.rank, tuple(map(canonical, p.relators)))


def serialize_key(key: CanonicalKey) -> str:
    """Rank plus one canonical word per line, with positional names g1..gn."""
    tokens = _letter_tokens([f"g{i + 1}" for i in range(key.rank)])
    lines = [str(key.rank)]
    lines.extend(write_word(w, tokens) for w in key.classes)
    return "\n".join(lines)


def euler_char(p: Presentation) -> int:
    return 1 - len(p.gens) + len(p.relators)


def product(p: Presentation, q: Presentation) -> Presentation:
    """Union along the common boundary wedge: same rank, relators concatenate.

    Boundary identification is positional; the first factor's names win.
    """
    if p.rank != q.rank:
        raise ValueError(f"boundary mismatch: ranks {p.rank} and {q.rank}")
    return Presentation._trusted(p.gens, p.relators + q.relators)


def unit_presentation(rank: int, names=None) -> Presentation:
    if names is None:
        names = tuple(f"g{i + 1}" for i in range(rank))
    return Presentation(tuple(names), ())


def wedge_s2(p: Presentation, count: int) -> Presentation:
    if count < 0:
        raise ValueError("count must be nonnegative")
    return Presentation._trusted(p.gens, p.relators + (EMPTY,) * count)


def fresh_name(taken, position: int) -> str:
    base = f"g{position + 1}"
    if base not in taken:
        return base
    k = 2
    while f"{base}_{k}" in taken:
        k += 1
    return f"{base}_{k}"


def wedge_s1(p: Presentation, count: int) -> Presentation:
    if count < 0:
        raise ValueError("count must be nonnegative")
    check_rank(p.rank + count)
    gens = list(p.gens)
    for _ in range(count):
        gens.append(fresh_name(set(gens), len(gens)))  # valid and unused
    return Presentation._trusted(tuple(gens), p.relators)


def forget_boundary(p: Presentation) -> ClosedComplex:
    """The closed complex obtained by dropping the boundary identification.

    This reuses the canonical key and therefore under-approximates equality
    of closed complexes: it does not quotient by moves that change the
    1-skeleton.  Equal values mean equal; distinct values claim nothing.
    """
    return ClosedComplex((canonical_key(p),))


def disjoint_union(c: ClosedComplex, d: ClosedComplex) -> ClosedComplex:
    return ClosedComplex(c.components + d.components)


def abelianization(p: Presentation) -> homology.AbelianGroup:
    """Invariant factors plus free rank of the relator exponent matrix.

    Cheap move-invariant "same group" oracle: preserved by every legal
    move script.
    """
    matrix = [[exponent_sum(r, g) for g in range(p.rank)] for r in p.relators]
    return homology.cokernel_invariants(matrix, p.rank)


# ---------------------------------------------------------------------------
# Text format:
#   gens: r s t
#   rel: s^2 t^-3
#   rel: r^2 s^3 = s^3 r^2      (a = b becomes the relator a b^-1)
# Comments start with '#'.


def parse_relator_text(text: str, table: dict, budget: LetterBudget) -> Word:
    """The relator of a relation read with read_word's table."""
    left, eq, right = text.partition("=")
    w = read_word(left, table, budget)
    if eq:
        if "=" in right:
            raise ValueError(f"more than one '=' in relation {text!r}")
        w = multiply(w, invert(read_word(right, table, budget)))
    return w


def parse_presentation(text: str, budget: LetterBudget | None = None) -> Presentation:
    """Parse the text format above; text that is not a str is a ValueError.
    The relators spell out at most words.MAX_WORD_LENGTH letters in all,
    counted before reduction and charged to budget: a fresh LetterBudget
    unless one is shared."""
    if not isinstance(text, str):
        raise ValueError(f"a presentation must be text, not {text!r}")
    gens = None
    relators = []
    if budget is None:
        budget = LetterBudget("presentation")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        if not colon:
            raise ValueError(f"line {lineno}: expected 'gens:' or 'rel:'")
        head = head.strip()
        rest = rest.strip()
        if head == "gens":
            if gens is not None:
                raise ValueError(f"line {lineno}: duplicate gens line")
            gens = tuple(rest.split())
            check_rank(len(gens))  # before a table of too many names is built
            table = _token_letters(gens)
        elif head == "rel":
            if gens is None:
                raise ValueError(f"line {lineno}: rel before gens")
            relators.append(parse_relator_text(rest, table, budget))
        else:
            raise ValueError(f"line {lineno}: unknown directive {head!r}")
    if gens is None:
        raise ValueError("missing gens line")
    return Presentation(gens, tuple(relators))


def format_presentation(p: Presentation) -> str:
    tokens = _letter_tokens(p.gens)
    lines = ["gens: " + " ".join(p.gens)]
    lines.extend("rel: " + write_word(r, tokens) for r in p.relators)
    return "\n".join(lines) + "\n"


def make_presentation(gens, relator_texts=()) -> Presentation:
    """Convenience constructor from 'x y' and relator strings."""
    names = tuple(gens.split()) if isinstance(gens, str) else tuple(gens)
    table = _token_letters(names)
    return Presentation(names, tuple(parse_relator_text(t, table, LetterBudget())
                                     for t in relator_texts))
