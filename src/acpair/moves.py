"""Elementary moves on presentations, replayable scripts, and bounded search.

Move semantics
--------------
ConjRel(j, w)          relator_j -> w relator_j w^-1
InvRel(j)              relator_j -> relator_j^-1
SlideRel(j, k, side)   relator_j -> relator_k relator_j (left) or
                       relator_j relator_k (right), k != j
NielsenInv(i)          declared generator map g_i -> g_i^-1; the inverse map
                       (itself) is substituted through all relators
NielsenMul(i, j, side) declared map g_i -> g_i g_j (right) / g_j g_i (left);
                       the inverse map is substituted through all relators
AddGen(name)           append a generator AND a relator equal to it
RemoveGen(i)           strict inverse: some relator is exactly g_i^+-1 and
                       g_i occurs nowhere else
AddTrivialRel          append the empty relator
RemoveTrivialRel(j)    delete relator j, which must be empty
RestrictedSlide(j, fs) relator_j -> relator_j * prod w [relator_k^s, h] w^-1,
                       every factor with k != j (exponent-zero slides)

Scripts carry a regime: "full" permits everything; "k_prime" permits only
ConjRel, InvRel and RestrictedSlide, plus the trivial-relator moves when
the script is explicitly flagged as stabilized.  Indices are 0-based in
memory and 1-based in script files.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from typing import Sequence

from .presentations import Presentation, canonical_key
from .words import (EMPTY, MAX_WORD_LENGTH, LetterBudget, Word, commutator,
                    conjugate, format_word, identity_images, invert, json_int,
                    letter_key, multiply, parse_word, reduce, substitute,
                    valid_name)


class MoveError(ValueError):
    """An illegal move: bad index or violated precondition."""


class RegimeError(MoveError):
    """A move outside the script's declared regime."""


@dataclass(frozen=True)
class ConjRel:
    j: int
    w: Word


@dataclass(frozen=True)
class InvRel:
    j: int


@dataclass(frozen=True)
class SlideRel:
    j: int
    k: int
    side: str  # "left" | "right"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise MoveError(f"bad slide side {self.side!r}")
        if self.j == self.k:
            raise MoveError("cannot slide a relator over itself")


@dataclass(frozen=True)
class NielsenInv:
    i: int


@dataclass(frozen=True)
class NielsenMul:
    i: int
    j: int
    side: str

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise MoveError(f"bad Nielsen side {self.side!r}")
        if self.i == self.j:
            raise MoveError("Nielsen multiplication needs distinct generators")


@dataclass(frozen=True)
class AddGen:
    name: str


@dataclass(frozen=True)
class RemoveGen:
    i: int


@dataclass(frozen=True)
class AddTrivialRel:
    pass


@dataclass(frozen=True)
class RemoveTrivialRel:
    j: int


@dataclass(frozen=True)
class RSFactor:
    w: Word
    k: int
    sign: int
    h: Word

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise MoveError(f"bad factor sign {self.sign}")


@dataclass(frozen=True)
class RestrictedSlide:
    j: int
    factors: tuple  # tuple[RSFactor, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.k == self.j:
                raise MoveError(
                    f"restricted slide on relator {self.j} may not use relator {f.k}")


K_PRIME_MOVES = (ConjRel, InvRel, RestrictedSlide)
K_PRIME_STABILIZED_EXTRA = (AddTrivialRel, RemoveTrivialRel)


@dataclass(frozen=True)
class MoveScript:
    moves: tuple
    regime: str = "full"
    stabilized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple(self.moves))
        if self.regime not in ("full", "k_prime"):
            raise MoveError(f"unknown regime {self.regime!r}")

    def __len__(self):
        return len(self.moves)

    def __add__(self, other: "MoveScript") -> "MoveScript":
        if self.regime != other.regime:
            raise MoveError("cannot concatenate scripts of different regimes")
        return MoveScript(self.moves + other.moves, self.regime,
                          self.stabilized or other.stabilized)


def _check_rel(j: int, count: int):
    if not 0 <= j < count:
        raise MoveError(f"relator index {j} out of range (have {count})")


def _check_gen(i: int, rank: int):
    if not 0 <= i < rank:
        raise MoveError(f"generator index {i} out of range (have {rank})")


def _check_word(w: Word, rank: int) -> Word:
    """The reduced form of a word a move brings in; a zero letter raises
    ValueError, a letter outside the context MoveError."""
    if max(map(abs, w), default=0) > rank:
        raise MoveError(f"word {w} uses a generator outside the context")
    return reduce(w)


def _nielsen_substitution(move, rank: int) -> dict:
    """The map substituted through relators: the inverse of the declared map."""
    images = dict(enumerate(identity_images(rank)))
    if isinstance(move, NielsenInv):
        _check_gen(move.i, rank)
        images[move.i] = (-(move.i + 1),)
    else:
        _check_gen(move.i, rank)
        _check_gen(move.j, rank)
        if move.side == "right":  # declared g_i -> g_i g_j
            images[move.i] = (move.i + 1, -(move.j + 1))
        else:                      # declared g_i -> g_j g_i
            images[move.i] = (-(move.j + 1), move.i + 1)
    return images


def _bounded(relator: Word) -> Word:
    """relator, unless it is longer than a parsed word may be."""
    if len(relator) > MAX_WORD_LENGTH:
        raise MoveError(f"relator of {len(relator)} letters exceeds the "
                        f"{MAX_WORD_LENGTH}-letter bound")
    return relator


def _apply(rels: list, gens: tuple, move) -> tuple:
    """Apply one move to rels in place, the relators over gens, and return
    the generators after it.

    Every relator built here comes from reduced, in-range relators and
    checked move words, so callers wrap the result without validation.  A
    relator a move lengthens is checked against MAX_WORD_LENGTH.
    """
    rank = len(gens)
    if isinstance(move, ConjRel):
        _check_rel(move.j, len(rels))
        rels[move.j] = _bounded(conjugate(rels[move.j], _check_word(move.w, rank)))
    elif isinstance(move, InvRel):
        _check_rel(move.j, len(rels))
        rels[move.j] = invert(rels[move.j])
    elif isinstance(move, SlideRel):
        _check_rel(move.j, len(rels))
        _check_rel(move.k, len(rels))
        if move.side == "left":
            rels[move.j] = _bounded(multiply(rels[move.k], rels[move.j]))
        else:
            rels[move.j] = _bounded(multiply(rels[move.j], rels[move.k]))
    elif isinstance(move, (NielsenInv, NielsenMul)):
        images = _nielsen_substitution(move, rank)
        # the map moves only generator i, so a relator without it stays
        letter = move.i + 1
        for idx, r in enumerate(rels):
            if letter in r or -letter in r:
                rels[idx] = _bounded(substitute(r, images))
    elif isinstance(move, AddGen):
        if not valid_name(move.name):
            raise MoveError(f"invalid generator name {move.name!r}")
        if move.name in gens:
            raise MoveError(f"generator name {move.name!r} already in use")
        rels.append((rank + 1,))
        return gens + (move.name,)
    elif isinstance(move, RemoveGen):
        _check_gen(move.i, rank)
        letter = move.i + 1
        hits = [idx for idx, r in enumerate(rels) if any(abs(x) == letter for x in r)]
        if len(hits) != 1 or rels[hits[0]] not in ((letter,), (-letter,)):
            raise MoveError(
                f"generator {move.i} is not removable: need exactly one relator, "
                f"equal to that generator or its inverse, and no other occurrence")
        del rels[hits[0]]
        rels[:] = [tuple(x - 1 if x > letter else x + 1 if x < -letter else x for x in r)
                   for r in rels]
        return gens[:move.i] + gens[move.i + 1:]
    elif isinstance(move, AddTrivialRel):
        rels.append(EMPTY)
    elif isinstance(move, RemoveTrivialRel):
        _check_rel(move.j, len(rels))
        if rels[move.j] != EMPTY:
            raise MoveError(f"relator {move.j} is not trivial")
        del rels[move.j]
    elif isinstance(move, RestrictedSlide):
        _check_rel(move.j, len(rels))
        word = rels[move.j]
        for f in move.factors:
            _check_rel(f.k, len(rels))
            w = _check_word(f.w, rank)
            h = _check_word(f.h, rank)
            base = rels[f.k] if f.sign > 0 else invert(rels[f.k])
            word = multiply(word, conjugate(commutator(base, h), w))
        rels[move.j] = _bounded(word)
    else:
        raise MoveError(f"unknown move {move!r}")
    return gens


def apply_move(p: Presentation, move) -> Presentation:
    """One move on a validated presentation."""
    rels = list(p.relators)
    gens = _apply(rels, p.gens, move)
    return Presentation._trusted(gens, tuple(rels))


def _regime_allows(move, regime: str, stabilized: bool) -> bool:
    if regime == "full":
        return True
    if isinstance(move, K_PRIME_MOVES):
        return True
    return stabilized and isinstance(move, K_PRIME_STABILIZED_EXTRA)


def _counts_after(move, n: int, m: int) -> tuple:
    if isinstance(move, AddGen):
        return n + 1, m + 1
    if isinstance(move, RemoveGen):
        return n - 1, m - 1
    if isinstance(move, AddTrivialRel):
        return n, m + 1
    if isinstance(move, RemoveTrivialRel):
        return n, m - 1
    return n, m


def replay(p: Presentation, script: MoveScript) -> Presentation:
    """Left fold of the script's moves over one relator list, with regime
    and bookkeeping checks on every move."""
    rels, gens = list(p.relators), p.gens
    n, m = p.rank, len(rels)
    for pos, move in enumerate(script.moves, start=1):
        if not _regime_allows(move, script.regime, script.stabilized):
            raise RegimeError(
                f"move {pos} ({type(move).__name__}) violates the "
                f"{script.regime} regime")
        try:
            gens = _apply(rels, gens, move)
        except MoveError as e:
            raise MoveError(f"move {pos} ({type(move).__name__}): {e}") from None
        n, m = _counts_after(move, n, m)
        # The Euler characteristic 1 - n + m follows from these counts.
        if (len(gens), len(rels)) != (n, m):
            raise MoveError(f"bookkeeping drift at move {pos}")
    return Presentation._trusted(gens, tuple(rels))


def apply_automorphism(p: Presentation, images, script: MoveScript) -> Presentation:
    """p with the free-group automorphism g_i -> images[i] substituted
    through its relators.

    The script, of NielsenInv and NielsenMul moves only, certifies the map:
    replayed over the basis presentation, whose relators are g_1 ... g_n,
    it must reach the images.  The result is replay(p, script), so the map
    checked is the one replay substitutes.  Recognizing automorphisms is
    not attempted.
    """
    if len(images) != p.rank:
        raise ValueError("need one image per generator")
    if not all(isinstance(move, (NielsenInv, NielsenMul)) for move in script.moves):
        raise MoveError("an automorphism script holds Nielsen moves only")
    basis = Presentation._trusted(p.gens, identity_images(p.rank))
    if replay(basis, script).relators != tuple(reduce(w) for w in images):
        raise ValueError("images not certified by the supplied Nielsen script")
    return replay(p, script)


def _conjugated_slide(j: int, k: int, c: Word, e: int, side: str) -> list:
    """Moves multiplying relator j on side by c R_k^e c^-1 (e = +-1), which
    leave relator k as it was."""
    out = [SlideRel(j, k, side)]
    if e < 0:
        out = [InvRel(k)] + out + [InvRel(k)]
    if c != EMPTY:
        out = [ConjRel(k, c)] + out + [ConjRel(k, invert(c))]
    return out


def _compact(moves) -> list:
    """moves with InvRel(k) InvRel(k) cancelled, ConjRel(k, a) ConjRel(k, b)
    fused into ConjRel(k, b a) and ConjRel(k, ()) dropped, wherever such
    moves end up adjacent.  Each rule leaves the relators a replayable
    script reaches unchanged, and no SlideRel is touched."""
    out = []
    for move in moves:
        top = out[-1] if out else None
        if isinstance(move, ConjRel):
            if isinstance(top, ConjRel) and top.j == move.j:
                out.pop()
                move = ConjRel(move.j, multiply(move.w, top.w))
            if move.w:
                out.append(move)
        elif isinstance(move, InvRel) and move == top:
            out.pop()
        else:
            out.append(move)
    return out


def expand_restricted_slides(script: MoveScript) -> MoveScript:
    """Rewrite every RestrictedSlide as conjugate/invert/slide composites.

    Each factor w [R_k^s, h] w^-1 becomes two conjugated slides with
    opposite exponents of relator k, so the slide ledger of the result is
    zero on every pair it touches.
    """
    out = []
    for move in script.moves:
        if not isinstance(move, RestrictedSlide):
            out.append(move)
            continue
        for f in move.factors:
            out += _conjugated_slide(move.j, f.k, f.w, f.sign, "right")
            out += _conjugated_slide(move.j, f.k, multiply(f.w, f.h), -f.sign,
                                     "right")
    return MoveScript(tuple(out), "full", script.stabilized)


def invert_script(script: MoveScript) -> MoveScript:
    """The inverse script, for the structurally stable move kinds.

    Moves that change the relator or generator lists are rejected: their
    inverses are position-dependent.
    """
    out = []
    for move in reversed(script.moves):
        if isinstance(move, ConjRel):
            out.append(ConjRel(move.j, invert(move.w)))
        elif isinstance(move, (InvRel, NielsenInv)):
            out.append(move)
        elif isinstance(move, SlideRel):
            out.extend([InvRel(move.k), move, InvRel(move.k)])
        elif isinstance(move, NielsenMul):
            # Applied substitution of the declared move is g_i -> g_i g_j^-1
            # (right) resp. g_j^-1 g_i (left); conjugating by NielsenInv(j)
            # realizes the inverse substitution.
            out.extend([NielsenInv(move.j), move, NielsenInv(move.j)])
        elif isinstance(move, RestrictedSlide):
            inv_factors = tuple(
                RSFactor(multiply(f.w, f.h), f.k, f.sign, invert(f.h))
                for f in reversed(move.factors))
            out.append(RestrictedSlide(move.j, inv_factors))
        else:
            raise MoveError(f"cannot invert structural move {type(move).__name__}")
    return MoveScript(tuple(out), script.regime, script.stabilized)


def slide_exponent_ledger(script: MoveScript) -> dict:
    """Signed slide counts per (target, source) pair.

    Only ConjRel/InvRel/SlideRel scripts are accepted.  Each slide of
    relator j over relator k contributes the current inversion parity of
    relator k; a slide sequence is expressible with exponent-zero moves
    only if every ledger entry vanishes.
    """
    parity: dict = {}
    ledger: dict = {}
    for pos, move in enumerate(script.moves, start=1):
        if isinstance(move, ConjRel):
            continue
        if isinstance(move, InvRel):
            parity[move.j] = -parity.get(move.j, 1)
        elif isinstance(move, SlideRel):
            key = (move.j, move.k)
            ledger[key] = ledger.get(key, 0) + parity.get(move.k, 1)
        else:
            raise MoveError(
                f"move {pos} ({type(move).__name__}): ledger only covers "
                f"ConjRel/InvRel/SlideRel scripts")
    return ledger


# ---------------------------------------------------------------------------
# Script files.  JSON object {"regime": ..., "stabilized": ..., "moves": [...]};
# a bare array is accepted on input and treated as a full-regime script.
# A move is {"op": <class name>, <field>: <value>, ...} with its fields in
# class order, each written and read by the rule for its name.

_KINDS = {cls.__name__: cls for cls in (
    ConjRel, InvRel, SlideRel, NielsenInv, NielsenMul, AddGen, RemoveGen,
    AddTrivialRel, RemoveTrivialRel, RestrictedSlide)}


def _read_name(value, *_) -> str:
    if type(value) is not str:
        raise ValueError(f"name must be a string, not {value!r}")
    return value


# field name -> (to the file, from the file), given the generator names in
# force at the move: indices are 1-based in files, words are text, and a
# word read is charged to the file's LetterBudget
_RULES = {
    "i": (lambda v, names: v + 1, lambda v, *_: json_int(v, "i") - 1),
    "j": (lambda v, names: v + 1, lambda v, *_: json_int(v, "j") - 1),
    "k": (lambda v, names: v + 1, lambda v, *_: json_int(v, "k") - 1),
    "sign": (lambda v, names: v, lambda v, *_: json_int(v, "sign")),
    "w": (format_word, parse_word),
    "h": (format_word, parse_word),
    "factors": (lambda v, names: [_to_json(f, names, {}) for f in v],
                lambda v, names, budget: tuple(_from_json(RSFactor, f, names, budget)
                                               for f in v)),
    "side": (lambda v, names: v, lambda v, *_: v),
    "name": (lambda v, names: v, _read_name),
}
_FIELDS = {cls: tuple((f.name, *_RULES[f.name]) for f in fields(cls))
           for cls in (*_KINDS.values(), RSFactor)}


def _to_json(obj, names: list, out: dict) -> dict:
    """out, with the fields of a move or RSFactor written into it."""
    for f, write, _ in _FIELDS[type(obj)]:
        out[f] = write(getattr(obj, f), names)
    return out


def _from_json(cls, obj: dict, names: list, budget: LetterBudget):
    return cls(*[read(obj[f], names, budget) for f, _, read in _FIELDS[cls]])


def _track_names(move, names: list) -> None:
    """Update names, the generator names in force before move, to those
    after it."""
    if isinstance(move, AddGen):
        names.append(move.name)
    elif isinstance(move, RemoveGen):
        _check_gen(move.i, len(names))
        del names[move.i]


def script_to_json(script: MoveScript, names: Sequence[str]) -> dict:
    """Serialize, tracking the evolving generator names through the script."""
    current = list(names)
    out = []
    for move in script.moves:
        out.append(_to_json(move, current, {"op": type(move).__name__}))
        _track_names(move, current)
    data = {"regime": script.regime, "moves": out}
    if script.stabilized:
        data["stabilized"] = True
    return data


def script_from_json(data, names: Sequence[str],
                     budget: LetterBudget | None = None) -> MoveScript:
    """The script a script file holds.  Its words spell out at most
    words.MAX_WORD_LENGTH letters in all, counted before reduction and
    charged to budget: a fresh LetterBudget unless one is shared."""
    if isinstance(data, list):
        data = {"regime": "full", "moves": data}
    if budget is None:
        budget = LetterBudget("script")
    current = list(names)
    moves = []
    for obj in data["moves"]:
        cls = _KINDS.get(obj["op"])
        if cls is None:
            raise MoveError(f"unknown op {obj['op']!r}")
        moves.append(_from_json(cls, obj, current, budget))
        _track_names(moves[-1], current)
    stabilized = data.get("stabilized", False)
    if type(stabilized) is not bool:
        raise ValueError(f"'stabilized' must be true or false, not {stabilized!r}")
    return MoveScript(tuple(moves), data.get("regime", "full"), stabilized)


# ---------------------------------------------------------------------------
# Bounded breadth-first searches.


@dataclass(frozen=True)
class SearchOutcome:
    """How a bounded search ended: the equivalence search here and the
    witness search in constructions both return one.

    result is the MoveScript or NormalClosureWitness found, or None, which
    claims nothing.  reason is "found", "exhausted" (the bounded space was
    searched to its end: nothing exists within it) or "state_cap"
    (max_states was reached first: the space was not fully searched).
    states sums the sizes of the parent maps the search counts: a found
    witness search counts its meeting word in both of its maps, and the
    equivalence search counts the goal only once it is reached.
    """

    result: object
    reason: str
    states: int

    def __str__(self) -> str:
        return f"{self.reason} after {self.states} states"


def _breadth_first(start, goal, forward, backward, max_depth: int, max_states: int):
    """Breadth-first search from start, and from goal unless backward is
    None, until the sides meet, at once if start is goal.  Each step expands
    the smaller non-empty frontier, start's on a tie; max_depth bounds the
    steps of both sides.  A new state is tested against the other side's
    map, then stops the search if its side holds more than max_states less
    the other's states.  Returns (reason, meeting state or None, start map,
    goal map); a map takes each state to the one it was first reached from."""
    maps, steps = ({start: None}, {goal: None}), (forward, backward)
    if start == goal:
        return "found", start, *maps
    frontiers = [[start], [] if backward is None else [goal]]
    for _ in range(max_depth):
        if not (frontiers[0] or frontiers[1]):
            break
        side = int(not frontiers[0] or 0 < len(frontiers[1]) < len(frontiers[0]))
        seen, other = maps[side], maps[1 - side]
        cap = max_states - len(other)  # other does not grow while seen does
        new_frontier = []
        for state in frontiers[side]:
            for nxt in steps[side](state):
                if nxt in seen:
                    continue
                seen[nxt] = state
                if nxt in other:
                    return "found", nxt, *maps
                if len(seen) > cap:
                    return "state_cap", None, *maps
                new_frontier.append(nxt)
        frontiers[side] = new_frontier
    return "exhausted", None, *maps


def _nonnegative(budget) -> None:
    """Raise ValueError on a negative field of a search budget: a negative
    bound would report a verdict over an empty space."""
    for field in fields(budget):
        value = getattr(budget, field.name)
        if value < 0:
            raise ValueError(f"{field.name} must not be negative, not {value}")


@dataclass(frozen=True)
class SearchBudget:
    max_depth: int = 3
    max_relator_length: int = 24
    max_states: int = 10000
    conjugator_length: int = 3

    def __post_init__(self):
        _nonnegative(self)


def enumerate_words(rank: int, max_len: int):
    """All reduced words of length 1..max_len, shortest first and each
    length in letter order, made one at a time: the memory it holds grows
    with max_len, not with the number of words."""
    letters = sorted((x for i in range(1, rank + 1) for x in (i, -i)),
                     key=letter_key)
    for length in range(1, max_len + 1):
        word, choices = [], [iter(letters)]  # one letter iterator per position
        while choices:
            x = next(choices[-1], None)
            if x is None:
                choices.pop()
                if word:
                    word.pop()
            elif not word or word[-1] != -x:
                if len(word) + 1 == length:
                    yield tuple(word) + (x,)
                else:
                    word.append(x)
                    choices.append(iter(letters))


def _neighbor_fragments(p: Presentation, regime: str, target_rels: int,
                        conjugator_length: int):
    """Yield the move fragments that can change p's canonical key, in
    deterministic order.  A lone ConjRel or InvRel never does, so neither
    is a fragment.  k_prime's restricted slides take every conjugator w of
    at most conjugator_length letters, made as they are needed, and every
    one-letter h.  Every fragment applies to p: its relator indices
    are in range and distinct, its words are over p's generators, and it
    removes only empty relators."""
    m = len(p.relators)
    pairs = [(j, k) for j in range(m) for k in range(m) if j != k]
    if regime == "full":
        if m > target_rels:
            for j, r in enumerate(p.relators):
                if r == EMPTY:
                    yield [RemoveTrivialRel(j)]
        if m < target_rels:
            yield [AddTrivialRel()]
        for j, k in pairs:
            for side in ("left", "right"):
                for e in (1, -1):
                    yield _conjugated_slide(j, k, EMPTY, e, side)
    else:
        letters = list(enumerate_words(p.rank, 1))
        for j, k in pairs:
            for sign in (1, -1):
                for w in chain([EMPTY], enumerate_words(p.rank, conjugator_length)):
                    for h in letters:
                        yield [RestrictedSlide(j, (RSFactor(w, k, sign, h),))]


def bounded_equivalence_search(p: Presentation, q: Presentation,
                               budget: SearchBudget = SearchBudget(),
                               regime: str = "full"):
    """Breadth-first search for a move script from p to q.

    Returns a SearchOutcome whose result is a replay-verified MoveScript,
    or None when the search stopped without one ("exhausted" or
    "state_cap").  A None result claims nothing: inequivalence is never
    asserted.

    States are canonical keys.  The searched space holds the keys reached
    from p by at most max_depth fragments of _neighbor_fragments, with
    every relator at most max_relator_length letters; each fragment acts
    on the representative the search first met for the key it starts
    from.  Conjugating or inverting one relator never changes a key, so
    neither is a search step, and conjugator_length bounds only the
    conjugators of k_prime's restricted slides.  "exhausted" means that
    space was searched to its end.
    """
    if p.rank != q.rank:
        raise ValueError(f"boundary mismatch: ranks {p.rank} and {q.rank}")
    if regime not in ("full", "k_prime"):
        raise ValueError(f"unknown regime {regime!r}")
    goal = canonical_key(q)
    target_rels = len(q.relators)
    if regime == "k_prime" and len(p.relators) != target_rels:
        # k_prime moves preserve the relator count: no script exists
        return SearchOutcome(None, "exhausted", 0)
    start = canonical_key(p)
    # key -> (the representative first met, the fragment that reached it)
    known = {start: (p, ())}

    def successors(key):
        here = known[key][0]
        for fragment in _neighbor_fragments(here, regime, target_rels,
                                            budget.conjugator_length):
            nxt = here
            for move in fragment:
                nxt = apply_move(nxt, move)
            if any(len(r) > budget.max_relator_length for r in nxt.relators):
                continue
            nkey = canonical_key(nxt)
            if nkey not in known:
                known[nkey] = (nxt, tuple(fragment))
            yield nkey

    reason, _, parents, _ = _breadth_first(start, goal, successors, None,
                                           budget.max_depth, budget.max_states)
    if reason != "found":
        return SearchOutcome(None, reason, len(parents))
    moves, key = [], goal
    while key != start:
        moves[:0] = known[key][1]
        key = parents[key]
    script = MoveScript(tuple(moves), regime)
    if canonical_key(replay(p, script)) != goal:
        raise ValueError("search script does not replay to the goal key")
    return SearchOutcome(script, "found", len(parents))
