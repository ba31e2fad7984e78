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
memory and 1-based in script files.  The words of ConjRel and RSFactor are
checked to be freely reduced words (see words) when the move is built.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass, fields
from itertools import chain
from typing import Sequence

from .presentations import Presentation, _key, canonical_key
from .words import (EMPTY, MAX_WORD_LENGTH, LetterBudget, Word, _conjugate,
                    _invert_generator, _letter_tokens, _multiply_generator,
                    _renumber_above, _token_letters, check_rank, check_word,
                    commutator, cyclic_canonical, generator, identity_images,
                    invert, json_int, multiply, read_word, valid_name, within,
                    write_word)


class MoveError(ValueError):
    """An illegal move: bad index or violated precondition."""


class RegimeError(MoveError):
    """A move outside the script's declared regime."""


@dataclass(frozen=True)
class ConjRel:
    j: int
    w: Word

    def __post_init__(self):
        check_word(self.w)


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
        check_word(self.w)
        check_word(self.h)


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


def _out_of_range(what: str, index: int, count: int) -> MoveError:
    return MoveError(f"{what} index {index} out of range (have {count})")


def _check_gen(i: int, rank: int):
    if not 0 <= i < rank:
        raise _out_of_range("generator", i, rank)


def _rel(rels: list, j: int) -> bytes:
    """Relator j, refused when j is out of range."""
    if not 0 <= j < len(rels):
        raise _out_of_range("relator", j, len(rels))
    return rels[j]


def _bounded(r: bytes) -> bytes:
    """r, refused when it is longer than MAX_WORD_LENGTH."""
    if len(r) > MAX_WORD_LENGTH:
        raise MoveError(f"relator of {len(r)} letters exceeds the "
                        f"{MAX_WORD_LENGTH}-letter bound")
    return r


def _in_context(w: Word, gens: tuple) -> Word:
    """w, a move word, refused if it has a letter outside gens."""
    if not within(w, len(gens)):
        raise MoveError(f"word uses a generator outside the context {', '.join(gens)}")
    return w


# One function per move kind applies it to rels in place, the relators over
# gens, and returns the generators after it.  Every relator built comes
# from reduced relators, read through _rel, and move words that are reduced
# when the move is built and checked by _in_context here, so callers wrap
# the result without validation.  Every relator a move builds passes _bounded.

def _conj_rel(rels: list, gens: tuple, move) -> tuple:
    r = _rel(rels, move.j)
    rels[move.j] = _bounded(_conjugate(r, _in_context(move.w, gens)))
    return gens


def _inv_rel(rels: list, gens: tuple, move) -> tuple:
    rels[move.j] = invert(_rel(rels, move.j))
    return gens


def _slide_rel(rels: list, gens: tuple, move) -> tuple:
    r, s = _rel(rels, move.j), _rel(rels, move.k)
    rels[move.j] = _bounded(multiply(s, r) if move.side == "left" else multiply(r, s))
    return gens


def _nielsen(rels: list, gens: tuple, move) -> tuple:
    """Substitute the inverse of the declared map through the relators:
    g_i -> g_i^-1, or g_i -> g_i g_j^-1 for a declared g_i -> g_i g_j
    (right) and g_i -> g_j^-1 g_i for a declared g_i -> g_j g_i (left)."""
    rank = len(gens)
    _check_gen(move.i, rank)
    if type(move) is not NielsenInv:
        _check_gen(move.j, rank)
    # the map moves only generator i, so a relator without it stays
    letter = generator(move.i)
    inverse = invert(letter)
    for idx, r in enumerate(rels):
        if letter in r or inverse in r:
            rels[idx] = _bounded(
                _invert_generator(r, move.i) if type(move) is NielsenInv
                else _multiply_generator(r, move.i, move.j, move.side))
    return gens


def _add_gen(rels: list, gens: tuple, move) -> tuple:
    if not valid_name(move.name):
        raise MoveError(f"invalid generator name {move.name!r}")
    if move.name in gens:
        raise MoveError(f"generator name {move.name!r} already in use")
    check_rank(len(gens) + 1, MoveError)
    rels.append(generator(len(gens)))
    return gens + (move.name,)


def _remove_gen(rels: list, gens: tuple, move) -> tuple:
    _check_gen(move.i, len(gens))
    letter = generator(move.i)
    inverse = invert(letter)
    hits = [idx for idx, r in enumerate(rels) if letter in r or inverse in r]
    if len(hits) != 1 or rels[hits[0]] not in (letter, inverse):
        raise MoveError(
            f"generator {move.i} is not removable: need exactly one relator, "
            f"equal to that generator or its inverse, and no other occurrence")
    del rels[hits[0]]
    rels[:] = [_renumber_above(r, move.i) for r in rels]
    return gens[:move.i] + gens[move.i + 1:]


def _add_trivial_rel(rels: list, gens: tuple, move) -> tuple:
    rels.append(b"")
    return gens


def _remove_trivial_rel(rels: list, gens: tuple, move) -> tuple:
    if _rel(rels, move.j):
        raise MoveError(f"relator {move.j} is not trivial")
    del rels[move.j]
    return gens


def _restricted_slide(rels: list, gens: tuple, move) -> tuple:
    """Each partial product passes _bounded, so the word built never holds
    more than MAX_WORD_LENGTH letters plus one factor."""
    word = _rel(rels, move.j)
    for f in move.factors:
        r = _rel(rels, f.k)
        w, h = _in_context(f.w, gens), _in_context(f.h, gens)
        base = r if f.sign > 0 else invert(r)
        word = _bounded(multiply(word, _conjugate(commutator(base, h), w)))
    rels[move.j] = word
    return gens


def _unknown_move(rels: list, gens: tuple, move) -> tuple:
    raise MoveError(f"unknown move {move!r}")


# Move class -> (apply, change in generators, change in relators, the
# regimes that admit it: "full", "k_prime", and "stabilized" for a k_prime
# script flagged as stabilized).  _fold dispatches here.
_ALL = ("full", "k_prime", "stabilized")
_MOVES = {
    ConjRel: (_conj_rel, 0, 0, _ALL),
    InvRel: (_inv_rel, 0, 0, _ALL),
    SlideRel: (_slide_rel, 0, 0, ("full",)),
    NielsenInv: (_nielsen, 0, 0, ("full",)),
    NielsenMul: (_nielsen, 0, 0, ("full",)),
    AddGen: (_add_gen, 1, 1, ("full",)),
    RemoveGen: (_remove_gen, -1, -1, ("full",)),
    AddTrivialRel: (_add_trivial_rel, 0, 1, ("full", "stabilized")),
    RemoveTrivialRel: (_remove_trivial_rel, 0, -1, ("full", "stabilized")),
    RestrictedSlide: (_restricted_slide, 0, 0, _ALL),
}
_UNKNOWN = (_unknown_move, 0, 0, ("full",))
# The moves that re-identify the boundary's generators or change their
# number; an equivalence rel boundary holds none of them.
_BOUNDARY_MOVES = frozenset(kind for kind, (apply, dn, _, _) in _MOVES.items()
                            if apply is _nielsen or dn)


def replay(p: Presentation, script) -> Presentation:
    """Left fold of the script's moves over p's relators, with regime and
    bookkeeping checks on every move.  script is a MoveScript or any
    iterable of full-regime moves."""
    if isinstance(script, MoveScript):
        moves, regime = script.moves, script.regime
        if regime == "k_prime" and script.stabilized:
            regime = "stabilized"
    else:
        moves, regime = script, "full"
    rels = list(p.relators)
    gens = _fold(rels, p.gens, moves, regime)
    return Presentation._trusted(gens, tuple(rels))


def _fold(rels: list, gens: tuple, moves, regime: str) -> tuple:
    """Apply moves to the relators rels, over gens, in place, as
    _MOVES admits them in regime ("full", "k_prime" or "stabilized"), and
    return the generators after them."""
    named = "k_prime" if regime == "stabilized" else regime
    n, m = len(gens), len(rels)
    for pos, move in enumerate(moves, start=1):
        apply, dn, dm, regimes = _MOVES.get(type(move), _UNKNOWN)
        if regime not in regimes:
            raise RegimeError(
                f"move {pos} ({type(move).__name__}) violates the "
                f"{named} regime")
        try:
            gens = apply(rels, gens, move)
        except MoveError as e:
            raise MoveError(f"move {pos} ({type(move).__name__}): {e}") from None
        n += dn
        m += dm
        # The Euler characteristic 1 - n + m follows from these counts.
        if len(gens) != n or len(rels) != m:
            raise MoveError(f"bookkeeping drift at move {pos}")
    return gens


@dataclass(frozen=True)
class EquivalenceCertificate:
    """A claimed equivalence, checkable by replay: script takes lhs to a
    presentation with the canonical key of rhs.  verify is the one place
    that decides such a claim."""

    lhs: Presentation
    rhs: Presentation
    script: MoveScript
    label: str = ""

    def verify(self) -> tuple:
        """(ok, message).  Never raises for replay failures.  A full-regime
        script fails on a move that re-identifies or changes the boundary,
        which would join classes that are not equivalent rel boundary."""
        if self.lhs.rank != self.rhs.rank:
            return False, "endpoint ranks differ"
        if self.script.regime == "full":
            for pos, move in enumerate(self.script.moves, start=1):
                if type(move) in _BOUNDARY_MOVES:
                    return False, (f"move {pos} ({type(move).__name__}) re-identifies "
                                   "or changes the boundary; a certificate holds "
                                   "relator moves only")
        try:
            result = replay(self.lhs, self.script)
        except MoveError as e:
            return False, f"replay failed: {e}"
        if canonical_key(result) != canonical_key(self.rhs):
            return False, "replay does not reach the right-hand key"
        return True, "ok"


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
    if replay(basis, script).relators != tuple(images):
        raise ValueError("images not certified by the supplied Nielsen script")
    return replay(p, script)


def _conjugated_slide(j: int, k: int, c: Word, e: int, side: str) -> list:
    """Moves multiplying relator j on side by c R_k^e c^-1 (e = +-1), which
    leave relator k as it was; c is reduced."""
    out = [SlideRel(j, k, side)]
    if e < 0:
        out = [InvRel(k)] + out + [InvRel(k)]
    if c:
        out = [ConjRel(k, c)] + out + [ConjRel(k, invert(c))]
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

_KINDS = {cls.__name__: cls for cls in _MOVES}
# the moves whose fields hold words, and those that change the generator names
_WORDY = frozenset(cls for cls in _MOVES
                   if {"w", "factors"} & {f.name for f in fields(cls)})
_RENAMING = frozenset(cls for cls, (_, dn, *_) in _MOVES.items() if dn)


def _read_name(value, *_) -> str:
    if type(value) is not str:
        raise ValueError(f"name must be a string, not {value!r}")
    return value


# field name -> (to the file, from the file), given the token table of the
# generator names in force at the move (words._letter_tokens to write,
# words._token_letters to read): indices are 1-based in files, words are
# text, and a word read is charged to the file's LetterBudget
_RULES = {
    "i": (lambda v, table: v + 1, lambda v, *_: json_int(v, "i") - 1),
    "j": (lambda v, table: v + 1, lambda v, *_: json_int(v, "j") - 1),
    "k": (lambda v, table: v + 1, lambda v, *_: json_int(v, "k") - 1),
    "sign": (lambda v, table: v, lambda v, *_: json_int(v, "sign")),
    "w": (write_word, read_word),
    "h": (write_word, read_word),
    "factors": (lambda v, table: [_to_json(f, table, {}) for f in v],
                lambda v, table, budget: tuple(_from_json(RSFactor, f, table, budget)
                                               for f in v)),
    "side": (lambda v, table: v, lambda v, *_: v),
    "name": (lambda v, table: v, _read_name),
}
_FIELDS = {cls: tuple((f.name, *_RULES[f.name]) for f in fields(cls))
           for cls in (*_KINDS.values(), RSFactor)}


def _to_json(obj, table: dict, out: dict) -> dict:
    """out, with the fields of a move or RSFactor written into it."""
    for f, write, _ in _FIELDS[type(obj)]:
        out[f] = write(getattr(obj, f), table)
    return out


def _from_json(cls, obj: dict, table: dict, budget: LetterBudget):
    return cls(*[read(obj[f], table, budget) for f, _, read in _FIELDS[cls]])


def _track_names(move, names: list) -> None:
    """Update names, the generator names in force before move, to those
    after it."""
    if isinstance(move, AddGen):
        names.append(move.name)
    elif isinstance(move, RemoveGen):
        _check_gen(move.i, len(names))
        del names[move.i]


# The codec builds the token table of the names in force when a move with
# words follows a change of names, not at each change: a script of many
# AddGen moves costs time and memory linear in its length.  Until the names
# change, it writes or reads each distinct move once and reuses what it made.

def script_to_json(script: MoveScript, names: Sequence[str]) -> dict:
    """Serialize, tracking the evolving generator names through the script."""
    current, table = list(names), None
    out, written = [], {}  # written: id of a move of the script -> its first dict
    for move in script.moves:
        if (obj := written.get(id(move))) is not None:
            out.append(obj.copy())
            continue
        if table is None and type(move) in _WORDY:
            table = _letter_tokens(current)
        out.append(obj := _to_json(move, table, {"op": type(move).__name__}))
        if type(move) in _RENAMING:
            _track_names(move, current)
            table = None
            written.clear()
        elif type(move) is not RestrictedSlide:  # whose factors a copy would share
            written[id(move)] = obj
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
    current, table = list(names), None
    moves, read = [], {}  # read: a raw move's marshal bytes -> (move, letters charged)
    for obj in data["moves"]:
        try:  # marshal writes each value with its type: 1, true and 1.0 differ
            key = marshal.dumps(obj)
        except ValueError:  # a value that JSON does not give is read as it is
            key = None
        if (hit := read.get(key)) is not None:
            budget.charge(hit[1])
            moves.append(hit[0])
            continue
        cls = _KINDS.get(obj["op"])
        if cls is None:
            raise MoveError(f"unknown op {obj['op']!r}")
        if table is None and cls in _WORDY:
            table = _token_letters(current)
        left = budget.left
        moves.append(_from_json(cls, obj, table, budget))
        if cls in _RENAMING:
            _track_names(moves[-1], current)
            table = None
            read.clear()
        elif key is not None:
            read[key] = moves[-1], left - budget.left
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
    letters = range(2, 2 * rank + 2)  # the letters, in letter order (see words)
    for length in range(1, max_len + 1):
        word, choices = bytearray(), [iter(letters)]  # one letter iterator per position
        while choices:
            x = next(choices[-1], None)
            if x is None:
                choices.pop()
                if word:
                    word.pop()
            elif not word or word[-1] ^ 1 != x:
                if len(word) + 1 == length:
                    yield bytes(word) + bytes((x,))
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
                if not r:
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
    classes = {}  # relator -> its class: a fragment rewrites one relator

    def successors(key):
        here = known[key][0]
        for fragment in _neighbor_fragments(here, regime, target_rels,
                                            budget.conjugator_length):
            rels = list(here.relators)
            _fold(rels, here.gens, fragment, regime)
            if any(len(r) > budget.max_relator_length for r in rels):
                continue
            for r in rels:
                if r not in classes:
                    classes[r] = cyclic_canonical(r)
            nxt = Presentation._trusted(here.gens, tuple(rels))
            nkey = _key(nxt, classes.__getitem__)
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
    if not EquivalenceCertificate(p, q, script).verify()[0]:
        raise ValueError("search script does not replay to the goal key")
    return SearchOutcome(script, "found", len(parents))
