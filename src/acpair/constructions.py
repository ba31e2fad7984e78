"""Constructive pipelines: common-generator normalization, product
stabilization from normal-closure witnesses, the certified null-vector
pipeline, the Lustig presentation family, restricted-move certificate
checking, and bounded witness search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

from .moves import (ConjRel, EquivalenceCertificate, InvRel, MoveError,
                    MoveScript, RegimeError, SearchOutcome, SlideRel, _bounded,
                    _breadth_first, _nonnegative)
from .pairing import FormalSum, NullVectorReport, verify_null
from .presentations import (Presentation, euler_char, fresh_name, product,
                            wedge_s2)
from .words import (EMPTY, LetterBudget, Word, _letter_tokens, _rotate_generators,
                    _token_letters, check_rank, check_word, commutator, generator,
                    identity_images, invert, json_int, multiply, multiply_inverse,
                    power, read_word, within, write_word)


class WitnessError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Common generators (fixing a shared boundary wedge).


@dataclass(frozen=True)
class IsoWitness:
    """Claimed mutually inverse generator images: each second-presentation
    generator as a word in the first's generators and vice versa.  Nothing
    rests on their validity: common_generators is a 2-deformation for any
    images, and the pipeline's certificates are replayed."""

    y_in_x: tuple  # tuple[Word, ...]
    x_in_y: tuple  # tuple[Word, ...]

    def __post_init__(self):
        for image in chain(self.y_in_x, self.x_in_y):
            check_word(image, what="image")

    @classmethod
    def identity(cls, rank: int) -> "IsoWitness":
        return cls(identity_images(rank), identity_images(rank))

    def is_identity(self) -> bool:
        return (self.y_in_x == identity_images(len(self.y_in_x))
                and self.x_in_y == identity_images(len(self.x_in_y)))


@dataclass(frozen=True)
class CommonGeneratorsResult:
    p_prime: Presentation
    q_prime: Presentation


def common_generators(p: Presentation, q: Presentation,
                      witness: IsoWitness) -> CommonGeneratorsResult:
    """Rewrite both presentations over one generator tuple of rank a+c.

    The first presentation's generators come first; each added generator
    carries a linking relator equating it with the witness image, a Tietze
    transformation.  The second side's letters are then relabelled so that
    its added generators come first, as Nielsen swaps move letters; its
    names stay.  Both sides are what AddGen and Nielsen moves reach from
    the inputs, so they are 2-deformations of them.  When the generator
    tuples already coincide and the witness is the identity, both
    presentations are returned as they are.
    """
    a, c = p.rank, q.rank
    if len(witness.y_in_x) != c or len(witness.x_in_y) != a:
        raise WitnessError(
            f"witness dimensions {len(witness.y_in_x)}/{len(witness.x_in_y)} "
            f"do not match ranks {c}/{a}")
    if p.gens == q.gens and witness.is_identity():
        return CommonGeneratorsResult(p, q)
    p_prime = _adjoin_images(p, q.gens, witness.y_in_x)
    q_wide = _adjoin_images(q, p.gens, witness.x_in_y)
    # position k < a is the k-th added generator, position a + j the j-th of q
    q_prime = Presentation._trusted(q_wide.gens, tuple(
        _rotate_generators(r, a, a + c) for r in q_wide.relators))
    return CommonGeneratorsResult(p_prime, q_prime)


def _adjoin_images(p: Presentation, names: Sequence[str], images) -> Presentation:
    """p with one generator appended per image, named after names where
    that name is free, and one relator g * image^-1 linking it to its image
    over p's generators.  A built presentation spells out at most
    MAX_WORD_LENGTH letters, as a presentation file does."""
    for idx, image in enumerate(images):
        if not within(image, p.rank):
            raise WitnessError(f"image {idx + 1} lies outside the generators "
                               f"{', '.join(p.gens)}")
    check_rank(p.rank + len(images))
    budget = LetterBudget("a presentation over the common generators")
    budget.charge(sum(map(len, p.relators)))
    gens, rels = list(p.gens), list(p.relators)
    for name, image in zip(names, images):
        budget.charge(1 + len(image))
        rels.append(generator(len(gens)) + invert(image))
        gens.append(name if name not in gens else fresh_name(gens, len(gens)))
    return Presentation._trusted(tuple(gens), tuple(rels))


# ---------------------------------------------------------------------------
# Normal closure witnesses and product stabilization.


@dataclass(frozen=True)
class NormalClosureWitness:
    """target = prod over factors (g, r_index, sign) of g^-1 R^sign g,
    exactly in the free group.  Checked, never assumed."""

    target: Word
    factors: tuple  # tuple[(Word, int, int), ...]

    def __post_init__(self):
        check_word(self.target, what="target")
        object.__setattr__(self, "factors", tuple((g, k, s) for g, k, s in self.factors))
        for g, _, s in self.factors:
            check_word(g, what="conjugator")
            if s not in (1, -1):
                raise WitnessError(f"bad factor sign {s}")

    def product_word(self, relators: Sequence[Word]) -> Word:
        """The product; each partial product passes moves._bounded."""
        out: Word = EMPTY
        for g, k, s in self.factors:
            if not 0 <= k < len(relators):
                raise WitnessError(f"factor relator index {k} out of range")
            rel = relators[k] if s > 0 else invert(relators[k])
            out = _bounded(multiply(multiply(multiply_inverse(out, g), rel), g))
        return out

    def verify(self, relators: Sequence[Word]) -> bool:
        return self.product_word(relators) == self.target


def _check_witness(wit, target: Word, relators: Sequence[Word], name: str) -> None:
    """Raise a WitnessError led by name unless wit expresses target over relators."""
    if wit.target != target:
        raise WitnessError(f"{name} targets the wrong word")
    try:
        verified = wit.verify(relators)
    except MoveError as e:  # a partial product over the length bound
        raise WitnessError(f"{name}: {e}") from None
    if not verified:
        raise WitnessError(f"{name} fails verification")


def witness_to_json(wit: NormalClosureWitness, names: Sequence[str]) -> dict:
    tokens = _letter_tokens(names)
    return {
        "target": write_word(wit.target, tokens),
        "factors": [{"g": write_word(g, tokens), "r_index": k + 1, "sign": s}
                    for g, k, s in wit.factors],
    }


def witness_from_json(data, names: Sequence[str]) -> NormalClosureWitness:
    """The witness of one file, whose words share one LetterBudget and one
    token table."""
    budget = LetterBudget("witness")
    table = _token_letters(names)
    return NormalClosureWitness(
        read_word(data["target"], table, budget),
        tuple((read_word(f["g"], table, budget),
               json_int(f["r_index"], "r_index") - 1, json_int(f["sign"], "sign"))
              for f in data["factors"]))


def stabilization_moves(base: int, witnesses: Sequence[NormalClosureWitness]) -> list:
    """Moves clearing relator j = base + i by witness i, which expresses it
    over the first base relators.

    Relator j is held as frame r frame^-1, r the remainder, frame empty at
    first.  Factor (g, k, s) left-multiplies r by g^-1 R_k^-s g: relator k
    is inverted unless it is held as R_k^-s, relator j is conjugated by
    g frame^-1 unless that word is empty, so that frame = g, and relator k
    slides onto it from the left.  Relator j ends empty, and base relators
    are never conjugated: those left inverted are inverted back at the end.
    Equal moves are one object, built once.
    """
    moves, flipped = [], set()  # flipped: base relators held as R_k^-1
    made = {}  # (move class, *fields) -> the move

    def move(*key):
        return made.get(key) or made.setdefault(key, key[0](*key[1:]))

    for i, wit in enumerate(witnesses):
        frame = EMPTY
        for g, k, s in wit.factors:
            if (k in flipped) != (s > 0):
                flipped ^= {k}
                moves.append(move(InvRel, k))
            if c := multiply_inverse(g, frame):
                moves.append(move(ConjRel, base + i, c))
            frame = g
            moves.append(move(SlideRel, base + i, k, "left"))
    return moves + [move(InvRel, k) for k in sorted(flipped)]


def product_stabilization(l1: Presentation, l2: Presentation,
                          witnesses: Sequence[NormalClosureWitness]) -> MoveScript:
    """Script replaying l1*l2 to l1 with one trivial relator per l2 relator.

    One witness per relator of l2, each expressing it over l1's relators;
    witnesses are verified in the free group before any move is emitted.
    The script, built by stabilization_moves as null_vector_pipeline's are,
    touches only relators, never the skeleton: it conjugates only l2's, and
    ends on l1's relators exactly.  It is returned without being replayed,
    so the caller replays it.
    """
    if l1.rank != l2.rank:
        raise ValueError("presentations do not share a boundary")
    if len(witnesses) != (n := len(l2.relators)):
        raise WitnessError(f"need {n} {'witness' if n == 1 else 'witnesses'}, "
                           f"got {len(witnesses)}")
    for idx, (rel, wit) in enumerate(zip(l2.relators, witnesses)):
        _check_witness(wit, rel, l1.relators, f"witness {idx}")
    return MoveScript(stabilization_moves(len(l1.relators), witnesses))


# ---------------------------------------------------------------------------
# Witness search: bidirectional BFS over relator insertions.


def _join(head: bytes, tail: bytes) -> bytes:
    """head * tail for the search's short words, reduced.  Both are
    reduced, so letters cancel only where they meet, and a letter cancels
    its neighbour when their bytes differ in the last bit alone (see words)."""
    i, h, n = 0, len(head), len(tail)
    while i < h and i < n and head[h - 1 - i] ^ 1 == tail[i]:
        i += 1
    return head[:h - i] + tail[i:]


@dataclass(frozen=True)
class WitnessBudget:
    max_factors: int = 8
    max_conjugator_length: int = 4
    max_states: int = 20000

    def __post_init__(self):
        _nonnegative(self)


def search_normal_closure_witness(target: Word, relators: Sequence[Word],
                                  budget: WitnessBudget = WitnessBudget()):
    """Bounded bidirectional search for a normal closure witness.

    Returns a SearchOutcome whose result is a verified NormalClosureWitness,
    or None when the search stopped without one (which claims nothing):
    "exhausted" when the factor budget or both frontiers ran out,
    "state_cap" when the budget's max_states was reached first.  Factors
    are explored through relator insertions at prefix positions up to the
    conjugator bound, so any witness found has conjugators no longer than
    max_conjugator_length letters.  Words on either frontier have at most
    len(target) + 2 * (longest relator) + 2 * max_conjugator_length letters.
    The reduced products prefix * body are built once per prefix the search
    meets and kept for the call, so each insertion is one junction of such
    a product with the suffix.  Each state stores only its parent, the word
    whose insertion first reached it.  The found path is rebuilt edge by
    edge by running the parent's insertions again, from the same products,
    in search order and taking the first that yields the child, which is
    the edge the search took; the witness is then verified in the free
    group.
    A target or relator that is not a freely reduced word is a ValueError.
    """
    max_conjugator_length = budget.max_conjugator_length
    check_word(target, what="target")
    for r in relators:
        check_word(r, what="relator")
    longest = max((len(r) for r in relators), default=0)
    max_word_length = len(target) + 2 * longest + 2 * max_conjugator_length

    if not target:
        return SearchOutcome(NormalClosureWitness(target, ()), "found", 0)

    # Each relator and its inverse, in successor order.
    bodies = [(k, sign, rel if sign > 0 else invert(rel))
              for k, rel in enumerate(relators) if rel for sign in (1, -1)]
    # prefix -> (prefix * body reduced, its last letter or 0) per body, in
    # body order; a prefix's products are built when the search meets it
    products = {}

    def products_of(prefix):
        out = products.get(prefix)
        if out is None:
            out = products[prefix] = [(h, h[-1] if h else 0) for _, _, body in bodies
                                      for h in [_join(prefix, body)]]
        return out

    def successors(word):
        # each body inserted at each prefix position, reduced, if it fits:
        # one junction of a cached product with the suffix
        out = []
        n = len(word)
        for pos in range(min(max_conjugator_length, n) + 1):
            suffix = word[pos:]
            # the letter that would cancel the suffix's first; 0 is no letter
            after = word[pos] ^ 1 if pos < n else 0
            for h, last in products_of(word[:pos]):
                nxt = h + suffix if last != after else _join(h, suffix)
                if len(nxt) <= max_word_length:
                    out.append(nxt)
        return out

    # forward: strip factors off the front of the remaining word (from target),
    # backward: build the suffix product up from the empty word.  Each map
    # takes a word to its parent: word = parent[:pos] R_k^sign parent[pos:],
    # reduced, for the first such (pos, k, sign) in search order.
    reason, word, fwd, bwd = _breadth_first(target, EMPTY, successors, successors,
                                            budget.max_factors, budget.max_states)
    if reason != "found":
        return SearchOutcome(None, reason, len(fwd) + len(bwd))

    def walk(seen, word, orient):
        # The factors g^-1 R^(orient*sign) g, g = p^-1, on the parent links
        # from word back to its side's start.  A backward edge turns the
        # suffix v = p u into p rel^sign u = (p rel^sign p^-1) v, prepending
        # a factor; a forward edge strips F = p rel^-sign p^-1 off w = F w',
        # so the forward walk visits its factors last-first.
        out = []
        while (parent := seen[word]) is not None:
            pos, k, sign = next(
                (pos, k, sign)
                for pos in range(min(max_conjugator_length, len(parent)) + 1)
                for (k, sign, _), (h, _) in zip(bodies, products_of(parent[:pos]))
                if _join(h, parent[pos:]) == word)
            out.append((invert(parent[:pos]), k, orient * sign))
            word = parent
        return out

    # reversed, the forward factors read target = F_0 F_1 ...
    factors = walk(fwd, word, -1)[::-1] + walk(bwd, word, 1)
    wit = NormalClosureWitness(target, tuple(factors))
    if not wit.verify(relators):
        raise WitnessError("witness reconstruction failed verification")
    return SearchOutcome(wit, "found", len(fwd) + len(bwd))


# ---------------------------------------------------------------------------
# The certified null-vector pipeline.


@dataclass(frozen=True)
class PipelineResult:
    x: FormalSum
    certificates: tuple
    stabilizations: int
    unknown: tuple  # (label, SearchOutcome) of each witness not found
    report: NullVectorReport  # verify_null's, over x and the certificates

    @property
    def complete(self) -> bool:
        return not self.unknown


def _collect_witnesses(requests, budget, jobs):
    """One witness or None per (label, target, base relators, supplied
    witness or None) request, and the (label, SearchOutcome) of each search
    that stopped without one.  Every supplied witness is checked before any
    search runs.  Every missing one is searched, all in one process pool
    of at most jobs workers, one per search, and a found one was checked by
    the search itself."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    found = []
    for label, word, base, wit in requests:
        if wit is not None:
            _check_witness(wit, word, base, f"{label}: supplied witness")
        found.append(wit)
    missing = [n for n, wit in enumerate(found) if wit is None]
    args = ([requests[n][1] for n in missing], [requests[n][2] for n in missing],
            repeat(budget))
    workers = min(jobs, len(missing))
    if workers > 1:
        # imported here, as multiprocessing slows every command's start
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(search_normal_closure_witness, *args))
    else:
        outcomes = map(search_normal_closure_witness, *args)
    unknown = []
    for n, outcome in zip(missing, outcomes):
        found[n] = outcome.result
        if outcome.result is None:
            unknown.append((requests[n][0], outcome))
    return found, unknown


def null_vector_pipeline(common: CommonGeneratorsResult,
                         budget: WitnessBudget = WitnessBudget(),
                         witnesses_second_over_first=None,
                         witnesses_first_over_second=None,
                         jobs: int = 1) -> PipelineResult:
    """Certified null vector from two presentations of the same group with
    equal Euler characteristic, already rewritten over common generators.

    Each certificate takes a*b to a v mS^2: first_self (p1*p1), second_self
    (p2*p2), cross (p1*p2) and cross_second (p2*p1), a cross one only when
    all its witnesses are at hand.  Returns x = first - second with the
    certificates and verify_null's report on them.  Witnesses may be
    supplied per relator; otherwise they are searched within the budget.
    When a search stops without a witness the result carries its Unknown
    label and SearchOutcome.  Each script is stabilization_moves of its
    witnesses, one slide per factor.  Every certificate built is replayed
    once, by verify_null, complete or not: nothing unverified is ever
    emitted.
    """
    p1, p2 = common.p_prime, common.q_prime
    if euler_char(p1) != euler_char(p2):
        raise ValueError(
            f"Euler characteristics differ: {euler_char(p1)} vs {euler_char(p2)}")
    # common_generators adds one relator per added generator, so at equal
    # rank and equal Euler characteristic both sides hold m relators.
    m = euler_char(p1) - 1 + p1.rank
    x = FormalSum.of_presentation(p1) - FormalSum.of_presentation(p2)

    requests = []  # (label, target, base relators, supplied witness or None)
    for label, targets, base, supplied in (
            ("second_over_first", p2.relators, p1.relators, witnesses_second_over_first),
            ("first_over_second", p1.relators, p2.relators, witnesses_first_over_second)):
        # labels are 1-based, like the supplied witness files
        supplied = list(supplied or ())
        requests += [(f"{label}[{i + 1}]", word, base,
                      supplied[i] if i < len(supplied) else None)
                     for i, word in enumerate(targets)]
    wits, unknown = _collect_witnesses(requests, budget, jobs)

    # product(p2, p1) has the key of product(p1, p2), so verify_null joins
    # both stabilized wedges through the cross product.
    own1, own2 = ([NormalClosureWitness(r, ((EMPTY, i, 1),))
                   for i, r in enumerate(p.relators)] for p in (p1, p2))
    certs = [EquivalenceCertificate(product(a, b), wedge_s2(a, m),
                                    MoveScript(stabilization_moves(m, ws)), label)
             for label, a, b, ws in (("first_self", p1, p1, own1),
                                     ("second_self", p2, p2, own2),
                                     ("cross", p1, p2, wits[:m]),
                                     ("cross_second", p2, p1, wits[m:]))
             if None not in ws]

    report = verify_null(x, certs)
    failed = [label for label, ok, _ in report.certificate_status if not ok]
    if failed:
        raise WitnessError(f"pipeline certificates fail verification: "
                           f"{', '.join(failed)}")
    if not unknown and not report.null:
        raise WitnessError("pipeline produced certificates that do not "
                           "cancel the self-product")
    return PipelineResult(x, tuple(certs), m, tuple(unknown), report)


# ---------------------------------------------------------------------------
# Lustig family and restricted-regime certificates.


def lustig(i: int) -> Presentation:
    """Generators r, s, t with relators s^2 t^-3, [r^2, s^(2i+1)], [r^2, t^(3i+1)]
    (relations written as equalities convert by the left-times-right-inverse
    rule)."""
    if i < 1:
        raise ValueError("index must be a positive integer")
    LetterBudget(f"lustig({i})").charge(10 * i + 17)
    names = ("r", "s", "t")
    r, s, t = map(generator, range(3))
    rel1 = multiply(power(s, 2), power(t, -3))
    rel2 = commutator(power(r, 2), power(s, 2 * i + 1))
    rel3 = commutator(power(r, 2), power(t, 3 * i + 1))
    return Presentation(names, (rel1, rel2, rel3))


def verify_smove_certificates(l1: Presentation, l2: Presentation,
                              to_first: Sequence[MoveScript],
                              to_second: Sequence[MoveScript]) -> tuple:
    """Check restricted-regime scripts equating l1*l2 with both self-products.

    The to_first scripts, composed in order into one k_prime script, must
    take l1*l2 to the key of l1*l1, and the to_second scripts to the key of
    l2*l2; composing refuses a script of another regime.  A failed
    certificate is a MoveError led by its label.  Returns both certificates,
    usable for null-vector verification of l1 - l2 in the restricted setting.
    """
    if len(l1.relators) != len(l2.relators):
        raise ValueError("presentations must have the same relator count")
    start, certs = product(l1, l2), []
    for scripts, end, label in ((to_first, product(l1, l1), "to_first_self"),
                                (to_second, product(l2, l2), "to_second_self")):
        moves, stabilized = [], False  # each composed script is built once
        for script in scripts:
            if script.regime != "k_prime":
                raise RegimeError(f"cannot compose a k_prime script with a "
                                  f"{script.regime} script")
            moves += script.moves
            stabilized = stabilized or script.stabilized
        script = MoveScript(moves, "k_prime", stabilized)
        certs.append(EquivalenceCertificate(start, end, script, label))
    for cert in certs:
        ok, message = cert.verify()
        if not ok:
            raise MoveError(f"{cert.label}: {message}")
    return tuple(certs)
