import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from acpair.words import (EMPTY, MAX_WORD_LENGTH, LetterBudget, _least_rotation,
                          _letter_tokens, commutator, conjugate, cyclic_canonical,
                          cyclically_reduce, exponent_sum, invert, letter_key,
                          multiply, parse_word, power, reduce, substitute,
                          word_key, write_word)

import word_reference as ref
from test_forgery import oracle

X, Y = (1,), (2,)
NAMES = ("x", "y")


def w(text):
    return parse_word(text, NAMES)


def format_word(u, names):
    """The text of u over names, as the codecs write it."""
    return write_word(u, _letter_tokens(names))


def random_word(rng, rank=4, max_len=32):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.randint(1, rank)
        letters.append(g if rng.random() < 0.5 else -g)
    return reduce(letters)


def test_reduce_examples():
    assert reduce([1, -1, 2]) == (2,)
    assert reduce([]) == ()
    assert reduce([1, 2, -2, -1]) == ()


def test_reduce_idempotent():
    rng = random.Random(0)
    for _ in range(200):
        letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 24))]
        once = reduce(letters)
        assert reduce(once) == once


def test_reduce_rejects_zero():
    with pytest.raises(ValueError):
        reduce([1, 0])


def test_multiply_examples():
    assert multiply(w("x y"), w("y^-1 x")) == w("x x")
    assert multiply(w("x y"), EMPTY) == w("x y")
    assert multiply(X, invert(X)) == EMPTY


def test_group_laws_random():
    rng = random.Random(1)
    for _ in range(300):
        a, b, c = (random_word(rng) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, EMPTY) == a == multiply(EMPTY, a)
        assert multiply(a, invert(a)) == EMPTY
        assert invert(invert(a)) == a


def stack_inverse(u):
    return tuple(-x for x in reversed(u))


def test_word_kernel_matches_stack_reduction():
    # multiply cancels only at the junction of its reduced operands; it and
    # the functions built on it must agree with reducing the concatenation
    rng = random.Random(12)
    shapes = set()
    for _ in range(400):
        rank = rng.randint(1, 4)
        u = random_word(rng, rank, rng.choice((0, 3, 40, 1200)))
        roll = rng.random()
        if roll < 0.2:
            v = invert(u)  # cancels completely
        elif roll < 0.5:
            # cancels a random suffix of u, then goes on
            v = reduce(stack_inverse(u[rng.randint(0, len(u)):])
                       + random_word(rng, rank, rng.choice((0, 5, 600))))
        else:
            v = random_word(rng, rank, rng.choice((0, 5, 1200)))
        product = multiply(u, v)
        assert product == reduce(u + v)
        shapes.add((not u, not v, not product))
        assert conjugate(u, v) == reduce(v + u + stack_inverse(v))
        assert commutator(u, v) == reduce(u + v + stack_inverse(u) + stack_inverse(v))
        assert invert(u) == stack_inverse(u)
        k = rng.randint(-3, 3)
        assert power(u, k) == reduce((u if k >= 0 else stack_inverse(u)) * abs(k))
    # empty operands on each side, and products cancelling to the identity
    assert {(True, False, False), (False, True, False), (False, False, True),
            (True, True, True)} <= shapes


def test_invert_examples():
    assert invert(w("x y")) == w("y^-1 x^-1")
    assert invert(EMPTY) == EMPTY
    assert invert(w("x^-1")) == X


def test_conjugate_examples():
    assert conjugate(X, Y) == w("y x y^-1")
    assert conjugate(X, X) == X
    assert conjugate(EMPTY, w("x y")) == EMPTY


def test_commutator_examples():
    assert commutator(X, Y) == w("x y x^-1 y^-1")
    assert commutator(X, X) == EMPTY
    assert commutator(EMPTY, Y) == EMPTY


def test_exponent_sum():
    assert exponent_sum(commutator(X, Y), 0) == 0
    assert exponent_sum(w("x^2"), 0) == 2
    assert exponent_sum(w("x y"), 1) == 1


def test_exponent_sum_additive():
    rng = random.Random(2)
    for _ in range(200):
        a, b = random_word(rng), random_word(rng)
        for g in range(4):
            assert (exponent_sum(multiply(a, b), g)
                    == exponent_sum(a, g) + exponent_sum(b, g))


def test_substitute_examples():
    assert substitute(w("x y"), {0: X, 1: invert(X)}) == EMPTY
    assert substitute(X, {0: X}) == X
    assert substitute(w("x^2"), {0: (2, 3)}) == (2, 3, 2, 3)


def test_substitute_missing_image():
    with pytest.raises(ValueError):
        substitute(w("x y"), {0: X})


def test_substitute_is_homomorphism():
    rng = random.Random(3)
    images = {0: (2,), 1: (1, 2), 2: (-3,), 3: (1, -2, 1)}
    for _ in range(200):
        a, b = random_word(rng), random_word(rng)
        assert (substitute(multiply(a, b), images)
                == multiply(substitute(a, images), substitute(b, images)))
        assert substitute(invert(a), images) == invert(substitute(a, images))


def test_cyclic_canonical_examples():
    assert cyclic_canonical(w("y x y^-1")) == X
    assert cyclic_canonical(w("x^-1")) == X
    assert cyclic_canonical(EMPTY) == EMPTY


def brute_class(u, conjugators):
    """Conjugacy-and-inversion class by direct enumeration (oracle)."""
    out = set()
    for v in (u, invert(u)):
        for c in conjugators:
            out.add(conjugate(v, c))
    return out


def all_words(rank, length):
    layer = [EMPTY]
    out = [EMPTY]
    for _ in range(length):
        nxt = []
        for word in layer:
            for letter in (1, -1, 2, -2)[:2 * rank]:
                if word and word[-1] == -letter:
                    continue
                nxt.append(word + (letter,))
        out.extend(nxt)
        layer = nxt
    return out


def test_cyclic_canonical_is_class_invariant():
    # Oracle: brute-force conjugation over all short conjugators, words of
    # length <= 6 over two generators.
    short = all_words(2, 3)
    rng = random.Random(4)
    candidates = [u for u in all_words(2, 6) if len(u) >= 1]
    for u in rng.sample(candidates, 120):
        canon = cyclic_canonical(u)
        for v in brute_class(u, short):
            assert cyclic_canonical(v) == canon
        # the canonical form is itself in the class, up to conjugation
        assert cyclically_reduce(canon) == canon


def test_cyclic_canonical_least_in_letter_order():
    # + sorts before -, lower index before higher
    assert cyclic_canonical(w("x^-1 y")) == w("x y^-1")  # rotation of inverse
    assert cyclic_canonical(w("y^-1 x^-1")) == w("x y")
    assert word_key(w("x")) < word_key(w("x^-1")) < word_key(w("y"))


def test_word_key_orders_as_letter_key_tuples():
    # word_key ranks letters by 2|x| + (x < 0); the order must be that of
    # the letter_key tuples, by length first
    rng = random.Random(5)
    words = []
    for _ in range(3000):
        rank = rng.choice((1, 2, 3, 300))
        words.append(reduce(rng.choice((1, -1)) * rng.randint(1, rank)
                            for _ in range(rng.randint(0, 6))))
    assert (sorted(words, key=word_key)
            == sorted(words, key=lambda u: (len(u), tuple(map(letter_key, u)))))


def reference_cyclic_canonical(u):
    """The quadratic reference: every rotation of u and of its inverse."""
    u = cyclically_reduce(u)
    if not u:
        return u
    best = best_key = None
    for cand in (u, invert(u)):
        doubled = cand + cand
        for r in range(len(cand)):
            rot = doubled[r:r + len(cand)]
            key = tuple(letter_key(x) for x in rot)
            if best_key is None or key < best_key:
                best, best_key = rot, key
    return best


def test_cyclic_canonical_matches_rotation_scan():
    rng = random.Random(11)
    words = []
    for rank in (1, 2, 3):
        words += [random_word(rng, rank, 40) for _ in range(150)]
        words += [(rng.choice((1, -1)) * rng.randint(1, rank),) for _ in range(10)]
        for _ in range(40):
            # (x y)^k and other periodic words, rotated
            base = random_word(rng, rank, 5)
            word = power(base, rng.randint(1, 6))
            r = rng.randrange(len(word) + 1)
            words.append(word[r:] + word[:r])
        for _ in range(40):
            # conjugates that need cyclic reduction
            words.append(conjugate(random_word(rng, rank, 12), random_word(rng, rank, 6)))
    # conjugate to their own inverse
    words += [w("x y x^-1 y^-1"), w("x y x y^-1"), w("x^2 y^2 x^-2 y^-2"),
              w("x y^-1 x^-1 y"), w("x y x^-1 y x y^-1 x^-1 y^-1"), (1, 2, -1, -2) * 3]
    words += [reduce(power(w("x y"), k)) for k in (1, 2, 7)]
    # words that make a rotation scan compare long shared prefixes
    thue_morse = tuple(1 + bin(i).count("1") % 2 for i in range(200))
    for n in (1, 2, 3, 7, 64, 199):
        words += [(1,) * n + (2,), (2,) + (1,) * n, (1, 2) * n + (2,),
                  (1,) * n + (2,) + (1,) * n + (3,), thue_morse[:n + 1]]
    for u in words:
        assert cyclic_canonical(u) == reference_cyclic_canonical(u), u


def test_least_rotation_on_every_short_list():
    # every list of up to 9 keys from {0, 1, 2}: the start found must give
    # the least of all rotations, and the same rotation as the oracle's
    # Booth algorithm, which shares no code with the scan
    count = 0
    for n in range(1, 10):
        for keys in map(list, itertools.product(range(3), repeat=n)):
            r, b = _least_rotation(keys), oracle.least_rotation(keys)
            rotation = keys[r:] + keys[:r]
            assert 0 <= r < n and rotation == min(keys[s:] + keys[:s] for s in range(n)), keys
            assert rotation == keys[b:] + keys[:b], keys
            count += 1
    assert count == 29_523


def test_cyclic_canonical_keeps_no_table_of_its_length():
    # the scan holds the doubled keys and a few ints: a table of 2n Python
    # ints for x^99999 y would take the peak past 8 MB
    u = (1,) * 99_999 + (2,)
    tracemalloc.start()
    try:
        assert cyclic_canonical(u) == u
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000, peak


def test_power():
    assert power(X, 3) == (1, 1, 1)
    assert power(X, -2) == (-1, -1)
    assert power(w("x y"), 0) == EMPTY
    # a word that is not cyclically reduced keeps its head once
    assert power(w("x y x^-1"), 3) == w("x y^3 x^-1")
    assert power(w("x y^-1 x^-1"), -2) == w("x y^2 x^-1")
    assert power(w("x y x^-1"), 0) == EMPTY
    assert power(X, -1_000_000) == (-1,) * 1_000_000


def test_parse_format_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        u = random_word(rng, rank=2)
        assert parse_word(format_word(u, NAMES), NAMES) == u
    assert parse_word("1", NAMES) == EMPTY
    assert format_word(EMPTY, NAMES) == "1"
    assert parse_word("x^2 y^-3", NAMES) == (1, 1, -2, -2, -2)


def test_parse_word_errors():
    with pytest.raises(ValueError):
        parse_word("z", NAMES)
    with pytest.raises(ValueError):
        parse_word("x^0", NAMES)
    with pytest.raises(ValueError):
        parse_word("x^q", NAMES)
    # k is -?[0-9]+ in ASCII digits: no plus sign, underscore or other digits
    for token in ("x^+3", "x^1_0", "x^\u0663", "x^", "x^--1", "x^2.0", "x^^2"):
        with pytest.raises(ValueError, match=r"bad exponent in token"):
            parse_word(f"y {token}", NAMES)
    with pytest.raises(ValueError, match="more than 1000000 letters"):
        parse_word("x^1000001", NAMES)
    with pytest.raises(ValueError, match="more than 1000000 letters"):
        parse_word("x^600000 x^-600000", NAMES)


def _outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raised."""
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


def _random_text(rng, names):
    """Tokens name, name^-1, name^k and 1, the powers often cancelling part
    of, all of or more than the run before them, and at times a malformed
    or unknown token."""
    tokens = []
    for _ in range(rng.choice((0, 1, 4, 30, 200))):
        name, roll = rng.choice(names), rng.random()
        if roll < 0.35:
            tokens.append(name)
        elif roll < 0.6:
            tokens.append(name + "^-1")
        elif roll < 0.95:
            tokens.append(f"{name}^{rng.choice((1, -1)) * rng.randint(1, 6)}")
        else:
            tokens.append("1")
    if rng.random() < 0.25:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(
            ("q", "X", "x'", "^2", "x^", "x^0", "x^-0", "x^00", "x^+3", "x^1_0",
             "x^\u0663", "x^2.0", "x^--1", "x^^2", "x^-1^2", "y^3x")))
    return "".join(token + rng.choice((" ", "  ", "\t", "\n")) for token in tokens)


def test_word_codec_matches_the_letter_by_letter_reference():
    rng = random.Random(21)
    branches = Counter()
    name_sets = (("x", "y", "z", "w"), ("a'", "b_1", "a''", "_c"))
    for _ in range(300):
        rank = rng.randint(1, 4)
        names = rng.choice(name_sets)[:rank]
        u = random_word(rng, rank, rng.choice((0, 1, 5, 40, 300, 1200)))
        text = format_word(u, names)
        assert text == ref.format_word(u, names, branches)
        assert parse_word(text, names) == ref.parse_word(text, names, None, branches) == u
        text = _random_text(rng, names)
        budgets = [LetterBudget() for _ in range(2)]
        if rng.random() < 0.3:
            # a shared budget with a few letters left: plain tokens alone or
            # one power can cross it, before or after a malformed token
            spent = MAX_WORD_LENGTH - rng.randint(0, 40)
            for budget in budgets:
                budget.charge(spent)
        elif rng.random() < 0.1:
            text += f" x^{rng.choice((1, -1)) * (MAX_WORD_LENGTH + 1)}"
        assert (_outcome(parse_word, text, names, budgets[0])
                == _outcome(ref.parse_word, text, names, budgets[1], branches))
        assert budgets[0].left == budgets[1].left
        images = {i: random_word(rng, rank, rng.choice((0, 1, 3))) for i in range(rank)}
        if rng.random() < 0.2:
            # one or two missing images: the error names the first in u
            for i in rng.sample(range(rank), min(rank, rng.randint(1, 2))):
                del images[i]
        assert (_outcome(substitute, u, images)
                == _outcome(ref.substitute, u, images, branches))
    # the letter budget is crossed by plain tokens and by one power
    budget = LetterBudget()
    budget.charge(MAX_WORD_LENGTH - 2)
    assert _outcome(parse_word, "x y x", ("x", "y"), budget) == (
        ValueError, f"word spells out more than {MAX_WORD_LENGTH} letters")
    assert _outcome(parse_word, f"y x^{MAX_WORD_LENGTH + 1}", ("x", "y")) == (
        ValueError, f"word spells out more than {MAX_WORD_LENGTH} letters")
    assert min(branches.values()) >= 10 and sorted(branches) == [
        "format run of one", "parse name", "parse name^-1",
        "parse power cancels all of the run before it",
        "parse power cancels more than the run before it",
        "parse power cancels part of the run before it",
        "parse power, no cancellation",
        "substitute reuses an image", "substitute reuses an inverted image"], branches


def test_format_word_refuses_letters_outside_the_names():
    for letter in (0, 3, -3):
        with pytest.raises(ValueError, match=f"letter {letter} outside the naming context"):
            format_word((1, letter), NAMES)


def _kernel_outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def _kernel_corpus(rng):
    """Words for the kernels: reduced and unreduced, with zero, bool and
    non-int letters, and pairs whose junction cancels nothing, a run up to
    a mismatch, or the shorter word whole."""
    words = []
    for _ in range(600):
        roll = rng.random()
        if roll < 0.35:
            u = random_word(rng, 3, rng.choice((0, 1, 4, 40)))
        else:
            u = [rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(rng.randint(0, 12))]
            if roll < 0.6 and u:
                u[rng.randrange(len(u))] = rng.choice(
                    (0, True, False, 1.0, -2.5, "x", None, 10 ** 30))
            u = tuple(u)
        words.append(u)
    pairs = []
    for u in words:
        roll = rng.random()
        v = rng.choice(words)
        if roll < 0.5 and u:
            # v starts with the inverse of u's last letters, then goes on
            # with a letter that does not cancel, or stops
            run = rng.randint(1, len(u))
            head = tuple(-x if type(x) in (int, float) else x for x in reversed(u[-run:]))
            tail = random_word(rng, 3, rng.choice((0, 3)))
            v = head + tail
        pairs.append((u, v))
    return words, pairs


def test_word_kernels_match_the_letter_by_letter_reference():
    rng = random.Random(24)
    branches, errors = Counter(), Counter()
    words, pairs = _kernel_corpus(rng)
    outcomes = []
    for u in words:
        outcomes += [(reduce, _kernel_outcome(reduce, u),
                      _kernel_outcome(ref.reduce, u, branches)),
                     (reduce, _kernel_outcome(reduce, list(u)),
                      _kernel_outcome(ref.reduce, list(u))),
                     (invert, _kernel_outcome(invert, u), _kernel_outcome(ref.invert, u))]
    for u, v in pairs:
        outcomes += [(multiply, _kernel_outcome(multiply, u, v),
                      _kernel_outcome(ref.multiply, u, v, branches)),
                     (conjugate, _kernel_outcome(conjugate, u, v),
                      _kernel_outcome(ref.conjugate, u, v, branches))]
    for f, got, expected in outcomes:
        assert got == expected, (f.__name__, got, expected)
        if got and type(got[0]) is type:
            errors[f.__name__, got[0].__name__] += 1
    # bad letters are refused by reduce, and fail to negate in the others
    assert min(errors[f, kind] for f, kind in (
        ("reduce", "ValueError"), ("invert", "TypeError"), ("multiply", "TypeError"),
        ("conjugate", "TypeError"))) >= 5, errors
    # reduce returns a reduced tuple itself
    u = random_word(rng, 3, 40)
    assert reduce(u) is u
    assert min(branches.values()) >= 20 and sorted(branches) == [
        "multiply cancels a run up to a mismatch",
        "multiply cancels the shorter word whole", "multiply without cancellation",
        "reduce letter by letter", "reduce returns a reduced tuple as it is"], branches
