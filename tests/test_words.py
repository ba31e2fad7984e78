import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from acpair.words import (EMPTY, MAX_RANK, MAX_WORD_LENGTH, LetterBudget,
                          _conjugate, _invert_generator, _least_rotation,
                          _letter_tokens, _multiply_generator, _renumber_above,
                          _token_letters, check_word, commutator, cyclic_canonical,
                          cyclically_reduce, exponent_sum, generator, invert,
                          multiply, multiply_inverse, parse_word, power,
                          read_word, within, word_key, write_word)

import word_reference as ref
from test_forgery import oracle
from word_reference import decode, encode

X, Y = generator(0), generator(1)
NAMES = ("x", "y")


def w(text):
    return parse_word(text, NAMES)


def format_word(u, names):
    """The text of u over names, as the codecs write it."""
    return write_word(u, _letter_tokens(names))


def random_letters(rng, rank=4, max_len=32):
    """A reduced tuple word (see word_reference) of up to max_len letters."""
    letters = []
    for _ in range(rng.randint(0, max_len)):
        g = rng.randint(1, rank)
        letters.append(g if rng.random() < 0.5 else -g)
    return ref.reduce(letters)


def random_word(rng, rank=4, max_len=32):
    return encode(random_letters(rng, rank, max_len))


def letter_key(x: int) -> tuple:
    """The letter order: generator index ascending, positive sign first."""
    return (abs(x), x < 0)


def test_reduce_examples():
    # words are freely reduced as they are read
    assert w("x y^-1 y") == X
    assert w("") == w("1") == EMPTY
    assert w("x y y^-1 x^-1") == EMPTY
    assert w("x^3 x^-2 y") == w("x y")


def test_reduce_idempotent():
    rng = random.Random(0)
    names = ("x", "y", "z")
    tokens = {x: names[abs(x) - 1] + ("^-1" if x < 0 else "") for x in (1, -1, 2, -2, 3, -3)}
    for _ in range(200):
        letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 24))]
        once = parse_word(" ".join(tokens[x] for x in letters), names)
        assert decode(once) == ref.reduce(letters)
        assert parse_word(format_word(once, names), names) == once
        assert check_word(once, 3) is once


def test_reduce_rejects_zero():
    # bytes 0 and 1 are no letter; nor is a tuple, a list or a bytearray a word
    for bad in (b"\x00", b"\x02\x01", b"\x01"):
        with pytest.raises(ValueError, match="word uses a generator outside the context"):
            check_word(bad)
    for bad in ((1,), [2], "x", bytearray(b"\x02"), None):
        with pytest.raises(ValueError, match=f"word must be a byte word, not {type(bad).__name__}"):
            check_word(bad)
    with pytest.raises(ValueError, match="relator 2 is not freely reduced"):
        check_word(encode((1, 2, -2)), 2, "relator 2")
    with pytest.raises(ValueError, match="uses a generator outside the context"):
        check_word(encode((1, 3)), 2)
    assert check_word(encode((2, -1, 2)), 2) == encode((2, -1, 2))


def test_check_word_accepts_exactly_the_reduced_words_over_the_rank():
    # against the tuple reference: a byte string is a word over rank
    # generators when every byte is one of their letters and reduce keeps
    # its letters as they are.  Neighbours that cancel are placed anywhere,
    # with the highest letters and bytes 0, 1 and 255 among them.
    rng = random.Random(3)
    verdicts = Counter()
    for _ in range(3000):
        rank = rng.choice((1, 2, 3, MAX_RANK))
        n = rng.choice((0, 1, 2, 3, 9, 40, 300))
        b = bytearray(encode(random_letters(rng, rank, n)))
        roll = rng.random()
        if roll < 0.3 and b:
            pos = rng.randrange(len(b))
            b.insert(pos + 1, b[pos] ^ 1)  # a letter next to its inverse
        elif roll < 0.45:
            b.insert(rng.randint(0, len(b)), rng.choice((0, 1, 255, min(2 * rank + 2, 255))))
        b = bytes(b)
        letters = decode(b)
        in_range = all(2 <= c < 2 * rank + 2 for c in b)
        valid = in_range and ref.reduce(letters) == letters
        try:
            assert check_word(b, rank) is b
            verdict = "word"
        except ValueError as e:
            verdict = str(e)
        assert (verdict == "word") == valid, (b, rank, verdict)
        assert within(b, rank) == in_range
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 100 and sorted(verdicts) == [
        "word", "word is not freely reduced",
        "word uses a generator outside the context"], verdicts


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


def test_word_kernel_matches_stack_reduction():
    # multiply cancels only at the junction of its reduced operands; it and
    # the functions built on it must agree with reducing the concatenation
    rng = random.Random(12)
    shapes = set()
    for _ in range(400):
        rank = rng.randint(1, 4)
        u = random_letters(rng, rank, rng.choice((0, 3, 40, 1200)))
        roll = rng.random()
        if roll < 0.2:
            v = ref.invert(u)  # cancels completely
        elif roll < 0.5:
            # cancels a random suffix of u, then goes on
            v = ref.reduce(ref.invert(u[rng.randint(0, len(u)):])
                           + random_letters(rng, rank, rng.choice((0, 5, 600))))
        else:
            v = random_letters(rng, rank, rng.choice((0, 5, 1200)))
        bu, bv = encode(u), encode(v)
        product = multiply(bu, bv)
        assert decode(product) == ref.reduce(u + v)
        shapes.add((not u, not v, not product))
        assert decode(_conjugate(bu, bv)) == ref.reduce(v + u + ref.invert(v))
        assert decode(commutator(bu, bv)) == ref.reduce(u + v + ref.invert(u) + ref.invert(v))
        assert decode(invert(bu)) == ref.invert(u)
        k = rng.randint(-3, 3)
        assert decode(power(bu, k)) == ref.reduce((u if k >= 0 else ref.invert(u)) * abs(k))
    # empty operands on each side, and products cancelling to the identity
    assert {(True, False, False), (False, True, False), (False, False, True),
            (True, True, True)} <= shapes


def test_invert_examples():
    assert invert(w("x y")) == w("y^-1 x^-1")
    assert invert(EMPTY) == EMPTY
    assert invert(w("x^-1")) == X


def test_conjugate_examples():
    assert _conjugate(X, Y) == w("y x y^-1")
    assert _conjugate(X, X) == X
    assert _conjugate(EMPTY, w("x y")) == EMPTY


def test_commutator_examples():
    assert commutator(X, Y) == w("x y x^-1 y^-1")
    assert commutator(X, X) == EMPTY
    assert commutator(EMPTY, Y) == EMPTY


def test_exponent_sum():
    assert exponent_sum(commutator(X, Y), 0) == 0
    assert exponent_sum(w("x^2"), 0) == 2
    assert exponent_sum(w("x y"), 1) == 1
    assert exponent_sum(w("x y^-3 x"), 1) == -3


def test_exponent_sum_additive():
    rng = random.Random(2)
    for _ in range(200):
        a, b = random_word(rng), random_word(rng)
        for g in range(4):
            assert (exponent_sum(multiply(a, b), g)
                    == exponent_sum(a, g) + exponent_sum(b, g))


def test_cyclic_canonical_examples():
    assert cyclic_canonical(w("y x y^-1")) == X
    assert cyclic_canonical(w("x^-1")) == X
    assert cyclic_canonical(EMPTY) == EMPTY


def brute_class(u, conjugators):
    """Conjugacy-and-inversion class of a tuple word by direct enumeration
    (oracle), as words."""
    out = set()
    for v in (u, ref.invert(u)):
        for c in conjugators:
            out.add(encode(ref.conjugate(v, c)))
    return out


def all_words(rank, length):
    """Every reduced tuple word of at most length letters."""
    layer = [()]
    out = [()]
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
        canon = cyclic_canonical(encode(u))
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
    # words compare as bytes; the order must be that of the letter_key
    # tuples of their letters, by length first
    rng = random.Random(5)
    words = []
    for _ in range(3000):
        rank = rng.choice((1, 2, 3, MAX_RANK))
        words.append(encode(ref.reduce(rng.choice((1, -1)) * rng.randint(1, rank)
                                       for _ in range(rng.randint(0, 6)))))
    assert (sorted(words, key=word_key)
            == sorted(words, key=lambda u: (len(u), tuple(map(letter_key, decode(u))))))


def reference_cyclic_canonical(u):
    """The quadratic reference on tuple words: every rotation of u, cyclically
    reduced, and of its inverse, in the letter_key order."""
    while len(u) > 1 and u[0] == -u[-1]:
        u = u[1:-1]
    if not u:
        return u
    best = best_key = None
    for cand in (u, ref.invert(u)):
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
        words += [random_letters(rng, rank, 40) for _ in range(150)]
        words += [(rng.choice((1, -1)) * rng.randint(1, rank),) for _ in range(10)]
        for _ in range(40):
            # (x y)^k and other periodic words, rotated
            base = decode(cyclically_reduce(random_word(rng, rank, 5)))
            word = base * rng.randint(1, 6)
            r = rng.randrange(len(word) + 1)
            words.append(word[r:] + word[:r])
        for _ in range(40):
            # conjugates that need cyclic reduction
            words.append(ref.conjugate(random_letters(rng, rank, 12),
                                       random_letters(rng, rank, 6)))
    # conjugate to their own inverse
    words += [decode(w(text)) for text in (
        "x y x^-1 y^-1", "x y x y^-1", "x^2 y^2 x^-2 y^-2", "x y^-1 x^-1 y",
        "x y x^-1 y x y^-1 x^-1 y^-1")] + [(1, 2, -1, -2) * 3]
    words += [decode(power(w("x y"), k)) for k in (1, 2, 7)]
    # words that make a rotation scan compare long shared prefixes
    thue_morse = tuple(1 + bin(i).count("1") % 2 for i in range(200))
    for n in (1, 2, 3, 7, 64, 199):
        words += [(1,) * n + (2,), (2,) + (1,) * n, (1, 2) * n + (2,),
                  (1,) * n + (2,) + (1,) * n + (3,), thue_morse[:n + 1]]
    for u in words:
        assert decode(cyclic_canonical(encode(u))) == reference_cyclic_canonical(u), u


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


def _peak(f, *args):
    """f(*args) and the peak of the memory that tracemalloc saw it take."""
    tracemalloc.start()
    try:
        result = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_cyclic_canonical_keeps_no_table_of_its_length():
    # the scan holds the doubled word and a few ints: a table of 2n Python
    # ints for x^99999 y would take the peak past 8 MB
    u = X * 99_999 + Y
    result, peak = _peak(cyclic_canonical, u)
    assert result == u
    assert peak < 8_000_000, peak


def test_cyclic_canonical_of_a_million_letters_peaks_below_8_mb():
    # the key of x^999999 y holds a few copies of its bytes, one byte a
    # letter: a tuple of its letters alone takes 8 MB
    u = X * 999_999 + Y
    result, peak = _peak(cyclic_canonical, u)
    assert result == u
    assert peak < 8_000_000, peak


def test_power():
    assert power(X, 3) == w("x^3")
    assert power(X, -2) == w("x^-2")
    assert power(w("x y"), 0) == EMPTY
    # a word that is not cyclically reduced keeps its head once
    assert power(w("x y x^-1"), 3) == w("x y^3 x^-1")
    assert power(w("x y^-1 x^-1"), -2) == w("x y^2 x^-1")
    assert power(w("x y x^-1"), 0) == EMPTY
    assert power(X, -1_000_000) == invert(X) * 1_000_000


def test_parse_format_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        u = random_word(rng, rank=2)
        assert parse_word(format_word(u, NAMES), NAMES) == u
    assert parse_word("1", NAMES) == EMPTY
    assert format_word(EMPTY, NAMES) == "1"
    assert parse_word("x^2 y^-3", NAMES) == encode((1, 1, -2, -2, -2))


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


def _parse_letters(text, names, budget):
    """The letters of the word parse_word reads, as the reference writes them."""
    return decode(parse_word(text, names, budget))


def test_word_codec_matches_the_letter_by_letter_reference():
    rng = random.Random(21)
    branches = Counter()
    name_sets = (("x", "y", "z", "w"), ("a'", "b_1", "a''", "_c"))
    for _ in range(300):
        rank = rng.randint(1, 4)
        names = rng.choice(name_sets)[:rank]
        u = random_letters(rng, rank, rng.choice((0, 1, 5, 40, 300, 1200)))
        text = format_word(encode(u), names)
        assert text == ref.format_word(u, names, branches)
        assert (decode(parse_word(text, names))
                == ref.parse_word(text, names, LetterBudget(), branches) == u)
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
        assert (_outcome(_parse_letters, text, names, budgets[0])
                == _outcome(ref.parse_word, text, names, budgets[1], branches))
        assert budgets[0].left == budgets[1].left
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
        "parse power, no cancellation"], branches


def test_read_word_over_a_warm_table_reads_as_over_a_cold_one():
    # read_word keeps each name^k token it reads in its table.  A table that
    # other words have warmed reads every word with the letters, the charges
    # and the error text of a fresh one, and a bad token is never kept
    names = ("x", "y", "z")
    rng = random.Random(31)
    warm = _token_letters(names)
    for _ in range(300):
        text = _random_text(rng, names)
        budgets = [LetterBudget() for _ in range(2)]
        if rng.random() < 0.3:
            spent = MAX_WORD_LENGTH - rng.randint(0, 40)
            for budget in budgets:
                budget.charge(spent)
        assert (_outcome(read_word, text, warm, budgets[0])
                == _outcome(read_word, text, _token_letters(names), budgets[1]))
        assert budgets[0].left == budgets[1].left
    assert {"x^2", "y^-3", "z^6"} <= set(warm)
    tokens = "x^2 y^-3 x y^-1 1 x^2 z^-6 x^-2".split()
    for bad in ("q^2", "q", "x^0", "x^-0", "x^+3", "x^", "x^\u0663", "x^2.0", "x^^2",
                "x^-1^2", "y^3x"):
        for pos in range(len(tokens) + 1):
            text = " ".join(tokens[:pos] + [bad] + tokens[pos:])
            cold = _outcome(read_word, text, _token_letters(names), LetterBudget())
            assert cold[0] is ValueError and bad in cold[1], (text, cold)
            assert _outcome(read_word, text, warm, LetterBudget()) == cold
            assert bad not in warm
        text = " ".join(tokens)
        assert read_word(text, warm, LetterBudget()) == parse_word(text, names)


def test_format_word_refuses_letters_outside_the_names():
    # the bytes of generator 3, over two names, and bytes 0 and 1, no letter
    for byte, generator_number in ((6, 3), (7, 3), (0, 0), (1, 0)):
        with pytest.raises(ValueError, match=f"generator {generator_number} outside "
                                             f"the naming context"):
            format_word(X + bytes((byte,)), NAMES)


def _kernel_corpus(rng):
    """Byte strings for the kernels: reduced words, and strings of letters
    with neighbours that cancel or bytes that are no letter, and pairs of
    words whose junction cancels nothing, a run up to a mismatch, or the
    shorter word whole."""
    strings = []
    for _ in range(600):
        roll = rng.random()
        if roll < 0.35:
            u = random_word(rng, 3, rng.choice((0, 1, 4, 40)))
        else:
            u = bytearray(encode([rng.choice((1, -1, 2, -2, 3, -3))
                                  for _ in range(rng.randint(0, 12))]))
            if roll < 0.6 and u:
                u[rng.randrange(len(u))] = rng.choice((0, 1))
            u = bytes(u)
        strings.append(u)
    words = [u for u in strings if 0 not in decode(u) and ref.reduce(decode(u)) == decode(u)]
    pairs = []
    for u in words:
        roll = rng.random()
        v = rng.choice(words)
        if roll < 0.5 and u:
            # v starts with the inverse of u's last letters, then goes on
            # with a letter that does not cancel, or stops
            run = rng.randint(1, len(u))
            v = encode(ref.reduce(ref.invert(decode(u)[-run:])
                                  + random_letters(rng, 3, rng.choice((0, 3)))))
        pairs.append((u, v))
    return strings, pairs


def test_word_kernels_match_the_letter_by_letter_reference():
    # check_word accepts what reduce keeps as it is and refuses the rest;
    # invert and multiply on the words it accepts give the reference's
    # letters
    rng = random.Random(24)
    branches, verdicts = Counter(), Counter()
    strings, pairs = _kernel_corpus(rng)
    for u in strings:
        letters = decode(u)
        expected = _kernel_outcome(ref.reduce, letters, branches)
        got = _kernel_outcome(check_word, u, 3)
        verdicts[got if type(got) is tuple else "word"] += 1
        if got is u:
            assert expected == letters
            assert decode(invert(u)) == ref.invert(letters)
        else:
            assert expected != letters, (u, got, expected)
    for u, v in pairs:
        assert decode(multiply(u, v)) == ref.multiply(decode(u), decode(v), branches)
    assert min(verdicts.values()) >= 5 and sorted(verdicts, key=str) == [
        (ValueError, "word is not freely reduced"),
        (ValueError, "word uses a generator outside the context"), "word"], verdicts
    assert min(branches.values()) >= 20 and sorted(branches) == [
        "multiply cancels a run up to a mismatch",
        "multiply cancels the shorter word whole", "multiply without cancellation",
        "reduce letter by letter", "reduce returns a reduced tuple as it is"], branches


def _kernel_outcome(f, *args):
    """f(*args), or the type and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def _byte_corpus(rng):
    """Reduced tuple words and pairs of them over up to MAX_RANK generators,
    the second word of a pair often starting with the inverse of a run that
    ends the first: a few letters, 16 or more of them, or all."""
    words = []
    for _ in range(800):
        rank = rng.choice((1, 2, 3, MAX_RANK))
        words.append(random_letters(rng, rank, rng.choice((0, 1, 5, 40, 300, 300))))
    words += [(MAX_RANK, -MAX_RANK + 1, 1), (-MAX_RANK,) * 20, (MAX_RANK, -1) * 9]
    pairs = []
    for u in words:
        v = random_letters(rng, rng.choice((2, MAX_RANK)), rng.choice((0, 3, 30, 30)))
        if rng.random() < 0.8 and u:
            run = rng.choice((rng.randint(1, 15), 16, rng.randint(16, 300), len(u)))
            v = ref.reduce(ref.invert(u[len(u) - min(run, len(u)):]) + v)
        pairs.append((u, v))
    return words, pairs


def test_byte_kernels_match_the_letter_by_letter_reference():
    # every kernel of a replay against the tuple reference: junctions that
    # cancel nothing, a run, 16 or more letters (where endswith takes over)
    # and a whole word, Nielsen maps on both sides over words dense in the
    # second generator, and the letters +-MAX_RANK, whose bytes are the
    # highest
    rng = random.Random(37)
    words, pairs = _byte_corpus(rng)
    cancelled, maps = Counter(), Counter()
    for u in words:
        assert decode(invert(encode(u))) == ref.invert(u)
    for u, v in pairs:
        bu, bv = encode(u), encode(v)
        joined = decode(multiply(bu, bv))
        assert joined == ref.multiply(u, v), (u, v)
        run = (len(u) + len(v) - len(joined)) // 2
        cancelled["none" if run == 0 else "all of a word" if run == min(len(u), len(v))
                  else "16 or more" if run >= 16 else "some"] += 1
        assert decode(_conjugate(bu, bv)) == ref.conjugate(u, v)
        assert decode(commutator(bu, bv)) == ref.reduce(
            u + v + ref.invert(u) + ref.invert(v))
        assert decode(multiply_inverse(bu, bv)) == ref.multiply(u, ref.invert(v))
    assert min(cancelled.values()) >= 40 and len(cancelled) == 4, cancelled
    for _ in range(400):
        rank = rng.choice((2, 3, 5, MAX_RANK))
        i, j = rng.sample(range(rank), 2)
        if rank == MAX_RANK and rng.random() < 0.5:
            i, j = rng.sample((0, MAX_RANK - 1), 2)  # the letters +-1 and +-MAX_RANK
        # letters of g_j and g_i make up most of the word
        letters = [rng.choice((1, -1)) * rng.choice((j + 1, j + 1, i + 1, rng.randint(1, rank)))
                   for _ in range(rng.choice((1, 8, 60, 400)))]
        u = ref.reduce(letters)
        images = {k: (k + 1,) for k in range(rank)}
        b = encode(u)
        for side, image in (("right", (i + 1, -(j + 1))), ("left", (-(j + 1), i + 1))):
            got = decode(_multiply_generator(b, i, j, side))
            assert got == ref.substitute(u, {**images, i: image}), (u, i, j, side)
            maps[side, "cancels"] += len(got) < len(u) + sum(abs(x) == i + 1 for x in u)
        assert decode(_invert_generator(b, i)) == ref.substitute(u, {**images, i: (-(i + 1),)})
        if i + 1 not in u and -(i + 1) not in u:
            assert decode(_renumber_above(b, i)) == tuple(
                x - 1 if x > i + 1 else x + 1 if x < -(i + 1) else x for x in u)
            maps["renumbered"] += 1
    assert min(maps.values()) >= 40, maps


def test_multiply_inverse_matches_multiply_by_the_inverse():
    # u v^-1 by their common suffix, which may be empty, part of either
    # word, all of one of them, or long enough to gallop and bisect
    rng = random.Random(38)
    shapes = Counter()
    for _ in range(600):
        suffix = random_letters(rng, 3, rng.choice((0, 1, 7, 40, 900)))
        u = ref.reduce(random_letters(rng, 3, rng.choice((0, 2, 30))) + suffix)
        v = ref.reduce(random_letters(rng, 3, rng.choice((0, 2, 30))) + suffix)
        got = decode(multiply_inverse(encode(u), encode(v)))
        assert got == ref.multiply(u, ref.invert(v)), (u, v)
        common = (len(u) + len(v) - len(got)) // 2
        shapes["none" if common == 0 else "a whole word" if common == min(len(u), len(v))
               else "long" if common > 32 else "short"] += 1
    assert min(shapes.values()) >= 40 and len(shapes) == 4, shapes
