"""Reference word kernels and text codec, one letter at a time, as test
oracles.  They share no code with acpair.words.

Reference words are tuples of nonzero ints: letter +k is the generator
with 0-based index k-1, letter -k its inverse.  `encode` gives the word of
acpair.words (letter x as the byte 2|x| + (x < 0)) and `decode` reads one
back, so that a test can write a word as a tuple and compare the program's
words with the references' results.

`reduce`, `multiply`, `invert`, `conjugate` and `substitute` are the
oracles of the kernels of acpair.words.  `reduce` refuses a letter that is
not a nonzero int.  Their `branches` Counter counts the cases a corpus must
reach:

- "reduce returns a reduced tuple as it is": a tuple of ints, none zero
  and none next to its inverse;
- "reduce letter by letter": any other input;
- "multiply without cancellation": the junction letters do not cancel;
- "multiply cancels a run up to a mismatch", "multiply cancels the
  shorter word whole": the cancelling run at the junction ends at a letter
  that does not cancel, or at the end of the shorter operand.

`parse_word` and `format_word` are those of acpair.words in the form that
does all its work one letter at a time, on tuple words: a parsed token is
expanded and cancelled letter by letter, charged to the budget given, and a
written run is found and named letter by letter.  Their checks and
messages are those of acpair.words.  The only addition is the optional
`branches` Counter, which counts the branches in which acpair.words
decides a token or a run at once, so that a test can show its corpus
reaches each of them:

- "parse name", "parse name^-1": a one-letter token, one table look-up;
- "parse power, no cancellation": a `name^k` token whose first letter does
  not cancel, so that its run is appended whole;
- "parse power cancels part of the run before it", "... all of ...",
  "... more than ...": a `name^k` token after a run of m inverse letters,
  for |k| < m, |k| = m and |k| > m; the last two end the run, and the last
  appends the rest of the token's run whole;
- "format run of one": a run of one letter, written from the table.

`substitute` is the homomorphic extension of a generator map (0-based
index -> word), applied one letter at a time, with an image inverted at
each negative letter.
"""

import re
from collections import Counter
from operator import neg


def encode(u) -> bytes:
    """The word of acpair.words that holds the letters of u."""
    return bytes(2 * x if x > 0 else 1 - 2 * x for x in u)


def decode(b) -> tuple:
    """The letters of a word of acpair.words."""
    return tuple(c // 2 if c % 2 == 0 else -(c // 2) for c in b)


def reduce(letters, branches: Counter | None = None):
    letters = list(letters)
    if branches is not None:
        reduced = (all(isinstance(x, int) and x != 0 for x in letters)
                   and all(x + y != 0 for x, y in zip(letters, letters[1:])))
        branches["reduce returns a reduced tuple as it is" if reduced
                 else "reduce letter by letter"] += 1
    out = []
    for x in letters:
        if not isinstance(x, int) or x == 0:
            raise ValueError(f"bad letter {x!r}: letters are nonzero ints")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def multiply(u, v, branches: Counter | None = None):
    i, n, m = 0, len(u), min(len(u), len(v))
    while i < m and u[n - 1 - i] == -v[i]:
        i += 1
    if branches is not None:
        branches["multiply without cancellation" if i == 0 else
                 "multiply cancels the shorter word whole" if i == m else
                 "multiply cancels a run up to a mismatch"] += 1
    return u[:n - i] + v[i:]


def invert(u):
    return tuple(map(neg, reversed(u)))


def conjugate(u, w, branches: Counter | None = None):
    return multiply(multiply(w, u, branches), invert(w), branches)


def parse_word(text, names, budget, branches: Counter | None = None):
    if not isinstance(text, str):
        raise ValueError(f"a word must be text, not {text!r}")
    index = {name: i for i, name in enumerate(names)}
    out = []
    for token in text.split():
        if token == "1":
            continue
        base, caret, exp = token.partition("^")
        if base not in index:
            raise ValueError(f"unknown generator {base!r} in word {text!r}")
        if caret:
            if not re.fullmatch("-?[0-9]+", exp):
                raise ValueError(f"bad exponent in token {token!r}")
            k = int(exp)
            if k == 0:
                raise ValueError(f"zero exponent in token {token!r}")
        else:
            k = 1
        budget.charge(abs(k))
        letter = index[base] + 1 if k > 0 else -(index[base] + 1)
        if branches is not None:
            branches[_parse_branch(out, token, base, letter, abs(k))] += 1
        for _ in range(abs(k)):
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


def _parse_branch(out, token, base, letter, n) -> str:
    if token in (base, base + "^-1"):
        return "parse name" if token == base else "parse name^-1"
    run = 0  # inverse letters ending out, counted to n + 1 at most
    while run <= n and run < len(out) and out[-1 - run] == -letter:
        run += 1
    if not run:
        return "parse power, no cancellation"
    side = "part of" if n < run else "all of" if n == run else "more than"
    return f"parse power cancels {side} the run before it"


def format_word(u, names, branches: Counter | None = None):
    if not u:
        return "1"
    parts = []
    i = 0
    while i < len(u):
        j = i
        while j < len(u) and u[j] == u[i]:
            j += 1
        idx = abs(u[i]) - 1
        if not 0 <= idx < len(names):
            raise ValueError(f"letter {u[i]} outside the naming context")
        k = (j - i) if u[i] > 0 else -(j - i)
        if branches is not None and j == i + 1:
            branches["format run of one"] += 1
        parts.append(names[idx] if k == 1 else f"{names[idx]}^{k}")
        i = j
    return " ".join(parts)


def substitute(u, images):
    out = []
    for x in u:
        img = images[abs(x) - 1]
        if x < 0:
            img = tuple(-y for y in reversed(img))
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)
