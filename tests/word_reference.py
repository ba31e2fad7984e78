"""Reference copies of the letter-by-letter word codec, as test oracles.

`parse_word`, `format_word` and `substitute` are those of acpair.words in
the form that does all its work one letter at a time: a parsed token is
expanded and cancelled letter by letter, a written run is found and named
letter by letter, and an image is inverted at each negative letter.  Their
checks and messages are those of acpair.words.  The only addition is the
optional `branches` Counter, which counts the branches in which
acpair.words decides a token, a run or an image at once, so that a test can
show its corpus reaches each of them:

- "parse name", "parse name^-1": a one-letter token, one table look-up;
- "parse power, no cancellation": a `name^k` token whose first letter does
  not cancel, so that its run is appended whole;
- "parse power cancels part of the run before it", "... all of ...",
  "... more than ...": a `name^k` token after a run of m inverse letters,
  for |k| < m, |k| = m and |k| > m; the last two end the run, and the last
  appends the rest of the token's run whole;
- "format run of one": a run of one letter, written from the table;
- "substitute reuses an image", "substitute reuses an inverted image": a
  letter that occurred before, whose image is not looked up, nor inverted
  again when the letter is negative.
"""

import re
from collections import Counter

from acpair.words import LetterBudget


def parse_word(text, names, budget=None, branches: Counter | None = None):
    if not isinstance(text, str):
        raise ValueError(f"a word must be text, not {text!r}")
    if budget is None:
        budget = LetterBudget()
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


def substitute(u, images, branches: Counter | None = None):
    out = []
    seen = set()
    for x in u:
        idx = abs(x) - 1
        try:
            img = images[idx]
        except KeyError:
            raise ValueError(f"no image for generator index {idx}") from None
        if branches is not None and x in seen:
            branches["substitute reuses an inverted image" if x < 0
                     else "substitute reuses an image"] += 1
        seen.add(x)
        if x < 0:
            img = tuple(-y for y in reversed(img))
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)
