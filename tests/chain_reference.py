"""Reference copy of the entry-by-entry chain loader, as a test oracle.

`chain_from_json`, `from_table`, `from_entries` and `check_elements` are
acpair.homology's loader of a chain file with an inline group table, in
the form that checks and merges one entry at a time: every field through
json_int in file order, one dict per position, each cell sorted on its
own, the group table element by element and each group element of the
boundaries in turn.  Their checks and messages are those of
acpair.homology.  The only addition is the optional `branches` Counter,
which counts the cases a test corpus must reach:

- a loaded complex ("valid"), with entries out of order ("unsorted"),
  entries on one (k, r, col, elem) ("merged"), terms whose sum is zero
  ("cancelled") and entries in two boundaries or more ("several
  boundaries");
- each refusal of an entry: a boundary index, a position or a group
  element out of range, 4 or 6 fields, a field of a type other than int
  ("bool field", "float field", "str field", "NoneType field", "list
  field"), an entry that is not a list;
- each refusal of a table: "non-square", "table entry out of range", "no
  identity", "no unique inverse", "not associative", "not a group";
- the "cell bound" and a failed "boundary condition".
"""

from collections import Counter

from acpair.homology import (MAX_RESTRICTED_CELLS, ChainComplexData,
                             FiniteGroup, GroupRingMatrix, _greedy_generators)
from acpair.words import json_int


def _refuse(branches, branch: str, message: str):
    if branches is not None:
        branches[branch] += 1
    return ValueError(message)


def from_table(rows, branches: Counter | None = None) -> FiniteGroup:
    n = len(rows)
    table = tuple(tuple(r) for r in rows)
    if any(len(r) != n for r in table):
        raise _refuse(branches, "non-square", "multiplication table must be square")
    for r in table:
        for x in r:
            if not 0 <= x < n:
                raise _refuse(branches, "table entry out of range", "table entry out of range")
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise _refuse(branches, "no identity", "table has no identity element")
    inverses = []
    for a in range(n):
        inv = [b for b in range(n) if table[a][b] == identity and table[b][a] == identity]
        if len(inv) != 1:
            raise _refuse(branches, "no unique inverse", f"element {a} has no unique inverse")
        inverses.append(inv[0])
    try:
        gens = _greedy_generators(table, identity)
    except ValueError as e:
        raise _refuse(branches, "not a group", str(e)) from None
    for s in gens:
        for x in range(n):
            xs, row = table[table[x][s]], table[x]
            for y, sy in enumerate(table[s]):
                if xs[y] != row[sy]:
                    raise _refuse(branches, "not associative",
                                  f"table not associative at ({x},{s},{y})")
    return FiniteGroup(table, identity, tuple(inverses))


def from_entries(rows, cols, entries, branches: Counter | None = None) -> GroupRingMatrix:
    norm = {}
    for (r, c), elem in sorted(entries.items()):
        if not (0 <= r < rows and 0 <= c < cols):
            raise _refuse(branches, "position out of range",
                          f"entry position {(r, c)} out of range")
        cell = {g: v for g, v in sorted(elem.items()) if v != 0}
        if branches is not None and len(cell) < len(elem):
            branches["cancelled"] += 1
        if cell:
            norm[(r, c)] = cell
    return GroupRingMatrix(rows, cols, norm)


def check_elements(group, boundaries, branches: Counter | None = None) -> None:
    for b in boundaries:
        for cell in b.entries.values():
            for g in cell:
                if not 0 <= g < group.order:
                    raise _refuse(branches, "element out of range",
                                  f"group element index {g} out of range")


def _entry_branch(entry) -> str:
    """The branch of an entry that json_int or unpacking refuses."""
    if not isinstance(entry, list):
        return "not a list"
    bad = [x for x in entry[:6] if type(x) is not int]
    return f"{type(bad[0]).__name__} field" if bad else f"{len(entry)} fields"


def chain_from_json(data, branches: Counter | None = None) -> ChainComplexData:
    g = data["group"]
    group = from_table(
        [[json_int(x, "a group table entry") for x in row] for row in g["table"]], branches)
    if group.identity != g.get("identity", group.identity):
        raise ValueError("declared identity disagrees with the table")
    n = json_int(data["n"], "n")
    ranks = tuple(json_int(r, "a rank") for r in data["ranks"])
    if len(ranks) != n + 1:
        raise ValueError("ranks must list dimensions 0..n")
    if any(r < 0 for r in ranks):
        raise ValueError("ranks must be nonnegative")
    for k in range(1, n + 1):
        rows, cols = ranks[k] * group.order, ranks[k - 1] * group.order
        if rows * max(cols, 1) > MAX_RESTRICTED_CELLS:
            raise _refuse(branches, "cell bound",
                          f"boundary {k} restricts to a {rows} x {cols} integer "
                          f"matrix, over the bound of {MAX_RESTRICTED_CELLS} cells")
    cells: dict = {k: {} for k in range(1, n + 1)}
    for entry in data["entries"]:
        try:
            k, r, col, elem, coeff = (json_int(x, "an entry field") for x in entry)
        except (ValueError, TypeError):
            if branches is not None:
                branches[_entry_branch(entry)] += 1
            raise
        if not 1 <= k <= n:
            raise _refuse(branches, "k out of range", f"boundary index {k} out of range")
        cell = cells[k].setdefault((r, col), {})
        if branches is not None and elem in cell:
            branches["merged"] += 1
        cell[elem] = cell.get(elem, 0) + coeff
    boundaries = tuple(
        from_entries(ranks[k], ranks[k - 1], cells[k], branches)
        for k in range(1, n + 1))
    check_elements(group, boundaries, branches)
    try:
        complex_ = ChainComplexData(group, ranks, boundaries)
    except ValueError as e:
        if branches is not None and str(e).startswith("boundary condition"):
            branches["boundary condition"] += 1
        raise
    if branches is not None:
        branches["valid"] += 1
        branches["unsorted"] += data["entries"] != sorted(data["entries"])
        branches["several boundaries"] += sum(map(bool, cells.values())) >= 2
    return complex_
