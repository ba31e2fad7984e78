"""Reference copy of the entry-by-entry chain loader, as a test oracle.

`chain_from_json`, `from_table`, `from_entries` and `check_elements` are
acpair.homology's loader of a chain file with an inline group table, in
the form that checks and merges one entry at a time: every field through
json_int in file order, one dict per position, each cell sorted on its
own, the group table element by element and each group element that an
entry names in turn, in a term that is zero or cancels too.  Their checks
and messages are those of acpair.homology.  The only addition is the
optional `branches` Counter, which counts the cases a test corpus must
reach:

- a loaded complex ("valid"), with entries out of order ("unsorted"),
  entries on one (k, r, col, elem) ("merged"), terms whose sum is zero
  ("cancelled") and entries in two boundaries or more ("several
  boundaries");
- each refusal of an entry: a boundary index, a position or a group
  element out of range (also in a zero or cancelling term: "element out
  of range in a zero term"), 4 or 6 fields, a field of a type other than int
  ("bool field", "float field", "str field", "NoneType field", "list
  field"), an entry that is not a list;
- each refusal of a table: "non-square", "table entry out of range", "no
  identity", "no unique inverse", "not associative", "not a group", and
  a "table row not a list";
- each refusal of a group's declared fields: an "order not an int" or an
  "identity not an int", a "declared order" other than the table's
  length, and a "declared identity" other than the table's;
- a file that is "not an object", a "group not an object", the "cell
  bound" and a failed "boundary condition".
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
    for a in range(n):
        inv = [b for b in range(n) if table[a][b] == identity and table[b][a] == identity]
        if len(inv) != 1:
            raise _refuse(branches, "no unique inverse", f"element {a} has no unique inverse")
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
    return FiniteGroup(table, identity)


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


def check_elements(group, cells, branches: Counter | None = None) -> None:
    """Each element of the merged cells, zero sums included, by boundary,
    position and element."""
    for k in sorted(cells):
        for _, cell in sorted(cells[k].items()):
            for g in sorted(cell):
                if not 0 <= g < group.order:
                    raise _refuse(branches, "element out of range" if cell[g] else
                                  "element out of range in a zero term",
                                  f"group element index {g} out of range")


def chain_from_json(data, branches: Counter | None = None) -> ChainComplexData:
    if not isinstance(data, dict):
        raise _refuse(branches, "not an object",
                      "a chain file is a JSON object with group, n, ranks and entries")
    g = data["group"]
    if not isinstance(g, dict):
        raise _refuse(branches, "group not an object",
                      "group is neither a group file name nor an object with a table")
    rows = g["table"]
    for key in ("order", "identity"):
        if key in g and type(g[key]) is not int:
            raise _refuse(branches, f"{key} not an int",
                          f"the group {key} must be an integer, not {g[key]!r}")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise _refuse(branches, "table row not a list",
                          f"group table[{i}] is not a list of element indices")
    table = [[json_int(x, "a group table entry") for x in row] for row in rows]
    if "order" in g and g["order"] != len(table):
        raise _refuse(branches, "declared order",
                      f"expected {g['order']} table rows, got {len(table)}")
    group = from_table(table, branches)
    if "identity" in g and g["identity"] != group.identity:
        raise _refuse(branches, "declared identity", "declared identity disagrees with the table")
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
    shape = "[k, r, col, elem, coeff]"
    for i, entry in enumerate(data["entries"]):
        if not isinstance(entry, list):
            raise _refuse(branches, "not a list", f"entries[{i}] is not a list {shape}")
        if len(entry) != 5:
            raise _refuse(branches, f"{len(entry)} fields",
                          f"entries[{i}] has {len(entry)} fields, expected 5: {shape}")
        bad = [x for x in entry if type(x) is not int]
        if bad:
            raise _refuse(branches, f"{type(bad[0]).__name__} field",
                          f"an entry field must be an integer, not {bad[0]!r}")
        k, r, col, elem, coeff = entry
        if not 1 <= k <= n:
            raise _refuse(branches, "k out of range", f"boundary index {k} out of range")
        cell = cells[k].setdefault((r, col), {})
        if branches is not None and elem in cell:
            branches["merged"] += 1
        cell[elem] = cell.get(elem, 0) + coeff
    boundaries = tuple(
        from_entries(ranks[k], ranks[k - 1], cells[k], branches)
        for k in range(1, n + 1))
    check_elements(group, cells, branches)
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
