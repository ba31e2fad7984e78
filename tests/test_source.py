"""Checks on the program's source text."""

import argparse
import ast
import pathlib
import re
from collections import Counter

import acpair
from acpair import moves
from acpair.cli import build_parser

SOURCE = pathlib.Path(acpair.__file__).parent
TESTS = pathlib.Path(__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so none may guard a claim.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in acpair: {found}"
    assert len(list(SOURCE.glob("*.py"))) >= 8


def test_cli_commands_leave_errors_to_main():
    # main is the one place that turns an error into exit 2; a command may
    # catch only to give another verdict: verify-smove's "rejected" (exit 1).
    # The cmd_ functions checked are exactly the registered subcommands.
    tree = ast.parse((SOURCE / "cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    registered = {parser.get_default("func").__name__ for parser in sub.choices.values()}
    assert {node.name for node in commands} == registered
    found = [f"{node.name}:{inner.lineno}" for node in commands
             if node.name != "cmd_verify_smove"
             for inner in ast.walk(node) if isinstance(inner, ast.Try)]
    assert not found, f"try statements in CLI commands: {found}"


CACHES = {"cache", "lru_cache", "cached_property"}


def _cache_name(node):
    """The name of functools.cache, lru_cache or cached_property that node
    reads, called or not, or None."""
    node = node.func if isinstance(node, ast.Call) else node
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in CACHES else None


def test_caches_decorate_only_canonical_key_and_build_parser():
    # a cache outlives the call that fills it; the bench clears canonical_key
    # before every job, and any other cache would carry work from one
    # in-process job to the next
    decorated, uses = [], 0
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorated += [node.name for d in node.decorator_list if _cache_name(d)]
            uses += isinstance(node, (ast.Name, ast.Attribute)) and bool(_cache_name(node))
    assert sorted(decorated) == ["build_parser", "canonical_key"]
    assert uses == len(decorated), "a cache used other than as a decorator"


def _assigned_names(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _identifiers(paths):
    """How often the code of the given files names each identifier, and how
    often it reads each as an attribute.  Names, attributes, imported names
    and definitions count; docstrings, comments and other strings do not."""
    names, attributes = Counter(), Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names[node.id] += 1
            elif isinstance(node, ast.Attribute):
                names[node.attr] += 1
                attributes[node.attr] += 1
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
                names.update([node.asname] if node.asname else [])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] += 1
    return names, attributes


def test_public_names_are_used():
    # a def, class or module-level assignment, public or private, that
    # nothing in the program or its tests names besides its own definition
    # is dead code, and so is a public method or property of a public class
    # that nothing reads as .name; dunder names such as __version__ are
    # read by tools.  A public name that only the tests name is library
    # surface, and is exported from acpair/__init__.py.  Only code counts:
    # a name that a docstring mentions is not thereby used.
    paths = sorted(SOURCE.glob("*.py"))
    sources = [(path.name, ast.parse(path.read_text(), str(path))) for path in paths]
    names, attributes = _identifiers(paths + sorted(TESTS.glob("*.py")))
    defined = [(name, node.name) for name, tree in sources for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [(name, target) for name, tree in sources for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for target in _assigned_names(node)]
    unused = [f"{name}:{defined_name}" for name, defined_name in defined
              if not re.fullmatch("__.*__", defined_name) and names[defined_name] < 2]
    unused += [f"{name}:{cls.name}.{node.name}" for name, tree in sources
               for cls in tree.body
               if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
               and not attributes[node.name]]
    assert not unused, f"names used nowhere: {unused}"
    program, _ = _identifiers([path for path in paths if path.name != "__init__.py"])
    unexported = [f"{name}:{defined_name}" for name, defined_name in defined
                  if not defined_name.startswith("_") and defined_name not in vars(acpair)
                  and program[defined_name] < 2]
    assert not unexported, f"used only by tests, not exported from acpair: {unexported}"


def test_applied_move_kinds_are_serialized():
    # a move kind that the dispatch table behind replay
    # applies but the script codec cannot write or read would give
    # certificates that cannot be replayed from a file, and a kind that the
    # codec reads but nothing applies would give scripts that cannot replay
    applied = set(moves._MOVES)
    assert len(applied) >= 10
    assert applied == set(moves._KINDS.values()) == set(moves._FIELDS) - {moves.RSFactor}
    assert all(name == cls.__name__ for name, cls in moves._KINDS.items())
    # the codec builds a token table only for the kinds it names as holding
    # words, so a kind with a word field that it missed would read no table
    wordy = {cls for cls in applied
             if {"w", "h", "factors"} & {f for f, *_ in moves._FIELDS[cls]}}
    assert wordy == set(moves._WORDY)


def test_move_preconditions_are_written_once():
    # the apply steps behind moves._MOVES read relators through _rel and
    # pass each relator they build through _bounded, so the copy that the
    # tests reach is the only copy: no step can forget a check or spell it
    # differently from the others
    functions = [node for node in ast.walk(ast.parse((SOURCE / "moves.py").read_text()))
                 if isinstance(node, ast.FunctionDef)]

    def naming(pred):
        return {f.name for f in functions for node in ast.walk(f) if pred(node)}

    assert naming(lambda node: isinstance(node, ast.Name)
                  and node.id == "MAX_WORD_LENGTH") == {"_bounded"}
    assert naming(lambda node: isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "_out_of_range"
                  and isinstance(node.args[0], ast.Constant)
                  and node.args[0].value == "relator") == {"_rel"}


def _scopes(pred) -> set:
    """(file, qualified name of the innermost function or class, or
    "<module>") for each node of the program's source that satisfies pred."""
    found = set()

    def visit(node, path, scope):
        if pred(node):
            found.add((path.name, scope or "<module>"))
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else ""
            visit(child, path, ".".join(filter(None, (scope, name))))

    for path in sorted(SOURCE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, "")
    return found


def _text(node) -> str:
    """The text of a str constant or f-string, each formatted value as '…'."""
    if isinstance(node, ast.JoinedStr):
        return "".join(_text(part) if isinstance(part, ast.Constant) else "…"
                       for part in node.values)
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""


def test_replay_is_the_one_fold_of_moves():
    # replay is the one function that applies moves: no other function reads
    # the dispatch table moves._MOVES or its fallback, whose module-level
    # codec tables read only its keys and counts, and no function names an
    # apply step, which only the table holds
    steps = {step.__name__ for step, *_ in [*moves._MOVES.values(), moves._UNKNOWN]}

    def named(names):
        return _scopes(lambda node: getattr(node, "id", getattr(node, "attr", None)) in names)

    assert len(steps) >= 9
    assert named({"_MOVES", "_UNKNOWN"}) == {("moves.py", "<module>"), ("moves.py", "replay")}
    assert named(steps) == {("moves.py", "<module>")}


def test_letter_bounds_are_kept_by_one_budget():
    # words.LetterBudget is the one place that refuses an input for the
    # letters it spells out or its work reads, so each limit is named only
    # where it is defined, where a budget of it is built, and, for the
    # length of one word, in moves._bounded
    def named(name):
        return _scopes(lambda node: isinstance(node, ast.Name) and node.id == name)

    assert _scopes(lambda node: isinstance(node, ast.Raise) and any(
        re.search("more than .* letters", _text(part)) for part in ast.walk(node))) == {
        ("words.py", "LetterBudget.charge")}
    assert named("MAX_ISO_WORK") == {("constructions.py", "<module>"),
                                     ("constructions.py", "common_generators")}
    assert named("MAX_WORD_LENGTH") == {("words.py", "<module>"),
                                        ("words.py", "LetterBudget.__init__"),
                                        ("moves.py", "_bounded")}


def test_the_witness_search_cancels_letters_in_one_junction():
    # the witness search stores letter x as the byte x + 128, so a letter
    # cancels its neighbour when their sum is 256.  constructions._join is
    # the one place that compares such a sum: the cached products, the
    # successors and the rebuilt edges all cancel there, so a second
    # cancelling loop cannot come back beside it
    def letter_sum(node):
        sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        return (any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Add)
                    for side in sides)
                and any(getattr(side, "value", None) == 256 for side in sides))

    tree = ast.parse((SOURCE / "constructions.py").read_text())
    assert sum(map(letter_sum, ast.walk(tree))) == 1
    assert {scope for scope in _scopes(letter_sum) if scope[0] == "constructions.py"} == {
        ("constructions.py", "_join")}


def _calls(node):
    return {inner.func.id for inner in ast.walk(node)
            if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name)}


def test_the_density_threshold_is_written_once():
    # _rank takes a rank modulo P first, and homology_at keeps rows as
    # lists, for the same matrices: those with more nonzero than zero
    # entries.  One function decides it for both, so they cannot disagree.
    found, deciders = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            found += [f"{path.name}:{func.name}" for node in ast.walk(func)
                      if isinstance(node, ast.Compare)
                      and isinstance(node.left, ast.BinOp)
                      and isinstance(node.left.op, ast.Mult)
                      and 2 in (getattr(node.left.left, "value", None),
                                getattr(node.left.right, "value", None))]
            if path.name == "homology.py" and "_dense" in _calls(func):
                deciders.add(func.name)
    assert found == ["homology.py:_dense"], found
    assert deciders == {"_rank", "_restricted"}, deciders
    homology = ast.parse((SOURCE / "homology.py").read_text())
    homology_at = next(node for node in homology.body
                       if isinstance(node, ast.FunctionDef) and node.name == "homology_at")
    assert {"_restricted", "_rank"} <= _calls(homology_at)
    assert "restrict_scalars" not in _calls(homology_at)
