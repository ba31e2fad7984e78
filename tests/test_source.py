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
    # a move kind that the dispatch table behind apply_move and replay
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
