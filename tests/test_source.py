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


CONTAINERS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
              "Counter", "deque"}
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove", "clear",
            "update", "setdefault", "add", "discard", "sort", "reverse",
            "appendleft", "extendleft", "difference_update", "intersection_update",
            "symmetric_difference_update", "__setitem__", "__delitem__"}


def _module_containers(trees) -> set:
    """The names that a module binds, at its top level, to a dict, list or
    set: a display, a comprehension or a call of a container type."""
    found = set()
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
                continue
            value = node.value
            called = getattr(value.func, "id", getattr(value.func, "attr", None)) \
                if isinstance(value, ast.Call) else None
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                                  ast.SetComp)) or called in CONTAINERS:
                found.update(_assigned_names(node))
    return found


def _local_names(func) -> set:
    """The names that func binds itself, unless it declares them global."""
    bound = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
    bound |= {node.id for node in ast.walk(func)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    return bound - {name for node in ast.walk(func) if isinstance(node, ast.Global)
                    for name in node.names}


def _container_writes(trees: dict) -> list:
    """file:function:line of each write, in a function or lambda of the given
    module trees, into a container that _module_containers finds: a subscript
    assigned or deleted, or a mutating method called, on the module's own
    name or on another module's read as module.name."""
    shared = _module_containers(trees.values())
    writes = []
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            local = _local_names(func)
            for node in ast.walk(func):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                    target = node.value
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in MUTATORS):
                    target = node.func.value
                else:
                    continue
                if (isinstance(target, ast.Name) and target.id in shared
                        and target.id not in local
                        or isinstance(target, ast.Attribute) and target.attr in shared
                        and isinstance(target.value, ast.Name)):
                    writes.append(f"{name}:{getattr(func, 'name', '<lambda>')}:{node.lineno}")
    return writes


def test_caches_decorate_only_canonical_key_and_build_parser():
    # a cache outlives the call that fills it; the bench clears canonical_key
    # before every job, and any other cache would carry work from one
    # in-process job to the next.  A memo cannot dodge this by skipping
    # lru_cache either: no function writes into a module-level dict, list or
    # set
    decorated, uses = [], 0
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorated += [node.name for d in node.decorator_list if _cache_name(d)]
            uses += isinstance(node, (ast.Name, ast.Attribute)) and bool(_cache_name(node))
    assert sorted(decorated) == ["build_parser", "canonical_key"]
    assert uses == len(decorated), "a cache used other than as a decorator"
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SOURCE.glob("*.py"))}
    assert {"_MOVES", "_KINDS", "_RULES", "_FIELDS"} <= _module_containers(trees.values())
    writes = _container_writes(trees)
    assert not writes, f"module-level containers written by functions: {writes}"
    # the module-level memos the check is there to refuse
    for text in ("_CACHE = {}\ndef f(w):\n    _CACHE[w] = len(w)\n",
                 "_CACHE = dict()\ndef f(w):\n    return _CACHE.setdefault(w, len(w))\n",
                 "_SEEN = []\ndef f(w):\n    del _SEEN[:]\n",
                 "_SEEN = set()\ndef f(w):\n    (lambda: _SEEN.add(w))()\n",
                 "import words\ndef f(w):\n    words._TABLE[w] = 1\n"):
        trees = {"m.py": ast.parse(text), "words.py": ast.parse("_TABLE = {}\n")}
        assert _container_writes(trees), text
    # a local of the same name is not the module's
    assert not _container_writes({"m.py": ast.parse(
        "_SEEN = []\ndef f(w):\n    _SEEN = []\n    _SEEN.append(w)\n")})


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


def _named(names):
    return _scopes(lambda node: getattr(node, "id", getattr(node, "attr", None)) in names)


def test_replay_is_the_one_fold_of_moves():
    # replay and the equivalence search apply moves through moves._fold, the
    # one function that applies them: no other function reads the dispatch
    # table moves._MOVES or its fallback, whose module-level codec tables
    # read only its keys and counts, and no function names an apply step,
    # which only the table holds
    steps = {step.__name__ for step, *_ in [*moves._MOVES.values(), moves._UNKNOWN]}
    assert len(steps) >= 9
    assert _named({"_MOVES", "_UNKNOWN"}) == {("moves.py", "<module>"), ("moves.py", "_fold")}
    assert _named(steps) == {("moves.py", "<module>")}
    assert _named({"_fold"}) == {("moves.py", "replay"),
                                 ("moves.py", "bounded_equivalence_search.successors")}


def test_the_program_has_one_word_encoding():
    # a word is bytes from the parser to the key (see words): no code reads
    # letters out of bytes or packs them in through array or memoryview,
    # and only words translates bytes, so a second encoding of words cannot
    # come back beside the one the kernels assume.  The one other function
    # that translates bytes is homology's check of a group table, whose
    # bytes are rows of group elements, not letters
    def calling(names):
        return _scopes(lambda node: isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)) in names)

    assert not calling({"array", "tobytes", "memoryview", "cast"})
    assert not _scopes(lambda node: isinstance(node, (ast.Import, ast.ImportFrom)) and (
        getattr(node, "module", None) == "array"
        or any(alias.name == "array" for alias in node.names)))
    translating = calling({"translate", "maketrans"})
    assert {path for path, _ in translating} == {"words.py", "homology.py"}
    assert {scope for path, scope in translating if path == "homology.py"} == {
        "_checked_table"}


def test_only_the_element_by_element_check_refuses_a_group_table():
    # one function checks a group table and raises its refusals, and
    # FiniteGroup.from_table is its one caller, so no second checker can
    # accept a table, or word a refusal, beside it
    for text in ("table entry out of range", "has no identity element",
                 "has no unique inverse", "not associative at"):
        assert _scopes(lambda node: isinstance(node, ast.Raise) and any(
            text in _text(part) for part in ast.walk(node))) == {
            ("homology.py", "_checked_table")}, text
    assert _named({"_checked_table"}) == {("homology.py", "FiniteGroup.from_table")}


def test_the_generator_limit_is_named_once():
    # one byte holds a letter of a word, so words.MAX_RANK is the program's
    # one generator limit: 127 is written once, check_rank is the one place
    # that refuses a rank beyond it, and check_word takes it as the rank of
    # a word that no presentation holds yet
    assert _scopes(lambda node: isinstance(node, ast.Constant)
                   and node.value == 127) == {("words.py", "<module>")}
    assert _named({"MAX_RANK"}) == {("words.py", "<module>"), ("words.py", "check_rank"),
                                    ("words.py", "check_word")}
    assert _scopes(lambda node: isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "check_rank") == {
        ("presentations.py", "Presentation.__post_init__"),
        ("presentations.py", "wedge_s1"), ("moves.py", "_add_gen"),
        ("words.py", "_token_letters"), ("constructions.py", "_adjoin_images")}


def test_letter_bounds_are_kept_by_one_budget():
    # words.LetterBudget is the one place that refuses an input for the
    # letters it spells out, so the limit is named only where it is
    # defined, where a budget of it is built, and, for the length of one
    # word, in moves._bounded
    def named(name):
        return _scopes(lambda node: isinstance(node, ast.Name) and node.id == name)

    assert _scopes(lambda node: isinstance(node, ast.Raise) and any(
        re.search("more than .* letters", _text(part)) for part in ast.walk(node))) == {
        ("words.py", "LetterBudget.charge")}
    assert named("MAX_WORD_LENGTH") == {("words.py", "<module>"),
                                        ("words.py", "LetterBudget.__init__"),
                                        ("moves.py", "_bounded")}


def test_common_generators_builds_its_presentations_without_moves():
    # common_generators writes the closed form of its Nielsen moves, which
    # tests/iso_reference.py replays, so no construction replays moves of
    # its own or builds the generator-level moves that a replay would take
    moving = _named({"replay", "AddGen", "NielsenInv", "NielsenMul"})
    assert not {scope for path, scope in moving if path == "constructions.py"}


def test_the_witness_search_cancels_letters_in_one_junction():
    # a letter of a word (see words) cancels its neighbour when one is the
    # other's byte XOR 1.  constructions._join is the one place in the
    # witness search that compares such a pair: the cached products, the
    # successors and the rebuilt edges all cancel there, so a second
    # cancelling loop cannot come back beside it.  The other such
    # comparisons are the kernels of words that cancel letters, and the
    # enumeration of reduced words that the equivalence search's restricted
    # slides take
    def inverse_pair(node):
        sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
        return any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.BitXor)
                   and 1 in (getattr(side.left, "value", None),
                             getattr(side.right, "value", None))
                   for side in sides)

    tree = ast.parse((SOURCE / "constructions.py").read_text())
    assert sum(map(inverse_pair, ast.walk(tree))) == 1
    assert _scopes(inverse_pair) == {
        ("constructions.py", "_join"), ("words.py", "multiply"),
        ("words.py", "cyclically_reduce"), ("words.py", "read_word"),
        ("moves.py", "enumerate_words")}


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


def test_one_function_settles_a_boundary():
    # homology_at reads both its boundaries, d_k for its rank and d_{k+1}
    # for its invariant factors, through _restricted, which tries the cell
    # graph, then the density choice, then the unit-lead reduction on rows
    # of nonzeros.  Naming each step in that function alone keeps a second
    # copy of the order, for one end only, from coming back
    def sparse_restriction(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "restrict_scalars"
                and (len(node.args) > 2 or any(kw.arg == "sparse" for kw in node.keywords)))

    for name in ("_unit_rank", "_cell_graph_rank"):
        assert _named({name}) == {("homology.py", "_restricted")}, name
    assert _scopes(sparse_restriction) == {("homology.py", "_restricted")}


def _floor_divisor(node):
    """The divisor of a floor division, or None."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv):
        return node.right if isinstance(node, ast.BinOp) else node.value
    return None


def test_one_elimination_divides_by_the_previous_pivot():
    # a fraction-free (Bareiss) elimination divides each update by the
    # pivot before: a floor division by a name that the same function
    # rebinds inside a loop.  homology._echelon is the one such function,
    # so no second fraction-free elimination, which would have to repeat
    # its pivots and minors step for step, can come back beside it
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, ast.FunctionDef):
                continue
            rebound = {target.id for loop in ast.walk(func)
                       if isinstance(loop, (ast.For, ast.While))
                       for stmt in loop.body for node in ast.walk(stmt)
                       if isinstance(node, (ast.Assign, ast.AugAssign))
                       for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                       if isinstance(target, ast.Name)}
            divisors = map(_floor_divisor, ast.walk(func))
            if any(isinstance(d, ast.Name) and d.id in rebound for d in divisors):
                found.add((path.name, func.name))
    assert found == {("homology.py", "_echelon")}, found


def _open_calls(tree, module: str) -> set:
    """module.function of each call of open, os.open and the like, named by
    the innermost function or lambda around it, or <module> outside one."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, f"{module}.{getattr(child, 'name', '<lambda>')}")
                continue
            if isinstance(child, ast.Call) and "open" in (getattr(child.func, "id", None),
                                                          getattr(child.func, "attr", None)):
                found.add(where)
            visit(child, where)

    visit(tree, f"{module}.<module>")
    return found


def test_files_are_opened_by_one_reader_and_one_writer():
    # the CLI reads every input file through _load and writes every file
    # through _write_text; a chain file may name a group CSV file, which
    # chain_from_json opens itself
    found = set()
    for path in sorted(SOURCE.glob("*.py")):
        found |= _open_calls(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == {"cli._load", "cli._write_text", "homology.chain_from_json"}
    # the calls the guard is there to find
    for text, where in (("with open(p) as fh:\n    pass\n", "m.<module>"),
                        ("def f():\n    def g():\n        os.open(p)\n", "m.g"),
                        ("f = lambda p: io.open(p)\n", "m.<lambda>")):
        assert _open_calls(ast.parse(text), "m") == {where}, text
