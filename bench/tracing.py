"""Spans and work counters recorded from outside the program.

``Tracer.install`` wraps every public function of the seven layer modules
where other modules reach it.  Modules bind names at import (``from .moves
import replay``), so each such binding is replaced; a module imported whole
(``from . import moves`` in ``cli``) is replaced in the importer by a
stand-in whose public functions are the wrappers.  A call through a wrapper
crosses a layer boundary: it records a span (name, start, end, parent span,
job id) and counts towards ``<layer>.calls``.  Calls inside a module, such
as ``multiply`` calling ``reduce``, are not spans and cost nothing, except
for the functions in COUNTED_INSIDE, whose own module's binding is wrapped
too so that every call is counted (``replay`` calling ``apply_move``).
``Presentation.__init__`` and ``EquivalenceCertificate.verify`` are
wrapped on their classes.  A layer's self time is the time its spans cover
minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("words", "presentations", "moves", "pairing", "constructions", "homology", "cli")
SPAN_CAP = 50_000  # spans kept for the span file; counters and self times cover all
SEARCH = "moves.bounded_equivalence_search"
# Functions wrapped in their own module too: every call is counted, such as
# replay calling apply_move, and cli.main is reached through the module.
COUNTED_INSIDE = {"cli.main", "words.reduce", "words.cyclic_canonical",
                  "presentations.canonical_key", "moves.apply_move", "moves.replay", SEARCH,
                  "constructions.search_normal_closure_witness",
                  "homology.smith_normal_form", "homology.restrict_scalars"}


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"acpair.{name}") for name in LAYERS}
        self.counts = Counter()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.spans = []  # (id, name, start, end, parent id or -1, job id)
        self.span_total = 0
        self.job = -1
        self._stack = []  # [span id, start, seconds covered by child spans]
        self._search_depth = 0
        self._restore = []

    # -- hooks for the counters named by the benchmark -------------------

    def _letters(self, name):
        def measure(args, kwargs):
            word = args[0]
            if hasattr(word, "__len__"):
                self.counts[name] += len(word)
        return measure

    def _successor(self, args, kwargs):
        if self._search_depth:
            self.counts["moves.search.successors"] += 1

    def _replay_moves(self, args, kwargs):
        script = args[1] if len(args) > 1 else kwargs["script"]
        self.counts["moves.replay.moves"] += len(script.moves)

    def _found(self, name):
        def outcome(args, result):
            self.counts[name] += result is not None
        return outcome

    def _snf_entries(self, args, kwargs):
        a = args[0]
        self.counts["homology.snf.entries"] += len(a) * (len(a[0]) if a else 0)

    def _snf_bits(self, args, result):
        _, u, v = result
        bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row), default=0)
        if bits > self.counts["homology.snf.transform_bits"]:
            self.counts["homology.snf.transform_bits"] = bits

    def _in_search(self, fn):
        def scoped(*args, **kwargs):
            self._search_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._search_depth -= 1
        return scoped

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer, name, fn, home, measure=None, outcome=None):
        counts, getframe = self.counts, sys._getframe
        enter, leave = self._enter, self._leave
        calls_key, errors_key, layer_key = name + ".calls", name + ".errors", layer + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if measure is not None:
                measure(args, kwargs)
            span = getframe(1).f_globals is not home
            if span:
                counts[layer_key] += 1
                enter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors_key] += 1
                raise
            finally:
                if span:
                    leave(layer, name)
            if outcome is not None:
                outcome(args, result)
            return result

        return wrapper

    def _enter(self):
        self._stack.append([self.span_total, time.perf_counter(), 0.0])
        self.span_total += 1

    def _leave(self, layer, name):
        end = time.perf_counter()
        sid, start, children = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - children
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self.job))

    def install(self) -> None:
        hooks = {
            "words.reduce": (self._letters("words.reduce.letters"), None),
            "words.cyclic_canonical": (self._letters("words.cyclic_canonical.letters"), None),
            "presentations.canonical_key": (self._successor, None),
            "moves.replay": (self._replay_moves, None),
            "moves.bounded_equivalence_search": (None, self._found("moves.search.found")),
            "constructions.search_normal_closure_witness":
                (None, self._found("constructions.witness_search.found")),
            "homology.smith_normal_form": (self._snf_entries, self._snf_bits),
        }
        wrappers = {}  # id of the original function -> (wrapper, defining module)
        proxies = {}  # id of a layer module -> stand-in whose public functions are wrapped
        for layer, module in self.modules.items():
            home = vars(module)
            public = {attr: fn for attr, fn in home.items()
                      if not attr.startswith("_") and callable(fn) and not inspect.isclass(fn)
                      and getattr(fn, "__module__", None) == module.__name__}
            proxy = types.ModuleType(module.__name__)
            vars(proxy).update(home)
            for attr, fn in public.items():
                name = f"{layer}.{attr}"
                inner = self._in_search(fn) if name == SEARCH else fn
                wrapper = self._wrap(layer, name, inner, home, *hooks.get(name, (None, None)))
                wrappers[id(fn)] = (wrapper, module)
                setattr(proxy, attr, wrapper)
            proxies[id(module)] = proxy
        for layer, module in self.modules.items():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if id(value) in proxies:
                    replacement = proxies[id(value)]
                elif id(value) in wrappers:
                    replacement, home = wrappers[id(value)]
                    if home is module and f"{layer}.{attr}" not in COUNTED_INSIDE:
                        continue
                else:
                    continue
                self._restore.append((namespace, attr, value))
                namespace[attr] = replacement
        pres, pairing = self.modules["presentations"], self.modules["pairing"]
        for cls, attr, layer, name in (
                (pres.Presentation, "__init__", "presentations", "presentations.constructed"),
                (pairing.EquivalenceCertificate, "verify", "pairing",
                 "pairing.certificate_verify")):
            original = cls.__dict__[attr]
            home = vars(self.modules[layer])
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(layer, name, original, home))

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            if isinstance(target, dict):
                target[attr] = value
            else:
                setattr(target, attr, value)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
