"""Per-layer counts and times for the traced run.

The benchmark wraps, from its own files, the functions each layer's callers
look up as module globals: ``unify`` and ``compose`` as ``pikit.consensus``
calls them, ``subsumes`` as ``residue`` and ``entails`` call it,
``consensus_closure`` and ``residue`` as ``compile`` and ``add_clause`` call
them, ``loads_kb``, ``dumps_kb`` and ``parse_clause`` as the CLI and the
store call them.  Nothing inside ``pikit`` changes.  The wrappers are in
place only from construction to ``remove()``, so the caller installs them
around exactly the phase it wants counted.
"""

from __future__ import annotations

import collections
import importlib
import time

perf_counter = time.perf_counter
MODULES = ("cli", "clauses", "compiler", "consensus", "store")


class Layers:
    """Installs the wrappers on one imported ``pikit`` and sums what they see."""

    def __init__(self, pk):
        # By module path: the package attribute ``pikit.consensus`` is the
        # pairwise function, not the module.
        mod = {m: importlib.import_module("pikit." + m) for m in MODULES}
        self.calls = collections.Counter()
        self.secs = collections.Counter()
        self.sums = collections.Counter()
        self._undo = []
        w = self._wrap
        w(mod["consensus"], "unify", "terms.unify")
        w(mod["consensus"], "compose", "terms.compose")
        w(mod["clauses"], "subsumes", "clauses.subsumes")
        w(mod["compiler"], "subsumes", "clauses.subsumes", also="compiler.entails_tried")
        w(mod["compiler"], "residue", "clauses.residue", after=self._residue)
        w(mod["compiler"], "consensus_closure", "consensus.closure", after=self._closure)
        w(pk, "compile", "compiler.compile")
        w(pk, "add_clause", "compiler.add_clause", after=self._fold)
        w(mod["cli"], "entails", "compiler.entails")
        w(mod["cli"], "load_kb", "cli.load_kb")
        w(mod["cli"], "parse_clause", "syntax.parse_query")
        w(mod["store"], "parse_clause", "syntax.parse_stored")
        w(mod["store"], "loads_kb", "store.loads", after=self._loads)
        w(mod["store"], "dumps_kb", "store.dumps")
        w(mod["cli"], "main", "cli.main")

    def _wrap(self, module, attr, name, after=None, also=None):
        inner = getattr(module, attr)
        calls, secs = self.calls, self.secs

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return_value = inner(*args, **kwargs)
            finally:
                secs[name] += perf_counter() - t0
                calls[name] += 1
                if also:
                    calls[also] += 1
            if after is not None:
                after(args, return_value)
            return return_value

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, inner))

    def _residue(self, args, result):
        self.sums["residue.in"] += len(args[0])
        self.sums["residue.kept"] += len(result.kept)

    def _closure(self, args, result):
        self.sums["closure.clauses"] += len(result.clauses)
        self.sums["closure.rounds"] += result.rounds

    def _fold(self, args, report):
        self.sums["fold." + report.outcome] += 1
        if report.outcome == "recompiled":
            self.sums["fold.rounds"] += report.result.stats.rounds

    def _loads(self, args, result):
        self.sums["store.bytes"] += len(args[0].encode("utf-8"))

    def remove(self) -> None:
        for module, attr, inner in reversed(self._undo):
            setattr(module, attr, inner)
        self._undo.clear()

    def metrics(self) -> dict:
        """Per-layer figures, named after the modules."""
        c, s, n = self.calls, self.secs, self.sums
        # Stored clauses are parsed inside loads_kb, under cli.load_kb; the
        # query's own parse is the CLI's third child.
        query_children = s["cli.load_kb"] + s["compiler.entails"] + s["syntax.parse_query"]
        return {
            "terms.unify_calls": c["terms.unify"],
            "terms.unify_s": s["terms.unify"],
            "terms.compose_calls": c["terms.compose"],
            "terms.compose_s": s["terms.compose"],
            "consensus.closure_s": s["consensus.closure"],
            "consensus.closure_clauses": n["closure.clauses"],
            "consensus.rounds": n["closure.rounds"],
            "clauses.subsumes_calls": c["clauses.subsumes"],
            "clauses.subsumes_s": s["clauses.subsumes"],
            "clauses.residue_calls": c["clauses.residue"],
            "clauses.residue_s": s["clauses.residue"],
            "clauses.residue_kept_per_input": _ratio(n["residue.kept"], n["residue.in"]),
            "compiler.compile_s": s["compiler.compile"],
            "compiler.add_clause_s": s["compiler.add_clause"],
            "compiler.fold_rounds": n["fold.rounds"],
            "compiler.recompiled": n["fold.recompiled"],
            "compiler.absorbed": n["fold.absorbed"],
            "compiler.entails_s": s["compiler.entails"],
            "compiler.entails_members_tried": c["compiler.entails_tried"],
            "store.loads_calls": c["store.loads"],
            "store.loads_s": s["store.loads"],
            "store.dumps_s": s["store.dumps"],
            "store.bytes": n["store.bytes"],
            "syntax.parse_calls": c["syntax.parse_query"] + c["syntax.parse_stored"],
            "syntax.parse_s": s["syntax.parse_query"] + s["syntax.parse_stored"],
            "cli.query_s": s["cli.main"],
            "cli.self_s": max(0.0, s["cli.main"] - query_children) if c["cli.main"] else 0.0,
        }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


class Outcomes:
    """A ``Trace`` callable that counts consensus attempts by outcome."""

    def __init__(self):
        self.counts = collections.Counter()

    def __call__(self, event) -> None:
        self.counts[event.outcome] += 1

    def metrics(self) -> dict:
        k = self.counts
        attempts = sum(k.values())
        return {
            "consensus.attempts": attempts,
            "consensus.added": k["added"],
            "consensus.blocked": k["blocked"],
            "consensus.duplicate": k["duplicate"],
            "consensus.non_fundamental": k["non_fundamental"],
            "consensus.added_per_attempt": _ratio(k["added"], attempts),
        }
