"""The three workloads: their inputs, their timed operations and their checks.

Every workload is built from a freshly imported ``pikit`` module ``pk`` and
from fixed input seeds; the run's ``--seed`` only draws the order in
which each pass runs the operations, so every run does the same work and
figures from different seeds compare.  Inputs are generated by ``pikit.oracle`` and are
never timed.

A workload exposes:

* ``ops``: the operation ids, in canonical order;
* ``once``: ops too slow to repeat, which run in the first pass only;
* ``run_pass(order, trace, reps)``: runs every operation in ``order``,
  returns ``{op: seconds}`` and ``{op: output}``.  An operation with
  ``reps[op] = r > 1`` is called r times back to back and its time is the
  mean; this keeps sub-millisecond calls from being timed one at a time.
  Every call gets its own freshly parsed input objects, made before the
  timer starts, so that no call profits from the term-hash and sort-key
  caches an earlier call filled;
* ``check(outputs)``: ``{op: [problems]}`` from ``checks``, for the ops
  whose output is wrong; the workload's own invariants go under ``None``;
* ``counters(outputs)``: work counts that do not depend on the machine;
* ``digest(outputs)``: a hash of every output, in canonical order.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import os
import random
import time

import checks

# The first-order instance shape acceptance criterion 4 uses.
FO_CFG = dict(
    num_predicates=3,
    max_arity=2,
    num_variables=3,
    num_constants=2,
    num_functions=1,
    max_term_depth=1,
    clause_len_range=(1, 3),
    kb_size_range=(2, 6),
)
PREDICATES = ("p", "q", "r")

perf_counter = time.perf_counter


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return "sha256:" + h.hexdigest()


def _members(kb) -> tuple[str, ...]:
    return tuple(m.entry_text for m in kb.pi)


def _entries(entry_texts) -> tuple[list[frozenset], list[bool]]:
    """The members' clauses, and whether each one's association is empty."""
    pairs = [checks.parse_entry(t) for t in entry_texts]
    return [c for c, _ in pairs], [f for _, f in pairs]


class FoCompile:
    """``compile`` on the criterion-4 instances, one operation each."""


    def __init__(self, pk, size: dict):
        self.pk = pk
        self.ops = list(range(size["instances"]))
        self.once = frozenset(size.get("once", ()))
        self.texts = {
            s: [str(m.clause) + "." for m in pk.gen_kb(pk.GenConfig(seed=s, **FO_CFG))]
            for s in self.ops
        }

    def run_pass(self, order, trace=None, reps=None):
        times, outputs = {}, {}
        pk = self.pk
        for s in order:
            r = reps.get(s, 1) if reps else 1
            copies = [[pk.parse_clause(t) for t in self.texts[s]] for _ in range(r)]
            t0 = perf_counter()
            try:
                for x in copies:
                    kb = pk.compile(x, trace=trace)
            except pk.ResourceLimitExceeded as err:
                times[s] = perf_counter() - t0
                outputs[s] = ("limit", str(err))
                continue
            times[s] = (perf_counter() - t0) / r
            outputs[s] = (_members(kb), kb.stats.consensus_attempts, kb.stats.subsumption_checks)
        return times, outputs

    def check(self, outputs):
        bad = {}
        for s in self.ops:
            out = outputs[s]
            if out[0] == "limit":
                bad[s] = ["resource limit: %s" % out[1]]
                continue
            inputs = [checks.parse_clause(t) for t in self.texts[s]]
            problems = checks.check_compiled(inputs, *_entries(out[0]))
            if problems:
                bad[s] = problems
        return bad

    def counters(self, outputs):
        done = [outputs[s] for s in self.ops if outputs[s][0] != "limit"]
        return {
            "consensus.attempts": sum(o[1] for o in done),
            "clauses.subsumption_checks": sum(o[2] for o in done),
            "kb.members": sum(len(o[0]) for o in done),
            "kb.max_members": max((len(o[0]) for o in done), default=0),
        }

    def digest(self, outputs):
        return _digest("%d %r" % (s, outputs[s]) for s in self.ops)


class Stream:
    """A base KB and a run of clauses, all true in a hidden interpretation.

    The hidden interpretation makes each predicate constantly true or
    constantly false.  Keeping it a model keeps the KB consistent, so the
    KB keeps growing instead of collapsing to ``$false``.
    """

    def __init__(self, pk, sid: int, base_size: int, folds: int):
        cfg = pk.GenConfig(seed=sid, **FO_CFG)
        rng = random.Random(7919 * sid + 17)
        self.sid = sid
        self.hidden = {p: rng.random() < 0.5 for p in PREDICATES}
        texts: list[str] = []
        while len(texts) < base_size + folds:
            c = pk.gen_clause(cfg, rng)
            text = str(c) + "."
            if text not in texts and checks.true_in(checks.parse_clause(text), self.hidden):
                texts.append(text)
        self.base_texts = texts[:base_size]
        self.fold_texts = texts[base_size:]
        base = pk.compile([pk.parse_clause(t) for t in self.base_texts])
        self.base_members = _members(base)
        self.base_store = pk.dumps_kb(base)


def fold_stream(pk, kb, texts, trace=None, on_fold=None, reps=()):
    """Fold the clauses ``texts`` into ``kb`` one at a time; returns the
    final KB and the per-fold outputs.

    ``reps[i]``, when given, repeats fold i back to back into the same KB,
    each time with a freshly parsed clause.  A fold that hits a resource
    limit records the error and the stream goes on from the KB before it.
    """
    outputs = []
    for i, text in enumerate(texts):
        r = reps[i] if reps else 1
        copies = [pk.parse_clause(text) for _ in range(r)]
        t0 = perf_counter()
        try:
            for c in copies:
                report = pk.add_clause(kb, c, trace=trace)
        except pk.ResourceLimitExceeded as err:
            dt = perf_counter() - t0
            outputs.append(("limit", str(err)))
        else:
            dt = (perf_counter() - t0) / r
            kb = report.result
            stats = kb.stats if report.outcome == "recompiled" else None
            outputs.append(
                (
                    report.outcome,
                    _members(kb),
                    stats.consensus_attempts if stats else 0,
                    stats.subsumption_checks if stats else 0,
                )
            )
        if on_fold is not None:
            on_fold(i, dt)
    return kb, outputs


def _check_stream(stream, outs) -> dict:
    """Problems per fold index, plus the final-KB check under key -1."""
    bad = {}
    previous, _ = _entries(stream.base_members)
    for i, (text, out) in enumerate(zip(stream.fold_texts, outs)):
        if out[0] == "limit":
            bad[i] = ["resource limit: %s" % out[1]]
            continue
        members, free = _entries(out[1])
        problems = checks.check_fold(
            previous, checks.parse_clause(text), members, free, stream.hidden
        )
        if problems:
            bad[i] = problems
        previous = members
    final = checks.check_minimal(previous)
    if final:
        bad[-1] = final
    return bad


class FoAddStream:
    """``add_clause`` along growing streams; one operation per fold."""

    once = frozenset()

    def __init__(self, pk, size: dict):
        self.pk = pk
        self.streams = [
            Stream(pk, sid, size["base"], size["folds"]) for sid in size["streams"]
        ]
        self.ops = [(s.sid, i) for s in self.streams for i in range(len(s.fold_texts))]

    def run_pass(self, order, trace=None, reps=None):
        # Folds of one stream depend on each other, so the order permutes
        # streams, never folds within a stream.
        # A shorter order (the warm-up) folds a prefix of each stream.
        times, outputs = {}, {}
        counts = collections.Counter(sid for sid, _ in order)
        streams = {s.sid: s for s in self.streams}
        for sid in counts:
            # The base KB is reloaded from its store text for every pass.
            kb = self.pk.loads_kb(streams[sid].base_store)
            clauses = streams[sid].fold_texts[: counts[sid]]

            def on_fold(i, dt, sid=sid):
                times[(sid, i)] = dt

            fold_reps = [reps.get((sid, i), 1) for i in range(len(clauses))] if reps else ()
            _, outs = fold_stream(self.pk, kb, clauses, trace, on_fold, fold_reps)
            for i, out in enumerate(outs):
                outputs[(sid, i)] = out
        return times, outputs

    def check(self, outputs):
        bad = {}
        for s in self.streams:
            outs = [outputs[(s.sid, i)] for i in range(len(s.fold_texts))]
            for i, problems in _check_stream(s, outs).items():
                bad[(s.sid, i) if i >= 0 else None] = problems
        return bad

    def counters(self, outputs):
        done = [o for o in (outputs[op] for op in self.ops) if o[0] != "limit"]
        finals = [outputs[(s.sid, len(s.fold_texts) - 1)] for s in self.streams]
        return {
            "consensus.attempts": sum(o[2] for o in done),
            "clauses.subsumption_checks": sum(o[3] for o in done),
            "compiler.recompiled": sum(o[0] == "recompiled" for o in done),
            "compiler.absorbed": sum(o[0] == "absorbed" for o in done),
            "kb.members": sum(len(o[1]) for o in finals if o[0] != "limit"),
            "kb.max_members": max((len(o[1]) for o in done), default=0),
        }

    def digest(self, outputs):
        return _digest("%r %r" % (op, outputs[op]) for op in self.ops)


class KbQuery:
    """``pikit query`` through ``pikit.cli.main`` against stores on disk.

    Each query loads its store, as a command-line user's query does.  Half
    the queries are a member plus one literal, so they must be entailed;
    the rest are random clauses over the same signature.
    """

    once = frozenset()

    def __init__(self, pk, size: dict, workdir: str):
        import pikit.cli

        self.pk = pk
        self.cli = pikit.cli
        self.stores: dict[int, str] = {}
        self.members: dict[int, list[frozenset]] = {}
        self.queries: list[tuple[int, str, bool]] = []
        for sid, folds, count in size["stores"]:
            stream = Stream(pk, sid, size["base"], folds)
            kb, _ = fold_stream(pk, pk.loads_kb(stream.base_store), stream.fold_texts)
            path = os.path.join(workdir, "kb%d.pikb" % sid)
            pk.save_kb(kb, path)
            self.stores[sid] = path
            self.members[sid] = _entries(_members(kb))[0]
            self.queries += self._queries(pk, sid, kb, count)
        self.ops = list(range(len(self.queries)))

    @staticmethod
    def _queries(pk, sid, kb, count):
        cfg = pk.GenConfig(seed=sid, **FO_CFG)
        one = pk.GenConfig(seed=sid, **dict(FO_CFG, clause_len_range=(1, 1)))
        rng = random.Random(104_729 * sid + 3)
        members = [str(m.clause) for m in kb.pi]
        out = []
        while len(out) < count:
            if len(out) % 2 == 0:
                base = rng.choice(members)
                extra = str(pk.gen_clause(one, rng))
                atoms = {a for _, a in checks.parse_clause(base)}
                if any(a in atoms for _, a in checks.parse_clause(extra)):
                    continue
                out.append((sid, "%s|%s." % (base, extra), True))
            else:
                out.append((sid, str(pk.gen_clause(cfg, rng)) + ".", False))
        return out

    def run_pass(self, order, trace=None, reps=None):
        times, outputs = {}, {}
        main = self.cli.main
        for q in order:
            sid, text, _ = self.queries[q]
            r = reps.get(q, 1) if reps else 1
            t0 = perf_counter()
            for _ in range(r):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main(["query", self.stores[sid], text])
            times[q] = (perf_counter() - t0) / r
            outputs[q] = (code, buf.getvalue())
        return times, outputs

    def check(self, outputs):
        bad = {}
        for q in self.ops:
            sid, text, built = self.queries[q]
            code, stdout = outputs[q]
            problems = checks.check_query(
                self.members[sid], checks.parse_clause(text), code, stdout, built
            )
            if problems:
                bad[q] = problems
        for sid, path in self.stores.items():
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            if self.pk.dumps_kb(self.pk.loads_kb(text)) != text:
                bad.setdefault(None, []).append("store %d does not dump back to its text" % sid)
        return bad

    def counters(self, outputs):
        codes = [outputs[q][0] for q in self.ops]
        return {
            "queries.yes": codes.count(0),
            "queries.no": codes.count(1),
            "kb.members": sum(len(m) for m in self.members.values()),
            "kb.max_members": max(len(m) for m in self.members.values()),
        }

    def digest(self, outputs):
        lines = []
        for sid, path in sorted(self.stores.items()):
            with open(path, encoding="utf-8") as fh:
                lines.append(fh.read())
        lines += ["%d %r" % (q, outputs[q]) for q in self.ops]
        return _digest(lines)


FULL = {
    # The heavy-tail seeds take 2 to 26 s each, the other 496 under 0.5 s;
    # a run times the heavy ones once and repeats the rest.
    "fo-compile": {"instances": 500, "once": (134, 362, 157, 193)},
    # The streams whose final KB keeps at least 15 members, stream 10 aside
    # (its 40 folds alone take 2 s).  The others collapse to the three unit
    # clauses of their hidden interpretation within 10-30 folds, after which
    # every fold is a sub-millisecond absorb into a three-member KB.
    "fo-add-stream": {"streams": (7, 8, 16, 18), "base": 3, "folds": 40},
    # Stores are (stream, folds, queries).  The first three are final KBs
    # of fo-add-stream streams (17, 32 and 40 members; most other streams
    # collapse to three unit clauses).  A query's time is mostly its
    # store's load time, so times form one cluster per store size.  The
    # fourth store, stream 0 after 8 folds, has 69 members; its 20 queries
    # are the slowest, so the tail (11 queries beyond p95) falls inside
    # their cluster and not on the noisy upper edge of a larger one.
    "kb-query": {"base": 3, "stores": ((16, 40, 70), (7, 40, 70), (18, 40, 70), (0, 8, 20))},
}
SMALL = {
    "fo-compile": {"instances": 40},
    "fo-add-stream": {"streams": (0, 1, 2), "base": 3, "folds": 10},
    "kb-query": {"base": 3, "stores": ((0, 10, 20), (1, 10, 20))},
}
