#!/usr/bin/env python3
"""Hash every output of batch compilation and the incremental fold.

For each seed of the first-order instance shape, X is a random KB and C one
extra clause.  The hash covers, per instance: the `compile(X)` store and
trace; the `add_clause` outcome, store, trace and both histories; the
`add_clauses([C, C])` outcomes, store and trace; the `compile(X + [C])`
store and trace; and the same three runs under tight resource limits, where
a stop records its limit, the partial set and the trace up to it.  The read
side is covered too: the `compile(X)` store after a load and a dump, and
the `entails` answer on the loaded KB, for C and for each member's clause.
Stores carry the stats counters, and trace lines carry every event field.
A second hash covers the same runs with no trace attached, so the untraced
path is checked too; it also covers the heavy seed, which the traced hash
skips.  Two versions of pikit whose outputs are byte-identical print the
same two hashes.

    python scripts/output_hash.py --count 500
"""

import argparse
import hashlib

from pikit import (
    DEFAULT_LIMITS,
    GenConfig,
    ResourceLimitExceeded,
    ResourceLimits,
    add_clause,
    add_clauses,
    compile,
    dumps_kb,
    entails,
    gen_clause,
    gen_kb,
    loads_kb,
    vary_seed,
)

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
# Seed 134 compiles in about 0.2 s, but its traced runs print over 600,000
# lines and take about 6 s, so only the untraced hash covers it.  Seeds 157,
# 193 and 362, once left out as well, now compile in about 0.04 s each.
HEAVY_SEEDS = frozenset({134})
TIGHT = ResourceLimits(max_rounds=3, max_clauses=12)


def run(fn, traced):
    """Lines for fn(trace)'s outputs followed by its trace, one line per event.

    A resource stop gives the limit and the partial set in place of the
    outputs.  Untraced, fn gets None for its trace and no event lines follow.
    """
    events = []
    try:
        lines = fn(events.append if traced else None)
    except ResourceLimitExceeded as err:
        lines = ["limit %s %d" % (err.limit, err.value)]
        lines += [m.entry_text for m in err.partial]
    lines += [
        repr((e.round, e.parents, e.parent_texts, str(e.mgu), e.outcome, e.result_text))
        for e in events
    ]
    return lines


def fold_lines(report):
    lines = [report.outcome, dumps_kb(report.result)]
    lines += [" / ".join(m.entry_text for m in snap) for snap in report.support_history]
    lines += [" / ".join(m.entry_text for m in snap) for snap in report.snapshot_history]
    return lines


def batch_lines(batch):
    return [" ".join(batch.outcomes), dumps_kb(batch.result)]


def read_lines(kb, queries):
    """The store of `kb` after a load and a dump, and each query's answer on it."""
    loaded = loads_kb(dumps_kb(kb))
    lines = [dumps_kb(loaded)]
    for query in queries:
        answer = entails(loaded, query)
        witness = answer.witness.entry_text if answer.witness is not None else "-"
        sub = answer.substitution.bindings_text if answer.substitution is not None else "-"
        lines.append("entails %s %s %s / %s" % (query, answer.entailed, witness, sub))
    return lines


def instance_lines(seed, traced):
    cfg = GenConfig(seed=seed, **FO_CFG)
    x = list(gen_kb(cfg))
    c = gen_clause(vary_seed(cfg, 1_000_003))
    base = []  # compile(X), when it stops within the default limits

    def compile_x(trace):
        base.append(compile(x, trace=trace))
        return [dumps_kb(base[0])]

    lines = ["seed %d" % seed, *run(compile_x, traced)]
    if base:
        lines += read_lines(base[0], [c, *base[0].pi])
    lines += run(lambda t: [dumps_kb(compile(x, TIGHT, t))], traced)
    for limits in (DEFAULT_LIMITS, TIGHT):
        if base:
            lines += run(lambda t: fold_lines(add_clause(base[0], c, limits, t)), traced)
        lines += run(lambda t: [dumps_kb(compile(x + [c], limits, t))], traced)
    if base:
        lines += run(lambda t: batch_lines(add_clauses(base[0], [c, c], trace=t)), traced)
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500, help="hash seeds 0..count-1")
    args = parser.parse_args()

    hashes = {True: hashlib.sha256(), False: hashlib.sha256()}
    for seed in range(args.count):
        for traced, h in hashes.items():
            if traced and seed in HEAVY_SEEDS:
                continue
            for line in instance_lines(seed, traced):
                h.update(line.encode("utf-8"))
                h.update(b"\n")
    print("instances: %d" % len(set(range(args.count)) - HEAVY_SEEDS))
    print("sha256:%s" % hashes[True].hexdigest())
    print("untraced sha256:%s" % hashes[False].hexdigest())


if __name__ == "__main__":
    main()
