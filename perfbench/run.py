"""Benchmark pikit end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fo-compile --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the work counters, the output digest and the tail's operation count.
The workload runs in this one process, from one thread, against the
``pikit`` sources under ``src/``, with ``PYTHONHASHSEED`` pinned to 0.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time

perf_counter = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"
SETUP_REPEATS = 5
MIN_PASSES = 3
MIN_OP_S = 0.001
MAX_REPS = 50
WARMUP_OPS = 5
MAX_PROBLEMS_SHOWN = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["fo-compile", "fo-add-stream", "kb-query"])
    p.add_argument("--seed", type=int, required=True, help="permutes the order of operations")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def fresh_pikit():
    """Import pikit from ``src/`` anew, so that each set-up pays the import."""
    for name in [n for n in sys.modules if n == "pikit" or n.startswith("pikit.")]:
        del sys.modules[name]
    pk = importlib.import_module("pikit")
    if not os.path.abspath(pk.__file__).startswith(SRC + os.sep):
        raise ImportError("pikit was imported from %s, not from %s" % (pk.__file__, SRC))
    return pk


def build(name, pk, size, workdir):
    import workloads

    if name == "fo-compile":
        return workloads.FoCompile(pk, size)
    if name == "fo-add-stream":
        return workloads.FoAddStream(pk, size)
    return workloads.KbQuery(pk, size, workdir)


def set_up(workload, size, workdir, layers_cls=None):
    """Import, generate inputs, compile bases, write stores, warm up.

    Returns the workload, its set-up time and, when ``layers_cls`` is
    given, the per-layer record of the set-up."""
    t0 = perf_counter()
    pk = fresh_pikit()
    layers = layers_cls(pk) if layers_cls else None
    try:
        wl = build(workload, pk, size, workdir)
    finally:
        if layers:
            layers.remove()
    wl.run_pass(wl.ops[:WARMUP_OPS])
    return wl, perf_counter() - t0, layers


def timed_pass(wl, order, trace=None, reps=None):
    """Runs one pass; returns ``({op: seconds}, {op: output})``."""
    # Freezing keeps the collector from rescanning the benchmark's own
    # data, which a user's process does not hold, on every full collection.
    gc.collect()
    gc.freeze()
    return wl.run_pass(order, trace, reps)


def host_loop_ms(repeats=20):
    """Fastest time of a fixed pure-Python loop, a gauge of the host's own
    speed; printed before and after the timed phase so that drift shows."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        best = min(best, perf_counter() - t0)
    return 1000 * best


def tail(values):
    """The highest whole percentile with at least ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        k = -(-pct * n // 100)  # ceil
        if n - k >= 10:
            return pct, ordered[k - 1], n
    return None, ordered[-1], n


def judge(wl, passes):
    """Check the first pass in full and every later pass against it.

    Returns (failed operation count, problems keyed by op)."""
    first = passes[0][1]
    bad = wl.check(first)
    failed = 0
    for _, outputs in passes:
        for op in outputs:
            if op in bad:
                failed += 1
            elif outputs[op] != first[op]:
                failed += 1
                bad.setdefault(op, []).append("output differs between passes")
    return failed, bad


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError("metrics not produced: %s" % ", ".join(missing))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def verdict(wl, passes, info):
    """The ``correct``, ``attempted`` and ``failed`` of the result line;
    the first few problems go into ``info``."""
    failed, bad = judge(wl, passes)
    info["problems"] = {repr(k): v for k, v in list(bad.items())[:MAX_PROBLEMS_SHOWN]}
    return {
        "correct": not bad and "trace_mismatch" not in info,
        "attempted": sum(len(p[1]) for p in passes),
        "failed": failed,
    }


def run_untraced(workload, seed, seconds, size, workdir):
    wl, secs, _ = set_up(workload, size, workdir)
    setups = [secs]
    # Every pass runs in a fresh order drawn from --seed, so that no
    # operation always meets the collector or a cache in the same state.
    rng = random.Random(seed)
    order = rng.sample(wl.ops, len(wl.ops))
    again = [op for op in wl.ops if op not in wl.once]
    host = [host_loop_ms()]
    # One pass of the repeated operations, then repeat passes for
    # --seconds (at least two).
    passes = [timed_pass(wl, [op for op in order if op not in wl.once])]
    # Repeat passes call each operation back to back often enough to fill
    # about a millisecond, as its first-pass time predicts.
    reps = {
        op: min(MAX_REPS, math.ceil(MIN_OP_S / t))
        for op, t in passes[0][0].items()
        if t < MIN_OP_S
    }
    # The operations timed once and the other set-ups run between repeat
    # passes, spread evenly over the timed phase: the repeats then span the
    # whole run, and the set-ups are not all taken in one stretch of host
    # speed.  Their time does not count toward --seconds.
    once = [op for op in order if op in wl.once]
    done = 0
    begin = perf_counter()
    aside = 0.0
    while (
        len(passes) < MIN_PASSES
        or done < len(once)
        or perf_counter() - begin - aside < seconds
    ):
        passes.append(timed_pass(wl, rng.sample(again, len(again)), reps=reps))
        t0 = perf_counter()
        while done < len(once) and done * seconds <= len(once) * (t0 - begin - aside):
            times, outputs = timed_pass(wl, [once[done]])
            passes[0][0].update(times)
            passes[0][1].update(outputs)
            done += 1
        if len(setups) * seconds < SETUP_REPEATS * (t0 - begin - aside):
            # Each set-up writes its stores to a directory of its own.
            setups.append(set_up(workload, size, tempfile.mkdtemp(dir=workdir))[1])
        aside += perf_counter() - t0
    while len(setups) < SETUP_REPEATS:
        setups.append(set_up(workload, size, tempfile.mkdtemp(dir=workdir))[1])
    host.append(host_loop_ms())
    # Each operation's time is its fastest over the passes.  On a shared
    # host the same call runs up to 1.5 times slower for seconds at a
    # time; the fastest of several repeats spread over the run is the
    # figure that stays put from run to run.
    fastest = {op: min(p[0][op] for p in passes if op in p[0]) for op in wl.ops}
    per_op = list(fastest.values())
    pct, tail_s, n = tail(per_op)
    values = {
        "p50_ms": 1000 * statistics.median(per_op),
        "tail_ms": 1000 * tail_s,
        # Over the operations that every pass repeats: an operation timed
        # once would make this one unrepeated measurement.
        "ops_per_s": len(again) / sum(fastest[op] for op in again),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "passes": len(passes),
        "timed_s": perf_counter() - begin,
        "tail_percentile": pct,
        "tail_ops": n,
        "setups_s": setups,
        "host_loop_ms": host,
        "once_s": {repr(op): fastest[op] for op in sorted(wl.once)},
    }
    return wl, passes, values, info


def run_traced(workload, seed, size, workdir):
    """One untraced pass, then one pass with every layer wrapped and a
    ``Trace`` callable counting consensus outcomes."""
    from layers import Layers, Outcomes

    wl, _, setup_layers = set_up(workload, size, workdir, Layers)
    order = random.Random(seed).sample(wl.ops, len(wl.ops))
    untraced = timed_pass(wl, order)
    outcomes = Outcomes()
    gc.collect()
    gc.freeze()
    layers = Layers(wl.pk)
    try:
        traced = wl.run_pass(order, outcomes)
    finally:
        layers.remove()
    counters = wl.counters(untraced[1])
    values = layers.metrics()
    values.update(outcomes.metrics())
    values["store.dumps_s"] = setup_layers.secs["store.dumps"]
    values["clauses.subsumption_checks"] = counters.get("clauses.subsumption_checks", 0)
    values["compiler.kb_members"] = counters["kb.members"]
    values["trace.untraced_s"] = sum(untraced[0].values())
    values["trace.overhead_s"] = sum(traced[0].values()) - values["trace.untraced_s"]
    info = {"passes": 2}
    if values["consensus.attempts"] != counters.get("consensus.attempts", 0):
        info["trace_mismatch"] = "trace events and stats counters disagree on attempts"
    return wl, [untraced, traced], values, info


def measure(workload, seed, seconds, trace, size):
    """Set up, time and check one workload in this process.

    Returns the info line and the result line, as dicts.  Expects ``src/``
    and this directory on ``sys.path``."""
    workroot = os.path.join(HERE, "_work")
    os.makedirs(workroot, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as workdir:
        if trace:
            wl, passes, values, info = run_traced(workload, seed, size, workdir)
        else:
            wl, passes, values, info = run_untraced(workload, seed, seconds, size, workdir)
        result = verdict(wl, passes, info)
        info.update(
            workload=workload,
            seed=seed,
            ops=len(wl.ops),
            counters=wl.counters(passes[0][1]),
            digest=wl.digest(passes[0][1]),
        )
    spec = load_spec()
    result["metrics"] = report(spec["per_layer"] if trace else spec["end_to_end"], values)
    return info, result


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Hash order must not leak into timings; pin it before any work.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)
    if not os.path.isfile(os.path.join(SRC, "pikit", "__init__.py")):
        print("error: no pikit sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    info, result = measure(
        args.workload, args.seed, args.seconds, args.trace, workloads.FULL[args.workload]
    )
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
