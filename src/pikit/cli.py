"""Command-line interface: compile, add, query, and show.

Exit codes: 0 on success (and YES queries), 1 for NO queries, 2 for
parse/store/IO errors, negative limits and terms nested too deeply, 3 when
a resource limit is exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import sys
from typing import Iterator, Sequence

from .compiler import add_clauses, compile, entails
from .consensus import DEFAULT_LIMITS, ResourceLimitExceeded, ResourceLimits, Trace
from .store import StoreError, load_kb, save_kb
from .syntax import ParseError, parse_clause, parse_clause_file


def _limits(args: argparse.Namespace) -> ResourceLimits:
    return ResourceLimits(max_rounds=args.max_rounds, max_clauses=args.max_clauses)


@contextlib.contextmanager
def _trace_file(path: str | None) -> Iterator[Trace | None]:
    """A trace that writes one line per consensus attempt to `path`, if any."""
    if not path:
        yield None
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield lambda event: fh.write(event.format() + "\n")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _cmd_compile(args: argparse.Namespace) -> int:
    parsed = parse_clause_file(_read(args.input))
    with _trace_file(args.trace) as trace:
        kb = compile(parsed.clauses, _limits(args), trace, source_digest=_file_digest(args.input))
    save_kb(kb, args.output)
    print(
        "compiled %d clauses -> %d prime implicates (rounds=%d)"
        % (len(parsed.clauses), len(kb.pi), kb.stats.rounds)
    )
    if kb.inconsistent:
        print("inconsistent: the prime implicates reduce to the empty clause")
    return 0


def _cmd_add(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    # New clauses must respect the arities the KB already commits to.  The
    # parse notes their own arities in a copy, so the KB's stay as loaded.
    parsed = parse_clause_file(_read(args.input), kb.signature.copy())
    with _trace_file(args.trace) as trace:
        report = add_clauses(kb, parsed.clauses, _limits(args), trace)
    for clause, outcome in zip(parsed.clauses, report.outcomes):
        print("%s: %s." % (outcome, clause))
    save_kb(report.result, args.output)
    print("%d prime implicates" % len(report.result.pi))
    if report.result.inconsistent:
        print("inconsistent: the prime implicates reduce to the empty clause")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    query = parse_clause(args.clause, kb.signature.copy())
    answer = entails(kb, query)
    if answer.entailed:
        if answer.tautology:
            print("YES tautology")
        else:
            print("YES witness=%s subst=%s" % (answer.witness.clause, answer.substitution))
        return 0
    print("NO")
    return 1


def _cmd_show(args: argparse.Namespace) -> int:
    kb = load_kb(args.kb)
    print("prime implicates (%d):" % len(kb.pi))
    for i, member in enumerate(kb.pi, start=1):
        print("  %d. %s" % (i, member.entry_text))
    if kb.inconsistent:
        print("inconsistent: the prime implicates reduce to the empty clause")
    print("stats: %s" % kb.stats.format())
    print("digest: %s" % kb.source_digest)
    return 0


def _add_limit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--max-rounds", type=int, default=DEFAULT_LIMITS.max_rounds, help="saturation round cap"
    )
    sub.add_argument(
        "--max-clauses", type=int, default=DEFAULT_LIMITS.max_clauses, help="clause count cap"
    )
    sub.add_argument("--trace", default=None, help="write one line per consensus attempt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pikit",
        description="Compile clause files to prime implicates and query them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a clause file into a KB")
    c.add_argument("input", help="clause file (.fol)")
    c.add_argument("-o", "--output", required=True, help="output KB path (.pikb)")
    _add_limit_flags(c)
    c.set_defaults(func=_cmd_compile)

    a = sub.add_parser("add", help="fold new clauses into a compiled KB")
    a.add_argument("kb", help="existing KB (.pikb)")
    a.add_argument("input", help="clause file with clauses to add")
    a.add_argument("-o", "--output", required=True, help="output KB path")
    _add_limit_flags(a)
    a.set_defaults(func=_cmd_add)

    q = sub.add_parser("query", help="ask whether the KB entails a clause")
    q.add_argument("kb", help="compiled KB (.pikb)")
    q.add_argument("clause", help="clause text, e.g. '~p(a)|s(X).'")
    q.set_defaults(func=_cmd_query)

    s = sub.add_parser("show", help="list prime implicates and stats")
    s.add_argument("kb", help="compiled KB (.pikb)")
    s.set_defaults(func=_cmd_show)
    return parser


_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitExceeded as err:
        # `add` notes which clause of its input hit the limit.
        at = err.clause_index
        where = "" if at is None else "%s, clause %d: " % (args.input, at + 1)
        print("error: %s%s" % (where, err), file=sys.stderr)
        return 3
    except (ParseError, StoreError, OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except RecursionError:
        print("error: terms are nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
