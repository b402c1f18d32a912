#!/usr/bin/env python3
"""End-to-end walkthrough: compile a small KB, watch the saturation trace,
fold in a new clause incrementally, and run entailment queries.

    python scripts/demo.py
"""

from pikit import (
    add_clause,
    compile,
    entails,
    parse_clause,
    parse_clause_file,
)

KB_TEXT = """
# Every chain of three clauses below shares variables, so consensus steps
# thread one global binding through the whole derivation.
q(Y).
~r(f(X),b).
p(X)|r(Y,b)|~q(Z).
"""

NEW_CLAUSE = "~p(a)|~q(Z)."

QUERIES = ["~p(a)|s(X).", "r(b,b).", "s(a)|~s(a)."]


def main() -> None:
    clauses = parse_clause_file(KB_TEXT)
    print("input clauses:")
    for c in clauses:
        print("   %s." % c)

    kb = compile(clauses)
    print("\ncompiled prime implicates:")
    for member in kb.pi:
        print("   %s" % member.entry_text)
    print("stats: %s" % kb.stats.format())

    print("\nfolding in %s" % NEW_CLAUSE)
    events = []
    report = add_clause(kb, parse_clause(NEW_CLAUSE), trace=events.append)
    print("outcome: %s" % report.outcome)
    for event in events:
        print("   %s" % event.format())
    print("updated prime implicates:")
    for member in report.result.pi:
        print("   %s" % member.entry_text)

    print("\nqueries:")
    for text in QUERIES:
        answer = entails(report.result, parse_clause(text))
        if answer.tautology:
            verdict = "YES (tautology)"
        elif answer.entailed:
            verdict = "YES (witness %s, %s)" % (answer.witness, answer.substitution)
        else:
            verdict = "NO"
        print("   %-16s -> %s" % (text, verdict))


if __name__ == "__main__":
    main()
