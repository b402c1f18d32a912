"""Shared hypothesis strategies for terms, clauses, and substitutions.

Also `entries`: member equality ignores provenance, so a test that compares
members, clause sets or KBs with `==` compares their entries as well;
`answer`, an entailment answer with its witness's entry; `texts` and
`clause_file`, the members' clause texts and a clause file that holds them;
and `closure_iterates`, which reads a closure's saturation iterates off its
trace.
"""

import collections
import itertools

import hypothesis.strategies as st

from pikit import (
    DEFAULT_LIMITS,
    Clause,
    ClauseSet,
    Compound,
    Literal,
    Substitution,
    Variable,
    consensus_closure,
)

# The first-order instance shape of acceptance criterion 4, for GenConfig.
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

variables = st.sampled_from("XYZ").map(Variable)
constants = st.sampled_from("ab").map(Compound)

terms = st.recursive(
    variables | constants,
    lambda kids: st.builds(Compound, st.sampled_from("fg"), st.tuples(kids)),
    max_leaves=4,
)

# Arities are fixed per predicate, matching the one-KB invariant.
atoms = st.one_of(
    st.builds(lambda t: Compound("p", (t,)), terms),
    st.builds(lambda a, b: Compound("q", (a, b)), terms, terms),
    st.builds(lambda t: Compound("r", (t,)), terms),
)

literals = st.builds(Literal, atoms, st.booleans())

clauses = st.lists(literals, min_size=1, max_size=3).map(lambda ls: Clause(tuple(ls)))

substitutions = st.dictionaries(st.sampled_from("XYZ"), terms, max_size=3).map(Substitution)


def entries(members):
    """Each member's store entry, origin included, in order."""
    return [m.entry_text for m in members]


def answer(e):
    """An entailment answer with its witness's entry and the substitution's text."""
    witness = None if e.witness is None else e.witness.entry_text
    return e, witness, str(e.substitution)


def texts(members):
    """Each member's clause text, in order."""
    return [str(m) for m in members]


def clause_file(clauses):
    """A clause file's text that holds `clauses` in order, one a line."""
    return "".join("%s.\n" % c for c in clauses)


def closure_iterates(x, limits=DEFAULT_LIMITS):
    """`consensus_closure(x, limits)` and its iterates, index 0 the input.

    The closure adds each round's admissions to one set, so iterate k is the
    prefix of its clauses that holds the input and the `added` events of
    rounds 1..k of the trace.
    """
    added = collections.Counter()

    def count(event):
        if event.outcome == "added":
            added[event.round] += 1

    closure = consensus_closure(x, limits, count)
    members = closure.clauses.members
    sizes = itertools.accumulate((added[k] for k in range(1, closure.rounds + 1)), initial=len(x))
    return closure, [ClauseSet(members[:n]) for n in sizes]
