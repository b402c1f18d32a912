"""pikit: prime-implicate compilation for first-order clause sets.

Compiles quantifier-free clausal knowledge bases into their prime
implicates by consensus/subsumption saturation, folds new clauses in
incrementally without recompiling from scratch, and answers clausal
entailment queries from the compiled set.
"""

__version__ = "0.1.0"

from .clauses import (
    AssocClause,
    Clause,
    ClauseSet,
    Residue,
    residue,
    subsumes,
)
from .compiler import (
    BatchReport,
    CompiledKB,
    CompileStats,
    Entailment,
    IncrementalReport,
    add_clause,
    add_clauses,
    chain_digest,
    clause_set_digest,
    compile,
    entails,
    input_clauses,
)
from .consensus import (
    DEFAULT_LIMITS,
    ClosureResult,
    Outcome,
    ResourceLimitExceeded,
    ResourceLimits,
    TraceEvent,
    complementary_pairs,
    consensus_closure,
)
from .oracle import GenConfig, gen_clause, gen_kb, vary_seed
from .store import (
    MalformedStoreError,
    SignatureConflictError,
    StoreError,
    StoreVersionError,
    dumps_kb,
    load_kb,
    loads_kb,
    save_kb,
    signature_of,
)
from .syntax import (
    ClauseFile,
    ParseError,
    Signature,
    parse_clause,
    parse_clause_file,
    parse_term,
    print_clause,
    print_clause_file,
)
from .terms import (
    EMPTY,
    Atom,
    Compound,
    Literal,
    Substitution,
    Term,
    Variable,
    apply,
    compose,
    match,
    unify,
)

__all__ = [
    "__version__",
    # terms
    "Variable", "Compound", "Term", "Atom", "Literal", "Substitution", "EMPTY",
    "apply", "compose", "unify", "match",
    # clauses
    "Clause", "AssocClause", "ClauseSet", "Residue",
    "subsumes", "residue",
    # consensus
    "ResourceLimits", "DEFAULT_LIMITS", "ResourceLimitExceeded",
    "Outcome", "TraceEvent", "ClosureResult",
    "complementary_pairs", "consensus_closure",
    # compiler
    "CompileStats", "CompiledKB", "IncrementalReport", "BatchReport", "Entailment",
    "compile", "add_clause", "add_clauses", "entails", "input_clauses",
    "clause_set_digest", "chain_digest",
    # oracle
    "GenConfig", "gen_kb", "gen_clause", "vary_seed",
    # syntax
    "ParseError", "Signature", "ClauseFile",
    "parse_clause_file", "parse_clause", "parse_term",
    "print_clause", "print_clause_file",
    # store
    "StoreError", "StoreVersionError", "MalformedStoreError", "SignatureConflictError",
    "save_kb", "load_kb", "dumps_kb", "loads_kb", "signature_of",
]
