"""pikit: prime-implicate compilation for first-order clause sets.

Compiles quantifier-free clausal knowledge bases into their prime
implicates by consensus/subsumption saturation, folds new clauses in
incrementally without recompiling from scratch, and answers clausal
entailment queries from the compiled set.
"""

__version__ = "0.1.0"

from .clauses import (
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
    compile,
    entails,
)
from .consensus import (
    DEFAULT_LIMITS,
    ClosureResult,
    Outcome,
    ResourceLimitExceeded,
    ResourceLimits,
    TraceEvent,
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
    ParseError,
    Signature,
    parse_clause,
    parse_clause_file,
    parse_term,
)
from .terms import (
    EMPTY,
    Compound,
    Literal,
    Substitution,
    Term,
    Variable,
    apply,
    compose,
    unify,
)

__all__ = [
    "__version__",
    # terms
    "Variable", "Compound", "Term", "Literal", "Substitution", "EMPTY",
    "apply", "compose", "unify",
    # clauses
    "Clause", "ClauseSet", "Residue",
    "subsumes", "residue",
    # consensus
    "ResourceLimits", "DEFAULT_LIMITS", "ResourceLimitExceeded",
    "Outcome", "TraceEvent", "ClosureResult",
    "consensus_closure",
    # compiler
    "CompileStats", "CompiledKB", "IncrementalReport", "BatchReport", "Entailment",
    "compile", "add_clause", "add_clauses", "entails",
    # oracle
    "GenConfig", "gen_kb", "gen_clause", "vary_seed",
    # syntax
    "ParseError", "Signature",
    "parse_clause_file", "parse_clause", "parse_term",
    # store
    "StoreError", "StoreVersionError", "MalformedStoreError", "SignatureConflictError",
    "save_kb", "load_kb", "dumps_kb", "loads_kb", "signature_of",
]
