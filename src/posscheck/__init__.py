"""Possibility distributions on finite universes: t-norm conditioning,
conditional independence, Markov properties and clique factorizations."""

from .errors import (
    ArityError,
    DisjointnessError,
    DomainError,
    InternalInconsistencyError,
    LimitError,
    ModelFormatError,
    NormalityError,
    PosscheckError,
    SchemaError,
)
from .factorization import (
    Factorization,
    FactorizationResult,
    factorizes,
    verify,
)
from .graphs import UndirectedGraph
from .independence import (
    AXIOMS,
    AxiomReport,
    ScanReports,
    IndependenceResult,
    IndependenceStatement,
    check_axiom,
    independent,
    scan_axioms,
    violations,
)
from .markov import (
    ChainReport,
    MarkovReport,
    chain_report,
    global_markov,
    local_markov,
    pairwise_markov,
)
from .modelio import Model, load_model
from .numeric import DEFAULT_EPSILON
from .possibility import ConditionalTable, PossibilityTable, Schema, ae_equal
from .tnorm import (
    GODEL,
    LUKASIEWICZ,
    NILPOTENT,
    NON_ARCHIMEDEAN,
    PRODUCT,
    STRICT,
    PowerTransform,
    TNorm,
)

__version__ = "0.1.0"

__all__ = [
    "AXIOMS",
    "ArityError",
    "AxiomReport",
    "ChainReport",
    "ConditionalTable",
    "DEFAULT_EPSILON",
    "DisjointnessError",
    "DomainError",
    "Factorization",
    "FactorizationResult",
    "GODEL",
    "IndependenceResult",
    "IndependenceStatement",
    "InternalInconsistencyError",
    "LUKASIEWICZ",
    "LimitError",
    "MarkovReport",
    "Model",
    "ModelFormatError",
    "NILPOTENT",
    "NON_ARCHIMEDEAN",
    "NormalityError",
    "PRODUCT",
    "PossibilityTable",
    "PosscheckError",
    "PowerTransform",
    "STRICT",
    "ScanReports",
    "Schema",
    "SchemaError",
    "TNorm",
    "UndirectedGraph",
    "ae_equal",
    "chain_report",
    "check_axiom",
    "factorizes",
    "global_markov",
    "independent",
    "load_model",
    "local_markov",
    "pairwise_markov",
    "scan_axioms",
    "verify",
    "violations",
]
