"""The five desk-scale reference models built into the tool.

Each entry bundles a distribution (and, where applicable, a graph) with the
verdicts it is known to produce: which independence statements hold, which
axiom instances are violated, which Markov properties pass, and whether the
table factorizes.  Two of the graphs are reconstructions (the source figures
are not available); they are flagged and validated by reproducing every
stated verdict.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ModelFormatError
from .factorization import factorizes
from .independence import IndependenceStatement, check_axiom, independent, scan_axioms, violations
from .markov import GLOBAL, LOCAL, PAIRWISE, chain_report
from .modelio import load_model
from .numeric import DEFAULT_EPSILON
from .tnorm import BASES, TNorm


@dataclass(frozen=True)
class Claim:
    """One verifiable verdict of a reference model."""

    kind: str                      # independent | axiom | axiom_scan | markov | factorize
    params: tuple                  # kind-specific key/value pairs
    expected: object               # bool, "yes"/"no"/"unknown", or "no_violations"
    tnorms: tuple = BASES          # base t-norms the claim speaks about
    witness: Optional[tuple] = None  # expected witness assignment, as sorted items

    def param(self, key, default=None):
        return dict(self.params).get(key, default)


@dataclass(frozen=True, eq=False)
class ReferenceModel:
    number: int
    title: str
    variables: tuple
    one_cells: tuple
    default: object
    graph_edges: tuple = ()
    graph_isolated: tuple = ()
    has_graph: bool = False
    graph_reconstructed: bool = False
    claims: tuple = ()

    def loaded(self, exact=False):
        """The model as the model loader reads it from ``to_model_json``."""
        return load_model(self.to_model_json(), exact)

    def schema(self):
        return self.loaded().schema

    def table(self, exact=False):
        return self.loaded(exact).table

    def graph(self):
        return self.loaded().graph

    def to_model_json(self):
        names = [n for n, _ in self.variables]
        doc = {
            "variables": [{"name": n, "domain": list(d)} for n, d in self.variables],
            "table": {
                "default": str(self.default) if isinstance(self.default, Fraction) else self.default,
                "entries": [
                    {"assignment": dict(zip(names, cell)), "value": 1.0}
                    for cell in self.one_cells
                ],
            },
        }
        if self.has_graph:
            doc["graph"] = {"edges": [list(e) for e in self.graph_edges]}
            if self.graph_isolated:
                doc["graph"]["isolated"] = list(self.graph_isolated)
        return doc


def _binary_vars(*names):
    return tuple((n, ("0", "1")) for n in names)


_DIAGONAL_CELLS = (("0", "0", "0"), ("1", "1", "1"))

_EXAMPLES = (
    ReferenceModel(
        number=1,
        title="all-or-nothing diagonal over three binary variables",
        variables=_binary_vars("X", "Y", "Z"),
        one_cells=_DIAGONAL_CELLS,
        default=0,
        claims=(
            Claim("independent", (("a", ("X",)), ("b", ("Y",)), ("given", ("Z",))), True),
            Claim("independent", (("a", ("X",)), ("b", ("Z",)), ("given", ("Y",))), True),
            Claim(
                "independent",
                (("a", ("X",)), ("b", ("Y", "Z")), ("given", ())),
                False,
                witness=(("X", "1"), ("Y", "0"), ("Z", "0")),
            ),
            Claim(
                "axiom",
                (("axiom", "intersection"), ("groups", (("X",), ("Y",), ("Z",), ()))),
                False,
            ),
        ),
    ),
    ReferenceModel(
        number=2,
        title="strictly positive diagonal (1 on the diagonal, 1/2 elsewhere)",
        variables=_binary_vars("X", "Y", "Z"),
        one_cells=_DIAGONAL_CELLS,
        default=Fraction(1, 2),
        claims=(
            Claim("independent", (("a", ("X",)), ("b", ("Y",)), ("given", ("Z",))), True, ("godel",)),
            Claim("independent", (("a", ("X",)), ("b", ("Z",)), ("given", ("Y",))), True, ("godel",)),
            Claim(
                "independent",
                (("a", ("X",)), ("b", ("Y", "Z")), ("given", ())),
                False,
                ("godel",),
                witness=(("X", "1"), ("Y", "0"), ("Z", "0")),
            ),
            Claim(
                "axiom",
                (("axiom", "intersection"), ("groups", (("X",), ("Y",), ("Z",), ()))),
                False,
                ("godel",),
            ),
            Claim("axiom_scan", (("axioms", ("intersection",)),), "no_violations",
                  ("product", "lukasiewicz")),
        ),
    ),
    ReferenceModel(
        number=3,
        title="pairwise-but-not-local: diagonal table on an edge plus an isolated vertex",
        variables=_binary_vars("X", "Y", "Z"),
        one_cells=_DIAGONAL_CELLS,
        default=0,
        graph_edges=(("Y", "Z"),),
        graph_isolated=("X",),
        has_graph=True,
        graph_reconstructed=True,
        claims=(
            Claim("markov", (("property", PAIRWISE),), True),
            Claim("markov", (("property", LOCAL),), False),
            Claim("markov", (("property", GLOBAL),), False),
        ),
    ),
    ReferenceModel(
        number=4,
        title="local-but-not-global: two-cell table on a five-vertex path",
        variables=_binary_vars("U", "W", "X", "Y", "Z"),
        one_cells=(("1", "1", "0", "0", "0"), ("0", "0", "0", "1", "1")),
        default=0,
        graph_edges=(("U", "W"), ("W", "X"), ("X", "Y"), ("Y", "Z")),
        has_graph=True,
        graph_reconstructed=True,
        claims=(
            Claim("markov", (("property", PAIRWISE),), True),
            Claim("markov", (("property", LOCAL),), True),
            Claim(
                "markov",
                (("property", GLOBAL),),
                False,
                witness=(("U", "0"), ("W", "0"), ("X", "0"), ("Y", "0"), ("Z", "0")),
            ),
        ),
    ),
    ReferenceModel(
        number=5,
        title="global-but-unfactorizable: eight-cell crisp table on a four-cycle",
        variables=_binary_vars("X", "Y", "Z", "W"),
        one_cells=(
            ("0", "0", "0", "0"), ("0", "0", "0", "1"), ("0", "0", "1", "1"),
            ("0", "1", "1", "1"), ("1", "0", "0", "0"), ("1", "1", "0", "0"),
            ("1", "1", "1", "0"), ("1", "1", "1", "1"),
        ),
        default=0,
        graph_edges=(("X", "Y"), ("Y", "Z"), ("Z", "W"), ("W", "X")),
        has_graph=True,
        claims=(
            Claim("markov", (("property", GLOBAL),), True),
            Claim(
                "factorize", (), "no",
                witness=(("W", "0"), ("X", "0"), ("Y", "1"), ("Z", "0")),
            ),
        ),
    ),
)


def builtin_examples():
    """The embedded reference models, keyed by their number (1..5)."""
    return {m.number: m for m in _EXAMPLES}


def builtin_example(number):
    try:
        return builtin_examples()[int(number)]
    except (KeyError, ValueError):
        raise ModelFormatError(
            f"no built-in example {number!r}; valid ids are 1..5"
        ) from None


@dataclass(frozen=True, eq=False)
class ClaimOutcome:
    claim: Claim
    tnorm: TNorm
    verdict: object
    witness: Optional[dict]
    matches_expected: bool
    detail: str = ""


def evaluate_claim(model: ReferenceModel, claim: Claim, tn: TNorm,
                   eps=DEFAULT_EPSILON, exact=False) -> ClaimOutcome:
    """Run one claim of a reference model through the engine."""
    loaded = model.loaded(exact)
    table = loaded.table
    witness = None
    detail = ""
    if claim.kind == "independent":
        stmt = IndependenceStatement(
            claim.param("a"), claim.param("b"), claim.param("given", ())
        )
        res = independent(table, tn, stmt, eps)
        verdict = res.holds
        witness = res.witness
        detail = str(stmt)
    elif claim.kind == "axiom":
        report = check_axiom(table, tn, claim.param("axiom"), claim.param("groups"), eps)
        verdict = report.holds
        witness = report.witness
        detail = claim.param("axiom")
    elif claim.kind == "axiom_scan":
        reports = scan_axioms(table, tn, claim.param("axioms"), eps=eps)
        bad = violations(reports)
        verdict = "no_violations" if not bad else f"{len(bad)} violations"
        detail = ",".join(claim.param("axioms"))
    elif claim.kind == "markov":
        prop = claim.param("property")
        report = getattr(chain_report(table, loaded.graph, tn, eps), f"{prop}_report")
        verdict = report.holds
        if report.witness is not None:
            witness = report.witness[1]
            detail = f"{prop}: {report.witness[0]}"
        else:
            detail = prop
    elif claim.kind == "factorize":
        result = factorizes(table, loaded.graph, tn, eps)
        verdict = result.status
        witness = result.witness
        detail = result.reason
    else:
        raise ModelFormatError(f"unknown claim kind {claim.kind!r}")

    matches = verdict == claim.expected
    if matches and claim.witness is not None:
        matches = witness is not None and tuple(sorted(witness.items())) == claim.witness
    return ClaimOutcome(claim, tn, verdict, witness, matches, detail)
