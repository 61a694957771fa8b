"""Pairwise, local and global Markov properties of a distribution on a graph.

The global check enumerates separator candidates and bipartitions of the
resulting connectivity components; decomposition of group statements makes
those bipartitions cover every separated triple.  An exhaustive mode checks
all disjoint separated triples directly for cross-validation.

Each property hands its whole statement list to ``decide_many`` in one
call.  Every statement of the three properties spans all variables, so all
of them read the one full joint; the call keeps each keepdims maximum of it
that it takes, so statements dropping the same axes share it, and decides
the statements in stacked chunks.  Verdicts, witnesses and the ``checked``
order are those of deciding each statement alone.
"""

from dataclasses import dataclass
from itertools import combinations, product as iter_product
from typing import Optional

from .errors import InternalInconsistencyError
from .factorization import FactorizationResult, _validate_vertices, factorizes
from .graphs import UndirectedGraph
from .independence import IndependenceStatement, decide_many
from .numeric import DEFAULT_EPSILON
from .possibility import PossibilityTable
from .tnorm import TNorm

PAIRWISE = "pairwise"
LOCAL = "local"
GLOBAL = "global"


@dataclass(frozen=True, eq=False)
class MarkovReport:
    """Outcome of one Markov-property check.

    ``checked`` lists every tested statement with its verdict in enumeration
    order; ``skipped`` records vacuous statements (an empty side), which are
    reported rather than silently passed.
    """

    property_name: str
    holds: bool
    checked: tuple
    witness: Optional[tuple] = None
    skipped: tuple = ()
    mode: str = "components"


def _run_checks(table, tn, statements, eps, property_name, skipped=(), mode="components"):
    results = decide_many(table, tn, statements, eps)
    witness = next(((r.statement, r.witness) for r in results if not r.holds), None)
    checked = tuple((r.statement, r.holds) for r in results)
    return MarkovReport(property_name, witness is None, checked, witness, tuple(skipped), mode)


def pairwise_markov(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                    eps=DEFAULT_EPSILON) -> MarkovReport:
    """Check independence of every non-adjacent vertex pair given the rest."""
    _validate_vertices(table, graph)
    order = table.schema.variables
    statements = []
    for i, j in combinations(order, 2):
        if j in graph.neighbors(i):
            continue
        rest = tuple(v for v in order if v not in (i, j))
        statements.append(IndependenceStatement((i,), (j,), rest))
    return _run_checks(table, tn, statements, eps, PAIRWISE)


def local_markov(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                 eps=DEFAULT_EPSILON) -> MarkovReport:
    """Check independence of each vertex from its non-closure given its boundary."""
    _validate_vertices(table, graph)
    statements = []
    skipped = []
    for i in table.schema.variables:
        bd = tuple(sorted(graph.boundary({i})))
        rest = tuple(v for v in table.schema.variables if v != i and v not in bd)
        if not rest:
            skipped.append({"a": (i,), "b": (), "given": bd})
            continue
        statements.append(IndependenceStatement((i,), rest, bd))
    return _run_checks(table, tn, statements, eps, LOCAL, skipped)


def _component_statements(graph, order):
    """Separator candidates with bipartitions of their components."""
    n = len(order)
    for size in range(n + 1):
        for s in combinations(order, size):
            comps = graph.components(s)
            if len(comps) < 2:
                continue
            rest = comps[1:]
            for mask in range(1 << len(rest)):
                side_b = [c for k, c in enumerate(rest) if mask >> k & 1]
                if not side_b:
                    continue
                side_a = [comps[0]] + [c for k, c in enumerate(rest) if not mask >> k & 1]
                a = tuple(sorted(v for c in side_a for v in c))
                b = tuple(sorted(v for c in side_b for v in c))
                yield IndependenceStatement(a, b, s)


def _exhaustive_statements(graph, order):
    """All disjoint triples (A, B, S) with S separating A from B; A, B nonempty."""
    n = len(order)
    for roles in iter_product(range(4), repeat=n):
        a = tuple(v for v, r in zip(order, roles) if r == 0)
        b = tuple(v for v, r in zip(order, roles) if r == 1)
        s = tuple(v for v, r in zip(order, roles) if r == 2)
        if not a or not b or b < a:
            continue
        if graph.separates(s, a, b):
            yield IndependenceStatement(a, b, s)


def global_markov(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                  eps=DEFAULT_EPSILON, exhaustive=False) -> MarkovReport:
    """Check independence across every separating triple of the graph.

    The default mode enumerates, per separator candidate, bipartitions of
    the remaining connectivity components (sound and complete for continuous
    t-norms via decomposition of group statements); ``exhaustive=True``
    instead tests every disjoint separated triple directly.
    """
    _validate_vertices(table, graph)
    order = table.schema.variables
    gen = _exhaustive_statements if exhaustive else _component_statements
    return _run_checks(
        table, tn, gen(graph, order), eps, GLOBAL,
        mode="exhaustive" if exhaustive else "components",
    )


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Results of the property chain, strongest first."""

    factorization: Optional[FactorizationResult]
    global_report: MarkovReport
    local_report: MarkovReport
    pairwise_report: MarkovReport

    def summary(self):
        items = []
        if self.factorization is not None:
            items.append(("factorization", self.factorization.status))
        items.append((GLOBAL, self.global_report.holds))
        items.append((LOCAL, self.local_report.holds))
        items.append((PAIRWISE, self.pairwise_report.holds))
        return items


def chain_report(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                 eps=DEFAULT_EPSILON, include_factorization=False,
                 exhaustive=False) -> ChainReport:
    """Run the Markov checks (optionally factorization) and police implications.

    Any result pattern violating global => local => pairwise, or a verified
    factorization with an Archimedean t-norm that fails the global property,
    signals an engine bug and raises InternalInconsistencyError.
    """
    f_result = factorizes(table, graph, tn, eps) if include_factorization else None
    g = global_markov(table, graph, tn, eps, exhaustive=exhaustive)
    l = local_markov(table, graph, tn, eps)
    p = pairwise_markov(table, graph, tn, eps)
    if g.holds and not l.holds:
        raise InternalInconsistencyError("global holds but local fails")
    if l.holds and not p.holds:
        raise InternalInconsistencyError("local holds but pairwise fails")
    if (
        f_result is not None
        and f_result.status == "yes"
        and tn.is_archimedean
        and not g.holds
    ):
        raise InternalInconsistencyError(
            "verified factorization with an Archimedean t-norm but global fails"
        )
    return ChainReport(f_result, g, l, p)
