"""Pairwise, local and global Markov properties of a distribution on a graph.

The global check enumerates separator candidates and bipartitions of the
resulting connectivity components; decomposition of group statements makes
those bipartitions cover every separated triple.  An exhaustive mode checks
all disjoint separated triples directly for cross-validation.  All three
properties read the graph's adjacency bitmasks (see ``graphs``): a
separator is a mask, its components come from one flood fill of the rest,
and a bipartition side is an OR of component masks, so no public graph
method runs per subset.

Each property hands its whole statement list to ``decide_many`` in one
call and gets one verdict per statement.  Every statement of the three
properties spans all variables, so all of them read the one full joint
(``decide_many`` says how it takes that joint's maxima).  A failing
property looks up one witness, through ``independent``
on its first failing statement.  Verdicts, witnesses and the ``checked``
order are those of deciding each statement alone.  The separator
enumeration builds its statements through
``IndependenceStatement._trusted``: their sides come from the graph's
masks, already sorted and disjoint.
"""

from dataclasses import dataclass
from itertools import combinations, product as iter_product
from typing import Optional

from .errors import InternalInconsistencyError
from .factorization import FactorizationResult, _validate_vertices, factorizes
from .graphs import UndirectedGraph
from .independence import IndependenceStatement, decide_many, independent
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
    statements = list(statements)
    checked = tuple(zip(statements, decide_many(table, tn, statements, eps)))
    failing = next((stmt for stmt, holds in checked if not holds), None)
    witness = None if failing is None else (failing, independent(table, tn, failing, eps).witness)
    return MarkovReport(property_name, failing is None, checked, witness, tuple(skipped), mode)


def pairwise_markov(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                    eps=DEFAULT_EPSILON) -> MarkovReport:
    """Check independence of every non-adjacent vertex pair given the rest."""
    _validate_vertices(table, graph)
    order = table.schema.variables
    statements = []
    for i, j in combinations(order, 2):
        if graph._neighborhood(graph._mask((i,))) & graph._mask((j,)):
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
        bd = graph._members(graph._neighborhood(graph._mask((i,))))
        rest = tuple(v for v in table.schema.variables if v != i and v not in bd)
        if not rest:
            skipped.append({"a": (i,), "b": (), "given": bd})
            continue
        statements.append(IndependenceStatement((i,), rest, bd))
    return _run_checks(table, tn, statements, eps, LOCAL, skipped)


def _component_statements(graph, order):
    """Separator candidates with bipartitions of their components.

    Separators come in ``combinations`` over schema order; each side of a
    bipartition is an OR of component masks, named once per mask.
    """
    names = {}

    def members(mask):
        found = names.get(mask)
        if found is None:
            found = names[mask] = graph._members(mask)
        return found

    bits = [graph._mask((v,)) for v in order]
    full = sum(bits)
    for size in range(len(bits) + 1):
        for s in combinations(bits, size):
            remaining = full & ~sum(s)
            comps = graph._component_masks(remaining)
            if len(comps) < 2:
                continue
            given = graph._members(full ^ remaining)
            sides = [0]
            for comp in comps[1:]:
                sides += [side | comp for side in sides]
            for side_b in sides[1:]:
                yield IndependenceStatement._trusted(members(remaining ^ side_b), members(side_b),
                                                     given)


def _exhaustive_statements(graph, order):
    """All disjoint triples (A, B, S) with S separating A from B; A, B nonempty.

    The components of V minus S are found once per separator mask; a role
    vector is separated iff no component meets both A and B.
    """
    bits = [graph._mask((v,)) for v in order]
    full = sum(bits)
    components = {}
    for roles in iter_product(range(4), repeat=len(order)):
        a = tuple(v for v, r in zip(order, roles) if r == 0)
        b = tuple(v for v, r in zip(order, roles) if r == 1)
        if not a or not b or b < a:
            continue
        masks = [0, 0, 0, 0]
        for bit, r in zip(bits, roles):
            masks[r] |= bit
        comps = components.get(masks[2])
        if comps is None:
            comps = components[masks[2]] = graph._component_masks(full & ~masks[2])
        if not any(c & masks[0] and c & masks[1] for c in comps):
            s = tuple(v for v, r in zip(order, roles) if r == 2)
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
    signals an engine bug and raises InternalInconsistencyError.  A "yes"
    is policed only if its factors, folded without ``combine``'s warning,
    recombine to the table within ``eps``: a regime may verify at 1e-7.
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
        and table.schema.first_mismatch(f_result.factorization.fold(table.schema),
                                        table.values, eps) is None
    ):
        raise InternalInconsistencyError(
            "verified factorization with an Archimedean t-norm but global fails"
        )
    return ChainReport(f_result, g, l, p)
