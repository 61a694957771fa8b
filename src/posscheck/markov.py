"""Pairwise, local and global Markov properties of a distribution on a graph.

Every property enumerates (A, B, S) triples of the graph's bitmasks (see
``graphs``), and one runner, ``_run_checks``, names and decides them.  The
global check lists, per separator mask, the bipartitions of the components
of the rest (one flood fill per separator, each side an OR of component
masks); decomposition of group statements makes them cover every separated
triple, and an exhaustive mode lists every one for cross-validation.

The runner names each mask once per call and builds every statement through
``IndependenceStatement._trusted``, since a mask's members read out sorted;
a triple with an empty side goes to ``skipped``.  It decides the whole list
on the masks themselves: the graph bits (name-sorted) are moved to schema
axes once per call, as arrays, and the statements go to the decider grouped
by joint (the component, local and pairwise statements span every variable,
so they form one group on the table itself).  It looks up one witness,
through ``independent``, on the first failing statement.  Verdicts,
witnesses and the ``checked`` order are those of deciding each statement
alone.

The runner keeps its verdicts by mask triple, and hands the decider only
the distinct triples it lacks.  Outside a chain that memo lasts one call.
``chain_report`` shares one memo across its three property calls and drops
it when they return or raise: a pairwise statement I(i; j | V minus i, j)
is a separated triple, as is a local one whose sides are both nonempty, so
global's component enumeration has already decided nearly every pairwise
statement and some local ones (others appear with A and B swapped, which at
eps is another test, decided anew).  A triple names one statement on the
same table, t-norm and eps, and a statement's verdict does not depend on
the batch it is decided in, so the reports are those of the standalone
calls.  For the same span the decider keeps its inputs
(``independence._inputs_kept``): an exact table's integer numerators,
built once for the decisions and the witness lookups alike, and the
table's max-marginal lattice, which global fills and local and pairwise
read their leftover statements from, though alone they would not fill it.

The component and exhaustive enumerations flood each separator's rest
through the graph's neighbourhood table (``UndirectedGraph._neighborhoods``),
built once per call: one list lookup per flood step.
"""

from contextvars import ContextVar
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product as iter_product
from typing import Optional

import numpy as np

from .errors import InternalInconsistencyError
from .factorization import FactorizationResult, _validate_vertices, factorizes, verify
from .graphs import UndirectedGraph
from .independence import (IndependenceStatement, _decide_groups, _inputs_kept, _joint_groups,
                           independent)
from .numeric import DEFAULT_EPSILON
from .possibility import PossibilityTable
from .tnorm import TNorm

PAIRWISE = "pairwise"
LOCAL = "local"
GLOBAL = "global"

# The verdicts of one ``chain_report`` call, by graph-mask triple (a, b, s):
# its three properties decide each distinct statement once.  None outside
# a chain, where each call decides its own list.
_VERDICTS = ContextVar("_VERDICTS", default=None)


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


def _named(graph, triples):
    """(statements, skipped) of the mask ``triples``: each mask named once,
    a triple with an empty side recorded as skipped."""
    members = cache(graph._members)
    statements, skipped = [], []
    for a, b, s in triples:
        if a and b:
            statements.append(IndependenceStatement._trusted(members(a), members(b), members(s)))
        else:
            skipped.append({"a": members(a), "b": members(b), "given": members(s)})
    return statements, tuple(skipped)


def _axis_masks(table, graph, triples):
    """The schema-axis bitmasks (a, b, given), as int64 arrays, of the mask
    ``triples``: graph bits are numbered in name-sorted order, axes in
    schema order."""
    masks = np.array(triples, np.int64).reshape(-1, 3)
    bits = _bits(table, graph)
    if bits != [1 << i for i in range(len(bits))]:  # names that do not sort in schema order
        axes = np.zeros_like(masks)
        for i, bit in enumerate(bits):
            axes |= (masks >> (bit.bit_length() - 1) & 1) << i
        masks = axes
    return masks.T


def _run_checks(table, graph, tn, triples, eps, property_name, mode="components"):
    triples = list(triples)
    statements, skipped = _named(graph, triples)
    memo = _VERDICTS.get()
    if memo is None:
        memo = {}
    decided = [t for t in triples if t[0] and t[1]]
    missing = [t for t in decided if t not in memo]  # each enumeration lists a triple once
    masks = _axis_masks(table, graph, missing)
    groups = _joint_groups(*masks, table.schema.variables)
    memo.update(zip(missing, _decide_groups(table, tn, masks, groups, eps).tolist()))
    checked = tuple(zip(statements, map(memo.__getitem__, decided)))
    failing = next((stmt for stmt, holds in checked if not holds), None)
    witness = None if failing is None else (failing, independent(table, tn, failing, eps).witness)
    return MarkovReport(property_name, failing is None, checked, witness, skipped, mode)


def _bits(table, graph):
    """The graph bit of each schema variable, in schema order."""
    _validate_vertices(table, graph)
    return [graph._mask((v,)) for v in table.schema.variables]


def _pairwise_statements(graph, bits):
    """I(i; j | V minus i, j) for each non-adjacent pair, i before j in schema order."""
    full = sum(bits)
    for i, j in combinations(bits, 2):
        if not graph._neighborhood(i) & j:
            yield i, j, full ^ i ^ j


def _local_statements(graph, bits):
    """I(i; V minus cl(i) | bd(i)) for each vertex i, B empty where cl(i) is V."""
    full = sum(bits)
    for i in bits:
        bd = graph._neighborhood(i)
        yield i, full & ~(i | bd), bd


def pairwise_markov(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                    eps=DEFAULT_EPSILON) -> MarkovReport:
    """Check independence of every non-adjacent vertex pair given the rest."""
    triples = _pairwise_statements(graph, _bits(table, graph))
    return _run_checks(table, graph, tn, triples, eps, PAIRWISE)


def local_markov(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                 eps=DEFAULT_EPSILON) -> MarkovReport:
    """Check independence of each vertex from its non-closure given its boundary."""
    triples = _local_statements(graph, _bits(table, graph))
    return _run_checks(table, graph, tn, triples, eps, LOCAL)


def _component_statements(graph, bits):
    """Per separator, in ``combinations`` over the schema-order ``bits``,
    every bipartition of its components, each side an OR of their masks.
    The floods read the graph's neighbourhood table, built once per call."""
    full = sum(bits)
    neighborhoods = graph._neighborhoods()
    for size in range(len(bits) + 1):
        for s in combinations(bits, size):
            remaining = full & ~sum(s)
            comps = graph._component_masks(remaining, neighborhoods)
            if len(comps) < 2:
                continue
            sides = [0]
            for comp in comps[1:]:
                sides += [side | comp for side in sides]
            for side_b in sides[1:]:
                yield remaining ^ side_b, side_b, full ^ remaining


def _exhaustive_statements(graph, bits, order):
    """Every disjoint (A, B, S), A and B nonempty, with S separating them.

    Role vectors (A, B, S, unused) run over the schema-order ``bits``.  Each
    pair of sides is listed once, dropping a vector whose B has a first
    variable in schema ``order`` with a name that sorts before A's: A and B
    are disjoint and nonempty, so their name tuples in schema order differ at
    their first element.  This test comes before any mask is built; the
    components of V minus S are found once per separator mask, through the
    graph's neighbourhood table.
    """
    full = sum(bits)
    neighborhoods = graph._neighborhoods()
    components = {}
    for roles in iter_product(range(4), repeat=len(bits)):
        if 0 not in roles or 1 not in roles or order[roles.index(1)] < order[roles.index(0)]:
            continue
        masks = [0, 0, 0, 0]
        for bit, r in zip(bits, roles):
            masks[r] |= bit
        comps = components.get(masks[2])
        if comps is None:
            comps = graph._component_masks(full & ~masks[2], neighborhoods)
            components[masks[2]] = comps
        if not any(c & masks[0] and c & masks[1] for c in comps):
            yield masks[0], masks[1], masks[2]


def global_markov(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
                  eps=DEFAULT_EPSILON, exhaustive=False) -> MarkovReport:
    """Check independence across every separating triple of the graph:
    per separator, the bipartitions of its components (sound and complete
    for continuous t-norms by decomposition), or with ``exhaustive=True``
    every disjoint separated triple."""
    bits = _bits(table, graph)
    triples = (_exhaustive_statements(graph, bits, table.schema.variables) if exhaustive
               else _component_statements(graph, bits))
    return _run_checks(table, graph, tn, triples, eps, GLOBAL,
                       "exhaustive" if exhaustive else "components")


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

    The three properties share one verdict memo for the call, so each
    distinct statement is decided once, and one set of decision inputs:
    an exact table's numerators, built once, witness lookups included, and
    the table's lattice, filled once; the reports are those of the
    standalone calls.

    Any result pattern violating global => local => pairwise, or a verified
    factorization with an Archimedean t-norm that fails the global property,
    signals an engine bug and raises InternalInconsistencyError.  A "yes" is
    policed only if ``verify`` accepts it at ``eps`` itself: a regime may
    verify at 1e-7.
    """
    f_result = factorizes(table, graph, tn, eps) if include_factorization else None
    token = _VERDICTS.set({})
    try:
        with _inputs_kept():
            g = global_markov(table, graph, tn, eps, exhaustive=exhaustive)
            l = local_markov(table, graph, tn, eps)
            p = pairwise_markov(table, graph, tn, eps)
    finally:
        _VERDICTS.reset(token)
    if g.holds and not l.holds:
        raise InternalInconsistencyError("global holds but local fails")
    if l.holds and not p.holds:
        raise InternalInconsistencyError("local holds but pairwise fails")
    if (
        f_result is not None
        and f_result.status == "yes"
        and tn.is_archimedean
        and not g.holds
        and verify(table, graph, f_result.factorization, eps)[0]
    ):
        raise InternalInconsistencyError(
            "verified factorization with an Archimedean t-norm but global fails"
        )
    return ChainReport(f_result, g, l, p)
