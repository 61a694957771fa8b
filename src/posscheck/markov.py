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
``chain_report`` shares one memo across its three property calls, kept
beside the decider's inputs (below), and drops it when they return or
raise: a pairwise statement I(i; j | V minus i, j)
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

Before deciding the triples it lacks, a call of the component mode tries a
certificate (``_certified``): a float table at an eps above rho = 2^-40
that lies within (eps - rho) / 4 of the fold psi of its clique factors
(``factorization._clique_fold``), less a bound on the fold's rounding that
depends on the table, makes every separated triple hold at eps, so each of
those triples gets True undecided.  The candidate is, under Goedel, the
clique marginals, on any graph.  Under product, product^p (for every p,
as its kernels are product's) and Lukasiewicz, it is, where the graph's
clique order is perfect (a chordal graph), the junction-tree residuals
phi_j = R(pi(C_j), pi(S_j)) along it, computed in the t-norm's kernel; on
another graph of at most 24 maximal cliques, the least-squares
clique terms theta_C of f = log pi on a strictly positive table (product)
or of f = pi (Lukasiewicz), with psi = exp(sum theta_C) or
max(0, sum theta_C).  Both are chosen before any marginal or cell is read.
Otherwise, and always for an exact table, an eps of rho or less,
``lukasiewicz^p`` and the exhaustive mode (the oracle), the call decides
its list.  ``checked``, ``skipped``, ``witness`` and ``mode`` are those of
deciding it.  In a chain, a call with triples left after a certified one
tries the certificate anew (the junction-tree residuals read the clique
marginals through ``table.marginalize``), but a refusal is kept beside the
verdict memo, and no later call of the chain folds again.

Why the certificate holds.  Write y = pi(A, S), x = pi(S), b = pi(B, S):
maxima put them in D = {0 <= y <= x, 0 <= b <= x}, where rec = T(R(y, x), b)
is

- min(y, b) for Goedel, as R(y, x) is y where x > y and 1 where x = y >= b;
- yb / x for product, and so for every product^p (x^p y^p to the power
  1/p is xy, and ``tnorm`` computes product^p as product), and 0 where
  x = 0 (then b = 0);
- max(0, y - x + b) for Lukasiewicz, as R(y, x) = y - x + 1 on D;
- phi^-1(max(0, phi(y) - phi(x) + phi(b))) for Lukasiewicz^p, with
  phi(v) = v^p, the Lukasiewicz line conjugated by phi, and the decider
  computes it in that form (``TNorm.recombine_array``); the certificate
  does not cover it, as near truncation it grows like a root of its
  arguments' errors, so step 2 below has no constant for it.

These formulas extend rec to all of D, values above 1 included.

1. Folds are reproduced exactly.  Let psi be a fold over the maximal
   cliques: the min of [0, 1] functions (Goedel), the product of
   nonnegative real functions (product), or max(0, sum h_C) of real h_C
   (Lukasiewicz; the Lukasiewicz fold of [0, 1] factors phi_C is this with
   h_C = phi_C - 1 but for one clique, whose h_C is phi_C).  None of them
   need lie in [0, 1].  Let (A, B | S) be a separated triple covering V.
   No clique meets both A and B, so psi = min(f, g), fg or max(0, f + g),
   with f the part of the cliques inside A u S and g that of the rest,
   inside B u S.  Maxima commute with min, with a nonnegative factor and
   with an added function, so with f_S = max_A f >= f and g_S = max_B g >=
   g, psi(AS), psi(S) and psi(BS) are the same combination of (f, g_S),
   (f_S, g_S) and (f_S, g).  Then rec gives psi(ABS): min(f, g_S, f_S, g)
   = min(f, g); f g_S f_S g / (f_S g_S) = fg, and fg = 0 where f_S g_S =
   0; for Lukasiewicz, where y and b are positive, so is x, and y - x + b
   = (f + g_S) - (f_S + g_S) + (f_S + g) = f + g, while where y = 0,
   f + g <= f + g_S <= 0 and rec = max(0, b - x) = 0 = psi(ABS), and where
   b = 0 likewise.  A separated triple that does not cover V extends to
   one that does: A' the vertices that S does not separate from A, and B'
   the rest.  Splitting psi over that cover, psi(ABS) is the maximum of
   psi over A' - A and B' - B, that is the same combination of f's maximum
   over A' - A, a function of (A, S), and g's over B' - B, a function of
   (B, S), and the same algebra applies (decomposition, with factor 1).
2. Errors grow at most fourfold.  On D, rec is 1-Lipschitz in each
   argument (the partial derivatives of yb / x are b / x, y / x and
   -yb / x^2, at most 1 in size on the convex D; min(y, b) and
   max(0, y - x + b) plainly are), and maxima are 1-Lipschitz in the sup
   norm.  So with delta = max |pi - psi| the error of every separated
   triple, max |rec(pi) - pi(ABS)|, is at most 3 delta + delta = 4 delta.
3. Rounding.  Let u = 2^-53 and eps <= 1 (above 1, every float
   recombination and cell lies in [0, 1], so every statement holds
   anyway).  psi is the exact fold of the factors as computed; its float
   value is what rounds.  The fold of k factors in the t-norm's kernel is
   off by at most (k - 1) u: min is exact, and each product or Lukasiewicz
   step rounds by at most u and is 1-Lipschitz in its arguments.  A
   junction fold has k <= 24, since a chordal graph has at most n maximal
   cliques and a schema of at most 2^24 cells at most 24 variables.  The
   test passes when fl(|pi - fold|) <= fl(fl(eps - rho) / 4), so
   4 delta <= eps - rho + eps u + 4 (1 + 23) u.  The clique-sum fold takes
   one sum of k <= 24 terms (more cliques are refused, as a non-chordal
   graph can have many), off by at most gamma_(k-1) sum |theta_C| <=
   k u M, with M the float sum of the terms' largest magnitudes; then
   max(0, .) is exact and numpy's exp adds a relative error of at most 64u
   (32 ulps), so where the test can pass (a float fold of at most 5/4) the
   float fold is within 4 k u M + 256u of psi.  That depends on the table,
   so the test's tolerance gives up r = 2^-50 (k M + 64), twice as much,
   which covers the rounding of r and of the subtraction too:
   fl(|pi - fold|) <= fl(fl(fl(eps - rho) / 4) - r) gives
   4 delta <= eps - rho + 4 eps u, within the bound above.  The decider's
   float rec is within 3u of rec for Goedel, product (product^p included)
   and Lukasiewicz (none, a division and a product, or three rounded
   additions), and its comparison rounds |rec - pi| by at most u.  The
   float error is thus at most eps - rho + eps u + 100u <= eps - rho +
   101u, and rho = 2^-40 = 8192u covers it with room to spare: the
   decider's test |rec - pi| > eps fails on every cell.

``chain_report`` polices a verified "yes" with an Archimedean t-norm
against global at the same tolerance (``_tolerance``): its factors must
fold, in the t-norm's kernel, within (eps - rho) / 4 of a float table, or
within eps / 4 of an exact one, whose factors fold as the rationals they
equal (rho is 0 in exact arithmetic).  A "yes" outside the certificate's
scope is not policed.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product as iter_product
from typing import Optional

import numpy as np

from .errors import InternalInconsistencyError
from .factorization import FactorizationResult, _clique_fold, _validate_vertices, factorizes
from .graphs import UndirectedGraph
from .independence import (IndependenceStatement, _decide_groups, _inputs_kept, _joint_groups,
                           _kept, independent)
from .numeric import DEFAULT_EPSILON, mismatch_mask
from .possibility import PossibilityTable
from .tnorm import LUKASIEWICZ, TNorm

PAIRWISE = "pairwise"
LOCAL = "local"
GLOBAL = "global"

# The rounding allowance rho of the certificate (see the module docstring).
_RHO = 2.0 ** -40

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


def _tolerance(table, tn, eps):
    """The certificate's tolerance on the distance of a clique-factor fold,
    in ``tn``'s kernel, from the table, before the fold's rounding: eps / 4
    on an exact table, whose factors fold as the rationals they equal, and
    (eps - rho) / 4 on a float table; None on a float table at an eps of
    rho or less, and under ``lukasiewicz^p``, whose recombination the bound
    does not cover (see the module docstring)."""
    if tn.base == LUKASIEWICZ and tn.transform is not None:
        return None
    if table.values.dtype == object:
        return eps / 4
    return (eps - _RHO) / 4 if eps > _RHO else None


def _certified(table, graph, tn, eps):
    """Whether the float table lies within the certificate's tolerance,
    less the candidate's rounding bound, of the fold of its clique factors
    (``factorization._clique_fold``), which makes every separated triple
    hold at eps (see the module docstring).  Never for an exact table, nor
    where ``_tolerance`` gives none, which is known before any marginal is
    read."""
    tol = None if table.values.dtype == object else _tolerance(table, tn, eps)
    candidate = None if tol is None else _clique_fold(table, graph, tn)
    if candidate is None:
        return False
    fold, rounding = candidate
    return tol > rounding and not mismatch_mask(table.values, fold, tol - rounding).any()


def _run_checks(table, graph, tn, triples, eps, property_name, mode="components"):
    triples = list(triples)
    statements, skipped = _named(graph, triples)
    # kept for a chain's three calls: the verdicts by graph-mask triple
    # (a, b, s), and a refused certificate, which a later call does not retry
    memo = _kept(("verdicts", id(table)), table, dict)
    refused = _kept(("refused", id(table)), table, list)
    decided = [t for t in triples if t[0] and t[1]]
    missing = [t for t in decided if t not in memo]  # each enumeration lists a triple once
    tried = missing and mode == "components" and not refused
    if tried and _certified(table, graph, tn, eps):
        memo.update(dict.fromkeys(missing, True))
    else:
        if tried:
            refused.append(True)
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

    Global holding where local fails, local holding where pairwise fails on
    an exact table at eps 0, or a verified factorization with an
    Archimedean t-norm that fails the global property signals an engine bug
    and raises InternalInconsistencyError.  Local => pairwise is policed
    only where weak union and decomposition are exact: at eps > 0 a local
    statement can hold within eps while a pairwise one it implies misses
    by a little more.  A "yes" is policed only where the certificate's bound
    makes global follow from it (``_implies_global``): a regime may verify
    at 1e-7, and a fold within eps alone does not make every statement hold
    at eps.
    """
    f_result = factorizes(table, graph, tn, eps) if include_factorization else None
    with _inputs_kept():
        g = global_markov(table, graph, tn, eps, exhaustive=exhaustive)
        l = local_markov(table, graph, tn, eps)
        p = pairwise_markov(table, graph, tn, eps)
    if g.holds and not l.holds:
        raise InternalInconsistencyError("global holds but local fails")
    if l.holds and not p.holds and table.values.dtype == object and eps == 0:
        raise InternalInconsistencyError("local holds but pairwise fails")
    if (
        f_result is not None
        and f_result.status == "yes"
        and tn.is_archimedean
        and not g.holds
        and _implies_global(table, tn, f_result.factorization, eps)
    ):
        raise InternalInconsistencyError(
            "verified factorization with an Archimedean t-norm but global fails"
        )
    return ChainReport(f_result, g, l, p)


def _implies_global(table, tn, factorization, eps):
    """Whether the factors fold, in ``tn``'s kernel, within the
    certificate's tolerance (``_tolerance``) of the table, so that global
    must hold."""
    tol = _tolerance(table, tn, eps)
    if tol is None:
        return False
    factors = (f.extend_values(table.schema) for f in factorization.factors.values())
    if table.values.dtype == object:
        factors = (np.vectorize(Fraction, otypes=[object])(f) for f in factors)
    return not mismatch_mask(table.values, tn.fold_arrays(factors), tol).any()
