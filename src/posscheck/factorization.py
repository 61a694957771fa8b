"""Verification and construction of t-norm factorizations over graph cliques.

A factorization assigns each maximal clique a factor table over that
clique's variables; combining all factors through the n-ary t-norm must
reproduce the distribution.  ``factorizes`` is the one dispatch: it
enumerates the cliques once, builds the candidate of the regime the table
and t-norm fall in, each with a soundness argument, and one step verifies
every candidate, answering "yes" or "no" with the first cell where its fold
misses the table.  Outside the regimes it reports "unknown":

* one clique, or Goedel: the clique marginals.  One clique's marginal is
  the table.  Under min, idempotence makes the candidate complete: any
  factor dominates the distribution on its cylinder, so each marginal is
  squeezed between the distribution and the factor, and the marginal
  candidate reproduces the distribution whenever any factorization does.
* crisp tables, any t-norm: factors are forced to 1 on projections of the
  1-set (because T(a, b) <= min(a, b) and the combination must reach 1),
  so a factorization exists iff the intersection of the projection
  cylinders adds no cell outside the 1-set.  The candidate is the clique
  marginals of the table snapped to {0, 1}; snapping at 0.5 is monotone,
  so it commutes with max and is done once, on the table.
* strictly positive tables, Archimedean t-norms: rescaling by log (the
  product family; product^p is product) or by the automorphism that
  presents the t-norm as a transform of Lukasiewicz turns the combination
  into a sum of clique-local terms.  The
  rescaled table f is such a sum exactly when it equals its least-squares
  projection P(f), which ``_clique_sum_projection`` returns as one term per
  maximal clique, from one reduction of the table per clique and weights
  kept per graph (``UndirectedGraph._clique_sums``).  Each cell's residual
  is compared with the move of f that eps allows there, carried through
  the rescaling, plus the spread of those moves under P: a residual beyond
  that bound is a sure "no" with the worst cell as witness.  Otherwise the
  factors still have to lie in the unit interval: one linear program looks
  for box terms whose sum is P(f), and their combination is the candidate,
  verified at ``max(eps, 1e-7)``.
  Its equations are only the anchored cells, which fix a sum of clique
  terms, so no row is built for any other cell.  An exact table is
  verified at eps itself: it first tries the clique residuals along a
  maximum cardinality clique order (``UndirectedGraph._clique_order``),
  phi_j = R(pi(C_j), pi(S_j)) in its own arithmetic (on a chordal graph,
  the factorization whenever the table is global Markov), then the float
  factors; if neither verifies, the answer is "unknown", as float factors
  decide nothing at eps on exact cells.

The Markov certificate (see ``markov``) folds the clique factors built here
in the t-norm's own kernel (``_clique_fold``): the clique marginals under
Goedel, on any graph, and under product, product^p and Lukasiewicz the
clique residuals along a perfect clique order (``_junction_factors``, the
same residuals an exact table tries first) on a chordal graph, and on
another graph of at most ``_MAX_TERMS`` cliques the terms of the clique-sum
projection of log pi (a strictly positive table) or of pi (Lukasiewicz),
with psi = exp(sum theta_C) or max(0, sum theta_C).  The residuals handle
zero cells, which a log projection cannot.  It takes the factors as arrays
on the table's axes, with no factor tables and no ``verify`` step.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .errors import SchemaError
from .graphs import UndirectedGraph
from .independence import _require_closed
from .numeric import DEFAULT_EPSILON, first_true, require_eps
from .possibility import PossibilityTable, Schema
from .tnorm import GODEL, PRODUCT, STRICT, TNorm


@dataclass(frozen=True, eq=False)
class Factorization:
    """Clique-indexed factor tables combined through one t-norm."""

    tnorm: TNorm
    factors: dict

    def cliques(self):
        return tuple(sorted(self.factors))

    def combine(self, schema: Schema, eps=DEFAULT_EPSILON) -> PossibilityTable:
        """Fold all factors into a table over ``schema``; a non-normal result
        is legal for factors but draws a warning, as distributions are normal."""
        table = PossibilityTable(schema, self.fold(schema))
        if not table.is_normal(eps):
            warnings.warn("combined factorization is not normal", stacklevel=2)
        return table

    def fold(self, schema: Schema):
        """The factors folded over ``schema``, every variable of which must
        lie in some clique, as an array: ``combine`` without its warning."""
        covered = {v for clique in self.factors for v in clique}
        missing = set(schema.variables) - covered
        if missing:
            raise SchemaError(f"variables {sorted(missing)} appear in no clique")
        # every variable lies in some clique, so the fold of these views
        # (size-1 axes where a clique lacks a variable) spans the full shape
        views = [f.extend_values(schema) for _, f in sorted(self.factors.items())]
        return self.tnorm.fold_arrays(views)


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """Outcome of a factorization decision: yes, no, or unknown."""

    status: str
    factorization: Optional[Factorization] = None
    witness: Optional[dict] = None
    reason: str = ""

    @property
    def is_yes(self):
        return self.status == "yes"


def verify(table: PossibilityTable, graph: UndirectedGraph, factorization: Factorization,
           eps=DEFAULT_EPSILON):
    """(bool, witness): does the factorization recombine to the table?

    The factor cliques must be exactly the graph's maximal cliques.  The
    factors' ``fold`` is compared directly, so no table is built and a
    non-normal recombination draws no warning.
    """
    expected = tuple(graph.cliques())
    got = factorization.cliques()
    if expected != got:
        raise SchemaError(f"factor cliques {got} do not match graph cliques {expected}")
    result = _verified(table, factorization, eps, "")
    return result.is_yes, result.witness


def _verified(table, candidate, eps, reason):
    """"yes" with the candidate if its fold matches the table within eps,
    else "no" with the first cell where it misses and ``reason``."""
    witness = table.schema.first_mismatch(candidate.fold(table.schema), table.values, eps)
    if witness is None:
        return FactorizationResult("yes", candidate)
    return FactorizationResult("no", witness=witness, reason=reason)


def _marginal_candidate(table, cliques, tn):
    return Factorization(tn, {clique: table.marginalize(clique) for clique in cliques})


def _crisp_candidate(table, cliques, tn):
    snapped = np.where(table.values > 0.5, 1, 0).astype(table.values.dtype)
    return _marginal_candidate(PossibilityTable(table.schema, snapped), cliques, tn)


def _junction_factors(table, order, tn):
    """The clique residuals of the table along ``order``, pairs of a clique
    C_j and its separator S_j, the part of C_j in the earlier cliques (as
    ``UndirectedGraph._clique_order`` lists them), as arrays on the table's
    axes, size 1 on the axes a clique lacks: phi_j = pi(C_j) where S_j is
    empty and R(pi(C_j), pi(S_j)) otherwise, in ``tn``'s kernel.  Along a
    perfect order, S_j separates C_j minus S_j from the earlier cliques, so
    a global Markov table is the fold of these factors (for product,
    pi = prod pi(C_j) / pi(S_j)); along another order they are only a
    candidate.  Each marginal is read through ``table.marginalize``."""
    names, shape = table.schema.variables, table.values.shape
    factors = []
    for clique, separator in order:
        marginal = table.marginalize(clique).values.reshape(
            [k if v in clique else 1 for v, k in zip(names, shape)])
        if separator:
            dropped = tuple(i for i, v in enumerate(names) if v in clique and v not in separator)
            marginal = tn.residual_array(marginal, marginal.max(axis=dropped, keepdims=True))
        factors.append(marginal)
    return factors


def _residual_candidate(table, graph, tn):
    """The clique residuals of an exact table (``_junction_factors``) along
    the graph's clique order, in the table's own arithmetic, as a
    factorization verified like any other."""
    order, _ = graph._clique_order
    factors = {}
    for (clique, _), values in zip(order, _junction_factors(table, order, tn)):
        sub = table.schema.project(clique)
        # the residual's 1s are ints: every cell a Fraction, written as "p/q"
        factors[clique] = PossibilityTable(
            sub, np.vectorize(Fraction, otypes=[object])(values.reshape(sub.shape)))
    return Factorization(tn, factors)


# The most clique terms the sum candidate of the Markov certificate adds:
# its rounding allowance is derived for at most this many (see ``markov``).
_MAX_TERMS = 24


def _clique_fold(table, graph, tn):
    """(the fold psi, in ``tn``'s kernel, of the clique factors the Markov
    certificate tries; a bound on its rounding that the certificate's
    tolerance must give up), or None where there is no candidate.  ``tn``
    is not a transformed Lukasiewicz t-norm, whose recombination the
    certificate does not cover; product^p computes as product.

    Under Goedel the clique marginals, on any graph; under product and
    Lukasiewicz, on a graph whose clique order is perfect (a chordal one),
    the clique residuals along it (``_junction_factors``).  Their rounding
    is within the certificate's allowance rho, so the bound is 0.  On
    another graph of at most ``_MAX_TERMS`` maximal cliques, the clique-sum
    projection (``_clique_sum_projection``) of f = log pi, on a strictly
    positive table, or of f = pi (Lukasiewicz), with psi = exp(sum theta_C)
    or max(0, sum theta_C): one sum, whose rounding is at most
    gamma_(k-1) sum |theta_C| and is bounded from the terms as
    2^-50 (k sum max |theta_C| + 64).  None on more cliques, before any
    value is read, and under product on a table with a zero cell."""
    order, perfect = graph._clique_order
    if tn.base == GODEL:
        return tn.fold_arrays(_junction_factors(table, [(c, ()) for c, _ in order], tn)), 0.0
    if perfect:
        return tn.fold_arrays(_junction_factors(table, order, tn)), 0.0
    product = tn.base == PRODUCT
    if len(order) > _MAX_TERMS or (product and not table.values.min() > 0):
        return None
    terms = _clique_sum_projection(np.log(table.values) if product else table.values,
                                   table.schema, graph)
    total = sum(terms)
    with np.errstate(over="ignore"):
        fold = np.exp(total) if product else np.maximum(total, 0.0)
    bound = sum(float(np.abs(term).max()) for term in terms)
    return fold, 2.0 ** -50 * (len(terms) * bound + 64)


def _validate_vertices(table, graph):
    if set(graph.vertices) != set(table.schema.variables):
        raise SchemaError("graph vertices and schema variables differ")


def _clique_sum_projection(f, schema, graph):
    """The least-squares projection P(f) of f onto the sums of clique terms,
    as one term theta_C per maximal clique (in ``graph.cliques()`` order), on
    f's axes with size 1 on the axes C lacks, so that P(f) = sum theta_C.

    Over uniformly weighted cells the ANOVA components of f on different
    axis sets are orthogonal, and the sums of clique terms are spanned by
    those on complete sets (subsets of a clique).  Summing those components
    gives, for each complete set T, the mean M_T of f over the other axes
    times the signed count w_T of complete sets containing T (the w_T sum to
    1, each mean has infinity norm at most f's, and the spread sum |w_T|
    bounds P's norm; both are kept per graph,
    ``UndirectedGraph._clique_sums``).  Centring f by its mean m first keeps
    its constant part out of the signed sum.  theta_C sums w_T M_T(f - m)
    over the nonempty sets T assigned to C (the empty set's mean of f - m is
    0), each mean taken from C's own mean M_C(f) - m, so the table is
    reduced once per maximal clique; the first term carries m.
    """
    def mean(x, axes):
        # ``x.mean(axes, keepdims=True)``: the same sum and division, without
        # its Python wrapper, which costs as much as a small clique's mean
        return np.add.reduce(x, axis=axes, keepdims=True) / math.prod(x.shape[a] for a in axes)

    terms, m = [], None
    for clique, sets in graph._clique_sums[0]:
        axes = [schema.axis(v) for v in clique]
        own = mean(f, tuple(a for a in range(f.ndim) if a not in axes))
        if m is None:
            m = own.mean()
        own = own - m
        terms.append(sum(w * mean(own, tuple(schema.axis(v) for v in clique if v not in t))
                         for t, w in sets))
    terms[0] = terms[0] + m
    return terms


def _anchored_system(schema, cliques):
    """The linear system of clique terms, on the anchored cells alone.

    The anchored cells have every variable outside some clique at its first
    label.  A sum of clique terms is fixed by its values there: its anchored
    interaction terms on complete sets read only these cells, and those on
    other sets are zero.  Returns the cells (one index array per axis, in C
    order), the design-matrix rows at them (columns: clique-local cells),
    the clique sub-schemas and the column offsets.
    """
    mask = np.zeros(schema.shape, dtype=bool)
    for clique in cliques:
        mask[tuple(slice(None) if v in clique else 0 for v in schema.variables)] = True
    cells = np.nonzero(mask)
    sub_schemas = [schema.project(c) for c in cliques]
    offsets = np.cumsum([0] + [int(np.prod(s.shape)) for s in sub_schemas])
    rows = np.arange(len(cells[0]))
    matrix = np.zeros((len(rows), offsets[-1]))
    for offset, sub in zip(offsets, sub_schemas):
        local = tuple(cells[schema.axis(v)] for v in sub.variables)
        matrix[rows, offset + np.ravel_multi_index(local, sub.shape)] = 1.0
    return cells, matrix, sub_schemas, offsets


def _rescaled_candidate(table, graph, cliques, tn, eps):
    """The candidate of a strictly positive table under an Archimedean
    t-norm, or the "no" of the residual bound or of an infeasible LP.

    The unknowns are the clique terms of the rescaled table f: theta <= 0
    with f = log pi and factors exp theta (strict base, product^p included,
    as it is product: its powers would underflow on tiny cells), or rho in
    [0, 1] with f = phi(pi) + (cliques - 1) and factors phi_inverse(rho)
    (nilpotent base; strict positivity keeps the fold from truncating).
    tau is the largest move of f when a cell moves by eps; if some sum of
    clique terms g lies within tau of f, the residual r = f - P(f) =
    (f - g) - P(f - g) stays within tau + spread * max(tau).
    """
    strict = tn.classify() == STRICT
    phi = tn.transform.apply if tn.transform is not None else (lambda x: x)
    phi_inv = tn.transform.inverse if tn.transform is not None else (lambda x: x)

    def rescale(values):
        return np.log(values) if strict else phi(values) + (len(cliques) - 1)

    values = table.values.astype(float)
    f = rescale(values)
    projection = sum(_clique_sum_projection(f, table.schema, graph))
    spread = graph._clique_sums[1]
    step = max(eps, 1e-12)
    with np.errstate(divide="ignore"):
        tau = np.maximum(*(np.abs(rescale(np.clip(values + d, 0.0, 1.0)) - f)
                           for d in (step, -step)))
    ratio = np.abs(f - projection) / (tau + spread * tau.max())
    worst = ratio.max()
    if worst > 1:
        # the first cell of the largest ratio; equal exact ratios (common
        # under Lukasiewicz, where tau is constant) differ only by rounding
        return FactorizationResult(
            "no", witness=table.schema.assignment(first_true(ratio >= worst * (1 - 1e-9))),
            reason="the rescaled table is not a sum of clique terms within eps: its "
                   "residual from the least-squares projection is largest at the witness cell",
        )

    # as a sum of clique terms the projection is pinned by its anchored
    # cells, so only the box can make the system infeasible
    cells, matrix, sub_schemas, offsets = _anchored_system(table.schema, cliques)
    res = linprog(
        np.zeros(matrix.shape[1]), A_eq=matrix, b_eq=projection[cells],
        bounds=(None, 0) if strict else (0, 1), method="highs",
    )
    if not res.success:
        return FactorizationResult(
            "no", reason="the clique-local linear system for the rescaled table is "
                         "infeasible within the unit interval",
        )
    factor_values = np.exp(res.x) if strict else phi_inv(res.x)
    return Factorization(tn, {
        clique: PossibilityTable(sub, np.clip(factor_values[lo:hi], 0.0, 1.0).reshape(sub.shape))
        for clique, sub, lo, hi in zip(cliques, sub_schemas, offsets, offsets[1:])
    })


def factorizes(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
               eps=DEFAULT_EPSILON) -> FactorizationResult:
    """Decide whether the table factorizes over the graph's cliques.

    Builds the candidate of the regime the table and t-norm fall in and
    returns yes (with the factorization), no (with a witness cell where the
    candidate misses, when one exists), or unknown when no decision
    procedure applies.  Raises DomainError for a negative or NaN eps, and
    for an exact table with a transformed t-norm, as ``decide_many`` does.
    """
    _validate_vertices(table, graph)
    require_eps(eps)
    _require_closed(table, tn)
    cliques = graph.cliques()
    tol = eps
    if len(cliques) == 1 or tn.base == GODEL:
        candidate = _marginal_candidate(table, cliques, tn)
        reason = ("the clique-marginal candidate misses the table, and under min "
                  "it succeeds whenever any factorization exists")
    elif table.is_crisp(eps):
        candidate = _crisp_candidate(table, cliques, tn)
        reason = "a cell outside the 1-set lies in every clique cylinder of the 1-set"
    elif table.is_strictly_positive():
        exact = table.values.dtype == object
        if exact:
            found = _verified(table, _residual_candidate(table, graph, tn), eps, "")
            if found.is_yes:
                return found
        candidate = _rescaled_candidate(table, graph, cliques, tn, eps)
        if isinstance(candidate, FactorizationResult):
            return candidate
        if exact:
            found = _verified(table, candidate, eps, "")
            return found if found.is_yes else FactorizationResult(
                "unknown",
                reason="exact check: neither the clique residuals, in the table's own "
                       "arithmetic, nor the factors fitted to the rescaled table in floating "
                       "point recombine to the table within eps",
            )
        tol = max(eps, 1e-7)
        reason = ("the factors fitted to the least-squares projection of the rescaled "
                  "table miss the table beyond eps at the witness cell")
    else:
        return FactorizationResult(
            "unknown",
            reason="no decision procedure applies: the table is neither crisp nor "
                   "strictly positive and the t-norm is Archimedean",
        )
    return _verified(table, candidate, tol, reason)
