"""Verification and construction of t-norm factorizations over graph cliques.

A factorization assigns each maximal clique a factor table over that
clique's variables; combining all factors through the n-ary t-norm must
reproduce the distribution.  Verification is direct.  ``factorizes`` is the
one dispatch: it decides three regimes, each with a soundness argument,
and reports "unknown" outside them:

* Goedel: the clique marginals are a canonical candidate.  Idempotence of
  min makes this complete: any factor dominates the distribution on its
  cylinder, so each marginal is squeezed between the distribution and the
  factor, and the marginal candidate reproduces the distribution whenever
  any factorization does.
* crisp tables, any t-norm: factors are forced to 1 on projections of the
  1-set (because T(a, b) <= min(a, b) and the combination must reach 1),
  so a factorization exists iff the intersection of the projection
  cylinders adds no cell outside the 1-set.  The Goedel and crisp regimes
  share one path: verify the clique marginals (snapped to {0, 1} when
  crisp) as the candidate.
* strictly positive tables, Archimedean t-norms: rescaling by the
  automorphism that presents the t-norm as a transform of product (or of
  Lukasiewicz) turns the combination into a sum of clique-local terms.  The
  rescaled table f is such a sum exactly when it equals its least-squares
  projection P(f).  Each cell's residual is compared with the move of f
  that eps allows there, carried through the rescaling, plus the spread of
  those moves under P: a residual beyond that bound is a sure "no" with the
  worst cell as witness.  Otherwise the factors still have to lie in the
  unit interval: one linear program looks for box terms whose sum is P(f),
  and verifying their combination decides.  Its equations are only the
  anchored cells, which fix a sum of clique terms, so no row is built for
  any other cell.
"""

import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .errors import SchemaError
from .graphs import UndirectedGraph
from .numeric import DEFAULT_EPSILON, first_true, mismatch_mask
from .possibility import PossibilityTable, Schema
from .tnorm import GODEL, STRICT, TNorm


@dataclass(frozen=True, eq=False)
class Factorization:
    """Clique-indexed factor tables combined through one t-norm."""

    tnorm: TNorm
    factors: dict

    def cliques(self):
        return tuple(sorted(self.factors))

    def combine(self, schema: Schema, eps=DEFAULT_EPSILON) -> PossibilityTable:
        """Fold all factors into a table over ``schema``.

        Every schema variable must appear in some clique; non-normal results
        are legal for factors but draw a warning, since a distribution is
        expected to be normal.
        """
        covered = {v for clique in self.factors for v in clique}
        missing = set(schema.variables) - covered
        if missing:
            raise SchemaError(f"variables {sorted(missing)} appear in no clique")
        arrays = [
            np.broadcast_to(f.extend_values(schema), schema.shape)
            for _, f in sorted(self.factors.items())
        ]
        values = self.tnorm.fold_arrays(arrays, shape=schema.shape)
        table = PossibilityTable(schema, np.broadcast_to(values, schema.shape))
        if not table.is_normal(eps):
            warnings.warn("combined factorization is not normal", stacklevel=2)
        return table


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

    The factor cliques must be exactly the graph's maximal cliques.
    """
    expected = tuple(graph.cliques())
    got = factorization.cliques()
    if tuple(sorted(expected)) != got:
        raise SchemaError(
            f"factor cliques {got} do not match graph cliques {tuple(sorted(expected))}"
        )
    combined = factorization.combine(table.schema, eps)
    idx = first_true(mismatch_mask(combined.values, table.values, eps))
    if idx is None:
        return True, None
    return False, table.schema.assignment(idx)


def _marginal_candidate(table, graph, tn, snap_crisp=False):
    factors = {}
    for clique in graph.cliques():
        marginal = table.marginalize(clique)
        if snap_crisp:
            values = np.where(marginal.values > 0.5, 1, 0).astype(
                marginal.values.dtype if marginal.values.dtype == object else float
            )
            marginal = PossibilityTable(marginal.schema, values)
        factors[tuple(clique)] = marginal
    return Factorization(tn, factors)


def _validate_vertices(table, graph):
    if set(graph.vertices) != set(table.schema.variables):
        raise SchemaError("graph vertices and schema variables differ")


def _clique_sum_projection(f, schema, cliques):
    """Least-squares projection of f onto the sums of clique terms, and the
    spread sum |w_T|, which bounds the projection's infinity norm.

    Over uniformly weighted cells the ANOVA components of f on different
    axis sets are orthogonal, and the sums of clique terms are spanned by
    those on complete sets (subsets of a clique).  Summing those components
    gives, for each complete set T, the mean of f over the other axes times
    the signed count w_T of complete sets containing T (the w_T sum to 1,
    and each mean has infinity norm 1).  Centring f first keeps its constant
    part out of the signed sum.
    """
    complete = {s for clique in cliques for r in range(len(clique) + 1)
                for s in combinations(sorted(schema.axis(v) for v in clique), r)}
    weights = Counter()
    for s in complete:
        for r in range(len(s) + 1):
            for t in combinations(s, r):
                weights[t] += (-1) ** (len(s) - r)
    centred = f - f.mean()
    return f.mean() + sum(
        w * centred.mean(axis=tuple(a for a in range(f.ndim) if a not in t), keepdims=True)
        for t, w in weights.items() if w
    ), sum(abs(w) for w in weights.values())


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


def _rescaled_factorization(table, graph, tn, eps):
    """Decide a strictly positive table under an Archimedean t-norm.

    The unknowns are the clique terms of the rescaled table f: theta <= 0
    with f = log phi(pi) and factors phi_inverse(exp theta) (strict base), or
    rho in [0, 1] with f = phi(pi) + (cliques - 1) and factors
    phi_inverse(rho) (nilpotent base; strict positivity keeps the fold from
    truncating).  tau is the largest move of f when a cell moves by eps; if
    some sum of clique terms g lies within tau of f, the residual
    r = f - P(f) = (f - g) - P(f - g) stays within tau + spread * max(tau).
    """
    family = tn.classify()
    phi = tn.transform.apply if tn.transform is not None else (lambda x: x)
    phi_inv = tn.transform.inverse if tn.transform is not None else (lambda x: x)
    cliques = graph.cliques()

    def rescale(values):
        return np.log(phi(values)) if family == STRICT else phi(values) + (len(cliques) - 1)

    values = table.values.astype(float)
    f = rescale(values)
    projection, spread = _clique_sum_projection(f, table.schema, cliques)
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
        bounds=(None, 0) if family == STRICT else (0, 1), method="highs",
    )
    if not res.success:
        return FactorizationResult(
            "no", reason="the clique-local linear system for the rescaled table is "
                         "infeasible within the unit interval",
        )
    factor_values = phi_inv(np.exp(res.x) if family == STRICT else res.x)

    factors = {}
    for k, (clique, sub) in enumerate(zip(cliques, sub_schemas)):
        chunk = factor_values[offsets[k]:offsets[k + 1]]
        factors[tuple(clique)] = PossibilityTable(
            sub, np.clip(chunk, 0.0, 1.0).reshape(sub.shape)
        )
    candidate = Factorization(tn, factors)
    ok, witness = verify(table, graph, candidate, max(eps, 1e-7))
    if ok:
        return FactorizationResult("yes", candidate)
    return FactorizationResult(
        "no", witness=witness,
        reason="the factors fitted to the least-squares projection of the rescaled "
               "table miss the table beyond eps at the witness cell",
    )


def factorizes(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
               eps=DEFAULT_EPSILON) -> FactorizationResult:
    """Decide whether the table factorizes over the graph's cliques.

    Runs the decision procedure of the regime the table and t-norm fall in
    and returns yes (with the factorization), no (with a witness cell where
    the canonical candidate misses, when one exists), or unknown when no
    decision procedure applies.
    """
    _validate_vertices(table, graph)
    cliques = graph.cliques()
    if len(cliques) == 1:
        whole = table.marginalize(cliques[0])
        return FactorizationResult(
            "yes", Factorization(tn, {tuple(cliques[0]): whole})
        )
    if tn.base == GODEL or table.is_crisp(eps):
        candidate = _marginal_candidate(table, graph, tn, snap_crisp=tn.base != GODEL)
        ok, witness = verify(table, graph, candidate, eps)
        if ok:
            return FactorizationResult("yes", candidate)
        if tn.base == GODEL:
            reason = ("the clique-marginal candidate misses the table, and under min "
                      "it succeeds whenever any factorization exists")
        else:
            reason = "a cell outside the 1-set lies in every clique cylinder of the 1-set"
        return FactorizationResult("no", witness=witness, reason=reason)
    if table.is_strictly_positive():
        return _rescaled_factorization(table, graph, tn, eps)
    return FactorizationResult(
        "unknown",
        reason="no decision procedure applies: the table is neither crisp nor "
               "strictly positive and the t-norm is Archimedean",
    )
