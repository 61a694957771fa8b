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
  Lukasiewicz) turns the combination into a sum of clique-local unknowns,
  which is a linear system.  Least squares decides consistency; a gauge
  shift (or, failing that, a feasibility search over the kernel) brings
  the factors back into the unit interval.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .errors import PositivityError, SchemaError, UnsupportedTNormError
from .graphs import UndirectedGraph
from .numeric import DEFAULT_EPSILON, first_true, mismatch_mask
from .possibility import PossibilityTable, Schema
from .tnorm import GODEL, NILPOTENT, STRICT, TNorm


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


def _design_matrix(schema, cliques):
    """Rows: table cells in flat C-order; columns: clique-local cells."""
    sub_schemas = [schema.project(c) for c in cliques]
    offsets = np.cumsum([0] + [int(np.prod(s.shape)) for s in sub_schemas])
    cells = np.indices(schema.shape).reshape(len(schema), -1)
    rows = np.arange(cells.shape[1])
    matrix = np.zeros((cells.shape[1], offsets[-1]))
    for offset, sub in zip(offsets, sub_schemas):
        local = tuple(cells[schema.axis(v)] for v in sub.variables)
        matrix[rows, offset + np.ravel_multi_index(local, sub.shape)] = 1.0
    return matrix, sub_schemas, offsets


def _kernel_feasible(matrix, target, base, lower, upper):
    """Solution of the consistent system shifted into [lower, upper], or None.

    A linear program over the kernel decides feasibility; the returned point
    is then polished by alternating projections between the exact-solution
    affine set and the box, so that box violations shrink to round-off and
    clipping does not disturb the recombination.
    """
    kernel = null_space(matrix)
    if kernel.shape[1] == 0:
        sol = base
    else:
        blocks = []
        bounds = []
        if upper is not None:
            blocks.append(kernel)
            bounds.append(upper - base)
        if lower is not None:
            blocks.append(-kernel)
            bounds.append(base - lower)
        res = linprog(
            np.zeros(kernel.shape[1]),
            A_ub=np.vstack(blocks),
            b_ub=np.concatenate(bounds),
            bounds=[(None, None)] * kernel.shape[1],
            method="highs",
        )
        if not res.success:
            return None
        sol = base + kernel @ res.x
    lo = lower if lower is not None else -np.inf
    hi = upper if upper is not None else np.inf
    for _ in range(60):
        clipped = np.clip(sol, lo, hi)
        if np.abs(clipped - sol).max() <= 1e-12:
            sol = clipped
            break
        back, _, _, _ = np.linalg.lstsq(matrix, matrix @ clipped - target, rcond=None)
        sol = clipped - back
    if np.abs(np.clip(sol, lo, hi) - sol).max() > 1e-9:
        return None
    return np.clip(sol, lo, hi)


def construct_strict_positive(table: PossibilityTable, graph: UndirectedGraph,
                              tn: TNorm, eps=DEFAULT_EPSILON) -> Optional[Factorization]:
    """Factorize a strictly positive table under an Archimedean t-norm.

    Strict base: solve  sum_C theta_C(x_C) = log phi(pi(x))  by least
    squares; infeasible when the residual exceeds eps * sqrt(cells).
    Factors are phi_inverse(exp theta) after shifting each clique's maximum
    to zero and absorbing the total shift into the first clique; when that
    designated clique would exceed 1, a feasibility search over the
    kernel finds a nonpositive gauge instead.

    Nilpotent base: solve  sum_C rho_C(x_C) = psi(pi(x)) + (cliques - 1)
    subject to rho in [0, 1] (kernel feasibility search); strict positivity
    guarantees the fold never truncates.  Factors are psi_inverse(rho).
    """
    _validate_vertices(table, graph)
    if not table.is_strictly_positive():
        raise PositivityError("table must be strictly positive")
    family = tn.classify()
    if family not in (STRICT, NILPOTENT):
        raise UnsupportedTNormError(
            "only strict or nilpotent t-norms are supported here; "
            "use factorizes for the Goedel t-norm"
        )
    values = table.values.astype(float).ravel()
    phi = tn.transform.apply if tn.transform is not None else (lambda x: x)
    phi_inv = tn.transform.inverse if tn.transform is not None else (lambda x: x)
    cliques = graph.cliques()
    matrix, sub_schemas, offsets = _design_matrix(table.schema, cliques)
    n_cells = len(values)

    if family == STRICT:
        target = np.log(phi(values))
    else:
        target = phi(values) + (len(sub_schemas) - 1)

    solution, _, _, _ = np.linalg.lstsq(matrix, target, rcond=None)
    residual = np.linalg.norm(matrix @ solution - target)
    if residual > max(eps, 1e-12) * np.sqrt(n_cells):
        return None

    if family == STRICT:
        theta = _shift_nonpositive(solution, offsets)
        if theta is None:
            theta = _kernel_feasible(
                matrix, target, solution, None, np.zeros_like(solution)
            )
        if theta is None:
            return None
        factor_values = phi_inv(np.exp(theta))
    else:
        rho = solution
        if (rho < -1e-12).any() or (rho > 1 + 1e-12).any():
            rho = _kernel_feasible(
                matrix, target, solution, np.zeros_like(solution), np.ones_like(solution)
            )
            if rho is None:
                return None
        else:
            rho = np.clip(rho, 0.0, 1.0)
        factor_values = phi_inv(rho)

    factors = {}
    for k, (clique, sub) in enumerate(zip(cliques, sub_schemas)):
        chunk = factor_values[offsets[k]:offsets[k + 1]]
        factors[tuple(clique)] = PossibilityTable(
            sub, np.clip(chunk, 0.0, 1.0).reshape(sub.shape)
        )
    candidate = Factorization(tn, factors)
    ok, _ = verify(table, graph, candidate, max(eps, 1e-7))
    return candidate if ok else None


def _shift_nonpositive(solution, offsets):
    """Per-clique max shifts with the surplus absorbed by the first clique."""
    theta = solution.copy()
    shift_total = 0.0
    for k in range(1, len(offsets) - 1):
        chunk = theta[offsets[k]:offsets[k + 1]]
        m = chunk.max()
        chunk -= m
        shift_total += m
    first = theta[offsets[0]:offsets[1]]
    first += shift_total
    if first.max() > 1e-9:
        return None
    np.minimum(theta, 0.0, out=theta)
    return theta


def factorizes(table: PossibilityTable, graph: UndirectedGraph, tn: TNorm,
               eps=DEFAULT_EPSILON) -> FactorizationResult:
    """Decide whether the table factorizes over the graph's cliques.

    Dispatches to the decidable constructor for the situation at hand and
    returns yes (with the factorization), no (with a witness cell where the
    canonical candidate misses, when one exists), or unknown when no
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
        candidate = construct_strict_positive(table, graph, tn, eps)
        if candidate is not None:
            return FactorizationResult("yes", candidate)
        return FactorizationResult(
            "no",
            reason="the clique-local linear system for the rescaled table is "
                   "infeasible within the unit interval",
        )
    return FactorizationResult(
        "unknown",
        reason="no decision procedure applies: the table is neither crisp nor "
               "strictly positive and the t-norm is Archimedean",
    )
