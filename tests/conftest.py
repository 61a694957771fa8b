"""Shared fixtures and the loop-based reference oracle used for cross-checks.

The oracle implements the definitions directly with Python loops and dicts,
sharing no array code with the library, so agreement between the two is a
meaningful dual-route check.
"""

from itertools import product as iter_product

import numpy as np
import pytest
from hypothesis import settings

from posscheck import Factorization, PossibilityTable, Schema, TNorm

# No per-example deadline: the first example of a test can pay for numpy's
# one-time set-up, which on a loaded machine exceeds hypothesis' 200 ms default.
settings.register_profile("posscheck", deadline=None)
settings.load_profile("posscheck")

GRID_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
POSITIVE_GRID_VALUES = (0.25, 0.5, 0.75, 1.0)

BASE_TNORMS = (TNorm.godel(), TNorm.product(), TNorm.lukasiewicz())
TRANSFORMED_TNORMS = (TNorm.product(2.0), TNorm.lukasiewicz(2.0))
ALL_TNORMS = BASE_TNORMS + TRANSFORMED_TNORMS
ARCHIMEDEAN_TNORMS = tuple(t for t in ALL_TNORMS if t.is_archimedean)


# -- reference oracle --------------------------------------------------------------


def oracle_apply(tn, a, b):
    if tn.base == "godel":
        return min(a, b)
    p = tn.transform.p if tn.transform is not None else 1.0
    if tn.base == "product":
        return (a ** p * b ** p) ** (1.0 / p)
    inner = max(a ** p + b ** p - 1.0, 0.0)
    return inner ** (1.0 / p)


def oracle_residual(tn, y, x):
    p = tn.transform.p if tn.transform is not None else 1.0
    fy, fx = y ** p, x ** p
    if fx <= fy:
        return 1.0
    if tn.base == "godel":
        return y
    if tn.base == "product":
        return (fy / fx) ** (1.0 / p)
    return (fy - fx + 1.0) ** (1.0 / p)


def table_cells(table):
    """{multi-index: float} view of a table, loop-friendly."""
    return {
        idx: float(table.values[idx]) for idx in np.ndindex(table.values.shape)
    }


def oracle_marginal(cells, axes_keep):
    out = {}
    for idx, v in cells.items():
        key = tuple(idx[i] for i in axes_keep)
        out[key] = max(out.get(key, 0.0), v)
    return out


def oracle_independent(table, tn, a_vars, b_vars, s_vars, eps=1e-9):
    """Definition-level check: the conditional joint of (A,B) given S equals
    the t-norm combination of the conditional marginals, almost everywhere
    with respect to the conditioning marginal."""
    names = table.schema.variables
    ai = [names.index(v) for v in a_vars]
    bi = [names.index(v) for v in b_vars]
    si = [names.index(v) for v in s_vars]
    cells = table_cells(table)
    m_abs = oracle_marginal(cells, ai + bi + si)
    m_as = oracle_marginal(cells, ai + si)
    m_bs = oracle_marginal(cells, bi + si)
    m_s = oracle_marginal(cells, si)
    shape = table.values.shape
    ranges = [range(shape[i]) for i in ai + bi + si]
    for combo in iter_product(*ranges):
        a_idx = combo[: len(ai)]
        b_idx = combo[len(ai): len(ai) + len(bi)]
        s_idx = combo[len(ai) + len(bi):]
        pi_s = m_s[s_idx]
        cond_ab = oracle_residual(tn, m_abs[combo], pi_s)
        cond_a = oracle_residual(tn, m_as[a_idx + s_idx], pi_s)
        cond_b = oracle_residual(tn, m_bs[b_idx + s_idx], pi_s)
        lhs = oracle_apply(tn, cond_ab, pi_s)
        rhs = oracle_apply(tn, oracle_apply(tn, cond_a, cond_b), pi_s)
        if abs(lhs - rhs) > eps:
            return False
    return True


# -- random model generators --------------------------------------------------------


def random_table(rng, max_vars=4, max_domain=3, positive=False):
    n_vars = int(rng.integers(2, max_vars + 1))
    names = [f"V{i}" for i in range(n_vars)]
    sizes = [int(rng.integers(2, max_domain + 1)) for _ in names]
    schema = Schema([(n, [str(d) for d in range(k)]) for n, k in zip(names, sizes)])
    pool = POSITIVE_GRID_VALUES if positive else GRID_VALUES
    values = rng.choice(pool, size=schema.shape)
    anchor = tuple(int(rng.integers(0, k)) for k in schema.shape)
    values[anchor] = 1.0
    return PossibilityTable(schema, values)


def random_graph(rng, vertices):
    vertices = list(vertices)
    edges = []
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            if rng.random() < 0.5:
                edges.append((vertices[i], vertices[j]))
    from posscheck import UndirectedGraph

    return UndirectedGraph(vertices, edges)


def planted(schema, graph, tn, rng, low):
    """A table that factorizes by construction: every factor is drawn from
    [low, 1] and is 1 at a common random cell, so the fold is normal.
    Returns the table and that cell."""
    anchor = tuple(int(rng.integers(k)) for k in schema.shape)
    factors = {}
    for clique in graph.cliques():
        sub = schema.project(clique)
        values = rng.uniform(low, 1.0, sub.shape)
        values[tuple(anchor[schema.axis(v)] for v in sub.variables)] = 1.0
        factors[clique] = PossibilityTable(sub, values)
    return Factorization(tn, factors).combine(schema), anchor


def jittered(table, anchor, rng, size):
    """The table with every cell but ``anchor`` moved up or down by ``size``
    (clipped to [0, 1])."""
    values = np.clip(table.values + rng.choice([-size, size], table.schema.shape), 0.0, 1.0)
    values[anchor] = table.values[anchor]
    return PossibilityTable(table.schema, values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
