"""Shared fixtures and the reference oracles used for cross-checks.

The loop oracle implements the definitions directly with Python loops and
dicts, sharing no array code with the library, so agreement between the two
is a meaningful dual-route check.  ``independent_via_ae_equality`` is the
almost-everywhere form of independence on the library's conditionals: a
second route to every verdict that ``independent`` decides.
``fraction_independent`` decides an exact table by the Fraction route that
the engine's integer numerators replaced.  The four statement oracles are
the Markov enumerations written on names, through the public graph methods
and the validating ``IndependenceStatement``: the mask enumerations in
``markov``, named by its runner, must list the same statements in order.
The scan-plan oracle is the axiom-scan enumeration as a loop over role
vectors.  The crisp-candidate oracle snaps each clique marginal to {0, 1}
on its own, where ``factorizes`` snaps the table once.
"""

from fractions import Fraction
from itertools import combinations, product as iter_product

import numpy as np
import pytest
from hypothesis import settings

import posscheck.independence
import posscheck.markov
from posscheck import (
    DEFAULT_EPSILON,
    Factorization,
    IndependenceResult,
    IndependenceStatement,
    PossibilityTable,
    Schema,
    TNorm,
)

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
    # product^p is product: (a^p b^p)^(1/p) = ab, with no powers to underflow
    if tn.base == "godel":
        return min(a, b)
    if tn.base == "product":
        return a * b
    p = tn.transform.p if tn.transform is not None else 1.0
    inner = max(a ** p + b ** p - 1.0, 0.0)
    return inner ** (1.0 / p)


def oracle_residual(tn, y, x):
    if tn.base == "product":  # y is compared with x before any transform
        return y / x if x > y else 1.0
    p = tn.transform.p if tn.transform is not None else 1.0
    fy, fx = y ** p, x ** p
    if fx <= fy:
        return 1.0
    if tn.base == "godel":
        return y
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


def independent_via_ae_equality(table, tn, statement, eps=DEFAULT_EPSILON):
    """Direct almost-everywhere form of the independence test.

    Compares the residual conditional of (A,B) given S against the t-norm
    combination of the residual conditionals of A and B given S, where both
    sides count as equal when they agree after combination with the
    conditioning marginal.  Slower than ``independent`` but a useful oracle.
    """
    schema = table.schema
    a = schema.in_order(statement.a)
    b = schema.in_order(statement.b)
    s = schema.in_order(statement.given)
    cond_ab = table.condition(tn, tuple(a) + tuple(b), s)
    union_schema = cond_ab.schema

    def on_union(cond):
        return PossibilityTable(cond.schema, cond.values).extend_values(union_schema)

    pi_s = np.broadcast_to(
        table.marginalize(s).extend_values(union_schema), union_schema.shape
    )
    lhs = tn.apply_array(cond_ab.values, pi_s)
    rhs = tn.apply_array(
        tn.apply_array(
            on_union(table.condition(tn, a, s)), on_union(table.condition(tn, b, s))
        ),
        pi_s,
    )
    witness = union_schema.first_mismatch(lhs, rhs, eps)
    return IndependenceResult(statement, witness is None, witness)


def fraction_independent(table, tn, statement, eps=0):
    """``independent`` by the Fraction route the engine took for exact
    tables before it decided them on integer numerators: every cell taken as
    the ``Fraction`` it equals, the joint and its keepdims maxima pi(A, S),
    pi(S) and pi(B, S) as Fraction arrays, recombined through the t-norm's
    array kernels and compared cell by cell within ``eps``."""
    cells = [Fraction(v) for v in table.values.flat]
    exact = PossibilityTable(table.schema, np.array(cells, dtype=object).reshape(table.values.shape))
    joint = exact.marginalize(statement.a + statement.b + statement.given)
    pi = joint.values

    def maximum(dropped):
        axes = tuple(i for i, name in enumerate(joint.schema.variables) if name in dropped)
        return pi.max(axis=axes, keepdims=True)

    m_as, m_s, m_bs = maximum(statement.b), maximum(statement.a + statement.b), maximum(statement.a)
    lhs = tn.apply_array(tn.residual_array(m_as, m_s), m_bs)
    witness = joint.schema.first_mismatch(lhs, pi, eps)
    return IndependenceResult(statement, witness is None, witness)


def oracle_pairwise_statements(graph, order):
    """I(i; j | rest) for every non-adjacent pair, i before j in ``order``,
    through the public ``neighbors``."""
    for i, j in combinations(order, 2):
        if j not in graph.neighbors(i):
            yield IndependenceStatement((i,), (j,), [v for v in order if v not in (i, j)])


def oracle_local_statements(graph, order):
    """(statements, skipped): I(i; rest | bd(i)) for each vertex i in
    ``order``, through the public ``neighbors``; a vertex with no rest is
    skipped as ``{"a": (i,), "b": (), "given": bd(i)}``."""
    statements, skipped = [], []
    for i in order:
        bd = tuple(sorted(graph.neighbors(i)))
        rest = tuple(v for v in order if v != i and v not in bd)
        if rest:
            statements.append(IndependenceStatement((i,), rest, bd))
        else:
            skipped.append({"a": (i,), "b": (), "given": bd})
    return statements, tuple(skipped)


def oracle_component_statements(graph, order):
    """The set-based separator enumeration: per separator candidate in
    ``combinations`` over ``order``, every bipartition of the components of
    the rest through the public ``components``, each side sorted by name."""
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


def oracle_exhaustive_statements(graph, order):
    """Every disjoint separated triple, one validating ``separates`` call per
    role vector over ``order``."""
    for roles in iter_product(range(4), repeat=len(order)):
        a = tuple(v for v, r in zip(order, roles) if r == 0)
        b = tuple(v for v, r in zip(order, roles) if r == 1)
        s = tuple(v for v, r in zip(order, roles) if r == 2)
        if not a or not b or b < a:
            continue
        if graph.separates(s, a, b):
            yield IndependenceStatement(a, b, s)


def oracle_scan_plan(names, axioms):
    """The axiom-scan plan written as a loop over ``itertools.product`` role
    vectors: (statements, instances), the distinct statements of all the
    instances in order of first occurrence, and per instance (axiom, groups,
    antecedent indices, consequent index).  ``_scan_plan`` must give the
    same statements, instances and indices."""
    subsets = [
        tuple(v for i, v in enumerate(names) if mask >> i & 1)
        for mask in range(1 << len(names))
    ]
    index = {}

    def statement(masks, form):
        key = tuple(sum(masks[k] for k in side) for side in form)
        return index.setdefault(key, len(index))

    instances = []
    for axiom in axioms:
        n_roles = 3 if axiom == "symmetry" else 4
        antecedent_forms, consequent_form = posscheck.independence._AXIOM_FORMS[axiom]
        for roles in iter_product(range(n_roles + 1), repeat=len(names)):
            masks = [0] * (n_roles + 1)  # role n_roles marks unused variables
            for i, r in enumerate(roles):
                masks[r] |= 1 << i
            if masks[0] and masks[1] and masks[2]:
                instances.append((
                    axiom,
                    tuple(subsets[m] for m in masks[:n_roles]),
                    tuple(statement(masks, form) for form in antecedent_forms),
                    statement(masks, consequent_form),
                ))
    statements = [IndependenceStatement(*(subsets[m] for m in key)) for key in index]
    return statements, instances


def oracle_crisp_candidate(table, graph, tn):
    """The crisp regime's candidate with each clique marginal snapped to
    {0, 1} on its own, kept in its dtype (object for an exact table)."""
    factors = {}
    for clique in graph.cliques():
        marginal = table.marginalize(clique)
        values = np.where(marginal.values > 0.5, 1, 0).astype(
            marginal.values.dtype if marginal.values.dtype == object else float
        )
        factors[tuple(clique)] = PossibilityTable(marginal.schema, values)
    return Factorization(tn, factors)


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


def permuted(table, rng):
    """The same table on a randomly permuted schema order."""
    order = rng.permutation(len(table.schema))
    names = [table.schema.variables[i] for i in order]
    schema = Schema([(n, table.schema.domain(n)) for n in names])
    return PossibilityTable(schema, np.transpose(table.values, order))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def uncertified(monkeypatch):
    """Markov calls without the clique-factor certificate: every call
    decides its whole list, as on a table no candidate fold comes near."""
    monkeypatch.setattr(posscheck.markov, "_certified", lambda *args: False)


@pytest.fixture
def lattices(monkeypatch):
    """The shapes of the joints whose max-marginal lattice is built, in
    order: the table's own where a decided list (``decide_many``, a scan or
    a Markov check) fits it, and otherwise one per marginalized joint whose
    statements fit its own.  A ``chain_report`` or ``scan_axioms`` call
    keeps the table's lattice for its later lists, so it builds it at most
    once."""
    return routes_taken(monkeypatch)[0]


def routes_taken(monkeypatch):
    """The shapes of the lattices built and, per ``_joint_chunks`` call,
    whether it was handed a lattice: the table's, which a ``chain_report``
    keeps once built, so local and pairwise are handed the lattice global
    built whatever the size of their own lists."""
    lattices, handed = [], []
    unhooked_lattice = posscheck.independence._lattice
    unhooked_chunks = posscheck.independence._joint_chunks

    def lattice(pi):
        lattices.append(pi.shape)
        return unhooked_lattice(pi)

    def chunks(pi, a, b, mismatch, z=None):
        handed.append(z is not None)
        return unhooked_chunks(pi, a, b, mismatch, z)

    monkeypatch.setattr(posscheck.independence, "_lattice", lattice)
    monkeypatch.setattr(posscheck.independence, "_joint_chunks", chunks)
    return lattices, handed
