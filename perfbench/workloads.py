"""Seeded input generators for the four benchmark workloads.

Every workload is a fixed schedule of operations: sizes, graph shapes,
t-norm specs and slices are laid out by position, and the seed only draws
the random content (table values, random trees and graphs, which cells are
perturbed).  That keeps the cost mix of a pass the same from seed to seed,
so run-to-run spread comes from the machine, not from the draw.

A seed selects one of ``VARIANTS`` input sets; the verdicts of the seed code
on every set are pinned in ``pins.json`` (see ``pin.py``).
"""

import json
from dataclasses import dataclass
from itertools import product as iter_product
from pathlib import Path
from typing import Optional

import numpy as np

from posscheck import PossibilityTable, Schema, TNorm, UndirectedGraph

VARIANTS = 32

SPECS = ("godel", "product", "lukasiewicz", "product^2", "lukasiewicz^2")
BASE_SPECS = ("godel", "product", "lukasiewicz")
WORKLOADS = ("markov-sparse", "markov-dense", "axiom-scan", "cli-factorize")


def spec_parts(spec):
    base, _, power = spec.partition("^")
    return base, float(power) if power else 1.0


def make_tnorm(spec):
    base, power = spec_parts(spec)
    return TNorm(base) if power == 1.0 else getattr(TNorm, base)(power)


def tnorm_fold(spec, arrays):
    """n-ary t-norm of broadcastable float arrays, from the closed forms.

    Written with numpy alone so that inputs and checks do not lean on the
    library under test: min for Goedel, phi^-1(prod phi) for the product
    family and phi^-1(max(sum phi - (m - 1), 0)) for the Lukasiewicz family,
    with phi(x) = x**p.
    """
    base, p = spec_parts(spec)
    arrays = np.broadcast_arrays(*arrays)
    if base == "godel":
        return np.minimum.reduce(arrays)
    lifted = [a ** p for a in arrays]
    if base == "product":
        return np.prod(lifted, axis=0) ** (1.0 / p)
    return np.maximum(np.sum(lifted, axis=0) - (len(lifted) - 1), 0.0) ** (1.0 / p)


@dataclass(eq=False)
class Op:
    """One benchmark operation: the inputs of one timed call."""

    index: int
    label: str
    spec: str
    schema: Schema
    values: np.ndarray
    graph: Optional[UndirectedGraph] = None
    planted: bool = False
    eps: float = 1e-9
    regime: str = ""
    path: Optional[str] = None
    known_defect: bool = False

    def __post_init__(self):
        self.tnorm = make_tnorm(self.spec)

    @property
    def n(self):
        return len(self.schema)

    @property
    def positive(self):
        return bool((self.values > 0).all())

    def fresh_table(self):
        """A new table instance, so no marginal memo carries between calls."""
        return PossibilityTable(self.schema, self.values)


# -- shapes ---------------------------------------------------------------------


def names(n):
    return [f"V{i}" for i in range(n)]


def chain(n):
    v = names(n)
    return UndirectedGraph(v, [(v[i], v[i + 1]) for i in range(n - 1)])


def grid(rows, cols):
    v = names(rows * cols)
    edges = []
    for i in range(rows):
        for j in range(cols):
            k = i * cols + j
            if j + 1 < cols:
                edges.append((v[k], v[k + 1]))
            if i + 1 < rows:
                edges.append((v[k], v[k + cols]))
    return UndirectedGraph(v, edges)


def grid_for(n):
    """A 2 x k or 3 x k grid on n vertices, or None when n has no such split."""
    for rows in (2, 3):
        if n % rows == 0 and n // rows >= 2:
            return grid(rows, n // rows)
    return None


def random_tree(n, rng, max_degree=3):
    """Random tree where each vertex joins an earlier one of degree < max_degree."""
    v = names(n)
    degree = [0] * n
    edges = []
    for i in range(1, n):
        open_ = [j for j in range(i) if degree[j] < max_degree]
        j = open_[int(rng.integers(len(open_)))]
        degree[i] += 1
        degree[j] += 1
        edges.append((v[j], v[i]))
    return UndirectedGraph(v, edges)


def star(n):
    v = names(n)
    return UndirectedGraph(v, [(v[0], v[i]) for i in range(1, n)])


def random_graph(n, density, rng):
    """Uniform random graph with round(density * n(n-1)/2) edges, at least one
    pair left out so that separation statements exist."""
    v = names(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = min(int(round(density * len(pairs))), len(pairs) - 1)
    keep = rng.choice(len(pairs), size=m, replace=False)
    return UndirectedGraph(v, [(v[pairs[k][0]], v[pairs[k][1]]) for k in sorted(keep)])


def schema_for(domains):
    return Schema([(name, [str(d) for d in range(k)]) for name, k in zip(names(len(domains)), domains)])


def mixed_domains(n, n_ternary, rng):
    domains = [2] * n
    for i in rng.choice(n, size=n_ternary, replace=False):
        domains[int(i)] = 3
    return domains


# -- tables ---------------------------------------------------------------------


def cylinder(values, clique_axes, n):
    """Lay clique-local values (axes in ``clique_axes`` order) over n axes."""
    order = np.argsort(clique_axes)
    values = values.transpose(order)
    shape = [1] * n
    for k, axis in enumerate(np.asarray(clique_axes)[order]):
        shape[axis] = values.shape[k]
    return values.reshape(shape)


def planted_values(graph, schema, spec, rng, crisp=False):
    """A normal table that factorizes over the graph's cliques under ``spec``.

    Every clique factor is 1 at a common random cell, so the fold is normal.
    Nilpotent factors stay within 0.9/m of 1 in the rescaled space, so the
    fold of m factors never truncates and the table is strictly positive.
    """
    n = len(schema)
    shape = schema.shape
    anchor = tuple(int(rng.integers(k)) for k in shape)
    order = schema.variables
    cliques = graph.cliques()
    base, p = spec_parts(spec)
    factors = []
    for clique in cliques:
        axes = [order.index(v) for v in clique]
        sub_shape = tuple(shape[a] for a in axes)
        if crisp:
            local = (rng.random(sub_shape) < 0.6).astype(float)
        elif base == "lukasiewicz":
            slack = 0.9 / len(cliques)
            local = (1.0 - rng.uniform(0.0, slack, sub_shape)) ** (1.0 / p)
        elif base == "product":
            local = rng.uniform(0.3, 1.0, sub_shape)
        else:
            local = rng.uniform(0.1, 1.0, sub_shape)
        local[tuple(anchor[a] for a in axes)] = 1.0
        factors.append(cylinder(local, axes, n))
    values = tnorm_fold(spec if not crisp else "godel", factors)
    values = np.array(np.broadcast_to(values, shape), dtype=float)
    values[anchor] = 1.0
    return values, anchor


def perturb(values, anchor, rng, crisp=False, factorizes=None):
    """Change one cell other than the anchor (which keeps the table normal).
    With ``factorizes``, draw another cell while the changed table still
    passes that test."""
    for _ in range(1000):
        cell = tuple(int(rng.integers(k)) for k in values.shape)
        if cell == anchor:
            continue
        out = values.copy()
        out[cell] = 1.0 - out[cell] if crisp else out[cell] * 0.5
        if factorizes is None or not factorizes(out):
            return out
    raise ValueError("no single-cell change breaks the factorization")


def min_factorizes(values, graph, schema):
    """Whether the table is the minimum of its clique max-marginals: the test
    for a Goedel factorization and, for 0/1 tables, for one under any t-norm."""
    order = schema.variables
    folded = np.ones_like(values)
    for clique in graph.cliques():
        kept = {order.index(v) for v in clique}
        others = tuple(a for a in range(values.ndim) if a not in kept)
        folded = np.minimum(folded, values.max(axis=others, keepdims=True))
    return bool(np.array_equal(folded, values))


def random_positive(schema, rng):
    values = rng.uniform(0.05, 1.0, schema.shape)
    values[tuple(int(rng.integers(k)) for k in schema.shape)] = 1.0
    return values


def grid_table(schema, rng, positive):
    pool = (0.25, 0.5, 0.75, 1.0) if positive else (0.0, 0.25, 0.5, 0.75, 1.0)
    values = rng.choice(pool, size=schema.shape)
    values[tuple(int(rng.integers(k)) for k in schema.shape)] = 1.0
    return values


def independent_product(schema, spec, rng):
    """T-fold of normal single-variable marginals: every statement's antecedent holds."""
    n = len(schema)
    marginals = []
    for axis, k in enumerate(schema.shape):
        m = rng.choice((0.25, 0.5, 0.75, 1.0), size=k)
        m[int(rng.integers(k))] = 1.0
        marginals.append(cylinder(m, [axis], n))
    return np.array(np.broadcast_to(tnorm_fold(spec, marginals), schema.shape))


# -- workload schedules -----------------------------------------------------------
#
# Each workload draws from two streams.  The structure stream (graphs, which
# variables are ternary, which positions are perturbed) is the same for every
# seed, so a pass costs about the same whatever the seed; the content stream
# (cell values, anchors, perturbed cells) comes from the seed's variant.


def _streams(workload, variant):
    index = WORKLOADS.index(workload)
    return np.random.default_rng([index, 0]), np.random.default_rng([index, 1, variant])


def _perturbed_set(rng, count, share):
    k = int(round(count * share))
    return {int(i) for i in rng.choice(count, size=k, replace=False)}


# markov-sparse: binary chains, degree-3 random trees and 2xk/3xk grids,
# weighted toward small n with a tail at n = 10; 15 % perturbed.
SPARSE_SIZES = {6: 40, 7: 30, 8: 20, 9: 9, 10: 3}
SPARSE_PERTURBED = 0.15


def markov_sparse(variant):
    shape_rng, rng = _streams("markov-sparse", variant)
    ops = []
    for n, count in SPARSE_SIZES.items():
        shapes = ["chain", "tree"] + (["grid"] if grid_for(n) else [])
        perturbed = _perturbed_set(shape_rng, count, SPARSE_PERTURBED)
        for j in range(count):
            shape = shapes[j % len(shapes)]
            spec = SPECS[j % len(SPECS)]
            graph = {"chain": chain, "grid": grid_for}.get(
                shape, lambda m: random_tree(m, shape_rng))(n)
            schema = schema_for([2] * n)
            values, anchor = planted_values(graph, schema, spec, rng)
            planted = j not in perturbed
            if not planted:
                values = perturb(values, anchor, rng)
            ops.append(Op(len(ops), f"{shape} n={n} {'planted' if planted else 'perturbed'}",
                          spec, schema, values, graph, planted))
    return ops


# markov-dense: binary stars and random graphs of edge density 0.5..0.8 over
# mixed 2/3-label domains (n // 4 ternary variables).  Up to n = 9 a quarter
# of the dense tables are random positive and the rest planted
# factorizations; above n = 9 all are planted, since a random table there
# fails hundreds of statements and one such call would outweigh the rest of
# the pass.
DENSE_STARS = {8: 8, 9: 2}
DENSE_SIZES = {8: 46, 9: 32, 10: 12, 11: 4}
DENSE_DENSITIES = (0.5, 0.6, 0.7, 0.8)
DENSE_RANDOM_MAX_N = 9


def markov_dense(variant):
    shape_rng, rng = _streams("markov-dense", variant)
    ops = []
    for n, count in DENSE_STARS.items():
        for j in range(count):
            graph, schema = star(n), schema_for([2] * n)
            spec = SPECS[j % len(SPECS)]
            values, _ = planted_values(graph, schema, spec, rng)
            ops.append(Op(len(ops), f"star n={n} planted", spec, schema, values, graph, True))
    for n, count in DENSE_SIZES.items():
        for j in range(count):
            graph = random_graph(n, DENSE_DENSITIES[j % len(DENSE_DENSITIES)], shape_rng)
            schema = schema_for(mixed_domains(n, n // 4, shape_rng))
            spec = SPECS[j % len(SPECS)]
            planted = n > DENSE_RANDOM_MAX_N or (j // len(DENSE_DENSITIES)) % 4 != 1
            if planted:
                values, _ = planted_values(graph, schema, spec, rng)
            else:
                values = random_positive(schema, rng)
            ops.append(Op(len(ops), f"dense n={n} {'planted' if planted else 'random'}",
                          spec, schema, values, graph, planted))
    return ops


# axiom-scan: n = 4..6 over the 0.25-grid, strictly positive grid tables,
# products of independent marginals, and an exact-rational slice (Fraction
# values, eps = 0, base t-norms only).  n = 6 stays binary.
AXIOM_SIZES = {4: 90, 5: 11, 6: 1}
AXIOM_SLICES = ("grid", "positive", "product", "exact")


def axiom_scan(variant):
    from fractions import Fraction

    shape_rng, rng = _streams("axiom-scan", variant)
    ops = []
    for n, count in AXIOM_SIZES.items():
        for j in range(count):
            slice_ = AXIOM_SLICES[j % len(AXIOM_SLICES)]
            specs = BASE_SPECS if slice_ == "exact" else SPECS
            spec = specs[(j // len(AXIOM_SLICES)) % len(specs)]
            n_ternary = 0 if n == 6 else (j // 2) % (n - 2)
            schema = schema_for(mixed_domains(n, n_ternary, shape_rng))
            if slice_ == "product":
                values = independent_product(schema, spec, rng)
            else:
                values = grid_table(schema, rng, positive=slice_ == "positive")
            eps = 1e-9
            if slice_ == "exact":
                values = np.array([Fraction(str(v)) for v in values.ravel()],
                                  dtype=object).reshape(schema.shape)
                eps = 0
            ops.append(Op(len(ops), f"{slice_} n={n} ternary={n_ternary}",
                          spec, schema, values, eps=eps))
    return ops


# cli-factorize: model files for the four factorization regimes over chains,
# grids and random graphs of edge density 0.3.  Goedel and crisp reach
# n = 14, strict and nilpotent n = 12; models at even positions are planted,
# the rest have one perturbed cell (for Goedel and crisp, a cell that breaks
# the factorization).  The five small Goedel and crisp models
# at the end put p90 among the 100-140 ms models rather than on the step up
# to the n = 14 loads.  The n = 12 strict and nilpotent models are perturbed:
# a planted n = 12 chain takes about 1 s, a fifth of the pass, before it
# fails the same way as the planted n = 11 chains.
#
# Planted models with n >= CLI_DEFECT_MIN_N hit the clique-key defect (names
# V10 and up sort before V9): strict and nilpotent ones raise SchemaError,
# Goedel and crisp ones list their factors under name-sorted cliques, so the
# factors do not fold back.  In the timed list those positions are perturbed,
# so that no timed operation fails.  With ``known_defects`` each such planted
# model is also written, after the timed ones, flagged ``known_defect``;
# run.py runs and checks them once per traced run, outside the timed passes.
CLI_GODEL_CRISP_SIZES = (6, 7, 8, 9, 10, 11, 12, 13, 14, 6, 7, 8, 9, 10, 11, 6, 7, 8, 6, 7)
CLI_ARCHIMEDEAN_SIZES = (6, 7, 8, 9, 10, 11, 9, 12, 7, 8, 9, 6, 11, 6, 7)
CLI_MODELS = (
    ("godel", "godel", CLI_GODEL_CRISP_SIZES),
    ("crisp", "product", CLI_GODEL_CRISP_SIZES),
    ("crisp", "lukasiewicz", CLI_GODEL_CRISP_SIZES),
    ("strict", "product", CLI_ARCHIMEDEAN_SIZES),
    ("strict", "product^2", CLI_ARCHIMEDEAN_SIZES),
    ("nilpotent", "lukasiewicz", CLI_ARCHIMEDEAN_SIZES),
    ("nilpotent", "lukasiewicz^2", CLI_ARCHIMEDEAN_SIZES),
)
CLI_SHAPES = ("chain", "grid", "random")
CLI_DEFECT_MIN_N = 11


def cli_factorize(variant, workdir, known_defects):
    shape_rng, rng = _streams("cli-factorize", variant)
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    timed, defects = [], []
    for regime, spec, sizes in CLI_MODELS:
        crisp = regime == "crisp"
        for j, n in enumerate(sizes):
            shape = CLI_SHAPES[j % len(CLI_SHAPES)]
            if shape == "grid" and grid_for(n) is None:
                shape = "chain"
            graph = {"chain": chain, "grid": grid_for}.get(
                shape, lambda m: random_graph(m, 0.3, shape_rng))(n)
            schema = schema_for([2] * n)
            values, anchor = planted_values(graph, schema, spec, rng, crisp=crisp)
            planted = j % 2 == 0
            if planted and n >= CLI_DEFECT_MIN_N:
                defects.append((regime, spec, shape, schema, values, graph, True))
                planted = False
            if not planted:
                # Goedel and crisp models are perturbed until they no longer
                # factorize, so that every perturbed model's answer is "no".
                test = None if regime in ("strict", "nilpotent") else (
                    lambda v: min_factorizes(v, graph, schema))
                values = perturb(values, anchor, rng, crisp=crisp, factorizes=test)
            timed.append((regime, spec, shape, schema, values, graph, planted))
    ops = []
    for regime, spec, shape, schema, values, graph, planted in (
            timed + defects if known_defects else timed):
        path = workdir / f"model-{len(ops):03d}.json"
        path.write_text(model_json(schema, values, graph, spec))
        ops.append(Op(len(ops), f"{regime}/{spec} {shape} n={len(schema)} "
                      f"{'planted' if planted else 'perturbed'}",
                      spec, schema, values, graph, planted, regime=regime,
                      path=str(path), known_defect=len(ops) >= len(timed)))
    return ops


def model_json(schema, values, graph, spec):
    """Model file text listing every cell, so that a model's size, and the
    time to load it, depend on n alone."""
    order = schema.variables
    entries = [{"assignment": {name: str(i) for name, i in zip(order, idx)},
                "value": float(values[idx])}
               for idx in iter_product(*(range(k) for k in values.shape))]
    base, p = spec_parts(spec)
    tnorm = {"base": base}
    if p != 1.0:
        tnorm["automorphism"] = {"type": "power", "p": p}
    doc = {
        "variables": [{"name": name, "domain": list(schema.domain(name))} for name in order],
        "table": {"default": 0.0, "entries": entries},
        "graph": graph.to_json_dict(),
        "tnorm": tnorm,
    }
    return json.dumps(doc, separators=(",", ":"))


def build(workload, seed, workdir, known_defects=False):
    """The operation list of ``workload`` for ``seed``; with
    ``known_defects``, cli-factorize's known-defect models follow it."""
    variant = seed % VARIANTS
    if workload == "cli-factorize":
        return cli_factorize(variant, workdir, known_defects)
    return {"markov-sparse": markov_sparse, "markov-dense": markov_dense,
            "axiom-scan": axiom_scan}[workload](variant)
