"""Combining, verifying and constructing clique factorizations."""

import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, product as iter_product

import numpy as np
import pytest
from scipy.optimize import linprog

from posscheck import (
    Factorization,
    PossibilityTable,
    Schema,
    SchemaError,
    TNorm,
    UndirectedGraph,
    factorizes,
    global_markov,
    verify,
)
from posscheck.corpus import builtin_example
import posscheck.factorization
from posscheck.factorization import _anchored_system, _clique_sum_projection

from conftest import (
    ARCHIMEDEAN_TNORMS, BASE_TNORMS, jittered, planted, random_graph, random_table
)

EPS = 1e-9


def chain_graph():
    return UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z")])


def factor(names, values):
    return PossibilityTable(Schema.binary(*names), np.asarray(values, dtype=float))


def chain_of(n):
    names = [f"V{i}" for i in range(n)]
    return UndirectedGraph.from_edges(list(zip(names, names[1:])))


def four_cycle():
    return UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z"), ("Z", "W"), ("W", "X")])


def loop_rescaled(graph, tn):
    """Per-cell rescaling: log phi(pi) for the product family and
    phi(pi) + (cliques - 1) for the Lukasiewicz family."""
    p = tn.transform.p if tn.transform is not None else 1.0
    shift = len(graph.cliques()) - 1

    def f(value):
        value = min(max(value, 0.0), 1.0) ** p
        if tn.base == "lukasiewicz":
            return value + shift
        return math.log(value) if value > 0 else -math.inf
    return f


def loop_spread(graph):
    """Sum of |w_T| over the vertex sets T, where w_T is the signed count of
    the complete sets containing T, with complete sets found by testing
    every vertex subset for pairwise adjacency."""
    names = graph.vertices
    complete = [s for r in range(len(names) + 1) for s in combinations(names, r)
                if all(b in graph.neighbors(a) for a, b in combinations(s, 2))]
    return sum(abs(sum((-1) ** (len(s) - len(t)) for s in complete if set(t) <= set(s)))
               for t in complete)


def loop_residual_witness(table, graph, tn, eps=EPS):
    """First assignment, first variable cycling fastest, with the largest
    ratio of |f - A x| to tau + spread * max(tau) (up to rounding), when that
    ratio exceeds 1; None otherwise.  Here f is the rescaled table, x the
    least-squares fit of the per-cell design matrix A to f, and tau the
    largest move of f when the cell moves by max(eps, 1e-12)."""
    schema = table.schema
    rescale = loop_rescaled(graph, tn)
    step = max(eps, 1e-12)
    cells = list(np.ndindex(schema.shape))
    f = [rescale(float(table.values[idx])) for idx in cells]
    tau = [max(abs(rescale(float(table.values[idx]) + d) - f_idx) for d in (step, -step))
           for idx, f_idx in zip(cells, f)]
    matrix, _, _ = TestDesignMatrix._loop_matrix(schema, graph.cliques())
    solution, _, _, _ = np.linalg.lstsq(matrix, f, rcond=None)
    residual = np.abs(np.array(f) - matrix @ solution)
    spread_tau = loop_spread(graph) * max(tau)
    ratio = {idx: r / (t + spread_tau) for idx, r, t in zip(cells, residual, tau)}
    ordered = [(ratio[schema.multi_index(a)], a) for a in schema.assignments()]
    worst = max(r for r, _ in ordered)
    if worst <= 1:
        return None
    # equal exact ratios differ by rounding only: the first of them wins
    return next(a for r, a in ordered if r >= worst * (1 - 1e-9))


BOX_REASON = ("the clique-local linear system for the rescaled table is "
              "infeasible within the unit interval")
RESIDUAL_REASON = "the rescaled table is not a sum of clique terms within eps"
VERIFY_REASON = ("the factors fitted to the least-squares projection of the rescaled "
                 "table miss the table beyond eps at the witness cell")


class TestCombine:
    def test_single_clique_is_identity(self):
        t = builtin_example(1).table()
        g = UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z"), ("X", "Z")])
        f = Factorization(TNorm.godel(), {("X", "Y", "Z"): t})
        combined = f.combine(t.schema)
        assert np.array_equal(combined.values, t.values)

    def test_min_of_marginals_differs_from_diagonal(self):
        # combining the marginals over {X} and {Y, Z} spreads possibility to
        # every cell with y == z, unlike the diagonal itself
        t = builtin_example(1).table()
        g = UndirectedGraph.from_edges([("Y", "Z")], isolated=["X"])
        f = Factorization(
            TNorm.godel(),
            {("X",): t.marginalize(["X"]), ("Y", "Z"): t.marginalize(["Y", "Z"])},
        )
        combined = f.combine(t.schema)
        for x, y, z in iter_product((0, 1), repeat=3):
            expected = 1.0 if y == z else 0.0
            assert combined.values[x, y, z] == expected
        ok, witness = verify(t, g, f)
        assert not ok
        assert witness == {"X": "1", "Y": "0", "Z": "0"}

    def test_lukasiewicz_singleton_folding(self):
        schema = Schema.binary("A", "B", "C")
        factors = {
            (v,): PossibilityTable(Schema.binary(v), [0.9, 0.9]) for v in schema.variables
        }
        f = Factorization(TNorm.lukasiewicz(), factors)
        with pytest.warns(UserWarning):
            combined = f.combine(schema)
        assert np.allclose(combined.values, 0.7)

    def test_uncovered_variable_rejected(self):
        schema = Schema.binary("A", "B")
        f = Factorization(TNorm.godel(), {("A",): PossibilityTable(Schema.binary("A"), [1.0, 1.0])})
        with pytest.raises(SchemaError):
            f.combine(schema)


class TestVerify:
    def test_clique_mismatch_rejected(self):
        t = builtin_example(1).table()
        f = Factorization(TNorm.godel(), {("X", "Y"): t.marginalize(["X", "Y"])})
        with pytest.raises(SchemaError):
            verify(t, chain_graph(), f)

    def test_verifies_an_exact_build(self, rng):
        t = random_table(rng, max_vars=3, max_domain=2)
        names = t.schema.variables
        g = UndirectedGraph.from_edges([(names[i], names[i + 1]) for i in range(len(names) - 1)])
        factors = {c: t.marginalize(c) for c in g.cliques()}
        f = Factorization(TNorm.godel(), factors)
        combined = f.combine(t.schema)
        ok, _ = verify(combined, g, f)
        assert ok


class TestGodelConstructor:
    def test_min_built_table_round_trips(self, rng):
        schema = Schema.binary("X", "Y", "Z")
        for _ in range(10):
            vals = rng.random((2, 2, 2)) * 0.8 + 0.2
            vals[tuple(rng.integers(0, 2, 3))] = 1.0
            base = PossibilityTable(schema, vals)
            f1 = base.marginalize(["X", "Y"])
            f2 = base.marginalize(["Y", "Z"])
            built = Factorization(TNorm.godel(), {("X", "Y"): f1, ("Y", "Z"): f2})
            t = built.combine(schema)
            got = factorizes(t, chain_graph(), TNorm.godel())
            assert got.is_yes
            ok, _ = verify(t, chain_graph(), got.factorization)
            assert ok

    def test_four_cycle_table_does_not_factorize(self):
        m = builtin_example(5)
        assert factorizes(m.table(), m.graph(), TNorm.godel()).status == "no"

    def test_constant_one_table_gives_unit_factors(self):
        schema = Schema.binary("X", "Y", "Z")
        t = PossibilityTable.load(schema, [], 1.0)
        got = factorizes(t, chain_graph(), TNorm.godel())
        assert got.is_yes
        for f in got.factorization.factors.values():
            assert (f.values == 1.0).all()

    def test_agrees_with_brute_force_on_three_binary_variables(self):
        # every {0, 1/2, 1}-valued normal table against exhaustive search over
        # {0, 1/2, 1}-valued factor pairs on the chain
        schema = Schema.binary("X", "Y", "Z")
        g = chain_graph()
        levels = np.array([0.0, 0.5, 1.0])
        f1_all = np.stack(
            [np.array(c).reshape(2, 2) for c in iter_product(levels, repeat=4)]
        )
        f2_all = f1_all.copy()
        combos = np.minimum(
            f1_all[:, None, :, :, None], f2_all[None, :, None, :, :]
        ).reshape(-1, 8)
        achievable = {c.tobytes() for c in combos}
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(120):
            vals = rng.choice(levels, size=8)
            if vals.max() != 1.0:
                continue
            key = vals.tobytes()
            t = PossibilityTable(schema, vals.reshape(2, 2, 2))
            got = factorizes(t, g, TNorm.godel())
            assert got.is_yes == (key in achievable)
            checked += 1
        assert checked > 60


class TestCrispConstructor:
    def test_four_cycle_counterexample(self):
        # the 1-set projects fully onto every edge, so the cylinder
        # intersection is everything and the construction must fail
        m = builtin_example(5)
        t, g = m.table(), m.graph()
        assert factorizes(t, g, TNorm.lukasiewicz()).status == "no"
        res = factorizes(t, g, TNorm.product())
        assert res.status == "no"
        assert res.witness == {"X": "0", "Y": "1", "Z": "0", "W": "0"}

    def test_witness_agrees_with_projection_oracle(self):
        # enumerate the eight 1-cells and their edge projections directly
        m = builtin_example(5)
        one_set = {tuple(int(v) for v in cell) for cell in m.one_cells}
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        projections = [
            {(cell[i], cell[j]) for cell in one_set} for i, j in edges
        ]
        in_all_cylinders = {
            cell
            for cell in iter_product((0, 1), repeat=4)
            if all((cell[i], cell[j]) in proj for (i, j), proj in zip(edges, projections))
        }
        stray = sorted(in_all_cylinders - one_set)
        assert stray  # cells that block the factorization
        assert (0, 1, 0, 0) in stray
        res = factorizes(m.table(), m.graph(), TNorm.lukasiewicz())
        witness_cell = tuple(int(res.witness[v]) for v in ("X", "Y", "Z", "W"))
        assert witness_cell in stray

    def test_single_clique_crisp_table(self):
        t = builtin_example(1).table()
        g = UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z"), ("X", "Z")])
        got = factorizes(t, g, TNorm.product())
        assert got.is_yes
        assert np.array_equal(got.factorization.factors[("X", "Y", "Z")].values, t.values)

    def test_product_one_set_factorizes(self):
        # 1-set {0,1} x {1} is a rectangle, so the edge graph carries it
        schema = Schema.binary("A", "B")
        t = PossibilityTable(schema, [[0.0, 1.0], [0.0, 1.0]])
        g = UndirectedGraph.from_edges([("A", "B")])
        got = factorizes(t, g, TNorm.product())
        assert got.is_yes
        ok, _ = verify(t, g, got.factorization)
        assert ok


class TestStrictPositiveConstructor:
    """Strictly positive tables under Archimedean t-norms, through factorizes."""

    @pytest.mark.parametrize("tn", [TNorm.product(), TNorm.product(2.0)],
                             ids=lambda t: t.describe())
    def test_product_family_round_trip(self, tn, rng, monkeypatch):
        schema = Schema.binary("X", "Y", "Z")
        for _ in range(10):
            f1 = rng.uniform(0.1, 1.0, (2, 2)); f1[0, 0] = 1.0
            f2 = rng.uniform(0.1, 1.0, (2, 2)); f2[0, 0] = 1.0
            built = Factorization(tn, {
                ("X", "Y"): factor(["X", "Y"], f1),
                ("Y", "Z"): factor(["Y", "Z"], f2),
            })
            t = built.combine(schema)
            got = factorizes(t, chain_graph(), tn)
            assert got.is_yes
            assert np.abs(got.factorization.combine(schema).values - t.values).max() <= EPS
        # the non-chordal four-cycle too; the linear program finds the factors
        calls = []
        monkeypatch.setattr(posscheck.factorization, "linprog",
                            lambda *a, **k: calls.append(1) or linprog(*a, **k))
        schema = Schema.binary("W", "X", "Y", "Z")
        for _ in range(10):
            t, _ = planted(schema, four_cycle(), tn, rng, 0.1)
            got = factorizes(t, four_cycle(), tn)
            assert got.is_yes
            assert np.abs(got.factorization.combine(schema).values - t.values).max() <= EPS
        assert calls

    @pytest.mark.parametrize("tn", [TNorm.lukasiewicz(), TNorm.lukasiewicz(2.0)],
                             ids=lambda t: t.describe())
    def test_lukasiewicz_family_round_trip(self, tn, rng):
        schema = Schema.binary("X", "Y", "Z")
        for _ in range(10):
            f1 = rng.uniform(0.93, 1.0, (2, 2)); f1[0, 0] = 1.0
            f2 = rng.uniform(0.93, 1.0, (2, 2)); f2[0, 0] = 1.0
            built = Factorization(tn, {
                ("X", "Y"): factor(["X", "Y"], f1),
                ("Y", "Z"): factor(["Y", "Z"], f2),
            })
            t = built.combine(schema)
            got = factorizes(t, chain_graph(), tn)
            assert got.is_yes
            assert np.abs(got.factorization.combine(schema).values - t.values).max() <= EPS
        # an eleven-variable chain: ten factors, each close enough to 1 that
        # the fold does not truncate
        schema = Schema.binary(*(f"V{i}" for i in range(11)))
        t, _ = planted(schema, chain_of(11), tn, rng, 0.995)
        got = factorizes(t, chain_of(11), tn)
        assert got.is_yes
        assert np.abs(got.factorization.combine(schema).values - t.values).max() <= 1e-7

    def test_dependent_positive_table_is_rejected_by_the_solve(self):
        # the strictly positive diagonal is not product-independent of
        # anything, so the rescaled table is no sum of clique terms
        t = builtin_example(2).table()
        g = UndirectedGraph.from_edges([("Y", "Z")], isolated=["X"])
        assert factorizes(t, g, TNorm.product()).status == "no"

    def test_sixteen_variable_chain_builds_no_row_per_cell(self, rng):
        # 65,536 cells and 60 unknowns: a dense cells x unknowns float matrix
        # alone would take 30 MiB
        schema = Schema.binary(*(f"V{i}" for i in range(16)))
        t, _ = planted(schema, chain_of(16), TNorm.product(), rng, 0.5)
        tracemalloc.start()
        try:
            res = factorizes(t, chain_of(16), TNorm.product())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.is_yes
        assert peak < 15 * 2 ** 20


class TestDesignMatrix:
    """The anchored rows against the per-cell loop over every cell."""

    @staticmethod
    def _loop_matrix(schema, cliques):
        sub_schemas = [schema.project(c) for c in cliques]
        offsets = np.cumsum([0] + [int(np.prod(s.shape)) for s in sub_schemas])
        rows = []
        for idx in np.ndindex(schema.shape):
            row = np.zeros(offsets[-1])
            for offset, sub in zip(offsets, sub_schemas):
                local = tuple(idx[schema.axis(v)] for v in sub.variables)
                row[offset + np.ravel_multi_index(local, sub.shape)] = 1.0
            rows.append(row)
        return np.array(rows), sub_schemas, offsets

    @staticmethod
    def _loop_anchored(schema, cliques):
        """Flat C-order indices of the cells whose variables outside some
        clique are all at their first label."""
        return [k for k, idx in enumerate(np.ndindex(schema.shape))
                if any(all(idx[schema.axis(v)] == 0 for v in schema.variables if v not in c)
                       for c in cliques)]

    def test_matches_the_cell_loop_on_permuted_schemas(self, rng):
        for _ in range(30):
            t = random_table(rng, max_vars=5, max_domain=3)
            names = [str(n) for n in rng.permutation(t.schema.variables)]
            schema = Schema([(n, t.schema.domain(n)) for n in names])
            cliques = random_graph(rng, names).cliques()
            cells, matrix, subs, offsets = _anchored_system(schema, cliques)
            want, want_subs, want_offsets = self._loop_matrix(schema, cliques)
            rows = self._loop_anchored(schema, cliques)
            assert np.ravel_multi_index(cells, schema.shape).tolist() == rows
            assert matrix.dtype == want.dtype and np.array_equal(matrix, want[rows])
            assert subs == want_subs
            assert np.array_equal(offsets, want_offsets)
            assert (matrix.sum(axis=1) == len(cliques)).all()


class TestProjection:
    """The right-hand side of the linear program and the cells it is posed on."""

    def _cases(self, rng):
        for _ in range(30):
            t = random_table(rng, max_vars=5, max_domain=3)
            names = [str(n) for n in rng.permutation(t.schema.variables)]
            schema = Schema([(n, t.schema.domain(n)) for n in names])
            yield schema, random_graph(rng, names)

    def test_projection_is_the_least_squares_fit(self, rng):
        for schema, graph in self._cases(rng):
            matrix, _, _ = TestDesignMatrix._loop_matrix(schema, graph.cliques())
            f = rng.normal(3.0, 1.0, schema.shape)
            solution, _, _, _ = np.linalg.lstsq(matrix, f.ravel(), rcond=None)
            got, spread = _clique_sum_projection(f, schema, graph.cliques())
            assert got.shape == schema.shape
            assert np.abs(got.ravel() - matrix @ solution).max() <= 1e-10
            assert spread == loop_spread(graph)

    def test_anchored_cells_fix_every_cell(self, rng):
        for schema, graph in self._cases(rng):
            full, _, _ = TestDesignMatrix._loop_matrix(schema, graph.cliques())
            _, matrix, _, _ = _anchored_system(schema, graph.cliques())
            assert matrix.shape[0] <= matrix.shape[1]
            assert np.linalg.matrix_rank(matrix) == np.linalg.matrix_rank(full)

    @pytest.mark.filterwarnings("ignore:combined factorization is not normal")
    @pytest.mark.parametrize("tn", ARCHIMEDEAN_TNORMS, ids=lambda t: t.describe())
    def test_residual_bound_admits_tables_within_eps_of_a_clique_sum(self, tn, rng):
        # g is a sum of clique terms in the box, 0 at every clique's first
        # cell (strict) or 1 (nilpotent), so its table is normal.  Every cell
        # but that first one then moves by eps along the signs of row c of
        # I - P, with P = A pinv(A) the projection: against P[c, y] for
        # y != c and up at c, the worst case for the residual at c
        eps = 1e-6
        phi_inv = tn.transform.inverse if tn.transform is not None else (lambda x: x)
        for schema, graph in self._cases(rng):
            cliques = graph.cliques()
            matrix, _, offsets = TestDesignMatrix._loop_matrix(schema, cliques)
            projector = matrix @ np.linalg.pinv(matrix)
            _, spread = _clique_sum_projection(np.zeros(schema.shape), schema, cliques)
            assert np.abs(projector).sum(axis=1).max() <= spread + 1e-9
            k = len(cliques)
            if tn.base == "product":
                terms = rng.uniform(math.log(0.6) / k, math.log(0.99) / k, matrix.shape[1])
                terms[offsets[:-1]] = 0.0
                values = phi_inv(np.exp(matrix @ terms))
            else:
                terms = rng.uniform(1 - 0.4 / k, 1 - 0.01 / k, matrix.shape[1])
                terms[offsets[:-1]] = 1.0
                values = phi_inv(matrix @ terms - (k - 1))
            complement = np.eye(len(projector)) - projector
            rows = np.abs(complement[1:]).sum(axis=1)
            for c in (1 + int(rows.argmax()), 1 + int(rng.integers(len(rows)))):
                signs = np.sign(complement[c])
                signs[0] = 0.0
                moved = values + eps * signs
                t = PossibilityTable(schema, moved.reshape(schema.shape))
                assert RESIDUAL_REASON not in factorizes(t, graph, tn, eps).reason


class TestCliqueKeys:
    """Factors are keyed by the graph's cliques whatever the schema order."""

    TNORMS = (TNorm.product(), TNorm.lukasiewicz(), TNorm.godel())

    def _planted(self, schema, graph, tn, rng):
        factors = {}
        for clique in graph.cliques():
            values = rng.uniform(0.95, 1.0, (2,) * len(clique))
            values.flat[0] = 1.0
            factors[clique] = PossibilityTable(schema.project(clique), values)
        return Factorization(tn, factors).combine(schema)

    def _assert_factorizes(self, schema, graph, tn, rng):
        t = self._planted(schema, graph, tn, rng)
        result = factorizes(t, graph, tn)
        assert result.is_yes
        assert result.factorization.cliques() == tuple(graph.cliques())
        ok, _ = verify(t, graph, result.factorization, 1e-7)
        assert ok

    @pytest.mark.parametrize("tn", TNORMS, ids=lambda t: t.describe())
    def test_chain_over_a_reversed_schema(self, tn, rng):
        self._assert_factorizes(Schema.binary("Z", "Y", "X"), chain_graph(), tn, rng)

    @pytest.mark.parametrize("tn", TNORMS, ids=lambda t: t.describe())
    def test_chain_whose_names_do_not_sort_naturally(self, tn, rng):
        # ("V10", "V9") is the name-sorted clique of V9 and V10
        names = [f"V{i}" for i in range(12)]
        graph = UndirectedGraph.from_edges(list(zip(names, names[1:])))
        self._assert_factorizes(Schema.binary(*names), graph, tn, rng)


class TestFactorizes:
    def test_single_clique_graph_always_factorizes(self):
        t = builtin_example(2).table()
        g = UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z"), ("X", "Z")])
        for tn in BASE_TNORMS:
            res = factorizes(t, g, tn)
            assert res.status == "yes"

    def test_undecidable_inputs_are_reported_unknown(self):
        # neither crisp nor strictly positive, Archimedean t-norm, two cliques
        schema = Schema.binary("X", "Y", "Z")
        values = np.full((2, 2, 2), 0.5)
        values[0, 0, 0] = 1.0
        values[1, 1, 1] = 0.0
        t = PossibilityTable(schema, values)
        res = factorizes(t, chain_graph(), TNorm.lukasiewicz())
        assert res.status == "unknown"

    def test_godel_dispatch_works_for_any_table(self):
        schema = Schema.binary("X", "Y", "Z")
        values = np.full((2, 2, 2), 0.5)
        values[0, 0, 0] = 1.0
        values[1, 1, 1] = 0.0
        t = PossibilityTable(schema, values)
        res = factorizes(t, chain_graph(), TNorm.godel())
        assert res.status in ("yes", "no")

    @pytest.mark.parametrize("tn", ARCHIMEDEAN_TNORMS, ids=lambda t: t.describe())
    def test_yes_instances_satisfy_the_global_property(self, tn, rng):
        # build tables that factorize by construction; every yes must then
        # come with the global Markov property
        for _ in range(6):
            n = int(rng.integers(3, 5))
            names = [f"V{i}" for i in range(n)]
            schema = Schema.binary(*names)
            g = random_graph(rng, names)
            factors = {}
            for clique in g.cliques():
                sub = schema.project(clique)
                vals = rng.uniform(0.93, 1.0, sub.shape)
                vals[tuple(0 for _ in sub.shape)] = 1.0
                factors[clique] = PossibilityTable(sub, vals)
            built = Factorization(tn, factors)
            t = built.combine(schema)
            res = factorizes(t, g, tn)
            assert res.status == "yes"
            assert global_markov(t, g, tn).holds


class TestMixedDifferences:
    """Strictly positive tables under Archimedean t-norms: the residual of
    the rescaled table from its clique-sum projection (zero exactly when
    every non-edge mixed difference is) decides, then the box and the
    recombination decide the rest."""

    @pytest.mark.parametrize("tn", ARCHIMEDEAN_TNORMS, ids=lambda t: t.describe())
    def test_witness_is_the_first_cell_of_the_loop_oracle(self, tn, rng):
        grid = UndirectedGraph.from_edges(
            [("A", "B"), ("B", "C"), ("D", "E"), ("E", "F"), ("A", "D"), ("B", "E"), ("C", "F")]
        )
        cases = [(Schema.binary("X", "Y", "Z"), chain_graph()),
                 (Schema.binary(*(f"V{i}" for i in range(6))), chain_of(6)),
                 (Schema.binary("F", "A", "E", "B", "D", "C"), grid),
                 (Schema([("Z", ["0", "1", "2"]), ("X", ["0", "1"]), ("Y", ["0", "1", "2"])]),
                  chain_graph())]
        for schema, graph in cases:
            for _ in range(4):
                t, anchor = planted(schema, graph, tn, rng, 0.98)
                values = t.values.copy()
                cell = anchor
                while cell == anchor:
                    cell = tuple(int(rng.integers(k)) for k in schema.shape)
                values[cell] *= 0.5
                t = PossibilityTable(schema, values)
                res = factorizes(t, graph, tn)
                assert res.status == "no"
                assert res.witness is not None
                assert res.witness == loop_residual_witness(t, graph, tn)
                assert "not a sum of clique terms" in res.reason

    def test_tied_residuals_name_the_first_cell(self, rng):
        # under Lukasiewicz tau is the same at every cell, and lowering the
        # cells (x, z) = (0, 1) and (1, 0) of the y = 0 slab by the same
        # amount gives both the largest residual, 5/9 of that amount; with
        # the first variable cycling fastest X=1, Z=0 comes first
        tn = TNorm.lukasiewicz()
        ternary = ["0", "1", "2"]
        schema = Schema([("X", ternary), ("Y", ["0", "1"]), ("Z", ternary)])
        t, anchor = planted(schema, chain_graph(), tn, np.random.default_rng(2), 0.9)
        values = t.values.copy()
        assert anchor not in ((0, 0, 1), (1, 0, 0))
        values[0, 0, 1] -= 0.01
        values[1, 0, 0] -= 0.01
        t = PossibilityTable(schema, values)
        res = factorizes(t, chain_graph(), tn)
        assert res.witness == {"X": "1", "Y": "0", "Z": "0"}
        assert res.witness == loop_residual_witness(t, chain_graph(), tn)

    def test_frustrated_product_four_cycle_needs_the_box(self):
        # log pi = -[x != y] - [y != z] - [z != w] - [w == x], shifted to a
        # maximum of 0: a sum of edge terms, so its residual is 0,
        # but every edge takes the value 0 on some cell where the table is 1,
        # so factors in (0, 1] would all be 1 on those cells and sum to 0
        schema = Schema.binary("X", "Y", "Z", "W")
        x, y, z, w = np.indices(schema.shape)
        log_pi = -1.0 * ((x != y).astype(float) + (y != z) + (z != w) + (w == x))
        t = PossibilityTable(schema, np.exp(log_pi - log_pi.max()))
        assert loop_residual_witness(t, four_cycle(), TNorm.product()) is None
        res = factorizes(t, four_cycle(), TNorm.product())
        assert res.status == "no"
        assert res.witness is None
        assert res.reason == BOX_REASON

    @pytest.mark.parametrize("tn", [TNorm.lukasiewicz(), TNorm.product()],
                             ids=lambda t: t.describe())
    def test_table_consistent_within_eps_factorizes(self, tn):
        # cells moved by 1e-6 keep the residual within its bound at eps = 1e-5;
        # the factors found must recombine within eps (here the terms fitted
        # to the anchored cells alone would not)
        schema = Schema.binary(*(f"V{i}" for i in range(6)))
        rng = np.random.default_rng(4)
        t, anchor = planted(schema, chain_of(6), tn, rng, 0.9)
        t = jittered(t, anchor, rng, 1e-6)
        res = factorizes(t, chain_of(6), tn, eps=1e-5)
        assert res.is_yes
        ok, _ = verify(t, chain_of(6), res.factorization, 1e-5)
        assert ok
        res = factorizes(t, chain_of(6), tn)
        assert res.status == "no" and res.witness is not None

    def test_exact_rational_product_chain(self):
        f1 = [[Fraction(1), Fraction(1, 2)], [Fraction(1, 3), Fraction(3, 4)]]
        f2 = [[Fraction(1), Fraction(2, 5)], [Fraction(5, 6), Fraction(1, 7)]]
        values = np.empty((2, 2, 2), dtype=object)
        for x, y, z in iter_product((0, 1), repeat=3):
            values[x, y, z] = f1[x][y] * f2[y][z]
        t = PossibilityTable(Schema.binary("X", "Y", "Z"), values)
        res = factorizes(t, chain_graph(), TNorm.product(), eps=0)
        assert res.is_yes
        ok, _ = verify(t, chain_graph(), res.factorization, 1e-7)
        assert ok
        values[1, 1, 0] *= Fraction(1, 2)
        t = PossibilityTable(t.schema, values)
        res = factorizes(t, chain_graph(), TNorm.product(), eps=0)
        assert res.status == "no"
        assert res.witness == loop_residual_witness(t, chain_graph(), TNorm.product(), 0)
        assert res.witness is not None

    @pytest.mark.parametrize("tn", [TNorm.product(), TNorm.lukasiewicz()],
                             ids=lambda t: t.describe())
    def test_no_linear_system_is_built_for_a_no(self, tn, rng, monkeypatch):
        def refuse(*args):
            raise AssertionError("linear system built")

        t, anchor = planted(Schema.binary("X", "Y", "Z"), chain_graph(), tn, rng, 0.98)
        values = t.values.copy()
        values[tuple(1 - k for k in anchor)] *= 0.5
        monkeypatch.setattr(posscheck.factorization, "_anchored_system", refuse)
        res = factorizes(PossibilityTable(t.schema, values), chain_graph(), tn)
        assert res.status == "no" and res.witness is not None

    @pytest.mark.parametrize("tn", [TNorm.product(), TNorm.lukasiewicz()],
                             ids=lambda t: t.describe())
    def test_gray_zone_no_carries_the_recombination_witness(self, tn):
        # every cell but the anchor moves by 0.99 tau against the signs of
        # row c of the projection P, so the residual stays within its bound
        # while the fitted factors miss the table by more than eps: a "no"
        # although the planted table lies within eps
        eps = 1e-5
        schema = Schema.binary(*(f"V{i}" for i in range(5)))
        graph = chain_of(5)
        t, anchor = planted(schema, graph, tn, np.random.default_rng(0), 0.9)
        rescale = loop_rescaled(graph, tn)
        values = t.values.ravel()
        f = np.array([rescale(v) for v in values])
        tau = np.array([max(abs(rescale(v + d) - rescale(v)) for d in (eps, -eps))
                        for v in values])
        matrix, _, _ = TestDesignMatrix._loop_matrix(schema, graph.cliques())
        projector = matrix @ np.linalg.pinv(matrix)
        c = int((np.abs(projector) @ tau).argmax())
        moved = f + 0.99 * tau * np.sign(-projector[c])
        moved[np.ravel_multi_index(anchor, schema.shape)] = f[np.ravel_multi_index(
            anchor, schema.shape)]
        if tn.base == "product":
            moved = np.exp(moved)
        else:
            moved = moved - (len(graph.cliques()) - 1)
        gray = PossibilityTable(schema, moved.reshape(schema.shape))
        assert np.abs(gray.values - t.values).max() <= eps
        res = factorizes(gray, graph, tn, eps)
        assert res.status == "no"
        assert res.reason == VERIFY_REASON
        assert res.witness is not None

    @pytest.mark.parametrize("tn, low, floor", [
        (TNorm.product(), 0.9, 12), (TNorm.product(), 0.5, 8),
        (TNorm.product(2.0), 0.9, 12), (TNorm.product(2.0), 0.5, 4),
        (TNorm.lukasiewicz(), 0.9, 11),
    ], ids=["product-0.9", "product-0.5", "product^2-0.9", "product^2-0.5", "lukasiewicz-0.9"])
    def test_jittered_chains_within_eps(self, tn, low, floor):
        # planted chains with every cell but the anchor moved by 1e-6 or
        # 2e-6 lie within eps = 1e-5 of a factorization: the residual never
        # rejects them, and at least as many get "yes" as under the
        # least-squares test that preceded the mixed differences
        yes = 0
        for n in (5, 6, 8):
            schema = Schema.binary(*(f"V{i}" for i in range(n)))
            for s in range(8):
                rng = np.random.default_rng(1000 * n + s)
                t, anchor = planted(schema, chain_of(n), tn, rng, low)
                t = jittered(t, anchor, rng, 1e-6 if s % 2 else 2e-6)
                res = factorizes(t, chain_of(n), tn, eps=1e-5)
                assert RESIDUAL_REASON not in res.reason
                yes += res.is_yes
        assert yes >= floor
