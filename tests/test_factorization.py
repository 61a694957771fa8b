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


def loop_mixed_difference_witness(table, graph, tn, eps=EPS):
    """First assignment, first variable cycling fastest, at which some
    non-edge {u, v} has a mixed difference f - f[u<-0] - f[v<-0] + f[u,v<-0]
    beyond eps, where f is log phi(pi) for the product family and
    phi(pi) + (cliques - 1) for the Lukasiewicz family; None if there is none."""
    schema = table.schema
    p = tn.transform.p if tn.transform is not None else 1.0
    shift = len(graph.cliques()) - 1

    def f(idx):
        value = float(table.values[idx]) ** p
        return math.log(value) if tn.base == "product" else value + shift

    def reset(idx, *axes):
        return tuple(0 if i in axes else k for i, k in enumerate(idx))

    names = schema.variables
    non_edges = [(a, b) for a, b in combinations(range(len(names)), 2)
                 if names[b] not in graph.neighbors(names[a])]
    for assignment in schema.assignments():
        idx = schema.multi_index(assignment)
        for a, b in non_edges:
            d = f(idx) - f(reset(idx, a)) - f(reset(idx, b)) + f(reset(idx, a, b))
            if abs(d) > eps:
                return assignment
    return None


BOX_REASON = ("the clique-local linear system for the rescaled table is "
              "infeasible within the unit interval")


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
            yield schema, random_graph(rng, names).cliques()

    def test_projection_is_the_least_squares_fit(self, rng):
        for schema, cliques in self._cases(rng):
            matrix, _, _ = TestDesignMatrix._loop_matrix(schema, cliques)
            f = rng.normal(3.0, 1.0, schema.shape)
            solution, _, _, _ = np.linalg.lstsq(matrix, f.ravel(), rcond=None)
            got = _clique_sum_projection(f, schema, cliques)
            assert got.shape == schema.shape
            assert np.abs(got.ravel() - matrix @ solution).max() <= 1e-10

    def test_anchored_cells_fix_every_cell(self, rng):
        for schema, cliques in self._cases(rng):
            full, _, _ = TestDesignMatrix._loop_matrix(schema, cliques)
            _, matrix, _, _ = _anchored_system(schema, cliques)
            assert matrix.shape[0] <= matrix.shape[1]
            assert np.linalg.matrix_rank(matrix) == np.linalg.matrix_rank(full)


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
    """Strictly positive tables under Archimedean t-norms: the non-edge mixed
    differences of the rescaled table decide, and the box decides the rest."""

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
                assert res.witness == loop_mixed_difference_witness(t, graph, tn)
                assert "not a sum of clique terms" in res.reason

    def test_frustrated_product_four_cycle_needs_the_box(self):
        # log pi = -[x != y] - [y != z] - [z != w] - [w == x], shifted to a
        # maximum of 0: a sum of edge terms, so every mixed difference is 0,
        # but every edge takes the value 0 on some cell where the table is 1,
        # so factors in (0, 1] would all be 1 on those cells and sum to 0
        schema = Schema.binary("X", "Y", "Z", "W")
        x, y, z, w = np.indices(schema.shape)
        log_pi = -1.0 * ((x != y).astype(float) + (y != z) + (z != w) + (w == x))
        t = PossibilityTable(schema, np.exp(log_pi - log_pi.max()))
        assert loop_mixed_difference_witness(t, four_cycle(), TNorm.product()) is None
        res = factorizes(t, four_cycle(), TNorm.product())
        assert res.status == "no"
        assert res.witness is None
        assert res.reason == BOX_REASON

    @pytest.mark.parametrize("tn", [TNorm.lukasiewicz(), TNorm.product()],
                             ids=lambda t: t.describe())
    def test_table_consistent_within_eps_factorizes(self, tn):
        # cells moved by 1e-6 keep every mixed difference within eps = 1e-5;
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
        assert res.witness == loop_mixed_difference_witness(
            t, chain_graph(), TNorm.product(), 1e-12
        )
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
