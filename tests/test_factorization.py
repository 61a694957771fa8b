"""Combining, verifying and constructing clique factorizations."""

from itertools import product as iter_product

import numpy as np
import pytest

from posscheck import (
    Factorization,
    PositivityError,
    PossibilityTable,
    Schema,
    SchemaError,
    TNorm,
    UndirectedGraph,
    UnsupportedTNormError,
    construct_strict_positive,
    factorizes,
    global_markov,
    verify,
)
from posscheck.corpus import builtin_example
from posscheck.factorization import _design_matrix

from conftest import ARCHIMEDEAN_TNORMS, BASE_TNORMS, random_graph, random_table

EPS = 1e-9


def chain_graph():
    return UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z")])


def factor(names, values):
    return PossibilityTable(Schema.binary(*names), np.asarray(values, dtype=float))


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
    @pytest.mark.parametrize("tn", [TNorm.product(), TNorm.product(2.0)],
                             ids=lambda t: t.describe())
    def test_product_family_round_trip(self, tn, rng):
        schema = Schema.binary("X", "Y", "Z")
        for _ in range(10):
            f1 = rng.uniform(0.1, 1.0, (2, 2)); f1[0, 0] = 1.0
            f2 = rng.uniform(0.1, 1.0, (2, 2)); f2[0, 0] = 1.0
            built = Factorization(tn, {
                ("X", "Y"): factor(["X", "Y"], f1),
                ("Y", "Z"): factor(["Y", "Z"], f2),
            })
            t = built.combine(schema)
            got = construct_strict_positive(t, chain_graph(), tn)
            assert got is not None
            assert np.abs(got.combine(schema).values - t.values).max() <= EPS

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
            got = construct_strict_positive(t, chain_graph(), tn)
            assert got is not None
            assert np.abs(got.combine(schema).values - t.values).max() <= EPS

    def test_dependent_positive_table_is_rejected_by_the_solve(self):
        # the strictly positive diagonal is not product-independent of
        # anything, so the linear system must be inconsistent
        t = builtin_example(2).table()
        g = UndirectedGraph.from_edges([("Y", "Z")], isolated=["X"])
        assert construct_strict_positive(t, g, TNorm.product()) is None

    def test_godel_not_supported(self):
        t = builtin_example(2).table()
        with pytest.raises(UnsupportedTNormError):
            construct_strict_positive(t, chain_graph(), TNorm.godel())

    def test_zero_cells_rejected(self):
        t = builtin_example(1).table()
        with pytest.raises(PositivityError):
            construct_strict_positive(t, chain_graph(), TNorm.product())


class TestDesignMatrix:
    """The vectorized design matrix against the per-cell loop it replaced."""

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

    def test_matches_the_cell_loop_on_permuted_schemas(self, rng):
        for _ in range(30):
            t = random_table(rng, max_vars=5, max_domain=3)
            names = [str(n) for n in rng.permutation(t.schema.variables)]
            schema = Schema([(n, t.schema.domain(n)) for n in names])
            cliques = random_graph(rng, names).cliques()
            matrix, subs, offsets = _design_matrix(schema, cliques)
            want, want_subs, want_offsets = self._loop_matrix(schema, cliques)
            assert matrix.dtype == want.dtype and np.array_equal(matrix, want)
            assert subs == want_subs
            assert np.array_equal(offsets, want_offsets)
            assert (matrix.sum(axis=1) == len(cliques)).all()


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
