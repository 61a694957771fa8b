"""Pairwise/local/global Markov properties and the implication chain."""

import gc
import time
import tracemalloc
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posscheck.markov
import posscheck.independence
from posscheck import (
    DEFAULT_EPSILON,
    DomainError,
    Factorization,
    IndependenceStatement,
    InternalInconsistencyError,
    MarkovReport,
    PossibilityTable,
    Schema,
    SchemaError,
    TNorm,
    UndirectedGraph,
    chain_report,
    global_markov,
    local_markov,
    pairwise_markov,
    scan_axioms,
    violations,
)
from posscheck.corpus import builtin_example
from posscheck.factorization import _clique_fold
from posscheck.independence import decide_many, independent
from posscheck.markov import (
    _component_statements,
    _exhaustive_statements,
    _local_statements,
    _named,
    _pairwise_statements,
)

from conftest import (
    ALL_TNORMS,
    ARCHIMEDEAN_TNORMS,
    BASE_TNORMS,
    jittered,
    oracle_component_statements,
    oracle_exhaustive_statements,
    oracle_local_statements,
    oracle_pairwise_statements,
    planted,
    random_graph,
    random_table,
    routes_taken,
)


def clique_fold_table(rng, graph, tn, eps, jitter, low=None):
    """(a table, the fold of clique factors it lies within ``jitter * eps``
    of), each cell of the fold moved by that much up or down (clipped to
    [0, 1]).  A fifth of the variables are ternary.  The factors are uniform in [0, 1] with a
    fifth of their cells 0, or, given ``low``, strictly positive with a fold
    of at least ``low``: for k cliques, uniform in [low^(1/k), 1] under
    product, and under Lukasiewicz within 0.9 / k of 1, where the fold never
    truncates."""
    schema = Schema([(v, "012" if rng.random() < 0.2 else "01") for v in graph.vertices])
    cliques = graph.cliques()
    factors = {}
    for clique in cliques:
        sub = schema.project(clique)
        if low is None:
            values = rng.uniform(0.0, 1.0, sub.shape)
            values[rng.random(sub.shape) < 0.2] = 0.0
        elif tn.base == "lukasiewicz":
            values = 1.0 - rng.uniform(0.0, 0.9 / len(cliques), sub.shape)
        else:
            values = rng.uniform(low ** (1 / len(cliques)), 1.0, sub.shape)
        factors[clique] = PossibilityTable(sub, values)
    fold = Factorization(tn, factors).fold(schema)
    return PossibilityTable(schema, np.clip(
        fold + rng.choice([-1, 1], schema.shape) * jitter * eps, 0.0, 1.0)), fold


def model(number):
    m = builtin_example(number)
    return m.table(), m.graph()


CHAIN = UndirectedGraph(["A", "B", "C"], [("A", "B"), ("B", "C")])


def chain_table(combine, nudge=0.0):
    """A table on the chain A - B - C: two clique factors combined cell by
    cell through ``combine``, with the last cell lowered by ``nudge``."""
    values = combine(np.array([[1, .6], [.7, .5]])[:, :, None],
                     np.array([[1, .8], [.4, .9]])[None])
    values[1, 1, 1] -= nudge
    return PossibilityTable(Schema.binary("A", "B", "C"), values)


class TestPairwiseNotLocal:
    """Diagonal three-variable table on an edge plus an isolated vertex."""

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_pairwise_holds(self, tn):
        t, g = model(3)
        assert pairwise_markov(t, g, tn).holds

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_local_fails_at_the_isolated_vertex(self, tn):
        t, g = model(3)
        rep = local_markov(t, g, tn)
        assert not rep.holds
        stmt, assignment = rep.witness
        assert stmt.a == ("X",) and stmt.b == ("Y", "Z") and stmt.given == ()
        assert assignment == {"X": "1", "Y": "0", "Z": "0"}

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_global_fails(self, tn):
        t, g = model(3)
        assert not global_markov(t, g, tn).holds

    def test_pairwise_holds_even_on_the_edgeless_graph(self):
        t, _ = model(3)
        g = UndirectedGraph(["X", "Y", "Z"])
        for tn in BASE_TNORMS:
            assert pairwise_markov(t, g, tn).holds


class TestLocalNotGlobal:
    """Two-cell table on the five-vertex path."""

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_local_holds(self, tn):
        t, g = model(4)
        assert local_markov(t, g, tn).holds

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_pairwise_holds(self, tn):
        t, g = model(4)
        assert pairwise_markov(t, g, tn).holds

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_global_fails_across_the_middle(self, tn):
        t, g = model(4)
        rep = global_markov(t, g, tn)
        assert not rep.holds
        stmt, assignment = rep.witness
        assert stmt.a == ("U", "W") and stmt.b == ("Y", "Z") and stmt.given == ("X",)
        assert assignment == {"U": "0", "W": "0", "X": "0", "Y": "0", "Z": "0"}

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_exhaustive_mode_agrees(self, tn):
        t, g = model(4)
        assert not global_markov(t, g, tn, exhaustive=True).holds


class TestGlobalHolds:
    """Crisp eight-cell table on the four-cycle."""

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_global_holds(self, tn):
        t, g = model(5)
        assert global_markov(t, g, tn).holds

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_whole_chain_holds(self, tn):
        t, g = model(5)
        rep = chain_report(t, g, tn)
        assert rep.global_report.holds and rep.local_report.holds and rep.pairwise_report.holds


class TestVacuousCases:
    def test_complete_graph_pairwise_and_local_hold_vacuously(self):
        t, _ = model(3)
        g = UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z"), ("X", "Z")])
        p = pairwise_markov(t, g, TNorm.godel())
        assert p.holds and not p.checked
        l = local_markov(t, g, TNorm.godel())
        assert l.holds and not l.checked
        assert len(l.skipped) == 3

    def test_single_edge_two_vertex_graph_global_is_vacuous(self):
        schema = Schema.binary("A", "B")
        t = PossibilityTable.load(schema, [], 1.0)
        g = UndirectedGraph.from_edges([("A", "B")])
        rep = global_markov(t, g, TNorm.godel())
        assert rep.holds and not rep.checked

    # (chunk budget, cache budget) of each route of the decider: one chunk
    # on the table's lattice, joint blocks of it, and no lattice
    @pytest.mark.parametrize("chunk, cache", [(1 << 40, 1 << 40), (0, 1 << 40), (None, 0)],
                             ids=["one-chunk", "joint-blocks", "fallback"])
    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_a_one_variable_chain_holds(self, chunk, cache, exhaustive, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(posscheck.independence, "_CHUNK_CELLS", chunk)
        monkeypatch.setattr(posscheck.independence, "_CACHE_CELLS", cache)
        g = UndirectedGraph(["X"])
        for values, eps in (([1.0, 0.5], 1e-9), (np.array([1, Fraction(1, 2)], object), 0)):
            t = PossibilityTable(Schema.binary("X"), values)
            rep = chain_report(t, g, TNorm.product(), eps, exhaustive=exhaustive)
            reports = (rep.global_report, rep.local_report, rep.pairwise_report)
            assert all(r.holds and r.checked == () and r.witness is None for r in reports)
            assert rep.local_report.skipped == ({"a": ("X",), "b": (), "given": ()},)

    def test_vertex_mismatch_rejected(self):
        t, _ = model(3)
        g = UndirectedGraph.from_edges([("X", "Q")])
        with pytest.raises(SchemaError):
            pairwise_markov(t, g, TNorm.godel())


class TestModesAgree:
    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_component_and_exhaustive_verdicts_match(self, tn, rng):
        for _ in range(10):
            t = random_table(rng, max_vars=5, max_domain=2)
            g = random_graph(rng, t.schema.variables)
            fast = global_markov(t, g, tn)
            slow = global_markov(t, g, tn, exhaustive=True)
            assert fast.holds == slow.holds

    def test_modes_agree_on_planted_tables_jittered_at_the_scale_of_eps(self, rng):
        # the component enumeration reaches the other separated triples by
        # decomposition, which keeps an absolute eps exactly; a faster
        # enumeration must keep agreeing with the exhaustive one here
        verdicts = []
        for tn in ALL_TNORMS:
            for _ in range(40):
                n = int(rng.integers(3, 6))
                schema = Schema.binary(*(f"V{i}" for i in range(n)))
                g = random_graph(rng, schema.variables)
                t, anchor = planted(schema, g, tn, rng, 0.25)
                t = jittered(t, anchor, rng, rng.uniform(1e-7, 1e-6))
                fast = global_markov(t, g, tn, eps=1e-6)
                slow = global_markov(t, g, tn, eps=1e-6, exhaustive=True)
                assert fast.holds == slow.holds, (tn.describe(), g.edges, t.values)
                verdicts.append(fast.holds)
        assert True in verdicts and False in verdicts


def bits(graph, order):
    return [graph._mask((v,)) for v in order]


class TestSeparatorEnumeration:
    """The four mask enumerations, named by the runner's ``_named``, list the
    name-level oracles' statements, in their order."""

    def assert_matches_oracles(self, graph, order):
        masks = bits(graph, order)
        local, local_skipped = oracle_local_statements(graph, order)
        cases = [
            (_component_statements(graph, masks), oracle_component_statements(graph, order), ()),
            (_pairwise_statements(graph, masks), oracle_pairwise_statements(graph, order), ()),
            (_local_statements(graph, masks), local, local_skipped),
        ]
        if len(order) <= 5:
            cases.append((_exhaustive_statements(graph, masks, order),
                          oracle_exhaustive_statements(graph, order), ()))
        for triples, oracle, oracle_skipped in cases:
            statements, skipped = _named(graph, triples)
            validated = list(oracle)
            assert skipped == oracle_skipped
            # built without the checks of __post_init__, yet equal to the
            # validated statements, hash included
            assert statements == validated
            assert list(map(hash, statements)) == list(map(hash, validated))

    def test_random_graphs(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 8))
            names = [f"V{i}" for i in range(n)]
            order = [names[k] for k in rng.permutation(n)]
            self.assert_matches_oracles(random_graph(rng, names), order)

    def test_schema_order_differs_from_name_order(self, rng):
        # V10 and V11 sort before V8 and V9, so bit order is not schema order
        names = ["V8", "V9", "V10", "V11"]
        for _ in range(20):
            order = [names[k] for k in rng.permutation(4)]
            self.assert_matches_oracles(random_graph(rng, order), names)
            self.assert_matches_oracles(random_graph(rng, names), order)

    def test_isolated_vertices(self):
        g = UndirectedGraph.from_edges([("V9", "V10"), ("V10", "V11")], isolated=["V8", "V12"])
        self.assert_matches_oracles(g, ["V12", "V9", "V8", "V11", "V10"])
        self.assert_matches_oracles(UndirectedGraph(["V8"]), ["V8"])

    @pytest.mark.parametrize("n", [1, 2, 5, 7])
    def test_edgeless_and_complete_graphs(self, n):
        names = [f"V{i + 8}" for i in range(n)]
        edgeless = UndirectedGraph(names)
        complete = UndirectedGraph(names, combinations(names, 2))
        self.assert_matches_oracles(edgeless, names)
        self.assert_matches_oracles(complete, names[::-1])
        assert list(_component_statements(complete, bits(complete, names))) == []
        # every vertex of the complete graph is skipped by the local property
        assert len(_named(complete, _local_statements(complete, bits(complete, names)))[1]) == n

    def test_no_public_graph_call_per_subset(self, monkeypatch, rng):
        # the Markov checks read the graph's masks; a validating public call
        # per separator, per role vector or per vertex pair would count here
        calls = []
        for method in ("components", "separates", "neighbors"):
            original = getattr(UndirectedGraph, method)

            def counted(self, *args, _original=original, _method=method, **kwargs):
                calls.append(_method)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(UndirectedGraph, method, counted)
        schema = Schema.binary(*(f"V{i}" for i in range(8)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        t, _ = planted(schema, g, TNorm.product(), rng, 0.3)
        assert global_markov(t, g, TNorm.product()).holds
        report = chain_report(t, g, TNorm.product())
        assert [holds for _, holds in report.summary()] == [True, True, True]
        assert calls == []


class TestAxisMasks:
    """The runner moves its name-sorted graph masks to schema axes and
    decides them by joint; its reports equal those of deciding each
    statement alone through ``independent``, witness included."""

    @staticmethod
    def assert_matches_independent(report, table, tn):
        results = [independent(table, tn, stmt) for stmt, _ in report.checked]
        assert report.checked == tuple((r.statement, r.holds) for r in results)
        failing = next((r for r in results if not r.holds), None)
        assert report.holds == (failing is None)
        assert report.witness == (None if failing is None else (failing.statement,
                                                                failing.witness))

    @pytest.mark.parametrize("n, trials", [(4, 12), (6, 6), (11, 2)])
    def test_reports_on_schemas_out_of_name_order(self, n, trials, rng):
        # V10 sorts before V2, and the schema order is a random permutation
        names = [f"V{i}" for i in range(n)]
        for trial in range(trials):
            order = [names[k] for k in rng.permutation(n)]
            schema = Schema([(v, "012" if rng.random() < 0.25 else "01") for v in order])
            graph = random_graph(rng, names)
            tn = ALL_TNORMS[trial % len(ALL_TNORMS)]
            t, anchor = planted(schema, graph, tn, rng, 0.5)
            if trial % 2:
                t = jittered(t, anchor, rng, 1e-3)
            reports = [pairwise_markov(t, graph, tn), local_markov(t, graph, tn),
                       global_markov(t, graph, tn)]
            if n <= 6:
                reports.append(global_markov(t, graph, tn, exhaustive=True))
            for report in reports:
                self.assert_matches_independent(report, t, tn)
            assert reports[1].skipped == tuple(oracle_local_statements(graph, order)[1])
            assert reports[0].skipped == reports[2].skipped == ()

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_exact_tables_out_of_name_order(self, tn, rng):
        names = ["V9", "V10", "V11", "V8", "V2"]
        for _ in range(3):
            graph = random_graph(rng, sorted(names))
            t, _ = planted(Schema.binary(*names), graph, tn, rng, 0.5)
            values = np.array([Fraction(str(round(v, 3))) for v in t.values.flat],
                              dtype=object).reshape(t.values.shape)
            x = PossibilityTable(t.schema, values / values.max())
            for exhaustive in (False, True):
                report = global_markov(x, graph, tn, eps=0, exhaustive=exhaustive)
                results = [independent(x, tn, stmt, eps=0) for stmt, _ in report.checked]
                assert report.checked == tuple((r.statement, r.holds) for r in results)


class TestMemory:
    def test_global_markov_on_a_chain_of_twelve(self, rng, lattices, uncertified):
        # 19,565 statements on one joint of 4,096 cells, whose lattice spans
        # 3^12 = 531,441 cells (4 MiB); the peak measured 12.6 MiB, and 13.5
        # MiB when this list took the kept-maxima path
        schema = Schema.binary(*(f"V{i}" for i in range(12)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        t, _ = planted(schema, g, TNorm.product(), rng, 0.3)
        tracemalloc.start()
        try:
            report = global_markov(t, g, TNorm.product())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.holds and len(report.checked) == 19_565
        assert lattices == [(2,) * 12]
        assert peak < 14 * 2 ** 20


class TestExactChain:
    def test_global_markov_on_an_exact_chain_of_ten_takes_under_a_second(self, rng):
        # 3,036 statements on one joint of 1,024 Fraction cells: products of
        # quarter-grid factors, decided on int64 numerators over 4**9
        schema = Schema.binary(*(f"V{i}" for i in range(10)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        tn = TNorm.product()
        factors = {}
        for clique in g.cliques():
            values = rng.choice([0.25, 0.5, 0.75, 1.0], (2, 2))
            values[0, 0] = 1.0
            factors[clique] = PossibilityTable(schema.project(clique), values)
        t = Factorization(tn, factors).combine(schema)
        exact = PossibilityTable(schema, np.array([Fraction(v) for v in t.values.flat],
                                                  dtype=object).reshape(schema.shape))
        start = time.perf_counter()
        report = global_markov(exact, g, tn, eps=0)
        elapsed = time.perf_counter() - start
        assert report.holds and len(report.checked) == 3_036
        assert report.checked == global_markov(t, g, tn).checked
        assert elapsed < 1.0


class TestImplicationChain:
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_no_chain_inversions_on_random_models(self, tn, rng):
        for _ in range(10):
            t = random_table(rng, max_vars=4, max_domain=2)
            g = random_graph(rng, t.schema.variables)
            gc = global_markov(t, g, tn).holds
            lc = local_markov(t, g, tn).holds
            pc = pairwise_markov(t, g, tn).holds
            assert not (gc and not lc)
            assert not (lc and not pc)
            if len(t.schema.variables) <= 4:
                assert gc == lc

    @pytest.mark.parametrize("tn", ARCHIMEDEAN_TNORMS, ids=lambda t: t.describe())
    def test_positive_tables_collapse_the_chain(self, tn, rng):
        for _ in range(10):
            t = random_table(rng, max_vars=3, max_domain=3, positive=True)
            g = random_graph(rng, t.schema.variables)
            gc = global_markov(t, g, tn).holds
            lc = local_markov(t, g, tn).holds
            pc = pairwise_markov(t, g, tn).holds
            assert gc == lc == pc

    def test_chain_report_summary_order(self):
        t, g = model(3)
        rep = chain_report(t, g, TNorm.godel(), include_factorization=True)
        names = [name for name, _ in rep.summary()]
        assert names == ["factorization", "global", "local", "pairwise"]

    def test_chain_report_matches_individual_checks(self):
        t, g = model(4)
        rep = chain_report(t, g, TNorm.product())
        assert rep.pairwise_report.holds
        assert rep.local_report.holds
        assert not rep.global_report.holds

    def test_impossible_patterns_raise(self, monkeypatch):
        import posscheck.markov as markov_module
        from posscheck import InternalInconsistencyError, MarkovReport

        t, g = model(3)

        def fake_global(*args, **kwargs):
            return MarkovReport("global", True, ())

        monkeypatch.setattr(markov_module, "global_markov", fake_global)
        with pytest.raises(InternalInconsistencyError):
            chain_report(t, g, TNorm.godel())

    def test_local_without_pairwise_raises(self, monkeypatch):
        # exact at eps 0, where local => pairwise is a theorem
        m = builtin_example(5)
        t, g = m.table(exact=True), m.graph()
        assert chain_report(t, g, TNorm.godel(), 0).pairwise_report.holds

        def failing_pairwise(*args, **kwargs):
            return MarkovReport("pairwise", False, ())

        monkeypatch.setattr(posscheck.markov, "pairwise_markov", failing_pairwise)
        with pytest.raises(InternalInconsistencyError, match="local holds but pairwise fails"):
            chain_report(t, g, TNorm.godel(), 0)

    def test_local_without_pairwise_is_no_engine_bug_at_eps(self):
        # the empty graph on V0:3, V1:2, V2:2 and a product fold moved by
        # eps / 2: local I(V1; V0,V2 | {}) holds within eps, but pairwise
        # I(V1; V2 | V0) does not, as weak union is exact only at eps 0
        graph = UndirectedGraph(["V0", "V1", "V2"])
        t, _ = clique_fold_table(np.random.default_rng(3), graph, TNorm.product(),
                                 DEFAULT_EPSILON, 1 / 2)
        rep = chain_report(t, graph, TNorm.product())
        assert rep.local_report.holds and not rep.pairwise_report.holds
        assert rep.pairwise_report.witness == (
            IndependenceStatement(("V1",), ("V2",), ("V0",)), {"V0": "2", "V1": "0", "V2": "0"})

    def test_archimedean_factorization_without_global_raises(self, monkeypatch):
        # factors that recombine to the table within eps imply global under
        # an Archimedean t-norm, not under min
        monkeypatch.setattr(posscheck.markov, "global_markov",
                            lambda *args, **kwargs: MarkovReport("global", False, ()))
        with pytest.raises(InternalInconsistencyError, match="verified factorization"):
            chain_report(chain_table(np.multiply), CHAIN, TNorm.product(),
                         include_factorization=True)
        rep = chain_report(chain_table(np.minimum), CHAIN, TNorm.godel(),
                           include_factorization=True)
        assert rep.factorization.is_yes

    def test_a_yes_verified_beyond_eps_does_not_raise(self):
        # the strict regime verifies its factors at 1e-7, so a cell lowered
        # by 1e-8 keeps the "yes" while global fails at the default eps
        rep = chain_report(chain_table(np.multiply, nudge=1e-8), CHAIN, TNorm.product(),
                           include_factorization=True)
        assert rep.factorization.is_yes
        assert not rep.global_report.holds

    # cells of chain_table(np.multiply) moved by these multiples of the
    # default eps: within 0.9 eps of a product fold, the strict regime
    # says "yes", and global fails at eps
    NINE_TENTHS = np.array([[[0, -.9], [-.9, -.9]], [[-.9, -.9], [.9, 0]]])

    def test_a_yes_within_nine_tenths_of_eps_does_not_raise(self):
        t = chain_table(np.multiply)
        moved = PossibilityTable(t.schema, t.values + self.NINE_TENTHS * DEFAULT_EPSILON)
        rep = chain_report(moved, CHAIN, TNorm.product(), include_factorization=True)
        assert rep.factorization.is_yes
        assert not rep.global_report.holds

    @pytest.mark.parametrize("tn", [TNorm.product(), TNorm.lukasiewicz()],
                             ids=lambda t: t.describe())
    def test_no_engine_bug_on_chains_near_a_factorization(self, tn, rng):
        # X - Y - Z chains within a few eps of a fold of random factors
        for _ in range(20):
            t, anchor = planted(Schema.binary("A", "B", "C"), CHAIN, tn, rng, 0.3)
            t = jittered(t, anchor, rng, rng.choice([0.3, 0.9, 3]) * DEFAULT_EPSILON)
            chain_report(t, CHAIN, tn, include_factorization=True)

    def test_an_exact_yes_is_policed_at_a_quarter_of_eps(self, monkeypatch):
        # dyadic factors, whose product is exact
        values = np.multiply(np.array([[1, .5], [.75, .5]])[:, :, None],
                             np.array([[1, .75], [.25, .5]])[None])
        exact = PossibilityTable(Schema.binary("A", "B", "C"),
                                 np.array([Fraction(v) for v in values.flat],
                                          dtype=object).reshape(values.shape))
        monkeypatch.setattr(posscheck.markov, "global_markov",
                            lambda *args, **kwargs: MarkovReport("global", False, ()))
        for eps in (0, 1e-9):
            with pytest.raises(InternalInconsistencyError, match="verified factorization"):
                chain_report(exact, CHAIN, TNorm.product(), eps, include_factorization=True)


class TestWitnessLookups:
    """Verdicts come from ``decide_many``, which looks up no witness; a
    report looks one up, through ``independent``, only where it shows one,
    and a scan once per distinct violated consequent."""

    @pytest.fixture
    def lookups(self, monkeypatch):
        calls = []
        unhooked = Schema.first_flagged

        def counted(schema, mask):
            calls.append(schema)
            return unhooked(schema, mask)

        monkeypatch.setattr(Schema, "first_flagged", counted)
        return calls

    def test_decide_many_looks_up_no_witness(self, lookups, rng):
        t = random_table(rng, max_vars=4, max_domain=3)
        g = UndirectedGraph(t.schema.variables, [])
        stmts, _ = _named(g, _component_statements(g, bits(g, t.schema.variables)))
        verdicts = decide_many(t, TNorm.product(), stmts)
        assert False in verdicts and lookups == []

    def test_a_chain_that_holds_looks_up_no_witness(self, lookups, rng):
        schema = Schema.binary(*(f"V{i}" for i in range(6)))
        g = UndirectedGraph.from_edges([(f"V{i}", f"V{i + 1}") for i in range(5)])
        t, _ = planted(schema, g, TNorm.product(), rng, 0.3)
        rep = chain_report(t, g, TNorm.product())
        assert rep.global_report.holds and rep.local_report.holds and rep.pairwise_report.holds
        assert lookups == []

    def test_a_chain_that_fails_looks_up_one_witness_per_property(self, lookups):
        # min(f(X, Y), g(Z)) with X and Y dependent, on a graph with no edges
        f = [[1.0, 0.5], [0.5, 1.0]]
        values = [[[min(fxy, gz) for gz in (1.0, 0.75)] for fxy in row] for row in f]
        t = PossibilityTable(Schema.binary("X", "Y", "Z"), values)
        rep = chain_report(t, UndirectedGraph(["X", "Y", "Z"], []), TNorm.godel())
        reports = (rep.global_report, rep.local_report, rep.pairwise_report)
        assert not any(r.holds for r in reports)
        assert all(r.witness[1] is not None for r in reports)
        assert len(lookups) == 3

    def test_a_scan_looks_up_witnesses_for_violated_reports_only(self, lookups):
        reports = scan_axioms(builtin_example(1).table(), TNorm.godel())
        bad = violations(reports)
        assert bad and all(r.witness is not None for r in bad)
        # one lookup per distinct violated consequent: 3 for the 6 violations
        assert len(lookups) == len({r.consequent for r in bad}) == 3
        assert len(bad) == 6


@pytest.fixture
def handed(monkeypatch):
    """The statement count of each call to the runner's decider."""
    counts = []
    unhooked = posscheck.markov._decide_groups

    def counted(table, tn, masks, groups, eps):
        counts.append(len(masks[0]))
        return unhooked(table, tn, masks, groups, eps)

    monkeypatch.setattr(posscheck.markov, "_decide_groups", counted)
    return counts


def report_fields(report):
    return (report.property_name, report.holds, report.checked, report.witness,
            report.skipped, report.mode)


class TestChainVerdictMemo:
    """Within one ``chain_report`` the three properties decide each distinct
    (A, B, S) mask triple once; their reports are those of the standalone
    calls, and the memo lives only as long as the call."""

    @staticmethod
    def distinct(graph, masks, exhaustive=False, order=None):
        """The distinct decided triples of global, local and pairwise, in turn."""
        lists = [_exhaustive_statements(graph, masks, order) if exhaustive
                 else _component_statements(graph, masks),
                 _local_statements(graph, masks), _pairwise_statements(graph, masks)]
        seen, new = set(), []
        for triples in lists:
            fresh = {t for t in triples if t[0] and t[1]} - seen
            seen |= fresh
            new.append(len(fresh))
        return new

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3, 4, 5, 6, 11]),
           kind=st.sampled_from(["planted", "jittered", "random", "exact"]),
           exhaustive=st.booleans())
    def test_reports_equal_the_standalone_calls(self, seed, n, kind, exhaustive):
        rng = np.random.default_rng(seed)
        # V10 sorts before V2, and the schema order is a random permutation
        names = [f"V{i}" for i in range(n)]
        order = [names[k] for k in rng.permutation(n)]
        schema = Schema([(v, "012" if n <= 6 and rng.random() < 0.25 else "01") for v in order])
        graph = random_graph(rng, names)
        # the base t-norms come first; an exact table takes no transform
        tn = ALL_TNORMS[int(rng.integers(3 if kind == "exact" else len(ALL_TNORMS)))]
        t, anchor = planted(schema, graph, tn, rng, 0.5)
        eps = 1e-9
        if kind == "jittered":
            t = jittered(t, anchor, rng, 1e-3)
        elif kind == "random":
            values = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], schema.shape)
            values[anchor] = 1.0
            t = PossibilityTable(schema, values)
        elif kind == "exact":
            values = np.array([Fraction(str(round(v, 3))) for v in t.values.flat],
                              dtype=object).reshape(schema.shape)
            t, eps = PossibilityTable(schema, values / values.max()), 0
        exhaustive = exhaustive and n <= 6
        rep = chain_report(t, graph, tn, eps, exhaustive=exhaustive)
        alone = [global_markov(t, graph, tn, eps, exhaustive=exhaustive),
                 local_markov(t, graph, tn, eps), pairwise_markov(t, graph, tn, eps)]
        for chained, standalone in zip(
                (rep.global_report, rep.local_report, rep.pairwise_report), alone):
            assert report_fields(chained) == report_fields(standalone)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_each_distinct_statement_is_handed_over_once(self, handed, exhaustive, rng):
        names = [f"V{i}" for i in range(6)]
        for _ in range(8):
            order = [names[k] for k in rng.permutation(6)]
            graph = random_graph(rng, names)
            tn = TNorm.product()
            t, anchor = planted(Schema.binary(*order), graph, tn, rng, 0.5)
            handed.clear()
            chain_report(jittered(t, anchor, rng, 1e-3), graph, tn, exhaustive=exhaustive)
            assert handed == self.distinct(graph, bits(graph, order), exhaustive, order)

    def test_pairwise_on_a_chain_hands_over_nothing(self, handed, rng, uncertified):
        schema = Schema.binary(*(f"V{i}" for i in range(8)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        t, _ = planted(schema, g, TNorm.product(), rng, 0.3)
        rep = chain_report(t, g, TNorm.product())
        # 21 pairwise statements, every one a separated triple global decided
        assert len(rep.pairwise_report.checked) == 21
        assert handed == self.distinct(g, bits(g, schema.variables))
        assert handed[2] == 0
        # a standalone call decides its own list
        handed.clear()
        assert pairwise_markov(t, g, TNorm.product()).holds and handed == [21]

    def test_chain_report_calls_each_property_once(self, monkeypatch):
        calls = []
        for name in ("global_markov", "local_markov", "pairwise_markov"):
            original = getattr(posscheck.markov, name)

            def wrapped(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(posscheck.markov, name, wrapped)
        t, g = model(4)
        chain_report(t, g, TNorm.product())
        assert calls == ["global_markov", "local_markov", "pairwise_markov"]

    def test_the_memo_ends_with_the_call(self, handed, rng, uncertified):
        schema = Schema.binary(*(f"V{i}" for i in range(6)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        t, _ = planted(schema, g, TNorm.product(), rng, 0.3)
        chain_report(t, g, TNorm.product())
        assert posscheck.independence._KEPT.get() is None
        with pytest.raises(DomainError):
            chain_report(t, g, TNorm.product(), eps=float("nan"))
        assert posscheck.independence._KEPT.get() is None
        handed.clear()
        report = pairwise_markov(t, g, TNorm.product())
        assert handed == [len(report.checked)] == [10]

    def test_a_bad_eps_raises_with_nothing_left_to_decide(self, rng):
        names = [f"V{i}" for i in range(4)]
        complete = UndirectedGraph(names, combinations(names, 2))
        t, _ = planted(Schema.binary(*names), complete, TNorm.godel(), rng, 0.5)
        for eps in (-1, float("nan")):
            with pytest.raises(DomainError):
                pairwise_markov(t, complete, TNorm.godel(), eps=eps)
            with pytest.raises(DomainError):
                chain_report(t, complete, TNorm.godel(), eps=eps)


# a dense graph on V0..V7: global's component enumeration lists 40
# statements, and leaves local 4 to decide and pairwise none
DENSE_EDGES = ("V0-V1 V0-V2 V0-V4 V0-V5 V0-V6 V0-V7 V1-V2 V1-V4 V1-V5 V1-V6 V1-V7 V2-V3 "
               "V2-V6 V3-V5 V3-V6 V4-V5 V4-V6 V5-V6 V5-V7")


class TestChainLattice:
    """A ``chain_report`` fills the table's lattice once, for global, and
    keeps it for the call: local's leftover statements are read from it,
    though alone they would not fill one, and pairwise, with nothing left,
    decides nothing; the reports are those of the standalone calls."""

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_local_reads_the_lattice_global_built(self, tn, monkeypatch, rng):
        names = [f"V{i}" for i in range(8)]
        graph = UndirectedGraph(names, [e.split("-") for e in DENSE_EDGES.split()])
        # 3^8 cells: local's 4 statements span more than one chunk, so they
        # are read in a ``_joint_chunks`` call, not as one chunk
        schema = Schema([(v, "012") for v in names])
        t, anchor = planted(schema, graph, tn, rng, 0.3)
        t = jittered(t, anchor, rng, 1e-3)
        new = TestChainVerdictMemo.distinct(graph, bits(graph, names))
        assert new == [40, 4, 0]
        assert not posscheck.independence._fits(schema.shape, new[1])
        alone = [global_markov(t, graph, tn), local_markov(t, graph, tn),
                 pairwise_markov(t, graph, tn)]
        lattices, handed = routes_taken(monkeypatch)
        rep = chain_report(t, graph, tn)
        assert lattices == [schema.shape]
        # global's component statements and local's leftovers, each one
        # group on the table, are handed the table's lattice; a failing
        # report's witness lookup follows its decision, on its own joint
        lookups = [[False] * (not r.holds) for r in alone]
        assert handed == [True, *lookups[0], True, *lookups[1], *lookups[2]]
        for chained, standalone in zip(
                (rep.global_report, rep.local_report, rep.pairwise_report), alone):
            assert report_fields(chained) == report_fields(standalone)


class TestExactNumeratorsPerChain:
    """An exact ``chain_report`` writes its table as integer numerators once,
    for its decisions and its witness lookups alike, and keeps nothing once
    it returns or raises, its lattice included; a standalone call builds
    its own."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The table of each ``_numerators`` call."""
        tables = []
        unhooked = posscheck.independence._numerators

        def counted(table, tn, eps):
            tables.append(table)
            return unhooked(table, tn, eps)

        monkeypatch.setattr(posscheck.independence, "_numerators", counted)
        return tables

    @pytest.fixture
    def lattice_refs(self, monkeypatch):
        """A weak reference to each lattice built (call ``gc.collect()``
        before asking which are alive)."""
        refs = []
        unhooked = posscheck.independence._lattice

        def tracked(pi):
            z = unhooked(pi)
            refs.append(weakref.ref(z))
            return z

        monkeypatch.setattr(posscheck.independence, "_lattice", tracked)
        return refs

    @staticmethod
    def exact(table):
        values = [Fraction(v) for v in table.values.flat]
        return PossibilityTable(table.schema, np.array(values, object).reshape(table.values.shape))

    def test_a_passing_chain_builds_once(self, builds, rng):
        # a product of quarter-grid factors is exact in floating point
        schema = Schema.binary(*(f"V{i}" for i in range(6)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        tn = TNorm.product()
        factors = {}
        for clique in g.cliques():
            values = rng.choice([0.25, 0.5, 0.75, 1.0], (2, 2))
            values[0, 0] = 1.0
            factors[clique] = PossibilityTable(schema.project(clique), values)
        x = self.exact(Factorization(tn, factors).combine(schema))
        rep = chain_report(x, g, tn, eps=0)
        assert rep.global_report.holds and rep.local_report.holds and rep.pairwise_report.holds
        assert builds == [x]
        assert posscheck.independence._KEPT.get() is None
        builds.clear()
        stmt = rep.global_report.checked[0][0]
        assert global_markov(x, g, tn, eps=0).holds and independent(x, tn, stmt, eps=0).holds
        assert builds == [x, x]

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_a_failing_chain_builds_once(self, builds, lattice_refs, tn):
        # min(f(X, Y), g(Z)) with X and Y dependent, on a graph with no edges:
        # each property fails and looks up its witness
        f = [[1.0, 0.5], [0.5, 1.0]]
        values = [[[min(fxy, gz) for gz in (1.0, 0.75)] for fxy in row] for row in f]
        x = self.exact(PossibilityTable(Schema.binary("X", "Y", "Z"), values))
        rep = chain_report(x, UndirectedGraph(["X", "Y", "Z"], []), tn, eps=0)
        reports = (rep.global_report, rep.local_report, rep.pairwise_report)
        assert not any(r.holds for r in reports)
        assert all(r.witness[1] is not None for r in reports)
        assert builds == [x]
        assert posscheck.independence._KEPT.get() is None
        # global's statements fit the table's lattice, which the chain keeps
        # for local and pairwise and drops on return
        gc.collect()
        assert len(lattice_refs) == 1 and lattice_refs[0]() is None

    def test_nothing_is_kept_after_a_raise(self, builds, lattice_refs, monkeypatch, rng):
        t, g = model(4)
        x = self.exact(t)

        def failing(*args, **kwargs):
            raise RuntimeError("pairwise")

        with monkeypatch.context() as patched:
            patched.setattr(posscheck.markov, "pairwise_markov", failing)
            original = posscheck.markov.local_markov

            def local(*args, **kwargs):
                # global's lattice is kept for the rest of the chain
                gc.collect()
                assert len(lattice_refs) == 1 and lattice_refs[0]() is not None
                return original(*args, **kwargs)

            patched.setattr(posscheck.markov, "local_markov", local)
            with pytest.raises(RuntimeError, match="pairwise"):
                chain_report(x, g, TNorm.product(), eps=0)
        assert builds == [x]
        assert posscheck.independence._KEPT.get() is None
        gc.collect()
        assert len(lattice_refs) == 1 and lattice_refs[0]() is None
        pairwise_markov(x, g, TNorm.product(), eps=0)
        assert builds == [x, x]


def separated_errors(table, graph, tn):
    """The float error max |T(R(pi(AS), pi(S)), pi(BS)) - pi(ABS)| of every
    separated triple (A, B | S), through ``tn``'s kernels."""
    names = table.schema.variables
    masks = bits(graph, names)
    axes = {bit: i for i, bit in enumerate(masks)}
    errors = []
    for a, b, s in _exhaustive_statements(graph, masks, names):
        unused = sum(masks) ^ (a | b | s)

        def maximum(drop):
            return table.values.max(axis=tuple(axes[m] for m in masks if m & drop),
                                    keepdims=True)

        rec = tn.apply_array(tn.residual_array(maximum(b | unused), maximum(a | b | unused)),
                             maximum(a | unused))
        errors.append(float(np.abs(rec - maximum(unused)).max()))
    return errors


@st.composite
def certificate_graphs(draw):
    """Chains, trees, chordal graphs built from a perfect sequence, grids and
    random graphs, on V0..V(n-1)."""
    kind = draw(st.sampled_from(["chain", "tree", "chordal", "grid", "random"]))
    if kind == "grid":
        cols = draw(st.integers(2, 3))
        names = [f"V{i}" for i in range(2 * cols)]
        edges = [(names[i], names[i + 1]) for i in range(2 * cols) if (i + 1) % cols]
        edges += [(names[i], names[i + cols]) for i in range(cols)]
        return UndirectedGraph(names, edges)
    n = draw(st.integers(2, 6))
    names = [f"V{i}" for i in range(n)]
    edges = []
    if kind == "chain":
        edges = list(zip(names, names[1:]))
    elif kind == "tree":
        edges = [(names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, n)]
    elif kind == "chordal":
        # each new vertex joins part of an earlier clique, so it is
        # simplicial when added: the cliques form a perfect sequence
        cliques = [[names[0]]]
        for v in names[1:]:
            base = draw(st.sampled_from(cliques))
            joined = [u for u in base if draw(st.booleans())]
            edges += [(u, v) for u in joined]
            cliques.append(joined + [v])
    else:
        pairs = list(combinations(names, 2))
        edges = [p for p in pairs if draw(st.booleans())]
    return UndirectedGraph(names, edges)


@st.composite
def non_chordal_graphs(draw):
    """Cycles of 4 to 7 vertices, 2 x k and 3 x k grids (k = 2 or 3, the
    3 x 3 grid rarely) and random graphs of 4 to 6 vertices, on V0..V(n-1),
    each of them non-chordal: its clique order is not perfect."""
    kind = draw(st.sampled_from(["cycle", "grid", "random"]))
    if kind == "cycle":
        n = draw(st.integers(4, 7))
        names = [f"V{i}" for i in range(n)]
        return UndirectedGraph(names, zip(names, names[1:] + names[:1]))
    if kind == "grid":
        rows, cols = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 3), (3, 3)]))
        names = [f"V{i}" for i in range(rows * cols)]
        edges = [(names[i], names[i + 1]) for i in range(rows * cols) if (i + 1) % cols]
        edges += [(names[i], names[i + cols]) for i in range(rows * cols - cols)]
        return UndirectedGraph(names, edges)
    n = draw(st.integers(4, 6))
    names = [f"V{i}" for i in range(n)]
    graph = UndirectedGraph(names, [p for p in combinations(names, 2) if draw(st.booleans())])
    assume(not graph._clique_order[1])
    return graph


class TestCertificate:
    """A property call certified by a clique-factor fold within (eps - rho)
    / 4 of the table reports what deciding its list reports, and decides
    nothing."""

    @pytest.fixture
    def attempts(self, monkeypatch):
        """The result of each certificate attempt."""
        results = []
        unhooked = posscheck.markov._certified

        def spied(*args):
            results.append(unhooked(*args))
            return results[-1]

        monkeypatch.setattr(posscheck.markov, "_certified", spied)
        return results

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), graph=certificate_graphs(),
           tn=st.sampled_from([TNorm.godel(), TNorm.product(), TNorm.product(0.5),
                               TNorm.product(2.0), TNorm.lukasiewicz()]),
           eps=st.sampled_from([1e-9, 1e-4]),
           jitter=st.sampled_from([0, 1 / 8, (1 - 1e-3) / 4, (1 + 1e-3) / 4, 1 / 2, 3 / 4,
                                   1, 10]))
    def test_reports_equal_the_uncertified_ones(self, data, graph, tn, eps, jitter):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        self.assert_reports_equal_the_uncertified_ones(
            *clique_fold_table(rng, graph, tn, eps, jitter), graph, tn, eps)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), graph=non_chordal_graphs(),
           tn=st.sampled_from([TNorm.product(), TNorm.product(0.5), TNorm.product(2.0),
                               TNorm.lukasiewicz()]),
           eps=st.sampled_from([1e-9, 1e-4]),
           jitter=st.sampled_from([0, 1 / 8, (1 - 1e-3) / 4, (1 + 1e-3) / 4, 1 / 2, 3 / 4,
                                   1, 10]))
    def test_non_chordal_positive_reports_equal_the_uncertified_ones(self, data, graph, tn,
                                                                     eps, jitter):
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        t, fold = clique_fold_table(rng, graph, tn, eps, jitter,
                                    low=data.draw(st.sampled_from([0.05, 0.3, 0.8])))
        assert t.is_strictly_positive()
        self.assert_reports_equal_the_uncertified_ones(t, fold, graph, tn, eps)

    @staticmethod
    def assert_reports_equal_the_uncertified_ones(t, planted_fold, graph, tn, eps):
        certified = chain_report(t, graph, tn, eps)
        alone = [global_markov(t, graph, tn, eps), local_markov(t, graph, tn, eps),
                 pairwise_markov(t, graph, tn, eps)]
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(posscheck.markov, "_certified", lambda *args: False)
            decided = chain_report(t, graph, tn, eps)
        for report, standalone, uncertified in zip(
                (certified.global_report, certified.local_report, certified.pairwise_report),
                alone, (decided.global_report, decided.local_report, decided.pairwise_report)):
            assert report_fields(report) == report_fields(uncertified)
            assert report_fields(standalone) == report_fields(uncertified)
        # the bound holds for the planted fold and for the certificate's own
        # candidate, where there is one, up to that candidate's rounding bound
        worst = max(separated_errors(t, graph, tn), default=0)
        assert worst <= 4 * np.abs(t.values - planted_fold).max() + posscheck.markov._RHO
        candidate = _clique_fold(t, graph, tn)
        if candidate is not None:
            fold, rounding = candidate
            assert worst <= 4 * (np.abs(t.values - fold).max() + rounding) + posscheck.markov._RHO

    # product^p computes as product, so an exponent outside the powers'
    # supported range certifies like product
    PRODUCT_20 = TNorm.product(20.0)

    @pytest.mark.parametrize("tn", [TNorm.godel(), TNorm.product(), TNorm.product(0.5),
                                    TNorm.product(2.0), PRODUCT_20, TNorm.lukasiewicz()],
                             ids=lambda t: t.describe())
    def test_planted_chordal_tables_certify(self, tn, attempts, rng):
        schema = Schema.binary(*(f"V{i}" for i in range(6)))
        names = schema.variables
        graph = UndirectedGraph(names, [("V0", "V1"), ("V1", "V2"), ("V0", "V2"),
                                        ("V2", "V3"), ("V3", "V4"), ("V3", "V5")])
        t, anchor = planted(schema, graph, tn, rng, 0.3)
        # the candidate is built from the moved table, so it lies some
        # multiple of the move away from it
        for moved, certifies in ((0, True), (DEFAULT_EPSILON / 32, True),
                                 (DEFAULT_EPSILON, False)):
            attempts.clear()
            rep = chain_report(jittered(t, anchor, rng, moved), graph, tn)
            assert attempts[0] is certifies
            assert rep.global_report.holds or not certifies

    def test_a_certified_chain_of_twelve_builds_no_lattice(self, rng, lattices):
        # the twin of TestMemory's chain of twelve, certified
        schema = Schema.binary(*(f"V{i}" for i in range(12)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        t, _ = planted(schema, g, TNorm.product(), rng, 0.3)
        tracemalloc.start()
        try:
            report = global_markov(t, g, TNorm.product())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.holds and len(report.checked) == 19_565
        assert lattices == []
        assert peak < 14 * 2 ** 20

    def test_a_certified_chain_hands_nothing_over(self, handed, rng):
        # the twins of TestChainVerdictMemo's chain tests, certified
        schema = Schema.binary(*(f"V{i}" for i in range(8)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        t, _ = planted(schema, g, TNorm.product(), rng, 0.3)
        rep = chain_report(t, g, TNorm.product())
        assert len(rep.pairwise_report.checked) == 21
        assert rep.global_report.holds and rep.local_report.holds and rep.pairwise_report.holds
        # pairwise has nothing left, and its empty list only checks eps
        assert handed == [0]
        assert posscheck.independence._KEPT.get() is None
        handed.clear()
        report = pairwise_markov(t, g, TNorm.product())
        assert report.holds and len(report.checked) == 21 and handed == []

    @pytest.mark.parametrize("case", ["exact", "eps 0", "lukasiewicz^2", "exhaustive"])
    def test_out_of_scope_calls_decide_their_lists(self, case, attempts, handed, rng):
        schema = Schema.binary(*(f"V{i}" for i in range(5)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        tn = TNorm.lukasiewicz(2.0) if case == "lukasiewicz^2" else TNorm.product()
        if case == "exact":
            # dyadic factors, whose fold is exact in floating point
            factors = {}
            for clique in g.cliques():
                values = rng.choice([0.25, 0.5, 0.75, 1.0], (2, 2))
                values[0, 0] = 1.0
                factors[clique] = PossibilityTable(schema.project(clique), values)
            t = Factorization(tn, factors).combine(schema)
            t = PossibilityTable(schema, np.array([Fraction(v) for v in t.values.flat],
                                                  dtype=object).reshape(schema.shape))
        else:
            t, _ = planted(schema, g, tn, rng, 0.3)
        eps = 0 if case in ("exact", "eps 0") else DEFAULT_EPSILON
        report = global_markov(t, g, tn, eps, exhaustive=case == "exhaustive")
        # a float table at eps 0 meets the rounding of the recombination
        assert report.holds or case == "eps 0"
        assert not any(attempts)
        assert handed == [len(report.checked)]
        if case == "exhaustive":
            assert attempts == []
            assert posscheck.markov._certified(t, g, tn, eps)

    @pytest.fixture
    def read(self, monkeypatch):
        """The variables of each marginal read through ``marginalize``."""
        kept = []
        unhooked = PossibilityTable.marginalize

        def counted(table, keep):
            kept.append(keep)
            return unhooked(table, keep)

        monkeypatch.setattr(PossibilityTable, "marginalize", counted)
        return kept

    CYCLE = UndirectedGraph(["V0", "V1", "V2", "V3"],
                            [("V0", "V1"), ("V1", "V2"), ("V2", "V3"), ("V3", "V0")])

    def test_a_non_chordal_archimedean_call_reads_no_marginal(self, read, rng):
        # it certifies from the clique sums, and reads the table alone
        schema = Schema.binary(*self.CYCLE.vertices)
        for tn in (TNorm.product(), TNorm.product(2.0), TNorm.lukasiewicz()):
            # factors near 1, whose Lukasiewicz fold does not truncate
            t, anchor = planted(schema, self.CYCLE, tn, rng, 0.8)
            assert posscheck.markov._certified(t, self.CYCLE, tn, DEFAULT_EPSILON)
            rep = chain_report(t, self.CYCLE, tn)
            assert rep.global_report.holds and rep.local_report.holds
            assert rep.pairwise_report.holds
            # one cell halved is no fold of clique terms: its list is decided
            values = t.values.copy()
            values[next(c for c in np.ndindex(schema.shape) if c != anchor)] /= 2
            halved = PossibilityTable(schema, values)
            assert not posscheck.markov._certified(halved, self.CYCLE, tn, DEFAULT_EPSILON)
            assert read == []
            # (its witness lookup reads the failing statement's joint)
            assert not global_markov(halved, self.CYCLE, tn).holds
            read.clear()
        # under Goedel the clique marginals are tried on any graph
        t, _ = planted(schema, self.CYCLE, TNorm.godel(), rng, 0.3)
        assert posscheck.markov._certified(t, self.CYCLE, TNorm.godel(), DEFAULT_EPSILON)
        assert sorted(read) == self.CYCLE.cliques()

    def test_under_product_a_zero_cell_gets_no_candidate(self, rng):
        schema = Schema.binary(*self.CYCLE.vertices)
        t, anchor = planted(schema, self.CYCLE, TNorm.product(), rng, 0.8)
        values = t.values.copy()
        values[next(c for c in np.ndindex(schema.shape) if c != anchor)] = 0.0
        zero = PossibilityTable(schema, values)
        assert _clique_fold(zero, self.CYCLE, TNorm.product()) is None
        assert not posscheck.markov._certified(zero, self.CYCLE, TNorm.product(),
                                               DEFAULT_EPSILON)
        # under Lukasiewicz zero cells are no obstacle
        assert _clique_fold(zero, self.CYCLE, TNorm.lukasiewicz()) is not None

    @pytest.mark.parametrize("tn", [TNorm.product(), TNorm.lukasiewicz()],
                             ids=lambda t: t.describe())
    def test_more_cliques_than_the_cap_are_refused_before_any_value_is_read(self, tn, read,
                                                                             monkeypatch, rng):
        # the Moon-Moser graph on three triples: every pair of vertices in
        # different triples is adjacent, and its 27 maximal cliques take one
        # vertex of each triple
        names = [f"V{i}" for i in range(9)]
        graph = UndirectedGraph(names, [(a, b) for a, b in combinations(names, 2)
                                        if int(a[1:]) // 3 != int(b[1:]) // 3])
        assert len(graph.cliques()) == 27 > posscheck.factorization._MAX_TERMS
        t, _ = planted(Schema.binary(*names), graph, tn, rng, 0.8)
        projected = []
        monkeypatch.setattr(posscheck.factorization, "_clique_sum_projection",
                            lambda *args: projected.append(args))
        assert _clique_fold(t, graph, tn) is None
        assert not posscheck.markov._certified(t, graph, tn, DEFAULT_EPSILON)
        assert read == [] and projected == []
        assert "_clique_sums" not in vars(graph)

    def test_a_refused_certificate_is_tried_once_per_chain(self, attempts, rng):
        schema = Schema.binary(*(f"V{i}" for i in range(6)))
        g = UndirectedGraph(schema.variables, zip(schema.variables, schema.variables[1:]))
        t, anchor = planted(schema, g, TNorm.product(), rng, 0.3)
        moved = jittered(t, anchor, rng, 3 * DEFAULT_EPSILON)
        chain_report(moved, g, TNorm.product())
        assert attempts == [False]
        # a certified chain tries again where a later list has triples left:
        # local's I(V5; V0..V3 | V4), which global lists with sides swapped
        attempts.clear()
        rep = chain_report(t, g, TNorm.product())
        assert attempts == [True, True]
        assert rep.local_report.holds
        # and a refusal lasts only as long as the chain
        attempts.clear()
        global_markov(moved, g, TNorm.product())
        local_markov(moved, g, TNorm.product())
        assert attempts == [False, False]
