"""Conditional T-independence and graphoid axioms.

The key cross-check pits the vectorized engine against the loop-based
definition oracle in conftest on random tables, for every t-norm family.
"""

from fractions import Fraction
from itertools import combinations, product as iter_product

import numpy as np
import pytest

import posscheck.independence
from posscheck import (
    ArityError,
    DisjointnessError,
    IndependenceStatement,
    LimitError,
    PossibilityTable,
    Schema,
    SchemaError,
    TNorm,
    check_axiom,
    independent,
    scan_axioms,
    violations,
)
from posscheck.corpus import builtin_example
from posscheck.independence import decide_many

from conftest import (
    ALL_TNORMS,
    ARCHIMEDEAN_TNORMS,
    BASE_TNORMS,
    GRID_VALUES,
    independent_via_ae_equality,
    jittered,
    oracle_independent,
    permuted,
    planted,
    random_graph,
    random_table,
)

EPS = 1e-9


def example1_table():
    return builtin_example(1).table()


def example2_table():
    return builtin_example(2).table()


class TestStatement:
    def test_groups_are_normalized(self):
        s = IndependenceStatement(("Y", "X"), ("Z",), ())
        assert s.a == ("X", "Y") and s.b == ("Z",) and s.given == ()

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            IndependenceStatement(("X",), ("X",), ())
        with pytest.raises(DisjointnessError):
            IndependenceStatement(("X",), ("Y",), ("Y",))

    def test_empty_side_rejected(self):
        with pytest.raises(DisjointnessError):
            IndependenceStatement((), ("Y",), ())

    def test_serialization(self):
        s = IndependenceStatement(("X",), ("Y",), ("Z",))
        assert s.to_json_dict() == {"a": ["X"], "b": ["Y"], "given": ["Z"]}


class TestDiagonalExamples:
    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_conditional_pairs_hold(self, tn):
        t = example1_table()
        assert independent(t, tn, IndependenceStatement(("X",), ("Y",), ("Z",))).holds
        assert independent(t, tn, IndependenceStatement(("X",), ("Z",), ("Y",))).holds

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_unconditional_group_fails_with_witness(self, tn):
        t = example1_table()
        res = independent(t, tn, IndependenceStatement(("X",), ("Y", "Z")))
        assert not res.holds
        assert res.witness == {"X": "1", "Y": "0", "Z": "0"}

    def test_positive_diagonal_under_min(self):
        t = example2_table()
        tn = TNorm.godel()
        assert independent(t, tn, IndependenceStatement(("X",), ("Y",), ("Z",))).holds
        assert independent(t, tn, IndependenceStatement(("X",), ("Z",), ("Y",))).holds
        res = independent(t, tn, IndependenceStatement(("X",), ("Y", "Z")))
        assert not res.holds and res.witness == {"X": "1", "Y": "0", "Z": "0"}

    def test_unknown_variable_rejected(self):
        with pytest.raises(SchemaError):
            independent(
                example1_table(), TNorm.godel(), IndependenceStatement(("Q",), ("Y",))
            )


class TestConstructedIndependence:
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_tnorm_product_of_unary_factors(self, tn, rng):
        # pi(a, b) = T(f(a), g(b)) with both factors normal
        schema = Schema([("A", ["0", "1", "2"]), ("B", ["0", "1"])])
        for _ in range(10):
            f = rng.uniform(0.6, 1.0, 3)
            g = rng.uniform(0.6, 1.0, 2)
            f[rng.integers(0, 3)] = 1.0
            g[rng.integers(0, 2)] = 1.0
            values = tn.apply_array(f[:, None], g[None, :])
            t = PossibilityTable(schema, values)
            assert independent(t, tn, IndependenceStatement(("A",), ("B",))).holds

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_conditionally_combined_factors(self, tn, rng):
        # pi(a, b, s) = T(f(a, s), g(b, s)) is independent A of B given S
        schema = Schema.binary("A", "B", "S")
        for _ in range(10):
            f = rng.uniform(0.8, 1.0, (2, 2))
            g = rng.uniform(0.8, 1.0, (2, 2))
            f[0, 0] = g[0, 0] = 1.0
            values = tn.apply_array(f[:, None, :], g[None, :, :])
            t = PossibilityTable(schema, values)
            assert independent(
                t, tn, IndependenceStatement(("A",), ("B",), ("S",))
            ).holds


class TestOracleAgreement:
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_matches_definition_oracle(self, tn, rng):
        agreements = 0
        for _ in range(40):
            t = random_table(rng, max_vars=3, max_domain=3)
            names = list(t.schema.variables)
            a, b = (names[0],), (names[1],)
            s = tuple(names[2:3])
            got = independent(t, tn, IndependenceStatement(a, b, s)).holds
            want = oracle_independent(t, tn, a, b, s)
            assert got == want
            agreements += 1
        assert agreements == 40

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_matches_ae_equality_form(self, tn, rng):
        for _ in range(30):
            t = random_table(rng, max_vars=4, max_domain=3)
            names = list(t.schema.variables)
            a, b = (names[0],), tuple(names[1:2])
            s = tuple(names[2:])
            stmt = IndependenceStatement(a, b, s)
            assert (
                independent(t, tn, stmt).holds
                == independent_via_ae_equality(t, tn, stmt).holds
            )

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_unconditional_matches_direct_product_check(self, tn, rng):
        # with no conditioning group the test degenerates to
        # joint == T(marginal, marginal) at every cell
        for _ in range(30):
            t = random_table(rng, max_vars=3, max_domain=3)
            names = list(t.schema.variables)
            a, b = (names[0],), tuple(names[1:])
            got = independent(t, tn, IndependenceStatement(a, b)).holds
            m_a = t.marginalize(a)
            m_b = t.marginalize(b)
            joint = t.marginalize(names)
            direct = tn.apply_array(
                m_a.extend_values(joint.schema), m_b.extend_values(joint.schema)
            )
            want = bool(np.abs(direct - joint.values).max() <= EPS)
            assert got == want

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_symmetry_of_the_relation(self, tn, rng):
        for _ in range(30):
            t = random_table(rng, max_vars=3, max_domain=3)
            names = list(t.schema.variables)
            a, b = (names[0],), (names[1],)
            s = tuple(names[2:])
            assert (
                independent(t, tn, IndependenceStatement(a, b, s)).holds
                == independent(t, tn, IndependenceStatement(b, a, s)).holds
            )


def random_statement(rng, names):
    """Random disjoint (A, B, S) over ``names``; variables may stay unused."""
    while True:
        roles = rng.integers(0, 4, len(names))
        a, b, s = (tuple(n for n, r in zip(names, roles) if r == k) for k in range(3))
        if a and b:
            return IndependenceStatement(a, b, s)


def exact(table):
    values = [Fraction(str(v)) for v in table.values.ravel()]
    return PossibilityTable(
        table.schema, np.array(values, dtype=object).reshape(table.values.shape)
    )


class TestOracleAgreementOnRandomStatements:
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_permuted_schema_order(self, tn, rng):
        for _ in range(40):
            t = random_table(rng, max_vars=4, max_domain=3)
            p = permuted(t, rng)
            stmt = random_statement(rng, t.schema.variables)
            want = oracle_independent(t, tn, stmt.a, stmt.b, stmt.given)
            assert independent(t, tn, stmt).holds == want
            assert independent(p, tn, stmt).holds == want
            assert oracle_independent(p, tn, stmt.a, stmt.b, stmt.given) == want
            assert independent_via_ae_equality(p, tn, stmt).holds == want

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_exact_fraction_tables(self, tn, rng):
        # transforms force floating point, so exact mode covers the base t-norms
        for _ in range(40):
            t = random_table(rng, max_vars=4, max_domain=3)
            x = exact(t)
            stmt = random_statement(rng, t.schema.variables)
            got = independent(x, tn, stmt, eps=0)
            assert got.holds == oracle_independent(t, tn, stmt.a, stmt.b, stmt.given)
            assert got.holds == independent_via_ae_equality(x, tn, stmt, eps=0).holds
            # grid values keep every exact mismatch far above float round-off
            floating = independent(t, tn, stmt)
            assert (got.holds, got.witness) == (floating.holds, floating.witness)


def statement_list(rng, names, count):
    """Random statements over ``names`` with some repeated, so the joints
    differ and the list holds duplicates."""
    stmts = [random_statement(rng, names) for _ in range(count)]
    return stmts + [stmts[int(i)] for i in rng.integers(0, count, count // 3)]


class TestDecideMany:
    """The batched decider against the definition oracle and against one
    ``independent`` call per statement, whose lone chunk keeps its keepdims
    shapes."""

    @staticmethod
    def decide_and_compare(table, tn, stmts, eps=EPS, oracle_table=None):
        results = decide_many(table, tn, stmts, eps)
        assert len(results) == len(stmts)
        for stmt, got in zip(stmts, results):
            assert got.statement is stmt
            one = independent(table, tn, stmt, eps)
            assert (got.holds, got.witness) == (one.holds, one.witness)
            assert (got.witness is None) == got.holds
            if oracle_table is not None:
                assert got.holds == oracle_independent(oracle_table, tn, stmt.a, stmt.b,
                                                       stmt.given)
        return results

    # (chunk budget, cache budget) in cells; small ones split the lists into
    # many chunks and drop the kept maxima often
    @pytest.mark.parametrize("budgets", [(8, 0), (64, 16), None])
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_random_tables(self, tn, budgets, rng, monkeypatch):
        if budgets is not None:
            monkeypatch.setattr(posscheck.independence, "_CHUNK_CELLS", budgets[0])
            monkeypatch.setattr(posscheck.independence, "_CACHE_CELLS", budgets[1])
        for _ in range(6):
            t = random_table(rng, max_vars=5, max_domain=3)
            stmts = statement_list(rng, t.schema.variables, 12)
            self.decide_and_compare(t, tn, stmts, oracle_table=t)

    @pytest.mark.parametrize("budget", [8, None])
    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_exact_fraction_tables(self, tn, budget, rng, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(posscheck.independence, "_CHUNK_CELLS", budget)
        for _ in range(6):
            t = random_table(rng, max_vars=4, max_domain=3)
            stmts = statement_list(rng, t.schema.variables, 12)
            # grid values keep every exact mismatch far above float round-off
            results = self.decide_and_compare(exact(t), tn, stmts, eps=0, oracle_table=t)
            floating = decide_many(t, tn, stmts)
            assert [(r.holds, r.witness) for r in results] == [
                (r.holds, r.witness) for r in floating]

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_tables_jittered_at_the_scale_of_eps(self, tn, scale, rng):
        # planted tables make many statements hold, so the jitter puts their
        # cells near the tolerance, where a rounding difference would show
        for n in (3, 4, 5):
            schema = Schema.binary(*(f"V{i}" for i in range(n)))
            graph = random_graph(rng, schema.variables)
            table, anchor = planted(schema, graph, tn, rng, 0.3)
            t = jittered(table, anchor, rng, scale * EPS)
            stmts = statement_list(rng, schema.variables, 20)
            stmts += [IndependenceStatement((u,), (v,), tuple(w for w in schema.variables
                                                               if w not in (u, v)))
                      for u, v in combinations(schema.variables, 2)
                      if v not in graph.neighbors(u)]
            self.decide_and_compare(t, tn, stmts)

    def test_a_list_longer_than_one_chunk(self, rng):
        t = random_table(rng, max_vars=2, max_domain=2)
        x, y = t.schema.variables
        stmts = [IndependenceStatement((x,), (y,)), IndependenceStatement((y,), (x,))]
        stmts *= posscheck.independence._CHUNK_CELLS // t.values.size + 1
        results = decide_many(t, TNorm.product(), stmts)
        one = independent(t, TNorm.product(), stmts[0])
        assert [r.statement for r in results] == stmts
        assert {(r.holds, str(r.witness)) for r in results} == {(one.holds, str(one.witness))}

    def test_results_follow_the_input_order(self, rng):
        t = random_table(rng, max_vars=5, max_domain=3)
        stmts = statement_list(rng, t.schema.variables, 30)
        results = decide_many(t, TNorm.lukasiewicz(), stmts)
        order = rng.permutation(len(stmts))
        shuffled = decide_many(t, TNorm.lukasiewicz(), [stmts[i] for i in order])
        assert [(r.statement, r.holds, r.witness) for r in shuffled] == [
            (results[i].statement, results[i].holds, results[i].witness) for i in order]

    def test_no_statements(self, rng):
        assert decide_many(random_table(rng), TNorm.godel(), []) == []


def naive_scan(table, tn, axioms, eps=EPS):
    """Scan reports as tuples, from a direct enumeration that decides every
    statement afresh through ``independent``."""
    names = table.schema.variables
    reports = []
    for axiom in axioms:
        n_roles = 3 if axiom == "symmetry" else 4
        for roles in iter_product(range(n_roles + 1), repeat=len(names)):
            groups = tuple(
                tuple(v for v, r in zip(names, roles) if r == k) for k in range(n_roles)
            )
            if not (groups[0] and groups[1] and groups[2]):
                continue
            if axiom == "symmetry":
                x, y, z = groups
                forms = ([(x, y, z)], (y, x, z))
            else:
                x, y, z, w = groups
                forms = {
                    "decomposition": ([(x, y + z, w)], (x, z, w)),
                    "weak_union": ([(x, y + z, w)], (x, y, z + w)),
                    "contraction": ([(x, y, z + w), (x, z, w)], (x, y + z, w)),
                    "intersection": ([(x, y, z + w), (x, z, y + w)], (x, y + z, w)),
                }[axiom]
            antecedents = tuple(
                (IndependenceStatement(*f), independent(
                    table, tn, IndependenceStatement(*f), eps).holds)
                for f in forms[0]
            )
            consequent = IndependenceStatement(*forms[1])
            if not all(h for _, h in antecedents):
                reports.append((axiom, groups, antecedents, consequent, None, True, None))
                continue
            res = independent(table, tn, consequent, eps)
            reports.append((axiom, groups, antecedents, consequent, res.holds, res.holds,
                            None if res.holds else res.witness))
    return reports


def scan_tuples(table, tn, axioms, eps=EPS):
    return [
        (r.axiom, r.groups, r.antecedents, r.consequent, r.consequent_holds, r.holds,
         r.witness)
        for r in scan_axioms(table, tn, axioms, eps=eps)
    ]


def grid_table(schema, rng):
    values = rng.choice(GRID_VALUES, size=schema.shape)
    values.flat[int(rng.integers(0, values.size))] = 1.0
    return PossibilityTable(schema, values)


class TestScanAgainstNaiveEnumeration:
    AXIOM_NAMES = ["symmetry", "decomposition", "weak_union", "contraction",
                   "intersection"]

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_schemas_sharing_names_with_different_domains(self, tn, rng):
        # both scans run on one plan, which depends on the names alone
        first = Schema([("A", "01"), ("B", "012"), ("C", "01"), ("D", "01")])
        second = Schema([("A", "012"), ("B", "01"), ("C", "01"), ("D", "012")])
        tables = [grid_table(first, rng), grid_table(second, rng)]
        for t in tables + tables[:1]:
            assert scan_tuples(t, tn, self.AXIOM_NAMES) == naive_scan(
                t, tn, self.AXIOM_NAMES)

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_names_that_do_not_sort_in_schema_order(self, tn, rng):
        t = exact(grid_table(Schema([("V8", "01"), ("V9", "012"), ("V10", "01")]), rng))
        assert scan_tuples(t, tn, self.AXIOM_NAMES, eps=0) == naive_scan(
            t, tn, self.AXIOM_NAMES, eps=0)

    def test_violations_carry_the_consequent_witness(self):
        t = example1_table()
        reports = scan_tuples(t, TNorm.godel(), ["intersection"])
        assert reports == naive_scan(t, TNorm.godel(), ["intersection"])
        assert any(r[-1] == {"X": "1", "Y": "0", "Z": "0"} for r in reports)

    def test_alternating_name_tuples_build_each_plan_once(self):
        from posscheck.independence import AXIOMS, _scan_plan

        tables = [PossibilityTable.load(Schema.binary(*names), [], 1.0)
                  for names in (("A", "B", "C"), ("P", "Q", "R", "S"), ("X", "Y"))]
        _scan_plan.cache_clear()
        for _ in range(3):
            for t in tables:
                scan_axioms(t, TNorm.product())
        info = _scan_plan.cache_info()
        assert info.misses == len(tables) * len(AXIOMS)
        assert info.hits == 2 * len(tables) * len(AXIOMS)


class TestAxioms:
    def test_symmetry_never_violated(self, rng):
        for tn in ALL_TNORMS:
            t = random_table(rng, max_vars=3)
            reports = scan_axioms(t, tn, ["symmetry"])
            assert not violations(reports)

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_intersection_fails_on_diagonal(self, tn):
        # both antecedents hold, the consequent fails, for every base t-norm
        report = check_axiom(
            example1_table(), tn, "intersection", (("X",), ("Y",), ("Z",), ())
        )
        assert all(h for _, h in report.antecedents)
        assert report.consequent_holds is False
        assert not report.holds
        assert report.witness == {"X": "1", "Y": "0", "Z": "0"}

    def test_intersection_fails_on_positive_diagonal_under_min(self):
        report = check_axiom(
            example2_table(), TNorm.godel(), "intersection", (("X",), ("Y",), ("Z",), ())
        )
        assert not report.holds

    @pytest.mark.parametrize("tn", [TNorm.product(), TNorm.lukasiewicz()],
                             ids=lambda t: t.describe())
    def test_intersection_scan_clean_on_positive_diagonal(self, tn):
        reports = scan_axioms(example2_table(), tn, ["intersection"])
        assert reports and not violations(reports)

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_semigraphoid_scan_clean_on_diagonal(self, tn):
        reports = scan_axioms(
            example1_table(), tn,
            ["symmetry", "decomposition", "weak_union", "contraction"],
        )
        assert reports and not violations(reports)

    def test_aliases_accepted(self):
        report = check_axiom(
            example1_table(), TNorm.godel(), "A1", (("X",), ("Y",), ("Z",))
        )
        assert report.axiom == "symmetry" and report.holds

    def test_arity_enforced(self):
        with pytest.raises(ArityError):
            check_axiom(example1_table(), TNorm.godel(), "symmetry",
                        (("X",), ("Y",), ("Z",), ()))
        with pytest.raises(ArityError):
            check_axiom(example1_table(), TNorm.godel(), "contraction",
                        (("X",), ("Y",), ("Z",)))
        with pytest.raises(ArityError):
            check_axiom(example1_table(), TNorm.godel(), "a9", (("X",), ("Y",), ("Z",)))
        with pytest.raises(ArityError):
            check_axiom(example1_table(), TNorm.godel(), "decomposition",
                        (("X",), ("Y",), (), ("Z",)))

    def test_symmetry_allows_an_empty_conditioning_group(self):
        report = check_axiom(example1_table(), TNorm.godel(), "symmetry",
                             (("X",), ("Y",), ()))
        assert report.holds

    def test_group_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            check_axiom(example1_table(), TNorm.godel(), "contraction",
                        (("X",), ("X",), ("Y",), ()))

    def test_scan_limit(self):
        schema = Schema.binary(*[f"V{i}" for i in range(7)])
        t = PossibilityTable.load(schema, [], 1.0)
        with pytest.raises(LimitError):
            scan_axioms(t, TNorm.godel(), ["symmetry"])

    def test_scan_report_order_is_deterministic(self):
        t = example1_table()
        r1 = scan_axioms(t, TNorm.godel(), ["decomposition"])
        r2 = scan_axioms(t, TNorm.godel(), ["decomposition"])
        assert [(r.axiom, r.groups) for r in r1] == [(r.axiom, r.groups) for r in r2]

    def test_scan_skips_consequent_when_antecedent_fails(self):
        reports = scan_axioms(example1_table(), TNorm.godel(), ["contraction"])
        lazy = [r for r in reports if r.consequent_holds is None]
        assert lazy  # some antecedents fail on this table
        assert all(r.holds for r in lazy)


class TestGraphoidTheorems:
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_semigraphoid_axioms_hold_on_random_tables(self, tn, rng):
        for _ in range(5):
            t = random_table(rng, max_vars=3, max_domain=3)
            reports = scan_axioms(
                t, tn, ["symmetry", "decomposition", "weak_union", "contraction"]
            )
            assert not violations(reports)

    @pytest.mark.parametrize("tn", ARCHIMEDEAN_TNORMS, ids=lambda t: t.describe())
    def test_intersection_holds_on_positive_random_tables(self, tn, rng):
        for _ in range(5):
            t = random_table(rng, max_vars=3, max_domain=3, positive=True)
            reports = scan_axioms(t, tn, ["intersection"])
            assert not violations(reports)

    def _independent_positive_table(self, tn, rng):
        schema = Schema.binary("A", "B", "S")
        f = rng.uniform(0.85, 1.0, (2, 2))
        g = rng.uniform(0.85, 1.0, (2, 2))
        f[0, 0] = g[0, 0] = 1.0
        values = tn.apply_array(f[:, None, :], g[None, :, :])
        t = PossibilityTable(schema, values)
        assert independent(t, tn, IndependenceStatement(("A",), ("B",), ("S",))).holds
        return t

    @pytest.mark.parametrize("p", [None, 2.0])
    def test_independent_positive_tables_split_multiplicatively(self, p, rng):
        # strict family: rescaling by the automorphism turns the joint into a
        # product of one function of (a, s) and one of (b, s)
        tn = TNorm.product(p)
        phi = tn.transform.apply if tn.transform else (lambda x: x)
        phi_inv = tn.transform.inverse if tn.transform else (lambda x: x)
        for _ in range(5):
            t = self._independent_positive_table(tn, rng)
            cond = t.condition(tn, ["A"], ["S"])
            m_bs = t.marginalize(["B", "S"])
            rho1 = phi(cond.values)[:, None, :]
            rho2 = phi(m_bs.values)[None, :, :]
            rebuilt = phi_inv(rho1 * rho2)
            assert np.abs(rebuilt - t.values).max() <= 1e-7

    @pytest.mark.parametrize("p", [None, 2.0])
    def test_independent_positive_tables_split_additively(self, p, rng):
        # nilpotent family: the same split is additive in the rescaled space
        tn = TNorm.lukasiewicz(p)
        psi = tn.transform.apply if tn.transform else (lambda x: x)
        psi_inv = tn.transform.inverse if tn.transform else (lambda x: x)
        for _ in range(5):
            t = self._independent_positive_table(tn, rng)
            cond = t.condition(tn, ["A"], ["S"])
            m_bs = t.marginalize(["B", "S"])
            rho1 = psi(cond.values)[:, None, :]
            rho2 = (psi(m_bs.values) - 1.0)[None, :, :]
            rebuilt = psi_inv(np.maximum(rho1 + rho2, 0.0))
            assert np.abs(rebuilt - t.values).max() <= 1e-7
