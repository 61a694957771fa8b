"""Conditional T-independence and graphoid axioms.

The key cross-check pits the vectorized engine against the loop-based
definition oracle in conftest on random tables, for every t-norm family.
"""

from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product as iter_product

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posscheck.independence
from posscheck import (
    AXIOMS,
    ArityError,
    AxiomReport,
    DisjointnessError,
    DomainError,
    Factorization,
    IndependenceStatement,
    LimitError,
    PossibilityTable,
    Schema,
    SchemaError,
    TNorm,
    UndirectedGraph,
    chain_report,
    check_axiom,
    factorizes,
    global_markov,
    independent,
    local_markov,
    pairwise_markov,
    scan_axioms,
    verify,
    violations,
)
from posscheck.cli import EX_FAILS, main
from posscheck.corpus import builtin_example
from posscheck.independence import (_AXIOM_FORMS, _decide_groups, _inputs_kept, _joint_groups,
                                    _scan_plan, canonical_axioms, decide_many)

from conftest import (
    ALL_TNORMS,
    ARCHIMEDEAN_TNORMS,
    BASE_TNORMS,
    GRID_VALUES,
    POSITIVE_GRID_VALUES,
    TRANSFORMED_TNORMS,
    fraction_independent,
    independent_via_ae_equality,
    jittered,
    oracle_independent,
    oracle_scan_plan,
    permuted,
    planted,
    random_graph,
    random_table,
    routes_taken,
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

    @pytest.mark.parametrize("groups", [
        (("X", "W"), ("X",), ("Z",)),
        (("X", "W"), ("Y",), ("X",)),
        (("W",), ("Y", "X"), ("Z", "Y")),
    ], ids=["a-b", "a-given", "b-given"])
    def test_each_overlapping_pair_rejected(self, groups):
        with pytest.raises(DisjointnessError, match="pairwise disjoint"):
            IndependenceStatement(*groups)

    def test_empty_side_rejected(self):
        with pytest.raises(DisjointnessError):
            IndependenceStatement((), ("Y",), ())
        with pytest.raises(DisjointnessError, match="nonempty"):
            IndependenceStatement(("X",), (), ("Y",))

    def test_duplicates_within_a_side_collapse(self):
        s = IndependenceStatement(("X", "X"), ("Y", "Z", "Y"), ("W", "W"))
        assert s.a == ("X",) and s.b == ("Y", "Z") and s.given == ("W",)

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
        t, tn = example1_table(), TNorm.godel()
        with pytest.raises(SchemaError):
            independent(t, tn, IndependenceStatement(("Q",), ("Y",)))
        # an unknown name in any side of any statement, or in any group
        known = IndependenceStatement(("X",), ("Y",), ("Z",))
        for stmt in (IndependenceStatement(("Q",), ("Y",)),
                     IndependenceStatement(("X",), ("Y", "Q")),
                     IndependenceStatement(("X",), ("Y",), ("Q",))):
            with pytest.raises(SchemaError, match="'Q'"):
                decide_many(t, tn, [known, stmt])
        for axiom, groups in (("symmetry", [("X",), ("Q",), ("Z",)]),
                              ("weak_union", [("X",), ("Y",), ("Z",), ("Q",)])):
            with pytest.raises(SchemaError, match="'Q'"):
                check_axiom(t, tn, axiom, groups)


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


def pair_statements(names):
    """I(u; v | the rest) for every ordered pair: statements on one joint,
    and from three variables on enough of them for a batch to build the
    joint's lattice."""
    return [IndependenceStatement((u,), (v,), tuple(w for w in names if w not in (u, v)))
            for u, v in permutations(names, 2)]


def set_budgets(monkeypatch, chunk, cache):
    """Set the chunk and cache budgets (in cells) that are not None."""
    if chunk is not None:
        monkeypatch.setattr(posscheck.independence, "_CHUNK_CELLS", chunk)
    if cache is not None:
        monkeypatch.setattr(posscheck.independence, "_CACHE_CELLS", cache)


# (chunk budget, cache budget) in cells, None for the default.  Small ones
# split the lists into many chunks and drop the kept maxima often; a cache
# budget of 0 keeps every batch off the lattice, and a huge one puts every
# batch on it whose statements span at least the lattice's cells.
NO_LATTICE = 0
ANY_LATTICE = 1 << 40
BUDGETS = [(8, NO_LATTICE), (64, 16), (None, NO_LATTICE), (None, ANY_LATTICE), (None, None)]
BUDGET_IDS = ["tiny-no-lattice", "small", "no-lattice", "any-lattice", "default"]


class TestDecideMany:
    """The batched decider's verdicts against the definition oracle and
    against one ``independent`` call per statement, whose lone chunk keeps
    its keepdims shapes and which alone looks up witnesses."""

    @staticmethod
    def decide_and_compare(table, tn, stmts, eps=EPS, oracle_table=None):
        verdicts = decide_many(table, tn, stmts, eps)
        assert len(verdicts) == len(stmts)
        assert all(type(holds) is bool for holds in verdicts)
        for stmt, holds in zip(stmts, verdicts):
            one = independent(table, tn, stmt, eps)
            assert holds == one.holds
            assert (one.witness is None) == one.holds
            if oracle_table is not None:
                assert holds == oracle_independent(oracle_table, tn, stmt.a, stmt.b, stmt.given)
        return verdicts

    @staticmethod
    def check_lattice_use(budgets, lattices):
        if budgets[1] == NO_LATTICE:
            assert lattices == []
        if budgets[1] == ANY_LATTICE:
            assert lattices

    @pytest.mark.parametrize("budgets", BUDGETS, ids=BUDGET_IDS)
    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_random_tables(self, tn, budgets, rng, monkeypatch, lattices):
        set_budgets(monkeypatch, *budgets)
        for _ in range(6):
            t = random_table(rng, max_vars=5, max_domain=3)
            stmts = statement_list(rng, t.schema.variables, 12)
            stmts += pair_statements(t.schema.variables)
            self.decide_and_compare(t, tn, stmts, oracle_table=t)
        self.check_lattice_use(budgets, lattices)

    @pytest.mark.parametrize("budgets", [(8, None), (None, NO_LATTICE), (None, ANY_LATTICE),
                                         (None, None)],
                             ids=["tiny", "no-lattice", "any-lattice", "default"])
    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_exact_fraction_tables(self, tn, budgets, rng, monkeypatch, lattices):
        set_budgets(monkeypatch, *budgets)
        for _ in range(6):
            t = random_table(rng, max_vars=4, max_domain=3)
            stmts = statement_list(rng, t.schema.variables, 12)
            stmts += pair_statements(t.schema.variables)
            # grid values keep every exact mismatch far above float round-off
            x = exact(t)
            verdicts = self.decide_and_compare(x, tn, stmts, eps=0, oracle_table=t)
            assert verdicts == decide_many(t, tn, stmts)
            assert [independent(x, tn, stmt, eps=0).witness for stmt in stmts] == [
                independent(t, tn, stmt).witness for stmt in stmts]
        self.check_lattice_use(budgets, lattices)

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_a_lattice_over_the_cache_budget_falls_back(self, tn, rng, monkeypatch, lattices):
        # 30 statements on a binary six-variable joint: 1,920 stacked cells,
        # and a lattice of 3^6 = 729 cells
        t = grid_table(Schema.binary(*(f"V{i}" for i in range(6))), rng)
        stmts = pair_statements(t.schema.variables)
        monkeypatch.setattr(posscheck.independence, "_CACHE_CELLS", 3 ** 6 - 1)
        fallback = self.decide_and_compare(t, tn, stmts, oracle_table=t)
        assert lattices == []
        monkeypatch.setattr(posscheck.independence, "_CACHE_CELLS", 3 ** 6)
        assert decide_many(t, tn, stmts) == fallback
        assert lattices == [(2,) * 6]

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
        verdicts = decide_many(t, TNorm.product(), stmts)
        one = independent(t, TNorm.product(), stmts[0])
        other = independent(t, TNorm.product(), stmts[1])
        assert (other.holds, other.witness) == (one.holds, one.witness)
        assert verdicts == [one.holds] * len(stmts)

    def test_results_follow_the_input_order(self, rng):
        t = random_table(rng, max_vars=5, max_domain=3)
        stmts = statement_list(rng, t.schema.variables, 30)
        verdicts = self.decide_and_compare(t, TNorm.lukasiewicz(), stmts)
        order = rng.permutation(len(stmts))
        shuffled = decide_many(t, TNorm.lukasiewicz(), [stmts[i] for i in order])
        assert shuffled == [verdicts[i] for i in order]

    def test_no_statements(self, rng):
        assert decide_many(random_table(rng), TNorm.godel(), []) == []

    @pytest.mark.parametrize("budgets", BUDGETS, ids=BUDGET_IDS)
    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_independent_builds_and_is_handed_no_lattice(self, tn, budgets, rng, monkeypatch):
        # the witness path is a lone chunk on its own joint, even where a
        # scan has kept the table's lattice
        set_budgets(monkeypatch, *budgets)
        lattices, handed = routes_taken(monkeypatch)
        for _ in range(4):
            t = random_table(rng, max_vars=4, max_domain=3)
            stmts = statement_list(rng, t.schema.variables, 12)
            stmts += pair_statements(t.schema.variables)
            plan = _scan_plan(t.schema.variables, AXIOMS)
            for table, eps in ((t, EPS), (exact(t), 0)):
                with _inputs_kept():
                    _decide_groups(table, tn, plan.masks, plan.joints, eps)
                    lattices.clear(), handed.clear()
                    for stmt in stmts:
                        independent(table, tn, stmt, eps)
                    assert lattices == []
                    assert handed == [False] * len(stmts)


@st.composite
def unsorted_schemas(draw):
    """Schemas on V8, V9, V10, ... in a drawn order, so the names do not
    sort in schema order, with 2-3 labels per variable."""
    names = draw(st.permutations([f"V{8 + i}" for i in range(draw(st.integers(2, 4)))]))
    sizes = draw(st.lists(st.integers(2, 3), min_size=len(names), max_size=len(names)))
    return Schema([(n, [str(d) for d in range(k)]) for n, k in zip(names, sizes)])


@st.composite
def grid_tables(draw):
    """A table on an unsorted schema with values on GRID_VALUES and a 1 at a
    drawn cell.  The values ignore a drawn subset of the variables, so that
    statements hold as well as fail."""
    schema = draw(unsorted_schemas())
    ignored = draw(st.lists(st.booleans(), min_size=len(schema), max_size=len(schema)))
    shape = tuple(1 if skip else k for skip, k in zip(ignored, schema.shape))
    cells = int(np.prod(shape))
    values = draw(st.lists(st.sampled_from(GRID_VALUES), min_size=cells, max_size=cells))
    values[draw(st.integers(0, cells - 1))] = 1.0
    return PossibilityTable(schema, np.broadcast_to(np.reshape(values, shape), schema.shape))


@st.composite
def statement_lists(draw, names):
    """Statements on one to three joints over ``names``, several on each,
    followed by repeats of some of them."""
    joints = draw(st.lists(st.sets(st.sampled_from(names), min_size=2), min_size=1, max_size=3))
    stmts = []
    for _ in range(draw(st.integers(1, 10))):
        joint = sorted(draw(st.sampled_from(joints)))
        roles = draw(st.lists(st.integers(0, 2), min_size=len(joint), max_size=len(joint)))
        a, b, s = (tuple(n for n, r in zip(joint, roles) if r == k) for k in range(3))
        if a and b:
            stmts.append(IndependenceStatement(a, b, s))
    repeats = st.lists(st.sampled_from(stmts), max_size=4) if stmts else st.just([])
    return stmts + draw(repeats)


class TestDecideManyProperty:
    # the cache budget: off the lattice, the default, and on it wherever the
    # statements of a joint span its cells
    @pytest.mark.parametrize("cache", [NO_LATTICE, None, ANY_LATTICE],
                             ids=["no-lattice", "default", "any-lattice"])
    @settings(max_examples=200)
    @given(data=st.data(), t=grid_tables(), tn=st.sampled_from(ALL_TNORMS))
    def test_matches_the_oracle_and_independent(self, cache, data, t, tn):
        stmts = data.draw(statement_lists(t.schema.variables))
        with pytest.MonkeyPatch.context() as monkeypatch:
            set_budgets(monkeypatch, None, cache)
            verdicts = decide_many(t, tn, stmts)
            assert verdicts == [oracle_independent(t, tn, s.a, s.b, s.given) for s in stmts]
            assert verdicts == [independent(t, tn, s).holds for s in stmts]
            if tn.transform is None:  # transforms force floating point
                # grid values keep every exact mismatch far above float round-off
                assert decide_many(exact(t), tn, stmts, eps=0) == verdicts


# every statement over four variables: each variable in A, B, S or unused
FOUR = ("A", "B", "C", "D")
FOUR_VARIABLE_STATEMENTS = [
    IndependenceStatement(*(tuple(v for v, r in zip(FOUR, roles) if r == k) for k in range(3)))
    for roles in iter_product(range(4), repeat=4) if 0 in roles and 1 in roles
]
U = Decimal(2) ** -53
# the float test's error in the linear domain, in the bound derived below
LINEAR_SLACK = 4 * U


# the statements of one table read the same few powers
@lru_cache(maxsize=1 << 16)
def decimal_power(v, p):
    """v^p to 60 digits, for a Decimal v (0 where v <= 0)."""
    with localcontext() as ctx:
        ctx.prec = 60
        return v ** Decimal(p) if v > 0 else Decimal(0)


def decimal_lukasiewicz_power(table, stmt, p, eps):
    """(holds, witness) of ``stmt`` under Lukasiewicz^p, with the powers
    taken to 60 digits, or None where float rounding may change either.

    On maxima y, b <= x the recombination is phi^-1(max(s, 0)) with s =
    phi(y) - phi(x) + phi(b), phi(v) = v^p, so a cell mismatches iff
    s > phi(pi + eps) or s < phi(pi - eps) where pi - eps > 0.  The float
    kernel and comparison, with each power within one ulp (relative error
    2u, u = 2^-53) and fl(1/p) as the inverse's exponent, err by at most
    F = u (2 phi(y) + 4 phi(x) + 2 phi(b)) in s (three powers, a subtraction
    of at most phi(x) and a sum of at most phi(x)) and by at most L = 4u in
    the linear domain (the inverse's power, 2u r, the exponent's rounding,
    u r |ln r| <= u / e, and the rounded |r - pi| near eps), so the float
    test flags what the exact one flags wherever s lies outside
    [phi(t - L) - F, phi(t + L) + F] (``LINEAR_SLACK`` is L) for both
    thresholds t = pi +- eps.  A statement's verdict and witness are read
    only when every cell up to its first mismatch (first variable cycling
    fastest) clears that margin.
    """
    schema = table.schema
    keep = schema.in_order(stmt.a + stmt.b + stmt.given)
    pi = table.values.max(axis=tuple(i for i, v in enumerate(schema.variables) if v not in keep))

    def maximum(drop):
        return np.broadcast_to(pi.max(axis=tuple(keep.index(v) for v in drop), keepdims=True),
                               pi.shape)

    y, x, b = maximum(stmt.b), maximum(stmt.a + stmt.b), maximum(stmt.a)
    zero, eps = Decimal(0), Decimal(eps)

    def phi(v):
        return decimal_power(Decimal(v), p)

    with localcontext() as ctx:
        ctx.prec = 60
        for idx in iter_product(*(range(k) for k in reversed(pi.shape))):
            idx = idx[::-1]
            fy, fx, fb = (phi(float(m[idx])) for m in (y, x, b))
            s = fy - fx + fb
            margin = U * (2 * fy + 4 * fx + 2 * fb)
            high, low = Decimal(float(pi[idx])) + eps, Decimal(float(pi[idx])) - eps
            for t in (high, low):
                if t + LINEAR_SLACK > 0 and (phi(max(t - LINEAR_SLACK, zero)) - margin
                                             <= s <= phi(t + LINEAR_SLACK) + margin):
                    return None
            if s > phi(high) or (low > 0 and s < phi(low)):
                return False, {v: schema.domain(v)[i] for v, i in zip(keep, idx)}
    return True, None


class TestTransformedLukasiewiczAgainstDecimals:
    """Lukasiewicz^p decisions and witnesses against 60-digit decimals, on
    random tables and on planted chain factorizations jittered by N(0, eps):
    the closed-form recombination, with no phi^-1 -> phi round trip, decides
    every statement the float margin leaves clear as the decimals do."""

    CHAIN = UndirectedGraph(FOUR, [("A", "B"), ("B", "C"), ("C", "D")])

    @settings(max_examples=40)
    @given(p=st.sampled_from([0.5, 2.0, 3.7]), eps=st.sampled_from([1e-9, 1e-4]),
           planted_chain=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    # I(B; D | A,C) holds here, but the composed kernels, R then T, flag a cell
    @example(p=2.0, eps=1e-9, planted_chain=True, seed=3)
    def test_verdicts_and_witnesses(self, p, eps, planted_chain, seed):
        tn = TNorm.lukasiewicz(p)
        schema = Schema.binary(*FOUR)
        rng = np.random.default_rng(seed)
        if planted_chain:
            t, anchor = planted(schema, self.CHAIN, tn, rng, 0.5)
            values = np.clip(t.values + rng.normal(0, eps, schema.shape), 0.0, 1.0)
            values[anchor] = 1.0
        else:
            values = rng.uniform(0.0, 1.0, schema.shape)
            values[tuple(rng.integers(2, size=4))] = 1.0
        t = PossibilityTable(schema, values)
        verdicts = decide_many(t, tn, FOUR_VARIABLE_STATEMENTS, eps)
        for stmt, holds in zip(FOUR_VARIABLE_STATEMENTS, verdicts):
            expected = decimal_lukasiewicz_power(t, stmt, p, eps)
            if expected is not None:
                assert (holds, independent(t, tn, stmt, eps).witness) == expected, str(stmt)

    def test_deciding_reads_no_residual(self, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("residual_array was called")
        monkeypatch.setattr(TNorm, "residual_array", refuse)
        tn = TNorm.lukasiewicz(2.0)
        schema = Schema.binary(*FOUR)
        t, _ = planted(schema, self.CHAIN, tn, rng, 0.5)
        verdicts = decide_many(t, tn, FOUR_VARIABLE_STATEMENTS)
        assert verdicts == [independent(t, tn, stmt).holds for stmt in FOUR_VARIABLE_STATEMENTS]
        assert chain_report(t, self.CHAIN, tn).global_report.holds
        assert len(scan_axioms(t, tn)) > 0


def lattice_schemas(rng, count):
    """``count`` schemas on V8..V13 in a random order, of 1 to 6 axes with 2
    to 5 labels and at most 1,200 cells, the fixed ones first: an axis of
    4 or 5 labels makes the fill fold in rows 2 to k - 1 one at a time."""
    shapes = [(5,), (2, 5, 3, 4), (4, 2, 2, 2, 2, 5), (2,) * 6, (3, 3, 2, 2, 2, 2)]
    while len(shapes) < count:
        shape = tuple(int(k) for k in rng.integers(2, 6, int(rng.integers(1, 7))))
        if np.prod(shape) <= 1200:
            shapes.append(shape)
    for shape in shapes:
        names = [f"V{8 + i}" for i in rng.permutation(len(shape))]
        yield Schema([(n, [str(d) for d in range(k)]) for n, k in zip(names, shape)])


class TestLattice:
    @pytest.mark.parametrize("exact_values", [False, True], ids=["float", "Fraction"])
    def test_every_block_is_the_keepdims_maximum(self, exact_values, rng):
        for schema in lattice_schemas(rng, 20):
            table = grid_table(schema, rng)
            pi = (exact(table) if exact_values else table).values
            n = len(schema)
            # every block of the lattice, read once alone and once in a
            # stack of two rows, the second dropping no axis
            drops = np.arange(1 << n)
            z = posscheck.independence._lattice(pi)
            alone = posscheck.independence._blocks(z, drops)
            stacked, whole = posscheck.independence._blocks(z, np.stack([drops, 0 * drops]))
            for drop in drops.tolist():
                axes = tuple(i for i in range(n) if drop >> i & 1)
                block = np.broadcast_to(pi.max(axis=axes, keepdims=True), pi.shape)
                for got, want in ((alone[drop], block), (stacked[drop], block), (whole[drop], pi)):
                    assert got.dtype == pi.dtype
                    assert np.array_equal(got, want)
                    if exact_values:
                        assert all(type(v) is Fraction for v in got.ravel())

    @pytest.mark.parametrize("exact_values", [False, True], ids=["float", "Fraction"])
    def test_no_cell_of_a_positive_table_is_left_zero(self, exact_values, rng):
        # the lattice starts from zeros: a slot the fill never writes stays 0
        for schema in lattice_schemas(rng, 20):
            values = rng.choice(POSITIVE_GRID_VALUES, size=schema.shape)
            values.flat[int(rng.integers(0, values.size))] = 1.0
            table = PossibilityTable(schema, values)
            pi = (exact(table) if exact_values else table).values
            z = posscheck.independence._lattice(pi)
            assert (z != 0).all()


# Denominators on both sides of 2**31, the largest common denominator of an
# exact table that is decided in int64, and tolerances within [0, 1] and
# past it, where nothing mismatches.
DENOMINATORS = (4, 12, 1001, 1 << 31, (1 << 31) + 1, (1 << 40) + 15)
EXACT_EPS = (0, 1e-9, 0.1, 0.3, Fraction(1, 3), 1, float("inf"))


@st.composite
def exact_tables(draw):
    """A table on an unsorted schema whose values are multiples of 1/d for
    a drawn denominator d, with a 1 at a drawn cell; each cell is an int
    (where the value is 0 or 1), a Fraction or the float nearest the value.
    As in ``grid_tables``, the values ignore a drawn subset of the variables."""
    schema = draw(unsorted_schemas())
    d = draw(st.sampled_from(DENOMINATORS))
    ignored = draw(st.lists(st.booleans(), min_size=len(schema), max_size=len(schema)))
    shape = tuple(1 if skip else k for skip, k in zip(ignored, schema.shape))
    cells = int(np.prod(shape))
    steps = draw(st.lists(st.integers(0, d), min_size=cells, max_size=cells))
    steps[draw(st.integers(0, cells - 1))] = d
    kinds = draw(st.lists(st.sampled_from((int, Fraction, float)), min_size=cells,
                          max_size=cells))
    values = [Fraction(k, d) for k in steps]
    values = [v if kind is int and v.denominator != 1 else kind(v)
              for v, kind in zip(values, kinds)]
    values = np.array(values, dtype=object).reshape(shape)
    return PossibilityTable(schema, np.broadcast_to(values, schema.shape))


class TestScanJointGroups:
    """A scan decides its plan's statements on the plan's joint groups, the
    masks compressed onto each joint's axes; its verdicts, and those of
    ``decide_many`` on the plan's statements, equal each statement's
    ``independent``, a lone chunk that never enters ``_decide_groups``."""

    @settings(max_examples=100, deadline=None)
    @given(t=grid_tables(), tn=st.sampled_from(ALL_TNORMS), exact_values=st.booleans())
    def test_matches_decide_many(self, t, tn, exact_values):
        eps = EPS
        if exact_values and tn.transform is None:  # transforms force floating point
            t, eps = exact(t), 0
        plan = _scan_plan(t.schema.variables, AXIOMS)
        want = [independent(t, tn, stmt, eps).holds for stmt in plan.statements]
        assert scan_axioms(t, tn, eps=eps)._verdicts == want
        assert decide_many(t, tn, plan.statements, eps) == want


# (chunk budget, cache budget) forcing each route of ``_decide_groups``
# wherever the table's lattice fits: the whole list as one chunk on the
# table's lattice, each joint read as a block of that lattice, and each
# joint marginalized and decided on its own
ROUTES = {"one-chunk": (ANY_LATTICE, ANY_LATTICE), "joint-blocks": (0, ANY_LATTICE),
          "fallback": (None, NO_LATTICE)}


@st.composite
def route_inputs(draw):
    """(schema, graph, kind, rng): a schema on V8..V11 in a drawn order with
    2-4 labels per variable, a graph on its variables, and how to fill the
    table with the seeded rng: grid values, the same exact at eps 0, or
    planted on the graph and jittered at the scale of eps."""
    names = draw(st.permutations([f"V{8 + i}" for i in range(draw(st.integers(1, 4)))]))
    sizes = draw(st.lists(st.integers(2, 4), min_size=len(names), max_size=len(names)))
    schema = Schema([(n, [str(d) for d in range(k)]) for n, k in zip(names, sizes)])
    edges = [e for e in combinations(sorted(names), 2) if draw(st.booleans())]
    graph = UndirectedGraph(sorted(names), edges)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["grid", "exact", "jittered"]))
    return schema, graph, kind, rng


def assert_route(route, shape, count, lattices, handed):
    if route == "fallback" or not posscheck.independence._fits(shape, count):
        assert lattices == [] and not any(handed)
    else:
        assert lattices == [shape]
        assert any(handed) == (route == "joint-blocks")


class TestDecisionRoutes:
    """Each route of ``_decide_groups`` gives the verdicts of ``independent``
    in a scan, and the reports of deciding each statement through
    ``independent`` in an exhaustive global check."""

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=80, deadline=None)
    @given(drawn=route_inputs(), tn=st.sampled_from(ALL_TNORMS))
    def test_scans_and_exhaustive_global_checks(self, route, drawn, tn):
        schema, graph, kind, rng = drawn
        eps = EPS
        if kind == "jittered":
            t, anchor = planted(schema, graph, tn, rng, 0.3)
            t = jittered(t, anchor, rng, rng.choice([0.5, 1.0, 2.0]) * EPS)
        else:
            t = grid_table(schema, rng)
            if kind == "exact" and tn.transform is None:  # transforms force floating point
                t, eps = exact(t), 0
        plan = _scan_plan(schema.variables, AXIOMS)
        want = [independent(t, tn, stmt, eps).holds for stmt in plan.statements]
        with pytest.MonkeyPatch.context() as monkeypatch:
            set_budgets(monkeypatch, *ROUTES[route])
            lattices, handed = routes_taken(monkeypatch)
            reports = scan_axioms(t, tn, eps=eps)
            assert_route(route, schema.shape, len(plan.statements), lattices, handed)
            assert reports._verdicts == want
            for r in violations(reports):
                assert r.witness == independent(t, tn, r.consequent, eps).witness
            lattices.clear(), handed.clear()
            report = global_markov(t, graph, tn, eps, exhaustive=True)
            assert_route(route, schema.shape, len(report.checked), lattices, handed)
        results = [independent(t, tn, stmt, eps) for stmt, _ in report.checked]
        assert report.checked == tuple((r.statement, r.holds) for r in results)
        failing = next((r for r in results if not r.holds), None)
        assert report.holds == (failing is None)
        assert report.witness == (None if failing is None else (failing.statement, failing.witness))

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("names", [("X",), ("X", "Y")], ids=["one-variable", "two-variables"])
    def test_scans_of_one_and_two_variables_are_empty(self, route, names, monkeypatch):
        set_budgets(monkeypatch, *ROUTES[route])
        t = PossibilityTable.load(Schema.binary(*names), [], 1.0)
        for eps in (EPS, 0):
            reports = scan_axioms(t, TNorm.godel(), eps=eps)
            assert len(reports) == 0 and list(reports) == [] and reports.violated == []
        for eps in (-1, float("nan")):
            with pytest.raises(DomainError, match="eps"):
                scan_axioms(t, TNorm.godel(), eps=eps)
            with pytest.raises(DomainError, match="eps"):
                complete = UndirectedGraph(names, combinations(names, 2))
                global_markov(t, complete, TNorm.godel(), eps)


class TestKeptLattice:
    """Within ``_inputs_kept`` the first lattice built for a table serves
    every later list on it, whatever its size, on each route: the verdicts
    are those of ``independent``, an empty list gives an empty array, and a
    negative or NaN eps still raises."""

    @pytest.mark.parametrize("chunk", [None, 0], ids=["one-chunk", "joint-blocks"])
    @pytest.mark.parametrize("exact_values", [False, True], ids=["float", "Fraction"])
    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_later_lists_read_the_kept_lattice(self, chunk, exact_values, tn, monkeypatch, rng):
        schema = Schema([(f"V{8 + i}", "012" if i % 2 else "01") for i in range(5)])
        names = schema.variables
        t, eps = grid_table(schema, rng), EPS
        if exact_values:
            t, eps = exact(t), 0
        plan = _scan_plan(names, AXIOMS)
        picks = [rng.choice(len(plan.statements), count, replace=False) for count in (1, 7)]
        wants = [[independent(t, tn, plan.statements[i], eps).holds for i in picked.tolist()]
                 for picked in picks]
        lattices, handed = routes_taken(monkeypatch)
        with _inputs_kept():
            _decide_groups(t, tn, plan.masks, plan.joints, eps)
            set_budgets(monkeypatch, chunk, None)
            handed.clear()
            for picked, want in zip(picks, wants):
                masks = tuple(m[picked] for m in plan.masks)
                got = _decide_groups(t, tn, masks, _joint_groups(*masks, names), eps)
                assert got.tolist() == want
            empty = (np.zeros(0, np.int64),) * 3
            got = _decide_groups(t, tn, empty, _joint_groups(*empty, names), eps)
            assert got.dtype == bool and got.shape == (0,)
            for bad in (-1, float("nan")):
                with pytest.raises(DomainError, match="eps"):
                    _decide_groups(t, tn, empty, _joint_groups(*empty, names), bad)
        assert lattices == [schema.shape]
        if chunk is None:
            assert handed == []  # one chunk reads the kept lattice directly
        else:
            assert handed and all(handed)  # each joint block is handed it


class TestScanCallCounts:
    """A scan that builds the table's lattice fills it once and reads every
    joint from it, marginalizing nothing but the whole table."""

    @pytest.fixture
    def kept(self, monkeypatch):
        """The variables of each ``marginalize`` call, as a set."""
        calls = []
        unhooked = PossibilityTable.marginalize

        def counted(table, keep):
            calls.append(set(keep))
            return unhooked(table, keep)

        monkeypatch.setattr(PossibilityTable, "marginalize", counted)
        return calls

    # a 4-variable scan fits one chunk, a 5-variable one reads joint blocks
    @pytest.mark.parametrize("domains", [("01", "012", "01", "01"), ("01",) * 5, ("012",) * 5],
                             ids=["one-chunk", "joint-blocks", "joint-blocks-ternary"])
    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_one_lattice_and_no_proper_marginal(self, domains, tn, rng, kept, lattices):
        schema = Schema([(f"V{8 + i}", labels) for i, labels in enumerate(domains)])
        t = grid_table(schema, rng)
        # the semigraphoid axioms hold on every table: no witness is looked up
        reports = scan_axioms(t, tn, AXIOMS[:4])
        assert len(reports) and violations(reports) == []
        assert lattices == [schema.shape]
        assert kept and all(k == set(schema.variables) for k in kept)


class TestExactNumerators:
    """Exact tables are decided on integer numerators over their common
    denominator, never through the t-norm kernels; ``fraction_independent``,
    the Fraction route those replaced, is the oracle."""

    @pytest.mark.parametrize("cache", [NO_LATTICE, None], ids=["no-lattice", "default"])
    @settings(max_examples=150)
    @given(data=st.data(), t=exact_tables(), tn=st.sampled_from(BASE_TNORMS),
           eps=st.sampled_from(EXACT_EPS))
    def test_matches_the_fraction_route(self, cache, data, t, tn, eps):
        stmts = data.draw(statement_lists(t.schema.variables))
        want = [fraction_independent(t, tn, s, eps) for s in stmts]
        with pytest.MonkeyPatch.context() as monkeypatch:
            set_budgets(monkeypatch, None, cache)
            assert decide_many(t, tn, stmts, eps) == [w.holds for w in want]
            assert [independent(t, tn, s, eps).witness for s in stmts] == \
                [w.witness for w in want]

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_a_mismatch_of_exactly_eps_is_within_it(self, tn):
        # I(X; Y) misses by 1/4 (Goedel, Lukasiewicz) or 1/8 (product) at
        # one cell: eps steps of 1/32 land below, on and above each miss
        stmt = IndependenceStatement(("X",), ("Y",))
        verdicts = []
        for cells in ([[1, 0.5], [0.75, 0.25]], [[1, 0.75], [0.75, 0.75]]):
            values = np.array([[Fraction(v) for v in row] for row in cells], dtype=object)
            table = PossibilityTable(Schema.binary("X", "Y"), values)
            for eps in [Fraction(k, 32) for k in range(10)]:
                want = fraction_independent(table, tn, stmt, eps)
                assert decide_many(table, tn, [stmt], eps) == [want.holds]
                verdicts.append(want.holds)
        assert {True, False} <= set(verdicts)

    @pytest.mark.parametrize("denominator, base, eps, dtype", [
        (1 << 31, "product", 0, np.int64),
        ((1 << 31) + 1, "product", 0, object),
        ((1 << 31) + 1, "godel", 0.1, object),
        (1001, "lukasiewicz", 0.1, np.int64),
        (1001, "product", 0.1, object),
    ])
    def test_numerators_are_int64_up_to_a_common_denominator_of_2_to_31(
            self, denominator, base, eps, dtype):
        values = np.array([Fraction(1), Fraction(1, denominator)], dtype=object)
        table = PossibilityTable(Schema.binary("X"), values)
        scaled, _ = posscheck.independence._numerators(table, TNorm(base), eps)
        assert scaled.values.dtype == dtype
        assert scaled.values.tolist() == [denominator, 1]

    def test_exact_tables_never_reach_the_tnorm_kernels(self, monkeypatch, rng):
        for name in ("apply_array", "residual_array"):
            def guarded(tn, *arrays, kernel=getattr(TNorm, name)):
                assert all(np.asarray(a).dtype != object for a in arrays), \
                    "an object array reached a t-norm kernel"
                return kernel(tn, *arrays)
            monkeypatch.setattr(TNorm, name, guarded)
        with pytest.raises(AssertionError, match="object array"):
            TNorm.godel().residual_array(np.array([Fraction(1, 2)], dtype=object), np.ones(1))
        for tn in BASE_TNORMS:
            for _ in range(4):
                t = random_table(rng, max_vars=4, max_domain=3)
                x = exact(t)
                stmts = statement_list(rng, t.schema.variables, 12)
                assert decide_many(x, tn, stmts, eps=0) == decide_many(t, tn, stmts)
                assert scan_tuples(x, tn, AXIOMS, eps=0) == scan_tuples(t, tn, AXIOMS)
                graph = random_graph(rng, t.schema.variables)
                here, there = chain_report(x, graph, tn, eps=0), chain_report(t, graph, tn)
                assert here.summary() == there.summary()
                assert here.global_report.checked == there.global_report.checked

    def test_a_scan_builds_the_numerators_once(self, monkeypatch):
        # 6 violated reports with 3 distinct consequents: the decision and
        # each witness lookup read one set of numerators
        builds = []
        unhooked = posscheck.independence._numerators

        def counted(table, tn, eps):
            builds.append(table)
            return unhooked(table, tn, eps)

        monkeypatch.setattr(posscheck.independence, "_numerators", counted)
        x = builtin_example(1).table(exact=True)
        reports = scan_axioms(x, TNorm.godel(), eps=0)
        assert len(reports.violated) == 6
        assert len({reports[i].consequent for i in reports.violated}) == 3
        assert builds == [x]
        assert posscheck.independence._KEPT.get() is None

    @pytest.mark.parametrize("tn", TRANSFORMED_TNORMS, ids=lambda t: t.describe())
    def test_a_transformed_tnorm_is_refused(self, tn):
        stmt = IndependenceStatement(("X",), ("Y",), ("Z",))
        x = builtin_example(1).table(exact=True)
        with pytest.raises(DomainError, match="transformed"):
            decide_many(x, tn, [stmt], eps=0)
        with pytest.raises(DomainError, match="transformed"):
            independent(x, tn, stmt, eps=0)
        # the same table in floating point is decided
        independent(builtin_example(1).table(), tn, stmt)

    @pytest.mark.parametrize("eps", [-0.1, -1, float("nan")])
    def test_a_negative_or_nan_eps_is_refused(self, eps):
        # on float tables a NaN eps once passed every comparison and a
        # negative one failed every one; exact tables refused both.  A
        # decision that compares nothing refuses it too: no statement, an
        # empty scan, a complete graph, a single clique.
        stmt = IndependenceStatement(("X",), ("Y",))
        graph = UndirectedGraph(["X", "Y"])
        complete = UndirectedGraph.from_edges([("X", "Y")])
        cells = [[Fraction(1), Fraction(1, 5)], [Fraction(3, 10), Fraction(9, 10)]]
        for values in (np.array(cells, dtype=float), np.array(cells, dtype=object)):
            table = PossibilityTable(Schema.binary("X", "Y"), values)
            factors = Factorization(TNorm.godel(), {(v,): table.marginalize((v,)) for v in "XY"})
            assert not independent(table, TNorm.product(), stmt, 1e-9).holds
            assert factorizes(table, graph, TNorm.godel(), 1e-9).status == "no"
            calls = [
                lambda: independent(table, TNorm.product(), stmt, eps),
                lambda: decide_many(table, TNorm.product(), [stmt], eps),
                lambda: global_markov(table, graph, TNorm.product(), eps),
                lambda: factorizes(table, graph, TNorm.godel(), eps),
                lambda: verify(table, graph, factors, eps),
                lambda: decide_many(table, TNorm.product(), [], eps),
                lambda: global_markov(table, complete, TNorm.product(), eps),
                lambda: local_markov(table, complete, TNorm.product(), eps),
                lambda: pairwise_markov(table, complete, TNorm.product(), eps),
                lambda: scan_axioms(table, TNorm.product(), eps=eps),
                lambda: factorizes(table, complete, TNorm.product(), eps),
                lambda: chain_report(table, complete, TNorm.product(), eps=eps,
                                     include_factorization=True),
                # no property of the complete graph has a statement to decide
                lambda: chain_report(table, complete, TNorm.product(), eps=eps),
            ]
            for call in calls:
                with pytest.raises(DomainError, match="eps"):
                    call()


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


def report_tuple(r):
    return (r.axiom, r.groups, r.antecedents, r.consequent, r.consequent_holds, r.holds,
            r.witness)


def scan_tuples(table, tn, axioms, eps=EPS):
    return [report_tuple(r) for r in scan_axioms(table, tn, axioms, eps=eps)]


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
        from posscheck.independence import _scan_plan

        tables = [PossibilityTable.load(Schema.binary(*names), [], 1.0)
                  for names in (("A", "B", "C"), ("P", "Q", "R", "S"), ("X", "Y"))]
        _scan_plan.cache_clear()
        for _ in range(3):
            for t in tables:
                scan_axioms(t, TNorm.product())
        info = _scan_plan.cache_info()
        # one plan per (names, axioms) key: built on the first pass, then reused
        assert info.misses == len(tables)
        assert info.hits == 2 * len(tables)

    def test_a_warm_scan_hashes_no_statement(self, rng, monkeypatch):
        t = grid_table(Schema([("A", "01"), ("B", "012"), ("C", "01"), ("D", "01")]), rng)
        scan_axioms(t, TNorm.product())
        calls = []
        unhooked = IndependenceStatement.__hash__

        def counted(stmt):
            calls.append(stmt)
            return unhooked(stmt)

        monkeypatch.setattr(IndependenceStatement, "__hash__", counted)
        reports = scan_axioms(PossibilityTable(t.schema, t.values), TNorm.product())
        assert reports and calls == []

    @pytest.mark.parametrize("axioms, canonical", [
        (AXIOM_NAMES, AXIOM_NAMES),
        (["a4", "a2", "contraction"], ["contraction", "decomposition"]),
    ], ids=["all", "repeated"])
    def test_each_distinct_statement_is_decided_once(self, axioms, canonical, rng,
                                                     monkeypatch):
        t = grid_table(Schema([("A", "01"), ("B", "012"), ("C", "01"), ("D", "01")]), rng)
        statements = _scan_plan(t.schema.variables, tuple(canonical)).statements
        batches = []
        unhooked = posscheck.independence._decide_groups

        def recorded(table, tn, masks, groups, eps):
            batches.append([statements[i] for _, indices, _, _ in groups for i in indices])
            return unhooked(table, tn, masks, groups, eps)

        monkeypatch.setattr(posscheck.independence, "_decide_groups", recorded)
        scan_axioms(t, TNorm.godel(), axioms)
        [decided] = batches
        expected = {stmt for r in naive_scan(t, TNorm.godel(), canonical)
                    for stmt in (*(s for s, _ in r[2]), r[3])}
        assert len(decided) == len(set(decided)) == len(statements)
        assert set(decided) == expected


def plan_instances(plan):
    """The instances of a ``_scan_plan`` as ``oracle_scan_plan`` lists them."""
    instances = []
    for axiom, start, stop in plan.blocks:
        n_roles = 3 if axiom == "symmetry" else 4
        n_antecedents = len(_AXIOM_FORMS[axiom][0])
        for i in range(start, stop):
            instances.append((
                axiom,
                tuple(plan.subsets[m] for m in plan.roles[i, :n_roles].tolist()),
                tuple(plan.antecedents[i, :n_antecedents].tolist()),
                int(plan.consequents[i]),
            ))
    return instances


class TestScanPlan:
    """The array plan lists the statements and instances of the loop plan
    in ``conftest``, in the same order and with the same indices."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_axiom_subset_matches_the_loop_plan(self, n):
        # V8, V9, V10, ...: the schema order is not the name order
        names = tuple(f"V{i}" for i in range(8, 8 + n))
        for size in range(1, len(AXIOMS) + 1):
            for axioms in combinations(AXIOMS, size):
                self.assert_matches(names, axioms)

    def test_six_variables(self):
        # each axiom alone, and all of them in either order: the loop plan
        # of every subset at n = 6 would take seconds
        names = ("D", "B", "C", "A", "F", "E")
        for axioms in [(axiom,) for axiom in AXIOMS] + [AXIOMS, AXIOMS[::-1]]:
            self.assert_matches(names, axioms)

    @staticmethod
    def assert_matches(names, axioms):
        statements, instances = oracle_scan_plan(names, axioms)
        plan = _scan_plan(names, axioms)
        assert [(s.a, s.b, s.given) for s in plan.statements] == [
            (s.a, s.b, s.given) for s in statements]
        assert plan_instances(plan) == instances

    def test_the_cached_plan_is_read_only(self):
        plan = _scan_plan(("A", "B", "C"), AXIOMS)
        with pytest.raises(ValueError):
            plan.consequents[0] = 0
        for masks in plan.masks:
            with pytest.raises(ValueError):
                masks[0] = 0


class TestScanReports:
    """``scan_axioms`` returns a sequence that builds each report when it is
    first read; read in any way, it gives the reports of the naive scan."""

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_indexing_matches_the_naive_scan(self, tn, rng):
        t = grid_table(Schema([("A", "01"), ("B", "012"), ("C", "01"), ("D", "01")]), rng)
        expected = naive_scan(t, tn, AXIOMS)
        reports = scan_axioms(t, tn)
        n = len(reports)
        assert n == len(expected)
        # negative indices first, so that they build the reports
        assert [report_tuple(reports[-k]) for k in range(1, n + 1)] == expected[::-1]
        assert [report_tuple(reports[i]) for i in range(n)] == expected
        assert all(reports[i] is reports[i - n] for i in range(n))
        assert all(a is b for a, b in zip(reports, [reports[i] for i in range(n)]))

    def test_slices_are_lists_of_the_same_reports(self, rng):
        t = grid_table(Schema([("A", "01"), ("B", "012"), ("C", "01"), ("D", "01")]), rng)
        expected = naive_scan(t, TNorm.product(), AXIOMS)
        reports = scan_axioms(t, TNorm.product())
        n = len(reports)
        for cut in (slice(3, 40, 7), slice(None, None, -5), slice(-9, None),
                    slice(n - 2, n + 5), slice(n + 5, None), slice(None)):
            got = reports[cut]
            assert isinstance(got, list)
            assert [report_tuple(r) for r in got] == expected[cut]
            assert all(r is reports[i] for r, i in zip(got, range(n)[cut]))

    def test_an_index_past_either_end_raises(self):
        reports = scan_axioms(example1_table(), TNorm.godel())
        for index in (len(reports), len(reports) + 3, -len(reports) - 1):
            with pytest.raises(IndexError):
                reports[index]
        with pytest.raises(TypeError):
            reports["0"]

    def test_membership_is_identity(self):
        reports = scan_axioms(example1_table(), TNorm.godel())
        bad = violations(reports)
        assert bad[0] in reports and bad[-1] in reports
        assert replace(bad[0]) not in reports  # equal fields, another report
        assert None not in reports and "symmetry" not in reports
        assert reports.index(bad[0]) == reports.violated[0]
        assert reports.count(bad[0]) == 1

    @pytest.mark.parametrize("names, axioms", [
        (("X", "Y"), None),
        (("X", "Y", "Z"), []),
        (("X",), ["a2", "a1"]),
    ], ids=["two-variables", "no-axioms", "one-variable"])
    def test_empty_scans(self, names, axioms):
        t = PossibilityTable.load(Schema.binary(*names), [], 1.0)
        reports = scan_axioms(t, TNorm.godel(), axioms)
        assert len(reports) == 0 and list(reports) == [] and reports[:] == []
        assert violations(reports) == [] and reports.violated == []
        assert [axiom for axiom, _, _ in reports.blocks] == list(canonical_axioms(axioms))
        with pytest.raises(IndexError):
            reports[0]

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_exact_fraction_tables_at_eps_zero(self, tn, rng):
        t = exact(grid_table(Schema([("V8", "01"), ("V9", "012"), ("V10", "01")]), rng))
        expected = naive_scan(t, tn, AXIOMS, eps=0)
        reports = scan_axioms(t, tn, eps=0)
        order = rng.permutation(len(reports)).tolist()
        got = {i: report_tuple(reports[i]) for i in order}
        assert [got[i] for i in range(len(reports))] == expected
        assert [report_tuple(r) for r in violations(reports)] == [
            r for r in expected if not r[5]]

    def test_violations_by_axiom_block(self):
        reports = scan_axioms(example1_table(), TNorm.godel(), ["a5", "a1"])
        assert reports.blocks == (("intersection", 0, 6), ("symmetry", 6, 12))
        assert reports.violated == list(range(6))
        assert all(reports[i].axiom == "intersection" for i in range(6))
        assert all(reports[i].axiom == "symmetry" for i in range(6, 12))

    def test_a_replaced_report_is_read_back(self):
        reports = scan_axioms(example1_table(), TNorm.godel(), ["a1"])
        assert not violations(reports)
        broken = replace(reports[2], holds=False)
        reports[-4] = broken
        assert reports[2] is broken and list(reports)[2] is broken
        assert violations(reports) == [broken] and reports.violated == [2]


class TestReportsBuiltOnAccess:
    """A scan builds no report until one is read: the number of reports, the
    violations and the CLI's axiom checks build only the violated ones."""

    @pytest.fixture
    def built(self, monkeypatch):
        reports = []
        unhooked = AxiomReport.__init__

        def counted(report, *args, **kwargs):
            unhooked(report, *args, **kwargs)
            reports.append(report)

        monkeypatch.setattr(AxiomReport, "__init__", counted)
        return reports

    def test_len_and_violations_build_the_violated_reports_only(self, built, rng):
        reports = scan_axioms(example1_table(), TNorm.godel())
        assert len(reports) == 30 and built == []
        bad = violations(reports)
        assert len(bad) == 6 and all(a is b for a, b in zip(built, bad))
        assert len(built) == len(bad)

    def test_a_clean_scan_builds_no_report(self, built, rng):
        t = random_table(rng, max_vars=4)
        reports = scan_axioms(t, TNorm.product(), ["symmetry"])
        assert len(reports) > 0 and violations(reports) == [] and built == []

    def test_the_cli_builds_the_violated_reports_only(self, built, capsys):
        model = json.dumps(builtin_example(1).to_model_json())
        code = main(["axioms", "--model", model, "--tnorm", "godel", "--json"])
        [check] = [c for c in json.loads(capsys.readouterr().out)["checks"]
                   if c["violations"]]
        assert code == EX_FAILS and check["axiom"] == "intersection"
        assert len(built) == len(check["violations"]) == 6


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

    @pytest.mark.parametrize("groups", [((), ("Y",), ("Z",)), (("X",), (), ("Z",))],
                             ids=["empty-x", "empty-y"])
    def test_symmetry_needs_nonempty_x_and_y(self, groups):
        with pytest.raises(ArityError, match="nonempty"):
            check_axiom(example1_table(), TNorm.godel(), "symmetry", groups)

    def test_symmetry_allows_an_empty_conditioning_group(self):
        report = check_axiom(example1_table(), TNorm.godel(), "symmetry",
                             (("X",), ("Y",), ()))
        assert report.holds

    def test_group_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            check_axiom(example1_table(), TNorm.godel(), "contraction",
                        (("X",), ("X",), ("Y",), ()))

    def test_repeated_and_aliased_axioms_are_scanned_once(self):
        t = example1_table()
        once = scan_tuples(t, TNorm.godel(), ["a5"])
        assert len(once) == 6
        assert scan_tuples(t, TNorm.godel(), ["a5", "intersection", "A5"]) == once

    def test_axioms_are_scanned_in_the_order_first_named(self):
        t = example1_table()
        reports = scan_tuples(t, TNorm.godel(), ["a5", "a1"])
        assert [r[0] for r in reports] == ["intersection"] * 6 + ["symmetry"] * 6
        assert reports == naive_scan(t, TNorm.godel(), ["intersection", "symmetry"])

    @pytest.mark.parametrize("axioms", [None, ["all"], ["ALL"], ["a5", "All"]])
    def test_all_stands_for_every_axiom(self, axioms):
        t = example1_table()
        assert scan_tuples(t, TNorm.godel(), axioms) == naive_scan(
            t, TNorm.godel(), TestScanAgainstNaiveEnumeration.AXIOM_NAMES)

    def test_scan_limit(self):
        schema = Schema.binary(*[f"V{i}" for i in range(8)])
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
