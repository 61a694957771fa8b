"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Criteria and tolerances are pinned here; the randomized suites run on fixed
seeds so that every run checks the identical corpus.
"""

import time
from fractions import Fraction
from itertools import product as iter_product

import numpy as np
import pytest

from posscheck import (
    Factorization,
    IndependenceStatement,
    PossibilityTable,
    Schema,
    TNorm,
    UndirectedGraph,
    check_axiom,
    factorizes,
    global_markov,
    independent,
    local_markov,
    pairwise_markov,
    scan_axioms,
    violations,
)
from posscheck.corpus import builtin_example

from conftest import random_graph

EPS = 1e-9

BASE_SPECS = (TNorm.godel(), TNorm.product(), TNorm.lukasiewicz())
ALL_SPECS = BASE_SPECS + (TNorm.product(2.0), TNorm.lukasiewicz(2.0))
ARCHIMEDEAN_SPECS = tuple(t for t in ALL_SPECS if t.is_archimedean)

GRID_VALUES = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
POSITIVE_GRID_VALUES = np.array([0.25, 0.5, 0.75, 1.0])


def _report(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


def _corpus_table(rng, positive):
    n_vars = int(rng.integers(2, 5))
    sizes = [int(rng.integers(2, 4)) for _ in range(n_vars)]
    schema = Schema(
        [(f"V{i}", [str(d) for d in range(k)]) for i, k in enumerate(sizes)]
    )
    pool = POSITIVE_GRID_VALUES if positive else GRID_VALUES
    values = rng.choice(pool, size=schema.shape)
    values[tuple(int(rng.integers(0, k)) for k in schema.shape)] = 1.0
    return PossibilityTable(schema, values)


@pytest.fixture(scope="module")
def corpus():
    """500 seeded random models: alternating 0.25-grid and strictly positive
    variants, each paired with a random graph on its variables."""
    rng = np.random.default_rng(98127)
    out = []
    for i in range(500):
        positive = i % 2 == 1
        table = _corpus_table(rng, positive)
        graph = random_graph(rng, table.schema.variables)
        out.append((table, graph, positive))
    return out


def test_criterion_01_residual_tables():
    """Closed-form residuals on the 0.1 grid: exact with Fractions, 1e-9 float."""
    problems = []
    float_grid = [k / 10 for k in range(11)]
    exact_grid = [Fraction(k, 10) for k in range(11)]

    def closed_form(base, y, x):
        if x <= y:
            return 1
        if base == "godel":
            return y
        if base == "product":
            return y / x
        return y - x + 1

    for tn in BASE_SPECS:
        for y in float_grid:
            for x in float_grid:
                want = closed_form(tn.base, y, x)
                got = tn.residual(y, x)
                if abs(got - want) > EPS:
                    problems.append((tn.base, y, x, got, want))
        for y in exact_grid:
            for x in exact_grid:
                want = closed_form(tn.base, y, x)
                if tn.residual(y, x) != want:
                    problems.append((tn.base, y, x, "exact"))
    _report(1, "residual-tables", not problems)
    assert not problems


def test_criterion_02_diagonal_independence():
    """Example 1 verdicts, with the stated witness, for all base t-norms."""
    table = builtin_example(1).table()
    problems = []
    for tn in BASE_SPECS:
        ok_xy = independent(table, tn, IndependenceStatement(("X",), ("Y",), ("Z",))).holds
        ok_xz = independent(table, tn, IndependenceStatement(("X",), ("Z",), ("Y",))).holds
        res = independent(table, tn, IndependenceStatement(("X",), ("Y", "Z")))
        if not (ok_xy and ok_xz):
            problems.append((tn.base, "conditional pair failed"))
        if res.holds or res.witness != {"X": "1", "Y": "0", "Z": "0"}:
            problems.append((tn.base, "unconditional verdict or witness wrong"))
    _report(2, "diagonal-independence", not problems)
    assert not problems


def test_criterion_03_intersection_axiom():
    """Example 2: min violates intersection with empty W; Archimedean bases scan clean."""
    table = builtin_example(2).table()
    problems = []
    godel_report = check_axiom(
        table, TNorm.godel(), "intersection", (("X",), ("Y",), ("Z",), ())
    )
    if godel_report.holds:
        problems.append("min should violate intersection here")
    for tn in (TNorm.product(), TNorm.lukasiewicz()):
        if violations(scan_axioms(table, tn, ["intersection"])):
            problems.append(f"{tn.base} scan found violations on a strictly positive table")
    _report(3, "intersection-axiom", not problems)
    assert not problems


def test_criterion_04_pairwise_not_local():
    """Example 3 graph: pairwise holds, local and global fail, all base t-norms."""
    m = builtin_example(3)
    table, graph = m.table(), m.graph()
    problems = []
    for tn in BASE_SPECS:
        got = (
            pairwise_markov(table, graph, tn).holds,
            local_markov(table, graph, tn).holds,
            global_markov(table, graph, tn).holds,
        )
        if got != (True, False, False):
            problems.append((tn.base, got))
    _report(4, "pairwise-not-local", not problems)
    assert not problems


def test_criterion_05_local_not_global():
    """Example 4 path: local holds, global fails at ({U,W} vs {Y,Z} | {X}) with
    the all-zeros assignment; exhaustive mode under 5 seconds."""
    m = builtin_example(4)
    table, graph = m.table(), m.graph()
    problems = []
    expected_witness = {"U": "0", "W": "0", "X": "0", "Y": "0", "Z": "0"}
    for tn in BASE_SPECS:
        if not local_markov(table, graph, tn).holds:
            problems.append((tn.base, "local should hold"))
        rep = global_markov(table, graph, tn)
        if rep.holds:
            problems.append((tn.base, "global should fail"))
        else:
            stmt, assignment = rep.witness
            if (stmt.a, stmt.b, stmt.given) != (("U", "W"), ("Y", "Z"), ("X",)):
                problems.append((tn.base, f"witness statement {stmt}"))
            if assignment != expected_witness:
                problems.append((tn.base, f"witness assignment {assignment}"))
    started = time.monotonic()
    for tn in BASE_SPECS:
        if global_markov(table, graph, tn, exhaustive=True).holds:
            problems.append((tn.base, "exhaustive mode disagrees"))
    elapsed = time.monotonic() - started
    if elapsed >= 5.0:
        problems.append(f"exhaustive runtime {elapsed:.2f}s")
    _report(5, "local-not-global", not problems, f"exhaustive {elapsed:.2f}s")
    assert not problems


def test_criterion_06_global_without_factorization():
    """Example 5 four-cycle: global holds for all base t-norms and the crisp
    table still does not factorize; cylinder witness (0,1,0,0)."""
    m = builtin_example(5)
    table, graph = m.table(), m.graph()
    problems = []
    for tn in BASE_SPECS:
        if not global_markov(table, graph, tn).holds:
            problems.append((tn.base, "global should hold"))
        res = factorizes(table, graph, tn)
        if res.status != "no":
            problems.append((tn.base, f"status {res.status}"))
        elif res.witness != {"X": "0", "Y": "1", "Z": "0", "W": "0"}:
            problems.append((tn.base, f"witness {res.witness}"))
    _report(6, "global-without-factorization", not problems)
    assert not problems


def test_criterion_07_semigraphoid_suite(corpus):
    """Zero A1-A4 violations over 500 random tables and five t-norm specs,
    inside the two-minute budget."""
    started = time.monotonic()
    bad = 0
    semigraphoid = ["symmetry", "decomposition", "weak_union", "contraction"]
    for table, _, _ in corpus:
        for tn in ALL_SPECS:
            bad += len(violations(scan_axioms(table, tn, semigraphoid)))
    elapsed = time.monotonic() - started
    ok = bad == 0 and elapsed < 120.0
    _report(7, "semigraphoid-suite", ok, f"{elapsed:.1f}s, {bad} violations")
    assert bad == 0
    assert elapsed < 120.0


def test_criterion_08_graphoid_suite(corpus):
    """Strictly positive tables, Archimedean specs: zero A5 violations and the
    three Markov properties coincide on random graphs."""
    bad = 0
    chain_mismatches = []
    for table, graph, positive in corpus:
        if not positive:
            continue
        for tn in ARCHIMEDEAN_SPECS:
            bad += len(violations(scan_axioms(table, tn, ["intersection"])))
            g = global_markov(table, graph, tn).holds
            l = local_markov(table, graph, tn).holds
            p = pairwise_markov(table, graph, tn).holds
            if not (g == l == p):
                chain_mismatches.append((table.schema.variables, tn.describe(), g, l, p))
    ok = bad == 0 and not chain_mismatches
    _report(8, "graphoid-suite", ok, f"{bad} violations, {len(chain_mismatches)} chain splits")
    assert bad == 0
    assert not chain_mismatches


def test_criterion_09_markov_chain(corpus):
    """No implication inversions anywhere in the corpus; global and local
    agree whenever there are at most four variables."""
    inversions = []
    for table, graph, _ in corpus:
        for tn in ALL_SPECS:
            g = global_markov(table, graph, tn).holds
            l = local_markov(table, graph, tn).holds
            p = pairwise_markov(table, graph, tn).holds
            if (g and not l) or (l and not p):
                inversions.append(("chain", table.schema.variables, tn.describe()))
            if len(table.schema.variables) <= 4 and g != l:
                inversions.append(("g-vs-l", table.schema.variables, tn.describe()))
    _report(9, "markov-chain", not inversions, f"{len(inversions)} inversions")
    assert not inversions


def _random_factorization(rng, kind):
    n = int(rng.integers(2, 6))
    names = [f"V{i}" for i in range(n)]
    schema = Schema.binary(*names)
    graph = random_graph(rng, names)
    cliques = graph.cliques()
    tn = {
        "godel": TNorm.godel(),
        "product": TNorm.product(),
        "product2": TNorm.product(2.0),
        "lukasiewicz": TNorm.lukasiewicz(),
        "lukasiewicz2": TNorm.lukasiewicz(2.0),
        "crisp": (TNorm.product(), TNorm.lukasiewicz())[int(rng.integers(0, 2))],
    }[kind]
    factors = {}
    for clique in cliques:
        sub = schema.project(clique)
        if kind == "godel":
            vals = rng.choice(GRID_VALUES, size=sub.shape).astype(float)
        elif kind == "crisp":
            vals = (rng.random(sub.shape) < 0.6).astype(float)
        elif kind.startswith("product"):
            vals = rng.uniform(0.05, 1.0, sub.shape)
        else:
            vals = rng.uniform(0.93, 1.0, sub.shape)
        vals[tuple(0 for _ in sub.shape)] = 1.0
        factors[clique] = PossibilityTable(sub, vals)
    return schema, graph, tn, Factorization(tn, factors)


def test_criterion_10_factorization_round_trip(rng=None):
    """200 random factorizations re-detected with recombination error <= eps;
    Archimedean yes-instances satisfy the global property; the min constructor
    agrees with brute-force search on every three-binary-variable instance."""
    rng = np.random.default_rng(55011)
    kinds = ["godel", "product", "product2", "lukasiewicz", "lukasiewicz2", "crisp"]
    problems = []
    theorem7_checked = 0
    for i in range(200):
        schema, graph, tn, built = _random_factorization(rng, kinds[i % len(kinds)])
        table = built.combine(schema)
        result = factorizes(table, graph, tn, EPS)
        if result.status != "yes":
            problems.append((i, "not re-detected", tn.describe()))
            continue
        err = np.abs(
            result.factorization.combine(schema).values.astype(float)
            - table.values.astype(float)
        ).max()
        if err > EPS:
            problems.append((i, f"recombination error {err:g}"))
        if tn.is_archimedean:
            theorem7_checked += 1
            if not global_markov(table, graph, tn).holds:
                problems.append((i, "yes without the global property"))

    # brute force over {0, 1/2, 1} factor tables on all three-binary-variable
    # normal tables, for three graph shapes
    levels = np.array([0.0, 0.5, 1.0])
    graphs = {
        "chain": UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z")]),
        "edgeless": UndirectedGraph(["X", "Y", "Z"]),
        "complete": UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z"), ("X", "Z")]),
    }
    schema = Schema.binary("X", "Y", "Z")
    brute_checked = 0
    for gname, graph in graphs.items():
        achievable = set()
        sub_schemas = [schema.project(c) for c in graph.cliques()]
        grids = [
            [np.array(v).reshape(s.shape) for v in iter_product(levels, repeat=int(np.prod(s.shape)))]
            for s in sub_schemas
        ]
        for combo in iter_product(*grids):
            f = Factorization(
                TNorm.godel(),
                {c: PossibilityTable(s, v) for c, s, v in zip(graph.cliques(), sub_schemas, combo)},
            )
            arrays = [
                np.broadcast_to(t.extend_values(schema), schema.shape)
                for t in f.factors.values()
            ]
            combined = np.minimum.reduce(arrays)
            achievable.add(combined.astype(float).tobytes())
        for cells in iter_product(levels, repeat=8):
            vals = np.array(cells)
            if vals.max() != 1.0:
                continue
            table = PossibilityTable(schema, vals.reshape(2, 2, 2))
            got = factorizes(table, graph, TNorm.godel()).is_yes
            want = vals.astype(float).tobytes() in achievable
            if got != want:
                problems.append((gname, cells, got, want))
            brute_checked += 1
    ok = not problems
    _report(10, "factorization-round-trip", ok,
            f"theorem7 on {theorem7_checked}, brute force on {brute_checked}")
    assert not problems


def test_criterion_11_greatest_solution():
    """Residual conditionals solve the recombination equation everywhere and
    stop being solutions after a +10 eps bump of any sub-1 cell."""
    rng = np.random.default_rng(77003)
    problems = []
    for i in range(100):
        n_vars = int(rng.integers(2, 5))
        sizes = [int(rng.integers(2, 4)) for _ in range(n_vars)]
        schema = Schema(
            [(f"V{i}", [str(d) for d in range(k)]) for i, k in enumerate(sizes)]
        )
        values = rng.choice(GRID_VALUES, size=schema.shape)
        values[tuple(int(rng.integers(0, k)) for k in schema.shape)] = 1.0
        table = PossibilityTable(schema, values)
        names = list(schema.variables)
        split = int(rng.integers(1, n_vars))
        target, given = names[:split], names[split:]
        for tn in BASE_SPECS:
            cond = table.condition(tn, target, given)
            joint = table.marginalize(names)
            giv = np.broadcast_to(
                table.marginalize(given).extend_values(joint.schema),
                joint.values.shape,
            )
            recombined = tn.apply_array(giv, cond.values)
            if np.abs(recombined - joint.values).max() > EPS:
                problems.append((i, tn.base, "recombination off"))
                continue
            for idx in np.ndindex(cond.values.shape):
                if cond.values[idx] >= 1.0:
                    continue
                bumped = cond.values.copy()
                bumped[idx] += 10 * EPS
                if np.abs(tn.apply_array(giv, bumped) - joint.values).max() <= EPS:
                    problems.append((i, tn.base, idx, "bump not detected"))
    _report(11, "greatest-solution", not problems, "100 tables x 3 base t-norms")
    assert not problems
