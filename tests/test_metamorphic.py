"""Metamorphic properties of the Markov checks and of factorization.

Permuting the schema order and renaming the variables to names that do not
sort naturally (V10 before V9, upper case before lower case) must leave
every verdict unchanged: the three Markov properties, the statements each
one checks with their verdicts, and the factorization status.  Each Markov
witness must fail again when re-checked on the other table.

Relabelling each variable's domain (permuting its labels and renaming them,
with the values moving along) must leave every independence, Markov and
factorization verdict unchanged, and each witness cell, relabelled, must
fail again on the other table.  Exact ``Fraction`` tables at eps=0 must get
the Markov reports of the same float tables at the default eps on dyadic
grids, where every float value is exact.
"""

from fractions import Fraction

import numpy as np
import pytest

from posscheck import (
    Factorization,
    IndependenceStatement,
    PossibilityTable,
    Schema,
    UndirectedGraph,
    factorizes,
    global_markov,
    independent,
    local_markov,
    pairwise_markov,
)

from conftest import ALL_TNORMS, permuted, planted, random_graph, random_table

# names that sort neither as the originals V0..V4 do nor among themselves
# as a human would: "V1" < "V10" < "V9" < "Z" < "a"
ODD_NAMES = ("V10", "V9", "a", "Z", "V1")

PROPERTIES = (
    ("global", lambda t, g, tn: global_markov(t, g, tn)),
    ("global exhaustive", lambda t, g, tn: global_markov(t, g, tn, exhaustive=True)),
    ("local", local_markov),
    ("pairwise", pairwise_markov),
)


def renamed(table, graph, rng):
    """The table and graph under a random renaming to ODD_NAMES, on a
    permuted schema order; returns them with the renaming."""
    names = table.schema.variables
    mapping = dict(zip(names, rng.permutation(ODD_NAMES[:len(names)]).tolist()))
    schema = Schema([(mapping[n], table.schema.domain(n)) for n in names])
    table = permuted(PossibilityTable(schema, table.values), rng)
    graph = UndirectedGraph([mapping[v] for v in graph.vertices],
                            [(mapping[a], mapping[b]) for a, b in graph.edges])
    return table, graph, mapping


def mapped(stmt, mapping):
    return IndependenceStatement(*([mapping[v] for v in side]
                                   for side in (stmt.a, stmt.b, stmt.given)))


def checked_set(report, mapping):
    """The checked (statement, verdict) pairs with A and B as an unordered
    pair, since renaming can swap which side sorts first."""
    out = set()
    for stmt, holds in report.checked:
        stmt = mapped(stmt, mapping)
        out.add((frozenset((stmt.a, stmt.b)), stmt.given, holds))
    return out


def corpus(tn, rng, runs):
    """Random grid tables on random graphs, and tables planted on them."""
    for k in range(runs):
        if k % 2:
            table = random_table(rng, max_vars=5, max_domain=3)
            graph = random_graph(rng, table.schema.variables)
        else:
            n = int(rng.integers(2, 6))
            schema = Schema.binary(*(f"V{i}" for i in range(n)))
            graph = random_graph(rng, schema.variables)
            table, _ = planted(schema, graph, tn, rng, 0.25)
        yield table, graph


@pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
def test_markov_verdicts_survive_permutation_and_renaming(tn, rng):
    for table, graph in corpus(tn, rng, 100):
        other, other_graph, mapping = renamed(table, graph, rng)
        identity = {v: v for v in mapping.values()}
        back = {new: old for old, new in mapping.items()}
        for name, check in PROPERTIES:
            here = check(table, graph, tn)
            there = check(other, other_graph, tn)
            assert here.holds == there.holds, name
            assert checked_set(here, mapping) == checked_set(there, identity), name
            if not here.holds:
                stmt = mapped(here.witness[0], mapping)
                assert not independent(other, tn, stmt).holds, name
                stmt = mapped(there.witness[0], back)
                assert not independent(table, tn, stmt).holds, name


@pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
def test_factorization_status_survives_permutation_and_renaming(tn, rng):
    statuses = set()
    for table, graph in corpus(tn, rng, 100):
        other, other_graph, _ = renamed(table, graph, rng)
        here = factorizes(table, graph, tn)
        there = factorizes(other, other_graph, tn)
        assert here.status == there.status, (graph.edges, table.values)
        statuses.add(here.status)
    assert "yes" in statuses


# labels that sort neither as the originals "0", "1", "2" do nor as a
# human would: "10" < "9" < "A" < "b"
ODD_LABELS = ("10", "9", "b", "A")


def relabelled(table, rng):
    """The table with each variable's labels in a random new order and
    renamed to ODD_LABELS, each value moving with its labels; returns it with
    a function that relabels an assignment."""
    names = table.schema.variables
    values = table.values
    renames, domains = {}, []
    for axis, name in enumerate(names):
        old = table.schema.domain(name)
        renames[name] = dict(zip(old, rng.permutation(ODD_LABELS[:len(old)]).tolist()))
        order = rng.permutation(len(old))
        values = np.take(values, order, axis=axis)
        domains.append((name, [renames[name][old[i]] for i in order]))

    def relabel(assignment):
        return {v: renames[v][label] for v, label in assignment.items()}

    return PossibilityTable(Schema(domains), values), relabel


def misses_at(table, tn, stmt, cell, eps=1e-9):
    """True iff, at the assignment ``cell``, T(pi(A,S) residuated by pi(S),
    pi(B,S)) differs from pi(A,B,S) by more than ``eps``."""
    def pi(*groups):
        marginal = table.marginalize([v for group in groups for v in group])
        idx = marginal.schema.multi_index({v: cell[v] for v in marginal.schema.variables})
        return marginal.values[idx]

    lhs = tn.apply(tn.residual(pi(stmt.a, stmt.given), pi(stmt.given)), pi(stmt.b, stmt.given))
    return abs(lhs - pi(stmt.a, stmt.b, stmt.given)) > eps


def marginal_fold_misses_at(table, graph, tn, cell, eps=1e-9):
    """True iff the fold of the clique marginals differs from the table at
    the assignment ``cell`` by more than ``eps``."""
    fold = Factorization(tn, {c: table.marginalize(c) for c in graph.cliques()})
    idx = table.schema.multi_index(cell)
    return abs(fold.combine(table.schema).values[idx] - table.values[idx]) > eps


def statements(names):
    """Every statement over ``names`` with A before B, A and B nonempty."""
    for roles in np.ndindex(*(4,) * len(names)):
        a, b, s = ([v for v, r in zip(names, roles) if r == k] for k in range(3))
        if a and b and a < b:
            yield IndependenceStatement(a, b, s)


@pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
def test_independence_verdicts_survive_relabelling(tn, rng):
    verdicts = set()
    for table, _ in corpus(tn, rng, 30):
        other, relabel = relabelled(table, rng)
        for stmt in statements(table.schema.variables):
            here = independent(table, tn, stmt)
            there = independent(other, tn, stmt)
            assert here.holds == there.holds, stmt
            if not here.holds:
                assert misses_at(other, tn, stmt, relabel(here.witness)), stmt
                assert misses_at(other, tn, stmt, there.witness), stmt
            verdicts.add(here.holds)
    assert verdicts == {True, False}


@pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
def test_markov_verdicts_survive_relabelling(tn, rng):
    for table, graph in corpus(tn, rng, 60):
        other, relabel = relabelled(table, rng)
        for name, check in PROPERTIES:
            here = check(table, graph, tn)
            there = check(other, graph, tn)
            assert here.holds == there.holds, name
            assert here.checked == there.checked, name
            if not here.holds:
                stmt, cell = here.witness
                assert not independent(other, tn, stmt).holds, name
                assert misses_at(other, tn, stmt, relabel(cell)), name


@pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
def test_factorization_status_survives_relabelling(tn, rng):
    statuses = set()
    for table, graph in corpus(tn, rng, 60):
        other, relabel = relabelled(table, rng)
        here = factorizes(table, graph, tn)
        there = factorizes(other, graph, tn)
        assert here.status == there.status, (graph.edges, table.values)
        if here.witness is not None and (tn.base == "godel" or table.is_crisp()):
            # the witness is a cell where the clique-marginal candidate misses
            assert marginal_fold_misses_at(other, graph, tn, relabel(here.witness))
        statuses.add(here.status)
    assert {"yes", "no"} <= statuses


DYADIC = (0.0, 0.25, 0.5, 0.75, 1.0)


def exact(table):
    """The table with every value as the Fraction it equals."""
    values = np.array([Fraction(v) for v in table.values.ravel()], dtype=object)
    return PossibilityTable(table.schema, values.reshape(table.schema.shape))


def dyadic_planted(schema, graph, tn, rng):
    """The fold of clique factors drawn from DYADIC, all 1 at one cell."""
    anchor = tuple(int(rng.integers(k)) for k in schema.shape)
    factors = {}
    for clique in graph.cliques():
        sub = schema.project(clique)
        values = rng.choice(DYADIC[1:], sub.shape)
        values[tuple(anchor[schema.axis(v)] for v in sub.variables)] = 1.0
        factors[clique] = PossibilityTable(sub, values)
    return Factorization(tn, factors).combine(schema)


@pytest.mark.parametrize("tn", [t for t in ALL_TNORMS if t.transform is None],
                         ids=lambda t: t.describe())
def test_exact_and_float_markov_runs_agree_on_dyadic_grids(tn, rng):
    verdicts = set()

    def agree(table, graph):
        rational = exact(table)
        for check in (global_markov, local_markov, pairwise_markov):
            here = check(table, graph, tn)
            there = check(rational, graph, tn, eps=0)
            assert here.holds == there.holds, check.__name__
            assert here.checked == there.checked, check.__name__
            assert here.witness == there.witness, check.__name__
            verdicts.add(here.holds)

    def random_dyadic(schema):
        values = rng.choice(DYADIC, schema.shape)
        values[tuple(int(rng.integers(2)) for _ in schema.shape)] = 1.0
        return PossibilityTable(schema, values)

    for k in range(40):
        schema = Schema.binary(*(f"V{i}" for i in range(int(rng.integers(3, 6)))))
        graph = random_graph(rng, schema.variables)
        agree(random_dyadic(schema) if k % 2 else dyadic_planted(schema, graph, tn, rng), graph)
    # binary chains of 8 and 9 variables, planted and random
    for n in (8, 9):
        schema = Schema.binary(*(f"V{i}" for i in range(n)))
        names = schema.variables
        chain = UndirectedGraph(names, list(zip(names, names[1:])))
        agree(dyadic_planted(schema, chain, tn, rng), chain)
        agree(random_dyadic(schema), chain)
    assert verdicts == {True, False}
