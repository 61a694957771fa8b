"""Metamorphic properties of the Markov checks and of factorization.

Permuting the schema order and renaming the variables to names that do not
sort naturally (V10 before V9, upper case before lower case) must leave
every verdict unchanged: the three Markov properties, the statements each
one checks with their verdicts, and the factorization status.  Each Markov
witness must fail again when re-checked on the other table.
"""

import pytest

from posscheck import (
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

