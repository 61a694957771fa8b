"""Clique factorizations: verify, construct, and a famous counterexample.

A table factorizes over a graph when combining one factor per maximal
clique through the t-norm reproduces it.  Factorization implies the global
Markov property for Archimedean t-norms; the four-cycle model shows the
converse fails.

Run:  python demos/05_factorization.py
"""

import numpy as np

from posscheck import (
    Factorization,
    PossibilityTable,
    Schema,
    TNorm,
    UndirectedGraph,
    factorizes,
    global_markov,
)
from posscheck.corpus import builtin_example

print("=== building a table that factorizes by construction ===")
schema = Schema.binary("X", "Y", "Z")
chain = UndirectedGraph.from_edges([("X", "Y"), ("Y", "Z")])
rng = np.random.default_rng(3)
f1 = rng.uniform(0.2, 1.0, (2, 2)); f1[0, 0] = 1.0
f2 = rng.uniform(0.2, 1.0, (2, 2)); f2[0, 0] = 1.0
built = Factorization(TNorm.product(), {
    ("X", "Y"): PossibilityTable(Schema.binary("X", "Y"), f1),
    ("Y", "Z"): PossibilityTable(Schema.binary("Y", "Z"), f2),
})
table = built.combine(schema)
print("combined table over the chain X - Y - Z:")
print(np.round(table.values.astype(float), 3))

result = factorizes(table, chain, TNorm.product())
print(f"factorizes? {result.status}")
recombined = result.factorization.combine(schema)
print("recombination error:",
      float(np.abs(recombined.values - table.values).max()))
print("(factors are not unique; only the recombination is pinned down)")

print()
print("=== three decision procedures ===")
print("min:      clique marginals succeed whenever anything does (idempotence)")
print("crisp:    indicator factors from 1-set projections, any t-norm")
print("positive: zero non-edge mixed differences in the rescaled space,")
print("          then factors in the unit interval")

print()
print("=== the four-cycle counterexample ===")
m = builtin_example(5)
t5, g5 = m.table(), m.graph()
print(f"model 5: {m.title}")
for base in ("godel", "product", "lukasiewicz"):
    tn = TNorm(base)
    g_holds = global_markov(t5, g5, tn).holds
    res = factorizes(t5, g5, tn)
    print(f"  {base:<12} global={g_holds}  factorizes={res.status}  witness={res.witness}")
print()
print("every edge projection of the 1-set is full, so candidate factors are")
print("identically 1 and the combination is possible everywhere; yet the")
print("witness cell has possibility 0.  Factorization is strictly stronger")
print("than the global Markov property.")

print()
print("=== dispatch and the unknown verdict ===")
values = np.full((2, 2, 2), 0.5)
values[0, 0, 0] = 1.0
values[1, 1, 1] = 0.0
awkward = PossibilityTable(schema, values)
res = factorizes(awkward, chain, TNorm.lukasiewicz())
print(f"a non-crisp, non-positive table under lukasiewicz: {res.status}")
print(f"  ({res.reason})")
