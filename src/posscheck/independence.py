"""Conditional T-independence between variable groups and the graphoid axioms.

A group statement (A independent of B given S) holds when recombining the
residual conditional of A given S with the marginal of B union S through the
t-norm reproduces the joint marginal of A, B, S at every assignment.  For
continuous t-norms this pointwise test is equivalent to the almost-everywhere
form stated on conditional distributions.  ``decide_many`` is the one
decider: the Markov checks and the axiom scans pass it whole statement
lists, and ``independent`` is its call on one statement.

How a statement is decided: statements are grouped by their joint
A u B u S, and the table's memo supplies each joint pi(A, B, S) once.  The
marginals pi(A, S), pi(B, S) and pi(S) are maxima of the joint over its own
A and B axes, kept as size-1 axes.  A batch takes each maximum once and
keeps it by the bitmask of the axes it drops, so statements that drop the
same axes share it; a joint's kept maxima are dropped when they span more
than ``_CACHE_CELLS`` cells.  The statements of a joint are decided in
chunks of at most ``_CHUNK_CELLS`` cells: their maxima are broadcast to the
joint's shape and stacked along a new leading axis, so the residual, the
recombination and the comparison with the joint each run once per chunk.  A
statement whose joint is larger than that is a chunk of its own and keeps
the keepdims shapes, so it makes no stacked copies.  A max of maxima
is exact and every kernel works cell by cell, so the verdicts equal those
from separately marginalized tables decided one statement at a time, bit
for bit and for exact ``Fraction`` tables too.  Only a failing statement
looks for its witness: the first mismatching cell of the joint, first
variable cycling fastest.

Axiom scans enumerate their instances once per (variable names, axiom) into
a table-independent plan; a scan decides the distinct statements of its
plans in one batch, so each is decided once, and reports from those
verdicts.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product as iter_product
from typing import Optional

import numpy as np

from .errors import ArityError, DisjointnessError, LimitError
from .numeric import DEFAULT_EPSILON, mismatch_mask
from .possibility import PossibilityTable
from .tnorm import TNorm

SYMMETRY = "symmetry"
DECOMPOSITION = "decomposition"
WEAK_UNION = "weak_union"
CONTRACTION = "contraction"
INTERSECTION = "intersection"
AXIOMS = (SYMMETRY, DECOMPOSITION, WEAK_UNION, CONTRACTION, INTERSECTION)

# Conventional short names (A1..A5) used by the CLI and the literature.
AXIOM_ALIASES = {
    "a1": SYMMETRY,
    "a2": DECOMPOSITION,
    "a3": WEAK_UNION,
    "a4": CONTRACTION,
    "a5": INTERSECTION,
}


def canonical_axiom(name):
    key = str(name).lower()
    key = AXIOM_ALIASES.get(key, key)
    if key not in AXIOMS:
        raise ArityError(f"unknown axiom {name!r}")
    return key


@dataclass(frozen=True)
class IndependenceStatement:
    """A triple of pairwise-disjoint variable groups: a independent of b given s."""

    a: tuple
    b: tuple
    given: tuple = ()

    def __post_init__(self):
        a = tuple(sorted(set(self.a)))
        b = tuple(sorted(set(self.b)))
        given = tuple(sorted(set(self.given)))
        if not a or not b:
            raise DisjointnessError("both independence sides must be nonempty")
        if set(a) & set(b) or set(a) & set(given) or set(b) & set(given):
            raise DisjointnessError("statement groups must be pairwise disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "given", given)

    def __str__(self):
        lhs = ",".join(self.a)
        rhs = ",".join(self.b)
        cond = ",".join(self.given) if self.given else "{}"
        return f"I({lhs}; {rhs} | {cond})"

    def to_json_dict(self):
        return {"a": list(self.a), "b": list(self.b), "given": list(self.given)}


@dataclass(frozen=True, eq=False)
class IndependenceResult:
    statement: IndependenceStatement
    holds: bool
    witness: Optional[dict] = None

    def __bool__(self):
        return self.holds


def independent(table: PossibilityTable, tn: TNorm, statement: IndependenceStatement,
                eps=DEFAULT_EPSILON) -> IndependenceResult:
    """Decide conditional T-independence of the statement's groups.

    The witness, when the statement fails, is the first assignment of the
    involved variables (first variable cycling fastest) where the t-norm
    recombination misses the joint marginal.
    """
    return decide_many(table, tn, [statement], eps)[0]


# Cells of the stacked arrays one chunk of statements may span; a statement
# whose joint is larger forms a chunk of its own.
_CHUNK_CELLS = 1 << 14
# Cells of the maxima of one joint a batch may keep; past it they are dropped.
_CACHE_CELLS = 1 << 20


def decide_many(table: PossibilityTable, tn: TNorm, statements, eps=DEFAULT_EPSILON):
    """The ``independent`` result of each statement, in input order.

    Statements on the same joint A u B u S share its one marginal and its
    keepdims maxima, and are recombined and compared in chunks.
    """
    statements = list(statements)
    by_joint = {}
    for i, stmt in enumerate(statements):
        by_joint.setdefault(frozenset(stmt.a + stmt.b + stmt.given), []).append(i)
    results = [None] * len(statements)
    for key, indices in by_joint.items():
        joint = table.marginalize(key)
        pi = joint.values
        bit = {name: 1 << i for i, name in enumerate(joint.schema.variables)}
        maximum = _maxima(pi)
        step = max(1, _CHUNK_CELLS // pi.size)
        for lo in range(0, len(indices), step):
            chunk = indices[lo:lo + step]
            terms = []  # (pi(A, S), pi(S), pi(B, S)) of each statement
            for i in chunk:
                a = sum(map(bit.__getitem__, statements[i].a))
                b = sum(map(bit.__getitem__, statements[i].b))
                m_as = maximum(b)
                terms.append((m_as, maximum(a | b, m_as), maximum(a)))
            mask = _mismatches(tn, pi, terms, eps)
            fails = mask.reshape(len(chunk), -1).any(axis=1).tolist()
            for k, i in enumerate(chunk):
                witness = joint.schema.first_flagged(mask[k]) if fails[k] else None
                results[i] = IndependenceResult(statements[i], not fails[k], witness)
    return results


def _maxima(pi):
    """A function ``maximum(drop, of=pi)``: the keepdims maximum of ``pi``
    over the axes whose bits are set in ``drop``, reduced from ``of`` (``pi``
    or a maximum of it).  Each is taken once and kept; the kept ones are
    dropped when they span more than ``_CACHE_CELLS`` cells."""
    kept = {}
    cells = 0

    def maximum(drop, of=pi):
        nonlocal cells
        m = kept.get(drop)
        if m is None:
            if cells > _CACHE_CELLS:
                kept.clear()
                cells = 0
            axes = tuple(i for i in range(pi.ndim) if drop >> i & 1)
            m = kept[drop] = of.max(axis=axes, keepdims=True)
            cells += m.size
        return m

    return maximum


def _mismatches(tn, pi, terms, eps):
    """Where T(pi(A, S) => pi(S), pi(B, S)) misses the joint ``pi``, one
    mask per (pi(A, S), pi(S), pi(B, S)) term along a new leading axis.

    A lone term keeps its keepdims shapes; several are broadcast to the
    joint's shape and stacked, so each kernel runs once per chunk.
    """
    if len(terms) == 1:
        m_as, m_s, m_bs = (m[None] for m in terms[0])
    else:
        m_as, m_s, m_bs = (np.empty((len(terms),) + pi.shape, pi.dtype) for _ in range(3))
        for k, term in enumerate(terms):
            m_as[k], m_s[k], m_bs[k] = term
    lhs = tn.apply_array(tn.residual_array(m_as, m_s), m_bs)
    return mismatch_mask(lhs, pi, eps)


# -- graphoid axioms ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AxiomReport:
    """Outcome of one axiom instantiation.

    ``consequent_holds`` is None when the consequent was skipped because an
    antecedent already failed (scans do this); ``holds`` is False exactly
    when every antecedent holds and the consequent fails.
    """

    axiom: str
    groups: tuple
    antecedents: tuple
    consequent: IndependenceStatement
    consequent_holds: Optional[bool]
    holds: bool
    witness: Optional[dict] = None


# Each axiom over the groups (X, Y, Z, W), numbered 0..3: its antecedents and
# its consequent, each an (a, b, given) triple whose sides join the listed groups.
_AXIOM_FORMS = {
    SYMMETRY: ((((0,), (1,), (2,)),), ((1,), (0,), (2,))),
    DECOMPOSITION: ((((0,), (1, 2), (3,)),), ((0,), (2,), (3,))),
    WEAK_UNION: ((((0,), (1, 2), (3,)),), ((0,), (1,), (2, 3))),
    CONTRACTION: ((((0,), (1,), (2, 3)), ((0,), (2,), (3,))), ((0,), (1, 2), (3,))),
    INTERSECTION: ((((0,), (1,), (2, 3)), ((0,), (2,), (1, 3))), ((0,), (1, 2), (3,))),
}


def _axiom_statements(axiom, groups):
    """(antecedent statements, consequent statement) of one axiom instance."""
    antecedents, consequent = _AXIOM_FORMS[axiom]

    def statement(form):
        return IndependenceStatement(*(sum((groups[k] for k in side), ()) for side in form))

    return [statement(form) for form in antecedents], statement(consequent)


def _instance_report(decide, axiom, groups, antecedent_stmts, consequent_stmt, lazy):
    """The report of one axiom instance; ``decide`` maps a statement to its
    IndependenceResult."""
    antecedents = tuple((stmt, decide(stmt).holds) for stmt in antecedent_stmts)
    all_true = all(holds for _, holds in antecedents)
    if lazy and not all_true:
        return AxiomReport(axiom, groups, antecedents, consequent_stmt, None, True)
    cons = decide(consequent_stmt)
    violated = all_true and not cons.holds
    return AxiomReport(
        axiom,
        groups,
        antecedents,
        consequent_stmt,
        cons.holds,
        not violated,
        cons.witness if violated else None,
    )


def check_axiom(table: PossibilityTable, tn: TNorm, axiom, groups,
                eps=DEFAULT_EPSILON) -> AxiomReport:
    """Test one axiom instantiation, evaluating every antecedent and the consequent.

    ``groups`` is a sequence of variable groups: (X, Y, Z) for symmetry and
    (X, Y, Z, W) for the rest, with W possibly empty.
    """
    axiom = canonical_axiom(axiom)
    groups = tuple(tuple(g) for g in groups)
    expected = 3 if axiom == SYMMETRY else 4
    if len(groups) != expected:
        raise ArityError(f"{axiom} takes {expected} groups, got {len(groups)}")
    if axiom != SYMMETRY and not all(groups[:3]):
        raise ArityError(f"{axiom} needs nonempty X, Y and Z groups (only W may be empty)")
    flat = [v for g in groups for v in g]
    if len(flat) != len(set(flat)):
        raise DisjointnessError("axiom groups must be pairwise disjoint")
    antecedents, consequent = _axiom_statements(axiom, groups)
    return _instance_report(partial(independent, table, tn, eps=eps), axiom, groups,
                            antecedents, consequent, lazy=False)


# room for four variable-name tuples, so that scans alternating between a few
# schemas build each plan once
@lru_cache(maxsize=4 * len(AXIOMS))
def _scan_plan(names, axiom):
    """Every instance of ``axiom`` over the variables ``names``, in scan order.

    Each instance is (groups, antecedent statements, consequent statement).
    The plan depends only on the names, so one plan serves every table on
    them.  While the plan is built, groups are bitmasks over ``names``, and
    each distinct statement is built once and shared.
    """
    n_roles = 3 if axiom == SYMMETRY else 4
    subsets = [
        tuple(v for i, v in enumerate(names) if mask >> i & 1)
        for mask in range(1 << len(names))
    ]
    antecedent_forms, consequent_form = _AXIOM_FORMS[axiom]
    shared = {}

    def statement(masks, form):
        # the groups are disjoint, so the sum of their masks is their union
        key = tuple([sum(map(masks.__getitem__, side)) for side in form])
        stmt = shared.get(key)
        if stmt is None:
            stmt = shared[key] = IndependenceStatement(*(subsets[m] for m in key))
        return stmt

    plan = []
    for roles in iter_product(range(n_roles + 1), repeat=len(names)):
        masks = [0] * (n_roles + 1)  # role n_roles marks unused variables
        for i, r in enumerate(roles):
            masks[r] |= 1 << i
        if masks[0] and masks[1] and masks[2]:
            plan.append((
                tuple(subsets[m] for m in masks[:n_roles]),
                tuple(statement(masks, form) for form in antecedent_forms),
                statement(masks, consequent_form),
            ))
    return tuple(plan)


def scan_axioms(table: PossibilityTable, tn: TNorm, axioms=None, scan_limit=6,
                eps=DEFAULT_EPSILON):
    """Exhaustively instantiate axioms over all disjoint group assignments.

    X, Y, Z range over nonempty groups; W (where the axiom has one) may be
    empty; variables may stay unused.  A consequent is only reported when
    all antecedents hold, so vacuously-true reports carry
    ``consequent_holds=None``.  Raises LimitError when the schema exceeds
    ``scan_limit`` variables.
    """
    names = table.schema.variables
    if len(names) > scan_limit:
        raise LimitError(
            f"schema has {len(names)} variables, scan limit is {scan_limit}"
        )
    if axioms is None:
        axioms = AXIOMS
    plans = [(axiom, _scan_plan(names, axiom)) for axiom in map(canonical_axiom, axioms)]
    distinct = list(dict.fromkeys(
        stmt for _, plan in plans for _, antecedents, consequent in plan
        for stmt in (*antecedents, consequent)
    ))
    memo = dict(zip(distinct, decide_many(table, tn, distinct, eps)))
    return [
        _instance_report(memo.__getitem__, axiom, groups, antecedents, consequent, lazy=True)
        for axiom, plan in plans
        for groups, antecedents, consequent in plan
    ]


def violations(reports):
    """The subset of axiom reports that are actual violations."""
    return [r for r in reports if not r.holds]
