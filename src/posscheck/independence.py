"""Conditional T-independence between variable groups and the graphoid axioms.

A group statement (A independent of B given S) holds when recombining the
residual conditional of A given S with the marginal of B union S through the
t-norm reproduces the joint marginal of A, B, S at every assignment.  For
continuous t-norms this pointwise test is equivalent to the almost-everywhere
form stated on conditional distributions.  ``decide_many`` is the one
decider: the Markov checks and the axiom scans pass it whole statement
lists and get one verdict per statement.  ``independent`` decides one
statement the same way and is the one place a witness is looked up; the
reports call it only for the witnesses they show.

How a statement is decided: statements are grouped by their joint
A u B u S, and ``table.marginalize`` supplies each joint pi(A, B, S) once
per batch.  The marginals pi(A, S), pi(B, S) and pi(S) are maxima of the
joint over its own B, A and A u B axes, kept as size-1 axes.  Where it
fits, a batch builds the max-marginal lattice of the joint (Gray et al.,
"Data Cube", 1997): one array of shape (k0 + 1, k1 + 1, ...) that holds
the maximum over every subset of the axes, filled by one reduction per
axis i over its contiguous (outer, ki + 1, inner) view.  It is built when
it spans no more than ``_CACHE_CELLS`` cells and
no more than the batch's statements times the joint's cells, the stacks
the batch writes anyway.  Otherwise the batch takes each maximum once
and keeps it by the bitmask of the axes it drops, so statements that drop
the same axes share it; a joint's kept maxima are dropped when they span
more than ``_CACHE_CELLS`` cells.  The statements of a joint are decided
in chunks of at most ``_CHUNK_CELLS`` cells: their maxima are broadcast
to the joint's shape and stacked along a new leading axis, gathered from
the lattice in one fancy index or copied from the kept maxima, so the
residual, the recombination and the comparison with the joint each run
once per chunk.  A statement whose joint is larger than that is a chunk
of its own; without the lattice it keeps the keepdims shapes, so it makes
no stacked copies.  ``independent`` is such a lone chunk, and never
builds a lattice, which spans more cells than its joint.  A max of maxima
is exact and every kernel works cell by cell, so the verdicts equal those
from separately marginalized tables decided one statement at a time, bit
for bit and for exact ``Fraction`` tables too.  A witness is the first
mismatching cell of the joint, first variable cycling fastest.

Axiom scans enumerate their instances once per (variable names, axioms)
into a table-independent plan: the distinct statements of all the
instances, and per instance the indices of its statements among them.  A
scan decides those statements in one batch, so each is decided once, reads
each report's verdicts by index, and looks up a witness only for a
violated report.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
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


# The most variables an axiom scan takes unless told otherwise (scan_axioms
# and the CLI's --scan-limit).
SCAN_LIMIT = 6


def canonical_axiom(name):
    key = str(name).lower()
    key = AXIOM_ALIASES.get(key, key)
    if key not in AXIOMS:
        raise ArityError(f"unknown axiom {name!r}")
    return key


def canonical_axioms(names=None):
    """The canonical names of ``names``, each once, in first-occurrence
    order; None, or any spelling of "all" among them, stands for AXIOMS."""
    names = ("all",) if names is None else tuple(names)
    if any(str(name).lower() == "all" for name in names):
        return AXIOMS
    return tuple(dict.fromkeys(map(canonical_axiom, names)))


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
        if len(set(a).union(b, given)) < len(a) + len(b) + len(given):
            raise DisjointnessError("statement groups must be pairwise disjoint")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "given", given)

    @classmethod
    def _trusted(cls, a, b, given):
        """The statement on sides that are already name-sorted tuples of
        distinct names, pairwise disjoint, with ``a`` and ``b`` nonempty, as
        the Markov enumerations build them; skips ``__post_init__``."""
        stmt = object.__new__(cls)
        stmt.__dict__.update(a=a, b=b, given=given)
        return stmt

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
    [(_, joint, mask)] = _chunks(table, tn, [statement], eps)
    witness = joint.schema.first_flagged(mask[0])
    return IndependenceResult(statement, witness is None, witness)


# Cells of the stacked arrays one chunk of statements may span; a statement
# whose joint is larger forms a chunk of its own.
_CHUNK_CELLS = 1 << 14
# Cells of the maxima of one joint a batch may hold: a batch builds the
# joint's max-marginal lattice only when it spans no more, and otherwise
# drops its kept maxima past it.
_CACHE_CELLS = 1 << 20


def decide_many(table: PossibilityTable, tn: TNorm, statements, eps=DEFAULT_EPSILON):
    """Whether each statement holds: one ``bool`` per statement, in input
    order, equal to its ``independent(...).holds``.

    Statements on the same joint A u B u S share its one marginal and its
    keepdims maxima, and are recombined and compared in chunks.
    """
    statements = list(statements)
    verdicts = np.ones(len(statements), dtype=bool)
    for chunk, _, mask in _chunks(table, tn, statements, eps):
        verdicts[chunk] = ~mask.reshape(len(chunk), -1).any(axis=1)
    return verdicts.tolist()


def _chunks(table, tn, statements, eps):
    """Decide the list ``statements`` chunk by chunk: yields (indices of the
    chunk's statements, their joint, the stacked mismatch mask), the mask's
    leading axis following the indices."""
    by_joint = {}
    for i, stmt in enumerate(statements):
        by_joint.setdefault(frozenset(stmt.a + stmt.b + stmt.given), []).append(i)
    for key, indices in by_joint.items():
        joint = table.marginalize(key)
        pi = joint.values
        bit = {name: 1 << i for i, name in enumerate(joint.schema.variables)}
        # the bitmasks of each statement's A and B axes
        a = [sum(map(bit.__getitem__, statements[i].a)) for i in indices]
        b = [sum(map(bit.__getitem__, statements[i].b)) for i in indices]
        # the lattice may span no more than the cache budget, nor than the
        # stacks the batch writes anyway
        fits = math.prod(k + 1 for k in pi.shape) <= min(_CACHE_CELLS, len(indices) * pi.size)
        terms = (_lattice if fits else _maxima)(pi)
        step = max(1, _CHUNK_CELLS // pi.size)
        for lo in range(0, len(indices), step):
            m_as, m_s, m_bs = terms(a[lo:lo + step], b[lo:lo + step])
            lhs = tn.apply_array(tn.residual_array(m_as, m_s), m_bs)
            yield indices[lo:lo + step], joint, mismatch_mask(lhs, pi, eps)


def _maxima(pi):
    """A function ``terms(a, b)``: for the bitmasks ``a`` and ``b`` of some
    statements' A and B axes, their keepdims maxima pi(A, S), pi(S) and
    pi(B, S) of ``pi``, each stacked along a new leading axis.

    Each maximum is taken once and kept; the kept ones are dropped when they
    span more than ``_CACHE_CELLS`` cells.  A lone statement keeps the
    keepdims shapes; several are broadcast to the joint's shape and stacked.
    """
    kept = {}
    cells = 0

    def maximum(drop, of):
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

    def terms(a, b):
        found = []
        for a_i, b_i in zip(a, b):
            m_as = maximum(b_i, pi)
            found.append((m_as, maximum(a_i | b_i, m_as), maximum(a_i, pi)))
        if len(found) == 1:
            return [m[None] for m in found[0]]
        stacks = [np.empty((len(found),) + pi.shape, pi.dtype) for _ in range(3)]
        for k, term in enumerate(found):
            stacks[0][k], stacks[1][k], stacks[2][k] = term
        return stacks

    return terms


def _lattice(pi):
    """A function ``terms(a, b)`` as ``_maxima`` gives, reading every
    maximum from the max-marginal lattice of ``pi``.

    The lattice ``z`` has shape (k0 + 1, k1 + 1, ...): ``pi`` fills the
    cells below every ki, and index ki on an axis holds the maximum over
    that axis, so the block with index ki on the dropped axes is the
    keepdims maximum over them.  Step j writes the maximum of rows below kj
    of the (outer, kj + 1, inner) view into row kj.  This is exact: a cell
    whose index-ki axes form the set K is final after step max(K), which
    reads cells whose index-ki axes are K less max(K), final by then; no
    later step writes it.  Slots kj not yet filled are read too, but step j
    rewrites them; ``z`` starts from zeros, not ``np.empty``, so they hold
    finite values that compare with ``Fraction``.  ``z`` is a fresh
    C-contiguous array, so each ``reshape`` is a view that writes through.

    The statements' terms, broadcast to the joint's shape, are gathered
    from ``z`` in one fancy index.  A batch of one statement never reads
    the lattice, which spans more cells than its joint.
    """
    h, lead, trail = _lattice_plan(pi.shape)
    z = np.zeros([k + 1 for k in pi.shape], pi.dtype)
    z[tuple(slice(k) for k in pi.shape)] = pi
    for axis, k in enumerate(pi.shape):
        v = z.reshape(math.prod(z.shape[:axis]), k + 1, -1)
        np.max(v[:, :k], axis=1, out=v[:, k])
    flat = z.reshape(-1)

    def terms(a, b):
        a, b = np.array(a), np.array(b)
        drops = np.concatenate([b, a | b, a])
        idx = lead[drops & ((1 << h) - 1)][:, :, None] + trail[drops >> h][:, None, :]
        return flat[idx].reshape((3, len(a)) + pi.shape)

    return terms


# room for the joint shapes of a few schemas, so that batches alternating
# between them build each plan once
@lru_cache(maxsize=64)
def _lattice_plan(shape):
    """How ``_lattice`` reads the lattice of a joint of ``shape``: (h, lead,
    trail).  The flat lattice index of a statement's term at a joint cell is
    the sum of a part from the h leading axes and one from the trailing ones:
    for a term dropping the axes of ``drop``, ``lead[drop & ((1 << h) - 1)]``
    and ``trail[drop >> h]`` hold them, over the cells of those axes.
    """
    strides = [math.prod(k + 1 for k in shape[i + 1:]) for i in range(len(shape))]
    h = len(shape) // 2

    def parts(axes):
        # row m: sum over the axes of (ki if bit i of m is set, else the
        # cell's index) times the lattice stride, over the cells of the axes
        sizes = [shape[i] for i in axes]
        cells = np.indices(sizes).reshape(len(axes), math.prod(sizes))
        bits = (np.arange(1 << len(axes))[:, None] >> np.arange(len(axes))) & 1
        picked = np.where(bits[:, :, None], np.array(sizes)[:, None], cells)
        offsets = np.tensordot(picked, [strides[i] for i in axes], axes=([1], [0])).astype(np.intp)
        offsets.flags.writeable = False  # shared by every caller of the cached plan
        return offsets

    return h, parts(range(h)), parts(range(h, len(shape)))


# -- graphoid axioms ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AxiomReport:
    """Outcome of one axiom instantiation.

    ``consequent_holds`` is None in a scan's report whose antecedents do not
    all hold: the scan decides the consequent too, but such a report is
    vacuously true, whatever the consequent.  ``holds`` is False exactly
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


def _instance_report(table, tn, eps, axiom, groups, antecedents, consequent, consequent_holds,
                     lazy):
    """The report of one axiom instance, from its antecedents' (statement,
    verdict) pairs and its consequent's statement and verdict.  Only a
    violated instance looks up a witness, through ``independent`` on the
    consequent."""
    all_true = all(holds for _, holds in antecedents)
    if lazy and not all_true:
        return AxiomReport(axiom, groups, antecedents, consequent, None, True)
    violated = all_true and not consequent_holds
    witness = independent(table, tn, consequent, eps).witness if violated else None
    return AxiomReport(axiom, groups, antecedents, consequent, consequent_holds, not violated,
                       witness)


def check_axiom(table: PossibilityTable, tn: TNorm, axiom, groups,
                eps=DEFAULT_EPSILON) -> AxiomReport:
    """Test one axiom instantiation, evaluating every antecedent and the consequent.

    ``groups`` is a sequence of variable groups: (X, Y, Z) for symmetry and
    (X, Y, Z, W) for the rest.  The last group may be empty, the others not.
    """
    axiom = canonical_axiom(axiom)
    groups = tuple(tuple(g) for g in groups)
    expected = 3 if axiom == SYMMETRY else 4
    if len(groups) != expected:
        raise ArityError(f"{axiom} takes {expected} groups, got {len(groups)}")
    if not all(groups[:-1]):
        raise ArityError(f"{axiom} needs nonempty {', '.join('XYZW'[:expected - 1])} groups "
                         f"(only {'XYZW'[expected - 1]} may be empty)")
    flat = [v for g in groups for v in g]
    if len(flat) != len(set(flat)):
        raise DisjointnessError("axiom groups must be pairwise disjoint")
    antecedents, consequent = _axiom_statements(axiom, groups)
    *verdicts, holds = decide_many(table, tn, antecedents + [consequent], eps)
    return _instance_report(table, tn, eps, axiom, groups, tuple(zip(antecedents, verdicts)),
                            consequent, holds, lazy=False)


# room for four (variable names, axioms) keys, so that scans alternating
# between a few schemas build each plan once
@lru_cache(maxsize=4)
def _scan_plan(names, axioms):
    """Every instance of ``axioms`` over the variables ``names``, in scan order.

    Returns (statements, instances): the distinct statements of all the
    instances, and per instance (axiom, groups, antecedent indices,
    consequent index), the indices pointing into ``statements``.  The plan
    depends only on the names, so one plan serves every table on them.
    While the plan is built, groups are bitmasks over ``names``, and a
    statement is keyed by the masks of its (a, b, given) sides.
    """
    subsets = [
        tuple(v for i, v in enumerate(names) if mask >> i & 1)
        for mask in range(1 << len(names))
    ]
    index = {}

    def statement(masks, form):
        # the groups are disjoint, so the sum of their masks is their union
        key = tuple([sum(map(masks.__getitem__, side)) for side in form])
        return index.setdefault(key, len(index))

    instances = []
    for axiom in axioms:
        n_roles = 3 if axiom == SYMMETRY else 4
        antecedent_forms, consequent_form = _AXIOM_FORMS[axiom]
        for roles in iter_product(range(n_roles + 1), repeat=len(names)):
            masks = [0] * (n_roles + 1)  # role n_roles marks unused variables
            for i, r in enumerate(roles):
                masks[r] |= 1 << i
            if masks[0] and masks[1] and masks[2]:
                instances.append((
                    axiom,
                    tuple(subsets[m] for m in masks[:n_roles]),
                    tuple(statement(masks, form) for form in antecedent_forms),
                    statement(masks, consequent_form),
                ))
    statements = tuple(IndependenceStatement(*(subsets[m] for m in key)) for key in index)
    return statements, tuple(instances)


def scan_axioms(table: PossibilityTable, tn: TNorm, axioms=None, scan_limit=SCAN_LIMIT,
                eps=DEFAULT_EPSILON):
    """Exhaustively instantiate axioms over all disjoint group assignments.

    ``axioms`` is read by ``canonical_axioms``: a repeated or aliased axiom
    is scanned once, in the order of its first mention.  X, Y, Z range over
    nonempty groups; W (where the axiom has one) may be empty; variables may
    stay unused.  Reports whose antecedents do not all hold are vacuously
    true and carry ``consequent_holds=None``.  Raises LimitError when the
    schema exceeds ``scan_limit`` variables.
    """
    names = table.schema.variables
    if len(names) > scan_limit:
        raise LimitError(
            f"schema has {len(names)} variables, scan limit is {scan_limit}"
        )
    statements, instances = _scan_plan(names, canonical_axioms(axioms))
    checked = list(zip(statements, decide_many(table, tn, statements, eps)))
    return [
        _instance_report(table, tn, eps, axiom, groups,
                         tuple(map(checked.__getitem__, antecedents)), *checked[consequent],
                         lazy=True)
        for axiom, groups, antecedents, consequent in instances
    ]


def violations(reports):
    """The subset of axiom reports that are actual violations."""
    return [r for r in reports if not r.holds]
