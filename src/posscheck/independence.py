"""Conditional T-independence between variable groups and the graphoid axioms.

A group statement (A independent of B given S) holds when recombining the
residual conditional of A given S with the marginal of B union S through the
t-norm reproduces the joint marginal of A, B, S at every assignment.  For
continuous t-norms this pointwise test is equivalent to the almost-everywhere
form stated on conditional distributions.  Every list of statements is
decided through one entry on bitmasks: ``decide_many`` maps its
statements' names to schema-axis bitmasks once, the axiom scans and the
Markov checks hand theirs over as bitmasks, and each list is grouped by
joint (``_joint_groups``) and decided by ``_decide_groups``, one verdict
per statement.  ``independent`` decides one statement on its own joint, a
lone chunk of the same core, and is the one place a witness is looked up;
the reports call it only for the witnesses they show.

How a statement is decided: statements are grouped by their joint A u B u S,
and one core, ``_joint_chunks``, decides each joint's statements from the
bitmasks of their A and B axes.  The marginals pi(A, S), pi(B, S) and pi(S)
are maxima of the joint over its own B, A and A u B axes, kept as size-1
axes.  Where it fits, they are read from the max-marginal lattice of the
joint (Gray et al., "Data Cube", 1997): one array of shape (k0 + 1, k1 + 1,
...) that holds the maximum over every subset of the axes, filled axis by
axis with elementwise maxima of the rows of its contiguous (outer, ki + 1,
inner) view (``_lattice``).  A batch builds it when it spans no more than
``_CACHE_CELLS`` cells and no more than the batch's statements times the
joint's cells, the stacks the batch writes anyway (``_fits``).  Otherwise
the batch takes each maximum once and keeps it by the bitmask of the axes it
drops, so statements that drop the same axes share it; a joint's kept maxima
are dropped when they span more than ``_CACHE_CELLS`` cells.  The statements
of a joint are decided in chunks of at most ``_CHUNK_CELLS`` cells: their
maxima are broadcast to the joint's shape and stacked along a new leading
axis, gathered from the lattice in one ``take`` (``_blocks``) or copied
from the kept maxima, so the recombination T(R(y, x), b) of the residual
(``TNorm.recombine_array``, one closed form for Lukasiewicz^p) and the
comparison with the joint each run once per chunk.  A statement whose joint
is larger than that is a chunk of its own; without the lattice it keeps the
keepdims shapes, so it makes no stacked copies.

``independent`` takes its joint from ``table.marginalize`` and is a lone
chunk, which never builds a lattice, as that spans more cells than the
joint.  ``_decide_groups`` applies the lattice rule once to the table
itself and the whole list.  Where it holds it fills the table's lattice
once and reads every joint from it: every maximum of a joint is a maximum
of the table, so a joint's values and its lattice are the block of the
table's lattice with index ki on the axes the joint leaves out (Gray et
al. again: fill the cube once, answer every group-by from it).  A list
whose statements times the table's cells fit one chunk is decided as that
chunk on the table's shape, each statement's unused axes added to the
drops of its three terms and its joint read as a fourth term; larger lists
keep their joints' own shapes, as stretching small joints to the table's
cells costs more than it saves.  Where the table's lattice does not fit,
each joint is marginalized and decided on its own, on its own lattice
where its statements fit it.  Within ``_inputs_kept`` (a ``chain_report``
or ``scan_axioms`` call) the first lattice built for a table is kept, and
every later list on that table reads it, whatever its size: a chain's
global check fills it, and local and pairwise read their leftover
statements from it.

An exact table (an object array of ``Fraction`` or other rational cells) is
first written once per call (once per ``chain_report`` or scan) as integer
numerators over the least common multiple of its denominators, int64 where
they fit: its joints, lattices and maxima are then maxima of integers, and
each base t-norm's mismatch test is a closed form in them (``_numerators``),
so no ``Fraction`` and no t-norm kernel runs per statement.  A max of maxima
is exact and every kernel works cell by cell, so the verdicts equal those
from separately marginalized tables decided one statement at a time, bit for
bit, on any route, and on exact tables those of the same tables'
``Fraction`` arithmetic.  A witness is the first mismatching cell of the
joint, first variable cycling fastest.

Axiom scans enumerate their instances once per (variable names, axioms)
into a table-independent plan of arrays: the role vectors of all instances
come from ``np.indices``, each group's bitmask is a sum of variable bits,
and ``np.unique`` numbers the distinct (a, b, given) keys, so the plan
holds the distinct statements, their side masks on the schema's axes,
and, per instance, its group masks and the indices of its antecedents and
consequent.  The plan also groups the distinct statements by joint, once,
in numpy: ``np.unique`` over their joint masks, and each statement's A and
B masks compressed onto its joint's axes, an axis's rank there being the
count of the joint's bits below it, kept as a running sum over the axes.
A scan decides those groups through ``_decide_groups``, so each statement
is decided once and nothing is regrouped or renamed per table: on the
table's lattice, a scan of four variables is one chunk and a larger one
one block per joint.
Which instances are vacuous and which are violated are two array
reductions over the verdicts.  The witness of a violated instance is
looked up at once, once per distinct consequent, and a report is built
only when it is read.
"""

import math
from collections.abc import Sequence
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .errors import ArityError, DisjointnessError, DomainError, LimitError
from .numeric import DEFAULT_EPSILON, mismatch_mask, require_eps
from .possibility import PossibilityTable
from .tnorm import GODEL, PRODUCT, TNorm

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
SCAN_LIMIT = 7


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


@dataclass(frozen=True, slots=True)
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
        the Markov enumerations build them; skips ``__post_init__``, and
        sets the slots through their own descriptors (``_set_slots``)."""
        stmt = object.__new__(cls)
        set_a, set_b, set_given = cls._set_slots
        set_a(stmt, a)
        set_b(stmt, b)
        set_given(stmt, given)
        return stmt

    def __str__(self):
        lhs = ",".join(self.a)
        rhs = ",".join(self.b)
        cond = ",".join(self.given) if self.given else "{}"
        return f"I({lhs}; {rhs} | {cond})"

    def to_json_dict(self):
        return {"a": list(self.a), "b": list(self.b), "given": list(self.given)}


# the slot descriptors' setters, which the frozen ``__setattr__`` does not
# guard and which cost less per call than ``object.__setattr__``
IndependenceStatement._set_slots = tuple(
    getattr(IndependenceStatement, name).__set__ for name in ("a", "b", "given"))


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
    table, mismatch = _decider(table, tn, eps)
    joint = table.marginalize(statement.a + statement.b + statement.given)
    axis = joint.schema.axis
    a = np.array([sum(1 << axis(v) for v in statement.a)], np.int64)
    b = np.array([sum(1 << axis(v) for v in statement.b)], np.int64)
    # a lone chunk, which builds no lattice: it spans more cells than the joint
    [(_, mask)] = _joint_chunks(joint.values, a, b, mismatch)
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

    The statements' sides are mapped to schema-axis bitmasks once and
    decided as a scan's are (``_joint_groups``, ``_decide_groups``).  Raises
    SchemaError for a variable outside the table's schema.
    """
    statements = list(statements)
    schema = table.schema
    used = set().union(*(s.a + s.b + s.given for s in statements))
    bit = {v: 1 << schema.axis(v) for v in used}
    masks = np.array([[sum(map(bit.__getitem__, side)) for side in (s.a, s.b, s.given)]
                      for s in statements], np.int64).reshape(-1, 3).T
    return _decide_groups(table, tn, masks, _joint_groups(*masks, schema.variables), eps).tolist()


# The decision inputs kept for a caller that decides several lists on one
# table (``chain_report``, ``scan_axioms``), each with the table it was built
# for, which keeps that table's id from being reused: an exact table's
# numerators, by (id of the table, t-norm, eps), the lattice of a decided
# table (the numerators, for an exact one), by ("lattice", id of the table),
# a chain's verdicts by graph-mask triple, by ("verdicts", id of the
# table), and its refused certificate, by ("refused", id of the table)
# (``markov._run_checks``).  ``_inputs_kept`` sets it; None elsewhere,
# where each call builds its own.
_KEPT = ContextVar("_KEPT", default=None)


class _inputs_kept:
    """Within the block, ``_decider`` builds each exact table's numerators
    once per t-norm and eps, the first lattice ``_decide_groups`` builds
    for a table is read by every later list on it, and a chain's Markov
    calls share one verdict memo and a refused certificate; they are
    dropped when the block exits or raises.  A class, not a ``contextmanager`` generator,
    which costs a scan of four variables about 1 % more."""

    def __enter__(self):
        self._token = _KEPT.set({})

    def __exit__(self, *exc):
        _KEPT.reset(self._token)


def _kept(key, table, build):
    """``build()``, or within ``_inputs_kept`` the value kept under ``key``,
    built and kept with ``table`` on first use."""
    kept = _KEPT.get()
    if kept is None:
        return build()
    if key not in kept:
        kept[key] = table, build()
    return kept[key][1]


def _decider(table, tn, eps):
    """(the table whose maxima a decision reads, the mismatch test
    ``mismatch(y, x, b, pi)`` on them): the table itself and the t-norm's
    recombination T(R(y, x), b) (``TNorm.recombine_array``, which for
    Lukasiewicz^p is its closed form on maxima, with no residual and no
    round trip through the transform) compared within eps, or for an exact
    table its integer numerators (``_numerators``), kept within
    ``_inputs_kept``.  Every route, the witness lookup included, decides
    through this test.  Raises DomainError for a negative or NaN eps."""
    require_eps(eps)
    if table.values.dtype == object:
        return _kept((id(table), tn, eps), table, lambda: _numerators(table, tn, eps))

    def mismatch(y, x, b, pi):
        return mismatch_mask(tn.recombine_array(y, x, b), pi, eps)
    return table, mismatch


def _joint_chunks(pi, a, b, mismatch, z=None):
    """Decide the statements on the joint values ``pi`` whose A and B axes
    are the bitmasks ``a`` and ``b`` (int64 arrays, on the axes of ``pi``)
    chunk by chunk: yields (the slice of the chunk's statements, their
    stacked mismatch mask).  The maxima are read from ``z``, the joint's
    lattice, when it is given, and otherwise from the lattice the batch
    builds where it fits (``_fits``), or else taken one by one
    (``_maxima``)."""
    if z is None and _fits(pi.shape, len(a)):
        z = _lattice(pi)
    if z is None:
        terms = _maxima(pi)
    else:
        def terms(a, b):
            return _blocks(z, np.stack([b, a | b, a]))
    step = max(1, _CHUNK_CELLS // pi.size)
    for lo in range(0, len(a), step):
        chunk = slice(lo, lo + step)
        # held across the yield: freed before the next chunk's stacks are
        # built, their pages go back to the system and fault in again
        m_as, m_s, m_bs = terms(a[chunk], b[chunk])
        yield chunk, mismatch(m_as, m_s, m_bs, pi)


def _fits(shape, count):
    """Whether a batch of ``count`` statements builds the lattice of a joint
    of ``shape``: the lattice may span no more than ``_CACHE_CELLS`` cells,
    nor more than the stacks the batch writes anyway."""
    return math.prod(k + 1 for k in shape) <= min(_CACHE_CELLS, count * math.prod(shape))


def _joint_groups(a, b, given, names):
    """The statements whose A, B and S axes are the bitmasks ``a``, ``b``
    and ``given`` (int64 arrays; bit i is the variable ``names[i]``),
    grouped by their joint A u B u S: a tuple of (the joint's variables,
    the indices of its statements, their A and B bitmasks on the joint's
    own axes), one per joint, in ascending joint mask.  An axis of the joint
    moves to its rank among the joint's axes, the count of the joint's bits
    below it."""
    n = len(names)
    joint = a | b | given
    if (joint == (1 << n) - 1).all():
        # every statement spans every variable, as the component, local and
        # pairwise statements do: one group, its masks already on its axes
        return ((tuple(names), np.arange(len(a)), a, b),)
    joints, inverse, counts = np.unique(joint, return_inverse=True, return_counts=True)
    on_a, on_b, rank = np.zeros_like(a), np.zeros_like(b), np.zeros_like(joint)
    for i in range(n):
        on_a |= (a >> i & 1) << rank
        on_b |= (b >> i & 1) << rank
        rank += joint >> i & 1
    by_joint = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    return tuple((tuple(v for i, v in enumerate(names) if j >> i & 1), indices,
                  on_a[indices], on_b[indices])
                 for j, indices in zip(joints.tolist(), by_joint))


def _decide_groups(table, tn, masks, groups, eps):
    """Whether each statement holds, as a bool array: the statements whose
    A, B and S axes are the bitmasks ``masks`` = (a, b, given), int64
    arrays on the table's axes, grouped by joint in ``groups`` as
    ``_joint_groups`` gives them (decided on the numerators, for an exact
    table).  Where the table's lattice is kept (``_inputs_kept``) or fits
    the whole list (``_fits``), every joint is read from it, and a list
    that fits one chunk on the table's shape is decided as that chunk;
    otherwise each joint is marginalized.  Raises DomainError for a
    negative or NaN eps."""
    table, mismatch = _decider(table, tn, eps)
    names = table.schema.variables
    a, b, given = masks
    verdicts = np.ones(len(a), dtype=bool)
    if not len(a):
        return verdicts
    z = None
    key = ("lattice", id(table))
    if key in (_KEPT.get() or ()) or _fits(table.values.shape, len(a)):
        pi = table.marginalize(names).values
        z = _kept(key, table, lambda: _lattice(pi))
        if len(a) * pi.size <= _CHUNK_CELLS:
            # a statement's terms also drop the axes it leaves unused, and
            # its joint is the maximum over those
            unused = ((1 << len(names)) - 1) ^ (a | b | given)
            drops = [b | unused, a | b | unused, a | unused]
            if unused.any():
                drops.append(unused)
            m_as, m_s, m_bs, *joint = _blocks(z, np.stack(drops))
            mask = mismatch(m_as, m_s, m_bs, joint[0] if joint else pi)
            return ~mask.reshape(len(a), -1).any(axis=1)
    for keep, indices, on_a, on_b in groups:
        if z is None:
            joint, block = table.marginalize(keep).values, None
        elif len(keep) == len(names):
            joint, block = pi, z
        else:
            # the joint's lattice: index ki on the axes the joint leaves out
            kept = set(keep)
            block = np.ascontiguousarray(
                z[tuple(slice(None) if v in kept else k for v, k in zip(names, pi.shape))])
            joint = block[tuple(slice(k - 1) for k in block.shape)]
        for chunk, mask in _joint_chunks(joint, on_a, on_b, mismatch, block):
            verdicts[indices[chunk]] = ~mask.reshape(len(mask), -1).any(axis=1)
    return verdicts


def _require_closed(table, tn):
    """Raise DomainError for an exact (object-dtype) table with a transformed
    t-norm, which is not closed on the rationals."""
    if table.values.dtype == object and tn.transform is not None:
        raise DomainError("exact tables do not support transformed t-norms")


def _numerators(table, tn, eps):
    """An exact table as integers: (the table of its numerators N over
    ``unit``, the least common multiple of its cells' denominators, and the
    mismatch test ``mismatch(y, x, b, pi)`` on numerators).  The numerator
    table is built past the constructor, whose [0, 1] check it would fail;
    it is only marginalized.

    A cell's value is N / unit with unit > 0, so every maximum of values is
    the maximum of their numerators over the same unit, and the joint,
    lattice and kept maxima are taken on the integers unchanged.  With
    y = pi(A, S), x = pi(S) and b = pi(B, S), where x >= y and x >= b, the
    recombination T(R(y, x), b) of each base t-norm is closed in them:

    - Goedel: R(y, x) is y if x > y, else 1, so T(R, b) is
      ``where(x > y, min(y, b), b)``, order operations on numerators;
    - Lukasiewicz: R(y, x) = y - x + 1 as y <= x, so T(R, b) is
      ``max(y - x + b, 0)``, whose coefficients sum to 1, so it holds for
      numerators too.  For both, a cell mismatches iff
      |N_lhs - N_pi| > eps * unit, iff it exceeds floor(eps * unit), the
      left side being an integer;
    - product: T(R, b) is b * y / x where x > 0 (which is b where x = y),
      so multiplying out unit and x, a cell mismatches iff
      |N_b * N_y - N_pi * N_x| > eps * unit * N_x.  Where x = 0, b and pi
      are 0 too, and both sides are 0, as |0 - 0| > eps is false.

    ``eps`` is taken exactly, as ``Fraction(eps)``; no difference exceeds
    unit (unit * N_x, for product), so an eps of 1 or more flags nothing.
    The numerators are int64 when unit <= 2**31 and the test multiplies no
    denominator of eps in (eps is 0, or the base is not product): no
    product then exceeds 2**62.  Otherwise they are Python ints in object
    arrays, through the same code.

    Raises DomainError for a transformed t-norm (``_require_closed``).
    """
    _require_closed(table, tn)
    cells = [Fraction(v) for v in table.values.flat]
    unit = math.lcm(*(f.denominator for f in cells))
    eps = Fraction(min(eps, 1))
    fits_int64 = unit <= 1 << 31 and (eps == 0 or tn.base != PRODUCT)
    numerators = np.array([f.numerator * (unit // f.denominator) for f in cells],
                          np.int64 if fits_int64 else object)
    scaled = PossibilityTable.__new__(PossibilityTable)
    scaled.schema = table.schema
    scaled.values = numerators.reshape(table.values.shape)
    if tn.base == PRODUCT:
        p, q = eps.numerator * unit, eps.denominator

        def mismatch(y, x, b, pi):
            return np.asarray(abs(b * y - pi * x) * q > x * p, dtype=bool)
    else:
        t = math.floor(eps * unit)

        def mismatch(y, x, b, pi):
            if tn.base == GODEL:
                lhs = np.where(x > y, np.minimum(y, b), b)
            else:
                lhs = np.maximum(y - x + b, 0)
            return np.asarray(abs(lhs - pi) > t, dtype=bool)
    return scaled, mismatch


def _maxima(pi):
    """A function ``terms(a, b)``: for the int arrays ``a`` and ``b`` of the
    bitmasks of some statements' A and B axes, their keepdims maxima
    pi(A, S), pi(S) and pi(B, S) of ``pi``, each stacked along a new leading
    axis.

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
        for a_i, b_i in zip(a.tolist(), b.tolist()):
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
    """The max-marginal lattice ``z`` of ``pi``, of shape (k0 + 1, k1 + 1,
    ...): ``pi`` fills the cells below every ki, and index ki on an axis
    holds the maximum over that axis, so the block with index ki on some
    axes is the keepdims maximum over them.

    Step j writes the maximum of rows below kj of the (outer, kj + 1, inner)
    view into row kj, as elementwise maxima: rows 0 and 1, then rows 2 to
    kj - 1 folded in one at a time (a domain has at least two labels).
    On axes of two or three labels that is one or two ``np.maximum`` calls
    over whole rows, where a reduction along the short middle axis costs
    several times more.  This is exact: a cell whose index-ki axes form the
    set K is final after step max(K), which reads cells whose index-ki axes
    are K less max(K), final by then; no later step writes it.  Slots kj
    not yet filled are read too, but step j rewrites them; ``z`` starts
    from zeros, not ``np.empty``, so in an object array they hold ints,
    which compare.  ``z`` is a fresh C-contiguous array, so each
    ``reshape`` is a view that writes through.
    """
    z = np.zeros([k + 1 for k in pi.shape], pi.dtype)
    z[tuple(slice(k) for k in pi.shape)] = pi
    for axis, k in enumerate(pi.shape):
        v = z.reshape(math.prod(z.shape[:axis]), k + 1, -1)
        np.maximum(v[:, 0], v[:, 1], out=v[:, k])
        for row in range(2, k):
            np.maximum(v[:, k], v[:, row], out=v[:, k])
    return z


def _blocks(z, drops):
    """The maxima over the axes of each bitmask in ``drops`` (an int array),
    read from the C-contiguous lattice ``z`` (``_lattice``) and broadcast to
    its joint's shape, in one ``take``: an array of shape ``drops.shape`` +
    the joint's shape.  The flat indices are in range by construction
    (``_lattice_plan``), so ``mode="wrap"`` never wraps; that take is
    cheaper than a fancy index or one that checks bounds."""
    shape = tuple(k - 1 for k in z.shape)
    h, lead, trail = _lattice_plan(shape)
    idx = lead[drops & ((1 << h) - 1)][..., :, None] + trail[drops >> h][..., None, :]
    return z.reshape(-1).take(idx, mode="wrap").reshape(drops.shape + shape)


# room for the joint shapes of a few schemas, so that batches alternating
# between them build each plan once
@lru_cache(maxsize=64)
def _lattice_plan(shape):
    """How ``_blocks`` reads the lattice of a joint of ``shape``: (h, lead,
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
# the number of groups each axiom takes: one past the last group its forms join
_ARITY = {axiom: 1 + max(k for form in (*antecedents, consequent) for side in form for k in side)
          for axiom, (antecedents, consequent) in _AXIOM_FORMS.items()}


def _axiom_statements(axiom, groups):
    """(antecedent statements, consequent statement) of one axiom instance."""
    antecedents, consequent = _AXIOM_FORMS[axiom]

    def statement(form):
        return IndependenceStatement(*(sum((groups[k] for k in side), ()) for side in form))

    return [statement(form) for form in antecedents], statement(consequent)


def check_axiom(table: PossibilityTable, tn: TNorm, axiom, groups,
                eps=DEFAULT_EPSILON) -> AxiomReport:
    """Test one axiom instantiation, evaluating every antecedent and the consequent.

    ``groups`` is a sequence of variable groups: (X, Y, Z) for symmetry and
    (X, Y, Z, W) for the rest.  The last group may be empty, the others not.
    """
    axiom = canonical_axiom(axiom)
    groups = tuple(tuple(g) for g in groups)
    expected = _ARITY[axiom]
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
    violated = all(verdicts) and not holds
    witness = independent(table, tn, consequent, eps).witness if violated else None
    return AxiomReport(axiom, groups, tuple(zip(antecedents, verdicts)), consequent, holds,
                       not violated, witness)


@dataclass(frozen=True, eq=False)
class _ScanPlan:
    """Every instance of some axioms over some variables, in scan order.

    ``statements`` are the distinct statements of all the instances, in
    order of first occurrence (an instance's antecedents, then its
    consequent).  Instance i has the groups whose bitmasks are row i of
    ``roles`` (X, Y, Z, W; W is 0 for symmetry), the antecedent statements
    indexed by row i of ``antecedents`` (a one-antecedent axiom repeats its
    one) and the consequent indexed by ``consequents[i]``.  ``blocks`` holds
    each axiom's instances as (axiom, start, stop), ``subsets[m]`` the
    variables of bitmask m, in schema order, ``masks`` the bitmasks (a, b,
    given) of the statements' sides, on the schema's axes, and ``joints``
    the statements grouped by their joint, as ``_joint_groups`` gives them.
    """

    statements: tuple
    subsets: tuple
    blocks: tuple
    roles: np.ndarray
    antecedents: np.ndarray
    consequents: np.ndarray
    masks: tuple
    joints: tuple


# room for four (variable names, axioms) keys, so that scans alternating
# between a few schemas build each plan once
@lru_cache(maxsize=4)
def _scan_plan(names, axioms):
    """The ``_ScanPlan`` of ``axioms`` over the variables ``names``.

    A role vector puts each variable in one of an axiom's groups or leaves
    it unused (the last role).  An axiom's instances are its role vectors
    with X, Y and Z nonempty, in ``itertools.product`` order: the last
    variable cycles fastest.  The vectors over (X, Y, Z, W, unused) are
    enumerated once; a three-group axiom's instances are those with W
    empty, in the same order, as mapping its unused role 3 to 4 keeps the
    order of the vectors.  A group's bitmask is the sum of its variables'
    bits, a statement side's the sum of its groups' masks, and a statement
    is keyed by its (a, b, given) masks packed in one integer, which
    ``np.unique`` numbers; the unpacked masks of the distinct keys give the
    joint groups.  The plan depends only on the names, so one plan serves
    every table on them.
    """
    n = len(names)
    bits = 1 << np.arange(n, dtype=np.int64)
    subsets = tuple(tuple(v for i, v in enumerate(names) if m >> i & 1) for m in range(1 << n))
    # the empty rows let a plan of no axioms concatenate
    keys, roles, blocks = [np.empty((0, 3), np.int64)], [np.empty((0, 4), np.int64)], []
    role = np.indices((5,) * n).reshape(n, 5 ** n)
    every = np.stack([bits @ (role == k) for k in range(4)], axis=1)
    every = every[(every[:, :3] != 0).all(axis=1)]
    start = 0
    for axiom in axioms:
        masks = every[(every[:, _ARITY[axiom]:] == 0).all(axis=1)]

        def key(form):
            a, b, given = (masks[:, list(side)].sum(axis=1) for side in form)
            return (a << n | b) << n | given

        antecedent_forms, consequent_form = _AXIOM_FORMS[axiom]
        # two antecedent columns: a one-antecedent axiom repeats its one
        forms = antecedent_forms[:1] + antecedent_forms[-1:] + (consequent_form,)
        keys.append(np.stack([key(form) for form in forms], axis=1))
        roles.append(masks)
        blocks.append((axiom, start, start + len(masks)))
        start += len(masks)
    keys = np.concatenate(keys)
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # renumber the distinct keys in order of first occurrence
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    index = rank[inverse].reshape(keys.shape)
    by_name = [tuple(sorted(s)) for s in subsets]
    full = (1 << n) - 1
    sides = [distinct[order] >> shift & full for shift in (2 * n, n, 0)]
    statements = tuple(
        IndependenceStatement._trusted(*map(by_name.__getitem__, k))
        for k in zip(*(side.tolist() for side in sides))
    )
    joints = _joint_groups(*sides, names)
    arrays = np.concatenate(roles), index[:, :2], index[:, 2]
    for a in (*arrays, *sides, *(a for _, *group in joints for a in group)):
        a.flags.writeable = False  # shared by every scan of the cached plan
    return _ScanPlan(statements, subsets, tuple(blocks), *arrays, tuple(sides), joints)


class ScanReports(Sequence):
    """The reports of one ``scan_axioms`` call, in scan order.

    A report is built when it is first read and then kept, so
    ``r[i] is r[i]``; ``len``, ``blocks`` and ``violated`` build none.
    Iterating builds the missing reports of one axiom's block at a time.
    As in a list, a slice is a list and a report may be replaced by index.
    The verdicts and the violated instances' witnesses are held here; the
    table is not.
    """

    def __init__(self, plan, verdicts, ante_ok, violated, witnesses):
        self._plan = plan
        self._verdicts = verdicts.tolist()
        self._ante_ok = ante_ok
        self._violated = violated
        self._witnesses = witnesses
        self._built = [None] * len(plan.consequents)

    @property
    def blocks(self):
        """Each scanned axiom's instances as (axiom, start, stop), in scan
        order; an axiom with no instance has start == stop."""
        return self._plan.blocks

    @property
    def violated(self):
        """The indices of the violated reports, ascending."""
        return np.flatnonzero(self._violated).tolist()

    def __len__(self):
        return len(self._built)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if self._built[i] is None:
            self._build(next(axiom for axiom, _, stop in self._plan.blocks if i < stop), i, i + 1)
        return self._built[i]

    # a list's item assignment, which callers that patch one report use
    def __setitem__(self, index, report):
        i = range(len(self))[index]
        self._built[i] = report
        self._violated[i] = not report.holds

    def __iter__(self):
        for axiom, start, stop in self._plan.blocks:
            self._build(axiom, start, stop)
            yield from self._built[start:stop]

    @cached_property
    def _checked(self):
        """Each statement with its verdict, as a report's antecedents hold them."""
        return list(zip(self._plan.statements, self._verdicts))

    def _build(self, axiom, lo, hi):
        """Build the missing reports among lo..hi - 1, instances of ``axiom``."""
        plan, built, witnesses = self._plan, self._built, self._witnesses
        statements, verdicts = plan.statements, self._verdicts

        def rows(array, width, of):
            # the tuples of ``of`` over the first ``width`` columns of rows lo..hi - 1
            return zip(*(map(of.__getitem__, array[lo:hi, k].tolist()) for k in range(width)))

        reports = zip(range(lo, hi),
                      rows(plan.roles, _ARITY[axiom], plan.subsets),
                      rows(plan.antecedents, len(_AXIOM_FORMS[axiom][0]), self._checked),
                      plan.consequents[lo:hi].tolist(),
                      self._ante_ok[lo:hi].tolist(), self._violated[lo:hi].tolist())
        for i, groups, antecedents, consequent, ante_ok, violated in reports:
            if built[i] is None:
                built[i] = AxiomReport(
                    axiom, groups, antecedents, statements[consequent],
                    verdicts[consequent] if ante_ok else None, not violated,
                    dict(witnesses[consequent]) if violated else None)


def scan_axioms(table: PossibilityTable, tn: TNorm, axioms=None, scan_limit=SCAN_LIMIT,
                eps=DEFAULT_EPSILON) -> ScanReports:
    """Exhaustively instantiate axioms over all disjoint group assignments.

    ``axioms`` is read by ``canonical_axioms``: a repeated or aliased axiom
    is scanned once, in the order of its first mention.  X, Y, Z range over
    nonempty groups; W (where the axiom has one) may be empty; variables may
    stay unused.  Reports whose antecedents do not all hold are vacuously
    true and carry ``consequent_holds=None``.  Raises LimitError when the
    schema exceeds ``scan_limit`` variables.

    Returns a ``ScanReports``, a sequence of ``AxiomReport`` in scan order:
    the scan decides every statement and looks up the witness of each
    violated instance here, once per distinct consequent, but builds a
    report only when it is read.
    """
    names = table.schema.variables
    if len(names) > scan_limit:
        raise LimitError(
            f"schema has {len(names)} variables, scan limit is {scan_limit}"
        )
    plan = _scan_plan(names, canonical_axioms(axioms))
    # an exact table's numerators serve the decision and every lookup
    with _inputs_kept():
        verdicts = _decide_groups(table, tn, plan.masks, plan.joints, eps)
        ante_ok = verdicts[plan.antecedents].all(axis=1)
        violated = ante_ok & ~verdicts[plan.consequents]
        witnesses = {c: independent(table, tn, plan.statements[c], eps).witness
                     for c in np.unique(plan.consequents[violated]).tolist()}
    return ScanReports(plan, verdicts, ante_ok, violated, witnesses)


def violations(reports):
    """The reports among ``reports`` that are actual violations, in order.
    Of a ``scan_axioms`` result they are read from its violated indices, so
    no other report is built."""
    if isinstance(reports, ScanReports):
        return [reports[i] for i in reports.violated]
    return [r for r in reports if not r.holds]
