"""Finite possibility distributions over product spaces.

A distribution is a dense array of unit-interval values indexed by the
assignments of an ordered variable schema.  Marginalization takes maxima
over dropped variables; conditioning takes the t-norm residual of the
joint by the conditioning marginal, which is the greatest solution of the
recombination equation  joint = T(marginal, conditional).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iter_product
from operator import itemgetter

import numpy as np

from .errors import (
    DisjointnessError,
    DomainError,
    InternalInconsistencyError,
    LimitError,
    NormalityError,
    SchemaError,
)
from .numeric import DEFAULT_EPSILON, first_true, mismatch_mask, require_unit_array
from .tnorm import TNorm

# Largest number of cells a schema may span; a dense float table of this
# size takes 128 MiB.
MAX_CELLS = 2 ** 24


class _Positions(dict):
    """Label -> position in one domain.  A label that is not a string is
    looked up by its ``str``, as ``Schema.multi_index`` does."""

    def __missing__(self, label):
        if isinstance(label, str):
            raise KeyError(label)
        return self[str(label)]


class Schema:
    """Ordered finite variables, each with an ordered domain of >= 2 labels."""

    def __init__(self, variables):
        names = []
        domains = {}
        for name, domain in variables:
            labels = tuple(str(v) for v in domain)
            if name in domains:
                raise SchemaError(f"duplicate variable {name!r}")
            if len(set(labels)) != len(labels):
                raise SchemaError(f"duplicate labels in domain of {name!r}")
            if len(labels) < 2:
                raise SchemaError(f"domain of {name!r} must have at least two labels")
            names.append(name)
            domains[name] = labels
        self._names = tuple(names)
        self._domains = domains
        self._shape = tuple(len(domains[n]) for n in names)
        cells = math.prod(self._shape)
        if cells > MAX_CELLS:
            raise LimitError(f"schema spans {cells} cells, more than the limit of {MAX_CELLS}")

    @classmethod
    def binary(cls, *names):
        """Schema of 0/1-valued variables, handy for the desk-scale examples."""
        return cls([(n, ("0", "1")) for n in names])

    @property
    def variables(self):
        return self._names

    def domain(self, name):
        try:
            return self._domains[name]
        except KeyError:
            raise SchemaError(f"unknown variable {name!r}") from None

    def axis(self, name):
        try:
            return self._names.index(name)
        except ValueError:
            raise SchemaError(f"unknown variable {name!r}") from None

    @property
    def shape(self):
        return self._shape

    def __len__(self):
        return len(self._names)

    def __eq__(self, other):
        return (
            isinstance(other, Schema)
            and self._names == other._names
            and all(self._domains[n] == other._domains[n] for n in self._names)
        )

    def __hash__(self):
        return hash((self._names, tuple(self._domains[n] for n in self._names)))

    def __repr__(self):
        parts = ", ".join(f"{n}:{len(self._domains[n])}" for n in self._names)
        return f"Schema({parts})"

    def in_order(self, names):
        """The given variables sorted into schema order (validating existence)."""
        names = set(names)
        for n in names:
            if n not in self._domains:
                raise SchemaError(f"unknown variable {n!r}")
        return tuple(n for n in self._names if n in names)

    def project(self, keep):
        """Sub-schema of ``keep`` variables, preserving schema order.

        Built from this schema's checked names and domains, so the label
        checks of ``__init__`` are not run again.
        """
        return self._sub(self.in_order(keep))

    def _sub(self, kept):
        """``project`` onto ``kept``, names of this schema in its order."""
        sub = Schema.__new__(Schema)
        sub._names = kept
        sub._domains = {n: self._domains[n] for n in kept}
        sub._shape = tuple(len(sub._domains[n]) for n in kept)
        return sub

    def multi_index(self, assignment):
        """Turn a {name: label} mapping into a value index tuple."""
        idx = []
        for name in self._names:
            if name not in assignment:
                raise SchemaError(f"assignment missing variable {name!r}")
            label = str(assignment[name])
            try:
                idx.append(self._domains[name].index(label))
            except ValueError:
                raise SchemaError(f"unknown label {label!r} for variable {name!r}") from None
        extra = set(assignment) - set(self._names)
        if extra:
            raise SchemaError(f"assignment names unknown variables {sorted(extra)}")
        return tuple(idx)

    def _flat_indices(self, assignments):
        """C-order flat cell indices of a list of assignments, one column
        pass per variable.

        Raises KeyError or TypeError if any assignment is not a mapping,
        lacks a variable, names an unknown one or has an unknown label;
        ``multi_index`` says which and why.
        """
        count = len(assignments)
        if count and max(map(len, assignments)) > len(self._names):
            raise KeyError("assignment names unknown variables")
        columns = []
        for name in self._names:
            positions = _Positions((label, i) for i, label in enumerate(self._domains[name]))
            labels = map(itemgetter(name), assignments)
            columns.append(np.fromiter(map(positions.__getitem__, labels), np.intp, count))
        if not columns:  # the one cell of a schema of no variables
            return np.zeros(count, np.intp)
        return np.ravel_multi_index(tuple(columns), self._shape)

    def assignment(self, multi_index):
        """Inverse of multi_index: a {name: label} dict in schema order."""
        return {
            name: self._domains[name][i]
            for name, i in zip(self._names, multi_index)
        }

    def first_mismatch(self, a, b, eps=DEFAULT_EPSILON):
        """The assignment of the first cell where arrays ``a`` and ``b``,
        broadcast over this schema, differ beyond ``eps`` (first variable
        cycling fastest), or None when they agree everywhere."""
        return self.first_flagged(mismatch_mask(a, b, eps))

    def first_flagged(self, mask):
        """The assignment of the first True cell of ``mask``, an array on
        this schema's axes (first variable cycling fastest), or None."""
        idx = first_true(mask)
        return None if idx is None else self.assignment(idx)

    def assignments(self):
        """All assignments, first variable cycling fastest."""
        for idx in iter_product(*(range(len(self._domains[n])) for n in reversed(self._names))):
            yield self.assignment(idx[::-1])


def _as_value_array(values, shape):
    arr = np.asarray(values)
    if arr.dtype != object:
        arr = arr.astype(float)
    return arr.reshape(shape)


class PossibilityTable:
    """Dense possibility distribution (or unnormalized factor) over a schema.

    Immutable after construction.  Each ``marginalize`` call computes its
    marginal afresh; a batch of statements on one joint asks for it once.
    """

    def __init__(self, schema, values):
        self.schema = schema
        arr = _as_value_array(values, schema.shape).copy()
        require_unit_array(arr, "table entries")
        arr.flags.writeable = False
        self.values = arr

    # -- constructors ----------------------------------------------------------

    @classmethod
    def load(cls, schema, entries, default=0.0):
        """Build a table from sparse (assignment, value) pairs and verify normality.

        ``entries`` is an iterable of (mapping, value) pairs; unmentioned
        cells take ``default``, and a cell listed twice takes its last
        value.  The table is exact (an object array) when the default or
        any value is a ``Fraction``.  Raises DomainError or SchemaError for
        the first entry whose value lies outside [0, 1] or whose assignment
        does not match the schema, and NormalityError if the maximum is not
        1 within the default tolerance (exactly 1, for an exact table).
        """
        entries = list(entries)
        assignments = [a for a, _ in entries]
        values = np.array([v for _, v in entries])
        return cls._from_columns(schema, assignments, values, default)

    @classmethod
    def _from_columns(cls, schema, assignments, values, default):
        """``load`` on its entries as columns: a list of assignments and a
        1-D array of their values (object dtype for exact values).

        The assignments are mapped to cells and the values range-checked
        as whole columns, then written in one scatter.
        """
        exact = isinstance(default, Fraction) or values.dtype == object
        try:
            cells = schema._flat_indices(assignments)
        except (KeyError, TypeError):
            cells = None
        if cells is None or not ((values >= 0) & (values <= 1)).all():
            _raise_first_bad_entry(schema, assignments, values.tolist())
        arr = np.full(schema.shape, default, dtype=object if exact else float)
        arr.reshape(-1)[cells] = values
        table = cls(schema, arr)
        if not table.is_normal(0 if exact else DEFAULT_EPSILON):
            raise NormalityError(f"table maximum is {table.values.max()}, expected 1")
        return table

    # -- predicates --------------------------------------------------------------

    def is_normal(self, eps=DEFAULT_EPSILON):
        if self.values.size == 0:
            return False
        return not mismatch_mask(self.values.max(), 1, eps)

    def is_strictly_positive(self):
        """True iff every cell is > 0."""
        return bool(np.asarray(self.values > 0, dtype=bool).all())

    def is_crisp(self, eps=DEFAULT_EPSILON):
        """True iff every cell is 0 or 1 within ``eps``."""
        v = self.values
        return not (mismatch_mask(v, 0, eps) & mismatch_mask(v, 1, eps)).any()

    # -- core operations -----------------------------------------------------------

    def marginalize(self, keep):
        """Max-project onto ``keep`` variables (schema order is preserved).

        Keeping every variable returns this table itself.
        """
        kept = self.schema.in_order(keep)
        if len(kept) == len(self.schema):
            return self
        drop_axes = tuple(
            i for i, name in enumerate(self.schema.variables) if name not in kept
        )
        # a maximum of checked cells is in range, and max returns a new array
        table = PossibilityTable.__new__(PossibilityTable)
        table.schema = self.schema._sub(kept)
        table.values = np.asarray(self.values.max(axis=drop_axes))
        table.values.flags.writeable = False
        return table

    def extend_values(self, superschema):
        """View of the values broadcastable over a superset schema.

        Size-1 axes stand for the superschema variables this table does not
        carry, so numpy broadcasting aligns assignments; the values keep
        their order, so one ``reshape`` inserts them all.  Each shared
        variable must have the same domain in both schemas.
        """
        own = set(self.schema.variables)
        unknown = own - set(superschema.variables)
        if unknown:
            raise SchemaError(f"variables {sorted(unknown)} not in target schema")
        shared = tuple(n for n in superschema.variables if n in own)
        if shared != self.schema.variables:
            raise SchemaError("variable order differs between table and target schema")
        for name in shared:
            if self.schema.domain(name) != superschema.domain(name):
                raise SchemaError(f"the domain of {name!r} differs between table and "
                                  "target schema")
        return self.values.reshape([k if n in own else 1
                                    for n, k in zip(superschema.variables, superschema.shape)])

    def condition(self, tn: TNorm, target, given):
        """Residual conditional of ``target`` given ``given``.

        Returns a ConditionalTable over target + given (in schema order)
        whose cells are residual(joint, given-marginal); cells whose
        conditioning marginal is 0 residuate to 1 and are flagged vacuous.
        """
        target = self.schema.in_order(target)
        given = self.schema.in_order(given)
        if set(target) & set(given):
            raise DisjointnessError("target and given variables overlap")
        union = self.schema.in_order(set(target) | set(given))
        joint = self.marginalize(union)
        target_axes = tuple(i for i, name in enumerate(union) if name in target)
        giv = joint.values.max(axis=target_axes, keepdims=True)
        values = tn.residual_array(joint.values, giv)
        # one flag per cell of the joint, written out rather than broadcast
        vacuous = np.equal(giv, 0, out=np.empty(joint.values.shape, dtype=bool))
        return ConditionalTable(joint.schema, target, given, values, vacuous)

    # -- comparisons -----------------------------------------------------------------

    def equals(self, other, eps=DEFAULT_EPSILON):
        """(bool, witness) comparison against another table on the same schema."""
        if self.schema != other.schema:
            raise SchemaError("tables have different schemas")
        witness = self.schema.first_mismatch(self.values, other.values, eps)
        return witness is None, witness

    def __repr__(self):
        return f"PossibilityTable({self.schema!r})"


def _raise_first_bad_entry(schema, assignments, values):
    """Raise the error of the first bad entry, checking the entries one by
    one: the value's range first, then the assignment's labels."""
    for assignment, value in zip(assignments, values):
        if not 0 <= value <= 1:
            raise DomainError(f"value {value!r} outside [0, 1]")
        schema.multi_index(assignment)
    raise InternalInconsistencyError("the column pass rejected entries that pass one by one")


@dataclass(frozen=True, eq=False)
class ConditionalTable:
    """Residual conditional distribution over target + given variables.

    ``values`` lives on the union schema (schema order); ``vacuous`` flags
    cells whose conditioning marginal was 0, where the residual convention
    fills in 1.
    """

    schema: Schema
    target: tuple
    given: tuple
    values: np.ndarray
    vacuous: np.ndarray = field(repr=False)

    def vacuous_assignments(self):
        return [self.schema.assignment(tuple(i)) for i in np.argwhere(self.vacuous)]


def ae_equal(h1: PossibilityTable, h2: PossibilityTable, reference: PossibilityTable,
             tn: TNorm, eps=DEFAULT_EPSILON):
    """Almost-everywhere equality of two fuzzy variables w.r.t. a distribution.

    h1 and h2 (which need not be normal) count as equal when
    T(h1(x), pi(x)) == T(h2(x), pi(x)) at every assignment x of the shared
    schema.  Returns (bool, witness); the witness is the first assignment
    where the combined values differ.
    """
    if h1.schema != reference.schema or h2.schema != reference.schema:
        raise SchemaError("fuzzy variables and reference must share a schema")
    lhs = tn.apply_array(h1.values, reference.values)
    rhs = tn.apply_array(h2.values, reference.values)
    witness = reference.schema.first_mismatch(lhs, rhs, eps)
    return witness is None, witness
