"""Exception hierarchy shared by all posscheck modules."""


class PosscheckError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PosscheckError):
    """A numeric value lies outside the unit interval [0, 1]."""


class SchemaError(PosscheckError):
    """Unknown variable or label, or two objects disagree on their schema."""


class NormalityError(PosscheckError):
    """A possibility table that must be normal (max value 1) is not."""


class DisjointnessError(PosscheckError):
    """Variable groups that must be pairwise disjoint overlap."""


class ArityError(PosscheckError):
    """An axiom was instantiated with the wrong number of groups."""


class LimitError(PosscheckError):
    """An enumeration or a table exceeds its size limit."""


class InternalInconsistencyError(PosscheckError):
    """Engine results contradict a theorem; indicates an implementation bug."""


class ModelFormatError(PosscheckError):
    """A model file or JSON document does not match the expected layout."""
