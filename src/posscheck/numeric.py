"""Tolerance-aware comparison helpers.

Every equality test in the package funnels through a single absolute
tolerance ``eps`` (default 1e-9).  Passing ``eps=0`` switches to exact
comparison, which is the intended companion of exact-rational tables
whose cells are ``fractions.Fraction`` values.
"""

import numpy as np

from .errors import DomainError

DEFAULT_EPSILON = 1e-9


def require_eps(eps):
    """Raise DomainError unless ``eps`` is a number >= 0; NaN, which compares
    False to everything, fails the test."""
    if not eps >= 0:
        raise DomainError(f"eps must be a number >= 0, got {eps!r}")
    return eps


def mismatch_mask(a, b, eps=DEFAULT_EPSILON):
    """Boolean array marking cells where two arrays disagree beyond ``eps``;
    DomainError for a negative or NaN ``eps``."""
    if require_eps(eps) == 0:
        return np.asarray(a != b, dtype=bool)
    return np.asarray(abs(a - b) > eps, dtype=bool)


def first_true(mask):
    """Multi-index of the first True cell, or None.

    "First" means the first hit when the leading axis varies fastest, i.e.
    the smallest index tuple read right-to-left.  This matches the order in
    which assignments of a product space are conventionally listed when the
    first variable cycles quickest.  Flattening in Fortran order lists the
    cells in exactly that order, so ``argmax`` finds the cell.
    """
    mask = np.asarray(mask, dtype=bool)
    flat = mask.ravel(order="F")
    if not flat.size:
        return None
    i = int(flat.argmax())
    if not flat[i]:
        return None
    return tuple(int(k) for k in np.unravel_index(i, mask.shape, order="F"))


def require_unit(value, name="value"):
    """Raise DomainError unless ``value`` lies in [0, 1]."""
    if not (0 <= value <= 1):
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def require_unit_array(values, name="values"):
    """Raise DomainError unless every entry of ``values`` lies in [0, 1].

    The test is written so that NaN, which compares False to everything,
    fails it.
    """
    arr = np.asarray(values)
    if not bool(((arr >= 0) & (arr <= 1)).all()):
        raise DomainError(f"{name} must lie in [0, 1]")
    return arr
