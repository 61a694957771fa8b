"""Continuous t-norms: evaluation, n-ary folds, residuals and power transforms.

Three base t-norms are supported (Goedel = min, product, Lukasiewicz =
max(0, a+b-1)), optionally rescaled through a power automorphism of the
unit interval.  All operations accept floats or exact rationals
(``fractions.Fraction``).  A power transform leaves Goedel and product
unchanged, as min commutes with it and (x^p y^p)^(1/p) = xy.  So product^p
is computed as ``a * b``, with the residual y / x, never through the
powers, which underflow (1e-40 ** 10 is 0.0); it keeps its transform only
for naming and serialization, and its calls on ``Fraction`` arguments stay
exact.  Only Lukasiewicz^p reads the transform, which forces floating
point.

Each formula is written once, as an array kernel (``apply_array``,
``fold_arrays``, ``residual_array``, ``recombine_array``).  The scalar
calls (``apply``, ``fold``, ``residual``) check their arguments and run
those kernels on one-cell arrays, so they return exactly what the engine
computes cell by cell.  (A 0-d array would not do: numpy hands back
scalars from 0-d operations, and scalar powers round differently from
array powers.)  ``recombine_array`` is T(R(y, x), b) on the domain of
maxima, where y, b <= x, which deciding independence computes on every
cell: the composed kernels, but for Lukasiewicz^p, where it is the closed
form phi^-1(max(phi(y) - phi(x) + phi(b), 0)), with four powers, no
round trip through phi^-1 and phi, and no ulp-stepping loop.
"""

import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import DomainError, ModelFormatError
from .numeric import require_unit

GODEL = "godel"
PRODUCT = "product"
LUKASIEWICZ = "lukasiewicz"
BASES = (GODEL, PRODUCT, LUKASIEWICZ)

STRICT = "strict"
NILPOTENT = "nilpotent"
NON_ARCHIMEDEAN = "non_archimedean"

# Exponents far outside this range underflow double precision before the
# inverse transform can undo them; Lukasiewicz^p, the one t-norm that reads
# the powers, warns outside it.
SUPPORTED_EXPONENT_RANGE = (0.1, 10.0)


@dataclass(frozen=True)
class PowerTransform:
    """Unit-interval automorphism x -> x**p with p finite and > 0.

    Closed under composition (exponents multiply) and has the closed-form
    inverse x -> x**(1/p), so round trips stay within float round-off.
    """

    p: float

    def __post_init__(self):
        if not 0 < self.p < float("inf"):
            raise DomainError(f"power transform exponent must be finite and > 0, got {self.p!r}")

    def apply(self, x):
        return x ** self.p

    def inverse(self, x):
        return x ** (1.0 / self.p)

    @staticmethod
    def compose(transforms):
        """Collapse a sequence of power transforms into one (exponents multiply)."""
        p = 1.0
        for t in transforms:
            p *= t.p
        return PowerTransform(p)


@dataclass(frozen=True)
class TNorm:
    """A continuous t-norm: one of the three bases plus an optional transform.

    Instances are immutable and hashable; every method is a pure function,
    safe to call concurrently.
    """

    base: str
    transform: Optional[PowerTransform] = None

    def __post_init__(self):
        if self.base not in BASES:
            raise ModelFormatError(f"unknown t-norm base {self.base!r}")
        if self.base == GODEL and self.transform is not None:
            # min commutes with every monotone bijection, so the transform
            # is a no-op; drop it rather than carry dead weight.
            warnings.warn(
                "automorphism transforms leave the Goedel t-norm unchanged; ignoring it",
                stacklevel=2,
            )
            object.__setattr__(self, "transform", None)
        lo, hi = SUPPORTED_EXPONENT_RANGE
        if self.base == LUKASIEWICZ and self.transform is not None \
                and not lo <= self.transform.p <= hi:
            warnings.warn(
                f"exponent {self.transform.p} outside the supported range [{lo}, {hi}]; "
                "results may lose precision",
                stacklevel=2,
            )

    # -- construction helpers -------------------------------------------------

    @classmethod
    def godel(cls):
        return cls(GODEL)

    @classmethod
    def product(cls, power=None):
        return cls(PRODUCT, PowerTransform(power) if power is not None else None)

    @classmethod
    def lukasiewicz(cls, power=None):
        return cls(LUKASIEWICZ, PowerTransform(power) if power is not None else None)

    # -- scalar operations: one-cell calls of the array kernels ----------------

    def apply(self, a, b):
        """T(a, b); commutative, associative, isotone, with T(1, a) = a."""
        require_unit(a, "a")
        require_unit(b, "b")
        return self.apply_array(np.reshape(a, 1), np.reshape(b, 1)).item()

    __call__ = apply

    def fold(self, values):
        """Left fold of the binary operation; the empty fold is the unit 1."""
        values = list(values)
        for v in values:
            require_unit(v, "fold argument")
        return self.fold_arrays(np.reshape(v, 1) for v in values).item()

    def residual(self, y, x):
        """Greatest z with T(z, x) <= y, i.e. sup{z in [0,1] : T(z, x) <= y}.

        For continuous t-norms this is the maximal T-inverse of x w.r.t. y
        whenever an inverse exists; residuating by 0 yields 1.
        """
        require_unit(y, "y")
        require_unit(x, "x")
        return self.residual_array(np.reshape(y, 1), np.reshape(x, 1)).item()

    # -- array kernels (numpy float64 or object arrays) ---------------------------

    def apply_array(self, a, b):
        """Elementwise T over broadcastable arrays; no per-cell range checks."""
        if self.base == GODEL:
            return np.minimum(a, b)
        if self.base == PRODUCT:  # product^p too
            return a * b
        if self.transform is None:
            return np.maximum(a + b - 1, 0)
        phi, inv = self.transform.apply, self.transform.inverse
        return inv(np.maximum(phi(a) + phi(b) - 1.0, 0.0))

    def fold_arrays(self, arrays):
        """Fold a sequence of broadcastable arrays; the empty fold is 1."""
        arrays = list(arrays)
        if not arrays:
            return np.ones(())
        return reduce(self.apply_array, arrays)

    def residual_array(self, y, x):
        """Elementwise residual of ``y`` by ``x`` over broadcastable arrays."""
        y, x = np.asarray(y), np.asarray(x)
        if self.base == GODEL:  # never transformed
            return np.where(x > y, y, 1)
        if self.base == PRODUCT:  # product^p too
            ones = np.ones(np.broadcast(y, x).shape, dtype=np.result_type(y, x, 1.0))
            return np.divide(y, x, out=ones, where=x > y)
        if self.transform is None:
            return np.minimum(y - x + 1, 1)
        phi = self.transform.apply
        out = np.minimum(self.transform.inverse(np.minimum(phi(y) - phi(x) + 1, 1)), 1.0)
        # the inverse transform amplifies round-off at the truncation
        # boundary; step down ulps so T(out, x) <= y really holds
        for _ in range(4):
            over = self.apply_array(out, x) > y
            if not over.any():
                break
            out = np.where(over, np.nextafter(np.asarray(out, dtype=float), 0.0), out)
        return out

    def recombine_array(self, y, x, b):
        """Elementwise T(R(y, x), b) over broadcastable arrays with y <= x
        and b <= x, as maxima are: ``apply_array(residual_array(y, x), b)``,
        but for Lukasiewicz^p, where R(y, x) = phi^-1(phi(y) - phi(x) + 1)
        there, so the recombination is phi^-1(max(phi(y) - phi(x) + phi(b), 0))."""
        if self.base != LUKASIEWICZ or self.transform is None:
            return self.apply_array(self.residual_array(y, x), b)
        phi = self.transform.apply
        return self.transform.inverse(np.maximum(phi(y) - phi(x) + phi(b), 0.0))

    # -- classification ---------------------------------------------------------

    def classify(self):
        """'strict' (product family), 'nilpotent' (Lukasiewicz family) or
        'non_archimedean' (Goedel)."""
        if self.base == PRODUCT:
            return STRICT
        if self.base == LUKASIEWICZ:
            return NILPOTENT
        return NON_ARCHIMEDEAN

    @property
    def is_archimedean(self):
        return self.base != GODEL

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self):
        doc = {"base": self.base}
        if self.transform is not None:
            doc["automorphism"] = {"type": "power", "p": self.transform.p}
        return doc

    @classmethod
    def from_json_dict(cls, doc):
        if not isinstance(doc, dict) or "base" not in doc:
            raise ModelFormatError("t-norm document must be an object with a 'base' field")
        transform = None
        auto = doc.get("automorphism")
        if auto is not None:
            if not isinstance(auto, dict) or auto.get("type") != "power":
                raise ModelFormatError("only {'type': 'power', 'p': ...} automorphisms are supported")
            try:
                if isinstance(auto["p"], bool):  # float() would read true as 1
                    raise TypeError(f"{auto['p']!r} is not a number")
                transform = PowerTransform(float(auto["p"]))
            except (KeyError, OverflowError, TypeError, ValueError) as exc:
                raise ModelFormatError(f"bad automorphism exponent: {exc}") from exc
        return cls(doc["base"], transform)

    def describe(self):
        label = self.base
        if self.transform is not None:
            label += f"^{self.transform.p:g}"
        return label
