"""Unit and property tests for t-norm evaluation, folds, residuals, transforms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from posscheck import DomainError, PowerTransform, TNorm
from posscheck.tnorm import NILPOTENT, NON_ARCHIMEDEAN, STRICT

from conftest import ALL_TNORMS, oracle_apply, oracle_residual

EPS = 1e-9
GRID = [i / 20 for i in range(21)]
COARSE = [0.0, 0.25, 0.5, 0.75, 1.0]

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
tnorm_specs = st.sampled_from(ALL_TNORMS)

# every base, plus power exponents at which scalar and array powers round differently
KERNEL_SPECS = (TNorm.godel(),) + tuple(
    family(p) for family in (TNorm.product, TNorm.lukasiewicz) for p in (None, 0.5, 2.0, 3.7)
)


@st.composite
def keepdims_marginals(draw):
    """A small joint array and its max-marginal over some axes, kept as size 1."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    cells = draw(st.lists(unit_floats, min_size=math.prod(shape), max_size=math.prod(shape)))
    joint = np.array(cells, dtype=float).reshape(shape)
    axes = tuple(i for i in range(len(shape)) if draw(st.booleans()))
    return joint, joint.max(axis=axes, keepdims=True)


class TestApply:
    def test_godel_is_min(self):
        assert TNorm.godel().apply(0.3, 0.7) == 0.3

    def test_lukasiewicz_truncates(self):
        assert TNorm.lukasiewicz().apply(0.3, 0.6) == 0.0

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_one_is_neutral(self, tn):
        assert tn.apply(1.0, 0.42) == pytest.approx(0.42, abs=EPS)

    def test_transformed_product_matches_direct_evaluation(self):
        # phi(x) = x^2: T(0.5, 0.5) = phi_inv(0.25 * 0.25) = 0.0625 ** 0.5
        assert TNorm.product(2.0).apply(0.5, 0.5) == pytest.approx(0.0625 ** 0.5, abs=EPS)

    def test_transformed_product_keeps_the_unit_law_below_the_powers_range(self):
        # 1e-40 ** 10 underflows to 0.0, but T(a, 1) = a
        assert TNorm.product(10.0).apply(1e-40, 1.0) == 1e-40

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            TNorm.godel().apply(1.2, 0.5)
        with pytest.raises(DomainError):
            TNorm.godel().apply(0.5, -0.1)

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_boundary_conditions_on_grid(self, tn):
        for a in COARSE:
            assert tn.apply(1.0, a) == pytest.approx(a, abs=EPS)
            assert tn.apply(0.0, a) == pytest.approx(0.0, abs=EPS)
            assert tn.apply(a, a) <= a + EPS

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_laws_on_the_coarse_grid(self, tn):
        # associativity, commutativity and monotonicity over every triple of
        # a 0.05-step grid
        for a in GRID:
            for b in GRID:
                ab = tn.apply(a, b)
                assert ab == pytest.approx(tn.apply(b, a), abs=EPS)
                for c in GRID:
                    assert tn.apply(ab, c) == pytest.approx(
                        tn.apply(a, tn.apply(b, c)), abs=EPS
                    )
                    if c >= b:
                        assert tn.apply(a, c) >= ab - EPS

    @given(tn=tnorm_specs, a=unit_floats, b=unit_floats)
    def test_commutative_and_below_min(self, tn, a, b):
        ab = tn.apply(a, b)
        assert ab == pytest.approx(tn.apply(b, a), abs=EPS)
        assert ab <= min(a, b) + EPS
        assert -EPS <= ab <= 1 + EPS

    @given(tn=tnorm_specs, a=unit_floats, b=unit_floats, c=unit_floats)
    def test_associative(self, tn, a, b, c):
        left = tn.apply(tn.apply(a, b), c)
        right = tn.apply(a, tn.apply(b, c))
        assert left == pytest.approx(right, abs=EPS)

    @given(tn=tnorm_specs, a1=unit_floats, a2=unit_floats, b1=unit_floats, b2=unit_floats)
    def test_isotone(self, tn, a1, a2, b1, b2):
        lo_a, hi_a = sorted((a1, a2))
        lo_b, hi_b = sorted((b1, b2))
        assert tn.apply(lo_a, lo_b) <= tn.apply(hi_a, hi_b) + EPS

    @given(tn=tnorm_specs, a=unit_floats, b=unit_floats)
    def test_matches_reference_formulas(self, tn, a, b):
        assert tn.apply(a, b) == pytest.approx(oracle_apply(tn, a, b), abs=1e-7)


class TestFold:
    def test_lukasiewicz_triple(self):
        # pairwise folding: T(T(0.9, 0.9), 0.9) = T(0.8, 0.9) = 0.7
        tn = TNorm.lukasiewicz()
        by_pairs = tn.apply(tn.apply(0.9, 0.9), 0.9)
        assert tn.fold([0.9, 0.9, 0.9]) == pytest.approx(by_pairs, abs=EPS)
        assert by_pairs == pytest.approx(0.7, abs=EPS)

    def test_godel_is_nary_min(self):
        assert TNorm.godel().fold([0.2, 0.9, 0.5]) == 0.2

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_empty_fold_is_one(self, tn):
        assert tn.fold([]) == 1

    @given(tn=tnorm_specs, values=st.lists(unit_floats, max_size=6))
    def test_order_independent(self, tn, values):
        forward = tn.fold(values)
        assert forward == pytest.approx(tn.fold(values[::-1]), abs=1e-7)

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_archimedean_witness(self, tn):
        # folding 0.9 with itself: Archimedean families sink below 0.1,
        # min stays at 0.9 forever
        acc = 0.9
        sank = False
        for _ in range(64):
            acc = tn.apply(acc, 0.9)
            if acc < 0.1:
                sank = True
                break
        assert sank == tn.is_archimedean
        if not tn.is_archimedean:
            assert acc == 0.9


class TestResidual:
    def test_godel_closed_form(self):
        tn = TNorm.godel()
        assert tn.residual(0.3, 0.7) == 0.3
        assert tn.residual(0.7, 0.3) == 1

    def test_product_closed_form(self):
        assert TNorm.product().residual(0.3, 0.6) == pytest.approx(0.5, abs=EPS)

    def test_lukasiewicz_closed_form(self):
        assert TNorm.lukasiewicz().residual(0.3, 0.7) == pytest.approx(0.6, abs=EPS)

    def test_transformed_product_residuals_below_the_powers_range(self):
        # x^p and y^p underflow to 0.0 here, but R(y, x) = y / x where x > y
        assert TNorm.product(2.0).residual(0.0, 1e-200) == 0.0
        assert TNorm.product(10.0).residual(1e-40, 1e-35) == pytest.approx(1e-5, rel=1e-12)

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_residual_by_one_is_identity(self, tn):
        for y in COARSE:
            assert tn.residual(y, 1.0) == pytest.approx(y, abs=EPS)

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_residual_by_zero_is_one(self, tn):
        for y in COARSE:
            assert tn.residual(y, 0.0) == 1

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_sup_definition_on_grid(self, tn):
        # brute-force sup{z : T(z, x) <= y} on a fine z-grid
        zs = [i / 400 for i in range(401)]
        for y in COARSE:
            for x in COARSE:
                sup = max((z for z in zs if tn.apply(z, x) <= y + 1e-12), default=0.0)
                assert tn.residual(y, x) == pytest.approx(sup, abs=1 / 400 + 1e-9)

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_solves_inequality_and_is_maximal(self, tn):
        # power transforms square a perturbation, pushing 10*eps below double
        # resolution near the truncation boundary; probe those with a coarser
        # step that float evaluation can still see
        delta = 10 * EPS if tn.transform is None else 1e-4
        for y in GRID:
            for x in GRID:
                r = tn.residual(y, x)
                assert tn.apply(r, x) <= y + EPS
                if r < 1:
                    assert tn.apply(min(r + delta, 1.0), x) > y

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("base", ["product", "lukasiewicz"])
    def test_transform_consistency(self, base, p):
        # transformed residual equals pulling back through the automorphism
        plain = TNorm(base)
        transformed = TNorm(base, PowerTransform(p))
        phi = PowerTransform(p)
        for y in GRID:
            for x in GRID:
                direct = transformed.residual(y, x)
                pulled = phi.inverse(plain.residual(phi.apply(y), phi.apply(x)))
                assert direct == pytest.approx(pulled, abs=EPS)

    @given(tn=tnorm_specs, y=unit_floats, x=unit_floats)
    def test_matches_reference_formulas(self, tn, y, x):
        assert tn.residual(y, x) == pytest.approx(oracle_residual(tn, y, x), abs=1e-7)


class TestScalarCallsRunTheKernels:
    """apply, fold and residual return the array kernels' cells bit for bit."""

    @staticmethod
    def _assert_cells(tn, grid, dtype):
        arr = np.array(grid, dtype=dtype)
        ys, xs = arr[:, None], arr[None, :]
        applied = tn.apply_array(ys, xs)
        folded = tn.fold_arrays([ys, xs, ys])
        residuals = tn.residual_array(ys, xs)
        for i, y in enumerate(grid):
            for j, x in enumerate(grid):
                assert tn.apply(y, x) == applied[i, j]
                assert tn.fold([y, x, y]) == folded[i, j]
                assert tn.residual(y, x) == residuals[i, j]

    @pytest.mark.parametrize("tn", KERNEL_SPECS, ids=lambda t: t.describe())
    def test_floats(self, tn):
        self._assert_cells(tn, [k / 40 for k in range(41)], float)

    @pytest.mark.parametrize("tn", KERNEL_SPECS, ids=lambda t: t.describe())
    def test_fractions(self, tn):
        self._assert_cells(tn, [Fraction(k, 10) for k in range(11)], object)

    @given(tn=tnorm_specs, pair=keepdims_marginals())
    @example(tn=TNorm.product(2.0), pair=(np.array([0.0, 4.8e-284]), np.array([4.8e-284])))
    def test_residual_array_on_keepdims_marginals(self, tn, pair):
        joint, marginal = pair
        out = tn.residual_array(joint, marginal)
        assert out.shape == joint.shape
        given_cells = np.broadcast_to(marginal, joint.shape)
        for idx in np.ndindex(joint.shape):
            want = oracle_residual(tn, float(joint[idx]), float(given_cells[idx]))
            assert out[idx] == pytest.approx(want, abs=1e-7)


class TestRecombine:
    # y, x, b over the k/40 grid, kept where y <= x and b <= x (the domain of maxima)
    GRID = np.array([k / 40 for k in range(41)])
    Y, X, B = np.meshgrid(GRID, GRID, GRID, indexing="ij")
    ON_D = (Y <= X) & (B <= X)
    Y, X, B = Y[ON_D], X[ON_D], B[ON_D]

    @pytest.mark.parametrize("tn", [TNorm.godel(), TNorm.product(), TNorm.product(0.5),
                                    TNorm.product(3.7), TNorm.lukasiewicz()],
                             ids=lambda t: t.describe())
    def test_composed_kernels_bit_for_bit(self, tn):
        composed = tn.apply_array(tn.residual_array(self.Y, self.X), self.B)
        assert np.array_equal(tn.recombine_array(self.Y, self.X, self.B), composed)

    @pytest.mark.parametrize("p", [0.5, 2.0, 3.7])
    def test_transformed_lukasiewicz_closed_form(self, p):
        tn = TNorm.lukasiewicz(p)
        expected = np.maximum(self.Y ** p - self.X ** p + self.B ** p, 0.0) ** (1.0 / p)
        assert np.array_equal(tn.recombine_array(self.Y, self.X, self.B), expected)


class TestExactMode:
    def test_base_operations_stay_rational(self):
        y, x = Fraction(3, 10), Fraction(3, 5)
        assert TNorm.product().residual(y, x) == Fraction(1, 2)
        assert TNorm.lukasiewicz().residual(Fraction(3, 10), Fraction(7, 10)) == Fraction(3, 5)
        assert TNorm.godel().apply(Fraction(1, 3), Fraction(1, 2)) == Fraction(1, 3)
        assert TNorm.lukasiewicz().fold([Fraction(9, 10)] * 3) == Fraction(7, 10)

    def test_transformed_product_stays_rational(self):
        # product^p computes as product, so no power forces floating point
        tn = TNorm.product(2.0)
        assert tn.apply(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
        assert tn.residual(Fraction(1, 4), Fraction(1, 2)) == Fraction(1, 2)
        assert tn.fold([Fraction(1, 2)] * 3) == Fraction(1, 8)

    def test_fraction_arrays(self):
        arr = np.array([Fraction(1, 2), Fraction(3, 4)], dtype=object)
        out = TNorm.product().apply_array(arr, arr)
        assert list(out) == [Fraction(1, 4), Fraction(9, 16)]
        res = TNorm.product().residual_array(
            np.array([Fraction(1, 4)], dtype=object), np.array([Fraction(1, 2)], dtype=object)
        )
        assert res[0] == Fraction(1, 2)


class TestClassify:
    def test_families(self):
        assert TNorm.product().classify() == STRICT
        assert TNorm.product(2.0).classify() == STRICT
        assert TNorm.lukasiewicz().classify() == NILPOTENT
        assert TNorm.lukasiewicz(0.5).classify() == NILPOTENT
        assert TNorm.godel().classify() == NON_ARCHIMEDEAN

    def test_archimedean_flag(self):
        assert TNorm.product().is_archimedean
        assert TNorm.lukasiewicz().is_archimedean
        assert not TNorm.godel().is_archimedean


class TestTransforms:
    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(DomainError):
            PowerTransform(0.0)
        with pytest.raises(DomainError):
            PowerTransform(-1.0)

    @pytest.mark.parametrize("p", [float("inf"), float("nan")])
    def test_non_finite_exponent_rejected(self, p):
        with pytest.raises(DomainError):
            TNorm.product(p)

    def test_extreme_exponent_warns(self):
        with pytest.warns(UserWarning, match="outside the supported range"):
            TNorm.lukasiewicz(50.0)

    def test_extreme_exponent_of_product_does_not_warn(self):
        # product^p computes as product, with no powers to lose precision
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TNorm.product(50.0)

    def test_round_trip(self):
        phi = PowerTransform(3.0)
        for x in GRID:
            assert phi.inverse(phi.apply(x)) == pytest.approx(x, abs=EPS)
        assert phi.apply(0.0) == 0.0
        assert phi.apply(1.0) == 1.0

    def test_composition_multiplies_exponents(self):
        composed = PowerTransform.compose([PowerTransform(2.0), PowerTransform(3.0)])
        assert composed.p == 6.0

    @pytest.mark.parametrize("p", [0.5, 3.7, 10.0])
    def test_transformed_product_kernels_are_product_bit_for_bit(self, p):
        grid = np.array([k / 40 for k in range(41)] + [1e-300, 5e-324])
        ys, xs = grid[:, None], grid[None, :]
        plain, transformed = TNorm.product(), TNorm.product(p)
        assert np.array_equal(transformed.apply_array(ys, xs), plain.apply_array(ys, xs))
        assert np.array_equal(transformed.residual_array(ys, xs), plain.residual_array(ys, xs))

    def test_godel_transform_collapses_with_warning(self):
        with pytest.warns(UserWarning):
            tn = TNorm("godel", PowerTransform(2.0))
        assert tn.transform is None
        assert tn == TNorm.godel()


class TestSerialization:
    def test_round_trip(self):
        for tn in ALL_TNORMS:
            assert TNorm.from_json_dict(tn.to_json_dict()) == tn

    def test_plain_base(self):
        assert TNorm.from_json_dict({"base": "godel"}) == TNorm.godel()
        doc = TNorm.lukasiewicz(2.0).to_json_dict()
        assert doc == {"base": "lukasiewicz", "automorphism": {"type": "power", "p": 2.0}}
