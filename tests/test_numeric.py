"""Tolerance helpers: the first-hit search and unit-interval range checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from posscheck import DomainError
from posscheck.numeric import first_true, require_unit_array


def first_true_by_definition(mask):
    """The smallest True index tuple read right-to-left, by enumeration."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return None
    if mask.ndim == 0:
        return ()
    best = min(tuple(row[::-1]) for row in np.argwhere(mask))
    return tuple(int(i) for i in best[::-1])


masks = hnp.arrays(
    bool,
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
    elements=st.booleans(),
)


class TestFirstTrue:
    @given(mask=masks)
    def test_matches_the_definition(self, mask):
        assert first_true(mask) == first_true_by_definition(mask)

    @given(mask=masks)
    def test_object_masks_match_the_definition(self, mask):
        assert first_true(mask.astype(object)) == first_true_by_definition(mask)

    def test_zero_dimensional_masks(self):
        assert first_true(np.array(True)) == ()
        assert first_true(np.array(False)) is None

    def test_all_false_mask(self):
        assert first_true(np.zeros((3, 2, 2), dtype=bool)) is None

    def test_first_variable_cycles_fastest(self):
        mask = np.zeros((2, 3), dtype=bool)
        mask[0, 2] = mask[1, 0] = True
        assert first_true(mask) == (1, 0)

    def test_indices_are_python_ints(self):
        idx = first_true(np.eye(3, dtype=bool))
        assert idx == (0, 0) and all(type(i) is int for i in idx)


class TestRequireUnitArray:
    def test_accepts_the_closed_interval(self):
        arr = require_unit_array([0.0, 0.5, 1.0])
        assert arr.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan")])
    def test_rejects_values_outside_it_and_nan(self, bad):
        with pytest.raises(DomainError):
            require_unit_array([0.5, bad])
