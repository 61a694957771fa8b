"""Tables, marginals, residual conditioning, a.e. equality."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given

import posscheck.possibility
from posscheck import (
    DisjointnessError,
    DomainError,
    LimitError,
    NormalityError,
    PossibilityTable,
    Schema,
    SchemaError,
    TNorm,
    ae_equal,
)

from conftest import ALL_TNORMS, BASE_TNORMS, random_table

EPS = 1e-9


def diagonal_table(exact=False):
    """1 on x=y=z, 0 elsewhere (the all-or-nothing three-variable table)."""
    one = Fraction(1) if exact else 1.0
    zero = Fraction(0) if exact else 0.0
    schema = Schema.binary("X", "Y", "Z")
    return PossibilityTable.load(
        schema,
        [({"X": "0", "Y": "0", "Z": "0"}, one), ({"X": "1", "Y": "1", "Z": "1"}, one)],
        zero,
    )


def positive_diagonal_table():
    """1 on the diagonal, 1/2 elsewhere."""
    schema = Schema.binary("X", "Y", "Z")
    return PossibilityTable.load(
        schema,
        [({"X": "0", "Y": "0", "Z": "0"}, 1.0), ({"X": "1", "Y": "1", "Z": "1"}, 1.0)],
        0.5,
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("X", ["0", "1"]), ("X", ["0", "1"])])

    def test_small_domain_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("X", ["only"])])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SchemaError):
            Schema([("X", ["0", "0"])])

    def test_assignment_round_trip(self):
        schema = Schema([("A", ["lo", "hi"]), ("B", ["0", "1", "2"])])
        idx = schema.multi_index({"A": "hi", "B": "2"})
        assert idx == (1, 2)
        assert schema.assignment(idx) == {"A": "hi", "B": "2"}

    def test_unknown_label_rejected(self):
        schema = Schema.binary("X")
        with pytest.raises(SchemaError):
            schema.multi_index({"X": "2"})

    def test_first_mismatch_lets_the_first_variable_cycle_fastest(self):
        schema = Schema([("A", ["0", "1"]), ("B", ["0", "1", "2"])])
        base = np.zeros(schema.shape)
        other = base.copy()
        other[0, 2] = other[1, 1] = 0.5
        # (A=1, B=1) comes before (A=0, B=2) when A cycles fastest
        assert schema.first_mismatch(base, other) == {"A": "1", "B": "1"}
        assert schema.first_mismatch(base, base + 1e-10) is None
        assert schema.first_mismatch(base, base + 1e-10, eps=0) == {"A": "0", "B": "0"}
        # arrays broadcast over the schema
        assert schema.first_mismatch(base[:, :1], other) == {"A": "1", "B": "1"}

    def test_first_mismatch_on_exact_values(self):
        schema = Schema.binary("X")
        third = np.array([Fraction(1, 3), Fraction(1)], dtype=object)
        assert schema.first_mismatch(third, third.copy(), eps=0) is None
        assert schema.first_mismatch(third, np.array([1 / 3, 1.0]), eps=0) == {"X": "0"}

    def test_project_equals_the_validated_schema(self):
        # V8..V11 in an order that is not name order, with mixed domains
        schema = Schema([("V10", ["a", "b", "c"]), ("V8", ["0", "1"]), ("V11", ["x", "y"]),
                         ("V9", ["p", "q", "r", "s"])])
        for keep in ([], ["V9"], ["V9", "V10"], ["V11", "V8", "V9"], schema.variables):
            sub = schema.project(keep)
            validated = Schema([(n, schema.domain(n)) for n in schema.variables if n in keep])
            assert sub == validated and hash(sub) == hash(validated)
            assert (sub.variables, sub.shape) == (validated.variables, validated.shape)
            assert [sub.domain(n) for n in sub.variables] == [
                validated.domain(n) for n in validated.variables]
        with pytest.raises(SchemaError):
            schema.project(["V12"])

    def test_cell_cap(self, monkeypatch):
        monkeypatch.setattr(posscheck.possibility, "MAX_CELLS", 8)
        assert Schema.binary("A", "B", "C").shape == (2, 2, 2)
        with pytest.raises(LimitError):
            Schema.binary("A", "B", "C", "D")
        with pytest.raises(LimitError):
            Schema([("A", ["0", "1", "2"]), ("B", ["0", "1", "2"])])

    def test_cell_count_does_not_overflow(self):
        # 2**70 cells overflow int64; the count is taken over Python ints
        with pytest.raises(LimitError):
            Schema.binary(*(f"V{i}" for i in range(70)))


class TestLoad:
    def test_diagonal_has_two_ones(self):
        t = diagonal_table()
        assert t.values.size == 8
        assert np.count_nonzero(t.values) == 2
        assert t.values[0, 0, 0] == 1.0 and t.values[1, 1, 1] == 1.0

    def test_default_one_is_vacuous_possibility(self):
        t = PossibilityTable.load(Schema.binary("X", "Y"), [], 1.0)
        assert (t.values == 1.0).all()

    def test_default_zero_without_entries_is_abnormal(self):
        with pytest.raises(NormalityError):
            PossibilityTable.load(Schema.binary("X"), [], 0.0)

    def test_out_of_range_value_rejected(self):
        with pytest.raises(DomainError):
            PossibilityTable.load(Schema.binary("X"), [({"X": "0"}, 1.5)], 0.0)

    def test_unknown_variable_rejected(self):
        with pytest.raises(SchemaError):
            PossibilityTable.load(Schema.binary("X"), [({"Q": "0"}, 1.0)], 0.0)

    def test_values_are_frozen(self):
        t = diagonal_table()
        with pytest.raises(ValueError):
            t.values[0, 0, 0] = 0.5

    def test_nan_cell_rejected(self):
        values = np.ones((2, 2))
        values[1, 0] = np.nan
        with pytest.raises(DomainError):
            PossibilityTable(Schema.binary("X", "Y"), values)

    def test_nan_default_is_a_domain_error_not_abnormality(self):
        with pytest.raises(DomainError):
            PossibilityTable.load(Schema.binary("X"), [({"X": "0"}, 1.0)], float("nan"))

    def test_first_bad_entry_decides_the_error(self):
        schema = Schema.binary("X", "Y")
        label_first = [({"X": "0", "Y": "0"}, 1.0), ({"X": "0", "Y": "2"}, 0.5),
                       ({"X": "1", "Y": "1"}, 1.5)]
        with pytest.raises(SchemaError, match="^unknown label '2' for variable 'Y'$"):
            PossibilityTable.load(schema, label_first)
        value_first = [({"X": "0", "Y": "0"}, 1.0), ({"X": "1", "Y": "1"}, 1.5),
                       ({"X": "0", "Y": "2"}, 0.5)]
        with pytest.raises(DomainError, match=r"^value 1.5 outside \[0, 1\]$"):
            PossibilityTable.load(schema, value_first)

    def test_nan_entry_rejected(self):
        with pytest.raises(DomainError, match=r"^value nan outside \[0, 1\]$"):
            PossibilityTable.load(Schema.binary("X"), [({"X": "0"}, float("nan"))], 1.0)

    def test_duplicate_assignment_last_value_wins(self):
        t = PossibilityTable.load(
            Schema.binary("X"), [({"X": "1"}, 0.5), ({"X": "0"}, 1.0), ({"X": "1"}, 0.25)])
        assert t.values.tolist() == [1.0, 0.25]

    def test_non_string_labels_resolve_through_str(self):
        schema = Schema([("X", ["1", "2", "3"]), ("Y", ["0", "1"])])
        t = PossibilityTable.load(schema, [({"X": 3, "Y": 0}, 1.0)])
        assert t.values[2, 0] == 1.0 and t.values.sum() == 1.0

    def test_fraction_entry_makes_an_exact_table(self):
        t = PossibilityTable.load(Schema.binary("X"), [({"X": "0"}, Fraction(1))], 0)
        assert t.values.dtype == object
        assert t.values.tolist() == [Fraction(1), 0]
        t = PossibilityTable.load(Schema.binary("X"), [({"X": "0"}, 1.0)], Fraction(1, 2))
        assert t.values.dtype == object
        assert t.values.tolist() == [1.0, Fraction(1, 2)]

    @pytest.mark.parametrize("one", [1.0, Fraction(1)], ids=["float", "Fraction"])
    def test_a_schema_of_no_variables_loads_its_one_cell(self, one):
        t = PossibilityTable.load(Schema([]), [({}, one)])
        want = PossibilityTable(Schema([]), np.array(one))
        assert t.values.shape == want.values.shape == ()
        assert t.values.dtype == want.values.dtype and t.values.item() == one
        with pytest.raises(NormalityError):
            PossibilityTable.load(Schema([]), [({}, 0.5)])

    def test_integer_entries_give_a_float_table(self):
        t = PossibilityTable.load(Schema.binary("X"), [({"X": "0"}, 1), ({"X": "1"}, 0)])
        assert t.values.dtype == float and t.values.tolist() == [1.0, 0.0]


class TestMarginalize:
    def test_diagonal_pair_marginal(self):
        t = diagonal_table()
        m = t.marginalize(["X", "Y"])
        expected = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(m.values, expected)

    def test_diagonal_single_marginals_are_vacuous(self):
        t = diagonal_table()
        for v in ("X", "Y", "Z"):
            assert (t.marginalize([v]).values == 1.0).all()

    def test_keep_all_is_identity(self):
        t = diagonal_table()
        m = t.marginalize(["X", "Y", "Z"])
        assert np.array_equal(m.values, t.values)
        assert m is t.marginalize(t.schema.variables) is t

    def test_a_marginal_is_read_only_and_owns_its_values(self, rng):
        t = random_table(rng)
        m = t.marginalize(t.schema.variables[:1])
        assert not m.values.flags.writeable
        assert not np.shares_memory(m.values, t.values)

    def test_keep_none_is_scalar_one(self):
        t = diagonal_table()
        m = t.marginalize([])
        assert m.values.shape == ()
        assert m.values[()] == 1.0

    def test_unknown_variable_rejected(self):
        with pytest.raises(SchemaError):
            diagonal_table().marginalize(["Q"])

    def test_composition_commutes(self, rng):
        for _ in range(25):
            t = random_table(rng)
            names = list(t.schema.variables)
            keep_big = names[:-1]
            keep_small = keep_big[:1]
            via = t.marginalize(keep_big).marginalize(keep_small)
            direct = t.marginalize(keep_small)
            assert np.array_equal(via.values, direct.values)

    def test_normality_preserved(self, rng):
        for _ in range(25):
            t = random_table(rng)
            assert t.marginalize(t.schema.variables[:1]).is_normal()


class TestExtendValues:
    @staticmethod
    def expanded(table, superschema):
        """The values with one ``np.expand_dims`` per superschema variable
        the table lacks, as ``extend_values`` once built them."""
        arr = table.values
        for i, name in enumerate(superschema.variables):
            if name not in table.schema.variables:
                arr = np.expand_dims(arr, axis=i)
        return arr

    def test_one_reshape_equals_the_inserted_axes(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 7))
            names = [f"V{i}" for i in rng.permutation(n)]
            schema = Schema([(v, [str(k) for k in range(rng.integers(2, 4))]) for v in names])
            keep = [v for v in names if rng.random() < 0.5]
            for values in (rng.random(schema.project(keep).shape), None):
                sub = schema.project(keep)
                if values is None:  # exact cells
                    values = np.array([Fraction(int(k), 7) for k in
                                       rng.integers(0, 8, sub.shape).flat],
                                      dtype=object).reshape(sub.shape)
                t = PossibilityTable(sub, values)
                extended = t.extend_values(schema)
                old = self.expanded(t, schema)
                assert extended.shape == old.shape and extended.dtype == old.dtype
                assert np.array_equal(extended, old)
                assert np.shares_memory(extended, t.values) or not t.values.size
                assert not extended.flags.writeable

    def test_the_schema_checks_keep_their_messages(self):
        schema = Schema.binary("X", "Y", "Z")
        t = PossibilityTable(Schema.binary("X", "Y"), np.ones((2, 2)))
        with pytest.raises(SchemaError, match=r"^variables \['X'\] not in target schema$"):
            t.extend_values(Schema.binary("Y", "Z"))
        with pytest.raises(SchemaError, match="^variable order differs between table and "
                                              "target schema$"):
            t.extend_values(Schema.binary("Y", "X", "Z"))
        with pytest.raises(SchemaError, match="^the domain of 'Y' differs between table and "
                                              "target schema$"):
            t.extend_values(Schema([("X", "01"), ("Y", "10"), ("Z", "01")]))
        assert t.extend_values(schema).shape == (2, 2, 1)


class TestCondition:
    def test_residual_by_vacuous_marginal_is_joint(self):
        t = diagonal_table()
        for tn in BASE_TNORMS:
            cond = t.condition(tn, ["X"], ["Z"])
            joint = t.marginalize(["X", "Z"])
            assert np.allclose(
                cond.values.astype(float), joint.values.astype(float), atol=EPS
            )

    def test_godel_residual_value(self):
        schema = Schema.binary("X", "Y")
        t = PossibilityTable(schema, [[1.0, 0.3], [0.2, 0.7]])
        cond = t.condition(TNorm.godel(), ["X"], ["Y"])
        # marginal of Y is (1.0, 0.7); cell (X=1, Y=0): residual(0.2, 1.0) = 0.2
        assert cond.values[1, 0] == pytest.approx(0.2, abs=EPS)
        # cell (X=1, Y=1): residual(0.7, 0.7) = 1
        assert cond.values[1, 1] == 1.0

    def test_zero_marginal_cells_are_vacuous_ones(self):
        schema = Schema.binary("X", "Y")
        t = PossibilityTable(schema, [[1.0, 0.0], [0.5, 0.0]])
        cond = t.condition(TNorm.product(), ["X"], ["Y"])
        assert cond.values[0, 1] == 1.0 and cond.values[1, 1] == 1.0
        flagged = cond.vacuous_assignments()
        assert {"X": "0", "Y": "1"} in flagged and {"X": "1", "Y": "1"} in flagged
        assert len(flagged) == 2

    def test_overlap_rejected(self):
        with pytest.raises(DisjointnessError):
            diagonal_table().condition(TNorm.godel(), ["X"], ["X", "Y"])

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_recombination_reproduces_joint(self, tn, rng):
        # the residual conditional solves joint = T(marginal, conditional)
        for _ in range(20):
            t = random_table(rng)
            names = list(t.schema.variables)
            target, given = [names[0]], names[1:2]
            cond = t.condition(tn, target, given)
            joint = t.marginalize(set(target) | set(given))
            giv = np.broadcast_to(
                t.marginalize(given).extend_values(joint.schema), joint.values.shape
            )
            recombined = tn.apply_array(giv, cond.values)
            assert np.abs(recombined - joint.values).max() <= EPS

    @pytest.mark.parametrize("tn", BASE_TNORMS, ids=lambda t: t.describe())
    def test_greatest_solution(self, tn, rng):
        # bumping any sub-1 conditional cell breaks the recombination equation
        bumped = 0
        for _ in range(20):
            t = random_table(rng)
            names = list(t.schema.variables)
            target, given = [names[0]], names[1:]
            cond = t.condition(tn, target, given)
            joint = t.marginalize(names)
            giv = np.broadcast_to(
                t.marginalize(given).extend_values(joint.schema), joint.values.shape
            )
            for idx in np.ndindex(cond.values.shape):
                if cond.values[idx] >= 1.0:
                    continue
                perturbed = cond.values.copy()
                perturbed[idx] = min(perturbed[idx] + 10 * EPS, 1.0)
                recombined = tn.apply_array(giv, perturbed)
                assert np.abs(recombined - joint.values).max() > EPS
                bumped += 1
        assert bumped > 0


class TestAeEqual:
    def test_reflexive(self):
        t = positive_diagonal_table()
        ok, witness = ae_equal(t, t, t, TNorm.product())
        assert ok and witness is None

    def test_godel_classes_are_wide(self):
        schema = Schema.binary("X")
        ref = PossibilityTable(schema, [0.5, 0.5])
        h1 = PossibilityTable(schema, [0.7, 0.7])
        h2 = PossibilityTable(schema, [0.9, 0.9])
        ok, _ = ae_equal(h1, h2, ref, TNorm.godel())
        assert ok  # both sides min down to 0.5 everywhere

    def test_product_distinguishes(self):
        schema = Schema.binary("X")
        ref = PossibilityTable(schema, [0.5, 0.5])
        h1 = PossibilityTable(schema, [0.7, 0.7])
        h2 = PossibilityTable(schema, [0.9, 0.9])
        ok, witness = ae_equal(h1, h2, ref, TNorm.product())
        assert not ok  # 0.35 != 0.45
        assert witness == {"X": "0"}

    def test_schema_mismatch_rejected(self):
        t = positive_diagonal_table()
        other = PossibilityTable.load(Schema.binary("X", "Y"), [], 1.0)
        with pytest.raises(SchemaError):
            ae_equal(other, other, t, TNorm.godel())

    @pytest.mark.parametrize("tn", ALL_TNORMS, ids=lambda t: t.describe())
    def test_equivalence_relation(self, tn, rng):
        schema = Schema.binary("X", "Y")
        for _ in range(30):
            ref = PossibilityTable(schema, rng.random((2, 2)))
            hs = [PossibilityTable(schema, rng.random((2, 2))) for _ in range(3)]
            for h in hs:
                assert ae_equal(h, h, ref, tn)[0]
            for h1 in hs:
                for h2 in hs:
                    assert ae_equal(h1, h2, ref, tn)[0] == ae_equal(h2, h1, ref, tn)[0]
            a_b = ae_equal(hs[0], hs[1], ref, tn)[0]
            b_c = ae_equal(hs[1], hs[2], ref, tn)[0]
            a_c = ae_equal(hs[0], hs[2], ref, tn)[0]
            if a_b and b_c:
                assert a_c


class TestPredicates:
    def test_strict_positivity(self):
        assert positive_diagonal_table().is_strictly_positive()
        assert not diagonal_table().is_strictly_positive()
        assert PossibilityTable.load(Schema.binary("X"), [], 1.0).is_strictly_positive()

    def test_crispness(self):
        assert diagonal_table().is_crisp()
        assert not positive_diagonal_table().is_crisp()
        # exact values compared with eps=0: a cell 1e-12 off 0 or 1 is not crisp
        assert diagonal_table(exact=True).is_crisp(0)
        for off in (Fraction(1, 10 ** 12), Fraction(1) - Fraction(1, 10 ** 12)):
            values = np.array([Fraction(1), 0, off, Fraction(0)], dtype=object)
            t = PossibilityTable(Schema.binary("X", "Y"), values.reshape(2, 2))
            assert not t.is_crisp(0)
            assert t.is_crisp(Fraction(1, 10 ** 11))


class TestExactMode:
    def test_exact_tables_stay_rational(self):
        t = diagonal_table(exact=True)
        assert t.values.dtype == object
        m = t.marginalize(["X", "Y"])
        assert m.values[0, 0] == Fraction(1)
        assert isinstance(m.values[0, 0], (Fraction, int))

    def test_exact_conditioning(self):
        schema = Schema.binary("X", "Y")
        vals = np.array(
            [[Fraction(1), Fraction(3, 10)], [Fraction(1, 5), Fraction(7, 10)]],
            dtype=object,
        )
        t = PossibilityTable(schema, vals)
        cond = t.condition(TNorm.product(), ["X"], ["Y"])
        assert cond.values[1, 0] == Fraction(1, 5)
        assert cond.values[1, 1] == Fraction(1)
        assert cond.values[0, 1] == Fraction(3, 7)

    def test_exact_equality_is_exact(self):
        schema = Schema.binary("X")
        t1 = PossibilityTable(schema, np.array([Fraction(1), Fraction(1, 3)], dtype=object))
        t2 = PossibilityTable(schema, np.array([Fraction(1), Fraction(1, 3)], dtype=object))
        ok, _ = t1.equals(t2, eps=0)
        assert ok
        t3 = PossibilityTable(
            schema, np.array([Fraction(1), Fraction(1, 3) + Fraction(1, 10 ** 12)], dtype=object)
        )
        ok, witness = t1.equals(t3, eps=0)
        assert not ok and witness == {"X": "1"}
