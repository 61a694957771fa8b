"""Model file parsing: schemas, tables, graphs, t-norms, exact values."""

import hashlib
import json
import os
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from posscheck import (
    DomainError,
    ModelFormatError,
    NormalityError,
    PossibilityTable,
    Schema,
    SchemaError,
)
from posscheck.cli import EX_MODEL, EX_OK, main
from posscheck.modelio import load_model, model_digest, parse_value

ROOT = Path(__file__).resolve().parent.parent

GOOD_MODEL = {
    "variables": [
        {"name": "X", "domain": ["0", "1"]},
        {"name": "Y", "domain": ["0", "1"]},
    ],
    "table": {
        "default": 0.0,
        "entries": [
            {"assignment": {"X": "0", "Y": "0"}, "value": 1.0},
            {"assignment": {"X": "1", "Y": "1"}, "value": "1/2"},
        ],
    },
    "graph": {"edges": [["X", "Y"]]},
    "tnorm": {"base": "product"},
}


class TestParseValue:
    def test_decimal_number(self):
        assert parse_value(0.25) == 0.25

    def test_fraction_string(self):
        assert parse_value("3/4") == 0.75
        assert parse_value("3/4", exact=True) == Fraction(3, 4)

    def test_exact_decimal_is_exact(self):
        assert parse_value(0.1, exact=True) == Fraction(1, 10)

    def test_garbage_rejected(self):
        with pytest.raises(ModelFormatError):
            parse_value("3//4")
        with pytest.raises(ModelFormatError):
            parse_value(None)
        with pytest.raises(ModelFormatError):
            parse_value(True)


class TestLoadModel:
    def test_full_document(self):
        m = load_model(GOOD_MODEL)
        assert m.schema.variables == ("X", "Y")
        assert m.table.values[0, 0] == 1.0
        assert m.table.values[1, 1] == 0.5
        assert m.graph is not None and m.graph.edges == frozenset({("X", "Y")})
        assert m.tnorm is not None and m.tnorm.base == "product"

    def test_exact_mode_gives_fractions(self):
        m = load_model(GOOD_MODEL, exact=True)
        assert m.table.values[1, 1] == Fraction(1, 2)
        assert m.table.values.dtype == object

    def test_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(GOOD_MODEL))
        m = load_model(path)
        assert m.schema.variables == ("X", "Y")

    def test_from_json_string(self):
        m = load_model(json.dumps(GOOD_MODEL))
        assert m.schema.variables == ("X", "Y")

    def test_missing_sections_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model({"variables": GOOD_MODEL["variables"]})

    def test_bad_json_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model("{not json")

    def test_non_normal_table_rejected(self):
        doc = {
            "variables": [{"name": "X", "domain": ["0", "1"]}],
            "table": {"default": 0.5, "entries": []},
        }
        with pytest.raises(NormalityError):
            load_model(doc)

    def test_graph_vertices_must_be_schema_variables(self):
        doc = dict(GOOD_MODEL)
        doc["graph"] = {"edges": [["X", "Q"]]}
        with pytest.raises(ModelFormatError):
            load_model(doc)

    def test_exact_mode_rejects_transformed_tnorms(self):
        doc = dict(GOOD_MODEL)
        doc["tnorm"] = {"base": "product", "automorphism": {"type": "power", "p": 2.0}}
        with pytest.raises(ModelFormatError):
            load_model(doc, exact=True)
        assert load_model(doc).tnorm.transform.p == 2.0

    def test_digest_is_stable_and_content_sensitive(self):
        d1 = model_digest(GOOD_MODEL)
        d2 = model_digest(json.loads(json.dumps(GOOD_MODEL)))
        assert d1 == d2
        altered = json.loads(json.dumps(GOOD_MODEL))
        altered["table"]["default"] = 0.25
        assert model_digest(altered) != d1


def sha16(data):
    return hashlib.sha256(data).hexdigest()[:16]


class TestDigest:
    """A document's digest hashes its bytes; a dict is first written as
    canonical JSON."""

    def test_a_file_digest_is_the_sha256_of_its_bytes(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(GOOD_MODEL, indent=2))
        assert load_model(path).digest == sha16(path.read_bytes())
        assert load_model(str(path)).digest == sha16(path.read_bytes())
        assert load_model(path).digest != model_digest(GOOD_MODEL)

    def test_json_text_digest_is_the_sha256_of_its_utf8_bytes(self):
        doc = dict(GOOD_MODEL, comment="Température")
        text = json.dumps(doc, ensure_ascii=False)
        assert load_model(text).digest == sha16(text.encode("utf-8"))

    def test_a_file_of_canonical_json_gets_the_dict_digest(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(GOOD_MODEL, sort_keys=True, separators=(",", ":")))
        assert load_model(path).digest == model_digest(GOOD_MODEL) == "43060bb341ea9303"

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32-le"])
    def test_utf16_and_utf32_files_load(self, tmp_path, encoding):
        path = tmp_path / "model.json"
        path.write_bytes(json.dumps(GOOD_MODEL).encode(encoding))
        m = load_model(path)
        assert m.schema.variables == ("X", "Y")
        assert m.digest == sha16(path.read_bytes())

    def test_loading_a_file_or_text_makes_no_json_dumps_call(self, tmp_path, monkeypatch):
        # the digest hashes the bytes that were parsed; writing the parsed
        # document back out would count here
        text = json.dumps(GOOD_MODEL)
        path = tmp_path / "model.json"
        path.write_text(text)

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called while loading")

        monkeypatch.setattr(json, "dumps", refuse)
        assert load_model(path).digest == sha16(text.encode())
        assert load_model(text).digest == sha16(text.encode())

    def test_a_utf8_file_loads_the_same_under_the_c_locale(self, tmp_path):
        doc = {
            "variables": [{"name": "Température", "domain": ["froid", "chaud"]}],
            "table": {"entries": [{"assignment": {"Température": "chaud"}, "value": 1.0}]},
        }
        path = tmp_path / "model.json"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
        argv = [sys.executable, "-m", "posscheck", "validate", "--model", str(path), "--json"]
        digests = []
        for locale_env in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                           {"PYTHONUTF8": "1"}):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **locale_env)
            done = subprocess.run(argv, capture_output=True, env=env, timeout=120)
            assert (done.returncode, done.stderr) == (EX_OK, b"")
            digests.append(json.loads(done.stdout)["model_digest"])
        assert digests == [sha16(path.read_bytes())] * 2

    def test_invalid_utf8_in_a_file_is_a_model_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"variables": "\xff"}')
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(path)
        assert main(["validate", "--model", str(path)]) == EX_MODEL
        assert "Traceback" not in capsys.readouterr().err

    def test_a_lone_surrogate_in_json_text_is_a_model_error(self, capsys):
        with pytest.raises(ModelFormatError, match="invalid JSON text"):
            load_model('{"x": "\ud800"}')
        assert main(["validate", "--model", '{"x": "\ud800"}']) == EX_MODEL
        assert "Traceback" not in capsys.readouterr().err


def binary_doc(names, entries, default=0.0):
    """A model document over binary variables with the given table entries."""
    return {
        "variables": [{"name": n, "domain": ["0", "1"]} for n in names],
        "table": {"default": default, "entries": entries},
    }


def full_doc(names, values):
    """A model document listing every cell of ``values`` (C order)."""
    entries = [
        {"assignment": {n: str(i) for n, i in zip(names, idx)}, "value": float(values[idx])}
        for idx in np.ndindex(values.shape)
    ]
    return binary_doc(names, entries)


class TestTableBuilding:
    """How a table is built from the entries of a model document."""

    def test_digest_bytes_are_pinned(self):
        assert model_digest(GOOD_MODEL) == "43060bb341ea9303"

    def test_bad_label_before_bad_value_reports_the_label(self):
        doc = binary_doc(["X", "Y"], [
            {"assignment": {"X": "0", "Y": "0"}, "value": 1.0},
            {"assignment": {"X": "2", "Y": "0"}, "value": 0.5},
            {"assignment": {"X": "1", "Y": "1"}, "value": 1.5},
        ])
        with pytest.raises(SchemaError) as info:
            load_model(doc)
        assert type(info.value) is SchemaError
        assert str(info.value) == "unknown label '2' for variable 'X'"

    def test_bad_value_before_bad_label_reports_the_value(self):
        doc = binary_doc(["X", "Y"], [
            {"assignment": {"X": "0", "Y": "0"}, "value": 1.0},
            {"assignment": {"X": "1", "Y": "1"}, "value": 1.5},
            {"assignment": {"X": "2", "Y": "0"}, "value": 0.5},
        ])
        with pytest.raises(DomainError) as info:
            load_model(doc)
        assert str(info.value) == "value 1.5 outside [0, 1]"

    def test_range_is_checked_before_labels_within_an_entry(self):
        doc = binary_doc(["X"], [{"assignment": {"X": "2"}, "value": 2}])
        with pytest.raises(DomainError) as info:
            load_model(doc)
        assert str(info.value) == "value 2.0 outside [0, 1]"

    def test_parse_errors_come_before_range_and_label_errors(self):
        doc = binary_doc(["X"], [
            {"assignment": {"X": "2"}, "value": 1.5},
            {"assignment": {"X": "0"}, "value": "1//2"},
        ])
        with pytest.raises(ModelFormatError, match="cannot parse value '1//2'"):
            load_model(doc)

    @pytest.mark.parametrize("assignment, message", [
        ({"X": "0"}, "assignment missing variable 'Y'"),
        ({"X": "0", "Y": "1", "Q": "0"}, "assignment names unknown variables ['Q']"),
    ])
    def test_missing_and_extra_variables(self, assignment, message):
        doc = binary_doc(["X", "Y"], [{"assignment": assignment, "value": 1.0}])
        with pytest.raises(SchemaError) as info:
            load_model(doc)
        assert str(info.value) == message

    def test_duplicate_assignment_last_value_wins(self):
        doc = binary_doc(["X"], [
            {"assignment": {"X": "0"}, "value": 0.25},
            {"assignment": {"X": "1"}, "value": 1.0},
            {"assignment": {"X": "0"}, "value": 0.75},
        ])
        assert load_model(doc).table.values.tolist() == [0.75, 1.0]

    def test_non_string_labels_resolve_through_str(self):
        doc = binary_doc(["X", "Y"], [{"assignment": {"X": 0, "Y": 1}, "value": 1.0}])
        assert load_model(doc).table.values.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    @pytest.mark.parametrize("value", [float("nan"), -0.25, 1.5, "3/2"])
    def test_nan_and_out_of_range_values_are_domain_errors(self, value):
        doc = binary_doc(["X"], [
            {"assignment": {"X": "0"}, "value": 1.0},
            {"assignment": {"X": "1"}, "value": value},
        ])
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            load_model(doc)

    def test_exact_mode_gives_an_object_array_of_fractions(self):
        doc = binary_doc(["X", "Y"], [
            {"assignment": {"X": "0", "Y": "0"}, "value": 1},
            {"assignment": {"X": "1", "Y": "0"}, "value": 0.1},
            {"assignment": {"X": "0", "Y": "1"}, "value": "1/3"},
        ], default="1/7")
        values = load_model(doc, exact=True).table.values
        assert values.dtype == object
        assert all(type(v) is Fraction for v in values.flat)
        assert values.tolist() == [[Fraction(1), Fraction(1, 3)],
                                   [Fraction(1, 10), Fraction(1, 7)]]

    def test_string_values_in_float_mode(self):
        doc = binary_doc(["X"], [
            {"assignment": {"X": "0"}, "value": "1"},
            {"assignment": {"X": "1"}, "value": "1/3"},
        ])
        values = load_model(doc).table.values
        assert values.dtype == float
        assert values.tolist() == [1.0, 1 / 3]

    def test_single_variable_and_empty_entries_load(self):
        single = load_model(binary_doc(["X"], [{"assignment": {"X": "1"}, "value": 1.0}]))
        assert single.table.values.tolist() == [0.0, 1.0]
        empty = load_model(binary_doc(["X", "Y"], [], default=1.0))
        assert empty.table.values.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert empty.table.values.dtype == float

    def test_entry_and_key_order_do_not_change_the_values(self):
        rng = np.random.default_rng(5)
        names = ["A", "B", "C", "D"]
        values = rng.random((2, 2, 2, 2))
        values[1, 0, 1, 0] = 1.0
        doc = full_doc(names, values)
        base = load_model(doc)
        assert np.array_equal(base.table.values, values)

        shuffled = json.loads(json.dumps(doc))
        rng.shuffle(shuffled["table"]["entries"])
        loaded = load_model(shuffled)
        assert loaded.table.values.dtype == base.table.values.dtype
        assert np.array_equal(loaded.table.values, base.table.values)

        rekeyed = json.loads(json.dumps(doc))
        for entry in rekeyed["table"]["entries"]:
            keys = list(entry["assignment"])
            rng.shuffle(keys)
            entry["assignment"] = {k: entry["assignment"][k] for k in keys}
        loaded = load_model(rekeyed)
        assert np.array_equal(loaded.table.values, base.table.values)
        # a dict's digest hashes its canonical JSON, with sorted keys: key
        # order inside an assignment does not change it, entry order does
        assert loaded.digest == base.digest
        assert load_model(shuffled).digest == model_digest(shuffled) != base.digest

    def test_a_valid_load_makes_no_per_entry_lookups(self, monkeypatch):
        calls = []
        original = Schema.multi_index

        def counting(self, assignment):
            calls.append(assignment)
            return original(self, assignment)

        monkeypatch.setattr(Schema, "multi_index", counting)
        names = [f"V{i}" for i in range(10)]
        values = np.random.default_rng(3).random((2,) * 10)
        values[(0,) * 10] = 1.0
        table = load_model(full_doc(names, values)).table
        assert np.array_equal(table.values, values)
        assert calls == []
        # a bad entry is reported through multi_index
        doc = full_doc(names, values)
        doc["table"]["entries"][700]["assignment"]["V3"] = "7"
        with pytest.raises(SchemaError, match="^unknown label '7' for variable 'V3'$"):
            load_model(doc)
        assert calls


def loop_table(schema, entries, default):
    """The table a loop over the entries writes, one cell at a time."""
    exact = isinstance(default, Fraction) or any(isinstance(v, Fraction) for _, v in entries)
    arr = np.full(schema.shape, default, dtype=object if exact else float)
    for assignment, value in entries:
        if not 0 <= value <= 1:
            raise DomainError(f"value {value!r} outside [0, 1]")
        arr[schema.multi_index(assignment)] = value
    return arr


class TestAgainstTheEntryLoop:
    """The column pass writes what a loop over the entries writes, and
    raises the loop's error for the first bad entry."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_entry_lists(self, seed):
        rng = np.random.default_rng(seed)
        domains = [["0", "1"], ["lo", "mid", "hi"], ["a", "b"], ["1", "2", "3"]]
        names = list(rng.permutation(["A", "Q", "B", "V10"]))[: rng.integers(1, 5)]
        schema = Schema(list(zip(names, domains)))
        exact = seed % 3 == 0
        one = Fraction(1) if exact else 1.0
        entries = []
        for _ in range(rng.integers(0, 2 * np.prod(schema.shape))):
            keys = list(rng.permutation(names))
            assignment = {k: schema.domain(k)[rng.integers(len(schema.domain(k)))] for k in keys}
            value = Fraction(int(rng.integers(0, 8)), 7) if exact else float(rng.random())
            entries.append((assignment, value))
        entries.append(({n: schema.domain(n)[0] for n in names}, one))
        if seed % 4 == 1:  # one bad label or value somewhere
            victim = entries[rng.integers(len(entries))]
            if seed % 8 == 1:
                victim[0][names[0]] = "nope"
            else:
                entries[entries.index(victim)] = (victim[0], 1.25)
        default = Fraction(0) if exact else 0.0
        try:
            expected = loop_table(schema, entries, default)
        except (DomainError, SchemaError) as exc:
            with pytest.raises(type(exc)) as info:
                PossibilityTable.load(schema, entries, default)
            assert str(info.value) == str(exc)
            return
        values = PossibilityTable.load(schema, entries, default).values
        assert values.dtype == expected.dtype
        assert values.tolist() == expected.tolist()


class TestBadShapes:
    """Parts of a model document with the wrong JSON type are model errors."""

    @pytest.mark.parametrize("table", [
        {"entries": 5},
        {"entries": None},
        {"entries": {"assignment": {"X": "0"}, "value": 1.0}},
        {"entries": [{"assignment": ["X", "0"], "value": 1.0}]},
        {"entries": [{"assignment": "X0", "value": 1.0}]},
        {"entries": [{"assignment": {"X": "0"}, "value": 10 ** 400}]},
        {"entries": [["X", "0"]]},
        {"entries": [{"assignment": {"X": "0"}}]},
        {"entries": [{"assignment": {"X": "0"}, "value": True}]},
        {"entries": [{"assignment": {"X": "0"}, "value": None}]},
    ])
    def test_bad_tables(self, table):
        doc = {"variables": [{"name": "X", "domain": ["0", "1"]}], "table": table}
        with pytest.raises(ModelFormatError):
            load_model(doc)

    @pytest.mark.parametrize("variable", [
        {"name": "X", "domain": "01"},
        {"name": "X", "domain": {"0": 1, "1": 2}},
        {"name": 5, "domain": ["0", "1"]},
    ])
    def test_bad_variables(self, variable):
        doc = {"variables": [variable], "table": {"default": 1.0, "entries": []}}
        with pytest.raises(ModelFormatError):
            load_model(doc)

    def test_shape_error_of_a_later_entry_comes_after_a_parse_error(self):
        doc = binary_doc(["X"], [
            {"assignment": {"X": "0"}, "value": "x"},
            {"assignment": ["X"], "value": 1.0},
        ])
        with pytest.raises(ModelFormatError, match="cannot parse value 'x'"):
            load_model(doc)

    NEEDS = "each entry needs 'assignment' and 'value'"

    @pytest.mark.parametrize("bad, message", [
        (["X", "0"], NEEDS),
        ("X0", NEEDS),
        (None, NEEDS),
        ({"value": 1.0}, NEEDS),
        ({"assignment": {"X": "1"}}, NEEDS),
        ({"assignment": ["X", "1"], "value": 1.0}, "assignment ['X', '1'] is not an object"),
        ({"assignment": "X1", "value": 1.0}, "assignment 'X1' is not an object"),
        ({"assignment": None, "value": 1.0}, "assignment None is not an object"),
        # a mapping that is not a dict, in a parsed-dict document
        (MappingProxyType({"assignment": {"X": "1"}, "value": 1.0}), NEEDS),
        ({"assignment": MappingProxyType({"X": "1"}), "value": 1.0},
         "assignment mappingproxy({'X': '1'}) is not an object"),
    ])
    def test_the_first_bad_shape_gives_its_message(self, bad, message):
        good = {"assignment": {"X": "0"}, "value": 1.0}
        later = {"assignment": "X", "value": 0.5}  # a second bad shape, after it
        doc = binary_doc(["X"], [good, bad, later])
        with pytest.raises(ModelFormatError) as info:
            load_model(doc)
        assert str(info.value) == message

    def test_a_bad_value_before_a_bad_shape_gives_the_value_message(self):
        for later in (None, {"value": 1.0}, {"assignment": [], "value": 1.0}):
            doc = binary_doc(["X"], [
                {"assignment": {"X": "0"}, "value": 1.0},
                {"assignment": {"X": "1"}, "value": "2/0"},
                later,
            ])
            with pytest.raises(ModelFormatError) as info:
                load_model(doc)
            assert str(info.value) == "cannot parse value '2/0': Fraction(2, 0)"

    def test_dict_subclasses_are_entries_and_assignments(self):
        entries = [OrderedDict(assignment={"X": "0"}, value=1.0),
                   {"assignment": OrderedDict(X="1"), "value": 0.5}]
        values = load_model(binary_doc(["X"], entries)).table.values
        assert values.tolist() == [1.0, 0.5]

    def test_too_large_integer_value(self):
        with pytest.raises(ModelFormatError, match="too large"):
            parse_value(10 ** 400)
        # in exact mode the integer is a rational outside [0, 1]
        doc = binary_doc(["X"], [{"assignment": {"X": "0"}, "value": 10 ** 400}])
        with pytest.raises(DomainError):
            load_model(doc, exact=True)

    @pytest.mark.parametrize("make", [lambda p: p / "missing.json", lambda p: p])
    def test_unreadable_file(self, tmp_path, make):
        with pytest.raises(ModelFormatError, match="cannot read model file"):
            load_model(make(tmp_path))
