"""Command-line behavior: subcommands, exit codes, JSON reports."""

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import posscheck.cli
import posscheck.markov
from posscheck import Factorization, PossibilityTable, Schema, TNorm, UndirectedGraph
from posscheck.cli import EX_FAILS, EX_IOERR, EX_MODEL, EX_OK, EX_UNKNOWN, EX_USAGE, main, run
from posscheck.corpus import builtin_example

from conftest import jittered, planted

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def model_path(tmp_path):
    def write(number):
        path = tmp_path / f"ex{number}.json"
        path.write_text(json.dumps(builtin_example(number).to_model_json()))
        return str(path)

    return write


def table_model(path, table, graph, base):
    """Write a model file listing every cell of ``table``; returns its path."""
    schema = table.schema
    doc = {
        "variables": [{"name": n, "domain": list(schema.domain(n))} for n in schema.variables],
        "table": {"entries": [
            {"assignment": a, "value": float(table.values[schema.multi_index(a)])}
            for a in schema.assignments()
        ]},
        "graph": graph.to_json_dict(),
        "tnorm": {"base": base},
    }
    path.write_text(json.dumps(doc))
    return str(path)


def strict_cycle_model(tmp_path):
    """A product-planted table on the four-cycle W-X-Y-Z: a strict "yes"
    whose factors come from the linear program."""
    graph = UndirectedGraph.from_edges([("W", "X"), ("X", "Y"), ("Y", "Z"), ("Z", "W")])
    table, _ = planted(Schema.binary("W", "X", "Y", "Z"), graph, TNorm.product(),
                       np.random.default_rng(4), 0.1)
    return table_model(tmp_path / "cycle.json", table, graph, "product")


class TestResidual:
    def test_lukasiewicz_value(self, capsys):
        code = main(["residual", "--tnorm", "lukasiewicz", "--y", "0.3", "--x", "0.7"])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "0.6" in out

    def test_value_is_the_array_kernel_cell(self):
        # the scalar residual runs the kernel the engine conditions with
        code, report = run(["residual", "--tnorm", "product", "--power", "3.7",
                            "--y", "0.05", "--x", "0.125"])
        kernel = TNorm.product(3.7).residual_array(np.array([0.05]), np.array([0.125]))
        assert code == EX_OK
        assert report["checks"][0]["value"] == kernel[0]

    def test_residual_by_zero_is_vacuous(self):
        code, report = run(["residual", "--tnorm", "godel", "--y", "0.3", "--x", "0"])
        assert code == EX_UNKNOWN
        assert report["checks"][0]["value"] == 1.0
        assert report["checks"][0]["vacuous"]


class TestIndep:
    def test_holding_statement_exits_zero(self, model_path):
        code, report = run(
            ["indep", "--model", model_path(1), "--a", "X", "--b", "Y",
             "--given", "Z", "--tnorm", "product"]
        )
        assert code == EX_OK
        assert report["checks"][0]["holds"]

    def test_failing_statement_exits_one_with_witness(self, model_path):
        code, report = run(
            ["indep", "--model", model_path(1), "--a", "X", "--b", "Y,Z",
             "--tnorm", "product"]
        )
        assert code == EX_FAILS
        assert report["checks"][0]["witness"] == {"X": "1", "Y": "0", "Z": "0"}


class TestAxioms:
    def test_intersection_violations_found(self, model_path):
        code, report = run(
            ["axioms", "--model", model_path(1), "--axiom", "a5", "--tnorm", "godel"]
        )
        assert code == EX_FAILS
        assert report["checks"][0]["violations"]

    def test_semigraphoid_axioms_clean(self, model_path):
        code, report = run(
            ["axioms", "--model", model_path(1), "--axiom", "a1", "--axiom", "a2",
             "--axiom", "a3", "--axiom", "a4", "--tnorm", "godel"]
        )
        assert code == EX_OK
        assert len(report["checks"]) == 4

    def test_one_process_parses_each_command_line_afresh(self, model_path):
        # the parser is built once per process; no --axiom list carries over
        code, report = run(["axioms", "--model", model_path(1), "--axiom", "a5"])
        assert [c["axiom"] for c in report["checks"]] == ["intersection"]
        code, report = run(["axioms", "--model", model_path(1)])
        assert [c["axiom"] for c in report["checks"]] == [
            "symmetry", "decomposition", "weak_union", "contraction", "intersection"]
        assert main(["axioms", "--model", model_path(1), "--axiom"]) == EX_USAGE


class TestMarkov:
    def test_global_holds_on_four_cycle(self, model_path):
        code, report = run(
            ["markov", "--model", model_path(5), "--property", "global"]
        )
        assert code == EX_OK
        assert report["checks"][0]["holds"]

    def test_local_fails_on_isolated_vertex_model(self, model_path):
        code, report = run(
            ["markov", "--model", model_path(3), "--property", "local", "--tnorm", "product"]
        )
        assert code == EX_FAILS
        assert report["checks"][0]["witness"]["assignment"] == {"X": "1", "Y": "0", "Z": "0"}

    def test_all_properties_reported(self, model_path):
        code, report = run(["markov", "--model", model_path(4), "--property", "all"])
        assert code == EX_FAILS
        assert [c["property"] for c in report["checks"]] == ["pairwise", "local", "global"]

    def test_exhaustive_mode(self, model_path):
        code, report = run(
            ["markov", "--model", model_path(4), "--property", "global", "--exhaustive"]
        )
        assert code == EX_FAILS
        assert report["checks"][0]["mode"] == "exhaustive"

    def test_model_without_graph_is_an_error(self, model_path):
        assert main(["markov", "--model", model_path(1), "--property", "local"]) == EX_MODEL


class TestFactorize:
    def test_four_cycle_says_no(self, model_path):
        code, report = run(["factorize", "--model", model_path(5), "--tnorm", "product"])
        assert code == EX_FAILS
        assert report["checks"][0]["status"] == "no"
        assert report["checks"][0]["witness"] == {"X": "0", "Y": "1", "Z": "0", "W": "0"}

    def test_unknown_exit_code(self, tmp_path):
        doc = {
            "variables": [{"name": v, "domain": ["0", "1"]} for v in "XYZ"],
            "table": {
                "default": 0.5,
                "entries": [
                    {"assignment": {"X": "0", "Y": "0", "Z": "0"}, "value": 1.0},
                    {"assignment": {"X": "1", "Y": "1", "Z": "1"}, "value": 0.0},
                ],
            },
            "graph": {"edges": [["X", "Y"], ["Y", "Z"]]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, report = run(["factorize", "--model", str(path), "--tnorm", "lukasiewicz"])
        assert code == EX_UNKNOWN
        assert report["checks"][0]["status"] == "unknown"

    def test_yes_includes_serialized_factors(self, tmp_path):
        doc = {
            "variables": [{"name": v, "domain": ["0", "1"]} for v in "XY"],
            "table": {
                "default": 0.25,
                "entries": [{"assignment": {"X": "0", "Y": "0"}, "value": 1.0}],
            },
            "graph": {"edges": [["X", "Y"]]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, report = run(["factorize", "--model", str(path), "--tnorm", "godel"])
        assert code == EX_OK
        cliques = report["checks"][0]["factorization"]["cliques"]
        assert cliques[0]["vars"] == ["X", "Y"]
        assert cliques[0]["entries"] == [1.0, 0.25, 0.25, 0.25]


    def test_exact_yes_serializes_factors_as_fractions(self, tmp_path):
        doc = {
            "variables": [{"name": v, "domain": ["0", "1"]} for v in "XY"],
            "table": {
                "default": "1/4",
                "entries": [{"assignment": {"X": "0", "Y": "0"}, "value": 1}],
            },
            "graph": {"edges": [["X", "Y"]]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        code, report = run(["factorize", "--model", str(path), "--exact", "--tnorm", "product"])
        assert code == EX_OK
        assert report["checks"][0]["factorization"]["cliques"][0]["entries"] == [
            "1", "1/4", "1/4", "1/4"
        ]

    @pytest.mark.parametrize("nudge", [0, 10 ** -15], ids=["planted", "lowered"])
    def test_exact_product_chain_says_yes_only_with_exact_factors(self, nudge, tmp_path):
        # dyadic product factors on X - Y - Z; lowering one cell by 1e-15
        # leaves the table within 1e-7 of a factorization but not one
        f1, f2 = [[1, 7 / 8], [3 / 4, 7 / 8]], [[1, 3 / 4], [7 / 8, 3 / 4]]
        entries = [{"assignment": {"X": str(x), "Y": str(y), "Z": str(z)},
                    "value": str(Fraction(f1[x][y] * f2[y][z])
                                 - (Fraction(nudge) if (x, y, z) == (1, 1, 1) else 0))}
                   for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        doc = {"variables": [{"name": v, "domain": ["0", "1"]} for v in "XYZ"],
               "table": {"entries": entries}, "graph": {"edges": [["X", "Y"], ["Y", "Z"]]}}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, report = run(["factorize", "--model", str(path), "--exact", "--tnorm", "product"])
        markov, _ = run(["markov", "--model", str(path), "--exact", "--tnorm", "product",
                         "--property", "global"])
        if nudge:
            assert code == EX_UNKNOWN and markov == EX_FAILS
            assert report["checks"][0]["status"] == "unknown"
        else:
            assert code == EX_OK and markov == EX_OK
            cliques = report["checks"][0]["factorization"]["cliques"]
            assert [c["vars"] for c in cliques] == [["X", "Y"], ["Y", "Z"]]
            assert cliques[0]["entries"] == ["1", "49/64", "3/4", "49/64"]
            assert all(isinstance(v, str) for c in cliques for v in c["entries"])

    @pytest.mark.parametrize("base", ["godel", "product"])
    def test_factors_fold_back_when_names_do_not_sort_in_schema_order(self, base, tmp_path):
        # V10 sorts before V9 by name; entries follow each factor's "vars"
        names = [f"V{i}" for i in range(12)]
        rng = np.random.default_rng(11)
        schema = Schema.binary(*names)
        graph = UndirectedGraph.from_edges(list(zip(names, names[1:])))
        tn = TNorm(base)
        factors = {}
        for clique in graph.cliques():
            values = rng.uniform(0.5, 1.0, (2, 2))
            values[0, 0] = 1.0
            factors[clique] = PossibilityTable(schema.project(clique), values)
        table = Factorization(tn, factors).combine(schema)
        doc = {
            "variables": [{"name": n, "domain": ["0", "1"]} for n in names],
            "table": {"entries": [
                {"assignment": a, "value": float(table.values[schema.multi_index(a)])}
                for a in schema.assignments()
            ]},
            "graph": {"edges": [list(e) for e in zip(names, names[1:])]},
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        code, report = run(["factorize", "--model", str(path), "--tnorm", base])
        assert code == EX_OK
        rebuilt = np.ones(schema.shape)
        for entry in report["checks"][0]["factorization"]["cliques"]:
            local = PossibilityTable(schema.project(entry["vars"]), entry["entries"])
            assert local.schema.variables == tuple(entry["vars"])
            rebuilt = tn.apply_array(rebuilt, local.extend_values(schema))
        assert np.abs(rebuilt - table.values).max() <= 1e-7


    def test_strict_yes_from_the_linear_program(self, tmp_path):
        code, report = run(["factorize", "--model", strict_cycle_model(tmp_path)])
        assert code == EX_OK
        assert report["checks"][0]["status"] == "yes"

    def test_epsilon_admits_a_table_consistent_within_it(self, tmp_path):
        # cells moved by 1e-6 keep the table within 1e-5 of a factorization
        names = [f"V{i}" for i in range(6)]
        graph = UndirectedGraph.from_edges(list(zip(names, names[1:])))
        rng = np.random.default_rng(4)
        table, anchor = planted(Schema.binary(*names), graph, TNorm.lukasiewicz(), rng, 0.9)
        path = table_model(tmp_path / "chain.json", jittered(table, anchor, rng, 1e-6), graph,
                           "lukasiewicz")
        code, report = run(["factorize", "--model", path, "--epsilon", "1e-5"])
        assert code == EX_OK
        assert report["checks"][0]["status"] == "yes"
        code, report = run(["factorize", "--model", path])
        assert code == EX_FAILS
        assert report["checks"][0]["status"] == "no"


class TestExamples:
    def test_example_one_exits_one_with_witness(self):
        code, report = run(["examples", "--id", "1", "--tnorm", "product"])
        assert code == EX_FAILS
        failing = [
            c for c in report["checks"]
            if c["kind"] == "independent" and c["verdict"] is False
        ]
        assert failing and failing[0]["witness"] == {"X": "1", "Y": "0", "Z": "0"}
        assert all(c["matches_expected"] for c in report["checks"])

    def test_all_examples_match_their_expected_verdicts(self):
        code, report = run(["examples"])
        assert all(c["matches_expected"] for c in report["checks"])
        assert code == EX_FAILS  # several reference claims are failures by design

    def test_unknown_id_is_a_usage_level_error(self):
        assert main(["examples", "--id", "0"]) == EX_MODEL


class TestValidate:
    def test_good_model(self, model_path):
        code, report = run(["validate", "--model", model_path(4)])
        assert code == EX_OK
        assert report["checks"][0]["graph_vertices"] == 5
        assert report["checks"][0]["normal"] is True

    def test_every_embedded_example_validates(self, model_path):
        for number in (1, 2, 3, 4, 5):
            code, report = run(["validate", "--model", model_path(number)])
            assert code == EX_OK
            assert report["checks"][0]["normal"]

    def test_exact_mode_checks_normality_exactly(self, capsys):
        doc = json.dumps({
            "variables": [{"name": "X", "domain": ["0", "1"]}],
            "table": {"entries": [{"assignment": {"X": "0"},
                                   "value": "9999999999/10000000000"}]},
        })
        # within the default tolerance of 1, so only exact mode rejects it
        code, report = run(["validate", "--model", doc])
        assert code == EX_OK and report["checks"][0]["normal"] is True
        assert main(["validate", "--model", doc, "--exact", "--json"]) == EX_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("posscheck: table maximum is 9999999999/10000000000")

    @pytest.mark.parametrize("epsilon, normal", [(None, True), ("0", False), ("1e-12", False)])
    def test_normality_is_checked_at_the_given_epsilon(self, epsilon, normal):
        doc = json.dumps({
            "variables": [{"name": "X", "domain": ["0", "1"]}],
            "table": {"entries": [{"assignment": {"X": "0"}, "value": 1 - 5e-10}]},
        })
        argv = ["validate", "--model", doc] + ([] if epsilon is None else ["--epsilon", epsilon])
        code, report = run(argv)
        assert code == EX_OK and report["checks"][0]["normal"] is normal

    @pytest.mark.parametrize("text", ["[1]", "  []", "[{\"variables\": []}]"])
    def test_json_array_text_is_a_document_not_a_path(self, text, capsys):
        assert main(["validate", "--model", text]) == EX_MODEL
        assert capsys.readouterr().err == "posscheck: model document must be an object\n"

    def test_broken_model_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["validate", "--model", str(path)]) == EX_MODEL

    def test_missing_or_unreadable_model_file(self, tmp_path, capsys):
        assert main(["validate", "--model", str(tmp_path / "missing.json")]) == EX_MODEL
        assert "cannot read model file" in capsys.readouterr().err
        assert main(["validate", "--model", str(tmp_path)]) == EX_MODEL
        assert "cannot read model file" in capsys.readouterr().err

    @pytest.mark.parametrize("table", [
        '{"entries": 5}',
        '{"entries": [{"assignment": ["X", "0"], "value": 1.0}]}',
        '{"entries": [{"assignment": "X0", "value": 1.0}]}',
        '{"entries": [{"assignment": {"X": "0"}, "value": 1' + "0" * 400 + '}]}',
    ])
    def test_bad_table_shapes_exit_as_model_errors(self, table, capsys):
        doc = '{"variables": [{"name": "X", "domain": ["0", "1"]}], "table": ' + table + "}"
        assert main(["validate", "--model", doc]) == EX_MODEL
        assert capsys.readouterr().err.startswith("posscheck: ")

    @pytest.mark.parametrize("change, message", [
        ({"graph": {"edges": [["X", 1]]}}, "graph 'edges' must be an array of two-string arrays"),
        ({"graph": {"edges": [[["X"], "Y"]]}}, "graph 'edges' must be an array of two-string"),
        ({"graph": {"edges": None}}, "graph 'edges' must be an array of two-string arrays"),
        ({"graph": {"edges": [], "isolated": None}}, "graph 'isolated' must be an array of"),
        ({"graph": {"edges": [], "isolated": [1]}}, "graph 'isolated' must be an array of"),
        ({"graph": {"edges": [], "isolated": 5}}, "graph 'isolated' must be an array of"),
        ({"graph": {"edges": [], "isolated": "X"}}, "graph 'isolated' must be an array of"),
        ({"graph": ["X", "Y"]}, "graph document must be an object"),
        ({"tnorm": "product"}, "t-norm document must be an object with a 'base' field"),
        ({"tnorm": {"base": "hamacher"}}, "unknown t-norm base 'hamacher'"),
        ({"tnorm": {"base": "product", "automorphism": {"type": "log"}}},
         "only {'type': 'power', 'p': ...} automorphisms are supported"),
        ({"tnorm": {"base": "product", "automorphism": {"type": "power", "p": "two"}}},
         "bad automorphism exponent"),
        ({"tnorm": {"base": "product", "automorphism": {"type": "power", "p": True}}},
         "bad automorphism exponent: True is not a number"),
        ({"tnorm": {"base": "product", "automorphism": {"type": "power", "p": float("inf")}}},
         "power transform exponent must be finite and > 0, got inf"),
        ({"variables": []}, "'variables' must be a nonempty array"),
        ({"variables": [{"name": "X"}]}, "each variable needs 'name' and 'domain'"),
        ({"variables": [{"domain": ["0", "1"]}]}, "each variable needs 'name' and 'domain'"),
        ({"table": [1.0]}, "'table' must be an object"),
        (None, "model document must be an object"),
    ], ids=lambda case: None if isinstance(case, str) else json.dumps(case))
    def test_malformed_documents_exit_as_model_errors(self, change, message, tmp_path,
                                                      capsys):
        doc = {
            "variables": [{"name": v, "domain": ["0", "1"]} for v in "XY"],
            "table": {"default": 1.0},
        }
        doc = [doc] if change is None else {**doc, **change}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path)]) == EX_MODEL
        err = capsys.readouterr().err
        assert err.startswith("posscheck: ") and message in err

    def test_huge_integer_exponent_exits_as_a_model_error(self, capsys):
        doc = ('{"variables": [{"name": "X", "domain": ["0", "1"]}], "table": {"default": 1},'
               ' "tnorm": {"base": "product", "automorphism": {"type": "power", "p": 1'
               + "0" * 400 + '}}}')
        assert main(["validate", "--model", doc]) == EX_MODEL
        assert "bad automorphism exponent" in capsys.readouterr().err

    def test_string_domain_exits_as_a_model_error(self):
        doc = '{"variables": [{"name": "X", "domain": "01"}], "table": {"default": 1}}'
        assert main(["validate", "--model", doc]) == EX_MODEL

    def test_abnormal_table(self, tmp_path):
        doc = {
            "variables": [{"name": "X", "domain": ["0", "1"]}],
            "table": {"default": 0.25, "entries": []},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path)]) == EX_MODEL


    def test_nan_default_exits_as_a_model_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            '{"variables": [{"name": "X", "domain": ["0", "1"]}],'
            ' "table": {"default": NaN, "entries":'
            ' [{"assignment": {"X": "0"}, "value": 1.0}]}}'
        )
        assert main(["validate", "--model", str(path)]) == EX_MODEL
        err = capsys.readouterr().err
        assert "[0, 1]" in err and "maximum" not in err

    def test_oversized_model_exits_as_a_model_error(self, tmp_path, capsys):
        # 2**70 cells: refused before any table is allocated
        names = [f"V{i}" for i in range(70)]
        doc = {
            "variables": [{"name": n, "domain": ["0", "1"]} for n in names],
            "table": {"default": 0.0,
                      "entries": [{"assignment": {n: "0" for n in names}, "value": 1.0}]},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--model", str(path)]) == EX_MODEL
        assert "limit" in capsys.readouterr().err


class TestGlobalFlags:
    def test_usage_error_exit_code(self):
        assert main(["markov", "--model"]) == EX_USAGE
        assert main(["nonsense"]) == EX_USAGE

    @pytest.mark.parametrize("argv", [
        lambda model_path, tmp_path: ["markov", "--model", model_path(3), "--property", "all",
                                      "--json"],
        lambda model_path, tmp_path: ["factorize", "--model", strict_cycle_model(tmp_path),
                                      "--json"],
    ], ids=["markov", "factorize"])
    def test_json_report_is_deterministic_modulo_timing(self, argv, model_path, tmp_path,
                                                        capsys):
        argv = argv(model_path, tmp_path)
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_epsilon_env_override(self, model_path, monkeypatch):
        monkeypatch.setenv("POSSCHECK_EPSILON", "0.25")
        code, report = run(["residual", "--tnorm", "godel", "--y", "0.3", "--x", "0.7"])
        assert report["epsilon"] == 0.25
        for value in ("banana", "nan", "-1", "inf"):
            monkeypatch.setenv("POSSCHECK_EPSILON", value)
            assert main(["residual", "--tnorm", "godel", "--y", "0.3", "--x", "0.7"]) == EX_MODEL

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_epsilon_flag_must_be_finite_and_nonnegative(self, value, capsys):
        assert main(["examples", "--id", "1", "--epsilon", value]) == EX_MODEL
        assert "--epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["factorize", "--model", "{model}"],
        ["indep", "--model", "{model}", "--a", "X", "--b", "Y"],
        ["validate", "--model", "{model}"],
        ["examples", "--id", "1"],
        ["residual", "--y", "0.3", "--x", "0.7"],
    ], ids=lambda argv: argv[0])
    def test_power_requires_tnorm_even_when_the_model_names_one(self, argv, tmp_path, capsys):
        # --power transforms --tnorm; it must not be dropped silently when
        # the model's own t-norm (here product^2) is used instead
        doc = {
            "variables": [{"name": v, "domain": ["0", "1"]} for v in "XY"],
            "table": {"default": 0.25,
                      "entries": [{"assignment": {"X": "0", "Y": "0"}, "value": 1.0}]},
            "graph": {"edges": [["X", "Y"]]},
            "tnorm": {"base": "product", "automorphism": {"type": "power", "p": 2}},
        }
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        argv = [arg.format(model=path) for arg in argv] + ["--power", "3", "--json"]
        assert main(argv) == EX_MODEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--power requires --tnorm" in captured.err

    def test_closed_stdout_exits_74_without_a_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before posscheck starts
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            done = subprocess.run([sys.executable, "-m", "posscheck", "examples", "--json"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  text=True, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == EX_IOERR == 74
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("posscheck: ")

    def test_exact_mode_rejects_power(self, model_path):
        assert main(
            ["indep", "--model", model_path(1), "--a", "X", "--b", "Y",
             "--exact", "--tnorm", "product", "--power", "2"]
        ) == EX_MODEL

    def test_infinite_power_exits_as_a_model_error(self, capsys):
        assert main(["residual", "--y", "0.5", "--x", "0.9", "--tnorm", "product",
                     "--power", "inf"]) == EX_MODEL
        assert "exponent must be finite and > 0" in capsys.readouterr().err

    def test_exact_mode_runs_with_fractions(self, model_path):
        code, report = run(
            ["indep", "--model", model_path(2), "--a", "X", "--b", "Y,Z",
             "--exact", "--tnorm", "godel"]
        )
        assert code == EX_FAILS
        assert report["epsilon"] == 0
        assert report["checks"][0]["witness"] == {"X": "1", "Y": "0", "Z": "0"}


class TestHumanOutput:
    """Runs without --json print one verdict line per check, then its witness."""

    def out(self, capsys, argv, code):
        assert main(argv) == code
        return capsys.readouterr().out.splitlines()

    def test_indep(self, model_path, capsys):
        lines = self.out(capsys, ["indep", "--model", model_path(4), "--a", "U", "--b", "Z",
                                  "--given", "X", "--tnorm", "product"], EX_FAILS)
        assert lines == ["I(U; Z | X): FAILS  witness U=0, X=0, Z=0",
                         "  vacuous conditioning cells: 2"]

    def test_axioms(self, model_path, capsys):
        lines = self.out(capsys, ["axioms", "--model", model_path(1), "--axiom", "a5",
                                  "--tnorm", "product"], EX_FAILS)
        assert lines[0] == "axiom intersection: 6 instances, 6 VIOLATIONS"
        assert lines[1] == ("  violated at groups [['X'], ['Y'], ['Z'], []], "
                            "witness X=1, Y=0, Z=0")
        assert len(lines) == 6  # five of the six violations are listed

    @pytest.mark.parametrize("spelling", ["all", "ALL"])
    def test_axiom_all_scans_every_axiom(self, spelling, model_path, capsys):
        lines = self.out(capsys, ["axioms", "--model", model_path(1), "--axiom", spelling,
                                  "--tnorm", "product"], EX_FAILS)
        verdicts = [line for line in lines if line.startswith("axiom ")]
        assert verdicts == [
            "axiom symmetry: 6 instances, no violations",
            "axiom decomposition: 6 instances, no violations",
            "axiom weak_union: 6 instances, no violations",
            "axiom contraction: 6 instances, no violations",
            "axiom intersection: 6 instances, 6 VIOLATIONS",
        ]

    def test_a_repeated_or_aliased_axiom_is_scanned_once(self, model_path, capsys):
        lines = self.out(capsys, ["axioms", "--model", model_path(1), "--axiom", "a5",
                                  "--axiom", "intersection", "--tnorm", "product"], EX_FAILS)
        assert [line for line in lines if line.startswith("axiom ")] == [
            "axiom intersection: 6 instances, 6 VIOLATIONS"]

    def test_markov(self, model_path, capsys):
        lines = self.out(capsys, ["markov", "--model", model_path(4), "--property", "all"],
                         EX_FAILS)
        assert lines == [
            "markov pairwise (components): holds [6 statements, 0 skipped]",
            "markov local (components): holds [5 statements, 0 skipped]",
            "markov global (components): FAILS [18 statements, 0 skipped]",
            "  witness I(U,W; Y,Z | X) at U=0, W=0, X=0, Y=0, Z=0",
        ]

    def test_factorize(self, model_path, capsys):
        lines = self.out(capsys, ["factorize", "--model", model_path(5), "--tnorm", "product"],
                         EX_FAILS)
        assert lines == [
            "factorize: NO",
            "  witness X=0, Y=1, Z=0, W=0",
            "  (a cell outside the 1-set lies in every clique cylinder of the 1-set)",
        ]

    def test_examples(self, capsys):
        lines = self.out(capsys, ["examples", "--id", "1", "--tnorm", "product"], EX_FAILS)
        assert lines[2:4] == [
            "example 1 [product] independent I(X; Y,Z | {}): verdict=False expected=False -> ok",
            "  witness X=1, Y=0, Z=0",
        ]

    def test_validate(self, model_path, capsys):
        lines = self.out(capsys, ["validate", "--model", model_path(4)], EX_OK)
        assert lines == ["model ok: 5 variables, 32 cells, graph with 5 vertices"]
        lines = self.out(capsys, ["validate", "--model", model_path(1)], EX_OK)
        assert lines == ["model ok: 3 variables, 8 cells"]


class TestExampleSelection:
    def test_tnorm_skips_the_claims_of_other_bases(self):
        # example 2's first four claims speak about Goedel alone
        code, report = run(["examples", "--id", "2", "--tnorm", "product"])
        assert code == EX_OK
        assert [(c["kind"], c["tnorm"]["base"]) for c in report["checks"]] == [
            ("axiom_scan", "product")
        ]

    def test_a_mismatching_example_exits_70(self, monkeypatch, capsys):
        model = builtin_example(1)
        claim = dataclasses.replace(model.claims[0], expected=False)
        monkeypatch.setattr(posscheck.cli, "builtin_example",
                            lambda number: dataclasses.replace(model, claims=(claim,)))
        assert main(["examples", "--id", "1", "--tnorm", "godel"]) == posscheck.cli.EX_INTERNAL
        assert capsys.readouterr().out.splitlines() == [
            "example 1 [godel] independent I(X; Y | Z): verdict=True expected=False -> MISMATCH"
        ]


class TestChainChecks:
    def test_markov_all_exits_70_when_the_chain_breaks(self, model_path, monkeypatch, capsys):
        # on the exact four-cycle at eps 0 all three properties hold; a
        # pairwise check that fails contradicts local => pairwise, which is
        # exact there
        def failing_pairwise(*args, **kwargs):
            return posscheck.markov.MarkovReport("pairwise", False, ())

        monkeypatch.setattr(posscheck.markov, "pairwise_markov", failing_pairwise)
        assert main(["markov", "--model", model_path(5), "--property", "all",
                     "--exact", "--epsilon", "0"]) == posscheck.cli.EX_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("posscheck: internal inconsistency: "
                                "local holds but pairwise fails\n")
