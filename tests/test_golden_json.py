"""The ``--json`` reports are byte-stable apart from ``elapsed_ms``.

``golden_json.json`` holds, per case, the exit code, the standard error and
the ``--json`` line (``elapsed_ms`` cut out) of ``markov --property all``
(with and without ``--exhaustive``) and ``axioms --axiom all`` on each
built-in example model under several t-norms and in exact mode, and of
``examples``.  Each model goes in as the JSON text of ``to_model_json``, so
the argv echoed in the report carries no file path.

Rewrite the file only when a report is meant to change::

    PYTHONPATH=src python tests/test_golden_json.py
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from posscheck.cli import main
from posscheck.corpus import builtin_examples

GOLDEN = Path(__file__).with_name("golden_json.json")

_TNORMS = {
    "default": [],
    "product": ["--tnorm", "product"],
    "lukasiewicz2": ["--tnorm", "lukasiewicz", "--power", "2"],
    "exact-product": ["--exact", "--tnorm", "product"],
}
_COMMANDS = {
    "markov": ["markov", "--property", "all"],
    "markov-exhaustive": ["markov", "--property", "all", "--exhaustive"],
    "axioms": ["axioms", "--axiom", "all"],
}
_ELAPSED = re.compile(r'"elapsed_ms": [-+.0-9eE]+, ')


def cases():
    """Case name -> argv, in a fixed order."""
    out = {}
    for number, example in sorted(builtin_examples().items()):
        model = json.dumps(example.to_model_json())
        for command, words in _COMMANDS.items():
            for tnorm, flags in _TNORMS.items():
                out[f"ex{number}/{command}/{tnorm}"] = words + ["--model", model] + flags
    out["examples"] = ["examples"]
    out["examples/exact"] = ["examples", "--exact"]
    return {name: argv + ["--json"] for name, argv in out.items()}


def outcome(argv):
    """Exit code, stderr and stdout (without ``elapsed_ms``) of one CLI run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code, "stderr": stderr.getvalue(),
            "stdout": _ELAPSED.sub("", stdout.getvalue())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("name", list(cases()))
def test_json_report_bytes(golden, name):
    got = outcome(cases()[name])
    assert '"elapsed_ms"' not in got["stdout"]
    assert got == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: outcome(argv) for name, argv in cases().items()},
                                 indent=1, sort_keys=True) + "\n")
    sys.exit(0)
