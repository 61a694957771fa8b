"""Every module of the package, the tests and the demos uses each name it
imports, and the package reads each private definition it makes.

No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by an import statement must appear as a name
somewhere else in the module.  The package's ``__init__.py`` is left out,
since its imports are the package's exports, and so is ``perfbench/``, which
changes only together with the benchmark.  A private (``_name``) function,
class or method of the package must be read somewhere in the package
outside its own definition, so that a refactor leaves no dead helper behind;
likewise each top-level function and fixture of ``tests/conftest.py`` must
be read by a test module or elsewhere in conftest.
The README and the package's docstrings name, in backticks, only private
names and ``posscheck.``-dotted names that the package defines, so that a
rename leaves no stale name in its docs.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posscheck"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source):
    """Names that ``source`` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_unused_and_used_names():
    source = "import os\nimport numpy as np\nfrom x import y, z\n\ndef f():\n    return np.y, y\n"
    assert unused_imports(source) == ["os", "z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_definitions(sources):
    """Private functions, classes and methods defined in ``sources`` that
    none of them reads outside the definition itself, in source order."""
    trees = [ast.parse(source) for source in sources]

    def reads(tree):
        return Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        )

    everywhere = sum(map(reads, trees), Counter())
    return [
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and everywhere[node.name] == reads(node)[node.name]
    ]


def test_the_check_sees_unread_and_read_private_definitions():
    first = ("def _dead(n):\n    return _dead(n - 1)\n\n"
             "def _called():\n    pass\n\n"
             "class _Kept:\n    def _method(self):\n        pass\n\n"
             "    def __len__(self):\n        return 0\n")
    second = "from first import _called, _Kept\n\n_called()\nk = _Kept()\n"
    assert unread_private_definitions([first, second]) == ["_dead", "_method"]


def test_package_reads_every_private_definition():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_definitions(sources) == []


def unread_conftest_definitions(conftest, modules):
    """Top-level functions of the ``conftest`` source, fixtures included,
    that neither the ``modules`` sources nor conftest outside the definition
    itself read, as a name or as a parameter (how a test asks for a
    fixture), in source order."""
    trees = [ast.parse(conftest)] + [ast.parse(source) for source in modules]

    def reads(tree):
        return Counter(
            node.arg if isinstance(node, ast.arg) else node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.arg)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        )

    everywhere = sum(map(reads, trees), Counter())
    return [
        node.name
        for node in trees[0].body
        if isinstance(node, ast.FunctionDef) and everywhere[node.name] == reads(node)[node.name]
    ]


def test_the_check_sees_unread_and_read_conftest_definitions():
    conftest = ("import pytest\n\n"
                "def oracle(n):\n    return oracle(n - 1)\n\n"
                "def helper():\n    pass\n\n"
                "def used():\n    return helper()\n\n"
                "@pytest.fixture\ndef rng():\n    pass\n\n"
                "@pytest.fixture\ndef idle():\n    pass\n")
    module = "from conftest import used\n\ndef test_x(rng):\n    used()\n"
    assert unread_conftest_definitions(conftest, [module]) == ["oracle", "idle"]


def test_conftest_definitions_are_read():
    tests = ROOT / "tests"
    modules = [path.read_text() for path in sorted(tests.glob("test_*.py"))]
    assert unread_conftest_definitions((tests / "conftest.py").read_text(), modules) == []


def defined_names(sources):
    """Every name that ``sources`` bind: functions, classes, and assignment
    targets, attributes included."""
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
                names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def undefined_doc_names(texts, defined):
    """Dotted names in backticks in ``texts`` that name something not in
    ``defined``: a ``posscheck.``-dotted name with any later part undefined,
    or another name with an undefined private (``_x``) part, in text order."""
    missing = []
    for text in texts:
        for name in re.findall(r"`+([A-Za-z_]\w*(?:\.\w+)*)`+", text):
            parts = name.split(".")
            if parts[0] == "posscheck":
                checked = parts[1:]
            else:
                checked = [part for part in parts if part.startswith("_")]
            if not set(checked) <= defined:
                missing.append(name)
    return missing


def test_the_check_sees_undefined_doc_names():
    defined = defined_names(["def _kept():\n    pass\n\nclass A:\n    _slot = 1\n"])
    text = ("``_kept`` and `_gone`, ``A._slot`` and ``A._other``, `posscheck.A` and "
            "`posscheck.B`, ``x.y`` and `a + _gone`")
    assert undefined_doc_names([text], defined) == ["_gone", "A._other", "posscheck.B"]


def test_docs_name_only_defined_names():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    defined = defined_names(sources) | {path.stem for path in PACKAGE.glob("*.py")}
    docstrings = [
        ast.get_docstring(node)
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    texts = [(ROOT / "README.md").read_text()] + [doc for doc in docstrings if doc]
    assert undefined_doc_names(texts, defined) == []
