"""Every module of the package, the tests and the demos uses each name it
imports.

No linter ships with the test dependencies, so this walks each module's
syntax tree: a name bound by an import statement must appear as a name
somewhere else in the module.  The package's ``__init__.py`` is left out,
since its imports are the package's exports, and so is ``perfbench/``, which
changes only together with the benchmark.
"""

import ast
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
