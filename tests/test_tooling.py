"""Source hygiene of the package, checked with the standard library's
`ast`: no module of src/korbits/ imports a name it never reads."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "korbits"
# __init__.py imports names to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of `source` that no
    expression of it reads."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(bound) - read)


def test_checker_flags_an_unread_import():
    source = ("import itertools\nimport numpy as np\nimport os.path\n"
              "from . import _backend as kb\n"
              "def f():\n    return np.zeros(os.path.sep.count('/'))\n")
    assert unused_imports(source) == ["itertools", "kb"]


def test_modules_found():
    assert {"_backend.py", "korbit.py", "group.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
