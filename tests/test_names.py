"""Public names and the names the bench tracer patches (and reads) all resolve.

Both files are read as text with ``ast``: nothing under ``perfbench/`` is
imported or written.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import latticeforge

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(latticeforge.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _assigned_literal(path: Path, name: str):
    """The literal assigned to ``name`` at the top level of ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{path} assigns no {name}")


def test_traced_targets_exist():
    # Tracer.install raises AttributeError on a missing target, so a
    # renamed layer function would break every traced bench run
    targets = _assigned_literal(ROOT / "perfbench" / "spans.py", "TARGETS")
    assert targets
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets
               if not hasattr(importlib.import_module(f"latticeforge.{mod}"),
                              attr)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves(module):
    mod = importlib.import_module(f"latticeforge.{module}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_package_names_are_exported_by_their_modules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [n for n in tree.body if isinstance(n, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"latticeforge.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
            assert hasattr(latticeforge, alias.asname or alias.name)


def test_local_minimize_returns_a_result_with_iterations():
    # the bench tracer counts the .iterations of what local_minimize returns
    from latticeforge import optimize

    def bowl(x, y):
        grad = np.stack([2.0 * (x - 0.3), 2.0 * (y - 1.5)], axis=-1)
        hess = np.tile(2.0 * np.eye(2), (len(x), 1, 1))
        return (x - 0.3) ** 2 + (y - 1.5) ** 2, grad, hess

    res = optimize.local_minimize(bowl, (0.1, 2.0))
    assert isinstance(res, optimize.MinimizeResult)
    assert isinstance(res.iterations, int) and res.iterations > 0
