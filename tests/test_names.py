"""Public names, the CLI surface, and the names the bench tracer patches
(and reads) all resolve.

Both files are read as text with ``ast``: nothing under ``perfbench/`` is
imported or written.
"""

import argparse
import ast
import importlib
import inspect
import re
import sys
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


# every public name of the package; a name added or dropped shows here
PUBLIC_NAMES = {
    "TRIANGULAR", "LatticeParams", "dual", "metric",
    "RadialPotential", "eval_derivatives", "fourier", "gaussian",
    "inverse_power", "parse_potential",
    "RadialMeasure", "bessel_j", "dirac", "hankel", "hankel_moments",
    "parse_measure", "profile", "radial_gaussian", "scale",
    "self_convolution_at_zero", "uniform_disk",
    "EnergyReport", "diffuse_energy", "diffuse_energy_fn",
    "diffuse_energy_jet", "theta",
    "sign_changes", "t_coefficient", "t_coefficient_diffuse",
    "Landscape", "MinimizeResult", "global_minimize", "grid_scan",
    "local_minimize",
}


def test_public_names():
    names = {n for n, v in vars(latticeforge).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == PUBLIC_NAMES


# every subcommand of the CLI and its option strings; a flag added or dropped
# shows here
_EVERY_COMMAND = {"-h", "--help", "--rtol", "--output", "--format"}
_SPECS = {"--potential", "--measure"}
_GRID = {"--x-steps", "--y-steps", "--y-max"}
CLI_SURFACE = {
    "energy": _EVERY_COMMAND | _SPECS | {"--lattice"},
    "theta": _EVERY_COMMAND | {"--lattice", "--t"},
    "scan": _EVERY_COMMAND | _SPECS | _GRID,
    "stability": _EVERY_COMMAND | _SPECS | {"--eps"},
    "minimize": _EVERY_COMMAND | _SPECS | _GRID | {"--tol"},
}


def test_cli_surface():
    from latticeforge import cli

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {cmd: {o for a in p._actions for o in a.option_strings}
               for cmd, p in sub.choices.items()}
    assert surface == CLI_SURFACE
    # every subcommand has an example in a README sh block, which CI runs
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    examples = {line.split()[1] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("lattice-forge ")}
    assert examples == set(CLI_SURFACE)


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


def _spans_function(name: str) -> ast.FunctionDef:
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    return next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name)


def _record_calls(monkeypatch, module: str, attr: str) -> list[tuple]:
    """Wrap module.attr in every latticeforge namespace that holds it, as the
    bench tracer does, and return the list its calls' arguments go to."""
    orig = getattr(importlib.import_module(f"latticeforge.{module}"), attr)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "latticeforge" or name.startswith("latticeforge."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, recording)
    return calls


def _run_every_path():
    from latticeforge import TRIANGULAR, energy, measure, potential, stability

    for P in (potential.gaussian(np.pi), potential.inverse_power(1.0, 2.0)):
        for mu in (measure.uniform_disk(1.0), measure.radial_gaussian(0.7)):
            energy.diffuse_energy(P, mu, TRIANGULAR)
            energy.diffuse_energy_jet(P, mu)(np.array([0.2]), np.array([1.3]))
            stability.t_coefficient_diffuse(P, mu, 0.8)


def test_t_coefficient_takes_f1_f2_and_calls_f1_on_q_arrays(monkeypatch):
    # the tracer wraps the first argument of t_coefficient to count rings
    traced = next(n for n in ast.walk(_spans_function("_wrapper"))
                  if isinstance(n, ast.FunctionDef) and n.args.args
                  and n.args.args[0].arg == "F1")
    assert [a.arg for a in traced.args.args] == ["F1", "F2"]
    from latticeforge import stability

    orig, f1_args = stability.t_coefficient, []

    def recording(F1, F2, *args, **kwargs):
        def ring(q):
            f1_args.append(q)
            return F1(q)
        return orig(ring, F2, *args, **kwargs)

    monkeypatch.setattr(stability, "t_coefficient", recording)
    _run_every_path()
    assert f1_args
    assert all(isinstance(q, np.ndarray) and q.ndim == 1 for q in f1_args)


def test_eval_derivatives_calls_carry_what_the_tracer_reads(monkeypatch):
    # potential.eval's work count is np.size(args[1]) times the node count
    # of args[0].rep
    text = ast.unparse(_spans_function("_node_evals"))
    for read in ("args[0].rep", "rep.atoms", "rep.density_nodes",
                 "np.size(args[1])"):
        assert read in text
    calls = _record_calls(monkeypatch, "potential", "eval_derivatives")
    _run_every_path()
    assert calls
    from latticeforge.potential import RadialPotential

    for P, r2, *_ in calls:
        assert isinstance(P, RadialPotential)
        assert len(P.rep.atoms) + len(P.rep.density_nodes) > 0
        assert np.size(r2) >= 1


def test_bessel_j_is_called_as_order_then_argument(monkeypatch):
    # measure.bessel_j's work count is np.size(args[1])
    assert "np.size(args[1])" in ast.unparse(_spans_function("_size"))
    calls = _record_calls(monkeypatch, "measure", "bessel_j")
    _run_every_path()
    assert calls
    assert all(args[0] in (0, 1, 2) and np.size(args[1]) >= 1 for args in calls)
