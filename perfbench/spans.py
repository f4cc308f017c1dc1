"""Spans around latticeforge's layer functions, installed from outside.

``Tracer.install()`` replaces each traced function in every latticeforge
module that holds it (``stability`` and ``energy`` import ``hankel``,
``hankel_moments``, ``fourier`` and ``self_convolution_at_zero`` by name,
so patching ``measure`` alone would miss their calls) and ``uninstall()``
puts the originals back.  Spans are kept in memory as
[name, start, end, parent index, work count] and summarized at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# (module, function, span name); the span name's prefix is the layer
TARGETS = [
    ("lattice", "enumerate_points", "lattice.enumerate_points"),
    ("lattice", "dual", "lattice.dual"),
    ("potential", "eval_derivatives", "potential.eval"),
    ("potential", "fourier", "potential.fourier"),
    ("potential", "parse_potential", "potential.parse"),
    ("measure", "bessel_j", "measure.bessel_j"),
    ("measure", "hankel", "measure.hankel"),
    ("measure", "hankel_moments", "measure.hankel_moments"),
    ("measure", "self_convolution_at_zero", "measure.self_convolution_at_zero"),
    ("measure", "parse_measure", "measure.parse"),
    ("energy", "_summed", "energy.sum"),
    ("energy", "diffuse_energy_fn", "energy.diffuse_energy_fn"),
    ("stability", "t_coefficient", "stability.t_coefficient"),
    ("stability", "t_coefficient_diffuse", "stability.t_coefficient_diffuse"),
    ("stability", "sign_changes", "stability.sign_changes"),
    ("optimize", "grid_scan", "optimize.grid_scan"),
    ("optimize", "local_minimize", "optimize.local_minimize"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, args=(), kwargs=None, work=None):
        """Call fn(*args, **kwargs) inside a span; work(args, result) -> count."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0.0]
        spans.append(rec)
        stack.append(idx)
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            stack.pop()
            rec[2] = time.perf_counter()
        if work is not None:
            rec[4] = work(args, result)
        return result

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrapper(self, name: str, fn):
        tracer = self
        work = _WORK.get(name)

        if name == "stability.t_coefficient":
            def traced(F1, F2, *args, **kwargs):
                # F1 is evaluated once per ring of the triangular double sum
                def ring(q):
                    tracer.counts["stability.rings"] += 1
                    tracer.counts["stability.ring_points"] += np.size(q)
                    return F1(q)
                return tracer.span(name, fn, (ring, F2) + args, kwargs)
        elif name == "stability.t_coefficient_diffuse":
            def traced(*args, **kwargs):
                tracer.counts["stability.t_evals"] += 1
                if tracer._inside("stability.sign_changes"):
                    tracer.counts["stability.bisection_evals"] += 1
                return tracer.span(name, fn, args, kwargs)
        elif name == "energy.diffuse_energy_fn":
            def traced(*args, **kwargs):
                E = tracer.span(name, fn, args, kwargs)
                return lambda x, y: tracer.span("energy.energy_fn", E, (x, y))
        else:
            def traced(*args, **kwargs):
                return tracer.span(name, fn, args, kwargs, work)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "latticeforge" or k.startswith("latticeforge.")]
        for modname, attr, name in TARGETS:
            orig = getattr(sys.modules[f"latticeforge.{modname}"], attr)
            wrapped = self._wrapper(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._saved.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._saved):
            setattr(mod, key, orig)
        self._saved.clear()

    # -- summary -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,work\n")
            for name, start, end, parent, work in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{work!r}\n")

    def summary(self) -> dict[str, float]:
        """Calls, self time and work per span name, plus derived ratios."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, work) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += (end - start) - child_time[i]
            out[f"{name}.work"] += work
        # adaptive sums: enumeration rounds per sum, and the share of
        # enumerated points that the final round kept
        last_round: dict[int, float] = {}
        rounds = points_in_sums = 0
        for name, start, end, parent, work in spans:
            if name == "lattice.enumerate_points" and parent >= 0 \
                    and spans[parent][0] == "energy.sum":
                rounds += 1
                points_in_sums += work
                last_round[parent] = work
        sums = out["energy.sum.calls"]
        out["energy.rounds_per_sum"] = rounds / sums if sums else 0.0
        out["energy.useful_points_ratio"] = (
            sum(last_round.values()) / points_in_sums if points_in_sums else 0.0)
        for key, val in self.counts.items():
            out[key] += val
        out["top_level.s"] = sum(end - start for _, start, end, parent, _ in spans
                                 if parent < 0)
        return out


def _size(args, result):
    return float(np.size(args[1]))


def _node_evals(args, result):
    rep = args[0].rep
    return float(np.size(args[1]) * (len(rep.atoms) + len(rep.density_nodes)))


_WORK = {
    "lattice.enumerate_points": lambda args, result: float(len(result)),
    "measure.bessel_j": _size,
    "potential.eval": _node_evals,
    "optimize.local_minimize": lambda args, result: float(result.iterations),
}
