"""Benchmark for lattice-forge: stability curves, landscapes and energy queries.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stability-curves --seed 1 --seconds 40 --trace 0

One process, one caller, closed loop: each ``lattice-forge`` command is
run in-process through ``latticeforge.cli.main`` after the previous one
returned.  Whole rounds of the workload's commands run while another
round still fits in --seconds; every output is then checked against
values computed apart from the package (see oracles.py).  A speed probe
runs before, after and (on a timer) during every command, and every time
is scaled to the machine speed at which the probe takes PROBE_REF_S (see
speed_probe and paced).  With --trace 0 the last line holds the
end-to-end metrics; with --trace 1 it holds per-layer metrics from a
traced run (see spans.py).  ``--workload all`` runs the three workloads
one after the other, each in its own process.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
PROBE_REF_S = 0.0040    # speed_probe() on the README's machine when nothing contends
PROBE_EVERY_S = 0.2     # interval of the speed probes during a command
# a fresh interpreter that imports the package's dependencies and nothing
# of the package: the speed probe for set-up runs
IMPORT_PROBE = "import argparse, json, numpy, scipy.integrate, scipy.special"
IMPORT_REF_S = 0.60     # IMPORT_PROBE on the README's machine when nothing contends

SETUP_SNIPPET = """
import json, sys
from latticeforge import cli
from latticeforge.measure import parse_measure
from latticeforge.potential import parse_potential
pots, measures = json.loads(sys.argv[1])
for spec in pots:
    parse_potential(spec)
for spec in measures:
    parse_measure(spec)
"""

# per-layer metric -> (key of Tracer.summary(), unit); values are per traced
# round, except ratios
PER_LAYER = {
    "measure.bessel_j.calls": ("measure.bessel_j.calls", "count"),
    "measure.bessel_j.s": ("measure.bessel_j.s", "s"),
    "measure.bessel_j.args": ("measure.bessel_j.work", "count"),
    "measure.hankel_moments.calls": ("measure.hankel_moments.calls", "count"),
    "measure.hankel_moments.s": ("measure.hankel_moments.s", "s"),
    "measure.hankel.calls": ("measure.hankel.calls", "count"),
    "measure.hankel.s": ("measure.hankel.s", "s"),
    "measure.self_convolution_at_zero.calls": ("measure.self_convolution_at_zero.calls", "count"),
    "measure.self_convolution_at_zero.s": ("measure.self_convolution_at_zero.s", "s"),
    "measure.parse.s": ("measure.parse.s", "s"),
    "stability.t_evals": ("stability.t_evals", "count"),
    "stability.bisection_evals": ("stability.bisection_evals", "count"),
    "stability.rings": ("stability.rings", "count"),
    "stability.ring_points": ("stability.ring_points", "count"),
    "stability.t_coefficient.s": ("stability.t_coefficient.s", "s"),
    "lattice.enumerate_points.calls": ("lattice.enumerate_points.calls", "count"),
    "lattice.enumerate_points.s": ("lattice.enumerate_points.s", "s"),
    "lattice.points": ("lattice.enumerate_points.work", "count"),
    "lattice.dual.calls": ("lattice.dual.calls", "count"),
    "energy.sums": ("energy.sum.calls", "count"),
    "energy.sum.s": ("energy.sum.s", "s"),
    "energy.rounds_per_sum": ("energy.rounds_per_sum", "ratio"),
    "energy.useful_points_ratio": ("energy.useful_points_ratio", "ratio"),
    "energy.energy_fn.s": ("energy.energy_fn.s", "s"),
    "potential.eval.calls": ("potential.eval.calls", "count"),
    "potential.eval.s": ("potential.eval.s", "s"),
    "potential.eval.node_evals": ("potential.eval.work", "count"),
    "potential.fourier.calls": ("potential.fourier.calls", "count"),
    "potential.fourier.s": ("potential.fourier.s", "s"),
    "potential.parse.s": ("potential.parse.s", "s"),
    "optimize.energy_evals": ("energy.energy_fn.calls", "count"),
    "optimize.nm_iterations": ("optimize.local_minimize.work", "count"),
    "optimize.grid_scan.s": ("optimize.grid_scan.s", "s"),
    "optimize.local_minimize.s": ("optimize.local_minimize.s", "s"),
    "cli.main.calls": ("cli.main.calls", "count"),
    "cli.self_s": ("cli.main.s", "s"),
    "cli.output_bytes": ("cli.output_bytes", "B"),
    "other.s": ("other.s", "s"),
    "trace.overhead_s": ("trace.overhead_s", "s"),
}


@dataclass
class Result:
    """Timing and outcome of one command."""

    op: Op
    seconds: float
    output: str
    error: str | None  # traceback or nonzero exit, None on success
    problems: list[str] = field(default_factory=list)
    slot: int = 0        # position of the command in its round
    slowdown: float = 1.0  # of the machine around the command, see paced()

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.slowdown

    @property
    def kind(self) -> str:
        return self.op.kind


def execute(op, call) -> Result:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = call(op.argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - start
    if rc not in (0, None) and error is None:
        error = f"exit code {rc}: {err.getvalue().strip()}"
    return Result(op, seconds, out.getvalue(), error)


def check(results: list[Result]) -> None:
    """Oracle-check the first output of each distinct command; later runs
    of the same command must print the same bytes."""
    seen: dict[tuple, tuple[str, list[str]]] = {}
    for r in results:
        if r.error is not None:
            r.problems = [r.error.strip().splitlines()[-1]]
            continue
        key = tuple(r.op.argv)
        if key not in seen:
            try:
                problems = r.op.check(r.output)
            except Exception as exc:
                problems = [f"output could not be read: {type(exc).__name__}: {exc}"]
            seen[key] = (r.output, problems)
        first, problems = seen[key]
        r.problems = list(problems)
        if r.output != first:
            r.problems.append("output differs from an earlier run of the same command")


def speed_probe() -> float:
    """Wall time of a fixed loop of small-array numpy arithmetic, the kind of
    work that dominates the package (a 60-term series on 8 points, 35 times).

    It shares no code with the package, so it reads only the machine's
    speed: on a shared host the speed of a core can change by 2x and more
    within seconds and stay changed for minutes.
    """
    x = np.linspace(0.1, 11.0, 8)
    start = time.perf_counter()
    for _ in range(35):
        xh = 0.5 * x
        term = xh.copy()
        out = term.copy()
        x2 = xh * xh
        for m in range(1, 60):
            term = -term * x2 / (m * (m + 1))
            out += term
    return time.perf_counter() - start


def paced(fn, before: float):
    """Run fn between two speed probes, with a probe every PROBE_EVERY_S
    inside it, run from a SIGALRM handler in this thread.

    Returns fn's result, the time the probes inside took (to be taken off
    fn's time), the slowdown (mean probe over PROBE_REF_S) and the probe
    after, which serves as the probe before the next call.
    """
    probes = [before]
    old = signal.signal(signal.SIGALRM, lambda *_: probes.append(speed_probe()))
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    inside = sum(probes[1:])
    probes.append(speed_probe())
    return result, inside, statistics.fmean(probes) / PROBE_REF_S, probes[-1]


def fresh_interpreter(*args: str) -> float:
    """Wall time of ``python -c <args>`` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", *args], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def setup_times(workload) -> list[float]:
    """Set-up runs, a fresh interpreter that imports the CLI and parses the
    workload's specs, each between two runs of IMPORT_PROBE and scaled to
    the reference speed by their mean.  The children may run on the other
    core, whose speed speed_probe() does not read."""
    payload = json.dumps([workload.potentials, workload.measures])
    probes, times = [fresh_interpreter(IMPORT_PROBE)], []
    for _ in range(SETUP_REPEATS):
        t = fresh_interpreter(SETUP_SNIPPET, payload)
        probes.append(fresh_interpreter(IMPORT_PROBE))
        times.append(t * IMPORT_REF_S / statistics.fmean(probes[-2:]))
    return times


def _window_left(start: float, seconds: float, round_times: list[float]) -> bool:
    """True while one more round of median length still ends inside the window."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(round_times) <= seconds


def run_rounds(workload, seconds: float, call):
    """The set-up runs, then whole rounds inside the window."""
    results, round_times = [], []
    start = time.perf_counter()
    setups = setup_times(workload)
    probe = speed_probe()
    i = 0
    while True:
        t0 = time.perf_counter()
        for slot, op in enumerate(workload.round(i)):
            r, inside, slowdown, probe = paced(lambda: execute(op, call), probe)
            r.seconds -= inside
            r.slot, r.slowdown = slot, slowdown
            results.append(r)
        round_times.append(time.perf_counter() - t0)
        i += 1
        if not _window_left(start, seconds, round_times):
            return results, setups


def run_traced(workload, seconds: float, cli, tracer):
    """Pairs of one untraced and one traced run of the same round."""
    results, pair_times, plain, traced, out_bytes = [], [], 0.0, 0.0, 0
    traced_call = lambda argv: tracer.span("cli.main", cli.main, (argv,))
    start = time.perf_counter()
    while True:
        ops = workload.round(len(pair_times))
        t0 = time.perf_counter()
        results.extend(execute(op, cli.main) for op in ops)
        t1 = time.perf_counter()
        tracer.install()
        try:
            batch = [execute(op, traced_call) for op in ops]
        finally:
            tracer.uninstall()
        t2 = time.perf_counter()
        results.extend(batch)
        out_bytes += sum(len(r.output.encode()) for r in batch)
        plain += t1 - t0
        traced += t2 - t1
        pair_times.append(t2 - t0)
        if not _window_left(start, seconds, pair_times):
            return results, len(pair_times), plain, traced, out_bytes


def kind_seconds(results) -> tuple[dict[str, float], dict[str, int]]:
    """Reference-speed seconds each kind of command takes in one round: the
    sum over the kind's slots of the slot's median over the run.  Also the
    number of slots per kind."""
    slots = defaultdict(list)
    for r in results:
        slots[(r.kind, r.slot)].append(r.ref_seconds)
    seconds, count = defaultdict(float), defaultdict(int)
    for (kind, _), times in slots.items():
        seconds[kind] += statistics.median(times)
        count[kind] += 1
    return seconds, count


def end_to_end(workload, per_kind, slots, setup_times, peak_rss_mb):
    """A round at the median reference-speed latency of each command, and
    the geometric mean over kinds of a kind's mean command latency."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "round_s": (sum(per_kind[k] for k in workload.kinds), "s"),
        "kind_geomean_ms": (1e3 * math.exp(statistics.fmean(
            math.log(per_kind[k] / slots[k]) for k in workload.kinds)), "ms"),
    }


def per_layer(summary, rounds, plain, traced, out_bytes):
    summary["cli.output_bytes"] = out_bytes
    summary["other.s"] = traced - summary["top_level.s"]
    summary["trace.overhead_s"] = traced - plain
    out = {}
    for name, (key, unit) in PER_LAYER.items():
        val = float(summary.get(key, 0.0))
        out[name] = (val if unit == "ratio" else val / rounds, unit)
    return out


def run_all(args) -> int:
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["stability-curves", "landscape", "energy-queries", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "latticeforge" / "__init__.py").is_file():
        print(f"error: no latticeforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from latticeforge import cli

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    try:
        if args.trace:
            tracer = Tracer()
            results, rounds, plain, traced, out_bytes = run_traced(
                workload, args.seconds, cli, tracer)
            metrics = per_layer(tracer.summary(), rounds, plain, traced, out_bytes)
            tracer.write(WORKDIR / f"spans-{args.workload}-{args.seed}.csv")
        else:
            results, setup_times = run_rounds(workload, args.seconds, cli.main)
            # read before the checks, whose oracles are not the package's memory
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            per_kind, slots = kind_seconds(results)
            metrics = end_to_end(workload, per_kind, slots, setup_times, peak_rss_mb)
        check(results)
    finally:
        workload.cleanup()

    failed = [r for r in results if r.problems]
    correct = all(r.kind in workload.known_fault for r in failed)
    print(f"workload {args.workload} seed {args.seed}: {len(results)} commands, "
          f"{len(failed)} failed")
    for kind in workload.kinds:
        bad = [r for r in failed if r.kind == kind]
        if bad:
            n = sum(r.kind == kind for r in results)
            note = "known fault" if kind in workload.known_fault else "UNEXPECTED"
            print(f"failed {kind} {len(bad)}/{n} ({note}): {bad[0].problems[0]}")
    if not args.trace:
        wall = sum(r.seconds for r in results)
        print(f"machine slowdown {wall / sum(r.ref_seconds for r in results):.4f} "
              f"(command wall time over reference-speed time)")
        for name, (val, unit) in workload.report(results, per_kind).items():
            print(f"metric {name} {val:.6g} {unit}")
    for name, (val, unit) in metrics.items():
        print(f"metric {name} {val:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
