"""Fingerprint the CLI's outputs: one line ``exit sha256 argv`` per command.

Runs a fixed list of ``lattice-forge`` commands in one process against the
package under a given source directory, and prints each command's exit code,
the SHA-256 of its stdout and stderr, and its arguments.  A refactor that
must keep every output byte for byte is checked by diffing this output at
the parent commit and at the change:

    python tools/cli_fingerprint.py /path/to/parent/src > before.txt
    python tools/cli_fingerprint.py src > after.txt
    diff before.txt after.txt

The commands cover the figure stability curve (csv, json, svg), a
tabulated-profile curve, 40x40 disk and Gaussian scans (csv, json), a 4x4
inverse-power scan with the energy's constant (``scan --potential
invpower:a=1,s=2 --measure disk:r=1 --x-steps 4 --y-steps 4``), a 2x40
disk scan up to y = 1e5 whose column boxes are cut into up to two slices
of the lattice-sum engine (``--y-max 1e5``; the engine sums the half of
each box after the origin), three ``minimize`` runs, five
potential/particle kinds of ``energy`` at six lattices, two ``energy``
queries for ``invpower:a=1,s=30`` (disk and dirac), whose Laplace nodes
follow s, ``theta`` at five t, ``theta`` at t = 1e-5, whose box of 6.9M
rows the engine sums in 14 slices of its 3.5M rows after the origin, an
``energy`` for the profile (its constant's ring-pair kernel and its
transform without moments), a Gaussian-particle ``stability`` curve (its
closed-form moments), an inverse-power ``stability`` curve for the profile
(20 eps on one Phi pass, and bisection levels with several brackets open),
two ``stability`` curves on coarse grids (disk on 0.5:20:0.5, profile on
0.25:20:0.25), whose bisection misses the secant's path, a disk curve on
0:1:0.25, whose first eps is the point mass, a one-shot 100-eps profile
curve (0.05:5:0.05), whose eps stop at different rungs, the same curve for
``invpower:a=1,s=2``, whose ``sign_changes`` bisects several brackets on the
tables its curve request built, an ``energy`` for ``invpower:a=0.001,s=1.5``, whose derivative pass over its nodes runs
in blocks, the same potential for the profile, whose transform runs in
blocks of (t, ring node) pairs, and two commands that exit 3: 63 commands.
Outputs are written to stdout inside a scratch directory, which also holds
the profile.  Exits 0 when every command ran; a command that raises fails
the script.  CI runs it with ``python -W error::RuntimeWarning``, so a
command that warns fails it too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

GAUSS = "gaussian:alpha=3.141592653589793"
PROFILE = "ring.csv"

ENERGY_KINDS = [
    (GAUSS, "gauss:sigma=1"),
    (GAUSS, "disk:r=1"),
    ("invpower:a=1,s=2", "disk:r=1"),
    ("invpower:a=1,s=1.5", "dirac"),
    ("laplace:atoms=[(1,1),(2,0.5)]", "gauss:sigma=0.5"),
]
LATTICES = ["0,1", "0.5,0.8660254037844386", "0.2,1.3", "0.3,2", "0.1,3.5",
            "0.45,1.05"]
THETA_T = ["0.01", "0.5", "1", "2", "100"]


def commands() -> list[list[str]]:
    cmds = [["stability", "--potential", GAUSS, "--measure", "disk:r=1",
             "--eps", "0.05:5:0.05", "--format", fmt]
            for fmt in ("csv", "json", "svg")]
    cmds.append(["stability", "--potential", GAUSS, "--measure",
                 f"profile:file={PROFILE}", "--eps", "0.25:5:0.25"])
    cmds += [["scan", "--potential", GAUSS, "--measure", mu, "--format", fmt]
             for mu in ("disk:r=1", "gauss:sigma=1") for fmt in ("csv", "json")]
    cmds.append(["scan", "--potential", "invpower:a=1,s=2", "--measure", "disk:r=1",
                 "--x-steps", "4", "--y-steps", "4"])
    # y up to 1e5 widens each column's box past one engine chunk
    cmds.append(["scan", "--potential", GAUSS, "--measure", "disk:r=1",
                 "--x-steps", "2", "--y-steps", "40", "--y-max", "1e5"])
    cmds += [["minimize", "--potential", GAUSS, "--measure", mu]
             for mu in ("disk:r=1", "gauss:sigma=1", "dirac")]
    cmds += [["energy", "--potential", P, "--measure", mu, "--lattice", L]
             for P, mu in ENERGY_KINDS for L in LATTICES]
    # s = 30 puts the inverse power's Laplace density near t = 30/a, past 38/a
    cmds += [["energy", "--potential", "invpower:a=1,s=30", "--measure", mu,
              "--lattice", L]
             for mu, L in (("disk:r=0.3", "0.5,0.8660254037844386"),
                           ("dirac", "0.2,1.3"))]
    cmds += [["theta", "--lattice", "0.2,1.3", "--t", t] for t in THETA_T]
    # a box of 6.9M rows, whose 3.5M after the origin are cut into 14 slices
    cmds.append(["theta", "--lattice", "0,1", "--t", "1e-5"])
    cmds += [
        ["energy", "--potential", GAUSS, "--measure", f"profile:file={PROFILE}",
         "--lattice", "0.2,1.3"],
        ["stability", "--potential", GAUSS, "--measure", "gauss:sigma=1",
         "--eps", "0.1:2:0.1", "--format", "json"],
        # 20 profile eps on one Phi pass, bisected with several brackets open
        ["stability", "--potential", "invpower:a=1,s=2", "--measure",
         f"profile:file={PROFILE}", "--eps", "0.25:5:0.25", "--format", "json"],
        # coarse grids, whose zeros the secant's path misses: the disk's
        # past eps = 5 lie about 0.23 apart
        ["stability", "--potential", GAUSS, "--measure", "disk:r=1",
         "--eps", "0.5:20:0.5", "--format", "json"],
        ["stability", "--potential", GAUSS, "--measure", f"profile:file={PROFILE}",
         "--eps", "0.25:20:0.25", "--format", "json"],
        # a grid from eps = 0, where the particle is the point mass
        ["stability", "--potential", GAUSS, "--measure", "disk:r=1",
         "--eps", "0:1:0.25", "--format", "json"],
        # 100 profile eps in one request, whose heads stop at different
        # rungs of the shell sum
        ["stability", "--potential", GAUSS, "--measure", f"profile:file={PROFILE}",
         "--eps", "0.05:5:0.05", "--format", "json"],
        # and for the inverse power, whose eps stop at more rungs, and whose
        # bisection requests reuse the tables of the curve's request
        ["stability", "--potential", "invpower:a=1,s=2", "--measure",
         f"profile:file={PROFILE}", "--eps", "0.05:5:0.05", "--format", "json"],
        # 183 nodes at about 10^5 points a round: the Phi pass runs in blocks
        ["energy", "--potential", "invpower:a=0.001,s=1.5", "--measure",
         "disk:r=0.5", "--lattice", "0.2,1.3"],
        # and the profile's transform, over its 39 ring nodes, runs in blocks
        ["energy", "--potential", "invpower:a=0.001,s=1.5", "--measure",
         f"profile:file={PROFILE}", "--lattice", "0.2,1.3"],
    ]
    cmds += [
        # a particle scale that makes the summand nan
        ["energy", "--potential", GAUSS, "--measure", "disk:r=1e308",
         "--lattice", "0,1"],
        # a tail that needs a box past the candidate cap
        ["theta", "--lattice", "0,1", "--t", "1e-6"],
    ]
    return cmds


def write_profile(path: str) -> None:
    """A smooth ring: psi-density s exp(-((s - 0.6) / 0.2)^2) on 40 samples."""
    s = [1.2 * i / 39 for i in range(40)]
    rows = [f"{v!r},{v * math.exp(-(((v - 0.6) / 0.2) ** 2))!r}\n" for v in s]
    Path(path).write_text("# s,density\n" + "".join(rows))


def run(main, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    digest = hashlib.sha256()
    for text in (out.getvalue(), "\0", err.getvalue()):
        digest.update(text.encode())
    return code, digest.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = os.path.abspath(args[0] if args else Path(__file__).parent.parent / "src")
    sys.path.insert(0, src)
    import latticeforge.cli

    if not latticeforge.cli.__file__.startswith(src + os.sep):
        sys.exit(f"latticeforge was imported from {latticeforge.cli.__file__}, "
                 f"not from {src}")

    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            write_profile(PROFILE)
            for cmd in commands():
                code, digest = run(latticeforge.cli.main, cmd)
                print(code, digest, " ".join(cmd))
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
