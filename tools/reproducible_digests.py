"""Digests of the `--reproducible` output of a fixed list of configurations.

    python3 tools/reproducible_digests.py | diff tools/reproducible_digests.txt -

Each configuration runs `dunklheat.cli.main` in a fresh interpreter with the
`src/` of the checkout this script sits in.  One line per configuration: the
first 16 hex digits of the sha256 of its stdout and of its stderr, its exit
code and its arguments.  A failure writes nothing to stdout, so its stderr
digest pins the message and the grid point it names.  A header line names
Python, numpy and the thread count of numpy's OpenBLAS, since 4096-node
Laguerre rules can change with the thread count.

tools/reproducible_digests.txt is the listing of this tree; a change that
moves bytes updates it.  Comparing two trees, or a tree with the committed
listing, is a `diff` of the two listings.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIGURATIONS = (
    ("kernel-eval",),
    ("liyau-scan",),
    ("solution-scan",),
    ("harnack-scan",),
    ("semigroup-check",),
    ("claims-verify",),
    ("report",),
    ("report", "--seed", "1"),
    ("report", "--seed", "3"),
    ("liyau-scan", "--kappa", "0.5,1.5,0.25"),
    ("liyau-scan", "--t", "1", "--coords", "0", "--augment", "2000", "--seed", "1"),
    ("claims-verify", "--augment", "300", "--seed", "5"),
    ("harnack-scan", "--seed", "22"),
    ("harnack-scan", "--seed", "40"),
    ("kernel-eval", "--t", "0.37,2.9", "--coords=-2.2,0,0.7"),
    ("solution-scan", "--t", "0.037,1.3"),
    ("semigroup-check", "--kappa", "1e-8"),
    ("liyau-scan", "--kappa", "1e-8,0.5"),
    ("solution-scan", "--coords=-2,0.5,1.7", "--t", "0.05,2"),
    ("liyau-scan", "--kappa", "0.5", "--t", "1e-9,0.01", "--coords=5e-8,3"),
    ("semigroup-check", "--coords=-2,0.5,1.7", "--t", "0.05,2"),
    ("semigroup-check", "--kappa", "0,0.5", "--t", "1", "--coords=-33,33"),
    ("claims-verify", "--kappa", "0,2.5"),
    # CSV through the same spool as JSON lines
    ("liyau-scan", "--kappa", "0.5,1.5,0.25", "--format", "csv"),
    ("report", "--format", "csv"),
    # Li-Yau blocks: --augment rows merged across blocks, blocks that do not
    # align with the time groups, and CSV through the same blocks
    ("liyau-scan", "--kappa", "0.5,1.5,0.25", "--augment", "50"),
    ("liyau-scan", "--kappa", "0.5,1.5,0.25,1", "--coords=-1,0,1"),
    ("liyau-scan", "--kappa", "0.5,1.5,0.25", "--augment", "50", "--format", "csv"),
    # failures: nothing on stdout, so the listing pins their exit codes and
    # the stderr that names the failing grid point
    ("liyau-scan", "--kappa", "0", "--t", "1", "--coords", "1e200"),
    ("report", "--kappa", "0", "--t", "1", "--coords", "1e200"),
    ("kernel-eval", "--kappa", "0.5", "--t", "1", "--coords", "1e200"),
    ("solution-scan", "--kappa", "0", "--t", "1", "--coords", "1e200"),
    ("claims-verify", "--kappa", "200"),
    # failures inside the batched point checks, replayed point by point to
    # name the first point that stops: harnack-scan's solution field (exit
    # 4), a solution-scan mass that underflows (3) and the log-convexity
    # rows of claims-verify (3); and the heat-equation rows at t = 1e8,
    # which exit 1 on a false violation (ROADMAP item 19)
    ("harnack-scan", "--kappa", "1000"),
    ("solution-scan", "--kappa", "0.5", "--t", "1e-6", "--coords=-40"),
    ("claims-verify", "--kappa", "150"),
    ("semigroup-check", "--t", "1e8"),
    # panel integrals where most nodes sit far below their integral's peak
    # term (small t), a tilt that overflows inside a solution integral, and
    # a large multiplicity whose solution integrals stall (exit 3)
    ("semigroup-check", "--t", "0.001,0.01"),
    ("solution-scan", "--kappa", "0.5", "--t", "1", "--coords", "1e200"),
    ("solution-scan", "--kappa", "100"),
    # a normalization window and a Chapman-Kolmogorov window lost to
    # rounding (exit 3), each named by the first point that loses one
    ("semigroup-check", "--kappa", "0.5", "--t", "1", "--coords", "1e200"),
    ("semigroup-check", "--kappa", "0", "--t", "1e-300", "--coords", "1"),
    # d = 3 seeded draws
    ("harnack-scan", "--kappa", "0.5,1.5,0.25", "--seed", "3"),
    ("claims-verify", "--kappa", "0.5,1.5,0.25", "--augment", "20"),
    # kernel-eval in blocks: a failure at the last coordinate value, and a
    # d = 3 grid of 62,500 rows over many blocks
    ("kernel-eval", "--kappa", "0.5,1.5", "--t", "1", "--coords=-3,-1,0,1,3,1e200"),
    ("kernel-eval", "--kappa", "0.5,1.5,0.25"),
)

# main as the console script and `python -m dunklheat.cli` call it
_ENTRY = "import sys; from dunklheat.cli import main; sys.exit(main(sys.argv[1:]))"


def digest(argv: tuple[str, ...]) -> tuple[str, str, int]:
    """(sha256 prefix of stdout, of stderr, exit code) of one configuration."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _ENTRY, *argv, "--reproducible"],
        env=env,
        capture_output=True,
        check=False,
    )
    out, err = (hashlib.sha256(stream).hexdigest()[:16] for stream in (done.stdout, done.stderr))
    return out, err, done.returncode


def machine() -> str:
    """The header line: Python, numpy and the OpenBLAS thread count, read
    from the OpenBLAS bundled with numpy ("unknown" without one)."""
    import numpy as np

    threads = "unknown"
    for library in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        handle = ctypes.CDLL(str(library))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, name):
                get = getattr(handle, name)
                get.argtypes, get.restype = [], ctypes.c_int
                threads = str(get())
    return f"# Python {platform.python_version()}, numpy {np.__version__}, OpenBLAS threads {threads}"


def main() -> int:
    print(machine(), flush=True)
    for argv in CONFIGURATIONS:
        out, err, code = digest(argv)
        print(f"{out} {err} {code} {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
