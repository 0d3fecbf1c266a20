"""Digests of the `--reproducible` output of a fixed list of configurations.

    python3 tools/reproducible_digests.py

Each configuration runs `dunklheat.cli.main` in a fresh interpreter with the
`src/` of the checkout this script sits in.  One line per configuration: the
first 16 hex digits of the sha256 of its stdout, its exit code and its
arguments.  Comparing two trees is a `diff` of the two listings.
"""

from __future__ import annotations

import hashlib
import os
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
    # failures: nothing on stdout, so the listing pins their exit codes
    ("liyau-scan", "--kappa", "0", "--t", "1", "--coords", "1e200"),
    ("report", "--kappa", "0", "--t", "1", "--coords", "1e200"),
    ("kernel-eval", "--kappa", "0.5", "--t", "1", "--coords", "1e200"),
    ("solution-scan", "--kappa", "0", "--t", "1", "--coords", "1e200"),
)

# `python -m dunklheat.cli` would import the module without calling main
_ENTRY = "import sys; from dunklheat.cli import main; sys.exit(main(sys.argv[1:]))"


def digest(argv: tuple[str, ...]) -> tuple[str, int]:
    """(sha256 prefix of stdout, exit code) of one configuration."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _ENTRY, *argv, "--reproducible"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return hashlib.sha256(done.stdout).hexdigest()[:16], done.returncode


def main() -> int:
    for argv in CONFIGURATIONS:
        prefix, code = digest(argv)
        print(f"{prefix} {code} {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
