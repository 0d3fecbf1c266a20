"""One cold dunklheat process, as a user starts it, measured from inside.

    python3 perfbench/child.py RESULT_JSON [--trace] [-- CLI_ARGS...]
    python3 perfbench/child.py RESULT_JSON --reference

Imports `dunklheat.cli` from the checkout's `src/` and times that import
(the set-up every invocation pays).  With CLI arguments it then calls
`dunklheat.cli.main` on them, optionally under the tracer.  Calling `main`
directly matters: `python -m dunklheat.cli` only imports the module, since
it has no `__main__` block, and exits 0 having checked nothing.  Without CLI
arguments the process only imports.

With --reference the process runs `reference_job` instead and imports no
dunklheat code: its wall time gauges how fast the machine runs at that moment,
whatever the program does.

RESULT_JSON receives the exit code, the import time, the versions the
process ran with and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]

REFERENCE_ROUNDS = 120000  # about 0.7 s of work, with start-up under a second


def reference_job() -> float:
    """A fixed mix of the two kinds of work the CLI does, interpreted scalar
    loops and small numpy calls, that uses none of dunklheat."""
    import math

    import numpy as np

    x = np.linspace(-1.0, 1.0, 64)
    total = 0.0
    for k in range(REFERENCE_ROUNDS):
        w = np.exp(-1e-3 * k * x * x)
        total += float(np.dot(w, x)) + math.fsum(math.cos(1e-3 * k * j) for j in range(24))
    return total


def main(argv: list[str]) -> int:
    result_path = Path(argv[0])
    split = argv.index("--") if "--" in argv else len(argv)
    own, cli_args = argv[1:split], argv[split + 1 :]
    trace = "--trace" in own
    if "--reference" in own:
        result_path.write_text(json.dumps({"rc": 0, "value": reference_job()}), encoding="utf-8")
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import dunklheat.cli

    setup_s = perf_counter() - start

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "using_numba": bool(dunklheat._accel.USING_NUMBA),
        },
        "rc": 0,
    }
    if cli_args:
        if trace:
            from tracer import Tracer  # this file's directory is on sys.path

            with Tracer() as tracer:
                result["rc"] = dunklheat.cli.main(cli_args)
            result["metrics"] = tracer.metrics()
        else:
            result["rc"] = dunklheat.cli.main(cli_args)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
