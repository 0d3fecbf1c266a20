"""The benchmark's tracer still fits the library.

`perfbench/` is outside the tier-1 test paths, so this loads its tracer by
path, unedited, and checks that a traced CLI run reports exactly the
per-layer metrics `BENCHMARK.json` declares.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from dunklheat import cli, kernel

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name == "dunklheat" or name.startswith("dunklheat.")
        for attr, value in vars(module).items()
    }


def test_traced_liyau_scan_reports_every_declared_layer_metric():
    tracer_module = _load_tracer()
    before = _bindings()
    original = kernel.moment_ratios
    with tracer_module.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert kernel.moment_ratios is not original
        argv = ["liyau-scan", "--kappa", "0.5", "--t", "0.5", "--coords", "0,1", "--augment", "2"]
        code = cli.main([*argv, "--reproducible"])
    assert code == 0
    assert _bindings() == before
    metrics = tracer.metrics()
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    # trace.overhead_s is traced minus untraced wall time, which the runner
    # forms from two processes; every other per-layer metric is the tracer's
    assert set(metrics) == declared - {"trace.overhead_s"}
    # grid rows come from coordinate tables; only the augment points call
    # liyau_functional
    assert metrics["cli.rows"] == 4 + 2
    assert metrics["inequalities.liyau_functional_calls"] == 2
