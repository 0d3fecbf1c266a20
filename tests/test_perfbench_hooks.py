"""The benchmark's tracer still fits the library.

`perfbench/` is outside the tier-1 test paths, so this loads its tracer by
path, unedited, and checks that a traced CLI run reports exactly the
per-layer metrics `BENCHMARK.json` declares, and that its semigroup hooks
(the `_adaptive_panel_sum` ladder and `kernel_derivatives_1d_batch` with `v`
third) still see the panel quadrature.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from dunklheat import cli, kernel, semigroup

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
    # grid rows come from coordinate tables and the augment rows from one
    # batched evaluation: no row calls liyau_functional
    assert metrics["cli.rows"] == 4 + 2
    assert metrics["inequalities.liyau_functional_calls"] == 0


def test_traced_semigroup_check_sees_the_panel_quadrature():
    tracer_module = _load_tracer()
    # cold caches, so every coordinate integral runs its ladder under the tracer
    for cache in (semigroup._plain_mass, semigroup._ck_coordinate):
        cache.cache_clear()
    before = _bindings()
    with tracer_module.Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["semigroup-check", "--t", "0.5", "--coords", "0,1", "--reproducible"])
    assert code == 0
    assert _bindings() == before
    metrics = tracer.metrics()
    # 4 normalization, 8 Chapman-Kolmogorov and 4 heat-equation rows
    assert metrics["cli.rows"] == 16
    assert metrics["semigroup.check_calls.chapman_kolmogorov_check"] == 8
    assert metrics["semigroup.panel_levels"] > 0
    # the hook reads the node array v as the third argument
    assert metrics["semigroup.panel_nodes"] > metrics["semigroup.panel_levels"]
    # one ladder per distinct coordinate integral: 2 axes times 2 normalization
    # coordinates and 3 Chapman-Kolmogorov pairs, (0, -0.0) being (0, 0)
    assert tracer.calls["semigroup._adaptive_panel_sum"] == 2 * (2 + 3)
