"""The benchmark's workloads still pass on the library.

`perfbench/` is outside the tier-1 test paths, so this loads its runner by
path, unedited, runs each workload's CLI arguments in-process the way a
benchmark process does (`--seed 1 --reproducible --out FILE`), and checks the
output with the runner's own `check_output`: the command in the meta line,
the row count (for `report`, one summary row per claim id) and every pass
flag.  A change that would fail a benchmark process fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dunklheat import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def run_module():
    # run.py imports its sibling tracer.py as a top-level module, and its
    # dataclasses look their module up in sys.modules while it executes
    had_tracer = "tracer" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(PERFBENCH))
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
        sys.path.remove(str(PERFBENCH))
        if not had_tracer:
            sys.modules.pop("tracer", None)
    return module


def test_every_workload_is_named(run_module):
    assert sorted(run_module.WORKLOADS) == ["report", "scan_grid_d3", "scan_random"]


@pytest.mark.parametrize("name", ["report", "scan_grid_d3", "scan_random"])
def test_workload_output_passes_the_runners_check(run_module, tmp_path, name):
    workload = run_module.WORKLOADS[name]
    out = tmp_path / "out.jsonl"
    assert cli.main([*workload.argv, "--seed", "1", "--reproducible", "--out", str(out)]) == 0
    assert run_module.check_output(out.read_text(encoding="utf-8"), workload) is None
