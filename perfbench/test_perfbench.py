"""Tests of the benchmark itself, on small configurations.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from tracer import LAYERS, TIMED_METRICS, Tracer, metric_prefix

sys.path.insert(0, str(run.ROOT / "src"))
# import_module, since the package attribute `kernel` is a function that
# shadows the submodule
cli, inequalities, kernel = (importlib.import_module(f"dunklheat.{m}") for m in ("cli", "inequalities", "kernel"))

# small enough to run in a second or two, and between them every layer works:
# scalar moments and the Li-Yau path, then the panel quadrature of semigroup
SMALL = {
    "scan": run.Workload(("liyau-scan", "--t", "0.5,2", "--coords", "-1,0,2"), 2 * 9 * 9),
    "semigroup": run.Workload(("semigroup-check", "--t", "0.5", "--coords", "0,1"), 4 + 8 + 4),
}


def _bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name == "dunklheat" or name.startswith("dunklheat.")
        for attr, value in vars(module).items()
    }


def _runner(tmp_path) -> run.Runner:
    return run.Runner(tmp_path, time.monotonic() + 120.0)


def test_restore_puts_every_original_back():
    before = _bindings()
    original = kernel.moment_ratios
    with Tracer() as tracer:
        # rebound where the caller looks it up, not only where it is defined
        assert inequalities.moment_ratios is not original
        assert kernel.moment_ratios is inequalities.moment_ratios
        inequalities.f_of_a(0.5, 0.75)
    assert _bindings() == before
    assert inequalities.moment_ratios is original
    assert tracer.calls["inequalities.f_of_a"] == 1
    assert tracer.counts["inequalities.f_of_a_calls.integral"] == 1
    assert tracer.calls["kernel.moment_ratios"] == inequalities._F_RULE_NODES
    assert set(LAYERS) >= set(tracer.self_s)


def test_self_times_add_up_to_main():
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        cli.main([*SMALL["scan"].argv, "--reproducible"])
    metrics = tracer.metrics()
    total = sum(metrics[f"{metric_prefix(layer)}.self_s"] for layer in LAYERS)
    assert total == pytest.approx(tracer.inclusive_s["cli.main"], rel=1e-9)
    assert metrics["cli.rows"] == SMALL["scan"].rows


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_output_is_byte_identical_and_counters_repeat(tmp_path, name):
    runner = _runner(tmp_path)
    plain = runner.run_workload(SMALL[name], seed=3)
    traced = [runner.run_workload(SMALL[name], seed=3, trace=True) for _ in range(2)]
    assert plain.ok and all(s.ok for s in traced), [plain.error] + [s.error for s in traced]
    assert {s.digest for s in traced} == {plain.digest}
    counters = [{k: v for k, v in s.result["metrics"].items() if k not in TIMED_METRICS} for s in traced]
    assert counters[0] == counters[1]
    assert counters[0]["cli.rows"] == SMALL[name].rows
    if name == "semigroup":
        assert counters[0]["semigroup.panel_levels"] > 0
        assert counters[0]["semigroup.check_calls.chapman_kolmogorov_check"] == 8
    else:
        assert counters[0]["semigroup.panel_levels"] == 0
        assert counters[0]["inequalities.liyau_functional_calls"] == SMALL[name].rows


def test_check_output_rejects_incomplete_runs():
    workload = SMALL["scan"]
    meta = json.dumps({"meta": {"command": "liyau-scan"}})
    row = json.dumps({"claim_id": "x", "pass": True})
    assert run.check_output("", workload) == "no output"
    assert run.check_output(row, workload) == "first line is not a meta line"
    assert run.check_output("\n".join([meta, row]), workload) == f"1 rows, expected {workload.rows}"
    failing = json.dumps({"claim_id": "x", "pass": False})
    rows = [row] * (workload.rows - 1) + [failing]
    assert run.check_output("\n".join([meta, *rows]), workload) == f"line {workload.rows + 1} does not pass"
    assert run.check_output("\n".join([meta] + [row] * workload.rows), workload) is None


def test_module_invocation_emits_nothing_and_fails_the_check(tmp_path):
    out = tmp_path / "out.jsonl"
    done = subprocess.run(
        [sys.executable, "-m", "dunklheat.cli", *SMALL["scan"].argv, "--out", str(out)],
        cwd=run.ROOT,
        env={"PYTHONPATH": str(run.ROOT / "src")},
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0  # the trap: success without any work
    text = out.read_text() if out.exists() else done.stdout.decode()
    assert run.check_output(text, SMALL["scan"]) == "no output"


def _main(monkeypatch, capsys, workload: run.Workload, trace: int):
    monkeypatch.setitem(run.WORKLOADS, "small", workload)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    code = run.main(["--workload", "small", "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_declared_metric(monkeypatch, capsys, trace):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    code, info, result = _main(monkeypatch, capsys, SMALL["scan"], trace)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace:
        assert result["attempted"] == 2 * run.TRACED_SAMPLES
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        # one reference process before each workload process sets the speed
        assert len(info["reference_s_each"]) == result["attempted"]
        assert result["metrics"]["wall_s"]["value"] == pytest.approx(info["measured_wall_s"] * info["speed"])
    assert info["provenance"]["src_lines"] > 0
    assert len(info["output_sha256"]) == 64


def test_main_reports_a_wrong_run_as_failed(monkeypatch, capsys):
    broken = run.Workload(SMALL["scan"].argv, SMALL["scan"].rows + 1)
    code, info, result = _main(monkeypatch, capsys, broken, 0)
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] == 1
    assert info["fail_frac"] == 1.0


def test_wall_time_is_the_mean_of_the_faster_half():
    def samples(*walls):
        return [run.Sample(wall_s=w, peak_rss_mb=1.0) for w in walls]

    assert run._faster_half(samples(5.0, 9.6, 5.2, 7.0), "wall_s") == pytest.approx(5.1)
    assert run._faster_half(samples(6.0, 5.0, 8.0), "wall_s") == 5.0
    assert run._faster_half(samples(6.0), "wall_s") == 6.0


def _workload_children(parent: int) -> list[int]:
    """Processes that `parent` started and that run a workload."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            if not entry.name.isdigit():
                continue
            ppid = int((entry / "stat").read_text().rsplit(")", 1)[1].split()[1])
            if ppid == parent and b"--reproducible" in (entry / "cmdline").read_bytes():
                found.append(int(entry.name))
        except (OSError, IndexError, ValueError):
            pass
    return found


def test_terminated_run_stops_and_reaps_its_child():
    proc = subprocess.Popen(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "report", "--seed", "1", "--trace", "0"],
        cwd=run.ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not _workload_children(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        children = _workload_children(proc.pid)
        assert children, "no workload process started"
        proc.terminate()
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert not any(Path(f"/proc/{pid}").exists() for pid in children)
    assert not list(run.ROOT.glob(".perfbench-*"))
