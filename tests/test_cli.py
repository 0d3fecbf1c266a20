"""End-to-end checks of the verification CLI.

Everything drives dunklheat.cli.main directly with argv lists; stdout is the
contract (JSON lines or CSV) and the exit code is the verdict.
"""

import collections
import csv
import dataclasses
import errno
import functools
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from dunklheat import cli, inequalities, kernel, semigroup
from dunklheat.cli import _COLUMNS, main
from dunklheat.inequalities import VerificationReport, liyau_functional
from dunklheat.kernel import log_gaussian_mass, log_kernel_derivatives
from dunklheat.operators import SpaceTimeField
from dunklheat.semigroup import MeasureConvention, normalization_check, semigroup_solution


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_jsonl(text):
    lines = text.splitlines()
    meta = json.loads(lines[0])["meta"]
    rows = [json.loads(line) for line in lines[1:]]
    return meta, rows


def one_point_at_a_time(datum, kappa) -> SpaceTimeField:
    """A fresh semigroup_solution(datum, kappa) that answers an n-point read
    by reading each point alone, so no two integrals share a batch."""
    u = semigroup_solution(datum, kappa)

    def each(read):
        def at(t, x):
            if np.ndim(x) == 1:
                return read(t, x)
            return np.array([read(s, p) for s, p in zip(np.broadcast_to(t, len(x)).tolist(), x)])

        return at

    return SpaceTimeField(*(each(getattr(u, field.name)) for field in dataclasses.fields(u)))


class TestRowContract:
    def test_rows_carry_fixed_keys_in_order(self, capsys):
        code, out, _ = run_cli(
            ["liyau-scan", "--kappa", "0.5", "--t", "0.5", "--coords", "0,1", "--reproducible"],
            capsys,
        )
        assert code == 0
        meta, rows = parse_jsonl(out)
        assert meta["columns"] == list(_COLUMNS)
        for row in rows:
            assert tuple(row.keys()) == _COLUMNS

    def test_rows_sorted_by_claim_then_grid_point(self, capsys):
        _, out, _ = run_cli(
            [
                "claims-verify",
                "--kappa",
                "0.5",
                "--t",
                "0.5",
                "--coords",
                "-1,1",
                "--augment",
                "3",
                "--reproducible",
            ],
            capsys,
        )
        _, rows = parse_jsonl(out)
        keys = [(r["claim_id"], json.dumps(r["grid_point"])) for r in rows]
        claim_ids = [k[0] for k in keys]
        assert claim_ids == sorted(claim_ids)

    def test_negative_coords_parse_without_equals_sign(self, capsys):
        code, out, _ = run_cli(
            ["liyau-scan", "--kappa", "0.5", "--t", "1", "--coords", "-3,-1,0", "--reproducible"],
            capsys,
        )
        assert code == 0
        meta, _ = parse_jsonl(out)
        assert meta["coord_grid"] == [-3.0, -1.0, 0.0]


class TestLiYauScan:
    def test_gaussian_case_is_exact_equality(self, capsys):
        code, out, _ = run_cli(
            ["liyau-scan", "--kappa", "0,0", "--t", "0.5,2", "--coords", "-1,0,2", "--reproducible"],
            capsys,
        )
        assert code == 0
        _, rows = parse_jsonl(out)
        assert len(rows) == 2 * 9 * 9
        for row in rows:
            assert row["claim_id"] == "liyau_log_kernel"
            assert row["deficit"] == 0.0
            assert row["pass"] is True
            assert row["extra"]["equality"] is True

    def test_augment_adds_seeded_random_points(self, capsys):
        args = [
            "liyau-scan",
            "--kappa",
            "0.5,1.5",
            "--t",
            "1",
            "--coords",
            "0,1",
            "--augment",
            "6",
            "--reproducible",
        ]
        code, out_a, _ = run_cli(args, capsys)
        assert code == 0
        _, rows_a = parse_jsonl(out_a)
        assert len(rows_a) == 1 * 4 * 4 + 6
        _, out_b, _ = run_cli(args, capsys)
        assert out_a == out_b
        _, out_c, _ = run_cli(args + ["--seed", "8"], capsys)
        assert out_c != out_a

    def test_seeded_draws_are_the_floats_of_one_scalar_draw_each(self):
        # one Generator.uniform call gives the floats of a loop of one draw
        # per row and group, so the seeded suites keep their points
        groups = [(-2.0, 2.0, 1), (1.05, 8.0, 1), (-10.0, 10.0, 3), (-2.5, 2.5, 2)]
        rng = np.random.default_rng(8)
        want = [[rng.uniform(low, high, width).tolist() for low, high, width in groups] for _ in range(7)]
        rows = list(cli._draws(8, 7, groups))
        assert [[[v.hex() for v in group] for group in row] for row in rows] == [
            [[v.hex() for v in group] for group in row] for row in want
        ]
        assert all(type(v) is float for row in rows for group in row for v in group)
        assert list(cli._draws(8, 0, groups)) == []

    def test_per_coordinate_decomposition_in_extra(self, capsys):
        _, out, _ = run_cli(
            ["liyau-scan", "--kappa", "0.5,1.5", "--t", "1", "--coords", "1", "--reproducible"],
            capsys,
        )
        _, rows = parse_jsonl(out)
        extra = rows[0]["extra"]
        for key in ("a", "variance_term", "f_value", "i_value"):
            assert len(extra[key]) == 2


class TestKernelEval:
    def test_rows_report_kernel_and_derivatives(self, capsys):
        code, out, _ = run_cli(
            ["kernel-eval", "--kappa", "1.0", "--t", "0.5", "--coords", "0,1", "--reproducible"],
            capsys,
        )
        assert code == 0
        _, rows = parse_jsonl(out)
        assert len(rows) == 4
        for row in rows:
            assert row["claim_id"] == "kernel_point"
            assert row["lhs"] == row["rhs"]
            extra = row["extra"]
            assert extra["p"] > 0.0
            assert len(extra["grad_x_log_p"]) == 1
            assert len(extra["hess_diag_x_log_p"]) == 1
            assert isinstance(extra["dt_log_p"], float)

    # a numpy warning would print to stderr outside pytest
    @pytest.mark.filterwarnings("error")
    def test_kernel_value_is_written_up_to_the_float_range(self, capsys):
        # log p = 709.5: p = exp(709.5) = 1.35e308 is a double, not null
        argv = ["kernel-eval", "--kappa", "2", "--t", "1.2465553432995325e-124", "--coords", "0"]
        code, out, err = run_cli([*argv, "--reproducible"], capsys)
        assert (code, err) == (0, "")
        _, (row,) = parse_jsonl(out)
        assert row["lhs"] == 709.5
        assert row["extra"]["p"] == math.exp(709.5)


class TestSolutionAndHarnack:
    def test_solution_scan_passes_on_small_grid(self, capsys):
        code, out, _ = run_cli(
            ["solution-scan", "--kappa", "0.5", "--t", "0.5,2", "--coords", "-1,0,2", "--reproducible"],
            capsys,
        )
        assert code == 0
        _, rows = parse_jsonl(out)
        by_claim = {}
        for row in rows:
            by_claim.setdefault(row["claim_id"], []).append(row)
        assert set(by_claim) == {"liyau_solution", "gradient_form"}
        assert len(by_claim["liyau_solution"]) == 3 * 2 * 3
        data = {r["extra"]["datum"] for r in rows}
        assert data == {"bump", "offset_bump", "two_bump"}
        for row in by_claim["gradient_form"]:
            assert row["rhs"] == pytest.approx(row["extra"]["beta"])

    @pytest.mark.parametrize(
        "kappa, coords",
        [
            # the product of the two coordinate masses underflows to 0
            ("0.5,0.5", "2.9"),
            # u * u underflows to 0 in |grad u|^2 / u^2
            ("0.5,0.5,0.5", "2.2"),
        ],
    )
    def test_solution_scan_passes_where_u_underflows(self, capsys, kappa, coords):
        argv = ["solution-scan", "--kappa", kappa, "--t", "0.001", "--coords", coords, "--reproducible"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        _, rows = parse_jsonl(out)
        assert len(rows) == 6
        assert all(row["pass"] for row in rows)

    def test_harnack_scan_row_count_follows_augment(self, capsys):
        code, out, _ = run_cli(
            ["harnack-scan", "--kappa", "0.5", "--augment", "10", "--reproducible"], capsys
        )
        assert code == 0
        _, rows = parse_jsonl(out)
        assert len(rows) == 10
        assert all(r["claim_id"] == "harnack" and r["pass"] for r in rows)


class TestSemigroupCheck:
    def test_small_grid_passes_with_expected_claims(self, capsys):
        code, out, _ = run_cli(
            ["semigroup-check", "--kappa", "0.5", "--t", "0.5,2", "--coords", "-1,0,2", "--reproducible"],
            capsys,
        )
        assert code == 0
        _, rows = parse_jsonl(out)
        counts = {}
        for row in rows:
            counts[row["claim_id"]] = counts.get(row["claim_id"], 0) + 1
        assert counts["kernel_normalization"] == 2 * 3
        assert counts["chapman_kolmogorov"] == 3 * 3 * 2
        assert counts["heat_equation"] == 2 * 3

    def test_kappa_floor_normalization_and_chapman_kolmogorov_hold(self, capsys):
        # the moment rules at kappa = 1e-8 come from the exact offset kappa:
        # rules of the rounded exponent kappa - 1 would put the mass 5e-9 low
        code, out, _ = run_cli(["semigroup-check", "--kappa", "1e-8", "--reproducible"], capsys)
        assert code == 0
        _, rows = parse_jsonl(out)
        for claim in ("kernel_normalization", "chapman_kolmogorov"):
            deficits = [row["deficit"] for row in rows if row["claim_id"] == claim]
            assert deficits and min(deficits) >= -1e-12, claim


class TestClaimsVerify:
    def test_default_convention_passes(self, capsys):
        code, out, _ = run_cli(
            [
                "claims-verify",
                "--kappa",
                "0.5",
                "--t",
                "0.5",
                "--coords",
                "-1,2",
                "--augment",
                "4",
                "--reproducible",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_jsonl(out)
        claims = {r["claim_id"] for r in rows}
        assert {
            "f_nonneg",
            "h_antisymmetric",
            "h_monotone",
            "pi_log_sign",
            "chain_rule",
            "log_convexity_diag",
            "log_convexity_midpoint",
        } == claims
        assert sum(r["claim_id"] == "chain_rule" for r in rows) >= 10

    def test_default_run_batches_its_f_and_h_grids(self, monkeypatch, capsys):
        # one moment_stats call per kappa for the f tilts, the h grid and its
        # mirror tilts, and one per axis for each log-convexity claim: the 50
        # diagonal tilts, and the 300 of the midpoint rows (the midpoints, z1
        # and z2, against y and against 0); no row reads the memo
        calls = []
        stats = kernel.moment_stats

        def counting(a, *rest):
            calls.append(np.size(a))
            return stats(a, *rest)

        monkeypatch.setattr(kernel, "_MOMENT_CACHE", {})
        monkeypatch.setattr(kernel, "moment_stats", counting)
        monkeypatch.setattr(inequalities, "moment_stats", counting)
        code, _, _ = run_cli(["claims-verify", "--reproducible"], capsys)
        assert code == 0
        assert len(calls) == 3 * 2 + 2 * 2
        assert calls.count(202) == 2
        assert calls.count(50) == calls.count(300) == 2
        assert kernel._MOMENT_CACHE == {}

    def test_scaled_normalizer_fails_normalization_rows_only(self, monkeypatch, capsys):
        # the negative control: a normalizer 1.5 times too large
        scaled = MeasureConvention(
            weight_exponent=lambda k: 2.0 * k,
            log_normalizer=lambda k: log_gaussian_mass(k) + math.log(1.5),
        )
        monkeypatch.setattr(cli, "normalization_check", functools.partial(normalization_check, convention=scaled))
        code, out, _ = run_cli(
            ["semigroup-check", "--kappa", "0.5", "--t", "0.5", "--coords", "-1,2", "--reproducible"],
            capsys,
        )
        assert code == 1
        _, rows = parse_jsonl(out)
        failing = [r for r in rows if not r["pass"]]
        assert failing
        assert {r["claim_id"] for r in failing} == {"kernel_normalization"}


class TestReport:
    def test_one_summary_row_per_claim(self, capsys):
        code, out, _ = run_cli(
            [
                "report",
                "--kappa",
                "0.5",
                "--t",
                "0.5,2",
                "--coords",
                "-1,0,2",
                "--augment",
                "4",
                "--reproducible",
            ],
            capsys,
        )
        assert code == 0
        _, rows = parse_jsonl(out)
        claims = [r["claim_id"] for r in rows]
        assert len(claims) == len(set(claims))
        assert "liyau_log_kernel" in claims and "harnack" in claims
        for row in rows:
            assert row["grid_point"] == ["summary"]
            assert row["extra"]["failures"] == 0
            assert row["extra"]["rows"] >= 1
            assert row["lhs"] == 0.0


    def test_only_the_summary_rows_are_rendered(self, monkeypatch, capsys):
        # the suites' rows are tallied, never written, so never encoded,
        # and the Li-Yau blocks never rendered
        encoded = []
        build, liyau_block = cli._encoded_row, cli._liyau_block

        def recorded(claim_id, grid_point, *rest):
            row = build(claim_id, grid_point, *rest)
            return row._replace(text=lambda fmt: encoded.append(grid_point) or row.text(fmt))

        def recorded_block(*args):
            block = liyau_block(*args)
            return block._replace(text=lambda fmt: encoded.append("liyau") or block.text(fmt))

        monkeypatch.setattr(cli, "_encoded_row", recorded)
        monkeypatch.setattr(cli, "_liyau_block", recorded_block)
        argv = ["report", "--kappa", "0.5", "--t", "0.5", "--coords", "0,1", "--augment", "2"]
        code, out, _ = run_cli([*argv, "--reproducible"], capsys)
        assert code == 0
        _, rows = parse_jsonl(out)
        assert len(rows) > 5
        # one encoding per summary row
        assert encoded == [("summary",)] * len(rows)

    def test_liyau_summary_is_the_tally_of_the_liyau_scan_rows(self, capsys):
        # more rows than a block, --augment rows merged in, and no y = 0
        # row, so the worst deficit is not an exact 0.0
        args = ["--kappa", "0.5,1.5", "--t", "0.5,2", "--coords=-1,0.3,1,2,-2.5", "--augment", "40"]
        code, out, _ = run_cli(["liyau-scan", *args, "--reproducible"], capsys)
        assert code == 0
        _, rows = parse_jsonl(out)
        assert len(rows) == 2 * 5**4 + 40
        code, out, _ = run_cli(["report", *args, "--reproducible"], capsys)
        assert code == 0
        _, summaries = parse_jsonl(out)
        (summary,) = [row for row in summaries if row["claim_id"] == "liyau_log_kernel"]
        worst = min(row["deficit"] for row in rows)
        assert worst > 0.0
        want = {"rows": len(rows), "failures": sum(not row["pass"] for row in rows), "worst_deficit": worst}
        assert summary["extra"] == want


class TestOutputForms:
    def test_csv_projection_has_fixed_header(self, capsys):
        code, out, _ = run_cli(
            [
                "liyau-scan",
                "--kappa",
                "0.5",
                "--t",
                "0.5",
                "--coords",
                "0,1",
                "--format",
                "csv",
                "--reproducible",
            ],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# {")
        reader = csv.reader(io.StringIO("\n".join(lines[1:])))
        header = next(reader)
        assert header == list(_COLUMNS)
        first = next(reader)
        assert first[0] == "liyau_log_kernel"
        assert json.loads(first[1]) == [0.5, [0.0], [0.0]]
        assert float(first[2]) <= float(first[3])
        assert first[6] in ("pass", "fail")
        json.loads(first[7])

    def test_out_writes_file_and_leaves_stdout_empty(self, tmp_path, capsys):
        target = tmp_path / "rows.jsonl"
        code, out, _ = run_cli(
            [
                "liyau-scan",
                "--kappa",
                "0.5",
                "--t",
                "1",
                "--coords",
                "0,1",
                "--out",
                str(target),
                "--reproducible",
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        meta, rows = parse_jsonl(target.read_text())
        assert meta["command"] == "liyau-scan"
        assert rows

    def test_timestamp_only_without_reproducible_flag(self, capsys):
        args = ["liyau-scan", "--kappa", "0.5", "--t", "1", "--coords", "0"]
        _, out, _ = run_cli(args, capsys)
        meta, _ = parse_jsonl(out)
        assert "generated" in meta
        _, out, _ = run_cli(args + ["--reproducible"], capsys)
        meta, _ = parse_jsonl(out)
        assert "generated" not in meta


def test_cli_import_loads_no_scipy():
    # a fresh process: other tests import scipy into this one
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = "import sys, dunklheat.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


def test_report_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # every CLI process would pay their import: scipy.special costs about
    # 0.24 s and 26 MB, and numpy.ma, which np.unique pulls in, about 6 ms
    # and 1.5 MB
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    argv = ["report", "--t", "1", "--coords", "0,1", "--reproducible", "--out", str(tmp_path / "out.jsonl")]
    code = (
        "import sys\n"
        "from dunklheat import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "names = [m.split('.') for m in sys.modules]\n"
        "print(sorted('.'.join(m) for m in names if m[0] == 'scipy' or m[:2] == ['numpy', 'ma']))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


# the CLI's own peak resident set: VmHWM, since Linux carries the spawning
# process's high-water mark into a child's ru_maxrss, which under pytest
# would read pytest's peak for both runs
_PEAK_RSS = (
    "import sys\n"
    "from dunklheat.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "peak = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
    "print(code, peak.split()[1], file=sys.stderr)\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "pipe"])
def test_peak_memory_does_not_grow_with_the_row_count(tmp_path, to_file):
    # rows are spooled to a temporary file as they are built: the 62,500
    # rows of a d=3 scan (25 MB of JSON lines) peak within 10 MB of the
    # 2,500 of the d=2 default, where holding every line took about 30 MB more
    src = pathlib.Path(cli.__file__).resolve().parents[1]

    def peak_mb(rows, *argv):
        argv = ["liyau-scan", *argv, "--reproducible"]
        if to_file:
            argv += ["--out", str(tmp_path / "rows.jsonl")]
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *argv],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            check=True,
        )
        code, kib = done.stderr.decode().split()
        assert code == "0"
        written = (tmp_path / "rows.jsonl").read_bytes() if to_file else done.stdout
        assert written.count(b"\n") == rows + 1
        return int(kib) / 1024

    assert peak_mb(62_500, "--kappa", "0.5,1.5,0.25") - peak_mb(2_500) < 10.0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_every_line_is_strict_json(capsys, command):
    argv = [command, "--kappa", "0.5,1.5", "--t", "0.5", "--coords", "0,1", "--augment", "2", "--reproducible"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) > 1
    for line in lines:
        json.loads(line, parse_constant=_reject_constant)


class TestExitCodes:
    def test_unparseable_kappa_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["liyau-scan", "--kappa", "abc"])
        assert exc.value.code == 2

    def test_negative_kappa_returns_two(self, capsys):
        code, _, err = run_cli(["liyau-scan", "--kappa", "-0.5"], capsys)
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("kappa", ["1e-9", "1e-12", "1e-300"])
    def test_kappa_below_the_floor_returns_two(self, capsys, kappa):
        # the documented domain is kappa = 0 or kappa >= 1e-8; below it the
        # moments lost accuracy (exit 1), then their range checks (exit 4)
        code, out, err = run_cli(["semigroup-check", "--kappa", f"0.5,{kappa}"], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            f"configuration error: multiplicity {float(kappa)!r} is below the floor 1e-08:"
            " each must be 0 or >= 1e-08\n"
        )

    def test_negative_tol_returns_two(self, capsys):
        code, _, err = run_cli(["liyau-scan", "--tol", "-1"], capsys)
        assert code == 2
        assert "tol" in err

    @pytest.mark.parametrize(
        "argv",
        [["liyau-scan", "--seed", "-1", "--augment", "1"], ["harnack-scan", "--seed", "-5"]],
    )
    def test_negative_seed_returns_two(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("configuration error: seed must be nonnegative")

    def test_unwritable_out_returns_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.jsonl"
        code, out, err = run_cli(["liyau-scan", "--kappa", "0.5", "--out", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"configuration error: cannot write {path}: ")
        assert not path.exists()

    @pytest.mark.parametrize("out", [False, True])
    def test_unwritable_spool_returns_two(self, capsys, monkeypatch, tmp_path, out):
        # rows are spooled to a temporary file before the target is opened:
        # a temporary directory that is full or missing is a configuration
        # error, and nothing is written
        def full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", full)
        path = tmp_path / "x.jsonl"
        argv = ["liyau-scan", "--kappa", "0.5", "--t", "1", "--coords", "0"]
        code, stdout, err = run_cli([*argv, *(["--out", str(path)] if out else [])], capsys)
        assert (code, stdout) == (2, "")
        assert err == "configuration error: cannot write temporary file: No space left on device\n"
        assert not path.exists()

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    # a numpy warning would print to stderr outside pytest
    @pytest.mark.filterwarnings("error")
    def test_far_field_solution_point_returns_three_with_grid_point(self, capsys):
        # p_1(1e200, v) underflows to 0 on the support, where (d/du log p)^2
        # overflows: the mass underflow is reported, not a stalled ladder
        argv = ["solution-scan", "--kappa", "0", "--t", "1", "--coords", "1e200"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("convergence failure: solution mass underflowed at u = 1e+200, t = 1.0:")
        assert err.endswith("[grid point [1.0, [1e+200]]]\n") and err.count("\n") == 1

    # a numpy warning would print to stderr outside pytest
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            # p_s p_t is e^-717, subnormal, at s = t = 10, x = y = -3, and
            # |v|^100 brings its integral back into the double range
            ["semigroup-check", "--kappa", "50"],
            ["semigroup-check", "--kappa", "80"],
            # p_1(1, v) p_1(v, 1) is below the double range; its integral,
            # p_2(1, 1) = 1.95e-191, is not
            ["semigroup-check", "--kappa", "80", "--t", "1", "--coords", "1"],
            # |v|^200 overflows past |v| = 34.6
            ["semigroup-check", "--kappa", "100", "--t", "1", "--coords", "1"],
            # p_s(0, 0) p_t(0, 0) = 1 / (16 s t) is past the double range
            ["semigroup-check", "--kappa", "0.5", "--t", "1e-300", "--coords", "0"],
            # u(t, x) is below the double range at the far-field points
            ["solution-scan", "--kappa", "0.5", "--t", "1e-4,100", "--coords=-8,0,8"],
            ["solution-scan", "--kappa", "0.5", "--t", "0.01", "--coords", "40"],
            # log p_1(1, v) is about -1139 inside the support
            ["solution-scan", "--kappa", "200", "--t", "1", "--coords", "1"],
            ["harnack-scan", "--kappa", "100"],
            # the mass of u(1e-4, -40) sits within 1e-4 of the support's
            # edges, which the graded whole-support panels resolve
            ["solution-scan", "--kappa", "0.5", "--t", "1e-4", "--coords=-40"],
        ],
        ids=[
            "semigroup-k50",
            "semigroup-k80",
            "semigroup-k80-t1-x1",
            "semigroup-k100-t1-x1",
            "semigroup-k0.5-t1e-300-x0",
            "solution-k0.5-far-field",
            "solution-k0.5-t0.01-x40",
            "solution-k200-t1-x1",
            "harnack-k100",
            "solution-k0.5-t1e-4-x-40",
        ],
    )
    def test_integrals_beyond_the_double_range_pass(self, capsys, argv):
        code, out, err = run_cli([*argv, "--reproducible"], capsys)
        assert code == 0
        assert err == ""
        meta, rows = parse_jsonl(out)
        assert meta["command"] == argv[0]
        assert rows and all(row["pass"] for row in rows)

    def test_far_apart_chapman_kolmogorov_times_pass(self, capsys):
        # at s = 1e-6, t = 1000 the hull of the two kernels' windows needed
        # 1.19e5 panels; the product's envelope is as narrow as p_s
        argv = ["semigroup-check", "--t", "1e-6,1000", "--coords", "1", "--reproducible"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        ck = [line for line in out.splitlines() if line.startswith('{"claim_id":"chapman_kolmogorov"')]
        # the pairs (s, t) with s <= t, and y = x and y = -x
        assert len(ck) == 3 * 2
        assert any('"grid_point":[1e-06,1000.0,' in line for line in ck)

    def test_gaussian_chapman_kolmogorov_across_the_origin_passes(self, capsys):
        # at kappa = 0 the row y = -x = -33 has its mass at v = 0, 30 sigma
        # below the inner edge of the window around |x|
        argv = ["semigroup-check", "--kappa", "0", "--t", "1", "--coords", "33", "--reproducible"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err == ""
        assert '"grid_point":[1.0,1.0,[33.0],[-33.0]]' in out

    def test_semigroup_check_rows_match_their_sign_flips(self, capsys):
        # each row reads its coordinate integrals at the sign flip's orbit
        # representatives, so a row and every flip of the same axes of its
        # points, all on the symmetric default grid, have one text
        code, out, _ = run_cli(["semigroup-check", "--reproducible"], capsys)
        assert code == 0
        _, rows = parse_jsonl(out)

        def flip(g, z):
            return tuple(gi * zi + 0.0 for gi, zi in zip(g, z))

        def text(row):
            return repr(row["lhs"]), repr(row["deficit"])

        mass, ck = {}, {}
        for r in rows:
            if r["claim_id"] == "kernel_normalization":
                t, x = r["grid_point"]
                mass[t, flip((1.0, 1.0), x)] = text(r)
            elif r["claim_id"] == "chapman_kolmogorov":
                s, t, x, y = r["grid_point"]
                # -0.0 keyed as 0.0: the rows x = 0, y = -x and y = x agree
                key = s, t, flip((1.0, 1.0), x), flip((1.0, 1.0), y)
                assert ck.setdefault(key, text(r)) == text(r)
        assert len(mass) == 100 and len(ck) == 350 - 7
        for g in itertools.product((1.0, -1.0), repeat=2):
            assert all(mass[t, flip(g, x)] == want for (t, x), want in mass.items()), g
            assert all(ck[s, t, flip(g, x), flip(g, y)] == want for (s, t, x, y), want in ck.items()), g

    @pytest.mark.xfail(
        strict=True,
        reason="false violation: heat_residual forms p(z, y) / p(x, y) as the exp of a difference of"
        " two logs of size 20-60, which rounds coarsely next to the reflection's delta ~ x.y / t; the"
        " residual grows about linearly in t, and four rows such as x = (-3, -1), y = -x read 1.16e-7"
        " against their 1e-7 bound (ROADMAP item 19)",
    )
    def test_heat_equation_at_a_large_time_passes(self, capsys):
        # the heat equation holds exactly at every t
        code, out, err = run_cli(["semigroup-check", "--t", "1e8", "--reproducible"], capsys)
        assert code == 0
        _, rows = parse_jsonl(out)
        assert all(row["pass"] for row in rows)

    @pytest.mark.parametrize(
        "argv, cause",
        [
            # no tilt of the documented domain trips the moment range check,
            # so the RuntimeError comes from a stubbed Jacobi branch
            (["--kappa", "0.5", "--t", "1", "--coords=-1,1"], "RuntimeError"),
            (["--kappa", "200", "--t", "0.01", "--coords=-3,3"], "OverflowError"),
        ],
    )
    def test_numerical_failure_returns_four_with_grid_point(self, monkeypatch, capsys, argv, cause):
        if cause == "RuntimeError":

            def r1_out_of_range(a_sub, kappa):
                return np.stack([np.zeros(a_sub.size), np.full(a_sub.size, 1.5), np.zeros(a_sub.size)])

            monkeypatch.setattr(kernel, "_MOMENT_CACHE", {})
            monkeypatch.setattr(kernel, "_certified_jacobi", r1_out_of_range)
        code, out, err = run_cli(["liyau-scan", *argv], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith(f"numerical failure: {cause}")
        assert "[grid point [" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["solution-scan", "--kappa", "1e-8", "--t", "1e-4", "--coords", "1"],
            ["solution-scan", "--kappa", "1e-8", "--t", "1e-4,0.01", "--coords=-3,-1,0,1,3"],
            ["liyau-scan", "--kappa", "0.5", "--t", "1e-7", "--coords=-10,0,10"],
            # a = 5e11: r1 rounds to -1 at kappa = 1e-8
            ["liyau-scan", "--kappa", "1e-8", "--t", "1e-6", "--coords=-1000,0,1000"],
        ],
    )
    def test_far_tilts_keep_their_moments(self, capsys, argv):
        # tilts of 5e3 to 5e11, where the variance kappa/a^2 lies below the
        # rounding of m2/m0 and r1^2
        code, out, err = run_cli([*argv, "--reproducible"], capsys)
        assert code == 0
        assert err == ""
        assert out

    @pytest.mark.parametrize(
        "argv, where",
        [
            (["--kappa", "0.5", "--t", "1", "--coords", "1e200"], "u = 1e+200, t = 1.0"),
            (["--kappa", "0", "--t", "1e-300", "--coords", "1"], "u = 1.0, t = 1e-300"),
        ],
    )
    def test_window_lost_to_rounding_returns_three_with_grid_point(self, capsys, argv, where):
        code, out, err = run_cli(["semigroup-check", *argv], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith(f"convergence failure: integration window lost to rounding at {where}:")
        assert err.endswith("]]]\n") and "[grid point [" in err

    @pytest.mark.parametrize(
        "argv, point",
        [
            # sigma = sqrt(2t) overflows to inf, so the panel width is inf/inf
            (["semigroup-check", "--t", "1e308"], "[grid point [1e+308, [-3.0, -3.0]]]"),
            # the window rounds away, and the whole-support fallback's graded
            # panels would start 1.4e-150 from |v| = 1, below one ulp there
            (
                ["solution-scan", "--kappa", "0.5", "--t", "1e-300", "--coords", "1"],
                "[grid point [1e-300, [1.0]]]",
            ),
        ],
    )
    def test_unplaceable_panels_return_three_with_grid_point(self, capsys, argv, point):
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("convergence failure: panel layout over [")
        assert err.endswith(f"{point}\n") and err.count("\n") == 1

    # a numpy warning would print to stderr outside pytest
    @pytest.mark.filterwarnings("error")
    def test_subnormal_graded_panels_underflow_without_warnings(self, capsys):
        # at kappa = 0 the piece of the support ending at v = 0 is graded
        # towards 0, where 2t/gap underflows: no panel starts below the
        # smallest normal width, so no half-width rounds to 0
        argv = ["solution-scan", "--kappa", "0", "--t", "1e-300", "--coords", "1e150"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err == (
            "convergence failure: solution mass underflowed at u = 1e+150, t = 1e-300: the point is"
            " too far from the support for double precision [grid point [1e-300, [1e+150]]]\n"
        )

    def test_non_finite_report_field_returns_four_with_grid_point(self, capsys, monkeypatch):
        # every row's report is built at its grid point, so a non-finite
        # field is a numerical failure there, not a configuration error
        # the heat-equation rows of one time come from one n-point call
        residual = cli.heat_residual

        def infinite(t, x, y, kappa):
            return np.full(len(x), math.inf) if np.ndim(x) == 2 else residual(t, x, y, kappa)

        monkeypatch.setattr(cli, "heat_residual", infinite)
        code, out, err = run_cli(["semigroup-check", "--t", "1", "--coords", "0,1"], capsys)
        assert (code, out) == (4, "")
        assert err == (
            "numerical failure: FloatingPointError: report field lhs is not finite"
            " [grid point [1.0, [0.0, 0.0], [1.0, 1.0]]]\n"
        )

    @pytest.mark.parametrize("output_format", ["json-lines", "csv"])
    def test_non_finite_value_returns_four_and_writes_nothing(self, capsys, tmp_path, output_format):
        # the tilt a = u v / (2t) overflows to inf at u = v = 1e200
        argv = ["liyau-scan", "--kappa", "0", "--t", "1", "--coords", "1e200", "--format", output_format]
        want = (
            "numerical failure: FloatingPointError: Li-Yau a is not finite at u = 1e+200,"
            " v = 1e+200, t = 1.0 [grid point [1.0, [1e+200], [1e+200]]]\n"
        )
        assert run_cli([*argv, "--reproducible"], capsys) == (4, "", want)
        target = tmp_path / "rows"
        assert run_cli([*argv, "--out", str(target)], capsys) == (4, "", want)
        assert not target.exists()
        # an --out file that is there already keeps its bytes
        target.write_bytes(b"earlier output\n")
        assert run_cli([*argv, "--out", str(target)], capsys) == (4, "", want)
        assert target.read_bytes() == b"earlier output\n"

    def test_report_stops_at_the_overflowed_tilt_as_liyau_scan_does(self, capsys):
        # report renders no Li-Yau row, so the refusal cannot wait for the
        # JSON encoder
        args = ["--kappa", "0", "--t", "1", "--coords", "1e200", "--reproducible"]
        want = run_cli(["liyau-scan", *args], capsys)
        assert want[0] == 4
        assert run_cli(["report", *args], capsys) == want

    @pytest.mark.parametrize("augment", ["0", "1"])
    @pytest.mark.parametrize("output_format", ["json-lines", "csv"])
    def test_overflowing_row_sum_returns_four_and_writes_nothing(
        self, capsys, tmp_path, output_format, augment
    ):
        # each coordinate's i_value is about -1e308, finite, but the sum of
        # three overflows; the --augment point comes before it and passes
        argv = ["liyau-scan", "--kappa", "0.5,0.5,0.5", "--t", "1e-308", "--coords", "0"]
        argv += ["--augment", augment, "--format", output_format]
        want = (
            "numerical failure: FloatingPointError: Li-Yau lhs is not finite"
            " [grid point [1e-308, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]]\n"
        )
        assert run_cli([*argv, "--reproducible"], capsys) == (4, "", want)
        target = tmp_path / "rows"
        assert run_cli([*argv, "--out", str(target)], capsys) == (4, "", want)
        assert not target.exists()

    @pytest.mark.parametrize("output_format", ["json-lines", "csv"])
    def test_overflowing_row_sum_inside_a_block_returns_four_and_writes_nothing(
        self, capsys, tmp_path, output_format
    ):
        # every coordinate term is finite, and the rows whose y has four
        # coordinates 1.33e54 sum their deficits to 1.6e308; the first row
        # with all five, row 31 of the first block, overflows
        argv = ["liyau-scan", "--kappa=3,3,3,3,3", "--t=1e-100", "--coords=0,1.33e54"]
        argv += ["--format", output_format]
        want = (
            "numerical failure: FloatingPointError: Li-Yau lhs is not finite [grid point [1e-100,"
            " [0.0, 0.0, 0.0, 0.0, 0.0], [1.33e+54, 1.33e+54, 1.33e+54, 1.33e+54, 1.33e+54]]]\n"
        )
        assert run_cli([*argv, "--reproducible"], capsys) == (4, "", want)
        target = tmp_path / "rows"
        assert run_cli([*argv, "--out", str(target)], capsys) == (4, "", want)
        assert not target.exists()

    def test_grid_failure_names_the_first_grid_point_that_stops(self, capsys):
        # the kappa = 200 table overflows; its first entry is on axis 1
        code, _, err = run_cli(
            ["liyau-scan", "--kappa", "0.5,200", "--t", "0.01", "--coords=-3,0,3"], capsys
        )
        assert code == 4
        assert err == (
            "numerical failure: OverflowError: math range error "
            "[grid point [0.01, [-3.0, -3.0], [-3.0, -3.0]]]\n"
        )

    def test_augment_failure_names_the_first_augment_point_that_stops(self, capsys):
        # the --augment points are evaluated in one batch; augment points 1
        # and 2 both overflow (kappa = 1000 Laguerre rules), and the first is
        # named
        argv = ["liyau-scan", "--kappa", "1000", "--t", "1", "--coords", "0", "--augment", "3"]
        code, out, err = run_cli([*argv, "--reproducible"], capsys)
        assert code == 4
        assert out == ""
        assert err == (
            "numerical failure: OverflowError: math range error [grid point "
            "[0.07958454908395947, [-3.9966743017754913], [7.471068907925236]]]\n"
        )

    def test_harnack_failure_names_the_first_tuple_that_stops(self, capsys):
        # the kappa = 1000 Gauss-Jacobi panel rule overflows at every point;
        # the batch fails, and the first tuple in draw order is named
        code, out, err = run_cli(["harnack-scan", "--kappa", "1000", "--reproducible"], capsys)
        assert code == 4
        assert out == ""
        assert err == (
            "numerical failure: OverflowError: math range error [grid point [0.6495672292688088,"
            " [1.3784284512259677], 4.732510335897177, [-1.3739640500470407]]]\n"
        )

    def test_harnack_batch_failure_is_replayed_in_draw_order(self, capsys, monkeypatch):
        # the points of the n-point read that fills the field, in order
        evaluated = []

        def recorded(datum, kappa):
            u = semigroup_solution(datum, kappa)

            def log_value(t, x):
                if not evaluated:
                    evaluated.extend(zip(np.broadcast_to(t, len(x)).tolist(), np.asarray(x).tolist()))
                return u.log_value(t, x)

            return dataclasses.replace(u, log_value=log_value)

        monkeypatch.setattr(cli, "semigroup_solution", recorded)
        argv = ["harnack-scan", "--kappa", "0.5", "--augment", "20", "--reproducible"]
        assert run_cli(argv, capsys)[0] == 0
        # the (t, y) of tuple 7 and the (s, x) of tuple 12 stop the kernel;
        # the batch fails at whichever it meets first, and the replay names
        # tuple 7, the first in draw order
        (s7, x7), (t7, y7) = evaluated[7], evaluated[20 + 7]
        (s12, x12), (t12, y12) = evaluated[12], evaluated[20 + 12]
        bad = {y7[0], x12[0]}
        kernel = semigroup.kernel_derivatives_1d_batch

        def failing(t, u, v, kappa_i):
            if bad & set(np.atleast_1d(u).tolist()):
                raise OverflowError("boom")
            return kernel(t, u, v, kappa_i)

        monkeypatch.setattr(semigroup, "kernel_derivatives_1d_batch", failing)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (4, "")
        assert err == f"numerical failure: OverflowError: boom [grid point {[s7, list(x7), t7, list(y7)]}]\n"

    @pytest.mark.parametrize("kappa", ["0.5,1.5", "1e-8,3", "20,0.25"])
    @pytest.mark.parametrize("seed", ["5", "22"])
    def test_harnack_rows_from_batched_values_match_the_solution_field(self, capsys, monkeypatch, kappa, seed):
        # the same bits as a fresh field read one point at a time; seed 22
        # draws a time whose log(2t) differs by an ulp between math.log and
        # numpy's log
        argv = ["harnack-scan", "--kappa", kappa, "--augment", "50", "--seed", seed, "--reproducible"]
        code, out, _ = run_cli(argv, capsys)

        monkeypatch.setattr(cli, "semigroup_solution", one_point_at_a_time)
        want_code, want, _ = run_cli(argv, capsys)
        assert code == want_code == 0
        rows, want_rows = parse_jsonl(out)[1], parse_jsonl(want)[1]
        assert len(rows) == len(want_rows) == 50
        assert rows == want_rows

    @pytest.mark.parametrize(
        "args", [[], ["--coords=-2,0.5,1.7", "--t", "0.05,2"], ["--kappa", "1e-8,3"]]
    )
    def test_solution_rows_from_the_batched_field_match_the_lazy_field(self, capsys, monkeypatch, args):
        # the second grid leaves the reflections of its points to the field's
        # misses; the reference is a fresh field read one point at a time
        argv = ["solution-scan", *args, "--reproducible"]
        code, out, _ = run_cli(argv, capsys)
        monkeypatch.setattr(cli, "semigroup_solution", one_point_at_a_time)
        want_code, want, _ = run_cli(argv, capsys)
        assert code == want_code == 0
        rows, want_rows = parse_jsonl(out)[1], parse_jsonl(want)[1]
        assert len(rows) == len(want_rows) > 0
        assert rows == want_rows

    def test_solution_batch_failure_is_replayed_in_grid_order(self, capsys, monkeypatch):
        # the kernel fails at u = 2 on both axes of the second datum; its
        # batch meets axis 0 first, at grid point [2, -1], and the replay
        # names the first grid point in loop order that stops, [-1, 2]
        argv = ["solution-scan", "--kappa", "0.5,1.5", "--t", "0.5", "--coords=-1,0,2", "--reproducible"]
        kernel = semigroup.kernel_derivatives_1d_batch
        data, raised = [], []

        def failing(t, u, v, kappa_i):
            if len(data) == 2 and 2.0 in np.atleast_1d(u).tolist():
                raised.append(kappa_i)
                raise OverflowError("boom")
            return kernel(t, u, v, kappa_i)

        def counted(datum, kappa):
            data.append(datum)
            return semigroup_solution(datum, kappa)

        monkeypatch.setattr(semigroup, "kernel_derivatives_1d_batch", failing)
        monkeypatch.setattr(cli, "semigroup_solution", counted)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (4, "")
        assert err == "numerical failure: OverflowError: boom [grid point [0.5, [-1.0, 2.0]]]\n"
        assert raised == [0.5, 1.5]

    def test_long_harnack_scan_keeps_every_kernel_call_within_the_chunk(self, capsys, monkeypatch):
        sizes = []
        kernel = semigroup.kernel_derivatives_1d_batch

        def counted(t, u, v, kappa_i):
            sizes.append(v.size)
            return kernel(t, u, v, kappa_i)

        monkeypatch.setattr(semigroup, "kernel_derivatives_1d_batch", counted)
        code, out, _ = run_cli(["harnack-scan", "--augment", "5000", "--reproducible"], capsys)
        assert code == 0
        assert out.count("\n") == 1 + 5000
        # 2 axes of 10,000 integrals each, in calls of at most _BATCH_NODES
        # nodes: far fewer calls than integrals
        assert max(sizes) <= semigroup._BATCH_NODES
        assert len(sizes) < 2 * 10_000 / 10

    @pytest.mark.parametrize("command", ["kernel-eval", "liyau-scan"])
    def test_tilt_overflow_returns_four_with_grid_point(self, capsys, command):
        # a = u v / (2t) overflows at u = v = 1e200: a numerical failure at
        # that point, not a configuration error
        argv = [command, "--kappa", "0.5", "--t", "1", "--coords", "1e200", "--reproducible"]
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: OverflowError: ")
        assert err.endswith("[grid point [1.0, [1e+200], [1e+200]]]\n")

    @pytest.mark.parametrize(
        "argv, want",
        [
            # 4t^2 underflows to 0, yet no term divides by it: every term
            # is finite and every row passes
            (["liyau-scan", "--kappa", "0.5", "--t", "1e-300", "--coords", "0"], (0, "")),
            (["semigroup-check", "--kappa", "0", "--t", "1e-300", "--coords", "0"], (0, "")),
            (["liyau-scan", "--kappa", "0", "--t", "1e-300", "--coords", "0"], (0, "")),
            (["kernel-eval", "--kappa", "0.5", "--t", "1e-300", "--coords", "0"], (0, "")),
            # x_i = 1e-100 is on the hyperplane; w^2 is finite at 1e-100
            # and at 1e-50 although v^2 and 4t^2 are not
            (["liyau-scan", "--kappa", "0.5", "--t", "1e-200", "--coords", "1e-100"], (0, "")),
            (["liyau-scan", "--kappa", "0.5", "--t", "1e-200", "--coords", "1e-50"], (0, "")),
            # d_t log p holds (v/2t)^2, past the float range at v = 1
            (
                ["kernel-eval", "--kappa", "0.5", "--t", "1e-200", "--coords", "0,1"],
                (
                    4,
                    "numerical failure: FloatingPointError: kernel point has non-finite entries"
                    " [grid point [1e-200, [0.0], [1.0]]]\n",
                ),
            ),
        ],
    )
    # a numpy warning would print to stderr outside pytest
    @pytest.mark.filterwarnings("error")
    def test_underflowed_time_fails_numerically_without_warnings(self, capsys, argv, want):
        code, out, err = run_cli([*argv, "--reproducible"], capsys)
        assert (code, err) == want
        # the JSON encoder refuses non-finite values, so the rows are finite
        rows = [json.loads(line) for line in out.splitlines()[1:]]
        assert all(row["pass"] for row in rows)
        for row in rows:
            if row["claim_id"] == "liyau_log_kernel" and not any(row["grid_point"][2]):
                # y = 0 is an equality case
                assert row["deficit"] == 0.0 and row["extra"]["equality"], row

    def test_claims_verify_numerical_failure_returns_four_with_grid_point(self, capsys):
        code, out, err = run_cli(["claims-verify", "--kappa", "200", "--reproducible"], capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("numerical failure: OverflowError")
        assert "[grid point [-200.0, 200.0]]" in err

    def test_claims_verify_h_failure_replays_to_its_grid_point(self, monkeypatch, capsys):
        # r1 escapes only at 0 < |a| <= 5, which no f tilt of the default grid reaches,
        # so the h batch fails and its replay names the first h grid point
        certified = kernel._certified_jacobi

        def r1_out_of_range(a_sub, kappa):
            out = certified(a_sub, kappa)
            out[1, (a_sub != 0.0) & (np.abs(a_sub) <= 5.0)] = 1.5
            return out

        monkeypatch.setattr(kernel, "_MOMENT_CACHE", {})
        monkeypatch.setattr(kernel, "_certified_jacobi", r1_out_of_range)
        code, out, err = run_cli(["claims-verify", "--kappa", "0.5,1.5", "--reproducible"], capsys)
        assert (code, out) == (4, "")
        assert err == (
            "numerical failure: RuntimeError: moment ratio r1 escaped [-1, 1] [grid point [-5.0, 0.5]]\n"
        )

    # A failure inside each batched point check is replayed point by point,
    # and the run ends as the point-by-point loop it replaced ended: the same
    # exit code and the same stderr, naming the first point in loop order.

    @staticmethod
    def _raising(monkeypatch, name):
        """Record each exception that the check cli.<name> raises when it is
        given n points, as an (n, d) array."""
        raised, check = [], getattr(cli, name)

        def recorded(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            except Exception as e:
                if any(np.ndim(arg) == 2 for arg in args):
                    raised.append(type(e).__name__)
                raise

        monkeypatch.setattr(cli, name, recorded)
        return raised

    @staticmethod
    def _solution_rows(monkeypatch, column, where, value):
        """Solution moments with one column set to value at the u where holds."""
        moments = semigroup._solution_moments

        def altered(t, u, kappa_i, profile):
            rows = moments(t, u, kappa_i, profile)
            rows[where(np.atleast_1d(u)), column] = value
            return rows

        monkeypatch.setattr(semigroup, "_solution_moments", altered)

    @staticmethod
    def _r1_escapes(monkeypatch, where):
        """r1 out of [-1, 1] at the Jacobi tilts where holds, from a cold memo."""
        certified = kernel._certified_jacobi

        def escaped(a_sub, kappa):
            out = certified(a_sub, kappa)
            out[1, where(a_sub)] = 1.5
            return out

        monkeypatch.setattr(kernel, "_MOMENT_CACHE", {})
        monkeypatch.setattr(kernel, "_certified_jacobi", escaped)

    def test_solution_liyau_batch_failure_at_a_reflection_replays_in_grid_order(self, capsys, monkeypatch):
        # u = -1.7 is off the grid: only the Li-Yau batch asks for it, at the
        # reflections of the points with a coordinate 1.7
        kernel_batch = semigroup.kernel_derivatives_1d_batch

        def failing(t, u, v, kappa_i):
            if -1.7 in np.atleast_1d(u).tolist():
                raise OverflowError("boom")
            return kernel_batch(t, u, v, kappa_i)

        monkeypatch.setattr(semigroup, "kernel_derivatives_1d_batch", failing)
        raised = self._raising(monkeypatch, "liyau_for_solution")
        argv = ["solution-scan", "--kappa", "0.5,1.5", "--coords=-2,0.5,1.7", "--t", "0.05,2", "--reproducible"]
        assert run_cli(argv, capsys) == (
            4, "", "numerical failure: OverflowError: boom [grid point [0.05, [-2.0, 1.7]]]\n"
        )
        assert raised == ["OverflowError"]

    def test_solution_gradient_batch_failure_replays_in_grid_order(self, capsys, monkeypatch):
        # d_t log u is infinite wherever a coordinate is 1.7: the Li-Yau rows
        # do not read it, the gradient-form rows fail
        self._solution_rows(monkeypatch, 3, lambda u: u == 1.7, math.inf)
        raised = self._raising(monkeypatch, "gradient_form_check")
        argv = ["solution-scan", "--kappa", "0.5,1.5", "--coords=-2,0.5,1.7", "--t", "0.05,2", "--reproducible"]
        assert run_cli(argv, capsys) == (
            4,
            "",
            "numerical failure: FloatingPointError: report field lhs is not finite"
            " [grid point [0.05, [-2.0, 1.7]]]\n",
        )
        assert raised == ["FloatingPointError"]

    def test_harnack_check_batch_failure_replays_in_draw_order(self, capsys, monkeypatch):
        # log u is NaN wherever a coordinate exceeds 2.3; the first tuple in
        # draw order with one has it in y, on the rhs
        self._solution_rows(monkeypatch, 0, lambda u: u > 2.3, math.nan)
        raised = self._raising(monkeypatch, "harnack_check")
        argv = ["harnack-scan", "--kappa", "0.5,1.5", "--augment", "40", "--reproducible"]
        assert run_cli(argv, capsys) == (
            4,
            "",
            "numerical failure: FloatingPointError: report field rhs is not finite [grid point"
            " [0.21445217928888138, [0.02274129478976672, 0.2674867603724622], 0.8885354952906549,"
            " [2.477501417171963, 1.4633095960687652]]]\n",
        )
        assert raised == ["FloatingPointError"]

    def test_log_convexity_batch_failure_replays_in_draw_order(self, capsys, monkeypatch):
        # r1 escapes at 5 < |a| < 7.5 off the f and h grids, which only the
        # log-convexity rows reach.  The diagonal batch runs first and fails
        # at a later draw, but the first row in draw order that stops is the
        # midpoint row of draw 1
        self._r1_escapes(monkeypatch, lambda a: (np.abs(a) > 5.0) & (np.abs(a) < 7.5) & (a != np.round(a, 1)))
        raised = self._raising(monkeypatch, "log_convexity_check")
        code, out, err = run_cli(["claims-verify", "--reproducible"], capsys)
        assert (code, out) == (4, "")
        assert err == (
            "numerical failure: RuntimeError: moment ratio r1 escaped [-1, 1] [grid point"
            " [0.8627200784746581, [0.04548258957953344, 0.5349735207449244],"
            " [4.955002834343926, 2.9266191921375304], [-2.451304123458754, -0.5492369411735343]]]\n"
        )
        assert raised == ["RuntimeError"]

    @pytest.mark.parametrize("tilt", [-0.5, 0.5])
    def test_heat_residual_batch_failure_replays_in_grid_order(self, capsys, monkeypatch, tilt):
        # at t = 1 the heat rows pair x with -x: the derivative batch at x
        # takes the tilts -x_i^2 / 2, the flipped coordinates +x_i^2 / 2, and
        # no normalization or Chapman-Kolmogorov row reaches either
        self._r1_escapes(monkeypatch, lambda a: a == tilt)
        raised = self._raising(monkeypatch, "heat_residual")
        assert run_cli(["semigroup-check", "--reproducible"], capsys) == (
            4,
            "",
            "numerical failure: RuntimeError: moment ratio r1 escaped [-1, 1]"
            " [grid point [1.0, [-3.0, -1.0], [3.0, 1.0]]]\n",
        )
        assert raised == ["RuntimeError"]


class TestLiYauGrid:
    """Grid rows of liyau-scan come from per-(t, kappa_i) coordinate tables;
    each must be the row liyau_functional gives at the same point."""

    @pytest.mark.parametrize(
        "kappa, t_grid, coords",
        [
            ("0.5", "1,0.1,1", "3,-0.0,0,1.5e-7,10,3,-1"),
            ("0,1.5", "10,0.01", "-0.0,1.5e-7,10,10,0"),
            ("0.5,0,2", "1,0.1", "1.5e-7,-0.0,10,-1"),
        ],
    )
    def test_grid_rows_equal_rows_built_pointwise(self, capsys, kappa, t_grid, coords):
        argv = ["liyau-scan", f"--kappa={kappa}", f"--t={t_grid}", f"--coords={coords}"]
        code, out, _ = run_cli([*argv, "--reproducible"], capsys)
        assert code == 0
        lines = out.splitlines()[1:]
        kappa_values = [float(k) for k in kappa.split(",")]
        n = len(coords.split(","))
        assert len(lines) == len(t_grid.split(",")) * n ** (2 * len(kappa_values))
        points = [json.loads(line)["grid_point"] for line in lines]
        # each row is the row of liyau_functional at its point, bit for bit
        for line, dec in zip(lines, (liyau_functional(*p, kappa_values) for p in points), strict=True):
            # JSON text compares every float to the bit, signed zeros too
            assert line == cli._COMPACT_JSON.encode(_liyau_row(dec, 1e-9))

    def test_grid_evaluates_each_coordinate_term_once(self, monkeypatch, capsys):
        terms = collections.Counter()
        pointwise = []
        original = inequalities._liyau_terms

        def counting(t, u, v, kappa_i, *rest):
            for pair in zip(u.tolist(), v.tolist()):
                terms[(kappa_i, *pair)] += 1
            return original(t, u, v, kappa_i, *rest)

        monkeypatch.setattr(cli, "_liyau_terms", counting)
        monkeypatch.setattr(cli, "liyau_functional", lambda *a: pointwise.append(a))
        argv = ["liyau-scan", "--kappa", "0.5,1.5,0.25", "--t", "0.5", "--coords=-1,0,1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 3**6
        assert len(terms) == 3 * 9
        assert set(terms.values()) == {1}
        assert pointwise == []

    @pytest.mark.parametrize("output_format", ["json-lines", "csv"])
    @pytest.mark.parametrize("command", ["liyau-scan", "kernel-eval"])
    @pytest.mark.parametrize(
        "kappa, t_grid, coords, augment, tol",
        [
            # unsorted and duplicated times, duplicated coordinates, -0.0
            # next to 0.0: rows of equal keys must keep their generation order
            pytest.param("0.5", "1,0.1,1", "3,-0.0,0,1.5e-7,3,-1", 0, 1e-9, id="0.5-1,0.1,1-3,-0.0,0,1.5e-7,3,-1-0"),
            pytest.param("0.5,1.5", "1,1,0.5", "0,-0.0,0,1", 30, 1e-9, id="0.5,1.5-1,1,0.5-0,-0.0,0,1-30"),
            pytest.param("0,2", "0.1,0.1", "-0.0,1,0,-0.0", 4, 1e-9, id="0,2-0.1,0.1--0.0,1,0,-0.0-4"),
            # a tol other than the default, a Gaussian axis beside a
            # reflecting one, equality rows (y = 0) beside the others
            ("1.5,0", "0.5,2", "0,-2,1,-0.0", 5, 1e-3),
            # the time of the third --augment point at seed 3, from a first
            # run, so that row falls inside a block of grid rows of its
            # time; 625 rows a time, so blocks end inside a time group
            pytest.param(
                "0.5,1.5", "1,0.36720853082526783", "-3,-1,0,1,3", 4, 1e-9, id="augment-time-on-the-grid"
            ),
        ],
    )
    def test_output_is_the_sorted_generation_order(
        self, capsys, output_format, command, kappa, t_grid, coords, augment, tol
    ):
        seed = 3
        argv = [command, f"--kappa={kappa}", f"--t={t_grid}", f"--coords={coords}", f"--tol={tol}"]
        argv += ["--augment", str(augment), "--seed", str(seed), "--format", output_format]
        code, out, _ = run_cli([*argv, "--reproducible"], capsys)
        assert code == 0
        kappa_values = [float(k) for k in kappa.split(",")]
        points = list(itertools.product([float(c) for c in coords.split(",")], repeat=len(kappa_values)))
        # the reference: rows in generation order (t position, x index, y
        # index, then the --augment points), stably sorted by claim id and
        # grid point
        rows = []
        for t in [float(v) for v in t_grid.split(",")]:
            for x, y in itertools.product(points, repeat=2):
                rows.append(_grid_row(command, t, x, y, kappa_values, tol))
        if command == "liyau-scan":
            rng = np.random.default_rng(seed)
            for _ in range(augment):
                t = float(10.0 ** rng.uniform(-2.0, 2.0))
                x = tuple(float(v) for v in rng.uniform(-10.0, 10.0, len(kappa_values)))
                y = tuple(float(v) for v in rng.uniform(-10.0, 10.0, len(kappa_values)))
                rows.append(_grid_row(command, t, x, y, kappa_values, tol))
            augment_points = [row["grid_point"] for row in rows[len(rows) - augment :]]
            equality = [row["extra"]["equality"] for row in rows]
            assert any(equality) and not all(equality)
        rows = sorted(rows, key=lambda row: (row["claim_id"], row["grid_point"]))
        assert {row["tol"] for row in rows} == {tol}
        if command == "liyau-scan":
            # an --augment row falls between grid rows of its own time
            # exactly when its time is on the grid
            grid_times = {float(v) for v in t_grid.split(",")}
            order = [row["grid_point"] for row in rows]
            for t, x, y in augment_points:
                i = order.index((t, x, y))
                inside = 0 < i < len(order) - 1 and order[i - 1][0] == t == order[i + 1][0]
                assert inside == (t in grid_times)
        encode = cli._COMPACT_JSON.encode
        if output_format == "json-lines":
            want = [encode(row) for row in rows]
            assert out.splitlines()[1:] == want
            return
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["claim_id"],
                    encode(row["grid_point"]),
                    repr(row["lhs"]),
                    repr(row["rhs"]),
                    repr(row["deficit"]),
                    repr(row["tol"]),
                    "pass" if row["pass"] else "fail",
                    encode(row["extra"]),
                ]
            )
        assert out.splitlines()[1:] == buffer.getvalue().splitlines()

    @pytest.mark.parametrize("augment", ["0", "300"])
    def test_grid_rows_are_not_sorted(self, monkeypatch, capsys, augment):
        keys, blocks = [], []
        original, liyau_block = cli._sort_key, cli._liyau_block

        def counting(row):
            keys.append(row.grid_point)
            return original(row)

        def recorded(*args):
            block = liyau_block(*args)
            blocks.append(len(block.passed))
            return block

        monkeypatch.setattr(cli, "_sort_key", counting)
        monkeypatch.setattr(cli, "_liyau_block", recorded)
        argv = ["liyau-scan", "--kappa=0.5,1.5,0.25", "--t=0.5", "--coords=-1,0,1", "--augment", augment]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 3**6 + int(augment)
        # no row is keyed: the --augment rows go where the sorted grid values
        # put them, and the grid rows come a block at a time
        assert keys == []
        if augment == "0":
            assert blocks == [256, 256, 217]
        else:
            assert sum(blocks) == 3**6 + 300 and max(blocks) <= 256

    def test_one_table_per_distinct_time_and_multiplicity(self, monkeypatch, capsys):
        builds = collections.Counter()
        original = cli._liyau_terms

        def counting(t, u, v, kappa_i):
            # the --augment terms, of no points here, are not a table
            if len(t):
                builds[(*set(t.tolist()), kappa_i)] += 1
            return original(t, u, v, kappa_i)

        monkeypatch.setattr(cli, "_liyau_terms", counting)
        argv = ["liyau-scan", "--kappa", "0.5,1.5,0.25", "--t", "0.5,0.5", "--coords=-1,0,1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert len(out.splitlines()) == 1 + 2 * 3**6
        assert builds == {(0.5, 0.5): 1, (0.5, 1.5): 1, (0.5, 0.25): 1}


def _grid_row(command, t, x, y, kappa, tol):
    """The row of one (t, x, y) point, evaluated on its own."""
    if command == "liyau-scan":
        return _liyau_row(liyau_functional(t, x, y, kappa), tol)
    kp = log_kernel_derivatives(t, x, y, kappa)
    report = VerificationReport.build("kernel_point", (t, x, y), lhs=kp.log_p, rhs=kp.log_p, tolerance=tol)
    extra = {
        "p": kp.p if math.isfinite(kp.p) else None,
        "grad_x_log_p": kp.grad_x_log_p.tolist(),
        "hess_diag_x_log_p": kp.hess_diag_x_log_p.tolist(),
        "dt_log_p": kp.dt_log_p,
    }
    return _row(report, extra)


# Reference rows as dicts in column order, for the JSON encoder: built from
# the library's reports on their own, never through the CLI's renderer.


def _row(report, extra):
    return {
        "claim_id": report.claim_id,
        "grid_point": report.grid_point,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "deficit": report.deficit,
        "tol": report.tolerance,
        "pass": report.passed,
        "extra": extra,
    }


def _liyau_row(dec, tol):
    report = dec.report(tol)
    coordinates = dec.coordinates
    extra = {
        "equality": bool(report.deficit <= 1e-8),
        "a": [c.a for c in coordinates],
        "variance_term": [c.variance_term for c in coordinates],
        "f_value": [c.f_value for c in coordinates],
        "i_value": [c.i_value for c in coordinates],
    }
    return _row(report, extra)
