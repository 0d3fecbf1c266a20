"""Acceptance gate: eight checks that certify the library end to end.

Each check is one test, run in order, printing a single PASS line with its
headline numbers (visible with pytest -s; pytest -v shows the verdict per
check either way).  Tolerances and the two runtime budgets are pinned here
and nowhere else; loosening them is an API break, not a test fix.
"""

import itertools
import json
import math
import time

import numpy as np

import _oracles as oracle
from _oracles import exp_field, gaussian_field, positive_poly_field

from dunklheat.cli import main as cli_main
from dunklheat.inequalities import (
    DEFAULT_TIMES,
    f_of_a,
    h_of_a,
    liyau_coordinate_table,
    liyau_functional,
    liyau_grid_extrema,
    log_convexity_check,
    log_convexity_midpoint_check,
)
from dunklheat.kernel import (
    log_e_kappa,
    log_gaussian_mass,
    log_kernel,
    moment_ratios,
)
from dunklheat.operators import PSI_CUBE, PSI_EXP, PSI_LOG, PSI_SQUARE, chain_rule_residual, pi_psi
from dunklheat.semigroup import chapman_kolmogorov_check, heat_residual, normalization_check

KAPPA_GRID = (0.25, 0.5, 1.0, 2.5)
SCAN_TIMES = (0.01, 0.1, 1.0, 10.0)
SCAN_COORDS = (-3.0, -1.0, 0.0, 1.0, 3.0)
SCAN_KAPPA = {1: (0.5,), 2: (0.5, 1.5)}


def _grid_points(coords, d):
    return [tuple(p) for p in itertools.product(coords, repeat=d)]


def _parse_rows(path):
    lines = path.read_text().splitlines()
    return [json.loads(line) for line in lines[1:]]


def test_01_gaussian_equality_anchor(tmp_path):
    """kappa = 0 reduces to the classical kernel, where the bound is the
    exact identity -Delta log p = d/(2t): every scan deficit vanishes."""
    start = time.perf_counter()
    worst = 0.0
    # the deficit over any product grid is a sum of per-coordinate table
    # entries, so the tables certify every point for d = 1, 2, 3 at once
    for t in SCAN_TIMES:
        table = liyau_coordinate_table(t, 0.0, coords=SCAN_COORDS)
        worst = max(worst, 3 * float(np.abs(table.deficit).max()))
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for _ in range(10):
            t = float(10.0 ** rng.uniform(-2.0, 1.0))
            x = rng.uniform(-3.0, 3.0, d)
            y = rng.uniform(-3.0, 3.0, d)
            worst = max(worst, abs(liyau_functional(t, x, y, (0.0,) * d).deficit))
    # the low dimensions also go through the CLI artifact end to end
    for d in (1, 2):
        out = tmp_path / f"k0_d{d}.jsonl"
        code = cli_main(
            ["liyau-scan", "--kappa", ",".join(["0"] * d), "--out", str(out), "--reproducible"]
        )
        assert code == 0
        rows = _parse_rows(out)
        assert len(rows) == len(SCAN_TIMES) * len(SCAN_COORDS) ** (2 * d)
        worst = max(worst, max(abs(r["deficit"]) for r in rows))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"check 1 gaussian equality anchor: PASS (max |deficit| {worst:.2e}, {elapsed:.2f}s)")


def test_02_liyau_bound_product_grids():
    """The main bound over every multiplicity tuple from the reference
    grid, d in {1, 2}: no deficit below -1e-9, equality attained at y = 0."""
    start = time.perf_counter()
    worst_min = math.inf
    worst_y0 = -math.inf
    n_points = 0
    for d in (1, 2):
        for kappa in itertools.product(KAPPA_GRID, repeat=d):
            for t in DEFAULT_TIMES:
                ext = liyau_grid_extrema(t, kappa)
                n_points += ext.n_points
                worst_min = min(worst_min, ext.min_deficit)
                worst_y0 = max(worst_y0, ext.max_deficit_y0)
    elapsed = time.perf_counter() - start
    assert worst_min >= -1e-9
    assert worst_y0 <= 1e-8
    assert elapsed < 60.0
    print(
        f"check 2 li-yau bound: PASS ({n_points} points, min deficit {worst_min:.2e}, "
        f"max at y=0 {worst_y0:.2e}, {elapsed:.2f}s)"
    )


def test_03_scalar_ingredient_claims():
    """The three scalar facts the bound's proof runs on: f >= 0 with
    f(0) = 0, h odd and nondecreasing, tilted variance nonnegative."""
    a_grid = np.linspace(-200.0, 200.0, 41)
    worst_f = math.inf
    for k in KAPPA_GRID:
        assert f_of_a(0.0, k) == 0.0
        for a in a_grid:
            worst_f = min(worst_f, f_of_a(float(a), k))
    assert worst_f >= -1e-10

    h_grid = np.linspace(-5.0, 5.0, 101)
    worst_odd = 0.0
    for k in KAPPA_GRID:
        values = [h_of_a(float(a), k) for a in h_grid]
        for a, ha in zip(h_grid, values):
            worst_odd = max(worst_odd, abs(ha + h_of_a(-float(a), k)))
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))
    assert worst_odd <= 1e-10

    worst_var = math.inf
    for k in KAPPA_GRID:
        for a in np.concatenate([a_grid, [-1e4, -500.0, 500.0, 1e4]]):
            worst_var = min(worst_var, moment_ratios(float(a), k).variance)
    assert worst_var >= 0.0
    print(
        f"check 3 scalar ingredients: PASS (min f {worst_f:.2e}, odd defect {worst_odd:.2e}, "
        f"min variance {worst_var:.2e})"
    )


def test_04_kernel_identities():
    """Symmetry, normalization, the semigroup law, the heat equation, and
    the reflection-distance upper bound, on the standard grid for d in
    {1, 2}."""
    worst_sym = 0.0
    worst_norm = 0.0
    worst_ck = 0.0
    worst_heat = 0.0
    worst_gap = math.inf
    for d, kappa in SCAN_KAPPA.items():
        points = _grid_points(SCAN_COORDS, d)
        lam = sum(kappa)
        log_c = sum(log_gaussian_mass(k) for k in kappa)
        for t in SCAN_TIMES:
            for x in points:
                for y in points:
                    lp = log_kernel(t, x, y, kappa)
                    worst_sym = max(worst_sym, abs(lp - log_kernel(t, y, x, kappa)))
                    delta2 = sum(
                        min((xi - yi) ** 2, (xi + yi) ** 2) for xi, yi in zip(x, y)
                    )
                    log_bound = -log_c - (d / 2.0 + lam) * math.log(2.0 * t) - delta2 / (4.0 * t)
                    worst_gap = min(worst_gap, log_bound - lp)
            for x in points:
                report = normalization_check(t, x, kappa)
                worst_norm = max(worst_norm, abs(report.lhs - 1.0))
            for x, y in zip(points, reversed(points)):
                worst_heat = max(worst_heat, heat_residual(t, x, y, kappa))
        pairs = [(t, t) for t in SCAN_TIMES]
        pairs += list(zip(SCAN_TIMES[:-1], SCAN_TIMES[1:]))
        for s, t in pairs:
            for x in points:
                for y in (x, tuple(-v for v in x)):
                    report = chapman_kolmogorov_check(s, t, x, y, kappa)
                    worst_ck = max(worst_ck, -report.deficit)
    assert worst_sym <= 1e-10
    assert worst_norm <= 1e-8
    assert worst_ck <= 1e-6
    assert worst_heat <= 1e-7
    assert worst_gap >= -1e-12
    print(
        f"check 4 kernel identities: PASS (sym {worst_sym:.1e}, norm {worst_norm:.1e}, "
        f"semigroup {worst_ck:.1e}, heat {worst_heat:.1e}, min log-gap {worst_gap:.2e})"
    )


def test_05_chain_rule_and_concavity_defect():
    """The difference-operator chain rule on a 12-pair corpus (three fields,
    two of them not reflection invariant, composed with log, exp, square,
    cube), and the log defect's sign at every evaluation."""
    kappa = (0.5, 1.5)
    fields = (exp_field(), positive_poly_field(), gaussian_field())
    psis = (PSI_LOG, PSI_EXP, PSI_SQUARE, PSI_CUBE)
    points = [(0.7, -1.2), (1.3, 0.4), (0.0, 1.1)]
    n_pairs = 0
    worst_res = 0.0
    worst_sign = -math.inf
    for f in fields:
        for psi in psis:
            n_pairs += 1
            for x in points:
                res = chain_rule_residual(f, psi, x, kappa)
                worst_res = max(worst_res, abs(res.lhs - res.rhs) / res.scale)
        for x in points:
            worst_sign = max(worst_sign, pi_psi(f, PSI_LOG, x, kappa))
    assert n_pairs >= 10
    assert worst_res <= 1e-8
    assert worst_sign <= 1e-15
    print(
        f"check 5 chain rule: PASS ({n_pairs} pairs, worst residual {worst_res:.2e}, "
        f"max log defect {worst_sign:.2e})"
    )


def test_06_solution_bounds_and_harnack(tmp_path):
    """The bound and the gradient form for semigroup solutions from three
    compactly supported product data (two-bump included) across the three
    multiplicity configurations, then the two-point Harnack comparison on
    200 seeded random tuples."""
    for kappa_arg in ("0.5", "1.5", "0.5,1.5"):
        d = kappa_arg.count(",") + 1
        out = tmp_path / f"solutions_{kappa_arg.replace(',', '_')}.jsonl"
        code = cli_main(["solution-scan", "--kappa", kappa_arg, "--out", str(out), "--reproducible"])
        assert code == 0
        rows = _parse_rows(out)
        assert len(rows) == 3 * len(SCAN_TIMES) * len(SCAN_COORDS) ** d * 2
        assert all(r["pass"] for r in rows)
        assert {r["claim_id"] for r in rows} == {"liyau_solution", "gradient_form"}
        assert {r["extra"]["datum"] for r in rows} == {"bump", "offset_bump", "two_bump"}
        lam = sum(float(k) for k in kappa_arg.split(","))
        for r in rows:
            if r["claim_id"] == "gradient_form":
                t = r["grid_point"][0]
                assert r["rhs"] == (d + 2.0 * lam) / (2.0 * t)
    out = tmp_path / "harnack.jsonl"
    code = cli_main(["harnack-scan", "--kappa", "0.5,1.5", "--out", str(out), "--reproducible"])
    assert code == 0
    rows = _parse_rows(out)
    assert len(rows) == 200
    assert all(r["claim_id"] == "harnack" and r["pass"] for r in rows)
    margin = min(r["deficit"] for r in rows)
    print(f"check 6 solutions and harnack: PASS (200 tuples, smallest harnack margin {margin:.2e})")


def test_07_log_convexity():
    """Diagonal Hessian entries of the normalized log-kernel stay above
    -1e-10 and midpoint convexity holds on 100 random pairs."""
    rng = np.random.default_rng(23)
    worst_diag = math.inf
    worst_mid = math.inf
    for _ in range(100):
        d = int(rng.integers(1, 3))
        kappa = tuple(float(rng.choice(KAPPA_GRID)) for _ in range(d))
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        x = rng.uniform(-5.0, 5.0, d)
        y = rng.uniform(-5.0, 5.0, d)
        report = log_convexity_check(t, x, y, kappa, tol=1e-10)
        assert report.passed
        worst_diag = min(worst_diag, report.deficit)
        z1 = rng.uniform(-5.0, 5.0, d)
        z2 = rng.uniform(-5.0, 5.0, d)
        report = log_convexity_midpoint_check(t, z1, z2, y, kappa, tol=1e-10)
        assert report.passed
        worst_mid = min(worst_mid, report.deficit)
    print(
        f"check 7 log-convexity: PASS (min diag deficit {worst_diag:.2e}, "
        f"min midpoint deficit {worst_mid:.2e})"
    )


def test_08_brute_force_oracle_equivalence():
    """The fast evaluators against the independent substitution quadrature
    (1 - s = w^2, 1e5 graded panels) on 50 random (a, kappa) pairs."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(50):
        a = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-1.0, math.log10(50.0)))
        k = float(rng.uniform(0.1, 3.0))
        log_m0_pos, r1_b, r2_b = oracle.brute_force_log_moments(a, k)
        log_m0_neg, _, _ = oracle.brute_force_log_moments(-a, k)

        ratios = moment_ratios(a, k)
        worst = max(worst, abs(ratios.r1 - r1_b) / abs(r1_b))
        worst = max(worst, abs(ratios.r1 * ratios.r1 + ratios.variance - r2_b) / abs(r2_b))

        f_brute = 2.0 * a * r1_b + log_m0_neg - log_m0_pos
        worst = max(worst, abs(f_of_a(a, k) - f_brute) / max(1.0, abs(f_brute)))

        log_e_brute = oracle.brute_force_log_e(a, 1.0, k)
        # agreement of log E to eps is relative agreement of E itself
        worst = max(worst, abs(log_e_kappa(a, 1.0, k) - log_e_brute))
    assert worst <= 1e-8
    print(f"check 8 oracle equivalence: PASS (worst relative error {worst:.2e})")
