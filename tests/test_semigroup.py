"""Weighted measure, semigroup quadrature, and the global kernel identities:
normalization, Chapman-Kolmogorov, the heat equation itself, and the bound
for solutions started from product bumps."""

import collections
import math
import re
import sys

import numpy as np
import pytest

import _oracles as oracle
from dunklheat import cli, semigroup
from dunklheat.inequalities import gradient_form_check, harnack_check, liyau_functional
from dunklheat.kernel import log_gaussian_mass, log_kernel
from dunklheat.operators import ScalarField
from dunklheat.quadrature import ConvergenceError, DomainError, gauss_laguerre_rule
from dunklheat.semigroup import (
    InitialDatum,
    MeasureConvention,
    Profile,
    bump_profile,
    chapman_kolmogorov_check,
    heat_residual,
    liyau_for_solution,
    normalization_check,
    semigroup_solution,
    two_bump_profile,
)


# ---------------------------------------------------------------------------
# the measure


@pytest.mark.parametrize("kappa", [[0.5], [0.0], [0.25, 2.5], [1.0, 0.0, 0.5]])
def test_gaussian_mass_quadrature_agrees(kappa):
    # c_kappa = prod_i of the integral of e^(-y^2/2) |y|^(2 kappa_i) over R.
    # u = y^2/4 makes each 4^(kappa_i + 1/2) times the integral of e^(-u)
    # against u^(kappa_i - 1/2) e^(-u), so the rule's nodes and weights are
    # both exercised rather than summed trivially
    total = 1.0
    for k in kappa:
        rule = gauss_laguerre_rule(k - 0.5, 96)
        total *= 4.0 ** (k + 0.5) * float(rule.weights @ np.exp(-rule.nodes))
    assert total == pytest.approx(math.exp(sum(log_gaussian_mass(k) for k in kappa)), rel=1e-10)


# ---------------------------------------------------------------------------
# profiles and initial data


def test_bump_profile_shape():
    p = bump_profile(0.5, 2.0, power=3)
    assert (p.lo, p.hi) == (-1.5, 2.5)
    assert p.knots == ()
    vals = p.fn(np.array([-2.0, 0.5, 2.5, 1.5]))
    assert vals[0] == 0.0 and vals[2] == 0.0
    assert vals[1] == 1.0
    assert vals[3] == pytest.approx((1.0 - 0.25) ** 3)
    with pytest.raises(DomainError):
        bump_profile(0.0, -1.0)
    with pytest.raises(DomainError):
        bump_profile(0.0, 1.0, power=0)


def test_two_bump_profile_records_interior_kinks():
    p = two_bump_profile(-2.0, 2.0, 0.8, power=3)
    assert (p.lo, p.hi) == (-2.8, 2.8)
    assert p.knots == (-1.2, 1.2)  # facing edges; outer edges are the support
    assert p.fn(np.array([0.0]))[0] == 0.0
    assert p.fn(np.array([2.0]))[0] == 1.0


def test_profile_drops_knots_outside_support():
    p = Profile(fn=lambda v: np.ones_like(v), lo=0.0, hi=1.0, knots=(-3.0, 0.5, 7.0))
    assert p.knots == (0.5,)


def test_initial_datum_validation():
    with pytest.raises(DomainError):
        InitialDatum(())
    with pytest.raises(DomainError):
        InitialDatum((Profile(fn=lambda v: -np.ones_like(v), lo=0.0, hi=1.0),))
    with pytest.raises(DomainError):
        InitialDatum((Profile(fn=lambda v: np.zeros_like(v), lo=0.0, hi=1.0),))


def test_initial_datum_value_is_a_product():
    f = InitialDatum.bumps([0.0, 1.0], [1.0, 2.0], power=2)
    assert f.dimension == 2
    got = f.value([0.5, 1.0])
    assert got == pytest.approx(0.75**2 * 1.0)
    assert f.value([3.0, 1.0]) == 0.0  # outside the first support


def test_bumps_broadcasts_scalar_radius():
    f = InitialDatum.bumps([0.0, 1.0, -1.0], [2.0])
    assert [(-2.0, 2.0), (-1.0, 3.0), (-3.0, 1.0)] == [(p.lo, p.hi) for p in f.profiles]


# ---------------------------------------------------------------------------
# semigroup application


def _indicator(lo, hi):
    """The indicator of [lo, hi].  Its edges are panel boundaries for the
    quadrature, so the jump is never sampled."""
    return Profile(fn=lambda v: np.ones_like(np.asarray(v, dtype=float)), lo=lo, hi=hi)


def test_gaussian_convolution_matches_error_function():
    f = InitialDatum((_indicator(-1.0, 2.0),))
    for t, x in ((0.3, 0.5), (0.01, -0.9), (2.0, 4.0)):
        got = math.exp(semigroup_solution(f, [0.0]).log_value(t, [x]))
        want = 0.5 * (
            math.erf((2.0 - x) / math.sqrt(4.0 * t)) - math.erf((-1.0 - x) / math.sqrt(4.0 * t))
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_conservation_of_mass_on_a_huge_box():
    box = InitialDatum((_indicator(-80.0, 80.0), _indicator(-80.0, 80.0)))
    u = semigroup_solution(box, [0.5, 1.5])
    for t, x in ((0.5, [1.0, -2.0]), (0.05, [0.0, 3.0])):
        assert math.exp(u.log_value(t, x)) == pytest.approx(1.0, abs=1e-11)


def test_short_time_limit_recovers_the_datum():
    f = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3)
    x = [0.3, -0.5]
    assert abs(math.exp(semigroup_solution(f, [0.5, 1.5]).log_value(1e-4, x)) - f.value(x)) < 1e-3


def test_semigroup_positivity():
    f = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3)
    u = semigroup_solution(f, [0.5, 1.5])
    rng = np.random.default_rng(41)
    for _ in range(10):
        t = float(10.0 ** rng.uniform(-2.0, 1.0))
        x = rng.uniform(-4.0, 4.0, 2)
        assert math.isfinite(u.log_value(t, x))
    # far outside the support the value is tiny but still positive
    assert -math.inf < u.log_value(0.05, [6.0, -7.0]) < math.log(1e-30)


def test_semigroup_factorizes_over_coordinates():
    f = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3)
    t, x, kappa = 0.7, [1.0, 2.0], [0.5, 1.5]
    whole = math.exp(semigroup_solution(f, kappa).log_value(t, x))
    parts = [
        math.exp(semigroup_solution(InitialDatum((f.profiles[i],)), [kappa[i]]).log_value(t, [x[i]]))
        for i in range(2)
    ]
    assert whole == pytest.approx(parts[0] * parts[1], rel=1e-13)
    assert whole == pytest.approx(0.005684145711157724, rel=1e-11)


def test_apply_semigroup_validation():
    f = InitialDatum.bumps([0.0], [1.0])
    with pytest.raises(DomainError):
        semigroup_solution(f, [0.5]).log_value(0.0, [0.0])
    with pytest.raises(DomainError):
        semigroup_solution(f, [0.5, 0.5]).log_value(1.0, [0.0, 1.0])


def test_solution_field_derivatives_match_finite_differences():
    f = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3)
    u = semigroup_solution(f, [0.5, 1.5])
    t, x = 0.7, np.array([1.0, 2.0])
    slice_field = ScalarField.from_callable(lambda z: u.log_value(t, z))
    np.testing.assert_allclose(u.log_gradient(t, x), slice_field.gradient(x), rtol=1e-9)
    np.testing.assert_allclose(u.log_hessian_diag(t, x), slice_field.hessian_diag(x), rtol=1e-8)
    dt = oracle.central_d1(lambda s: u.log_value(s, x), t, 1e-5)
    assert u.log_time_derivative(t, x) == pytest.approx(dt, rel=1e-9)


@pytest.mark.parametrize("t, x", [(0.01, 40.0), (1e-4, -8.0)])
def test_underflowed_solution_raises_on_every_path(t, x):
    # the CLI's bump datum at kappa = 0.5: the mass at x underflows to 0
    f = InitialDatum.bumps([0.0], [1.5], power=3)
    u = semigroup_solution(f, [0.5])
    for evaluate in (u.log_value, u.log_gradient, u.log_hessian_diag, u.log_time_derivative):
        with pytest.raises(ConvergenceError, match="underflowed"):
            evaluate(t, [x])
    with pytest.raises(ConvergenceError, match="underflowed"):
        liyau_for_solution(u, t, [x], [0.5])


# ---------------------------------------------------------------------------
# the panel integrator


def _panel_formula(a, b, exponent, n):
    """One panel's nodes and weights, the formula the level builder
    broadcasts over every panel of a level."""
    if exponent > 0.0 and (a == 0.0 or b == 0.0):
        rule = semigroup.gauss_jacobi_rule(0.0, exponent, n)
        scale = (b if a == 0.0 else -a) / 2.0
        v = scale * (1.0 + rule.nodes)
        w = scale ** (exponent + 1.0) * rule.weights
        return (-v if b == 0.0 else v), w
    rule = semigroup.gauss_jacobi_rule(0.0, 0.0, n)
    v = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
    w = 0.5 * (b - a) * rule.weights
    if exponent != 0.0:
        w = w * np.abs(v) ** exponent
    return v, w


@pytest.mark.parametrize("exponent", [0.0, 1.0, 3.0, 0.5])
@pytest.mark.parametrize(
    "window",
    [
        (0.0, 2.3, 0.11),  # both sides of 0, one panel touching it on each
        (0.7, 3.1, 0.05),  # both sides, none touching 0
        (0.0, 0.5, 1.0),  # one panel per side, both touching 0
    ],
)
def test_panel_levels_equal_the_per_panel_formula_bit_for_bit(exponent, window):
    panels = semigroup._panels(*window)
    level = semigroup._panel_levels(panels, exponent)
    for n in (32, 64):
        v, w = level(n)
        parts = [_panel_formula(lo, hi, exponent, n) for lo, hi in panels]
        assert v.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        assert w.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()


@pytest.mark.parametrize("exponent", [0.0, 1.0])
def test_panel_ladder_looks_each_rule_up_once_per_level(monkeypatch, exponent):
    lookups = collections.Counter()
    rule = semigroup.gauss_jacobi_rule

    def counted(alpha, beta, n):
        lookups[alpha, beta, n] += 1
        return rule(alpha, beta, n)

    monkeypatch.setattr(semigroup, "gauss_jacobi_rule", counted)
    monkeypatch.setattr(semigroup, "_PANEL_NODE_CAP", 128)
    panels = semigroup._panels(0.0, 2.3, 0.11)
    noise = np.random.default_rng(3)
    with pytest.raises(ConvergenceError, match="stalled at 128 nodes"):
        # noise never settles, so the ladder climbs through all three levels
        semigroup._adaptive_panel_sum(panels, exponent, lambda v: noise.random((1, v.size)), np.ones(1))
    kinds = [(0.0, 0.0)] + ([(0.0, exponent)] if exponent > 0.0 else [])
    assert lookups == {(*kind, n): 1 for kind in kinds for n in (32, 64, 128)}


def _count_ladders(monkeypatch) -> list:
    calls = []
    ladder = semigroup._adaptive_panel_sum

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    monkeypatch.setattr(semigroup, "_adaptive_panel_sum", counted)
    return calls


def test_solution_moments_are_cached_read_only_and_bounded(monkeypatch):
    calls = _count_ladders(monkeypatch)
    f = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3)
    t, x = 0.7, [1.0, 2.0]
    first = semigroup_solution(f, [0.5, 1.5])
    value = first.log_value(t, x)
    assert len(calls) == 2
    # a second field and the derivatives all hit the cache
    second = semigroup_solution(f, [0.5, 1.5])
    assert second.log_value(t, x) == value
    second.log_gradient(t, x)
    second.log_time_derivative(t, x)
    assert len(calls) == 2
    moments = semigroup._profile_moments(t, 1.0, 0.5, f.profiles[0])
    assert not moments.flags.writeable
    with pytest.raises(ValueError):
        moments[0] = 0.0
    assert semigroup._profile_moments.cache_info().maxsize == semigroup._SOLUTION_CACHE_SIZE


def _clear_coordinate_caches():
    for cache in (semigroup._profile_moments, semigroup._plain_mass, semigroup._ck_coordinate):
        cache.cache_clear()
        assert cache.cache_info().maxsize == semigroup._SOLUTION_CACHE_SIZE
    semigroup._log_row.cache_clear()


def test_semigroup_check_runs_one_ladder_per_distinct_coordinate_integral(monkeypatch, capsys):
    _clear_coordinate_caches()
    calls = _count_ladders(monkeypatch)
    assert cli.main(["semigroup-check", "--reproducible"]) == 0
    # the integrand is a closure of the integral that laid out the panels
    integrals = collections.Counter(values.__qualname__.split(".")[0] for _, _, values, *_ in calls)
    # normalization: 4 times, 5 coordinates, 2 axes.  Chapman-Kolmogorov: 7
    # time pairs, 2 axes and 9 (x_i, y_i): y_i = x_i at 5 coordinates and
    # y_i = -x_i at 4, since (0, -0.0) is the integral of (0, 0)
    assert integrals == {"_plain_mass": 4 * 5 * 2, "_ck_coordinate": 7 * 2 * 9}
    # each Chapman-Kolmogorov integral covers the window of its product's
    # Gaussian envelope (the hull of the two kernels' windows took 2,096)
    panels = collections.Counter()
    for layout, _, values, *_ in calls:
        panels[values.__qualname__.split(".")[0]] += len(layout)
    assert panels["_ck_coordinate"] == 1248


def test_chapman_kolmogorov_integrals_compute_each_kernel_row_once(monkeypatch, capsys):
    _clear_coordinate_caches()
    rows, computed = [], []
    log_row, batch = semigroup._log_row, semigroup.kernel_derivatives_1d_batch

    def requested(t, u, kappa_i, nodes):
        # u = -0.0 shares the key of 0.0
        rows.append((t, u + 0.0, kappa_i, nodes))
        return log_row(t, u, kappa_i, nodes)

    def evaluated(t, u, v, kappa_i):
        if sys._getframe(1).f_code.co_name == "_log_row":
            computed.append((t, u + 0.0, kappa_i, v.tobytes()))
        return batch(t, u, v, kappa_i)

    monkeypatch.setattr(semigroup, "_log_row", requested)
    monkeypatch.setattr(semigroup, "kernel_derivatives_1d_batch", evaluated)
    assert cli.main(["semigroup-check", "--reproducible"]) == 0
    # each of the 7 * 2 * 9 integrals settles in its first ladder call, which
    # reads two rows; most are shared by (x_i, y_i) and (x_i, -y_i) or by the
    # two factors at s = t, x_i = y_i
    assert len(rows) == 252
    assert len(computed) == len(set(rows)) == 100
    assert set(computed) == set(rows)


def test_log_row_is_cached_and_read_only():
    v = np.linspace(-2.0, 2.0, 9)
    row = semigroup._log_row(0.5, 1.0, 0.5, v.tobytes())
    assert semigroup._log_row(0.5, 1.0, 0.5, v.tobytes()) is row
    assert not row.flags.writeable
    np.testing.assert_array_equal(row, semigroup.kernel_derivatives_1d_batch(0.5, 1.0, v, 0.5)[0])


def test_kernel_checks_read_cached_coordinate_integrals(monkeypatch):
    kappa, x = [0.5, 1.5], [1.0, 0.0]
    _clear_coordinate_caches()
    cold_mass = normalization_check(0.5, x, kappa)
    cold_ck = chapman_kolmogorov_check(0.3, 0.7, x, [-1.0, -0.0], kappa)
    _clear_coordinate_caches()
    # fills the y_i = 0.0 entry, which the y_i = -0.0 call below reads
    assert chapman_kolmogorov_check(0.3, 0.7, x, [-1.0, 0.0], kappa).lhs == cold_ck.lhs
    normalization_check(0.5, x, kappa)
    calls = _count_ladders(monkeypatch)
    assert normalization_check(0.5, x, kappa) == cold_mass
    assert chapman_kolmogorov_check(0.3, 0.7, x, [-1.0, -0.0], kappa) == cold_ck
    assert calls == []


@pytest.mark.parametrize(
    "check, where",
    [
        (lambda: normalization_check(1.0, [1e200], [0.5]), "u = 1e+200, t = 1.0"),
        (lambda: normalization_check(1e-300, [1.0], [0.0]), "u = 1.0, t = 1e-300"),
        (
            lambda: chapman_kolmogorov_check(1e-3, 1e-3, [1e17], [1e17], [0.5]),
            "x = 1e+17, y = 1e+17, s = 0.001, t = 0.001",
        ),
    ],
)
def test_kernel_window_lost_to_rounding_raises_convergence_error(check, where):
    # 30 sigma is below half an ulp of the coordinate: the window has no width
    with pytest.raises(ConvergenceError, match=f"window lost to rounding at {re.escape(where)}:"):
        check()


@pytest.mark.parametrize(
    "integral, where",
    [
        # p_1(1, .) at kappa = 150 carries 1 / c_kappa ~ 1e-307 and no weight
        (
            lambda: semigroup._plain_mass(1.0, 1.0, 150.0, 0.0),
            "kernel mass underflowed at u = 1.0, t = 1.0",
        ),
        (
            lambda: chapman_kolmogorov_check(1.0, 1.0, [1.0], [1.0], [80.0]),
            "Chapman-Kolmogorov integral underflowed at x = 1.0, y = 1.0, s = 1.0, t = 1.0",
        ),
    ],
)
def test_kernel_integral_underflowed_to_zero_raises_convergence_error(integral, where):
    with pytest.raises(ConvergenceError, match=f"^{re.escape(where)}:"):
        integral()


def test_solution_scan_runs_one_ladder_per_distinct_coordinate_integral(monkeypatch, capsys):
    calls = _count_ladders(monkeypatch)
    argv = ["solution-scan", "--kappa", "0.5,1.5", "--t", "0.5", "--coords=-1,0,1", "--reproducible"]
    assert cli.main(argv) == 0
    # one per (datum, t, axis, u): 3 data, 1 time, 2 axes, 3 coordinates
    assert len(calls) == 3 * 1 * 2 * 3


def test_liyau_for_solution_agrees_cold_and_after_the_field_filled_the_cache(monkeypatch):
    kappa, t, x = [0.5, 1.5], 0.7, [1.0, -2.0]

    def datum():
        # fresh profile objects, so nothing is cached for them yet
        return InitialDatum(
            (bump_profile(0.5, 1.0, power=3), two_bump_profile(-2.0, 2.0, 0.8, power=3))
        )

    cold = liyau_for_solution(semigroup_solution(datum(), kappa), t, x, kappa)
    u = semigroup_solution(datum(), kappa)
    for z in ([1.0, -2.0], [-1.0, 2.0]):  # x and both reflections, coordinate by coordinate
        u.log_value(t, z)
    calls = _count_ladders(monkeypatch)
    warm = liyau_for_solution(u, t, x, kappa)
    assert calls == []
    assert warm == cold


# ---------------------------------------------------------------------------
# normalization and the convention lock


def test_normalization_gaussian_case():
    r = normalization_check(0.5, [1.3], [0.0])
    assert r.claim_id == "kernel_normalization"
    assert r.passed and abs(r.lhs - 1.0) < 1e-12


def test_normalization_at_the_origin_gamma_integral():
    # x = 0 removes the tilt: the mass is a pure Gamma integral equal to 1
    r = normalization_check(0.5, [0.0], [0.5])
    assert r.passed and abs(r.lhs - 1.0) < 1e-10


def test_normalization_on_random_grid():
    rng = np.random.default_rng(43)
    for _ in range(15):
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        d = int(rng.integers(1, 3))
        x = rng.uniform(-10.0, 10.0, d)
        kappa = rng.uniform(0.0, 2.5, d)
        r = normalization_check(t, x, kappa)
        assert r.passed, (t, x, kappa, r.lhs)
        assert abs(r.lhs - 1.0) < 1e-10


def test_alternative_convention_fails_with_time_dependent_error():
    # the plausible-looking alternative, weight |v|^kappa with normalizer
    # Gamma(kappa + 1/2): the mass comes out proportional to t^(-kappa/2), so
    # no constant rescue is possible
    HALF_WEIGHT_CONVENTION = MeasureConvention(
        weight_exponent=lambda k: k,
        log_normalizer=lambda k: math.lgamma(k + 0.5),
    )
    t1, t2, k = 0.25, 4.0, 0.5
    bad1 = normalization_check(t1, [0.0], [k], convention=HALF_WEIGHT_CONVENTION)
    bad2 = normalization_check(t2, [0.0], [k], convention=HALF_WEIGHT_CONVENTION)
    assert not bad1.passed and not bad2.passed
    # closed form: (2t)^(-k-1/2) (4t)^((k+1)/2) Gamma((k+1)/2) / Gamma(k+1/2)
    gamma_factor = math.exp(math.lgamma((k + 1.0) / 2.0) - math.lgamma(k + 0.5))
    for t, r in ((t1, bad1), (t2, bad2)):
        want = (2.0 * t) ** (-k - 0.5) * (4.0 * t) ** ((k + 1.0) / 2.0) * gamma_factor
        assert r.lhs == pytest.approx(want, rel=1e-10)
    assert bad2.lhs / bad1.lhs == pytest.approx((t2 / t1) ** (-k / 2.0), rel=1e-10)


# ---------------------------------------------------------------------------
# Chapman-Kolmogorov


def test_chapman_kolmogorov_gaussian_closed_form():
    r = chapman_kolmogorov_check(0.3, 0.7, [1.0], [-0.5], [0.0])
    want = math.exp(oracle.gaussian_log_kernel(1.0, 1.0, -0.5))
    assert r.passed and r.rhs == pytest.approx(want, rel=1e-13)
    assert r.lhs == pytest.approx(want, rel=1e-10)


def test_chapman_kolmogorov_squares_to_the_double_time_diagonal():
    r = chapman_kolmogorov_check(0.4, 0.4, [1.3], [1.3], [1.5])
    assert r.passed
    assert r.rhs == pytest.approx(math.exp(log_kernel(0.8, [1.3], [1.3], [1.5])), rel=1e-12)


def test_chapman_kolmogorov_random_points():
    rng = np.random.default_rng(47)
    for _ in range(8):
        s = float(10.0 ** rng.uniform(-1.5, 0.5))
        t = float(10.0 ** rng.uniform(-1.5, 0.5))
        x = rng.uniform(-3.0, 3.0, 2)
        y = rng.uniform(-3.0, 3.0, 2)
        r = chapman_kolmogorov_check(s, t, x, y, [0.5, 1.5])
        assert r.claim_id == "chapman_kolmogorov"
        assert r.passed, (s, t, x, y, r.deficit)
        assert r.deficit > -1e-10


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5])
def test_chapman_kolmogorov_where_the_product_sits_in_one_kernels_tail(kappa):
    # p_s(5, .) has sigma = 0.045 and p_t(., 0.3) sigma = 0.32: the product
    # peaks at |v| = 4.9, 15 of p_t's sigmas from its centre
    s, t, x, y = 0.001, 0.05, [5.0], [0.3]
    r = chapman_kolmogorov_check(s, t, x, y, [kappa])
    assert r.rhs == math.exp(log_kernel(s + t, x, y, [kappa])) > 0.0
    assert r.passed and abs(r.lhs / r.rhs - 1.0) < r.tolerance


@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_chapman_kolmogorov_across_the_origin(kappa):
    # at kappa = 0 the kernels are signed Gaussians, so their product sits at
    # (t x + s y) / (s + t) = 0, 33 sigma inside |v| = 33, the centre of
    # their envelope in |v|; for kappa > 0 the reflected terms carry the mass
    r = chapman_kolmogorov_check(1.0, 1.0, [33.0], [-33.0], [kappa])
    assert r.rhs == math.exp(log_kernel(2.0, [33.0], [-33.0], [kappa])) > 0.0
    assert r.passed and abs(r.lhs / r.rhs - 1.0) < r.tolerance


def test_chapman_kolmogorov_validation():
    with pytest.raises(DomainError):
        chapman_kolmogorov_check(0.0, 1.0, [0.0], [0.0], [0.5])


# ---------------------------------------------------------------------------
# heat residual


def test_heat_residual_gaussian_is_closed_form():
    assert heat_residual(1.0, [1.3], [-0.7], [0.0]) < 1e-10


@pytest.mark.parametrize(
    "t,x,y,kappa",
    [
        (1.0, [1.3], [-0.7], [0.5]),
        (0.5, [1.0, -2.0], [0.3, 1.5], [0.5, 1.5]),
        (0.05, [3.0], [10.0], [2.5]),
    ],
)
def test_heat_residual_generic_points(t, x, y, kappa):
    assert heat_residual(t, x, y, kappa) < 1e-7


def test_heat_residual_on_hyperplane():
    assert heat_residual(0.5, [0.0, 1.0], [2.0, -1.0], [1.0, 0.25]) < 1e-6


def test_heat_residual_evaluates_the_kernel_once_per_point(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, tuple(args[1])))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(semigroup, "log_kernel", counted("log_kernel", semigroup.log_kernel))
    monkeypatch.setattr(
        semigroup,
        "log_kernel_derivatives",
        counted("derivatives", semigroup.log_kernel_derivatives),
    )
    assert heat_residual(0.5, [1.0, -2.0], [0.3, 1.5], [0.5, 1.5]) < 1e-7
    # the derivatives at x, then the kernel at each reflected point
    assert calls == [
        ("derivatives", (1.0, -2.0)),
        ("log_kernel", (-1.0, -2.0)),
        ("log_kernel", (1.0, 2.0)),
    ]


# ---------------------------------------------------------------------------
# the bound for semigroup solutions


def test_classical_bound_for_zero_multiplicity():
    f = InitialDatum.bumps([0.2], [1.5], power=2)
    for t in (0.05, 0.5, 5.0):
        r = liyau_for_solution(semigroup_solution(f, [0.0]), t, [0.8], [0.0])
        assert r.claim_id == "liyau_solution"
        assert r.rhs == pytest.approx(0.5 / t)
        assert r.passed


def test_solution_bound_concentrates_to_the_kernel_bound():
    # shrinking bumps approximate the kernel itself; the log-Laplacian must
    # approach the per-coordinate moment decomposition quadratically
    y0 = [0.5, -1.0]
    kappa = [0.5, 1.5]
    dec = liyau_functional(0.7, [1.0, 2.0], y0, kappa)
    diffs = []
    for radius in (1e-2, 1e-3):
        f = InitialDatum.bumps(y0, [radius, radius], power=3)
        r = liyau_for_solution(semigroup_solution(f, kappa), 0.7, [1.0, 2.0], kappa)
        diffs.append(abs(r.lhs - dec.total))
    assert diffs[0] < 5e-4
    assert diffs[1] < diffs[0] / 50.0


def test_two_bump_solution_passes_on_grid():
    f = InitialDatum(
        (two_bump_profile(-2.0, 2.0, 0.8, power=3), bump_profile(0.5, 1.0, power=3))
    )
    u = semigroup_solution(f, [1.0, 0.5])
    for t in (0.1, 1.0, 10.0):
        for x0 in (-3.0, 0.0, 1.0, 10.0):
            r = liyau_for_solution(u, t, [x0, 0.3], [1.0, 0.5])
            assert r.passed, (t, x0, r.lhs, r.rhs)


def test_gradient_form_for_semigroup_solutions():
    kappa = [0.5, 1.5]
    f = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3)
    u = semigroup_solution(f, kappa)
    lam = sum(kappa)
    rng = np.random.default_rng(31)
    for _ in range(10):
        t = float(10.0 ** rng.uniform(-1.0, 0.7))
        x = rng.uniform(-3.0, 3.0, 2)
        r = gradient_form_check(u, t, x, beta=(2.0 + 2.0 * lam) / (2.0 * t))
        assert r.passed, (t, x, r.lhs, r.rhs)


def test_harnack_for_semigroup_solutions():
    kappa = [0.5, 1.5]
    f = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3)
    u = semigroup_solution(f, kappa)
    rng = np.random.default_rng(37)
    for _ in range(10):
        s = float(10.0 ** rng.uniform(-1.0, 0.3))
        t = s * float(rng.uniform(1.05, 8.0))
        x = rng.uniform(-2.5, 2.5, 2)
        y = rng.uniform(-2.5, 2.5, 2)
        r = harnack_check(u, s, x, t, y, lambda_kappa=sum(kappa), d=2)
        assert r.passed, (s, t, x, y, r.deficit)


def test_liyau_for_solution_validation():
    u = semigroup_solution(InitialDatum.bumps([0.0], [1.0]), [0.5])
    with pytest.raises(DomainError):
        liyau_for_solution(u, -1.0, [0.0], [0.5])
    with pytest.raises(DomainError):
        liyau_for_solution(u, 1.0, [0.0, 0.0], [0.5, 0.5])
