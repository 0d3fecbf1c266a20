"""Tilted moments, the kernel function E_kappa, and kernel derivatives."""

import dataclasses
import importlib
import inspect
import math
import pathlib
import re
import tracemalloc
import types

import numpy as np
import pytest

import _oracles as oracle
import dunklheat
from dunklheat import cli, kernel
from dunklheat.kernel import (
    TILT_SWITCH,
    KernelPoint,
    kernel_derivatives_1d_batch,
    log_e_kappa,
    log_gaussian_mass,
    log_kernel,
    log_kernel_derivatives,
    moment_ratios,
    moment_stats,
)
from dunklheat.quadrature import NODE_START, ConvergenceError, DomainError

KAPPA_GRID = [0.25, 0.5, 1.0, 2.5]


# ---------------------------------------------------------------------------
# moment ratios


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_ratios_at_zero_tilt_match_beta_reduction(kappa):
    r = moment_ratios(0.0, kappa)
    assert abs(r.r1 - oracle.r1_at_zero(kappa)) < 1e-12
    assert abs(r.r1 * r.r1 + r.variance - oracle.r2_at_zero(kappa)) < 1e-12
    assert abs(r.variance - oracle.variance_at_zero(kappa)) < 1e-12


def test_frozen_moment_values_kappa_half_tilt_three():
    # frozen from the brute-force oracle, itself validated against the
    # kappa = 1/2 Bessel closed form m0(a) = pi (I0(a) + I1(a))
    r = moment_ratios(3.0, 0.5)
    assert abs(r.log_m0 - 3.3233562280216393) < 1e-11
    assert abs(r.r1 - 0.8508302255896728) < 1e-11
    assert abs(r.r1 * r.r1 + r.variance - 0.7661131829402181) < 1e-11


def test_moment_stats_against_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(30):
        a = float(rng.uniform(-200.0, 200.0))
        kappa = float(rng.uniform(0.2, 3.0))
        log_m0, r1, variance = (float(v) for v in moment_stats(a, kappa)[:, 0])
        want = oracle.brute_force_log_moments(a, kappa, n_panels=20_000)
        assert abs(log_m0 - want[0]) <= 1e-10 * max(1.0, abs(want[0]))
        assert abs(r1 - want[1]) <= 1e-10
        assert abs(r1 * r1 + variance - want[2]) <= 1e-10


@pytest.mark.parametrize("a", [49.99, -49.99, 50.01, -50.01])
@pytest.mark.parametrize("kappa", [0.25, 2.5])
def test_branch_agreement_beside_the_switch(a, kappa):
    assert TILT_SWITCH == 50.0
    log_m0, r1, variance = (float(v) for v in moment_stats(a, kappa)[:, 0])
    want = oracle.brute_force_log_moments(a, kappa, n_panels=20_000)
    assert abs(log_m0 - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
    assert abs(r1 - want[1]) <= 1e-12
    assert abs(r1 * r1 + variance - want[2]) <= 1e-12


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_ratio_invariants_across_tilts(kappa):
    tilts = np.concatenate(
        [np.linspace(-200.0, 200.0, 81), [-5000.0, -421.7, 421.7, 5000.0]]
    )
    log_m0, r1, variance = moment_stats(tilts, kappa)
    assert np.all(r1 > -1.0) and np.all(r1 < 1.0)
    r2 = r1 * r1 + variance
    assert np.all(r2 > 0.0) and np.all(r2 < 1.0)
    assert np.all(variance >= 0.0)
    # r1 is the derivative of log m0, strictly increasing in the tilt
    order = np.argsort(tilts)
    assert np.all(np.diff(r1[order]) > 0.0)


def test_large_tilt_ratio_approaches_one_from_below():
    kappa = 0.25
    tilts = np.array([100.0, 1000.0, 5000.0])
    r1 = moment_stats(tilts, kappa)[1]
    assert np.all(r1 < 1.0)
    assert np.all(np.diff(r1) > 0.0)
    # Watson asymptotics: r1 = 1 - kappa/a + O(1/a^2)
    assert abs(r1[-1] - (1.0 - kappa / 5000.0)) < 1e-6


def test_moment_cache_returns_identical_object():
    a = moment_ratios(1.25, 0.75)
    b = moment_ratios(1.25, 0.75)
    assert a is b


def test_moment_cache_is_bounded(monkeypatch):
    # a randomized scan rarely repeats a tilt: past _MOMENT_CACHE_SIZE
    # entries the oldest one goes, and the newest stay hits
    cache = {}
    monkeypatch.setattr(kernel, "_MOMENT_CACHE", cache)
    tilts = np.linspace(-TILT_SWITCH, TILT_SWITCH, 5000).tolist()
    for a in tilts:
        last = moment_ratios(a, 0.75)
    assert len(cache) <= 4096
    assert (tilts[0], 0.75) not in cache
    assert moment_ratios(tilts[-1], 0.75) is last


def test_moment_domain_errors():
    with pytest.raises(DomainError):
        moment_ratios(1.0, 0.0)
    with pytest.raises(DomainError):
        moment_ratios(1.0, -0.5)
    with pytest.raises(DomainError):
        moment_ratios(float("inf"), 0.5)


@pytest.mark.parametrize(
    "a, r1, variance_times_a2",
    [
        # the variance kappa / a^2 (kappa + 1 for a < 0) lies below the
        # rounding of r2 and r1^2, and from |a| ~ 1e16 on 1 - |r1| ~ kappa/|a|
        # lies below half an ulp of 1, so r1 rounds to +-1
        (29999981.82454288, 0.9999999833333236, 0.5),
        (1e15, 0.9999999999999997, 0.5),
        (1e17, 1.0, 0.5),
        (-1e17, -1.0, 1.5),
    ],
)
def test_moment_stats_where_the_variance_is_below_the_rounding_of_one(a, r1, variance_times_a2):
    log_m0, got_r1, variance = moment_stats([a], 0.5)[:, 0].tolist()
    assert abs(got_r1 - r1) <= 2.3e-16
    # Watson asymptotics: the variance is kappa/a^2 + O(1/|a|^3)
    assert abs(variance * a * a - variance_times_a2) <= 1e-6
    if abs(a) < 1e16:
        want = oracle.laguerre_log_moments(a, 0.5)
        assert abs(log_m0 - want[0]) <= 1e-12 * abs(want[0])
        assert abs(variance - want[2]) <= 1e-13 * want[2]


@pytest.mark.parametrize(
    "r1, variance, message",
    [
        (1.5, 0.5, r"r1 escaped \[-1, 1\]"),
        (float("nan"), 0.5, r"r1 escaped \[-1, 1\]"),
        # r1 is checked first, then the variance
        (-1.5, -2.0, r"r1 escaped \[-1, 1\]"),
        (0.5, -1e-300, "variance went negative"),
        (1.0, float("nan"), "variance went negative"),
    ],
)
def test_moment_stats_checks_each_ratio_in_order(monkeypatch, r1, variance, message):
    def certified(a_sub, kappa):
        rows = np.array([[0.0, 0.0], [0.1, r1], [0.2, variance]])
        return rows[:, : a_sub.size]

    monkeypatch.setattr(kernel, "_certified_jacobi", certified)
    assert moment_stats([1.0], 0.5).tolist() == [[0.0], [0.1], [0.2]]
    with pytest.raises(RuntimeError, match=message):
        moment_stats([1.0, 2.0], 0.5)


def test_moment_convergence_error_on_tiny_cap(monkeypatch):
    # one rung of the Laguerre ladder: no two orders to compare
    monkeypatch.setattr(kernel, "NODE_CAP", NODE_START)
    with pytest.raises(ConvergenceError, match=f"did not settle within {NODE_START} nodes"):
        moment_stats(np.array([100.0]), 0.5)


def test_jacobi_tilts_take_one_rule_without_the_ladder(monkeypatch):
    def no_ladder(evaluate, a_sub):
        raise AssertionError("the Jacobi branch reached the settle ladder")

    monkeypatch.setattr(kernel, "_adaptive_eval", no_ladder)
    calls = []
    sums = kernel._accel.jacobi_tilted_sums

    def counted(nodes, weights, a):
        calls.append(a.size)
        return sums(nodes, weights, a)

    monkeypatch.setattr(kernel._accel, "jacobi_tilted_sums", counted)
    a = np.linspace(-TILT_SWITCH, TILT_SWITCH, 101)
    moment_stats(a, 0.5)
    # every tilt but a = 0, which takes its closed form, is summed once, by
    # one of at most three rules
    assert sum(calls) == np.count_nonzero(a) and len(calls) <= 3


@pytest.mark.parametrize("kappa", np.geomspace(1e-8, 1e3, 11).tolist())
def test_four_rungs_certify_every_jacobi_tilt(monkeypatch, kappa):
    # the Gauss remainder bound at 4 NODE_START nodes reaches |a| = TILT_SWITCH
    monkeypatch.setattr(kernel, "NODE_CAP", 4 * NODE_START)
    assert np.isfinite(moment_stats(np.array([-TILT_SWITCH, TILT_SWITCH]), kappa)).all()


def test_jacobi_error_bound_unmet_on_tiny_cap(monkeypatch):
    monkeypatch.setattr(kernel, "NODE_CAP", NODE_START)
    with pytest.raises(ConvergenceError, match=f"error bound not met within {NODE_START} nodes"):
        moment_stats(np.array([3.0, TILT_SWITCH]), 0.5)


@pytest.mark.parametrize("kappa", [1e-8, 0.25, 0.5, 1.5, 20.0, 100.0, 1000.0])
def test_moment_stats_matches_the_kummer_reference(kappa):
    # the tilts straddle the reach of each rule order (about 17.7 and 40.6
    # for 32 and 64 nodes at kappa <= 1.5).  At kappa = 1e-8 the rules must
    # come from the exact offset kappa of the exponent kappa - 1: built from
    # the rounded (kappa - 1) + 1 they would put log m0 4e-10 off
    tilts = [sign * t for t in (0.3, 5.9, 16.0, 17.0, 18.0, 39.0, 41.0, 49.99) for sign in (1.0, -1.0)]
    got = moment_stats(np.array(tilts), kappa)
    for a, (log_m0, r1, variance) in zip(tilts, got.T.tolist()):
        want_log_m0, want_r1, want_variance = oracle.kummer_log_moments(a, kappa)
        assert abs(log_m0 - want_log_m0) <= 1e-12 * max(1.0, abs(want_log_m0)), a
        assert abs(r1 - want_r1) <= 1e-12, a
        assert abs(variance - want_variance) <= 1e-12, a


def test_kappa_floor_laguerre_moments_match_the_kummer_reference():
    # both Laguerre rules at kappa = 1e-8 come from their exact offsets
    # kappa and kappa + 1: built from the rounded kappa - 1, the a > 0 rule
    # would put log m0 and the variance 5e-9 relative off
    kappa = 1e-8
    tilts = [sign * t for t in (50.5, 169.7, 1000.0) for sign in (1.0, -1.0)]
    got = moment_stats(np.array(tilts), kappa)
    for a, (log_m0, r1, variance) in zip(tilts, got.T.tolist()):
        want_log_m0, want_r1, want_variance = oracle.kummer_log_moments(a, kappa)
        assert abs(log_m0 - want_log_m0) <= 1e-12 * max(1.0, abs(want_log_m0)), a
        assert abs(r1 - want_r1) <= 1e-12, a
        assert abs(variance - want_variance) <= 1e-13 * want_variance, a


@pytest.mark.parametrize("kappa", [1e-8, 0.5, 1.5, 1000.0])
def test_moment_stats_at_zero_tilt_is_the_closed_form(kappa):
    # the moments of the untilted density, as the kernel writes them, for
    # +0.0 and -0.0 alike: log m0 = -log C_kappa
    log_c = math.lgamma(kappa + 0.5) - 0.5 * math.log(math.pi) - math.lgamma(kappa)
    want = [-log_c, 1.0 / (2.0 * kappa + 1.0), 2.0 * kappa / (2.0 * kappa + 1.0) ** 2]
    assert moment_stats([0.0, -0.0], kappa).T.tolist() == [want, want]


# Laguerre tilts up to |a| = 1e12; the reference leaves out a > 0 at
# kappa <= 1e-4, where its own quadrature is unreliable
_FAR_TILTS = (60.0, 1e3, 1e4, 3e7, 1e9, 1.2e11, 1e12)


@pytest.mark.parametrize(
    "kappa, signs",
    [(0.5, (1.0, -1.0)), (20.0, (1.0, -1.0)), (1e-8, (-1.0,)), (1e-4, (-1.0,))],
    ids=["0.5", "20.0", "1e-08-negative", "0.0001-negative"],
)
def test_far_tilt_variance_matches_the_laguerre_reference(kappa, signs):
    # the variance ~ kappa/a^2 is summed about its own centre, so it keeps
    # its relative accuracy where m2/m0 - r1^2 would cancel to nothing
    tilts = [sign * t for t in _FAR_TILTS for sign in signs]
    got = moment_stats(np.array(tilts), kappa)
    for a, (log_m0, r1, variance) in zip(tilts, got.T.tolist()):
        want_log_m0, want_r1, want_variance = oracle.laguerre_log_moments(a, kappa)
        assert abs(log_m0 - want_log_m0) <= 1e-12 * abs(want_log_m0), a
        assert abs(r1 - want_r1) <= 1e-12, a
        assert abs(variance - want_variance) <= 1e-13 * want_variance, a


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kappa", [1e-8, 1e-4, 0.5, 20.0])
def test_moment_stats_holds_up_to_tilt_1e12(kappa):
    # every tilt of the documented domain past TILT_SWITCH: no ratio check
    # trips, and the centred variance stays nonnegative
    far = np.logspace(1.8, 12.0, 400)
    log_m0, r1, variance = moment_stats(np.concatenate([far, -far]), kappa)
    assert np.isfinite(log_m0).all()
    assert (np.abs(r1) <= 1.0).all()
    assert (variance >= 0.0).all()


def test_moment_stats_rejects_tilt_arrays_that_are_not_1d():
    with pytest.raises(DomainError, match="1-d"):
        moment_stats(np.array([[1.0, 2.0]]), 0.5)


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.5, 1000.0])
def test_moment_stats_is_batch_invariant(kappa):
    # |a| < 1, 1 <= |a| <= 50 (Jacobi) and +-(50, 5000] (Laguerre); at
    # kappa = 1000 the Laguerre rules overflow (ROADMAP item 2), so only the
    # Jacobi tilts are checked there
    rng = np.random.default_rng(11)
    tilts = [rng.uniform(-1.0, 1.0, 40), rng.uniform(1.0, TILT_SWITCH, 40) * rng.choice([-1.0, 1.0], 40)]
    if kappa < 1000.0:
        tilts.append(rng.uniform(TILT_SWITCH, 5000.0, 40) * rng.choice([-1.0, 1.0], 40))
        tilts.append([5000.0, -5000.0, np.nextafter(TILT_SWITCH, np.inf), -TILT_SWITCH])
    a = rng.permutation(np.concatenate(tilts))
    batch = moment_stats(a, kappa)
    for i, ai in enumerate(a.tolist()):
        alone = moment_stats(a[i : i + 1], kappa)[:, 0]
        ratios = moment_ratios(ai, kappa)
        assert batch[:, i].tolist() == alone.tolist() == [ratios.log_m0, ratios.r1, ratios.variance], ai


def test_moment_stats_bounds_its_temporaries():
    # 50,000 Jacobi tilts take one rule of at least NODE_START nodes each;
    # the tilts go through in blocks, so no (batch, nodes) array of the
    # whole call is made
    a = np.random.default_rng(5).uniform(-TILT_SWITCH, TILT_SWITCH, 50_000)
    moment_stats(a[:10], 0.5)  # rules built outside the measurement
    tracemalloc.start()
    try:
        moment_stats(a, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * a.size * NODE_START * 8


# ---------------------------------------------------------------------------
# E_kappa


def test_e_kappa_zero_multiplicity_is_plain_exponential():
    for x, y in [(0.0, 0.0), (1.3, -0.4), (2.0, 5.0)]:
        assert log_e_kappa(x, y, 0.0) == x * y


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_e_kappa_at_zero_argument_is_one(kappa):
    assert log_e_kappa(1.7, 0.0, kappa) == 0.0
    assert log_e_kappa(0.0, -2.9, kappa) == 0.0
    assert log_e_kappa(3.0, 0.0, kappa) == 0.0


def test_e_kappa_frozen_bessel_values():
    # E_(1/2)(x, y) = I0(xy) + I1(xy)
    assert abs(log_e_kappa(1.0, 1.0, 0.5) - 0.6049851318439061) < 1e-11
    assert abs(log_e_kappa(2.0, -3.0, 0.5) - 1.773675298341917) < 1e-11
    # frozen from the brute-force oracle
    assert abs(log_e_kappa(1.3, 0.7, 2.5) - 0.20742039296187875) < 1e-11


def test_e_kappa_symmetry_and_positivity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x, y = rng.uniform(-4.0, 4.0, size=2)
        kappa = float(rng.uniform(0.2, 3.0))
        assert log_e_kappa(x, y, kappa) == log_e_kappa(y, x, kappa)
        assert math.isfinite(log_e_kappa(x, y, kappa))  # E_kappa > 0


def test_e_kappa_small_multiplicity_limit_is_gaussian():
    # E_kappa -> e^(xy) as kappa -> 0+
    assert abs(log_e_kappa(1.2, 0.8, 1e-6) - 1.2 * 0.8) < 1e-4


def test_e_kappa_upper_bound_exp_abs():
    rng = np.random.default_rng(29)
    for _ in range(25):
        x, y = rng.uniform(-6.0, 6.0, size=2)
        kappa = float(rng.uniform(0.2, 3.0))
        assert log_e_kappa(x, y, kappa) <= abs(x * y) + 1e-12


def test_e_kappa_domain():
    with pytest.raises(DomainError):
        log_e_kappa(1.0, 1.0, -0.25)


# ---------------------------------------------------------------------------
# kernel values


def test_gaussian_mass_closed_form():
    # c_kappa = 2^(kappa+1/2) Gamma(kappa+1/2); kappa = 1/2 gives exactly 2
    assert abs(log_gaussian_mass(0.5) - math.log(2.0)) < 1e-15
    assert abs(log_gaussian_mass(0.0) - 0.5 * math.log(2.0 * math.pi)) < 1e-15


def test_kernel_1d_zero_multiplicity_is_heat_kernel():
    for t, u, v in [(0.5, 1.0, -1.0), (0.01, 3.0, 2.5), (100.0, 0.0, 7.0)]:
        assert abs(log_kernel(t, [u], [v], [0.0]) - oracle.gaussian_log_kernel(t, u, v)) < 1e-14


@pytest.mark.parametrize(
    "t,u,v", [(0.5, 1.0, 1.0), (0.01, 3.0, -2.0), (10.0, 0.3, 10.0), (2.0, 0.0, 4.0)]
)
def test_kernel_1d_matches_bessel_closed_form(t, u, v):
    # kappa = 1/2: c = 2, exponent 1, E from Bessel I
    s = math.sqrt(2.0 * t)
    want = (
        -math.log(2.0)
        - math.log(2.0 * t)
        - (u * u + v * v) / (4.0 * t)
        + oracle.log_e_kappa_half(u / s, v / s)
    )
    got = log_kernel(t, [u], [v], [0.5])
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_kernel_submodule_is_not_shadowed():
    import dunklheat.kernel as kernel_module

    assert isinstance(dunklheat.kernel, types.ModuleType)
    assert kernel_module is importlib.import_module("dunklheat.kernel")
    assert dunklheat.log_kernel is log_kernel


def test_kernel_symmetry_exact():
    rng = np.random.default_rng(31)
    for _ in range(20):
        t = float(rng.uniform(0.01, 100.0))
        x = rng.uniform(-10.0, 10.0, size=2)
        y = rng.uniform(-10.0, 10.0, size=2)
        kappa = rng.uniform(0.0, 2.5, size=2).tolist()
        assert abs(log_kernel(t, x, y, kappa) - log_kernel(t, y, x, kappa)) <= 1e-10


def test_kernel_product_structure():
    t = 0.7
    x = np.array([1.0, -2.0, 0.3])
    y = np.array([0.5, 0.0, -1.1])
    kappa = [0.5, 0.0, 1.5]
    total = log_kernel(t, x, y, kappa)
    parts = sum(log_kernel(t, [x[i]], [y[i]], [kappa[i]]) for i in range(3))
    assert abs(total - parts) < 1e-14


def test_kernel_log_survives_value_underflow():
    val = log_kernel(0.01, [10.0], [0.0], [0.5])
    assert val < -2000.0
    assert math.exp(val) == 0.0  # the value underflows; its log does not


def test_kernel_point_value_is_finite_up_to_the_float_range():
    # log p = 709.5 at kappa = 2, x = y = 0: exp(709.5) = 1.35e308 is a double
    point = log_kernel_derivatives(1.2465553432995325e-124, [0.0], [0.0], [2.0])
    assert point.log_p == 709.5
    assert point.p == math.exp(709.5) == pytest.approx(1.355e308, rel=1e-3)
    assert log_kernel_derivatives(1e-300, [0.0], [0.0], [2.0]).p == math.inf


def test_log_kernel_has_a_value_where_a_derivative_leaves_the_float_range():
    # d_t log p holds (v/(2t))^2, past the float range at both points, so
    # log_kernel_derivatives raises; log p needs none of it
    assert log_kernel(1e-200, [0.0], [1.0], 0.5) == -2.5e199
    assert log_kernel(1e-300, [0.0], [1e10], 0.5) == -math.inf
    for t, y in ((1e-200, [1.0]), (1e-300, [1e10])):
        with pytest.raises(FloatingPointError):
            log_kernel_derivatives(t, [0.0], y, 0.5)


def test_log_kernel_at_tiny_time_is_finite():
    # p_t(0, 0) = 1/(4t) at kappa = 1/2 is past the float range but its log
    # is not, and no term divides by the 4t^2 that underflows to 0
    assert log_kernel(1e-300, [0.0], [0.0], [0.5]) == pytest.approx(-math.log(4e-300), rel=1e-15)


def test_kernel_large_at_reflected_pair():
    # x and -x are a reflection apart, so the kernel does not decay between them
    near = log_kernel(0.01, [10.0], [-10.0], [0.5])
    far = log_kernel(0.01, [10.0], [0.0], [0.5])
    assert near > -20.0 > far


def test_kernel_upper_bound_reflection_distance():
    # p_t(x,y) <= exp(-delta^2/(4t)) / (c_kappa (2t)^(d/2+lambda)), with
    # delta^2 = sum_i min((x_i-y_i)^2, (x_i+y_i)^2)
    rng = np.random.default_rng(37)
    for _ in range(40):
        t = float(rng.uniform(0.01, 100.0))
        d = int(rng.integers(1, 4))
        x = rng.uniform(-10.0, 10.0, size=d)
        y = rng.uniform(-10.0, 10.0, size=d)
        kappa = rng.uniform(0.0, 2.5, size=d)
        delta2 = float(np.minimum((x - y) ** 2, (x + y) ** 2).sum())
        log_bound = (
            -sum(log_gaussian_mass(k) for k in kappa)
            - (d / 2.0 + kappa.sum()) * math.log(2.0 * t)
            - delta2 / (4.0 * t)
        )
        gap = log_bound - log_kernel(t, x, y, kappa)
        assert gap >= -1e-11


def test_kernel_domain_errors():
    with pytest.raises(DomainError):
        log_kernel(0.0, [1.0], [1.0], [0.5])
    with pytest.raises(DomainError):
        log_kernel(-1.0, [1.0], [1.0], [0.5])
    with pytest.raises(DomainError):
        log_kernel(1.0, [1.0, 2.0], [1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        log_kernel(1.0, [float("nan")], [1.0], [0.5])


# ---------------------------------------------------------------------------
# derivatives


DERIV_CASES = [
    (0.5, [1.0], [0.7], [0.5]),
    (0.01, [3.0], [-2.0], [1.5]),
    (7.0, [0.3], [9.0], [0.25]),
    (1.0, [1.0, -2.0], [0.5, 1.5], [0.5, 0.0]),
    (0.2, [-4.0, 0.8], [6.0, -0.1], [2.5, 1.0]),
]


@pytest.mark.parametrize("t,x,y,kappa", DERIV_CASES)
def test_log_kernel_derivatives_match_finite_differences(t, x, y, kappa):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    got = log_kernel_derivatives(t, x, y, kappa)
    assert isinstance(got, KernelPoint)
    assert abs(got.log_p - log_kernel(t, x, y, kappa)) < 1e-13
    for i in range(x.size):

        def along(s, i=i):
            z = x.copy()
            z[i] = s
            return log_kernel(t, z, y, kappa)

        h = 1e-3 * (1.0 + abs(x[i])) * min(1.0, math.sqrt(t))
        d1 = oracle.central_d1(along, x[i], h)
        d2 = oracle.central_d2(along, x[i], h)
        assert abs(got.grad_x_log_p[i] - d1) <= 1e-7 * max(1.0, abs(d1))
        assert abs(got.hess_diag_x_log_p[i] - d2) <= 1e-6 * max(1.0, abs(d2))
    ht = 1e-4 * t
    dt = oracle.central_d1(lambda s: log_kernel(s, x, y, kappa), t, ht)
    assert abs(got.dt_log_p - dt) <= 1e-7 * max(1.0, abs(dt))


def test_gaussian_derivative_closed_forms():
    t, u, v = 0.8, 1.2, -0.5
    got = log_kernel_derivatives(t, [u], [v], [0.0])
    d1, d2, dt = oracle.gaussian_log_kernel_derivatives(t, u, v)
    assert abs(got.grad_x_log_p[0] - d1) < 1e-14
    assert abs(got.hess_diag_x_log_p[0] - d2) < 1e-14
    assert abs(got.dt_log_p - dt) < 1e-14


def test_second_log_derivative_lower_bound():
    # d_ii log p = -1/(2t) + (y_i/(2t))^2 * variance >= -1/(2t)
    rng = np.random.default_rng(41)
    for _ in range(30):
        t = float(rng.uniform(0.01, 100.0))
        x = rng.uniform(-10.0, 10.0, size=2)
        y = rng.uniform(-10.0, 10.0, size=2)
        kappa = rng.uniform(0.0, 2.5, size=2)
        got = log_kernel_derivatives(t, x, y, kappa)
        assert np.all(got.hess_diag_x_log_p >= -1.0 / (2.0 * t) - 1e-15 / t)


def test_batch_derivatives_match_scalar_path():
    t, u, kappa = 0.4, 1.3, 0.75
    v = np.linspace(-8.0, 8.0, 41)
    assert v[20] == 0.0
    log_p, d1, d2, dt = kernel_derivatives_1d_batch(t, u, v, kappa)
    for j in (0, 7, 20, 33, 40):
        ref = oracle.scalar_kernel_point(t, [u], [v[j]], [kappa])
        got = (log_p[j], d1[j], d2[j], dt[j])
        want = (ref.log_p, ref.grad_x_log_p[0], ref.hess_diag_x_log_p[0], ref.dt_log_p)
        # batched and scalar moments are the same bits; a = 0 (j = 20) takes
        # the exact limit on both paths, no moments involved
        assert got == want
    # u = 0 puts every tilt at 0
    log_p, d1, d2, dt = kernel_derivatives_1d_batch(t, 0.0, v, kappa)
    for j in (0, 7, 20, 33, 40):
        ref = oracle.scalar_kernel_point(t, [0.0], [v[j]], [kappa])
        assert (log_p[j], d1[j], d2[j], dt[j]) == (
            ref.log_p, ref.grad_x_log_p[0], ref.hess_diag_x_log_p[0], ref.dt_log_p
        )


@pytest.mark.parametrize("kappa", [0.0, 0.75])
def test_batch_arrays_of_t_and_u_equal_scalar_calls(kappa):
    # every entry is the scalar call's bits, log p included: float and array
    # times take log(2t) (log(4 pi t) at kappa = 0) from the same log.
    # math.log and numpy's log differ by an ulp at 2t for t = 1.1344455733228427
    # and at 4 pi t for t = 0.05473796892967582
    odd_times = [1.1344455733228427, 0.05473796892967582]
    rng = np.random.default_rng(11)
    t = np.append(10.0 ** rng.uniform(-3.0, 2.0, 3000), odd_times)
    u = rng.uniform(-5.0, 5.0, t.size)
    v = rng.uniform(-5.0, 5.0, t.size)
    # u = v: at kappa = 0 log p is then -log(4 pi t)/2 alone, and keeps its ulp
    u[-2:] = v[-2:]
    for t_arg, u_arg in ((t, u), (t, 0.7), (0.3, u)):
        batch = kernel_derivatives_1d_batch(t_arg, u_arg, v, kappa)
        times = np.broadcast_to(t_arg, v.shape).tolist()
        coords = np.broadcast_to(u_arg, v.shape).tolist()
        alone = np.array(
            [
                [entry[0] for entry in kernel_derivatives_1d_batch(tj, uj, vj, kappa)]
                for tj, uj, vj in zip(times, coords, v)
            ]
        ).T
        for entry in range(4):
            assert batch[entry].tobytes() == alone[entry].tobytes()


@pytest.mark.parametrize("kappa", [0.0, 1e-8, 0.5, 1.5, 20.0, 100.0, 1000.0])
def test_log_envelope_bounds_the_kernel_from_above(kappa):
    # E_kappa(a) <= e^|a|: the bound the panel integrals skip nodes by
    mags = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 13)])
    coords = np.concatenate([-mags[::-1], mags])
    t, u, v = (g.ravel() for g in np.meshgrid(np.logspace(-6.0, 6.0, 13), coords, coords, indexing="ij"))
    a = np.abs(u * v / (2.0 * t))
    # tilts whose moments evaluate: at kappa = 100 the Laguerre ladder stalls
    # for 50 < |a| < 60, and at kappa = 1000 its rules overflow (ROADMAP
    # items 13 and 14), so there only the Jacobi branch is checked
    keep = (a <= kernel.TILT_SWITCH) | ((kappa < 1000.0) & ~((kappa == 100.0) & (a < 60.0)))
    t, u, v, a = t[keep], u[keep], v[keep], a[keep]
    sign, far = np.sign(u * v), a > kernel.TILT_SWITCH
    # both signs of the tilt on each branch checked
    for branch in (~far, far) if kappa < 1000.0 else (~far,):
        assert (sign[branch] > 0).any() and (sign[branch] < 0).any()
    log_p = kernel_derivatives_1d_batch(t, u, v, kappa)[0]
    bound = kernel._log_envelope(t, u, v, kappa)
    # the two sides round apart by a few ulps of their largest terms
    scale = 1.0 + abs(log_gaussian_mass(kappa)) + np.abs((kappa + 0.5) * np.log(2.0 * t)) + (u * u + v * v) / (4.0 * t)
    assert np.isfinite(log_p).all()
    assert (log_p <= bound + 8.0 * np.finfo(float).eps * scale).all()


def test_batch_rejects_bad_times_and_shapes_in_an_array():
    v = np.linspace(-1.0, 1.0, 3)
    for bad in (0.0, -1.0, math.inf, math.nan):
        # the scalar check's message, from the same validator
        with pytest.raises(DomainError, match=re.escape(f"time must be finite and > 0, got {bad!r}")):
            kernel_derivatives_1d_batch(np.array([0.5, bad, 0.5]), 1.0, v, 0.5)
    with pytest.raises(DomainError, match=r"t must be a float or shaped like v \(3,\)"):
        kernel_derivatives_1d_batch(np.ones(2), 1.0, v, 0.5)
    with pytest.raises(DomainError, match=r"u must be a float or shaped like v \(3,\)"):
        kernel_derivatives_1d_batch(0.5, np.ones((3, 1)), v, 0.5)


def test_log_kernel_is_exactly_the_log_p_of_the_derivative_path():
    # both paths evaluate the same per-coordinate formulas, so they agree to
    # the last bit, including on the hyperplanes x_i = 0 or y_i = 0 (a = 0)
    # and on Gaussian (kappa_i = 0) coordinates
    rng = np.random.default_rng(43)
    for n in range(300):
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        d = int(rng.integers(1, 4))
        x = rng.uniform(-10.0, 10.0, d)
        y = rng.uniform(-10.0, 10.0, d)
        kappa = rng.uniform(0.1, 2.5, d)
        if n % 3 == 1:
            x[rng.integers(d)] = 0.0
        if n % 3 == 2:
            y[rng.integers(d)] = 0.0
        if n % 5 == 0:
            kappa[rng.integers(d)] = 0.0
        assert log_kernel(t, x, y, kappa) == log_kernel_derivatives(t, x, y, kappa).log_p


def test_batch_derivatives_gaussian_branch():
    t, u = 0.9, -1.1
    v = np.array([-2.0, 0.0, 3.5])
    log_p, d1, d2, dt = kernel_derivatives_1d_batch(t, u, v, 0.0)
    for j in range(v.size):
        assert abs(log_p[j] - oracle.gaussian_log_kernel(t, u, v[j])) < 1e-14
        g1, g2, gt = oracle.gaussian_log_kernel_derivatives(t, u, v[j])
        assert abs(d1[j] - g1) < 1e-14
        assert abs(d2[j] - g2) < 1e-14
        assert abs(dt[j] - gt) < 1e-14


def test_gaussian_branch_variance_term_is_zero_at_huge_coordinates():
    # 0.0 * v**2 is 0.0 * inf = nan once |v| > 1.3e154
    _, _, d2, _ = kernel_derivatives_1d_batch(1.0, 1e200, np.array([1e200]), 0.0)
    assert d2[0] == -0.5


# ---------------------------------------------------------------------------
# the fixed accuracy contract of the ladders


def test_no_public_function_takes_a_ladder_tolerance_or_cap(capsys):
    public = [getattr(dunklheat, name) for name in dunklheat.__all__]
    functions = [fn for fn in public if inspect.isfunction(fn)]
    assert dunklheat.moment_stats in functions and dunklheat.semigroup_solution in functions
    for fn in functions:
        assert not {"rel_tol", "max_nodes"} & set(inspect.signature(fn).parameters), fn.__name__
    for fn in (dunklheat.semigroup_solution, dunklheat.normalization_check, dunklheat.chapman_kolmogorov_check):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    assert "max_nodes" not in {f.name for f in dataclasses.fields(cli.RunConfig)}
    with pytest.raises(SystemExit) as exc:
        cli.main(["semigroup-check", "--max-nodes", "512"])
    assert exc.value.code == 2
    assert "--max-nodes" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the public API


def _readme() -> str:
    return (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_lists_the_public_api():
    # each item of the README's "Library API" list names a module, then every
    # name of its __all__, sorted; together they are the package's __all__
    section = _readme().split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for item in re.split(r"^- ", section, flags=re.M)[1:]:
        module, *names = re.findall(r"`([^`]+)`", item)
        assert names == sorted(importlib.import_module(module).__all__), module
        listed += names
    assert sorted(listed) == dunklheat.__all__
    assert len(listed) == len(set(listed))


def test_readme_quick_start_runs():
    # the one python block of the README runs as written
    (block,) = re.findall(r"^```python\n(.*?)^```$", _readme(), flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
