"""Weighted measure, semigroup quadrature, and the global kernel identities:
normalization, Chapman-Kolmogorov, the heat equation itself, and the bound
for solutions started from product bumps."""

import collections
import inspect
import itertools
import math
import re

import numpy as np
import pytest

import _oracles as oracle
from dunklheat import cli, kernel, semigroup
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


@pytest.mark.parametrize("power", [2.5, math.nan, math.inf, "3", True, 0, -1])
@pytest.mark.parametrize(
    "build",
    [
        lambda power: bump_profile(0.0, 1.0, power),
        lambda power: InitialDatum.bumps([0.0], [1.0], power=power),
    ],
    ids=["bump_profile", "InitialDatum.bumps"],
)
def test_bump_power_must_be_a_positive_integer(build, power):
    # int() would truncate 2.5 and inf, and take "3" and True as powers
    message = f"bump power must be a positive integer, got {power!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build(power)


def test_bump_power_accepts_numpy_integers():
    assert bump_profile(0.0, 1.0, np.int64(3)).fn(np.array([0.5]))[0] == 0.75**3


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
def test_far_field_solution_matches_the_reference_on_every_path(t, x):
    # the CLI's bump datum at kappa = 0.5, where u(t, x) is e^-37084 and
    # e^-105661: the integrand is below the double range, its log is not.
    # At t = 1e-4 the window around x misses the support, so the whole
    # support is integrated
    f = InitialDatum.bumps([0.0], [1.5], power=3)
    u = semigroup_solution(f, [0.5])

    def log_f(v):
        return 3.0 * np.log(np.maximum(1.0 - (v / 1.5) ** 2, 0.0))

    want = oracle.log_solution_mass(t, x, 0.5, log_f, -1.5, 1.5)
    assert u.log_value(t, [x]) == pytest.approx(want, abs=1e-9)
    for evaluate in (u.log_gradient, u.log_hessian_diag, u.log_time_derivative):
        assert np.isfinite(evaluate(t, [x])).all()
    assert math.isfinite(liyau_for_solution(u, t, [x], [0.5]).lhs)


def test_solution_between_two_bumps_integrates_the_whole_support():
    # the CLI's two_bump datum at x = 0, t = 1e-4: the window |v| <= 0.42
    # lies between the bumps, where f p_t is 0 at every node, and the mass
    # sits at their inner edges
    u = semigroup_solution(InitialDatum((two_bump_profile(-2.0, 2.0, 0.8, power=3),)), [0.5])

    def log_f(v):
        with np.errstate(divide="ignore"):
            return np.log(sum(np.maximum(1.0 - ((v - c) / 0.8) ** 2, 0.0) ** 3 for c in (-2.0, 2.0)))

    want = oracle.log_solution_mass(1e-4, 0.0, 0.5, log_f, -2.8, 2.8)
    assert u.log_value(1e-4, [0.0]) == pytest.approx(want, abs=1e-9)


def test_solution_zero_on_the_whole_support_raises_on_every_path():
    # (u - v)^2 overflows, so log p_1(1e200, v) is -inf at every node of
    # the support: no log value is left to report
    f = InitialDatum.bumps([0.0], [1.5], power=3)
    u = semigroup_solution(f, [0.0])
    where = re.escape("solution mass underflowed at u = 1e+200, t = 1.0:")
    for evaluate in (u.log_value, u.log_gradient, u.log_hessian_diag, u.log_time_derivative):
        with pytest.raises(ConvergenceError, match=f"^{where}"):
            evaluate(1.0, [1e200])
    with pytest.raises(ConvergenceError, match=f"^{where}"):
        liyau_for_solution(u, 1.0, [1e200], [0.0])


# ---------------------------------------------------------------------------
# the panel integrator


def _panel_formula(a, b, exponent, n):
    """One panel's nodes and log-weights, the formula the level builder
    broadcasts over every panel of a level."""
    if exponent > 0.0 and (a == 0.0 or b == 0.0):
        rule = semigroup.gauss_jacobi_rule(0.0, exponent, n)
        scale = (b if a == 0.0 else -a) / 2.0
        v = scale * (1.0 + rule.nodes)
        log_w = (exponent + 1.0) * math.log(scale) + np.log(rule.weights)
        return (-v if b == 0.0 else v), log_w
    rule = semigroup.gauss_jacobi_rule(0.0, 0.0, n)
    v = 0.5 * (a + b) + 0.5 * (b - a) * rule.nodes
    log_w = np.log(0.5 * (b - a)) + np.log(rule.weights)
    if exponent != 0.0:
        log_w = log_w + exponent * np.log(np.abs(v))
    return v, log_w


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
    monkeypatch.setattr(semigroup, "_PANEL_NODE_CAP", 64)
    panels = semigroup._panels(0.0, 2.3, 0.11)
    noise = np.random.default_rng(3)

    def values(v, owner):
        return np.zeros(v.size), noise.random((1, v.size))

    with pytest.raises(ConvergenceError, match="stalled at 64 nodes"):
        # noise never settles, so the ladder climbs through all three levels
        semigroup._adaptive_panel_sum([panels], exponent, values, lambda v, owner: np.zeros(v.size), np.ones((1, 1)))
    kinds = [(0.0, 0.0)] + ([(0.0, exponent)] if exponent > 0.0 else [])
    assert lookups == {(*kind, n): 1 for kind in kinds for n in (16, 32, 64)}


# (layout, c) of integrals of exp(-c v^2) [1, v^2] |v|: c = 1 settles at the
# second level, c = 100 climbs to a third, c = 1e4 to a fourth, and c = None
# is 0 at every node
_LADDER_CASES = [
    (semigroup._panels(0.0, 2.3, 0.11), 1.0),
    (semigroup._panels(0.0, 2.3, 0.11), 100.0),
    (semigroup._panels(0.5, 3.0, 0.2), None),
    (semigroup._panels(0.0, 1.0, 0.05), 1e4),
    (semigroup._panels(0.0, 2.3, 0.4), 3.0),
]


def _gaussian_rows(cases, calls):
    """(values, envelope) of the cases' integrands: the envelope is log g
    itself, the tightest bound, so the ladder skips every node more than
    _PRUNE_LOG below an integral's largest term."""

    def log_g(v, owner):
        c = np.array([math.inf if cases[b][1] is None else cases[b][1] for b in owner.tolist()])
        with np.errstate(invalid="ignore"):
            return np.where(c == math.inf, -math.inf, -c * v * v)

    def values(v, owner):
        calls.append(sorted(set(owner.tolist())))
        return log_g(v, owner), np.stack([np.ones_like(v), v * v])

    return values, log_g


@pytest.mark.parametrize("batch_nodes", [semigroup._BATCH_NODES, 1000, 1])
def test_panel_ladder_gives_each_integral_of_a_batch_its_bits_alone(monkeypatch, batch_nodes):
    alone, levels = [], []
    for case in _LADDER_CASES:
        calls = []
        rows = _gaussian_rows([case], calls)
        alone.append(semigroup._adaptive_panel_sum([case[0]], 1.0, *rows, np.ones((1, 2))))
        levels.append(len(calls))
    assert levels == [1, 2, 1, 3, 1]
    monkeypatch.setattr(semigroup, "_BATCH_NODES", batch_nodes)
    calls = []
    layouts = [layout for layout, _ in _LADDER_CASES]
    rows = _gaussian_rows(_LADDER_CASES, calls)
    shift, sums = semigroup._adaptive_panel_sum(layouts, 1.0, *rows, np.ones((5, 2)))
    for b, (want_shift, want_sums) in enumerate(alone):
        assert shift[b : b + 1].tobytes() == want_shift.tobytes()
        assert sums[b : b + 1].tobytes() == want_sums.tobytes()
    assert shift[2] == -math.inf and sums[2].tolist() == [1.0, 1.0]
    # an integral leaves the batch once it settles; a call holds whole
    # integrals of at most batch_nodes nodes, or one integral alone
    assert [b for owners in calls for b in owners].count(1) == 2
    assert [b for owners in calls for b in owners].count(3) == 3
    if batch_nodes == 1:
        assert all(len(owners) == 1 for owners in calls)


def test_panel_ladder_takes_a_second_pass_where_the_bound_is_loose(monkeypatch):
    # a bound 40 above log g puts the largest bound term more than
    # _PRUNE_GUESS above the largest term: the first call takes a second
    # pass, and the ladder still gives the bits of one that skips no node
    layouts = [layout for layout, _ in _LADDER_CASES]
    loose_calls, every_calls = [], []
    values, log_g = _gaussian_rows(_LADDER_CASES, loose_calls)
    loose = semigroup._adaptive_panel_sum(layouts, 1.0, values, lambda v, o: log_g(v, o) + 40.0, np.ones((5, 2)))
    monkeypatch.setattr(semigroup, "_PRUNE_LOG", math.inf)
    every = semigroup._adaptive_panel_sum(layouts, 1.0, *_gaussian_rows(_LADDER_CASES, every_calls), np.ones((5, 2)))
    assert loose[0].tobytes() == every[0].tobytes() and loose[1].tobytes() == every[1].tobytes()
    assert len(loose_calls) == len(every_calls) + 1


def test_panel_ladder_batch_raises_the_stall_of_any_integral(monkeypatch):
    # at a cap of 32 nodes the third-level integral stalls alone and in a
    # batch; the others settle alone as before
    monkeypatch.setattr(semigroup, "_PANEL_NODE_CAP", 32)
    layouts = [layout for layout, _ in _LADDER_CASES[:2]]
    rows = _gaussian_rows(_LADDER_CASES, [])
    alone = _gaussian_rows(_LADDER_CASES[1:], [])
    with pytest.raises(ConvergenceError, match="stalled at 32 nodes per panel"):
        semigroup._adaptive_panel_sum(layouts[1:], 1.0, *alone, np.ones((1, 2)))
    with pytest.raises(ConvergenceError, match="stalled at 32 nodes per panel"):
        semigroup._adaptive_panel_sum(layouts, 1.0, *rows, np.ones((2, 2)))
    shift, _ = semigroup._adaptive_panel_sum(layouts[:1], 1.0, *rows, np.ones((1, 2)))
    assert np.isfinite(shift).all()


_BUMP = bump_profile(0.0, 1.5, power=3)
_TWO_BUMPS = two_bump_profile(-2.0, 2.0, 0.8, power=3)
# (profile, (t, u) points, kernel calls of each alone) at kappa = 0.5: an
# integral that settles at its second level, one that climbs to a third,
# one whose window misses the support, so that the graded whole support is
# integrated in its place, and one whose window lies between the two bumps,
# where f p_t is 0 at every node, before the graded whole support
_SOLUTION_CASES = {
    "bump": (_BUMP, [(0.5, 1.0), (1e-3, 2.0), (1e-4, -40.0), (0.3, -0.7)], [1, 2, 1, 1]),
    "two_bump": (_TWO_BUMPS, [(0.5, 1.0), (1e-4, -0.5), (0.05, 2.0), (1e-4, 0.0)], [1, 2, 1, 2]),
}


@pytest.mark.parametrize("batch_nodes", [semigroup._BATCH_NODES, 1000, 1])
@pytest.mark.parametrize("case", sorted(_SOLUTION_CASES))
def test_batched_solution_moments_are_the_bits_of_each_alone(monkeypatch, case, batch_nodes):
    profile, points, kernel_calls = _SOLUTION_CASES[case]
    times, coords = (np.array(c) for c in zip(*points))
    calls = []
    batch = semigroup.kernel_derivatives_1d_batch

    def counted(t, u, v, kappa_i):
        calls.append(v.size)
        return batch(t, u, v, kappa_i)

    monkeypatch.setattr(semigroup, "kernel_derivatives_1d_batch", counted)
    alone = []
    for j in range(len(points)):
        calls.clear()
        alone.append(semigroup._solution_moments(times[j : j + 1], coords[j : j + 1], 0.5, profile))
        assert len(calls) == kernel_calls[j]
    monkeypatch.setattr(semigroup, "_BATCH_NODES", batch_nodes)
    moments = semigroup._solution_moments(times, coords, 0.5, profile)
    assert moments.shape == (len(points), 4)
    for j, row in enumerate(alone):
        assert moments[j].tobytes() == row[0].tobytes()


def test_batched_solution_moments_raise_the_stall_of_any_integral(monkeypatch):
    monkeypatch.setattr(semigroup, "_PANEL_NODE_CAP", 64)
    with pytest.raises(ConvergenceError, match="stalled at 64 nodes per panel"):
        semigroup._solution_moments(np.array([0.5, 1e-3]), np.array([1.0, 2.5]), 0.5, _BUMP)
    assert np.isfinite(semigroup._solution_moments(0.5, 1.0, 0.5, _BUMP)).all()


def test_graded_fallback_panels_start_at_the_decay_length_next_to_the_edge():
    # u = -40 at t = 1e-4: the integrand falls by e every 2t / 38.5 = 5.2e-6
    # inside both edges of the support, where |v| = 1.5 is nearest |u|
    panels = semigroup._graded_panels(1e-4, -40.0, 0.5, _BUMP)
    assert panels[0, 0] == -1.5 and panels[-1, 1] == 1.5
    assert (panels[1:, 0] == panels[:-1, 1]).all() and (panels[:, 1] > panels[:, 0]).all()
    assert 0.0 in panels
    step = 2e-4 / 38.5
    assert panels[0, 1] - panels[0, 0] == pytest.approx(step, rel=1e-12)
    assert panels[-1, 1] - panels[-1, 0] == pytest.approx(step, rel=1e-12)
    widths = np.diff(panels, axis=1).ravel()
    assert len(panels) < 50 and widths.max() < 1.0


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("u", [-40.0, 40.0])
def test_graded_fallback_matches_the_reference_far_from_the_support(u):
    # the CLI's three data at kappa = 0.5, t = 1e-4, where 8-sigma panels
    # of the whole support stalled at 512 nodes per panel
    for name, datum in cli._initial_data(1).items():
        p = datum.profiles[0]

        def log_f(v, p=p):
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(p.fn(np.asarray(v, dtype=float)), 0.0))

        want = oracle.log_solution_mass(1e-4, u, 0.5, log_f, p.lo, p.hi)
        assert semigroup._solution_moments(1e-4, u, 0.5, p)[0, 0] == pytest.approx(want, abs=1e-9), name


def _count_ladders(monkeypatch) -> list:
    calls = []
    ladder = semigroup._adaptive_panel_sum

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    monkeypatch.setattr(semigroup, "_adaptive_panel_sum", counted)
    return calls


def test_solution_field_computes_each_coordinate_integral_once_read_only(monkeypatch):
    calls = _count_ladders(monkeypatch)
    made = []
    moments = semigroup._solution_moments

    def kept(*args):
        made.append(moments(*args))
        return made[-1]

    monkeypatch.setattr(semigroup, "_solution_moments", kept)
    f, kappa = InitialDatum.bumps([0.5, -1.0], [1.0, 2.0], power=3), [0.5, 1.5]
    t, x = 0.7, [1.0, 2.0]
    u = semigroup_solution(f, kappa)
    value = u.log_value(t, x)
    assert len(calls) == 2
    # the derivatives and a second request read the field's tables, and a
    # point that shares (t, x_0) computes its second coordinate alone
    assert u.log_value(t, x) == value
    u.log_gradient(t, x)
    u.log_hessian_diag(t, x)
    u.log_time_derivative(t, x)
    assert len(calls) == 2
    u.log_value(t, [1.0, -2.0])
    assert len(calls) == 3
    # filled by one n-point read: one batch per coordinate of its distinct
    # (t, x_i), -0.0 sharing the entry of 0.0; the points it read are hits
    calls.clear()
    points = [(t, x), (t, [1.0, -2.0]), (0.3, x), (t, [-0.0, 2.0]), (t, [0.0, 2.0])]
    v = semigroup_solution(f, kappa)
    v.log_value(np.array([s for s, _ in points]), np.array([y for _, y in points]))
    assert [len(layouts) for layouts, *_ in calls] == [3, 3]
    for s, y in points:
        v.log_value(s, y)
    assert len(calls) == 2
    assert v.log_value(t, x) == value
    assert made and not any(rows.flags.writeable for rows in made)
    with pytest.raises(ValueError):
        made[0][0, 0] = 0.0


def _integral(values) -> str:
    """The integrals whose ladder runs the integrand `values`: solution
    integrals, or by their kernel factors normalization (one) or
    Chapman-Kolmogorov (two) integrals."""
    if values.__qualname__.startswith("_log_integrals."):
        return ("normalization", "chapman_kolmogorov")[len(inspect.getclosurevars(values).nonlocals["kernels"]) - 1]
    return values.__qualname__.split(".")[0]


def test_semigroup_check_runs_one_ladder_per_distinct_coordinate_integral(monkeypatch, capsys):
    calls = _count_ladders(monkeypatch)
    assert cli.main(["semigroup-check", "--reproducible"]) == 0
    # one ladder per axis and check
    assert [_integral(values) for _, _, values, *_ in calls] == ["normalization"] * 2 + ["chapman_kolmogorov"] * 2
    integrals, panels = collections.Counter(), collections.Counter()
    for layouts, _, values, *_ in calls:
        integrals[_integral(values)] += len(layouts)
        panels[_integral(values)] += sum(map(len, layouts))
    # one integral per orbit of the joint sign flip.  normalization: 4 times,
    # 3 values of |x_i| and 2 axes.  Chapman-Kolmogorov: 7 time pairs, 2 axes
    # and 5 orbits of (x_i, y_i): y_i = x_i at |x_i| = 0, 1, 3 and y_i = -x_i
    # at |x_i| = 1, 3, since (0, -0.0) is the integral of (0, 0)
    assert integrals == {"normalization": 4 * 3 * 2, "chapman_kolmogorov": 7 * 2 * 5}
    # each Chapman-Kolmogorov integral covers the window of its product's
    # Gaussian envelope
    assert panels["chapman_kolmogorov"] == 680


def test_chapman_kolmogorov_integrands_evaluate_each_kernel_factor_once(monkeypatch, capsys):
    kernel_calls, integrands = [], []
    ladder, batch = semigroup._adaptive_panel_sum, semigroup.kernel_derivatives_1d_batch

    def evaluated(t, u, v, kappa_i):
        kernel_calls.append((t, u, v))
        return batch(t, u, v, kappa_i)

    def counted(layouts, exponent, values, envelope, units):
        if _integral(values) != "chapman_kolmogorov":
            return ladder(layouts, exponent, values, envelope, units)
        first, second = inspect.getclosurevars(values).nonlocals["kernels"]

        def wrapped(v, owner):
            kernel_calls.clear()
            out = values(v, owner)
            integrands.append((v, first[:, owner], second[:, owner], list(kernel_calls)))
            return out

        return ladder(layouts, exponent, wrapped, envelope, units)

    monkeypatch.setattr(semigroup, "kernel_derivatives_1d_batch", evaluated)
    monkeypatch.setattr(semigroup, "_adaptive_panel_sum", counted)
    assert cli.main(["semigroup-check", "--reproducible"]) == 0
    # the first factor at every node, the second at the nodes of integrals
    # where it differs (s != t or x_i != y_i): one kernel row for both
    # factors at s = t and x_i = y_i
    nodes = shared = 0
    for v, first, second, made in integrands:
        differ = (first != second).any(0)
        want = [(*first, v)] + ([(*second[:, differ], v[differ])] if differ.any() else [])
        assert len(made) == len(want)
        for got, expected in zip(made, want):
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        nodes, shared = nodes + v.size, shared + (~differ).sum()
    # per axis, 5 chunks of at most 4096 nodes over the first two levels and
    # one integral at a third; 5,640 of the nodes are those of the 24
    # integrals at s = t and x_i = y_i
    assert len(integrands) == 12
    assert (nodes, shared) == (16_154, 5_640)


def _count_panel_nodes(monkeypatch) -> list:
    """The sizes of the node arrays that reach the panel integrands."""
    counted = []
    ladder = semigroup._adaptive_panel_sum

    def counting(layouts, exponent, values, envelope, units):
        def wrapped(v, owner):
            counted.append(v.size)
            return values(v, owner)

        return ladder(layouts, exponent, wrapped, envelope, units)

    monkeypatch.setattr(semigroup, "_adaptive_panel_sum", counting)
    return counted


@pytest.mark.parametrize(
    "command, nodes",
    [("semigroup-check", 21_064), ("harnack-scan", 76_800), ("solution-scan", 14_478)],
)
def test_default_suites_evaluate_a_fixed_number_of_panel_nodes(monkeypatch, capsys, command, nodes):
    counted = _count_panel_nodes(monkeypatch)
    assert cli.main([command, "--reproducible"]) == 0
    # the count moves with the ladder's start, cap or settle test, with the
    # panel layouts and with the nodes the integrands' bounds skip: 44,480
    # and 19,344 before the bounds, while harnack-scan's panels, clipped to
    # the bump's support, keep every node
    assert sum(counted) == nodes


def test_nodes_the_bounds_skip_leave_the_default_suites_bytes_unchanged(monkeypatch, capsys):
    pruned = {}
    for command in ("semigroup-check", "solution-scan", "report"):
        assert cli.main([command, "--reproducible"]) == 0
        pruned[command] = capsys.readouterr().out
    # an infinite margin lets every node reach its integrand
    monkeypatch.setattr(semigroup, "_PRUNE_LOG", math.inf)
    counted = _count_panel_nodes(monkeypatch)
    every_node = {"semigroup-check": 44_480, "solution-scan": 19_344, "report": 44_480 + 19_344 + 76_800}
    for command, out in pruned.items():
        counted.clear()
        assert cli.main([command, "--reproducible"]) == 0
        assert capsys.readouterr().out == out
        assert sum(counted) == every_node[command]


# (t, u) of normalization and (s, t, x_i, y_i) of Chapman-Kolmogorov
# integrals whose tilts stay below |a| = 50 at kappa = 100, past which the
# Laguerre moments stall there (ROADMAP item 13), and (t, u) of solution
# integrals far from, at the centre of and wide around the CLI's data
_MASS_POINTS = [(0.01, 0.0), (0.1, 0.5), (1.0, 1.0), (10.0, -3.0)]
_CK_POINTS = [(0.1, 0.1, 0.5, 0.5), (1.0, 1.0, 1.0, -1.0), (0.1, 1.0, 0.0, 3.0), (10.0, 10.0, -3.0, 3.0)]
_SOLUTION_POINTS = [(1e-4, 40.0), (1e-4, -40.0), (1e-4, 0.0), (0.01, 40.0), (0.01, -40.0), (100.0, 8.0)]
# (datum, kappa, t, u) next to a support edge at small t, where a settle
# test of 1e-6 stops a level early and misses by 2.6e-11 and 4.5e-11; at
# the points above 32 nodes per panel are already within 1e-11
_EDGE_INTEGRALS = [("offset_bump", 1.5, 3e-4, -1.6), ("two_bump", 1.5, 2e-4, -2.7)]


def _panel_integrals() -> np.ndarray:
    out = []
    for kappa in (1e-8, 0.5, 100.0):
        keys = [(t, u, kappa, 2.0 * kappa) for t, u in _MASS_POINTS]
        out += map(semigroup._log_integrals(keys, semigroup._mass_integral).get, keys)
        keys = [(*point, kappa) for point in _CK_POINTS]
        out += map(semigroup._log_integrals(keys, semigroup._ck_integral).get, keys)
    data = cli._initial_data(1)
    times, coords = (np.array(c) for c in zip(*_SOLUTION_POINTS))
    for datum in data.values():
        for kappa in (0.5, 1.5):
            out += semigroup._solution_moments(times, coords, kappa, datum.profiles[0]).ravel().tolist()
    for name, kappa, t, u in _EDGE_INTEGRALS:
        out += semigroup._solution_moments(t, u, kappa, data[name].profiles[0]).ravel().tolist()
    return np.array(out)


def test_panel_ladder_agrees_with_one_started_at_128_nodes(monkeypatch):
    got = _panel_integrals()
    monkeypatch.setattr(semigroup, "_PANEL_NODE_START", 128)
    want = _panel_integrals()
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 1e-11, (err.max(), err.argmax())


def test_kernel_checks_run_each_distinct_coordinate_integral_once_per_call(monkeypatch):
    # within a call, one integral per distinct orbit, a sign flip (and -0.0)
    # sharing it, in one ladder per axis; between calls nothing is kept,
    # since no caller repeats one
    kappa = [0.5, 1.5]
    x = np.array([[1.0, 0.0], [-1.0, -0.0], [1.0, 0.0]])
    y = np.array([[-1.0, 0.0], [1.0, -0.0], [-1.0, -0.0]])
    calls = _count_ladders(monkeypatch)

    def integrals():
        return [len(layouts) for layouts, *_ in calls]

    masses = normalization_check(0.5, x, kappa)
    # |x_i| = 1 on axis 0 and 0 on axis 1
    assert integrals() == [1, 1]
    composed = chapman_kolmogorov_check(0.3, 0.7, x, y, kappa)
    # the orbits of (1, -1) on axis 0 and of (0, 0) on axis 1
    assert integrals() == [1] * (2 + 2)
    assert masses[0] == masses[2] and composed[0] == composed[2]
    assert normalization_check(0.5, x[0], kappa) == masses[0]
    assert chapman_kolmogorov_check(0.3, 0.7, x[0], y[0], kappa) == composed[0]
    assert integrals() == [1] * (4 + 2 + 2)


@pytest.mark.parametrize("kappa", [[0.0, 0.5], [0.5, 1.5]])
def test_kernel_checks_give_the_same_bits_under_a_sign_flip(kappa):
    # p_t(gx, gy) = p_t(x, y) for every g in Z_2^2, flipping any axes of
    # both points, and the weight |v|^(2 kappa) is even
    rng = np.random.default_rng(27)
    for _ in range(4):
        s, t = (float(10.0 ** e) for e in rng.uniform(-1.5, 0.5, 2))
        x, y = rng.uniform(-3.0, 3.0, (2, 2))
        mass = normalization_check(t, x, kappa)
        ck = chapman_kolmogorov_check(s, t, x, y, kappa)
        for g in itertools.product((1.0, -1.0), repeat=2):
            flipped = normalization_check(t, np.multiply(g, x), kappa)
            assert (flipped.lhs, flipped.rhs, flipped.deficit) == (mass.lhs, mass.rhs, mass.deficit), g
            flipped = chapman_kolmogorov_check(s, t, np.multiply(g, x), np.multiply(g, y), kappa)
            assert (flipped.lhs, flipped.rhs, flipped.deficit) == (ck.lhs, ck.rhs, ck.deficit), g


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


def test_normalization_past_the_linear_range_passes():
    # p_1(1, .) at kappa = 150 carries 1 / c_kappa ~ 1e-307, and the weight
    # |v|^300 overflows past |v| = 10.6, inside the window
    assert normalization_check(1.0, [1.0], [150.0]).passed


def test_chapman_kolmogorov_past_the_linear_range_matches_the_bessel_form():
    # at kappa = 80 the integrand p_1(1, v) p_1(v, 1) is below the double
    # range, though |v|^160 lifts its integral to p_2(1, 1) = 1.95e-191
    r = chapman_kolmogorov_check(1.0, 1.0, [1.0], [1.0], [80.0])
    assert r.passed
    assert r.lhs == pytest.approx(math.exp(oracle.log_kernel_1d(2.0, 1.0, 1.0, 80.0)), rel=1e-10)


def test_solution_scan_runs_one_ladder_per_distinct_coordinate_integral(monkeypatch, capsys):
    calls = _count_ladders(monkeypatch)
    argv = ["solution-scan", "--kappa", "0.5,1.5", "--t", "0.5", "--coords=-1,0,1", "--reproducible"]
    assert cli.main(argv) == 0
    # one per (datum, axis) of the (t, u) of 1 time and 3 coordinates: the
    # reflections of the grid points are grid points
    assert [len(layouts) for layouts, *_ in calls] == [1 * 3] * (3 * 2)


def test_liyau_for_solution_agrees_cold_and_after_the_field_filled_the_cache(monkeypatch):
    kappa, t, x = [0.5, 1.5], 0.7, [1.0, -2.0]

    def datum():
        # fresh profile objects for each field
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


@pytest.mark.parametrize("x, y", [(1.0, -0.5), (-1.0, 0.5)])
def test_chapman_kolmogorov_gaussian_closed_form(x, y):
    r = chapman_kolmogorov_check(0.3, 0.7, [x], [y], [0.0])
    want = math.exp(oracle.gaussian_log_kernel(1.0, x, y))
    assert r.passed and r.rhs == pytest.approx(want, rel=1e-13)
    assert r.lhs == pytest.approx(want, rel=1e-10)


def test_chapman_kolmogorov_at_negative_coordinates_matches_the_bessel_form():
    # the integral is taken at the orbit's representative (1.0, 0.5)
    r = chapman_kolmogorov_check(0.3, 0.7, [-1.0], [-0.5], [0.5])
    assert r.passed
    assert r.lhs == pytest.approx(math.exp(oracle.log_kernel_1d(1.0, -1.0, -0.5, 0.5)), rel=1e-10)


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
    coordinate = kernel._coordinate

    def counted(t, u, v, kappa_i):
        calls.append(np.asarray(u).tolist())
        return coordinate(t, u, v, kappa_i)

    # the batch at x runs in the kernel module, the flipped coordinates here
    monkeypatch.setattr(kernel, "_coordinate", counted)
    monkeypatch.setattr(semigroup, "_coordinate", counted)
    x, y = [[1.0, -2.0], [0.5, 3.0]], [[0.3, 1.5], [-1.0, 0.25]]
    residuals = heat_residual(0.5, x, y, [0.5, 1.5])
    assert (residuals < 1e-7).all()
    # the derivatives at x, one call per axis for all points, then the
    # kernel at each reflected point: one call per axis at the flipped
    # coordinate, the other axes' terms taken from the call at x
    assert calls == [[1.0, 0.5], [-2.0, 3.0], [-1.0, -0.5], [2.0, -3.0]]
    # each point's residual is the bits of its one-point call
    calls.clear()
    for i, row in enumerate(residuals.tolist()):
        assert heat_residual(0.5, x[i], y[i], [0.5, 1.5]) == row
    assert calls == [[1.0], [-2.0], [-1.0], [2.0], [0.5], [3.0], [-0.5], [-3.0]]


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
