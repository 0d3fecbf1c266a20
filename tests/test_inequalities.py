"""Li-Yau bound, its scalar ingredients f and h, and the derived
parabolic inequalities."""

import itertools
import math
import re

import numpy as np
import pytest

import _oracles as oracle
from dunklheat import inequalities, kernel
from dunklheat.inequalities import (
    DEFAULT_COORDS,
    GridExtrema,
    LiYauCoordinate,
    LiYauDecomposition,
    VerificationReport,
    f_of_a,
    gradient_form_check,
    h_of_a,
    harnack_check,
    kernel_solution_field,
    liyau_coordinate_table,
    liyau_functional,
    liyau_grid_extrema,
    log_convexity_check,
    log_convexity_midpoint_check,
)
from dunklheat.kernel import _MOMENT_CACHE, log_kernel, log_kernel_derivatives, moment_ratios
from dunklheat.operators import MultiplicityZ2, ScalarField, SpaceTimeField, dunkl_laplacian
from dunklheat.quadrature import DomainError, gauss_jacobi_rule
from dunklheat.semigroup import InitialDatum, semigroup_solution

KAPPA_GRID = [0.25, 0.5, 1.0, 2.5]


# ---------------------------------------------------------------------------
# f


def test_f_at_zero_is_exactly_zero():
    for kappa in KAPPA_GRID:
        assert f_of_a(0.0, kappa) == 0.0


def test_f_frozen_values():
    # frozen from the brute-force oracle at 1e5 panels
    assert abs(f_of_a(3.0, 0.5) - 2.851008823591248) < 1e-11
    assert abs(f_of_a(1.0, 1.0) - 0.39856280511574305) < 1e-11
    assert abs(f_of_a(10.0, 2.5) - 13.603335039095823) < 1e-10


def test_f_against_brute_force_both_branches():
    rng = np.random.default_rng(71)
    tilts = np.concatenate(
        [rng.uniform(-200.0, 200.0, 8), rng.uniform(-1.0, 1.0, 4), [0.999, -0.999, 1.001, -1.001]]
    )
    for a in tilts:
        kappa = float(rng.choice(KAPPA_GRID))
        got = f_of_a(float(a), kappa)
        want = oracle.brute_force_f(float(a), kappa, n_panels=20_000)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (a, kappa)


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_f_nonnegative_across_tilt_range(kappa):
    for a in np.linspace(-200.0, 200.0, 41):
        assert f_of_a(float(a), kappa) >= -1e-10


def test_f_small_tilt_keeps_relative_accuracy():
    # f(a) = 2 var(0) a^2 (1 + O(a)); the integral branch must track the
    # quadratic with relative, not absolute, accuracy
    for kappa in (0.25, 2.5):
        lead = 2.0 * oracle.variance_at_zero(kappa)
        for a in (1e-3, 1e-5, 1e-7):
            ratio = f_of_a(a, kappa) / (lead * a * a)
            assert abs(ratio - 1.0) <= 1.0 * a + 1e-12, (kappa, a, ratio)


# tilts below the direct-formula switch, where f comes from its integral form
SMALL_TILTS = [
    *np.random.default_rng(2024).uniform(-1.0, 1.0, 16).tolist(),
    1e-7,
    1e-5,
    -1e-5,
    0.999,
    -0.999,
]


@pytest.mark.parametrize(
    "kappa",
    [
        0.25,
        0.5,
        2.5,
        1000.0,
        pytest.param(
            1e-8,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the Jacobi branch's variance S2/S0 - r1^2 cancels at tiny kappa (up to "
                "6.9e-5 relative on the Kummer tilts); phi is 1.0e-8 relative off (ROADMAP item 14)",
            ),
        ),
    ],
)
def test_f_small_tilt_matches_kummer_reference(kappa):
    for a in SMALL_TILTS:
        want = oracle.f_reference(a, kappa)
        assert abs(f_of_a(a, kappa) - want) <= 1e-13 * want, (a, kappa)


# tilts at or above the direct-formula switch, up to |a| = 1000
DIRECT_TILTS = [
    *(np.resize([1.0, -1.0], 16) * 10.0 ** np.random.default_rng(2105).uniform(0.0, 3.0, 16)).tolist(),
    1.0,
    -1.0,
    50.0,
    -50.5,
    1000.0,
    -1000.0,
]


@pytest.mark.parametrize(
    "kappa, tilts",
    [
        (0.25, SMALL_TILTS + DIRECT_TILTS),
        (0.5, SMALL_TILTS + DIRECT_TILTS),
        (2.5, SMALL_TILTS + DIRECT_TILTS),
        (10.0, SMALL_TILTS + DIRECT_TILTS),
        # the direct branch overflows in the kappa = 1000 Laguerre rules
        (1000.0, SMALL_TILTS),
        pytest.param(
            1e-8,
            SMALL_TILTS + DIRECT_TILTS,
            marks=pytest.mark.xfail(
                strict=True,
                reason="at |a| <= 50 the Jacobi branch's variance S2/S0 - r1^2 cancels at tiny "
                "kappa (phi 1.0e-8 relative off at small tilts), and the direct formula loses "
                "3.6e-8 of phi at 1 <= |a| <= 50; past |a| = 50 phi holds to 4e-16 (ROADMAP item 14)",
            ),
        ),
    ],
    ids=["0.25", "0.5", "2.5", "10.0", "1000.0-small", "1e-08"],
)
def test_phi_matches_kummer_reference(kappa, tilts):
    # phi(a) = f(a)/a^2, the reflection factor of the coordinate deficit
    for a in tilts:
        want = oracle.f_reference(a, kappa) / (a * a)
        got = inequalities._f_values(np.array([a]), kappa)[1][0]
        assert abs(got - want) <= 1e-13 * want, (a, kappa)


@pytest.mark.parametrize("kappa", [0.25, 0.5, 1.0, 2.5, 1000.0, 1e-8])
def test_hyperplane_deficit_is_the_a_zero_value(kappa):
    # at a = 0 the deficit w^2 (var + kappa phi) is w^2 2 kappa/(2 kappa + 1),
    # w = y_i/(2t), at every time, also where 4t^2 underflows
    for t, y in ((0.3, 1.7), (0.01, -3.0), (100.0, 10.0), (1e-200, 1e-50)):
        w = y / (2.0 * t)
        want = w * w * 2.0 * kappa / (2.0 * kappa + 1.0)
        for x in (0.0, -0.0):
            got = liyau_functional(t, [x], [y], [kappa]).coordinates[0].deficit
            assert abs(got - want) <= 1e-15 * want, (t, y, x)


def test_f_small_tilt_is_one_batched_moment_call(monkeypatch):
    stats_calls = []
    stats = inequalities.moment_stats

    def counting_stats(a, *rest):
        stats_calls.append(np.size(a))
        return stats(a, *rest)

    monkeypatch.setattr(inequalities, "moment_stats", counting_stats)
    entries = len(_MOMENT_CACHE)
    f_of_a(0.3712345, 0.75)
    # the rule's node tilts, and a itself, whose moments a Li-Yau term reads
    assert stats_calls == [inequalities._F_RULE_NODES + 1]
    assert len(_MOMENT_CACHE) == entries
    # the direct branch is the displayed formula: r1 and log m0 at +-a, from
    # one batched call
    stats_calls.clear()
    f_of_a(-1.2345678, 0.75)
    assert stats_calls == [2]
    assert len(_MOMENT_CACHE) == entries
    # h likewise reads r1 at +-a from one batched call, past the memo
    stats_calls.clear()
    h_of_a(0.3712345, 0.75)
    assert stats_calls == [2]
    assert len(_MOMENT_CACHE) == entries


@pytest.mark.parametrize("kappa", [0.25, 1.5, 200.0])
def test_f_small_tilt_equals_per_node_scalar_sum(kappa):
    # the integral form summed node by node from cached scalar moments: the
    # batched call has the same moment bits and the same summation order
    rule = gauss_jacobi_rule(0.0, 0.0, inequalities._F_RULE_NODES)
    for a in np.random.default_rng(7).uniform(-1.0, 1.0, 24).tolist():
        total = 0.0
        for node, weight in zip(rule.nodes, rule.weights):
            total += weight * (1.0 + node) * moment_ratios(a * node, kappa).variance
        want = float(a * a * total)
        assert f_of_a(a, kappa) == want, (a, kappa)


def test_f_domain_errors():
    with pytest.raises(DomainError):
        f_of_a(float("nan"), 0.5)
    with pytest.raises(DomainError):
        f_of_a(1.0, 0.0)


# ---------------------------------------------------------------------------
# h


def test_h_zero_and_exact_antisymmetry():
    assert h_of_a(0.0, 0.5) == 0.0
    rng = np.random.default_rng(73)
    for _ in range(15):
        a = float(rng.uniform(-40.0, 40.0))
        kappa = float(rng.choice(KAPPA_GRID))
        assert h_of_a(a, kappa) + h_of_a(-a, kappa) == 0.0


@pytest.mark.parametrize("kappa", [1e-8, 0.5, 20.0])
def test_h_batch_is_the_scalar_and_the_memo_formula_bit_for_bit(kappa):
    rng = np.random.default_rng(29)
    tilts = np.concatenate(
        [[0.0, -0.0], rng.uniform(-50.0, 50.0, 12), rng.uniform(50.0, 400.0, 4), rng.uniform(-400.0, -50.0, 4)]
    )
    batch = inequalities._h_values(tilts, kappa).tolist()
    for a, value in zip(tilts.tolist(), batch):
        assert value == h_of_a(a, kappa), (a, kappa)
        assert value == moment_ratios(a, kappa).r1 - moment_ratios(-a, kappa).r1, (a, kappa)


@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_h_increasing_and_signed(kappa):
    grid = np.linspace(-5.0, 5.0, 101)
    values = [h_of_a(float(a), kappa) for a in grid]
    assert all(values[i] < values[i + 1] for i in range(len(values) - 1))
    assert h_of_a(2.0, kappa) > 0.0 > h_of_a(-2.0, kappa)


# ---------------------------------------------------------------------------
# reports


def test_report_build_and_pass_logic():
    r = VerificationReport.build("demo", (1.0,), lhs=1.0, rhs=2.0, tolerance=1e-9)
    assert r.deficit == 1.0 and r.passed
    r = VerificationReport.build("demo", (1.0,), lhs=2.0, rhs=1.0, tolerance=1e-9)
    assert r.deficit == -1.0 and not r.passed
    r = VerificationReport.build("demo", (1.0,), lhs=1.0, rhs=1.0, tolerance=1e-9, deficit=-5e-10)
    assert r.passed  # explicit stable deficit wins


def test_report_rejects_bad_fields():
    # a non-finite field is a numerical failure, an inconsistent flag a bad input
    with pytest.raises(FloatingPointError, match="report field lhs is not finite"):
        VerificationReport.build("demo", (1.0,), lhs=float("inf"), rhs=1.0, tolerance=1e-9)
    with pytest.raises(DomainError):
        VerificationReport(
            claim_id="demo",
            grid_point=(1.0,),
            lhs=0.0,
            rhs=1.0,
            deficit=1.0,
            passed=False,  # inconsistent with deficit >= -tol
            tolerance=1e-9,
        )


# ---------------------------------------------------------------------------
# the Li-Yau functional


def test_zero_multiplicity_is_the_sharp_gaussian_case():
    dec = liyau_functional(0.5, [1.0, -2.0], [0.3, 4.0], [0.0, 0.0])
    assert dec.total == 2.0  # d/(2t) exactly
    assert dec.bound == 2.0
    assert dec.deficit == 0.0
    for d in (1, 3):
        dec = liyau_functional(0.07, [1.0] * d, [-2.0] * d, [0.0] * d)
        assert abs(dec.bound - dec.total) < 1e-12 * dec.bound
        assert dec.deficit == 0.0


def test_equality_at_zero_right_argument():
    # y = 0 makes every a_i = 0, killing both deficit terms: the bound is
    # attained, which is the sharpness half of the statement
    dec = liyau_functional(0.01, [0.3, -10.0], [0.0, 0.0], [0.25, 2.5])
    assert dec.deficit == 0.0
    assert dec.bound - dec.total == 0.0


def test_decomposition_fields_are_consistent():
    t, x, y, kappa = 0.5, [1.0, -2.0], [0.3, 1.5], [0.5, 1.5]
    dec = liyau_functional(t, x, y, kappa)
    assert isinstance(dec, LiYauDecomposition)
    assert len(dec.coordinates) == 2
    assert dec.bound == (2 + 2.0 * 2.0) / (2.0 * t)
    for i, c in enumerate(dec.coordinates):
        assert c == liyau_functional(t, [x[i]], [y[i]], [kappa[i]]).coordinates[0]
        assert c.a == x[i] * y[i] / (2.0 * t)
        assert c.variance_term >= 0.0
        assert c.f_value >= 0.0
        dxx = -1.0 / (2.0 * t) + c.variance_term
        assert abs(c.i_value - (dxx + c.j_value)) < 1e-14
        assert abs(c.deficit - (c.variance_term + (c.j_value + kappa[i] / t))) < 1e-13
    assert abs(dec.total - (-sum(c.i_value for c in dec.coordinates))) < 1e-14


def test_decomposition_adds_its_coordinates_left_to_right():
    # the CLI adds a row's axes left to right from 0.0; math.fsum, and the
    # built-in sum from Python 3.12 on, compensate the rounding and give 1.0
    values = (1e16, 1.0, -1e16)
    coordinates = tuple(inequalities.LiYauCoordinate(0.0, 0.0, 0.0, 0.0, v, v) for v in values)
    dec = LiYauDecomposition(1.0, (0.0,) * 3, (0.0,) * 3, MultiplicityZ2.of((0.5,) * 3), coordinates)
    assert math.fsum(values) == 1.0
    assert (dec.total, dec.deficit) == (-0.0, 0.0)


@pytest.mark.parametrize(
    "t,x,y,kappa",
    [
        (0.5, [1.0, -2.0], [0.3, 1.5], [0.5, 1.5]),
        (0.01, [3.0], [10.0], [2.5]),
        (7.0, [-0.3, 0.9], [1.0, -1.0], [0.25, 1.0]),
        (0.5, [0.0, 1.1], [1.3, 2.0], [0.5, 1.5]),  # on a hyperplane
    ],
)
def test_functional_matches_generic_dunkl_laplacian(t, x, y, kappa):
    # two computation paths: analytic per-coordinate moments against the
    # generic difference operator applied to the log-kernel field
    field = ScalarField(
        value=lambda z: log_kernel(t, z, y, kappa),
        gradient=lambda z: log_kernel_derivatives(t, z, y, kappa).grad_x_log_p,
        hessian_diag=lambda z: log_kernel_derivatives(t, z, y, kappa).hess_diag_x_log_p,
    )
    generic = dunkl_laplacian(field, np.asarray(x, dtype=float), kappa)
    dec = liyau_functional(t, x, y, kappa)
    assert abs(-generic - dec.total) <= 1e-8 * max(1.0, abs(dec.total))


def test_hyperplane_coordinate_takes_limit_branch():
    t, kappa = 0.5, [1.5]
    dec = liyau_functional(t, [0.0], [2.0], kappa)
    c = dec.coordinates[0]
    ratios = moment_ratios(0.0, 1.5)
    dxx = -1.0 / (2.0 * t) + 4.0 / (4.0 * t * t) * ratios.variance
    assert abs(c.i_value - 4.0 * dxx) < 1e-13  # (1 + 2 kappa) d_xx log p
    assert c.deficit >= 0.0


def test_unbalanced_deficit_is_nonnegative_on_random_grid():
    rng = np.random.default_rng(79)
    for _ in range(60):
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        d = int(rng.integers(1, 4))
        x = rng.uniform(-10.0, 10.0, d)
        y = rng.uniform(-10.0, 10.0, d)
        kappa = rng.uniform(0.05, 2.5, d)
        report = liyau_functional(t, x, y, kappa).report()
        assert report.claim_id == "liyau_log_kernel"
        assert report.passed
        assert report.deficit >= -1e-9
        # the report deficit (stable form) agrees with rhs - lhs
        assert abs(report.deficit - (report.rhs - report.lhs)) <= 1e-10 * max(
            1.0, abs(report.rhs)
        )


def test_dimension_and_time_validation():
    with pytest.raises(DomainError):
        liyau_functional(0.0, [1.0], [1.0], [0.5])
    with pytest.raises(DomainError):
        liyau_functional(1.0, [1.0, 2.0], [1.0], [0.5, 0.5])
    with pytest.raises(DomainError):
        liyau_functional(1.0, [float("nan")], [1.0], [0.5])


# ---------------------------------------------------------------------------
# grid scan engine


def test_table_entries_match_scalar_deficits():
    table = liyau_coordinate_table(0.1, 0.5, coords=(-3.0, 0.0, 1.0))
    for ix, u in enumerate(table.coords):
        for iy, v in enumerate(table.coords):
            assert table.deficit[ix, iy] == liyau_functional(0.1, [u], [v], [0.5]).coordinates[0].deficit


def test_table_keeps_every_coordinate_term():
    coords = (-3.0, -0.0, 0.0, 1e-8, 1.0)
    table = liyau_coordinate_table(0.1, 0.5, coords=coords)
    for ix, u in enumerate(coords):
        for iy, v in enumerate(coords):
            c = table.entries[ix][iy]
            assert c == liyau_functional(0.1, [u], [v], [0.5]).coordinates[0]
            assert table.deficit[ix, iy] == c.deficit


def test_table_computes_f_once_per_distinct_tilt(monkeypatch):
    # the twelve tables of the d = 3 default liyau-scan grid: 4 times by
    # kappa_i in {0.5, 1.5, 0.25} on coordinates -3, -1, 0, 1, 3.  Each holds
    # 25 entries but 7 distinct tilts a = uv/(2t), uv in {0, +-1, +-3, +-9}:
    # (u, v), (v, u) and (-u, -v) share theirs, and f(0) = 0 needs no moments
    calls = []
    original = inequalities.moment_stats

    def counting(a, *rest):
        calls.append(np.asarray(a))
        return original(a, *rest)

    monkeypatch.setattr(inequalities, "moment_stats", counting)
    coords = (-3.0, -1.0, 0.0, 1.0, 3.0)
    grid = [(t, k) for t in (0.01, 0.1, 1.0, 10.0) for k in (0.5, 1.5, 0.25)]
    tables = [liyau_coordinate_table(t, k, coords) for t, k in grid]
    # one call per table, for f and the kernel terms: [a, -a] for the direct
    # tilts, a times every rule node for the integral-form tilts 0 < |a| < 1,
    # then those tilts and 0 themselves
    assert len(calls) == 12
    tilts = np.concatenate(calls)
    integral = np.abs(tilts) < inequalities._F_DIRECT_SWITCH
    # the integral form runs at six tilts at t = 10 and two at t = 1
    assert np.count_nonzero(integral) == 3 * (6 + 2) * (inequalities._F_RULE_NODES + 1) + 12
    assert np.count_nonzero(~integral) == 2 * (12 * 6 - 3 * (6 + 2))
    monkeypatch.undo()
    for (t, k), table in zip(grid, tables):
        for ix, u in enumerate(coords):
            for iy, v in enumerate(coords):
                want = liyau_functional(t, [u], [v], [k]).coordinates[0]
                assert repr(table.entries[ix][iy]) == repr(want)


def test_overflowed_gaussian_tilt_is_refused_with_its_terms():
    # at kappa_i = 0 the tilt a = uv/(2t) overflows to inf at u = v = 1e200
    # while every other term stays finite; the terms refuse it, as they do at
    # kappa_i > 0, rather than hand a row an a that JSON cannot spell
    message = re.escape("Li-Yau a is not finite at u = 1e+200, v = 1e+200, t = 1.0")
    big = np.array([1e200])
    for evaluate in (
        lambda: inequalities._liyau_terms(np.array([1.0]), big, big, 0.0),
        lambda: liyau_functional(1.0, [1e200], [1e200], [0.0]),
        lambda: liyau_coordinate_table(1.0, 0.0, [1e200]),
    ):
        with pytest.raises(FloatingPointError, match=message):
            evaluate()


def test_batched_points_equal_points_one_by_one():
    # every branch in one batch: Gaussian and moment coordinates, hyperplane
    # coordinates (+-0.0 and below 1e-7 (1 + |x_i|)), y_i = 0, repeated
    # tilts, direct and integral-form f, Jacobi and Laguerre moments
    rng = np.random.default_rng(19)
    kappa = (0.0, 0.5, 2.5)
    points = [
        (float(10.0 ** rng.uniform(-2.0, 2.0)), rng.uniform(-10.0, 10.0, 3), rng.uniform(-10.0, 10.0, 3))
        for _ in range(60)
    ]
    points += [
        (0.5, [1.0, -0.0, 5e-8], [2.0, 3.0, -1.0]),
        (0.5, [2.0, 1.0, 1.0], [1.0, 2.0, 2.0]),
        (0.01, [-3.0, 3.0, 9.0], [0.0, -3.0, 9.0]),
        (0.01, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
    ]
    t = np.array([p[0] for p in points])
    x, y = (np.array([p[i] for p in points], dtype=float) for i in (1, 2))
    axes = [
        list(map(LiYauCoordinate, *inequalities._liyau_terms(t, x[:, i], y[:, i], k))) for i, k in enumerate(kappa)
    ]
    for n, (ti, xi, yi) in enumerate(points):
        want = liyau_functional(ti, xi, yi, kappa).coordinates
        assert repr(tuple(axis[n] for axis in axes)) == repr(want)
    empty = np.array([])
    assert inequalities._liyau_terms(empty, empty, empty, 0.5) == ([],) * 6


@pytest.mark.parametrize(
    "bad, message",
    [
        ((0, [1.0, 2.0], [0.5, 0.5]), "time must be finite and > 0, got 0"),
        ((0.5, [1.0], [0.5, 0.5]), "expected a point with 2 coordinates, got shape (1,)"),
        (("0.5", [1.0, 2.0], [0.5, 0.5]), "time must be finite and > 0, got '0.5'"),
    ],
)
def test_liyau_functional_names_its_bad_input(bad, message):
    with pytest.raises(DomainError) as error:
        liyau_functional(*bad, (0.5, 1.5))
    assert str(error.value) == message


@pytest.mark.parametrize("t", [1e-9, 0.01])
def test_coordinate_next_to_its_hyperplane_matches_the_kummer_reference(t):
    # |x_i| = 5e-8 is below 1e-7 (1 + |x_i|), but the tilt x_i y_i / (2t) is
    # 75 at t = 1e-9: the terms follow the tilt, whatever the size of x_i
    kappa, x, y = 0.5, 5e-8, 3.0
    w, a = y / (2.0 * t), x * y / (2.0 * t)
    variance = oracle.kummer_log_moments(a, kappa)[2]
    want = w * w * (variance + kappa * oracle.f_reference(a, kappa) / (a * a))
    point = liyau_functional(t, [x], [y], [kappa]).coordinates[0]
    table = liyau_coordinate_table(t, kappa, (x, y)).entries[0][1]
    assert point == table
    assert point.deficit == pytest.approx(want, rel=1e-12)


def test_extrema_agree_with_enumeration():
    coords = (-1.0, -0.3, 0.0, 3.0)
    ex = liyau_grid_extrema(0.1, [0.5, 2.5], coords=coords)
    assert isinstance(ex, GridExtrema)
    grid = list(itertools.product(coords, repeat=2))
    decs = [liyau_functional(0.1, x, y, [0.5, 2.5]) for x in grid for y in grid]
    assert ex.n_points == len(decs)
    assert ex.min_deficit == min(dec.deficit for dec in decs)
    y0_max = max(dec.deficit for dec in decs if all(v == 0.0 for v in dec.y))
    assert ex.max_deficit_y0 == y0_max


def test_extrema_argmin_reconstructs_a_real_point():
    ex = liyau_grid_extrema(0.1, [0.5, 2.5], coords=DEFAULT_COORDS)
    x, y = ex.argmin
    direct = liyau_functional(0.1, x, y, [0.5, 2.5])
    assert abs(direct.deficit - ex.min_deficit) <= 1e-12 * max(1.0, abs(ex.min_deficit))


def test_extrema_need_zero_in_grid():
    with pytest.raises(DomainError):
        liyau_grid_extrema(0.1, [0.5], coords=(1.0, 2.0))


def test_grid_deficit_nonnegative_for_sampled_slice():
    # one (t, kappa) slice of the full product grid certification
    ex = liyau_grid_extrema(0.01, [2.5, 0.25], coords=DEFAULT_COORDS)
    assert ex.min_deficit >= -1e-9
    assert ex.max_deficit_y0 <= 1e-8
    assert ex.n_points == 9 ** 4


# ---------------------------------------------------------------------------
# space-time fields


def test_kernel_solution_field_derivatives():
    u = kernel_solution_field([0.5, -1.0], [0.5, 1.5])
    t = 0.7
    x = np.array([1.0, 2.0])
    assert math.isfinite(u.log_value(t, x))
    slice_field = ScalarField.from_callable(lambda z: u.log_value(t, z))
    np.testing.assert_allclose(u.log_gradient(t, x), slice_field.gradient(x), rtol=1e-7)
    np.testing.assert_allclose(
        u.log_hessian_diag(t, x), slice_field.hessian_diag(x), rtol=1e-6
    )
    dt = oracle.central_d1(lambda s: u.log_value(s, x), t, 1e-4 * t)
    assert abs(u.log_time_derivative(t, x) - dt) <= 1e-7 * max(1.0, abs(dt))


# ---------------------------------------------------------------------------
# gradient form


def test_gradient_form_on_kernel_solutions():
    kappa = [0.5, 1.5]
    u = kernel_solution_field([0.5, -1.0], kappa)
    lam = 2.0
    rng = np.random.default_rng(83)
    for _ in range(25):
        t = float(10.0 ** rng.uniform(-1.0, 1.0))
        x = rng.uniform(-3.0, 3.0, 2)
        beta = (2 + 2.0 * lam) / (2.0 * t)
        r = gradient_form_check(u, t, x, beta)
        assert r.claim_id == "gradient_form" and r.passed


def test_kernel_solution_field_evaluates_the_kernel_once_per_point(monkeypatch):
    calls = []
    coordinate = kernel._coordinate

    def counting(t, u, v, kappa_i):
        calls.append(np.asarray(u).tolist())
        return coordinate(t, u, v, kappa_i)

    monkeypatch.setattr(kernel, "_coordinate", counting)
    kappa, y0, t = [0.5, 1.5], [0.5, -1.0], 0.7
    u = kernel_solution_field(y0, kappa)
    # one evaluation, one _coordinate call per axis, serves both reads
    gradient_form_check(u, t, [1.0, 2.0], beta=10.0)
    assert calls == [[1.0], [2.0]]
    calls.clear()
    points = np.array([[1.0, 2.0], [-0.3, 0.0], [-0.3, -0.0]])
    gradient_form_check(u, t, points, beta=10.0)
    assert calls == [[1.0, -0.3, -0.3], [2.0, 0.0, -0.0]]
    batch = [g(t, points) for g in (u.log_value, u.log_gradient, u.log_hessian_diag, u.log_time_derivative)]
    for i, x in enumerate(points.tolist()):
        assert u.log_value(t, x) == batch[0][i]
        np.testing.assert_array_equal(u.log_gradient(t, x), batch[1][i])
        np.testing.assert_array_equal(u.log_hessian_diag(t, x), batch[2][i])
        assert u.log_time_derivative(t, x) == batch[3][i]
    for x in ([1.0, 2.0], [-0.3, 0.0], [-0.3, -0.0], [1.0, 2.0]):
        kp = oracle.scalar_kernel_point(t, x, y0, kappa)
        assert u.log_value(t, x) == log_kernel(t, x, y0, kappa) == kp.log_p
        np.testing.assert_array_equal(u.log_gradient(t, x), kp.grad_x_log_p)
        np.testing.assert_array_equal(u.log_hessian_diag(t, x), kp.hess_diag_x_log_p)
        assert u.log_time_derivative(t, x) == kp.dt_log_p
        assert u.log_value(2.0 * t, x) == log_kernel(2.0 * t, x, y0, kappa)


def test_gradient_form_lhs_is_the_log_derivative_combination():
    kappa = [0.5, 1.5]
    u = kernel_solution_field([0.5, -1.0], kappa)
    t, x = 0.7, np.array([1.0, 2.0])
    kp = log_kernel_derivatives(t, x, [0.5, -1.0], kappa)
    g = np.asarray(kp.grad_x_log_p)
    want = float(g @ g) - kp.dt_log_p
    r = gradient_form_check(u, t, x, beta=10.0)
    assert abs(r.lhs - want) <= 1e-10 * max(1.0, abs(want))


def test_gradient_form_gaussian_equality_at_center():
    # kappa = 0, x = y0: grad log u = 0 and -d_t log u = d/(2t)
    u = kernel_solution_field([1.0, -2.0], [0.0, 0.0])
    t = 0.6
    r = gradient_form_check(u, t, [1.0, -2.0], beta=2.0 / (2.0 * t))
    assert abs(r.deficit) < 1e-12


def test_gradient_form_constant_field_passes_any_nonnegative_beta():
    const = SpaceTimeField(
        log_value=lambda t, x: math.log(3.0),
        log_gradient=lambda t, x: np.zeros(2),
        log_hessian_diag=lambda t, x: np.zeros(2),
        log_time_derivative=lambda t, x: 0.0,
    )
    r = gradient_form_check(const, 1.0, [1.0, 2.0], beta=0.0)
    assert r.lhs == 0.0 and r.passed


def test_solution_checks_hold_where_u_underflows():
    # the CLI's bump datum at kappa = (0.5, 0.5): u(0.001, x) is below the
    # double range, but log u, about -1023, is not
    kappa, t, x = [0.5, 0.5], 0.001, [2.9, 2.9]
    u = semigroup_solution(InitialDatum.bumps([0.0, 0.0], [1.5], power=3), kappa)
    assert math.exp(u.log_value(t, x)) == 0.0
    beta = (2 + 2.0 * sum(kappa)) / (2.0 * t)
    assert gradient_form_check(u, t, x, beta).passed
    assert harnack_check(u, t, x, 2.0 * t, x, lambda_kappa=1.0, d=2).passed


# ---------------------------------------------------------------------------
# Harnack


def test_harnack_on_kernel_solutions():
    kappa = [0.5, 1.5]
    u = kernel_solution_field([0.5, -1.0], kappa)
    rng = np.random.default_rng(89)
    for _ in range(50):
        s = float(10.0 ** rng.uniform(-1.0, 0.5))
        t = s * float(rng.uniform(1.05, 10.0))
        x = rng.uniform(-3.0, 3.0, 2)
        y = rng.uniform(-3.0, 3.0, 2)
        r = harnack_check(u, s, x, t, y, lambda_kappa=2.0, d=2)
        assert r.claim_id == "harnack" and r.passed


def test_harnack_gaussian_log_assembly():
    # kappa = 0: both sides have closed forms; check the report's fields
    u = kernel_solution_field([0.0], [0.0])
    s, t = 0.5, 1.25
    x, y = np.array([1.0]), np.array([-0.5])
    r = harnack_check(u, s, x, t, y, lambda_kappa=0.0, d=1)
    lhs = oracle.gaussian_log_kernel(s, 1.0, 0.0)
    rhs = (
        oracle.gaussian_log_kernel(t, -0.5, 0.0)
        + 0.5 * math.log(t / s)
        + (1.0 - (-0.5)) ** 2 / (4.0 * (t - s))
    )
    assert abs(r.lhs - lhs) < 1e-12
    assert abs(r.rhs - rhs) < 1e-12
    assert r.passed


def test_harnack_degenerates_to_equality():
    u = kernel_solution_field([0.0, 0.0], [1.0, 1.0])
    s = 1.0
    t = s * (1.0 + 1e-9)
    r = harnack_check(u, s, [0.7, -0.2], t, [0.7, -0.2], lambda_kappa=2.0, d=2)
    assert r.passed and abs(r.deficit) < 1e-4


@pytest.mark.parametrize("kappa", [(0.5, 1.5), (1e-8, 3.0), (20.0, 0.25)])
def test_harnack_and_liyau_are_sharp_for_the_fundamental_solution(kappa):
    # u = p_t(., 0) = C t^-(lambda + d/2) e^(-|x|^2/(4t)) attains the Harnack
    # bound along y = (t/s) x, both its exponent and its Gaussian term, and
    # the Li-Yau bound at y = 0: lowering either makes every point fail
    d, lam = len(kappa), sum(kappa)
    u = kernel_solution_field([0.0] * d, kappa)
    lowered = lam - 1e-6 * (lam + 1.0)
    rng = np.random.default_rng(16)
    for _ in range(150):
        s = float(10.0 ** rng.uniform(-1.0, 0.3))
        t = s * float(rng.uniform(1.05, 8.0))
        x = rng.uniform(-2.5, 2.5, d)
        y = (t / s) * x
        r = harnack_check(u, s, x, t, y, lambda_kappa=lam, d=d)
        assert abs(r.deficit) <= 1e-12 * max(1.0, abs(r.rhs)), (s, t, x)
        assert not harnack_check(u, s, x, t, y, lambda_kappa=lowered, d=d, tol=1e-9).passed
        liyau = liyau_functional(t, x, np.zeros(d), kappa)
        lowered_bound = (d + 2.0 * lam) * (1.0 - 1e-6) / (2.0 * t)
        assert not VerificationReport.build("liyau", (t,), liyau.total, lowered_bound, 1e-9).passed


def test_harnack_rejects_bad_times():
    u = kernel_solution_field([0.0], [0.5])
    with pytest.raises(DomainError):
        harnack_check(u, 1.0, [0.0], 1.0, [0.0], lambda_kappa=0.5, d=1)
    with pytest.raises(DomainError):
        harnack_check(u, 2.0, [0.0], 1.0, [0.0], lambda_kappa=0.5, d=1)
    with pytest.raises(DomainError):
        harnack_check(u, -1.0, [0.0], 1.0, [0.0], lambda_kappa=0.5, d=1)


# ---------------------------------------------------------------------------
# log-convexity of the normalized kernel


def test_convexity_diagonal_nonnegative_on_random_grid():
    rng = np.random.default_rng(97)
    for _ in range(40):
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        d = int(rng.integers(1, 3))
        x = rng.uniform(-10.0, 10.0, d)
        y = rng.uniform(-10.0, 10.0, d)
        kappa = rng.uniform(0.05, 2.5, d)
        r = log_convexity_check(t, x, y, kappa)
        assert r.claim_id == "log_convexity_diag" and r.passed


def test_convexity_trivial_cases():
    r = log_convexity_check(0.5, [1.0, 2.0], [0.0, 0.0], [0.5, 1.5])
    assert r.lhs == 0.0  # y = 0: the normalized kernel is constant in the tilt
    r = log_convexity_check(0.5, [1.0], [3.0], [0.0])
    assert r.lhs == 0.0  # Gaussian: log q is linear


def test_midpoint_convexity_random_pairs():
    rng = np.random.default_rng(101)
    kappa = [0.5, 1.5]
    y = [3.0, 0.7]
    for _ in range(30):
        t = float(10.0 ** rng.uniform(-1.0, 1.0))
        z1 = rng.uniform(-5.0, 5.0, 2)
        z2 = rng.uniform(-5.0, 5.0, 2)
        r = log_convexity_midpoint_check(t, z1, z2, y, kappa)
        assert r.claim_id == "log_convexity_midpoint" and r.passed


def test_midpoint_equality_for_identical_points():
    z = [1.0, -0.5]
    r = log_convexity_midpoint_check(0.5, z, z, [3.0, 0.7], [0.5, 1.5])
    assert r.deficit == 0.0
