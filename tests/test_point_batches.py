"""The n-point calls of the point checks against their one-point calls.

Each check takes one point or n points, and reads its field, or evaluates
the kernel, once for all its points.  A point's entry of an n-point call must
be the bits of its one-point call, on the CLI's default grids and at the
awkward points: x_i = 0 and -0.0, just inside and just outside the hyperplane
band |x_i| < 1e-7 (1 + |x|), kappa_i = 0, and d = 1 and 3.
"""

import contextlib
import io
import itertools
import math
import re

import numpy as np
import pytest

from _oracles import exp_field
from dunklheat import cli, inequalities, kernel, operators, semigroup
from dunklheat.inequalities import (
    VerificationReport,
    gradient_form_check,
    harnack_check,
    kernel_solution_field,
    log_convexity_check,
    log_convexity_midpoint_check,
)
from dunklheat.kernel import _coordinate, log_kernel, log_kernel_derivatives
from dunklheat.operators import ScalarField, dunkl_laplacian, reflect, reflection_epsilon
from dunklheat.quadrature import DomainError
from dunklheat.semigroup import (
    InitialDatum,
    bump_profile,
    heat_residual,
    liyau_for_solution,
    semigroup_solution,
    two_bump_profile,
)

# 1.5e-7 sits inside the band next to a coordinate 1 or 3, 6e-7 outside it
_COORDS = (-3.0, -1.0, -0.0, 0.0, 1.5e-7, 6e-7, 1.0, 3.0)
_KAPPAS = [(0.5, 1.5), (0.0, 0.5), (0.5,), (0.5, 0.0, 1.5)]


def _grid(d: int, coords=_COORDS) -> np.ndarray:
    return np.array(list(itertools.product(coords, repeat=d)))


def _bits(values) -> list[str]:
    """Each float as its hex text: signed zeros and NaN compare to the bit."""
    return [float(v).hex() for v in np.ravel(values)]


def _pointwise_laplacian(f, x, kappa):
    """dunkl_laplacian as it took one point before its array path: the
    Hessian's sum, then one correction per axis, computed in place."""
    x = np.asarray(x, dtype=float)
    grad = np.asarray(f.gradient(x), dtype=float)
    hess = np.asarray(f.hessian_diag(x), dtype=float)
    total = float(hess.sum())
    eps = reflection_epsilon(x)
    fx = None
    for i, k in enumerate(kappa):
        if k == 0.0:
            continue
        if abs(x[i]) < eps:
            total += 2.0 * k * hess[i]
        else:
            if fx is None:
                fx = f.value(x)
            total += k / (x[i] * x[i]) * (2.0 * x[i] * grad[i] - fx + f.value(reflect(x, i)))
    return total


def _each_point(f: ScalarField) -> ScalarField:
    """f as a field of (m, d) arrays, point by point, so a batch sees the
    bits a one-point call sees."""

    def each(g):
        return lambda z: np.array([g(row) for row in z])

    return ScalarField(each(f.value), each(f.gradient), each(f.hessian_diag))


def _datum(d: int) -> InitialDatum:
    profiles = [two_bump_profile(-2.0, 2.0, 0.8, power=3), bump_profile(0.5, 1.0, power=3)]
    return InitialDatum(tuple(profiles[i % 2] for i in range(d)))


# ---------------------------------------------------------------------------
# the operator


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_dunkl_laplacian_batch_is_the_bits_of_each_point(kappa):
    d = len(kappa)
    f = exp_field(np.linspace(0.3, -0.2, d))
    points = _grid(d)
    want = [_pointwise_laplacian(f, x, kappa) for x in points]
    assert _bits(dunkl_laplacian(_each_point(f), points, kappa)) == _bits(want)
    assert _bits([dunkl_laplacian(f, x, kappa) for x in points]) == _bits(want)


def test_dunkl_laplacian_asks_for_values_only_where_a_point_reads_them():
    kappa = (0.5, 0.0)
    asked = []
    f = exp_field((0.3, -0.2))

    def value(z):
        asked.append(np.asarray(z).tolist())
        return np.array([f.value(row) for row in z])

    batch = ScalarField(value, _each_point(f).gradient, _each_point(f).hessian_diag)
    # axis 0 is in the band at the first point only; axis 1 has kappa = 0
    dunkl_laplacian(batch, [[1.5e-7, 1.0], [2.0, 1.0], [-0.0, 3.0]], kappa)
    assert asked == [[[2.0, 1.0]], [[-2.0, 1.0]]]


# ---------------------------------------------------------------------------
# solution fields


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_solution_field_batch_reads_are_the_bits_of_each_point(kappa):
    d = len(kappa)
    points = _grid(d, (-3.0, -0.0, 0.0, 6e-7, 1.0))
    times = np.resize([0.05, 1.0], len(points))
    field = semigroup_solution(_datum(d), kappa)
    reads = (field.log_value, field.log_gradient, field.log_hessian_diag, field.log_time_derivative)
    for read in reads:
        batch = read(times, points)
        assert _bits(batch) == _bits([read(t, x) for t, x in zip(times.tolist(), points)])
    # one time for all points reads the same entries
    at_one = [read(1.0, points[times == 1.0]) for read in reads]
    for read, batch in zip(reads, at_one):
        assert _bits(batch) == _bits(read(times[times == 1.0], points[times == 1.0]))


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_kernel_solution_field_batch_is_the_bits_of_the_scalar_kernel(kappa):
    d = len(kappa)
    y0 = np.linspace(0.5, -1.0, d)
    u = kernel_solution_field(y0, kappa)
    points = _grid(d, (-3.0, -0.0, 0.0, 1.5e-7, 1.0))
    times = np.resize([0.05, 0.7, 3.0], len(points))
    batch = [g(times, points) for g in (u.log_value, u.log_gradient, u.log_hessian_diag, u.log_time_derivative)]
    for i, (t, x) in enumerate(zip(times.tolist(), points)):
        kp = log_kernel_derivatives(t, x, y0, kappa)
        assert log_kernel(t, x, y0, kappa) == kp.log_p
        assert _bits([batch[0][i], batch[3][i]]) == _bits([kp.log_p, kp.dt_log_p])
        assert _bits(batch[1][i]) == _bits(kp.grad_x_log_p)
        assert _bits(batch[2][i]) == _bits(kp.hess_diag_x_log_p)
        assert u.log_value(t, x) == kp.log_p


# ---------------------------------------------------------------------------
# the checks


def _report_bits(reports) -> list:
    return [(r.claim_id, r.grid_point, _bits([r.lhs, r.rhs, r.deficit]), r.passed) for r in reports]


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_solution_checks_batch_are_the_bits_of_each_point(kappa):
    d = len(kappa)
    points = _grid(d, (-3.0, -0.0, 0.0, 1.5e-7, 6e-7, 1.0))
    field = semigroup_solution(_datum(d), kappa)
    field.log_value(0.3, points)
    bound = (d + 2.0 * sum(kappa)) / 0.6
    batch = liyau_for_solution(field, 0.3, points, kappa)
    assert _report_bits(batch) == _report_bits(liyau_for_solution(field, 0.3, x, kappa) for x in points)
    batch = gradient_form_check(field, 0.3, points, bound)
    assert _report_bits(batch) == _report_bits(gradient_form_check(field, 0.3, x, bound) for x in points)
    rng = np.random.default_rng(3)
    s = 10.0 ** rng.uniform(-1.0, 0.3, len(points))
    t = s * rng.uniform(1.05, 8.0, len(points))
    y = points[rng.permutation(len(points))]
    batch = harnack_check(field, s, points, t, y, sum(kappa), d)
    tuples = zip(s.tolist(), points, t.tolist(), y)
    each = [harnack_check(field, *tup, lambda_kappa=sum(kappa), d=d) for tup in tuples]
    assert _report_bits(batch) == _report_bits(each)


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_kernel_checks_batch_are_the_bits_of_the_memo_path(kappa):
    # the checks do not read the moment memo; the memo's scalar kernel gives
    # the same bits
    d = len(kappa)
    rng = np.random.default_rng(11)
    points = _grid(d, (-3.0, -0.0, 0.0, 1.5e-7, 6e-7, 1.0))
    n = len(points)
    t = 10.0 ** rng.uniform(-1.0, 1.0, n)
    y, z1 = (points[rng.permutation(n)] for _ in range(2))
    z2 = rng.uniform(-5.0, 5.0, (n, d))
    diagonal = log_convexity_check(t, points, y, kappa)
    midpoint = log_convexity_midpoint_check(t, z1, z2, y, kappa)
    for i, (ti, x, yi, a, b) in enumerate(zip(t.tolist(), points, y, z1, z2)):
        assert _report_bits([diagonal[i]]) == _report_bits([log_convexity_check(ti, x, yi, kappa)])
        assert _report_bits([midpoint[i]]) == _report_bits([log_convexity_midpoint_check(ti, a, b, yi, kappa)])
        worst = max(-_coordinate(ti, u, v, k).variance_term for u, v, k in zip(x.tolist(), yi.tolist(), kappa))
        assert _bits([diagonal[i].lhs]) == _bits([worst])

        def log_q(z):
            return log_kernel(ti, z, yi, kappa) - log_kernel(ti, z, np.zeros(d), kappa)

        want = (log_q(0.5 * (a + b)), 0.5 * (log_q(a) + log_q(b)))
        assert _bits([midpoint[i].lhs, midpoint[i].rhs]) == _bits(want)


def _pointwise_heat_residual(t, x, y, kappa) -> float:
    """heat_residual as it took one point before its array path: the scalar
    kernel and the pointwise Laplacian."""
    ref = log_kernel_derivatives(t, x, y, kappa)
    g = ref.grad_x_log_p

    def value(z):
        if np.array_equal(z, x):
            return 1.0
        return math.exp(log_kernel(t, z, y, kappa) - ref.log_p)

    field = ScalarField(value, lambda z: g, lambda z: ref.hess_diag_x_log_p + g * g)
    lap = _pointwise_laplacian(field, np.asarray(x, dtype=float), kappa)
    dt = ref.dt_log_p
    return float(abs(dt - lap) / max(abs(dt), abs(lap), 1.0 / t))


@pytest.mark.parametrize("kappa", _KAPPAS)
@pytest.mark.parametrize("t", [0.01, 1.0, 10.0])
def test_heat_residual_batch_is_the_bits_of_the_pointwise_residual(kappa, t):
    points = _grid(len(kappa), (-3.0, -0.0, 0.0, 1.5e-7, 6e-7, 1.0))
    y = points[::-1]
    batch = heat_residual(t, points, y, kappa)
    assert _bits(batch) == _bits([heat_residual(t, x, yi, kappa) for x, yi in zip(points, y)])
    assert _bits(batch) == _bits([_pointwise_heat_residual(t, x, yi, kappa) for x, yi in zip(points, y)])


def test_the_cli_default_grids_are_batched_with_the_bits_of_each_point():
    kappa, times = cli._DEFAULT_KAPPA, cli._DEFAULT_T
    points = _grid(2, cli._DEFAULT_COORDS)
    for t in times:
        want = [_pointwise_heat_residual(t, x, y, kappa) for x, y in zip(points, points[::-1])]
        assert _bits(heat_residual(t, points, points[::-1], kappa)) == _bits(want)
    field = semigroup_solution(cli._initial_data(2)["two_bump"], kappa)
    field.log_value(np.repeat(times, len(points)), np.tile(points, (len(times), 1)))
    for t in times:
        batch = liyau_for_solution(field, t, points, kappa)
        assert _report_bits(batch) == _report_bits(liyau_for_solution(field, t, x, kappa) for x in points)


# ---------------------------------------------------------------------------
# one point or n points


_X = np.array([[1.0, 2.0], [-0.3, 0.0], [0.7, -1.1]])
_KAPPA = (0.5, 1.5)


def _checks():
    """Each check, and the kernel field's and a solution field's callables,
    as a map of (t, x, y) with x and y one point each or n points each."""
    u = kernel_solution_field([0.5, -1.0], _KAPPA)
    solution = semigroup_solution(_datum(2), _KAPPA)
    fields = {"kernel": u, "solution": solution}
    checks = {
        "gradient_form_check": lambda t, x, y: gradient_form_check(u, t, x, 10.0),
        "harnack_check at s": lambda t, x, y: harnack_check(u, t, x, 5.0, y, sum(_KAPPA), 2),
        "harnack_check at t": lambda t, x, y: harnack_check(u, 0.1, x, t, y, sum(_KAPPA), 2),
        "liyau_for_solution": lambda t, x, y: liyau_for_solution(u, t, x, _KAPPA),
        "log_convexity_check": lambda t, x, y: log_convexity_check(t, x, y, _KAPPA),
        "log_convexity_midpoint_check": lambda t, x, y: log_convexity_midpoint_check(t, x, y, y, _KAPPA),
        "heat_residual": lambda t, x, y: heat_residual(t, x, y, _KAPPA),
    }
    for name, field in fields.items():
        for read in ("log_value", "log_gradient", "log_hessian_diag", "log_time_derivative"):
            checks[f"{name} {read}"] = lambda t, x, y, read=getattr(field, read): read(t, x)
    return checks


_CHECKS = [name for name in _checks() if " log_" not in name]


@pytest.mark.parametrize("name", _CHECKS)
def test_each_check_gives_one_result_per_point(name):
    # gradient_form_check took x of shape (3, 2) for one point of R^6
    check = _checks()[name]
    y = _X[::-1]
    one = check(0.7, _X[0], y[0])
    each = check(0.7, _X, y)
    if name == "heat_residual":
        assert type(one) is float and each.shape == (3,)
        assert _bits(each) == _bits([check(0.7, x, yi) for x, yi in zip(_X, y)])
    else:
        assert isinstance(one, VerificationReport) and len(each) == 3
        assert _report_bits(each) == _report_bits(check(0.7, x, yi) for x, yi in zip(_X, y))


@pytest.mark.parametrize("name", list(_checks()))
def test_a_times_array_of_the_wrong_length_is_a_domain_error(name):
    message = "expected one time or 3 times, one per point, got times of shape (2,)"
    if name == "liyau_for_solution":
        # the Laplacian of the time-t slice: one time for all points
        message = "expected one time, got times of shape (2,)"
    with pytest.raises(DomainError, match=re.escape(message)):
        _checks()[name](np.array([1.0, 2.0]), _X, _X[::-1])


@pytest.mark.parametrize(
    "name", ["harnack_check at s", "log_convexity_check", "log_convexity_midpoint_check", "heat_residual"]
)
def test_points_of_two_shapes_are_a_domain_error(name):
    with pytest.raises(DomainError, match=re.escape("expected points of one shape, got shapes (3, 2), (2,)")):
        _checks()[name](0.7, _X, _X[0])


# ---------------------------------------------------------------------------
# what a default report does


def test_default_report_reads_the_memo_only_for_chapman_kolmogorov(monkeypatch):
    lookups, validated = [], []
    ratios, point = kernel.moment_ratios, operators._validate_point

    def counted_ratios(*args):
        lookups.append(args)
        return ratios(*args)

    def counted_point(*args, **kwargs):
        validated.append(kwargs.get("batch", False))
        return point(*args, **kwargs)

    monkeypatch.setattr(kernel, "_MOMENT_CACHE", {})
    monkeypatch.setattr(kernel, "moment_ratios", counted_ratios)
    for module in (operators, kernel, inequalities, semigroup, cli):
        monkeypatch.setattr(module, "_validate_point", counted_point)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--reproducible"]) == 0
    # the right-hand sides of the 350 Chapman-Kolmogorov rows, at d = 2;
    # 1,920 when every point check read the memo
    assert len(lookups) == 700
    # 7,641 when every point check and every field read took one point; 189
    # of the 1,744 now check a whole array of points
    assert (len(validated), validated.count(True)) == (1744, 189)
