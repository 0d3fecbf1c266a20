"""The parabolic inequalities for the sign-flip Dunkl Laplacian.

Everything here reduces to one-dimensional facts about the tilted moment
ratios: the Li-Yau bound decomposes coordinate-wise, and each coordinate
deficit is a sum of two nonnegative pieces

    deficit_i = (y_i / 2t)^2 (var(a_i) + kappa_i phi(a_i)),

with a_i = x_i y_i / (2t), var the tilted variance, and phi(a) = f(a)/a^2
the reflection defect f of the log-kernel over a^2 (phi(0) = 2 var(0)).
Both are positive for kappa_i > 0, so a coordinate meets its bound exactly
when y_i = 0 or kappa_i = 0.  Deficits are always computed in this
cancelled form; the report-level rhs - lhs agrees with it to round-off but
would lose digits on its own when t is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .kernel import _coordinate, _kernel_points, moment_stats
from .operators import (
    MultiplicityZ2,
    SpaceTimeField,
    _added,
    _validate_multiplicity,
    _validate_point,
    _validate_points,
    _validate_tilts,
    _validate_time,
)
from .quadrature import DomainError, gauss_jacobi_rule

__all__ = [
    "DEFAULT_COORDS",
    "DEFAULT_TIMES",
    "DEFAULT_TOLERANCE",
    "CoordinateTable",
    "GridExtrema",
    "LiYauCoordinate",
    "LiYauDecomposition",
    "VerificationReport",
    "f_of_a",
    "gradient_form_check",
    "h_of_a",
    "harnack_check",
    "kernel_solution_field",
    "liyau_coordinate_table",
    "liyau_functional",
    "liyau_grid_extrema",
    "log_convexity_check",
    "log_convexity_midpoint_check",
]

DEFAULT_TOLERANCE = 1e-9
DEFAULT_TIMES = tuple(float(t) for t in np.logspace(-2.0, 2.0, 9))
DEFAULT_COORDS = (-10.0, -3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0, 10.0)

# below this |a| the direct formula for f loses all digits to cancellation
# (f ~ 2 var(0) a^2 while its terms are O(1)); switch to the integral form
_F_DIRECT_SWITCH = 1.0
_F_RULE_NODES = 32


# ---------------------------------------------------------------------------
# the two scalar functions carrying the whole Li-Yau argument


def f_of_a(a: float, kappa_i: float) -> float:
    """f(a) = 2a r1(a) + log m0(-a) - log m0(a), the reflection defect of
    the one-dimensional log-kernel.  Nonnegative for every tilt.  The scalar
    face of _f_values, which gives the same bits for a in any batch.
    """
    return float(_f_values(_validate_tilts(float(a)), _validate_multiplicity(kappa_i))[0][0])


def _f_values(a: np.ndarray, kappa_i: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """f and phi(a) = f(a)/a^2 at each finite tilt of the 1-d array a, and
    the (3, len(a)) moment_stats rows at a, computed once per distinct tilt.

    For |a| >= 1 the displayed formula for f is evaluated directly, from the
    moments at a and -a, and phi = f/a^2.  Below that it cancels
    catastrophically (the value is ~ 2 var(0) a^2 against O(1) terms), so
    phi comes from the equivalent integral form

        phi(a) = integral_{-1}^{1} (1 + n) var(a n) dn

    instead, and f = a^2 phi: every factor is nonnegative, so both carry
    full relative accuracy all the way down to the closed form phi(0) =
    2 var(0) = 4 kappa/(2 kappa + 1)^2.  One moment_stats call gives the
    moments at the distinct tilts, at -d for the direct tilts d and at every
    node tilt of every such a.
    """
    tilts, inverse = np.unique(a, return_inverse=True)
    f = np.zeros(tilts.size)
    phi = np.full(tilts.size, 4.0 * kappa_i / (2.0 * kappa_i + 1.0) ** 2)
    direct = np.abs(tilts) >= _F_DIRECT_SWITCH
    small = ~direct & (tilts != 0.0)
    d, s = tilts[direct], tilts[small]
    rule = gauss_jacobi_rule(0.0, 0.0, _F_RULE_NODES)
    stats = moment_stats(np.concatenate([tilts, -d, np.outer(s, rule.nodes).ravel()]), kappa_i)
    (log_m0, r1, variance), m = stats, tilts.size
    f[direct] = 2.0 * d * r1[:m][direct] + log_m0[m : m + d.size] - log_m0[:m][direct]
    phi[direct] = f[direct] / d / d
    # f(a) = int_{-a}^{a} (s + a) var(s) ds (oriented), and s = a*n
    terms = (rule.weights * (1.0 + rule.nodes)) * variance[m + d.size :].reshape(s.size, _F_RULE_NODES)
    # a running sum in node order: the same bits as a node-by-node sum
    phi[small] = np.cumsum(terms, axis=1)[:, -1]
    f[small] = s * s * phi[small]
    return f[inverse], phi[inverse], stats[:, inverse]


def h_of_a(a: float, kappa_i: float) -> float:
    """h(a) / (m0(a) m0(-a)) = r1(a) - r1(-a).

    The unscaled h is a difference of products of moment integrals and
    overflows for |a| > ~350; dividing by the positive factor m0(a) m0(-a)
    preserves the sign, the zero at a = 0, and the monotonicity.  The scalar
    face of _h_values, which gives the same bits for a in any batch.
    """
    return float(_h_values(_validate_tilts(float(a)), _validate_multiplicity(kappa_i))[0])


def _h_values(a: np.ndarray, kappa_i: float) -> np.ndarray:
    """r1(a) - r1(-a) at each tilt of a, from one moment_stats call on [a, -a]."""
    r1 = moment_stats(np.concatenate([a, -a]), kappa_i)[1]
    return r1[: a.size] - r1[a.size :]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class VerificationReport:
    """One checked inequality at one grid point.

    The deficit is rhs - lhs, possibly recomputed in a cancellation-free
    form by the producing check; pass holds iff deficit >= -tolerance.
    Raises FloatingPointError for a non-finite field, DomainError for a wrong flag.
    """

    claim_id: str
    grid_point: tuple
    lhs: float
    rhs: float
    deficit: float
    passed: bool
    tolerance: float

    def __post_init__(self):
        for name in ("lhs", "rhs", "deficit", "tolerance"):
            if not math.isfinite(getattr(self, name)):
                raise FloatingPointError(f"report field {name} is not finite")
        if self.passed != (self.deficit >= -self.tolerance):
            raise DomainError("pass flag inconsistent with deficit and tolerance")

    @classmethod
    def build(cls, claim_id, grid_point, lhs, rhs, tolerance, deficit=None):
        if deficit is None:
            deficit = rhs - lhs
        return cls(
            claim_id=claim_id,
            grid_point=tuple(grid_point),
            lhs=float(lhs),
            rhs=float(rhs),
            deficit=float(deficit),
            passed=bool(deficit >= -tolerance),
            tolerance=float(tolerance),
        )


# ---------------------------------------------------------------------------
# the Li-Yau functional


@dataclass(frozen=True)
class LiYauCoordinate:
    """Per-coordinate pieces of the Li-Yau sum, with w = y_i/(2t).

    i_value is the full coordinate contribution to the Laplacian of the
    log-kernel; j_value = -kappa_i/t + kappa_i w^2 phi(a) its reflection
    part; deficit = w^2 (var(a) + kappa_i phi(a)) the cancelled-form
    distance to the per-coordinate bound -(1 + 2 kappa_i)/(2t).
    """

    a: float
    variance_term: float
    f_value: float
    j_value: float
    i_value: float
    deficit: float


@dataclass(frozen=True)
class LiYauDecomposition:
    """-Delta_kappa(log p_t(., y))(x) <= (d + 2 lambda_kappa)/(2t), split
    into its coordinate contributions, coordinates[i] for axis i; total is
    the left-hand side."""

    t: float
    x: tuple[float, ...]
    y: tuple[float, ...]
    kappa: MultiplicityZ2
    coordinates: tuple[LiYauCoordinate, ...]

    @property
    def total(self) -> float:
        return -_added(c.i_value for c in self.coordinates)

    @property
    def bound(self) -> float:
        return _liyau_bound(self.t, self.kappa)

    @property
    def deficit(self) -> float:
        """bound - total, assembled from the per-coordinate cancelled forms."""
        return _added(c.deficit for c in self.coordinates)

    def report(self, tol: float = DEFAULT_TOLERANCE) -> "VerificationReport":
        return VerificationReport.build(
            claim_id="liyau_log_kernel",
            grid_point=(self.t, self.x, self.y),
            lhs=self.total,
            rhs=self.bound,
            tolerance=tol,
            deficit=self.deficit,
        )


def _liyau_bound(t: float, kappa: MultiplicityZ2) -> float:
    """The right-hand side (d + 2 lambda_kappa)/(2t) of the Li-Yau bound."""
    return (kappa.d + 2.0 * kappa.lambda_total) / (2.0 * t)


def _liyau_terms(t, u, v, kappa_i: float) -> tuple[list[float], ...]:
    """The terms at each (t, x_i, y_i) of the equal-length float arrays t, u,
    v, all at one kappa_i: one list per LiYauCoordinate field, in field
    order.  Each entry is the same bits in any batch.  Raises
    FloatingPointError where a term, the tilt included, is not finite."""
    # scalar float semantics, silently: a product past the float range is
    # inf, and the check below refuses the non-finite terms a row would carry
    with np.errstate(all="ignore"):
        a, stats = u * v / (2.0 * t), None  # the tilt as _coordinate forms it
        if kappa_i > 0.0 and np.isfinite(a).all():
            # one moment_stats call for the kernel terms and for f
            f_value, phi, stats = _f_values(a, kappa_i)
        c = _coordinate(t, u, v, kappa_i, stats)
        if kappa_i > 0.0:
            w = v / (2.0 * t)
            reflection = kappa_i * (w * w) * phi
        else:
            # a Gaussian coordinate has no reflection part and meets the
            # bound exactly, whatever the size of w
            f_value = reflection = np.zeros(u.shape)
        j_value = -kappa_i / t + reflection
        i_value = c.d_uu + j_value
        deficit = c.variance_term + reflection
    terms = (c.a, c.variance_term, f_value, j_value, i_value, deficit)
    for field, term in zip(fields(LiYauCoordinate), terms):
        bad = np.flatnonzero(~np.isfinite(term))
        if bad.size:
            u_at, v_at, t_at = (float(w[bad[0]]) for w in (u, v, t))
            raise FloatingPointError(
                f"Li-Yau {field.name} is not finite at u = {u_at!r}, v = {v_at!r}, t = {t_at!r}"
            )
    return tuple(x.tolist() for x in terms)


def liyau_functional(t, x, y, kappa) -> LiYauDecomposition:
    """Evaluate -Delta_kappa(log p_t(., y))(x) coordinate by coordinate.

    Every coordinate takes the one moment-ratio form in w = y_i/(2t) and
    the tilt a = x_i y_i/(2t); on the hyperplane x_i = 0 that is a = 0, the
    removable-singularity limit of the generic Dunkl Laplacian.  The terms
    read (t, x_i, y_i) alone, so every point of a product grid gets the
    terms of its coordinate tables.
    """
    kappa = MultiplicityZ2.of(kappa)
    t = _validate_time(t)
    x, y = (tuple(_validate_point(p, kappa.d).tolist()) for p in (x, y))
    coordinates = tuple(
        LiYauCoordinate(*(term[0] for term in _liyau_terms(np.array([t]), np.array([u]), np.array([v]), k)))
        for u, v, k in zip(x, y, kappa.values)
    )
    return LiYauDecomposition(t=t, x=x, y=y, kappa=kappa, coordinates=coordinates)


# ---------------------------------------------------------------------------
# grid scans: the deficit is an exact sum of per-coordinate terms, so every
# point of a product grid reads its terms from one small table per
# (t, kappa_i); liyau_coordinate_table is the only place they are computed


@dataclass(frozen=True)
class CoordinateTable:
    """Per-coordinate terms on a coords x coords grid at fixed (t, kappa_i):
    entries[ix][iy] at (x_i, y_i) = (coords[ix], coords[iy])."""

    t: float
    kappa_i: float
    coords: tuple[float, ...]
    entries: tuple[tuple[LiYauCoordinate, ...], ...]
    deficit: np.ndarray  # [ix, iy]

    def __post_init__(self):
        self.deficit.setflags(write=False)


def liyau_coordinate_table(
    t: float,
    kappa_i: float,
    coords: Sequence[float] = DEFAULT_COORDS,
) -> CoordinateTable:
    t = _validate_time(t)
    kappa_i = _validate_multiplicity(kappa_i)
    grid = _validate_point(coords, len(coords))
    coords = tuple(grid.tolist())
    n = len(coords)
    # entry (ix, iy) is flat index ix * n + iy
    terms = _liyau_terms(np.full(n * n, t), np.repeat(grid, n), np.tile(grid, n), kappa_i)
    flat = list(map(LiYauCoordinate, *terms))
    entries = tuple(tuple(flat[ix * n : (ix + 1) * n]) for ix in range(n))
    deficit = np.array(terms[-1]).reshape(n, n)
    return CoordinateTable(t=t, kappa_i=kappa_i, coords=coords, entries=entries, deficit=deficit)


@dataclass(frozen=True)
class GridExtrema:
    """Exact extrema of the Li-Yau deficit over a full product grid.

    Since deficit(t, x, y) = sum_i deficit_i(t, x_i, y_i) exactly, the
    minimum over the product grid is the sum of per-coordinate minima; the
    argmin assembles per-coordinate argmins.  max_deficit_y0 ranges over the
    sub-grid y = 0 where the bound is attained.
    """

    t: float
    kappa: MultiplicityZ2
    n_points: int
    min_deficit: float
    argmin: tuple
    max_deficit_y0: float
    argmax_y0: tuple


def liyau_grid_extrema(
    t: float,
    kappa,
    coords: Sequence[float] = DEFAULT_COORDS,
) -> GridExtrema:
    kappa = MultiplicityZ2.of(kappa)
    coords = tuple(float(c) for c in coords)
    if 0.0 not in coords:
        raise DomainError("coordinate grid must contain 0 for the y = 0 extrema")
    zero_at = coords.index(0.0)
    min_total = 0.0
    max_y0_total = 0.0
    argmin_x, argmin_y, argmax_x = [], [], []
    tables = {k: liyau_coordinate_table(t, k, coords) for k in dict.fromkeys(kappa.values)}
    for k in kappa.values:
        table = tables[k]
        flat = int(np.argmin(table.deficit))
        ix, iy = divmod(flat, len(coords))
        min_total += table.deficit[ix, iy]
        argmin_x.append(coords[ix])
        argmin_y.append(coords[iy])
        col = table.deficit[:, zero_at]
        jx = int(np.argmax(col))
        max_y0_total += col[jx]
        argmax_x.append(coords[jx])
    n = len(coords) ** (2 * kappa.d)
    return GridExtrema(
        t=float(t),
        kappa=kappa,
        n_points=n,
        min_deficit=float(min_total),
        argmin=(tuple(argmin_x), tuple(argmin_y)),
        max_deficit_y0=float(max_y0_total),
        argmax_y0=(tuple(argmax_x), (0.0,) * kappa.d),
    )


# ---------------------------------------------------------------------------
# fields built from the kernel


def kernel_solution_field(y0, kappa) -> SpaceTimeField:
    """log u(t, x) = log p_t(x, y0), the fundamental solution centred at y0.

    Every callable reads one field of the same kernel evaluation, kept for
    the last (t, x) asked for.  x is one point, or n points as an (n, d)
    array with a float or (n,) times; the evaluation is one _kernel_points
    batch, and a point's entries are the bits of log_kernel and
    log_kernel_derivatives there.
    """
    kappa = MultiplicityZ2.of(kappa)
    y0 = _validate_point(y0, kappa.d)
    last = {}

    def derivatives(t, x):
        x = _validate_point(x, kappa.d, batch=True)
        t = _validate_time(t, len(np.atleast_2d(x)))
        key = (np.asarray(t).tobytes(), x.shape, x.tobytes())
        if key not in last:
            last.clear()
            points = x.reshape(-1, kappa.d)
            kp = _kernel_points(t, points, np.broadcast_to(y0, points.shape), kappa)
            one = x.ndim == 1
            last[key] = (float(kp.log_p[0]), kp.grad[0], kp.hess[0], float(kp.dt[0])) if one else kp[1:]
        return last[key]

    return SpaceTimeField(
        log_value=lambda t, x: derivatives(t, x)[0],
        log_gradient=lambda t, x: derivatives(t, x)[1],
        log_hessian_diag=lambda t, x: derivatives(t, x)[2],
        log_time_derivative=lambda t, x: derivatives(t, x)[3],
    )


# ---------------------------------------------------------------------------
# the derived parabolic inequalities: each check takes one point, shape (d,),
# and gives its report, or n points, shape (n, d), at a float or (n,) times,
# and gives a list of n reports, each the bits of its one-point call; it reads
# its field, or evaluates the kernel, once for all its points


def _times(t, n: int) -> list[float]:
    """A float time or (n,) times as n floats, one per point."""
    return np.broadcast_to(t, n).tolist()


def _one_or_all(x: np.ndarray, reports: list[VerificationReport]):
    """The report of one point x, shape (d,), or the reports of n points."""
    return reports[0] if x.ndim == 1 else reports


def gradient_form_check(
    u: SpaceTimeField,
    t,
    x,
    beta: float,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport | list[VerificationReport]:
    """|grad log u|^2 - d_t log u <= beta at (t, x): one read of u's gradient
    and one of its time derivative, with the points as given."""
    x = _validate_point(x, np.shape(x)[-1] if np.ndim(x) > 1 else np.size(x), batch=True)
    points = np.atleast_2d(x)
    t = _validate_time(t, len(points))
    g = np.asarray(u.log_gradient(t, x), dtype=float)
    lhs = np.atleast_1d(np.vecdot(g, g) - np.asarray(u.log_time_derivative(t, x), dtype=float))
    reports = [
        VerificationReport.build("gradient_form", (s, tuple(p)), value, float(beta), tol)
        for s, p, value in zip(_times(t, len(points)), points.tolist(), lhs.tolist())
    ]
    return _one_or_all(x, reports)


def harnack_check(
    u: SpaceTimeField,
    s,
    x,
    t,
    y,
    lambda_kappa: float,
    d: int,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport | list[VerificationReport]:
    """u(s, x) <= u(t, y) (t/s)^(lambda + d/2) exp(|x-y|^2 / (4(t-s))).

    Compared in log space: the right-hand side overflows long before the
    inequality gets interesting.  One read of log u at the (s, x) and one at
    the (t, y), with the points as given.
    """
    x, y = _validate_points(d, x, y)
    n = len(np.atleast_2d(x))
    s, t = _validate_time(s, n), _validate_time(t, n)
    early, late = _times(s, n), _times(t, n)
    for s_at, t_at in zip(early, late):
        if not s_at < t_at:
            raise DomainError(f"need 0 < s < t, got s={s_at!r}, t={t_at!r}")
    gap = np.vecdot(x - y, x - y)
    lhs = np.atleast_1d(np.asarray(u.log_value(s, x), dtype=float))
    # math.log, as one tuple takes it: numpy's log differs in the last bit
    growth = (lambda_kappa + d / 2.0) * np.array([math.log(b / a) for a, b in zip(early, late)])
    rhs = np.atleast_1d(np.asarray(u.log_value(t, y), dtype=float)) + growth
    rhs += gap / (4.0 * (np.array(late) - np.array(early)))
    tuples = zip(early, np.atleast_2d(x).tolist(), late, np.atleast_2d(y).tolist(), lhs.tolist(), rhs.tolist())
    reports = [
        VerificationReport.build("harnack", (a, tuple(p), b, tuple(q)), left, right, tol)
        for a, p, b, q, left, right in tuples
    ]
    return _one_or_all(x, reports)


def log_convexity_check(
    t,
    x,
    y,
    kappa,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport | list[VerificationReport]:
    """Convexity of x -> log(p_t(x, y) / p_t(x, 0)).

    The normalized log-kernel splits coordinate-wise and its Hessian is
    diagonal with entries (y_i/2t)^2 var(a_i); convexity is exactly their
    nonnegativity.  lhs is the largest violation, rhs is 0.  The variance
    terms of all points come from one _coordinate call per axis.
    """
    kappa = MultiplicityZ2.of(kappa)
    x, y = _validate_points(kappa.d, x, y)
    points, ys = np.atleast_2d(x, y)
    times = _times(_validate_time(t, len(points)), len(points))
    worst = np.full(len(points), -math.inf)
    # scalar float semantics, silently
    with np.errstate(all="ignore"):
        for i, k in enumerate(kappa.values):
            violation = -_coordinate(np.array(times), points[:, i], ys[:, i], k).variance_term
            # Python's max: the later term only where it is larger
            worst = np.where(violation > worst, violation, worst)
    reports = [
        VerificationReport.build("log_convexity_diag", (s, tuple(p), tuple(q)), value, 0.0, tol)
        for s, p, q, value in zip(times, points.tolist(), ys.tolist(), worst.tolist())
    ]
    return _one_or_all(x, reports)


def log_convexity_midpoint_check(
    t,
    z1,
    z2,
    y,
    kappa,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport | list[VerificationReport]:
    """Midpoint convexity of log q_t(., y) checked by direct evaluation:
    log q((z1+z2)/2) <= (log q(z1) + log q(z2)) / 2.  log q = log p_t(., y) -
    log p_t(., 0) at the midpoints, the z1 and the z2 of all points comes
    from one _coordinate call per axis, each log p the bits of log_kernel."""
    kappa = MultiplicityZ2.of(kappa)
    given = _validate_points(kappa.d, z1, z2, y)
    z1, z2, y = np.atleast_2d(*given)
    n = len(y)
    times = _times(_validate_time(t, n), n)
    # the midpoints, z1 and z2, against y and then against 0
    u = np.tile(np.concatenate([0.5 * (z1 + z2), z1, z2]), (2, 1))
    v = np.concatenate([np.tile(y, (3, 1)), np.zeros((3 * n, kappa.d))])
    with np.errstate(all="ignore"):
        log_p = _added(
            _coordinate(np.tile(times, 6), u[:, i], v[:, i], k).log_p for i, k in enumerate(kappa.values)
        )
    log_q = log_p[: 3 * n] - log_p[3 * n :]
    lhs, rhs = log_q[:n], 0.5 * (log_q[n : 2 * n] + log_q[2 * n :])
    reports = [
        VerificationReport.build("log_convexity_midpoint", (s, tuple(a), tuple(b), tuple(c)), left, right, tol)
        for s, a, b, c, left, right in zip(times, z1.tolist(), z2.tolist(), y.tolist(), lhs.tolist(), rhs.tolist())
    ]
    return _one_or_all(given[0], reports)
