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
from typing import Iterator, Sequence

import numpy as np

from .kernel import (
    _coordinate,
    log_kernel,
    log_kernel_derivatives,
    moment_ratios,
    moment_stats,
)
from .operators import (
    MultiplicityZ2,
    SpaceTimeField,
    _validate_multiplicity,
    _validate_point,
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
    "iter_liyau_points",
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


def _f_values(a: np.ndarray, kappa_i: float) -> tuple[np.ndarray, np.ndarray]:
    """f and phi(a) = f(a)/a^2 at each finite tilt of the 1-d array a,
    computed once per distinct tilt.

    For |a| >= 1 the displayed formula for f is evaluated directly, from one
    moment_stats call on [a, -a], and phi = f/a^2.  Below that it cancels
    catastrophically (the value is ~ 2 var(0) a^2 against O(1) terms), so
    phi comes from the equivalent integral form

        phi(a) = integral_{-1}^{1} (1 + n) var(a n) dn

    instead, and f = a^2 phi: every factor is nonnegative, so both carry
    full relative accuracy all the way down to the closed form phi(0) =
    2 var(0) = 4 kappa/(2 kappa + 1)^2.  One moment_stats call gives the
    moments at [d, -d] for the direct tilts d and at every node tilt of
    every such a.
    """
    tilts, inverse = np.unique(a, return_inverse=True)
    f = np.zeros(tilts.size)
    phi = np.full(tilts.size, 4.0 * kappa_i / (2.0 * kappa_i + 1.0) ** 2)
    direct = np.abs(tilts) >= _F_DIRECT_SWITCH
    small = ~direct & (tilts != 0.0)
    d, s = tilts[direct], tilts[small]
    rule = gauss_jacobi_rule(0.0, 0.0, _F_RULE_NODES)
    log_m0, r1, variance = moment_stats(np.concatenate([d, -d, np.outer(s, rule.nodes).ravel()]), kappa_i)
    f[direct] = 2.0 * d * r1[: d.size] + log_m0[d.size : 2 * d.size] - log_m0[: d.size]
    phi[direct] = f[direct] / d / d
    # f(a) = int_{-a}^{a} (s + a) var(s) ds (oriented), and s = a*n
    terms = (rule.weights * (1.0 + rule.nodes)) * variance[2 * d.size :].reshape(s.size, _F_RULE_NODES)
    # a running sum in node order: the same bits as a node-by-node sum
    phi[small] = np.cumsum(terms, axis=1)[:, -1]
    f[small] = s * s * phi[small]
    return f[inverse], phi[inverse]


def h_of_a(a: float, kappa_i: float) -> float:
    """h(a) / (m0(a) m0(-a)) = r1(a) - r1(-a).

    The unscaled h is a difference of products of moment integrals and
    overflows for |a| > ~350; dividing by the positive factor m0(a) m0(-a)
    preserves the sign, the zero at a = 0, and the monotonicity.
    """
    (a,) = _validate_tilts(float(a)).tolist()
    kappa_i = _validate_multiplicity(kappa_i)
    return moment_ratios(a, kappa_i).r1 - moment_ratios(-a, kappa_i).r1


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
        return float(-sum(c.i_value for c in self.coordinates))

    @property
    def bound(self) -> float:
        return _liyau_bound(self.t, self.kappa)

    @property
    def deficit(self) -> float:
        """bound - total, assembled from the per-coordinate cancelled forms."""
        return float(sum(c.deficit for c in self.coordinates))

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
        c = _coordinate(t, u, v, kappa_i)
        if kappa_i > 0.0:
            f_value, phi = _f_values(c.a, kappa_i)
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
    return next(iter_liyau_points([(t, x, y)], kappa))


def iter_liyau_points(points, kappa) -> Iterator[LiYauDecomposition]:
    """liyau_functional at each (t, x, y) of points, in order, bit for bit,
    from one batched evaluation of the coordinate terms per axis.  The terms
    are computed before this returns, so a point that fails raises here."""
    kappa = MultiplicityZ2.of(kappa)
    ts, xs, ys = [], [], []
    for t, x, y in points:
        ts.append(_validate_time(t))
        xs.append(tuple(_validate_point(x, kappa.d).tolist()))
        ys.append(tuple(_validate_point(y, kappa.d).tolist()))
    t_all = np.array(ts)
    x_all = np.array(xs).reshape(len(ts), kappa.d)
    y_all = np.array(ys).reshape(len(ts), kappa.d)
    axes = [
        map(LiYauCoordinate, *_liyau_terms(t_all, x_all[:, i], y_all[:, i], k))
        for i, k in enumerate(kappa.values)
    ]
    return (
        LiYauDecomposition(t=t, x=x, y=y, kappa=kappa, coordinates=coords)
        for t, x, y, coords in zip(ts, xs, ys, zip(*axes))
    )


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
    the last (t, x) asked for.
    """
    kappa = MultiplicityZ2.of(kappa)
    y0 = _validate_point(y0, kappa.d)
    last = {}

    def derivatives(t, x):
        key = (_validate_time(t), _validate_point(x, kappa.d).tobytes())
        if key not in last:
            last.clear()
            last[key] = log_kernel_derivatives(t, x, y0, kappa)
        return last[key]

    return SpaceTimeField(
        log_value=lambda t, x: derivatives(t, x).log_p,
        log_gradient=lambda t, x: derivatives(t, x).grad_x_log_p,
        log_hessian_diag=lambda t, x: derivatives(t, x).hess_diag_x_log_p,
        log_time_derivative=lambda t, x: derivatives(t, x).dt_log_p,
    )


# ---------------------------------------------------------------------------
# the derived parabolic inequalities


def gradient_form_check(
    u: SpaceTimeField,
    t: float,
    x,
    beta: float,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """|grad log u|^2 - d_t log u <= beta at (t, x)."""
    t = _validate_time(t)
    x = _validate_point(x, np.size(x))
    g = np.asarray(u.log_gradient(t, x), dtype=float)
    lhs = float(g @ g) - float(u.log_time_derivative(t, x))
    return VerificationReport.build(
        claim_id="gradient_form",
        grid_point=(t, tuple(x)),
        lhs=lhs,
        rhs=float(beta),
        tolerance=tol,
    )


def harnack_check(
    u: SpaceTimeField,
    s: float,
    x,
    t: float,
    y,
    lambda_kappa: float,
    d: int,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """u(s, x) <= u(t, y) (t/s)^(lambda + d/2) exp(|x-y|^2 / (4(t-s))).

    Compared in log space: the right-hand side overflows long before the
    inequality gets interesting.
    """
    s = _validate_time(s)
    t = _validate_time(t)
    if not s < t:
        raise DomainError(f"need 0 < s < t, got s={s!r}, t={t!r}")
    x = _validate_point(x, d)
    y = _validate_point(y, d)
    gap = float((x - y) @ (x - y))
    lhs = float(u.log_value(s, x))
    rhs = float(u.log_value(t, y)) + (lambda_kappa + d / 2.0) * math.log(t / s)
    rhs += gap / (4.0 * (t - s))
    return VerificationReport.build(
        claim_id="harnack",
        grid_point=(s, tuple(x), t, tuple(y)),
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
    )


def log_convexity_check(
    t,
    x,
    y,
    kappa,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Convexity of x -> log(p_t(x, y) / p_t(x, 0)).

    The normalized log-kernel splits coordinate-wise and its Hessian is
    diagonal with entries (y_i/2t)^2 var(a_i); convexity is exactly their
    nonnegativity.  lhs is the largest violation, rhs is 0.
    """
    t = _validate_time(t)
    kappa = MultiplicityZ2.of(kappa)
    x = _validate_point(x, kappa.d)
    y = _validate_point(y, kappa.d)
    worst = -math.inf
    for u, v, k in zip(x.tolist(), y.tolist(), kappa.values):
        worst = max(worst, -_coordinate(t, u, v, k).variance_term)
    return VerificationReport.build(
        claim_id="log_convexity_diag",
        grid_point=(t, tuple(x), tuple(y)),
        lhs=float(worst),
        rhs=0.0,
        tolerance=tol,
    )


def log_convexity_midpoint_check(
    t,
    z1,
    z2,
    y,
    kappa,
    tol: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Midpoint convexity of log q_t(., y) checked by direct evaluation:
    log q((z1+z2)/2) <= (log q(z1) + log q(z2)) / 2."""
    t = _validate_time(t)
    kappa = MultiplicityZ2.of(kappa)
    z1 = _validate_point(z1, kappa.d)
    z2 = _validate_point(z2, kappa.d)
    y = _validate_point(y, kappa.d)

    def log_q(z):
        zero = np.zeros(kappa.d)
        return log_kernel(t, z, y, kappa) - log_kernel(t, z, zero, kappa)

    mid = 0.5 * (z1 + z2)
    lhs = log_q(mid)
    rhs = 0.5 * (log_q(z1) + log_q(z2))
    return VerificationReport.build(
        claim_id="log_convexity_midpoint",
        grid_point=(t, tuple(z1), tuple(z2), tuple(y)),
        lhs=float(lhs),
        rhs=float(rhs),
        tolerance=tol,
    )
