"""The semigroup action and the global kernel identities.

Everything here reduces to one-dimensional integrals against the weight
|v|^(2 kappa): the kernel factorizes over coordinates, so applying the
semigroup to product initial data, checking that the kernel integrates to
one, and composing two kernels are per-coordinate quadratures followed by a
product over coordinates (a sum of logs for a solution field).

Each 1d integral states a window in |v| and an integrand; `_panels` lays
out the quadrature for all three.  The window of p_t(u, .) is |v| within 30
sigma of |u|, sigma = sqrt(2t): E_kappa(a) <= e^|a| (Rosler 1998) bounds
the kernel by a Gaussian in the reflection distance ||u| - |v||, so the
omitted region carries less than e^(-450) of the mass.  A profile's
integral intersects it with the support, or takes the whole support when
they miss.  In Chapman-Kolmogorov the two kernels' Gaussians multiply to
one Gaussian in |v|, centred between |x| and |y| and narrower than either,
and the integral takes that envelope's window; at kappa = 0, where the
kernels are signed Gaussians, it is centred between x and y.  Panels are
cut at 0, at knots and every few sigma; one touching v = 0 absorbs the
|v|^(2 kappa) factor into a Gauss-Jacobi rule so low multiplicities keep
full accuracy through the kink, elsewhere Gauss-Legendre panels apply the
weight pointwise.  All node counts double together until two levels' weighted
sums agree to _PANEL_REL_TOL (1e-10), up to _PANEL_NODE_CAP (512) nodes per
panel; the kernel values inside them settle to the kernel's fixed 1e-10.  A
level's nodes and weights are built for all panels at once, with one lookup
of each Gauss rule.

Each integral is a process-wide LRU cache of _SOLUTION_CACHE_SIZE entries,
called with positional arguments that name the point alone, since the
accuracy contract is fixed: `_profile_moments` feeds every solution path,
`_plain_mass` feeds `normalization_check` and `_ck_coordinate` feeds
`chapman_kolmogorov_check`.  They raise ConvergenceError where no value is
representable: where an integral underflows to 0 or a Chapman-Kolmogorov
integrand overflows (the integrands are formed in linear space), where 30
sigma vanishes next to |u| in double precision, leaving a window no width,
and where a layout would need more than _PANEL_CAP panels.

A fourth LRU cache, `_log_row`, keeps the last _ROW_CACHE_SIZE (32)
log-kernel rows log p_t(u, .) that Chapman-Kolmogorov integrands read,
keyed on (t, u, kappa_i) and the bytes of the node array.  For kappa_i > 0
the envelope's window depends on |x_i| and |y_i| alone, so the integrals of
(x_i, y_i) and (x_i, -y_i) lay out the same nodes and share the row of x_i;
at s = t and x_i = y_i the two factors are one row.  Default
`semigroup-check` reads 252 rows and computes 100.  An entry holds 16 bytes
per node, the key's and the row's.  A 60-sigma window cut every 8 sigma is
at most 16 panels, so an entry has at most 16 * 512 nodes, 128 KiB, and the
cache holds at most 4 MiB.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .inequalities import DEFAULT_TOLERANCE, VerificationReport, _liyau_bound
from .kernel import (
    kernel_derivatives_1d_batch,
    log_gaussian_mass,
    log_kernel,
    log_kernel_derivatives,
)
from .operators import (
    MultiplicityZ2,
    ScalarField,
    SpaceTimeField,
    _validate_point,
    _validate_time,
    dunkl_laplacian,
)
from .quadrature import (
    NODE_START,
    ConvergenceError,
    DomainError,
    gauss_jacobi_rule,
    node_ladder,
)

__all__ = [
    "MARKOV_CONVENTION",
    "InitialDatum",
    "MeasureConvention",
    "Profile",
    "bump_profile",
    "chapman_kolmogorov_check",
    "heat_residual",
    "liyau_for_solution",
    "normalization_check",
    "semigroup_solution",
    "two_bump_profile",
]

_WINDOW_SIGMAS = 30.0
_PANEL_SIGMAS = 8.0
_PANEL_NODE_CAP = 512
_PANEL_REL_TOL = 1e-10
# panels per layout; past it one ladder level holds hundreds of MB of node
# temporaries (23,886 panels peaked at 951 MB), and sigma = inf asks for NaN
_PANEL_CAP = 10_000
_PROFILE_SAMPLES = 257
_SOLUTION_CACHE_SIZE = 4096
# log-kernel rows kept for the Chapman-Kolmogorov integrals.  Default
# semigroup-check reuses a row at most 19 distinct rows later, when (s, t)
# and (t, s) at x_i = y_i share both; at 16 it recomputed 6 of its 100 rows
_ROW_CACHE_SIZE = 32
_LOG_DOUBLE_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# initial data


@dataclass(frozen=True)
class Profile:
    """One coordinate's initial profile: a vectorized nonnegative function
    supported on [lo, hi].

    `knots` lists interior points where the profile loses smoothness; the
    quadrature cuts panels there, since a kink inside a Gauss panel costs the
    spectral convergence everything else is built on.  Nonnegativity and
    nontriviality are sampled on a fixed grid at construction, not proved;
    callers supplying exotic profiles own the gap between samples.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    knots: tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"support must be a finite interval, got [{self.lo}, {self.hi}]")
        knots = tuple(sorted(float(k) for k in self.knots if lo < k < hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "knots", knots)


def bump_profile(center: float, radius: float, power: int = 2) -> Profile:
    """(1 - ((v - center)/radius)^2)_+^power, a bump with power - 1 continuous
    derivatives at the support edge."""
    center = float(center)
    radius = float(radius)
    power = int(power)
    if not (math.isfinite(center) and math.isfinite(radius) and radius > 0.0):
        raise DomainError(f"bump needs finite center and positive radius, got {(center, radius)}")
    if power < 1:
        raise DomainError(f"bump power must be a positive integer, got {power}")

    def fn(v):
        s = (np.asarray(v, dtype=float) - center) / radius
        return np.maximum(1.0 - s * s, 0.0) ** power

    return Profile(fn=fn, lo=center - radius, hi=center + radius)


def two_bump_profile(center_a: float, center_b: float, radius: float, power: int = 2) -> Profile:
    """Sum of two equal bumps: still nonnegative, but not log-concave once the
    centers separate, which is what makes it a worthwhile initial datum."""
    first = bump_profile(center_a, radius, power)
    second = bump_profile(center_b, radius, power)
    return Profile(
        fn=lambda v: first.fn(v) + second.fn(v),
        lo=min(first.lo, second.lo),
        hi=max(first.hi, second.hi),
        knots=(first.lo, first.hi, second.lo, second.hi),
    )


@dataclass(frozen=True)
class InitialDatum:
    """Product initial datum f(x) = prod_i f_i(x_i) with compactly supported
    nonnegative coordinate profiles."""

    profiles: tuple[Profile, ...]

    def __post_init__(self):
        profiles = tuple(self.profiles)
        if not profiles:
            raise DomainError("initial datum needs at least one coordinate profile")
        object.__setattr__(self, "profiles", profiles)
        for i, p in enumerate(profiles):
            grid = np.linspace(p.lo, p.hi, _PROFILE_SAMPLES)
            vals = np.asarray(p.fn(grid), dtype=float)
            if vals.shape != grid.shape or not np.isfinite(vals).all():
                raise DomainError(f"profile {i} must map sample grids to finite arrays")
            peak = float(vals.max())
            if float(vals.min()) < -1e-12 * max(peak, 1.0):
                raise DomainError(f"profile {i} takes negative values")
            if peak <= 0.0:
                raise DomainError(f"profile {i} vanishes at all {_PROFILE_SAMPLES} sample points")

    @classmethod
    def bumps(cls, centers, radii, power: int = 2) -> "InitialDatum":
        centers = np.atleast_1d(np.asarray(centers, dtype=float))
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if radii.size == 1:
            radii = np.full(centers.size, radii[0])
        return cls(tuple(bump_profile(c, r, power) for c, r in zip(centers, radii, strict=True)))

    @property
    def dimension(self) -> int:
        return len(self.profiles)

    def value(self, x) -> float:
        x = _validate_point(x, self.dimension)
        out = 1.0
        for p, xi in zip(self.profiles, x):
            if xi < p.lo or xi > p.hi:
                return 0.0
            out *= float(np.asarray(p.fn(np.array([float(xi)])))[0])
        return out


# ---------------------------------------------------------------------------
# the windowed panel integrator


def _window(u: float, sigma: float) -> tuple[float, float]:
    """(inner, outer): the radii |v| within 30 sigma of |u|."""
    width = _WINDOW_SIGMAS * sigma
    return max(0.0, abs(u) - width), abs(u) + width


def _panels(inner, outer, sigma, lo=-math.inf, hi=math.inf, knots=()) -> np.ndarray:
    """The (m, 2) edges of panels covering [lo, hi] intersected with inner <=
    |v| <= outer, cut at 0 and at the knots and into pieces at most
    _PANEL_SIGMAS sigma wide.  Empty when that set is, which includes a window
    that rounding has left without width.  Raises ConvergenceError for more
    than _PANEL_CAP panels or a sigma that is not finite."""
    lo_edges, hi_edges, count = [], [], 0
    for a, b in ((max(-outer, lo), min(-inner, hi)), (max(inner, lo), min(outer, hi))):
        if b > a:
            cuts = [a, *(k for k in knots if a < k < b), b]
            for c, d in zip(cuts[:-1], cuts[1:]):
                pieces = (d - c) / (_PANEL_SIGMAS * sigma)
                if not count + pieces <= _PANEL_CAP:
                    raise ConvergenceError(
                        f"panel layout over [{c}, {d}] needs {pieces:.3g} panels of"
                        f" {_PANEL_SIGMAS:g} sigma, sigma = {sigma:.3g}, more than the cap of {_PANEL_CAP}"
                    )
                edges = np.linspace(c, d, max(1, math.ceil(pieces)) + 1)
                lo_edges.append(edges[:-1])
                hi_edges.append(edges[1:])
                count += edges.size - 1
    if not lo_edges:
        return np.empty((0, 2))
    return np.array([np.concatenate(lo_edges), np.concatenate(hi_edges)]).T


def _panel_levels(panels, exponent: float):
    """level(n) -> (v, w): nodes and weights, panel after panel, for the
    integral of g(v) |v|^exponent over the panels, (m, 2) edges, at n nodes
    each, where no panel's interior contains 0.  A panel with an endpoint at
    0 moves the weight into the Gauss-Jacobi rule of exponent (0, exponent);
    elsewhere the weight is smooth and is evaluated at the Gauss-Legendre
    nodes.  A level looks each rule up once and lays out all panels from it."""
    a, b = panels.T
    mid, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    at_zero = ((a == 0.0) | (b == 0.0)) & (exponent > 0.0)
    # (row, half-width, side) of the panels at 0, at most one on each side
    ends = []
    for j in np.flatnonzero(at_zero):
        scale = (b[j] if a[j] == 0.0 else -a[j]) / 2.0
        ends.append((j, scale, -1.0 if b[j] == 0.0 else 1.0))

    def level(n: int):
        rule = gauss_jacobi_rule(0.0, 0.0, n)
        v = mid + half * rule.nodes
        # |v|^0 is exactly 1, so exponent 0 leaves the Legendre weights' bits
        w = half * rule.weights * np.abs(v) ** exponent
        if ends:
            rule = gauss_jacobi_rule(0.0, exponent, n)
            for j, scale, side in ends:
                v[j] = side * (scale * (1.0 + rule.nodes))
                # a scalar power, as in one panel's own formula
                w[j] = scale ** (exponent + 1.0) * rule.weights
        return v.ravel(), w.ravel()

    return level


def _adaptive_panel_sum(panels, exponent, values, units):
    """Weighted sums sum_j w_j values(v_j) over all panels, doubling every
    panel's node count until two levels agree to _PANEL_REL_TOL, up to
    _PANEL_NODE_CAP.

    `values` maps a node array (m,) to integrand rows (k, m); `units` rescales
    the k sums to a common magnitude so the stopping test is relative in the
    largest component and absolute, at the same scale, in the rest.

    Nearly every ladder stops at its second level, so the first two levels
    share one `values` call.  The kernel gives a node the same bits in any
    batch, and each level sums its own contiguous slice, so the sums equal
    those of one call per level.
    """
    level = _panel_levels(panels, exponent)
    ladder = list(node_ladder(NODE_START, _PANEL_NODE_CAP))
    prev = None
    for calls in (ladder[:2], *([n] for n in ladder[2:])):
        layouts = [level(n) for n in calls]
        rows = np.asarray(values(np.concatenate([v for v, _ in layouts])))
        start = 0
        for v, w in layouts:
            cur = np.ascontiguousarray(rows[:, start : start + v.size]) @ w
            start += v.size
            if prev is not None:
                scaled = cur * units
                err = np.abs(scaled - prev * units).max()
                if err <= _PANEL_REL_TOL * max(np.abs(scaled).max(), np.abs(prev * units).max()):
                    return cur
                if np.abs(scaled).max() == 0.0:
                    return cur
            prev = cur
    raise ConvergenceError(f"panel quadrature stalled at {_PANEL_NODE_CAP} nodes per panel")


def _positive_total(panels, exponent, values, integral, where) -> float:
    """The one-row ladder sum of a kernel integral, or ConvergenceError where
    no value is representable: rounding left the window no width, or the
    linear-space integrand underflowed and the sum is 0."""
    if not len(panels):
        raise ConvergenceError(
            f"integration window lost to rounding at {where}: 30 sigma vanishes next to the"
            " coordinate in double precision"
        )
    total = float(_adaptive_panel_sum(panels, exponent, values, np.ones(1))[0])
    if not total > 0.0:
        raise ConvergenceError(f"{integral} underflowed at {where}: the integrand is below the double range")
    return total


@functools.lru_cache(maxsize=_SOLUTION_CACHE_SIZE)
def _profile_moments(t, u, kappa_i, profile) -> np.ndarray:
    """(I0, I1, I2, It): the integrals of f(v) D p_t(u, v) |v|^(2 kappa) dv
    for D = id, d/du, d^2/du^2, d/dt, as a read-only array.  Differentiation
    happens under the integral sign, on the kernel factor, so the four share
    one node set.  Callers pass all four arguments positionally: one key each."""
    sigma = math.sqrt(2.0 * t)
    support = (sigma, profile.lo, profile.hi, profile.knots)
    # a support the window misses is integrated whole anyway: the result is
    # genuinely tiny rather than zero
    panels = _panels(*_window(u, sigma), *support)
    if not len(panels):
        panels = _panels(0.0, math.inf, *support)

    def values(v):
        log_p, d1, d2, dt = kernel_derivatives_1d_batch(t, u, v, kappa_i)
        base = np.asarray(profile.fn(v), dtype=float) * np.exp(log_p)
        # far from the support the kernel underflows to 0 while d1^2 can
        # overflow: 0 * inf would be NaN where the integrand is simply 0
        d1, d2, dt = (np.where(base == 0.0, 0.0, d) for d in (d1, d2, dt))
        return np.stack([base, base * d1, base * (d2 + d1 * d1), base * dt])

    units = np.array([1.0, sigma, sigma * sigma, t])
    moments = _adaptive_panel_sum(panels, 2.0 * kappa_i, values, units)
    if not moments[0] > 0.0:
        raise ConvergenceError(
            f"solution mass underflowed at u = {u}, t = {t}: the point is too far"
            " from the support for double precision"
        )
    moments.setflags(write=False)
    return moments


# ---------------------------------------------------------------------------
# semigroup application


def semigroup_solution(f: InitialDatum, kappa) -> SpaceTimeField:
    """log u for the solution u started from f, with space and time
    derivatives taken under the integral sign (they hit the kernel factors,
    which are known in closed form up to the tilted moments).  u is the
    product of the coordinates' masses I0, so log u is the sum of their logs
    and each derivative of log u is a moment ratio: nothing forms u itself,
    which underflows long before its log leaves the double range.

    Every callable reads the per-coordinate moments from the module's
    bounded cache, so fields built for the same datum share their work, and
    raises ConvergenceError at a point where a coordinate's mass underflows."""
    kappa = MultiplicityZ2.of(kappa)
    if f.dimension != kappa.d:
        raise DomainError(f"datum has {f.dimension} coordinates, multiplicity has {kappa.d}")

    def moments(t, x) -> list[np.ndarray]:
        t = _validate_time(t)
        x = _validate_point(x, kappa.d)
        return [_profile_moments(t, float(xi), k, p) for xi, k, p in zip(x, kappa.values, f.profiles)]

    def log_value(t, x) -> float:
        return float(sum(math.log(m[0]) for m in moments(t, x)))

    def log_gradient(t, x) -> np.ndarray:
        return np.array([m[1] / m[0] for m in moments(t, x)])

    def log_hessian_diag(t, x) -> np.ndarray:
        return np.array([m[2] / m[0] - (m[1] / m[0]) ** 2 for m in moments(t, x)])

    def log_time_derivative(t, x) -> float:
        return float(sum(m[3] / m[0] for m in moments(t, x)))

    return SpaceTimeField(log_value, log_gradient, log_hessian_diag, log_time_derivative)


def liyau_for_solution(
    u: SpaceTimeField, t: float, x, kappa, tol: float = DEFAULT_TOLERANCE
) -> VerificationReport:
    """-L log u(t, x) <= (d + 2 lambda)/(2t) for the solution field u, with L
    applied as the generic difference operator to the time-t slice of log u,
    so nothing here reuses the per-coordinate moment analysis."""
    kappa = MultiplicityZ2.of(kappa)
    t = _validate_time(t)
    x = _validate_point(x, kappa.d)
    slices = (u.log_value, u.log_gradient, u.log_hessian_diag)
    field = ScalarField(*(functools.partial(g, t) for g in slices))
    lhs = -dunkl_laplacian(field, x, kappa)
    rhs = _liyau_bound(t, kappa)
    return VerificationReport.build("liyau_solution", (t, tuple(float(v) for v in x)), lhs, rhs, tol)


# ---------------------------------------------------------------------------
# global kernel identities


@dataclass(frozen=True)
class MeasureConvention:
    """Weight exponent and normalizer defining one candidate measure, both as
    maps of the coordinate multiplicity.

    Exactly one convention makes the kernel integrate to one; keeping the
    convention an argument lets the normalization check demonstrate that
    uniqueness instead of assuming it.
    """

    weight_exponent: Callable[[float], float]
    log_normalizer: Callable[[float], float]


MARKOV_CONVENTION = MeasureConvention(
    weight_exponent=lambda k: 2.0 * k,
    log_normalizer=log_gaussian_mass,
)

@functools.lru_cache(maxsize=_SOLUTION_CACHE_SIZE)
def _plain_mass(t, u, kappa_i, exponent) -> float:
    """The integral of p_t(u, v) |v|^exponent dv."""
    sigma = math.sqrt(2.0 * t)
    panels = _panels(*_window(u, sigma), sigma)

    def values(v):
        log_p = kernel_derivatives_1d_batch(t, u, v, kappa_i)[0]
        return np.exp(log_p)[None, :]

    return _positive_total(panels, exponent, values, "kernel mass", f"u = {u}, t = {t}")


def normalization_check(
    t: float,
    x,
    kappa,
    tol: float = 1e-8,
    *,
    convention: MeasureConvention = MARKOV_CONVENTION,
) -> VerificationReport:
    """integral of p_t(x, .) against the measure equals 1.

    Under an alternative convention the kernel is renormalized accordingly
    (its own constant divided out, the candidate's put in) so the check
    measures the convention, not a mix.
    """
    kappa = MultiplicityZ2.of(kappa)
    t = _validate_time(t)
    x = _validate_point(x, kappa.d)
    lhs = 1.0
    for i, k in enumerate(kappa.values):
        shift = log_gaussian_mass(k) - convention.log_normalizer(k)
        exponent = float(convention.weight_exponent(k))
        if not exponent > -1.0:
            raise DomainError(f"weight exponent must exceed -1, got {exponent}")
        lhs *= math.exp(shift) * _plain_mass(t, float(x[i]), k, exponent)
    return VerificationReport.build(
        "kernel_normalization",
        (t, tuple(float(v) for v in x)),
        lhs=lhs,
        rhs=1.0,
        tolerance=tol,
        deficit=-abs(lhs - 1.0),
    )


def chapman_kolmogorov_check(s: float, t: float, x, y, kappa, tol: float = 1e-6) -> VerificationReport:
    """integral of p_s(x, z) p_t(z, y) dmu(z) equals p_(s+t)(x, y), compared
    in relative terms since the kernel value sets the only natural scale."""
    kappa = MultiplicityZ2.of(kappa)
    s = _validate_time(s)
    t = _validate_time(t)
    x = _validate_point(x, kappa.d)
    y = _validate_point(y, kappa.d)
    lhs = 1.0
    for i, k in enumerate(kappa.values):
        lhs *= _ck_coordinate(s, t, float(x[i]), float(y[i]), k)
    rhs = math.exp(log_kernel(s + t, x, y, kappa))
    return VerificationReport.build(
        "chapman_kolmogorov",
        (s, t, tuple(float(v) for v in x), tuple(float(v) for v in y)),
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        deficit=-abs(lhs / rhs - 1.0),
    )


@functools.lru_cache(maxsize=_SOLUTION_CACHE_SIZE)
def _ck_coordinate(s, t, xi, yi, kappa_i) -> float:
    """The integral of p_s(xi, v) p_t(v, yi) |v|^(2 kappa) dv over the
    window of the product's own Gaussian envelope.  Each kernel is at most
    its Gaussian in ||u| - |v||, and the two Gaussians multiply to
        exp(-(|v| - c)^2 / (2 sigma^2)) exp(-(|xi| - |yi|)^2 / (4 (s + t))),
    c = (t |xi| + s |yi|) / (s + t), sigma^2 = 2 s t / (s + t): one Gaussian
    in |v|, narrower than either kernel's, centred between their centres.

    For kappa > 0 the envelope is tight up to a polynomial factor: E_kappa(a)
    grows like e^|a| at both signs of a.  At kappa = 0 it is not, since E_0(a)
    = e^a: the kernels are signed Gaussians and their product sits at the
    signed centre (t xi + s yi) / (s + t), which the window of c misses when
    xi yi < 0 and c is far from 0 (xi = -yi = 33, s = t = 1 loses 99.7% of
    the mass).  There the window is centred on the signed centre.  The same
    signed term is part of every E_kappa; c's window misses it only when
    |xi yi| / (s + t) > 450, where it weighs about e^(-450) / kappa of the
    integral: below double precision unless kappa is below about 1e-180."""
    sigma_s, sigma_t = math.sqrt(2.0 * s), math.sqrt(2.0 * t)
    sigma = sigma_s * sigma_t / math.hypot(sigma_s, sigma_t)
    # each centre as xi moved towards yi: no product t xi to overflow
    if kappa_i == 0.0:
        center = xi + s / (s + t) * (yi - xi)
    else:
        center = abs(xi) + s / (s + t) * (abs(yi) - abs(xi))
    panels = _panels(*_window(center, sigma), sigma)

    where = f"x = {xi}, y = {yi}, s = {s}, t = {t}"

    def values(v):
        nodes = v.tobytes()
        log_product = _log_row(s, xi, kappa_i, nodes) + _log_row(t, yi, kappa_i, nodes)
        if (log_product > _LOG_DOUBLE_MAX).any():
            raise ConvergenceError(
                f"Chapman-Kolmogorov integrand overflows the double range at {where}: the"
                " kernel product is formed in linear space"
            )
        return np.exp(log_product)[None, :]

    return _positive_total(panels, 2.0 * kappa_i, values, "Chapman-Kolmogorov integral", where)


@functools.lru_cache(maxsize=_ROW_CACHE_SIZE)
def _log_row(t, u, kappa_i, nodes) -> np.ndarray:
    """log p_t(u, v) at the nodes v whose float64 bytes are `nodes`, as a
    read-only array shared by every integrand that reads it.  u = -0.0
    shares the key of 0.0, which leaves log p unchanged."""
    row = kernel_derivatives_1d_batch(t, u, np.frombuffer(nodes), kappa_i)[0]
    row.setflags(write=False)
    return row


def heat_residual(t: float, x, y, kappa) -> float:
    """Relative defect of d/dt p = L p at (t, x, y): the time derivative from
    the moment analysis against the generic difference operator applied to
    the kernel as a plain spatial field, scaled by p(x, y) throughout."""
    kappa = MultiplicityZ2.of(kappa)
    t = _validate_time(t)
    x = _validate_point(x, kappa.d)
    y = _validate_point(y, kappa.d)
    ref = log_kernel_derivatives(t, x, y, kappa)
    g = ref.grad_x_log_p

    def value(z) -> float:
        # p(z, y) / p(x, y): exactly 1 at x, where log_kernel equals ref.log_p
        if np.array_equal(z, x):
            return 1.0
        return math.exp(log_kernel(t, z, y, kappa) - ref.log_p)

    # dunkl_laplacian takes the derivatives at x only, where ref holds them
    field = ScalarField(value, lambda z: g, lambda z: ref.hess_diag_x_log_p + g * g)
    lap = dunkl_laplacian(field, x, kappa)
    dt = ref.dt_log_p
    scale = max(abs(dt), abs(lap), 1.0 / t)
    return float(abs(dt - lap) / scale)
