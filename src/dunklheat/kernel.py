"""Heat kernel of the Dunkl Laplacian for Z_2^d.

The d-dimensional kernel is a product of 1d kernels

    p_t(u, v) = exp(-(u^2 + v^2)/(4t)) E_kappa(u/sqrt(2t), v/sqrt(2t))
                / (c_kappa (2t)^(kappa + 1/2)),

where E_kappa is the rank-one Dunkl kernel: the average of exp(s a), with
tilt a = u v / (2t), against the density (1-s)^(kappa-1) (1+s)^kappa on
[-1, 1].  Everything the package computes about the kernel reduces to the
first three tilted moments m_k(a) = int s^k (1-s)^(kappa-1) (1+s)^kappa
e^(s a) ds, always handled in log space: log m0 carries the size, and the
tilted mean r1 and variance of s (d/da and d^2/da^2 of log m0) the shape.

Two quadrature branches cover all tilts.  Gauss-Jacobi on [-1, 1] resolves
|a| <= 50; its node demand grows linearly with |a| because e^(sa) becomes a
boundary layer at s = sign(a).  Beyond that the exact substitution
1 -+ s = r/|a| maps the moments onto a generalized Gauss-Laguerre rule
whose node demand is flat in |a| (tilts of order 10^4 cost the same as
10^2), and there the variance ~ kappa/a^2 is summed about its centre.

The integrand of the Jacobi branch is entire in s, so the Gauss remainder
bounds its error in advance: each tilt is evaluated once, at the first order
of the ladder NODE_START, 2 NODE_START, ... whose bound meets
_MOMENT_REL_TOL (1e-10); 128 nodes reach |a| = 50 for every kappa.  The
Laguerre factor (2 - r/|a|)^kappa is truncated, with no such bound, so that
branch doubles its node count from NODE_START until two orders agree to
_MOMENT_REL_TOL, up to NODE_CAP (4096) nodes.  That contract is fixed, so
the moment memo, which only moment_ratios reads, keys on (a, kappa) alone.

kappa = 0 coordinates never touch quadrature: the kernel degenerates to the
Gauss-Weierstrass kernel and every formula has a closed form.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _accel
from .operators import (
    MultiplicityZ2,
    _added,
    _validate_multiplicity,
    _validate_point,
    _validate_tilts,
    _validate_time,
)
from .quadrature import (
    NODE_CAP,
    NODE_START,
    ConvergenceError,
    DomainError,
    _jacobi_rule,
    _laguerre_rule,
    log_gamma,
    node_ladder,
)

__all__ = [
    "KernelPoint",
    "MomentRatios",
    "TILT_SWITCH",
    "kernel_derivatives_1d_batch",
    "log_e_kappa",
    "log_gaussian_mass",
    "log_kernel",
    "log_kernel_derivatives",
    "moment_ratios",
    "moment_stats",
]

# Jacobi-vs-Laguerre branch boundary; both branches hold 1e-12 accuracy in a
# wide window around it (regression-tested), so the exact value is not delicate.
TILT_SWITCH = 50.0

_MOMENT_REL_TOL = 1e-10
# tilts per block of a moment_stats call: bounds the (block, nodes)
# temporaries of the tilted sums
_TILT_BLOCK = 512


def log_gaussian_mass(kappa: float) -> float:
    """log of c_kappa = int exp(-u^2/2) |u|^(2 kappa) du
    = 2^(kappa + 1/2) Gamma(kappa + 1/2).

    This is the per-coordinate normalizer that makes the kernel a Markov
    density for the measure |u|^(2 kappa) du.
    """
    kappa = _validate_multiplicity(kappa)
    return (kappa + 0.5) * math.log(2.0) + log_gamma(kappa + 0.5)


@functools.lru_cache(maxsize=256)
def _log_normalizers(kappa: float) -> tuple[float, float]:
    """(log c_kappa, log C_kappa) for kappa > 0, where C_kappa = Gamma(kappa +
    1/2) / (sqrt(pi) Gamma(kappa)) makes C_kappa m0(0) = 1.  Every scalar
    kernel evaluation needs both, so they are computed once per kappa."""
    return (
        log_gaussian_mass(kappa),
        log_gamma(kappa + 0.5) - 0.5 * math.log(math.pi) - log_gamma(kappa),
    )


def _adaptive_eval(evaluate, a_sub):
    """Double the node count until (log m0, r1, variance) settle entry by entry.

    evaluate(n, a) returns the three arrays at rule order n; two successive
    orders within _MOMENT_REL_TOL certify an entry.  The log m0 comparison is
    absolute on the log scale, which is relative on m0 itself.
    """
    out = np.empty((3, a_sub.size))
    pending = np.arange(a_sub.size)
    prev = None
    for n in node_ladder(NODE_START, NODE_CAP):
        cur = np.stack(evaluate(n, a_sub[pending]))
        if prev is not None:
            ok = (
                (np.abs(cur[0] - prev[0]) <= _MOMENT_REL_TOL * np.maximum(1.0, np.abs(cur[0])))
                & (np.abs(cur[1] - prev[1]) <= _MOMENT_REL_TOL)
                & (np.abs(cur[2] - prev[2]) <= _MOMENT_REL_TOL)
            )
            out[:, pending[ok]] = cur[:, ok]
            pending = pending[~ok]
            if pending.size == 0:
                return out
            prev = cur[:, ~ok]
        else:
            prev = cur
    worst = float(np.abs(a_sub[pending]).max())
    raise ConvergenceError(
        f"tilted moments did not settle within {NODE_CAP} nodes "
        f"(rel_tol={_MOMENT_REL_TOL}, {pending.size} tilts pending, worst |a|={worst})"
    )


def _certified_jacobi(a_sub, kappa: float):
    """(log m0, r1, variance) at tilts |a| <= TILT_SWITCH, each from one
    Gauss-Jacobi rule: the first ladder order n whose a priori error bound
    eps_n(|a|) is at most _MOMENT_REL_TOL / 2.

    The shifted sums S_k integrate g_k(s) = s^k e^(a (s - sign a)), k <= 2,
    whose 2n-th derivative is at most (|a| + 2)^(2n) on [-1, 1], so S_k is
    off by at most e^log_norm (|a| + 2)^(2n) / (2n)!.  Jensen's inequality
    puts S_0 at least mu0 e^(-2|a|), where mu0 = 1/C_kappa, which gives eps_n.
    log m0 is then within about eps_n, and r1, S_2/S_0 within 2 eps_n / (1 - eps_n).
    The variance S_2/S_0 - r1^2 cancels mildly here, except as kappa -> 0.
    a = 0 is not summed: it takes the moments of the untilted density.
    """
    abs_a = np.abs(a_sub)
    log_growth = np.log(abs_a + 2.0)
    log_c = _log_normalizers(kappa)[1]
    log_tol = math.log(0.5 * _MOMENT_REL_TOL) - log_c
    out = np.empty((3, a_sub.size))
    pending = np.flatnonzero(a_sub)
    if pending.size < a_sub.size:
        at_zero = (-log_c, 1.0 / (2.0 * kappa + 1.0), 2.0 * kappa / (2.0 * kappa + 1.0) ** 2)
        out[:, a_sub == 0.0] = np.array(at_zero)[:, None]
    for n in node_ladder(NODE_START, NODE_CAP):
        rule = _jacobi_rule(kappa - 1.0, kappa, kappa, kappa + 1.0, n)
        log_remainder = rule.log_norm - log_gamma(2.0 * n + 1.0)
        certified = log_remainder + 2.0 * n * log_growth[pending] + 2.0 * abs_a[pending] <= log_tol
        idx = pending[certified]
        if idx.size:
            s0, s1, s2 = _accel.jacobi_tilted_sums(rule.nodes, rule.weights, a_sub[idx])
            r1 = s1 / s0
            out[:, idx] = abs_a[idx] + np.log(s0), r1, s2 / s0 - r1 * r1
        pending = pending[~certified]
        if pending.size == 0:
            return out
    raise ConvergenceError(
        f"Gauss-Jacobi error bound not met within {NODE_CAP} nodes "
        f"(rel_tol={_MOMENT_REL_TOL}, {pending.size} tilts pending, "
        f"worst |a|={float(abs_a[pending].max())})"
    )


def _laguerre_moments(kappa: float, sign: float, n: int, a_sub):
    """(log m0, r1, variance) at n nodes for tilts of one sign past TILT_SWITCH.

    1 - sign s = r/|a| turns the weight into r^e e^(-r), e = kappa - 1 for
    a > 0 and kappa for a < 0, times the smooth factor (2 - r/|a|)^(other
    exponent): log m0 = |a| - (e + 1) log|a| + log S_0, r1 = sign S_1/S_0.
    """
    if sign > 0.0:
        exponent, offset, factor_exp = kappa - 1.0, kappa, kappa
    else:
        exponent, offset, factor_exp = kappa, kappa + 1.0, kappa - 1.0
    abs_a = sign * a_sub
    rule = _laguerre_rule(exponent, offset, n)
    s0, s1, s2 = _accel.laguerre_tilted_sums(rule.nodes, rule.weights, abs_a, factor_exp)
    return abs_a - offset * np.log(abs_a) + np.log(s0), sign * (s1 / s0), s2 / s0


def moment_stats(a, kappa: float):
    """(log m0, r1, variance) for a batch of tilts, as a (3, len(a)) array.

    Requires kappa > 0; kappa = 0 callers use their Gaussian closed forms
    and never need moments; a = 0 gives log m0 = -log C_kappa, r1 = 1/(2 kappa
    + 1) and variance 2 kappa/(2 kappa + 1)^2 exactly.  Each tilt's values are
    the same bits alone, in any batch, or through moment_ratios: the tilts go
    through in blocks of _TILT_BLOCK, which bounds the (block, nodes)
    temporaries of the tilted sums, and every sum is reduced tilt by tilt.
    """
    kappa = _validate_multiplicity(kappa)
    if kappa == 0.0:
        raise DomainError(f"moment_stats requires kappa > 0, got {kappa}")
    a = _validate_tilts(a)
    positive, negative = (functools.partial(_laguerre_moments, kappa, sign) for sign in (1.0, -1.0))
    out = np.empty((3, a.size))
    for lo in range(0, a.size, _TILT_BLOCK):
        block, block_out = a[lo : lo + _TILT_BLOCK], out[:, lo : lo + _TILT_BLOCK]
        for moments, chosen in (
            (lambda sub: _certified_jacobi(sub, kappa), np.abs(block) <= TILT_SWITCH),
            (lambda sub: _adaptive_eval(positive, sub), block > TILT_SWITCH),
            (lambda sub: _adaptive_eval(negative, sub), block < -TILT_SWITCH),
        ):
            idx = np.flatnonzero(chosen)
            if idx.size:
                block_out[:, idx] = moments(block[idx])

    # one pass, then the failed check is named.  A mean on [-1, 1] rounds into the closed
    # interval: 1 - |r1| ~ kappa/|a| is below half an ulp at large |a|.  NaN fails both.
    in_range = np.abs(out[1]) <= 1.0
    if not (in_range & (out[2] >= 0.0)).all():
        if not in_range.all():
            raise RuntimeError("moment ratio r1 escaped [-1, 1]")
        raise RuntimeError("tilted moment variance went negative")
    return out


@dataclass(frozen=True)
class MomentRatios:
    """log m0, the mean r1 and the variance of s under the tilted density at one
    tilt; every inequality downstream rests on the variance being >= 0."""

    a: float
    kappa: float
    log_m0: float
    r1: float
    variance: float


# past _MOMENT_CACHE_SIZE entries the first (oldest) key is evicted
_MOMENT_CACHE: dict[tuple, MomentRatios] = {}
_MOMENT_CACHE_SIZE = 4096
_MOMENT_LOCK = threading.Lock()


def moment_ratios(a: float, kappa: float) -> MomentRatios:
    """Cached scalar interface to moment_stats.

    Scans hit the same tilt for many grid points (a depends only on
    x_i y_i / (2t)), so memoizing on the exact float arguments removes most
    quadrature work.
    """
    key = (float(a), float(kappa))
    with _MOMENT_LOCK:
        hit = _MOMENT_CACHE.get(key)
    if hit is not None:
        return hit
    log_m0, r1, variance = (float(v) for v in moment_stats(a, kappa)[:, 0])
    ratios = MomentRatios(a=float(a), kappa=float(kappa), log_m0=log_m0, r1=r1, variance=variance)
    with _MOMENT_LOCK:
        ratios = _MOMENT_CACHE.setdefault(key, ratios)
        if len(_MOMENT_CACHE) > _MOMENT_CACHE_SIZE:
            del _MOMENT_CACHE[next(iter(_MOMENT_CACHE))]
        return ratios


def log_e_kappa(x: float, y: float, kappa: float) -> float:
    """log E_kappa(x, y) for a single coordinate pair.

    E_0(x, y) = e^(x y) exactly; for kappa > 0 the integral representation
    C_kappa m0(x y) applies, and E_kappa(x, 0) = 1 because C_kappa m0(0) = 1.
    """
    kappa = _validate_multiplicity(kappa)
    a = float(x) * float(y)
    if kappa == 0.0:
        return a
    return _log_normalizers(kappa)[1] + float(moment_stats(a, kappa)[0, 0])


class _Coordinate(NamedTuple):
    """One coordinate of log p_t(u, v) and its derivatives in u and t; each
    entry is an array shaped like v."""

    a: np.ndarray
    log_p: np.ndarray
    d_u: np.ndarray
    variance_term: np.ndarray
    d_uu: np.ndarray
    d_t: np.ndarray


def _coordinate(t, u, v, kappa: float, stats=None) -> _Coordinate:
    """The per-coordinate kernel formulas, at validated times t.  v is an
    array; t and u are floats, or arrays shaped like v.  For kappa > 0, with
    p = u/(2t), w = v/(2t), the tilt a = u v / (2t), and log m0, the mean r1
    and the variance var of the tilted density at a, from stats (the
    moment_stats rows at the tilts, if the caller has them) or from one
    moment_stats call, never from the memo of moment_ratios:

        log p_t = -log c_kappa - (kappa + 1/2) log(2t) - (u^2 + v^2)/(4t)
                  + log E_kappa(a),  log E_kappa = log C_kappa + log m0
        d_u     = -p + w r1
        d_uu    = -1/(2t) + variance_term,  variance_term = w^2 var
        d_t     = -(kappa + 1/2)/t + (p^2 + w^2) - (a/t) r1

    kappa = 0 is the Gauss-Weierstrass kernel, in closed form, with
    d_t = -1/(2t) + d_u^2.  No formula divides by t^2, which underflows at
    tiny t.  A float t and an array take the same numpy log.
    """
    a = u * v / (2.0 * t)
    if kappa == 0.0:
        diff = u - v
        log_p = -0.5 * np.log(4.0 * math.pi * t) - diff * diff / (4.0 * t)
        d_u = -diff / (2.0 * t)
        variance_term = 0.0 * abs(v)  # +0.0, shaped like v
        d_t = -0.5 / t + d_u * d_u
    else:
        # an infinite tilt is an overflow of u v / (2t), not a bad input
        if not np.isfinite(a).all():
            bad = ~np.isfinite(a)
            u_at, t_at = (float(np.broadcast_to(w, bad.shape)[bad][0]) for w in (u, t))
            raise OverflowError(f"tilt u v / (2t) overflows at u = {u_at!r}, t = {t_at!r}")
        log_mass, log_c = _log_normalizers(kappa)
        log_m0, r1, variance = moment_stats(a, kappa) if stats is None else stats
        log_p = (
            -log_mass
            - (kappa + 0.5) * np.log(2.0 * t)
            - (u * u + v * v) / (4.0 * t)
            + (log_c + log_m0)
        )
        p, w = u / (2.0 * t), v / (2.0 * t)
        d_u = -p + w * r1
        variance_term = w * w * variance
        d_t = -(kappa + 0.5) / t + (p * p + w * w) - (a / t) * r1
    return _Coordinate(a, log_p, d_u, variance_term, -1.0 / (2.0 * t) + variance_term, d_t)


def _log_envelope(t, u, v, kappa: float):
    """log p_t(u, v) <= -log c_kappa - (kappa + 1/2) log(2t) - (|u| - |v|)^2/(4t),
    from E_kappa(a) <= e^|a| (Rosler 1999), with t, u and v as in _coordinate;
    at kappa = 0 the Gaussian with |u| and |v| in place of u and v."""
    gap = np.abs(u) - np.abs(v)
    with np.errstate(over="ignore"):
        return -log_gaussian_mass(kappa) - (kappa + 0.5) * np.log(2.0 * t) - gap * gap / (4.0 * t)


def log_kernel(t, x, y, kappa) -> float:
    """log p_t(x, y), the sum of the per-coordinate logs.  It reads no
    derivative, so it has a value, -inf past the float range, where
    log_kernel_derivatives overflows."""
    t = _validate_time(t)
    kappa = MultiplicityZ2.of(kappa)
    x, y = (_validate_point(z, kappa.d) for z in (x, y))
    with np.errstate(all="ignore"):  # a term past the float range is inf, silently
        log_p = _added(_coordinate(t, u, v, k).log_p for u, v, k in zip(x[:, None], y[:, None], kappa.values))
    return float(log_p[0])


@dataclass(frozen=True)
class KernelPoint:
    """One kernel evaluation with every analytic derivative the inequality
    suite needs: log p, its space gradient and diagonal space Hessian, and
    its time derivative.  Kept in log space throughout because far-field
    values underflow doubles long before the log does anything
    interesting."""

    t: float
    x: np.ndarray
    y: np.ndarray
    kappa: MultiplicityZ2
    log_p: float
    grad_x_log_p: np.ndarray
    hess_diag_x_log_p: np.ndarray
    dt_log_p: float

    def __post_init__(self):
        for arr in (self.x, self.y, self.grad_x_log_p, self.hess_diag_x_log_p):
            arr.setflags(write=False)
        if not math.isfinite(self.log_p) or not math.isfinite(self.dt_log_p):
            raise FloatingPointError("kernel point has non-finite entries")

    @property
    def p(self) -> float:
        return _exp(self.log_p)


def _exp(log_p: float) -> float:
    """e^log_p, inf past the float range: the kernel value p of a log p."""
    try:
        return math.exp(log_p)
    except OverflowError:
        return math.inf


def log_kernel_derivatives(t, x, y, kappa) -> KernelPoint:
    """Derivatives of log p_t(., y) at x: _kernel_points at the one pair."""
    t = _validate_time(t)
    kappa = MultiplicityZ2.of(kappa)
    x, y = (_validate_point(z, kappa.d) for z in (x, y))
    kp = _kernel_points(t, x[None], y[None], kappa)
    # copies: KernelPoint makes its arrays read-only, and x and y may be the caller's
    return KernelPoint(
        t=t,
        x=x.copy(),
        y=y.copy(),
        kappa=kappa,
        log_p=float(kp.log_p[0]),
        grad_x_log_p=kp.grad[0],
        hess_diag_x_log_p=kp.hess[0],
        dt_log_p=float(kp.dt[0]),
    )


class _KernelPoints(NamedTuple):
    """log_kernel_derivatives at n points, as arrays: each axis's log p, (n,)
    each, their sum log p (n,), the gradient and diagonal Hessian (n, d) and
    d_t log p (n,)."""

    log_p_axes: list[np.ndarray]
    log_p: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    dt: np.ndarray


def _kernel_points(t, x, y, kappa: MultiplicityZ2) -> _KernelPoints:
    """log_kernel_derivatives at the n point pairs of x and y, validated (n, d)
    arrays, at a validated float or (n,) times t: one _coordinate call per
    axis, and each entry is the bits of the one-pair call.  Raises
    FloatingPointError where KernelPoint would."""
    # scalar float semantics, silently: a term past the float range is inf
    with np.errstate(all="ignore"):
        coords = [_coordinate(t, x[:, i], y[:, i], k) for i, k in enumerate(kappa.values)]
    log_p, dt = _added(c.log_p for c in coords), _added(c.d_t for c in coords)
    if not (np.isfinite(log_p) & np.isfinite(dt)).all():
        raise FloatingPointError("kernel point has non-finite entries")
    grad, hess = (np.column_stack([getattr(c, name) for c in coords]) for name in ("d_u", "d_uu"))
    return _KernelPoints([c.log_p for c in coords], log_p, grad, hess, dt)


def kernel_derivatives_1d_batch(t, u, v, kappa: float):
    """(log p, d/du log p, d2/du2 log p, d/dt log p) for one coordinate at a
    batch of right arguments v, the workhorse of semigroup quadrature.  t and
    u are floats, or arrays shaped like v that give each entry its own time
    and left argument, as a batched panel ladder passes them.

    An entry of an array call equals the scalar call at its (t, u, v) bit for
    bit.  Entries take their IEEE values without a numpy warning (past the
    float range a term is infinite); callers check the entries they use."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    t = _validate_time(t)
    u = np.asarray(u, dtype=float) if isinstance(u, np.ndarray) else float(u)
    for name, w in (("t", t), ("u", u)):
        if isinstance(w, np.ndarray) and w.shape != v.shape:
            raise DomainError(f"{name} must be a float or shaped like v {v.shape}, got shape {w.shape}")
    with np.errstate(all="ignore"):
        c = _coordinate(t, u, v, _validate_multiplicity(kappa))
    return c.log_p, c.d_u, c.d_uu, c.d_t
