"""Dunkl operators for the reflection group Z_2^d acting by sign flips.

The difference-differential operator attached to coordinate i is

    D_i f(x) = d_i f(x) + kappa_i / x_i * (f(x) - f(r_i x)),

with r_i the sign flip of coordinate i, and the Dunkl Laplacian is

    L f = Delta f + sum_i kappa_i / x_i^2 * (2 x_i d_i f(x) - f(x) + f(r_i x)).

Both difference quotients have removable singularities on the hyperplanes
x_i = 0; within a scaled tolerance of a hyperplane the evaluation switches
to the Taylor limit, which costs one order of accuracy (error O(x_i))
instead of losing everything to cancellation.  The Laplacian also takes n
points at once; the other operators take one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import DomainError

__all__ = [
    "EPS_REFLECTION_SCALE",
    "ChainRuleResidual",
    "MultiplicityZ2",
    "PSI_CUBE",
    "PSI_EXP",
    "PSI_LOG",
    "PSI_SQUARE",
    "ScalarField",
    "SmoothFunction",
    "SpaceTimeField",
    "chain_rule_residual",
    "compose_field",
    "dunkl_derivative",
    "dunkl_laplacian",
    "pi_psi",
    "reflect",
    "reflection_epsilon",
]

# hyperplane threshold is relative to the point's size: 1e-7 * (1 + |x|)
EPS_REFLECTION_SCALE = 1e-7
# smallest positive multiplicity of the documented domain; below it the
# tilted moments lose their stated accuracy and then their range checks
_KAPPA_FLOOR = 1e-8


@dataclass(frozen=True)
class MultiplicityZ2:
    """Multiplicity function on the roots of Z_2^d: one kappa_i per
    coordinate, constant on each conjugacy class (here: each coordinate).
    Each kappa_i is 0 or at least 1e-8, the documented domain."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise DomainError("multiplicity needs at least one coordinate")
        for k in self.values:
            _validate_multiplicity(k)

    @classmethod
    def of(cls, values) -> "MultiplicityZ2":
        if isinstance(values, cls):
            return values
        if np.isscalar(values):
            return cls((float(values),))
        return cls(tuple(float(v) for v in values))

    @property
    def d(self) -> int:
        return len(self.values)

    @property
    def lambda_total(self) -> float:
        """lambda_kappa = sum_i kappa_i, the homogeneity shift of the measure."""
        return float(sum(self.values))


def _validate_multiplicity(k) -> float:
    """The one multiplicity check of the package: kappa_i as a float, finite
    and either 0 or at least _KAPPA_FLOOR."""
    k = float(k)
    if not (math.isfinite(k) and k >= 0.0):
        raise DomainError(f"multiplicities must be finite and >= 0, got {k!r}")
    if 0.0 < k < _KAPPA_FLOOR:
        raise DomainError(
            f"multiplicity {k!r} is below the floor {_KAPPA_FLOOR:g}: each must be 0 or >= {_KAPPA_FLOOR:g}"
        )
    return k


def _validate_time(t, n: int | None = None):
    """The one time check of the package: t must be a finite int or float > 0,
    or an array of such times, returned as a float array; given n, the
    number of points they go with, an array must hold n times."""
    if isinstance(t, np.ndarray):
        times = np.asarray(t, dtype=float)
        if n is not None and times.shape not in ((), (n,)):
            raise DomainError(f"expected one time or {n} times, one per point, got times of shape {times.shape}")
        bad = ~(np.isfinite(times) & (times > 0.0))
        if bad.any():
            raise DomainError(f"time must be finite and > 0, got {float(times[bad][0])!r}")
        return times
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t > 0.0):
        raise DomainError(f"time must be finite and > 0, got {t!r}")
    return float(t)


def _validate_point(x, d: int, batch: bool = False) -> np.ndarray:
    """The one point check of the package: x as a 1-d float array of d finite
    coordinates, or with batch also an (n, d) array of n such points."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.ndim > 1 + batch or x.shape[-1] != d:
        raise DomainError(f"expected a point with {d} coordinates, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("coordinates must be finite")
    return x


def _validate_points(d: int, *points) -> list[np.ndarray]:
    """_validate_point with batch for each of points, which must share one
    shape: one point each, or n points each."""
    points = [_validate_point(p, d, batch=True) for p in points]
    if len({p.shape for p in points}) > 1:
        raise DomainError(f"expected points of one shape, got shapes {', '.join(str(p.shape) for p in points)}")
    return points


def _validate_tilts(a) -> np.ndarray:
    """The one tilt check of the package: a as a 1-d float array of finite
    tilts."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if a.ndim != 1:
        raise DomainError(f"tilts must be a float or a 1-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("tilts must be finite")
    return a


def _validate_axis(axis: int, d: int) -> int:
    """The one axis check of the package: a 0-based coordinate index below d."""
    if not 0 <= axis < d:
        raise DomainError(f"axis {axis} out of range for dimension {d}")
    return axis


def _added(values):
    """values added left to right from 0.0, the one order of the package's
    sums over axes, of floats or of arrays (one entry per point): the
    built-in sum compensates its rounding from Python 3.12 on."""
    total = 0.0
    for value in values:
        total += value
    return total


def reflect(x: np.ndarray, axis: int) -> np.ndarray:
    """Image of x under the sign flip of the given coordinate (0-based)."""
    x = np.asarray(x, dtype=float)
    axis = _validate_axis(axis, x.size)
    out = x.copy()
    out[axis] = -out[axis]
    return out


def reflection_epsilon(x: np.ndarray):
    """Distance below which a coordinate counts as sitting on its hyperplane:
    a float for one point, shape (d,), and one per point, shape (n,), for n
    points, shape (n, d), each the bits of its one-point call."""
    eps = EPS_REFLECTION_SCALE * (1.0 + np.sqrt(np.vecdot(x, x)))
    return float(eps) if np.ndim(eps) == 0 else eps


@dataclass(frozen=True)
class ScalarField:
    """A scalar function with analytic first and diagonal second derivatives.

    value, gradient, hessian_diag are callables of a point in R^d.  Fields
    built by `from_callable` differentiate numerically instead: good to
    ~1e-10 (gradient) and ~1e-9 (hessian), not to the 1e-12 the analytic
    contracts assume.
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian_diag: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def from_callable(cls, f: Callable[[np.ndarray], float], rel_step: float = 1e-5):
        """Finite-difference adapter (fourth-order central stencils)."""

        def gradient(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.size)
            for i in range(x.size):
                h = rel_step * (1.0 + abs(x[i]))
                e = np.zeros(x.size)
                e[i] = 1.0
                out[i] = (
                    -f(x + 2 * h * e) + 8 * f(x + h * e) - 8 * f(x - h * e) + f(x - 2 * h * e)
                ) / (12 * h)
            return out

        def hessian_diag(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.size)
            fx = f(x)
            for i in range(x.size):
                # round-off grows like eps/h^2: the second derivative needs a
                # much larger step than the first
                h = math.sqrt(rel_step) * (1.0 + abs(x[i]))
                e = np.zeros(x.size)
                e[i] = 1.0
                out[i] = (
                    -f(x + 2 * h * e)
                    + 16 * f(x + h * e)
                    - 30 * fx
                    + 16 * f(x - h * e)
                    - f(x - 2 * h * e)
                ) / (12 * h * h)
            return out

        return cls(value=f, gradient=gradient, hessian_diag=hessian_diag)


@dataclass(frozen=True)
class SpaceTimeField:
    """A positive space-time function u(t, x), held as log u with the
    derivatives the parabolic inequalities consume: its space gradient,
    diagonal space Hessian and time derivative.  All callables take (t, x).
    The log form stays finite where u itself underflows.

    The package's own fields (`semigroup_solution`, `kernel_solution_field`)
    also take n points at once: x of shape (n, d) and t a float or (n,)
    times, returning (n,) values and (n, d) gradients and Hessians, each row
    the bits of its one-point call.  A check reads its field with the points
    it is given, so a field that takes one point serves one-point checks."""

    log_value: Callable[[float, np.ndarray], float]
    log_gradient: Callable[[float, np.ndarray], np.ndarray]
    log_hessian_diag: Callable[[float, np.ndarray], np.ndarray]
    log_time_derivative: Callable[[float, np.ndarray], float]


@dataclass(frozen=True)
class SmoothFunction:
    """A C^2 map psi: R -> R with its first two derivatives, for composition
    against scalar fields."""

    name: str
    value: Callable[[float], float]
    deriv: Callable[[float], float]
    second_deriv: Callable[[float], float]


PSI_LOG = SmoothFunction("log", math.log, lambda t: 1.0 / t, lambda t: -1.0 / (t * t))
PSI_EXP = SmoothFunction("exp", math.exp, math.exp, math.exp)
PSI_SQUARE = SmoothFunction("square", lambda t: t * t, lambda t: 2.0 * t, lambda t: 2.0)
PSI_CUBE = SmoothFunction(
    "cube", lambda t: t**3, lambda t: 3.0 * t * t, lambda t: 6.0 * t
)


def compose_field(psi: SmoothFunction, f: ScalarField) -> ScalarField:
    """psi composed with f, with chain-rule derivatives."""

    def value(x):
        return psi.value(f.value(x))

    def gradient(x):
        return psi.deriv(f.value(x)) * f.gradient(x)

    def hessian_diag(x):
        fx = f.value(x)
        g = f.gradient(x)
        return psi.second_deriv(fx) * g * g + psi.deriv(fx) * f.hessian_diag(x)

    return ScalarField(value=value, gradient=gradient, hessian_diag=hessian_diag)


def dunkl_derivative(f: ScalarField, x, axis: int, kappa) -> float:
    """D_i f(x).  On the hyperplane |x_i| < eps the difference quotient is
    replaced by its limit (1 + 2 kappa_i) d_i f(x)."""
    kappa = MultiplicityZ2.of(kappa)
    x = _validate_point(x, kappa.d)
    k = kappa.values[_validate_axis(axis, x.size)]
    di = float(f.gradient(x)[axis])
    if k == 0.0:
        return di
    if abs(x[axis]) < reflection_epsilon(x):
        return (1.0 + 2.0 * k) * di
    return di + k / x[axis] * (f.value(x) - f.value(reflect(x, axis)))


def dunkl_laplacian(f: ScalarField, x, kappa):
    """L f(x) = Delta f(x) + sum_i kappa_i/x_i^2 (2 x_i d_i f - f + f o r_i).

    The i-th correction term takes its removable-singularity limit
    2 kappa_i d_ii f(x) when |x_i| < eps, so the whole i-th contribution
    degenerates to (1 + 2 kappa_i) d_ii f(x) there.

    x is one point, shape (d,), or n points, shape (n, d), validated once.
    One point gives a float and calls the field's callables with one point;
    n points give an (n,) array, each entry the bits of its one-point call,
    and call them with (m, d) arrays of points, for which value returns (m,)
    values and gradient and hessian_diag (m, d) arrays.
    """
    kappa = MultiplicityZ2.of(kappa)
    x = _validate_point(x, kappa.d, batch=True)
    if x.ndim == 1:
        # the field sees the one point, or its image, as a 1-d array
        def value(rows, axis):
            return [f.value(x if axis is None else reflect(x, axis))]

        grad, hess = (np.asarray(g(x), dtype=float)[None] for g in (f.gradient, f.hessian_diag))
        return float(_laplacian(x[None], kappa, grad, hess, value)[0])

    def value(rows, axis):
        z = x[rows]
        if axis is not None:
            z[:, axis] = -z[:, axis]
        return f.value(z)

    grad, hess = (np.asarray(g(x), dtype=float) for g in (f.gradient, f.hessian_diag))
    return _laplacian(x, kappa, grad, hess, value)


def _laplacian(x, kappa: MultiplicityZ2, grad, hess, value) -> np.ndarray:
    """dunkl_laplacian at the n points x, (n, d), from the field's gradients
    and diagonal Hessians there, (n, d) each, and value(rows, axis), its
    values at the points x[rows] (axis None) or at their images under the
    flip of axis.  value is asked only where a point's own sum reads it: f(x)
    at the points with a coordinate outside its band, and f(r_i x) at those
    outside the band of axis i.  Each point's sum is added axis by axis from
    0.0, the order of a one-point call."""
    total = _added(hess.T)
    far = ~(np.abs(x) < reflection_epsilon(x)[:, None]) & (np.array(kappa.values) != 0.0)
    fx = np.empty(len(x))
    need = np.flatnonzero(far.any(axis=1))
    if need.size:
        fx[need] = value(need, None)
    for i, k in enumerate(kappa.values):
        if k == 0.0:
            continue
        term = 2.0 * k * hess[:, i]
        rows = np.flatnonzero(far[:, i])
        if rows.size:
            xi = x[rows, i]
            term[rows] = k / (xi * xi) * (2.0 * xi * grad[rows, i] - fx[rows] + value(rows, i))
        total = total + term
    return total


def pi_psi(f: ScalarField, psi: SmoothFunction, x, kappa) -> float:
    """The reflection defect Pi_psi(f)(x) = sum_i kappa_i/x_i^2 *
    [psi(f(r_i x)) - psi(f(x)) - psi'(f(x)) (f(r_i x) - f(x))].

    Each summand is a Bregman divergence of psi, so the total is >= 0 for
    convex psi and <= 0 for concave psi (log).  The hyperplane limit of the
    i-th term is 2 kappa_i psi''(f(x)) (d_i f(x))^2: the divergence is
    psi''(f) delta^2/2 + O(delta^3) with delta = f(r_i x) - f(x) =
    -2 x_i d_i f + O(x_i^2).
    """
    kappa = MultiplicityZ2.of(kappa)
    x = _validate_point(x, kappa.d)
    fx = float(f.value(x))
    total = 0.0
    eps = reflection_epsilon(x)
    grad = None
    for i, k in enumerate(kappa.values):
        if k == 0.0:
            continue
        if abs(x[i]) < eps:
            if grad is None:
                grad = np.asarray(f.gradient(x), dtype=float)
            total += 2.0 * k * psi.second_deriv(fx) * grad[i] * grad[i]
        else:
            fr = float(f.value(reflect(x, i)))
            bregman = psi.value(fr) - psi.value(fx) - psi.deriv(fx) * (fr - fx)
            total += k / (x[i] * x[i]) * bregman
    return total


@dataclass(frozen=True)
class ChainRuleResidual:
    """L(psi o f) against psi'(f) L f + psi''(f) |grad f|^2 + Pi_psi(f)."""

    lhs: float
    rhs: float
    scale: float

    @property
    def residual(self) -> float:
        return self.lhs - self.rhs


def chain_rule_residual(f: ScalarField, psi: SmoothFunction, x, kappa) -> ChainRuleResidual:
    """Evaluate both sides of the chain rule for the Dunkl Laplacian.

    The identity is exact; the returned residual is pure numerical error and
    its contract is |residual| <= 1e-8 * scale for analytic fields, where
    scale is the largest magnitude among the rhs terms and the lhs.
    """
    kappa = MultiplicityZ2.of(kappa)
    x = _validate_point(x, kappa.d)
    lhs = dunkl_laplacian(compose_field(psi, f), x, kappa)
    fx = float(f.value(x))
    grad = np.asarray(f.gradient(x), dtype=float)
    term_lap = psi.deriv(fx) * dunkl_laplacian(f, x, kappa)
    term_grad = psi.second_deriv(fx) * float(grad @ grad)
    term_pi = pi_psi(f, psi, x, kappa)
    rhs = term_lap + term_grad + term_pi
    scale = max(abs(lhs), abs(term_lap), abs(term_grad), abs(term_pi), 1.0)
    return ChainRuleResidual(lhs=lhs, rhs=rhs, scale=scale)
