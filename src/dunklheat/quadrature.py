"""Gauss quadrature with endpoint weights: Jacobi rules on [-1, 1] and
generalized Laguerre rules on [0, inf), built by Golub-Welsch.

The Jacobi weight (1-s)^alpha (1+s)^beta is singular at s = 1 whenever
alpha < 0 (alpha = kappa - 1 with kappa < 1 in the intended use); the rule
absorbs the singularity exactly by construction, so only the bounded smooth
part of an integrand is ever sampled.  Nodes are the eigenvalues of the
symmetric tridiagonal (Jacobi) matrix of recurrence coefficients, stored
dense and solved by numpy.linalg.eigh; weights are mu0 times the squared
first eigenvector components.  The scans and checks build rules of 32 to
256 nodes, where the dense solve costs about what a tridiagonal solver
does and needs nothing beyond numpy; a ladder that climbs towards NODE_CAP
pays more, cubically in n.

Rules are immutable and cached: scans request the same (alpha, beta, n)
thousands of times and adaptive callers walk the same doubling ladder.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "DomainError",
    "GaussRule",
    "gauss_jacobi_rule",
    "gauss_laguerre_rule",
    "log_gamma",
]

NODE_START = 32
NODE_CAP = 4096

_WEIGHT_SUM_RTOL = 1e-12


class DomainError(ValueError):
    """Parameter outside the documented domain of an operation."""


class ConvergenceError(RuntimeError):
    """Adaptive refinement hit its node cap without meeting tolerance."""


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0.

    Thin wrapper over math.lgamma, kept as the single audit point for every
    Gamma evaluation in the package.
    """
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


@dataclass(frozen=True)
class GaussRule:
    """n-point Gauss rule of a weight function: sum(weights * f(nodes))
    integrates f against the weight, exactly for polynomial f up to degree
    2n - 1.  Nodes increase.  Arrays are read-only; rules are shared
    through the cache and must never be mutated.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


_CACHE: dict[tuple, GaussRule] = {}
_CACHE_LOCK = threading.Lock()


def _cached(key, builder):
    with _CACHE_LOCK:
        hit = _CACHE.get(key)
    if hit is not None:
        return hit
    rule = builder()
    with _CACHE_LOCK:
        # first writer wins so every caller sees one identical object
        return _CACHE.setdefault(key, rule)


def _validate_order(n) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise DomainError(f"node count must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"node count must be >= 1, got {n}")
    return int(n)


def _golub_welsch(diag, off, mu0, family: str, domain: tuple[float, float], params) -> GaussRule:
    """The rule of the recurrence (diag, off) with weight sum mu0, checked:
    nodes inside the open domain and strictly increasing, weights >= 0 and
    summing to mu0.  Messages name the family and its params."""
    n = diag.size
    jacobi = np.zeros((n, n))
    jacobi.flat[:: n + 1] = diag
    jacobi.flat[1 :: n + 1] = off
    jacobi.flat[n :: n + 1] = off
    nodes, vecs = np.linalg.eigh(jacobi)
    weights = mu0 * vecs[0, :] ** 2

    lo, hi = domain
    if not (np.all(nodes > lo) and np.all(nodes < hi)):
        raise RuntimeError(f"{family} nodes escaped ({lo:g}, {hi:g}) for {params}")
    if n > 1 and not np.all(np.diff(nodes) > 0.0):
        raise RuntimeError(f"{family} nodes not strictly increasing for {params}")
    # at large n the weights nearest an endpoint with a large exponent, or in
    # the Laguerre far tail, underflow to exactly 0.0; that is the only
    # nonpositive value tolerated
    if not np.all(weights >= 0.0):
        raise RuntimeError(f"negative {family} weight for {params}")
    if abs(float(weights.sum()) - mu0) > _WEIGHT_SUM_RTOL * mu0:
        raise RuntimeError(f"{family} weight sum off for {params}")
    return GaussRule(nodes=nodes, weights=weights)


def _build_jacobi(alpha: float, beta: float, n: int) -> GaussRule:
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    if n > 1:
        k = np.arange(1.0, n)
        diag[1:] = (beta * beta - alpha * alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    off = np.empty(n - 1) if n > 1 else np.empty(0)
    if n > 1:
        # k = 1 needs its own formula: the generic one is 0/0 when ab = -1
        off[0] = math.sqrt(
            4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) ** 2 * (ab + 3.0))
        )
    if n > 2:
        k = np.arange(2.0, n)
        s = 2.0 * k + ab
        off[1:] = np.sqrt(
            4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s * s - 1.0))
        )
    mu0 = math.exp(
        (ab + 1.0) * math.log(2.0)
        + log_gamma(alpha + 1.0)
        + log_gamma(beta + 1.0)
        - log_gamma(ab + 2.0)
    )
    return _golub_welsch(diag, off, mu0, "Jacobi", (-1.0, 1.0), (alpha, beta, n))


def gauss_jacobi_rule(alpha: float, beta: float, n: int) -> GaussRule:
    """Cached n-point Gauss-Jacobi rule, weight (1-s)^alpha (1+s)^beta on
    [-1, 1], for exponents alpha, beta > -1.

    Weight sum equals 2^(alpha+beta+1) B(alpha+1, beta+1); nodes of
    successive orders interlace.  Raises DomainError for exponents <= -1 or
    a non-positive order.
    """
    n = _validate_order(n)
    # + 0.0 folds -0.0 into 0.0; the key is otherwise the exact float
    alpha = float(alpha) + 0.0
    beta = float(beta) + 0.0
    if not (alpha > -1.0 and beta > -1.0):
        raise DomainError(f"Jacobi exponents must exceed -1, got {(alpha, beta)}")
    key = ("jacobi", alpha, beta, n)
    return _cached(key, lambda: _build_jacobi(alpha, beta, n))


def _build_laguerre(exponent: float, n: int) -> GaussRule:
    k = np.arange(float(n))
    diag = 2.0 * k + exponent + 1.0
    off = np.sqrt(k[1:] * (k[1:] + exponent)) if n > 1 else np.empty(0)
    mu0 = math.exp(log_gamma(exponent + 1.0))
    return _golub_welsch(diag, off, mu0, "Laguerre", (0.0, math.inf), (exponent, n))


def gauss_laguerre_rule(exponent: float, n: int) -> GaussRule:
    """Cached n-point generalized Gauss-Laguerre rule, weight u^exponent e^(-u)
    on [0, inf).

    exponent must exceed -1.  Weight sum equals Gamma(exponent + 1).
    """
    n = _validate_order(n)
    exponent = float(exponent) + 0.0
    if not exponent > -1.0:
        raise DomainError(f"Laguerre exponent must exceed -1, got {exponent}")
    key = ("laguerre", exponent, n)
    return _cached(key, lambda: _build_laguerre(exponent, n))


def node_ladder(start: int = NODE_START, cap: int = NODE_CAP):
    """Yield the adaptive node counts start, 2*start, ... up to cap."""
    start = _validate_order(start)
    cap = _validate_order(cap)
    if cap < start:
        raise DomainError(f"node cap {cap} below start {start}")
    n = start
    while n <= cap:
        yield n
        n *= 2
