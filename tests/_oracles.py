"""Independent reference computations used only by the test suite.

Everything here deliberately avoids the package's own quadrature and moment
machinery: the fast paths are judged against brute-force graded panels,
elementary closed forms, and high-precision special-function identities.
The one exception seeds a long-double Newton polish with the package's Gauss
nodes, and then checks that the polish found every root.  The analytic
scalar fields are closed forms held in the package's `ScalarField`.
"""

import functools
import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import gammaln, ive

from dunklheat.operators import ScalarField

# 4-point Gauss-Legendre rule on [-1, 1], used only as the per-panel rule of
# the brute-force integrator below.
_GL4_NODES = np.array(
    [
        -0.8611363115940526,
        -0.3399810435848563,
        0.3399810435848563,
        0.8611363115940526,
    ]
)
_GL4_WEIGHTS = np.array(
    [
        0.3478548451374538,
        0.6521451548625461,
        0.6521451548625461,
        0.3478548451374538,
    ]
)


def _graded_panel_points(n_panels, floor=1e-60):
    """Panel endpoints on (0, 1], geometrically graded toward 0.

    The substituted integrands below behave like w^(2*kappa-1) at w = 0,
    which uniform panels cannot resolve for kappa < 1/2.  Geometric grading
    makes every panel small relative to its distance from the singularity;
    the dropped piece [0, floor] contributes at most floor^(2*kappa).
    """
    edges = np.geomspace(floor, 1.0, n_panels + 1)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    points = mid[:, None] + half[:, None] * _GL4_NODES[None, :]
    weights = half[:, None] * _GL4_WEIGHTS[None, :]
    return points.ravel(), weights.ravel()


def brute_force_log_moments(a, kappa, n_panels=100_000):
    """Return (log_m0, r1, r2) for m_k = integral of s^k (1-s)^(kappa-1)
    (1+s)^kappa e^(a s) ds over [-1, 1], k = 0, 1, 2.

    Split at s = 0 and substitute 1-s = w^2 on the right half, 1+s = v^2 on
    the left half, so the weight's endpoint singularity becomes an algebraic
    factor at the panel grid's graded end.  Every exponential is evaluated
    shifted by exp(-|a|) so nothing overflows.
    """
    a = float(a)
    kappa = float(kappa)
    if kappa <= 0:
        raise ValueError("brute-force moments need kappa > 0")
    m = abs(a)

    # right half: s = 1 - w^2, ds = -2w dw, contribution
    #   2 * exp(a) * int_0^1 w^(2k-1) (1-w^2)^k (2-w^2)^kappa exp(-a w^2) dw
    w, pw = _graded_panel_points(n_panels)
    w2 = w * w
    s_right = 1.0 - w2
    base_right = (
        2.0
        * np.power(w, 2.0 * kappa - 1.0)
        * np.power(2.0 - w2, kappa)
        * np.exp((a - m) - a * w2)
    )
    r0 = float(pw @ base_right)
    r1_ = float(pw @ (base_right * s_right))
    r2_ = float(pw @ (base_right * s_right * s_right))

    # left half: s = v^2 - 1, ds = 2v dv, contribution
    #   2 * exp(-a) * int_0^1 v^(2k+1) (2-v^2)^(kappa-1) (v^2-1)^k exp(a v^2) dv
    v, pv = _graded_panel_points(n_panels)
    v2 = v * v
    s_left = v2 - 1.0
    base_left = (
        2.0
        * np.power(v, 2.0 * kappa + 1.0)
        * np.power(2.0 - v2, kappa - 1.0)
        * np.exp((-a - m) + a * v2)
    )
    l0 = float(pv @ base_left)
    l1 = float(pv @ (base_left * s_left))
    l2 = float(pv @ (base_left * s_left * s_left))

    m0s = r0 + l0
    m1s = r1_ + l1
    m2s = r2_ + l2
    return m + math.log(m0s), m1s / m0s, m2s / m0s


def brute_force_f(a, kappa, n_panels=100_000):
    """f(a) = 2 a r1(a) + log m0(-a) - log m0(a), all from brute force."""
    log_m0_pos, r1_pos, _ = brute_force_log_moments(a, kappa, n_panels)
    log_m0_neg, _, _ = brute_force_log_moments(-a, kappa, n_panels)
    return 2.0 * a * r1_pos + log_m0_neg - log_m0_pos


def f_reference(a, kappa):
    """f(a) = 2 a r1(a) + log m0(-a) - log m0(a) from Kummer's function M at
    60 digits.  s = 2x - 1 turns the moment integral into a multiple of
    e^(-b) M(kappa+1, 2 kappa+1, 2b), so up to a constant that cancels in f

        log m0(b) = -b + log M(kappa+1, 2 kappa+1, 2b),
        r1(a) = -1 + 2 (kappa+1)/(2 kappa+1)
                     M(kappa+2, 2 kappa+2, 2a) / M(kappa+1, 2 kappa+1, 2a).

    The working precision absorbs the O(a) -> O(a^2) cancellation near 0.
    """
    with mpmath.workdps(60):
        aa = mpmath.mpf(a)
        k = mpmath.mpf(kappa)

        def log_m0(b):
            return -b + mpmath.log(mpmath.hyp1f1(k + 1, 2 * k + 1, 2 * b))

        m = mpmath.hyp1f1(k + 1, 2 * k + 1, 2 * aa)
        r1 = -1 + 2 * (k + 1) / (2 * k + 1) * mpmath.hyp1f1(k + 2, 2 * k + 2, 2 * aa) / m
        return float(2 * aa * r1 + log_m0(-aa) - log_m0(aa))


def brute_force_log_e(x, y, kappa, n_panels=100_000):
    """log E_kappa(x, y) from the brute-force m0 and the exact constant."""
    log_c = gammaln(kappa + 0.5) - 0.5 * math.log(math.pi) - gammaln(kappa)
    log_m0, _, _ = brute_force_log_moments(x * y, kappa, n_panels)
    return float(log_c + log_m0)


# ---------------------------------------------------------------------------
# closed forms


def r1_at_zero(kappa):
    """m1(0)/m0(0) = 1/(2 kappa + 1), by two Beta-integral reductions."""
    return 1.0 / (2.0 * kappa + 1.0)


def r2_at_zero(kappa):
    """m2(0)/m0(0), which the same Beta reduction collapses to 1/(2 kappa + 1)."""
    return 1.0 / (2.0 * kappa + 1.0)


def variance_at_zero(kappa):
    """r2(0) - r1(0)^2 = 2 kappa / (2 kappa + 1)^2."""
    return 2.0 * kappa / (2.0 * kappa + 1.0) ** 2


def log_m0_kappa_one(a):
    """kappa = 1 weight is just (1+s): m0(a) = 2 e^a / a - 2 sinh(a) / a^2.

    Evaluated in mpmath because the two terms cancel to O(a^2) near 0.
    """
    with mpmath.workdps(50):
        aa = mpmath.mpf(a)
        if aa == 0:
            return math.log(2.0)
        m0 = 2 * mpmath.e**aa / aa - 2 * mpmath.sinh(aa) / aa**2
        return float(mpmath.log(m0))


def r1_kappa_one(a):
    """m1/m0 for kappa = 1, elementary after two integrations by parts."""
    with mpmath.workdps(50):
        aa = mpmath.mpf(a)
        if aa == 0:
            return float(mpmath.mpf(1) / 3)
        # m1(a) = int s (1+s) e^(as) ds over [-1, 1]
        e_p = mpmath.e**aa
        e_m = mpmath.e**-aa
        m0 = 2 * e_p / aa - (e_p - e_m) / aa**2
        m1 = (
            2 * e_p / aa
            - (3 * e_p + e_m) / aa**2
            + 2 * (e_p - e_m) / aa**3
        )
        return float(m1 / m0)


def log_m0_kappa_half(a):
    """kappa = 1/2: m0(a) = pi (I0(a) + I1(a)) via s = cos(theta)."""
    with mpmath.workdps(50):
        aa = mpmath.mpf(a)
        val = mpmath.pi * (mpmath.besseli(0, aa) + mpmath.besseli(1, aa))
        return float(mpmath.log(val))


def log_e_kappa_half(x, y):
    """E_(1/2)(x, y) = I0(xy) + I1(xy); the normalizer C_(1/2) is 1/pi."""
    with mpmath.workdps(50):
        aa = mpmath.mpf(x) * mpmath.mpf(y)
        return float(mpmath.log(mpmath.besseli(0, aa) + mpmath.besseli(1, aa)))


def log_e_kappa(x, y, kappa):
    """log E_kappa(x, y) from the Bessel form (Rosler 1998), a = xy != 0:
    E_kappa = Gamma(kappa + 1/2) (|a|/2)^(1/2 - kappa)
              (I_(kappa - 1/2)(|a|) + sign(a) I_(kappa + 1/2)(|a|))."""
    with mpmath.workdps(50):
        aa = mpmath.mpf(x) * mpmath.mpf(y)
        k, z = mpmath.mpf(kappa), abs(aa)
        bessel = mpmath.besseli(k - 0.5, z) + mpmath.sign(aa) * mpmath.besseli(k + 0.5, z)
        return float(mpmath.log(mpmath.gamma(k + 0.5) * (z / 2) ** (0.5 - k) * bessel))


def log_kernel_1d(t, u, v, kappa):
    """log p_t(u, v) for kappa > 0, uv != 0, from the Bessel form of E_kappa:
    p_t = (2t)^(-kappa - 1/2) / c_kappa exp(-(u^2 + v^2)/(4t))
    E_kappa(u / sqrt(2t), v / sqrt(2t)), c_kappa = 2^(kappa + 1/2) Gamma(kappa + 1/2)."""
    with mpmath.workdps(50):
        t, u, v, k = (mpmath.mpf(z) for z in (t, u, v, kappa))
        log_c = (k + 0.5) * mpmath.log(2) + mpmath.loggamma(k + 0.5)
        s = mpmath.sqrt(2 * t)
        rest = -log_c - (k + 0.5) * mpmath.log(2 * t) - (u * u + v * v) / (4 * t)
        return float(rest + log_e_kappa(u / s, v / s, kappa))


def gaussian_log_kernel(t, u, v):
    """kappa = 0 closed form: log of the 1d Gauss-Weierstrass kernel."""
    return -0.5 * math.log(4.0 * math.pi * t) - (u - v) ** 2 / (4.0 * t)


def gaussian_log_kernel_derivatives(t, u, v):
    """(d/du, d2/du2, d/dt) of gaussian_log_kernel."""
    return (
        -(u - v) / (2.0 * t),
        -1.0 / (2.0 * t),
        -0.5 / t + (u - v) ** 2 / (4.0 * t * t),
    )


# ---------------------------------------------------------------------------
# quadrature references


def jacobi_monomial_integral(alpha, beta, m):
    """int s^m (1-s)^alpha (1+s)^beta ds over [-1, 1], exact Beta sum.

    The alternating binomial sum cancels badly in doubles for larger m, so it
    runs at 60 digits and rounds once at the end.
    """
    with mpmath.workdps(60):
        al = mpmath.mpf(alpha)
        be = mpmath.mpf(beta)
        total = mpmath.mpf(0)
        for j in range(m + 1):
            total += (
                mpmath.binomial(m, j)
                * mpmath.mpf(2) ** j
                * (-1) ** (m - j)
                * mpmath.beta(be + j + 1, al + 1)
            )
        return float(mpmath.mpf(2) ** (al + be + 1) * total)


def laguerre_monomial_integral(exponent, m):
    """int u^(exponent + m) e^(-u) du over [0, inf) = Gamma(exponent + m + 1)."""
    return float(np.exp(gammaln(exponent + m + 1.0)))


# ---------------------------------------------------------------------------
# finite differences (for validating analytic derivatives)


def central_d1(f, x, h):
    """Fourth-order central first derivative."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def central_d2(f, x, h):
    """Fourth-order central second derivative."""
    return (
        -f(x + 2 * h)
        + 16 * f(x + h)
        - 30 * f(x)
        + 16 * f(x - h)
        - f(x - 2 * h)
    ) / (12 * h * h)


# ---------------------------------------------------------------------------
# analytic scalar fields (for the Dunkl operators and the chain rule)


def exp_field(c=(0.3, -0.2)):
    c = np.asarray(c, dtype=float)
    return ScalarField(
        value=lambda x: math.exp(float(c @ x)),
        gradient=lambda x: c * math.exp(float(c @ x)),
        hessian_diag=lambda x: c * c * math.exp(float(c @ x)),
    )


def gaussian_field():
    # exp(-|x|^2/2), even in every coordinate
    return ScalarField(
        value=lambda x: math.exp(-0.5 * float(x @ x)),
        gradient=lambda x: -x * math.exp(-0.5 * float(x @ x)),
        hessian_diag=lambda x: (x * x - 1.0) * math.exp(-0.5 * float(x @ x)),
    )


def positive_poly_field():
    # 12 + x0 + x0^2 x1, positive on [-2, 2]^2, not sign-flip invariant
    return ScalarField(
        value=lambda x: 12.0 + x[0] + x[0] ** 2 * x[1],
        gradient=lambda x: np.array([1.0 + 2.0 * x[0] * x[1], x[0] ** 2]),
        hessian_diag=lambda x: np.array([2.0 * x[1], 0.0]),
    )


# n above this takes the long-double polish where long double is wide
# enough; one mpmath rule at n = 256 takes seconds
_MPMATH_MAX_N = 64
_LONG_DOUBLE_POLISH = np.finfo(np.longdouble).eps <= 1e-18
_NEWTON_STEPS = 3


def gauss_rule_reference(qtype, exponents, n):
    """(nodes, weights) of the n-point Gauss rule, rounded to float, nodes
    increasing.  qtype is "jacobi" with exponents (alpha, beta) or
    "glaguerre" with exponents (alpha,), as in mpmath.gauss_quadrature.

    Up to n = 64, and wherever long double is no wider than double, this is
    mpmath's rule at 20 digits; above, the long-double polish of
    polished_rule_reference, which agrees with mpmath to 1e-15 and costs a
    hundredth of the time."""
    if n > _MPMATH_MAX_N and _LONG_DOUBLE_POLISH:
        return polished_rule_reference(qtype, exponents, n)
    return mpmath_rule_reference(qtype, exponents, n)


@functools.lru_cache(maxsize=None)
def mpmath_rule_reference(qtype, exponents, n):
    """(nodes, weights) of mpmath's n-point Gauss rule, computed at 20
    digits and rounded to float, nodes increasing."""
    with mpmath.workdps(20):
        nodes, weights = mpmath.mp.gauss_quadrature(n, qtype, *(mpmath.mpf(e) for e in exponents))
        pairs = sorted((float(x), float(w)) for x, w in zip(nodes, weights))
    return np.array([x for x, _ in pairs]), np.array([w for _, w in pairs])


def _recurrence(qtype, exponents, n):
    """(a, b, mu0) in long double: a_0..a_(n-1) and b_1..b_(n-1) of the
    recurrence b_(k+1) q_(k+1) = (x - a_k) q_k - b_k q_(k-1) of the
    orthonormal polynomials, and the weight's mass mu0 (from mpmath)."""
    ld = np.longdouble
    k = np.arange(n, dtype=ld)
    with mpmath.workdps(30):
        if qtype == "glaguerre":
            alpha = ld(exponents[0])
            a = 2 * k + alpha + 1
            b = np.sqrt(k[1:] * (k[1:] + alpha))
            mu0 = mpmath.gamma(mpmath.mpf(exponents[0]) + 1)
        else:
            alpha, beta = ld(exponents[0]), ld(exponents[1])
            ab = alpha + beta
            s = 2 * k + ab
            a = np.empty(n, dtype=ld)
            a[0] = (beta - alpha) / (ab + 2)
            a[1:] = (beta - alpha) * ab / (s[1:] * (s[1:] + 2))
            b = np.empty(n - 1, dtype=ld)
            b[0] = np.sqrt(4 * (alpha + 1) * (beta + 1) / ((ab + 2) ** 2 * (ab + 3)))
            kk, ss = k[2:], s[2:]
            b[1:] = np.sqrt(4 * kk * (kk + alpha) * (kk + beta) * (kk + ab) / (ss * ss * (ss * ss - 1)))
            al, be = (mpmath.mpf(e) for e in exponents)
            mu0 = 2 ** (al + be + 1) * mpmath.gamma(al + 1) * mpmath.gamma(be + 1) / mpmath.gamma(al + be + 2)
        return a, b, ld(mpmath.nstr(mu0, 25))


def _three_term(x, a, b, mu0):
    """(b_n q_n(x), its derivative in x, sum_(k<n) q_k(x)^2) at each entry of
    x, for the orthonormal polynomials q_k of the recurrence; n = len(a)."""
    q_prev, dq_prev = np.zeros_like(x), np.zeros_like(x)
    q, dq = np.full_like(x, 1 / np.sqrt(mu0)), np.zeros_like(x)
    total = q * q
    b = np.concatenate([[0], b])
    for k in range(a.size):
        q_next = (x - a[k]) * q - b[k] * q_prev
        dq_next = q + (x - a[k]) * dq - b[k] * dq_prev
        if k + 1 < a.size:
            q_next, dq_next = q_next / b[k + 1], dq_next / b[k + 1]
            total = total + q_next * q_next
        q_prev, q, dq_prev, dq = q, q_next, dq, dq_next
    return q, dq, total


@functools.lru_cache(maxsize=None)
def polished_rule_reference(qtype, exponents, n):
    """(nodes, weights) of the n-point Gauss rule from a long-double Newton
    polish, rounded to float.  The package's own nodes only seed it:
    _NEWTON_STEPS Newton steps on the three-term recurrence take each to a
    root of p_n in long double (eps 1.1e-19 on x86), and the weights are the
    Christoffel numbers mu0 / sum_(k<n) (sqrt(mu0) q_k(x))^2 (Golub and
    Welsch, Math. Comp. 23 (1969)).  p_n must change sign between the
    support's lower end, the midpoints of consecutive nodes and a point past
    the last node, so the n nodes are n distinct roots: two seeds that
    settled on one root would fail it."""
    from dunklheat.quadrature import gauss_jacobi_rule, gauss_laguerre_rule

    rule = gauss_jacobi_rule(*exponents, n) if qtype == "jacobi" else gauss_laguerre_rule(*exponents, n)
    a, b, mu0 = _recurrence(qtype, exponents, n)
    x = rule.nodes.astype(np.longdouble)
    for _ in range(_NEWTON_STEPS):
        p, dp, _ = _three_term(x, a, b, mu0)
        x = x - p / dp
    lo, hi = (-1, 1) if qtype == "jacobi" else (0, x[-1] + (x[-1] - x[-2]))
    probes = np.concatenate([[lo], (x[:-1] + x[1:]) / 2, [hi]]).astype(np.longdouble)
    signs = np.sign(_three_term(probes, a, b, mu0)[0])
    if not np.all(signs[:-1] * signs[1:] < 0):
        raise AssertionError(f"the polish of {(qtype, exponents, n)} did not find {n} distinct roots")
    return x.astype(float), (1 / _three_term(x, a, b, mu0)[2]).astype(float)


def log_solution_mass(t, u, kappa, log_f, lo, hi):
    """log of the integral of f(v) p_t(u, v) |v|^(2 kappa) dv over [lo, hi],
    kappa > 0: adaptive Gauss-Kronrod (scipy.integrate.quad) on each side of
    0, with the integrand divided by its largest value on a fine grid and
    breakpoints at geometric distances from lo, 0 and hi, where the mass of
    a point far from the support sits.  The kernel is the Bessel form of
    E_kappa through the exponentially scaled scipy.special.ive, and
    E_kappa = 1 where uv = 0."""

    def log_g(v):
        v = np.asarray(v, dtype=float)
        a = u * v / (2.0 * t)
        z = np.abs(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_e = (
                gammaln(kappa + 0.5)
                + (0.5 - kappa) * np.log(z / 2.0)
                + z
                + np.log(ive(kappa - 0.5, z) + np.sign(a) * ive(kappa + 0.5, z))
            )
            log_e = np.where(z > 0.0, log_e, 0.0)
            log_c = (kappa + 0.5) * math.log(2.0) + gammaln(kappa + 0.5)
            log_p = -log_c - (kappa + 0.5) * math.log(2.0 * t) - (u * u + v * v) / (4.0 * t) + log_e
            return log_f(v) + log_p + 2.0 * kappa * np.log(np.abs(v))

    grid = np.linspace(lo, hi, 100_001)
    shift = float(np.max(log_g(grid[grid != 0.0])))
    width = 2.0 * t / max(abs(u) - max(-lo, hi), 2.0 * t)
    total = 0.0
    for a, b in ((lo, min(hi, 0.0)), (max(lo, 0.0), hi)):
        if b > a:
            cuts = {c for j in range(-2, 60) for c in (a + width * 2.0**j, b - width * 2.0**j) if a < c < b}
            total += integrate.quad(
                lambda v: math.exp(float(log_g(v)) - shift) if v != 0.0 else 0.0,
                a,
                b,
                points=sorted(cuts),
                limit=2000,
                epsabs=0.0,
                epsrel=1e-13,
            )[0]
    return shift + math.log(total)
