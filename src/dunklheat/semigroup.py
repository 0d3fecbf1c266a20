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
they miss or the integrand is 0 all over the window; those panels grade
geometrically towards the support's points nearest u, where the mass of a
far point sits in a sliver (`_graded_panels`).  A Chapman-Kolmogorov
integral takes the window of its two kernels' product (`_ck_integral`).
Panels are cut at 0, at knots and every few sigma; one touching v = 0
absorbs the |v|^(2 kappa) factor into a Gauss-Jacobi rule so low
multiplicities keep full accuracy through the kink, elsewhere
Gauss-Legendre panels apply the weight pointwise.  All node counts double
together from _PANEL_NODE_START (16) nodes per panel until two levels'
weighted sums agree to _PANEL_REL_TOL (1e-10), up to _PANEL_NODE_CAP
(512); the kernel values inside them settle to the kernel's fixed 1e-10.
Panels are at most 8 sigma wide, so 16 and 32 nodes agree for nearly every
integral: at the defaults 2 of `semigroup-check`'s 94 integrals and 14 of
`solution-scan`'s 120 take a third level, at 64 nodes.  Integrands and
weights are logs, which `_adaptive_panel_sum` exponentiates shifted by
their integral's largest term, so each integral returns its log wherever
that is finite.  A node whose closed-form bound (`kernel._log_envelope`)
is e^60 below its integral's largest term is skipped, with the same bits.

`_adaptive_panel_sum` sums a batch of integrals that share one exponent.
Each keeps its own panels, shift and settle test, and leaves the batch once
it settles; at each level the nodes of those left go through the integrand
in calls of at most _BATCH_NODES (4096) nodes, whole integrals each (one
whose level alone is larger goes alone), so a batch of any length holds
about 1 MB of temporaries.  The kernel gives a node the same bits in any
call, and each integral sums its own slice, so an integral's bits do not
depend on its batch.  `_solution_moments` runs the solution integrals of B
points at once, and a solution field keeps the rows it computed
(`semigroup_solution`).  The point checks take n points, each given the
bits of its one-point call.

`normalization_check` and `chapman_kolmogorov_check` sum the distinct
coordinate integrals of a call in one ladder per kappa_i, which evaluates a
kernel row shared at s = t and x_i = y_i once (`_log_integrals`), and keep
none: no caller repeats one.  The integrals raise ConvergenceError where
no value is representable: where a solution's integrand is 0 on the whole
support (u^2 overflows far from it), where 30 sigma vanishes next to |u|
in double precision, leaving a window no width, where a graded panel would
be narrower than one ulp, and where a layout would need more than
_PANEL_CAP panels.

The kernel is invariant when one reflection flips both arguments,
p_t(-u, -v) = p_t(u, v) (Rosler 1998; at kappa = 0 a Gaussian in u - v),
and every weight |v|^e is even, so each integral has one value on the
orbit of a joint sign flip.  The two checks take one point of each orbit:
|u| for a normalization integral, and for a Chapman-Kolmogorov one
whichever of (x_i, y_i) and (-x_i, -y_i) has x_i > 0, or x_i = 0 and
y_i >= 0.  A sign flip of a check's points therefore gives the same bits.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .inequalities import DEFAULT_TOLERANCE, VerificationReport, _liyau_bound, _one_or_all, _times
from .kernel import (
    _coordinate,
    _kernel_points,
    _log_envelope,
    kernel_derivatives_1d_batch,
    log_gaussian_mass,
)
from .operators import (
    MultiplicityZ2,
    ScalarField,
    SpaceTimeField,
    _added,
    _laplacian,
    _validate_point,
    _validate_points,
    _validate_time,
    dunkl_laplacian,
)
from .quadrature import (
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
# nodes per panel at a ladder's first level (the moments start at NODE_START)
_PANEL_NODE_START = 16
_PANEL_NODE_CAP = 512
_PANEL_REL_TOL = 1e-10
# panels per layout; past it one ladder level holds hundreds of MB of node
# temporaries (23,886 panels peaked at 951 MB), and sigma = inf asks for NaN
_PANEL_CAP = 10_000
_PROFILE_SAMPLES = 257
# nodes per `values` call of a batched panel ladder
_BATCH_NODES = 4096
# a skipped node adds less than e^-_PRUNE_LOG of its integral's largest
# term: _PANEL_CAP * _PANEL_NODE_CAP * e^-60 = 4.5e-20 of it in all, far
# below 2^-53.  The kernel bound gives up a polynomial factor of E_kappa; at
# _PRUNE_GUESS no default integral needs a second pass (at 10, 12 do)
_PRUNE_LOG = 60.0
_PRUNE_GUESS = 25.0
_NORMALIZATION_TOL = 1e-8
_CHAPMAN_KOLMOGOROV_TOL = 1e-6


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
    if not (math.isfinite(center) and math.isfinite(radius) and radius > 0.0):
        raise DomainError(f"bump needs finite center and positive radius, got {(center, radius)}")
    if isinstance(power, bool) or not isinstance(power, numbers.Integral) or power < 1:
        raise DomainError(f"bump power must be a positive integer, got {power!r}")

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
    edges = []
    for a, b in ((max(-outer, lo), min(-inner, hi)), (max(inner, lo), min(outer, hi))):
        if b > a:
            cuts = [a, *(k for k in knots if a < k < b), b]
            for c, d in zip(cuts[:-1], cuts[1:]):
                pieces = (d - c) / (_PANEL_SIGMAS * sigma)
                if not len(edges) + pieces <= _PANEL_CAP:
                    raise ConvergenceError(
                        f"panel layout over [{c}, {d}] needs {pieces:.3g} panels of"
                        f" {_PANEL_SIGMAS:g} sigma, sigma = {sigma:.3g}, more than the cap of {_PANEL_CAP}"
                    )
                # the points of np.linspace(c, d, n + 1), as it computes them
                n = max(1, math.ceil(pieces))
                step = (d - c) / n
                points = [i * step + c for i in range(n)] + [d]
                edges.extend(zip(points[:-1], points[1:]))
    return np.array(edges).reshape(-1, 2)


def _graded_panels(t, u, kappa_i, profile) -> np.ndarray:
    """The (m, 2) edges of panels covering a profile's whole support, cut at
    0 and at the knots, each piece graded towards its point nearest u in the
    kernel's distance: |v| nearest |u| for kappa_i > 0, where the kernel is
    at most a Gaussian in ||u| - |v||, and v nearest u at kappa_i = 0.  The
    integrand falls by e over step = 2t / gap there, gap the distance to u
    (step at most sigma), and the panel edges sit step, 2 step, 4 step, ...
    from the point.  The mass of a point far from the support sits in a
    sliver at the support's edge, which the first few panels resolve.
    Raises ConvergenceError where step is below one ulp of the point, or the
    layout needs more than _PANEL_CAP panels; a point so far away that its
    log p overflows gets panels from one ulp on instead.  No step is below
    the smallest normal float, whose half still has a finite log."""
    sigma = math.sqrt(2.0 * t)
    cuts = {profile.lo, profile.hi, *profile.knots}
    if profile.lo < 0.0 < profile.hi:
        cuts.add(0.0)
    cuts = sorted(cuts)
    edges = [cuts[0]]
    for c, d in zip(cuts[:-1], cuts[1:]):
        center = u if kappa_i == 0.0 else math.copysign(abs(u), c + d)
        target = min(max(center, c), d)
        gap = abs(center - target)
        step = 2.0 * t / max(gap, sigma)
        # where gap^2 / (4t), the Gaussian's log, overflows, the panels
        # start one ulp out and the integrand reports the mass underflowed
        if not step >= math.ulp(target) and math.isfinite(gap * gap / (4.0 * t)):
            raise ConvergenceError(
                f"panel layout over [{c}, {d}] needs a first panel of {step:.3g} at v = {target},"
                " narrower than one ulp there"
            )
        step = max(step, math.ulp(target), sys.float_info.min)
        piece = {target, d}
        for side in (-1.0, 1.0):
            r = step
            while c < target + side * r < d:
                piece.add(target + side * r)
                r *= 2.0
        edges.extend(sorted(piece - {c}))
    if len(edges) - 1 > _PANEL_CAP:
        raise ConvergenceError(
            f"panel layout over [{profile.lo}, {profile.hi}] needs {len(edges) - 1} graded panels,"
            f" more than the cap of {_PANEL_CAP}"
        )
    edges = np.array(edges)
    return np.column_stack([edges[:-1], edges[1:]])


def _panel_levels(panels, exponent: float):
    """level(n) -> (v, log_w): nodes and log-weights, panel after panel, for
    the integral of g(v) |v|^exponent over the panels, (m, 2) edges, at n
    nodes each, where no panel's interior contains 0.  A panel with an
    endpoint at 0 moves the weight into the Gauss-Jacobi rule of exponent
    (0, exponent), where an underflowed weight has log -inf; elsewhere the
    smooth weight's log is added at the Gauss-Legendre nodes.  A level looks
    each rule up once and lays out all panels from it."""
    a, b = panels.T
    mid, half = 0.5 * (a + b)[:, None], 0.5 * (b - a)[:, None]
    # the rows of the panels at 0, with their half-widths and sides
    ends = np.flatnonzero(((a == 0.0) | (b == 0.0)) & (exponent > 0.0))
    scale = np.where(a[ends] == 0.0, b[ends], -a[ends]) / 2.0
    side = np.where(b[ends] == 0.0, -1.0, 1.0)[:, None]
    log_scale = (exponent + 1.0) * np.array([[math.log(x)] for x in scale.tolist()])
    scale = scale[:, None]

    def level(n: int):
        rule = gauss_jacobi_rule(0.0, 0.0, n)
        v = mid + half * rule.nodes
        log_w = np.log(half) + np.log(rule.weights)
        if exponent != 0.0:
            log_w += exponent * np.log(np.abs(v))
        if ends.size:
            rule = gauss_jacobi_rule(0.0, exponent, n)
            with np.errstate(divide="ignore"):
                log_weights = np.log(rule.weights)
            v[ends] = side * (scale * (1.0 + rule.nodes))
            log_w[ends] = log_scale + log_weights
        return v.ravel(), log_w.ravel()

    return level


def _chunks(batch: list, nodes: list):
    """batch cut in order into runs of at most _BATCH_NODES nodes, nodes[i]
    those of batch[i]; one that alone holds more runs alone."""
    start, total = 0, 0
    for i, size in enumerate(nodes):
        if i > start and total + size > _BATCH_NODES:
            yield batch[start:i]
            start, total = i, 0
        total += size
    yield batch[start:]


def _adaptive_panel_sum(layouts, exponent, values, envelope, units):
    """(shift, sums): for each integral b of a batch, the sums
    sum_j w_j g(v_j) factors[i, j] over its panels layouts[b], (m_b, 2)
    edges, as exp(shift[b]) * sums[b, i], doubling every panel's node count
    from _PANEL_NODE_START until two levels agree to _PANEL_REL_TOL, up to
    _PANEL_NODE_CAP; ConvergenceError if one has not settled at the cap.

    `values` maps nodes v (m,) and their owner (m,), each node's integral's
    place in the batch, to log g (-inf where g is 0) and factor rows (k, m);
    `envelope` maps them to an upper bound of log g.  Each term is exp(log g
    + log w - shift), one exp per chunk of nodes, an integral's shift the
    largest log term of its first call (-inf, with sums of ones, if g is 0
    at all its nodes).  units[b] rescales integral b's k sums so its settle
    test is relative in the largest and absolute, at that scale, in the
    rest.  A node reaches `values` only if its bound term (envelope + log w)
    is at least shift - _PRUNE_LOG, else counts as g = 0: a first call takes
    the nodes within _PRUNE_LOG + _PRUNE_GUESS of its largest bound term,
    then those left within _PRUNE_LOG of the largest log term found, so the
    shift is the one every node would give.

    The first two levels share one call; a settled integral leaves the
    batch.  Nodes reach `values` in chunks of whole integrals of at most
    _BATCH_NODES nodes.  A node's kernel bits do not depend on its call, and
    each integral sums its own slice, so it gets the bits it gets alone: a
    batch holds the solution integrals of many points, or the normalization
    or Chapman-Kolmogorov integrals of one kappa_i, whose integrand
    evaluates a kernel row shared at s = t and x_i = y_i once.
    """
    shift, sums, prev = [-math.inf] * len(layouts), [None] * len(layouts), [None] * len(layouts)
    ladder = list(node_ladder(_PANEL_NODE_START, _PANEL_NODE_CAP))
    pending = list(range(len(layouts)))
    for first, calls in ((True, ladder[:2]), *((False, [n]) for n in ladder[2:])):
        left = []
        for chunk in _chunks(pending, [len(layouts[b]) * sum(calls) for b in pending]):
            panels = layouts[chunk[0]] if len(chunk) == 1 else np.concatenate([layouts[b] for b in chunk])
            level = _panel_levels(panels, exponent)
            # one slice per integral and level, level after level
            v, log_w = (np.concatenate(parts) for parts in zip(*(level(n) for n in calls)))
            sizes = [len(layouts[b]) * n for n in calls for b in chunk]
            ends = list(itertools.accumulate(sizes))
            owner = np.array(chunk * len(calls)).repeat(sizes)
            bound = envelope(v, owner) + log_w
            log_g, factors = np.full(v.size, -math.inf), np.zeros((units.shape[-1], v.size))
            done = np.zeros(v.size, dtype=bool)

            def evaluate(floor):
                # the nodes left whose bound term reaches floor[i], i their integral's place in chunk
                idx = np.flatnonzero(~done & (bound >= np.tile(floor, len(calls)).repeat(sizes)))
                done[idx] = True
                if idx.size:
                    log_g[idx], factors[:, idx] = values(v[idx], owner[idx])

            def peaks(terms):
                return np.maximum.reduceat(terms, [e - n for e, n in zip(ends, sizes)]).reshape(len(calls), -1).max(0)

            evaluate((peaks(bound) - _PRUNE_GUESS if first else np.array([shift[b] for b in chunk])) - _PRUNE_LOG)
            if first:
                evaluate(peaks(log_g + log_w) - _PRUNE_LOG)
                for b, peak in zip(chunk, peaks(log_g + log_w).tolist()):
                    shift[b] = peak
            # one exp per chunk, each term less its integral's shift (0 for -inf)
            offsets = [peak if peak > -math.inf else 0.0 for peak in (shift[b] for b in chunk)]
            terms = np.exp(log_g + log_w - np.tile(offsets, len(calls)).repeat(sizes))
            for i, b in enumerate(chunk):
                if shift[b] == -math.inf:
                    sums[b] = np.ones(units.shape[-1])
                    continue
                for e, n in zip(ends[i :: len(chunk)], sizes[i :: len(chunk)]):
                    cur = np.ascontiguousarray(factors[:, e - n : e]) @ terms[e - n : e]
                    if prev[b] is not None:
                        scaled, before = cur * units[b], prev[b] * units[b]
                        err = np.abs(scaled - before).max()
                        if err <= _PANEL_REL_TOL * max(np.abs(scaled).max(), np.abs(before).max()):
                            sums[b] = cur
                            break
                    prev[b] = cur
                else:
                    left.append(b)
        pending = left
        if not pending:
            return np.array(shift), np.array(sums)
    raise ConvergenceError(f"panel quadrature stalled at {_PANEL_NODE_CAP} nodes per panel")


def _mass_integral(t, u, kappa_i, exponent):
    """p_t(u, v) |v|^exponent over the window of u."""
    if not exponent > -1.0:
        raise DomainError(f"weight exponent must exceed -1, got {exponent}")
    return kappa_i, exponent, [(t, u)], u, math.sqrt(2.0 * t), f"u = {u}, t = {t}"


def _ck_integral(s, t, xi, yi, kappa_i):
    """p_s(xi, v) p_t(v, yi) |v|^(2 kappa) over the window of the product of
    the kernels' Gaussians in ||u| - |v||: one Gaussian in |v| at c = (t |xi|
    + s |yi|) / (s + t), sigma^2 = 2 s t / (s + t), tight up to a polynomial
    factor for kappa > 0.  At kappa = 0, E_0(a) = e^a, the signed Gaussians'
    product sits at (t xi + s yi) / (s + t), which c's window misses when xi
    yi < 0 (xi = -yi = 33, s = t = 1 loses 99.7% of the mass), so the window
    is centred there; for kappa > 0 that term weighs about e^(-450) / kappa
    where c's window misses it, at |xi yi| / (s + t) > 450."""
    sigma_s, sigma_t = math.sqrt(2.0 * s), math.sqrt(2.0 * t)
    sigma = sigma_s * sigma_t / math.hypot(sigma_s, sigma_t)
    # each centre as xi moved towards yi: no product t xi to overflow
    if kappa_i == 0.0:
        center = xi + s / (s + t) * (yi - xi)
    else:
        center = abs(xi) + s / (s + t) * (abs(yi) - abs(xi))
    return kappa_i, 2.0 * kappa_i, [(s, xi), (t, yi)], center, sigma, f"x = {xi}, y = {yi}, s = {s}, t = {t}"


def _log_integrals(keys, integral) -> dict:
    """key -> log of its integral for each distinct key, integral(*key) being
    (kappa_i, exponent, kernels, center, sigma, where): the product of the
    kernels p_t(u, v), one or two (t, u), against |v|^exponent over the
    window of center.  The first lost window in first-seen order raises
    ConvergenceError.  One ladder per (kappa_i, exponent) evaluates the first
    kernel at every node and the second only for the integrals where it
    differs (s != t or x_i != y_i), elsewhere adding the first row to itself."""
    groups, logs = {}, {}
    for key in dict.fromkeys(keys):
        kappa_i, exponent, kernels, center, sigma, where = integral(*key)
        panels = _panels(*_window(center, sigma), sigma)
        if not len(panels):
            raise ConvergenceError(
                f"integration window lost to rounding at {where}: 30 sigma vanishes next to the"
                " coordinate in double precision"
            )
        groups.setdefault((kappa_i, exponent), []).append((key, kernels, panels))
    for (kappa_i, exponent), batch in groups.items():
        keys, factors, layouts = zip(*batch)
        # per kernel factor, the (2, B) rows of its t and u over the batch
        kernels = [np.array(factor).T for factor in zip(*factors)]
        differ = (kernels[-1] != kernels[0]).any(0)

        def values(v, owner):
            first, *rest = (kernel[:, owner] for kernel in kernels)
            log_g = kernel_derivatives_1d_batch(*first, v, kappa_i)[0]
            for second in rest:
                row, at = log_g.copy(), np.flatnonzero(differ[owner])
                if at.size:
                    row[at] = kernel_derivatives_1d_batch(*second[:, at], v[at], kappa_i)[0]
                log_g = log_g + row
            return log_g, np.ones((1, v.size))

        def envelope(v, owner):
            return sum(_log_envelope(*kernel[:, owner], v, kappa_i) for kernel in kernels)

        shift, sums = _adaptive_panel_sum(layouts, exponent, values, envelope, np.ones((len(batch), 1)))
        for key, peak, mass in zip(keys, shift.tolist(), sums[:, 0].tolist()):
            logs[key] = peak + math.log(mass)
    return logs


def _solution_moments(t, u, kappa_i, profile) -> np.ndarray:
    """(B, 4) rows (log I0, I1/I0, I2/I0, It/I0), I the integrals of f(v) D
    p_t(u, v) |v|^(2 kappa) dv for D = id, d/du, d^2/du^2, d/dt, at B
    points: t and u are floats, a batch of one, or arrays of B.
    Differentiation happens under the integral sign, on the kernel factor,
    so the four share one node set, and the B integrals share one batched
    ladder."""
    t, u = np.atleast_1d(t), np.atleast_1d(u)
    times, points = t.tolist(), u.tolist()
    sigmas = [math.sqrt(2.0 * ti) for ti in times]
    units = np.array([(1.0, si, si * si, ti) for si, ti in zip(sigmas, times)])
    shift, sums = [-math.inf] * len(times), [None] * len(times)

    def ladder(batch, layouts):
        index = np.array(batch)

        def log_f(v):
            # f may dip to -1e-12 of its peak (InitialDatum's check): that is 0
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(np.asarray(profile.fn(v), dtype=float), 0.0))

        def values(v, owner):
            at = index[owner]
            log_p, d1, d2, dt = kernel_derivatives_1d_batch(t[at], u[at], v, kappa_i)
            log_g = log_f(v) + log_p
            # where g is 0, far from the support, d1^2 can overflow: zero it there
            d1, d2, dt = (np.where(log_g == -math.inf, 0.0, d) for d in (d1, d2, dt))
            return log_g, np.stack([np.ones_like(d1), d1, d2 + d1 * d1, dt])

        def envelope(v, owner):
            at = index[owner]
            return log_f(v) + _log_envelope(t[at], u[at], v, kappa_i)

        found = _adaptive_panel_sum(layouts, 2.0 * kappa_i, values, envelope, units[index])
        for b, peak, row in zip(batch, *found):
            shift[b], sums[b] = peak, row

    layouts = [
        _panels(*_window(ui, si), si, profile.lo, profile.hi, profile.knots)
        for ui, si in zip(points, sigmas)
    ]
    batch = [b for b, panels in enumerate(layouts) if len(panels)]
    if batch:
        ladder(batch, [layouts[b] for b in batch])
    # a window that misses the support, or where f p_t is 0 at every node,
    # gets the whole support: the mass is tiny there, not zero
    batch = [b for b, peak in enumerate(shift) if peak == -math.inf]
    if batch:
        ladder(batch, [_graded_panels(times[b], points[b], kappa_i, profile) for b in batch])
    for b in (b for b, peak in enumerate(shift) if peak == -math.inf):
        raise ConvergenceError(
            f"solution mass underflowed at u = {points[b]}, t = {times[b]}: the point is too far"
            " from the support for double precision"
        )
    sums = np.array(sums)
    log_mass = [peak + math.log(mass) for peak, mass in zip(shift, sums[:, 0].tolist())]
    return np.column_stack([log_mass, sums[:, 1:] / sums[:, :1]])


# ---------------------------------------------------------------------------
# semigroup application


def semigroup_solution(f: InitialDatum, kappa) -> SpaceTimeField:
    """log u for the solution u started from f, with space and time
    derivatives taken under the integral sign (they hit the kernel factors,
    which are known in closed form up to the tilted moments).  u is the
    product of the coordinates' masses I0, so log u is the sum of their logs
    and each derivative of log u is a moment ratio: nothing forms u itself,
    or any I0, which underflow long before their logs leave the double range.

    Each callable takes one point, or n points as an (n, d) array with a
    float or (n,) times, and raises ConvergenceError at a point where a
    coordinate's mass underflows.  One table per coordinate maps (t, x_i),
    -0.0 as 0.0, to its read-only row of moments: 4 floats per coordinate
    and distinct (t, x_i) asked of the field, freed with it.  A call reads
    each table once for all its points, and computes the distinct (t, x_i)
    missing from it in one _solution_moments batch per coordinate, which
    gives each integral the bits it gets alone; a batch that fails adds
    nothing to its table.  Sums over the coordinates are added left to right
    from 0.0, so a point's entry of an n-point call is the bits of its
    one-point call."""
    kappa = MultiplicityZ2.of(kappa)
    if f.dimension != kappa.d:
        raise DomainError(f"datum has {f.dimension} coordinates, multiplicity has {kappa.d}")
    tables = [{} for _ in range(kappa.d)]

    def moments(t, x) -> tuple[np.ndarray, bool]:
        """The (n, d, 4) rows of the points x, and whether x was one point."""
        x = _validate_point(x, kappa.d, batch=True)
        points = x.reshape(-1, kappa.d)
        times = np.broadcast_to(_validate_time(t, len(points)), len(points)).tolist()
        rows = []
        for i, table in enumerate(tables):
            keys = list(zip(times, points[:, i].tolist()))
            missing = [key for key in dict.fromkeys(keys) if key not in table]
            if missing:
                found = _solution_moments(*map(np.array, zip(*missing)), kappa.values[i], f.profiles[i])
                found.setflags(write=False)
                table.update(zip(missing, found))
            rows.append([table[key] for key in keys])
        return np.array(rows).reshape(kappa.d, len(points), 4).transpose(1, 0, 2), x.ndim == 1

    def read(combine):
        """A field callable; combine maps the (n, d, 4) rows to its values."""

        def at(t, x):
            rows, one = moments(t, x)
            value = combine(rows)
            if not one:
                return value
            return float(value[0]) if value.ndim == 1 else value[0]

        return at

    def squares(r1):
        # each square as the one-point call takes it, a float's power, which
        # differs from r1 * r1 and from numpy's array power in the last bit
        return np.array([v**2 for v in r1.ravel().tolist()]).reshape(r1.shape)

    return SpaceTimeField(
        log_value=read(lambda rows: _added(rows[..., 0].T)),
        log_gradient=read(lambda rows: rows[..., 1]),
        log_hessian_diag=read(lambda rows: rows[..., 2] - squares(rows[..., 1])),
        log_time_derivative=read(lambda rows: _added(rows[..., 3].T)),
    )


def liyau_for_solution(
    u: SpaceTimeField, t: float, x, kappa, tol: float = DEFAULT_TOLERANCE
) -> VerificationReport | list[VerificationReport]:
    """-L log u(t, x) <= (d + 2 lambda)/(2t) for the solution field u, with L
    applied as the generic difference operator to the time-t slice of log u,
    so nothing here reuses the per-coordinate moment analysis.

    x is one point, shape (d,), giving its report, or n points, shape (n, d),
    all at the one time t, giving a list of n reports, each the bits of its
    one-point call: one dunkl_laplacian call, which reads u with the points
    as given."""
    kappa = MultiplicityZ2.of(kappa)
    x = _validate_point(x, kappa.d, batch=True)
    t = _validate_time(t)
    if np.ndim(t):
        raise DomainError(f"expected one time, got times of shape {np.shape(t)}")
    slices = (u.log_value, u.log_gradient, u.log_hessian_diag)
    field = ScalarField(*(functools.partial(g, t) for g in slices))
    lhs = np.atleast_1d(-dunkl_laplacian(field, x, kappa))
    rhs = _liyau_bound(t, kappa)
    reports = [
        VerificationReport.build("liyau_solution", (t, tuple(point)), value, rhs, tol)
        for point, value in zip(np.atleast_2d(x).tolist(), lhs.tolist())
    ]
    return _one_or_all(x, reports)


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


def _identity_reports(claim_id, points, log_lhs, log_rhs, tolerance) -> list[VerificationReport]:
    """The reports of lhs = rhs at each point from the logs of both sides,
    compared in relative terms."""
    return [
        VerificationReport.build(
            claim_id, point, lhs=math.exp(a), rhs=math.exp(b), tolerance=tolerance, deficit=-abs(math.expm1(a - b))
        )
        for point, a, b in zip(points, log_lhs, log_rhs)
    ]


def normalization_check(
    t, x, kappa, *, convention: MeasureConvention = MARKOV_CONVENTION
) -> VerificationReport | list[VerificationReport]:
    """integral of p_t(x, .) against the measure equals 1.

    Under an alternative convention the kernel is renormalized accordingly
    (its own constant divided out, the candidate's put in) so the check
    measures the convention, not a mix.  x is one point, shape (d,), or n
    points, shape (n, d), at a float or (n,) times, giving one report each,
    the bits of a one-point call.  Each coordinate's integral is taken at
    |x_i|, once per call, so a sign flip of any coordinates gives the same bits.
    """
    kappa = MultiplicityZ2.of(kappa)
    x = _validate_point(x, kappa.d, batch=True)
    points = np.atleast_2d(x).tolist()
    times = _times(_validate_time(t, len(points)), len(points))
    keys = [
        [(ti, abs(xi), k, float(convention.weight_exponent(k))) for xi, k in zip(point, kappa.values)]
        for ti, point in zip(times, points)
    ]
    mass = _log_integrals((key for row in keys for key in row), _mass_integral)
    log_lhs = [
        _added(log_gaussian_mass(k) - convention.log_normalizer(k) + mass[ti, u, k, e] for ti, u, k, e in row)
        for row in keys
    ]
    grid = [(ti, tuple(point)) for ti, point in zip(times, points)]
    reports = _identity_reports("kernel_normalization", grid, log_lhs, [0.0] * len(grid), _NORMALIZATION_TOL)
    return _one_or_all(x, reports)


def chapman_kolmogorov_check(s, t, x, y, kappa) -> VerificationReport | list[VerificationReport]:
    """integral of p_s(x, z) p_t(z, y) dmu(z) equals p_(s+t)(x, y), compared
    in relative terms since the kernel value sets the only natural scale.
    x and y are one point each, shape (d,), or n points each, shape (n, d),
    at float or (n,) times, giving one report each, the bits of a one-point
    call.  Each coordinate's integral is taken once per call at one point of
    its orbit, so a sign flip of the same coordinates of x and y gives the
    same bits; the right-hand sides take one _coordinate call per axis."""
    kappa = MultiplicityZ2.of(kappa)
    given, y = _validate_points(kappa.d, x, y)
    x, y = np.atleast_2d(given, y)
    n = len(x)
    s, t = _validate_time(s, n), _validate_time(t, n)
    times = _times(s, n), _times(t, n)
    # each coordinate at the orbit's point with x_i > 0, or x_i = 0 and y_i >= 0
    keys = [
        [(si, ti, *((xi, yi) if (xi, yi) >= (0.0, 0.0) else (-xi, -yi)), k) for xi, yi, k in zip(p, q, kappa.values)]
        for si, ti, p, q in zip(*times, x.tolist(), y.tolist())
    ]
    logs = _log_integrals((key for row in keys for key in row), _ck_integral)
    log_lhs = [_added(logs[key] for key in row) for row in keys]
    total = _validate_time(s + t, n)
    # scalar float semantics, silently, as log_kernel takes one point
    with np.errstate(all="ignore"):
        log_rhs = _added(_coordinate(total, x[:, i], y[:, i], k).log_p for i, k in enumerate(kappa.values))
    grid = [(si, ti, tuple(p), tuple(q)) for si, ti, p, q in zip(*times, x.tolist(), y.tolist())]
    reports = _identity_reports("chapman_kolmogorov", grid, log_lhs, log_rhs.tolist(), _CHAPMAN_KOLMOGOROV_TOL)
    return _one_or_all(given, reports)


def heat_residual(t, x, y, kappa) -> float | np.ndarray:
    """Relative defect of d/dt p = L p at (t, x, y): the time derivative from
    the moment analysis against the generic difference operator applied to
    the kernel as a plain spatial field, scaled by p(x, y) throughout.

    x and y are one point each, shape (d,), giving a float, or n points
    each, shape (n, d), at a float or (n,) times, giving an (n,) array, each
    entry the bits of its one-point call.  The kernel's derivatives at x come
    from one _kernel_points batch; the Laplacian reads the field p(., y) /
    p(x, y), which is 1 at x, and at the images r_i x outside the hyperplane
    band it takes log p from one _coordinate call per axis, at the flipped
    coordinate, with the other axes' terms from the batch at x.  Where
    p(r_i x, y) / p(x, y) overflows math.exp raises OverflowError."""
    kappa = MultiplicityZ2.of(kappa)
    given, y = _validate_points(kappa.d, x, y)
    x, y = np.atleast_2d(given, y)
    t = _validate_time(t, len(x))
    ref = _kernel_points(t, x, y, kappa)

    def value(rows, axis):
        if axis is None:
            return 1.0
        terms = [log_p[rows] for log_p in ref.log_p_axes]
        with np.errstate(all="ignore"):
            at = t[rows] if np.ndim(t) else t
            terms[axis] = _coordinate(at, -x[rows, axis], y[rows, axis], kappa.values[axis]).log_p
        # math.exp, as one point takes it: numpy's exp differs in the last bit
        return [math.exp(v) for v in (_added(terms) - ref.log_p[rows]).tolist()]

    lap = _laplacian(x, kappa, ref.grad, ref.hess + ref.grad * ref.grad, value)
    scale = np.maximum(np.maximum(np.abs(ref.dt), np.abs(lap)), 1.0 / t)
    residuals = np.abs(ref.dt - lap) / scale
    return float(residuals[0]) if given.ndim == 1 else residuals
