"""Batch verification front-end.

Each subcommand sweeps one claim suite over a configurable grid and emits one
row per checked point, as JSON lines (canonical) or CSV (a fixed-column
projection of the same rows).  Every row carries claim_id, grid_point, lhs,
rhs, deficit, tol, pass, extra; the rows are in order of claim and grid point,
so output is deterministic for a fixed configuration and seed.  The two grid
suites (kernel-eval, liyau-scan) walk their (t, x, y) grid in that order, in
blocks of at most 256 rows, with no sort of the full row list; the other
suites sort their rows.  A kernel-eval block is one batched kernel
evaluation.  One renderer joins a row's column texts into its JSON or CSV
line.  liyau-scan builds and renders its blocks by array operations, from
texts rendered once per coordinate-table entry, grid point and time
(repr, which is how the JSON encoder writes a float); every other row takes
its texts from the JSON encoder.  The bytes are those of encoding each whole
row.  Each block's lines go to an anonymous temporary file (the spool) as
soon as it is built, so memory keeps a pass-flag byte per row and one block;
only after the last row is the output opened and the spool copied into it,
so a run that fails writes nothing.

Exit status: 0 when every row passes, 1 on any violation, 2 for
configuration errors (an --out path or a spool that cannot be written
included), 3 when quadrature fails to converge (an integration window lost
to rounding included), 4 when any other numerical failure (an overflow, a
moment ratio out of range, a Li-Yau term or sum past the float range, a
non-finite value that JSON cannot spell) stops a grid point; then nothing is
written.  For 3 and 4 the offending grid point is named on stderr.

The point checks run batched: each solution field's moments, the
solution-scan rows of each time, the harnack-scan tuples, the log-convexity
rows of claims-verify, and the normalization, Chapman-Kolmogorov and
heat-equation rows of semigroup-check are one call each over all their
points, with each point's bits.  A batch that fails is replayed point by
point through the same check, given one point at a time (`_batched`), so
the failure names the first point in loop order that stops, as a
point-by-point loop would.  The seeded suites draw all their points in one
call (`_draws`).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import functools
import itertools
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, TextIO

import numpy as np

from .inequalities import (
    VerificationReport,
    _f_values,
    _h_values,
    _liyau_bound,
    _liyau_terms,
    gradient_form_check,
    harnack_check,
    liyau_functional,
    log_convexity_check,
    log_convexity_midpoint_check,
    f_of_a,
    h_of_a,
)
from .kernel import _exp, _kernel_points, log_kernel_derivatives
from .operators import (
    PSI_CUBE,
    PSI_EXP,
    PSI_LOG,
    PSI_SQUARE,
    MultiplicityZ2,
    ScalarField,
    _added,
    _validate_point,
    _validate_time,
    chain_rule_residual,
    pi_psi,
)
from .quadrature import ConvergenceError, DomainError
from .semigroup import (
    InitialDatum,
    bump_profile,
    chapman_kolmogorov_check,
    heat_residual,
    liyau_for_solution,
    normalization_check,
    semigroup_solution,
    two_bump_profile,
)

__all__ = ["RunConfig", "main", "run"]

_COLUMNS = ("claim_id", "grid_point", "lhs", "rhs", "deficit", "tol", "pass", "extra")
_COMMANDS = (
    "kernel-eval",
    "liyau-scan",
    "solution-scan",
    "harnack-scan",
    "semigroup-check",
    "claims-verify",
    "report",
)
_DEFAULT_KAPPA = (0.5, 1.5)
_DEFAULT_T = (0.01, 0.1, 1.0, 10.0)
_DEFAULT_COORDS = (-3.0, -1.0, 0.0, 1.0, 3.0)
_EQUALITY_FLAG = 1e-8
# rows per Li-Yau block, which is summed, checked and rendered by array
# operations: more rows hold more at once (tracemalloc peak of a d=3 scan
# 0.56 MB at 256 rows, 1.74 MB at 1,024) for little more speed
_BLOCK_ROWS = 256
# one encoder for every JSON line and CSV column: json.dumps with separators
# builds a new JSONEncoder on each call.  NaN and Infinity are not JSON, so
# a row holding one fails to encode rather than printing them.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
# a csv writer whose writerow returns the rendered line: writerow hands back
# what its file's write returns
_CSV_LINE = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n")


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation."""

    command: str
    kappa: tuple[float, ...]
    t_grid: tuple[float, ...]
    coord_grid: tuple[float, ...]
    tol: float
    seed: int
    augment: int
    output_format: str
    output_path: str | None
    reproducible: bool

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise DomainError(f"unknown command {self.command!r}")
        MultiplicityZ2.of(self.kappa)  # validates length and values
        if not self.t_grid or not self.coord_grid:
            raise DomainError("time and coordinate grids must be nonempty")
        for t in self.t_grid:
            _validate_time(t)
        _validate_point(self.coord_grid, len(self.coord_grid))
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if self.augment < 0:
            raise DomainError(f"augment must be nonnegative, got {self.augment}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.output_format not in ("json-lines", "csv"):
            raise DomainError(f"unknown format {self.output_format!r}")

    @property
    def dimension(self) -> int:
        return len(self.kappa)

    @cached_property
    def points(self) -> tuple[tuple[float, ...], ...]:
        """The coordinate grid tensored to dimension d, built on first use."""
        return tuple(itertools.product(self.coord_grid, repeat=self.dimension))


# ---------------------------------------------------------------------------
# row assembly


class _Block(NamedTuple):
    """Consecutive rows of one claim, what run writes and the report tallies:
    a pass flag byte per row, the least deficit (the first of equal ones) and
    text(output_format), their lines, made only for a block that is written.
    A sorted suite's row is a block of its own, sorted by its grid point."""

    claim_id: str
    grid_point: tuple
    passed: bytes
    worst: float
    text: Callable[[str], str]


def _encoded_row(claim_id, grid_point, lhs, rhs, deficit, tol, passed, extra) -> _Block:
    """A row whose column texts come from the JSON encoder; a non-finite
    float, which JSON cannot spell, fails at the row's grid point."""
    values = (grid_point, lhs, rhs, deficit, tol, extra)

    def text(output_format: str) -> str:
        try:
            texts = tuple(map(_COMPACT_JSON.encode, values))
        except ValueError as e:
            raise _failure(e, grid_point) from e
        return _render(claim_id, passed, texts, output_format)

    return _Block(claim_id, tuple(grid_point), bytes((passed,)), deficit, text)


def _row(report: VerificationReport, extra: dict | None = None) -> _Block:
    return _encoded_row(
        report.claim_id,
        report.grid_point,
        report.lhs,
        report.rhs,
        report.deficit,
        report.tolerance,
        report.passed,
        extra or {},
    )


def _plain(value):
    """Tuples and arrays to lists, numpy scalars to floats: grid points as
    messages print them."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return [v if type(v) is float else _plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _sort_key(row: _Block):
    # the grid points of one claim share one shape, so they compare as tuples
    return (row.claim_id, row.grid_point)


class _NumericalFailure(Exception):
    """A grid point stopped by a numerical failure other than convergence."""


def _failure(error: Exception, point) -> _NumericalFailure:
    return _NumericalFailure(f"{type(error).__name__}: {error} [grid point {_plain(point)}]")


def _at_point(point, fn):
    try:
        return fn()
    except ConvergenceError as e:
        raise ConvergenceError(f"{e} [grid point {_plain(point)}]") from e
    except (ArithmeticError, RuntimeError) as e:
        raise _failure(e, point) from e


def _report_at(claim_id, point, **fields) -> VerificationReport:
    """VerificationReport.build, a non-finite field failing at its grid point."""
    return _at_point(point, lambda: VerificationReport.build(claim_id, point, **fields))


# ---------------------------------------------------------------------------
# suites


def _value_groups(values) -> list[list[int]]:
    """The indices of values grouped by equal value (-0.0 with 0.0), groups in
    ascending order of value, indices ascending within a group."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return [list(group) for _, group in itertools.groupby(order, key=values.__getitem__)]


def _grid_walk(cfg: RunConfig) -> Iterator[tuple[float, Iterator[tuple[int, int]]]]:
    """The (t, x, y) product grid in output order: one (t, index pairs) per
    group of equal times, where each pair (ix, iy) of indices into cfg.points
    is one row.

    Output order is a stable sort by (t, x, y) values of the generation order
    (t position, x index, y index), so rows of equal values keep their index
    order.  The walk nests: t value, x value, y value, then t position, x
    index, y index.  Sorting the indices alone would break ties in the wrong
    places.
    """
    groups = _value_groups(cfg.points)
    for times in _value_groups(cfg.t_grid):
        pairs = (pair for xs in groups for ys in groups for _ in times for pair in itertools.product(xs, ys))
        yield cfg.t_grid[times[0]], pairs


def _kernel_eval(cfg: RunConfig) -> Iterator[_Block]:
    """Grid rows in output order, one _kernel_points batch per block of at most
    _BLOCK_ROWS pairs; a failing block is replayed to name its first point that stops."""
    kappa = MultiplicityZ2.of(cfg.kappa)
    points = [tuple(map(float, point)) for point in cfg.points]
    coords = np.array(points).reshape(-1, kappa.d)
    for t, pairs in _grid_walk(cfg):
        while block := list(itertools.islice(pairs, _BLOCK_ROWS)):
            ix, iy = np.array(block).T
            grid = [(t, points[i], points[j]) for i, j in block]
            evaluate = functools.partial(_kernel_points, t, coords[ix], coords[iy], kappa)
            kp = _batched(evaluate, grid, lambda *point: log_kernel_derivatives(*point, kappa))
            for point, log_p, grad, hess, dt in zip(grid, *(column.tolist() for column in kp[1:])):
                p = _exp(log_p)
                p = p if math.isfinite(p) else None
                report = _report_at("kernel_point", point, lhs=log_p, rhs=log_p, tolerance=cfg.tol)
                yield _row(report, {"p": p, "grad_x_log_p": grad, "hess_diag_x_log_p": hess, "dt_log_p": dt})


def _axis_terms(a, variance_term, f_value, j_value, i_value, deficit) -> tuple:
    """Coordinate terms, one sequence per LiYauCoordinate field, as Li-Yau
    blocks read them: i_value and deficit as float arrays, and per term a row
    of the JSON text of its a, variance_term, f_value and i_value."""
    texts = [list(map(repr, column)) for column in (a, variance_term, f_value, i_value)]
    return np.array(i_value, dtype=float), np.array(deficit, dtype=float), np.array(texts, dtype=object).T


def _liyau_block(axes, bound, texts, point, tol: float) -> _Block:
    """Li-Yau rows from the _axis_terms of each axis, one entry per row.
    bound is the rhs, and texts the JSON text of t, x, y (inside their
    brackets) and the rhs, each one for the block or one per row; point(r)
    is row r's grid point, named if the row fails."""
    # LiYauDecomposition's total and deficit, a sum past the float range
    # going to inf as in float arithmetic
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = -_added(i_value for i_value, _, _ in axes)
        deficit = _added(d_value for _, d_value, _ in axes)
    finite = np.isfinite(np.broadcast_arrays(lhs, bound, deficit))
    if not finite.all():
        r = int(finite.all(axis=0).argmin())
        name = ("lhs", "rhs", "deficit")[int(finite[:, r].argmin())]
        raise _failure(FloatingPointError(f"Li-Yau {name} is not finite"), point(r))
    passed = deficit >= -tol
    deficits = deficit.tolist()

    def text(output_format: str) -> str:
        # each line is that of a row of placeholders, split at them, with
        # the row's texts in between
        d = len(axes)
        axes_text = ",".join(["%s"] * d)
        terms = ",".join(f'"{name}":[{axes_text}]' for name in ("a", "variance_term", "f_value", "i_value"))
        placeholders = ("[%s,[%s],[%s]]", "%s", "%s", "%s", repr(tol), f'{{"equality":%s,{terms}}}')
        lines = [_render("liyau_log_kernel", ok, placeholders, output_format).split("%s") for ok in (0, 1)]
        pieces = np.empty((len(deficits), 2 * len(lines[0]) - 1), dtype=object)
        pieces[:, ::2] = np.array(lines, dtype=object)[passed.view(np.int8)]
        at = pieces[:, 1::2]
        # t, x, y, lhs, rhs, deficit, equality, then the terms of each axis
        at[:, 0], at[:, 1], at[:, 2], at[:, 4] = texts
        at[:, 3], at[:, 5] = list(map(repr, lhs.tolist())), list(map(repr, deficits))
        at[:, 6] = np.where(deficit <= _EQUALITY_FLAG, "true", "false")
        for i, (_, _, term_texts) in enumerate(axes):
            at[:, 7 + i :: d] = term_texts
        return "".join(pieces.ravel().tolist())

    return _Block("liyau_log_kernel", (), passed.tobytes(), min(deficits), text)


def _liyau_scan(cfg: RunConfig) -> Iterator[_Block]:
    """Grid rows in output order, each --augment row placed after the grid
    rows of lesser or equal (t, x, y), as a stable sort would.  The augment
    points are sorted, then evaluated first, in one batch per axis; a failure
    names the first in draw order."""
    kappa = MultiplicityZ2.of(cfg.kappa)
    groups = [(-2.0, 2.0, 1), (-10.0, 10.0, cfg.dimension), (-10.0, 10.0, cfg.dimension)]
    points = [(10.0**e, x, y) for (e,), x, y in _draws(cfg.seed, cfg.augment, groups)]
    order = sorted(points)
    ts = np.array([point[0] for point in order])
    xs, ys = (np.array([point[i] for point in order]).reshape(-1, kappa.d) for i in (1, 2))
    # the terms at every point now, in one batch per axis; their texts a
    # block at a time
    augment_terms = _batched(
        lambda: [_liyau_terms(ts, xs[:, i], ys[:, i], k) for i, k in enumerate(kappa.values)],
        points,
        lambda *point: liyau_functional(*point, kappa),
    )
    bounds = _liyau_bound(ts, kappa)

    def augment(lo: int, hi: int) -> Iterator[_Block]:
        for start in range(lo, hi, _BLOCK_ROWS):
            rows = slice(start, min(start + _BLOCK_ROWS, hi))
            axes = [_axis_terms(*(column[rows] for column in axis)) for axis in augment_terms]
            texts = [[repr(t), ",".join(map(repr, x)), ",".join(map(repr, y))] for t, x, y in order[rows]]
            texts = (*zip(*texts), list(map(repr, bounds[rows].tolist())))
            yield _liyau_block(axes, bounds[rows], texts, order[start:].__getitem__, cfg.tol)

    # the grid rows before each augment row, counted from the sorted grid
    # values rather than keyed one by one; inf after the last
    times, grid = sorted(cfg.t_grid), sorted(cfg.points)
    n = len(grid)
    cuts = []
    for t, x, y in order:
        earlier, later = bisect.bisect_left(times, t), bisect.bisect_right(times, t)
        below, upto = bisect.bisect_left(grid, x), bisect.bisect_right(grid, x)
        before = below * n + (upto - below) * bisect.bisect_right(grid, y)
        cuts.append(earlier * n * n + (later - earlier) * before)
    cuts.append(math.inf)
    coords = np.array(cfg.coord_grid, dtype=float)
    m, shape = len(coords), (len(coords),) * cfg.dimension
    # each grid point's JSON text inside the brackets
    point_texts = np.array([",".join(map(repr, point)) for point in cfg.points], dtype=object)
    placed = done = 0  # augment rows and grid rows yielded
    for t, pairs in _grid_walk(cfg):
        # per kappa_i, the terms at every (x_i, y_i), flat index x_i m + y_i
        tables = _batched(
            lambda: {
                k: _axis_terms(*_liyau_terms(np.full(m * m, t), np.repeat(coords, m), np.tile(coords, m), k))
                for k in dict.fromkeys(kappa.values)
            },
            ((t, x, y) for x, y in itertools.product(cfg.points, repeat=2)),
            lambda t, x, y: liyau_functional(t, x, y, kappa),
        )
        bound = _liyau_bound(t, kappa)
        while True:
            end = bisect.bisect_right(cuts, done, placed)
            yield from augment(placed, end)
            placed = end
            block = list(itertools.islice(pairs, min(_BLOCK_ROWS, cuts[placed] - done)))
            if not block:
                break
            done += len(block)
            x, y = np.array(block).T
            # axis i reads its table's entry (x_i, y_i), flat x_i m + y_i
            axes = [
                tuple(column[u * m + v] for column in tables[k])
                for k, u, v in zip(kappa.values, np.unravel_index(x, shape), np.unravel_index(y, shape))
            ]
            texts = (repr(t), point_texts[x], point_texts[y], repr(bound))
            point = lambda r: (t, cfg.points[x[r]], cfg.points[y[r]])  # noqa: E731
            yield _liyau_block(axes, bound, texts, point, cfg.tol)
    yield from augment(placed, len(order))


def _batched(evaluate, points, check):
    """evaluate(), a batched evaluation at points.  If it fails, go through
    the points one by one, check(*point) each, to name the first that stops;
    the batch's own error is raised only if none does."""
    try:
        return evaluate()
    except (ArithmeticError, RuntimeError):
        for point in points:
            _at_point(point, lambda: check(*point))
        raise


def _draws(seed, count: int, groups) -> Iterator[tuple]:
    """count rows of seeded uniform draws, each one tuple of width floats
    between low and high per (low, high, width) group, from one
    Generator.uniform call: the floats of one scalar draw per row and column,
    row after row, low + (high - low) U as numpy forms them.  No draws make
    no generator, which would import numpy.random (about 5 MB)."""
    if not count:
        return iter(())
    bounds = [(low, high) for low, high, width in groups for _ in range(width)]
    columns = np.random.default_rng(seed).uniform(0.0, 1.0, (count, len(bounds))).T.tolist()
    columns = iter([low + (high - low) * u for u in column] for (low, high), column in zip(bounds, columns))
    return zip(*(zip(*itertools.islice(columns, width)) for *_, width in groups))


def _initial_data(d: int) -> dict[str, InitialDatum]:
    tail = [bump_profile(0.5, 1.0, power=3) for _ in range(d - 1)]
    return {
        "bump": InitialDatum.bumps([0.0] * d, [1.5], power=3),
        "offset_bump": InitialDatum.bumps([0.8 * (-1.0) ** i for i in range(d)], [1.2], power=3),
        "two_bump": InitialDatum((two_bump_profile(-2.0, 2.0, 0.8, power=3), *tail)),
    }


def _solution_scan(cfg: RunConfig) -> list[_Block]:
    """Li-Yau and gradient-form rows of each datum's solution, from one field
    per datum, filled by one read at every grid point first; per time, one
    call of each check over the grid, and a failure names the first grid
    point in loop order that stops."""
    rows = []
    kappa = MultiplicityZ2.of(cfg.kappa)
    points = np.array(cfg.points, dtype=float)
    grid = [(t, x) for t in cfg.t_grid for x in cfg.points]
    times, grid_points = (np.array(column, dtype=float) for column in zip(*grid))
    for name, datum in _initial_data(cfg.dimension).items():
        field = semigroup_solution(datum, cfg.kappa)

        def liyau(t, x):
            return liyau_for_solution(field, t, x, kappa, tol=cfg.tol)

        _batched(lambda: field.log_value(times, grid_points), grid, liyau)
        for t in cfg.t_grid:
            beta = _liyau_bound(t, kappa)

            def checks(t, x):
                return liyau(t, x), gradient_form_check(field, t, x, beta, tol=cfg.tol)

            reports = _batched(lambda: checks(t, points), [(t, x) for x in cfg.points], checks)
            rows.extend(_row(report, extra={"datum": name}) for report in reports[0])
            rows.extend(_row(report, extra={"datum": name, "beta": beta}) for report in reports[1])
    return sorted(rows, key=_sort_key)


def _harnack_scan(cfg: RunConfig) -> list[_Block]:
    """Rows for random (s, x, t, y), from one field filled by one read at
    every (s, x) and (t, y) first, and one check of every tuple; a failure
    names the first tuple in draw order that stops."""
    count = cfg.augment if cfg.augment else 200
    datum = _initial_data(cfg.dimension)["bump"]
    lam = MultiplicityZ2.of(cfg.kappa).lambda_total
    groups = [(-1.0, 0.3, 1), (1.05, 8.0, 1), (-2.5, 2.5, cfg.dimension), (-2.5, 2.5, cfg.dimension)]
    points = [(10.0**e, x, 10.0**e * r, y) for (e,), (r,), x, y in _draws(cfg.seed, count, groups)]
    field = semigroup_solution(datum, cfg.kappa)

    def check(s, x, t, y):
        return harnack_check(field, s, x, t, y, lambda_kappa=lam, d=cfg.dimension, tol=cfg.tol)

    s, x, t, y = (np.array(column, dtype=float) for column in zip(*points))
    _batched(lambda: field.log_value(np.concatenate([s, t]), np.concatenate([x, y])), points, check)
    reports = _batched(lambda: check(s, x, t, y), points, check)
    return sorted((_row(report, extra={"datum": "bump"}) for report in reports), key=_sort_key)


def _time_pairs(t_grid):
    pairs = [(t, t) for t in t_grid]
    pairs.extend(zip(t_grid[:-1], t_grid[1:]))
    return pairs


def _semigroup_check(cfg: RunConfig) -> list[_Block]:
    """One call of each check over all its points: normalization and
    heat-equation rows at every time, Chapman-Kolmogorov rows at (x, x) and
    (x, -x) for every time pair.  A failure names the first point in loop
    order that stops."""

    def batched(check, points):
        at = functools.partial(check, kappa=cfg.kappa)
        columns = [np.array(column, dtype=float) for column in zip(*points)]
        return _batched(lambda: at(*columns), points, at)

    rows = list(map(_row, batched(normalization_check, [(t, x) for t in cfg.t_grid for x in cfg.points])))
    grid_pairs = [(x, y) for x in cfg.points for y in (x, tuple(-v for v in x))]
    pairs = [(*times, *pair) for times in _time_pairs(cfg.t_grid) for pair in grid_pairs]
    rows.extend(map(_row, batched(chapman_kolmogorov_check, pairs)))
    points = [(t, x, y) for t in cfg.t_grid for x, y in zip(cfg.points, reversed(cfg.points))]
    for point, residual in zip(points, batched(heat_residual, points).tolist()):
        on_hyperplane = any(v == 0.0 for v in point[1])
        bound = 1e-6 if on_hyperplane else 1e-7
        report = _report_at("heat_equation", point, lhs=residual, rhs=bound, tolerance=0.0)
        rows.append(_row(report, extra={"hyperplane": on_hyperplane}))
    return sorted(rows, key=_sort_key)


def _claim_fields(d: int):
    """Built-in scalar fields for the chain-rule and reflection-term rows:
    positive everywhere so every psi in the corpus applies, and two of the
    three are not reflection-invariant."""
    c = np.array([0.3 * (-1.0) ** i for i in range(d)])

    def exponential():
        return ScalarField(
            value=lambda x: math.exp(float(c @ x)),
            gradient=lambda x: math.exp(float(c @ x)) * c,
            hessian_diag=lambda x: math.exp(float(c @ x)) * c * c,
        )

    shift = 0.2

    def shifted_square():
        return ScalarField(
            value=lambda x: 5.0 + float(((np.asarray(x) - shift) ** 2).sum()),
            gradient=lambda x: 2.0 * (np.asarray(x, dtype=float) - shift),
            hessian_diag=lambda x: np.full(d, 2.0),
        )

    def gaussian():
        return ScalarField(
            value=lambda x: math.exp(-0.5 * float(np.asarray(x) @ np.asarray(x))),
            gradient=lambda x: -math.exp(-0.5 * float(np.asarray(x) @ np.asarray(x)))
            * np.asarray(x, dtype=float),
            hessian_diag=lambda x: math.exp(-0.5 * float(np.asarray(x) @ np.asarray(x)))
            * (np.asarray(x, dtype=float) ** 2 - 1.0),
        )

    return {"exponential": exponential(), "shifted_square": shifted_square(), "gaussian": gaussian()}


def _claims_verify(cfg: RunConfig) -> list[_Block]:
    rows = []
    kappa_values = sorted(set(cfg.kappa) - {0.0}) or [0.5]

    for k in kappa_values:
        tilts = np.linspace(-200.0, 200.0, 41)
        points = [(a, k) for a in tilts.tolist()]
        f = _batched(lambda: _f_values(tilts, k), points, f_of_a)[0]
        for point, value in zip(points, f.tolist()):
            rows.append(_row(_report_at("f_nonneg", point, lhs=0.0, rhs=value, tolerance=1e-10)))
        grid = np.linspace(-5.0, 5.0, 101)
        a = grid.tolist()
        h = _batched(lambda: _h_values(grid, k), [(b, k) for b in a], h_of_a).tolist()
        # h at the mirror tilts -b of the b >= 0, named by b as their rows are
        nonneg = grid[grid >= 0.0]
        points = [(b, k) for b in nonneg.tolist()]
        mirror = _batched(lambda: _h_values(-nonneg, k), points, lambda b, k: h_of_a(-b, k))
        for point, h_b, h_minus_b in zip(points, h[-len(points) :], mirror.tolist()):
            gap = abs(h_b + h_minus_b)
            report = _report_at("h_antisymmetric", point, lhs=gap, rhs=0.0, tolerance=1e-10, deficit=-gap)
            rows.append(_row(report))
        for point, lhs, rhs in zip(zip(a, a[1:], itertools.repeat(k)), h, h[1:]):
            rows.append(_row(_report_at("h_monotone", point, lhs=lhs, rhs=rhs, tolerance=1e-12)))

    eval_points = [
        tuple(0.7 * (-1.0) ** i for i in range(cfg.dimension)),
        (0.0,) + tuple(1.1 for _ in range(cfg.dimension - 1)),
    ]
    for name, field in _claim_fields(cfg.dimension).items():
        for x in eval_points:
            value = _at_point((name, x), lambda: pi_psi(field, PSI_LOG, x, cfg.kappa))
            rows.append(_row(_report_at("pi_log_sign", (name, x), lhs=value, rhs=0.0, tolerance=1e-12)))
            for psi in (PSI_LOG, PSI_EXP, PSI_SQUARE, PSI_CUBE):
                point = (name, psi.name, x)
                res = _at_point(point, lambda: chain_rule_residual(field, psi, x, cfg.kappa))
                normalized = abs(res.lhs - res.rhs) / res.scale
                report = _report_at("chain_rule", point, lhs=normalized, rhs=1e-8, tolerance=0.0)
                rows.append(_row(report, extra={"scale": res.scale}))

    # log-convexity at random draws, each claim one batch over all of them;
    # a failure names the first row in draw order that stops, a draw's
    # diagonal row (t, x, y) before its midpoint row (t, z1, z2, y)
    groups = [(-1.0, 1.0, 1)] + [(-5.0, 5.0, cfg.dimension)] * 4
    draws = [(10.0**e, *points) for (e,), *points in _draws(cfg.seed, cfg.augment if cfg.augment else 50, groups)]
    t, x, y, z1, z2 = (np.array(column, dtype=float) for column in zip(*draws))

    def check(t, *points):
        if len(points) == 2:
            return log_convexity_check(t, *points, cfg.kappa, tol=cfg.tol)
        return log_convexity_midpoint_check(t, *points, cfg.kappa, tol=cfg.tol)

    reports = _batched(
        lambda: check(t, x, y) + check(t, z1, z2, y),
        [point for t, x, y, z1, z2 in draws for point in ((t, x, y), (t, z1, z2, y))],
        check,
    )
    rows.extend(map(_row, reports))
    return sorted(rows, key=_sort_key)


_SUITES = {
    "kernel-eval": _kernel_eval,
    "liyau-scan": _liyau_scan,
    "solution-scan": _solution_scan,
    "harnack-scan": _harnack_scan,
    "semigroup-check": _semigroup_check,
    "claims-verify": _claims_verify,
}


def _report(cfg: RunConfig) -> list[_Block]:
    """Aggregate every claim suite into one summary row per claim."""
    tallies: dict[str, list] = {}  # claim_id -> [rows, failures, worst deficit]
    for command in ("liyau-scan", "solution-scan", "harnack-scan", "semigroup-check", "claims-verify"):
        for block in _SUITES[command](cfg):
            tally = tallies.setdefault(block.claim_id, [0, 0, math.inf])
            tally[0] += len(block.passed)
            tally[1] += block.passed.count(0)
            tally[2] = min(tally[2], block.worst)
    rows = [
        _encoded_row(
            claim_id,
            ("summary",),
            float(failures),
            0.0,
            worst,
            0.0,
            failures == 0,
            {"rows": count, "failures": failures, "worst_deficit": worst},
        )
        for claim_id, (count, failures, worst) in tallies.items()
    ]
    return sorted(rows, key=_sort_key)


def run(config: RunConfig, spool: TextIO) -> bytearray:
    """Execute the configured suite, writing each block's output lines to
    spool as soon as the block is built, in output order.  Returns one pass
    flag per row, a byte each: all that this keeps per row."""
    suite = _report if config.command == "report" else _SUITES[config.command]
    write = spool.write
    passed = bytearray()
    for block in suite(config):
        write(block.text(config.output_format))
        passed += block.passed
    return passed


# ---------------------------------------------------------------------------
# output


def _meta_line(cfg: RunConfig) -> dict:
    meta = {
        "command": cfg.command,
        "kappa": list(cfg.kappa),
        "t_grid": list(cfg.t_grid),
        "coord_grid": list(cfg.coord_grid),
        "tol": cfg.tol,
        "seed": cfg.seed,
        "columns": list(_COLUMNS),
    }
    if not cfg.reproducible:
        meta["generated"] = datetime.now(timezone.utc).isoformat()
    return meta


def _header(cfg: RunConfig) -> str:
    """The meta line, and for CSV the column line, that open the output."""
    if cfg.output_format == "json-lines":
        return _COMPACT_JSON.encode({"meta": _meta_line(cfg)}) + "\n"
    return "# " + _COMPACT_JSON.encode(_meta_line(cfg)) + "\n" + _CSV_LINE.writerow(_COLUMNS)


def _render(claim_id: str, passed: bool, texts: tuple, output_format: str) -> str:
    """The one renderer: a row's output line, newline included, for every
    suite and both formats, from the JSON text of its grid_point, lhs, rhs,
    deficit, tol and extra."""
    grid_point, lhs, rhs, deficit, tol, extra = texts
    if output_format == "json-lines":
        # claim ids are plain identifiers, which JSON quotes as they are
        passed = "true" if passed else "false"
        return (
            f'{{"claim_id":"{claim_id}","grid_point":{grid_point},"lhs":{lhs},"rhs":{rhs},'
            f'"deficit":{deficit},"tol":{tol},"pass":{passed},"extra":{extra}}}\n'
        )
    passed = "pass" if passed else "fail"
    return _CSV_LINE.writerow((claim_id, grid_point, lhs, rhs, deficit, tol, passed, extra))


def _emit(header: str, spool: TextIO, cfg: RunConfig) -> None:
    """Open the target, stdout or --out, only now that every row is in the
    spool; write the header, then copy the spool out from its start in
    chunks, so the output is never held whole."""
    if cfg.output_path is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(cfg.output_path, "w", encoding="utf-8")
    with target as handle:
        handle.write(header)
        spool.seek(0)
        shutil.copyfileobj(spool, handle)


# ---------------------------------------------------------------------------
# argument parsing


_LIST_FLAGS = ("--kappa", "--t", "--coords")


def _join_list_flags(argv: list[str]) -> list[str]:
    """argparse reads a leading dash as a new option, so value lists that
    start with a negative number (--coords -3,-1,0) only parse in the
    --flag=value form; splice the = in so both spellings work."""
    out = []
    queue = list(argv)
    while queue:
        token = queue.pop(0)
        if token in _LIST_FLAGS and queue:
            out.append(f"{token}={queue.pop(0)}")
        else:
            out.append(token)
    return out


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}") from e
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dunklheat",
        description="Verify heat-kernel inequalities for the reflection group Z_2^d over grids.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--kappa",
        type=_float_list,
        default=_DEFAULT_KAPPA,
        help="comma-separated multiplicities, one per coordinate (default 0.5,1.5)",
    )
    common.add_argument(
        "--t",
        dest="t_grid",
        type=_float_list,
        default=_DEFAULT_T,
        help="comma-separated times (default 0.01,0.1,1,10)",
    )
    common.add_argument(
        "--coords",
        dest="coord_grid",
        type=_float_list,
        default=_DEFAULT_COORDS,
        help="comma-separated coordinate values, tensored to dimension d (default -3,-1,0,1,3)",
    )
    common.add_argument("--tol", type=float, default=1e-9, help="pass tolerance (default 1e-9)")
    common.add_argument(
        "--seed", type=int, default=7, help="seed for randomized grid augmentation (default 7)"
    )
    common.add_argument(
        "--augment",
        type=int,
        default=0,
        help="number of random grid points to add (0 keeps suite defaults)",
    )
    common.add_argument(
        "--format",
        dest="output_format",
        choices=("json-lines", "csv"),
        default="json-lines",
        help="output format (default json-lines)",
    )
    common.add_argument("--out", dest="output_path", default=None, help="output file (default stdout)")
    common.add_argument(
        "--reproducible",
        action="store_true",
        help="suppress the generated-at timestamp so output is byte-stable",
    )
    descriptions = {
        "kernel-eval": "print the kernel, its log, and all derivatives at grid points",
        "liyau-scan": "sweep the log-kernel bound and emit per-coordinate decompositions",
        "solution-scan": "verify the bound and gradient form for semigroup solutions",
        "harnack-scan": "verify the two-point Harnack comparison on random tuples",
        "semigroup-check": "verify normalization, the semigroup law, and the heat equation",
        "claims-verify": "verify the scalar ingredient claims behind the main bound",
        "report": "run every claim suite and aggregate pass/fail counts",
    }
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        subparsers.add_parser(name, parents=[common], help=descriptions[name])
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_join_list_flags(list(argv)))
    # what an OSError failed to write: the spool until the run is done
    target = "temporary file"
    try:
        config = RunConfig(**vars(args))
        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            passed = run(config, spool)
            # flush the spool, so that a full disk stops the run here
            spool.flush()
            target = config.output_path or "stdout"
            _emit(_header(config), spool, config)
    except DomainError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"convergence failure: {e}", file=sys.stderr)
        return 3
    except _NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"configuration error: cannot write {target}: {e.strerror or e}", file=sys.stderr)
        return 2
    return 0 if all(passed) else 1


if __name__ == "__main__":
    sys.exit(main())
