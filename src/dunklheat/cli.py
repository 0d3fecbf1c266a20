"""Batch verification front-end.

Each subcommand sweeps one claim suite over a configurable grid and emits one
row per checked point, as JSON lines (canonical) or CSV (a fixed-column
projection of the same rows).  Every row carries claim_id, grid_point, lhs,
rhs, deficit, tol, pass, extra; the rows are in order of claim and grid point,
so output is deterministic for a fixed configuration and seed.  The two grid
suites (kernel-eval, liyau-scan) walk their (t, x, y) grid in that order and
render each row as soon as it is built, with no sort of the full row list;
the other suites sort their rows.  One renderer joins a row's column texts
into its JSON or CSV line.  Li-Yau rows join texts rendered once per
coordinate-table entry, coordinate value and time (repr, which is how the
JSON encoder writes a float), so a row renders only its lhs and deficit;
every other row takes its texts from the JSON encoder.  The bytes are those
of encoding each whole row.  All rows are built before the first write, and
the lines are then written one by one, never joined into one text.

Exit status: 0 when every row passes, 1 on any violation, 2 for
configuration errors (an --out path that cannot be written included), 3
when quadrature fails to converge (an integration window lost to rounding
included), 4 when any other numerical failure (an overflow, a moment ratio
out of range, a Li-Yau term or sum past the float range, a non-finite value that
JSON cannot spell) stops a grid point; then nothing is written.  For 3 and 4 the offending grid point is
named on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import heapq
import itertools
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .inequalities import (
    LiYauCoordinate,
    LiYauDecomposition,
    VerificationReport,
    _liyau_bound,
    gradient_form_check,
    harnack_check,
    iter_liyau_points,
    liyau_coordinate_table,
    liyau_functional,
    log_convexity_check,
    log_convexity_midpoint_check,
    f_of_a,
    h_of_a,
)
from .kernel import log_kernel_derivatives
from .operators import (
    PSI_CUBE,
    PSI_EXP,
    PSI_LOG,
    PSI_SQUARE,
    MultiplicityZ2,
    ScalarField,
    _validate_point,
    _validate_time,
    chain_rule_residual,
    pi_psi,
)
from .quadrature import ConvergenceError, DomainError
from .semigroup import (
    InitialDatum,
    _solution_field,
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


class _Row(NamedTuple):
    """One output row: what the merge, the sort and the report tally read,
    and texts(), the JSON text of the grid_point, lhs, rhs, deficit, tol and
    extra columns, which _render joins into a JSON or CSV line.  The texts
    are made only for a row that is written: report tallies rows unwritten."""

    claim_id: str
    grid_point: tuple
    passed: bool
    deficit: float
    texts: Callable[[], tuple[str, str, str, str, str, str]]


def _encoded_row(claim_id, grid_point, lhs, rhs, deficit, tol, passed, extra) -> _Row:
    """A row whose column texts come from the JSON encoder; a non-finite
    float, which JSON cannot spell, fails at the row's grid point."""
    values = (grid_point, lhs, rhs, deficit, tol, extra)

    def texts():
        try:
            return tuple(map(_COMPACT_JSON.encode, values))
        except ValueError as e:
            raise _failure(e, grid_point) from e

    return _Row(claim_id, tuple(grid_point), passed, deficit, texts)


def _row(report: VerificationReport, extra: dict | None = None) -> _Row:
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
    """Tuples and arrays to lists, numpy scalars to floats: kernel-eval's
    derivative arrays as JSON lists, and grid points as messages print them."""
    if isinstance(value, (tuple, list, np.ndarray)):
        return [v if type(v) is float else _plain(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _sort_key(row: _Row):
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


def _grid_walk(cfg: RunConfig) -> Iterator[tuple[float, Iterator]]:
    """The (t, x, y) product grid in output order: one (t, index pairs) per
    group of equal times, where each pair (ix, iy) of index tuples into the
    coordinate grid is one row.

    Output order is a stable sort by (t, x, y) values of the generation order
    (t position, x index tuple, y index tuple), so rows of equal values keep
    their index order.  The walk nests: t value, x values, y values, then t
    position, x index tuple, y index tuple.  Sorting the indices alone would
    break ties in the wrong places.
    """
    blocks = [
        list(itertools.product(*groups))
        for groups in itertools.product(_value_groups(cfg.coord_grid), repeat=cfg.dimension)
    ]
    for times in _value_groups(cfg.t_grid):
        pairs = (
            pair for xs in blocks for ys in blocks for _ in times for pair in itertools.product(xs, ys)
        )
        yield cfg.t_grid[times[0]], pairs


def _kernel_eval(cfg: RunConfig) -> Iterator[_Row]:
    coords = tuple(float(c) for c in cfg.coord_grid)
    for t, pairs in _grid_walk(cfg):
        for ix, iy in pairs:
            x = tuple(map(coords.__getitem__, ix))
            y = tuple(map(coords.__getitem__, iy))
            point = (t, x, y)
            kp = _at_point(point, lambda: log_kernel_derivatives(t, x, y, cfg.kappa))
            p = kp.p if math.isfinite(kp.p) else None
            report = _report_at("kernel_point", point, lhs=kp.log_p, rhs=kp.log_p, tolerance=cfg.tol)
            yield _row(
                report,
                extra={
                    "p": p,
                    "grad_x_log_p": _plain(kp.grad_x_log_p),
                    "hess_diag_x_log_p": _plain(kp.hess_diag_x_log_p),
                    "dt_log_p": kp.dt_log_p,
                },
            )


def _term_texts(c: LiYauCoordinate) -> tuple:
    """A coordinate term as Li-Yau rows read it: the two floats a row sums,
    then the JSON text of its a, variance_term, f_value and i_value."""
    return c.i_value, c.deficit, repr(c.a), repr(c.variance_term), repr(c.f_value), repr(c.i_value)


def _liyau_rows(t: float, cfg: RunConfig):
    """The Li-Yau row builder at time t: row(x, y, x_text, y_text, terms)
    with terms[i] the _term_texts of axis i.  The texts of t, the bound
    and tol are rendered here, once."""
    bound = _liyau_bound(t, MultiplicityZ2.of(cfg.kappa))
    t_text, bound_text, tol, tol_text = repr(t), repr(bound), cfg.tol, repr(cfg.tol)
    isfinite = math.isfinite
    bound_finite = isfinite(bound)

    def row(x, y, x_text, y_text, terms) -> _Row:
        i_values, deficits, a, variance, f, i = zip(*terms)
        # LiYauDecomposition's total and deficit: the same sums, in axis order
        lhs = -sum(i_values)
        deficit = sum(deficits)
        point = (t, x, y)
        if not (isfinite(lhs) and bound_finite and isfinite(deficit)):
            for name, value in (("lhs", lhs), ("rhs", bound), ("deficit", deficit)):
                if not isfinite(value):
                    error = FloatingPointError(f"Li-Yau {name} is not finite")
                    raise _failure(error, point)

        def texts():
            equality = "true" if deficit <= _EQUALITY_FLAG else "false"
            extra = (
                f'{{"equality":{equality},"a":[{",".join(a)}],"variance_term":[{",".join(variance)}],'
                f'"f_value":[{",".join(f)}],"i_value":[{",".join(i)}]}}'
            )
            point_text = f"[{t_text},[{x_text}],[{y_text}]]"
            return (point_text, repr(lhs), bound_text, repr(deficit), tol_text, extra)

        return _Row("liyau_log_kernel", point, deficit >= -tol, deficit, texts)

    return row


def _liyau_scan(cfg: RunConfig) -> Iterator[_Row]:
    """Grid rows in output order, merged with the --augment rows: their
    points are sorted, then evaluated first, in one batch."""
    rng = np.random.default_rng(cfg.seed)
    points = []
    for _ in range(cfg.augment):
        t = float(10.0 ** rng.uniform(-2.0, 2.0))
        x = tuple(float(v) for v in rng.uniform(-10.0, 10.0, cfg.dimension))
        y = tuple(float(v) for v in rng.uniform(-10.0, 10.0, cfg.dimension))
        points.append((t, x, y))
    decs = _batched(
        lambda: iter_liyau_points(sorted(points), cfg.kappa),
        points,
        lambda t, x, y: liyau_functional(t, x, y, cfg.kappa),
    )
    augment = (_augment_row(dec, cfg) for dec in decs)
    # stable: a grid row goes before an augment row of equal key, and once
    # one input runs out no more keys are computed
    return heapq.merge(_liyau_grid_rows(cfg), augment, key=_sort_key)


def _augment_row(dec: LiYauDecomposition, cfg: RunConfig) -> _Row:
    row = _liyau_rows(dec.t, cfg)
    terms = tuple(map(_term_texts, dec.coordinates))
    return row(dec.x, dec.y, ",".join(map(repr, dec.x)), ",".join(map(repr, dec.y)), terms)


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


def _liyau_grid_rows(cfg: RunConfig) -> Iterator[_Row]:
    """Grid rows in output order, each joined from texts rendered once: per
    coordinate-table entry, per index tuple and per time."""
    coords = cfg.coord_grid
    # every index tuple's point and its JSON text inside the brackets
    points = {
        ix: (tuple(map(coords.__getitem__, ix)), ",".join(repr(coords[i]) for i in ix))
        for ix in itertools.product(range(len(coords)), repeat=cfg.dimension)
    }
    for t, pairs in _grid_walk(cfg):
        tables = _batched(
            lambda: {k: liyau_coordinate_table(t, k, coords) for k in dict.fromkeys(cfg.kappa)},
            ((t, x, y) for x, y in itertools.product(cfg.points, repeat=2)),
            lambda t, x, y: liyau_functional(t, x, y, cfg.kappa),
        )
        term_texts = {
            k: tuple(tuple(map(_term_texts, entries)) for entries in table.entries)
            for k, table in tables.items()
        }
        axes = [term_texts[k] for k in cfg.kappa]
        row = _liyau_rows(t, cfg)
        last = None
        for ix, iy in pairs:
            if ix != last:
                # the table row of x_i on each axis; y_i then picks the entry
                rows = [entries[u] for entries, u in zip(axes, ix)]
                x, x_text = points[ix]
                last = ix
            y, y_text = points[iy]
            yield row(x, y, x_text, y_text, tuple(map(tuple.__getitem__, rows, iy)))


def _initial_data(d: int) -> dict[str, InitialDatum]:
    tail = [bump_profile(0.5, 1.0, power=3) for _ in range(d - 1)]
    return {
        "bump": InitialDatum.bumps([0.0] * d, [1.5], power=3),
        "offset_bump": InitialDatum.bumps([0.8 * (-1.0) ** i for i in range(d)], [1.2], power=3),
        "two_bump": InitialDatum((two_bump_profile(-2.0, 2.0, 0.8, power=3), *tail)),
    }


def _solution_scan(cfg: RunConfig) -> list[_Row]:
    rows = []
    kappa = MultiplicityZ2.of(cfg.kappa)
    grid = [(t, x) for t in cfg.t_grid for x in cfg.points]
    for name, datum in _initial_data(cfg.dimension).items():
        lazy = semigroup_solution(datum, cfg.kappa)
        field = _batched(
            lambda: _solution_field(datum, cfg.kappa, grid),
            grid,
            lambda t, x: liyau_for_solution(lazy, t, x, cfg.kappa, tol=cfg.tol),
        )
        for t in cfg.t_grid:
            beta = _liyau_bound(t, kappa)
            for x in cfg.points:
                point = (t, x)
                report = _at_point(point, lambda: liyau_for_solution(field, t, x, cfg.kappa, tol=cfg.tol))
                rows.append(_row(report, extra={"datum": name}))
                report = _at_point(
                    point, lambda: gradient_form_check(field, t, x, beta, tol=cfg.tol)
                )
                rows.append(_row(report, extra={"datum": name, "beta": beta}))
    return sorted(rows, key=_sort_key)


def _harnack_scan(cfg: RunConfig) -> list[_Row]:
    """Rows for random (s, x, t, y), from a field that computes log u at
    every (s, x) and (t, y) first; a failure names the first tuple in draw
    order that stops."""
    count = cfg.augment if cfg.augment else 200
    datum = _initial_data(cfg.dimension)["bump"]
    lam = sum(cfg.kappa)
    rng = np.random.default_rng(cfg.seed)
    points = []
    for _ in range(count):
        s = float(10.0 ** rng.uniform(-1.0, 0.3))
        t = s * float(rng.uniform(1.05, 8.0))
        x = tuple(float(v) for v in rng.uniform(-2.5, 2.5, cfg.dimension))
        y = tuple(float(v) for v in rng.uniform(-2.5, 2.5, cfg.dimension))
        points.append((s, x, t, y))

    def check(u, s, x, t, y):
        return harnack_check(u, s, x, t, y, lambda_kappa=lam, d=cfg.dimension, tol=cfg.tol)

    evaluated = [(s, x) for s, x, _, _ in points] + [(t, y) for _, _, t, y in points]
    lazy = semigroup_solution(datum, cfg.kappa)
    field = _batched(
        lambda: _solution_field(datum, cfg.kappa, evaluated), points, lambda *point: check(lazy, *point)
    )
    reports = [_at_point(point, lambda: check(field, *point)) for point in points]
    return sorted((_row(report, extra={"datum": "bump"}) for report in reports), key=_sort_key)


def _time_pairs(t_grid):
    pairs = [(t, t) for t in t_grid]
    pairs.extend(zip(t_grid[:-1], t_grid[1:]))
    return pairs


def _semigroup_check(cfg: RunConfig) -> list[_Row]:
    rows = []
    for t in cfg.t_grid:
        for x in cfg.points:
            point = (t, x)
            report = _at_point(point, lambda: normalization_check(t, x, cfg.kappa))
            rows.append(_row(report))
    for s, t in _time_pairs(cfg.t_grid):
        for x in cfg.points:
            for y in (x, tuple(-v for v in x)):
                point = (s, t, x, y)
                report = _at_point(point, lambda: chapman_kolmogorov_check(s, t, x, y, cfg.kappa))
                rows.append(_row(report))
    reversed_points = list(reversed(cfg.points))
    for t in cfg.t_grid:
        for x, y in zip(cfg.points, reversed_points):
            point = (t, x, y)
            residual = _at_point(point, lambda: heat_residual(t, x, y, cfg.kappa))
            on_hyperplane = any(v == 0.0 for v in x)
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


def _claims_verify(cfg: RunConfig) -> list[_Row]:
    rows = []
    kappa_values = sorted(set(cfg.kappa) - {0.0}) or [0.5]

    for k in kappa_values:
        for a in np.linspace(-200.0, 200.0, 41):
            point = (float(a), k)
            value = _at_point(point, lambda: f_of_a(float(a), k))
            report = _report_at("f_nonneg", point, lhs=0.0, rhs=value, tolerance=1e-10)
            rows.append(_row(report))
        grid = np.linspace(-5.0, 5.0, 101)
        h = [_at_point((float(a), k), lambda: h_of_a(float(a), k)) for a in grid]
        for a in grid[grid >= 0.0]:
            point = (float(a), k)
            gap = _at_point(point, lambda: abs(h_of_a(float(a), k) + h_of_a(-float(a), k)))
            report = _report_at("h_antisymmetric", point, lhs=gap, rhs=0.0, tolerance=1e-10, deficit=-gap)
            rows.append(_row(report))
        for i in range(len(grid) - 1):
            report = _report_at(
                "h_monotone",
                (float(grid[i]), float(grid[i + 1]), k),
                lhs=h[i],
                rhs=h[i + 1],
                tolerance=1e-12,
            )
            rows.append(_row(report))

    fields = _claim_fields(cfg.dimension)
    eval_points = [
        tuple(0.7 * (-1.0) ** i for i in range(cfg.dimension)),
        (0.0,) + tuple(1.1 for _ in range(cfg.dimension - 1)),
    ]
    for name, field in fields.items():
        for x in eval_points:
            value = _at_point((name, x), lambda: pi_psi(field, PSI_LOG, x, cfg.kappa))
            rows.append(_row(_report_at("pi_log_sign", (name, x), lhs=value, rhs=0.0, tolerance=1e-12)))
            for psi in (PSI_LOG, PSI_EXP, PSI_SQUARE, PSI_CUBE):
                point = (name, psi.name, x)
                res = _at_point(point, lambda: chain_rule_residual(field, psi, x, cfg.kappa))
                normalized = abs(res.lhs - res.rhs) / res.scale
                report = _report_at("chain_rule", point, lhs=normalized, rhs=1e-8, tolerance=0.0)
                rows.append(_row(report, extra={"scale": res.scale}))

    rng = np.random.default_rng(cfg.seed)
    count = cfg.augment if cfg.augment else 50
    for _ in range(count):
        t = float(10.0 ** rng.uniform(-1.0, 1.0))
        x = tuple(float(v) for v in rng.uniform(-5.0, 5.0, cfg.dimension))
        y = tuple(float(v) for v in rng.uniform(-5.0, 5.0, cfg.dimension))
        report = _at_point((t, x, y), lambda: log_convexity_check(t, x, y, cfg.kappa, tol=cfg.tol))
        rows.append(_row(report))
        z1 = tuple(float(v) for v in rng.uniform(-5.0, 5.0, cfg.dimension))
        z2 = tuple(float(v) for v in rng.uniform(-5.0, 5.0, cfg.dimension))
        report = _at_point(
            (t, z1, z2, y),
            lambda: log_convexity_midpoint_check(t, z1, z2, y, cfg.kappa, tol=cfg.tol),
        )
        rows.append(_row(report))
    return sorted(rows, key=_sort_key)


_SUITES = {
    "kernel-eval": _kernel_eval,
    "liyau-scan": _liyau_scan,
    "solution-scan": _solution_scan,
    "harnack-scan": _harnack_scan,
    "semigroup-check": _semigroup_check,
    "claims-verify": _claims_verify,
}


def _report(cfg: RunConfig) -> list[_Row]:
    """Aggregate every claim suite into one summary row per claim."""
    tallies: dict[str, list] = {}  # claim_id -> [rows, failures, worst deficit]
    for command in ("liyau-scan", "solution-scan", "harnack-scan", "semigroup-check", "claims-verify"):
        for row in _SUITES[command](cfg):
            tally = tallies.setdefault(row.claim_id, [0, 0, math.inf])
            tally[0] += 1
            tally[1] += not row.passed
            tally[2] = min(tally[2], row.deficit)
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


def run(config: RunConfig) -> list[tuple[bool, str]]:
    """Execute the configured suite: one (pass flag, output line) per row, in
    output order, each line rendered as soon as its row is built."""
    suite = _report if config.command == "report" else _SUITES[config.command]
    return [(row.passed, _render(row, config.output_format)) for row in suite(config)]


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


def _render(row: _Row, output_format: str) -> str:
    """The one renderer: a row's output line, newline included, for every
    suite and both formats."""
    grid_point, lhs, rhs, deficit, tol, extra = row.texts()
    if output_format == "json-lines":
        # claim ids are plain identifiers, which JSON quotes as they are
        passed = "true" if row.passed else "false"
        return (
            f'{{"claim_id":"{row.claim_id}","grid_point":{grid_point},"lhs":{lhs},"rhs":{rhs},'
            f'"deficit":{deficit},"tol":{tol},"pass":{passed},"extra":{extra}}}\n'
        )
    passed = "pass" if row.passed else "fail"
    return _CSV_LINE.writerow((row.claim_id, grid_point, lhs, rhs, deficit, tol, passed, extra))


def _emit(header: str, rows: list[tuple[bool, str]], cfg: RunConfig) -> None:
    """Write the header, then the row lines one by one, so the output is
    never held as one joined text."""
    if cfg.output_path is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(cfg.output_path, "w", encoding="utf-8")
    with target as handle:
        handle.write(header)
        handle.writelines(line for _, line in rows)


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
    try:
        config = RunConfig(**vars(args))
        rows = run(config)
        header = _header(config)
    except DomainError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except ConvergenceError as e:
        print(f"convergence failure: {e}", file=sys.stderr)
        return 3
    except _NumericalFailure as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    try:
        _emit(header, rows, config)
    except OSError as e:
        target = config.output_path or "stdout"
        print(f"configuration error: cannot write {target}: {e.strerror or e}", file=sys.stderr)
        return 2
    return 0 if all(passed for passed, _ in rows) else 1
