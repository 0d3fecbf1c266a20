"""Per-layer spans and work counters for one dunklheat process, recorded from
outside the library.

`Tracer.install()` replaces every public function of each layer module (the
names in its `__all__`), plus the two private ladders in `_LADDERS`, with a
wrapper.  The wrapper is bound under every name a dunklheat module holds the
original by, because callers look functions up in their own namespace:
`inequalities` binds `moment_ratios` at import, `semigroup` binds
`kernel_derivatives_1d_batch`, while `kernel` reaches the tilted sums through
the `_accel` module.  Calls made through references stored in objects (for
example the `log_normalizer` field of a `MeasureConvention`) are not seen;
their time counts as the caller's.  Class methods are not wrapped either.

Each wrapper pushes a span on one stack, so a layer's self time is the sum of
its spans' durations minus the time of the spans they caused.  Summed over
the layers, self time equals the duration of `cli.main`.  `restore()` puts
every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("quadrature", "_accel", "kernel", "inequalities", "semigroup", "operators", "cli")

# Private functions whose spans carry a layer's adaptive ladder: each
# _adaptive_eval span is one moment branch evaluation, and every panel
# quadrature, whoever calls it, runs inside an _adaptive_panel_sum span.
_LADDERS = {"kernel": ("_adaptive_eval",), "semigroup": ("_adaptive_panel_sum",)}

_SEMIGROUP_CHECKS = ("normalization_check", "chapman_kolmogorov_check", "heat_residual", "liyau_for_solution")

# bytes in one float64 entry of a (batch, nodes) temporary
_FLOAT_BYTES = 8


def metric_prefix(layer: str) -> str:
    """Metric names start with a letter, so `_accel` reports as `accel`."""
    return layer.lstrip("_")


class _Span:
    __slots__ = ("name", "child_s", "levels")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.levels = 0


class Tracer:
    """Wraps the layer functions of an imported dunklheat package."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.ladders: list[int] = []
        self._stack: list[_Span] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._modules = {}
        self._start_sizes = {}
        self._before = {
            "kernel.moment_stats": self._moment_tilts,
            "_accel.jacobi_tilted_sums": self._node_tilts("accel.jacobi_node_tilts"),
            "_accel.laguerre_tilted_sums": self._node_tilts("accel.laguerre_node_tilts"),
            "kernel.kernel_derivatives_1d_batch": self._panel_level,
            "inequalities.f_of_a": self._f_branch,
        }
        self._after = {
            "kernel._adaptive_eval": lambda span, result: self.ladders.append(span.levels),
            "cli.run": lambda span, result: self.counts.update({"cli.rows": len(result)}),
        }

    # -- install / restore -------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._modules = {layer: importlib.import_module(f"dunklheat.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in self._modules.items():
            for name in (*module.__all__, *_LADDERS.get(layer, ())):
                fn = getattr(module, name)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", layer, fn)
        for module in [m for n, m in sys.modules.items() if n == "dunklheat" or n.startswith("dunklheat.")]:
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)
        self._start_sizes = self._cache_sizes()
        return self

    def restore(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _cache_sizes(self) -> dict[str, int]:
        return {
            "rules": len(self._modules["quadrature"]._CACHE),
            "moments": len(self._modules["kernel"]._MOMENT_CACHE),
        }

    # -- spans ---------------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        stack = self._stack
        opened = self._open
        calls = self.calls
        inclusive = self.inclusive_s
        self_s = self.self_s
        before = self._before.get(key)
        after = self._after.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1] if stack else None
            if before is not None:
                before(parent, args, kwargs)
            span = _Span(key)
            stack.append(span)
            opened[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                opened[layer] -= 1
                inclusive[key] += elapsed
                self_s[layer] += elapsed - span.child_s
                if parent is not None:
                    parent.child_s += elapsed
            if after is not None:
                after(span, result)
            return result

        return wrapper

    # -- counters taken at the layer boundaries ------------------------------

    def _moment_tilts(self, parent, args, kwargs):
        a = np.atleast_1d(np.asarray(args[0] if args else kwargs["a"], dtype=float))
        switch = self._modules["kernel"].TILT_SWITCH
        self.counts["kernel.moment_tilts.jacobi"] += int(np.count_nonzero(np.abs(a) <= switch))
        self.counts["kernel.moment_tilts.laguerre_pos"] += int(np.count_nonzero(a > switch))
        self.counts["kernel.moment_tilts.laguerre_neg"] += int(np.count_nonzero(a < -switch))

    def _node_tilts(self, name: str):
        def count(parent, args, kwargs):
            nodes, _, tilts = args[:3]
            self.counts[name] += len(nodes) * len(tilts)
            if parent is not None and parent.name == "kernel._adaptive_eval":
                parent.levels += 1

        return count

    def _panel_level(self, parent, args, kwargs):
        if self._open["semigroup"]:
            v = args[2] if len(args) > 2 else kwargs["v"]
            self.counts["semigroup.panel_levels"] += 1
            self.counts["semigroup.panel_nodes"] += int(np.size(v))

    def _f_branch(self, parent, args, kwargs):
        a = abs(float(args[0] if args else kwargs["a"]))
        integral = 0.0 < a < self._modules["inequalities"]._F_DIRECT_SWITCH
        self.counts[f"inequalities.f_of_a_calls.{'integral' if integral else 'direct'}"] += 1

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of the traced process, by name."""
        sizes = self._cache_sizes()
        c = self.calls
        moment_calls = c["kernel.moment_ratios"]
        moment_entries = sizes["moments"] - self._start_sizes["moments"]
        node_tilts = self.counts["accel.jacobi_node_tilts"] + self.counts["accel.laguerre_node_tilts"]
        out = {
            "quadrature.rule_calls": c["quadrature.gauss_jacobi_rule"] + c["quadrature.gauss_laguerre_rule"],
            "quadrature.rule_builds": sizes["rules"] - self._start_sizes["rules"],
            "accel.jacobi_node_tilts": self.counts["accel.jacobi_node_tilts"],
            "accel.laguerre_node_tilts": self.counts["accel.laguerre_node_tilts"],
            # computed, not measured: one float64 (batch, nodes) array per call
            # of the numpy twins; the compiled twins allocate none
            "accel.computed_bytes": 0 if self._modules["_accel"].USING_NUMBA else _FLOAT_BYTES * node_tilts,
            "kernel.moment_stats_calls": c["kernel.moment_stats"],
            "kernel.moment_tilts.jacobi": self.counts["kernel.moment_tilts.jacobi"],
            "kernel.moment_tilts.laguerre_pos": self.counts["kernel.moment_tilts.laguerre_pos"],
            "kernel.moment_tilts.laguerre_neg": self.counts["kernel.moment_tilts.laguerre_neg"],
            "kernel.ladder_levels_mean": sum(self.ladders) / len(self.ladders) if self.ladders else 0.0,
            "kernel.ladder_levels_max": max(self.ladders, default=0),
            "kernel.moment_ratios_calls": moment_calls,
            "kernel.moment_cache_hit_ratio": 1.0 - moment_entries / moment_calls if moment_calls else 0.0,
            "kernel.moment_cache_entries": moment_entries,
            "kernel.batch_calls": c["kernel.kernel_derivatives_1d_batch"],
            "inequalities.f_of_a_calls.integral": self.counts["inequalities.f_of_a_calls.integral"],
            "inequalities.f_of_a_calls.direct": self.counts["inequalities.f_of_a_calls.direct"],
            "inequalities.liyau_functional_calls": c["inequalities.liyau_functional"],
            **{f"semigroup.check_calls.{name}": c[f"semigroup.{name}"] for name in _SEMIGROUP_CHECKS},
            "semigroup.panel_levels": self.counts["semigroup.panel_levels"],
            "semigroup.panel_nodes": self.counts["semigroup.panel_nodes"],
            "operators.laplacian_calls": c["operators.dunkl_laplacian"],
            "cli.rows": self.counts["cli.rows"],
            "cli.run_s": self.inclusive_s["cli.run"],
            "cli.emit_s": self.inclusive_s["cli.main"] - self.inclusive_s["cli.run"],
        }
        for layer in LAYERS:
            out[f"{metric_prefix(layer)}.self_s"] = self.self_s[layer]
        return out


# Durations.  Every other metric is an exact count, or a ratio of counts, and
# repeats exactly for a fixed configuration.
TIMED_METRICS = frozenset(
    {"cli.run_s", "cli.emit_s"} | {f"{metric_prefix(layer)}.self_s" for layer in LAYERS}
)
