"""Compiled moment-sum kernels against their plain numpy twins.

Both backends take a batch of tilt values against one node set; the numpy
path broadcasts, the jit path loops.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from dunklheat import _accel
from dunklheat.quadrature import gauss_jacobi_rule, gauss_laguerre_rule


def test_numpy_jacobi_sums_match_direct_dot():
    rule = gauss_jacobi_rule(-0.5, 0.5, 64)
    a = np.array([3.7, -1.2, 0.0])
    s0, s1, s2 = _accel.jacobi_tilted_sums_numpy(rule.nodes, rule.weights, a)
    for i, ai in enumerate(a):
        w = rule.weights * np.exp(ai * (rule.nodes - np.sign(ai)))
        assert abs(s0[i] - w.sum()) <= 1e-14 * w.sum()
        assert abs(s1[i] - (w * rule.nodes).sum()) <= 1e-13 * abs(w.sum())
        assert abs(s2[i] - (w * rule.nodes**2).sum()) <= 1e-13 * abs(w.sum())


def test_numpy_laguerre_sums_drop_out_of_range_nodes():
    rule = gauss_laguerre_rule(0.5, 128)
    abs_a = np.array([60.0, 200.0])
    s0, s1, s2 = _accel.laguerre_tilted_sums_numpy(rule.nodes, rule.weights, abs_a, 1.5)
    # node ladders for |a| = 60 reach past 2|a| = 120; those nodes must not
    # poison the sum with powers of a negative base
    assert rule.nodes.max() > 120.0
    for i, aa in enumerate(abs_a):
        q = 2.0 - rule.nodes / aa
        keep = q > 0.0
        w = np.zeros_like(rule.weights)
        w[keep] = rule.weights[keep] * q[keep] ** 1.5
        u = 1.0 - rule.nodes / aa
        assert np.isfinite(s0[i])
        assert abs(s0[i] - w.sum()) <= 1e-14 * w.sum()
        assert abs(s1[i] - (w * u).sum()) <= 1e-13 * abs(w.sum())
        assert abs(s2[i] - (w * u * u).sum()) <= 1e-13 * abs(w.sum())


@pytest.mark.skipif(not _accel.USING_NUMBA, reason="numba not active")
def test_jit_jacobi_twin_matches_numpy():
    rng = np.random.default_rng(61)
    for _ in range(6):
        n = int(rng.integers(16, 512))
        rule = gauss_jacobi_rule(float(rng.uniform(-0.9, 2.0)), float(rng.uniform(-0.9, 2.0)), n)
        a = rng.uniform(-50.0, 50.0, size=8)
        got = _accel._jacobi_tilted_sums_jit(rule.nodes, rule.weights, a)
        want = _accel.jacobi_tilted_sums_numpy(rule.nodes, rule.weights, a)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-300)


@pytest.mark.skipif(not _accel.USING_NUMBA, reason="numba not active")
def test_jit_laguerre_twin_matches_numpy():
    rng = np.random.default_rng(67)
    for _ in range(6):
        n = int(rng.integers(16, 512))
        rule = gauss_laguerre_rule(float(rng.uniform(-0.4, 2.0)), n)
        abs_a = rng.uniform(51.0, 5000.0, size=8)
        factor_exp = float(rng.uniform(-0.5, 2.5))
        got = _accel._laguerre_tilted_sums_jit(rule.nodes, rule.weights, abs_a, factor_exp)
        want = _accel.laguerre_tilted_sums_numpy(rule.nodes, rule.weights, abs_a, factor_exp)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-300)


def test_active_aliases_point_at_selected_backend():
    if _accel.USING_NUMBA:
        assert _accel.jacobi_tilted_sums is _accel._jacobi_tilted_sums_jit
        assert _accel.laguerre_tilted_sums is _accel._laguerre_tilted_sums_jit
    else:
        assert _accel.jacobi_tilted_sums is _accel.jacobi_tilted_sums_numpy
        assert _accel.laguerre_tilted_sums is _accel.laguerre_tilted_sums_numpy


def test_fallback_flag_forces_numpy_and_agrees():
    code = (
        "from dunklheat import _accel\n"
        "from dunklheat.kernel import moment_ratios\n"
        "assert not _accel.USING_NUMBA\n"
        "r = moment_ratios(3.0, 0.5)\n"
        "print(repr(r.log_m0), repr(r.r1), repr(r.r2))\n"
    )
    # the child imports the package from wherever this process found it
    src = os.path.dirname(os.path.dirname(_accel.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, DUNKLHEAT_NO_NUMBA="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    log_m0, r1, r2 = (float(tok) for tok in out.stdout.split())
    from dunklheat.kernel import moment_ratios

    here = moment_ratios(3.0, 0.5)
    assert abs(log_m0 - here.log_m0) <= 1e-13
    assert abs(r1 - here.r1) <= 1e-13
    assert abs(r2 - here.r2) <= 1e-13
