"""The tilted-moment sums against direct dot products.

Both sums take a batch of tilt values against one node set and broadcast in
numpy; there is no second backend to select.
"""

import os
import subprocess
import sys

import numpy as np

from dunklheat import _accel
from dunklheat.quadrature import gauss_jacobi_rule, gauss_laguerre_rule


def test_numpy_jacobi_sums_match_direct_dot():
    rule = gauss_jacobi_rule(-0.5, 0.5, 64)
    a = np.array([3.7, -1.2, 0.0])
    s0, s1, s2 = _accel.jacobi_tilted_sums(rule.nodes, rule.weights, a)
    for i, ai in enumerate(a):
        w = rule.weights * np.exp(ai * (rule.nodes - np.sign(ai)))
        assert abs(s0[i] - w.sum()) <= 1e-14 * w.sum()
        assert abs(s1[i] - (w * rule.nodes).sum()) <= 1e-13 * abs(w.sum())
        assert abs(s2[i] - (w * rule.nodes**2).sum()) <= 1e-13 * abs(w.sum())


def test_numpy_laguerre_sums_drop_out_of_range_nodes():
    rule = gauss_laguerre_rule(0.5, 128)
    abs_a = np.array([60.0, 200.0])
    s0, s1, s2 = _accel.laguerre_tilted_sums(rule.nodes, rule.weights, abs_a, 1.5)
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


def test_import_never_touches_numba(tmp_path):
    # a numba that fails loudly on import, first on the path: importing the
    # package and evaluating a moment must not reach it, whatever the
    # environment says
    stub = tmp_path / "numba"
    stub.mkdir()
    (stub / "__init__.py").write_text("raise AssertionError('numba imported')\n")
    code = (
        "import sys\n"
        "import dunklheat\n"
        "from dunklheat.kernel import moment_ratios\n"
        "r = moment_ratios(3.0, 0.5)\n"
        "print(repr(r.log_m0), repr(r.r1), repr(r.r2), 'numba' in sys.modules)\n"
    )
    # the child imports the package from wherever this process found it
    src = os.path.dirname(os.path.dirname(_accel.__file__))
    path = os.pathsep.join(p for p in (str(tmp_path), src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, DUNKLHEAT_NO_NUMBA="0", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    log_m0, r1, r2, numba_loaded = out.stdout.split()
    from dunklheat.kernel import moment_ratios

    here = moment_ratios(3.0, 0.5)
    assert (float(log_m0), float(r1), float(r2)) == (here.log_m0, here.r1, here.r2)
    assert numba_loaded == "False"
