"""Hot inner loops: tilted moment sums over quadrature node batches.

Every kernel evaluation, Li-Yau scan entry, and semigroup quadrature node
reduces to the same three weighted sums S_0, S_1, S_2 over a batch of tilt
values a: the mass, the first moment and a second moment, raw on the Jacobi
branch and centred on the Laguerre branch.  Both functions broadcast the
(batch, nodes) array in numpy and reduce it row by row, so a tilt's sums are
the same bits alone or in any batch; kernel.moment_stats bounds the batch.
"""

import numpy as np

__all__ = ["USING_NUMBA", "jacobi_tilted_sums", "laguerre_tilted_sums"]

# No compiled backend; perfbench/child.py and perfbench/tracer.py read this flag.
USING_NUMBA = False


def jacobi_tilted_sums(nodes, weights, a):
    """S_k(a) = sum_j w_j s_j^k exp(a (s_j - sign(a))), k = 0, 1, 2.

    The shift by sign(a) keeps every exponent <= 0, so nothing overflows for
    any tilt; the caller restores the factor exp(a sign(a)) in log space.
    """
    shift = np.sign(a)
    ew = np.exp(a[:, None] * (nodes[None, :] - shift[:, None])) * weights[None, :]
    s0 = ew.sum(axis=1)
    # one dot product per row: a matrix-vector product would round each row
    # differently depending on the batch size
    s1 = np.vecdot(ew, nodes)
    s2 = np.vecdot(ew, nodes * nodes)
    return s0, s1, s2


def laguerre_tilted_sums(nodes, weights, abs_a, factor_exp):
    """S_0 = sum_j c_j, S_1 = sum_j c_j u_j and S_2 = sum_j c_j (r_j - rbar)^2 / |a|^2
    with c_j = w_j q_j^factor_exp, q_j = 2 - r_j/|a|, u_j = 1 - r_j/|a|, and the
    centre rbar = sum_j c_j r_j / S_0 summed directly (|a| (1 - S_1/S_0) would cancel).

    Nodes with r_j >= 2|a| lie outside the image of [-1, 1] under the
    boundary-layer substitution and are dropped (they would contribute
    O(e^(-2|a|)) if the integral extended that far).
    """
    x = nodes[None, :] / abs_a[:, None]
    q = 2.0 - x
    inside = q > 0.0
    fac = np.where(inside, np.power(np.where(inside, q, 1.0), factor_exp), 0.0)
    fac = fac * weights[None, :]
    s0 = fac.sum(axis=1)
    s1 = (fac * (1.0 - x)).sum(axis=1)
    # (r_j - rbar)^2 c_j, formed in place: the sums are memory-bound
    dev = nodes - (np.vecdot(fac, nodes) / s0)[:, None]
    dev *= dev
    dev *= fac
    return s0, s1, dev.sum(axis=1) / (abs_a * abs_a)
