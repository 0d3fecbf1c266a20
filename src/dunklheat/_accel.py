"""Hot inner loops: tilted moment sums over quadrature node batches.

Every kernel evaluation, Li-Yau scan entry, and semigroup quadrature node
reduces to the same three weighted sums

    S_k(a) = sum_j w_j p(s_j)^k exp(tilt_j(a)),   k = 0, 1, 2,

taken over a batch of tilt values a.  Both functions broadcast the
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
    """S_k = sum_j w_j q_j^factor_exp u_j^k with q_j = 2 - r_j/|a| and
    u_j = 1 - r_j/|a|, k = 0, 1, 2.

    Nodes with r_j >= 2|a| lie outside the image of [-1, 1] under the
    boundary-layer substitution and are dropped (they would contribute
    O(e^(-2|a|)) if the integral extended that far).
    """
    q = 2.0 - nodes[None, :] / abs_a[:, None]
    inside = q > 0.0
    fac = np.where(inside, np.power(np.where(inside, q, 1.0), factor_exp), 0.0)
    fac = fac * weights[None, :]
    u = 1.0 - nodes[None, :] / abs_a[:, None]
    s0 = fac.sum(axis=1)
    s1 = (fac * u).sum(axis=1)
    s2 = (fac * u * u).sum(axis=1)
    return s0, s1, s2
