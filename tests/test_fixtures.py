"""Exact p = 2 distances of circulant graphs, pinned at sizes the oracle cannot reach.

C_n(S) joins vertex i to i + s and i - s (mod n) for every s in S.  The
values were computed by exhaustive search; C_12({1, 3, 6}) has d = 6, the
distance of the dodecacode (Calderbank, Rains, Shor and Sloane, IEEE TIT 44
(1998) 1369).  None has a kernel vector of weight 1, so the search never
stops early and examines all 2**n - 1 nonzero candidates.
"""

import numpy as np
import pytest

from diagdist import Multigraph, PrimeField, diagonal_distance

CIRCULANTS = [
    (12, (1, 3, 6), 6),
    (20, (1, 5, 8, 10), 8),
    (22, (1, 2, 7, 11), 8),
    (24, (1, 2, 4, 12), 8),
]


def circulant(n, offsets):
    mult = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    for s in offsets:
        mult[i, (i + s) % n] = mult[(i + s) % n, i] = 1
    return Multigraph(n, mult)


@pytest.mark.parametrize("n,offsets,d", CIRCULANTS)
def test_circulant_distance(n, offsets, d):
    g = circulant(n, offsets)
    degree = len({t % n for s in offsets for t in (s, -s)})
    assert (g.mult.sum(axis=0) == degree).all()
    rep = diagonal_distance(g, PrimeField(2))
    assert rep.distance == d
    assert rep.vectors_examined == 2**n - 1
