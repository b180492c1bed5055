"""Shared fixtures for the test suite: random graphs and known 5-cycle values."""

import numpy as np

from diagdist import Multigraph, PrimeField, adjacency_matrix
from diagdist import distance as D

# Lambda = [I | Gamma] of the 5-cycle 1-2-3-4-5-1; the standard worked example.
CYCLE5_LAMBDA = [
    [1, 0, 0, 0, 0, 0, 1, 0, 0, 1],
    [0, 1, 0, 0, 0, 1, 0, 1, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 1, 0, 0, 1, 0],
]

# Its kernel basis in the (z | x) layout: vector i is (column i of Gamma | e_i).
CYCLE5_KERNEL = [
    (0, 1, 0, 0, 1, 1, 0, 0, 0, 0),
    (1, 0, 1, 0, 0, 0, 1, 0, 0, 0),
    (0, 1, 0, 1, 0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 1, 0, 0, 0, 1, 0),
    (1, 0, 0, 1, 0, 0, 0, 0, 0, 1),
]


def random_multigraph(rng, n, max_mult=1):
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            m = rng.randint(0, max_mult)
            mult[u, v] = mult[v, u] = m
    return Multigraph(n, mult)


def random_labelling(rng, n, p):
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


def permuted(g, order):
    """Relabelled copy: new vertex a is old vertex order[a]."""
    order = np.asarray(order)
    return Multigraph(g.n, g.mult[np.ix_(order, order)])


def has_zero_column(g, f: PrimeField) -> bool:
    gamma = adjacency_matrix(g, f)
    return bool((~gamma.any(axis=0)).any())


def random_connected_graph(rng, n):
    """Random spanning tree plus a handful of extra edges; always connected."""
    mult = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        u = rng.randrange(v)
        mult[u, v] = mult[v, u] = 1
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            mult[u, v] = mult[v, u] = 1
    return Multigraph(n, mult)


def last_level(rep, p: int) -> int:
    """The last support level a search walks to reach rep, when no chunk of that level holds the witness.

    Only level w* = rep.distance can tie the best weight, and a tie must
    have a lower rank to win, so the walk skips level w* when the
    witness's rank is below the least rank of level w*, that of the x
    with digit 1 at vertices 0 .. w* - 1: the Gray rank at p = 2, the
    odometer index at odd p.
    """

    def rank(x):
        if p > 2:
            return sum(v * p**j for j, v in enumerate(x))
        t, mask = 0, sum(1 << j for j, v in enumerate(x) if v)
        while mask:  # gray^-1: the XOR of every right shift
            t, mask = t ^ mask, mask >> 1
        return t

    w = rep.distance
    return w - (rank(rep.witness.x) < rank([1] * w))


def clear_memos():
    """Empty the search's process-wide memos, so the next search builds every table it uses afresh."""
    for memo in (D._table, D._level_plan, D._powers, D._pairs, D._multiples):
        memo.cache_clear()
