#!/usr/bin/env python3
"""Forced searches past the default budget: the reach graphs.

Each graph comes from random.Random(1000 + n): G(n, 1/2) at p = 2, and
multiplicities drawn uniformly from 0..p - 1 at odd p, both in (u, v)
order with u < v.  SearchConfig(force=True) lifts the vertex cap and the
candidate budget, so diagonal_distance walks the support levels up to the
distance, most of them as products of band tables.  Each line gives p, n,
the distance and the seconds of one search in this process.

Run:  python3 demos/forced_reach.py
"""

import random
import time

import numpy as np

from diagdist import Multigraph, PrimeField, SearchConfig, diagonal_distance

CASES = [(2, 32), (3, 20), (5, 14), (5, 16), (7, 12)]


def reach_graph(p, n):
    rng = random.Random(1000 + n)
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.random() < 0.5 if p == 2 else rng.randrange(p)
    return Multigraph(n, mult)


print(f"{'p':>2} {'n':>3} {'distance':>8} {'seconds':>8}")
for p, n in CASES:
    g = reach_graph(p, n)
    start = time.perf_counter()
    rep = diagonal_distance(g, PrimeField(p), SearchConfig(force=True))
    seconds = time.perf_counter() - start
    print(f"{p:>2} {n:>3} {rep.distance:>8} {seconds:>8.3f}")
