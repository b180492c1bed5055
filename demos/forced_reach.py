#!/usr/bin/env python3
"""Forced searches past the default budget: the reach graphs and the all-levels case.

Each reach graph comes from random.Random(1000 + n): G(n, 1/2) at p = 2,
and multiplicities drawn uniformly from 0..p - 1 at odd p, both in (u, v)
order with u < v.  SearchConfig(force=True) lifts the vertex cap and the
candidate budget, so diagonal_distance walks the support levels up to the
distance, most of them as products of band tables.  The last line is the
all-levels case: pairwise_distance on an edgeless graph at p = 2 with
d = all ones, where every x weighs n, so the walk reaches level n - 1.
Each line gives p, n, the distance, the seconds of one search in this
process and the case.

Run:  python3 demos/forced_reach.py
"""

import random
import time

import numpy as np

from diagdist import Multigraph, PrimeField, SearchConfig, diagonal_distance, pairwise_distance

CASES = [(2, 32), (2, 36), (3, 20), (3, 24), (5, 14), (5, 16), (7, 12)]
FORCE = SearchConfig(force=True)


def reach_graph(p, n):
    rng = random.Random(1000 + n)
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.random() < 0.5 if p == 2 else rng.randrange(p)
    return Multigraph(n, mult)


def timed(p, n, case, search):
    start = time.perf_counter()
    rep = search()
    seconds = time.perf_counter() - start
    print(f"{p:>2} {n:>3} {rep.distance:>8} {seconds:>8.3f}  {case}")


print(f"{'p':>2} {'n':>3} {'distance':>8} {'seconds':>8}  case")
for p, n in CASES:
    g, f = reach_graph(p, n), PrimeField(p)
    timed(p, n, "reach graph", lambda: diagonal_distance(g, f, FORCE))
n = 26  # the all-levels case
g = Multigraph(n, np.zeros((n, n), dtype=np.int64))
ones, zeros = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
timed(2, n, "edgeless, d = all ones", lambda: pairwise_distance(g, PrimeField(2), ones, zeros, FORCE))
