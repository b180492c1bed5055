"""The tie-only stop: a row whose best weighs the level being walked weighs only what ranks below its best.

Every candidate of level a weighs at least a, so a row whose best weight
is a can only be improved by a tie of lower rank.  A one-table level
whose rows left all weigh a is cut to its x ranked below their greatest
best rank, and a band level hands each slice of a block only the rows
whose best rank is above the slice's least; a block ends at its first
slice that no row may win.  The replay (helpers.replay) checks every
chunk of lone searches, of lone d = 0 at odd p (the x of top digit 1) and
of code stacks against that rule, at block sizes where the levels are
band products and where they are single tables.  The forced reach
reports were recorded from the walk that weighed every level whole.
"""

import random

import numpy as np
import pytest

from diagdist import Multigraph, PrimeField, code_distance, diagonal_distance, pairwise_distance
from diagdist import distance as D
from helpers import assert_walk_covers, random_multigraph, rank, replay, walk_log

SIZES = {2: (8, 11, 14, 17), 3: (5, 7, 8), 5: (4, 5, 6)}


def searches(g, f, rng):
    """A lone d = 0, a lone random d and a code, each with its reports and whether it walks the x of top digit 1."""
    n, p = g.n, f.p
    zeros = np.zeros(n, dtype=np.int64)
    d = np.array([rng.randrange(p) for _ in range(n)])
    words = [np.array([rng.randrange(p) for _ in range(n)]) for _ in range(5)]
    firsts = {}  # each distinct difference's first pair: the code's stack, d = 0 first
    for r in range(5):
        for s in range(r, 5):
            firsts.setdefault(tuple((words[r] - words[s]) % p), (r + 1, s + 1))
    yield lambda: [diagonal_distance(g, f)], p > 2
    yield lambda: [pairwise_distance(g, f, d, zeros)], False
    yield lambda: list(map(code_distance(g, f, words).table.__getitem__, firsts.values())), False


@pytest.mark.parametrize("block", [1 << 3, 1 << 6, 1 << 12])
@pytest.mark.parametrize("p", SIZES)
def test_each_chunk_weighs_only_what_its_rows_may_still_win(monkeypatch, p, block):
    monkeypatch.setattr(D, "_BLOCK", block)
    log = walk_log(monkeypatch)
    rng = random.Random(f"tie/{p}/{block}")
    f = PrimeField(p)
    totals = dict.fromkeys(("cut", "stopped", "dropped"), 0)
    for n in SIZES[p]:
        for _ in range(3):
            g = random_multigraph(rng, n, max_mult=p - 1)
            for search, one in searches(g, f, rng):
                log.clear()
                reps = search()
                best_w, best_t, weighed, stats = replay(log, len(reps), n, p, one)
                assert best_w == [rep.distance for rep in reps]
                assert best_t == [rank(rep.witness.x, p) for rep in reps]
                for row, rep in zip(weighed, reps):
                    assert_walk_covers(row, rep, n, p, one and len(reps) == 1)
                for name in totals:
                    totals[name] += stats[name]
    if block == 1 << 12:  # most levels are one table: some is cut to its rank prefix
        assert totals["cut"]
    if block == 1 << 3:  # most levels are band products: some block ends early, and some row drops out of a level
        assert totals["stopped"] and totals["dropped"]


def reach_graph(p, n):
    """The graph demos/forced_reach.py searches: multiplicities 0..p - 1 from random.Random(1000 + n), u < v."""
    rng = random.Random(1000 + n)
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.randrange(p)
    return Multigraph(n, mult)


# (p, n) -> distance, vectors_examined and the nonzero (vertex, value) of z and of x
FORCED = {
    (3, 20): (6, 3486784400, [(7, 2), (14, 1), (15, 1)], [(0, 1), (1, 1), (2, 1), (7, 1), (14, 2), (15, 1)]),
    (5, 14): (6, 6103515624, [(4, 4), (5, 3), (7, 3), (10, 4), (11, 4)], [(0, 2), (4, 1), (5, 1), (7, 1)]),
    (7, 12): (5, 13841287200, [(0, 1), (3, 3), (7, 3), (8, 6), (11, 1)], [(3, 6), (7, 3), (8, 4), (11, 1)]),
}


@pytest.mark.parametrize("p, n", FORCED)
def test_forced_reach_reports_are_those_of_the_whole_level_walk(p, n):
    rep = diagonal_distance(reach_graph(p, n), PrimeField(p), force=True)
    nonzero = [[(j, v) for j, v in enumerate(half) if v] for half in (rep.witness.z, rep.witness.x)]
    assert (rep.distance, rep.vectors_examined, *nonzero) == FORCED[p, n]
