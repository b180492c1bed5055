"""The p = 2 walk by support level, past tier-1 sizes and against the unpruned Gray walk.

The walk weighs x in order of |supp x| and keeps, among a row's least
weights, the least Gray rank, so it must report what the Gray-code walk
reported: the same distance, witness and vectors_examined.  The G(32, 1/2)
case was recorded from the Gray-code block walk, which took about 0.65 s
on it.  An edgeless graph with d = all ones walks every level but level
n, the top ones included, in bounded memory, and builds no table past a
block at p = 2 or 3.  The fuzz runs lone, stacked and
zero-headed searches at three block sizes against test_search_pruning's
unpruned reference, and checks that no chunk holds more than _BLOCK
candidates per row.  A replay of every chunk's weights checks that each
chunk weighs exactly the rows that may still win in it, so a row done
inside a level of many chunks drops out of the rest.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from diagdist import Multigraph, PrimeField, SearchConfig, code_distance, diagonal_distance, pairwise_distance
from diagdist import distance as D
from helpers import clear_memos, gray_ranks, on_weigh, replay, walk_log
from test_search_pruning import reference

F2 = PrimeField(2)


def gnp(n, seed):
    """G(n, 1/2) from random.Random(seed), edges drawn in (u, v) order, u < v."""
    rng = random.Random(seed)
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.random() < 0.5
    return Multigraph(n, mult)


def test_forced_g32_reports_what_the_gray_walk_did():
    rep = diagonal_distance(gnp(32, 1032), F2, SearchConfig(force=True))
    assert (rep.distance, rep.vectors_examined) == (6, 2**32 - 1)
    z = [j for j, v in enumerate(rep.witness.z) if v]
    x = [j for j, v in enumerate(rep.witness.x) if v]
    assert (z, x) == ([1, 12, 15, 16, 20, 29], [16, 29])
    assert set(rep.witness.entries) == {0, 1}


def test_an_edgeless_graph_walks_every_level_in_bounded_memory():
    """d = all ones weighs n at every x of an edgeless graph, so the walk reaches level n - 1.

    The least rank among the ties is x = 0, below every rank of level n,
    so only level n is left out.  The top levels, of a few
    subsets each, are walked as band products like the large levels below
    them, never built through the 2**n subsets below them, so the search's
    memory stays near its per-chunk buffers and tables of at most _BLOCK
    entries: about 1.4 MiB at its peak, most of it the tables, digit
    columns included, of every level of a 14-vertex band, where one
    2**24-entry table of uint32 takes 64 MiB.
    """
    n = 24
    g = Multigraph(n, np.zeros((n, n), dtype=np.int64))
    clear_memos()  # build every table under the trace
    tracemalloc.start()
    try:
        rep = pairwise_distance(g, F2, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), SearchConfig(force=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.distance, rep.vectors_examined) == (n, 2**n)
    assert rep.witness.entries == (1,) * n + (0,) * n
    assert peak < 4 << 20


@pytest.mark.parametrize("p, n, block", [(2, 12, 1 << 3), (3, 11, 200), (2, 14, 1 << 12)])
def test_an_all_levels_search_builds_no_table_past_a_block(monkeypatch, p, n, block):
    """Every table a forced all-levels search builds, and every table it is built from, holds at most _BLOCK.

    The x on the vertices from some vertex up, at one level, are one table
    only when every level of that range up to it fits a block, the rule
    _level_plan keeps from vertex 0: _table builds a level through every
    level below it.  A range whose top levels fit but whose middle levels
    do not would build tables past a block: with only levels s and s - 1
    asked to fit, p = 2, n = 12 at a block of 2**3 built five, the largest
    C(8, 4) = 70, and p = 3, n = 11 at a block of 200 built one of 240.
    """
    monkeypatch.setattr(D, "_BLOCK", block)
    real, sizes = D._table, []

    def table(*args):
        t = real(*args)
        sizes.append(len(t[1]))
        return t

    clear_memos()
    monkeypatch.setattr(D, "_table", table)  # _table's recursion looks it up as a global: the recorder sees it
    g = Multigraph(n, np.zeros((n, n), dtype=np.int64))
    ones, zeros = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    rep = pairwise_distance(g, PrimeField(p), ones, zeros, SearchConfig(force=True))
    assert (rep.distance, rep.vectors_examined) == (n, p**n)
    assert rep.witness.entries == (1,) * n + (0,) * n
    assert max(sizes) <= block


def chunk_spy(monkeypatch):
    """Spy on the weighers: the shape of every weight array they return."""
    shapes = []
    on_weigh(monkeypatch, lambda p, chunk, w: shapes.append(w.shape))
    return shapes


def random_graph(rng, n, kind):
    mult = np.zeros((n, n), dtype=np.int64)
    density = {"dense": 0.5, "sparse": 0.15, "isolated": 0.5}[kind]
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.randrange(1, 4) if rng.random() < density else 2 * rng.randrange(2)
    if kind == "isolated":  # no edge mod 2 at one vertex: distance 1
        v = rng.randrange(n)
        mult[v, :] = mult[:, v] = 0
    return Multigraph(n, mult)


def distinct_rows(rng, n, r):
    rows = {}
    while len(rows) < min(r, 2**n - 1):
        d = tuple(rng.randrange(2) for _ in range(n))
        if any(d):
            rows.setdefault(d, None)
    return [list(d) for d in rows]


def ref_key(g, d):
    distance, examined, entries = reference(g, F2, np.array(d, dtype=np.int64))
    return distance, entries, examined


def key(rep):
    return rep.distance, rep.witness.entries, rep.vectors_examined


# block size -> the largest n fuzzed there: a 2-candidate chunk costs what a 4096 one does
FUZZ = {1 << 1: 10, 1 << 3: 16, 1 << 12: 24}


@pytest.mark.parametrize("block", sorted(FUZZ))
def test_level_walk_matches_the_unpruned_gray_walk(monkeypatch, block):
    monkeypatch.setattr(D, "_BLOCK", block)
    shapes = chunk_spy(monkeypatch)
    rng = random.Random(7000 + block)
    kinds = set()
    for case in range(16):
        n = rng.randrange(1, FUZZ[block] + 1) if case else FUZZ[block]
        kind = ("dense", "sparse", "isolated")[case % 3]
        g = random_graph(rng, n, kind)
        search = D._searcher(g, F2, SearchConfig(force=True))
        rows = distinct_rows(rng, n, 4)
        zero = [0] * n
        assert key(search(np.array(zero, dtype=np.int64))) == ref_key(g, zero), (block, n, kind)
        assert key(search(np.array(rows[0], dtype=np.int64))) == ref_key(g, rows[0]), (block, n, kind)
        want = [ref_key(g, d) for d in rows]
        assert [key(rep) for rep in search(np.array(rows, dtype=np.int64))] == want, (block, n, kind)
        stack = search(np.array([zero] + rows, dtype=np.int64))
        assert [key(rep) for rep in stack] == [ref_key(g, zero)] + want, (block, n, kind)
        kinds.add((kind, min(rep.distance for rep in stack)))
    assert shapes and max(s[-1] for s in shapes) <= block
    assert all(len(s) == 1 or s[0] <= 5 for s in shapes)  # rows first: at most the 5 rows searched
    assert any(len(s) == 2 and s[0] < 4 for s in shapes)  # a row whose best is below a level drops out
    assert {d for kind, d in kinds if kind == "isolated"} == {1}


@pytest.mark.parametrize("block", [1 << 3, 1 << 6, 1 << 12])
@pytest.mark.parametrize("n", [8, 11, 14, 17])
def test_each_chunk_weighs_exactly_the_rows_its_level_may_improve(monkeypatch, block, n):
    """Rows drop out of a band level's later chunks as soon as they are done, and no sooner.

    Before each chunk, the rows handed are exactly those whose best may
    still beat the chunk's least rank (helpers.replay).
    """
    monkeypatch.setattr(D, "_BLOCK", block)
    log = walk_log(monkeypatch)
    rng = random.Random(f"rows/{block}/{n}")
    g = gnp(n, rng.randrange(10**6))
    gamma = g.mult % 2
    # words 1-3 differ from word 0 by Gamma x for the least x of levels 1-3, which weighs its level at
    # most: such a row is done at the first chunk of its level, and drops out of the level's later chunks
    words = [np.zeros(n, dtype=np.int64)] + [gamma[:, :a].sum(axis=1) % 2 for a in (1, 2, 3)]
    words += [np.array([rng.randrange(2) for _ in range(n)], dtype=np.int64) for _ in range(5)]
    firsts = {}  # each distinct difference's first pair: the code's stack, d = 0 first
    for r in range(9):
        for s in range(r, 9):
            firsts.setdefault(tuple((words[r] - words[s]) % 2), (r + 1, s + 1))
    searches = [
        lambda: [diagonal_distance(g, F2)],
        lambda: [pairwise_distance(g, F2, words[0], words[1])],
        lambda: list(map(code_distance(g, F2, words).table.__getitem__, firsts.values())),
    ]
    bits = 1 << np.arange(n, dtype=np.uint32)
    drops = 0
    for search in searches:
        log.clear()
        reps = search()
        best_w, best_t, _, stats = replay(log, len(reps), n, 2)
        assert best_w == [rep.distance for rep in reps]
        assert best_t == gray_ranks(np.array([rep.witness.x for rep in reps]) @ bits).tolist()
        drops += stats["dropped"]
    if math.comb(n, 3) > block:  # level 3 is walked as band products
        assert drops  # some row is done inside a band level
