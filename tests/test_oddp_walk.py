"""The odd-p walk by support level, past tier-1 sizes and against the unpruned odometer.

The walk weighs x in order of |supp x| and keeps, among a row's least
weights, the least odometer index t = sum x_j p**j, so it must report what
the odometer walk reported: the same distance, witness and
vectors_examined.  The forced p = 3, n = 20 case was recorded from the
odometer block search, which took about 2 s on it.  Ranks are exact up to
p**n < 2**64, and a forced search past that is refused.  The fuzz runs
lone, stacked and zero-headed searches at three block sizes against
test_search_pruning's unpruned reference, and checks that no chunk holds
more than _BLOCK candidates per row.  A lone d = 0 search sizes its
levels by the x of top digit 1 it walks: its plans are pinned, and its
reports, and those of forced reach cases, match reports recorded while
every level was sized by its full count.
"""

import hashlib
import math
import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    PrimeField,
    SearchConfig,
    SearchTooLarge,
    code_distance,
    diagonal_distance,
    pairwise_distance,
    serialize,
)
from diagdist import distance as D
from diagdist.cli import main
from helpers import clear_memos, on_weigh, random_multigraph
from test_search_pruning import reference

FORCE = SearchConfig(force=True)


def uniform(n, p, seed):
    """Multiplicities drawn uniformly from 0..p-1 by random.Random(seed), in (u, v) order, u < v."""
    return drawn(random.Random(seed), n, p)


def drawn(rng, n, p):
    """Multiplicities drawn uniformly from 0..p-1 by rng, in (u, v) order, u < v."""
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.randrange(p)
    return Multigraph(n, mult)


def test_forced_p3_n20_reports_what_the_odometer_did():
    rep = diagonal_distance(uniform(20, 3, 1020), PrimeField(3), FORCE)
    assert (rep.distance, rep.vectors_examined) == (6, 3**20 - 1)
    assert rep.witness.x == (1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0)
    assert rep.witness.z == (0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0)


def two_hubs(n):
    """Vertex n - 2 joined to vertices 0..9, and vertex n - 1 to vertices 10..19."""
    mult = np.zeros((n, n), dtype=np.int64)
    for v in range(20):
        hub = n - 2 if v < 10 else n - 1
        mult[v, hub] = mult[hub, v] = 1
    return Multigraph(n, mult)


def test_ranks_past_2_63_are_exact():
    """x = e_38 + 2 e_39 is the one solution of weight 2: t = 3**38 + 2 * 3**39 > 2**63."""
    n, f = 40, PrimeField(3)
    x = np.zeros(n, dtype=np.int64)
    x[38], x[39] = 1, 2
    d = np.zeros(n, dtype=np.int64)
    d[:10], d[10:20] = 1, 2  # Gamma x: weight 20 at x = 0
    rep = pairwise_distance(two_hubs(n), f, d, np.zeros(n, dtype=np.int64), FORCE)
    assert 3**38 + 2 * 3**39 > 2**63
    assert (rep.distance, rep.vectors_examined) == (2, 3**40)
    assert rep.witness.entries == (0,) * n + tuple(x.tolist())


def test_ranks_past_2_64_are_refused(capsys, tmp_path):
    g = two_hubs(41)
    with pytest.raises(SearchTooLarge, match=r"p\*\*n = 3\*\*41 is not below 2\*\*64"):
        diagonal_distance(g, PrimeField(3), FORCE)
    rep = diagonal_distance(two_hubs(40), PrimeField(3), FORCE)  # 3**40 < 2**64
    assert rep.distance == 1
    path = tmp_path / "hubs41.eg"
    path.write_text(serialize(g))
    assert main(["distance", str(path), "--p", "3", "--force"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "diagdist: error: p**n = 3**41 is not below 2**64, the ranks that uint64 holds\n")


def chunk_spy(monkeypatch):
    """Spy on the weighers: the shape of every weight array they return."""
    shapes = []
    on_weigh(monkeypatch, lambda p, chunk, w: shapes.append(w.shape))
    return shapes


def random_graph(rng, n, p, kind):
    mult = np.zeros((n, n), dtype=np.int64)
    density = {"dense": 0.6, "sparse": 0.2, "isolated": 0.6}[kind]
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.randrange(1, 2 * p) if rng.random() < density else p * rng.randrange(2)
    if kind == "isolated":  # no edge mod p at one vertex: distance 1
        v = rng.randrange(n)
        mult[v, :] = mult[:, v] = 0
    return Multigraph(n, mult)


def distinct_rows(rng, n, p, r):
    rows = {}
    while len(rows) < min(r, p**n - 1):
        d = tuple(rng.randrange(p) for _ in range(n))
        if any(d):
            rows.setdefault(d, None)
    return [list(d) for d in rows]


def key(rep):
    return rep.distance, rep.witness.entries, rep.vectors_examined


def ref_key(g, f, d):
    distance, examined, entries = reference(g, f, np.array(d, dtype=np.int64))
    return distance, entries, examined


# block size -> the largest n fuzzed at p = 3, 5 and 7: a 2-candidate chunk costs what a 4096 one does
FUZZ = {1 << 1: (7, 4, 4), 1 << 3: (9, 6, 5), 1 << 12: (11, 7, 6)}


@pytest.mark.parametrize("block", sorted(FUZZ))
def test_odd_walk_matches_the_unpruned_odometer(monkeypatch, block):
    monkeypatch.setattr(D, "_BLOCK", block)
    shapes = chunk_spy(monkeypatch)
    rng = random.Random(9000 + block)
    kinds = set()
    for case in range(24):
        p = (3, 5, 7)[case % 3]
        top = FUZZ[block][case % 3]
        n = rng.randrange(1, top + 1) if case > 2 else top
        kind = ("dense", "sparse", "isolated")[case // 3 % 3]
        f = PrimeField(p)
        g = random_graph(rng, n, p, kind)
        search = D._searcher(g, f, FORCE)
        rows = distinct_rows(rng, n, p, 4)
        zero = [0] * n
        assert key(search(np.array(zero, dtype=np.int64))) == ref_key(g, f, zero), (block, p, n, kind)
        assert key(search(np.array(rows[0], dtype=np.int64))) == ref_key(g, f, rows[0]), (block, p, n, kind)
        want = [ref_key(g, f, d) for d in rows]
        assert [key(rep) for rep in search(np.array(rows, dtype=np.int64))] == want, (block, p, n, kind)
        stack = search(np.array([zero] + rows, dtype=np.int64))
        assert [key(rep) for rep in stack] == [ref_key(g, f, zero)] + want, (block, p, n, kind)
        kinds.add((kind, min(rep.distance for rep in stack)))
    assert shapes and max(s[-1] for s in shapes) <= block
    assert all(len(s) == 1 or s[0] <= 5 for s in shapes)  # rows first: at most the 5 rows searched
    assert any(len(s) == 2 and s[0] < 4 for s in shapes)  # a row whose best is below a level drops out
    assert {d for kind, d in kinds if kind == "isolated"} == {1}


def bands(a, n):
    """Levels a..n, each walked as band products."""
    return tuple((s, None) for s in range(a, n + 1))


def test_a_lone_level_is_one_table_while_its_walked_share_fits_a_block(monkeypatch):
    """A lone d = 0 at odd p weighs 1 / (p - 1) of each level, and the plan sizes its levels by that share.

    A level is one table while its walked share fits a block and the full
    level below it, which the table is built from, does too; every later
    level is band products.  At p = 7, n = 6 level 3 walks 720 of 4,320
    candidates, and level 4, 3,240 of 19,440, is built from the full level
    3, past a block.  Every run's table, and every table it is built
    from, fits a block.  The plans of a search that weighs every x, and
    those of the forced reach cases, whose first band level's share is
    past a block, are as before.
    """
    block = D._BLOCK
    assert block == 1 << 12
    cases = {  # (p, n, the level that becomes one table): the runs of the plan that weighs every x
        (7, 6, 3): ((0, 2),) + bands(3, 6),
        (3, 11, 4): ((0, 2), (3, 3)) + bands(4, 11),
        (3, 10, 5): ((0, 2), (3, 3), (4, 4)) + bands(5, 10),
    }
    for (p, n, s), runs in cases.items():
        lone, width = D._level_plan(n, p, block, True)
        assert D._level_plan(n, p, block, False) == (runs, width)
        assert lone == tuple((s, s) if run == (s, None) else run for run in runs)
        assert math.comb(n, s) * (p - 1) ** (s - 1) <= block < math.comb(n, s) * (p - 1) ** s
    assert D._level_plan(6, 7, block, True) == (((0, 2), (3, 3)) + bands(4, 6), 4)
    real, sizes = D._table, []

    def table(*args):
        t = real(*args)
        sizes.append(len(t[1]))
        return t

    clear_memos()
    monkeypatch.setattr(D, "_table", table)  # _table's recursion looks it up as a global: the recorder sees it
    for p, n, _ in cases:
        for a, b in D._level_plan(n, p, block, True)[0]:
            if b is not None:
                D._table(0, n, a, b, np.uint64, p, True)
    assert max(sizes) <= block
    for p, n, width in ((3, 20, 8), (3, 24, 8), (5, 14, 5), (5, 16, 5), (7, 12, 4)):
        want = ((0, 1), (2, 2)) + bands(3, n), width
        assert D._level_plan(n, p, block, True) == D._level_plan(n, p, block, False) == want, (p, n)
    # with p - 1 past the block the column table holds no multiples: the share is not taken
    assert D._level_plan(5, 11, 1 << 3, True) == D._level_plan(5, 11, 1 << 3, False)
    assert D._level_plan(1, 65521, block, True) == (((0, 0), (1, None)), 0)


def diag_oddp_graphs(seed, p, n):
    """The (p, n) graphs of the benchmark's diag-oddp workload at seed, drawn in the order bench/workloads.py draws them."""
    rng = random.Random(f"diag-oddp/{seed}")
    for q, sizes in ((3, [(17, 8), (17, 9), (6, 10), (4, 11)]), (5, [(20, 6), (6, 7)]), (7, [(26, 5), (4, 6)])):
        for count, m in sizes:
            for _ in range(count):
                g = drawn(rng, m, q)
                if (q, m) == (p, n):
                    yield g


def tie_prefix(g, p, a):
    """How many x of level a with top digit 1 a lone d = 0 search weighs, by brute force over every x.

    When the best of the x of top digit 1 below level a weighs a, only
    those ranked below its rank, the least among its ties; else all.
    """
    n = g.n
    ranks = np.arange(p**n)
    xs = ranks[:, None] // p ** np.arange(n) % p
    weights = np.count_nonzero(-xs @ g.mult.T % p | xs, axis=1)
    sizes = np.count_nonzero(xs, axis=1)
    tops = xs[ranks, n - 1 - np.argmax(xs[:, ::-1] != 0, axis=1)]
    below = (sizes > 0) & (sizes < a) & (tops == 1)
    best = weights[below].min()
    level = (sizes == a) & (tops == 1)
    if best > a:
        return int(level.sum())
    return int((level & (ranks < ranks[below & (weights == best)].min())).sum())


def test_a_lone_p7_n6_search_weighs_level_3_as_one_table(monkeypatch):
    """The p = 7, n = 6 graphs of diag-oddp (seed 1) weigh level 3 in one chunk, from one table.

    Levels 0..2 of top digit 1 (1 + 6 + 90) are one run and level 3's 720
    one table; as band products level 3 took 3 chunks and 6 gathered
    tables.  Distances 4, 3, 3, 3: each search ends after level 3.  Where
    levels 0..2 leave a best of weight 3, level 3 can only tie it, and
    weighs its x ranked below that best's rank.
    """
    shapes = chunk_spy(monkeypatch)
    gathered = []
    real = D._gamma_x

    def gamma_x(*args):
        gathered.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(D, "_gamma_x", gamma_x)
    distances, cuts = [], []
    for g in diag_oddp_graphs(1, 7, 6):
        shapes.clear()
        gathered.clear()
        distances.append(diagonal_distance(g, PrimeField(7)).distance)
        cuts.append(tie_prefix(g, 7, 3))
        assert shapes == [(97,), (cuts[-1],)]
        assert gathered == [(2, 97), (3, cuts[-1])]  # each x's nonzero digits: at most 2, then 3
    assert distances == [4, 3, 3, 3]
    assert cuts == [720, 36, 360, 60]  # the distance-4 graph weighs the whole level


# p -> vertex counts of the lone-search fuzz, and the digest of its reports recorded from the walk that
# sized every level by its full count, before a lone level was sized by its share of top digit 1
LONE_SIZES = {3: (1, 4, 7, 9, 10, 11, 12), 5: (1, 3, 5, 6, 7, 8, 9), 7: (2, 4, 5, 6, 7), 11: (1, 2, 3, 4, 5)}
LONE_DIGESTS = {3: "111c6815f3c9282c", 5: "3f70a4c49246b961", 7: "88e5539d72cf3ea9", 11: "805d17eee447ecbe"}


def lone_reports(p):
    """Two graphs per size, each searched alone: diagonal_distance, and a one-codeword code."""
    f = PrimeField(p)
    for n in LONE_SIZES[p]:
        rng = random.Random(f"lone/{p}/{n}")
        for _ in range(2):
            g = random_multigraph(rng, n, max_mult=p - 1)
            yield key(diagonal_distance(g, f, FORCE))
            yield key(code_distance(g, f, [[rng.randrange(p) for _ in range(n)]], FORCE).table[1, 1])


@pytest.mark.parametrize("block", [1 << 3, 1 << 6, 1 << 12])
@pytest.mark.parametrize("p", LONE_DIGESTS)
def test_lone_searches_reproduce_the_recorded_reports(monkeypatch, p, block):
    """Lone d = 0 searches, whose plans size levels by their share of top digit 1, report as before.

    At each block size some search walks a level that is one table only
    by that share, except at p = 11 and a block of 2**3, where p - 1 is
    past the block and the plan is the full one.  No table, nor any
    table it is built from, holds more than a block.
    """
    monkeypatch.setattr(D, "_BLOCK", block)
    clear_memos()
    shares, sizes = [], []
    real = D._table

    def table(*args):
        lo, hi, a, b, dt, q, one = args  # a band table (0, width) is not one: every level of its vertices fits
        if one and lo == 0 and a == b and (a, None) in D._level_plan(hi, q, block, False)[0]:
            shares.append(args)
        t = real(*args)
        sizes.append(len(t[1]))
        return t

    monkeypatch.setattr(D, "_table", table)
    digest = hashlib.sha256(repr(list(lone_reports(p))).encode()).hexdigest()[:16]
    assert digest == LONE_DIGESTS[p]
    assert bool(shares) == (p - 1 <= block)
    assert max(sizes) <= block


@pytest.mark.parametrize(
    "p, n, distance, x, z",
    [
        (3, 17, 5, (0, 1, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0), (0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0)),
        (7, 12, 5, (0, 0, 0, 6, 0, 0, 0, 3, 4, 0, 0, 1), (1, 0, 0, 3, 0, 0, 0, 3, 6, 0, 0, 1)),
        (5, 16, 6, (0, 2, 0, 0, 0, 0, 0, 0, 0, 4, 2, 4, 2, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 4, 0)),
    ],
)
def test_forced_reach_cases_report_as_before(p, n, distance, x, z):
    """Forced searches of the reach table's graphs (random.Random(1000 + n)), recorded before levels were sized by their share.

    p = 3, n = 17 walks level 3 as one table now (2,720 of 5,440); p = 7,
    n = 12 walks the same plan.  test_forced_p3_n20_reports_what_the_odometer_did
    pins n = 20.  p = 5, n = 16, recorded while the vertices above the two
    bands were walked in Python, needs three bands of 5 vertices above the
    first: the first default-block case where the blocks above the band at
    vertex 0 are band products themselves.
    """
    rep = diagonal_distance(uniform(n, p, 1000 + n), PrimeField(p), FORCE)
    assert (rep.distance, rep.vectors_examined) == (distance, p**n - 1)
    assert (rep.witness.x, rep.witness.z) == (x, z)


@pytest.mark.parametrize("p, n", [(5, 14), (7, 12)])
def test_band_levels_walk_full_chunks(monkeypatch, p, n):
    """The median chunk of a forced search's band levels holds at least half a block.

    The x above the band at vertex 0 come in blocks of up to _BLOCK, each
    taken _BLOCK // len(A) at a time, so few chunks are short.  While the
    vertices above the two bands were walked in Python, one chunk per
    value vector, the medians were 640 and 24 candidates, over 2,110 and
    2,081 chunks.
    """
    shapes = chunk_spy(monkeypatch)
    rep = diagonal_distance(uniform(n, p, 1000 + n), PrimeField(p), FORCE)
    runs = D._level_plan(n, p, D._BLOCK, True)[0]
    walked = [a for a, b in runs if b is None and a <= rep.distance]
    assert walked  # the search reaches band levels
    band = [shape[-1] for shape in shapes[sum(b is not None for a, b in runs) :]]  # the runs' chunks come first
    assert len(band) >= len(walked)
    assert sorted(band)[len(band) // 2] >= D._BLOCK // 2
