"""Shared fixtures for the test suite: random graphs and known 5-cycle values."""

import itertools

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


def rank(x, p: int) -> int:
    """The rank of x in the search's fixed order: the Gray rank gray^-1(x) at p = 2, the odometer index at odd p."""
    if p > 2:
        return sum(int(v) * p**j for j, v in enumerate(x))
    t, mask = 0, sum(1 << j for j, v in enumerate(x) if v)
    while mask:  # gray^-1: the XOR of every right shift
        t, mask = t ^ mask, mask >> 1
    return t


def support(t: int, p: int) -> int:
    """The support of the x of rank t, as a bitmask: the Gray code t ^ t >> 1 at p = 2, t's nonzero digits at odd p."""
    if p == 2:
        return t ^ t >> 1
    mask, j = 0, 0
    while t:
        t, v = divmod(t, p)
        mask |= (v != 0) << j
        j += 1
    return mask


def last_level(rep, p: int) -> int:
    """The last support level a search walks to reach rep, when no chunk of that level holds the witness.

    Only level w* = rep.distance can tie the best weight, and a tie must
    have a lower rank to win, so the walk skips level w* when the
    witness's rank is below the least rank of level w*, that of the x
    with digit 1 at vertices 0 .. w* - 1: the Gray rank at p = 2, the
    odometer index at odd p.
    """
    w = rep.distance
    return w - (rank(rep.witness.x, p) < rank([1] * w, p))


def on_weigh(monkeypatch, see):
    """Wrap both weighers, D._level_blocks and D._residue_blocks, so that each call, one chunk, also calls see.

    see(p, chunk, w) gets the prime, the chunk as the weigher takes it,
    (x, Gamma x, rows) at p = 2 and (lo, hi, rows) at odd p, and the
    weights the weigher returns, which the walk reads next: see may record
    them, or write into w to forge them.  Every spy on a chunk and every
    forged weight goes through this one wrapper.
    """
    real_level, real_residue = D._level_blocks, D._residue_blocks

    def level(d, x, gz, rows):
        w = real_level(d, x, gz, rows)
        see(2, (x, gz, rows), w)
        return w

    def residue(d, p, lo, hi, rows):
        w = real_residue(d, p, lo, hi, rows)
        see(p, (lo, hi, rows), w)
        return w

    monkeypatch.setattr(D, "_level_blocks", level)
    monkeypatch.setattr(D, "_residue_blocks", residue)


def on_search(monkeypatch, see):
    """Wrap D._searcher so that each call of the search it returns, one walk, first calls see(d) with its difference."""
    real = D._searcher

    def searcher(g, f, cfg):
        search = real(g, f, cfg)

        def spy(d):
            see(d)
            return search(d)

        return spy

    monkeypatch.setattr(D, "_searcher", searcher)


def odd_supports(p, lo, hi):
    """The support of each candidate of an odd-p chunk as a bitmask, high-major.

    The low factor holds p where x_lo is nonzero, and the high factor 2p
    to 3p where x_hi is nonzero (None for the one x_hi = 0).
    """
    bits = 1 << np.arange(len(lo))
    high = [0] if hi is None else ((hi >= 2 * p).T @ bits).tolist()
    return [h | x for h in high for x in ((lo == p).T @ bits).tolist()]


def walk_log(monkeypatch):
    """Spy on the walks of the searches that follow: a list of what each does, in order, for replay.

    ("level", a) when the walk starts band level a (D._bands from vertex
    0); ("block", rh, r0, step) when it takes a block of the x above the
    band, of ranks rh, to weigh step of them at a time against the band
    table of ranks r0; and ("chunk", chunk, w) for each chunk the walk
    weighs, as the weigher takes it, with the weights the walk then reads.
    """
    log = []
    real_bands = D._bands

    def blocks(above, r0, step):
        for block in above:
            log.append(("block", block[1].tolist(), r0.tolist(), step))
            yield block

    def bands(pieces, n, p, w, lo, s, one):
        if lo:  # the band products above the band (_blocks)
            yield from real_bands(pieces, n, p, w, lo, s, one)
            return
        log.append(("level", s))
        for j, band, step, above in real_bands(pieces, n, p, w, lo, s, one):
            yield j, band, step, blocks(above, band[1], step)

    monkeypatch.setattr(D, "_bands", bands)
    on_weigh(monkeypatch, lambda p, chunk, w: log.append(("chunk", chunk, w)))
    return log


def gray_ranks(x):
    """gray^-1 of each mask of an unsigned array: the XOR of every right shift."""
    t = x.astype(np.uint64)
    for s in (1, 2, 4, 8, 16, 32):
        t ^= t >> np.uint64(s)
    return t


def replay(log, r, n, p, one=False):
    """Check each chunk of a logged walk of r rows against the stop rule, and return what each row weighed.

    Before a chunk of level a, exactly the rows whose best may still beat
    the chunk's least rank are handed (a lone d must be one): best weight
    above a, or a at a rank above that least.  A one-table run's least is
    its level's least rank (D._least_rank), and a band slice's its first
    candidate's: its first x above the band joined with the band table's
    first, which _bands reverses at p = 2 when that x has odd weight.
    When every row left weighs a, a one-table run holds just
    its x ranked below their greatest best rank.  A block of the x above
    the band that stops before its last slice leaves no row for that
    slice.  The ranks given to a chunk must be its candidates': their Gray
    ranks at p = 2, their supports at odd p.

    Returns each row's best weight and least rank among its ties, the
    (rank, weight) of every candidate each row weighed, and counts of the
    runs cut ("cut"), of the blocks stopped before their last slice
    ("stopped") and of the band chunks handing fewer rows than the chunk
    before them in their level ("dropped").
    """
    runs = D._level_plan(n, p, D._BLOCK, one)[0]
    dt = np.uint32 if p == 2 and n <= 32 else np.uint64
    best_w, best_t = [n + 1] * r, [0] * r
    weighed = [[] for _ in range(r)]
    stats = dict.fromkeys(("cut", "stopped", "dropped"), 0)
    plan, level, block, handed = iter(runs), None, None, None

    def left(a, least):
        return [i for i in range(r) if best_w[i] > a or best_w[i] == a and best_t[i] > least]

    def slice_least(i):
        rh, r0, step, _ = block
        return rh[i * step] ^ r0[0] if p == 2 else rh[i * step] + r0[0]

    def stopped():  # the block before: if it stopped before its last slice, no row was left for that slice
        if block is not None and block[3] * block[2] < len(block[0]):
            assert not left(level, slice_least(block[3])), level
            stats["stopped"] += 1

    for event in log:
        if event[0] != "chunk":
            stopped()
            level, block, handed = (event[1], None, None) if event[0] == "level" else (level, [*event[1:], 0], handed)
            continue
        chunk, w = event[1:]
        if level is None:  # a one-table run
            a, b = next(plan)
            rows = left(a, D._least_rank(p, a))
            ranks = D._table(0, n, a, b, dt, p, one)[1].tolist()
            if max(best_w) == a:  # every row left can only tie
                below = max(best_t[i] for i in rows)
                stats["cut"] += ranks[-1] >= below
                ranks = [t for t in ranks if t < below]
        else:
            a, (rh, r0, step, i) = level, block
            rows = left(a, slice_least(i))
            ranks = [h ^ t if p == 2 else h + t for h in rh[i * step : (i + 1) * step] for t in r0]
            block[3] += 1
            stats["dropped"] += handed is not None and len(rows) < handed
            handed = len(rows)
        assert rows and (chunk[-1] is None and rows == [0] or chunk[-1] is not None and chunk[-1].tolist() == rows), a
        if p == 2:
            assert gray_ranks(chunk[0]).tolist() == ranks, a
        else:
            assert odd_supports(p, chunk[0], chunk[1]) == [support(t, p) for t in ranks], a
        for row, ws in zip(rows, np.reshape(w, (len(rows), -1)).tolist()):
            weighed[row] += zip(ranks, ws)
            k = ws.index(min(ws))
            if ws[k] < best_w[row] or ws[k] == best_w[row] and ranks[k] < best_t[row]:
                best_w[row], best_t[row] = ws[k], ranks[k]
    stopped()
    return best_w, best_t, weighed, stats


def every_x(n, p, w, one=False):
    """{rank: support size} of every x on n vertices with at most w nonzero digits (with one, nonzero top digit 1)."""
    out = {}
    for s in range(w + 1):
        for vertices in itertools.combinations(range(n), s):
            for values in itertools.product(range(1, p), repeat=s):
                if not (one and s and values[-1] != 1):
                    x = [0] * n
                    for j, v in zip(vertices, values):
                        x[j] = v
                    out[rank(x, p)] = s
    return out


def assert_walk_covers(weighed, rep, n, p, one=False):
    """A row's weighed ranks: each once, every x below its last level, and of it every x ranked below the witness.

    Those are the candidates that may beat or tie the report.  No x above
    the last level is weighed, but those of the first run, levels 0..b of
    one table, which every row weighs.
    """
    ranks = [t for t, _ in weighed]
    last, witness = last_level(rep, p), rank(rep.witness.x, p)
    every = every_x(n, p, max(last, D._level_plan(n, p, D._BLOCK, one)[0][0][1]), one)
    assert len(ranks) == len(set(ranks)) and set(ranks) <= set(every)
    assert {t for t, s in every.items() if s < last or t < witness} <= set(ranks)


def clear_memos():
    """Empty the search's process-wide memos, so the next search builds every table it uses afresh."""
    for memo in (D._table, D._level_plan, D._powers, D._pairs, D._multiples):
        memo.cache_clear()
