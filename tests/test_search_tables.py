"""The search tables, at the edges of their dtypes.

At p = 2 the masks are uint32 up to 32 vertices and uint64 above, so the
searches below set bit 31 and bit 32 and stop on their first candidate.
At odd p the residue tables reduce sums with an unsigned wrap instead of
% p, in uint8 and in uint16: every candidate they weigh must weigh what
the % p construction gives, and each level must hold every x of its
support size by odometer index, up to ranks past 2**63.  _bitmasks and
build_lambda must equal their plain reference constructions, and each
p = 2 level of subsets its rank-sorted subsets.  A search's tables must be
freed when it returns, with no reference cycle.
"""

import gc
import itertools
import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    PrimeField,
    SearchConfig,
    adjacency_matrix,
    code_distance,
    diagonal_distance,
    generate,
    pairwise_distance,
)
from diagdist import distance as D
from helpers import random_multigraph

FORCE = SearchConfig(force=True)


def handed_chunks(monkeypatch):
    """Spy on D._level_blocks: every (x, Gamma x, rows) chunk it is handed, in order."""
    real = D._level_blocks
    chunks = []

    def spy(*args):
        def recorded(order):
            for chunk in order:
                chunks.append(chunk)
                yield chunk

        yield from real(*args[:-1], recorded(args[-1]))

    monkeypatch.setattr(D, "_level_blocks", spy)
    return chunks


@pytest.mark.parametrize("n, width", [(32, np.uint32), (33, np.uint64)])
def test_unit_difference_at_the_top_vertex(monkeypatch, n, width):
    """d = e_n weighs 1 at x = 0: the top bit of the masks, found on the first candidate."""
    g = generate("cycle", n)
    f = PrimeField(2)
    chunks = handed_chunks(monkeypatch)
    e = np.zeros(n, dtype=np.int64)
    e[-1] = 1
    rep = pairwise_distance(g, f, e, np.zeros(n, dtype=np.int64), FORCE)
    assert (rep.distance, rep.vectors_examined) == (1, 1)
    assert rep.witness.entries == tuple(e.tolist()) + (0,) * n
    assert chunks and {(x.dtype, gz.dtype) for x, gz, _ in chunks} == {(np.dtype(width), np.dtype(width))}


def test_edgeless_graph_past_32_vertices():
    g = Multigraph(40, np.zeros((40, 40), dtype=np.int64))
    rep = diagonal_distance(g, PrimeField(2), FORCE)
    assert (rep.distance, rep.vectors_examined) == (1, 1)
    assert rep.witness.entries == (0,) * 40 + (1,) + (0,) * 39


def odd_chunks(monkeypatch):
    """Spy on D._residue_blocks: per chunk, its factors, its rows and the weights it yields."""
    real = D._residue_blocks
    seen = []

    def spy(d, p, chunks):
        handed = []

        def recorded():
            for chunk in chunks:
                handed.append(chunk)
                yield chunk

        for w, chunk in zip(real(d, p, recorded()), handed):  # the weigher takes each chunk before its weights
            seen.append((*chunk, w.copy()))
            yield w

    monkeypatch.setattr(D, "_residue_blocks", spy)
    return seen


def modular_weights(gamma, p, d, w):
    """{(support bitmask, weight): count} over every x with at most w nonzero digits, by % p in int64."""
    n = len(gamma)
    out = {}
    for s in range(w + 1):
        for support in itertools.combinations(range(n), s):
            xs = np.zeros(((p - 1) ** s, n), dtype=np.int64)
            if s:
                xs[:, support] = np.array(list(itertools.product(range(1, p), repeat=s)))
            z = (d - xs @ gamma.T) % p
            weights = np.count_nonzero(z | xs, axis=1)
            mask = sum(1 << v for v in support)
            for weight, count in zip(*np.unique(weights, return_counts=True)):
                out[mask, int(weight)] = out.get((mask, int(weight)), 0) + int(count)
    return out


@pytest.mark.parametrize(
    "p, n, block",
    [(3, 9, None), (5, 6, None), (7, 5, None), (11, 4, None), (131, 3, 131**2), (257, 3, 257**2)],
)
def test_odometer_table_equals_the_modular_one(monkeypatch, p, n, block):
    """Every candidate the residue tables weigh, in odometer order, weighs what % p gives.

    A stack of four differences, each with two nonzero entries, so no row
    walks past level 2; at p = 131 and 257, level 2 is a product of two
    band tables.  Per row, the supports weighed and their weights must be
    those of every x with at most w* nonzero digits.
    """
    if block is not None:
        monkeypatch.setattr(D, "_BLOCK", block)
    f = PrimeField(p)
    rng = random.Random(p)
    gamma = adjacency_matrix(random_multigraph(rng, n, max_mult=2 * p), f)
    rows = {}
    while len(rows) < 4:
        d = [0] * n
        for v in rng.sample(range(n), 2):
            d[v] = rng.randrange(1, p)
        rows.setdefault(tuple(d), None)
    stack = np.array(list(rows), dtype=np.int64)
    seen = odd_chunks(monkeypatch)
    reps = D._searcher(Multigraph(n, gamma), f, SearchConfig(force=True))(stack)
    dt = np.min_scalar_type(4 * p)
    assert dt == (np.uint8 if p < 64 else np.uint16)
    got = [{} for _ in stack]
    bits = 1 << np.arange(n)
    for lo, hi, live, w in seen:
        assert lo.dtype == dt and (hi is None or hi.dtype == dt)
        assert w.shape[-1] <= D._BLOCK
        high = [0] if hi is None else ((hi >= 2 * p).T @ bits).tolist()
        masks = [h | x for h in high for x in ((lo == p).T @ bits).tolist()]
        for r, weights in zip(live, w.tolist()):
            for pair in zip(masks, weights):
                got[r][pair] = got[r].get(pair, 0) + 1
    for r, rep in enumerate(reps):
        assert rep.distance <= 2
        assert got[r] == modular_weights(gamma, p, stack[r], rep.distance), (p, r)


@pytest.mark.parametrize("lo, hi, p", [(0, 0, 3), (0, 5, 3), (2, 6, 5), (3, 6, 7), (1, 3, 131), (36, 40, 3)])
def test_odd_levels_hold_every_x_by_odometer_index(lo, hi, p):
    """Each level is its x sorted by t = sum x_j p**j, and src and vertex rebuild it.

    (36, 40) at p = 3 holds ranks past 2**63, up to 3**40 - 1.  With one,
    a level holds only the x whose top digit is 1.
    """
    k = hi - lo
    for s in range(k + 1):
        for one in (False, True):
            masks, ranks, src, vertex = D._level(lo, hi, s, np.uint64, p, one)
            want = []
            for support in itertools.combinations(range(lo, hi), s):
                for digits in itertools.product(range(1, p), repeat=s):
                    if not (one and s and digits[-1] != 1):
                        want.append((sum(v * p**j for j, v in zip(support, digits)), support))
            want.sort()
            assert ranks.dtype == np.uint64
            assert ranks.tolist() == [t for t, _ in want]
            assert masks.shape == (k, len(want))
            assert [tuple(lo + np.flatnonzero(col)) for col in masks.T] == [sup for _, sup in want]
            if s == 0:
                continue
            below = D._level(lo, hi, s - 1, np.uint64, p)[1].tolist()
            for t, i, col in zip(ranks.tolist(), src.tolist(), vertex.tolist()):
                j, v = divmod(col, p - 1)
                assert t == below[i] + (v + 1) * p**j and below[i] < p**j


def folded_masks(a):
    """Each row of a as a Python int, bit j set where entry j is nonzero."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in np.atleast_2d(a).tolist()]


@pytest.mark.parametrize("n", [1, 31, 32, 33, 62, 63])
def test_bitmasks_equal_a_python_fold(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, 3, size=(5, n))
    a[0] = 0
    a[1] = 1  # every bit, the top one included
    assert D._bitmasks(a) == folded_masks(a)
    assert all(type(v) is int for v in D._bitmasks(a))
    for row in a:
        got = D._bitmasks(row)
        assert type(got) is int and [got] == folded_masks(row)


@pytest.mark.parametrize("n", [1, 5, 64])
def test_build_lambda_equals_identity_then_gamma(n):
    gamma = np.random.default_rng(n).integers(0, 7, size=(n, n))
    want = np.concatenate([np.eye(n, dtype=np.int64), gamma], axis=1)
    lam = D.build_lambda(gamma)
    assert lam.dtype == want.dtype == np.int64
    assert lam.shape == (n, 2 * n)
    assert np.array_equal(lam, want)


def test_build_lambda_shape_error_is_unchanged():
    with pytest.raises(ValueError, match=r"adjacency block must be square, got shape \(2, 3\)"):
        D.build_lambda(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"adjacency block must be square, got shape \(4,\)"):
        D.build_lambda(np.zeros(4))


def block_spy(monkeypatch):
    """Record the shape of every block the two generators yield."""
    shapes = []
    for name in ("_level_blocks", "_residue_blocks"):

        def spy(*args, real=getattr(D, name)):
            for w in real(*args):
                shapes.append(w.shape)
                yield w

        monkeypatch.setattr(D, name, spy)
    return shapes


def report_key(rep):
    return (rep.distance, rep.witness.entries, rep.vectors_examined)


@pytest.mark.parametrize("p, n", [(2, 13), (3, 8), (5, 5)])
def test_switching_the_block_size_in_one_process(monkeypatch, p, n):
    """The memoized tables follow _BLOCK: each search equals a fresh one, block shapes included."""
    rng = random.Random(n)
    f = PrimeField(p)
    g = random_multigraph(rng, n, max_mult=p - 1)
    words = [np.array([rng.randrange(p) for _ in range(n)]) for _ in range(3)]
    shapes = block_spy(monkeypatch)

    def searches():
        shapes.clear()
        res = code_distance(g, f, words)
        reps = [diagonal_distance(g, f), pairwise_distance(g, f, words[0], words[1])]
        return [report_key(r) for r in reps + list(res.table.values())], list(shapes)

    def fresh(block):
        monkeypatch.setattr(D, "_BLOCK", block)
        D._powers.cache_clear()
        D._patterns.cache_clear()
        D._level_plan.cache_clear()
        return searches()

    want = {block: fresh(block) for block in (1 << 3, 1 << 12)}
    assert want[1 << 3][0] == want[1 << 12][0]  # the block size never shows in a report
    assert max(s[-1] for s in want[1 << 3][1]) <= 1 << 3 < max(s[-1] for s in want[1 << 12][1])
    D._powers.cache_clear()
    D._patterns.cache_clear()
    D._level_plan.cache_clear()
    for block in (1 << 12, 1 << 3, 1 << 12):
        monkeypatch.setattr(D, "_BLOCK", block)
        assert searches() == want[block]


def test_memoized_tables_are_shared_and_read_only(monkeypatch):
    f = PrimeField(2)
    chunks = handed_chunks(monkeypatch)
    diagonal_distance(generate("cycle", 6), f)
    diagonal_distance(generate("complete", 6), f)
    masks, ranks, order = D._patterns(0, 6, 0, 6, np.uint32)  # n = 6: every level in one table
    assert len(chunks) == 2 and all(x is masks for x, _, _ in chunks)  # shared by both graphs
    assert D._patterns(0, 6, 0, 6, np.uint32)[1] is ranks
    level = D._level(0, 6, 2, np.uint32)
    assert D._level(0, 6, 2, np.uint32)[0] is level[0]
    powers = D._powers(3)
    assert powers.tolist() == [3**j for j in range(41)]  # 3**40 < 2**64 < 3**41
    for a in (masks, ranks, order, *level, powers, powers[:5]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def gray_rank(x):
    """gray^-1(x): the t with t ^ (t >> 1) == x."""
    t = 0
    while x:
        t ^= x
        x >>= 1
    return t


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 1), (0, 7), (3, 11), (24, 32), (27, 35)])
def test_levels_hold_every_subset_by_gray_rank(lo, hi):
    """Each level is its subsets sorted by Gray rank, and src and vertex rebuild it.

    (24, 32) sets bit 31 of uint32, whose rank 2**32 - 1 wraps in the
    shift; (27, 35) crosses into uint64.
    """
    dt = np.uint32 if hi <= 32 else np.uint64
    k = hi - lo
    for s in range(k + 1):
        masks, ranks, src, vertex = D._level(lo, hi, s, dt)
        subsets = [sum(1 << v for v in c) for c in itertools.combinations(range(lo, hi), s)]
        want = sorted((gray_rank(x), x) for x in subsets)
        assert masks.dtype == ranks.dtype == dt
        assert ranks.tolist() == [t for t, _ in want]
        assert masks.tolist() == [x for _, x in want]
        if s == 0:
            continue
        if 2 * s > k:  # the complements of level k - s
            assert vertex is None
            other = D._level(lo, hi, k - s, dt)[0].tolist()
            assert masks.tolist() == [other[i] ^ (1 << hi) - (1 << lo) for i in src.tolist()]
        else:  # level s - 1 plus a vertex above its top one
            below = D._level(lo, hi, s - 1, dt)[0].tolist()
            for x, i, v in zip(masks.tolist(), src.tolist(), vertex.tolist()):
                assert x == below[i] | 1 << v and 1 << v > below[i]


def test_searches_leave_no_reference_cycles():
    """A search's per-graph tables are freed when it returns, not when the collector runs.

    A nested function of the searcher that calls itself is a reference
    cycle: it kept each search's tables alive until the next collection,
    and the benchmark's peak memory grew with the number of passes.
    """
    rng = random.Random(8)
    n = 12
    gc.collect()
    gc.disable()
    try:
        for p in (2, 3):
            f = PrimeField(p)
            g = random_multigraph(rng, n if p == 2 else 6, max_mult=p)
            diagonal_distance(g, f)
            words = [np.array([rng.randrange(p) for _ in range(g.n)]) for _ in range(4)]
            code_distance(g, f, words)
        edgeless = Multigraph(n, np.zeros((n, n), dtype=np.int64))  # every level, the complements too
        pairwise_distance(edgeless, PrimeField(2), np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
        assert gc.collect() == 0
    finally:
        gc.enable()
