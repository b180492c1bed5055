"""The search tables, at the edges of their dtypes.

At p = 2 the masks are uint32 up to 32 vertices and uint64 above, so the
searches below set bit 31 and bit 32 and stop on their first candidate.
At odd p the residue tables reduce sums with an unsigned wrap instead of
% p, in uint8 and in uint16: every candidate they weigh must weigh what
the % p construction gives, and each level must hold every x of its
support size by odometer index, up to ranks past 2**63.  The column
tables and build_lambda must equal their plain reference constructions,
the product tables behind the column tables must stay small, and each
p = 2 level of subsets its rank-sorted subsets.  Every table's digit
columns must give back its x, and every caller must ask for a table by
one key.  A search's tables must be freed when it returns, with no
reference cycle.
"""

import gc
import inspect
import itertools
import math
import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    PrimeField,
    adjacency_matrix,
    brute_force_distance,
    code_distance,
    diagonal_distance,
    generate,
    pairwise_distance,
)
from diagdist import distance as D
from helpers import (
    assert_walk_covers,
    clear_memos,
    last_level,
    on_weigh,
    random_multigraph,
    rank,
    replay,
    support,
    walk_log,
)
from test_oddp_walk import uniform



def handed_chunks(monkeypatch):
    """Spy on the p = 2 weigher: every (x, Gamma x, rows) chunk it is handed, in order."""
    chunks = []
    on_weigh(monkeypatch, lambda p, chunk, w: chunks.append(chunk))
    return chunks


@pytest.mark.parametrize("n, width", [(32, np.uint32), (33, np.uint64)])
def test_unit_difference_at_the_top_vertex(monkeypatch, n, width):
    """d = e_n weighs 1 at x = 0: the top bit of the masks, found on the first candidate."""
    g = generate("cycle", n)
    f = PrimeField(2)
    chunks = handed_chunks(monkeypatch)
    e = np.zeros(n, dtype=np.int64)
    e[-1] = 1
    rep = pairwise_distance(g, f, e, np.zeros(n, dtype=np.int64), force=True)
    assert (rep.distance, rep.vectors_examined) == (1, 1)
    assert rep.witness.entries == tuple(e.tolist()) + (0,) * n
    assert chunks and {(x.dtype, gz.dtype) for x, gz, _ in chunks} == {(np.dtype(width), np.dtype(width))}


def test_edgeless_graph_past_32_vertices():
    g = Multigraph(40, np.zeros((40, 40), dtype=np.int64))
    rep = diagonal_distance(g, PrimeField(2), force=True)
    assert (rep.distance, rep.vectors_examined) == (1, 1)
    assert rep.witness.entries == (0,) * 40 + (1,) + (0,) * 39


def odd_chunks(monkeypatch):
    """Spy on the odd-p weigher: per chunk, its factors (lo, hi), its rows and the weights it returns."""
    seen = []
    on_weigh(monkeypatch, lambda p, chunk, w: seen.append((*chunk, w.copy())))
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


def modular_counts(gamma, p, d, ranks):
    """{(support bitmask, weight): count} over the x of the given odometer indices, by % p in int64."""
    n = len(gamma)
    xs = np.array(ranks, dtype=np.int64)[:, None] // p ** np.arange(n) % p
    weights = np.count_nonzero((d - xs @ gamma.T) % p | xs, axis=1)
    out = {}
    for pair in zip(((xs != 0) @ (1 << np.arange(n))).tolist(), weights.tolist()):
        out[pair] = out.get(pair, 0) + 1
    return out


@pytest.mark.parametrize(
    "p, n, block",
    [(3, 9, None), (5, 6, None), (7, 5, None), (11, 4, None), (131, 3, 131**2), (257, 3, 257**2)],
)
def test_odometer_table_equals_the_modular_one(monkeypatch, p, n, block):
    """Every candidate the residue tables weigh, in odometer order, weighs what % p gives.

    A stack of four differences, each with three nonzero entries, so x = 0
    weighs 3 at rank 0 and no row walks past level 2.  Vertex 0 is
    isolated, so the x on vertex 0 alone, of ranks below p, weigh 3 too,
    and rows walk level 2 (at p = 131 and 257 a product of two band
    tables).  Per row, the supports weighed and their weights must be
    those of every x below the last level weighed, which is no lower than
    helpers.last_level gives, and of that level those of the x the walk's
    replay gives the row (helpers.replay): the ones that may tie its best.
    """
    if block is not None:
        monkeypatch.setattr(D, "_BLOCK", block)
    f = PrimeField(p)
    rng = random.Random(p)
    gamma = adjacency_matrix(random_multigraph(rng, n, max_mult=2 * p), f)
    gamma[0, :] = gamma[:, 0] = 0
    rows = {}
    while len(rows) < 4:
        d = [0] * n
        for v in rng.sample(range(n), 3):
            d[v] = rng.randrange(1, p)
        rows.setdefault(tuple(d), None)
    stack = np.array(list(rows), dtype=np.int64)
    seen = odd_chunks(monkeypatch)
    log = walk_log(monkeypatch)
    reps = D._searcher(Multigraph(n, gamma), f, True)(stack)
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
    levels = [max(bin(mask).count("1") for mask, _ in weighed) for weighed in got]  # the last level weighed
    assert max(levels) == 2
    best_w, best_t, weighed, _ = replay(log, len(stack), n, p)
    for r, rep in enumerate(reps):
        assert last_level(rep, p) <= levels[r]
        assert (best_w[r], best_t[r]) == (rep.distance, rank(rep.witness.x, p))
        assert_walk_covers(weighed[r], rep, n, p)
        lower = {pair: count for pair, count in got[r].items() if bin(pair[0]).count("1") < levels[r]}
        assert lower == modular_weights(gamma, p, stack[r], levels[r] - 1), (p, r)
        assert got[r] == modular_counts(gamma, p, stack[r], [t for t, _ in weighed[r]]), (p, r)


@pytest.mark.parametrize("lo, hi, p", [(0, 0, 3), (0, 5, 3), (2, 6, 5), (3, 6, 7), (1, 3, 131), (36, 40, 3)])
def test_odd_levels_hold_every_x_by_odometer_index(lo, hi, p):
    """Each level is its x sorted by t = sum x_j p**j, and its digit columns give back each x.

    (36, 40) at p = 3 holds ranks past 2**63, up to 3**40 - 1.  With one,
    a level holds only the x whose top digit is 1.
    """
    k = hi - lo
    for s in range(k + 1):
        for one in (False, True):
            masks, ranks, columns = D._table(lo, hi, s, s, np.uint64, p, one)
            want = []
            for support in itertools.combinations(range(lo, hi), s):
                for digits in itertools.product(range(1, p), repeat=s):
                    if not (one and s and digits[-1] != 1):
                        want.append((sum(v * p**j for j, v in zip(support, digits)), support))
            want.sort()
            assert ranks.dtype == np.uint64
            assert ranks.tolist() == [t for t, _ in want]
            assert masks.shape == ((k, len(want)) if not lo else (len(want),))
            assert [tuple(lo + np.flatnonzero(col)) for col in mask_rows(masks, lo, hi).T] == [sup for _, sup in want]
            digits = held_digits(columns, s, p)
            assert [sum(v * p**j for j, v in x) for x in digits] == ranks.tolist()
            assert [tuple(j for j, _ in x) for x in digits] == [sup for _, sup in want]


def mask_rows(masks, lo, hi):
    """An odd-p table's masks as bool rows, row j - lo for vertex j: as held from vertex 0, decoded above it.

    From vertex 0 a table holds bool rows of shape (hi, len), which the
    weigher's low factor is marked through; above vertex 0 it holds int64
    bitmask supports, bit j set where x_j != 0.
    """
    if not lo:
        assert masks.dtype == bool
        return masks
    assert masks.dtype == np.int64 and masks.ndim == 1
    return (masks[None, :] >> np.arange(lo, hi)[:, None] & 1).astype(bool)


def held_digits(columns, s, p):
    """Each x's (vertex, digit) pairs, from its column entries 1 + j (p - 1) + v - 1, after the zero padding.

    columns must hold max(s, 1) rows of intp, each x with s nonzero
    entries, padded with 0 only at the front.
    """
    assert columns.dtype == np.intp and len(columns) == max(s, 1)
    out = []
    for col in columns.T.tolist():
        pad = len(col) - s
        assert col[:pad] == [0] * pad and all(col[pad:])
        out.append([(j, v + 1) for j, v in (divmod(c - 1, p - 1) for c in col[pad:])])
    return out


# every run and level a..b of every range lo..hi up to 8 vertices with p**(hi - lo) <= 2**10: 1,182 cases
RUNS = [
    (lo, hi, a, b, np.uint32 if p == 2 else np.uint64, p)
    for p in (2, 3, 5, 7)
    for lo in range(8)
    for hi in range(lo + 1, 9)
    if p ** (hi - lo) <= 1 << 10
    for b in range(hi - lo + 1)
    for a in range(b + 1)
]


@pytest.mark.parametrize("lo, hi, a, b, dt, p", [*RUNS, (3, 11, 1, 4, np.uint32, 2)])
def test_a_run_is_its_levels_in_rank_order(lo, hi, a, b, dt, p):
    """A run of levels a..b holds their x by rank, each with its level's columns padded at the front to b rows.

    So does each run of top digit 1 (one), whose levels s >= 1 hold only
    the x whose top digit is 1.  Its masks are bool rows at odd p from
    vertex 0 and bitmasks otherwise, of dtype dt at p = 2 and int64 at odd p.
    """
    rows = p > 2 and not lo
    for one in (False, True):
        masks, ranks, columns = D._table(lo, hi, a, b, dt, p, one)
        want = []
        for s in range(a, b + 1):
            m, r, c = D._table(lo, hi, s, s, dt, p, one)
            padded = np.concatenate((np.zeros((max(b, 1) - len(c), c.shape[1]), dtype=np.intp), c))
            want += zip(r.tolist(), (m.T if rows else m).tolist(), padded.T.tolist())
        want.sort()
        assert ranks.dtype == dt and masks.dtype == (bool if rows else dt if p == 2 else np.int64)
        assert ranks.tolist() == [t for t, _, _ in want]
        assert (masks.T if rows else masks).tolist() == [x for _, x, _ in want]
        assert columns.dtype == np.intp and columns.T.tolist() == [c for _, _, c in want]


def folded_masks(a):
    """Each row of a as a Python int, bit j set where entry j is nonzero."""
    return [sum(1 << j for j, v in enumerate(row) if v) for row in np.atleast_2d(a).tolist()]


@pytest.mark.parametrize("n", [1, 31, 32, 33, 63])
def test_gf2_column_table_holds_the_bitmasks_of_the_columns(n):
    """0, then column j's mask at 1 + j, in uint32 up to 32 vertices and uint64 above."""
    gamma = np.random.default_rng(n).integers(0, 2, size=(n, n))
    gamma[-1] = 1  # the top bit in every column
    dt = np.uint32 if n <= 32 else np.uint64
    colv = D._column_table(gamma, 2, dt)
    assert colv.dtype == dt
    assert colv.tolist() == [0] + folded_masks(gamma.T)


@pytest.mark.parametrize("p", [3, 5, 7, 61, 67, 257])
def test_odd_p_column_table_holds_every_multiple_of_every_column(p):
    """[0; v Gamma[:, j] mod p for j, then v, ascending], in the weighers' dtype: uint8 up to p = 61, uint16 above."""
    n = 3 if p > 100 else 5
    gamma = np.random.default_rng(p).integers(0, p, size=(n, n))  # not symmetric: the columns are Gamma's
    gamma[-1] = p - 1
    want = [[0] * n] + [(v * gamma[:, j] % p).tolist() for j in range(n) for v in range(1, p)]
    dt = np.min_scalar_type(4 * p)
    colv = D._column_table(gamma, p, dt)
    assert colv.dtype == dt == (np.uint8 if p <= 61 else np.uint16)
    assert colv.tolist() == want


def test_no_multiples_past_the_block():
    """At p - 1 > _BLOCK only level 0 is gathered: the column table is its zero row."""
    p = 65521
    colv = D._column_table(np.array([[0]]), p, np.min_scalar_type(4 * p))
    assert colv.shape == (1, 1) and not colv.any()


def test_product_tables_stay_small():
    """_multiples holds a table only for p < 2**8, each at most 128 KiB, so its memo stays within 1 MiB."""
    clear_memos()
    for p in (257, 65521):
        diagonal_distance(generate("path", 2), PrimeField(p), force=True)
    assert D._multiples.cache_info().currsize == 0
    rep = diagonal_distance(generate("path", 2), PrimeField(251))
    assert rep.distance == 2 and D._multiples.cache_info().currsize == 1
    assert D._multiples(251).nbytes <= 1 << 17
    assert D._multiples.cache_info().maxsize * (1 << 17) <= 1 << 20


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
    """Record the shape of every block the two weighers return."""
    shapes = []
    on_weigh(monkeypatch, lambda p, chunk, w: shapes.append(w.shape))
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
        clear_memos()
        return searches()

    want = {block: fresh(block) for block in (1 << 3, 1 << 12)}
    assert want[1 << 3][0] == want[1 << 12][0]  # the block size never shows in a report
    assert max(s[-1] for s in want[1 << 3][1]) <= 1 << 3 < max(s[-1] for s in want[1 << 12][1])
    clear_memos()
    for block in (1 << 12, 1 << 3, 1 << 12):
        monkeypatch.setattr(D, "_BLOCK", block)
        assert searches() == want[block]


def test_memoized_tables_are_shared_and_read_only(monkeypatch):
    f = PrimeField(2)
    chunks = handed_chunks(monkeypatch)
    diagonal_distance(generate("cycle", 6), f)
    diagonal_distance(generate("complete", 6), f)
    masks, ranks, columns = D._table(0, 6, 0, 6, np.uint32, 2, False)  # n = 6: every level in one table
    assert len(chunks) == 2 and all(x is masks for x, _, _ in chunks)  # shared by both graphs
    assert D._table(0, 6, 0, 6, np.uint32, 2, False)[1] is ranks
    assert D._table(0, 6, 0, 6, np.uint32, 2, False)[2] is columns
    level = D._table(0, 6, 2, 2, np.uint32, 2, False)
    assert D._table(0, 6, 2, 2, np.uint32, 2, False)[0] is level[0]
    powers = D._powers(3)
    assert powers.tolist() == [3**j for j in range(41)]  # 3**40 < 2**64 < 3**41
    pairs, first, second = D._pairs(4)
    assert D._pairs(4)[1] is first
    for a in (masks, ranks, columns, *level, powers, powers[:5], first, second):
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
    """Each level is its subsets sorted by Gray rank, and its digit columns give back each subset.

    (24, 32) sets bit 31 of uint32, whose rank is 2**32 - 1; (27, 35)
    crosses into uint64.
    """
    dt = np.uint32 if hi <= 32 else np.uint64
    for s in range(hi - lo + 1):
        masks, ranks, columns = D._table(lo, hi, s, s, dt, 2, False)
        subsets = [sum(1 << v for v in c) for c in itertools.combinations(range(lo, hi), s)]
        want = sorted((gray_rank(x), x) for x in subsets)
        assert masks.dtype == ranks.dtype == dt
        assert ranks.tolist() == [t for t, _ in want]
        assert masks.tolist() == [x for _, x in want]
        held = [sum(1 << j for j, _ in x) for x in held_digits(columns, s, 2)]
        assert held == masks.tolist()
        assert [gray_rank(x) for x in held] == ranks.tolist()


class PastTheBlock(Exception):
    """A table longer than the block: the build stops there, before a larger table is built from it."""


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fits_holds_exactly_when_every_table_built_fits(monkeypatch, p):
    """_fits(m, p, s, one, block) holds exactly when _table's level s of m vertices, and every table built for it, fit.

    The spy sees _table's recursion, which looks _table up as a global,
    from an empty memo, and stops the build at its first table past the
    block, so no larger table is built from it.  one is set only at odd p
    with p - 1 <= block: at band width 0 the walk takes a vertex's values
    in slices and never builds a table of top digit 1.
    """
    real, dt = D._table, np.uint32 if p == 2 else np.uint64

    def spy(*args):
        t = real(*args)
        if len(t[1]) > block:
            raise PastTheBlock
        return t

    monkeypatch.setattr(D, "_table", spy)
    fits = set()
    for block in (2, 8, 64):
        for one in (False, True) if p > 2 and p - 1 <= block else (False,):
            for m in range(9):
                for s in range(m + 1):
                    real.cache_clear()
                    try:
                        D._table(0, m, s, s, dt, p, one)
                        built = True
                    except PastTheBlock:
                        built = False
                    assert D._fits(m, p, s, one, block) == built, (block, one, m, s)
                    fits.add((built, one))
    real.cache_clear()
    assert fits == ({(True, False), (False, False)} | ({(True, True), (False, True)} if p > 2 else set()))


def test_blocks_take_a_level_that_fits_by_its_walked_share_as_one_table(monkeypatch):
    """Level 2 of 3 vertices at p = 3 holds 12 x, more than a _BLOCK of 8, but its 6 x of top digit 1 fit.

    Level 1 (6 x) fits whole, so _blocks yields the share as one table,
    as _level_plan would from vertex 0.  A lone d = 0 search at n = 5 asks
    for it above the band of vertices 0 and 1 (width 2), at band level 2.
    Its distance is the brute-force oracle's, and its report is the one a
    _BLOCK of 2**12 gives, where level 2 is one table from vertex 0.
    """
    monkeypatch.setattr(D, "_BLOCK", 8)
    asked = []

    def pieces(lo, hi, a, b, one):
        asked.append((lo, hi, a, b, one))
        yield "table"

    assert list(D._blocks(pieces, 5, 3, 2, 2, 2, True)) == ["table"] and asked == [(2, 5, 2, 2, True)]
    assert D._fits(3, 3, 2, True, 8) and not D._fits(3, 3, 2, False, 8)
    clear_memos()
    f, real, keys = PrimeField(3), D._table, set()
    monkeypatch.setattr(D, "_table", lambda *args: keys.add(args[:4] + args[-1:]) or real(*args))
    g = Multigraph(5, np.array([[0, 1, 2, 1, 0], [1, 0, 1, 0, 2], [2, 1, 0, 2, 1], [1, 0, 2, 0, 1], [0, 2, 1, 1, 0]]))
    assert D._level_plan(5, 3, 8, True) == (((0, 0), (1, 1)) + tuple((s, None) for s in range(2, 6)), 2)
    rep = diagonal_distance(g, f)
    assert (2, 5, 2, 2, True) in keys and rep.distance == brute_force_distance(g, f).distance >= 3
    monkeypatch.setattr(D, "_table", real)
    monkeypatch.setattr(D, "_BLOCK", 1 << 12)
    clear_memos()
    whole = diagonal_distance(g, f)  # level 2 in one table from vertex 0
    assert (rep.distance, rep.witness, rep.vectors_examined) == (whole.distance, whole.witness, whole.vectors_examined)


def test_levels_past_the_block_are_walked_as_band_products():
    """From the first level past _BLOCK on, every level is band products, the small top ones too.

    So no level table is built through a larger one, at any p.  At p = 2
    and n = 24 that first level is C(24, 4) = 10,626.
    """
    runs, width = D._level_plan(24, 2, D._BLOCK)
    assert runs == ((0, 1), (2, 2), (3, 3)) + tuple((s, None) for s in range(4, 25))
    assert width == 14  # C(14, 7) = 3,432 fits a block, and C(15, 7) does not
    runs = D._level_plan(12, 3, D._BLOCK)[0]
    first = next(s for s in range(13) if math.comb(12, s) * 2**s > D._BLOCK)
    assert runs[-(13 - first) :] == tuple((s, None) for s in range(first, 13))


def test_searches_leave_no_reference_cycles():
    """A search's per-graph tables are freed when it returns, not when the collector runs.

    A nested function of the searcher that calls itself is a reference
    cycle: it kept each search's tables alive until the next collection,
    and the benchmark's peak memory grew with the number of passes.  The
    forced p = 7, n = 12 search walks band levels from level 3 on, whose
    blocks above the band at vertex 0 are band products in turn.
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
        edgeless = Multigraph(n, np.zeros((n, n), dtype=np.int64))  # every level, each built from the one below
        pairwise_distance(edgeless, PrimeField(2), np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
        rep = diagonal_distance(uniform(n, 7, 1000 + n), PrimeField(7), force=True)
        assert rep.distance > 3 and (3, None) in D._level_plan(n, 7, D._BLOCK, True)[0]  # level 3 walked as bands
        assert gc.collect() == 0
    finally:
        gc.enable()


def gathers(monkeypatch):
    """Spy on D._table and D._gamma_x: the table key, the x gathered (a prefix or all) and a copy of their Gamma x."""
    real_table, real_gamma_x = D._table, D._gamma_x
    keys, seen = {}, []

    def table(*key):
        t = real_table(*key)
        keys[id(t[2])] = key, t  # the columns held, so their id stays their own
        return t

    def gamma_x(colv, idx, p):
        gz = real_gamma_x(colv, idx, p)
        key = keys[id(idx if idx.base is None else idx.base)][0]  # a tie-only table gathers a prefix, a view
        seen.append((key, idx.shape[1], gz.copy()))  # a copy: the factors write their marks into gz
        return gz

    monkeypatch.setattr(D, "_table", table)
    monkeypatch.setattr(D, "_gamma_x", gamma_x)
    return seen


def direct_gamma_x(gamma, p, key):
    """Gamma x mod p, shape (n, len), for every x of D._table(*key), each x expanded from its rank."""
    ranks = D._table(*key)[1].astype(np.uint64)
    n = len(gamma)
    if p == 2:  # the Gray rank t gives x = t ^ t >> 1
        xs = ((ranks ^ ranks >> np.uint64(1))[None, :] >> np.arange(n, dtype=np.uint64)[:, None]) & np.uint64(1)
    else:  # the odometer index t = sum x_j p**j
        xs = ranks[None, :] // D._powers(p)[:n, None] % np.uint64(p)
    return gamma @ xs.astype(np.int64) % p


GATHER_SIZES = {2: (1, 5, 12, 24), 3: (1, 4, 9, 12), 5: (1, 3, 6, 8), 7: (2, 5, 6), 4099: (1, 2)}


@pytest.mark.parametrize("p", GATHER_SIZES)
def test_gathered_gamma_x_equals_x_times_gamma(monkeypatch, p):
    """Gamma x of every table a search walks is one gather of _table's columns: it must equal x Gamma mod p.

    At _BLOCK = 2**3 and 2**12 the searches walk merged runs, single
    levels, at odd p the levels of top digit 1 of a lone d = 0, and both
    band factors, and the rank prefixes of tie-only levels.  At
    p - 1 > _BLOCK (p = 4099) they walk level 0 alone, the zero x, which
    is one table above every vertex (lo = hi = n) and needs the zero column.
    """
    seen = gathers(monkeypatch)
    f = PrimeField(p)
    walked = set()
    for block in (1 << 3, 1 << 12):
        monkeypatch.setattr(D, "_BLOCK", block)
        rng = random.Random(p * block)
        for n in GATHER_SIZES[p]:
            if block < 1 << 12 and n > 9:
                continue  # chunks of 8 candidates: too many to walk
            g = random_multigraph(rng, n, max_mult=min(p - 1, 3))
            gamma = adjacency_matrix(g, f)
            seen.clear()
            diagonal_distance(g, f, force=True)
            pairwise_distance(g, f, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), force=True)
            code_distance(g, f, [np.array([rng.randrange(p) for _ in range(n)]) for _ in range(3)], force=True)
            assert seen
            for key, k, gz in seen:
                want = direct_gamma_x(gamma, p, key)[:, :k]
                walked.add("prefix" if k < len(D._table(*key)[1]) else "")
                if p == 2:  # bit j of each mask is row j
                    gz = gz[None, :].astype(np.uint64) >> np.arange(n, dtype=np.uint64)[:, None] & np.uint64(1)
                assert gz.shape == want.shape and (gz == want).all(), (block, key)
                lo, hi, a, b = key[:4]
                walked.add((a, b) if p > 2 ** 12 else "merged" if a < b else "one" if key[-1] is True else "level")
                walked.add("band" if (lo, hi) != (0, n) else "")
                walked.add("high band" if lo > 0 else "")
    if p > 2**12:
        assert walked == {(0, 0), "band", "high band", ""}
    else:
        assert {"merged", "level", "band", "high band", "prefix"} <= walked
        assert ("one" in walked) == (p > 2)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 4099])
def test_tables_hold_bool_rows_only_where_the_weigher_marks_them(monkeypatch, p):
    """Odd-p tables from vertex 0 hold bool rows; every other table, the zero x too, holds its x's supports.

    The supports are bitmasks, bit j set where x_j != 0 (helpers.support
    of each rank): of the ranks' dtype at p = 2 and int64 at odd p, which
    walk ANDs with the bits.  The searches at _BLOCK = 2**3 and 2**12 walk
    runs, band levels and the blocks above each band, so tables above
    vertex 0 are built, and the zero x is one table above every vertex
    (lo = hi = n).  At p - 1 > _BLOCK (p = 4099) pieces hands each band of
    one vertex lo in slices of its values, each x's support 1 << lo.
    """
    real_table, real_bands = D._table, D._bands
    tables, bands = {}, []

    def table(*key):
        tables[key] = real_table(*key)
        return tables[key]

    def spy_bands(pieces, n, p, w, lo, s, one):
        for j, band, step, above in real_bands(pieces, n, p, w, lo, s, one):
            bands.append((lo, j, band[0]))
            yield j, band, step, above

    clear_memos()
    monkeypatch.setattr(D, "_table", table)
    monkeypatch.setattr(D, "_bands", spy_bands)
    f = PrimeField(p)
    for block in (1 << 3, 1 << 12):
        monkeypatch.setattr(D, "_BLOCK", block)
        rng = random.Random(p + block)
        for n in GATHER_SIZES[p] if block > 8 else [n for n in GATHER_SIZES[p] if n <= 9]:
            g = random_multigraph(rng, n, max_mult=min(p - 1, 3))
            diagonal_distance(g, f, force=True)
            pairwise_distance(g, f, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), force=True)
            code_distance(g, f, [np.array([rng.randrange(p) for _ in range(n)]) for _ in range(3)], force=True)
    for (lo, hi, a, b, dt, _, _), (masks, ranks, _) in tables.items():
        supports = [support(t, p) for t in ranks.tolist()]
        if p > 2 and not lo:
            assert masks.dtype == bool and masks.shape == (hi, len(ranks))
            assert (masks.T @ (1 << np.arange(hi))).tolist() == supports
        else:
            assert masks.dtype == (dt if p == 2 else np.int64) and masks.tolist() == supports, (lo, hi, a, b)
    # above vertex 0: the zero x (lo = hi), and at p <= 7 the tables of bands and of the blocks above them
    assert {lo < hi for lo, hi, *_ in tables if lo} == ({False} if p > 2**12 else {False, True})
    if p > 2**12:
        slices = [(lo, masks) for lo, j, masks in bands if j]
        assert {lo for lo, _ in slices} == {0, 1}
        assert all(masks.tolist() == [1 << lo] * len(masks) for lo, masks in slices)


@pytest.mark.parametrize("p, most", [(2, 15), (3, 9), (5, 6), (7, 5)])
def test_least_rank_is_the_first_of_each_level(p, most):
    """The walk reads a level's least rank from _least_rank, never from the level: they must agree."""
    dt = np.uint32 if p == 2 else np.uint64
    for n in range(most + 1):
        for s in range(n + 1):
            assert D._table(0, n, s, s, dt, p, False)[1][0] == D._least_rank(p, s), (n, s)
            if p > 2 and s:  # the x of top digit 1 start with the same x
                assert D._table(0, n, s, s, dt, p, True)[1][0] == D._least_rank(p, s), (n, s)


def test_every_table_is_asked_for_by_one_key(monkeypatch):
    """Each table is asked for with one argument tuple, by the searcher and by _table's own recursion.

    The memo keys on the raw arguments, so two forms of one table's key,
    such as (dt,) and (dt, 2) at p = 2, would build and hold it twice.
    The recursion looks _table up as a global, so the recorder sees its
    calls too; the memos are emptied first, so every parent is asked for.
    """
    real = D._table
    signature = inspect.signature(real)
    forms = {}

    def recorder(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        lo, hi, a, b, dt, p, one = bound.args
        forms.setdefault((lo, hi, a, b, np.dtype(dt), p, bool(one)), set()).add((args, tuple(kwargs.items())))
        return real(*args, **kwargs)

    clear_memos()
    monkeypatch.setattr(D, "_table", recorder)
    rng = random.Random(19)
    for p, sizes in ((2, (12, 20)), (3, (8,)), (5, (6,))):
        f = PrimeField(p)
        for n in sizes:
            g = random_multigraph(rng, n, max_mult=p - 1)
            diagonal_distance(g, f, force=True)
            pairwise_distance(g, f, np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), force=True)
            code_distance(g, f, [np.array([rng.randrange(p) for _ in range(n)]) for _ in range(4)], force=True)
    assert {key[5] for key in forms} == {2, 3, 5}
    assert any(key[2] < key[3] for key in forms) and any(key[6] for key in forms)  # runs, and top digit 1
    assert {key: raw for key, raw in forms.items() if len(raw) > 1} == {}


# The (p, n) classes of the benchmark's in-process workloads (diag-gf2, diag-oddp and code-pairs), every seed.
WORKLOAD_CLASSES = [(2, n) for n in (*range(10, 19), 20)] + [(3, n) for n in range(7, 12)] + [(5, 6), (5, 7), (7, 5), (7, 6)]
CODE_CLASSES = [(2, n) for n in range(10, 14)] + [(3, 7), (3, 8)]  # code-pairs' classes


def workload_searches(rng):
    """A lone search of every workload class and a code of every code-pairs class, on random multigraphs."""
    for p, n in WORKLOAD_CLASSES:
        diagonal_distance(random_multigraph(rng, n, max_mult=p - 1), PrimeField(p))
    for p, n in CODE_CLASSES:
        g = random_multigraph(rng, n, max_mult=p - 1)
        code_distance(g, PrimeField(p), [np.array([rng.randrange(p) for _ in range(n)]) for _ in range(6)])


def test_every_workload_class_keeps_its_level_plan():
    """A process that searches every class of the workloads, twice, builds each level plan once.

    A lone search at odd p sizes its levels by the x of top digit 1, so
    its plan has a key of its own: p = 3, n = 7 and 8 hold two plans, one
    for diag-oddp's lone searches and one for code-pairs' stacks.  No plan
    is evicted.
    """
    clear_memos()
    for _ in range(2):
        workload_searches(random.Random(23))
    keys = {(p, n, p > 2) for p, n in WORKLOAD_CLASSES} | {(p, n, False) for p, n in CODE_CLASSES}
    info = D._level_plan.cache_info()
    assert info.misses == info.currsize == len(keys) == len(WORKLOAD_CLASSES) + 2 <= info.maxsize


def test_every_memoized_table_fits_a_block(monkeypatch):
    """After every workload class is searched, no table in the memo holds more than _BLOCK candidates.

    The memos are emptied first and _table's own recursion looks it up as
    a global, so the recorder sees every table the memo holds.
    """
    real = D._table
    sizes = {}

    def recorder(*args):
        t = real(*args)
        sizes[args] = len(t[1])
        return t

    clear_memos()
    monkeypatch.setattr(D, "_table", recorder)
    workload_searches(random.Random(29))
    assert len(sizes) == real.cache_info().currsize
    assert max(sizes.values()) <= D._BLOCK
    full = {key: math.comb(key[1] - key[0], key[2]) * (key[5] - 1) ** key[2] for key in sizes if key[2] == key[3]}
    assert any(key[-1] and size > D._BLOCK for key, size in full.items())  # a level one table only by its share
    # forced p = 5, n = 16: bands of 5 vertices at 0, 5 and 10, and the tables of the vertices above each
    assert diagonal_distance(uniform(16, 5, 1016), PrimeField(5), force=True).distance == 6
    assert any(key[5] == 5 and key[0] == 10 for key in sizes)
    assert max(sizes.values()) <= D._BLOCK
    info = real.cache_info()
    assert info.misses == info.currsize == len(sizes)  # none evicted


def reach_graph(p, n):
    """demos/forced_reach.py's graph: G(n, 1/2) at p = 2, multiplicities 0..p - 1 at odd p, from Random(1000 + n)."""
    rng = random.Random(1000 + n)
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.random() < 0.5 if p == 2 else rng.randrange(p)
    return Multigraph(n, mult)


def test_forced_searches_evict_no_workload_table(monkeypatch):
    """The memo holds every workload class's tables beside those of the demo's forced searches.

    After the workload classes, five of demos/forced_reach.py's seven
    reach searches and its all-levels search (306 tables, 5.0 MiB), a
    second pass over the classes builds no table again.
    """
    real, held = D._table, {}

    def recorder(*args):
        held[args] = real(*args)
        return held[args]

    clear_memos()
    monkeypatch.setattr(D, "_table", recorder)
    workload_searches(random.Random(31))
    for p, n in ((2, 32), (3, 20), (5, 14), (5, 16), (7, 12)):
        diagonal_distance(reach_graph(p, n), PrimeField(p), force=True)
    zeros = np.zeros(26, dtype=np.int64)
    pairwise_distance(Multigraph(26, np.zeros((26, 26), dtype=np.int64)), PrimeField(2), zeros + 1, zeros, force=True)
    misses = real.cache_info().misses
    workload_searches(random.Random(31))
    info = real.cache_info()
    assert info.misses == misses == info.currsize == len(held) < info.maxsize
    assert sum(t.nbytes for tables in held.values() for t in tables) < 8 << 20
