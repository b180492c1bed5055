"""The pruned searches against the unpruned block search they replaced.

reference() is the block search as it was before blocks were skipped: it
weighs every one of the p**n candidates in the same fixed order (Gray code
at p = 2, odometer at odd p) and keeps the first minimum, stopping only at
weight 1.  The search walks x by support level instead, stops after the
level equal to the best weight, and for d = 0 at odd p weighs, in the
levels it walks alone, only the x whose top digit is 1.  It must report
the same distance, witness and vectors_examined at the default block, at
2**3 and at 2**1.  The spies below show which levels and supports a search
weighs: at p = 2 every x as a bitmask, at odd p the support of every
candidate, read from the marks the weigher is handed.
"""

import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    PrimeField,
    adjacency_matrix,
    diagonal_distance,
    generate,
    pairwise_distance,
)
from diagdist import distance as D

REF_BLOCK = 1 << 12
BLOCKS = (D._BLOCK, 1 << 3, 1 << 1)

# (p, n, graph kind, kind of d, seed): 306 cases, p**n at most 2**14
CASES = [
    (p, n, kind, dkind, 1000 * p + 30 * n + 3 * k + j)
    for p, sizes in ((2, range(1, 15)), (3, range(1, 9)), (5, range(1, 6)), (7, range(1, 5)), (11, range(1, 4)))
    for n in sizes
    for k, kind in enumerate(("dense", "sparse", "isolated"))
    for j, dkind in enumerate(("zero", "random", "unit"))
]


def make_case(p, n, kind, dkind, seed):
    """Multiplicities 0..2p-1, so some edges vanish mod p; "isolated" empties one vertex mod p."""
    rng = random.Random(seed)
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            if kind != "sparse" or rng.random() < 0.3:
                mult[u, v] = mult[v, u] = rng.randrange(2 * p)
    if kind == "isolated":
        v = rng.randrange(n)
        mult[v, :] = mult[:, v] = p * rng.randrange(2)
        mult[v, v] = 0
    d = np.zeros(n, dtype=np.int64)
    if dkind == "random":
        d = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
    elif dkind == "unit":
        d[rng.randrange(n)] = rng.randrange(1, p)
    return Multigraph(n, mult), d


def _ref_gray_blocks(gamma, n, d, m):
    """Every block of 2**m consecutive Gray-code t, with no block skipped."""
    cols = [sum(1 << j for j, v in enumerate(col) if v) for col in gamma.T.tolist()]
    size = 1 << m
    xl0 = np.zeros(size, dtype=np.uint64)
    zl0 = np.zeros(size, dtype=np.uint64)
    for i in range(m):
        np.bitwise_or(xl0[: 1 << i][::-1], np.uint64(1 << i), out=xl0[1 << i : 2 << i])
        np.bitwise_xor(zl0[: 1 << i][::-1], np.uint64(cols[i]), out=zl0[1 << i : 2 << i])
    xl = (xl0, xl0 ^ np.uint64(1 << (m - 1)))
    zl = (zl0, zl0 ^ np.uint64(cols[m - 1]))
    zh = sum(1 << j for j, v in enumerate(d.tolist()) if v)
    xh = 0
    for h in range(1 << (n - m)):
        if h:
            i = m + (h & -h).bit_length() - 1
            zh ^= cols[i]
            xh ^= 1 << i
        yield np.bitwise_count((zl[h & 1] ^ np.uint64(zh)) | xl[h & 1] | np.uint64(xh))


def _ref_odometer_blocks(gamma, n, p, d, m):
    """Every block of p**m consecutive odometer t, with no block skipped."""
    tab = np.zeros((n, 1), dtype=np.int64)
    for j in range(m):
        steps = (np.arange(p) * -gamma[:, j : j + 1]) % p
        tab = ((tab[:, None, :] + steps[:, :, None]) % p).reshape(n, -1)
    for j in range(m):
        tab[j].reshape(p ** (m - 1 - j), p, p**j)[:, 1:, :] = p
    xh = np.zeros(n - m, dtype=np.int64)
    for h in range(p ** (n - m)):
        if h:
            i = 0
            while xh[i] == p - 1:
                xh[i] = 0
                i += 1
            xh[i] += 1
        target = (gamma[:, m:] @ xh - d) % p
        target[m:][xh != 0] = p
        yield (tab != target[:, None]).sum(axis=0)


def reference(g, f, d):
    """(distance, vectors_examined, witness entries) from the unpruned block search."""
    n, p = g.n, f.p
    gamma = adjacency_matrix(g, f)
    m = 0
    while m < n and p ** (m + 1) <= REF_BLOCK:
        m += 1
    blocks = _ref_gray_blocks(gamma, n, d, m) if p == 2 else _ref_odometer_blocks(gamma, n, p, d, m)
    skip_zero = not d.any()
    best_w, best_t = n + 1, 0
    for h, w in enumerate(blocks):
        if h == 0 and skip_zero:
            w[0] = n + 1
        i = int(w.argmin())
        if w[i] < best_w:
            best_w, best_t = int(w[i]), h * p**m + i
            if best_w == 1:
                break
    examined = (best_t + 1 if best_w == 1 else p**n) - skip_zero
    xi = best_t ^ (best_t >> 1) if p == 2 else best_t
    x = np.array([xi // p**j % p for j in range(n)], dtype=np.int64)
    z = (d - gamma @ x) % p
    return best_w, examined, tuple(z.tolist() + x.tolist())


def search(g, f, d):
    if d.any():
        return pairwise_distance(g, f, d, np.zeros(g.n, dtype=np.int64))
    return diagonal_distance(g, f)


def report(rep):
    return rep.distance, rep.vectors_examined, rep.witness.entries


def test_pruned_search_matches_the_unpruned_one(monkeypatch):
    seen = set()
    for p, n, kind, dkind, seed in CASES:
        f = PrimeField(p)
        g, d = make_case(p, n, kind, dkind, seed)
        expected = reference(g, f, d)
        for block in BLOCKS:
            monkeypatch.setattr(D, "_BLOCK", block)
            assert report(search(g, f, d)) == expected, (p, n, kind, dkind, seed, block)
        seen.add((p, dkind, expected[0]))
    assert len(CASES) >= 300
    assert {(p, "zero", 1) for p in (2, 3, 5, 7, 11)} <= seen  # isolated vertices stop at weight 1
    assert {w for p, dkind, w in seen if dkind == "zero"} >= {1, 2, 3}
    assert {w for p, dkind, w in seen if dkind == "random"} >= {1, 2, 3}


def weighed_odd_supports(monkeypatch):
    """Spy on D._residue_blocks: per chunk, the support of each candidate as a bitmask, in order.

    The low factor holds p where x_lo is nonzero, and the high factor 2p
    to 3p where x_hi is nonzero; a chunk's candidates are high-major.
    """
    real = D._residue_blocks
    chunks = []

    def spy(d, p, order):
        def recorded():
            for lo, hi, rows in order:
                bits = 1 << np.arange(len(lo))
                low = ((lo == p).T @ bits).tolist()
                high = [0] if hi is None else ((hi >= 2 * p).T @ bits).tolist()
                chunks.append([h | lw for h in high for lw in low])
                yield lo, hi, rows

        yield from real(d, p, recorded())

    monkeypatch.setattr(D, "_residue_blocks", spy)
    return chunks


def supports_up_to(n, w, per_support):
    """Every support of at most w of n vertices, each per_support(size) times, sorted."""
    return sorted(x for x in range(1 << n) if bin(x).count("1") <= w for _ in range(per_support(bin(x).count("1"))))


def test_scalar_symmetry_skips_blocks_at_odd_p(monkeypatch):
    """d = 0: c x weighs what x does, so of each x's multiples only the one with top digit 1 is weighed.

    At _BLOCK = 2**3 every level is walked alone, so every level is
    filtered: each support s <= w* is weighed (p - 1)**(s - 1) times.
    """
    monkeypatch.setattr(D, "_BLOCK", 1 << 3)
    chunks = weighed_odd_supports(monkeypatch)
    for n, p, distance in ((9, 3, 3), (6, 5, 3)):
        chunks.clear()
        rep = diagonal_distance(generate("cycle", n), PrimeField(p))
        assert (rep.distance, rep.vectors_examined) == (distance, p**n - 1)
        xs = [x for chunk in chunks for x in chunk]
        assert sorted(xs) == supports_up_to(n, distance, lambda s: (p - 1) ** max(s - 1, 0))
        levels = [max(bin(x).count("1") for x in chunk) for chunk in chunks]
        assert levels == sorted(levels)
        top = max(j for j, v in enumerate(rep.witness.x) if v)
        assert rep.witness.x[top] == 1


def g20(seed):
    """G(20, 1/2) from random.Random(seed)."""
    rng = random.Random(seed)
    mult = np.zeros((20, 20), dtype=np.int64)
    for u in range(20):
        for v in range(u + 1, 20):
            mult[u, v] = mult[v, u] = rng.random() < 0.5
    return Multigraph(20, mult)


def weighed_supports(monkeypatch):
    """Spy on D._level_blocks: the x bitmasks of every chunk it is handed, in order."""
    real = D._level_blocks
    chunks = []

    def spy(*args):
        def recorded(order):
            for chunk in order:
                chunks.append(chunk[0].tolist())  # chunk[0]: the bitmasks of x
                yield chunk

        yield from real(*args[:-1], recorded(args[-1]))

    monkeypatch.setattr(D, "_level_blocks", spy)
    return chunks


def test_support_bound_skips_blocks_at_p2(monkeypatch):
    """G(20, 1/2): every x of support at most the distance is weighed once, and no other.

    Each candidate weighs at least |supp x|, so the walk over support levels
    stops after level w* = the distance.  The old block walk weighed 93,
    162, 163 and 219 blocks of 2**12 on these graphs; the level walk weighs
    sum(C(20, s) for s <= w*) candidates: 6196 at distance 4, 21700 at 5
    and 60460 at 6.
    """
    chunks = weighed_supports(monkeypatch)
    f = PrimeField(2)
    counts = {}
    for seed, distance in ((12, 4), (0, 4), (2, 5), (1, 6)):
        chunks.clear()
        rep = diagonal_distance(g20(seed), f)
        assert rep.distance == distance
        assert rep.vectors_examined == 2**20 - 1
        xs = [x for chunk in chunks for x in chunk]
        assert len(xs) == len(set(xs))  # no candidate is weighed twice
        levels = [{bin(x).count("1") for x in chunk} for chunk in chunks]
        assert [max(s) for s in levels] == sorted(max(s) for s in levels)  # levels ascend
        assert set().union(*levels) == set(range(distance + 1))  # no level above w* is weighed
        assert sorted(xs) == sorted(x for x in range(1 << 20) if bin(x).count("1") <= distance)
        x = sum(1 << j for j, v in enumerate(rep.witness.x) if v)
        assert x in xs
        counts[seed] = len(xs)
    assert counts == {12: 6196, 0: 6196, 2: 21700, 1: 60460}


@pytest.mark.parametrize("p, n", [(3, 7), (5, 5)])
def test_pair_searches_weigh_every_block_below_the_bound(monkeypatch, p, n):
    """d != 0 has no scalar symmetry: every x of support at most w* is weighed once, and no other.

    At _BLOCK = 2**3 the levels past level 0 are products of two band
    tables, with the vertices above both bands, and their values, walked
    in Python.
    """
    monkeypatch.setattr(D, "_BLOCK", 1 << 3)
    chunks = weighed_odd_supports(monkeypatch)
    f = PrimeField(p)
    walked = set()
    for seed in range(6):
        g, d = make_case(p, n, "dense", "random", seed)
        if not d.any():
            continue
        chunks.clear()
        rep = search(g, f, d)
        assert report(rep) == reference(g, f, d)
        xs = [x for chunk in chunks for x in chunk]
        assert sorted(xs) == supports_up_to(n, rep.distance, lambda s: (p - 1) ** s)
        levels = [{bin(x).count("1") for x in chunk} for chunk in chunks]
        assert all(len(s) == 1 for s in levels[1:])  # past level 0, one level per chunk
        assert [max(s) for s in levels] == sorted(max(s) for s in levels)
        walked.add(rep.distance)
        width = D._level_plan(n, p, D._BLOCK)[1]
        assert any(x >> 2 * width for x in xs)  # vertices above both bands
    assert max(walked) >= 2  # products of two band tables


def test_forged_weight_in_a_later_block_fails_reverification(monkeypatch):
    monkeypatch.setattr(D, "_BLOCK", 1 << 3)  # the 5-cycle's levels 2 and 3 take two chunks each
    real = D._level_blocks
    weighed = []

    def forged(*args):
        for w in real(*args):
            weighed.append(w.size)
            if len(weighed) == 3:
                w[-1] = 1  # the 5-cycle has no kernel vector of weight 1
            yield w

    monkeypatch.setattr(D, "_level_blocks", forged)
    with pytest.raises(RuntimeError, match="re-verification"):
        diagonal_distance(generate("cycle", 5), PrimeField(2))
    assert weighed == [1, 5, 6, 4]  # levels 0 and 1, then level 2's two chunks; level 3 is past the forged best
