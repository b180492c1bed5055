"""The odd-p walk by support level, past tier-1 sizes and against the unpruned odometer.

The walk weighs x in order of |supp x| and keeps, among a row's least
weights, the least odometer index t = sum x_j p**j, so it must report what
the odometer walk reported: the same distance, witness and
vectors_examined.  The forced p = 3, n = 20 case was recorded from the
odometer block search, which took about 2 s on it.  Ranks are exact up to
p**n < 2**64, and a forced search past that is refused.  The fuzz runs
lone, stacked and zero-headed searches at three block sizes against
test_search_pruning's unpruned reference, and checks that no chunk holds
more than _BLOCK candidates per row.
"""

import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    PrimeField,
    SearchConfig,
    SearchTooLarge,
    diagonal_distance,
    pairwise_distance,
    serialize,
)
from diagdist import distance as D
from diagdist.cli import main
from test_search_pruning import reference

FORCE = SearchConfig(force=True)


def uniform(n, p, seed):
    """Multiplicities drawn uniformly from 0..p-1 by random.Random(seed), in (u, v) order, u < v."""
    rng = random.Random(seed)
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
    """Spy on D._residue_blocks: the shape of every weight array it yields."""
    real = D._residue_blocks
    shapes = []

    def spy(*args):
        for w in real(*args):
            shapes.append(w.shape)
            yield w

    monkeypatch.setattr(D, "_residue_blocks", spy)
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
