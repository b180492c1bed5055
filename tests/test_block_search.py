"""The block search against reports recorded from the earlier per-candidate loops.

GOLDEN holds (distance, vectors_examined, witness entries) as the Gray-code
loop (p = 2) and the odometer loop (odd p) reported them, one candidate at a
time, before the block search replaced them.  Each case is rebuilt from its
seed by make_case.  The cases cover p in {2, 3, 5, 7}, diagonal searches
(d = 0) and affine ones, weight-1 early exits (an isolated vertex, or d of
weight 1), and n from below one block to several blocks.  They run once at
the default block size and once at 2**3, where every case spans several
blocks and the Gray-code parity flip runs at small n.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diagdist
from diagdist import (
    Multigraph,
    PrimeField,
    SearchConfig,
    SearchTooLarge,
    brute_force_distance,
    brute_force_pairwise,
    diagonal_distance,
    generate,
    pairwise_distance,
    serialize,
)
from diagdist import distance as D
from diagdist import oracle

F2 = PrimeField(2)

# (p, n, graph kind, kind of d, seed, distance, vectors_examined, witness entries)
GOLDEN = [
    (2, 3, "dense", "zero", 1, 1, 1, (0, 0, 0, 1, 0, 0)),
    (2, 4, "sparse", "zero", 2, 2, 15, (1, 0, 0, 0, 0, 1, 0, 0)),
    (2, 5, "dense", "random", 3, 2, 32, (0, 1, 0, 0, 0, 0, 0, 0, 1, 0)),
    (2, 5, "isolated", "zero", 4, 1, 3, (0, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
    (2, 7, "dense", "zero", 5, 3, 127, (1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    (2, 8, "sparse", "random", 6, 2, 256, (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0)),
    (2, 9, "isolated", "random", 7, 4, 512, (0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    (2, 11, "dense", "random", 8, 3, 2048, (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
    (2, 12, "dense", "zero", 9, 3, 4095, (0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0)),
    (2, 13, "dense", "zero", 10, 4, 8191, (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0)),
    (2, 13, "sparse", "random", 11, 5, 8192, (1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)),
    (2, 14, "dense", "random", 12, 3, 16384, (0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
    (2, 14, "isolated", "zero", 13, 1, 8191, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
    (2, 15, "dense", "zero", 14, 3, 32767, (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)),
    (2, 15, "dense", "random", 15, 4, 32768, (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0)),
    (2, 6, "dense", "unit", 42, 1, 1, (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    (3, 3, "dense", "zero", 16, 2, 26, (2, 1, 0, 2, 1, 0)),
    (3, 3, "dense", "random", 17, 1, 10, (0, 0, 0, 0, 0, 1)),
    (3, 4, "dense", "zero", 18, 2, 80, (0, 0, 0, 1, 1, 0, 0, 0)),
    (3, 4, "isolated", "random", 19, 3, 81, (2, 1, 2, 0, 0, 0, 0, 0)),
    (3, 5, "sparse", "zero", 20, 2, 242, (1, 0, 0, 0, 0, 0, 1, 0, 0, 0)),
    (3, 6, "dense", "random", 21, 2, 729, (0, 0, 0, 2, 1, 0, 0, 0, 0, 1, 1, 0)),
    (3, 7, "dense", "zero", 22, 2, 2186, (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0)),
    (3, 8, "dense", "zero", 23, 2, 6560, (2, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0)),
    (3, 8, "isolated", "zero", 24, 1, 243, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)),
    (3, 9, "dense", "random", 25, 3, 19683, (0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0)),
    (3, 9, "sparse", "zero", 26, 2, 19682, (0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)),
    (3, 5, "dense", "unit", 43, 1, 1, (0, 0, 0, 0, 2, 0, 0, 0, 0, 0)),
    (3, 9, "isolated", "zero", 50, 1, 6561, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (5, 2, "dense", "random", 27, 1, 5, (2, 0, 4, 0)),
    (5, 3, "dense", "zero", 28, 2, 124, (0, 0, 4, 1, 0, 0)),
    (5, 3, "isolated", "zero", 29, 1, 1, (0, 0, 0, 1, 0, 0)),
    (5, 4, "dense", "random", 30, 2, 625, (0, 4, 0, 0, 4, 3, 0, 0)),
    (5, 5, "dense", "zero", 31, 2, 3124, (0, 0, 0, 0, 0, 3, 1, 0, 0, 0)),
    (5, 6, "dense", "zero", 32, 2, 15624, (0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    (5, 6, "dense", "random", 33, 3, 15625, (2, 2, 4, 0, 0, 0, 3, 4, 2, 0, 0, 0)),
    (5, 7, "isolated", "random", 34, 4, 78125, (0, 3, 0, 0, 0, 2, 1, 1, 0, 0, 0, 0, 0, 0)),
    (5, 7, "isolated", "zero", 45, 1, 15625, (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
    (7, 2, "dense", "zero", 35, 2, 48, (0, 3, 1, 0)),
    (7, 3, "dense", "random", 36, 2, 343, (6, 0, 2, 3, 0, 0)),
    (7, 4, "dense", "zero", 37, 3, 2400, (0, 2, 3, 0, 1, 0, 0, 0)),
    (7, 4, "isolated", "zero", 38, 1, 343, (0, 0, 0, 0, 0, 0, 0, 1)),
    (7, 5, "dense", "zero", 39, 3, 16806, (4, 1, 3, 0, 0, 5, 1, 1, 0, 0)),
    (7, 5, "sparse", "random", 40, 3, 16807, (3, 4, 0, 0, 6, 1, 2, 0, 0, 0)),
    (7, 6, "dense", "zero", 41, 4, 117648, (4, 6, 0, 4, 0, 2, 5, 1, 0, 0, 0, 0)),
]


def make_case(p, n, kind, dkind, seed):
    """The graph and the labelling difference d of one case."""
    rng = random.Random(seed)
    mult = np.zeros((n, n), dtype=np.int64)
    if kind == "sparse":  # random spanning tree: leaves keep the distance at 2
        for v in range(1, n):
            u = rng.randrange(v)
            mult[u, v] = mult[v, u] = rng.randrange(1, p)
    else:
        for u in range(n):
            for v in range(u + 1, n):
                mult[u, v] = mult[v, u] = rng.randrange(p)
    if kind == "isolated":  # no edge, or edges of multiplicity p, at one high vertex
        v = n - 1 - rng.randrange(3)
        mult[v, :] = mult[:, v] = p * rng.randrange(2)
        mult[v, v] = 0
    d = [0] * n
    if dkind == "random":
        d = [rng.randrange(p) for _ in range(n)]
    elif dkind == "unit":  # weight 1 at x = 0: the search stops on its first candidate
        d[rng.randrange(n)] = rng.randrange(1, p)
    return Multigraph(n, mult), np.array(d, dtype=np.int64)


def search(g, f, d):
    if d.any():
        return pairwise_distance(g, f, d, np.zeros(g.n, dtype=np.int64))
    return diagonal_distance(g, f)


@pytest.mark.parametrize("block", [D._BLOCK, 1 << 3])
def test_block_search_reproduces_recorded_reports(monkeypatch, block):
    monkeypatch.setattr(D, "_BLOCK", block)
    for p, n, kind, dkind, seed, distance, examined, entries in GOLDEN:
        g, d = make_case(p, n, kind, dkind, seed)
        rep = search(g, PrimeField(p), d)
        assert (rep.distance, rep.vectors_examined, rep.witness.entries) == (
            distance,
            examined,
            entries,
        ), (p, n, kind, dkind, seed)


def test_small_blocks_match_oracle(monkeypatch):
    """The 2**3-block run agrees with the brute force wherever it takes at most 3**8 words."""
    monkeypatch.setattr(D, "_BLOCK", 1 << 3)
    checked = 0
    for p, n, kind, dkind, seed, *_ in GOLDEN:
        if p ** (2 * n) > 3**8:
            continue
        g, d = make_case(p, n, kind, dkind, seed)
        f = PrimeField(p)
        expected = brute_force_pairwise(g, f, np.zeros(n, dtype=np.int64), d) if d.any() else brute_force_distance(g, f)
        assert search(g, f, d).distance == expected.distance, (p, n, kind, dkind, seed)
        checked += 1
    assert checked >= 8


def test_forged_weight_fails_reverification(monkeypatch):
    real = D._level_blocks

    def forged(*args):
        for w in real(*args):
            w[-1] = 1  # the 5-cycle has no kernel vector of weight 1
            yield w

    monkeypatch.setattr(D, "_level_blocks", forged)
    with pytest.raises(RuntimeError, match="re-verification"):
        diagonal_distance(generate("cycle", 5), F2)


def test_forged_lambda_fails_reverification(monkeypatch):
    real = D.build_lambda
    monkeypatch.setattr(D, "build_lambda", lambda gamma: real(1 - gamma))
    with pytest.raises(RuntimeError, match="re-verification"):
        diagonal_distance(generate("cycle", 5), F2)


def test_oracle_raises_when_no_word_reaches_the_target(monkeypatch):
    monkeypatch.setattr(oracle, "apply_word", lambda w, l, gamma, f: np.full(len(l), -1))
    with pytest.raises(RuntimeError):
        brute_force_distance(generate("path", 2), F2)


def test_cli_distance_under_python_O(tmp_path):
    path = tmp_path / "cycle5.eg"
    path.write_text(serialize(generate("cycle", 5)))
    env = dict(os.environ, PYTHONPATH=str(Path(diagdist.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "diagdist.cli", "distance", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "distance = 3" in proc.stdout


def test_gf2_bitmask_width_is_guarded():
    g = Multigraph(64, np.zeros((64, 64), dtype=np.int64))
    with pytest.raises(SearchTooLarge, match="uint64"):
        diagonal_distance(g, F2, SearchConfig(force=True))


def test_blocks_never_exceed_the_block_size(monkeypatch):
    sizes = []
    real = D._residue_blocks

    def spy(*args):
        for w in real(*args):
            sizes.append(w.shape[-1])  # candidates per row
            yield w

    monkeypatch.setattr(D, "_residue_blocks", spy)
    f = PrimeField(4099)  # above _BLOCK: one vertex's values overflow a chunk, so the walk takes them one by one
    force = SearchConfig(force=True)
    rep = diagonal_distance(generate("edgeless", 1), f)
    assert (rep.distance, rep.vectors_examined, rep.witness.entries) == (1, 1, (0, 1))
    rep = diagonal_distance(generate("edgeless", 2), f, force)
    assert (rep.distance, rep.vectors_examined, rep.witness.entries) == (1, 1, (0, 0, 1, 0))
    rep = pairwise_distance(generate("path", 2), f, [5, 4098], [2, 0], force)
    assert (rep.distance, rep.vectors_examined, rep.witness.entries) == (1, 4099, (3, 0, 4098, 0))
    assert max(sizes) <= D._BLOCK
    sizes.clear()
    diagonal_distance(generate("cycle", 9), PrimeField(3))
    assert sizes == [163, 336]  # levels 0..2 in one table; level 3's 672 x, of which half have top digit 1
