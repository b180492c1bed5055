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
    code_distance,
    diagonal_distance,
    generate,
    pairwise_distance,
    serialize,
)
from diagdist import distance as D
from diagdist import oracle
from helpers import on_weigh

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
    def forged(p, chunk, w):
        w[-1] = 1  # the 5-cycle has no kernel vector of weight 1

    on_weigh(monkeypatch, forged)
    with pytest.raises(RuntimeError, match="re-verification"):
        diagonal_distance(generate("cycle", 5), F2)


def test_forged_lambda_fails_reverification(monkeypatch):
    real = D.build_lambda
    monkeypatch.setattr(D, "build_lambda", lambda gamma: real(1 - gamma))
    with pytest.raises(RuntimeError, match="re-verification"):
        diagonal_distance(generate("cycle", 5), F2)


def forge_lambda(monkeypatch):
    """build_lambda gives [I | Gamma + I], so Lambda k - d is x for every witness k = (d - Gamma x | x)."""
    real = D.build_lambda
    monkeypatch.setattr(D, "build_lambda", lambda gamma: real(gamma + np.eye(len(gamma), dtype=np.int64)))


@pytest.mark.parametrize("p", [3, 7])
def test_forged_lambda_fails_a_lone_odd_p_search(monkeypatch, p):
    forge_lambda(monkeypatch)
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        diagonal_distance(generate("cycle", 5), PrimeField(p))


def test_forged_lambda_fails_a_lone_affine_search(monkeypatch):
    g, f = generate("cycle", 5), PrimeField(3)
    cr, cs = [0, 1, 0, 0, 1], [0] * 5  # d = Gamma e_1: X_1 alone carries cs to cr
    assert pairwise_distance(g, f, cr, cs).witness.entries == (0,) * 5 + (1, 0, 0, 0, 0)
    forge_lambda(monkeypatch)
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        pairwise_distance(g, f, cr, cs)


@pytest.mark.parametrize("p", [2, 3])
def test_forged_lambda_fails_a_stack(monkeypatch, p):
    forge_lambda(monkeypatch)  # row 0, d = 0, has a witness with x != 0
    words = [np.eye(5, dtype=np.int64)[i] for i in range(3)]
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        code_distance(generate("cycle", 5), PrimeField(p), words)


def test_forged_weight_fails_a_lone_odd_p_search(monkeypatch):
    def forged(p, chunk, w):
        w[-1] = 1  # the 5-cycle has no kernel vector of weight 1

    on_weigh(monkeypatch, forged)
    with pytest.raises(RuntimeError, match="witness failed re-verification"):
        diagonal_distance(generate("cycle", 5), PrimeField(3))


FORGED_LAMBDA_UNDER_O = """
import numpy as np
from diagdist import PrimeField, diagonal_distance, generate
from diagdist import distance as D
real = D.build_lambda
D.build_lambda = lambda gamma: real(gamma + np.eye(len(gamma), dtype=np.int64))
try:
    diagonal_distance(generate("cycle", 5), PrimeField(3))
except RuntimeError as e:
    print(e)
"""


def test_lone_reverification_runs_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(diagdist.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_LAMBDA_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "witness failed re-verification"


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
    on_weigh(monkeypatch, lambda p, chunk, w: sizes.append(w.shape[-1]))  # candidates per row
    f = PrimeField(4099)  # above _BLOCK: one vertex's values overflow a chunk, so the walk takes them in slices
    force = SearchConfig(force=True)
    rep = diagonal_distance(generate("edgeless", 1), f)
    assert (rep.distance, rep.vectors_examined, rep.witness.entries) == (1, 1, (0, 1))
    rep = diagonal_distance(generate("edgeless", 2), f, force)
    assert (rep.distance, rep.vectors_examined, rep.witness.entries) == (1, 1, (0, 0, 1, 0))
    rep = pairwise_distance(generate("path", 2), f, [5, 4098], [2, 0], force)
    assert (rep.distance, rep.vectors_examined, rep.witness.entries) == (1, 4099, (3, 0, 4098, 0))
    assert max(sizes) <= D._BLOCK
    sizes.clear()
    mult = generate("cycle", 9).mult.copy()  # with chords, so no x below level 3 weighs 3 at a rank below its least, 13
    mult[[0, 1, 2, 6, 8, 6], [6, 8, 6, 0, 1, 2]] = 1
    rep = diagonal_distance(Multigraph(9, mult), PrimeField(3))
    assert rep.distance == 3 and rep.witness.x == (0, 0, 0, 1, 0, 0, 0, 0, 0)  # rank 27
    # levels 0..2 in one table and level 3's 672 x, of each those with top digit 1; level 3 can only tie the
    # witness, found at level 1, so it weighs its x ranked below 27: the 4 on vertices 0..2, of ranks 13..17
    assert sizes == [82, 4]


def test_one_vertex_values_past_the_block_go_in_slices(monkeypatch):
    """At p - 1 > _BLOCK the band width is 0: level 1 takes its p - 1 values in slices of _BLOCK.

    One chunk per value took 1.9 s for the pairwise search at p = 65,521,
    and 3.3 s for the code.  The reports are those of that walk.
    """
    chunks = []
    on_weigh(monkeypatch, lambda p, chunk, w: chunks.append(w.shape[-1]))
    p = 65521
    f, g = PrimeField(p), generate("edgeless", 1)
    assert D._level_plan(1, p, D._BLOCK) == (((0, 0), (1, None)), 0)
    most = -(-(p - 1) // D._BLOCK) + 1  # level 0's one chunk, then level 1's slices
    rep = pairwise_distance(g, f, [1], [0])
    assert (rep.distance, rep.witness.entries, rep.vectors_examined) == (1, (1, 0), 1)
    assert len(chunks) <= most and max(chunks) <= D._BLOCK
    chunks.clear()
    res = code_distance(g, f, [[0], [1]])
    got = {pair: (r.distance, r.witness.entries, r.vectors_examined) for pair, r in res.table.items()}
    assert got == {(1, 1): (1, (0, 1), 1), (1, 2): (1, (p - 1, 0), 1), (2, 2): (1, (0, 1), 1)}
    assert len(chunks) <= most and max(chunks) <= D._BLOCK


def test_a_row_whose_best_no_x_of_the_next_level_can_beat_is_done(monkeypatch):
    """A best of weight a ends a row before level a when its rank is at most the level's least.

    At p = 16,777,213 a one-vertex edgeless graph's d = 1 weighs 1 at x = 0,
    rank 0, and the code's d = 0 weighs 1 at x = 1, rank 1, the least rank
    of level 1, in level 1's first slice.  The walk used to weigh all 4,096
    slices of level 1 for both, about half a second each.
    """
    chunks = []
    on_weigh(monkeypatch, lambda p, chunk, w: chunks.append(w.shape))
    p = 16777213
    f, g = PrimeField(p), generate("edgeless", 1)
    rep = pairwise_distance(g, f, [1], [0])
    assert (rep.distance, rep.witness.entries, rep.vectors_examined) == (1, (1, 0), 1)
    assert chunks == [(1,)]  # level 0 alone
    chunks.clear()
    res = code_distance(g, f, [[0], [1]])
    got = {pair: (r.distance, r.witness.entries, r.vectors_examined) for pair, r in res.table.items()}
    assert got == {(1, 1): (1, (0, 1), 1), (1, 2): (1, (p - 1, 0), 1), (2, 2): (1, (0, 1), 1)}
    assert chunks == [(2, 1), (1, D._BLOCK)]  # level 0, then level 1's first slice for row 0 alone
