"""d = 0 at the head of a stack, and the reports the search builds for its rows.

code_distance puts the zero difference first in its first stack, so a code
takes one block pass, not a lone d = 0 search and then its stacks.  Row 0
of such a stack must report exactly what diagonal_distance reports, though
the stack weighs candidates that the scalar symmetry lets a lone d = 0
search skip.  A code whose only difference is zero searches it as a
one-row stack, which keeps the lone search's scalar filter.
"""

import dataclasses
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diagdist
from diagdist import (
    DistanceReport,
    Multigraph,
    PrimeField,
    SymplecticVector,
    code_distance,
    diagonal_distance,
    generate,
    pairwise_distance,
)
from diagdist import distance as D
from helpers import (
    assert_walk_covers,
    last_level,
    odd_supports,
    on_search,
    on_weigh,
    random_multigraph,
    replay,
    walk_log,
)

HERE = Path(__file__).parent  # helpers.py, for the forged weigher under python -O

SIZES = [(2, (3, 6, 10)), (3, (2, 4, 7)), (5, (2, 3, 5))]


def key(rep):
    return (rep.distance, rep.witness.entries, rep.vectors_examined)


def isolating(g, v, p, rng):
    """g with vertex v isolated mod p: no edges there, or edges of multiplicity p."""
    mult = g.mult.copy()
    mult[v, :] = mult[:, v] = p * rng.randrange(2)
    mult[v, v] = 0
    return Multigraph(g.n, mult)


def nonzero_rows(rng, n, p, r):
    """r distinct nonzero differences mod p (fewer when p**n - 1 < r)."""
    rows = {}
    for _ in range(4 * r):
        d = tuple(rng.randrange(p) for _ in range(n))
        if any(d):
            rows.setdefault(d, None)
    return [list(d) for d in list(rows)[:r]]


@pytest.mark.parametrize("block", [D._BLOCK, 1 << 3, 1 << 1])
def test_row_0_reports_what_diagonal_distance_does(monkeypatch, block):
    """Every row of a stack headed by d = 0 matches its lone search, isolated vertices included."""
    monkeypatch.setattr(D, "_BLOCK", block)
    rng = random.Random(1200 + block)
    early_exits = 0
    for p, ns in SIZES:
        f = PrimeField(p)
        for n in ns:
            g = random_multigraph(rng, n, max_mult=p)
            for graph in (g, isolating(g, rng.randrange(n), p, rng)):
                units = [list(row) for row in np.eye(n, dtype=np.int64)[: min(n, 3)]]
                for rows in (nonzero_rows(rng, n, p, 5), units):  # units: every row reaches weight 1
                    stack = np.array([[0] * n] + rows, dtype=np.int64)
                    search = D._searcher(graph, f, False)
                    got = [key(rep) for rep in search(stack)]
                    assert got[0] == key(diagonal_distance(graph, f)), (p, n, block)
                    zero = np.zeros(n, dtype=np.int64)
                    assert got[1:] == [key(pairwise_distance(graph, f, row, zero)) for row in rows]
                    if got[0][0] == 1 and got[0][2] < p**n - 1:
                        early_exits += 1
    assert early_exits >= 6  # the isolated vertices' weight-1 exit fires in row 0


def spy_walk(monkeypatch):
    """Spy on the searches: per search, the shape of its d and the support of every candidate, as bitmasks."""
    walks = []
    on_search(monkeypatch, lambda d: walks.append((np.shape(d), [])))
    on_weigh(monkeypatch, lambda p, chunk, w: walks[-1][1].extend(odd_supports(p, *chunk[:2])))
    return walks


def scalar_supports(n, p, w):
    """The supports a lone d = 0 walk weighs up to level w: each s-support (p - 1)**(s - 1) times, x = 0 once."""
    sizes = [bin(x).count("1") for x in range(1 << n)]
    return sorted(x for x in range(1 << n) if sizes[x] <= w for _ in range((p - 1) ** max(sizes[x] - 1, 0)))


@pytest.mark.parametrize("p, n", [(3, 5), (5, 4)])
def test_a_code_with_only_d_0_walks_the_scalar_order(monkeypatch, p, n):
    """One codeword, or equal ones: a one-row stack that weighs only the x whose top digit is 1."""
    monkeypatch.setattr(D, "_BLOCK", 1 << 3)  # every level walked alone, so every level is filtered
    walks = spy_walk(monkeypatch)
    rng = random.Random(90 + p)
    f = PrimeField(p)
    g = random_multigraph(rng, n, max_mult=p)
    want = diagonal_distance(g, f)
    [(shape, lone)] = walks
    assert shape == (n,)
    assert sorted(lone) == scalar_supports(n, p, last_level(want, p))
    # the support bound alone would weigh every value on each support
    assert len(lone) < sum(math.comb(n, s) * (p - 1) ** s for s in range(last_level(want, p) + 1))
    w = np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)
    for words in ([w], [w, w + p, w]):
        walks.clear()
        res = code_distance(g, f, words)
        assert walks == [((1, n), lone)]
        assert all(key(rep) == key(want) for rep in res.table.values())


@pytest.mark.parametrize("p, name", [(2, "_level_blocks"), (3, "_residue_blocks")])
def test_forged_weight_in_row_0_of_a_merged_stack_fails_reverification(monkeypatch, p, name):
    forged = []

    def forge(p, chunk, w):
        if w.ndim == 2:
            w[0, -1] = 0  # a nonzero candidate of d = 0 never has weight 0
            forged.append(len(w))

    on_weigh(monkeypatch, forge)
    rng = random.Random(30 + p)
    words = [np.array([rng.randrange(p) for _ in range(5)], dtype=np.int64) for _ in range(3)]
    with pytest.raises(RuntimeError, match="re-verification"):
        code_distance(generate("cycle", 5), PrimeField(p), words)
    assert forged and forged[0] > 1


FORGE_ROW_0_UNDER_O = """
import numpy as np
import pytest
from diagdist import PrimeField, code_distance, generate
from helpers import on_weigh
def forged(p, chunk, w):
    if w.ndim == 2:
        w[0, -1] = 0
on_weigh(pytest.MonkeyPatch(), forged)
words = [np.eye(5, dtype=np.int64)[i] for i in range(3)]
try:
    code_distance(generate("cycle", 5), PrimeField(2), words)
except RuntimeError as e:
    print(e)
"""


def test_row_0_reverification_runs_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (Path(diagdist.__file__).parents[1], HERE))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGE_ROW_0_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "witness failed re-verification"


def test_helper_reports_are_the_constructors_reports():
    made = D._reports([[1, 0, 2, 1], [0, 0, 0, 1]], [2, 1], [9, 4])
    built = [
        DistanceReport(2, SymplecticVector((1, 0, 2, 1)), 9),
        DistanceReport(distance=1, witness=SymplecticVector.from_parts([0, 0], [0, 1]), vectors_examined=4),
    ]
    assert made == built
    assert [hash(rep) for rep in made] == [hash(rep) for rep in built]
    assert [repr(rep) for rep in made] == [repr(rep) for rep in built]
    assert len({*made, *built}) == 2
    rep = made[0]
    assert type(rep) is DistanceReport and type(rep.witness) is SymplecticVector
    assert (rep.witness.n, rep.witness.z, rep.witness.x) == (2, (1, 0), (2, 1))
    assert dataclasses.replace(rep, distance=3) == DistanceReport(3, SymplecticVector((1, 0, 2, 1)), 9)
    assert dataclasses.replace(rep.witness, entries=(0, 1)) == SymplecticVector((0, 1))
    with pytest.raises(ValueError, match="even"):
        dataclasses.replace(rep.witness, entries=(1, 2, 3))
    assert dataclasses.asdict(rep) == dataclasses.asdict(built[0])
    assert dataclasses.asdict(rep) == {"distance": 2, "witness": {"entries": (1, 0, 2, 1)}, "vectors_examined": 9}
    back = pickle.loads(pickle.dumps(made))
    assert back == built and [hash(r) for r in back] == [hash(r) for r in built]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.distance = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.witness.entries = (0, 0)
    with pytest.raises(ValueError, match="even"):
        SymplecticVector((1, 2, 3))


def test_search_reports_equal_rebuilt_ones():
    rng = random.Random(8)
    g = random_multigraph(rng, 6, max_mult=3)
    words = [np.array([rng.randrange(3) for _ in range(6)], dtype=np.int64) for _ in range(5)]
    res = code_distance(g, PrimeField(3), words)
    for rep in res.table.values():
        assert all(type(v) is int for v in (rep.distance, rep.vectors_examined, *rep.witness.entries))
        again = DistanceReport(rep.distance, SymplecticVector(rep.witness.entries), rep.vectors_examined)
        assert rep == again and hash(rep) == hash(again)
        assert pickle.loads(pickle.dumps(rep)) == again


@pytest.mark.parametrize("p, n", [(3, 5), (5, 4)])
def test_a_one_row_stack_of_d_0_walks_the_scalar_order(monkeypatch, p, n):
    """A (1, n) stack of d = 0 weighs the candidates a 1-D d = 0 does, and reports what diagonal_distance does.

    Below its last level it weighs every x of top digit 1, and of that level
    those that may tie its best (helpers.replay): every one ranked below the
    witness.
    """
    monkeypatch.setattr(D, "_BLOCK", 1 << 3)  # every level walked alone, so every level is filtered
    walks = spy_walk(monkeypatch)
    log = walk_log(monkeypatch)
    rng = random.Random(190 + p)
    f = PrimeField(p)
    g = random_multigraph(rng, n, max_mult=p)
    want = diagonal_distance(g, f)
    [(shape, lone)] = walks
    assert shape == (n,)
    _, _, [weighed], _ = replay(log, 1, n, p, True)
    walks.clear()
    log.clear()
    [got] = D._searcher(g, f, False)(np.zeros((1, n), dtype=np.int64))
    assert key(got) == key(want)
    assert walks == [((1, n), lone)]
    assert replay(log, 1, n, p, True)[2] == [weighed]
    last = last_level(want, p)
    assert sorted(x for x in lone if bin(x).count("1") < last) == scalar_supports(n, p, last - 1)
    assert_walk_covers(weighed, want, n, p, True)
    # the support bound alone would weigh every value on each support
    assert len(lone) < sum(math.comb(n, s) * (p - 1) ** s for s in range(last_level(want, p) + 1))


@pytest.mark.parametrize("block", [D._BLOCK, 1 << 3, 1 << 1])
def test_a_one_row_stack_reports_what_its_1d_search_does(monkeypatch, block):
    """d and the same row as a (1, n) stack give identical reports, for d = 0 and d != 0."""
    monkeypatch.setattr(D, "_BLOCK", block)
    rng = random.Random(2400 + block)
    for p, ns in SIZES:
        f = PrimeField(p)
        for n in ns:
            g = random_multigraph(rng, n, max_mult=p)
            for graph in (g, isolating(g, rng.randrange(n), p, rng)):
                search = D._searcher(graph, f, False)
                for row in [[0] * n] + nonzero_rows(rng, n, p, 4):
                    d = np.array(row, dtype=np.int64)
                    lone = search(d)
                    [stacked] = search(d[None, :])
                    assert type(lone) is DistanceReport
                    assert key(stacked) == key(lone), (p, n, block, row)
                    assert stacked == lone
