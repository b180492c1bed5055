"""code_distance makes the graph's set-up once and searches each distinct difference once.

Its pair table must equal, entry for entry, what the one-pair functions
report: the same distance, witness and vectors_examined.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import diagdist
from diagdist import PrimeField, code_distance, diagonal_distance, generate, pairwise_distance
from diagdist import distance as D
from helpers import clear_memos, random_multigraph

F2 = PrimeField(2)

# (p, n values): n spans one block and several at the 2**3 block size
SIZES = [(2, (3, 6, 10)), (3, (2, 4, 7)), (5, (2, 3, 5))]


def codewords(rng, n, p, k):
    """k labellings with repeats, a shared difference and unreduced entries."""
    words = [np.array([rng.randrange(-p, 2 * p) for _ in range(n)], dtype=np.int64) for _ in range(k)]
    words.append(words[rng.randrange(k)].copy())  # a repeated codeword
    words.append(words[0] + words[1] - words[2])  # words[-1] - words[1] = words[0] - words[2]
    words.append(words[3] + p)  # equal to words[3] mod p
    return words


def key(rep):
    return (rep.distance, rep.witness.entries, rep.vectors_examined)


@pytest.mark.parametrize("block", [D._BLOCK, 1 << 3])
def test_table_matches_one_pair_searches(monkeypatch, block):
    monkeypatch.setattr(D, "_BLOCK", block)
    rng = random.Random(2024)
    for p, ns in SIZES:
        f = PrimeField(p)
        for n in ns:
            for _ in range(2):
                g = random_multigraph(rng, n, max_mult=p)
                words = codewords(rng, n, p, 4)
                res = code_distance(g, f, words)
                assert len(res.table) == len(words) * (len(words) + 1) // 2
                for (r, s), rep in res.table.items():
                    if r == s:
                        want = diagonal_distance(g, f)
                    else:
                        want = pairwise_distance(g, f, words[r - 1], words[s - 1])
                    assert key(rep) == key(want), (p, n, r, s)
                assert res.delta == min(rep.distance for rep in res.table.values())
                assert res.table[res.pair].distance == res.delta


def test_one_set_up_per_call(monkeypatch):
    calls = {"adjacency_matrix": 0, "build_lambda": 0}

    def counted(name):
        real = getattr(D, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(D, name, counted(name))
    rng = random.Random(7)
    words = [np.array([rng.randrange(2) for _ in range(5)], dtype=np.int64) for _ in range(6)]
    code_distance(generate("cycle", 5), F2, words)
    assert calls == {"adjacency_matrix": 1, "build_lambda": 1}


def test_every_codeword_length_is_checked():
    with pytest.raises(ValueError, match="length 5"):
        code_distance(generate("cycle", 5), F2, [np.zeros(3)])
    with pytest.raises(ValueError, match="length 5"):
        code_distance(generate("cycle", 5), F2, [np.zeros(5), np.zeros(5), np.zeros(6)])


def one_pair_reports(g, f, words, res):
    """Each pair's report from diagonal_distance or pairwise_distance, in the table's order."""
    return [
        key(pairwise_distance(g, f, words[r - 1], words[s - 1]) if r != s else diagonal_distance(g, f))
        for r, s in res.table
    ]


@pytest.mark.parametrize("rows", [1, 3, 16, D._ROWS])
@pytest.mark.parametrize("block", [D._BLOCK, 1 << 3, 1 << 1])
def test_batched_table_matches_one_pair_searches(monkeypatch, block, rows):
    """Stacks of 1, 3, 16 and _ROWS differences give every pair its one-pair report."""
    monkeypatch.setattr(D, "_BLOCK", block)
    monkeypatch.setattr(D, "_ROWS", rows)
    rng = random.Random(4000 + block + rows)
    for p, ns in SIZES:
        f = PrimeField(p)
        for n in ns:
            g = random_multigraph(rng, n, max_mult=p)
            one = [np.array([rng.randrange(-p, 2 * p) for _ in range(n)], dtype=np.int64)]
            for words in (codewords(rng, n, p, 4), one):  # k = 7 and k = 1
                res = code_distance(g, f, words)
                got = [key(rep) for rep in res.table.values()]
                assert got == one_pair_reports(g, f, words, res), (p, n, len(words))


def spy_searches(monkeypatch, name):
    """Spy on D.<name>: one entry per search, the shape of its difference d."""
    real = getattr(D, name)
    shapes = []

    def spy(*args):
        shapes.append(np.shape(args[-3]))  # d comes third from last in both generators
        yield from real(*args)

    monkeypatch.setattr(D, name, spy)
    return shapes


@pytest.mark.parametrize("p, name", [(2, "_level_blocks"), (3, "_residue_blocks")])
def test_one_block_pass_per_stack(monkeypatch, p, name):
    """d = 0 heads the first of ceil((distinct nonzero + 1) / _ROWS) stacks, all full but the last."""
    monkeypatch.setattr(D, "_ROWS", 3)
    shapes = spy_searches(monkeypatch, name)
    rng = random.Random(11)
    n = 5
    f = PrimeField(p)
    words = codewords(rng, n, p, 5)
    distinct = {((a - b) % p).tobytes() for r, a in enumerate(words) for b in words[r:]}
    nonzero = len(distinct) - 1
    assert nonzero > 2 * D._ROWS  # several stacks, the last one maybe partial
    res = code_distance(random_multigraph(rng, n, max_mult=p), f, words)
    full, rest = divmod(nonzero + 1, D._ROWS)
    assert shapes == [(D._ROWS, n)] * full + [(rest, n)] * (rest > 0)
    assert all(len(s) == 2 for s in shapes)
    assert sum(s[0] for s in shapes) == nonzero + 1
    assert len(res.table) == len(words) * (len(words) + 1) // 2


def test_pairs_with_equal_differences_share_one_report():
    rng = random.Random(5)
    p, n = 3, 4
    words = codewords(rng, n, p, 4)  # words[6] = words[3] + p
    res = code_distance(random_multigraph(rng, n, max_mult=p), PrimeField(p), words)
    assert res.table[(1, 4)] is res.table[(1, 7)]
    assert res.table[(4, 7)] is res.table[(1, 1)] is res.table[(7, 7)]
    by_difference = {}
    for (r, s), rep in res.table.items():
        by_difference.setdefault(((words[r - 1] - words[s - 1]) % p).tobytes(), set()).add(id(rep))
    assert all(len(ids) == 1 for ids in by_difference.values())
    assert len({id(rep) for rep in res.table.values()}) == len(by_difference)


def test_differences_that_differ_at_the_top_vertex_keep_their_own_reports():
    """Each difference is keyed by sum d_j p**j in uint64: at p = 3 and n = 40 the top digit weighs 3**39.

    On an edgeless graph each difference's report has witness (d | 0), so
    two differences merged into one key would give one of them the
    other's witness.  Differences that differ only in the top digit, and
    (in the low digit) in the last place a float64 key would hold, stay apart.
    """
    n, p = 40, 3
    g = generate("edgeless", n)
    words = [np.zeros(n, dtype=np.int64) for _ in range(4)]
    words[1][[0, -1]] = 1, 2
    words[2][[0, -1]] = 1, 1  # words[0] - words[1] and words[0] - words[2] differ only at vertex 40
    words[3][[0, -1]] = 2, 2  # and words[0] - words[3] from words[0] - words[1] only at vertex 1
    res = code_distance(g, PrimeField(p), words, D.SearchConfig(force=True))
    by_difference = {}
    for (r, s), rep in res.table.items():
        d = tuple(((words[r - 1] - words[s - 1]) % p).tolist())
        by_difference.setdefault(d, set()).add(id(rep))
        if r < s:
            assert (rep.distance, rep.witness.entries) == (np.count_nonzero(d), d + (0,) * n), (r, s)
    assert len(by_difference) == 6  # d = 0 and five distinct differences
    assert len({id(rep) for rep in res.table.values()}) == 6
    assert all(len(ids) == 1 for ids in by_difference.values())


@pytest.mark.parametrize("p, name", [(2, "_level_blocks"), (3, "_residue_blocks")])
def test_forged_weight_in_a_later_row_fails_reverification(monkeypatch, p, name):
    real = getattr(D, name)
    forged_rows = []

    def forged(*args):
        for w in real(*args):
            if w.ndim == 2 and len(w) > 1:
                w[1, -1] = 0  # no candidate of a nonzero difference has weight 0
                forged_rows.append(len(w))
            yield w

    monkeypatch.setattr(D, name, forged)
    rng = random.Random(3)
    words = [np.array([rng.randrange(p) for _ in range(5)], dtype=np.int64) for _ in range(4)]
    with pytest.raises(RuntimeError, match="re-verification"):
        code_distance(generate("cycle", 5), PrimeField(p), words)
    assert forged_rows


FORGE_UNDER_O = """
import numpy as np
from diagdist import PrimeField, code_distance, generate
from diagdist import distance as D
real = D._level_blocks
def forged(*args):
    for w in real(*args):
        if w.ndim == 2:
            w[-1, -1] = 0
        yield w
D._level_blocks = forged
words = [np.eye(5, dtype=np.int64)[i] for i in range(3)]
try:
    code_distance(generate("cycle", 5), PrimeField(2), words)
except RuntimeError as e:
    print(e)
"""


def test_batch_reverification_runs_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(diagdist.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGE_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "witness failed re-verification"


def test_a_stack_must_not_hold_the_zero_difference():
    search = D._searcher(generate("cycle", 5), F2, D.SearchConfig())
    d = np.zeros((2, 5), dtype=np.int64)
    d[0, 0] = 1
    with pytest.raises(ValueError, match="zero difference"):
        search(d)


def test_differences_past_int64_are_taken_mod_p():
    """2**62 - (-2**62) wraps in int64; reduced first, the difference is 2 mod 3, not 1."""
    g = generate("path", 3)
    f = PrimeField(3)
    big = [np.array([2**62, 0, 0]), np.array([-(2**62), 0, 0])]
    reduced = [w % 3 for w in big]
    want = pairwise_distance(g, f, *reduced)
    assert want.witness.entries == (2, 0, 0, 0, 0, 0)
    assert key(pairwise_distance(g, f, *big)) == key(want)
    assert key(code_distance(g, f, big).table[(1, 2)]) == key(want)


def full_code(rng, n, p, k=12):
    """k labellings whose k (k - 1) / 2 differences cr - cs (r < s) are distinct and nonzero."""
    while True:
        words = [np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64) for _ in range(k)]
        diffs = {((a - b) % p).tobytes() for r, a in enumerate(words) for b in words[r + 1 :]}
        if len(diffs) == k * (k - 1) // 2 and np.zeros(n, dtype=np.int64).tobytes() not in diffs:
            return words


@pytest.mark.parametrize("block", [D._BLOCK, 1 << 3, 1 << 1])
@pytest.mark.parametrize("p, n", [(2, 8), (3, 5)])
def test_twelve_codewords_fill_a_stack(monkeypatch, p, n, block):
    """66 distinct nonzero differences: a stack of _ROWS = 64 rows and one of 2."""
    monkeypatch.setattr(D, "_BLOCK", block)
    rng = random.Random(6600 + p + block)
    f = PrimeField(p)
    g = random_multigraph(rng, n, max_mult=p)
    words = full_code(rng, n, p)
    res = code_distance(g, f, words)
    assert [key(rep) for rep in res.table.values()] == one_pair_reports(g, f, words, res)


@pytest.mark.parametrize("p, name", [(2, "_level_blocks"), (3, "_residue_blocks")])
def test_a_full_stack_is_one_block_pass(monkeypatch, p, name):
    """d = 0 and the 66 nonzero differences: a stack of 64 rows, d = 0 first, and one of 3."""
    assert D._ROWS == 64
    shapes = spy_searches(monkeypatch, name)
    rng = random.Random(64 + p)
    n = 8 if p == 2 else 5
    code_distance(random_multigraph(rng, n, max_mult=p), PrimeField(p), full_code(rng, n, p))
    assert shapes == [(64, n), (3, n)]


@pytest.mark.parametrize("p, name", [(2, "_level_blocks"), (3, "_residue_blocks")])
def test_forged_weight_in_row_40_of_a_full_stack_fails_reverification(monkeypatch, p, name):
    real = getattr(D, name)
    forged_rows = []

    def forged(*args):
        for w in real(*args):
            if w.ndim == 2 and len(w) == D._ROWS:
                w[40, -1] = 0  # no candidate of a nonzero difference has weight 0
                forged_rows.append(len(w))
            yield w

    monkeypatch.setattr(D, name, forged)
    rng = random.Random(40 + p)
    n = 8 if p == 2 else 5
    with pytest.raises(RuntimeError, match="re-verification"):
        code_distance(random_multigraph(rng, n, max_mult=p), PrimeField(p), full_code(rng, n, p))
    assert forged_rows == [D._ROWS]


def test_a_code_past_the_codeword_cap_is_refused_before_any_pair(monkeypatch):
    """More than MAX_CODEWORDS codewords raise SearchTooLarge before _pairs runs; force lifts the cap."""
    real, calls = D._pairs, []
    monkeypatch.setattr(D, "_pairs", lambda k: calls.append(k) or real(k))
    monkeypatch.setattr(D, "MAX_CODEWORDS", 3)
    g, words = generate("cycle", 5), [np.zeros(5, dtype=np.int64)] * 4
    with pytest.raises(D.SearchTooLarge, match="4 codewords exceed the cap of 3"):
        code_distance(g, F2, words)
    assert calls == []
    assert code_distance(g, F2, words[:3]).delta == 3 and calls == [3]
    assert code_distance(g, F2, words, D.SearchConfig(force=True)).delta == 3 and calls == [3, 4]


def test_only_codes_of_at_most_64_codewords_keep_their_pairs():
    """A code of more than 64 codewords builds its pair table uncached, and its reports are still each pair's.

    _pairs holds about 128 bytes a pair for the life of the process: a
    memo of 1,024 codewords would keep 64 MiB.
    """
    clear_memos()
    g, rng = generate("cycle", 5), random.Random(65)
    words = [np.array([rng.randrange(2) for _ in range(5)]) for _ in range(65)]
    res = code_distance(g, F2, words)
    assert D._pairs.cache_info().currsize == 0
    assert len(res.table) == 65 * 66 // 2
    for r, s in ((1, 2), (1, 65), (17, 40), (64, 65)):
        assert key(res.table[r, s]) == key(pairwise_distance(g, F2, words[r - 1], words[s - 1]))
    assert key(res.table[65, 65]) == key(diagonal_distance(g, F2))
    code_distance(g, F2, words[:64])
    assert D._pairs.cache_info().currsize == 1
