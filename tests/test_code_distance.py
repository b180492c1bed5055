"""code_distance makes the graph's set-up once and searches each distinct difference once.

Its pair table must equal, entry for entry, what the one-pair functions
report: the same distance, witness and vectors_examined.
"""

import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diagdist
from diagdist import PrimeField, code_distance, diagonal_distance, generate, pairwise_distance
from diagdist import distance as D
from helpers import clear_memos, on_search, on_weigh, random_multigraph

HERE = Path(__file__).parent  # helpers.py, for the forged weigher under python -O

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


def spy_keying(monkeypatch):
    """Record the length of each block of differences that code_distance keys by its digit powers d @ p**j."""
    real, keyed = D._powers, []

    class Powers(np.ndarray):
        def __rmatmul__(self, diffs):
            keyed.append(len(diffs))
            return diffs @ self.view(np.ndarray)

    monkeypatch.setattr(D, "_powers", lambda p: real(p).view(Powers))
    return keyed


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


def spy_searches(monkeypatch):
    """Spy on the searches: one entry per search, the shape of its difference d."""
    shapes = []
    on_search(monkeypatch, lambda d: shapes.append(np.shape(d)))
    return shapes


@pytest.mark.parametrize("p, name", [(2, "_level_blocks"), (3, "_residue_blocks")])
def test_one_block_pass_per_stack(monkeypatch, p, name):
    """d = 0 heads the first of ceil((distinct nonzero + 1) / _ROWS) stacks, all full but the last."""
    monkeypatch.setattr(D, "_ROWS", 3)
    shapes = spy_searches(monkeypatch)
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
    res = code_distance(g, PrimeField(p), words, force=True)
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
    forged_rows = []

    def forged(p, chunk, w):
        if w.ndim == 2 and len(w) > 1:
            w[1, -1] = 0  # no candidate of a nonzero difference has weight 0
            forged_rows.append(len(w))

    on_weigh(monkeypatch, forged)
    rng = random.Random(3)
    words = [np.array([rng.randrange(p) for _ in range(5)], dtype=np.int64) for _ in range(4)]
    with pytest.raises(RuntimeError, match="re-verification"):
        code_distance(generate("cycle", 5), PrimeField(p), words)
    assert forged_rows


FORGE_UNDER_O = """
import numpy as np
import pytest
from diagdist import PrimeField, code_distance, generate
from helpers import on_weigh
def forged(p, chunk, w):
    if w.ndim == 2:
        w[-1, -1] = 0
on_weigh(pytest.MonkeyPatch(), forged)
words = [np.eye(5, dtype=np.int64)[i] for i in range(3)]
try:
    code_distance(generate("cycle", 5), PrimeField(2), words)
except RuntimeError as e:
    print(e)
"""


def test_batch_reverification_runs_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (Path(diagdist.__file__).parents[1], HERE))))
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
    search = D._searcher(generate("cycle", 5), F2, False)
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
    shapes = spy_searches(monkeypatch)
    rng = random.Random(64 + p)
    n = 8 if p == 2 else 5
    code_distance(random_multigraph(rng, n, max_mult=p), PrimeField(p), full_code(rng, n, p))
    assert shapes == [(64, n), (3, n)]


@pytest.mark.parametrize("p, name", [(2, "_level_blocks"), (3, "_residue_blocks")])
def test_forged_weight_in_row_40_of_a_full_stack_fails_reverification(monkeypatch, p, name):
    forged_rows = []

    def forged(p, chunk, w):
        if w.ndim == 2 and len(w) == D._ROWS:
            w[40, -1] = 0  # no candidate of a nonzero difference has weight 0
            forged_rows.append(len(w))

    on_weigh(monkeypatch, forged)
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
    assert code_distance(g, F2, words, force=True).delta == 3 and calls == [3, 4]


def test_a_code_past_the_work_budget_is_refused_before_any_search(monkeypatch):
    """The walks' bounds, summed over a code's distinct differences, are checked against CODE_BUDGET first.

    On the 5-cycle at p = 2 the codewords 00000, 11000 and 00111 give the
    differences 0, 11000, 00111 and 11111.  A walk for d != 0 ends by level
    |supp d|, and for d = 0 by level 1 + 2, the least column support plus
    one, so they may weigh 26 + 16 + 26 + 32 = 100 candidates.  force admits
    the code.  While the six pairs' p**n candidates pass the budget
    (6 * 32 = 192), the bounds are summed from d = 0's, which builds Gamma
    a second time, after the searcher's; at a budget of 192 none is summed.
    """
    real_adjacency, searches, gammas = D.adjacency_matrix, [], []
    on_search(monkeypatch, lambda d: searches.append(1))
    monkeypatch.setattr(D, "adjacency_matrix", lambda *args: gammas.append(1) or real_adjacency(*args))
    g, words = generate("cycle", 5), [np.array(w) for w in ([0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 1, 1])]
    monkeypatch.setattr(D, "CODE_BUDGET", 99)
    refusal = "^4 distinct differences may weigh 100 candidates, past the code budget 99; set force$"
    with pytest.raises(D.SearchTooLarge, match=refusal):
        code_distance(g, F2, words)
    assert searches == []
    forced = code_distance(g, F2, words, force=True)
    table = forced.table.items()
    for budget, built in ((100, 2), (127, 2), (128, 2), (192, 1)):
        monkeypatch.setattr(D, "CODE_BUDGET", budget)
        gammas.clear()
        res = code_distance(g, F2, words)
        assert len(gammas) == built, budget
        assert (res.delta, res.pair) == (forced.delta, forced.pair)
        assert [(pair, key(rep)) for pair, rep in res.table.items()] == [(pair, key(rep)) for pair, rep in table]


def test_an_over_budget_code_is_refused_before_its_pair_table(monkeypatch):
    """1,024 random codewords on the 24-cycle at p = 2 may weigh 2**42.1 candidates: refused after two blocks of pairs.

    The pairs are keyed _BLOCK at a time in scan order, and each new
    distinct difference's bound is added as it is keyed, so the code is
    refused at the first block past CODE_BUDGET, before the pair tuples
    and the whole difference array exist.  Keying all 524,800 pairs first
    peaked at 261 MiB under tracemalloc; this peaked at 11.6 MiB.
    """
    keyed = spy_keying(monkeypatch)
    rng = random.Random(1024)
    words = [np.array([rng.randrange(2) for _ in range(24)]) for _ in range(1024)]
    tracemalloc.start()
    try:
        with pytest.raises(D.SearchTooLarge, match="^8172 distinct differences may weigh 77242687781 candidates"):
            code_distance(generate("cycle", 24), F2, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keyed == [D._BLOCK, D._BLOCK]
    assert peak < 32 << 20


def test_an_admitted_code_keys_each_pair_once_without_its_whole_difference_array(monkeypatch):
    """The 256 codewords of an 8-dimensional span on the 24-cycle at p = 2: 32,896 pairs, 256 distinct differences.

    Past 90 codewords the work check applies, and its keying is the
    code's only one: each pair is keyed once, _BLOCK at a time, and only
    each new distinct difference's row is kept.  So beyond the table it
    returns, the call holds less than the whole int64 difference array
    (6.0 MiB); keying that array, and its uint64 copy, peaked 10.8 MiB
    above the table under tracemalloc, and this 2.2 MiB.
    """
    keyed = spy_keying(monkeypatch)
    rng, g = random.Random(7), generate("cycle", 24)
    basis = np.array([[rng.randrange(2) for _ in range(24)] for _ in range(8)])
    words = [np.array(c) @ basis % 2 for c in itertools.product(range(2), repeat=8)]
    tracemalloc.start()
    try:
        res = code_distance(g, F2, words)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pairs = 256 * 257 // 2
    assert keyed == [D._BLOCK] * (pairs // D._BLOCK) + [pairs % D._BLOCK]
    assert len(res.table) == pairs and len({rep.witness for rep in res.table.values()}) == 256
    assert list(res.table) == sorted(res.table)  # scan order, which the CLI prints
    assert peak - held < pairs * 24 * 8
    for r, s in ((1, 1), (1, 2), (3, 200), (100, 256), (256, 256)):
        assert key(res.table[r, s]) == key(pairwise_distance(g, F2, words[r - 1], words[s - 1]))


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
