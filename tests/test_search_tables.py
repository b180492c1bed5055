"""The low-digit tables of the block search, at the edges of their dtypes.

At p = 2 the masks are uint32 up to 32 vertices and uint64 above, so the
searches below set bit 31 and bit 32 and stop on their first candidate.
At odd p the odometer table reduces sums of two residues with an unsigned
wrap instead of % p; it must equal the % p construction, also in uint16.
_bitmasks and build_lambda must equal their plain reference constructions.
"""

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


@pytest.mark.parametrize("n, width", [(32, np.uint32), (33, np.uint64)])
def test_unit_difference_at_the_top_vertex(n, width):
    """d = e_n weighs 1 at x = 0: the top bit of the masks, found on the first candidate."""
    g = generate("cycle", n)
    f = PrimeField(2)
    _, xl, zl = D._gray_table(adjacency_matrix(g, f), 12)
    assert xl[0].dtype == zl[0].dtype == width
    e = np.zeros(n, dtype=np.int64)
    e[-1] = 1
    rep = pairwise_distance(g, f, e, np.zeros(n, dtype=np.int64), FORCE)
    assert (rep.distance, rep.vectors_examined) == (1, 1)
    assert rep.witness.entries == tuple(e.tolist()) + (0,) * n


def test_edgeless_graph_past_32_vertices():
    g = Multigraph(40, np.zeros((40, 40), dtype=np.int64))
    rep = diagonal_distance(g, PrimeField(2), FORCE)
    assert (rep.distance, rep.vectors_examined) == (1, 1)
    assert rep.witness.entries == (0,) * 40 + (1,) + (0,) * 39


def modular_table(gamma, n, p, m):
    """The odometer table built with % p at each digit, in int64."""
    tab = np.zeros((n, 1), dtype=np.int64)
    for j in range(m):
        steps = (np.arange(p) * -gamma[:, j : j + 1]) % p
        tab = ((tab[:, None, :] + steps[:, :, None]) % p).reshape(n, -1)
    for j in range(m):
        tab[j].reshape(p ** (m - 1 - j), p, p**j)[:, 1:, :] = p
    return tab


def low_digits(n, p):
    """m as the search picks it: the most low digits with p**m <= _BLOCK."""
    m = 0
    while m < n and p ** (m + 1) <= D._BLOCK:
        m += 1
    return m


@pytest.mark.parametrize(
    "p, n, block",
    [(3, 9, None), (5, 6, None), (7, 5, None), (11, 4, None), (131, 3, 131**2), (257, 3, 257**2)],
)
def test_odometer_table_equals_the_modular_one(monkeypatch, p, n, block):
    if block is not None:
        monkeypatch.setattr(D, "_BLOCK", block)
    gamma = adjacency_matrix(random_multigraph(random.Random(p), n, max_mult=2 * p), PrimeField(p))
    m = low_digits(n, p)
    assert m >= 1
    tab = D._odometer_table(gamma, n, p, m)
    assert tab.dtype == np.min_scalar_type(2 * p)
    assert tab.shape == (n, p**m)
    np.testing.assert_array_equal(tab, modular_table(gamma, n, p, m))


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
    for name in ("_gray_blocks", "_odometer_blocks"):

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
        D._layout.cache_clear()
        D._gray_codes.cache_clear()
        return searches()

    want = {block: fresh(block) for block in (1 << 3, 1 << 12)}
    assert want[1 << 3][0] == want[1 << 12][0]  # the block size never shows in a report
    assert max(s[-1] for s in want[1 << 3][1]) <= 1 << 3 < max(s[-1] for s in want[1 << 12][1])
    D._layout.cache_clear()
    D._gray_codes.cache_clear()
    for block in (1 << 12, 1 << 3, 1 << 12):
        monkeypatch.setattr(D, "_BLOCK", block)
        assert searches() == want[block]


def test_memoized_tables_are_shared_and_read_only():
    f = PrimeField(2)
    _, xl, _ = D._gray_table(adjacency_matrix(generate("cycle", 6), f), 6)
    assert xl is D._gray_table(adjacency_matrix(generate("complete", 6), f), 6)[1]
    _, powers = D._layout(3, D._BLOCK)
    assert powers.tolist() == [3**j for j in range(40)]  # 3**39 < 2**63 < 3**40
    for a in (*xl, powers, powers[:5]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
