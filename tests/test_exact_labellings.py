"""Labellings are reduced mod p exactly, whatever their dtype or size.

numpy would wrap a uint64 entry 2**64 - 1 (0 mod 3) to -1 (2 mod 3) in a
cast to int64, read a list holding it as floats, and refuse a Python int
past 64 bits.  Every function that takes a labelling must give what it
gives for the reduced one.
"""

import numpy as np
import pytest

from diagdist import (
    PrimeField,
    brute_force_pairwise,
    code_distance,
    generate,
    kernel_point,
    pairwise_distance,
    rref,
    solve,
)

F3 = PrimeField(3)
TOP = 2**64 - 1  # 0 mod 3

# (name, labelling) pairs of length 3, in every form numpy reads differently
INPUTS = [
    ("uint64 array", np.array([TOP, 0, 0], dtype=np.uint64)),
    ("uint64 array, every entry", np.array([TOP, TOP - 1, 2**63 + 4], dtype=np.uint64)),
    ("list read as floats", [TOP, 0, 0]),
    ("list read as uint64", [2**63, 2**63 + 1, 2**63 + 2]),
    ("Python ints past 64 bits", [2**70, -(2**65) - 1, 3**50 + 2]),
    ("object array", np.array([2**70 + 1, 5, -(2**80)], dtype=object)),
    ("int8 array", np.array([-128, 127, -1], dtype=np.int8)),
    ("uint16 array", np.array([65535, 1, 0], dtype=np.uint16)),
]


def reduced(c, p=3):
    return np.array([int(v) % p for v in c], dtype=np.int64)


def key(rep):
    return (rep.distance, rep.witness.entries, rep.vectors_examined)


def test_a_uint64_entry_is_not_wrapped():
    """2**64 - 1 is 0 mod 3; wrapped to -1 it would be 2 and give distance 1."""
    g = generate("path", 3)
    cr = np.array([TOP, 0, 0], dtype=np.uint64)
    rep = pairwise_distance(g, F3, cr, 0 * reduced(cr))
    assert key(rep) == key(pairwise_distance(g, F3, [0, 0, 0], [0, 0, 0]))
    assert rep.distance == 2


@pytest.mark.parametrize("name, c", INPUTS, ids=[name for name, _ in INPUTS])
def test_pairwise_distance(name, c):
    g = generate("path", 3)
    cs = np.array([1, 2, 0], dtype=np.int64)
    assert key(pairwise_distance(g, F3, c, cs)) == key(pairwise_distance(g, F3, reduced(c), cs))
    assert key(pairwise_distance(g, F3, cs, c)) == key(pairwise_distance(g, F3, cs, reduced(c)))


@pytest.mark.parametrize("name, c", INPUTS, ids=[name for name, _ in INPUTS])
def test_brute_force_pairwise(name, c):
    g = generate("path", 3)
    cs = np.array([1, 2, 0], dtype=np.int64)
    assert key(brute_force_pairwise(g, F3, c, cs)) == key(brute_force_pairwise(g, F3, reduced(c), cs))
    assert key(brute_force_pairwise(g, F3, cs, c)) == key(brute_force_pairwise(g, F3, cs, reduced(c)))


def test_code_distance():
    g = generate("cycle", 3)
    words = [c for _, c in INPUTS]
    res = code_distance(g, F3, words)
    want = code_distance(g, F3, [reduced(c) for c in words])
    assert (res.delta, res.pair) == (want.delta, want.pair)
    assert {pair: key(rep) for pair, rep in res.table.items()} == {
        pair: key(rep) for pair, rep in want.table.items()
    }


@pytest.mark.parametrize("name, c", INPUTS, ids=[name for name, _ in INPUTS])
def test_kernel_point(name, c):
    gamma = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert kernel_point(gamma, c, F3) == kernel_point(gamma, reduced(c), F3)


def test_linear_algebra_reduces_exactly():
    m = np.array([[TOP, 1], [2, 2**63 + 1]], dtype=np.uint64)
    m_red = np.array([[0, 1], [2, 0]], dtype=np.int64)
    r, pivots, rank = rref(m, F3)
    want = rref(m_red, F3)
    assert np.array_equal(r, want[0]) and (pivots, rank) == (want[1], want[2])
    rhs = [2**70, TOP - 1]  # (1, 2) mod 3
    assert np.array_equal(solve(m, rhs, F3), solve(m_red, [1, 2], F3))


def test_lengths_are_still_checked_first():
    g = generate("cycle", 5)
    long = [2**70] * 6
    with pytest.raises(ValueError, match="length 5"):
        pairwise_distance(g, F3, long, [0] * 5)
    with pytest.raises(ValueError, match="length 5"):
        brute_force_pairwise(g, F3, [0] * 5, np.zeros(6, dtype=np.uint64))
    with pytest.raises(ValueError, match="length 5"):
        code_distance(g, F3, [np.zeros(5), long])
