"""Labellings are reduced mod p exactly, whatever their dtype or size.

numpy would wrap a uint64 entry 2**64 - 1 (0 mod 3) to -1 (2 mod 3) in a
cast to int64, read a list holding it as floats, and refuse a Python int
past 64 bits.  Every function that takes a labelling must give what it
gives for the reduced one, and so must every adjacency matrix and
exponent the oracle's Z and X rules take.  build_lambda and
SymplecticVector do not reduce: they refuse any entry that int64 does not
hold exactly, and a fraction such as 1.5, which int() would truncate.
"""

import numpy as np
import pytest

from diagdist import (
    OperatorWord,
    PrimeField,
    SymplecticVector,
    apply_word,
    apply_x,
    apply_z,
    brute_force_pairwise,
    build_lambda,
    code_distance,
    generate,
    kernel_point,
    pairwise_distance,
    rref,
    solve,
)
from diagdist.gfp import _residues

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


# (name, codewords of length 3): code_distance reduces codewords of one integer dtype in one call, and
# the rest one at a time, so each mix must give what the reduced codewords give
CODES = [
    ("int64 and uint64 holding 2**64 - 1", [np.array([TOP, 0, 0], dtype=np.uint64), np.array([1, 2, 0]), np.array([2, 2, 1])]),
    ("uint64 only", [np.array([TOP, 1, 0], dtype=np.uint64), np.array([2**63 + 1, 0, TOP - 1], dtype=np.uint64)]),
    ("Python-int lists", [[1, 2, 0], [2, 2, 1], [0, 1, 1], [1, 2, 0]]),
    ("Python-int lists read as floats", [[TOP, 0, 0], [0, 1, 2**64 - 2]]),
    ("a list of a big int and a float", [[TOP, 1.0, 0], [0, 0, 0]]),
    ("int8 arrays", [np.array([-128, 127, -1], dtype=np.int8), np.array([5, 0, 1], dtype=np.int8)]),
]


@pytest.mark.parametrize("name, words", CODES, ids=[name for name, _ in CODES])
def test_codewords_reduce_as_their_residues(name, words):
    res = code_distance(generate("cycle", 3), F3, words)
    want = code_distance(generate("cycle", 3), F3, [reduced(c) for c in words])
    assert (res.delta, res.pair) == (want.delta, want.pair)
    assert {pair: key(rep) for pair, rep in res.table.items()} == {pair: key(rep) for pair, rep in want.table.items()}


def test_a_short_codeword_is_refused():
    g = generate("cycle", 3)
    for words in ([np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)], [[0, 1], [1, 0]], [[0, 1, 2], [1]]):
        with pytest.raises(ValueError, match="labellings must have length 3"):
            code_distance(g, F3, words)


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


GAMMA = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
WORD = OperatorWord(((1, 2), (0, 1), (2, 0)))


@pytest.mark.parametrize("name, c", INPUTS, ids=[name for name, _ in INPUTS])
def test_apply_z(name, c):
    assert np.array_equal(apply_z(c, 2, 1, F3), apply_z(reduced(c), 2, 1, F3))


@pytest.mark.parametrize("name, c", INPUTS, ids=[name for name, _ in INPUTS])
def test_apply_x(name, c):
    assert np.array_equal(apply_x(c, 2, 2, GAMMA, F3), apply_x(reduced(c), 2, 2, GAMMA, F3))


@pytest.mark.parametrize("name, c", INPUTS, ids=[name for name, _ in INPUTS])
def test_apply_word(name, c):
    assert np.array_equal(apply_word(WORD, c, GAMMA, F3), apply_word(WORD, reduced(c), GAMMA, F3))


def unreduced_gamma(big, dtype=np.int64):
    """big on the 1-2 edge: twice an int64 big overflows, and a uint64 2**64 - 1 casts to -1."""
    return np.array([[0, big, 1], [big, 0, 2], [1, 2, 0]], dtype=dtype)


GAMMAS = [
    ("2**62", unreduced_gamma(2**62)),
    ("2**63 - 1", unreduced_gamma(2**63 - 1)),
    ("uint64 2**64 - 1", unreduced_gamma(TOP, np.uint64)),
]


def reduced_gamma(gamma, p=3):
    return np.array([[int(v) % p for v in row] for row in gamma], dtype=np.int64)


@pytest.mark.parametrize("name, gamma", GAMMAS, ids=[name for name, _ in GAMMAS])
def test_kernel_point_reduces_gamma(name, gamma):
    x = [2, 2, 1]
    assert kernel_point(gamma, x, F3) == kernel_point(reduced_gamma(gamma), x, F3)


@pytest.mark.parametrize("name, gamma", GAMMAS, ids=[name for name, _ in GAMMAS])
def test_apply_x_reduces_gamma(name, gamma):
    l = [0, 1, 2]
    assert np.array_equal(apply_x(l, 1, 2, gamma, F3), apply_x(l, 1, 2, reduced_gamma(gamma), F3))


@pytest.mark.parametrize("name, gamma", GAMMAS, ids=[name for name, _ in GAMMAS])
def test_apply_word_reduces_gamma(name, gamma):
    w, l = OperatorWord(((0, 2), (1, 2), (0, 0))), [0, 1, 2]
    assert np.array_equal(apply_word(w, l, gamma, F3), apply_word(w, l, reduced_gamma(gamma), F3))


EXPONENTS = [2**70, np.uint64(TOP), -(2**65) - 1]


@pytest.mark.parametrize("e", EXPONENTS, ids=["2**70", "uint64 2**64 - 1", "-(2**65) - 1"])
def test_exponents_are_reduced(e):
    l, e_red = [0, 1, 2], int(e) % 3
    assert np.array_equal(apply_z(l, 1, e, F3), apply_z(l, 1, e_red, F3))
    assert np.array_equal(apply_x(l, 1, e, GAMMA, F3), apply_x(l, 1, e_red, GAMMA, F3))


def test_kernel_point_checks_the_length():
    with pytest.raises(ValueError, match="labellings must have length 3"):
        kernel_point(GAMMA, [1, 2], F3)


def test_build_lambda_keeps_integral_entries():
    want = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=np.int64)
    for gamma in (
        [[0, 1], [1, 0]],
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0, 1], [1, 0]], dtype=np.uint64),
        np.array([[0, 1], [1, 0]], dtype=object),
        np.array([[False, True], [True, False]]),
    ):
        lam = build_lambda(gamma)
        assert lam.dtype == np.int64 and np.array_equal(lam, want)
    assert np.array_equal(build_lambda(np.zeros((3, 3))), np.eye(3, 6, dtype=np.int64))
    big = build_lambda([[2**63 - 1, 0.0], [-(2**63), 2**62 + 1]])  # the floats would round 2**62 + 1
    assert big[:, 2:].tolist() == [[2**63 - 1, 0], [-(2**63), 2**62 + 1]]


NOT_INT64 = [
    ("uint64 2**64 - 1", np.array([[0, TOP], [TOP, 0]], dtype=np.uint64)),
    ("uint64 2**63", np.array([[0, 2**63], [2**63, 0]], dtype=np.uint64)),
    ("float 1.7", np.array([[0, 1.7], [1.7, 0]])),
    ("float 2**63", np.array([[0, 2.0**63], [2.0**63, 0]])),
    ("nan", np.array([[0, np.nan], [np.nan, 0]])),
    ("inf", np.array([[0, np.inf], [np.inf, 0]])),
    ("Python int 2**63", [[0, 2**63], [2**63, 0]]),
    ("Python int past 64 bits", [[0, 2**70], [2**70, 0]]),
    ("Python int below int64", [[0, -(2**63) - 1], [-(2**63) - 1, 0]]),
    ("float in a list", [[0, 0.5], [1, 0]]),
    ("strings", np.array([["0", "1"], ["1", "0"]])),
    ("None", [[0, None], [None, 0]]),
]


@pytest.mark.parametrize("name, gamma", NOT_INT64, ids=[name for name, _ in NOT_INT64])
def test_build_lambda_refuses_entries_int64_does_not_hold(name, gamma):
    with pytest.raises(ValueError, match="integers that int64 holds exactly"):
        build_lambda(gamma)


def test_build_lambda_checks_the_shape_first():
    with pytest.raises(ValueError, match=r"adjacency block must be square, got shape \(2, 3\)"):
        build_lambda([[0, 1.5, 2**70], [0, 0, 0]])


@pytest.mark.parametrize("gamma", [np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3), np.zeros((3, 3, 1))])
def test_kernel_point_refuses_a_non_square_gamma(gamma):
    with pytest.raises(ValueError, match=r"adjacency block must be square, got shape"):
        kernel_point(gamma, [1, 2, 0], F3)


# Floats that no integer equals: a cast to int64 would truncate them, or
# turn them into an arbitrary int64 with only a RuntimeWarning.
NOT_INTEGRAL = [
    ("float in a list", [1.7, 0, 0]),
    ("float array", np.array([1.7, 2.2, 0.0])),
    ("float32 array", np.array([0.5, 0, 0], dtype=np.float32)),
    ("nan", np.array([np.nan, 0, 0])),
    ("inf", np.array([0, -np.inf, 0])),
]


@pytest.mark.parametrize("name, c", NOT_INTEGRAL, ids=[name for name, _ in NOT_INTEGRAL])
def test_non_integral_entries_are_refused(name, c):
    g = generate("path", 3)
    zero = np.zeros(3, dtype=np.int64)
    for call in (
        lambda: pairwise_distance(g, F3, c, zero),
        lambda: pairwise_distance(g, F3, zero, c),
        lambda: brute_force_pairwise(g, F3, c, zero),
        lambda: code_distance(g, F3, [zero, c]),
        lambda: kernel_point(GAMMA, c, F3),
        lambda: apply_z(c, 1, 1, F3),
    ):
        with pytest.raises(ValueError, match="entries must be integers"):
            call()


def test_integral_floats_are_reduced_exactly():
    """3e19 is 0 mod 5; cast to int64 it would overflow."""
    assert _residues(np.array([3e19]), 5).tolist() == [0]
    big = np.array([3e19, -(2.0**70), 2.0**64 + 2.0**12])
    assert _residues(big, 7).tolist() == [int(v) % 7 for v in big.tolist()]
    assert _residues([3e19, 2**70, -1.0], 7).tolist() == [3 * 10**19 % 7, 2**70 % 7, 6]
    g = generate("path", 3)
    cr = np.array([3e19, 0.0, -2.0], dtype=np.float64)  # (0, 0, 1) mod 3: 3e19 = 3 * 1e19
    assert key(pairwise_distance(g, F3, cr, np.zeros(3))) == key(pairwise_distance(g, F3, [0, 0, 1], [0, 0, 0]))


# Complex labellings: a cast to int64 drops the imaginary part with only a
# ComplexWarning, so 1+2j would be read as 1.
NOT_REAL = [
    ("complex array", np.array([1 + 2j, 0, 0])),
    ("complex in a list", [0, 1 + 2j, 0]),
    ("complex64 array", np.array([0, 0, 2 - 1j], dtype=np.complex64)),
    ("complex scalar in an object array", np.array([np.complex64(1j), 0, 0], dtype=object)),
]


@pytest.mark.parametrize("name, c", NOT_REAL, ids=[name for name, _ in NOT_REAL])
def test_complex_entries_are_refused(name, c):
    g = generate("path", 3)
    zero = np.zeros(3, dtype=np.int64)
    for call in (
        lambda: pairwise_distance(g, F3, c, zero),
        lambda: pairwise_distance(g, F3, zero, c),
        lambda: brute_force_pairwise(g, F3, c, zero),
        lambda: code_distance(g, F3, [zero, c]),
        lambda: kernel_point(GAMMA, c, F3),
        lambda: apply_z(c, 1, 1, F3),
    ):
        with pytest.raises(ValueError, match="entries must be integers"):
            call()


def test_real_complex_entries_are_reduced_as_their_real_part(recwarn):
    """4+0j is the integer 4, 1 mod 3, read without a ComplexWarning."""
    g = generate("path", 3)
    c = np.array([4 + 0j, 0, -1 + 0j])
    want = reduced([4, 0, -1])
    assert _residues(c, 3).tolist() == want.tolist()
    assert key(pairwise_distance(g, F3, c, np.zeros(3))) == key(pairwise_distance(g, F3, want, [0, 0, 0]))
    assert key(code_distance(g, F3, [c, want]).table[(1, 2)]) == key(pairwise_distance(g, F3, want, want))
    assert np.array_equal(apply_z(c, 1, 1, F3), apply_z(want, 1, 1, F3))
    assert not [w for w in recwarn if issubclass(w.category, np.exceptions.ComplexWarning)]
    with pytest.raises(ValueError, match=r"entries must be integers, got \(1\.5\+0j\)"):
        _residues([1.5 + 0j, 0, 0], 3)


@pytest.mark.parametrize(
    "make",
    [lambda: SymplecticVector.from_parts([1.5, 2.9], [0, 1]), lambda: OperatorWord(((1.5, 0), (0, 2.7))).to_vector()],
    ids=["from_parts", "OperatorWord.to_vector"],
)
def test_fractional_exponents_are_refused(make):
    with pytest.raises(ValueError, match="symplectic entries"):  # int() would truncate them to 1 and 2
        make()


def test_integral_exponents_are_kept_as_python_ints():
    k = SymplecticVector.from_parts([1.0, np.int64(2)], (v for v in [np.uint8(0), True]))
    assert k.entries == (1, 2, 0, 1) and all(type(v) is int for v in k.entries)
    assert OperatorWord(((1, 0), (0, 2.0))).to_vector().entries == (1, 0, 0, 2)


def test_a_vector_built_from_its_entries_reads_them_too():
    with pytest.raises(ValueError, match="symplectic entries"):
        SymplecticVector((1.5, 2.9, 0, 1))  # as_array would truncate them to 1 and 2
    k = SymplecticVector((np.int64(1), 0.0, 2, True))
    assert k.entries == (1, 0, 2, 1) and all(type(v) is int for v in k.entries)
