import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    OperatorWord,
    PrimeField,
    SearchTooLarge,
    adjacency_matrix,
    apply_word,
    apply_x,
    apply_z,
    brute_force_distance,
    brute_force_pairwise,
    build_lambda,
    chi_weight,
    eta_sum,
    generate,
)
from helpers import random_labelling, random_multigraph

F2 = PrimeField(2)
F3 = PrimeField(3)

ZERO5 = np.zeros(5, dtype=np.int64)
ONES5 = np.ones(5, dtype=np.int64)
E1 = np.array([1, 0, 0, 0, 0], dtype=np.int64)


def test_apply_z():
    assert apply_z([0, 0, 0], 2, 1, F2).tolist() == [0, 1, 0]
    l = np.array([1, 0, 1])
    assert apply_z(l, 1, 0, F2).tolist() == [1, 0, 1]
    assert apply_z([0, 1, 0], 2, 2, F3).tolist() == [0, 0, 0]
    with pytest.raises(IndexError):
        apply_z([0, 0], 3, 1, F2)
    with pytest.raises(ValueError, match="one integer"):
        apply_z([0, 0, 0], 1, [1, 2, 0], F3)  # numpy refused it: "setting an array element with a sequence"


def test_apply_x():
    gamma = adjacency_matrix(generate("cycle", 5), F2)
    assert apply_x(ZERO5, 1, 1, gamma, F2).tolist() == [0, 1, 0, 0, 1]
    e = adjacency_matrix(generate("edgeless", 3), F2)
    assert apply_x([1, 0, 1], 2, 1, e, F2).tolist() == [1, 0, 1]
    k2 = adjacency_matrix(generate("complete", 2), F2)
    assert apply_x([0, 0], 1, 1, k2, F2).tolist() == [0, 1]
    with pytest.raises(IndexError, match="out of range 1..2"):
        apply_x([0, 0], 3, 1, k2, F2)
    with pytest.raises(ValueError, match="one integer"):  # it was applied entry by entry: [0 2 0] on the 3-cycle
        apply_x([0, 0, 0], 1, [1, 2, 0], adjacency_matrix(generate("cycle", 3), F3), F3)


def test_apply_word_refuses_mismatched_dimensions():
    gamma = adjacency_matrix(generate("cycle", 5), F2)
    with pytest.raises(ValueError, match="dimensions disagree"):
        apply_word(OperatorWord(((0, 0),) * 4), ZERO5, gamma, F2)
    with pytest.raises(ValueError, match="dimensions disagree"):
        apply_word(OperatorWord(((0, 0),) * 5), ZERO5, gamma[:4, :4], F2)


def test_apply_word_zero_word_is_identity():
    gamma = adjacency_matrix(generate("cycle", 5), F2)
    w = OperatorWord(((0, 0),) * 5)
    assert apply_word(w, ONES5, gamma, F2).tolist() == ONES5.tolist()


def test_apply_word_kernel_vector_acts_as_identity():
    # (z | x) = (1,0,1,0,0 | 0,1,0,0,0) is in the kernel of the 5-cycle
    gamma = adjacency_matrix(generate("cycle", 5), F2)
    w = OperatorWord(((1, 0), (0, 1), (1, 0), (0, 0), (0, 0)))
    assert apply_word(w, ZERO5, gamma, F2).tolist() == ZERO5.tolist()


def test_apply_word_single_z():
    gamma = adjacency_matrix(generate("complete", 2), F2)
    w = OperatorWord(((1, 0), (0, 0)))
    assert apply_word(w, np.zeros(2, dtype=np.int64), gamma, F2).tolist() == [1, 0]


def test_eta_sum():
    assert eta_sum(OperatorWord(((0, 0),) * 4)) == 0
    # the word for kernel vector (0,1,0,0,1 | 1,0,0,0,0)
    assert eta_sum(OperatorWord(((0, 1), (1, 0), (0, 0), (0, 0), (1, 0)))) == 3
    assert eta_sum(OperatorWord(((1, 1), (0, 0)))) == 1  # same-vertex pair counts once


def test_word_vector_round_trip():
    w = OperatorWord(((1, 2), (0, 1), (2, 0)))
    k = w.to_vector()
    assert k.entries == (1, 0, 2, 2, 1, 0)
    assert OperatorWord.from_vector(k) == w


# Values below were fixed by running this brute force itself; they regression-
# pin the oracle and are reused as the expected values for the fast path.


def test_brute_force_cycle5():
    rep = brute_force_distance(generate("cycle", 5), F2)
    assert rep.distance == 3
    assert rep.vectors_examined == 4**5


def test_brute_force_k2():
    rep = brute_force_distance(generate("complete", 2), F2)
    assert rep.distance == 2


def test_brute_force_k3():
    assert brute_force_distance(generate("complete", 3), F2).distance == 2


def test_brute_force_single_vertex_formal_convention():
    # the lone X factor acts as the identity map yet counts 1 formally
    rep = brute_force_distance(generate("edgeless", 1), F2)
    assert rep.distance == 1
    assert rep.witness.entries == (0, 1)


def test_brute_force_witness_is_in_kernel():
    g = generate("cycle", 5)
    rep = brute_force_distance(g, F2)
    lam = build_lambda(adjacency_matrix(g, F2))
    assert not ((lam @ rep.witness.as_array()) % 2).any()
    assert chi_weight(rep.witness, F2) == rep.distance


def test_brute_force_pairwise_same_codeword_equals_distance():
    g = generate("cycle", 4)
    c = np.array([1, 0, 1, 1], dtype=np.int64)
    assert brute_force_pairwise(g, F2, c, c).distance == brute_force_distance(g, F2).distance


def test_brute_force_pairwise_cycle5_values():
    g = generate("cycle", 5)
    assert brute_force_pairwise(g, F2, ZERO5, E1).distance == 1
    assert brute_force_pairwise(g, F2, ZERO5, ONES5).distance == 3


def test_brute_force_pairwise_length_mismatch():
    with pytest.raises(ValueError):
        brute_force_pairwise(generate("cycle", 4), F2, np.zeros(3), np.zeros(4))


def test_hard_cap():
    with pytest.raises(SearchTooLarge):
        brute_force_distance(generate("cycle", 5), F2, hard_cap=100)


@pytest.mark.parametrize("cap", [float("nan"), float("inf"), 1.5, "64", None], ids=["nan", "inf", "1.5", "'64'", "None"])
def test_hard_cap_is_read_as_an_integer(cap):
    """nan and inf ran the oracle at any size (total > nan is false), and 1.5 raised SearchTooLarge."""
    g = generate("cycle", 3)
    with pytest.raises(ValueError, match="hard_cap must be an integer"):
        brute_force_distance(g, F2, hard_cap=cap)
    with pytest.raises(ValueError, match="hard_cap must be an integer"):
        brute_force_pairwise(g, F2, [0, 0, 0], [1, 1, 1], hard_cap=cap)
    assert brute_force_distance(g, F2, hard_cap=np.int64(64)).distance == 2  # 2**(2 * 3) words: at the cap


@pytest.mark.parametrize("i", [1.5, "x", None], ids=["1.5", "'x'", "None"])
def test_a_vertex_index_is_read_as_an_integer(i):
    """1.5 raised numpy's IndexError text, and 'x' and None a TypeError from the range check."""
    gamma = adjacency_matrix(generate("cycle", 3), F3)
    with pytest.raises(ValueError, match="vertex index must be an integer"):
        apply_z([0, 0, 0], i, 1, F3)
    with pytest.raises(ValueError, match="vertex index must be an integer"):
        apply_x([0, 0, 0], i, 1, gamma, F3)
    assert apply_z([0, 0, 0], np.int64(2), 1, F3).tolist() == [0, 1, 0]  # a numpy integer index passes
    assert apply_x([0, 0, 0], np.int64(1), 1, gamma, F3).tolist() == [0, 1, 1]


@pytest.mark.parametrize(
    "exponents",
    [(1, 2, 3), float("nan"), "x", None, [1, 2], {}, [None, 1, 2], ((1, 0), (0, 1.5)), ((1, 2, 3),), ((2**70, 0),)],
    ids=["(1, 2, 3)", "nan", "'x'", "None", "[1, 2]", "{}", "[None, 1, 2]", "1.5", "a triple", "2**70"],
)
def test_an_operator_word_checks_its_exponents(exponents):
    """Each was accepted: eta_sum of (1, 2, 3) gave 3, and apply_word raised TypeError on it."""
    with pytest.raises(ValueError, match="word exponents"):
        OperatorWord(exponents)


def test_an_operator_word_keeps_its_exponents_as_pairs_of_python_ints():
    w = OperatorWord(np.array([[1, 0], [0, 2]], dtype=np.uint8))
    assert w.exponents == ((1, 0), (0, 2)) and all(type(e) is int for pair in w.exponents for e in pair)
    assert OperatorWord([[1, 0], [0, 2.0]]).exponents == w.exponents and eta_sum(w) == 2


def test_words_act_as_translations():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3])
        f = PrimeField(p)
        g = random_multigraph(rng, n, max_mult=2)
        gamma = adjacency_matrix(g, f)
        w = OperatorWord(tuple((rng.randrange(p), rng.randrange(p)) for _ in range(n)))
        l1 = random_labelling(rng, n, p)
        l2 = random_labelling(rng, n, p)
        d1 = (apply_word(w, l1, gamma, f) - l1) % p
        d2 = (apply_word(w, l2, gamma, f) - l2) % p
        assert np.array_equal(d1, d2)


def test_word_action_matches_lambda_k():
    rng = random.Random(18)
    for _ in range(20):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        f = PrimeField(p)
        g = random_multigraph(rng, n, max_mult=2)
        gamma = adjacency_matrix(g, f)
        lam = build_lambda(gamma)
        w = OperatorWord(tuple((rng.randrange(p), rng.randrange(p)) for _ in range(n)))
        k = w.to_vector()
        l = random_labelling(rng, n, p)
        assert np.array_equal(
            apply_word(w, l, gamma, f), (l + lam @ k.as_array()) % p
        )
        assert eta_sum(w) == chi_weight(k, f)
