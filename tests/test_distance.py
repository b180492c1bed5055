import itertools
import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    PrimeField,
    SearchConfig,
    SearchTooLarge,
    SymplecticVector,
    adjacency_matrix,
    brute_force_distance,
    brute_force_pairwise,
    build_lambda,
    chi_weight,
    code_distance,
    diagonal_distance,
    generate,
    kernel_basis,
    kernel_point,
    pairwise_distance,
    rref,
)
from helpers import (
    CYCLE5_KERNEL,
    CYCLE5_LAMBDA,
    has_zero_column,
    permuted,
    random_labelling,
    random_multigraph,
)

F2 = PrimeField(2)
F3 = PrimeField(3)

ZERO5 = np.zeros(5, dtype=np.int64)
ONES5 = np.ones(5, dtype=np.int64)
E1 = np.array([1, 0, 0, 0, 0], dtype=np.int64)


def test_build_lambda_cycle5():
    lam = build_lambda(adjacency_matrix(generate("cycle", 5), F2))
    assert lam.tolist() == CYCLE5_LAMBDA


def test_build_lambda_zero_gamma():
    lam = build_lambda(np.zeros((3, 3), dtype=np.int64))
    assert np.array_equal(lam, np.concatenate([np.eye(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)], axis=1))


def test_build_lambda_k2():
    lam = build_lambda(adjacency_matrix(generate("complete", 2), F2))
    assert lam.tolist() == [[1, 0, 0, 1], [0, 1, 1, 0]]


def test_build_lambda_rejects_non_square():
    with pytest.raises(ValueError):
        build_lambda(np.zeros((2, 3)))


def test_chi_weight():
    k1 = SymplecticVector((0, 1, 0, 0, 1, 1, 0, 0, 0, 0))
    assert chi_weight(k1, F2) == 3
    assert chi_weight(SymplecticVector((0,) * 10), F2) == 0
    # z and x hits at the same vertex count once
    assert chi_weight(SymplecticVector((1, 0, 1, 0)), F2) == 1
    assert chi_weight(SymplecticVector((1, 0, 1, 0)), F3) == 1


def test_symplectic_vector_layout():
    k = SymplecticVector.from_parts([1, 2], [0, 1])
    assert k.n == 2
    assert k.z == (1, 2)
    assert k.x == (0, 1)
    with pytest.raises(ValueError):
        SymplecticVector((1, 0, 1))
    with pytest.raises(ValueError, match="one flat sequence"):
        SymplecticVector([[1, 2], [3, 4]])  # was kept as two lists: unhashable, and chi_weight failed
    with pytest.raises(ValueError, match="one flat sequence"):
        SymplecticVector(5)  # was a TypeError
    with pytest.raises(ValueError, match="one flat sequence"):
        SymplecticVector.from_parts([[1, 2]], [[3, 4]])


def test_kernel_point_cycle5_e1():
    gamma = adjacency_matrix(generate("cycle", 5), F2)
    k = kernel_point(gamma, E1, F2)
    assert k.entries == CYCLE5_KERNEL[0]


def test_kernel_point_zero_and_edgeless():
    gamma = adjacency_matrix(generate("cycle", 5), F2)
    assert kernel_point(gamma, ZERO5, F2).entries == (0,) * 10
    e = adjacency_matrix(generate("edgeless", 3), F3)
    x = np.array([1, 2, 0])
    assert kernel_point(e, x, F3).entries == (0, 0, 0, 1, 2, 0)


def test_kernel_points_lie_in_kernel():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 6)
        p = rng.choice([2, 3, 5])
        f = PrimeField(p)
        gamma = adjacency_matrix(random_multigraph(rng, n, max_mult=3), f)
        lam = build_lambda(gamma)
        x = random_labelling(rng, n, p)
        k = kernel_point(gamma, x, f)
        assert not ((lam @ k.as_array()) % p).any()


def test_kernel_point_span_matches_kernel_basis():
    rng = random.Random(4)
    for _ in range(15):
        n = rng.randint(1, 6)
        p = rng.choice([2, 3])
        f = PrimeField(p)
        gamma = adjacency_matrix(random_multigraph(rng, n, max_mult=2), f)
        lam = build_lambda(gamma)
        basis = kernel_basis(lam, f)
        assert len(basis) == n  # the identity block forces rank n
        points = [kernel_point(gamma, np.eye(n, dtype=np.int64)[i], f).as_array() for i in range(n)]
        _, _, r1 = rref(np.array(basis), f)
        _, _, r2 = rref(np.array(points), f)
        _, _, r_all = rref(np.array(basis + points), f)
        assert r1 == r2 == r_all == n


# expected distances below were fixed by the brute-force oracle before the
# fast path existed (see test_oracle.py)


def test_diagonal_distance_cycle5():
    rep = diagonal_distance(generate("cycle", 5), F2)
    assert rep.distance == 3
    assert rep.vectors_examined == 2**5 - 1
    assert chi_weight(rep.witness, F2) == 3
    lam = np.array(CYCLE5_LAMBDA)
    assert not ((lam @ rep.witness.as_array()) % 2).any()


def test_diagonal_distance_k2_k3():
    assert diagonal_distance(generate("complete", 2), F2).distance == 2
    assert diagonal_distance(generate("complete", 3), F2).distance == 2


def test_diagonal_distance_edgeless_early_exit():
    for n in (1, 2, 6):
        rep = diagonal_distance(generate("edgeless", n), F2)
        assert rep.distance == 1
        assert rep.witness.entries == (0,) * n + (1,) + (0,) * (n - 1)
        assert rep.vectors_examined == 1  # weight-1 early exit on the first candidate


def test_diagonal_distance_k3_examines_all_points():
    rep = diagonal_distance(generate("complete", 3), F2)
    assert rep.vectors_examined == 2**3 - 1


def test_search_budget():
    g = generate("cycle", 30)
    with pytest.raises(SearchTooLarge):
        diagonal_distance(g, F2)  # default vertex cap is 24
    with pytest.raises(SearchTooLarge):
        diagonal_distance(g, F2, SearchConfig(max_vertices=30))  # 2**30 over budget
    g13 = generate("cycle", 13)
    with pytest.raises(SearchTooLarge):
        diagonal_distance(g13, F3)  # default cap for p >= 3 is 12
    e13 = generate("edgeless", 13)
    with pytest.raises(SearchTooLarge):
        diagonal_distance(e13, F3)
    forced = diagonal_distance(e13, F3, SearchConfig(force=True))
    assert forced.distance == 1  # weight-1 early exit, so force stays cheap


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_vertices=0)


@pytest.mark.parametrize("value", ["3", 2.5, 3.0])
def test_a_max_vertices_that_is_not_an_integer_is_refused(value):
    """A string raised TypeError from the comparison, and 2.5 was taken as a fractional cap."""
    with pytest.raises(ValueError, match=f"max_vertices must be an integer, got {value!r}"):
        SearchConfig(max_vertices=value)


def test_a_numpy_integer_max_vertices_is_read_as_an_int():
    cfg = SearchConfig(max_vertices=np.int64(5))
    assert type(cfg.max_vertices) is int and cfg.vertex_cap(3) == 5
    with pytest.raises(SearchTooLarge, match="n = 6 exceeds the vertex cap 5"):
        diagonal_distance(generate("cycle", 6), F3, cfg)


def test_pairwise_equal_codewords_is_diagonal():
    g = generate("cycle", 5)
    c = np.array([1, 1, 0, 1, 0], dtype=np.int64)
    rep = pairwise_distance(g, F2, c, c)
    diag = diagonal_distance(g, F2)
    assert rep.distance == diag.distance
    assert rep.vectors_examined == diag.vectors_examined


def test_pairwise_cycle5_unit_shift():
    rep = pairwise_distance(generate("cycle", 5), F2, ZERO5, E1)
    assert rep.distance == 1
    assert rep.witness.entries == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    assert rep.vectors_examined == 1


def test_pairwise_cycle5_all_ones():
    # oracle-fixed value for relabelling everything
    rep = pairwise_distance(generate("cycle", 5), F2, ZERO5, ONES5)
    assert rep.distance == 3
    lam = np.array(CYCLE5_LAMBDA)
    assert np.array_equal((lam @ rep.witness.as_array()) % 2, ONES5)


def test_pairwise_rejects_length_mismatch():
    with pytest.raises(ValueError):
        pairwise_distance(generate("cycle", 4), F2, np.zeros(4), np.zeros(5))


def test_pairwise_symmetric():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 5)
        p = rng.choice([2, 3])
        f = PrimeField(p)
        g = random_multigraph(rng, n, max_mult=2)
        cr = random_labelling(rng, n, p)
        cs = random_labelling(rng, n, p)
        assert (
            pairwise_distance(g, f, cr, cs).distance
            == pairwise_distance(g, f, cs, cr).distance
        )


def test_chi_negation_invariance():
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(1, 6)
        p = rng.choice([2, 3, 5])
        f = PrimeField(p)
        k = SymplecticVector(tuple(rng.randrange(p) for _ in range(2 * n)))
        neg = SymplecticVector(tuple((-v) % p for v in k.entries))
        assert chi_weight(k, f) == chi_weight(neg, f)


def test_code_distance_single_codeword():
    g = generate("cycle", 5)
    res = code_distance(g, F2, [ZERO5])
    assert res.delta == 3
    assert res.pair == (1, 1)
    assert set(res.table) == {(1, 1)}


def test_code_distance_zero_and_unit():
    res = code_distance(generate("cycle", 5), F2, [ZERO5, E1])
    assert res.delta == 1
    assert res.pair == (1, 2)
    assert res.table[(1, 1)].distance == 3
    assert res.table[(1, 2)].distance == 1


def test_code_distance_zero_and_ones():
    res = code_distance(generate("cycle", 5), F2, [ZERO5, ONES5])
    assert res.delta == 3
    assert res.pair == (1, 1)
    assert res.table[(1, 2)].distance == 3


def test_code_distance_requires_a_codeword():
    with pytest.raises(ValueError):
        code_distance(generate("cycle", 5), F2, [])


def test_diagonal_matches_oracle_on_3_vertex_graphs():
    # every labeled graph on 3 vertices without a zero adjacency column
    for bits in itertools.product([0, 1], repeat=3):
        mult = np.zeros((3, 3), dtype=np.int64)
        for (u, v), b in zip([(0, 1), (0, 2), (1, 2)], bits):
            mult[u, v] = mult[v, u] = b
        g = Multigraph(3, mult)
        if has_zero_column(g, F2):
            continue
        assert diagonal_distance(g, F2).distance == brute_force_distance(g, F2).distance


def test_diagonal_matches_oracle_mod_3():
    rng = random.Random(77)
    done = 0
    while done < 10:
        g = random_multigraph(rng, 3, max_mult=2)
        if has_zero_column(g, F3):
            continue
        fast = diagonal_distance(g, F3)
        slow = brute_force_distance(g, F3)
        assert fast.distance == slow.distance
        done += 1


def test_pairwise_matches_oracle_mod_3():
    rng = random.Random(78)
    done = 0
    while done < 8:
        g = random_multigraph(rng, 3, max_mult=2)
        if has_zero_column(g, F3):
            continue
        cr = random_labelling(rng, 3, 3)
        cs = random_labelling(rng, 3, 3)
        assert (
            pairwise_distance(g, F3, cr, cs).distance
            == brute_force_pairwise(g, F3, cr, cs).distance
        )
        done += 1


def test_diagonal_distance_permutation_invariant():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 6)
        p = rng.choice([2, 3])
        f = PrimeField(p)
        g = random_multigraph(rng, n, max_mult=2)
        base = diagonal_distance(g, f).distance
        order = list(range(n))
        rng.shuffle(order)
        assert diagonal_distance(permuted(g, order), f).distance == base


def test_witness_always_verifies():
    rng = random.Random(55)
    for _ in range(20):
        n = rng.randint(1, 6)
        p = rng.choice([2, 3])
        f = PrimeField(p)
        g = random_multigraph(rng, n, max_mult=2)
        lam = build_lambda(adjacency_matrix(g, f))
        rep = diagonal_distance(g, f)
        assert 1 <= rep.distance <= n
        assert chi_weight(rep.witness, f) == rep.distance
        assert not ((lam @ rep.witness.as_array()) % p).any()
        cr = random_labelling(rng, n, p)
        cs = random_labelling(rng, n, p)
        prep = pairwise_distance(g, f, cr, cs)
        assert np.array_equal(
            (lam @ prep.witness.as_array()) % p, (cr - cs) % p
        )
