"""Properties known from theory, checked on graphs too large for the brute-force oracle.

* The distance is at most 1 + the smallest column support of Gamma mod p:
  x = e_j gives the kernel vector (-Gamma e_j | e_j), of weight 1 + |supp col j|.
* At p = 2 the distance is invariant under local complementation, which
  maps a graph state to an equivalent one (Van den Nest, Dehaene and De Moor,
  PRA 69 022316, 2004).
* For odd p it is invariant under the weighted form of local complementation,
  Gamma_jk += a * Gamma_jv * Gamma_vk for j != k and a != 0, and under
  scaling row and column v by b != 0 (Bahramgiri and Beigi,
  quant-ph/0610267).
* The kernel of a block-diagonal Gamma is a direct sum, so the distance of
  a disjoint union is the smaller of the two distances.
* Two labellings cr != cs (mod p) are at distance at least 1 and at most
  the support of (cr - cs) mod p, which single Z factors reach.
"""

import random

import numpy as np

from diagdist import Multigraph, PrimeField, adjacency_matrix, diagonal_distance, pairwise_distance

F2 = PrimeField(2)

# largest n per prime, so that p**n stays at or below 2**12 * 3 candidates
MAX_N = {2: 12, 3: 9, 5: 6}


def random_gamma(rng, n, p):
    gamma = np.zeros((n, n), dtype=np.int64)
    density = rng.choice((0.2, 0.5, 0.8))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                gamma[u, v] = gamma[v, u] = rng.randrange(1, p)
    return gamma


def local_complement(gamma, v):
    """Toggle every edge between two neighbours of v (p = 2)."""
    nb = gamma[:, v].astype(bool)
    out = gamma.copy()
    out[np.ix_(nb, nb)] ^= 1
    np.fill_diagonal(out, 0)
    return out


def weighted_local_complement(gamma, v, a, p):
    """Add a * Gamma_jv * Gamma_vk to every off-diagonal Gamma_jk, mod p."""
    out = (gamma + a * np.outer(gamma[:, v], gamma[v])) % p
    np.fill_diagonal(out, 0)
    return out


def scaled(gamma, v, b, p):
    """Multiply row and column v by b, mod p."""
    out = gamma.copy()
    out[v] = out[v] * b % p
    out[:, v] = out[:, v] * b % p
    return out


def test_distance_at_most_one_plus_min_column_support():
    rng = random.Random(11)
    checked = 0
    for p, max_n in MAX_N.items():
        f = PrimeField(p)
        for _ in range(50):
            n = rng.randint(max_n - 4, max_n)
            g = Multigraph(n, random_gamma(rng, n, p))
            support = np.count_nonzero(adjacency_matrix(g, f), axis=0).min()
            assert diagonal_distance(g, f).distance <= 1 + support, (p, n)
            checked += 1
    assert checked == 150


def test_local_complementation_keeps_the_gf2_distance():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randint(8, MAX_N[2])
        gamma = random_gamma(rng, n, 2)
        want = diagonal_distance(Multigraph(n, gamma), F2).distance
        for _ in range(3):
            gamma = local_complement(gamma, rng.randrange(n))
            assert diagonal_distance(Multigraph(n, gamma), F2).distance == want, n


def test_weighted_local_complementation_keeps_the_qudit_distance():
    rng = random.Random(13)
    for p, sizes in {3: (5, 8), 5: (4, 6), 7: (3, 5)}.items():
        f = PrimeField(p)
        for _ in range(40):
            n = rng.randint(*sizes)
            gamma = random_gamma(rng, n, p)
            want = diagonal_distance(Multigraph(n, gamma), f).distance
            for _ in range(3):
                gamma = weighted_local_complement(gamma, rng.randrange(n), rng.randrange(1, p), p)
                assert diagonal_distance(Multigraph(n, gamma), f).distance == want, (p, n)
            gamma = scaled(gamma, rng.randrange(n), rng.randrange(1, p), p)
            assert diagonal_distance(Multigraph(n, gamma), f).distance == want, (p, n)


def test_distance_of_a_disjoint_union_is_the_smaller_one():
    # the kernel of a block-diagonal Gamma is the direct sum of the blocks' kernels
    rng = random.Random(14)
    for p, max_total in {2: 20, 3: 10, 5: 7}.items():
        f = PrimeField(p)
        for _ in range(20):
            n1 = rng.randint(1, max_total - 1)
            n2 = rng.randint(1, max_total - n1)
            g1, g2 = random_gamma(rng, n1, p), random_gamma(rng, n2, p)
            union = np.zeros((n1 + n2, n1 + n2), dtype=np.int64)
            union[:n1, :n1], union[n1:, n1:] = g1, g2
            want = min(diagonal_distance(Multigraph(n, g), f).distance for n, g in ((n1, g1), (n2, g2)))
            assert diagonal_distance(Multigraph(n1 + n2, union), f).distance == want, (p, n1, n2)


def test_pair_distance_is_at_most_the_support_of_the_difference():
    # Z factors alone reach cr from cs: k = ((cr - cs) mod p | 0)
    rng = random.Random(15)
    checked = 0
    for p, max_n in {2: 12, 3: 8, 5: 6}.items():
        f = PrimeField(p)
        for _ in range(20):
            n = rng.randint(1, max_n)
            g = Multigraph(n, random_gamma(rng, n, p))
            cr = np.array([rng.randrange(-p, 2 * p) for _ in range(n)], dtype=np.int64)
            cs = np.array([rng.randrange(-p, 2 * p) for _ in range(n)], dtype=np.int64)
            support = np.count_nonzero((cr - cs) % p)
            if support == 0:
                continue
            assert 1 <= pairwise_distance(g, f, cr, cs).distance <= support, (p, n)
            checked += 1
    assert checked == 55
