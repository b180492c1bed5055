"""The block-evaluated oracle against the per-word loop it replaced.

reference() is that loop: it builds every OperatorWord in lexicographic
order, applies it to the zero labelling with apply_word and keeps the first
word of least positive eta that reaches the target.  The block walk must
report the same distance, the same witness and the same vectors_examined,
at the default block and at blocks of 2**2 and 2**3 words.  With the small
blocks most cases span several blocks, so ties across blocks decide the
witness, and a block of an odd number of digits opens with an x digit whose
z digit lies outside it (every p at 2**3, p = 3 at 2**2; p >= 5 gets one
word per block at 2**2).
"""

import itertools
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
    brute_force_distance,
    brute_force_pairwise,
    diagonal_distance,
    eta_sum,
    generate,
)
from diagdist import oracle

# (p, n, graph kind, target kind, seed); every case has p**(2n) <= 4**6 words
CASES = [
    (p, n, kind, tkind, 100 * p + 10 * n + k)
    for p, sizes in ((2, range(1, 7)), (3, range(1, 4)), (5, (1, 2)), (7, (1, 2)))
    for n in sizes
    for k, (kind, tkind) in enumerate(
        (("dense", "zero"), ("dense", "random"), ("isolated", "zero"), ("isolated", "random"))
    )
]


def make_case(p, n, kind, tkind, seed):
    """Multiplicities 0..2p-1, so some edges vanish mod p; "isolated" empties one vertex mod p."""
    rng = random.Random(seed)
    mult = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            mult[u, v] = mult[v, u] = rng.randrange(2 * p)
    if kind == "isolated":
        v = rng.randrange(n)
        mult[v, :] = mult[:, v] = p * rng.randrange(2)
        mult[v, v] = 0
    cr = [rng.randrange(p) for _ in range(n)]
    cs = cr if tkind == "zero" else [rng.randrange(p) for _ in range(n)]
    return Multigraph(n, mult), np.array(cr, dtype=np.int64), np.array(cs, dtype=np.int64)


def reference(g, f, cr, cs):
    """(distance, witness entries, words examined) from the per-word loop."""
    n, p = g.n, f.p
    gamma = adjacency_matrix(g, f)
    pair_range = list(itertools.product(range(p), repeat=2))
    best, best_eta, examined = None, n + 1, 0
    for exps in itertools.product(pair_range, repeat=n):
        w = OperatorWord(exps)
        examined += 1
        if not np.array_equal(apply_word(w, cr, gamma, f), cs % p):
            continue
        eta = eta_sum(w)
        if 0 < eta < best_eta:
            best, best_eta = w, eta
    return best_eta, best.to_vector().entries, examined


def oracle_report(g, f, cr, cs, tkind):
    rep = brute_force_distance(g, f) if tkind == "zero" else brute_force_pairwise(g, f, cr, cs)
    return rep.distance, rep.witness.entries, rep.vectors_examined


def test_block_walk_matches_the_per_word_loop(monkeypatch):
    distances = set()
    for p, n, kind, tkind, seed in CASES:
        f = PrimeField(p)
        g, cr, cs = make_case(p, n, kind, tkind, seed)
        expected = reference(g, f, cr, cs)
        for block in (1 << 12, 1 << 2, 1 << 3):
            monkeypatch.setattr(oracle, "_BLOCK", block)
            assert oracle_report(g, f, cr, cs, tkind) == expected, (p, n, kind, tkind, seed, block)
        distances.add(expected[0])
    assert distances == {1, 2, 3}  # distances 1, 2 and 3 all occur


def test_blocks_never_exceed_the_block_size(monkeypatch):
    sizes = []
    real = oracle._word_blocks

    def spy(*args):
        for pairs, eta in real(*args):
            sizes.append(eta.size)
            yield pairs, eta

    monkeypatch.setattr(oracle, "_word_blocks", spy)
    g = generate("cycle", 8)
    f = PrimeField(2)
    monkeypatch.setattr(oracle, "DEFAULT_ORACLE_CAP", (1 << 16) - 1)
    with pytest.raises(SearchTooLarge):
        brute_force_distance(g, f)
    assert sizes == []
    monkeypatch.setattr(oracle, "DEFAULT_ORACLE_CAP", 1 << 16)
    rep = brute_force_distance(g, f)
    assert (rep.distance, rep.vectors_examined) == (3, 1 << 16)
    assert rep.distance == diagonal_distance(g, f).distance
    assert sizes == [oracle._BLOCK] * 16
    sizes.clear()
    rep = brute_force_distance(generate("edgeless", 1), PrimeField(67))  # p**2 > _BLOCK: the x digit alone
    assert (rep.distance, rep.witness.entries, rep.vectors_examined) == (1, (0, 1), 67**2)
    assert sizes == [67] * 67


def test_a_block_holds_a_lone_x_digit_above_p_64(monkeypatch):
    sizes = []
    real = oracle._word_blocks

    def spy(*args):
        for digits, eta in real(*args):
            sizes.append(eta.size)
            yield digits, eta

    monkeypatch.setattr(oracle, "_word_blocks", spy)
    rep = brute_force_distance(generate("edgeless", 1), PrimeField(1021), force=True)
    assert (rep.distance, rep.witness.entries, rep.vectors_examined) == (1, (0, 1), 1021**2)
    assert sizes == [1021] * 1021


def test_outer_digits_are_tabulated_not_applied_per_block(monkeypatch):
    """apply_word runs once per p**s blocks (one setting of the leading whole pairs), plus the re-check."""
    calls = []
    real = oracle.apply_word

    def counted(*args):
        calls.append(args[0].exponents)
        return real(*args)

    monkeypatch.setattr(oracle, "apply_word", counted)
    g, f = generate("cycle", 6), PrimeField(2)
    want = brute_force_distance(g, f)
    assert len(calls) == 2  # 2**12 words: one block, no outer digit
    calls.clear()
    monkeypatch.setattr(oracle, "_BLOCK", 1 << 3)  # blocks of k = 3 digits; s = 3 outer digits tabulated
    rep = brute_force_distance(g, f)
    assert (rep.distance, rep.witness.entries, rep.vectors_examined) == (
        want.distance,
        want.witness.entries,
        want.vectors_examined,
    )
    tops = calls[:-1]
    assert len(tops) == 2**6  # the leading 3 whole pairs
    assert all(pairs[3:] == ((0, 0),) * 3 for pairs in tops)
