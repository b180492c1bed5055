import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from diagdist import (
    PrimeField,
    code_distance,
    diagonal_distance,
    is_prime,
    kernel_basis,
    pairwise_distance,
    rref,
    solve,
)
import diagdist
from diagdist.gfp import P_LIMIT
from helpers import CYCLE5_KERNEL, CYCLE5_LAMBDA, random_labelling, random_multigraph

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 13, 65521]
    composites = [0, 1, 4, 6, 9, 15, 91, 221]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


@pytest.mark.parametrize("p", [float("nan"), 7.0, 9.5, "7", None], ids=["nan", "7.0", "9.5", "'7'", "None"])
def test_is_prime_reads_an_integer(p):
    """is_prime reads p as PrimeField does: nan, 7.0 and 9.5 returned True, and '7' and None raised TypeError."""
    with pytest.raises(ValueError, match="p must be an integer"):
        is_prime(p)


def test_is_prime_serves_the_integers_below_the_field_limit():
    assert is_prime(np.int64(7)) and is_prime(P_LIMIT - 3) and not is_prime(P_LIMIT - 1)  # 2**24 - 1 = 3 * 5592405
    assert not is_prime(-7) and not is_prime(True)
    with pytest.raises(ValueError, match="not below 2"):
        is_prime(P_LIMIT)


@pytest.mark.parametrize("p", ["float('inf')", "2**70"])
def test_is_prime_refuses_inf_and_a_huge_integer_at_once(p):
    """inf never returned, and 2**70 would run about 2**34 trial divisions.

    Each runs in a child process with a timeout, so a hang fails the test
    instead of stalling the run.
    """
    code = f"from diagdist import is_prime\ntry:\n    is_prime({p})\nexcept ValueError as e:\n    print(e)"
    env = dict(os.environ, PYTHONPATH=str(Path(diagdist.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0 and proc.stdout.strip() in ("p must be an integer, got inf", f"{2**70} is not below 2**24")


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_field_inverse(p):
    f = PrimeField(p)
    for a in range(1, p):
        assert (a * f.inv(a)) % p == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rref_identity():
    eye = np.eye(3, dtype=np.int64)
    r, pivots, rank = rref(eye, F2)
    assert np.array_equal(r, eye)
    assert pivots == [0, 1, 2]
    assert rank == 3


def test_rref_zero_matrix():
    r, pivots, rank = rref(np.zeros((2, 2)), F3)
    assert not r.any()
    assert pivots == []
    assert rank == 0


def test_rref_cycle5_lambda_full_row_rank():
    # the identity block forces rank n
    _, _, rank = rref(CYCLE5_LAMBDA, F2)
    assert rank == 5


def test_rref_normalizes_pivots_mod_p():
    m = [[2, 1], [4, 2]]  # second row is twice the first mod 5
    r, pivots, rank = rref(m, F5)
    assert rank == 1
    assert pivots == [0]
    assert r[0, 0] == 1


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        f = PrimeField(p)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        r1, piv1, _ = rref(m, f)
        r2, piv2, _ = rref(r1, f)
        assert np.array_equal(r1, r2)
        assert piv1 == piv2


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(np.eye(4, dtype=np.int64), F2) == []


def test_kernel_single_equation():
    basis = kernel_basis([[1, 1]], F2)
    assert len(basis) == 1
    assert basis[0].tolist() == [1, 1]


def test_kernel_cycle5_lambda():
    basis = kernel_basis(CYCLE5_LAMBDA, F2)
    assert len(basis) == 5
    lam = np.array(CYCLE5_LAMBDA)
    for v in basis:
        assert not ((lam @ v) % 2).any()
    # the known basis vectors lie in the span: stacking them changes no rank
    ours = np.array(basis)
    known = np.array(CYCLE5_KERNEL)
    _, _, rank_ours = rref(ours, F2)
    _, _, rank_all = rref(np.concatenate([ours, known]), F2)
    assert rank_ours == rank_all == 5


def test_rank_nullity_on_random_matrices():
    rng = random.Random(20240)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        f = PrimeField(p)
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        _, _, rank = rref(m, f)
        basis = kernel_basis(m, f)
        assert rank + len(basis) == cols
        for v in basis:
            assert not ((m @ v) % p).any()


def test_solve_identity_system():
    rhs = np.array([2, 0, 1])
    x = solve(np.eye(3, dtype=np.int64), rhs, F3)
    assert x.tolist() == [2, 0, 1]


def test_solve_single_equation_zeroes_free_variable():
    x = solve([[1, 1]], [1], F2)
    assert x.tolist() == [1, 0]


def test_solve_lambda_block_puts_rhs_in_z_half():
    # [I | Gamma] d = (d | 0) is forced because free variables are zeroed
    lam = np.array(CYCLE5_LAMBDA)
    d = np.array([1, 0, 1, 1, 0])
    x = solve(lam, d, F2)
    assert x.tolist() == [1, 0, 1, 1, 0, 0, 0, 0, 0, 0]


def test_solve_detects_inconsistency():
    m = [[1, 0], [1, 0]]
    assert solve(m, [1, 2], F3) is None


def test_solve_rejects_wrong_rhs_length():
    with pytest.raises(ValueError):
        solve([[1, 0], [0, 1]], [1, 2, 3], F2)


@pytest.mark.parametrize("m", [[1, 0, 1], np.zeros((2, 2, 2), dtype=np.int64), 3])
def test_a_matrix_must_be_two_dimensional(m):
    for call in (lambda: rref(m, F2), lambda: kernel_basis(m, F2), lambda: solve(m, [1, 0], F2)):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            call()


def test_solve_random_consistency():
    rng = random.Random(99)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        f = PrimeField(p)
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
        target = np.array([rng.randrange(p) for _ in range(cols)])
        rhs = (m @ target) % p  # consistent by construction
        x = solve(m, rhs, f)
        assert x is not None
        assert np.array_equal((m @ x) % p, rhs)


def test_operations_do_not_mutate_inputs():
    m = np.array([[1, 2], [2, 1]])
    before = m.copy()
    rref(m, F3)
    kernel_basis(m, F3)
    solve(m, np.array([1, 1]), F3)
    assert np.array_equal(m, before)


def test_prime_field_bound():
    big = PrimeField(16777213)  # the largest prime below 2**24
    assert big.inv(2) * 2 % big.p == 1
    assert F5.inv(np.int64(3)) == 2
    # primes at and past 2**24, where sums of products of residues could pass int64
    for p in (16777259, 4294967311, 2**61 - 1):
        with pytest.raises(ValueError, match=r"not below 2\*\*24"):
            PrimeField(p)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.int64])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_numpy_integer_prime_searches_as_the_int_does(dtype, p):
    """The prime is kept as a Python int: the search's bit_length and p**j never see a numpy scalar."""
    f = PrimeField(dtype(p))
    assert type(f.p) is int and f == PrimeField(p)
    rng = random.Random(40 + p)
    n = 6
    g = random_multigraph(rng, n, max_mult=p - 1)
    words = [random_labelling(rng, n, p) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a wrapped uint8 power warns before it overflows
        got = [
            diagonal_distance(g, f),
            pairwise_distance(g, f, words[0], words[1]),
            code_distance(g, f, words),
        ]
    want = [
        diagonal_distance(g, PrimeField(p)),
        pairwise_distance(g, PrimeField(p), words[0], words[1]),
        code_distance(g, PrimeField(p), words),
    ]
    assert got == want


@pytest.mark.parametrize("p", [3.0, np.float64(5.0), "3", None, 3 + 0j])
def test_a_prime_that_is_not_an_integer_is_refused(p):
    with pytest.raises(ValueError, match="p must be an integer"):
        PrimeField(p)


def reference_rref(m, p):
    """Gauss-Jordan one row at a time, with Python ints; rref must match it exactly."""
    r = [[v % p for v in row] for row in m]
    pivots = []
    for col in range(len(r[0])):
        lead = len(pivots)
        sel = next((i for i in range(lead, len(r)) if r[i][col]), None)
        if sel is None:
            continue
        r[lead], r[sel] = r[sel], r[lead]
        inv = pow(r[lead][col], -1, p)
        r[lead] = [v * inv % p for v in r[lead]]
        for i in range(len(r)):
            if i != lead and r[i][col]:
                r[i] = [(a - r[i][col] * b) % p for a, b in zip(r[i], r[lead])]
        pivots.append(col)
    return r, pivots


def test_rref_matches_the_row_by_row_reference():
    rng = random.Random(31)
    for p in (2, 3, 7, 65521, 16777213):
        f = PrimeField(p)
        for t in range(60):
            rows, cols = rng.randint(1, 9), rng.randint(1, 12)
            density = (0.2, 0.6, 1.0)[t % 3]
            m = [[rng.randrange(-p, 2 * p) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
            if rows > 2:
                m[1] = [v * rng.randrange(p) for v in m[0]]  # a dependent row
            r, pivots, rank = rref(m, f)
            want, want_pivots = reference_rref(m, p)
            assert r.tolist() == want and pivots == want_pivots and rank == len(want_pivots), (p, m)


def test_field_inverse_reads_an_integer():
    f = PrimeField(5)
    assert f.inv(3) == f.inv(np.int64(3)) == f.inv(3.0) == f.inv(2**70 + 4) == 2  # 2**70 = 4 mod 5
    assert type(f.inv(np.int64(3))) is int
    with pytest.raises(ValueError, match="must be integers"):
        f.inv(2.5)  # int() would truncate it to 2, whose inverse is 3
