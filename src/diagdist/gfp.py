"""Exact dense linear algebra over Z/pZ for small primes.

Matrices and vectors are numpy int64 arrays with entries kept in [0, p).
A number a caller passes in, here, in the graphs, the search and the
oracle, is read by one of three readers, and no other code converts one:
_residues reduces integers mod p exactly, whatever their numpy dtype or
Python size (labellings, codewords, matrices, the exponent of apply_z and
apply_x, PrimeField.inv's argument); _int64s keeps integers unreduced,
refusing any that int64 does not hold exactly (a multigraph's
multiplicities, build_lambda's Gamma, a SymplecticVector's parts, an
OperatorWord's exponents, as n pairs); and _index reads a scalar that must
be an integer (a prime, is_prime's argument, a vertex count, the vertex
index of apply_z and apply_x).  The first two let an integral float
through and _index does not; each raises ValueError where a cast would
truncate, wrap or drop a part.  A flag, the force of the search and of
the oracle, is read by _flag, which takes a bool or a numpy bool and
refuses anything else, since a truthy string or NaN would lift every cap.
Parsing text tokens in the file formats and the command line is not
reading a caller's number, and stays with the parsers' one reader,
graphs._decimal.
Everything here is a pure function: inputs are never mutated, results are
fresh arrays, so values can be shared freely across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


def is_prime(p: int) -> bool:
    """Deterministic trial division, for integers below P_LIMIT = 2**24.

    It takes about sqrt(p) / 2 steps, at most 2**11 below P_LIMIT.  p is
    read through _index, so 7.0, NaN or inf raise ValueError as PrimeField
    does, and an integer at or above P_LIMIT raises ValueError instead of
    running its trial divisions.
    """
    p = _index(p, "p")
    if p >= P_LIMIT:
        raise ValueError(f"{p} is not below 2**24")
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# Below this bound every product of two residues, and every sum of up to
# 2**14 such products, fits in int64, so no arithmetic here or in the search
# wraps.
P_LIMIT = 1 << 24


@dataclass(frozen=True)
class PrimeField:
    """The field Z/pZ.  Construction fails unless p is a prime below P_LIMIT.

    p is read through operator.index and kept as a Python int, so a numpy
    integer prime searches as the int does; a float, a string or None is
    refused with ValueError.
    """

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _index(self.p, "p"))
        if not is_prime(self.p):  # is_prime raises ValueError at p >= P_LIMIT
            raise ValueError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a mod p, for an integer a read through _residues: 2.5 raises ValueError."""
        a = _residues(a, self.p).item()
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible mod {self.p}")
        return pow(a, -1, self.p)


def _index(v, name: str) -> int:
    """v as a Python int, through operator.index: numpy integers pass, anything else raises ValueError."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {v!r}") from None


def _flag(v, name: str) -> bool:
    """v as a Python bool: a bool or a numpy bool passes, anything else raises ValueError."""
    if not isinstance(v, (bool, np.bool_)):
        raise ValueError(f"{name} must be True or False, got {type(v).__name__}")
    return bool(v)


def _residues(c, p: int, n: int | None = None) -> np.ndarray:
    """The integers c reduced exactly into [0, p), a fresh int64 array of shape (n,) if n is given.

    numpy would cast a uint64 2**64 - 1 (0 mod 3) to -1, read a list holding
    it as floats, and refuse a Python int past int64.  So uint64 is reduced
    in its own dtype, and Python ints, floats and complex numbers one by one
    as Python numbers; int64 takes one % p.  A cast would also truncate 1.7
    to 1, turn NaN, or a float past 2**63, into an arbitrary int64, and drop
    the imaginary part of 1+2j, so a float must be integral and finite, and
    a complex number must have a zero imaginary part and an integral real
    one (ValueError otherwise), as in np.zeros(n), and 3e19 reduces as the
    integer it is.  Strings, bytes and dates raise ValueError, as a dtype
    or as an entry of an object array: a cast would parse "7", "1_0" or a
    non-ASCII digit as an integer, and count a date's days since 1970.
    """
    a = np.asarray(c)
    if n is not None and a.shape != (n,):
        raise ValueError(f"labellings must have length {n}")
    if a.dtype == np.int64:
        return a % p  # % always allocates, so callers' arrays are never touched
    if a.dtype == np.uint64:
        return (a % np.uint64(p)).astype(np.int64)
    if a.dtype.kind not in "biufcO":  # strings, bytes and dates, which a cast would parse or count
        raise ValueError(f"entries must be integers, got {a.dtype} entries")
    if a.dtype == object or a.dtype.kind in "fc":
        exact = np.asarray(c, dtype=object)
        out = []
        for v in exact.flat:
            real = v.real if isinstance(v, (complex, np.complexfloating)) else v
            if isinstance(v, (str, bytes)) or real % 1 or real != v:  # text, a fraction, NaN, inf or an imaginary part
                raise ValueError(f"entries must be integers, got {v!r}")
            out.append(int(real) % p)
        return np.array(out, dtype=np.int64).reshape(exact.shape)
    return a.astype(np.int64) % p


def _fits_int64(v) -> bool:
    try:
        return int(v) == v and -(1 << 63) <= int(v) < 1 << 63
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, complex numbers, non-numbers
        return False


def _int64s(c, what: str) -> np.ndarray:
    """The entries of c as int64, each an integer that int64 holds exactly.

    An int64 array comes back as itself.  Integral floats, as in
    np.zeros((3, 3)), pass.  A cast would read a
    uint64 2**64 - 1 as -1 and 2.9 as 2, and a Python int past 64 bits or
    a complex number would raise OverflowError or TypeError: here each
    raises ValueError, naming what.
    """
    a = np.asarray(c)
    # not np.can_cast(a.dtype, np.int64), at a quarter of its cost (0.65 us, paid per search by build_lambda)
    if a.dtype == np.uint64 or a.dtype.kind not in "biu":  # uint64, float, complex or object: check every entry
        a = np.asarray(c, dtype=object)  # a list's big ints as given, not read as floats
        if not all(map(_fits_int64, a.flat)):
            raise ValueError(f"{what} must be integers that int64 holds exactly")
    return np.asarray(a, dtype=np.int64)


def _as_matrix(m, p: int) -> np.ndarray:
    a = _residues(m, p)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def rref(m, field: PrimeField) -> tuple[np.ndarray, list[int], int]:
    """Reduced row-echelon form over Z/pZ.

    Returns (reduced, pivots, rank) where pivots lists the pivot columns in
    ascending order and rank == len(pivots).  The row space is preserved.
    """
    r = _as_matrix(m, field.p)
    pivots: list[int] = []
    for col in range(r.shape[1]):
        lead = len(pivots)
        below = r[lead:, col].nonzero()[0]
        if not below.size:
            continue
        if below[0]:
            r[[lead, lead + below[0]]] = r[[lead + below[0], lead]]
        if r[lead, col] != 1:
            r[lead] = r[lead] * field.inv(r[lead, col]) % field.p
        rows = r[:, col].nonzero()[0]
        if rows.size > 1:  # one rank-1 update clears the column, on just the rows nonzero in it
            rows = rows[rows != lead]
            r[rows] = (r[rows] - r[rows, col, None] * r[lead]) % field.p
        pivots.append(col)
    return r, pivots, len(pivots)


def kernel_basis(m, field: PrimeField) -> list[np.ndarray]:
    """Basis of the right nullspace of m over Z/pZ.

    One basis vector per free column, free columns taken in ascending order;
    vector j has a 1 in its own free column, 0 in every other free column,
    and the forced values in the pivot columns.  This makes the basis a
    deterministic function of m.
    """
    r, pivots, rank = rref(m, field)
    cols = r.shape[1]
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        v[pivots] = -r[:rank, f] % field.p
        basis.append(v)
    return basis


def solve(m, rhs, field: PrimeField) -> np.ndarray | None:
    """One particular solution of m x = rhs over Z/pZ, or None if inconsistent.

    Free variables are set to 0.  Raises ValueError when rhs does not match
    the row count of m.
    """
    a = _as_matrix(m, field.p)
    b = _residues(rhs, field.p)
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs has shape {b.shape}, expected ({a.shape[0]},)")
    n = a.shape[1]
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1)
    r, pivots, _ = rref(aug, field)
    if pivots and pivots[-1] == n:
        return None  # a pivot in the rhs column means 0 = nonzero
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = r[: len(pivots), n]
    return x
