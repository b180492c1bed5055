"""Brute-force reference semantics for the vertex colouring operations.

The fast search in ``distance`` reduces everything to kernel vectors of
[I | Gamma]; this module never does.  It applies the two colouring rules
literally, labelling by labelling:

    Z_i adds 1 to the label of vertex i (mod p);
    X_i adds column i of the adjacency matrix to the whole labelling.

A word assigns one factor Z_i^{z_i} X_i^{x_i} to every vertex; its eta
count is the number of vertices whose exponent pair is nonzero.  The
brute-force distance enumerates all p**(2n) words, keeps those whose action
fixes the zero labelling (words act as translations, so fixing one
labelling fixes them all), and minimizes the positive eta count.  It still
enumerates every word and takes every factor's action from the Z and X
rules (apply_z, apply_x), but weighs up to _BLOCK = 2**12 words per numpy
step.  A word is its 2n exponent digits z_1, x_1, ..., z_n, x_n; a block is
every setting of the last k digits (the most with p**k <= _BLOCK, so a
block may hold a vertex's x digit without its z digit), tabulated once per
call, and each setting of the other digits translates that whole block.
The winner is re-checked with apply_word and eta_sum.  It exists to
cross-check the fast path on small instances; it shares none of the kernel
search's machinery.

Convention: eta is evaluated on the formal exponents, even when column i of
Gamma vanishes mod p and X_i therefore acts as the identity map (isolated
vertex, or every incident multiplicity divisible by p).  The kernel search
counts exactly the same thing, so both sides agree on every graph; but on
such degenerate vertices a formally nonzero factor acts trivially, which is
why the command line tool warns about them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .distance import DistanceReport, SearchTooLarge, SymplecticVector
from .gfp import PrimeField, _as_matrix, _residues
from .graphs import Multigraph, adjacency_matrix

DEFAULT_ORACLE_CAP = 1 << 20
_BLOCK = 1 << 12  # most words weighed per numpy step; read at call time


@dataclass(frozen=True)
class OperatorWord:
    """Per-vertex exponent pairs (z_i, x_i), one pair per vertex (0-indexed tuple)."""

    exponents: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.exponents)

    def to_vector(self) -> SymplecticVector:
        """Repack the exponents into the (z-half | x-half) layout."""
        return SymplecticVector.from_parts(
            (z for z, _ in self.exponents), (x for _, x in self.exponents)
        )

    @classmethod
    def from_vector(cls, k: SymplecticVector) -> "OperatorWord":
        return cls(tuple(zip(k.z, k.x)))


def apply_z(l, i: int, e: int, f: PrimeField) -> np.ndarray:
    """Apply Z_i^e to a labelling: entry i gains e mod p.  i is 1-based.

    l and e are reduced mod p exactly, whatever their dtype or size.
    """
    out = _residues(l, f.p)
    if not 1 <= i <= len(out):
        raise IndexError(f"vertex index {i} out of range 1..{len(out)}")
    out[i - 1] = (out[i - 1] + _residues(e, f.p)) % f.p
    return out


def apply_x(l, i: int, e: int, gamma, f: PrimeField) -> np.ndarray:
    """Apply X_i^e to a labelling: add e times column i of gamma, mod p.

    l, e and gamma are reduced mod p exactly, whatever their dtype or size.
    """
    l = _residues(l, f.p)
    if not 1 <= i <= len(l):
        raise IndexError(f"vertex index {i} out of range 1..{len(l)}")
    return (l + _residues(e, f.p) * _as_matrix(gamma, f.p)[:, i - 1]) % f.p


def apply_word(w: OperatorWord, l, gamma, f: PrimeField) -> np.ndarray:
    """Apply every factor of the word in vertex order.

    All factors are commuting translations, so the order is immaterial, and
    a factor with exponent 0 is the identity, so it is skipped.  l, gamma
    and the exponents are reduced mod p exactly, whatever their dtype or size.
    """
    out = _residues(l, f.p)
    gamma = _as_matrix(gamma, f.p)
    if w.n != len(out) or gamma.shape != (w.n, w.n):
        raise ValueError("word, labelling and adjacency dimensions disagree")
    for i, (z, x) in enumerate(w.exponents, start=1):
        if z:
            out = apply_z(out, i, z, f)
        if x:
            out = apply_x(out, i, x, gamma, f)
    return out


def eta_sum(w: OperatorWord) -> int:
    """Number of formally non-identity factors: pairs (z_i, x_i) != (0, 0)."""
    return sum(1 for pair in w.exponents if pair != (0, 0))


def _word_blocks(gamma, f: PrimeField, target: np.ndarray, k: int):
    """All p**(2n) words in digit order, z_1 slowest, p**k of them per block.

    The block's labellings are tabulated once from each digit's factor
    actions; each setting of the first 2n - k digits, applied to the zero
    labelling with apply_word, translates them.  Yields (those digits, eta of
    each block word), with n + 1 in place of eta where a word misses target.
    """
    n, p = len(gamma), f.p
    zero = np.zeros(n, dtype=np.int64)
    small = np.min_scalar_type(max(k, 1) * (p - 1))  # holds a residue and any sum of k of them
    labels = np.zeros((n, 1), dtype=small)  # column b is block word b's labelling
    for j in reversed(range(2 * n - k, 2 * n)):  # digit j is z_i for even j, x_i for odd j
        i = j // 2 + 1
        acts = [apply_x(zero, i, e, gamma, f) if j % 2 else apply_z(zero, i, e, f) for e in range(p)]
        labels = (np.array(acts, dtype=small).T[:, :, None] + labels[:, None, :]).reshape(n, -1)
    labels = np.ascontiguousarray(labels % small.type(p))  # C order: each block's compare reduces whole rows
    eta_in = np.zeros(1, dtype=np.int64)  # eta of the vertices wholly inside the block
    for _ in range(k // 2):
        eta_in = (eta_in[:, None] + (np.arange(p * p) != 0)).reshape(-1)  # pair index z * p + x
    # For odd k the block opens with x_i, and z_i is the last outer digit.  When
    # z_i != 0 the outer word's eta_sum counts vertex i, else the block does when x_i != 0.
    split = ((np.arange(p) != 0)[:, None] + eta_in).reshape(-1) if k % 2 else eta_in
    eta_by_z = (split, np.tile(eta_in, p) if k % 2 else eta_in)  # indexed by z_i != 0
    for digits in itertools.product(range(p), repeat=2 * n - k):
        padded = digits + (0,) * k
        w = OperatorWord(tuple(zip(padded[0::2], padded[1::2])))
        wanted = ((target - apply_word(w, zero, gamma, f)) % p).astype(small)
        hits = (labels == wanted[:, None]).all(axis=0)
        yield digits, np.where(hits, eta_by_z[bool(digits) and digits[-1] != 0] + eta_sum(w), n + 1)


def _brute_force(g: Multigraph, f: PrimeField, target: np.ndarray, hard_cap: int) -> DistanceReport:
    n, p = g.n, f.p
    total = p ** (2 * n)
    if total > hard_cap:
        raise SearchTooLarge(f"oracle would enumerate p**(2n) = {total} words, cap is {hard_cap}")
    gamma = adjacency_matrix(g, f)
    k = next(k for k in range(2 * n, -1, -1) if p**k <= _BLOCK)  # digits per block
    best, best_eta = None, n + 1
    for digits, eta in _word_blocks(gamma, f, target, k):
        if eta[0] == 0:  # the identity word, first in the first block
            eta[0] = n + 1
        i = int(eta.argmin())
        if eta[i] < best_eta:
            best_eta, best = int(eta[i]), (digits, i)
    if best is None:
        raise RuntimeError("no word reached the target, yet single Z factors reach every translation")
    digits, i = best
    digits += tuple(int(e) for e in np.unravel_index(i, (p,) * k))  # block word i's digits
    word = OperatorWord(tuple(zip(digits[0::2], digits[1::2])))
    zero = np.zeros(n, dtype=np.int64)
    if not np.array_equal(apply_word(word, zero, gamma, f), target) or eta_sum(word) != best_eta:
        raise RuntimeError(f"oracle witness {word.exponents} failed re-verification against the Z and X rules")
    return DistanceReport(distance=best_eta, witness=word.to_vector(), vectors_examined=total)


def brute_force_distance(
    g: Multigraph, f: PrimeField, hard_cap: int = DEFAULT_ORACLE_CAP
) -> DistanceReport:
    """Minimum positive eta count over all words acting as the identity."""
    return _brute_force(g, f, np.zeros(g.n, dtype=np.int64), hard_cap)


def brute_force_pairwise(
    g: Multigraph,
    f: PrimeField,
    cr,
    cs,
    hard_cap: int = DEFAULT_ORACLE_CAP,
) -> DistanceReport:
    """Minimum positive eta count over all words mapping labelling cr to cs.

    A word maps cr to cs exactly when it translates the zero labelling to
    cs - cr, which is what gets tested; some word always does (single Z
    factors realize any translation), so the minimum exists.  The witness
    carries cr to cs, the opposite way to pairwise_distance's.
    """
    cr, cs = _residues(cr, f.p, g.n), _residues(cs, f.p, g.n)
    return _brute_force(g, f, (cs - cr) % f.p, hard_cap)
