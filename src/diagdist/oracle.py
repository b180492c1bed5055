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
step: the last m vertices' words are tabulated once per call, and each word
on the first n - m vertices translates that whole block.  The winner is
re-checked with apply_word and eta_sum.  It exists to cross-check the fast
path on small instances; it shares none of the kernel search's machinery.

Convention: eta is evaluated on the formal exponents, even when column i of
Gamma vanishes mod p and X_i therefore acts as the identity map (isolated
vertex, or every incident multiplicity divisible by p).  The kernel search
counts exactly the same thing, so both sides agree on every graph; but on
such degenerate vertices a formally nonzero factor acts trivially, which is
why the command line tool warns about them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import DistanceReport, SearchTooLarge, SymplecticVector
from .gfp import PrimeField
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
    """Apply Z_i^e to a labelling: entry i gains e mod p.  i is 1-based."""
    l = np.asarray(l, dtype=np.int64)
    if not 1 <= i <= len(l):
        raise IndexError(f"vertex index {i} out of range 1..{len(l)}")
    out = l % f.p
    out[i - 1] = (out[i - 1] + e) % f.p
    return out


def apply_x(l, i: int, e: int, gamma, f: PrimeField) -> np.ndarray:
    """Apply X_i^e to a labelling: add e times column i of gamma, mod p."""
    l = np.asarray(l, dtype=np.int64)
    gamma = np.asarray(gamma, dtype=np.int64)
    if not 1 <= i <= len(l):
        raise IndexError(f"vertex index {i} out of range 1..{len(l)}")
    return (l + e * gamma[:, i - 1]) % f.p


def apply_word(w: OperatorWord, l, gamma, f: PrimeField) -> np.ndarray:
    """Apply every factor of the word in vertex order.

    All factors are commuting translations, so the order is immaterial.
    """
    l = np.asarray(l, dtype=np.int64)
    gamma = np.asarray(gamma, dtype=np.int64)
    if w.n != len(l) or gamma.shape != (w.n, w.n):
        raise ValueError("word, labelling and adjacency dimensions disagree")
    out = l % f.p
    for i, (z, x) in enumerate(w.exponents, start=1):
        out = apply_z(out, i, z, f)
        out = apply_x(out, i, x, gamma, f)
    return out


def eta_sum(w: OperatorWord) -> int:
    """Number of formally non-identity factors: pairs (z_i, x_i) != (0, 0)."""
    return sum(1 for pair in w.exponents if pair != (0, 0))


def _outer_words(gamma, f: PrimeField, k: int):
    """Every word on vertices 1..k in lexicographic order, vertex 1 slowest.

    Yields (exponent pairs, action on the zero labelling, eta count); the
    action is built factor by factor with apply_z and apply_x.
    """
    p = f.p

    def walk(i, pairs, l, eta):
        if i > k:
            yield pairs, l, eta
            return
        for z in range(p):
            lz = apply_z(l, i, z, f)
            for x in range(p):
                lx = apply_x(lz, i, x, gamma, f)
                yield from walk(i + 1, pairs + ((z, x),), lx, eta + ((z, x) != (0, 0)))

    return walk(1, (), np.zeros(len(gamma), dtype=np.int64), 0)


def _word_blocks(gamma, f: PrimeField, target: np.ndarray, m: int):
    """All p**(2n) words in lexicographic order, p**(2m) of them per block.

    The block is every word on the last m vertices, tabulated once from
    their factor actions; each word on the first n - m vertices translates
    it.  Yields (that outer word's exponent pairs, eta of each block word),
    with n + 1 in place of eta where the word does not reach target.
    """
    n, p = len(gamma), f.p
    zero = np.zeros(n, dtype=np.int64)
    nonzero = np.arange(p * p) != 0  # pair index q = z * p + x
    labels = np.zeros((1, n), dtype=np.int64)
    eta_in = np.zeros(1, dtype=np.int64)
    for i in range(n - m + 1, n + 1):
        acts = np.array([apply_x(apply_z(zero, i, z, f), i, x, gamma, f) for z in range(p) for x in range(p)])
        labels = ((labels[:, None, :] + acts) % p).reshape(-1, n)
        eta_in = (eta_in[:, None] + nonzero).reshape(-1)
    for pairs, t, eta_out in _outer_words(gamma, f, n - m):
        hits = (labels == (target - t) % p).all(axis=1)
        yield pairs, np.where(hits, eta_in + eta_out, n + 1)


def _brute_force(g: Multigraph, f: PrimeField, target: np.ndarray, hard_cap: int) -> DistanceReport:
    n, p = g.n, f.p
    total = p ** (2 * n)
    if total > hard_cap:
        raise SearchTooLarge(f"oracle would enumerate p**(2n) = {total} words, cap is {hard_cap}")
    gamma = adjacency_matrix(g, f)
    m = 0
    while m < n and p ** (2 * m + 2) <= _BLOCK:
        m += 1
    best = None
    best_eta = n + 1
    for pairs, eta in _word_blocks(gamma, f, target, m):
        if eta[0] == 0:  # the identity word, first in the first block
            eta[0] = n + 1
        i = int(eta.argmin())
        if eta[i] < best_eta:
            best_eta, best = int(eta[i]), (pairs, i)
    if best is None:
        raise RuntimeError("no word reached the target, yet single Z factors reach every translation")
    pairs, i = best
    inner = []
    for _ in range(m):
        i, q = divmod(i, p * p)
        inner.append(divmod(q, p))
    word = OperatorWord(pairs + tuple(reversed(inner)))
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
    factors realize any translation), so the minimum exists.
    """
    cr = np.asarray(cr, dtype=np.int64) % f.p
    cs = np.asarray(cs, dtype=np.int64) % f.p
    if cr.shape != (g.n,) or cs.shape != (g.n,):
        raise ValueError(f"labellings must have length {g.n}")
    return _brute_force(g, f, (cs - cr) % f.p, hard_cap)
