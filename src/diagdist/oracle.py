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
labelling fixes them all), and minimizes the positive eta count.  This is
exponentially worse than the kernel search and deliberately so: it exists
to cross-check the fast path on small instances, not to be fast.

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
from .gfp import PrimeField
from .graphs import Multigraph, adjacency_matrix

DEFAULT_ORACLE_CAP = 1 << 20


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


def _all_words(n: int, p: int):
    # lexicographic over ((z_1, x_1), ..., (z_n, x_n)); fixes the witness tie-break
    pair_range = list(itertools.product(range(p), repeat=2))
    for exps in itertools.product(pair_range, repeat=n):
        yield OperatorWord(exps)


def _brute_force(g: Multigraph, f: PrimeField, target: np.ndarray, hard_cap: int) -> DistanceReport:
    n, p = g.n, f.p
    total = p ** (2 * n)
    if total > hard_cap:
        raise SearchTooLarge(f"oracle would enumerate p**(2n) = {total} words, cap is {hard_cap}")
    gamma = adjacency_matrix(g, f)
    zero = np.zeros(n, dtype=np.int64)
    best: OperatorWord | None = None
    best_eta = n + 1
    examined = 0
    for w in _all_words(n, p):
        examined += 1
        if not np.array_equal(apply_word(w, zero, gamma, f), target):
            continue
        eta = eta_sum(w)
        if 0 < eta < best_eta:
            best_eta = eta
            best = w
    if best is None:
        raise RuntimeError("no word reached the target, yet single Z factors reach every translation")
    return DistanceReport(distance=best_eta, witness=best.to_vector(), vectors_examined=examined)


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
