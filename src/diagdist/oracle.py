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
Those translations are tabulated too, p**s settings of the last s outer
digits at a time.  The winner is re-checked with apply_word and eta_sum.
It exists to cross-check the fast path on small instances; it shares none
of the kernel search's machinery.

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
from .gfp import PrimeField, _as_matrix, _index, _int64s, _residues
from .graphs import Multigraph, adjacency_matrix

DEFAULT_ORACLE_CAP = 1 << 20
_BLOCK = 1 << 12  # most words weighed per numpy step; read at call time


@dataclass(frozen=True)
class OperatorWord:
    """Per-vertex exponent pairs (z_i, x_i), one pair per vertex (0-indexed tuple).

    The exponents are read through _int64s as n pairs of integers and kept
    as tuples of Python ints: 2.0 becomes 2, and 1.5, NaN, a string, None,
    an integer past int64, or anything but n pairs, as (1, 2, 3), raises
    ValueError.
    """

    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = _int64s(self.exponents, "word exponents")
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"word exponents must be n pairs of integers, got shape {pairs.shape}")
        object.__setattr__(self, "exponents", tuple(map(tuple, pairs.tolist())))

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


def _exponent(e, p: int) -> np.ndarray:
    """The exponent e reduced mod p exactly; it must be one integer, so a sequence raises ValueError."""
    e = _residues(e, p)
    if e.ndim:
        raise ValueError(f"an exponent must be one integer, got shape {e.shape}")
    return e


def apply_z(l, i: int, e: int, f: PrimeField) -> np.ndarray:
    """Apply Z_i^e to a labelling: entry i gains e mod p.  i is 1-based.

    l and e are reduced mod p exactly, whatever their dtype or size; e
    must be one integer (ValueError otherwise).  i is read through _index:
    1.5, a string or None raise ValueError, and an integer out of range
    IndexError.
    """
    out = _residues(l, f.p)
    i = _index(i, "vertex index")
    if not 1 <= i <= len(out):
        raise IndexError(f"vertex index {i} out of range 1..{len(out)}")
    out[i - 1] = (out[i - 1] + _exponent(e, f.p)) % f.p
    return out


def apply_x(l, i: int, e: int, gamma, f: PrimeField) -> np.ndarray:
    """Apply X_i^e to a labelling: add e times column i of gamma, mod p.

    l, e and gamma are reduced mod p exactly, whatever their dtype or size;
    e must be one integer (ValueError otherwise).  i is read as apply_z
    reads it.
    """
    l = _residues(l, f.p)
    i = _index(i, "vertex index")
    if not 1 <= i <= len(l):
        raise IndexError(f"vertex index {i} out of range 1..{len(l)}")
    return (l + _exponent(e, f.p) * _as_matrix(gamma, f.p)[:, i - 1]) % f.p


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


def _digit_table(gamma, f: PrimeField, digits: range) -> np.ndarray:
    """Column b: the labelling that setting b of the given digits gives the zero labelling.

    Settings run in digit order (the first digit slowest); each column sums
    one action per digit, taken from apply_z (even digit j, z of vertex
    j // 2 + 1) or apply_x (odd j), and is reduced mod p.
    """
    n, p = len(gamma), f.p
    zero = np.zeros(n, dtype=np.int64)
    small = np.min_scalar_type(max(len(digits), 1) * (p - 1))  # holds any sum of the residues
    table = np.zeros((n, 1), dtype=small)
    for j in digits:
        i = j // 2 + 1
        acts = [apply_x(zero, i, e, gamma, f) if j % 2 else apply_z(zero, i, e, f) for e in range(p)]
        table = (table[:, :, None] + np.array(acts, dtype=small).T[:, None, :]).reshape(n, -1)
    return (table % small.type(p)).astype(np.min_scalar_type(p - 1))


def _group_etas(sizes) -> np.ndarray:
    """Number of nonzero groups in each setting of consecutive digit groups, the first slowest.

    A group is a vertex's (z, x) pair, index z * p + x, of size p * p, or a
    lone z or x digit of size p.
    """
    eta = np.zeros(1, dtype=np.int64)
    for size in sizes:
        eta = (eta[:, None] + (np.arange(size) != 0)).reshape(-1)
    return eta


def _word_blocks(gamma, f: PrimeField, target: np.ndarray, k: int):
    """All p**(2n) words in digit order, z_1 slowest, p**k of them per block.

    The block's labellings are tabulated once from each digit's factor
    actions, and so are the translations that the last s outer digits add
    to them (the most, with p**s <= _BLOCK, that leave whole (z_i, x_i)
    pairs before them), so no table outgrows n * _BLOCK entries.  Each
    setting of those leading pairs, applied to the zero labelling with
    apply_word, shifts the translations of p**s blocks.  Yields (the 2n - k
    outer digits, eta of each block word), with n + 1 in place of eta where
    a word misses target.
    """
    n, p = len(gamma), f.p
    q = 2 * n - k  # digits outside the block
    s = next(s for s in range(q, -1, -2) if p**s <= _BLOCK)  # s = 1 fits when q is odd: then p**k <= _BLOCK
    labels = np.ascontiguousarray(_digit_table(gamma, f, range(q, 2 * n)))  # C order: whole-row compares
    mid = _digit_table(gamma, f, range(q - s, q))
    pairs = (p * p,) * (k // 2)
    eta_in = _group_etas(pairs)  # eta of the vertices wholly inside the block
    eta_mid = _group_etas((p * p,) * (s // 2) + (p,) * (s % 2))
    # For odd k the block opens with x_i, and z_i is the last outer digit.  When
    # z_i != 0 the outer eta counts vertex i, else the block does when x_i != 0.
    split = _group_etas((p,) + pairs) if k % 2 else eta_in
    eta_by_z = (split, np.tile(eta_in, p) if k % 2 else eta_in)  # indexed by z_i != 0
    zero = np.zeros(n, dtype=np.int64)
    for top in itertools.product(range(p), repeat=q - s):
        w = OperatorWord(tuple(zip(top[0::2], top[1::2])) + ((0, 0),) * (n - len(top) // 2))
        wanted = (((target - apply_word(w, zero, gamma, f))[:, None] - mid) % p).T.astype(labels.dtype)
        eta_top = eta_sum(w)
        for b, tail in enumerate(itertools.product(range(p), repeat=s)):
            digits = top + tail
            hits = (labels == wanted[b][:, None]).all(axis=0)
            eta = eta_by_z[bool(digits) and digits[-1] != 0] + (eta_top + eta_mid[b])
            yield digits, np.where(hits, eta, n + 1)


def _brute_force(g: Multigraph, f: PrimeField, target: np.ndarray, hard_cap: int) -> DistanceReport:
    hard_cap = _index(hard_cap, "hard_cap")  # NaN, inf or 1.5 would pass any size: total > nan is false
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
    """Minimum positive eta count over all words acting as the identity.

    hard_cap is read through _index: NaN, inf or 1.5 raise ValueError, and
    an integer below p**(2n) raises SearchTooLarge before any word is built.
    """
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
    carries cr to cs, the opposite way to pairwise_distance's.  hard_cap is
    read as brute_force_distance reads it.
    """
    cr, cs = _residues(cr, f.p, g.n), _residues(cs, f.p, g.n)
    return _brute_force(g, f, (cs - cr) % f.p, hard_cap)
