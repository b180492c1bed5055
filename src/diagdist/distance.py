"""Diagonal and code distance of multigraph codes over Z/pZ.

A word of per-vertex operations ``prod_i Z_i^{z_i} X_i^{x_i}`` acts on a
labelling L as the translation ``L + Lambda k  (mod p)`` where

    Lambda = [I_n | Gamma],     k = (z_1 .. z_n | x_1 .. x_n),

Gamma being the adjacency matrix mod p.  Words that act as the identity are
exactly the kernel vectors of Lambda, so the diagonal distance is the minimum
chi-weight (number of vertices i with z_i != 0 or x_i != 0) over the nonzero
kernel.  The distance between two labellings cr, cs replaces the kernel by
the solution set of ``Lambda k = cr - cs``.

Because of the identity block, the kernel is parameterized in closed form by
the x-half alone: k = (-Gamma x | x).  The search therefore enumerates all
p**n choices of x instead of spanning a 2n-column basis: in Gray-code order
for p = 2, in odometer order (digit 1 fastest) for p >= 3.  The m low digits
of x, with p**m <= _BLOCK, contribute to Gamma x through a table built once
per graph and shared, with Lambda, by every difference a call searches
(what depends on p and m alone is built once per process); the
high digits step through one block of p**m candidates at a time, and a few
numpy operations weigh the whole block.  The search also takes a stack of
r differences, each block weighed for all r rows in one pass, so
code_distance pays the per-search Python cost once per stack of up to
_ROWS = 64 differences, not once per difference; row 0 may be d = 0, so a
code's zero difference shares the first stack's pass.  One driver keeps
every row's best, for a stack and a lone difference alike.  Reported
witnesses are the first minimizer in that fixed order, re-checked against
Lambda and their weights recounted (a stack's together, in one product and
one numpy count), so equal inputs always produce identical reports, and a
row of a stack reports what its lone search would.

Two exact exclusions skip blocks that cannot hold a new first minimizer
(the lower-bound and projective ideas of Brouwer-Zimmermann search; Grassl,
"Searching for linear codes with large minimum distance", 2006):

* support bound: a block fixes the high digits x_hi, and every candidate
  in it weighs at least |supp x_hi|, so a block whose high support reaches
  the best weight found so far is skipped; a later tie never replaces the
  first minimizer.  The weight-1 early exit is the case of best weight 1.
  A stack takes the largest best weight among its rows: a row whose best
  is at or below the high support cannot improve on a strict <.
* scalar symmetry: for d = 0 the kernel is F_p-linear and c k weighs the
  same as k, so the first minimizer has top nonzero digit 1, and only h = 0
  and the blocks h in [p**j, 2 p**j) are weighed.  At p = 2 that is every
  block.  A stack of 2 or more rows headed by d = 0 weighs every block
  for all of them; the others can only tie row 0's first minimizer.

vectors_examined counts the candidates the fixed order accounted for,
weighed or excluded, so its values are those of the unpruned walk.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .gfp import PrimeField, _residues
from .graphs import Multigraph, adjacency_matrix

DEFAULT_CANDIDATE_BUDGET = 1 << 24
_BLOCK = 1 << 12  # candidates per block at most; bounds the search's tables and buffers
# Differences per block pass in code_distance.  Buffers hold _ROWS * _BLOCK
# entries: 1 MiB of uint32 masks at p = 2, and n * 256 KiB of bools at odd p.
# d = 0 heads the first stack, so a code of up to 11 codewords (at most 55
# distinct nonzero differences) takes one block pass, and 12 take two.
_ROWS = 64


class SearchTooLarge(Exception):
    """The requested exhaustive search exceeds the configured budget."""


@dataclass(frozen=True)
class SearchConfig:
    """Caps on the p**n exhaustive search.

    max_vertices of None means the per-prime default (24 for p = 2, 12
    otherwise).  force disables both the vertex cap and the global
    candidate budget.
    """

    max_vertices: int | None = None
    force: bool = False

    def __post_init__(self):
        if self.max_vertices is not None and self.max_vertices < 1:
            raise ValueError("max_vertices must be >= 1")

    def vertex_cap(self, p: int) -> int:
        return self.max_vertices if self.max_vertices is not None else 24 if p == 2 else 12


@dataclass(frozen=True)
class SymplecticVector:
    """A 2n-entry vector (z_1 .. z_n | x_1 .. x_n) encoding one operator word."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) % 2:
            raise ValueError("symplectic vector length must be even")

    @classmethod
    def from_parts(cls, z, x) -> "SymplecticVector":
        # one list, not tuple(genexpr): those grow by resizing, and the
        # discarded size-n tuples pile up in the interpreter's free lists
        return cls(tuple([int(v) for v in z] + [int(v) for v in x]))

    @property
    def n(self) -> int:
        return len(self.entries) // 2

    @property
    def z(self) -> tuple[int, ...]:
        return self.entries[: self.n]

    @property
    def x(self) -> tuple[int, ...]:
        return self.entries[self.n :]

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)


@dataclass(frozen=True)
class DistanceReport:
    """Result of one minimum-weight search.

    distance is the minimum chi-weight found (1 <= distance <= n), witness a
    vector achieving it (the first in the fixed order), vectors_examined the
    number of candidates the fixed order accounted for, whether weighed or
    excluded by the support bound or the scalar symmetry: p**n, less the
    zero candidate when d = 0, or up to the witness when the weight-1 early
    exit fires.  Its values are those of the walk that weighs every block.
    """

    distance: int
    witness: SymplecticVector
    vectors_examined: int


@dataclass(frozen=True)
class CodeDistanceResult:
    """delta = min of the pair table; pair is the first minimizer (r <= s)."""

    delta: int
    pair: tuple[int, int]
    table: dict[tuple[int, int], DistanceReport]


def _check_square(gamma: np.ndarray) -> None:
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise ValueError(f"adjacency block must be square, got shape {gamma.shape}")


def _fits_int64(v) -> bool:
    try:
        return int(v) == v and -(1 << 63) <= int(v) < 1 << 63
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, non-numbers
        return False


def build_lambda(gamma) -> np.ndarray:
    """The n x 2n block matrix [I_n | gamma], for entries that int64 holds exactly.

    Integral floats, as in np.zeros((3, 3)), pass; a uint64 2**64 - 1 or a
    1.7 raise ValueError, where a plain cast would give -1 or 1.
    """
    a = np.asarray(gamma)
    _check_square(a)
    if not np.can_cast(a.dtype, np.int64):  # uint64, float or object: check every entry
        a = np.asarray(gamma, dtype=object)  # a list's big ints as given, not read as floats
        if not all(map(_fits_int64, a.flat)):
            raise ValueError("adjacency entries must be integers that int64 holds exactly")
    n = a.shape[0]
    lam = np.zeros((n, 2 * n), dtype=np.int64)
    lam[:, n:] = a
    lam.reshape(-1)[:: 2 * n + 1] = 1  # entry (i, i) sits at flat index i * (2n + 1)
    return lam


def chi_weight(k: SymplecticVector, f: PrimeField) -> int:
    """Number of vertices i with z_i != 0 or x_i != 0 (entries taken mod p)."""
    zx = _residues(k.entries, f.p).reshape(2, k.n)
    return int(np.count_nonzero(zx[0] | zx[1]))


def kernel_point(gamma, x, f: PrimeField) -> SymplecticVector:
    """The kernel vector (-gamma x mod p | x) determined by the x-half.

    x runs over (Z/pZ)^n; the map x -> k is a bijection onto ker [I | gamma].
    gamma and x are reduced mod p exactly, whatever their dtype or size;
    gamma must be square and x must have length n.
    """
    gamma = _residues(gamma, f.p)
    _check_square(gamma)
    x = _residues(x, f.p, len(gamma))
    z = (-(gamma @ x)) % f.p
    return SymplecticVector.from_parts(z, x)


def _check_budget(n: int, p: int, cfg: SearchConfig) -> None:
    if p == 2 and n >= 64:
        raise SearchTooLarge(f"n = {n} exceeds the 63 vertices that uint64 bitmasks hold at p = 2")
    if cfg.force:
        return
    cap = cfg.vertex_cap(p)
    if n > cap:
        raise SearchTooLarge(
            f"n = {n} exceeds the vertex cap {cap} for p = {p}; "
            f"raise max_vertices or set force"
        )
    if p**n > DEFAULT_CANDIDATE_BUDGET:
        raise SearchTooLarge(
            f"p**n = {p**n} exceeds the candidate budget {DEFAULT_CANDIDATE_BUDGET}; set force"
        )


_BITS = 1 << np.arange(64, dtype=np.uint64)  # bit j at entry j, shared read-only by every search
_BITS.setflags(write=False)


def _bitmasks(a: np.ndarray):
    """Each row of a (at most 64 columns) as an int with bit j set where its entry j is nonzero."""
    return ((a != 0) @ _BITS[: a.shape[-1]]).tolist()  # distinct bits: the dot product is their OR


@functools.lru_cache(maxsize=16)
def _gray_codes(m: int, dt) -> tuple[np.ndarray, np.ndarray]:
    """gray(lo) for lo = 0 .. 2**m - 1, and its twin with bit m - 1 flipped.

    They depend on (m, dt) alone, so each process builds them once and
    every search shares them read-only.  At the default _BLOCK a search
    takes m <= 12, so the memo holds at most 13 keys, under 0.2 MiB;
    maxsize bounds it whatever _BLOCK is.
    """
    lo = np.arange(1 << m, dtype=dt)
    xl0 = lo ^ (lo >> dt(1))
    codes = (xl0, xl0 ^ dt(1 << (m - 1)))
    for a in codes:
        a.setflags(write=False)
    return codes


def _gray_table(gamma: np.ndarray, m: int):
    """Gamma's columns as bitmasks, and gray(lo) with its part of z per parity of h.

    With t = h * 2**m + lo, the low bits of gray(t) are gray(lo) with bit
    m - 1 flipped when h is odd, and the high bits are gray(h).  The masks
    are uint32 when n <= 32 and uint64 above that: the narrower width
    halves the memory every block operation reads and writes.  The gray
    codes come from _gray_codes, read-only; only z depends on Gamma.
    """
    dt = np.uint32 if gamma.shape[0] <= 32 else np.uint64
    cols = _bitmasks(gamma.T)
    zl0 = np.zeros(1 << m, dtype=dt)  # Gamma gray(lo)
    for i in range(m):  # gray codes of i + 1 bits are those of i bits, then reversed with bit i set
        np.bitwise_xor(zl0[: 1 << i][::-1], dt(cols[i]), zl0[1 << i : 2 << i])
    return cols, _gray_codes(m, dt), (zl0, zl0 ^ dt(cols[m - 1]))


def _gray_blocks(table, n: int, d, m: int, hs):
    """Chi-weights of (d - Gamma x | x) for x = gray(t), t in block h.

    Block h holds the 2**m consecutive t = h * 2**m + lo; hs gives the
    ascending block indices to weigh, and one uint8 array is yielded per
    block: shape (2**m,) for a 1-D d, whose per-block operands stay Python
    ints, and (r, 2**m) for a stack of r rows.  The array is reused, so it
    is valid until the next block.  z and x are bitmasks; the low bits
    come from _gray_table, and the high part is gray(h), reached from the
    last block's by one column XOR per flipped bit.  The weight is
    popcount(z | x).
    """
    cols, xl, zl = table
    dt = xl[0].dtype.type
    masks = _bitmasks(d)  # a Python int for a 1-D d: each block's operands stay Python ints
    zd = np.array(masks, dtype=dt)[:, None] if d.ndim == 2 else masks
    buf = np.empty(d.shape[:-1] + (1 << m,), dtype=dt)
    xb = np.empty(1 << m, dtype=dt)
    w = np.empty(buf.shape, dtype=np.uint8)
    gz = gh = 0  # Gamma gray(h) and gray(h), high parts, of the last block weighed
    for h in hs:
        flips = (h ^ h >> 1) ^ gh
        gh ^= flips
        while flips:
            low = flips & -flips
            gz ^= cols[m + low.bit_length() - 1]
            flips ^= low
        np.bitwise_or(xl[h & 1], gh << m, xb)
        np.bitwise_xor(zl[h & 1], zd ^ gz, buf)
        np.bitwise_or(buf, xb, buf)
        np.bitwise_count(buf, w)
        yield w


def _odometer_table(gamma: np.ndarray, n: int, p: int, m: int) -> np.ndarray:
    """Column lo holds (-Gamma x_lo) mod p for the low m digits, p where x_j != 0.

    A sum s of two residues is below 2p, so min(s, s - p) reduces it: in
    an unsigned dtype s - p wraps above s when s < p.
    """
    dt = np.min_scalar_type(2 * p)  # holds the sum of two residues
    # steps[j, i, v] = (-Gamma[i, j] v) mod p, the part of digit j = v in row i
    steps = (gamma[:, :m].T[:, :, None] * -np.arange(p) % p).astype(dt, order="C")
    tab = steps[0] if m else np.zeros((n, 1), dtype=dt)
    for j in range(1, m):  # digit j becomes the slowest: column v * p**j + r has x_j = v
        s = tab[:, None, :] + steps[j][:, :, None]
        tab = np.minimum(s, s - dt.type(p)).reshape(n, -1)
    for j in range(m):
        tab[j].reshape(p ** (m - 1 - j), p, p**j)[:, 1:, :] = p
    return tab


def _odometer_blocks(gamma: np.ndarray, tab: np.ndarray, n: int, p: int, d, m: int, hs):
    """Chi-weights of (d - Gamma x | x) for x = t in base p, digit 1 fastest.

    Block h holds the p**m consecutive t = h * p**m + lo; hs gives the
    ascending block indices to weigh, and one array is yielded per block,
    with a leading row axis when d is a stack, reused like _gray_blocks.
    A block's target holds (Gamma x_hi - d) mod p for the high digits x_hi
    of h, and p where its own digit x_j is nonzero; tab (from
    _odometer_table) never holds p at the same j.  Vertex j counts exactly
    where the two differ, so no add or mod runs per candidate.
    """
    lead = d.shape[:-1]  # () for one difference, (r,) for a stack
    tabs = tab.reshape(tab.shape[:1] + (1,) * len(lead) + tab.shape[1:])
    neq = np.empty(tab.shape[:1] + lead + tab.shape[1:], dtype=bool)
    w = np.empty(lead + tab.shape[1:], dtype=np.min_scalar_type(n + 1))
    ghi, pw = gamma[:, m:], [p**j for j in range(n - m)]
    for h in hs:
        digits = [h // q % p for q in pw]
        target = ((ghi @ np.array(digits, dtype=np.int64) - d) % p).T  # vertex axis first
        hot = [m + j for j, v in enumerate(digits) if v]
        if hot:
            target[hot] = p
        np.not_equal(tabs, target.astype(tab.dtype)[..., None], neq)
        np.add.reduce(neq, 0, w.dtype, w)
        yield w


def _high_support(h: int, p: int) -> int:
    """|supp x_hi| in block h: the set bits of gray(h) at p = 2, else h's nonzero base-p digits."""
    if p == 2:
        return (h ^ h >> 1).bit_count()
    s = 0
    while h:
        h, r = divmod(h, p)
        s += r != 0
    return s


def _block_order(p: int, k: int, scalar: bool):
    """Indices of the p**k blocks in ascending order that may hold the first minimizer.

    With scalar (d = 0) the search set is F_p-linear, so c * x weighs the
    same as x, and of a minimizer's multiples the one with top nonzero
    digit 1 comes first in odometer order.  Only h = 0 and the blocks whose
    top nonzero high digit is 1, h in [p**j, 2 * p**j), can hold it.  At
    p = 2 these ranges cover every block.
    """
    if not scalar:
        return range(p**k)
    return itertools.chain([0], *(range(p**j, 2 * p**j) for j in range(k)))


def _reports(witnesses, weights, examined) -> list[DistanceReport]:
    """One DistanceReport per row of a search, from lists of Python ints.

    The search built each witness with 2n entries and re-verified it, so
    the frozen classes' __init__ and __post_init__ (the length check) are
    skipped: each instance comes from object.__new__ and gets its fields
    from object.__setattr__, as __init__ gives them.  Field by field, not
    as a fresh __dict__, which would more than double each pair's memory.
    """
    new, put = object.__new__, object.__setattr__
    out = []
    for e, w, c in zip(witnesses, weights, examined):
        v = new(SymplecticVector)
        put(v, "entries", tuple(e))
        rep = new(DistanceReport)
        put(rep, "distance", w)
        put(rep, "witness", v)
        put(rep, "vectors_examined", c)
        out.append(rep)
    return out


@functools.lru_cache(maxsize=16)
def _layout(p: int, block: int) -> tuple[int, np.ndarray]:
    """The most low digits a block of at most block candidates holds, and every p**j below 2**63.

    A search takes min(low, n) low digits and the first n powers, which
    expand its witnesses' x digits.  Both depend on (p, block) alone, so
    each process builds them once; the powers are read-only, and there are
    at most 63 of them.  maxsize bounds the memo, however many primes and
    block sizes a process searches with.
    """
    low = 0
    while p ** (low + 1) <= block:
        low += 1
    powers = np.array([p**j for j in range(63) if p**j < 1 << 63], dtype=np.int64)  # p >= 2: j < 63
    powers.setflags(write=False)
    return low, powers


def _searcher(g: Multigraph, f: PrimeField, cfg: SearchConfig):
    """Check the budget and build Gamma, Lambda and the low-digit table once.

    What depends on p and _BLOCK alone, the low digits per block and the
    witness's digit powers (_layout), and at p = 2 the Gray codes of the
    low digits (_gray_codes), is built once per process and shared
    read-only; _BLOCK is read at each call.

    Returns search(d), the first minimum chi-weight over (d - Gamma x | x)
    for one difference d (reduced mod p), or a list of r reports for a
    stack of shape (r, n) of distinct differences, nonzero after row 0,
    each equal to what search(row) reports.  A stack is weighed in one
    block pass, so its buffers hold r times one difference's; code_distance
    keeps r <= _ROWS.  One loop keeps every row's best weight and first
    index, in Python lists, for a 1-D d and a stack alike.  It weighs only
    the blocks that pass the support bound for top, the largest best weight
    (a row whose best is at or below a block's high support cannot improve
    on a strict <), and, for d = 0 alone, the scalar symmetry; it stops
    once top is 1.  A block whose flat minimum is at or above top improves
    no row; only the others, about one per search, take an argmin per row.
    A 1-D d stays 1-D in the block generators: as a (1, n) stack each block
    costs more.  When d = 0, alone or as row 0, its k = 0 candidate
    (weight 0) is neither weighed nor counted in vectors_examined; a longer
    stack walks blocks the symmetry would skip, but in them row 0 can only
    tie its first minimizer, whose top nonzero digit is 1.  The witnesses
    are checked against Lambda in one product and their chi-weights
    recounted in one numpy sum, compared with the best weights as lists,
    before _reports builds the reports.
    """
    n, p = g.n, f.p
    _check_budget(n, p, cfg)
    gamma = adjacency_matrix(g, f)
    lam = build_lambda(gamma)
    low, powers = _layout(p, _BLOCK)
    m, powers = min(low, n), powers[:n]  # low digits per block, and the witness's digit powers
    size = p**m  # candidates per block
    table = _gray_table(gamma, m) if p == 2 else _odometer_table(gamma, n, p, m)

    def search(d: np.ndarray):
        dr = d.reshape(-1, n)  # one row per difference, a view of d
        nonzero = np.logical_or.reduce(dr, axis=1).tolist()
        if not all(nonzero[1:]):
            raise ValueError("only row 0 of a stack of differences may hold the zero difference")
        r, zero = len(dr), not nonzero[0]  # zero: d = 0, or a stack headed by it: skip k = 0
        top, h = n + 1, 0  # top = max(best_w): only a block below it can improve a row

        def weighed():  # the blocks that may hold a new first minimizer, h kept for the driver
            nonlocal h
            for h in _block_order(p, n - m, zero and r == 1):
                # |supp x_hi|, inline at p = 2; a later tie never replaces the first minimizer
                if ((h ^ h >> 1).bit_count() if p == 2 else _high_support(h, p)) < top:
                    yield h
                elif top == 1:  # every later block has support >= 1 too
                    return

        hs = weighed() if m < n else (0,)  # one block: always weighed, no filter to set up
        blocks = _gray_blocks(table, n, d, m, hs) if p == 2 else _odometer_blocks(gamma, table, n, p, d, m, hs)
        best_w, best_t = [n + 1] * r, [0] * r
        for w in blocks:
            if h == 0 and zero:
                w.flat[0] = n + 1
            if w.item(w.argmin()) >= top:  # every row's best is at most top: none can improve
                continue
            wr = w.reshape(r, size)
            for row, i in enumerate(wr.argmin(axis=1).tolist()):
                if wr.item(row, i) < best_w[row]:
                    best_w[row], best_t[row] = wr.item(row, i), h * size + i
            top = max(best_w)
        xi = np.array([t ^ t >> 1 for t in best_t] if p == 2 else best_t, dtype=np.int64)
        k = np.zeros((r, 2 * n), dtype=np.int64)  # the witnesses, one per row
        k[:, n : n + len(powers)] = xi[:, None] // powers % p  # xi < 2**63: higher digits are 0
        k[:, :n] = (dr - k[:, n:] @ gamma.T) % p
        weights = ((k[:, :n] | k[:, n:]) != 0).sum(axis=1).tolist()  # entries are reduced mod p
        if ((k @ lam.T - dr) % p).any() or weights != best_w:
            raise RuntimeError("witness failed re-verification")
        examined = [bt + 1 if bw == 1 else p**n for bw, bt in zip(best_w, best_t)]
        examined[0] -= zero  # the k = 0 candidate of d = 0 is not examined
        reports = _reports(k.tolist(), best_w, examined)
        return reports if d.ndim == 2 else reports[0]

    return search


def diagonal_distance(
    g: Multigraph, f: PrimeField, cfg: SearchConfig = SearchConfig()
) -> DistanceReport:
    """Exact minimum chi-weight over the nonzero kernel of [I | Gamma].

    Accounts for all p**n - 1 nonzero kernel points, weighing those the
    exclusions leave; raises SearchTooLarge when p**n exceeds the configured
    budget and cfg.force is unset.
    """
    return _searcher(g, f, cfg)(np.zeros(g.n, dtype=np.int64))


def pairwise_distance(
    g: Multigraph,
    f: PrimeField,
    cr,
    cs,
    cfg: SearchConfig = SearchConfig(),
) -> DistanceReport:
    """Minimum chi-weight over solutions of Lambda k = cr - cs (mod p).

    The solution set is the affine family { (d - Gamma x | x) : x in (Z/pZ)^n }
    with d = cr - cs; when cr = cs this is exactly diagonal_distance.  The
    witness carries cs to cr (brute_force_pairwise's carries cr to cs).
    """
    cr, cs = _residues(cr, f.p, g.n), _residues(cs, f.p, g.n)
    return _searcher(g, f, cfg)((cr - cs) % f.p)


def code_distance(
    g: Multigraph,
    f: PrimeField,
    codewords: list,
    cfg: SearchConfig = SearchConfig(),
) -> CodeDistanceResult:
    """Distance of the code given by a list of codeword labellings.

    delta = min over all pairs r <= s (1-based) of the pairwise distance,
    diagonal pairs included.  Each distinct difference cr - cs mod p is
    searched once, and pairs with equal differences share its report.  The
    distinct differences go in stacks of at most _ROWS = 64 rows, each
    weighed in one block pass, with d = 0 (every (r, r) entry) at the head
    of the first: up to 11 codewords (at most 55 distinct nonzero
    differences) take one pass, and 12 take two, of 64 and 3 rows.  When
    d = 0 is the only distinct difference (one codeword, or equal ones) it
    is searched alone, as a 1-D d: a (1, n) stack of it took 10-20% longer,
    from its 2-D per-block operations.  Every report equals
    what pairwise_distance gives for its pair.  The reported pair is the
    first minimizer in lexicographic scan order.
    """
    if len(codewords) < 1:
        raise ValueError("need at least one codeword")
    reduced = np.array([_residues(c, f.p, g.n) for c in codewords])  # so cr - cs fits int64
    search = _searcher(g, f, cfg)
    k = len(reduced)
    pairs = [(r, s) for r in range(k) for s in range(r, k)]  # every pair r <= s, in scan order
    diffs = ((reduced[:, None] - reduced) % f.p).reshape(k * k, g.n)  # row r * k + s: cr - cs
    raw, size = diffs.tobytes(), diffs.strides[0]
    first: dict[bytes, int] = {}  # the bytes of a difference -> its row for the first pair
    rows = [r * k + s for r, s in pairs]
    which = [first.setdefault(raw[i * size : (i + 1) * size], i) for i in rows]
    distinct = list(first.values())  # distinct[0] = 0: pair (1, 1), the zero difference
    if len(distinct) == 1:  # d = 0 alone: the 1-D search, faster per block than a (1, n) stack
        reports = {0: search(diffs[0])}
    else:  # d = 0 heads the first stack
        reports = {}
        for c in range(0, len(distinct), _ROWS):
            chunk = distinct[c : c + _ROWS]
            reports.update(zip(chunk, search(diffs[chunk])))
    table = {(r + 1, s + 1): reports[i] for (r, s), i in zip(pairs, which)}
    best_pair = min(table, key=lambda pr: table[pr].distance)  # the first minimizer in scan order
    return CodeDistanceResult(delta=table[best_pair].distance, pair=best_pair, table=table)
