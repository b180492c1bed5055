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
the x-half alone: k = (-Gamma x | x).  The search therefore ranges over the
p**n choices of x instead of spanning a 2n-column basis.  Its reported
witness is the first minimizer in a fixed order of x: Gray-code order
(x = gray(t), t = 0, 1, ...) for p = 2, odometer order (digit 1 fastest)
for p >= 3.  The witness is re-checked against Lambda and its weight
recounted: a lone search's from the digits of the Python-int rank its
walk keeps, with one product for z, and a stack's together, expanded
from an array of ranks, in one product and one numpy count.  So equal
inputs always produce identical reports, and a row of a stack reports
what its lone search would.  The search also takes a stack of r
differences, each chunk weighed for all r rows in one pass, so
code_distance pays the per-search Python cost once per stack of up to
_ROWS = 64 differences, not once per difference; row 0 may be d = 0, so a
code's zero difference shares the first stack's pass.

At every p the search walks x by support level s = 0, 1, 2, ...  A level
holds every x with |supp x| = s, and at odd p every nonzero value on each
support.  Every candidate weighs at least |supp x|, so a row whose best
weight is below the next level is done, and the walk ends after level w*,
the best weight, with every minimizer seen: the x-half information set and
lower bound of Brouwer-Zimmermann search (Grassl, "Searching for linear
codes with large minimum distance", 2006; White and Grassl, ISIT 2006).
Of a row's least-weight candidates it keeps the least rank t, which is
exactly the first minimizer of the fixed order: the Gray rank
t = gray^-1(x) at p = 2, linear over GF(2), and the odometer index
t = sum x_j p**j at odd p, held exactly in uint64 below p**n < 2**64.
Only level w* can tie the best, and a tie must have a lower rank to win,
so a row is also done before level w* when its best rank is at most that
level's least, and on level w* it weighs only what ranks below its best:
a level that is one table is cut to that rank prefix, and a band level
hands each slice only the rows whose best rank is above the slice's
least, ending a block at its first slice that no row may win (walk).
The pattern tables (_table), every x of a level or a run
of levels with its rank and the columns of its nonzero digits, depend on
n, p and _BLOCK alone and are built once per process in one memo, each
by one recipe at every p from the table one level down, with no sort.
Per graph, Gamma x of a table is one gather of those columns from a
table of Gamma's columns and their multiples, and one XOR or add mod p,
only for the tables walked, each where the walk reads it.  Small levels
from level 0 up share one chunk.  One rule (_fits) decides when the x on
vertices lo..n - 1 at a level are one table: every level below it fits
_BLOCK whole, since _table builds a level from the whole level below it,
and the level itself fits by the candidates it walks; a lone d = 0
search at odd p walks, of each level, the share of top digit 1 (below).
Otherwise they are a band table of the vertices from lo up times the x
above that band, by the same rule (_blocks), in the one band order
(_bands).  So from vertex 0, from the first level that is not one table
on, every level is band products, no chunk holds more than _BLOCK
candidates per row and no table is built through a larger one.

At p = 2 candidates are bitmasks, weighed by popcount((d ^ Gamma x) | x).
At odd p they are residue tables, vertex axis first, weighed by counting
the vertices where Gamma x differs from d, with a mark where x_j != 0 so
that vertex always counts.  For d = 0 the kernel is F_p-linear and c k
weighs what k does, so the first minimizer has top digit 1: a lone d = 0
search weighs only the x whose top digit is 1, on every level (the
projective idea of Brouwer-Zimmermann search).

vectors_examined counts the candidates the fixed order accounted for,
weighed or left out by the walk, so its values are those of a walk that
weighs every candidate in that order: p**n, less the zero candidate of
d = 0, or up to the witness on a weight-1 exit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gfp import PrimeField, _index, _int64s, _residues
from .graphs import Multigraph, adjacency_matrix

DEFAULT_CANDIDATE_BUDGET = 1 << 24
MAX_CODEWORDS = 1 << 10  # code_distance's cap: its pair table and differences grow with k (k + 1) / 2 pairs
CODE_BUDGET = 1 << 36  # code_distance's cap on the candidates its walks may weigh, summed over its differences
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
    otherwise).  Else it is read through operator.index and kept as a
    Python int, as PrimeField.p is: a float or a string raises ValueError.
    force disables the vertex cap, the global candidate budget,
    code_distance's cap of MAX_CODEWORDS = 1024 codewords and its work
    budget of CODE_BUDGET = 2**36 candidates, but never admits
    p**n >= 2**64, past the uint64 ranks of the search: at p = 2, n >= 64
    is always refused.
    """

    max_vertices: int | None = None
    force: bool = False

    def __post_init__(self):
        if self.max_vertices is not None:
            object.__setattr__(self, "max_vertices", _index(self.max_vertices, "max_vertices"))
            if self.max_vertices < 1:
                raise ValueError("max_vertices must be >= 1")

    def vertex_cap(self, p: int) -> int:
        return self.max_vertices if self.max_vertices is not None else 24 if p == 2 else 12


@dataclass(frozen=True)
class SymplecticVector:
    """A 2n-entry vector (z_1 .. z_n | x_1 .. x_n) encoding one operator word.

    The entries are read through _int64s and kept as Python ints: 2.0
    becomes 2, and 1.5, or an integer past int64, raises ValueError.  They
    must be one flat sequence: a scalar, or a sequence of sequences, raises
    ValueError.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = _int64s(self.entries, "symplectic entries")
        if entries.ndim != 1:
            raise ValueError(f"symplectic entries must be one flat sequence, got shape {entries.shape}")
        if len(entries) % 2:
            raise ValueError("symplectic vector length must be even")
        object.__setattr__(self, "entries", tuple(entries.tolist()))

    @classmethod
    def from_parts(cls, z, x) -> "SymplecticVector":
        return cls([*z, *x])

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
    left out by the walk by support level: p**n, less the zero candidate
    when d = 0, or up to the witness when the best weight is 1.  Its values
    are those of a walk that weighs every candidate in the fixed order.
    """

    distance: int
    witness: SymplecticVector
    vectors_examined: int


@dataclass(frozen=True)
class CodeDistanceResult:
    """delta = min of the pair table; pair is the first minimizer (r <= s).

    table holds every pair (r, s), r <= s, 1-based, in scan order:
    (1, 1), (1, 2), ..., (1, k), (2, 2), ..., (k, k), the order of sorted().
    """

    delta: int
    pair: tuple[int, int]
    table: dict[tuple[int, int], DistanceReport]


def _check_square(shape: tuple[int, ...]) -> None:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"adjacency block must be square, got shape {shape}")


def build_lambda(gamma) -> np.ndarray:
    """The n x 2n block matrix [I_n | gamma], for entries that int64 holds exactly.

    Integral floats, as in np.zeros((3, 3)), pass; a uint64 2**64 - 1 or a
    1.7 raise ValueError, where a plain cast would give -1 or 1.
    """
    _check_square(np.shape(gamma))  # before any entry is read
    a = _int64s(gamma, "adjacency entries")
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
    _check_square(gamma.shape)
    x = _residues(x, f.p, len(gamma))
    return SymplecticVector.from_parts(-(gamma @ x) % f.p, x)


def _check_budget(n: int, p: int, cfg: SearchConfig) -> None:
    if p == 2 and n >= 64:
        raise SearchTooLarge(f"n = {n} exceeds the 63 vertices that uint64 bitmasks hold at p = 2")
    if cfg.force:
        if p**n >= 1 << 64:  # the ranks t < p**n are held in uint64; unforced, the budget refuses first
            raise SearchTooLarge(f"p**n = {p}**{n} is not below 2**64, the ranks that uint64 holds")
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


_BITS = 1 << np.arange(63)  # bit j at entry j, of int64, which holds any sum of them; shared read-only
_BITS.setflags(write=False)


def _bitmasks(a: np.ndarray):
    """Each row of a (at most 63 columns) as an int with bit j set where its entry j is nonzero."""
    return ((a != 0) @ _BITS[: a.shape[-1]]).tolist()  # distinct bits: the dot product is their OR


@functools.lru_cache(maxsize=512)  # 306 tables, 5.0 MiB, for the benchmark classes and the forced demo searches
def _table(lo: int, hi: int, a: int, b: int, dt, p: int, one: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every x on range(lo, hi) with a to b nonzero entries, by ascending rank: (masks, ranks, columns).

    At p = 2 the masks are bitmasks of dtype dt, and the rank is the Gray
    rank t = gray^-1(x), linear over GF(2): the XOR of its vertices' ranks,
    rank(e_j) = 2**(j + 1) - 1.  At odd p the masks are bools of shape
    (hi - lo, len), True where x_j != 0 (row j - lo), and the rank is the
    odometer index t = sum x_j p**j.  Ranks are of dtype dt.  Sorted by
    rank, a first argmin over the table is its least-rank minimizer.

    columns, of shape (max(b, 1), len) and of intp, lists each x's nonzero
    digits: the digit v at vertex j is entry 1 + j (p - 1) + v - 1 of the
    searcher's column table, which holds v Gamma[:, j] mod p there (the
    bit mask of Gamma[:, j] at 1 + j when p = 2), and entry 0, a zero
    column, pads at the front the rows of the x with fewer than max(b, 1)
    nonzero digits.  So Gamma x of a table is one take and one XOR or add
    down the rows (_gamma_x).  take casts a narrower index at about twice
    the cost, so the columns stay intp.

    Level 0 is the zero x, with one zero column.  One recipe builds every
    other table at every p: levels a..b from levels max(a - 1, 0)..b - 1
    (of every top digit), the source.  Its entry i is entry src[i] of the
    source plus the digit v at a vertex j above that entry's top one,
    whose column 1 + j (p - 1) + v - 1 ends the entry's columns.  The x of
    the source whose top vertex is below j have t < p**j, a prefix of it,
    so the table lists, for j and then v ascending, that prefix with v at
    j: in ascending order with no sort.  At odd p adding v at j adds
    v p**j to each rank, so the prefix keeps its order.  At p = 2 it maps
    rank t < 2**j to 2**(j + 1) - 1 - t, so the prefix is taken reversed.
    A run from level 0 (a = 0) first keeps the zero x, of rank 0, as a
    group of its own: source entry 0, the one x of rank < 1, with nothing
    added, column 0 and no mask.  The source's x with fewer digits have
    zero columns at the front, so each x of a run has its level's columns
    padded at the front to b rows.  With one, only v = 1 is taken: the x
    whose top digit is 1, a 1 / (p - 1) share of each level s >= 1.

    Callers keep a table at most _BLOCK candidates long, and pass every
    argument by position, so each table has one key.  The arrays depend on
    the arguments alone; each process builds them once, every search
    shares them read-only, and maxsize bounds the memo.
    """
    if b == 0:
        masks = np.zeros((hi - lo, 1), dtype=bool) if p > 2 else np.zeros(1, dtype=dt)
        ranks = np.zeros(1, dtype=dt)
        columns = np.zeros((1, 1), dtype=np.intp)
    else:
        pm, pr, pc = _table(lo, hi, max(a - 1, 0), b - 1, dt, p, False)
        # (v, j) per group: the x below vertex j, of rank < p**j, with v added at j; a run from level 0 first
        # keeps the zero x, the one x of rank < p**0, with nothing (v = 0) added
        groups = [(0, 0)] * (a == 0) + [(v, j) for j in range(lo, hi) for v in range(1, 2 if one else p)]
        counts = np.searchsorted(pr, np.array([p**j for _, j in groups], dtype=dt))
        at = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)  # the place in its group
        src = at if p > 2 else np.repeat(counts - 1, counts) - at  # at p = 2 the prefix reversed
        steps = np.array([v * p**j if p > 2 else v * (2 * p**j - 1) for v, j in groups], dtype=dt).repeat(counts)
        columns = np.empty((b, len(src)), dtype=np.intp)
        columns[-1] = np.repeat([j * (p - 1) + v for v, j in groups], counts)  # column 0 where v = 0
        if b > 1:  # level 0's zero column is not carried
            pc.take(src, axis=1, out=columns[:-1])
        if p > 2:
            ranks = pr[src] + steps
            masks = pm[:, src] | (np.arange(lo, hi)[:, None] == (columns[-1] - 1) // (p - 1))  # -1 where v = 0
        else:
            ranks = pr[src] ^ steps
            masks = pm[src] | np.array([v << j for v, j in groups], dtype=dt).repeat(counts)
    for t in (masks, ranks, columns):
        t.setflags(write=False)
    return masks, ranks, columns


@functools.lru_cache(maxsize=8)
def _multiples(p: int) -> np.ndarray:
    """v u mod p at [v - 1, u], for v in 1..p - 1 and u in 0..p - 1, read-only, of the odd-p tables' dtype.

    It depends on p alone, so each process builds it once per prime.
    _column_table asks only for p < 2**8, so a table holds under 2**16
    entries of at most 2 bytes (128 KiB), and maxsize bounds the memo at
    1 MiB.
    """
    table = (np.arange(1, p)[:, None] * np.arange(p) % p).astype(np.min_scalar_type(4 * p))
    table.setflags(write=False)
    return table


def _column_table(gamma: np.ndarray, p: int, dt) -> np.ndarray:
    """A graph's column table, which _table's digit columns index: entry 0 is zero.

    At p = 2 entry 1 + j is the bitmask of Gamma[:, j], of dtype dt, from
    one product of gamma (0 or 1) with the bits.  At odd p row
    1 + j (p - 1) + v - 1 holds v Gamma[:, j] mod p, of dtype dt: for
    p < 2**8 from one take of _multiples, and above that multiplied out;
    but when p - 1 > _BLOCK (band width 0) only level 0 is gathered, and
    the zero row is the table.
    """
    n = len(gamma)
    if p == 2:
        colv = np.zeros(n + 1, dtype=dt)
        colv[1:] = _BITS[:n] @ gamma  # bit i of column j is gamma[i, j]
        return colv
    colv = np.zeros((1 + n * (p - 1) if p - 1 <= _BLOCK else 1, n), dtype=dt)
    multiples = colv[1:].reshape(-1, p - 1, n)  # [j, v - 1]: v Gamma[:, j] mod p, for every j or for none
    if len(multiples) and p < 1 << 8:  # entry [v - 1, j, i] of the take is v gamma[i, j] mod p
        np.copyto(multiples, _multiples(p).take(gamma.T, axis=1).transpose(1, 0, 2))
    elif len(multiples):
        multiples[...] = gamma.T[:, None] * np.arange(1, p)[:, None] % p
    return colv


def _gamma_x(colv: np.ndarray, idx: np.ndarray, p: int) -> np.ndarray:
    """Gamma x of each x whose digit columns idx lists (_table's columns), from a graph's column table colv.

    One take and one reduction down the rows of idx: at p = 2 an XOR of
    the bitmasks colv holds, and at odd p, where colv holds one column of
    Gamma's multiples per row (each row a contiguous run of n residues),
    an add in a dtype that holds a sum of len(idx) residues, taken mod p
    by subtracting p times each power of two that fits, largest first
    (an unsigned min(s, s - m p) per power: numpy's % on small unsigned
    integers costs several times as much), and laid out vertex axis
    first.  The result is fresh, so a caller may write into it.
    """
    if p == 2:
        return np.bitwise_xor.reduce(colv.take(idx), axis=0)
    total = np.promote_types(np.min_scalar_type(len(idx) * (p - 1)), colv.dtype)
    gz = np.add.reduce(colv.take(idx, axis=0), axis=0, dtype=total)  # shape (len, n)
    m = 1 << (len(idx) * (p - 1) // p).bit_length() >> 1  # the largest power of 2 with m p <= the largest sum, or 0
    while m:  # each step leaves every sum below m p
        np.minimum(gz, gz - m * p, out=gz)
        m >>= 1
    return np.ascontiguousarray(gz.T, dtype=colv.dtype)


def _least_rank(p: int, s: int) -> int:
    """The least rank in level s: that of the x with digit 1 at vertices 0 .. s - 1, and 0 elsewhere.

    gray^-1 of 2**s - 1 at p = 2, and sum p**j over j < s at odd p.
    """
    return 2 ** (s + 1) // 3 if p == 2 else (p**s - 1) // (p - 1)


def _size(m: int, p: int, s: int) -> int:
    """C(m, s) (p - 1)**s: how many x on m vertices have s nonzero digits."""
    return math.comb(m, s) * (p - 1) ** s


def _fits(m: int, p: int, s: int, one: bool, block: int) -> bool:
    """Whether level s of m vertices is one table: it and every table _table builds it through hold at most block.

    _table builds level s from the whole level s - 1, and that from the
    whole level below it, so every level below s must fit whole, and
    level s by the share it walks.  With one (the scalar symmetry of a
    lone d = 0 search at odd p) that share is the x of top digit 1, a
    1 / (p - 1) share of a level s >= 1; but not when p - 1 > block, where
    the searcher's column table holds no multiples and the top vertex's
    values go in slices (band width 0), so the whole level counts.
    """
    share = p - 1 if one and p - 1 <= block else 1
    return _size(m, p, s) // share <= block and all(_size(m, p, t) <= block for t in range(s))


@functools.lru_cache(maxsize=64)  # one plan per (n, p, one) class searched: each a small tuple
def _level_plan(n: int, p: int, block: int, one: bool = False) -> tuple[tuple[tuple[int, int | None], ...], int]:
    """The support levels of n vertices in walking order, and the band width for band levels.

    Each entry (a, b) is a run of consecutive levels a..b that one table
    holds.  Only levels from level 0 share a run, the levels every row
    walks, while their full sizes (_size) sum to at most block // n: at
    p = 2 and n = 10..13 that is levels 0..3 or 0..4, which nearly every
    row of a code's stack walks, and a run as long as a block would weigh,
    for all 64 rows, levels that most rows never reach.  _table builds the
    run 0..b from the run 0..b - 1; a run of top levels a..b would be
    built through runs of the large levels below it (at p = 2, n = 14,
    levels 12..14 through runs of up to 9,438 x), so each later level is a
    run of its own, one table when it fits (_fits: the levels below it
    whole, and its walked share, counted with one).  Merging by walked
    shares made lone searches that stop before a merged level slower.  An
    entry (s, None) is a level walked as band products (_blocks, and walk
    in _searcher): since _fits asks every level below s to fit whole, it
    fails for every level from the first one that does not fit on, the
    small top levels too.  The band width is the most vertices whose every
    level fits block whole: 0 when one vertex's p - 1 values do not, and
    then each band is one vertex, whose values come in slices of block.
    """
    s = 1  # levels 0..s - 1 share the first run
    while s <= n and sum(_size(n, p, t) for t in range(s + 1)) <= block // n:
        s += 1
    runs = [(0, s - 1)] + [(a, a if _fits(n, p, a, one, block) else None) for a in range(s, n + 1)]
    width = 0
    while _fits(width + 1, p, width + 1, False, block):
        width += 1
    return tuple(runs), width


def _bands(pieces, n: int, p: int, w: int, lo: int, s: int, one: bool):
    """The x on range(lo, n) with s nonzero digits as products of the band range(lo, lo + w) and the x above it.

    For each level j of the band, highest first, it yields (j, band, step,
    above): the band's x with j nonzero digits, a table as
    pieces(lo, lo + w, j, j, one) gives it (_searcher's one table
    accessor, which gathers it where it is read), marked at odd p when
    lo = 0 and j > 0 (the weigher's low factor) and with bitmask
    supports otherwise; step = _BLOCK // len(band), how many of the x above
    one chunk takes; and above, the x on range(lo + w, n) with s - j
    nonzero digits in blocks (_blocks).  The band's vertices are below the
    ones above it, so the product, major in the x above, is in ascending
    rank: at odd p the ranks add, and Gamma x adds, then min(s, s - p).  At
    p = 2 both XOR, and each vertex above flips every bit of the band's
    ranks, so the band is taken reversed when the x above it has odd
    weight.  With one, only the x whose top digit is 1: of the band where
    the x above it is zero (j = s), and else of the x above.  The band's
    level s comes first, so the least x of level s, digit 1 at vertices
    lo .. lo + s - 1, is in the first chunks.
    """
    for j in range(min(s, w), max(0, s - n + lo + w) - 1, -1):
        for band in pieces(lo, lo + w, j, j, one and j == s):
            band = tuple(t[::-1] for t in band) if p == 2 and (s - j) % 2 else band
            yield j, band, _BLOCK // len(band[1]), _blocks(pieces, n, p, w, lo + w, s - j, one and j < s)


def _blocks(pieces, n: int, p: int, w: int, lo: int, s: int, one: bool):
    """The x on range(lo, n) with s nonzero digits, in blocks of at most _BLOCK, each by ascending rank.

    The order is ascending within a block, not across blocks: the band
    levels come highest first (_bands), so the blocks of different band
    levels interleave in rank (p = 2, n = 12 at a _BLOCK of 16; p = 3,
    n = 8).  A block is (supports, ranks, Gamma x) as pieces(lo, n, s, s,
    one) gives it, gathered where it is read: lo >= 1, so bitmask supports
    at every p, and Gamma x with no marks.  The x are one table when level
    s of the range fits _BLOCK by _fits, the rule _level_plan keeps from
    vertex 0: every level below s whole, and level s by the share it
    walks.  Otherwise they are the band products of _bands, by this same
    rule above the band, each block of the x above taken step at a time.  It
    takes pieces as an argument, not as a closure of _searcher: a nested
    function that calls itself is a reference cycle, which keeps a search's
    tables alive until the next collection.
    """
    if _fits(n - lo, p, s, one, _BLOCK):
        yield from pieces(lo, n, s, s, one)
        return
    for _, (x1, r1, g1), step, above in _bands(pieces, n, p, w, lo, s, one):
        for x2, r2, g2 in above:
            for i in range(0, len(r2), step):
                x = (x2[i : i + step, None] | x1).ravel()
                if p == 2:
                    yield x, (r2[i : i + step, None] ^ r1).ravel(), (g2[i : i + step, None] ^ g1).ravel()
                    continue
                gz = (g2[:, i : i + step, None] + g1[:, None]).reshape(n, -1)
                yield x, (r2[i : i + step, None] + r1).ravel(), np.minimum(gz, gz - p, out=gz)


def _level_blocks(d, x, gz, rows):
    """Chi-weights of (d - Gamma x | x) for the candidates of one chunk, at p = 2.

    d is the difference's mask as walk prepares it once per search: a
    Python int with bit j set where d_j != 0 for a lone difference, or
    for a stack an array of shape (r, 1) of such masks, of the chunk's
    dtype.  x and gz are the chunk's equal-length arrays, the bitmasks of
    x and of Gamma x, and rows the indices of the stack rows to weigh
    (None for a lone d).  It returns a uint8 array, of shape (c,) for a
    lone d and (len(rows), c) for a stack: popcount((d ^ Gamma x) | x),
    and for a lone d = 0 popcount(Gamma x | x), with no XOR pass.
    """
    if rows is None and not d:
        return np.bitwise_count(np.bitwise_or(gz, x))
    z = np.bitwise_xor(gz, d if rows is None else d[rows])
    return np.bitwise_count(np.bitwise_or(z, x, z))


def _residue_blocks(d, p: int, lo, hi, rows):
    """Chi-weights of (d - Gamma x | x) for the candidates of one chunk, at odd p.

    d is the difference's residues as walk prepares them once per search,
    vertex axis first: shape (n, 1) for a lone difference and (n, r, 1)
    for a stack.  The chunk's candidates are x_hi + x_lo, on disjoint
    vertices, x_hi major.  lo, of shape (n, c0), holds Gamma x_lo mod p,
    and p where x_lo is nonzero; hi, of shape (n, c1), holds -Gamma x_hi
    mod p, and a mark in [2p, 3p] where x_hi is nonzero, or is None for
    the one x_hi = 0; rows are as at p = 2.  The target d - Gamma x_hi mod
    p is min(s, s - p) of s = d + hi, where a mark stays at or above p,
    and vertex j counts where lo and the target differ: z_j != 0, or a
    mark on either side (the marks of x_lo and x_hi never share a vertex).
    It returns a uint8 array, of shape (c1 c0,) for a lone d and
    (len(rows), c1 c0) for a stack.  A lone d with x_hi = 0, as in every
    table of levels, meets lo in two dimensions, (n, 1) against (n, c0):
    through the general broadcast, with an axis for x_hi, diag-oddp's
    lone searches took about 4% longer.
    """
    lead = (1,) * (d.ndim - 2)  # the row axis of a stack
    t = d if rows is None else d[:, rows]
    if hi is None and not lead:
        return np.add.reduce(t != lo, 0, np.uint8)
    if hi is not None:
        t = t + hi.reshape(hi.shape[:1] + lead + hi.shape[1:])
        t = np.minimum(t, t - p)
    neq = t[..., None] != lo.reshape(lo.shape[:1] + lead + (1,) + lo.shape[1:])
    return np.add.reduce(neq, 0, np.uint8).reshape(neq.shape[1:-2] + (-1,))


def _reports(witnesses, weights, examined) -> list[DistanceReport]:
    """One DistanceReport per row of a search, from lists of Python ints.

    The search built each witness with 2n entries and re-verified it, so
    the frozen classes' __init__ and __post_init__ (the length check) are
    skipped: each instance comes from object.__new__ and gets the fields
    __init__ gives it.  The vector's one field goes in by
    object.__setattr__, and the report's three by item into its __dict__,
    which keeps the class's shared keys: on Python 3.11 that dict, made on
    first access, adds about 64 bytes to a report whose values would
    otherwise sit inline, and a code-pairs pass took about 2% less time.
    A fresh dict per instance would more than double each pair's memory.
    """
    new, put = object.__new__, object.__setattr__
    out = []
    for e, w, c in zip(map(tuple, witnesses), weights, examined):
        v = new(SymplecticVector)
        put(v, "entries", e)
        rep = new(DistanceReport)
        fields = rep.__dict__
        fields["distance"] = w
        fields["witness"] = v
        fields["vectors_examined"] = c
        out.append(rep)
    return out


@functools.lru_cache(maxsize=16)
def _pairs(k: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """Every pair r <= s of k codewords in scan order, 1-based, and its r and its s, 0-based, as arrays.

    The arrays are np.triu_indices(k), and the pairs their entries plus 1.
    It depends on k alone, so each process builds it once per k, shared
    read-only.  It holds about 128 bytes a pair, so code_distance
    memoizes only codes of at most 64 codewords (2,080 pairs, 260 KiB),
    which maxsize bounds at about 4 MiB, and builds a larger code's by
    the same recipe, uncached: a memo of 1,024 codewords would keep
    64 MiB for the life of the process.
    """
    first, second = np.triu_indices(k)
    for t in (first, second):
        t.setflags(write=False)
    return tuple(zip((first + 1).tolist(), (second + 1).tolist())), first, second


@functools.lru_cache(maxsize=16)
def _powers(p: int) -> np.ndarray:
    """Every p**j below 2**64, as read-only uint64: the digit weights that expand a rank into x.

    It depends on p alone, so each process builds it once; maxsize bounds
    the memo, however many primes a process searches with.
    """
    powers = np.array([p**j for j in range(64) if p**j < 1 << 64], dtype=np.uint64)
    powers.setflags(write=False)
    return powers


def _searcher(g: Multigraph, f: PrimeField, cfg: SearchConfig):
    """Check the budget and build Gamma, Lambda and the per-graph tables once.

    What depends on p and _BLOCK alone, the pattern tables and their digit
    columns (_table), the level plan (_level_plan), the products mod p
    (_multiples) and a stack's digit powers (_powers), is built once per
    process and shared read-only; _BLOCK is read at each call.  Per graph,
    the column table (_column_table: 0, then Gamma's columns and, at odd
    p, their multiples) is built once.  Every table the walk reads, its
    runs, the band tables (_bands) and the blocks above a band (_blocks),
    comes from one accessor, pieces, which gathers the table's Gamma x
    where it is read, by one gather (_gamma_x), and keeps nothing between
    reads.  A table of a vertex range's x holds at most _BLOCK, and is
    walked only when every level of the range below its own fits _BLOCK
    too (_level_plan from vertex 0, _blocks above a band), so none is
    built through a larger one.

    Returns search(d), the first minimum chi-weight over (d - Gamma x | x)
    for one difference d (reduced mod p), or a list of r reports for a
    stack of shape (r, n) of distinct differences, nonzero after row 0,
    each equal to what search(row) reports.  Each search is one walk, a
    loop that builds a chunk, weighs it by one call of a weigher, a
    function of that chunk and of the difference as walk prepared it, and
    keeps its bests (keep) before it builds the next.  A stack is weighed
    in one pass, so its buffers hold r times one difference's;
    code_distance keeps r <= _ROWS.  A 1-D d stays 1-D in the weighers,
    with Python ints for its bitmask and its best: as a (1, n) stack, with
    a stack's array bookkeeping, the lone searches of diag-gf2 took about
    a third longer.  walk keeps a stack's best weights and least ranks in
    arrays, updated per chunk with
    one argmin per row and np.where, and weighs only the rows that the
    chunk's level may still improve.  When d = 0, alone or as row 0, its
    k = 0 candidate (weight 0) is neither kept nor counted in
    vectors_examined.  At odd p a lone d = 0, 1-D or a one-row stack,
    weighs only the x whose top digit is 1, and its level plan counts
    that share of each level, so a level whose share, and every level
    below it, fit _BLOCK is one table even when the full level does not;
    a longer stack headed by d = 0 weighs every x for all its rows, and
    there row 0 can only tie its first minimizer.  Each witness is
    checked against Lambda, and its chi-weight recounted and compared
    with its walk's best, before _reports builds the report.  A lone d is
    tested for zero by one count,
    its mask at p = 2 is a Python int, and its witness has one form: x from
    the digits of the rank walk keeps as a Python int (the Gray code's bits
    at p = 2, base-p digits at odd p), z = d - Gamma x from one product,
    then one product with Lambda and one count.  A stack's witnesses are
    expanded together from an array of ranks by the digit powers, and
    checked in one product and one numpy sum, which costs a lone search
    more than its own form.
    """
    n, p = g.n, f.p
    _check_budget(n, p, cfg)
    gamma = adjacency_matrix(g, f)
    lam = build_lambda(gamma)
    if p == 2:
        dt = np.uint32 if n <= 32 else np.uint64
        kind = (dt, p)  # the pattern tables' key after b: masks and ranks of dtype dt
    else:
        dt = np.min_scalar_type(4 * p)  # holds d + 3p, the most the weigher reduces
        kind = (np.uint64, p)  # ranks t < p**n of dtype uint64
    colv = _column_table(gamma, p, dt)

    def pieces(lo, hi, a, b, one, below=None):
        """The x on range(lo, hi) with a to b nonzero digits, by ascending rank: (masks, ranks, Gamma x).

        Each table is gathered where it is read (_gamma_x), and its vertex
        range decides its form.  At odd p a table from vertex 0 that holds
        a nonzero x (b > 0) is the weigher's low factor, walk's runs and
        the band at vertex 0: its Gamma x mod p holds p where x is nonzero,
        and its masks go unread.  Every other table, a part of the blocks
        above that band (_blocks) or the zero table (b = 0, the zero x on
        any range, one table for every range), holds Gamma x mod p alone,
        and its masks become bitmask supports, which p = 2's masks are;
        p = 2 has no marks.  It is one table of at most _BLOCK, or at band
        width 0 (p - 1 > _BLOCK), where the range is one vertex and
        a = b = 1, that vertex's values (only 1 with one) _BLOCK at a time,
        in the same form.

        With below, only the x ranked below it: the table is in ascending
        rank, so they are a prefix, cut by one searchsorted before the
        gather, since the gather is the cost that walk's tie-only levels save.
        """
        if b and p - 1 > _BLOCK:
            for v in range(1, 2 if one else p, _BLOCK):
                m = np.arange(v, min(v + _BLOCK, 2 if one else p))
                gz = (np.outer(gamma[:, lo], m) % p).astype(dt)
                np.copyto(gz[lo], dt.type(p), where=not lo)  # the low factor's mark
                yield np.full(len(m), 1 << lo), m.astype(np.uint64) * p**lo, gz
            return
        lo, hi, one = (lo, hi, one) if b else (0, 0, False)  # the zero x: one table for every range
        masks, ranks, columns = _table(lo, hi, a, b, *kind, one)
        if below is not None:
            k = ranks.searchsorted(below)
            masks, ranks, columns = masks[..., :k], ranks[:k], columns[:, :k]
        gz = _gamma_x(colv, columns, p)
        if p > 2 and not lo and b:
            np.copyto(gz[:hi], dt.type(p), where=masks)
        elif p > 2:
            masks = _BITS[lo:hi] @ masks
        yield masks, ranks, gz

    def walk(d, zero):
        """Best weight and least rank among its ties, per row, walking x by support level.

        They are Python ints for a lone d, and arrays for a stack, one entry
        per row of d (a 1-D d is one row, as is a (1, n) stack).  The walk
        is one loop, with the bests in its own frame from the start: it
        builds a chunk, weighs it (_level_blocks at p = 2, _residue_blocks
        at odd p, a function of one chunk, given the difference as walk
        prepares it once: its bitmask, a Python int for a lone d, or its
        residues, vertex axis first) and hands the weights, with that
        chunk's ranks (rank_at), to keep, the one step that keeps the
        bests, before it builds the next chunk.

        Each candidate weighs at least |supp x|, so a row whose best weight
        is below level a is done, and at level a a row whose best weighs a
        can only be improved by a tie of lower rank: it is done for any
        candidates whose least rank is at least its best rank.  done is the
        only stop test.  The loop asks it at each run's start with the
        level's least rank (_least_rank), and before every slice of a band
        level with the slice's; for a stack it also sets rows, the rows the
        next chunk weighs, so a row drops out of the chunks it cannot win
        and the walk ends when every row is done for a level.  Within a
        level a candidate weighs at least a, so keep only keeps bests.
        Every chunk lists its candidates by ascending rank, so a row's
        first argmin in a chunk is its least rank among the chunk's ties; a
        tie with an earlier chunk goes to the lesser rank.  The runs and
        band levels come from _level_plan, which is told one, so a lone
        d = 0 at odd p sizes each level by the candidates it walks.

        The tie-only stop.  A one-table level whose rows left all weigh a
        (best_w == a alone, best_w.max() == a for a stack) is cut to its x
        ranked below their greatest best rank: the table is in rank order,
        so that is a prefix, and pieces gathers Gamma x for it alone.  A
        first run from level 0 is never cut, since every best is n + 1
        there.  A band level a holds x = A + H, A on the band [0, wa) and
        H above it, in the order _bands keeps: for each level j of the
        band, highest first, A is the band's table at level j, the
        weigher's low factor, and H comes in blocks at level a - j, one
        table when that level of the vertices above fits _BLOCK by _fits
        (_blocks).  At odd p each block becomes the weigher's high factor
        once, and a chunk is A times step = _BLOCK // len(A) of the block's
        x, H-major.  At band width 0 the band is vertex 0, its values
        _BLOCK at a time (pieces).  A slice's candidates ascend from
        join(its first H's rank, A's first rank), and the H of a block
        ascend, so the first slice that no row may win ends the block; the
        walk still ends a level only when done(a, least) holds.  The blocks
        of different j interleave in rank, so a later block may still be
        won.
        """
        one = zero and d.size == n and p > 2  # one row of d = 0, scalar symmetry: weigh only the x of top digit 1
        runs, width = _level_plan(n, p, _BLOCK, one)
        # A's band width, one vertex at width 0, and join, which gives rank(A + H) from theirs
        wa, join = max(width, 1), np.bitwise_xor if p == 2 else np.add
        if p > 2:  # the difference's residues, vertex axis first: (n, 1) or (n, r, 1)
            weigh = functools.partial(_residue_blocks, d.T.astype(dt)[..., None], p)
        elif d.ndim == 2:  # each row's bitmask, of shape (r, 1)
            weigh = functools.partial(_level_blocks, np.array(_bitmasks(d), dtype=dt)[:, None])
        else:  # a lone d's bitmask as a Python int: d_j is 0 or 1, so _BITS @ d sets bit j where d_j is 1
            weigh = functools.partial(_level_blocks, 0 if zero else int(_BITS[:n] @ d))
        if d.ndim == 1:  # one row: Python ints
            best_w, best_t = n + 1, 0
        else:
            best_w, best_t = np.full(len(d), n + 1, dtype=np.int64), np.zeros(len(d), dtype=kind[0])
        rows, first = None, True  # the rows the next chunk weighs (a stack's), and whether it is the first

        def done(a, least):
            """Whether no row may still improve on candidates of level a whose ranks are at least least.

            least is the level's least rank, or a band slice's.  For a stack,
            rows becomes the rows that may: best weight above a, or a at a
            rank above least, since such a row can only gain a tie of lower
            rank.
            """
            nonlocal rows
            if d.ndim == 1:
                return best_w < a or best_w == a and best_t <= least
            rows = np.flatnonzero(best_w - (best_t <= least) >= a)
            return not len(rows)

        def keep(w, rank_at):
            """Keep each row's best from the weights w of one chunk, whose candidate i has rank rank_at(i)."""
            nonlocal best_w, best_t, first
            if first and zero:  # the k = 0 candidate of d = 0 leads the first chunk, with rank 0
                w.flat[0] = n + 1
            if d.ndim == 1:
                i = w.argmin()
                if w.item(i) <= best_w:
                    t = int(rank_at(i))
                    if w.item(i) < best_w or t < best_t:
                        best_w, best_t = w.item(i), t
            elif first:  # the first chunk weighs every row, each best n + 1: its minima are the bests
                i = w.argmin(axis=1)
                best_w[:], best_t[:] = w[np.arange(len(w)), i], rank_at(i)
            else:
                i = w.argmin(axis=1)
                low, bw, bt = w[np.arange(len(rows)), i], best_w[rows], best_t[rows]
                hit = low <= bw
                if hit.any():
                    t = rank_at(i)
                    better = hit & ((low < bw) | (t < bt))
                    best_w[rows] = np.where(better, low, bw)
                    best_t[rows] = np.where(better, t, bt)
            first = False

        for a, b in runs:
            least = _least_rank(p, a)
            if done(a, least):
                break
            if b is not None:  # levels a..b in one table; when every row left can only tie, its rank prefix
                if d.ndim == 1:
                    below = best_t if best_w == a else None
                else:
                    below = best_t[rows].max() if best_w.max() == a else None
                for x, rk, gz in pieces(0, n, a, b, one, below):
                    keep(weigh(x, gz, rows) if p == 2 else weigh(gz, None, rows), rk.__getitem__)
                continue
            for j, (x0, r0, g0), step, above in _bands(pieces, n, p, wa, 0, a, one):  # A's levels
                for xh, rh, gh in above:
                    for i in range(0, len(rh), step):
                        if done(a, join(rh[i], r0[0])):  # the slice's least rank: its first candidate's
                            if done(a, least):
                                return best_w, best_t
                            break  # H ascends within the block: no row is left for its later slices
                        if p > 2 and j < a and not i:  # the high factor: -Gamma x_H mod p, 2p where x_H != 0
                            hi = np.where(xh & _BITS[:n, None], dt.type(3 * p), p - gh)  # then min(s, s - p)
                            np.minimum(hi, hi - p, out=hi)
                        sl = slice(i, i + step)
                        if p == 2:
                            w = weigh((xh[sl, None] | x0).ravel(), (gh[sl, None] ^ g0).ravel(), rows)
                        else:  # hi None: x_H = 0
                            w = weigh(g0, hi[:, sl] if j < a else None, rows)
                        keep(w, lambda k: join(rh[sl][k // len(r0)], r0[k % len(r0)]))
        return best_w, best_t

    def search(d: np.ndarray):
        if d.ndim == 1:
            zero = not np.count_nonzero(d)  # d = 0: skip k = 0
            w, t = walk(d, zero)
            digits, u = [], t ^ t >> 1 if p == 2 else t  # x: the Gray code of t at p = 2, t at odd p
            for _ in range(n):
                u, v = divmod(u, p)
                digits.append(v)
            x = np.array(digits)
            k = np.concatenate(((d - gamma @ x) % p, x))  # the witness
            if np.count_nonzero((lam @ k - d) % p) or np.count_nonzero(k[:n] | x) != w:  # entries are reduced mod p
                raise RuntimeError("witness failed re-verification")
            return _reports([k.tolist()], [w], [(t + 1 if w == 1 else p**n) - zero])[0]
        nonzero = np.logical_or.reduce(d, axis=1).tolist()
        if not all(nonzero[1:]):
            raise ValueError("only row 0 of a stack of differences may hold the zero difference")
        r, zero = len(d), not nonzero[0]  # zero: a stack headed by d = 0: skip its k = 0
        best_w, best_t = (best.tolist() for best in walk(d, zero))
        xi = np.array([t ^ t >> 1 for t in best_t] if p == 2 else best_t, dtype=np.uint64)
        k = np.zeros((r, 2 * n), dtype=np.int64)  # the witnesses, one per row
        k[:, n:] = xi[:, None] // _powers(p)[:n] % p  # p**n < 2**64: every digit of a rank
        k[:, :n] = (d - k[:, n:] @ gamma.T) % p
        weights = ((k[:, :n] | k[:, n:]) != 0).sum(axis=1).tolist()  # entries are reduced mod p
        if ((k @ lam.T - d) % p).any() or weights != best_w:
            raise RuntimeError("witness failed re-verification")
        examined = [bt + 1 if bw == 1 else p**n for bw, bt in zip(best_w, best_t)]
        examined[0] -= zero  # the k = 0 candidate of d = 0 is not examined
        return _reports(k.tolist(), best_w, examined)

    return search


def diagonal_distance(
    g: Multigraph, f: PrimeField, cfg: SearchConfig = SearchConfig()
) -> DistanceReport:
    """Exact minimum chi-weight over the nonzero kernel of [I | Gamma].

    Accounts for all p**n - 1 nonzero kernel points, weighing those up to
    the distance's support level; raises SearchTooLarge when p**n exceeds
    the configured budget and cfg.force is unset, or reaches 2**64.
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
    differences) take one pass, and 12 take two, of 64 and 3 rows.  The
    searcher is built first: its budget check guarantees p**n < 2**64, so
    each difference is keyed exactly by the integer sum d_j p**j.  One
    loop keys the pairs, once each, _BLOCK at a time in scan order: it
    maps each pair to the first pair of its difference and keeps only the
    row of each new distinct difference, so the k (k + 1) / 2 x n array of
    every pair's difference is never built.  The pairs of a code of up to
    64 codewords come from a memo per number of codewords (_pairs); a
    larger code takes its index arrays from the same recipe and builds its
    pair tuples once it is keyed.  A code whose only distinct difference
    is d = 0 (one codeword, or equal ones) is a one-row stack, which
    weighs only the x whose top digit is 1, as diagonal_distance does.
    Every report equals what pairwise_distance gives for its pair.  The
    reported pair is the first minimizer in lexicographic scan order.

    The codewords are read in one _residues call, exact for any mix of
    dtypes and Python ints, once each has length n.  A code of more than
    MAX_CODEWORDS = 1024 codewords raises SearchTooLarge before any pair is
    built, unless cfg.force is set: 1024 take 524,800 pairs, which peaked
    at 141 MB for random codewords on the 5-cycle, 144 MB on the 12-cycle
    and 143 MB for the span of 10 random rows on the 24-cycle at p = 2,
    and 8,000 would need about 8 GB.

    A code whose walks may weigh more than CODE_BUDGET = 2**36 candidates
    in all raises SearchTooLarge before its pair table is built, unless
    cfg.force is set: the searcher's budget bounds each search, not their
    number.  A difference d has the word (d | 0) of weight |supp d|, so
    its walk ends by that level, and d = 0 has, for each vertex i, the
    x = e_i of weight at most 1 + |supp Gamma[:, i]|; a walk ending by
    level b weighs at most the _size(n, p, s) candidates of each level
    s <= b.  The keying loop adds each new distinct difference's bound as
    it appears and refuses at the first block past the budget: 1024
    random codewords on the 24-cycle at p = 2 (2**42.1) are refused after
    two blocks, 8,172 distinct differences.  The bounds are summed only
    when the k (k + 1) / 2 pairs' p**n candidates pass the budget, as for
    no code of up to 90 codewords unforced, and compared with it only
    once the distinct differences' p**n pass it: only then is Gamma read,
    for d = 0's bound.
    """
    if len(codewords) < 1:
        raise ValueError("need at least one codeword")
    if len(codewords) > MAX_CODEWORDS and not cfg.force:  # before any pair is built
        raise SearchTooLarge(f"{len(codewords)} codewords exceed the cap of {MAX_CODEWORDS}; set force")
    n, p = g.n, f.p
    search = _searcher(g, f, cfg)  # its budget check guarantees p**n < 2**64, so the keys below are exact
    if any(np.shape(c) != (n,) for c in codewords):
        raise ValueError(f"labellings must have length {n}")
    reduced = _residues(codewords, p)  # int64 in [0, p), exact for any mix of dtypes, so cr - cs fits int64
    k, powers = len(reduced), _powers(p)[:n]
    # every pair r <= s in scan order, (1, 1) and d = 0 first; past 64 codewords uncached, its tuples built once keyed
    pairs, first_word, second_word = _pairs(k) if k <= 64 else ((), *np.triu_indices(k))
    ends = None  # a walk ending by level b weighs ends[b] candidates
    if not cfg.force and k * (k + 1) // 2 * p**n > CODE_BUDGET:  # else the walks' p**n candidates sum within it
        ends = list(itertools.accumulate(_size(n, p, s) for s in range(n + 1)))
    first: dict[int, int] = {}  # the key sum d_j p**j of a difference -> the index of its first pair
    which, rows, work, zero = [], [], 0, None  # rows: each block's new differences; work: their bounds but d = 0's
    for i in range(0, len(first_word), _BLOCK):
        diffs = reduced.take(first_word[i : i + _BLOCK], axis=0) - reduced.take(second_word[i : i + _BLOCK], axis=0)
        diffs %= p
        seen = len(first)
        which += [first.setdefault(key, j) for j, key in enumerate((diffs.astype(np.uint64) @ powers).tolist(), i)]
        rows.append(diffs[np.fromiter(itertools.islice(first.values(), seen, None), np.intp, len(first) - seen) - i])
        if not ends:
            continue
        work += sum(ends[s] for s in np.count_nonzero(rows[-1], axis=1).tolist() if s)  # (d | 0) weighs |supp d|
        if len(first) * p**n > CODE_BUDGET:
            if zero is None:  # d = 0 has, for each vertex i, the x = e_i of weight at most 1 + |supp Gamma[:, i]|
                zero = ends[min(n, 1 + np.count_nonzero(adjacency_matrix(g, f), axis=0).min())]
            if work + zero > CODE_BUDGET:
                raise SearchTooLarge(f"{len(first)} distinct differences may weigh {work + zero} candidates, "
                                     f"past the code budget {CODE_BUDGET}; set force")
    pairs = pairs or tuple(zip((first_word + 1).tolist(), (second_word + 1).tolist()))  # _pairs' recipe
    distinct, diffs = list(first.values()), np.concatenate(rows)  # row c: the difference of pair distinct[c]
    reports = {}
    for c in range(0, len(distinct), _ROWS):  # distinct[0] = 0: pair (1, 1), d = 0, heads the first stack
        reports.update(zip(distinct[c : c + _ROWS], search(diffs[c : c + _ROWS])))
    table = dict(zip(pairs, map(reports.__getitem__, which)))
    dist = [rep.distance for rep in table.values()]
    i = dist.index(min(dist))  # the first minimizer in scan order
    return CodeDistanceResult(delta=dist[i], pair=pairs[i], table=table)
