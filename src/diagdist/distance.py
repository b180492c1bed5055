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
recounted (a stack's together, in one product and one numpy count), so
equal inputs always produce identical reports, and a row of a stack
reports what its lone search would.  The search also takes a stack of r
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
The level tables, every x of a level with its rank, depend on n, p and
_BLOCK alone and are built once per process from the level below (at
p = 2 a level above k/2 of k vertices complements level k - s instead, so
no table is built through one longer than itself).  Per graph, Gamma x of
a level follows the same path, one gather and one XOR or add from the
level it is built from, and only for the levels walked.  Small
consecutive levels share one chunk.  A level of more than _BLOCK
candidates is walked as products of two band tables, with the vertices
above both bands, and their values, walked in Python, so no chunk holds
more than _BLOCK candidates per row.

At p = 2 candidates are bitmasks, weighed by popcount((d ^ Gamma x) | x).
At odd p they are residue tables, vertex axis first, weighed by counting
the vertices where Gamma x differs from d, with a mark where x_j != 0 so
that vertex always counts.  For d = 0 the kernel is F_p-linear and c k
weighs what k does, so the first minimizer has top digit 1: a lone d = 0
search weighs, in the levels it walks alone or as band products, only the
x whose top digit is 1 (the projective idea of Brouwer-Zimmermann
search).

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

from .gfp import PrimeField, _int64s, _residues
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
    left out by the walk by support level: p**n, less the zero candidate
    when d = 0, or up to the witness when the best weight is 1.  Its values
    are those of a walk that weighs every candidate in the fixed order.
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


def build_lambda(gamma) -> np.ndarray:
    """The n x 2n block matrix [I_n | gamma], for entries that int64 holds exactly.

    Integral floats, as in np.zeros((3, 3)), pass; a uint64 2**64 - 1 or a
    1.7 raise ValueError, where a plain cast would give -1 or 1.
    """
    a = np.asarray(gamma)
    _check_square(a)
    if not np.can_cast(a.dtype, np.int64):  # uint64, float, complex or object: check every entry
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
    _check_square(gamma)
    x = _residues(x, f.p, len(gamma))
    z = (-(gamma @ x)) % f.p
    return SymplecticVector.from_parts(z, x)


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


_BITS = 1 << np.arange(64, dtype=np.uint64)  # bit j at entry j, shared read-only by every search
_BITS.setflags(write=False)


def _bitmasks(a: np.ndarray):
    """Each row of a (at most 64 columns) as an int with bit j set where its entry j is nonzero."""
    return ((a != 0) @ _BITS[: a.shape[-1]]).tolist()  # distinct bits: the dot product is their OR


@functools.lru_cache(maxsize=128)
def _level(lo: int, hi: int, s: int, dt, p: int = 2, one: bool = False):
    """The x on range(lo, hi) with s nonzero entries, by ascending rank: (masks, ranks, src, vertex).

    At p = 2 the masks are bitmasks of dtype dt, and the Gray rank
    t = gray^-1(x) is linear over GF(2): the XOR of its vertices' ranks,
    rank(e_j) = 2**(j + 1) - 1.  With k = hi - lo, a level s <= k / 2
    extends each subset of level s - 1 by every vertex above its top one:
    entry i is entry src[i] of level s - 1 plus vertex[i], its top vertex.
    A level s > k / 2 holds the complements in range(lo, hi) of level
    k - s: entry i is the complement of its entry src[i], and vertex is
    None.  So Gamma x of a level is one gather and one XOR from a level no
    longer than it, and building a level only builds such levels.

    At odd p the masks are bools of shape (k, len), True where x_j != 0
    (row j - lo), and the rank is the odometer index t = sum x_j p**j, of
    dtype dt.  Entry i is entry src[i] of level s - 1 plus the digit v at a
    vertex j above its top one, and vertex[i] = j (p - 1) + v - 1 is its
    column of the searcher's column multiples.  The x of level s - 1 whose
    top vertex is below j have t < p**j, a prefix of that level, so the
    level lists, for j and then v ascending, that prefix plus v p**j: in
    ascending order with no sort.  With one, only v = 1 is taken: the x
    whose top digit is 1, a 1 / (p - 1) share of the level.

    src and vertex stay intp: take casts a narrower index at about twice
    the cost.  The arrays depend on the arguments alone; each process
    builds them once, every search shares them read-only, and maxsize
    bounds the memo.
    """
    k = hi - lo
    if s == 0:
        masks = np.zeros((k, 1), dtype=bool) if p > 2 else np.zeros(1, dtype=dt)
        ranks = np.zeros(1, dtype=dt)
        src, vertex = np.zeros(1, dtype=np.intp), np.full(1, lo - 1, dtype=np.intp)
    elif p > 2:
        pm, pr = _level(lo, hi, s - 1, dt, p)[:2]
        tops, vs = [p**j for j in range(lo, hi)], range(1, 2 if one else p)
        counts = np.searchsorted(pr, np.array(tops, dtype=dt)).repeat(len(vs))  # per (j, v): the x below vertex j
        src = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        vertex = np.array([j * (p - 1) + v - 1 for j in range(lo, hi) for v in vs], dtype=np.intp).repeat(counts)
        ranks = pr[src] + np.array([v * q for q in tops for v in vs], dtype=dt).repeat(counts)
        masks = pm[:, src]
        masks[vertex // (p - 1) - lo, np.arange(len(src))] = True
    elif 2 * s > k:
        cm, cr = _level(lo, hi, k - s, dt)[:2]
        full = (1 << hi) - (1 << lo)
        rank_full = functools.reduce(int.__xor__, [(2 << v) - 1 for v in range(lo, hi)])
        ranks = cr ^ dt(rank_full)
        src, vertex = np.argsort(ranks), None
        masks, ranks = (cm ^ dt(full))[src], ranks[src]
    else:
        pm, pr, _, top = _level(lo, hi, s - 1, dt)
        counts = hi - 1 - top  # the vertices above each subset's top one
        src = np.repeat(np.arange(len(pm)), counts)
        vertex = np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts - top - 1, counts)
        bits = _BITS[vertex].astype(dt)
        ranks = pr[src] ^ (bits << 1) - 1  # bit 31 of uint32 shifts out: the rank wraps to 2**32 - 1
        order = np.argsort(ranks)
        masks, ranks, src, vertex = (pm[src] | bits)[order], ranks[order], src[order], vertex[order]
    for t in (masks, ranks, src, vertex):
        if t is not None:
            t.setflags(write=False)
    return masks, ranks, src, vertex


@functools.lru_cache(maxsize=64)
def _patterns(lo: int, hi: int, a: int, b: int, *kind) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Every x on range(lo, hi) with a to b nonzero entries, as _level's masks, their ranks, and their order.

    kind is what follows s in the _level calls: (dt,) at p = 2, and (dt, p)
    or (dt, p, True) at odd p.  Both arrays are sorted by rank, so a first argmin over the table is its
    least-rank minimizer.  Entry i is entry order[i] of the levels a..b of
    _level laid end to end (along the last axis); order is None for a
    single level, which is _level's own arrays.  Callers keep a table at
    most _BLOCK candidates long, and maxsize bounds the memo.
    """
    levels = [_level(lo, hi, s, *kind) for s in range(a, b + 1)]
    if a == b:
        return levels[0][0], levels[0][1], None
    ranks = np.concatenate([lv[1] for lv in levels])
    order = np.argsort(ranks)
    masks, ranks = np.concatenate([lv[0] for lv in levels], axis=-1).take(order, axis=-1), ranks[order]
    for t in (masks, ranks, order):
        t.setflags(write=False)
    return masks, ranks, order


@functools.lru_cache(maxsize=16)
def _level_plan(n: int, p: int, block: int) -> tuple[tuple[tuple[int, int | None], ...], int]:
    """The support levels of n vertices in walking order, and the band width for levels past block.

    Level s holds C(n, s) (p - 1)**s candidates.  Each entry (a, b) is a
    run of consecutive levels a..b that one table of at most block
    candidates holds.  Consecutive levels share a run while it holds at
    most block // n candidates: at p = 2 and n = 10..13 that is levels 0..3
    or 0..4, which nearly every row of a code's stack walks, and a run as
    long as a block would weigh, for all 64 rows, levels that most rows
    never reach.  An entry (s, None) is a level walked as products of two
    band tables (see walk in _searcher): at p = 2 a level of more than
    block subsets, and at odd p every level from the first such one on,
    since an odd-p level is built from the level below, and the top
    levels, small again, would be built through the large ones (at p = 2
    they are complements).  The band width is the most vertices whose
    every level fits block: 0 when one vertex's p - 1 values do not.
    """

    def size(s):
        return math.comb(n, s) * (p - 1) ** s

    runs, s, small = [], 0, True
    while s <= n:
        a, total = s, size(s)
        s += 1
        small = total <= block and (small or p == 2)
        if small:
            while s <= n and total + size(s) <= block // n:
                total += size(s)
                s += 1
        runs.append((a, s - 1 if small else None))
    width = 0
    while all(math.comb(width + 1, j) * (p - 1) ** j <= block for j in range(width + 2)):
        width += 1
    return tuple(runs), width


def _level_blocks(d, dt, chunks):
    """Chi-weights of (d - Gamma x | x) for the candidates of each chunk, at p = 2.

    chunks yields (x, gz, rows): equal-length arrays of dtype dt, the
    bitmasks of x and of Gamma x, and for a stack the indices of the rows to
    weigh (None for a 1-D d).  One uint8 array is yielded per chunk: shape
    (c,) for a 1-D d, whose mask stays a Python int, and (len(rows), c) for
    a stack.  The weight is popcount((d ^ Gamma x) | x).
    """
    masks = _bitmasks(d)
    zd = np.array(masks, dtype=dt)[:, None] if d.ndim == 2 else masks
    for x, gz, rows in chunks:
        z = np.bitwise_xor(gz, zd if rows is None else zd[rows])
        np.bitwise_or(z, x, z)
        yield np.bitwise_count(z)


def _residue_blocks(d, p: int, chunks):
    """Chi-weights of (d - Gamma x | x) for the candidates of each chunk, at odd p.

    chunks yields (lo, hi, rows).  A chunk's candidates are x_hi + x_lo, on
    disjoint vertices, x_hi major.  lo, of shape (n, c0), holds Gamma x_lo
    mod p, and p where x_lo is nonzero; hi, of shape (n, c1), holds
    -Gamma x_hi mod p, and a mark in [2p, 3p] where x_hi is nonzero, or is
    None for the one x_hi = 0; rows are as at p = 2.  The target
    d - Gamma x_hi mod p is min(s, s - p) of s = d + hi, where a mark stays
    at or above p, and vertex j counts where lo and the target differ:
    z_j != 0, or a mark on either side (the marks of x_lo and x_hi never
    share a vertex).  One uint8 array is yielded per chunk: shape (c1 c0,)
    for a 1-D d and (len(rows), c1 c0) for a stack.
    """
    lead = (1,) * (d.ndim - 1)  # the row axis of a stack
    dv = d.T.astype(np.min_scalar_type(4 * p))[..., None]  # vertex axis first: (n, 1) or (n, r, 1)
    for lo, hi, rows in chunks:
        t = dv if rows is None else dv[:, rows]
        if hi is not None:
            t = t + hi.reshape(hi.shape[:1] + lead + hi.shape[1:])
            t = np.minimum(t, t - p)
        neq = t[..., None] != lo.reshape(lo.shape[:1] + lead + (1,) + lo.shape[1:])
        yield np.add.reduce(neq, 0, np.uint8).reshape(neq.shape[1:-2] + (-1,))


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

    What depends on p and _BLOCK alone, the level and pattern tables
    (_level, _patterns), the level plan (_level_plan) and the witness's
    digit powers (_powers), is built once per process and shared
    read-only; _BLOCK is read at each call.  Per graph, Gamma x of each
    level and pattern table walked is built on first use.

    Returns search(d), the first minimum chi-weight over (d - Gamma x | x)
    for one difference d (reduced mod p), or a list of r reports for a
    stack of shape (r, n) of distinct differences, nonzero after row 0,
    each equal to what search(row) reports.  A stack is weighed in one
    pass, so its buffers hold r times one difference's; code_distance keeps
    r <= _ROWS.  A 1-D d stays 1-D in the weighers, with Python ints for
    its best: as a (1, n) stack, with a stack's array bookkeeping, the
    lone searches of diag-gf2 took about a third longer.  walk keeps a
    stack's best weights and least ranks in arrays, updated per chunk with
    one argmin per row and np.where, and weighs only the rows that the
    chunk's level may still improve.  When d = 0, alone or as row 0, its
    k = 0 candidate (weight 0) is neither weighed nor counted in
    vectors_examined.  At odd p a lone d = 0, 1-D or a one-row stack,
    weighs only the x whose top digit is 1 in the levels it walks alone or
    as band products; a longer stack headed by d = 0 weighs every x for
    all its rows, and there row 0 can only tie its first minimizer.  The witnesses are checked against Lambda in one
    product and their chi-weights recounted in one numpy sum, compared
    with the best weights as lists, before _reports builds the reports.
    """
    n, p = g.n, f.p
    _check_budget(n, p, cfg)
    gamma = adjacency_matrix(g, f)
    lam = build_lambda(gamma)
    powers = _powers(p)[:n]  # p**n < 2**64: every digit of a rank
    tables = {}  # Gamma x of each level and pattern table walked, and at odd p its factors
    if p == 2:
        dt = np.uint32 if n <= 32 else np.uint64
        kind = (dt,)  # the level tables' key after s: masks and ranks of dtype dt
        cols = _bitmasks(gamma.T)  # Gamma's columns as masks
        colv = np.array(cols, dtype=dt)
        level0 = np.zeros(1, dtype=dt)  # Gamma x of x = 0
    else:
        dt = np.min_scalar_type(4 * p)  # holds d + 3p, the most the weigher reduces
        kind = (np.uint64, p)  # ranks t < p**n of dtype uint64
        level0 = np.zeros((n, 1), dtype=dt)
        colv = None  # column j (p - 1) + v - 1: v Gamma[:, j] mod p, built when a table first needs it

    def gamma_x(lo, hi, s, one=False):
        """Gamma x of _level(lo, hi, s, .., one), built on first use with the levels it is built from.

        A loop, not a recursion: a nested function that calls itself is a
        reference cycle, which would keep every table until the collector runs.
        """
        nonlocal colv
        k = hi - lo
        for j in range(min(s, k - s) + 1 if p == 2 else s + 1):  # level s, or the one it complements, and those below
            key = (lo, hi, j, True) if one and j == s > 0 else (lo, hi, j)  # at odd p, level s of top digit 1
            if key not in tables:
                _, _, src, vertex = _level(lo, hi, j, *kind, *key[3:])
                if not j:
                    tables[lo, hi, j] = level0
                elif p == 2:
                    tables[lo, hi, j] = tables[lo, hi, j - 1].take(src) ^ colv.take(vertex)
                else:
                    if colv is None:  # p - 1 <= _BLOCK here: one vertex's values fit a table
                        colv = ((gamma[:, :, None] * np.arange(1, p)).reshape(n, -1) % p).astype(dt)
                    gz = tables[lo, hi, j - 1].take(src, axis=1)
                    gz += colv.take(vertex, axis=1)
                    tables[key] = np.minimum(gz, gz - p, out=gz)  # a sum of two residues is below 2p
        if p == 2 and (lo, hi, s) not in tables:  # the complements of level k - s: Gamma of range(lo, hi), less Gamma y
            src = _level(lo, hi, s, dt)[2]
            tables[lo, hi, s] = (tables[lo, hi, k - s] ^ dt(functools.reduce(int.__xor__, cols[lo:hi]))).take(src)
        return tables[key] if p > 2 else tables[lo, hi, s]

    def patterns(lo, hi, a, b, one=False):
        """A pattern table's masks and ranks, and its Gamma x, built on first use."""
        key = lo, hi, a, b, one
        if key not in tables:
            masks, ranks, order = _patterns(lo, hi, a, b, *kind, *((True,) if one else ()))
            gz = [gamma_x(lo, hi, s, one) for s in range(a, b + 1)]
            tables[key] = masks, ranks, gz[0] if order is None else np.concatenate(gz, axis=-1).take(order, axis=-1)
        return tables[key]

    def factor(*key, high=False):
        """At odd p, a pattern table as a factor of the weigher, with its ranks, built on first use.

        key is patterns'.  The low factor holds Gamma x mod p, and p where x
        is nonzero; the high factor holds -Gamma x mod p, and 3p where x is
        nonzero.
        """
        fkey = (high, *key)
        if fkey not in tables:
            marks, ranks, gz = patterns(*key)
            if high:
                gz = p - gz  # in [1, p]: one min(s, s - p) takes it to -Gamma x mod p
                np.minimum(gz, gz - p, out=gz)
            else:
                gz = gz.copy()
            np.copyto(gz[key[0] : key[1]], dt.type(3 * p if high else p), where=marks)
            tables[fkey] = gz, ranks
        return tables[fkey]

    def walk(d, r, zero):
        """Best weight and least rank among its ties, per row, walking x by support level.

        Each candidate weighs at least |supp x|, so a row whose best weight
        is below level a is done: it drops out of the stack's later chunks,
        and the walk ends when every row has.  Every chunk lists its
        candidates by ascending rank, so a row's first argmin in a chunk is
        its least rank among the chunk's ties; a tie with an earlier chunk
        goes to the lesser rank.
        """
        runs, width = _level_plan(n, p, _BLOCK)
        w0 = min(n, width)  # a level past _BLOCK: x = A + B + C, with A and B from tables of the
        w1 = min(n - w0, width)  # bands [0, w0) and [w0, w0 + w1), and C above them, walked in Python
        top, rank_at, rows = n + 1, None, None  # for the chunk being weighed: its ranks, and its rows
        one = zero and r == 1 and p > 2  # scalar symmetry: weigh only the x whose top digit is 1

        def chunks():
            nonlocal rank_at, rows
            for a, b in runs:
                if a > top:  # every row's best is below level a
                    return
                if d.ndim == 2:
                    rows = np.flatnonzero(best_w >= a)  # the rows that level a may improve
                if b is not None:  # levels a..b in one table
                    x, rk, gz = patterns(0, n, a, b) if p == 2 else (*factor(0, n, a, b, one and a == b), None)
                    rank_at = rk.__getitem__
                    yield x, gz, rows
                    continue
                for c in range(min(a, n - w0 - w1) + 1):
                    # C's values, the top one 1 under the scalar symmetry: all 1 at p = 2
                    values = [range(1, p)] * (c - 1) + [range(1, 2 if one else p)] * (c > 0)
                    for j in range(max(0, a - c - w0), min(a - c, w1) + 1):
                        if p == 2:  # each vertex of B flips every bit of rank(A), each of C every bit of
                            # rank(A | B): reversed tables keep the chunk in ascending rank
                            x0, r0, g0 = (t[:: (-1) ** (j + c)] for t in patterns(0, w0, a - c - j, a - c - j))
                            x1, r1, g1 = (t[:: (-1) ** c] for t in patterns(w0, w0 + w1, j, j))
                        else:  # t(A + B + C) = t(A) + t(B) + t(C): the high-major product is in order
                            x0, r0 = factor(0, w0, a - c - j, a - c - j, one and not (c or j))
                            g1, r1 = factor(w0, w0 + w1, j, j, one and not c, high=True)
                        size, step = len(r0), _BLOCK // len(r0)
                        for high in itertools.combinations(range(w0 + w1, n), c):
                            for digits in itertools.product(*values):
                                if p == 2:
                                    cx = cg = cr = 0
                                    for v in high:
                                        cx, cg, cr = cx | 1 << v, cg ^ cols[v], cr ^ (2 << v) - 1
                                elif c:  # C's ranks, and -Gamma x_C mod p
                                    cr = sum(v * p**u for u, v in zip(high, digits))
                                    cg = (-(gamma[:, high] @ digits) % p).astype(dt)[:, None]
                                for i in range(0, len(r1), step):
                                    ri = r1[i : i + step]
                                    if p == 2:
                                        xi, gi = x1[i : i + step], g1[i : i + step]
                                        if c:
                                            xi, gi, ri = xi | cx, gi ^ cg, ri ^ cr
                                        rank_at = lambda k, ri=ri, r0=r0, size=size: ri[k // size] ^ r0[k % size]
                                        yield (xi[:, None] | x0).ravel(), (gi[:, None] ^ g0).ravel(), rows
                                    else:
                                        hi = g1[:, i : i + step] if c or j else None  # None: x_hi = 0
                                        if c:  # a mark 3p stays at 2p or above
                                            ri, hi = ri + cr, hi + cg
                                            hi = np.minimum(hi, hi - p, out=hi)
                                            hi[high, :] = 2 * p
                                        rank_at = lambda k, ri=ri, r0=r0, size=size: ri[k // size] + r0[k % size]
                                        yield x0, hi, rows

        weights = _level_blocks(d, dt, chunks()) if p == 2 else _residue_blocks(d, p, chunks())
        if d.ndim == 1:  # one row: Python ints
            best_w, best_t = n + 1, 0
            for w in weights:
                if zero:  # the k = 0 candidate of d = 0 leads the first chunk, with rank 0
                    w[0], zero = n + 1, False
                i = w.argmin()
                if w.item(i) <= best_w:
                    t = int(rank_at(i))
                    if w.item(i) < best_w or t < best_t:
                        best_w, best_t = w.item(i), t
                        top = best_w
            return [best_w], [best_t]
        best_w = np.full(r, n + 1, dtype=np.int64)
        best_t = np.zeros(r, dtype=kind[0])
        for w in weights:
            if zero:  # the first chunk weighs every row
                w[0, 0], zero = n + 1, False
            i = w.argmin(axis=1)
            least, bw, bt = w[np.arange(len(rows)), i], best_w[rows], best_t[rows]
            hit = least <= bw
            if not hit.any():
                continue
            t = rank_at(i)
            better = hit & ((least < bw) | (t < bt))
            best_w[rows] = np.where(better, least, bw)
            best_t[rows] = np.where(better, t, bt)
            top = int(best_w.max())
        return best_w.tolist(), best_t.tolist()

    def search(d: np.ndarray):
        dr = d.reshape(-1, n)  # one row per difference, a view of d
        nonzero = np.logical_or.reduce(dr, axis=1).tolist()
        if not all(nonzero[1:]):
            raise ValueError("only row 0 of a stack of differences may hold the zero difference")
        r, zero = len(dr), not nonzero[0]  # zero: d = 0, or a stack headed by it: skip k = 0
        best_w, best_t = walk(d, r, zero)
        xi = np.array([t ^ t >> 1 for t in best_t] if p == 2 else best_t, dtype=np.uint64)
        k = np.zeros((r, 2 * n), dtype=np.int64)  # the witnesses, one per row
        k[:, n:] = xi[:, None] // powers % p
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
