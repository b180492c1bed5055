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

At p = 2 the search walks x by support level s = 0, 1, 2, ...  Every
candidate weighs at least |supp x|, so a row whose best weight is below
the next level is done, and the walk ends after level w*, the best
weight, with every minimizer seen: the x-half information set and lower
bound of Brouwer-Zimmermann search (Grassl, "Searching for linear codes
with large minimum distance", 2006; White and Grassl, ISIT 2006).  Of a
row's least-weight candidates it keeps the least Gray rank
t = gray^-1(x), which is exactly the first minimizer of the Gray-code
order.  Candidates are bitmasks, weighed by popcount((d ^ Gamma x) | x).
The pattern tables, every subset of a level as a mask with its Gray rank
(linear over GF(2)), depend on n and _BLOCK alone and are built once per
process, level by level: a level s <= k/2 of k vertices extends level
s - 1, and a level above k/2 complements level k - s, so no table is
built through one longer than itself.  Per graph, Gamma x of a level
follows the same path, one gather and one XOR from the level it extends
or complements, and only for the levels walked.  Small consecutive levels
share one chunk.  A level of more than _BLOCK subsets is walked as
products of two band tables, with the vertices above both bands walked in
Python, so no chunk holds more than _BLOCK candidates per row.

At odd p the m low digits of x, with p**m <= _BLOCK, contribute to
Gamma x through a table built once per graph and shared, with Lambda, by
every difference a call searches (what depends on p and m alone is built
once per process); the high digits step through one block of p**m
candidates at a time, and a few numpy operations weigh the whole block.
Two exact exclusions skip blocks that cannot hold a new first minimizer
(the lower-bound and projective ideas of Brouwer-Zimmermann search):

* support bound: a block fixes the high digits x_hi, and every candidate
  in it weighs at least |supp x_hi|, so a block whose high support reaches
  the best weight found so far is skipped; a later tie never replaces the
  first minimizer.  The weight-1 early exit is the case of best weight 1.
  A stack takes the largest best weight among its rows: a row whose best
  is at or below the high support cannot improve on a strict <.
* scalar symmetry: for d = 0 the kernel is F_p-linear and c k weighs the
  same as k, so the first minimizer has top nonzero digit 1, and only h = 0
  and the blocks h in [p**j, 2 p**j) are weighed.  A stack of 2 or more
  rows headed by d = 0 weighs every block for all of them; the others can
  only tie row 0's first minimizer.

vectors_examined counts the candidates the fixed order accounted for,
weighed or excluded, so its values are those of the walk that weighs
every candidate in that order: p**n, less the zero candidate of d = 0, or
up to the witness on a weight-1 exit.
"""

from __future__ import annotations

import functools
import itertools
import math
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


@functools.lru_cache(maxsize=128)
def _level(lo: int, hi: int, s: int, dt):
    """The s-subsets of range(lo, hi) by ascending Gray rank: (masks, ranks, src, vertex).

    The Gray rank t = gray^-1(x) is linear over GF(2): the XOR of its
    vertices' ranks, rank(e_j) = 2**(j + 1) - 1.  With k = hi - lo, a level
    s <= k / 2 extends each subset of level s - 1 by every vertex above its
    top one: entry i is entry src[i] of level s - 1 plus vertex[i], its top
    vertex.  A level s > k / 2 holds the complements in range(lo, hi) of
    level k - s: entry i is the complement of its entry src[i], and vertex
    is None.  So Gamma x of a level is one gather and one XOR from a level
    no longer than it, and building a level only builds such levels: no
    array here is longer than the level asked for.  src and vertex stay
    intp: take casts a narrower index at about twice the cost.  The arrays
    depend on the arguments alone; each process builds them once, every
    search shares them read-only, and maxsize bounds the memo.
    """
    k = hi - lo
    if s == 0:
        masks = ranks = np.zeros(1, dtype=dt)
        src, vertex = np.zeros(1, dtype=np.intp), np.full(1, lo - 1, dtype=np.intp)
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
def _patterns(lo: int, hi: int, a: int, b: int, dt) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Every subset of range(lo, hi) with a to b vertices, as bitmasks, their Gray ranks, and their order.

    Both arrays are sorted by rank, so a first argmin over the table is its
    least-rank minimizer.  Entry i is entry order[i] of the levels a..b of
    _level laid end to end; order is None for a single level, which is
    _level's own arrays.  Callers keep a table at most _BLOCK subsets long,
    and maxsize bounds the memo.
    """
    levels = [_level(lo, hi, s, dt) for s in range(a, b + 1)]
    if a == b:
        return levels[0][0], levels[0][1], None
    ranks = np.concatenate([lv[1] for lv in levels])
    order = np.argsort(ranks)
    masks, ranks = np.concatenate([lv[0] for lv in levels])[order], ranks[order]
    for t in (masks, ranks, order):
        t.setflags(write=False)
    return masks, ranks, order


@functools.lru_cache(maxsize=16)
def _level_plan(n: int, block: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The support levels of n vertices in walking order, and the band width for levels past block.

    Each entry (a, b) is a run of consecutive levels a..b that one table of
    at most block subsets holds.  Consecutive levels share a run while it
    holds at most block // n subsets: at n = 10..13 that is levels 0..3 or
    0..4, which nearly every row of a code's stack walks, and a run as long
    as a block would weigh, for all 64 rows, levels that most rows never
    reach.  A level of more than block subsets stands alone, as (s, s), and
    is walked as products of two band tables (see walk in _searcher).  The
    band width is the most vertices whose every level fits block.
    """
    runs, s = [], 0
    while s <= n:
        a, size = s, math.comb(n, s)
        s += 1
        if size <= block:
            while s <= n and size + math.comb(n, s) <= block // n:
                size += math.comb(n, s)
                s += 1
        runs.append((a, s - 1))
    width = 1
    while math.comb(width + 1, (width + 1) // 2) <= block:
        width += 1
    return tuple(runs), width


def _level_blocks(d, dt, chunks):
    """Chi-weights of (d - Gamma x | x) for the candidates of each chunk.

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
    with a leading row axis when d is a stack.  The array is reused, so it
    is valid until the next block.
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
    """|supp x_hi| in block h at odd p: the nonzero base-p digits of h."""
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
    """Check the budget and build Gamma, Lambda and the per-graph tables once.

    What depends on p and _BLOCK alone, the low digits per block and the
    witness's digit powers (_layout), and at p = 2 the pattern tables
    (_patterns) and the level plan (_level_plan), is built once per process
    and shared read-only; _BLOCK is read at each call.  Per graph, p = 2
    builds Gamma x of each level and pattern table walked, on first use;
    odd p builds the low-digit table.

    Returns search(d), the first minimum chi-weight over (d - Gamma x | x)
    for one difference d (reduced mod p), or a list of r reports for a
    stack of shape (r, n) of distinct differences, nonzero after row 0,
    each equal to what search(row) reports.  A stack is weighed in one
    pass, so its buffers hold r times one difference's; code_distance keeps
    r <= _ROWS.  A 1-D d stays 1-D in the weighers, with Python ints for
    its best: as a (1, n) stack, with a stack's array bookkeeping, the
    lone searches of diag-gf2 took about a third longer.  At p = 2 (walk) a
    stack keeps its rows' best weights and least ranks in arrays, updated
    per chunk with one argmin per row and np.where, and weighs only the
    rows that the chunk's level may still improve.  At odd p
    (enumerate_blocks) one loop keeps every row's best weight and first
    index in Python lists.  It weighs only the blocks that pass the support
    bound for top, the largest best weight (a row whose best is at or below
    a block's high support cannot improve on a strict <), and, for d = 0
    alone, the scalar symmetry; it stops once top is 1.  A block whose flat
    minimum is at or above top improves no row; only the others, about one
    per search, take an argmin per row.  When d = 0, alone or as row 0, its
    k = 0 candidate (weight 0) is neither weighed nor counted in
    vectors_examined; at odd p a longer stack walks blocks the symmetry
    would skip, but in them row 0 can only tie its first minimizer, whose
    top nonzero digit is 1.  The witnesses are checked against Lambda in
    one product and their chi-weights recounted in one numpy sum, compared
    with the best weights as lists, before _reports builds the reports.
    """
    n, p = g.n, f.p
    _check_budget(n, p, cfg)
    gamma = adjacency_matrix(g, f)
    lam = build_lambda(gamma)
    low, powers = _layout(p, _BLOCK)
    m, powers = min(low, n), powers[:n]  # low digits per block, and the witness's digit powers
    if p == 2:
        dt = np.uint32 if n <= 32 else np.uint64
        cols = _bitmasks(gamma.T)  # Gamma's columns as masks
        colv = np.array(cols, dtype=dt)
        tables = {}  # Gamma x of each level and pattern table walked, keyed like _level and _patterns
    else:
        table = _odometer_table(gamma, n, p, m)

    def gamma_x(lo, hi, s):
        """Gamma x of _level(lo, hi, s), built on first use with the levels it is built from.

        A loop, not a recursion: a nested function that calls itself is a
        reference cycle, which would keep every table until the collector runs.
        """
        k = hi - lo
        for j in range(min(s, k - s) + 1):  # level s, or the level whose complements it holds, and those below
            if (lo, hi, j) not in tables:
                _, _, src, vertex = _level(lo, hi, j, dt)
                tables[lo, hi, j] = tables[lo, hi, j - 1].take(src) ^ colv.take(vertex) if j else np.zeros(1, dtype=dt)
        if (lo, hi, s) not in tables:  # the complements of level k - s: Gamma of range(lo, hi), less Gamma y
            src = _level(lo, hi, s, dt)[2]
            tables[lo, hi, s] = (tables[lo, hi, k - s] ^ dt(functools.reduce(int.__xor__, cols[lo:hi]))).take(src)
        return tables[lo, hi, s]

    def patterns(*key):
        """A pattern table's masks and Gray ranks, and its Gamma x, built on first use."""
        if key not in tables:
            masks, ranks, order = _patterns(*key, dt)
            lo, hi, a, b = key
            gz = [gamma_x(lo, hi, s) for s in range(a, b + 1)]
            tables[key] = masks, ranks, gz[0] if order is None else np.concatenate(gz).take(order)
        return tables[key]

    def walk(d, r, zero):
        """Best weight and least Gray rank among its ties, per row, walking x by support level.

        Each candidate weighs at least |supp x|, so a row whose best weight
        is below level a is done: it drops out of the stack's later chunks,
        and the walk ends when every row has.  Every chunk lists its
        candidates by ascending Gray rank, so a row's first argmin in a chunk
        is its least rank among the chunk's ties; a tie with an earlier chunk
        goes to the lesser rank.
        """
        runs, width = _level_plan(n, _BLOCK)
        w0 = min(n, width)  # a level past _BLOCK: x = A | B | C, with A and B from tables of the
        w1 = min(n - w0, width)  # bands [0, w0) and [w0, w0 + w1), and C above them, walked in Python
        top, rank_at, rows = n + 1, None, None  # for the chunk being weighed: its ranks, and its rows

        def chunks():
            nonlocal rank_at, rows
            for a, b in runs:
                if a > top:  # every row's best is below level a
                    return
                if d.ndim == 2:
                    rows = np.flatnonzero(best_w >= a)  # the rows that level a may improve
                if math.comb(n, a) <= _BLOCK:  # levels a..b in one table
                    x, rk, gz = patterns(0, n, a, b)
                    rank_at = rk.__getitem__
                    yield x, gz, rows
                    continue
                for c in range(min(a, n - w0 - w1) + 1):
                    for j in range(max(0, a - c - w0), min(a - c, w1) + 1):
                        # each vertex of B flips every bit of rank(A), each of C every bit of
                        # rank(A | B): reversed tables keep the chunk in ascending rank
                        x0, r0, g0 = (t[:: (-1) ** (j + c)] for t in patterns(0, w0, a - c - j, a - c - j))
                        x1, r1, g1 = (t[:: (-1) ** c] for t in patterns(w0, w0 + w1, j, j))
                        size, step = len(x0), _BLOCK // len(x0)
                        for high in itertools.combinations(range(w0 + w1, n), c):
                            cx = cg = cr = 0
                            for v in high:
                                cx, cg, cr = cx | 1 << v, cg ^ cols[v], cr ^ (2 << v) - 1
                            for i in range(0, len(x1), step):
                                xi, gi, ri = x1[i : i + step], g1[i : i + step], r1[i : i + step]
                                if c:
                                    xi, gi, ri = xi | cx, gi ^ cg, ri ^ cr
                                rank_at = lambda k, ri=ri, r0=r0, size=size: ri[k // size] ^ r0[k % size]
                                yield (xi[:, None] | x0).ravel(), (gi[:, None] ^ g0).ravel(), rows

        weights = _level_blocks(d, dt, chunks())
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
        best_t = np.zeros(r, dtype=dt)
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

    def enumerate_blocks(d, r, zero):
        """Best weight and first index per row, over the odometer blocks the exclusions leave."""
        top, h = n + 1, 0  # top = max(best_w): only a block below it can improve a row

        def weighed():  # the blocks that may hold a new first minimizer, h kept for the driver
            nonlocal h
            for h in _block_order(p, n - m, zero and r == 1):
                if _high_support(h, p) < top:  # a later tie never replaces the first minimizer
                    yield h
                elif top == 1:  # every later block has support >= 1 too
                    return

        hs = weighed() if m < n else (0,)  # one block: always weighed, no filter to set up
        size = p**m  # candidates per block
        best_w, best_t = [n + 1] * r, [0] * r
        for w in _odometer_blocks(gamma, table, n, p, d, m, hs):
            if h == 0 and zero:
                w.flat[0] = n + 1
            if w.item(w.argmin()) >= top:  # every row's best is at most top: none can improve
                continue
            wr = w.reshape(r, size)
            for row, i in enumerate(wr.argmin(axis=1).tolist()):
                if wr.item(row, i) < best_w[row]:
                    best_w[row], best_t[row] = wr.item(row, i), h * size + i
            top = max(best_w)
        return best_w, best_t

    def search(d: np.ndarray):
        dr = d.reshape(-1, n)  # one row per difference, a view of d
        nonzero = np.logical_or.reduce(dr, axis=1).tolist()
        if not all(nonzero[1:]):
            raise ValueError("only row 0 of a stack of differences may hold the zero difference")
        r, zero = len(dr), not nonzero[0]  # zero: d = 0, or a stack headed by it: skip k = 0
        best_w, best_t = (walk if p == 2 else enumerate_blocks)(d, r, zero)
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
