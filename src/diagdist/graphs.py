"""Multigraph model: parsing, serialization, generators, adjacency mod p.

Graph file format (UTF-8, line oriented; the command line skips a leading
byte-order mark, as Windows Notepad writes one):

    # comment lines and blank lines are ignored
    p 2          optional prime header, below 2**24, at most once, before any edge line
    n 5          required vertex count, 1..4096, before any edge line
    e 1 2        edge between vertices 1 and 2, multiplicity 1
    e 1 2 3      edge with explicit multiplicity; repeated lines accumulate

Vertices are numbered 1..n in files and in all reports, 0..n-1 internally.
Self-loops are rejected.  Multiplicities are stored unreduced, as int64, so
the same multigraph can be analyzed under several primes; reduction happens
only in adjacency_matrix.  A token or an accumulated multiplicity that int64
cannot hold is a ParseError, never a wrapped value.

Codeword file format: one labelling per non-comment line, n space-separated
integers (reduced mod p on parse).

A text integer in either format, and on the command line, is ASCII decimal
digits with an optional sign (_decimal): 1_0 and non-ASCII digits such as
U+0663 are refused, where int() would read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gfp import PrimeField, _index, _int64s, _residues

FAMILIES = ("cycle", "path", "complete", "edgeless")
INT64_MAX = (1 << 63) - 1  # multiplicities are stored as int64
MAX_VERTICES = 4096  # the n x n int64 multiplicity matrix stays at 128 MiB, and 2n(p - 1)**2 below 2**63


class ParseError(ValueError):
    """Malformed graph or codeword input; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


@dataclass(eq=False, frozen=True)
class Multigraph:
    """Undirected multigraph on vertices 0..n-1.

    mult is the symmetric n x n matrix of non-negative edge multiplicities
    with zero diagonal.  Instances are immutable after construction (the
    fields are frozen and the multiplicity array is marked read-only) and
    safe to share.
    """

    n: int
    mult: np.ndarray = field(repr=False)

    def __post_init__(self):
        # frozen: the fields are set through object.__setattr__; n is a Python int, numpy integers pass, floats do not
        object.__setattr__(self, "n", _index(self.n, "vertex count"))
        if self.n < 1:
            raise ValueError("vertex count must be >= 1")
        m = _int64s(self.mult, "edge multiplicities").copy()  # the caller's array stays writable
        if m.shape != (self.n, self.n):
            raise ValueError(f"multiplicity matrix has shape {m.shape}, expected ({self.n}, {self.n})")
        if (m < 0).any():
            raise ValueError("edge multiplicities must be non-negative")
        if not _is_symmetric(m):
            raise ValueError("multiplicity matrix must be symmetric")
        if np.diag(m).any():
            raise ValueError("self-loops are not allowed (diagonal must be zero)")
        m.setflags(write=False)
        object.__setattr__(self, "mult", m)

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.mult, other.mult)

    def edges(self) -> list[tuple[int, int, int]]:
        """Unordered pairs with multiplicity >= 1, 1-based, lexicographic."""
        u, v = np.nonzero(self.mult)
        keep = u < v  # row-major order is already lexicographic
        u, v = u[keep], v[keep]
        return list(zip((u + 1).tolist(), (v + 1).tolist(), self.mult[u, v].tolist()))


def _is_symmetric(m: np.ndarray) -> bool:
    """m == m.T, compared tile by tile over the upper triangle.

    Each 64 x 64 tile meets its mirror's transpose in cache, where a
    whole-matrix compare with m.T strides across every row (0.05 s against
    0.3 s at n = 4096).
    """
    n, tile = m.shape[0], 64
    return all(
        np.array_equal(m[i : i + tile, j : j + tile], m[j : j + tile, i : i + tile].T)
        for i in range(0, n, tile)
        for j in range(i, n, tile)
    )


def adjacency_matrix(g: Multigraph, f: PrimeField) -> np.ndarray:
    """The n x n adjacency matrix of g reduced mod p (symmetric, zero diagonal)."""
    return g.mult % f.p


def generate(family: str, n: int) -> Multigraph:
    """Standard simple graph of the named family, multiplicity 1 on each edge.

    Families: cycle (n >= 3), path, complete, edgeless (n >= 1).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")
    n = _index(n, "vertex count")  # as Multigraph reads it: 5.0 raises ValueError
    if n < 1:
        raise ValueError(f"{family} graph needs n >= 1")
    if n > MAX_VERTICES:
        raise ValueError(f"{family} graph with n = {n} exceeds {MAX_VERTICES} vertices")
    if family == "cycle" and n < 3:
        raise ValueError("cycle graph needs n >= 3")
    mult = np.zeros((n, n), dtype=np.int64)
    if family in ("cycle", "path"):
        i = np.arange(n if family == "cycle" else n - 1)
        j = (i + 1) % n
        mult[i, j] = mult[j, i] = 1
    elif family == "complete":
        mult[:] = 1
        np.fill_diagonal(mult, 0)
    return Multigraph(n, mult)


def parse_graph(text: str) -> tuple[Multigraph, int | None]:
    """Parse the edge-list format; returns (graph, declared prime or None)."""
    n: int | None = None
    declared_p: int | None = None
    mult: np.ndarray | None = None
    seen_edge = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if declared_p is not None:
                raise ParseError("duplicate p header", lineno)
            if seen_edge:
                raise ParseError("p header must come before edge lines", lineno)
            declared_p = _int_token(parts, 1, 2, "p header", lineno)
            try:
                PrimeField(declared_p)
            except ValueError as exc:
                raise ParseError(f"declared p = {exc}", lineno) from None
        elif tag == "n":
            if n is not None:
                raise ParseError("duplicate n line", lineno)
            n = _int_token(parts, 1, 2, "n line", lineno)
            if n < 1:
                raise ParseError(f"vertex count must be >= 1, got {n}", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"vertex count {n} exceeds {MAX_VERTICES}", lineno)
            mult = np.zeros((n, n), dtype=np.int64)
        elif tag == "e":
            if n is None or mult is None:
                raise ParseError("edge line before the n line", lineno)
            if len(parts) not in (3, 4):
                raise ParseError("edge line must be 'e u v' or 'e u v mult'", lineno)
            u = _int_token(parts, 1, len(parts), "edge line", lineno)
            v = _int_token(parts, 2, len(parts), "edge line", lineno)
            m = _int_token(parts, 3, len(parts), "edge line", lineno) if len(parts) == 4 else 1
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ParseError(f"vertex index out of range 1..{n}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u} is not allowed", lineno)
            if m < 0:
                raise ParseError(f"negative multiplicity {m}", lineno)
            if m > INT64_MAX - int(mult[u - 1, v - 1]):
                raise ParseError(f"multiplicity of edge {u}-{v} exceeds 2**63 - 1", lineno)
            mult[u - 1, v - 1] += m
            mult[v - 1, u - 1] += m
            seen_edge = True
        else:
            raise ParseError(f"unrecognized directive {tag!r}", lineno)
    if n is None or mult is None:
        raise ParseError("missing required n line")
    return Multigraph(n, mult), declared_p


def _decimal(text: str) -> int:
    """A text integer, [+-]?[0-9]+: ASCII digits with an optional sign, else ValueError.

    Every text integer, in both file formats and on the command line, is
    read here: int() would also take 1_0 as 10, any Unicode decimal digit
    as a digit, and spaces around the digits.  The check is string
    methods, not a regular expression: re.fullmatch took about a tenth
    more time to parse a 4096-vertex path.
    """
    digits = text[1:] if text[:1] in "+-" else text  # "" is in "+-": then digits is "" too
    if not (digits.isascii() and digits.isdigit()):  # the ASCII characters that isdigit takes are 0-9
        raise ValueError(f"{text!r} is not an integer")
    return int(text)


def _int_token(parts: list[str], idx: int, expected_len: int, what: str, lineno: int) -> int:
    if len(parts) != expected_len:
        raise ParseError(f"{what} must have {expected_len - 1} value(s)", lineno)
    try:
        value = _decimal(parts[idx])
    except ValueError:
        raise ParseError(f"{what}: {parts[idx]!r} is not an integer", lineno) from None
    if value > INT64_MAX:
        raise ParseError(f"{what}: {parts[idx]} does not fit in a 64-bit integer", lineno)
    return value


def serialize(g: Multigraph, p: int | None = None) -> str:
    """Emit the file format: p header if known, the n line, then one
    'e u v m' line per unordered pair, pairs in lexicographic order.

    parse_graph(serialize(g, p)) reconstructs g and p exactly: p is read
    as PrimeField reads it, so a p that the header would refuse, such as
    2.0 or 4, raises ValueError here.
    """
    lines = []
    if p is not None:
        lines.append(f"p {PrimeField(p).p}")
    lines.append(f"n {g.n}")
    for u, v, m in g.edges():
        lines.append(f"e {u} {v} {m}")
    return "\n".join(lines) + "\n"


def parse_codewords(text: str, n: int, f: PrimeField) -> list[np.ndarray]:
    """Parse one labelling per non-comment line: n integers, reduced mod p.

    n is read as generate reads it: 3.0 or NaN raises ValueError, even on a text with no codeword.
    """
    n = _index(n, "vertex count")
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} values, got {len(parts)}", lineno)
        try:
            values = [_decimal(t) for t in parts]
        except ValueError:
            raise ParseError("non-integer token in codeword", lineno) from None
        out.append(_residues(values, f.p))
    return out


def isolated_vertices(g: Multigraph, f: PrimeField) -> list[int]:
    """1-based vertices whose adjacency column vanishes mod p.

    At such a vertex the X operation acts as the identity even for a nonzero
    exponent, so reported weights count a factor that does nothing; callers
    surface this as a warning.
    """
    gamma = adjacency_matrix(g, f)
    return (np.flatnonzero(~gamma.any(axis=0)) + 1).tolist()


def vanishing_edges(g: Multigraph, f: PrimeField) -> list[tuple[int, int, int]]:
    """Edges whose positive multiplicity reduces to 0 mod p, as (u, v, mult)."""
    return [(u, v, m) for u, v, m in g.edges() if m % f.p == 0]
