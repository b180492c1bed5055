"""Seeded inputs, queries and output checks for the four benchmark workloads.

Every input is made here from the seed with ``random.Random``, so the
benchmark does not depend on the test suite's helpers.  Sizes and query
counts are fixed per workload; the seed only changes the graphs, the
labellings and which vertex is special.  That keeps the total work of a
pass, and the sorted list of query latencies, nearly the same from seed to
seed, so runs with different seeds can be compared.

The checks never call into the search engine: witnesses are re-verified
against ``Lambda = [I | Gamma]`` with numpy on the benchmark's own copy of
the multiplicities, and a query passes only if its output holds up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import diagdist
from diagdist import Multigraph, PrimeField
from diagdist import distance as D

NAMES = ("diag-gf2", "diag-oddp", "code-pairs", "cli-small")

# Query outcomes that are not a plain pass.  An ERROR is a query that raised
# or exited with another code than the documented one; a WRONG is an output
# that failed the benchmark's checks.  Both count as failed queries.
ERROR = "error"
WRONG = "wrong"


# ---------------------------------------------------------------- generators


def _graph(n: int, edges) -> np.ndarray:
    mult = np.zeros((n, n), dtype=np.int64)
    for u, v, m in edges:
        mult[u, v] += m
        mult[v, u] += m
    return mult


def sparse_graph(rng: random.Random, n: int) -> np.ndarray:
    """Connected, with vertex n-1 a leaf, so the distance is exactly 2."""
    edges = [(rng.randrange(v), v, 1) for v in range(1, n)]
    for _ in range(n // 2):
        u, v = rng.sample(range(n - 1), 2)
        edges.append((u, v, 1))
    mult = _graph(n, edges)
    return np.minimum(mult, 1)


def dense_graph(rng: random.Random, n: int) -> np.ndarray:
    """G(n, 1/2)."""
    return _graph(n, [(u, v, 1) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])


def isolated_graph(rng: random.Random, n: int, p: int) -> np.ndarray:
    """A sparse graph in which one of the first nine vertices is isolated mod p.

    Half of these have no edge at that vertex; the other half give it edges
    of multiplicity p, which vanish mod p.  The search stops at the weight-1
    vector x = e_v, which it reaches after about 2**(v+1) candidates, so the
    vertex is kept among the first nine to keep these queries cheap.
    """
    v = rng.randrange(min(9, n))
    others = [u for u in range(n) if u != v]
    mult = np.zeros((n, n), dtype=np.int64)
    mult[np.ix_(others, others)] = sparse_graph(rng, n - 1)
    if rng.random() < 0.5:
        for u in rng.sample(others, 2):
            mult[u, v] = mult[v, u] = p
    return mult


def random_multigraph(rng: random.Random, n: int, p: int) -> np.ndarray:
    """Every pair gets a multiplicity drawn uniformly from 0..p-1."""
    return _graph(n, [(u, v, rng.randrange(p)) for u in range(n) for v in range(u + 1, n)])


def labelling(rng: random.Random, n: int, p: int) -> np.ndarray:
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


def codewords(rng: random.Random, n: int, p: int, k: int, repeat: bool) -> list[np.ndarray]:
    """k labellings: one differs from another at a single vertex, and when
    repeat is set one is a copy of another."""
    words = [labelling(rng, n, p) for _ in range(k - 1 - repeat)]
    near = words[rng.randrange(len(words))].copy()
    j = rng.randrange(n)
    near[j] = (near[j] + rng.randrange(1, p)) % p
    words.append(near)
    if repeat:
        words.append(words[rng.randrange(len(words))].copy())
    return words


# ---------------------------------------------------------------- checks


def gamma_mod(mult: np.ndarray, p: int) -> np.ndarray:
    return np.asarray(mult, dtype=np.int64) % p


def degree_bound(mult: np.ndarray, p: int) -> int:
    """1 + the smallest column support mod p; x = e_i attains it."""
    return 1 + int(np.count_nonzero(gamma_mod(mult, p), axis=0).min())


def witness_error(mult, p: int, d, z, x, distance) -> str | None:
    """Why (z | x) is not a weight-`distance` solution of Lambda k = d, or None."""
    gamma = gamma_mod(mult, p)
    n = gamma.shape[0]
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    d = np.asarray(d, dtype=np.int64) % p
    if z.shape != (n,) or x.shape != (n,):
        return f"witness has the wrong length for n = {n}"
    if ((z < 0) | (z >= p) | (x < 0) | (x >= p)).any():
        return "witness entries not reduced mod p"
    if ((z + gamma @ x - d) % p).any():
        return "witness is not a solution of Lambda k = d"
    weight = int(np.count_nonzero(z | x))
    if weight == 0:
        return "witness is the zero vector"
    if weight != distance:
        return f"witness chi-weight {weight} != reported distance {distance}"
    return None


def rank_mod(m: np.ndarray, p: int) -> int:
    """Rank over Z/pZ by plain elimination."""
    a = np.asarray(m, dtype=np.int64) % p
    rank = 0
    for col in range(a.shape[1]):
        rows = np.nonzero(a[rank:, col])[0]
        if rows.size == 0:
            continue
        piv = rank + int(rows[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, p)) % p
        for r in range(a.shape[0]):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def wrong(reason: str | None):
    """A check result: None when the output passed, else (WRONG, reason)."""
    return None if reason is None else (WRONG, reason)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def report_key(rep) -> tuple:
    return (rep.distance, rep.witness.entries, rep.vectors_examined)


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class GraphQuery:
    kind: str
    p: int
    mult: np.ndarray
    graph: Multigraph
    field: PrimeField
    codewords: tuple = ()


def _graph_query(kind: str, p: int, mult: np.ndarray, words=()) -> GraphQuery:
    return GraphQuery(kind, p, mult, Multigraph(len(mult), mult), PrimeField(p), tuple(words))


class DiagonalWorkload:
    """One `diagonal_distance` call per query."""

    rusage = resource.RUSAGE_SELF  # whose peak memory peak_rss_mb reports

    def __init__(self, name: str, queries: list[GraphQuery]):
        self.name = name
        self.queries = queries

    def run(self, q: GraphQuery):
        return D.diagonal_distance(q.graph, q.field)

    def check(self, q: GraphQuery, rep):
        return wrong(self._error(q, rep))

    def _error(self, q: GraphQuery, rep) -> str | None:
        n = q.graph.n
        if not 1 <= rep.vectors_examined <= q.p**n - 1:
            return f"vectors_examined {rep.vectors_examined} outside 1..p**n - 1"
        if rep.distance > degree_bound(q.mult, q.p):
            return f"distance {rep.distance} above 1 + min degree mod p"
        return witness_error(q.mult, q.p, np.zeros(n), rep.witness.z, rep.witness.x, rep.distance)

    def digest(self, rep) -> str:
        return digest(report_key(rep))

    def inputs(self):
        return [(q.kind, q.p, q.mult.tolist()) for q in self.queries]


class CodeWorkload(DiagonalWorkload):
    """One `code_distance` call per query."""

    def run(self, q: GraphQuery):
        return D.code_distance(q.graph, q.field, list(q.codewords))

    def _error(self, q: GraphQuery, res) -> str | None:
        k = len(q.codewords)
        want = {(r, s) for r in range(1, k + 1) for s in range(r, k + 1)}
        if set(res.table) != want:
            return "pair table does not cover every pair r <= s"
        if res.delta != min(rep.distance for rep in res.table.values()):
            return "delta is not the minimum of the pair table"
        if res.table[res.pair].distance != res.delta:
            return "reported pair does not attain delta"
        bound = degree_bound(q.mult, q.p)
        for (r, s), rep in res.table.items():
            d = q.codewords[r - 1] - q.codewords[s - 1]
            if r == s and rep.distance > bound:
                return f"diagonal distance {rep.distance} above 1 + min degree mod p"
            err = witness_error(q.mult, q.p, d, rep.witness.z, rep.witness.x, rep.distance)
            if err:
                return f"pair ({r}, {s}): {err}"
        return None

    def digest(self, res) -> str:
        return digest((res.delta, res.pair, [(pair, report_key(rep)) for pair, rep in res.table.items()]))

    def inputs(self):
        return [(q.p, q.mult.tolist(), [w.tolist() for w in q.codewords]) for q in self.queries]


def interleaved(rng: random.Random, queries: list) -> list:
    """The queries in a seeded random order, the first one kept first.

    Mixing the classes spreads any drift in machine speed during a pass
    evenly over them.  The first query is the warm-up, so it stays the
    same small query for every seed.
    """
    rest = queries[1:]
    rng.shuffle(rest)
    return queries[:1] + rest


# Query mix per class: (count, n).  Counts are chosen so that the median and
# the 90th percentile over a workload's queries fall inside one size class,
# not on the edge between two, which keeps both latencies steady from seed
# to seed.  In diag-gf2 they fall in the middle of n = 14 and n = 17; in
# diag-oddp in p = 7, n = 5 and in {p = 3, n = 10; p = 7, n = 6}, whose
# queries cost about the same.
GF2_SIZES = [(7, 12), (8, 13), (9, 14), (7, 15), (6, 16), (4, 17), (2, 18), (1, 20)]
GF2_ISOLATED = [12, 13, 14, 15, 16, 17, 18, 20, 14, 16, 18, 20]
ODDP_SIZES = [
    (3, [(17, 8), (17, 9), (6, 10), (4, 11)]),
    (5, [(20, 6), (6, 7)]),
    (7, [(26, 5), (4, 6)]),
]
CODE_SIZES = [(2, [(44, 10), (26, 11), (12, 12), (6, 13)]), (3, [(10, 7), (2, 8)])]


def diag_gf2(rng: random.Random) -> DiagonalWorkload:
    queries = []
    for make, kind in ((sparse_graph, "sparse"), (dense_graph, "dense")):
        for count, n in GF2_SIZES:
            queries += [_graph_query(kind, 2, make(rng, n)) for _ in range(count)]
    queries += [_graph_query("isolated", 2, isolated_graph(rng, n, 2)) for n in GF2_ISOLATED]
    return DiagonalWorkload("diag-gf2", interleaved(rng, queries))


def diag_oddp(rng: random.Random) -> DiagonalWorkload:
    queries = []
    for p, sizes in ODDP_SIZES:
        for count, n in sizes:
            queries += [_graph_query(f"p{p}", p, random_multigraph(rng, n, p)) for _ in range(count)]
    return DiagonalWorkload("diag-oddp", interleaved(rng, queries))


def code_pairs(rng: random.Random) -> CodeWorkload:
    queries = []
    for p, sizes in CODE_SIZES:
        for count, n in sizes:
            for i in range(count):
                k = 6 + i % 7  # 6..12 codewords, the same mix for every seed
                mult = dense_graph(rng, n) if p == 2 else random_multigraph(rng, n, p)
                words = codewords(rng, n, p, k, repeat=i % 2 == 0)
                queries.append(_graph_query(f"p{p}", p, mult, words))
    return CodeWorkload("code-pairs", interleaved(rng, queries))


# ---------------------------------------------------------------- cli-small


@dataclass(frozen=True)
class CliQuery:
    kind: str  # distance, distance-json, code-distance, kernel, verify, or an error path
    argv: tuple[str, ...]
    expect_code: int
    p: int = 2
    mult: np.ndarray | None = None
    codewords: tuple = ()


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str


def graph_file(mult: np.ndarray, p: int) -> str:
    lines = [f"p {p}", f"n {len(mult)}"]
    for u in range(len(mult)):
        for v in range(u + 1, len(mult)):
            if mult[u, v]:
                lines.append(f"e {u + 1} {v + 1} {int(mult[u, v])}")
    return "\n".join(lines) + "\n"


def _line_value(stdout: str, prefix: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :].strip()
    return None


def _parse_vec(text: str) -> tuple[list[int], list[int]]:
    z, x = text.strip("[]").split("|")
    return [int(t) for t in z.split()], [int(t) for t in x.split()]


class CliWorkload:
    """`python -m diagdist.cli` runs on small files written at set-up.

    run() starts one subprocess per query; run_in_process() calls
    cli.main(argv) with stdout and stderr captured, for the traced run.
    """

    name = "cli-small"
    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, queries: list[CliQuery], files: dict[str, str], env: dict[str, str]):
        self.queries = queries
        self.files = files
        self.env = env

    def run(self, q: CliQuery) -> CliResult:
        proc = subprocess.run(
            [sys.executable, "-m", "diagdist.cli", *q.argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return CliResult(proc.returncode, proc.stdout)

    def run_in_process(self, q: CliQuery) -> CliResult:
        import diagdist.cli as cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(q.argv))
        return CliResult(code, out.getvalue())

    def check(self, q: CliQuery, res: CliResult):
        if res.code != q.expect_code:
            return ERROR, f"exit code {res.code}, expected {q.expect_code}"
        if q.expect_code:
            return None
        try:
            return wrong(self._check_output(q, res.stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return WRONG, f"unreadable output: {exc!r}"

    def _check_output(self, q: CliQuery, stdout: str) -> str | None:
        n = len(q.mult)
        zero = np.zeros(n)
        bound = degree_bound(q.mult, q.p)
        if q.kind == "distance":
            dist = int(_line_value(stdout, "distance ="))
            z, x = _parse_vec(_line_value(stdout, "witness k ="))
            if dist > bound:
                return f"distance {dist} above 1 + min degree mod p"
            return witness_error(q.mult, q.p, zero, z, x, dist)
        if q.kind == "verify":
            if not any(line.startswith("MATCH") for line in stdout.splitlines()):
                return "verify did not report MATCH"
            return None
        payload = json.loads(stdout)
        if q.kind == "distance-json":
            if payload["distance"] > bound:
                return f"distance {payload['distance']} above 1 + min degree mod p"
            return witness_error(q.mult, q.p, zero, payload["witness_z"], payload["witness_x"], payload["distance"])
        if q.kind == "code-distance":
            r, s = payload["pair"]
            dists = [t[2] for t in payload["pairs"]]
            k = len(q.codewords)
            if len(dists) != k * (k + 1) // 2 or payload["distance"] != min(dists):
                return "pair table incomplete or distance is not its minimum"
            d = q.codewords[r - 1] - q.codewords[s - 1]
            return witness_error(q.mult, q.p, d, payload["witness_z"], payload["witness_x"], payload["distance"])
        if q.kind == "kernel":
            lam = np.concatenate([np.eye(n, dtype=np.int64), gamma_mod(q.mult, q.p)], axis=1)
            basis = np.array(payload["basis"], dtype=np.int64).reshape(-1, 2 * n)
            if payload["lambda"] != lam.tolist():
                return "Lambda differs from [I | Gamma mod p]"
            if payload["kernel_dim"] != n or len(basis) != n:
                return f"kernel dimension {payload['kernel_dim']} != n = {n}"
            if ((lam @ basis.T) % q.p).any():
                return "a basis vector is not in the kernel"
            if rank_mod(basis, q.p) != n:
                return "basis vectors are dependent"
            return None
        raise ValueError(f"unknown query kind {q.kind!r}")

    def digest(self, res: CliResult) -> str:
        out = res.stdout
        if out.startswith("{"):
            payload = json.loads(out)
            payload.pop("elapsed_ms", None)
            out = json.dumps(payload)
        return digest((res.code, out))

    def inputs(self):
        return sorted(self.files.items()), [(q.kind, [Path(a).name for a in q.argv]) for q in self.queries]


# (count, kind, p, n): sizes cycle through the listed n in order.
CLI_MIX = [
    (20, "distance", 2, (5, 6, 7, 8, 9, 10)),
    (20, "distance-json", 3, (4, 5, 6, 7)),
    (16, "code-distance", 2, (6, 7, 8)),
    (14, "kernel", 2, (4, 6, 8)),
    (2, "verify", 2, (5,)),
    (16, "verify", 2, (6,)),  # the oracle takes ~4 s at n = 8; these 16 set p90
]
CLI_ERRORS = 4  # queries per documented error path


def cli_small(rng: random.Random, workdir: Path, src: Path) -> CliWorkload:
    files: dict[str, str] = {}
    queries: list[CliQuery] = []

    def put(text: str) -> str:
        path = workdir / f"in{len(files):03d}.txt"
        path.write_text(text, encoding="utf-8")
        files[path.name] = text
        return str(path)

    for count, kind, p, sizes in CLI_MIX:
        for i in range(count):
            n = sizes[i % len(sizes)]
            mult = random_multigraph(rng, n, p) if p > 2 else sparse_graph(rng, n)
            gfile = put(graph_file(mult, p))
            words: tuple = ()
            if kind == "distance":
                argv = ("distance", gfile)
            elif kind == "distance-json":
                argv = ("distance", gfile, "--json")
            elif kind == "code-distance":
                words = tuple(codewords(rng, n, p, 3 + i % 3, repeat=False))
                cfile = put("".join(" ".join(map(str, w)) + "\n" for w in words))
                argv = ("code-distance", gfile, cfile, "--json")
            elif kind == "kernel":
                argv = ("kernel", gfile, "--json")
            else:
                argv = ("verify", gfile)
            queries.append(CliQuery(kind, argv, 0, p, mult, words))
    for i in range(CLI_ERRORS):
        n = 4 + i
        bad = graph_file(sparse_graph(rng, n), 2) + f"e 1 {n + 1 + rng.randrange(5)}\n"
        queries.append(CliQuery("parse-error", ("distance", put(bad)), 2))
        big = put(graph_file(dense_graph(rng, 25 + i), 2))
        queries.append(CliQuery("over-budget", ("distance", big, "--json"), 3))
        # ROADMAP item 2: a multiplicity of 2**63 or more is documented as a
        # parse error (exit 2); today it escapes as an OverflowError (exit 1).
        huge = put(f"n 3\ne 1 2 {2**63 + rng.randrange(10**6)}\ne 2 3\n")
        queries.append(CliQuery("oversized-token", ("distance", huge), 2))
    return CliWorkload(interleaved(rng, queries), files, dict(os.environ, PYTHONPATH=str(src)))


def make(name: str, seed: int, workdir: Path | None = None):
    """The workload `name` with inputs drawn from `seed`.

    cli-small writes its input files into workdir.
    """
    rng = random.Random(f"{name}/{seed}")
    if name == "diag-gf2":
        return diag_gf2(rng)
    if name == "diag-oddp":
        return diag_oddp(rng)
    if name == "code-pairs":
        return code_pairs(rng)
    if name == "cli-small":
        if workdir is None:
            raise ValueError("cli-small needs a directory for its input files")
        return cli_small(rng, workdir, Path(diagdist.__file__).resolve().parent.parent)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
