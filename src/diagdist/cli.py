"""Command line front end.

Subcommands:

    distance       minimum kernel weight of a graph (its diagonal distance)
    code-distance  distance of a code given a graph file and a codeword file;
                   the witness for pair (r, s) carries codeword C_s to C_r
    kernel         print Lambda = [I | Gamma] and a deterministic kernel basis (n <= 256)
    verify         cross-check the kernel search against the brute force
    gen            write a generated graph file to stdout

The prime is resolved as: --p flag, else the file's p header, else 2.

Exit codes: 0 success, 1 usage error, 2 parse/validation error, 3 search
budget exceeded, 4 verify mismatch.

JSON payloads have a fixed key order and are byte-identical across runs on
identical inputs, except for the elapsed_ms field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .distance import (
    SearchConfig,
    SearchTooLarge,
    SymplecticVector,
    build_lambda,
    code_distance,
    diagonal_distance,
)
from .gfp import PrimeField, kernel_basis
from .graphs import (
    FAMILIES,
    Multigraph,
    ParseError,
    adjacency_matrix,
    generate,
    isolated_vertices,
    parse_codewords,
    parse_graph,
    serialize,
    vanishing_edges,
)
from .oracle import brute_force_distance

KERNEL_MAX_N = 256  # kernel prints all 2n**2 entries of Lambda and the basis: 2.3 MiB of JSON at n = 256


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _prime_flag(text: str) -> int:
    """An argparse type: an integer that PrimeField accepts; either failure is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    try:
        return PrimeField(value).p
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="diagdist", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, search=True):
        sp.add_argument(
            "--p", type=_prime_flag, default=None, help="prime modulus (overrides the file header; default 2)"
        )
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--quiet", action="store_true", help="suppress warnings on stderr")
        if search:
            sp.add_argument("--force", action="store_true", help="lift the search's caps and budgets")

    sp = sub.add_parser("distance", help="diagonal distance of a graph")
    sp.add_argument("graph_file")
    common(sp)
    sp.set_defaults(func=_cmd_distance)

    sp = sub.add_parser("code-distance", help="distance of a code over a graph")
    sp.add_argument("graph_file")
    sp.add_argument("codes_file")
    common(sp)
    sp.set_defaults(func=_cmd_code_distance)

    sp = sub.add_parser("kernel", help="print Lambda and a kernel basis")
    sp.add_argument("graph_file")
    common(sp, search=False)
    sp.set_defaults(func=_cmd_kernel)

    sp = sub.add_parser("verify", help="kernel search vs brute force on one graph")
    sp.add_argument("graph_file")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("gen", help="write a generated graph file to stdout")
    sp.add_argument("family", choices=FAMILIES)
    sp.add_argument("n", type=int)
    common(sp, search=False)
    sp.set_defaults(func=_cmd_gen)

    return parser


def _load_graph(args) -> tuple[Multigraph, PrimeField]:
    g, declared = parse_graph(Path(args.graph_file).read_text(encoding="utf-8"))
    p = args.p if args.p is not None else (declared if declared is not None else 2)
    return g, PrimeField(p)


def _graph_fields(g: Multigraph, f: PrimeField, fields: dict) -> dict:
    """p, n, a graph command's own JSON fields, then warnings: built after its work, never on a refusal."""
    warnings = [f"edge ({u}, {v}) multiplicity {m} vanishes mod {f.p}" for u, v, m in vanishing_edges(g, f)]
    for v in isolated_vertices(g, f):
        warnings.append(f"vertex {v} is isolated mod {f.p} (its X operation is the identity map)")
    return {"p": f.p, "n": g.n, **fields, "warnings": warnings}


def _word_str(k: SymplecticVector) -> str:
    parts = []
    for i in range(1, k.n + 1):
        z, x = k.z[i - 1], k.x[i - 1]
        if z:
            parts.append(f"Z{i}" + (f"^{z}" if z > 1 else ""))
        if x:
            parts.append(f"X{i}" + (f"^{x}" if x > 1 else ""))
    return " ".join(parts) if parts else "(identity)"


def _vec_str(k) -> str:
    """A flat (z | x) sequence as "[z_1 .. z_n | x_1 .. x_n]"."""
    n = len(k) // 2
    return "[" + " ".join(map(str, k[:n])) + " | " + " ".join(map(str, k[n:])) + "]"


def _witness(k: SymplecticVector, prefix: str = "witness") -> dict:
    return {f"{prefix}_z": list(k.z), f"{prefix}_x": list(k.x)}


# Each _cmd_* returns (JSON fields in order, text lines, exit code); main
# puts "command" in front of the fields and "elapsed_ms" after them.


def _cmd_distance(args):
    g, f = _load_graph(args)
    rep = diagonal_distance(g, f, SearchConfig(force=args.force))
    fields = _graph_fields(
        g, f, {"distance": rep.distance, **_witness(rep.witness), "vectors_examined": rep.vectors_examined}
    )
    lines = [
        f"p = {f.p}, n = {g.n}",
        f"distance = {rep.distance}",
        f"witness k = {_vec_str(rep.witness.entries)}",
        f"witness word = {_word_str(rep.witness)}",
        f"vectors examined = {rep.vectors_examined}",
    ]
    return fields, lines, 0


def _cmd_code_distance(args):
    g, f = _load_graph(args)
    codes = parse_codewords(Path(args.codes_file).read_text(encoding="utf-8"), g.n, f)
    if not codes:
        raise ParseError("codeword file contains no codewords")
    res = code_distance(g, f, codes, SearchConfig(force=args.force))
    best = res.table[res.pair].witness
    pairs = [[r, s, rep.distance] for (r, s), rep in res.table.items()]
    fields = _graph_fields(g, f, {"distance": res.delta, "pair": list(res.pair), **_witness(best), "pairs": pairs})
    lines = [f"p = {f.p}, n = {g.n}, codewords = {len(codes)}", "pair table (r, s, distance):"]
    lines += [f"  {r} {s} {d}" for r, s, d in pairs]
    lines += [
        f"delta = {res.delta} at pair ({res.pair[0]}, {res.pair[1]})",
        f"witness k = {_vec_str(best.entries)}",
        f"witness word = {_word_str(best)}",
    ]
    return fields, lines, 0


def _cmd_kernel(args):
    g, f = _load_graph(args)
    if g.n > KERNEL_MAX_N:
        raise SearchTooLarge(f"kernel prints 2n**2 entries; n = {g.n} exceeds {KERNEL_MAX_N} vertices")
    lam = build_lambda(adjacency_matrix(g, f))
    basis = [b.tolist() for b in kernel_basis(lam, f)]
    rows = lam.tolist()
    fields = _graph_fields(g, f, {"kernel_dim": len(basis), "lambda": rows, "basis": basis})
    lines = [f"p = {f.p}, n = {g.n}", f"Lambda = [I | Gamma] ({g.n} x {2 * g.n}):"]
    lines += ["  " + _vec_str(row) for row in rows]
    lines += [f"kernel dimension = {len(basis)}", "basis (z | x):"]
    lines += ["  " + _vec_str(b) for b in basis]
    return fields, lines, 0


def _cmd_verify(args):
    g, f = _load_graph(args)
    fast = diagonal_distance(g, f, SearchConfig(force=args.force))
    # --force lifts the oracle's 2**20-word cap as well; its memory stays bounded
    # by the oracle's block of 2**12 words, however many words it walks
    cap_args = {"hard_cap": f.p ** (2 * g.n)} if args.force else {}
    slow = brute_force_distance(g, f, **cap_args)
    match = fast.distance == slow.distance
    fields = _graph_fields(g, f, {
        "match": match, "distance": fast.distance, **_witness(fast.witness),
        "oracle_distance": slow.distance, **_witness(slow.witness, "oracle_witness"),
    })
    lines = [
        f"p = {f.p}, n = {g.n}",
        f"kernel search: distance = {fast.distance}, witness = {_word_str(fast.witness)}",
        f"brute force:   distance = {slow.distance}, witness = {_word_str(slow.witness)}",
        f"MATCH ({fast.distance} = {slow.distance})" if match else f"MISMATCH ({fast.distance} != {slow.distance})",
    ]
    return fields, lines, 0 if match else 4


def _cmd_gen(args):
    try:
        g = generate(args.family, args.n)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    text = serialize(g, args.p)
    fields = {"p": args.p, "family": args.family, "n": g.n, "file": text, "warnings": []}
    return fields, [text.rstrip("\n")], 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    t0 = time.perf_counter()
    try:
        fields, lines, code = args.func(args)
    except (_UsageError, SearchTooLarge, ValueError, OSError) as exc:  # ParseError is a ValueError
        # the library's refusals advise setting SearchConfig's field; the command line names its flag
        print(f"diagdist: error: {str(exc).replace('; set force', '; pass --force')}", file=sys.stderr)
        return 1 if isinstance(exc, _UsageError) else 3 if isinstance(exc, SearchTooLarge) else 2
    payload = {"command": args.command, **fields, "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3)}
    if not args.quiet:
        for w in fields["warnings"]:
            print(f"warning: {w}", file=sys.stderr)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
