import dataclasses
import random

import numpy as np
import pytest

from diagdist import (
    Multigraph,
    ParseError,
    PrimeField,
    adjacency_matrix,
    generate,
    isolated_vertices,
    parse_codewords,
    parse_graph,
    serialize,
    vanishing_edges,
)
from diagdist.graphs import FAMILIES
from helpers import CYCLE5_LAMBDA, permuted, random_multigraph

F2 = PrimeField(2)
F3 = PrimeField(3)

CYCLE5_TEXT = "n 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1"


def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph(0, np.zeros((0, 0)))
    with pytest.raises(ValueError):
        Multigraph(2, np.array([[0, 1], [2, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        Multigraph(2, np.array([[1, 0], [0, 0]]))  # self-loop
    with pytest.raises(ValueError):
        Multigraph(2, np.array([[0, -1], [-1, 0]]))  # negative
    with pytest.raises(ValueError):
        Multigraph(3, np.zeros((2, 2)))  # wrong shape


@pytest.mark.parametrize("n", [5.0, "5", None])
def test_a_vertex_count_that_is_not_an_integer_is_refused(n):
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        Multigraph(n, np.zeros((5, 5), dtype=np.int64))
    g = Multigraph(np.int16(5), np.zeros((5, 5), dtype=np.int64))
    assert type(g.n) is int and g == generate("edgeless", 5)


def test_multigraph_is_read_only():
    g = generate("cycle", 4)
    with pytest.raises(ValueError):
        g.mult[0, 1] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 7  # a larger n would index past mult
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.mult = np.full((4, 4), 3)  # a diagonal that the constructor refuses
    assert g == generate("cycle", 4)


def test_a_multigraph_equals_only_a_multigraph():
    g = generate("cycle", 3)
    assert g.__eq__(3) is NotImplemented
    assert g != 3 and not g == 3
    assert g == Multigraph(3, g.mult) and g != generate("path", 3)


def test_adjacency_of_cycle5_matches_known_lambda_block():
    gamma = adjacency_matrix(generate("cycle", 5), F2)
    expected = np.array(CYCLE5_LAMBDA)[:, 5:]
    assert np.array_equal(gamma, expected)


def test_adjacency_edgeless_is_zero():
    assert not adjacency_matrix(generate("edgeless", 3), F2).any()


def test_double_edge_vanishes_mod_2():
    g = Multigraph(2, np.array([[0, 2], [2, 0]]))
    assert not adjacency_matrix(g, F2).any()
    assert adjacency_matrix(g, F3)[0, 1] == 2


def test_adjacency_symmetric_zero_diagonal_on_randoms():
    rng = random.Random(5)
    for _ in range(30):
        g = random_multigraph(rng, rng.randint(1, 7), max_mult=3)
        for f in (F2, F3):
            gamma = adjacency_matrix(g, f)
            assert np.array_equal(gamma, gamma.T)
            assert not np.diag(gamma).any()
            assert gamma.max(initial=0) < f.p


def test_generate_families():
    c5 = generate("cycle", 5)
    assert c5.edges() == [(1, 2, 1), (1, 5, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)]
    k3 = generate("complete", 3)
    assert k3.edges() == [(1, 2, 1), (1, 3, 1), (2, 3, 1)]
    assert generate("edgeless", 4).edges() == []
    assert generate("path", 3).edges() == [(1, 2, 1), (2, 3, 1)]
    assert generate("edgeless", 1).n == 1


def test_generate_rejects_bad_input():
    with pytest.raises(ValueError):
        generate("cycle", 2)
    with pytest.raises(ValueError):
        generate("petersen", 10)
    with pytest.raises(ValueError):
        generate("path", 0)


def test_generate_reads_n_as_multigraph_does():
    with pytest.raises(ValueError, match="vertex count must be an integer"):
        generate("cycle", 5.0)
    assert generate("cycle", np.int8(5)) == generate("cycle", 5)


def test_parse_cycle5():
    g, p = parse_graph(CYCLE5_TEXT)
    assert p is None
    assert g == generate("cycle", 5)


def test_parse_single_vertex():
    g, _ = parse_graph("n 1")
    assert g.n == 1
    assert g.edges() == []


def test_parse_multiplicity_and_accumulation():
    g, _ = parse_graph("n 2\ne 1 2 3")
    assert g.mult[0, 1] == 3
    g, _ = parse_graph("n 2\ne 1 2\ne 2 1 2")
    assert g.mult[0, 1] == 3


def test_parse_p_header_and_comments():
    g, p = parse_graph("# a triangle\np 3\n\nn 3\ne 1 2\ne 2 3\ne 3 1\n")
    assert p == 3
    assert g == generate("cycle", 3)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("n 5\ne 1 9", 2),          # vertex out of range
        ("n 3\ne 2 2", 2),          # self-loop
        ("n 2\ne 1 2 x", 2),        # non-integer multiplicity
        ("n 2\nq 1 2", 2),          # unknown directive
        ("p 4\nn 2", 1),            # composite p
        ("n 2\nn 3", 2),            # duplicate n
        ("e 1 2\nn 2", 1),          # edge before n
        ("n 2\ne 1 2\np 2", 3),     # p after edges
        ("n 2\ne 1 2 -1", 2),       # negative multiplicity
        ("n 2\ne 1", 2),            # too few fields
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert exc.value.lineno == lineno
    assert f"line {lineno}" in str(exc.value)


def test_parse_missing_n_line():
    with pytest.raises(ParseError):
        parse_graph("# nothing here\n")


def test_serialize_round_trip_on_randoms():
    rng = random.Random(11)
    for _ in range(25):
        g = random_multigraph(rng, rng.randint(1, 8), max_mult=4)
        p = rng.choice([None, 2, 3, 5])
        text = serialize(g, p)
        g2, p2 = parse_graph(text)
        assert g2 == g
        assert p2 == p


@pytest.mark.parametrize("p", [2.0, 4, "2"])
def test_serialize_refuses_a_header_that_parse_graph_refuses(p):
    with pytest.raises(ValueError):
        serialize(generate("cycle", 3), p)


def test_serialize_writes_a_numpy_prime_as_an_int():
    text = serialize(generate("cycle", 3), np.int64(3))
    assert text.startswith("p 3\n") and parse_graph(text) == (generate("cycle", 3), 3)


def test_serialize_emits_header_and_sorted_edges():
    g, _ = parse_graph("n 3\ne 2 3\ne 1 3 2")
    assert serialize(g, 2) == "p 2\nn 3\ne 1 3 2\ne 2 3 1\n"


def test_parse_codewords():
    f = PrimeField(2)
    words = parse_codewords("0 0 0 0 0\n1 1 1 1 1\n", 5, f)
    assert [w.tolist() for w in words] == [[0] * 5, [1] * 5]
    words = parse_codewords("0 1 2", 3, F3)
    assert words[0].tolist() == [0, 1, 2]
    words = parse_codewords("# c\n0 0\n3 4\n", 2, F3)
    assert [w.tolist() for w in words] == [[0, 0], [0, 1]]


def test_parse_codewords_errors():
    with pytest.raises(ParseError) as exc:
        parse_codewords("0 1\n0 1 1\n", 2, F2)
    assert exc.value.lineno == 2
    with pytest.raises(ParseError):
        parse_codewords("0 a\n", 2, F2)


@pytest.mark.parametrize("text", ["0 1 2\n", ""])
@pytest.mark.parametrize("n", [3.0, float("nan"), "x"])
def test_parse_codewords_reads_n_as_generate_does(text, n):
    """3.0 matched a line of 3 values, and no line was checked against NaN or "x"; generate refuses all three."""
    with pytest.raises(ValueError, match="^vertex count must be an integer, got "):
        parse_codewords(text, n, F3)


def test_relabelling_conjugates_adjacency():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = random_multigraph(rng, n, max_mult=2)
        order = list(range(n))
        rng.shuffle(order)
        h = permuted(g, order)
        pm = np.zeros((n, n), dtype=np.int64)
        for new, old in enumerate(order):
            pm[new, old] = 1
        for f in (F2, F3):
            assert np.array_equal(adjacency_matrix(h, f), pm @ adjacency_matrix(g, f) @ pm.T)


def test_isolated_vertices_and_vanishing_edges():
    g, _ = parse_graph("n 3\ne 1 2 2\ne 2 3")
    assert isolated_vertices(g, F2) == [1]  # the doubled edge vanishes mod 2
    assert vanishing_edges(g, F2) == [(1, 2, 2)]
    assert isolated_vertices(g, F3) == []
    assert vanishing_edges(g, F3) == []
    e = generate("edgeless", 3)
    assert isolated_vertices(e, F2) == [1, 2, 3]


def test_parse_codewords_reduces_oversized_tokens():
    words = parse_codewords(f"1 0 99999999999999999999\n{-2**70} {3**50} 0\n", 3, F3)
    assert [w.tolist() for w in words] == [[1, 0, 0], [(-2**70) % 3, 0, 0]]


def test_parse_graph_rejects_multiplicities_past_int64():
    with pytest.raises(ParseError) as exc:
        parse_graph(f"n 2\ne 1 2 {2**63}\n")
    assert exc.value.lineno == 2
    with pytest.raises(ParseError) as exc:
        parse_graph(f"n 2\ne 1 2 {2**62}\ne 2 1 {2**62}\n")
    assert exc.value.lineno == 3
    g, _ = parse_graph(f"n 2\ne 1 2 {2**62}\ne 2 1 {2**62 - 1}\n")
    assert g.mult[0, 1] == 2**63 - 1


def test_parse_graph_and_generate_reject_more_than_4096_vertices():
    with pytest.raises(ParseError) as exc:
        parse_graph("# too many\nn 4097\ne 1 2\n")
    assert exc.value.lineno == 2
    for family in FAMILIES:
        with pytest.raises(ValueError, match="4096"):
            generate(family, 4097)


def test_parse_graph_bounds_the_p_header():
    assert parse_graph("p 16777213\nn 2\n")[1] == 16777213
    for header in ("p 16777259", "p 2305843009213693951", "p 16777215"):
        with pytest.raises(ParseError) as exc:
            parse_graph(header + "\nn 2\n")
        assert exc.value.lineno == 1


def _loop_edges(g):
    """The pairwise loop that edges() replaced, kept as its reference."""
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            m = int(g.mult[u, v])
            if m:
                out.append((u + 1, v + 1, m))
    return out


def _loop_isolated(g, f):
    gamma = adjacency_matrix(g, f)
    return [j + 1 for j in range(g.n) if not gamma[:, j].any()]


def _loop_generate(family, n):
    mult = np.zeros((n, n), dtype=np.int64)
    if family == "cycle":
        for i in range(n):
            j = (i + 1) % n
            mult[i, j] = mult[j, i] = 1
    elif family == "path":
        for i in range(n - 1):
            mult[i, i + 1] = mult[i + 1, i] = 1
    elif family == "complete":
        mult[:] = 1
        np.fill_diagonal(mult, 0)
    return mult


def _check_against_loops(g, f):
    edges = g.edges()
    assert edges == _loop_edges(g)
    assert all(type(t) is int for e in edges for t in e)
    isolated = isolated_vertices(g, f)
    assert isolated == _loop_isolated(g, f)
    assert all(type(j) is int for j in isolated)
    vanishing = vanishing_edges(g, f)
    assert vanishing == [(u, v, m) for u, v, m in _loop_edges(g) if m % f.p == 0]
    return len(isolated), len(vanishing)


def test_graph_layer_matches_the_pairwise_loops():
    rng = random.Random(21)
    isolated = vanishing = 0
    for n in range(1, 41):
        for p in (2, 3, 5):
            mult = random_multigraph(rng, n, max_mult=2 * p - 1).mult.copy()
            if rng.random() < 0.5:  # make one column vanish mod p
                j = rng.randrange(n)
                mult[j] = mult[:, j] = [p * rng.randint(0, 1) for _ in range(n)]
                mult[j, j] = 0
            i, v = _check_against_loops(Multigraph(n, mult), PrimeField(p))
            isolated, vanishing = isolated + i, vanishing + v
    assert isolated > 0 and vanishing > 0
    mult = random_multigraph(rng, 6, max_mult=3).mult.copy()
    mult[1, 4] = mult[4, 1] = 2**63 - 1
    g = Multigraph(6, mult)
    for p in (2, 3, 5):
        _check_against_loops(g, PrimeField(p))
    assert (2, 5, 2**63 - 1) in g.edges()


def test_generate_matches_the_loops():
    chain = [(i, i + 1, 1) for i in range(1, 4096)]
    large_edges = {"path": chain, "cycle": [chain[0], (1, 4096, 1)] + chain[1:], "edgeless": []}
    for n in (1, 3, 4, 7, 4096):
        for family in FAMILIES:
            if family == "cycle" and n < 3:
                continue
            g = generate(family, n)
            assert np.array_equal(g.mult, _loop_generate(family, n)), (family, n)
            if n < 4096:
                for f in (F2, F3):
                    _check_against_loops(g, f)
                continue
            if family in large_edges:  # complete's 8386560 edges are left to small n
                edges = g.edges()
                assert edges == large_edges[family], family
                if family == "path":
                    assert len(edges) == 4095
            want = list(range(1, 4097)) if family == "edgeless" else []
            assert isolated_vertices(g, F3) == want, family


def test_symmetry_check_finds_one_asymmetric_entry_in_any_tile():
    """The tiled check rejects what np.array_equal(m, m.T) rejects, on and across tile edges."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 63, 64, 65, 129, 200):
        mult = rng.integers(0, 3, (n, n))
        mult = np.triu(mult, 1) + np.triu(mult, 1).T
        g = Multigraph(n, mult)
        assert np.array_equal(g.mult, mult)
        assert g.mult is not mult and not g.mult.flags.writeable  # still a defensive copy
        spots = [(0, n - 1), (n - 1, 0)] + [tuple(rng.integers(0, n, 2)) for _ in range(12)]
        spots += [(i, j) for i, j in ((63, 64), (64, 63), (0, 64), (127, 128), (64, 199)) if max(i, j) < n]
        for u, v in spots:
            if u == v:
                continue
            bad = mult.copy()
            bad[u, v] += 1
            with pytest.raises(ValueError, match="^multiplicity matrix must be symmetric$"):
                Multigraph(n, bad)


INEXACT_MULTIPLICITIES = [
    ("float 2.9", [[0, 2.9], [2.9, 0]]),  # a cast reads 2: distance 2 at p = 3
    ("uint64 2**64 - 1", np.array([[0, 2**64 - 1], [2**64 - 1, 0]], dtype=np.uint64)),  # a cast reads -1
    ("Python int 2**64", [[0, 2**64], [2**64, 0]]),  # a cast raises OverflowError
    ("complex", [[0, 1 + 0j], [1 + 0j, 0]]),  # a cast raises TypeError
]


@pytest.mark.parametrize("name, mult", INEXACT_MULTIPLICITIES, ids=[name for name, _ in INEXACT_MULTIPLICITIES])
def test_multiplicities_int64_does_not_hold_exactly_are_refused(name, mult):
    with pytest.raises(ValueError, match="^edge multiplicities must be integers that int64 holds exactly$"):
        Multigraph(2, mult)


def test_integral_float_multiplicities_are_read_exactly():
    g = Multigraph(3, np.array([[0, 2.0, 0], [2.0, 0, 1], [0, 1, 0]]))
    assert g.mult.dtype == np.int64 and g.mult.tolist() == [[0, 2, 0], [2, 0, 1], [0, 1, 0]]
    assert Multigraph(3, np.zeros((3, 3))) == generate("edgeless", 3)
    mult = np.array([[0, 3], [3, 0]])
    Multigraph(2, mult)
    assert mult.flags.writeable  # the caller's array is copied, not frozen
