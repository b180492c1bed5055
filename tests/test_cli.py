import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import diagdist
from diagdist import generate, parse_graph, serialize
from diagdist.cli import main
from diagdist import distance as D
from diagdist.distance import MAX_CODEWORDS

CYCLE5 = serialize(generate("cycle", 5))


@pytest.fixture
def cycle5_file(tmp_path):
    path = tmp_path / "cycle5.eg"
    path.write_text(CYCLE5)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_gen_cycle_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    g, p = parse_graph(out)
    assert p is None
    assert g == generate("cycle", 5)


def test_gen_complete_and_edgeless(capsys):
    code, out, _ = run(capsys, "gen", "complete", "4")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("e ")) == 6
    code, out, _ = run(capsys, "gen", "edgeless", "3")
    assert code == 0
    assert out.splitlines()[0] == "n 3"
    assert not any(l.startswith("e ") for l in out.splitlines())


def test_gen_embeds_p_header(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "3", "--p", "3")
    assert code == 0
    _, p = parse_graph(out)
    assert p == 3


def test_gen_usage_errors(capsys):
    assert run(capsys, "gen", "cycle", "2")[0] == 1
    assert run(capsys, "gen", "moebius", "5")[0] == 1


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_distance_text(capsys, cycle5_file):
    code, out, err = run(capsys, "distance", cycle5_file)
    assert code == 0
    assert "distance = 3" in out
    assert "vectors examined = 31" in out
    assert err == ""


def test_distance_json(capsys, cycle5_file):
    code, payload, _ = run_json(capsys, "distance", cycle5_file)
    assert code == 0
    assert payload["command"] == "distance"
    assert payload["p"] == 2
    assert payload["n"] == 5
    assert payload["distance"] == 3
    assert len(payload["witness_z"]) == 5
    assert len(payload["witness_x"]) == 5
    assert payload["vectors_examined"] == 31
    assert payload["warnings"] == []
    assert isinstance(payload["elapsed_ms"], float)
    assert list(payload)[-2:] == ["warnings", "elapsed_ms"]


def test_distance_k3_json(capsys, tmp_path):
    path = tmp_path / "k3.eg"
    path.write_text(serialize(generate("complete", 3)))
    code, payload, _ = run_json(capsys, "distance", str(path))
    assert code == 0
    assert payload["distance"] == 2


def test_distance_single_vertex_warns(capsys, tmp_path):
    path = tmp_path / "single.eg"
    path.write_text("n 1\n")
    code, out, err = run(capsys, "distance", str(path))
    assert code == 0
    assert "distance = 1" in out
    assert "isolated" in err
    code, out, err = run(capsys, "distance", str(path), "--quiet")
    assert code == 0
    assert err == ""


def test_p_resolution_header_then_flag(capsys, tmp_path):
    path = tmp_path / "tri3.eg"
    path.write_text("p 3\n" + serialize(generate("cycle", 3)))
    code, payload, _ = run_json(capsys, "distance", str(path))
    assert payload["p"] == 3
    code, payload, _ = run_json(capsys, "distance", str(path), "--p", "5")
    assert payload["p"] == 5  # flag wins over header


def test_non_prime_flag_is_usage_error(capsys, cycle5_file):
    assert run(capsys, "distance", cycle5_file, "--p", "4")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [("gen", "cycle", "\u0665"), ("gen", "cycle", "1_0"), ("gen", "cycle", "5", "--p", "\uff13"),
     ("gen", "cycle", "5", "--p", "1_1")],
)
def test_an_integer_argument_is_ascii_digits(capsys, argv):
    """int() read them as the 5-cycle, the 10-cycle, p = 3 and p = 11."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].endswith(f"{argv[-1]!r} is not an integer")


def test_a_file_integer_is_ascii_digits(capsys, tmp_path, cycle5_file):
    graph, codes = tmp_path / "g.eg", tmp_path / "codes.txt"
    graph.write_text("n 3\ne 1 2 1_0\n", encoding="utf-8")
    code, _, err = run(capsys, "distance", str(graph))
    assert (code, err) == (2, "diagdist: error: line 2: edge line: '1_0' is not an integer\n")
    codes.write_text("0 0 0 0 0\n1_0 0 0 0 \u0661\n", encoding="utf-8")
    code, _, err = run(capsys, "code-distance", cycle5_file, str(codes))
    assert (code, err) == (2, "diagdist: error: line 2: non-integer token in codeword\n")


def test_a_byte_order_mark_is_skipped(capsys, tmp_path):
    """A file saved with a UTF-8 BOM, as Windows Notepad writes it, reads as the same file without one."""
    outputs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        graph, codes = tmp_path / f"g{len(bom)}.eg", tmp_path / f"codes{len(bom)}.txt"
        graph.write_bytes(bom + CYCLE5.encode())
        codes.write_bytes(bom + b"0 0 0 0 0\n1 0 0 0 0\n")
        outputs.append([run(capsys, "distance", str(graph)), run(capsys, "code-distance", str(graph), str(codes))])
    assert outputs[0] == outputs[1]
    assert [code for code, _, _ in outputs[1]] == [0, 0]


def test_parse_error_exit_code_and_message(capsys, tmp_path):
    path = tmp_path / "bad.eg"
    path.write_text("n 3\ne 1 7\n")
    code, out, err = run(capsys, "distance", str(path))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    assert run(capsys, "distance", "no-such-file.eg")[0] == 2


def test_budget_exit_code_and_force(capsys, tmp_path):
    """The vertex cap, the candidate budget and the oracle's cap refuse with exit 3, and their advice names the flag."""
    path = tmp_path / "edgeless.eg"
    for n, p, refusal in (
        (30, "2", "n = 30 exceeds the vertex cap 24 for p = 2"),
        (11, "5", "p**n = 48828125 exceeds the candidate budget 16777216"),
    ):
        path.write_text(serialize(generate("edgeless", n)))
        code, out, err = run(capsys, "distance", str(path), "--p", p)
        assert (code, out, err) == (3, "", f"diagdist: error: {refusal}; pass --force\n")
        # the early exit makes the forced search on the edgeless graph instant
        code, payload, _ = run_json(capsys, "distance", str(path), "--p", p, "--force")
        assert (code, payload["distance"]) == (0, 1)
    path.write_text(serialize(generate("cycle", 11)))  # within the search's caps, past the oracle's
    code, out, err = run(capsys, "verify", str(path))
    refusal = "oracle would enumerate p**(2n) = 4194304 words, cap is 1048576"
    assert (code, out, err) == (3, "", f"diagdist: error: {refusal}; pass --force\n")
    code, out, err = run(capsys, "verify", str(path), "--force")
    assert (code, out.splitlines()[-1], err) == (0, "MATCH (3 = 3)", "")


def test_a_code_past_the_codeword_cap_exits_3(capsys, tmp_path, cycle5_file):
    codes = tmp_path / "many.cw"
    codes.write_text("0 0 0 0 0\n" * (MAX_CODEWORDS + 1))
    code, out, err = run(capsys, "code-distance", cycle5_file, str(codes))
    assert (code, out) == (3, "")
    assert err == f"diagdist: error: {MAX_CODEWORDS + 1} codewords exceed the cap of {MAX_CODEWORDS}; pass --force\n"


def test_a_code_past_the_work_budget_exits_3(capsys, monkeypatch, tmp_path, cycle5_file):
    """Four distinct differences whose walks may weigh 100 candidates, past a budget of 99: exit 3, one line."""
    codes = tmp_path / "three.cw"
    codes.write_text("0 0 0 0 0\n1 1 0 0 0\n0 0 1 1 1\n")
    monkeypatch.setattr(D, "CODE_BUDGET", 99)
    code, out, err = run(capsys, "code-distance", cycle5_file, str(codes))
    assert (code, out) == (3, "")
    refusal = "4 distinct differences may weigh 100 candidates, past the code budget 99; pass --force"
    assert err == f"diagdist: error: {refusal}\n"
    code, out, err = run(capsys, "code-distance", cycle5_file, str(codes), "--force")
    assert code == 0 and err == "" and "pair table" in out


def test_kernel_k2(capsys, tmp_path):
    path = tmp_path / "k2.eg"
    path.write_text(serialize(generate("complete", 2)))
    code, payload, _ = run_json(capsys, "kernel", str(path))
    assert code == 0
    assert payload["kernel_dim"] == 2
    assert payload["lambda"] == [[1, 0, 0, 1], [0, 1, 1, 0]]
    assert payload["basis"] == [[0, 1, 1, 0], [1, 0, 0, 1]]


def test_kernel_edgeless(capsys, tmp_path):
    path = tmp_path / "e2.eg"
    path.write_text("n 2\n")
    code, payload, _ = run_json(capsys, "kernel", str(path))
    assert payload["basis"] == [[0, 0, 1, 0], [0, 0, 0, 1]]


def test_kernel_cycle5_text(capsys, cycle5_file):
    code, out, _ = run(capsys, "kernel", cycle5_file)
    assert code == 0
    assert "kernel dimension = 5" in out
    assert "[0 1 0 0 1 | 1 0 0 0 0]" in out


def test_code_distance(capsys, cycle5_file, tmp_path):
    codes = tmp_path / "codes.txt"
    codes.write_text("0 0 0 0 0\n1 0 0 0 0\n")
    code, payload, _ = run_json(capsys, "code-distance", cycle5_file, str(codes))
    assert code == 0
    assert payload["distance"] == 1
    assert payload["pair"] == [1, 2]
    assert payload["pairs"] == [[1, 1, 3], [1, 2, 1], [2, 2, 3]]


def test_code_distance_all_ones(capsys, cycle5_file, tmp_path):
    codes = tmp_path / "codes.txt"
    codes.write_text("0 0 0 0 0\n1 1 1 1 1\n")
    code, payload, _ = run_json(capsys, "code-distance", cycle5_file, str(codes))
    assert payload["distance"] == 3
    assert payload["pairs"] == [[1, 1, 3], [1, 2, 3], [2, 2, 3]]


def test_code_distance_arity_mismatch(capsys, cycle5_file, tmp_path):
    codes = tmp_path / "codes.txt"
    codes.write_text("0 0 0\n")
    assert run(capsys, "code-distance", cycle5_file, str(codes))[0] == 2


def test_code_distance_empty_codes(capsys, cycle5_file, tmp_path):
    codes = tmp_path / "codes.txt"
    codes.write_text("# nothing\n")
    assert run(capsys, "code-distance", cycle5_file, str(codes))[0] == 2


def test_verify_match(capsys, cycle5_file):
    code, out, _ = run(capsys, "verify", cycle5_file)
    assert code == 0
    assert "MATCH (3 = 3)" in out


def test_verify_json(capsys, tmp_path):
    path = tmp_path / "k3.eg"
    path.write_text(serialize(generate("complete", 3)))
    code, payload, _ = run_json(capsys, "verify", str(path))
    assert code == 0
    assert payload["match"] is True
    assert payload["distance"] == 2
    assert payload["oracle_distance"] == 2


def test_verify_edgeless_matches_under_formal_convention(capsys, tmp_path):
    path = tmp_path / "e2.eg"
    path.write_text("n 2\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0
    assert "MATCH (1 = 1)" in out
    assert "isolated" in err


def test_verify_oracle_cap(capsys, tmp_path):
    path = tmp_path / "c12.eg"
    path.write_text(serialize(generate("cycle", 12)))
    assert run(capsys, "verify", str(path))[0] == 3  # 2**24 words exceed the oracle cap


def test_json_deterministic_across_runs(capsys, cycle5_file, tmp_path):
    codes = tmp_path / "codes.txt"
    codes.write_text("0 0 0 0 0\n1 1 1 1 1\n")
    for argv in (
        ["distance", cycle5_file],
        ["code-distance", cycle5_file, str(codes)],
        ["kernel", cycle5_file],
        ["verify", cycle5_file],
    ):
        _, first, _ = run_json(capsys, *argv)
        _, second, _ = run_json(capsys, *argv)
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert json.dumps(first) == json.dumps(second)


def test_text_and_json_report_same_numbers(capsys, cycle5_file):
    _, out, _ = run(capsys, "distance", cycle5_file)
    _, payload, _ = run_json(capsys, "distance", cycle5_file)
    assert f"distance = {payload['distance']}" in out
    assert f"vectors examined = {payload['vectors_examined']}" in out


def test_accumulated_multiplicity_past_int64_is_parse_error(capsys, tmp_path):
    # three times 2**63 - 1 is 0 mod 3, so a wrapped sum would give a wrong distance
    path = tmp_path / "wrap.eg"
    path.write_text("p 3\nn 2\n" + "e 1 2 9223372036854775807\n" * 3)
    code, out, err = run(capsys, "distance", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "line 4" in err


def test_oversized_multiplicity_token_is_parse_error(capsys, tmp_path):
    path = tmp_path / "huge.eg"
    path.write_text(f"n 3\ne 1 2 {2**63}\ne 2 3\n")
    code, out, err = run(capsys, "distance", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "line 2" in err


def test_oversized_codeword_token_is_reduced(capsys, tmp_path):
    graph = tmp_path / "path3.eg"
    graph.write_text("n 3\ne 1 2\ne 2 3\n")
    small, huge = tmp_path / "small.txt", tmp_path / "huge.txt"
    small.write_text("1 0 1\n0 0 0\n")
    huge.write_text("1 0 99999999999999999999\n0 0 0\n")  # 10**20 - 1 is odd
    code, want, _ = run_json(capsys, "code-distance", str(graph), str(small))
    assert code == 0
    code, got, err = run_json(capsys, "code-distance", str(graph), str(huge))
    assert code == 0, err
    del got["elapsed_ms"], want["elapsed_ms"]
    assert got == want


# Exact transcripts: text stdout, stderr and JSON (key order included, elapsed_ms dropped).
Q3 = "p 3\nn 4\ne 1 2\ne 2 3 2\ne 1 3 3\n"  # edge 1-3 vanishes mod 3, vertex 4 is isolated
Q3_ERR = (
    "warning: edge (1, 3) multiplicity 3 vanishes mod 3\n"
    "warning: vertex 4 is isolated mod 3 (its X operation is the identity map)\n"
)
Q3_WARNINGS = (
    '["edge (1, 3) multiplicity 3 vanishes mod 3", '
    '"vertex 4 is isolated mod 3 (its X operation is the identity map)"]'
)
TRANSCRIPTS = [
    (
        "distance {c5}",
        "",
        "p = 2, n = 5\ndistance = 3\nwitness k = [0 1 0 0 1 | 1 0 0 0 0]\n"
        "witness word = X1 Z2 Z5\nvectors examined = 31\n",
        '{"command": "distance", "p": 2, "n": 5, "distance": 3, "witness_z": [0, 1, 0, 0, 1], '
        '"witness_x": [1, 0, 0, 0, 0], "vectors_examined": 31, "warnings": []}',
    ),
    (
        "code-distance {c5} {c5codes}",
        "",
        "p = 2, n = 5, codewords = 2\npair table (r, s, distance):\n  1 1 3\n  1 2 1\n  2 2 3\n"
        "delta = 1 at pair (1, 2)\nwitness k = [1 0 0 0 0 | 0 0 0 0 0]\nwitness word = Z1\n",
        '{"command": "code-distance", "p": 2, "n": 5, "distance": 1, "pair": [1, 2], '
        '"witness_z": [1, 0, 0, 0, 0], "witness_x": [0, 0, 0, 0, 0], '
        '"pairs": [[1, 1, 3], [1, 2, 1], [2, 2, 3]], "warnings": []}',
    ),
    (
        "kernel {c5}",
        "",
        "p = 2, n = 5\nLambda = [I | Gamma] (5 x 10):\n"
        "  [1 0 0 0 0 | 0 1 0 0 1]\n  [0 1 0 0 0 | 1 0 1 0 0]\n  [0 0 1 0 0 | 0 1 0 1 0]\n"
        "  [0 0 0 1 0 | 0 0 1 0 1]\n  [0 0 0 0 1 | 1 0 0 1 0]\nkernel dimension = 5\nbasis (z | x):\n"
        "  [0 1 0 0 1 | 1 0 0 0 0]\n  [1 0 1 0 0 | 0 1 0 0 0]\n  [0 1 0 1 0 | 0 0 1 0 0]\n"
        "  [0 0 1 0 1 | 0 0 0 1 0]\n  [1 0 0 1 0 | 0 0 0 0 1]\n",
        '{"command": "kernel", "p": 2, "n": 5, "kernel_dim": 5, "lambda": '
        "[[1, 0, 0, 0, 0, 0, 1, 0, 0, 1], [0, 1, 0, 0, 0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0, 1, 0, 1, 0], "
        '[0, 0, 0, 1, 0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1, 0, 0, 1, 0]], "basis": '
        "[[0, 1, 0, 0, 1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 1, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 1, 0, 0], "
        '[0, 0, 1, 0, 1, 0, 0, 0, 1, 0], [1, 0, 0, 1, 0, 0, 0, 0, 0, 1]], "warnings": []}',
    ),
    (
        "verify {c5}",
        "",
        "p = 2, n = 5\nkernel search: distance = 3, witness = X1 Z2 Z5\n"
        "brute force:   distance = 3, witness = Z3 X4 Z5\nMATCH (3 = 3)\n",
        '{"command": "verify", "p": 2, "n": 5, "match": true, "distance": 3, '
        '"witness_z": [0, 1, 0, 0, 1], "witness_x": [1, 0, 0, 0, 0], "oracle_distance": 3, '
        '"oracle_witness_z": [0, 0, 1, 0, 1], "oracle_witness_x": [0, 0, 0, 1, 0], "warnings": []}',
    ),
    (
        "distance {q3}",
        Q3_ERR,
        "p = 3, n = 4\ndistance = 1\nwitness k = [0 0 0 0 | 0 0 0 1]\nwitness word = X4\n"
        "vectors examined = 27\n",
        '{"command": "distance", "p": 3, "n": 4, "distance": 1, "witness_z": [0, 0, 0, 0], '
        f'"witness_x": [0, 0, 0, 1], "vectors_examined": 27, "warnings": {Q3_WARNINGS}}}',
    ),
    (
        "code-distance {q3} {q3codes}",
        Q3_ERR,
        "p = 3, n = 4, codewords = 3\npair table (r, s, distance):\n"
        "  1 1 1\n  1 2 2\n  1 3 3\n  2 2 1\n  2 3 2\n  3 3 1\n"
        "delta = 1 at pair (1, 1)\nwitness k = [0 0 0 0 | 0 0 0 1]\nwitness word = X4\n",
        '{"command": "code-distance", "p": 3, "n": 4, "distance": 1, "pair": [1, 1], '
        '"witness_z": [0, 0, 0, 0], "witness_x": [0, 0, 0, 1], "pairs": [[1, 1, 1], [1, 2, 2], '
        f'[1, 3, 3], [2, 2, 1], [2, 3, 2], [3, 3, 1]], "warnings": {Q3_WARNINGS}}}',
    ),
    (
        "kernel {q3}",
        Q3_ERR,
        "p = 3, n = 4\nLambda = [I | Gamma] (4 x 8):\n"
        "  [1 0 0 0 | 0 1 0 0]\n  [0 1 0 0 | 1 0 2 0]\n  [0 0 1 0 | 0 2 0 0]\n  [0 0 0 1 | 0 0 0 0]\n"
        "kernel dimension = 4\nbasis (z | x):\n"
        "  [0 2 0 0 | 1 0 0 0]\n  [2 0 1 0 | 0 1 0 0]\n  [0 1 0 0 | 0 0 1 0]\n  [0 0 0 0 | 0 0 0 1]\n",
        '{"command": "kernel", "p": 3, "n": 4, "kernel_dim": 4, "lambda": [[1, 0, 0, 0, 0, 1, 0, 0], '
        '[0, 1, 0, 0, 1, 0, 2, 0], [0, 0, 1, 0, 0, 2, 0, 0], [0, 0, 0, 1, 0, 0, 0, 0]], "basis": '
        "[[0, 2, 0, 0, 1, 0, 0, 0], [2, 0, 1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0, 1, 0], "
        f'[0, 0, 0, 0, 0, 0, 0, 1]], "warnings": {Q3_WARNINGS}}}',
    ),
    (
        "verify {q3}",
        Q3_ERR,
        "p = 3, n = 4\nkernel search: distance = 1, witness = X4\n"
        "brute force:   distance = 1, witness = X4\nMATCH (1 = 1)\n",
        '{"command": "verify", "p": 3, "n": 4, "match": true, "distance": 1, '
        '"witness_z": [0, 0, 0, 0], "witness_x": [0, 0, 0, 1], "oracle_distance": 1, '
        f'"oracle_witness_z": [0, 0, 0, 0], "oracle_witness_x": [0, 0, 0, 1], "warnings": {Q3_WARNINGS}}}',
    ),
    (
        "gen cycle 5",
        "",
        "n 5\ne 1 2 1\ne 1 5 1\ne 2 3 1\ne 3 4 1\ne 4 5 1\n",
        '{"command": "gen", "p": null, "family": "cycle", "n": 5, '
        '"file": "n 5\\ne 1 2 1\\ne 1 5 1\\ne 2 3 1\\ne 3 4 1\\ne 4 5 1\\n", "warnings": []}',
    ),
    (
        "gen path 3 --p 3",
        "",
        "p 3\nn 3\ne 1 2 1\ne 2 3 1\n",
        '{"command": "gen", "p": 3, "family": "path", "n": 3, '
        '"file": "p 3\\nn 3\\ne 1 2 1\\ne 2 3 1\\n", "warnings": []}',
    ),
]


def test_transcripts_are_pinned(capsys, cycle5_file, tmp_path):
    files = {"c5": cycle5_file}
    for name, text in [("c5codes", "0 0 0 0 0\n1 0 0 0 0\n"), ("q3", Q3), ("q3codes", "0 0 0 0\n1 2 0 1\n2 2 2 2\n")]:
        files[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text)
    for argv, err, text, compact in TRANSCRIPTS:
        argv = argv.format(**files).split()
        assert run(capsys, *argv) == (0, text, err), argv
        code, out, json_err = run(capsys, *argv, "--json")
        assert (code, json_err) == (0, err), argv
        payload = json.loads(out)
        assert isinstance(payload["elapsed_ms"], float)
        assert out == json.dumps(payload, indent=2) + "\n", argv
        del payload["elapsed_ms"]
        assert json.dumps(payload) == compact, argv


def test_prime_past_the_bound_fails_fast(capsys, cycle5_file, tmp_path):
    # 2**61 - 1 is prime; trial division on it used to run for minutes
    path = tmp_path / "big-p.eg"
    path.write_text("p 2305843009213693951\nn 2\ne 1 2\n")
    t0 = time.perf_counter()
    code, out, err = run(capsys, "distance", str(path))
    assert (code, out, err) == (2, "", "diagdist: error: line 1: declared p = 2305843009213693951 is not below 2**24\n")
    code, out, err = run(capsys, "distance", cycle5_file, "--p", "2305843009213693951")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "diagdist distance: error: argument --p: 2305843009213693951 is not below 2**24"
    assert run(capsys, "distance", cycle5_file, "--p", str(10**40 + 1))[0] == 1
    assert time.perf_counter() - t0 < 1.0


def test_vertex_count_past_the_limit(capsys, tmp_path):
    path = tmp_path / "huge-n.eg"
    path.write_text("p 3\nn 200000\n")
    for command in ("distance", "kernel"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", "diagdist: error: line 2: vertex count 200000 exceeds 4096\n")
    code, out, err = run(capsys, "gen", "cycle", "200000")
    assert (code, out, err) == (1, "", "diagdist: error: cycle graph with n = 200000 exceeds 4096 vertices\n")


def test_kernel_vertex_cap(capsys, tmp_path):
    path = tmp_path / "path257.eg"
    path.write_text(serialize(generate("path", 257)))
    code, out, err = run(capsys, "kernel", str(path), "--json")
    assert (code, out, err) == (3, "", "diagdist: error: kernel prints 2n**2 entries; n = 257 exceeds 256 vertices\n")
    path.write_text(serialize(generate("path", 256)))
    code, payload, _ = run_json(capsys, "kernel", str(path))
    assert (code, payload["n"], payload["kernel_dim"]) == (0, 256, 256)


def test_refusals_of_a_4096_vertex_path(capsys, tmp_path):
    path = tmp_path / "path4096.eg"
    path.write_text(serialize(generate("path", 4096)))
    cases = [
        (("kernel",), "kernel prints 2n**2 entries; n = 4096 exceeds 256 vertices"),
        (("distance",), "p**n = 2**4096 is not below 2**64, the ranks that uint64 holds"),
        (("distance", "--p", "3"), "p**n = 3**4096 is not below 2**64, the ranks that uint64 holds"),
        (("distance", "--p", "3", "--force"), "p**n = 3**4096 is not below 2**64, the ranks that uint64 holds"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out, err) == (3, "", f"diagdist: error: {message}\n"), argv


def test_warnings_are_listed_only_after_the_work(capsys, tmp_path, monkeypatch):
    from diagdist import cli

    calls = []
    for name in ("vanishing_edges", "isolated_vertices"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda g, f, real=real, name=name: calls.append(name) or real(g, f))
    path = tmp_path / "path300.eg"
    path.write_text(serialize(generate("path", 300)))
    for argv in (("kernel",), ("distance",), ("distance", "--p", "3"), ("verify",)):
        assert run(capsys, argv[0], str(path), *argv[1:])[0] == 3, argv
    assert calls == []
    path.write_text("n 2\ne 1 2 2\n")
    code, _, err = run(capsys, "distance", str(path))
    assert code == 0
    assert calls == ["vanishing_edges", "isolated_vertices"]
    assert err == (
        "warning: edge (1, 2) multiplicity 2 vanishes mod 2\n"
        "warning: vertex 1 is isolated mod 2 (its X operation is the identity map)\n"
        "warning: vertex 2 is isolated mod 2 (its X operation is the identity map)\n"
    )


def test_max_n_is_not_an_option(capsys, cycle5_file):
    """The vertex caps are constants; --force is the one way past them."""
    code, out, err = run(capsys, "distance", cycle5_file, "--max-n", "8")
    assert (code, out) == (1, "")
    assert err.endswith("diagdist: error: unrecognized arguments: --max-n 8\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_pipe_closed_early_exits_141_without_a_traceback(tmp_path, unbuffered):
    """As in `diagdist kernel c200.eg --json | head -1`: the reader leaves after one line of 1.4 MB of JSON.

    The write that meets the closed pipe, or the flush after the last one,
    raises BrokenPipeError.  main returns 141, what a shell shows for a
    tool that SIGPIPE ended, and the interpreter's last flush goes to
    os.devnull, so stderr stays empty either way.
    """
    path = tmp_path / "c200.eg"
    path.write_text(serialize(generate("cycle", 200)))
    env = dict(os.environ, PYTHONPATH=str(Path(diagdist.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "diagdist.cli", "kernel", str(path), "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")
