import json

import pytest

from diagdist import generate, parse_graph, serialize
from diagdist.cli import main

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


def test_parse_error_exit_code_and_message(capsys, tmp_path):
    path = tmp_path / "bad.eg"
    path.write_text("n 3\ne 1 7\n")
    code, out, err = run(capsys, "distance", str(path))
    assert code == 2
    assert "line 2" in err


def test_missing_file_exit_code(capsys):
    assert run(capsys, "distance", "no-such-file.eg")[0] == 2


def test_budget_exit_code_and_force(capsys, tmp_path):
    path = tmp_path / "e30.eg"
    path.write_text(serialize(generate("edgeless", 30)))
    code, _, err = run(capsys, "distance", str(path))
    assert code == 3
    # the early exit makes the forced search on the edgeless graph instant
    code, payload, _ = run_json(capsys, "distance", str(path), "--force")
    assert code == 0
    assert payload["distance"] == 1
    code, _, err = run(capsys, "distance", str(path), "--max-n", "8")
    assert code == 3


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
