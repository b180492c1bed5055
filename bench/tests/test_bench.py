"""Tests of the benchmark itself: seeded inputs, failure counting, output format.

Run with `python -m pytest -q bench/tests` from the root of the repository.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from diagdist import SymplecticVector  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _inputs(name, seed, tmp_path):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir()
    return workloads.make(name, seed, workdir).inputs()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_the_inputs(name, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _inputs(name, 7, tmp_path / "a")
    assert _inputs(name, 7, tmp_path / "b") == first
    assert _inputs(name, 8, tmp_path / "a") != first


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_has_at_least_100_queries(name, tmp_path):
    assert len(workloads.make(name, 1, tmp_path).queries) >= 100


def _corrupt(rep):
    entries = list(rep.witness.entries)
    entries[-1] = (entries[-1] + 1) % 2
    return dataclasses.replace(rep, witness=SymplecticVector(tuple(entries)))


def test_corrupted_witness_counts_as_failed_and_wrong(monkeypatch):
    wl = workloads.make("diag-gf2", 1)
    tally = worker.Tally(wl)
    real = workloads.D.diagonal_distance
    calls = []

    def corrupt_second(g, f, *rest):
        calls.append(1)
        rep = real(g, f, *rest)
        return _corrupt(rep) if len(calls) == 2 else rep

    monkeypatch.setattr(workloads.D, "diagonal_distance", corrupt_second)
    worker.timed_pass(wl.run, wl.queries[:3], tally)
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 1, 1)
    assert "not a solution" in tally.reasons[0]


def test_changed_output_between_runs_counts_as_wrong():
    wl = workloads.make("diag-gf2", 1)
    tally = worker.Tally(wl)
    rep = wl.run(wl.queries[0])
    tally.record(0, rep, None)
    tally.record(0, dataclasses.replace(rep, vectors_examined=rep.vectors_examined - 1), None)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_code_distance_pair_with_corrupted_witness_is_wrong():
    wl = workloads.make("code-pairs", 1)
    res = wl.run(wl.queries[0])
    pair = next(p for p in res.table if p[0] != p[1])
    table = dict(res.table)
    table[pair] = _corrupt(table[pair])
    outcome, reason = wl.check(wl.queries[0], dataclasses.replace(res, table=table))
    assert outcome == workloads.WRONG and f"pair {pair}" in reason


def test_wrong_exit_code_counts_as_failed_not_wrong(tmp_path):
    wl = workloads.make("cli-small", 1, tmp_path)
    tally = worker.Tally(wl)
    qid = next(i for i, q in enumerate(wl.queries) if q.kind == "parse-error")
    tally.record(qid, workloads.CliResult(code=1, stdout=""), None)
    tally.record(qid, workloads.CliResult(code=2, stdout=""), None)
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 0)
    assert "exit code 1, expected 2" in tally.reasons[0]


def test_cli_queries_pass_in_process_and_as_subprocess(tmp_path):
    wl = workloads.make("cli-small", 1, tmp_path)
    tally = worker.Tally(wl)
    kinds = {}
    for qid, q in enumerate(wl.queries):
        if q.kind not in ("oversized-token", "verify"):
            kinds.setdefault(q.kind, qid)
    for qid in kinds.values():
        tally.record(qid, wl.run_in_process(wl.queries[qid]), None)
        tally.record(qid, wl.run(wl.queries[qid]), None)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted == 2 * len(kinds) == 2 * 6


def test_layer_metrics_cover_the_spec():
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert spans.PER_LAYER_UNITS == names
    assert set(spans.layer_metrics([], [1.0], 0.0, 1)) == set(names)


def _run(trace, cwd=ROOT):
    argv = ["bench/run.py", "--workload", "diag-gf2", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, section):
    proc = _run(trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 100
    assert {k: m["unit"] for k, m in out["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
