"""One run of one workload in a fresh process; started by run.py.

    python bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python bench/worker.py --workload NAME --seed N --setup-only

The worker sets up (imports diagdist, makes the inputs from the seed, runs
one untimed warm-up query), then runs timed passes over every query of the
workload until the next pass would end after --seconds, at least one pass.
Each pass is a closed loop: one caller, one query at a time, with a short
calibration loop timed between queries (see CAL_REFERENCE_S).  Outputs are
checked after each pass, outside the timed region.  The last line of
stdout is a JSON object for run.py.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here, so it includes loading numpy and diagdist

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import diagdist.cli  # noqa: E402,F401  (the cli imports every other module of the package)

IMPORT_S = time.perf_counter() - START

import numpy  # noqa: E402

import workloads  # noqa: E402
from workloads import ERROR, WRONG  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


class Tally:
    """Pass/fail bookkeeping for the timed queries of one run.

    `reference` holds each query's digest from its first run (the warm-up
    for query 0), and every later run of that query must match it.
    """

    def __init__(self, workload):
        self.wl = workload
        self.reference: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def record(self, qid: int, result, exc: BaseException | None) -> None:
        """Count one timed query; result is ignored when exc is set."""
        self.attempted += 1
        verdict = (ERROR, f"raised {type(exc).__name__}: {exc}") if exc else self.judge(qid, result)
        if verdict is None:
            return
        outcome, reason = verdict
        self.failed += 1
        self.wrong += outcome == WRONG
        if len(self.reasons) < 20:
            self.reasons.append(f"query {qid} ({self.wl.queries[qid].kind}): {outcome}: {reason}")

    def judge(self, qid: int, result):
        """None when the output passes, else (outcome, reason)."""
        verdict = self.wl.check(self.wl.queries[qid], result)
        if verdict is not None:
            return verdict
        key = self.wl.digest(result)
        if self.reference.setdefault(qid, key) != key:
            return WRONG, "output differs from the first run of the same query"
        return None


# The host's speed drifts: a fixed pure-Python loop has been seen to take
# 30-60% longer for tens of seconds at a time, and runs made a minute apart
# then differ by as much.  Each pass therefore also times a fixed
# calibration loop, between queries and outside their timing, and the
# end-to-end times are reported in reference seconds: seconds on a machine
# where that loop takes CAL_REFERENCE_S.  The loop never calls diagdist.
CAL_ITERATIONS = 100_000
CAL_REFERENCE_S = 0.008
CAL_EVERY_S = 0.5


def calibrate() -> float:
    """Seconds one run of the calibration loop takes right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_ITERATIONS):
        acc ^= i * 7
    return time.perf_counter() - t0


def timed_pass(run, queries, tally: Tally, tracer=None) -> tuple[float, list[float], list[float]]:
    """Run every query once.

    Returns the wall seconds of the pass without the calibrations, each
    query's seconds, and for each query the factor CAL_REFERENCE_S / (the
    mean of the calibrations just before and just after it) that turns its
    seconds into reference seconds.
    """
    outcomes = []
    latencies = []
    cal = [(0, calibrate())]  # (index of the next query, seconds)
    clock = time.perf_counter
    last_cal = start = clock()
    for qid, q in enumerate(queries):
        if clock() - last_cal > CAL_EVERY_S:
            cal.append((qid, calibrate()))
            last_cal = clock()
        if tracer is not None:
            tracer.qid = qid
        t0 = clock()
        try:
            outcomes.append((run(q), None))
        except Exception as exc:  # a raising query is a failed query, not a crash
            outcomes.append((None, exc))
        latencies.append(clock() - t0)
    wall = clock() - start - sum(t for _, t in cal[1:])
    cal.append((len(queries), calibrate()))
    factors = []
    for (first, before), (end, after) in zip(cal, cal[1:]):
        factors += [2 * CAL_REFERENCE_S / (before + after)] * (end - first)
    for qid, (result, exc) in enumerate(outcomes):
        tally.record(qid, result, exc)
    return wall, latencies, factors


def setup(name: str, seed: int, workdir: Path):
    """Make the inputs and run the warm-up query.

    Returns (workload, tally, seconds since the process began importing).
    """
    wl = workloads.make(name, seed, workdir)
    tally = Tally(wl)
    verdict = tally.judge(0, wl.run(wl.queries[0]))
    if verdict is not None:
        raise SystemExit(f"warm-up query failed: {verdict}")
    return wl, tally, time.perf_counter() - START


def _times(walls: list[float], lats: list[list[float]]) -> dict:
    per_query = [statistics.median(q) for q in zip(*lats)]
    d = statistics.quantiles(per_query, n=10, method="inclusive")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "query_ms_p50": (d[4] * 1e3, "ms"),
        "query_ms_p90": (d[8] * 1e3, "ms"),
    }


def _scaled_sum(lat: list[float], factors: list[float]) -> float:
    return sum(x * f for x, f in zip(lat, factors))


def measure(wl, tally: Tally, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, and the times unscaled.

    A pass's scaled wall time is the sum of its queries' scaled times.  A
    query's latency is its median over the passes of the run; p50 and p90
    are taken over the workload's queries.  The per-query median keeps a
    moment of machine noise from moving a query across the percentile.
    """
    walls, lats, scaled = [], [], []
    start = time.perf_counter()
    while True:
        wall, lat, factors = timed_pass(wl.run, wl.queries, tally)
        walls.append(wall)
        lats.append(lat)
        scaled.append([x * f for x, f in zip(lat, factors)])
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    metrics = _times([sum(s) for s in scaled], scaled)
    metrics["peak_rss_mb"] = (resource.getrusage(wl.rusage).ru_maxrss / 1024.0, "MB")
    metrics["success_rate"] = (1.0 - tally.failed / tally.attempted, "ratio")
    raw = {k: v for k, (v, _) in _times(walls, lats).items()}
    raw["speed_factor"] = metrics["wall_s"][0] / raw["wall_s"]
    return metrics, raw


def measure_traced(wl, tally: Tally, seconds: float, spans_path: Path) -> dict:
    """Per-layer metrics: alternate untraced and traced passes.

    cli-small runs both in-process, through cli.main(argv); one extra pass
    of subprocesses then gives the process overhead per query.
    """
    import spans

    in_process = hasattr(wl, "run_in_process")
    run = wl.run_in_process if in_process else wl.run
    tracer = spans.Tracer()
    traced, overheads = [], []
    start = time.perf_counter()
    while True:
        _, lat, factors = timed_pass(run, wl.queries, tally)
        with tracer.installed():
            traced_wall, traced_lat, traced_factors = timed_pass(run, wl.queries, tally, tracer)
        traced.append(traced_wall)
        overheads.append(_scaled_sum(traced_lat, traced_factors) / _scaled_sum(lat, factors) - 1.0)
        if time.perf_counter() - start + 2 * statistics.median(traced) > seconds:
            break
    tracer.write(spans_path)
    passes, n = len(traced), len(wl.queries)
    process_s = 0.0
    if in_process:
        main_s = sum(s.duration for s in tracer.spans if s.name == "cli.main") / passes
        process_s = (timed_pass(wl.run, wl.queries, tally)[0] - main_s) / n
    metrics = spans.layer_metrics(tracer.spans, traced, statistics.median(overheads), n, IMPORT_S, process_s)
    return {name: (value, spans.PER_LAYER_UNITS[name]) for name, value in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("run without -O: the measured program's witness re-check is an assert")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl, tally, setup_s = setup(args.workload, args.seed, Path(tmp))
        factor = CAL_REFERENCE_S / statistics.median(calibrate() for _ in range(5))
        result = {"setup_s": (setup_s * factor, setup_s)}
        if not args.setup_only:
            if args.trace:
                spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
                metrics, raw = measure_traced(wl, tally, args.seconds, spans_path), {}
            else:
                metrics, raw = measure(wl, tally, args.seconds)
            result.update(
                metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                attempted=tally.attempted,
                failed=tally.failed,
                wrong=tally.wrong,
                queries=len(wl.queries),
                passes=tally.attempted // len(wl.queries),
                reasons=tally.reasons,
                unscaled=raw,
                numpy=numpy.__version__,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
