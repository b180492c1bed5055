"""Benchmark of diagdist: four seeded workloads, each in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 0|1]

With one workload, the last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it
records the seed, the commit and the machine.  With `all`, every workload
runs in turn and each metric is printed by name with its unit.

Set-up is measured SETUP_SAMPLES times per untraced run, each time in a
fresh process, and setup_s is the median.  Times are in reference seconds
(see worker.py and bench/README.md); the unscaled ones are printed on the
line before the result.  See bench/README.md for why
each workload exists and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "bench" / "worker.py"
SRC = ROOT / "src"
WORKLOADS = ("diag-gf2", "diag-oddp", "code-pairs", "cli-small")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to its end and return its JSON line.

    The worker gets its own process group, so a worker that runs past the
    deadline is killed together with any command line run it started.
    """
    cmd = [sys.executable, str(WORKER), *args]
    with subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One run: the worker's result, plus setup_s as a median when untraced.

    Half of the extra set-ups run before the measuring process and half
    after it, so the samples spread over the run rather than sharing one
    moment of the machine's load.
    """
    base = ["--workload", name, "--seed", str(seed)]
    extra = 0 if trace else SETUP_SAMPLES - 1
    setups = [_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(extra // 2)]
    result = _worker(base + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups += [_worker(base + ["--setup-only"], deadline)["setup_s"] for _ in range(extra - extra // 2)]
    if not trace:
        setups.append(result["setup_s"])
        scaled, unscaled = zip(*setups)
        result["metrics"]["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        result["unscaled"]["setup_s"] = statistics.median(unscaled)
    return result


def git_commit() -> str:
    """HEAD of the checkout's repository, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, numpy_version: str) -> dict:
    return {
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def contract_line(result: dict) -> dict:
    return {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "diagdist" / "__init__.py").is_file():
        print(f"bench: no diagdist sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    env = environment(args.seed, next(iter(results.values()))["numpy"])
    for name, res in results.items():
        for reason in res["reasons"]:
            print(f"bench: {name}: {reason}", file=sys.stderr)
    if args.workload != "all":
        res = results[args.workload]
        info = {"env": env, "latency_samples": res["queries"], "passes": res["passes"], "unscaled": res["unscaled"]}
        print(json.dumps(info))
        print(json.dumps(contract_line(res)))
        return 0
    print(json.dumps({"env": env}))
    for name, res in results.items():
        print(f"{name}:")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
        rate = res["failed"] / res["attempted"]
        print(f"  {'error_rate':<40} {rate:>14.6g} ratio ({res['failed']} of {res['attempted']} queries failed)")
        print(f"  {'latency_samples':<40} {res['queries']:>14d} count (queries, each the median of {res['passes']} passes)")
        for metric, value in res["unscaled"].items():
            print(f"  {'unscaled ' + metric:<40} {value:>14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
