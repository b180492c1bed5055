"""Spans recorded from the benchmark's side of each call into diagdist.

The traced run replaces public functions at the module attribute where
their caller looks them up (``diagdist.distance.pairwise_distance`` is
what ``code_distance`` calls, ``diagdist.cli.parse_graph`` is what the
command line calls), and puts the originals back afterwards.  Nothing
under ``src/`` is edited.  Each span holds its name, start, end, the index
of the span that was open when it started, and the id of the query that
caused it.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import diagdist.cli
import diagdist.distance


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    qid: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of every traced pass of a run in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.qid = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.qid)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                span.info.update(annotate(result, *args, **kwargs))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        saved = []
        for module, attr, name, annotate in TARGETS:
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn, annotate))
        try:
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def _search_info(rep, g, f, *rest, **kw) -> dict:
    return {"examined": rep.vectors_examined, "full": f.p**g.n - 1}


def _pair_info(rep, g, f, cr, cs, *rest, **kw) -> dict:
    affine = bool(((np.asarray(cr) - np.asarray(cs)) % f.p).any())
    return {"examined": rep.vectors_examined, "full": f.p**g.n - (0 if affine else 1)}


def _oracle_info(rep, g, f, *rest, **kw) -> dict:
    return {"words": f.p ** (2 * g.n)}


_D, _C = diagdist.distance, diagdist.cli
TARGETS = [
    (_D, "adjacency_matrix", "graphs.adjacency_matrix", None),
    (_D, "build_lambda", "distance.build_lambda", None),
    (_D, "diagonal_distance", "distance.diagonal_distance", _search_info),
    (_D, "pairwise_distance", "distance.pairwise_distance", _pair_info),
    (_D, "code_distance", "distance.code_distance", None),
    (_C, "parse_graph", "graphs.parse_graph", None),
    (_C, "parse_codewords", "graphs.parse_codewords", None),
    (_C, "diagonal_distance", "distance.diagonal_distance", _search_info),
    (_C, "code_distance", "distance.code_distance", None),
    (_C, "kernel_basis", "gfp.kernel_basis", None),
    (_C, "brute_force_distance", "oracle.brute_force_distance", _oracle_info),
    (_C, "main", "cli.main", None),
]

SEARCHES = ("distance.diagonal_distance", "distance.pairwise_distance")

# Per-layer metrics and their units.  Calls and times are per pass over the
# workload's queries; cli.process_s is per query.
TIMED = {
    "distance.diagonal_distance": ("calls", "s", "self_s"),
    "distance.pairwise_distance": ("calls", "s", "self_s"),
    "distance.code_distance": ("calls", "s", "self_s"),
    "distance.build_lambda": ("calls", "s"),
    "graphs.parse_graph": ("calls", "s"),
    "graphs.parse_codewords": ("calls", "s"),
    "graphs.adjacency_matrix": ("calls", "s"),
    "gfp.kernel_basis": ("calls", "s"),
    "oracle.brute_force_distance": ("calls", "s"),
    "cli.main": ("calls", "s", "self_s"),
}
UNITS = {"calls": "count", "s": "s", "self_s": "s"}
PER_LAYER_UNITS = {f"{name}.{part}": UNITS[part] for name, parts in TIMED.items() for part in parts}
PER_LAYER_UNITS.update(
    {
        "distance.candidates": "count",
        "distance.candidates_per_s": "1/s",
        "distance.gamma_builds_per_query": "count/query",
        "distance.early_exit_frac": "ratio",
        "distance.budget_refusals": "count",
        "distance.search_frac": "ratio",
        "oracle.words_per_s": "1/s",
        "cli.import_s": "s",
        "cli.process_s": "s",
        "bench.trace_overhead_frac": "ratio",
    }
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: list[Span],
    traced_walls: list[float],
    trace_overhead: float,
    queries: int,
    import_s: float = 0.0,
    process_s: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced passes.

    traced_walls are the wall times of those passes; trace_overhead is
    measured by the caller, who also runs the untraced passes.
    """
    passes = len(traced_walls)
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.duration
    total = dict.fromkeys(TIMED, 0.0)
    self_s = dict.fromkeys(TIMED, 0.0)
    calls = dict.fromkeys(TIMED, 0)
    for i, span in enumerate(spans):
        calls[span.name] += 1
        total[span.name] += span.duration
        self_s[span.name] += span.duration - child_s[i]
    searches = [s for s in spans if s.name in SEARCHES and "examined" in s.info]
    candidates = sum(s.info["examined"] for s in searches)
    search_self = sum(self_s[name] for name in SEARCHES)
    oracle_words = sum(s.info.get("words", 0) for s in spans)
    per = {"calls": calls, "s": total, "self_s": self_s}
    out = {f"{name}.{part}": per[part][name] / passes for name, parts in TIMED.items() for part in parts}
    out.update(
        {
            "distance.candidates": candidates / passes,
            "distance.candidates_per_s": _ratio(candidates, search_self),
            "distance.gamma_builds_per_query": _ratio(calls["graphs.adjacency_matrix"], queries * passes),
            "distance.early_exit_frac": _ratio(sum(s.info["examined"] < s.info["full"] for s in searches), len(searches)),
            "distance.budget_refusals": sum(s.info.get("error") == "SearchTooLarge" for s in spans if s.name in SEARCHES) / passes,
            "distance.search_frac": _ratio(search_self, sum(traced_walls)),
            "oracle.words_per_s": _ratio(oracle_words, total["oracle.brute_force_distance"]),
            "cli.import_s": import_s,
            "cli.process_s": process_s,
            "bench.trace_overhead_frac": trace_overhead,
        }
    )
    return out
