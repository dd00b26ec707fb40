"""Which public functions each layer exposes to the tracer, and how the
per-layer metrics are derived from the recorded spans.

Every ``*_ms`` metric is a mean over the calls of one function, so a
per-layer number compares across runs of different lengths; counts are
totals over the traced window, whose work list is fixed per seed.
"""

from __future__ import annotations

from statistics import fmean
from typing import Callable, Dict, List, Tuple

import numpy as np

from tracing import ATTRS, END, NAME, PARENT, START, Target


def _arg(args: tuple, kwargs: dict, pos: int, key: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _ladder_name(args, kwargs):
    return "ladder." + str(kwargs.get("name", "ladder"))


def _ladder_attrs(args, kwargs, result):
    rungs = _arg(args, kwargs, 0, "rungs")
    return {"first": rungs[0].name, "answered": result.rung}


def _verify_name(args, kwargs):
    return "verify." + str(_arg(args, kwargs, 2, "method", "crown"))


def _simplex_attrs(args, kwargs, result):
    rows, cols = np.shape(_arg(args, kwargs, 0, "a"))
    return {"rows": rows, "cols": cols}


TARGETS: Tuple[Target, ...] = (
    # repro.convex
    Target("repro.convex.lp", "solve_lp", "lp.solve"),
    Target("repro.convex.lp", "simplex_standard_form", "lp.simplex",
           attrs=_simplex_attrs),
    # repro.minlp
    Target("repro.minlp.milp", "solve_milp", "milp.solve"),
    Target("repro.minlp.branch_and_bound", "branch_and_bound", "bnb",
           attrs=lambda a, k, r: {"nodes": r.nodes_explored,
                                  "converged": r.converged}),
    Target("repro.minlp.heuristics", "round_and_repair",
           "heuristics.round_and_repair"),
    # repro.qos
    Target("repro.qos.rra", "RRAProblem.to_milp", "rra.to_milp"),
    Target("repro.qos.rra", "solve_rra_exact", "rra.exact"),
    Target("repro.qos.rra", "solve_rra_relaxed", "rra.relaxed"),
    Target("repro.qos.rra", "solve_rra_greedy", "rra.greedy"),
    # repro.resilience
    Target("repro.resilience.ladder", "run_ladder", _ladder_name,
           attrs=_ladder_attrs),
    # repro.parallel
    Target("repro.parallel.executor", "map_solve", "map_solve",
           attrs=lambda a, k, r: {"tasks": len(_arg(a, k, 1, "items"))}),
    # repro.serve: ticks have no public function of their own; the
    # workload's on_tick hook delimits them inside the run span
    Target("repro.serve.service", "QoSService.run", "serve.run",
           enter=lambda rec: rec.open("serve.tick"),
           exit=lambda rec: rec.rename_top("serve.tick", "serve.report")),
    Target("repro.serve.shard", "SchedulerShard.build_task",
           "serve.build_task"),
    Target("repro.serve.shard", "SchedulerShard.absorb", "serve.absorb"),
    Target("repro.serve.shard", "solve_shard_task", "serve.solve_shard_task"),
    # repro.verify
    Target("repro.verify.verifier", "verify_resilient", "verify.ladder"),
    Target("repro.verify.verifier", "verify", _verify_name,
           attrs=lambda a, k, r: {"verified": bool(r.verified)}),
    Target("repro.verify.exact", "exact_margin_bound", "verify.exact_bound",
           attrs=lambda a, k, r: {"nodes": r.nodes_explored}),
    # repro.signal
    Target("repro.signal.fft", "fft", "fft"),
    Target("repro.signal.stft", "stft", "stft.block"),
    Target("repro.signal.stft", "frame_signal", "stft.frame_signal"),
    Target("repro.signal.streaming", "OverlapSaveConvolver.process",
           "stream.overlap_save"),
    Target("repro.signal.streaming", "OverlapSaveConvolver.flush",
           "stream.overlap_save"),
    Target("repro.signal.decimate", "MultiStageDecimator.process",
           "stream.decimate"),
    Target("repro.signal.streaming", "StreamingSTFT.process", "stream.stft"),
    Target("repro.signal.streaming", "StreamingSTFT.finalize", "stream.stft"),
)

VERIFY_METHODS = ("ibp", "crown", "lp", "firstorder", "exact")
RRA_RUNGS = ("exact-bnb", "lp-round", "greedy")


class SpanIndex:
    """Span lookups by name plus the derived self times."""

    def __init__(self, spans: List[list], self_s: List[float]):
        self.spans = spans
        self.self_s = self_s
        self.by_name: Dict[str, List[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[NAME], []).append(i)

    def ids(self, name: str) -> List[int]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.ids(name))

    def mean_ms(self, name: str, own: bool = False) -> float:
        ids = self.ids(name)
        if not ids:
            return 0.0
        if own:
            return 1e3 * fmean(self.self_s[i] for i in ids)
        return 1e3 * fmean(self.spans[i][END] - self.spans[i][START]
                           for i in ids)

    def attr(self, name: str, key: str) -> List:
        return [(self.spans[i][ATTRS] or {}).get(key) for i in self.ids(name)]

    def under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with an ancestor called ``ancestor``."""
        count = 0
        for i in self.ids(name):
            p = self.spans[i][PARENT]
            while p >= 0 and self.spans[p][NAME] != ancestor:
                p = self.spans[p][PARENT]
            count += p >= 0
        return count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: List) -> float:
    values = [v for v in values if v is not None]
    return fmean(values) if values else 0.0


def _answered(ix: SpanIndex, rung: str) -> int:
    return sum(a == rung for a in ix.attr("ladder.serve", "answered"))


def _verified(ix: SpanIndex, method: str) -> int:
    return sum(bool(v) for v in ix.attr(f"verify.{method}", "verified"))


def _bnb_lp_per_node(ix: SpanIndex) -> float:
    nodes = sum(n or 0 for n in ix.attr("bnb", "nodes"))
    return _ratio(ix.under("lp.solve", "milp.solve"), nodes)


def _lp_layer_ms(ix: SpanIndex) -> float:
    own = sum(ix.self_s[i] for i in ix.ids("lp.solve") + ix.ids("lp.simplex"))
    return _ratio(1e3 * own, ix.calls("lp.solve"))


def _primary_yield(ix: SpanIndex) -> float:
    firsts = ix.attr("ladder.serve", "first")
    answered = ix.attr("ladder.serve", "answered")
    return _ratio(sum(f is not None and f == a
                      for f, a in zip(firsts, answered)), len(firsts))


def _fft_frames_per_s(ix: SpanIndex) -> float:
    return _ratio(1e3, ix.mean_ms("fft"))


#: (name, unit, better, derivation from the span index)
SPAN_METRICS: List[Tuple[str, str, str, Callable[[SpanIndex], float]]] = [
    ("lp.solves", "count", "lower", lambda ix: ix.calls("lp.solve")),
    ("lp.self_ms", "ms", "lower", _lp_layer_ms),
    ("lp.simplex_ms", "ms", "lower", lambda ix: ix.mean_ms("lp.simplex")),
    ("lp.stdform_ms", "ms", "lower",
     lambda ix: ix.mean_ms("lp.solve", own=True)),
    ("lp.rows_mean", "count", "lower",
     lambda ix: _mean(ix.attr("lp.simplex", "rows"))),
    ("lp.cols_mean", "count", "lower",
     lambda ix: _mean(ix.attr("lp.simplex", "cols"))),
    ("milp.solves", "count", "lower", lambda ix: ix.calls("milp.solve")),
    ("milp.ms", "ms", "lower", lambda ix: ix.mean_ms("milp.solve")),
    ("bnb.nodes_per_solve", "count", "lower",
     lambda ix: _mean(ix.attr("bnb", "nodes"))),
    ("bnb.lp_per_node", "ratio", "lower", _bnb_lp_per_node),
    ("bnb.converged_ratio", "ratio", "higher",
     lambda ix: _mean([float(c) for c in ix.attr("bnb", "converged")
                        if c is not None])),
    ("heuristics.round_and_repair_ms", "ms", "lower",
     lambda ix: ix.mean_ms("heuristics.round_and_repair")),
    ("rra.to_milp_ms", "ms", "lower", lambda ix: ix.mean_ms("rra.to_milp")),
]
for _rung in ("exact", "relaxed", "greedy"):
    SPAN_METRICS += [
        (f"rra.{_rung}.calls", "count", "lower",
         lambda ix, r=_rung: ix.calls(f"rra.{r}")),
        (f"rra.{_rung}.ms", "ms", "lower",
         lambda ix, r=_rung: ix.mean_ms(f"rra.{r}")),
    ]
SPAN_METRICS += [
    (f"ladder.answered.{r}", "count", "higher" if r == RRA_RUNGS[0] else "lower",
     lambda ix, r=r: _answered(ix, r)) for r in RRA_RUNGS
]
SPAN_METRICS += [
    ("ladder.dropped", "count", "lower",
     lambda ix: sum(e is not None for e in ix.attr("ladder.serve", "error"))),
    ("ladder.primary_yield", "ratio", "higher", _primary_yield),
    ("serve.ticks", "count", "higher", lambda ix: ix.calls("serve.tick")),
    ("serve.frames_per_tick", "ratio", "higher",
     lambda ix: _ratio(ix.calls("serve.solve_shard_task"),
                       ix.calls("serve.tick"))),
    ("serve.tick_self_ms", "ms", "lower",
     lambda ix: ix.mean_ms("serve.tick", own=True)),
    ("serve.build_task_ms", "ms", "lower",
     lambda ix: ix.mean_ms("serve.build_task")),
    ("serve.solve_shard_task_ms", "ms", "lower",
     lambda ix: ix.mean_ms("serve.solve_shard_task")),
    ("serve.absorb_ms", "ms", "lower", lambda ix: ix.mean_ms("serve.absorb")),
    ("map_solve.calls", "count", "lower", lambda ix: ix.calls("map_solve")),
    ("map_solve.tasks_per_call", "ratio", "higher",
     lambda ix: _mean(ix.attr("map_solve", "tasks"))),
    ("map_solve.self_ms", "ms", "lower",
     lambda ix: ix.mean_ms("map_solve", own=True)),
]
for _m in VERIFY_METHODS:
    SPAN_METRICS += [
        (f"verify.{_m}.calls", "count", "lower",
         lambda ix, m=_m: ix.calls(f"verify.{m}")),
        (f"verify.{_m}.ms", "ms", "lower",
         lambda ix, m=_m: ix.mean_ms(f"verify.{m}")),
        (f"verify.{_m}.verified", "count", "higher",
         lambda ix, m=_m: _verified(ix, m)),
    ]
SPAN_METRICS += [
    ("verify.exact.nodes_per_spec", "count", "lower",
     lambda ix: _mean(ix.attr("verify.exact_bound", "nodes"))),
    ("fft.calls", "count", "lower", lambda ix: ix.calls("fft")),
    ("fft.ms", "ms", "lower", lambda ix: ix.mean_ms("fft")),
    ("fft.frames_per_s", "1/s", "higher", _fft_frames_per_s),
    ("stft.frame_signal_ms", "ms", "lower",
     lambda ix: ix.mean_ms("stft.frame_signal")),
    ("stream.overlap_save_ms", "ms", "lower",
     lambda ix: ix.mean_ms("stream.overlap_save")),
    ("stream.decimate_ms", "ms", "lower",
     lambda ix: ix.mean_ms("stream.decimate")),
    ("stream.stft_ms", "ms", "lower", lambda ix: ix.mean_ms("stream.stft")),
]

#: per-layer metrics a workload reports itself from its traced window:
#: the tracing overhead and the behaviour metrics that must not move
#: under a pure speed change
RUN_METRICS: List[Tuple[str, str, str]] = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("serve.sim_p99_ms", "ms", "lower"),
    ("serve.shed_ue_ratio", "ratio", "lower"),
    ("verify.lp_fnr", "ratio", "lower"),
]

PER_LAYER: List[Tuple[str, str, str]] = (
    [(n, u, b) for n, u, b, _ in SPAN_METRICS] + RUN_METRICS)


def per_layer_metrics(ix: SpanIndex, run_values: Dict[str, float]
                      ) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``; a layer the
    workload never calls reports 0."""
    out = {name: (float(fn(ix)), unit) for name, unit, _, fn in SPAN_METRICS}
    for name, unit, _ in RUN_METRICS:
        out[name] = (float(run_values.get(name, 0.0)), unit)
    return out
