"""Frame-by-frame QoS scheduler gluing channel, traffic, and RRA.

Runs an OFDMA cell over successive scheduling frames: each frame draws
fresh fading, rebuilds the RRA instance, solves it with a configurable
strategy, and accumulates per-class QoS satisfaction statistics — the
end-to-end control-plane loop the paper's resource-management story
describes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Literal

import numpy as np

from repro.exceptions import ConfigurationError, InfeasibleError
from repro.kernels.backend import resolve_backend
from repro.obs import get_metrics, get_tracer
from repro.parallel import (
    Executor,
    RelaxationCache,
    SerialExecutor,
    fingerprint,
    map_solve,
)
from repro.qos.channel import ChannelConfig, ChannelModel
from repro.qos.rra import (
    RRA_FALLBACK,
    RRAProblem,
    RRAResult,
    _solve_rra_frame,
    solve_rra_exact,
    solve_rra_greedy,
    solve_rra_pso,
    solve_rra_relaxed,
)
from repro.qos.traffic import ServiceClass, TrafficGenerator, UserSession
from repro.resilience import CircuitBreaker, FaultSpec

Strategy = Literal["exact", "relaxed", "pso", "greedy"]

#: single-strategy solvers, called as ``solve(problem, max_nodes)``
_SOLVERS: Dict[str, Callable[[RRAProblem, int], RRAResult]] = {
    # node-budget cap only: wall-clock truncation would make the frame's
    # answer depend on machine load
    "exact": lambda p, max_nodes: solve_rra_exact(
        p, max_nodes=max_nodes, time_limit=math.inf),
    "relaxed": lambda p, _max_nodes: solve_rra_relaxed(p),
    "pso": lambda p, _max_nodes: solve_rra_pso(p, swarm_size=12, generations=30),
    "greedy": lambda p, _max_nodes: solve_rra_greedy(p),
}

__all__ = ["FrameStats", "ScheduleReport", "Scheduler"]


def _frame_task(task: dict) -> dict:
    """Solve one pre-drawn frame problem (module-level: process-picklable).

    The task carries everything the solve needs; per-frame randomness
    (ladder retries, chaos schedules) derives from the frame index via
    :func:`~repro.parallel.derive_seed`, so the outcome is a pure
    function of the task — the scheduler's determinism contract.  The
    one exception is ``task["breaker"]``, a circuit breaker shared
    across frames, which only in-process runs hand over.
    """
    problem: RRAProblem = task["problem"]
    frame: int = task["frame"]
    strategy: str = task["strategy"]
    start = time.perf_counter()
    dropped = {"frame": frame, "dropped": True, "rung": "none",
               "degraded": True}
    if task["resilient"]:
        answer, _ = _solve_rra_frame(
            problem, rungs=RRA_FALLBACK, seed=task["seed"], frame=frame,
            streams=("qos.chaos", "qos.frame"),
            frame_budget_s=task["frame_budget_s"],
            max_nodes=task["max_nodes"], chaos=task["chaos"], attempts=2,
            name="rra", solvers=task["rra_solvers"], breaker=task["breaker"])
        solver_time = time.perf_counter() - start
        if answer is None:
            return {**dropped, "solver_time": solver_time}
        result, rung, degraded = answer.result, answer.rung, answer.degraded
        rung_times = dict(answer.rung_times)
    else:
        try:
            result = _SOLVERS[strategy](problem, task["max_nodes"])
        except InfeasibleError:
            return {**dropped, "solver_time": time.perf_counter() - start}
        solver_time = time.perf_counter() - start
        rung, degraded = strategy, False
        rung_times = {rung: solver_time}
    return {
        "frame": frame,
        "dropped": False,
        "choice": result.choice,
        "rung": rung,
        "degraded": degraded,
        "rung_times": rung_times,
        "solver_time": solver_time,
    }


@dataclass(frozen=True)
class FrameStats:
    """Per-frame outcome.

    ``rung`` records which solver actually answered the frame (in
    resilient mode the fallback-ladder rung; otherwise the strategy
    name); ``degraded`` is True when a fallback below the primary rung
    served the frame.
    """

    frame: int
    total_rate: float
    qos_ok: bool
    per_class_satisfaction: Dict[ServiceClass, float]
    solver_time: float
    rung: str = ""
    degraded: bool = False
    rung_times: Dict[str, float] = field(default_factory=dict)


@dataclass
class ScheduleReport:
    """Aggregate over a scheduling run."""

    frames: List[FrameStats] = field(default_factory=list)

    @property
    def mean_rate(self) -> float:
        return float(np.mean([f.total_rate for f in self.frames])) if self.frames else 0.0

    @property
    def qos_success_rate(self) -> float:
        return float(np.mean([f.qos_ok for f in self.frames])) if self.frames else 0.0

    def class_satisfaction(self) -> Dict[ServiceClass, float]:
        out: Dict[ServiceClass, List[float]] = {}
        for f in self.frames:
            for svc, v in f.per_class_satisfaction.items():
                out.setdefault(svc, []).append(v)
        return {svc: float(np.mean(vs)) for svc, vs in out.items()}

    @property
    def total_solver_time(self) -> float:
        return float(sum(f.solver_time for f in self.frames))

    @property
    def degraded_frame_rate(self) -> float:
        """Fraction of frames served by a fallback rung."""
        return float(np.mean([f.degraded for f in self.frames])) if self.frames else 0.0

    def rung_counts(self) -> Dict[str, int]:
        """How many frames each rung answered — the operational face of
        the paper's cost/completeness ladder."""
        out: Dict[str, int] = {}
        for f in self.frames:
            out[f.rung] = out.get(f.rung, 0) + 1
        return out

    def rung_time_totals(self) -> Dict[str, float]:
        """Total wall-clock spent in each rung across all frames,
        including rungs that were attempted but failed."""
        acc: Dict[str, List[float]] = {}
        for f in self.frames:
            for rung, t in f.rung_times.items():
                acc.setdefault(rung, []).append(t)
        return {rung: math.fsum(ts) for rung, ts in acc.items()}

    def canonical(self) -> dict:
        """Timing-free, JSON-ready projection of the report.

        This is the object the determinism contract covers: every field
        is a pure function of (configuration, seed), so serial, thread,
        and process runs of the same schedule compare bit-identically —
        wall-clock fields (``solver_time``, ``rung_times``) are excluded
        because they can never be equal across runs.  Golden-report
        tests serialize exactly this dict.
        """
        return {
            "frames": [
                {
                    "frame": f.frame,
                    "total_rate": f.total_rate,
                    "qos_ok": bool(f.qos_ok),
                    "per_class_satisfaction": {
                        svc.value: v
                        for svc, v in sorted(f.per_class_satisfaction.items(),
                                             key=lambda kv: kv[0].value)
                    },
                    "rung": f.rung,
                    "degraded": bool(f.degraded),
                }
                for f in self.frames
            ],
            "mean_rate": self.mean_rate,
            "qos_success_rate": self.qos_success_rate,
            "degraded_frame_rate": self.degraded_frame_rate,
            "rung_counts": dict(sorted(self.rung_counts().items())),
            "class_satisfaction": {
                svc.value: v
                for svc, v in sorted(self.class_satisfaction().items(),
                                     key=lambda kv: kv[0].value)
            },
        }


class Scheduler:
    """An OFDMA cell scheduler with pluggable RRA strategy."""

    def __init__(
        self,
        n_users: int = 4,
        strategy: Strategy = "relaxed",
        channel: ChannelConfig | None = None,
        traffic: TrafficGenerator | None = None,
        power_levels_mw: np.ndarray | None = None,
        total_power_mw: float = 1000.0,
        rate_floor_scale: float = 1.0,
        seed: int = 0,
        resilient: bool = False,
        breaker: CircuitBreaker | None = None,
        frame_budget_s: float | None = None,
        rra_solvers: Dict[str, Callable[[RRAProblem], RRAResult]] | None = None,
        max_nodes: int = 4000,
        cache: RelaxationCache | None = None,
    ):
        """``resilient=True`` routes every frame through the
        :func:`~repro.qos.rra.solve_rra_resilient` fallback ladder instead
        of a single fixed strategy; in an in-process :meth:`run` the
        shared ``breaker`` then trips the hot path straight to the greedy
        rung after repeated upstream failures.  ``frame_budget_s`` caps
        each frame's solve wall-clock (without it the exact solve has no
        time limit); ``rra_solvers`` overrides individual rungs (the
        chaos-test hook); ``max_nodes`` caps the exact branch-and-bound
        (the deterministic cost knob every run relies on).

        ``cache`` memoizes frame solves by content fingerprint (problem
        bytes + strategy configuration + the resolved kernels backend,
        same keying discipline as
        :func:`repro.verify.verification_fingerprint`): a repeated
        channel realization — block fading, replayed scenario packs, or
        re-runs under one seed — is answered without re-solving.  The
        coordinator owns the cache, so memoization works unchanged with
        the process executor; chaos runs bypass it (an injected fault
        schedule must not be masked by a memoized healthy answer).
        """
        if strategy not in _SOLVERS:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.resilient = resilient
        self.breaker = breaker if breaker is not None else (CircuitBreaker() if resilient else None)
        self.frame_budget_s = frame_budget_s
        self.rra_solvers = rra_solvers
        self.max_nodes = int(max_nodes)
        self.cache = cache
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.channel = ChannelModel(channel or ChannelConfig(), rng=self.rng)
        self.traffic = traffic or TrafficGenerator(rng=self.rng)
        self.users: List[UserSession] = self.traffic.users(n_users)
        if not math.isclose(rate_floor_scale, 1.0):
            # downscale QoS floors for small test grids
            scaled = []
            for u in self.users:
                q = u.qos
                scaled.append(
                    UserSession(
                        u.user_id,
                        u.service,
                        type(q)(
                            min_rate_bps=q.min_rate_bps * rate_floor_scale,
                            max_latency_ms=q.max_latency_ms,
                            reliability=q.reliability,
                            priority=q.priority,
                        ),
                    )
                )
            self.users = scaled
        self.power_levels = (
            np.asarray(power_levels_mw, dtype=np.float64)
            if power_levels_mw is not None
            else np.array([50.0, 100.0])
        )
        self.total_power = total_power_mw

    def _frame_problem(self) -> RRAProblem:
        gains = self.channel.gains(len(self.users))
        return RRAProblem(
            gains=gains,
            users=self.users,
            power_levels_mw=self.power_levels,
            total_power_mw=self.total_power,
            noise_mw=self.channel.noise_linear_mw,
        )

    def _frame_key(self, problem: RRAProblem) -> str:
        """Content-addressed key of one frame solve: the problem bytes
        plus every knob that can change the answer, including the
        resolved kernels backend (a vectorized answer is never served to
        a reference run)."""
        return fingerprint(
            problem.gains, [(u.user_id, u.service.value, u.qos) for u in self.users],
            self.power_levels, self.total_power, self.strategy,
            self.resilient, self.frame_budget_s, self.max_nodes,
            resolve_backend(None), "qos.frame",
        )

    def _frame_stats(self, frame: int, problem: RRAProblem,
                     out: dict) -> FrameStats:
        """Build one frame's FrameStats from a frame outcome, solved now
        or memoized (a cache entry carries no timings; the cheap
        deterministic evaluation re-runs, only the solve is skipped)."""
        solver_time = out.get("solver_time", 0.0)
        if out["dropped"]:
            return FrameStats(frame, 0.0, False,
                              {svc: 0.0 for svc in set(u.service for u in self.users)},
                              solver_time, rung="none", degraded=True)
        ev = problem.evaluate_assignment(out["choice"])
        per_class: Dict[ServiceClass, List[bool]] = {}
        for u, rate in zip(self.users, ev["user_rates"]):
            per_class.setdefault(u.service, []).append(rate >= u.min_rate_bps - 1e-6)
        return FrameStats(
            frame=frame,
            total_rate=ev["total_rate"],
            qos_ok=ev["qos_ok"] and ev["power_ok"],
            per_class_satisfaction={svc: float(np.mean(v))
                                    for svc, v in per_class.items()},
            solver_time=solver_time,
            rung=out["rung"],
            degraded=out["degraded"],
            rung_times=out.get("rung_times", {}),
        )

    def run(self, n_frames: int = 10, executor: Executor | None = None,
            chunk_size: int | None = None,
            chaos: FaultSpec | None = None) -> ScheduleReport:
        """Run ``n_frames`` scheduling frames and merge the per-frame stats.

        All channel realizations are drawn up front from the scheduler's
        RNG; the frames are then solved by one frame task, either one at
        a time in-process (``executor=None``) or fanned out through
        :func:`repro.parallel.map_solve`, and merged back into one
        :class:`ScheduleReport` in frame order.  Per-frame randomness
        derives from ``(seed, frame)``, so the report's
        :meth:`ScheduleReport.canonical` projection is bit-identical
        across in-process, serial, thread and process runs.  Only the
        in-process run consults the shared circuit breaker; frames
        handed to an executor must be independent of each other.
        ``chaos`` (resilient mode only) injects a deterministic
        per-frame :class:`~repro.resilience.ChaosMonkey` around every
        rung.
        """
        if chaos is not None and not self.resilient:
            raise ConfigurationError(
                "chaos injection needs resilient=True (the ladder absorbs "
                "the injected faults; a bare strategy would just crash)")
        metrics = get_metrics()
        problems = [self._frame_problem() for _ in range(n_frames)]
        # the coordinator owns the cache: hits are served here and only
        # the misses are solved, so memoization is backend-agnostic;
        # chaos runs bypass it (a memoized healthy answer would mask the
        # injected fault schedule)
        use_cache = self.cache is not None and chaos is None
        keys = [self._frame_key(p) for p in problems] if use_cache else []
        cached: Dict[int, dict] = {}
        if use_cache:
            for frame, k in enumerate(keys):
                hit = self.cache.get(k)
                if hit is not None:
                    cached[frame] = hit
        tasks = [
            {
                "frame": frame,
                "problem": problem,
                "strategy": self.strategy,
                "resilient": self.resilient,
                "frame_budget_s": self.frame_budget_s,
                "rra_solvers": self.rra_solvers,
                "chaos": chaos,
                "seed": self.seed,
                "max_nodes": self.max_nodes,
                "breaker": self.breaker if executor is None else None,
            }
            for frame, problem in enumerate(problems)
            if frame not in cached
        ]
        executor = executor or SerialExecutor()
        with get_tracer().span("qos.schedule", backend=executor.backend,
                               n_frames=n_frames, strategy=self.strategy,
                               resilient=self.resilient):
            outcomes = map_solve(_frame_task, tasks, executor=executor,
                                 chunk_size=chunk_size, label="qos.frames")
        solved = {out["frame"]: out for out in outcomes}
        report = ScheduleReport()
        for frame, problem in enumerate(problems):
            out = cached.get(frame)
            if out is not None:
                metrics.counter("scheduler.frames_cached").inc()
            else:
                out = solved[frame]
                if use_cache:
                    self.cache.put(keys[frame], {
                        k: out[k] for k in ("dropped", "choice", "rung", "degraded")
                        if k in out})
                if out["dropped"]:
                    metrics.counter("scheduler.frames_dropped").inc()
                else:
                    metrics.counter("scheduler.frames", rung=out["rung"]).inc()
                    if out["degraded"]:
                        metrics.counter("scheduler.frames_degraded").inc()
            report.frames.append(self._frame_stats(frame, problem, out))
        return report
