"""serve_burst: the QoS serving hot loop under a 10x burst and chaos.

One operation is one :meth:`QoSService.run` pass of ``duration_s``
simulated seconds over a fleet of cells, then its drain.  Each pass has
its own seed derived from the workload seed, so a run averages over
many burst patterns.  In wall time the loop is closed (one caller, ticks
back to back); arrivals are open-loop in simulated time.  Ticks are
timed through the public ``on_tick`` hook.
"""

from __future__ import annotations

import hashlib
import importlib
import math
from dataclasses import dataclass

import numpy as np

from common import (
    WARMUP_SEED,
    OpRecord,
    Summary,
    clock,
    fail,
    percentile,
    rate_summary,
    sub_seed,
)


@dataclass(frozen=True)
class Params:
    n_cells: int = 8
    duration_s: float = 5.0
    warmup_s: float = 1.0
    trace_ops: int = 4


def _config(p: Params, seed: int):
    from repro.qos.traffic import MMPPConfig
    from repro.serve import ArrivalConfig, ServeConfig, ShardConfig

    # the 10x MMPP burst of the serve soak: idle 2 Hz, burst 20 Hz
    burst = MMPPConfig(idle_rate_hz=2.0, burst_rate_hz=20.0,
                       mean_idle_s=2.5, mean_burst_s=1.2)
    arrivals = ArrivalConfig(base_rate_hz=2.0, batch_ues=15, mmpp=burst)
    return ServeConfig(n_cells=p.n_cells, seed=seed, tick_s=0.1,
                       arrivals=arrivals,
                       shard=ShardConfig(max_depth=20, max_age_s=2.0))


def _chaos():
    from repro.resilience import FaultSpec

    return FaultSpec(exception_rate=0.08, nan_rate=0.04)


class _FrameCapture:
    """Records the problem and the assignment each served frame was
    answered with.

    Installed at the service's lookup of ``solve_shard_task``; it calls
    the shard module's binding at call time, so a traced binding there
    still records its span.  The last ``evaluate_assignment`` call on a
    frame's problem is on the choice ``solve_shard_task`` serves.
    """

    def __init__(self):
        self.service_mod = importlib.import_module("repro.serve.service")
        self.shard_mod = importlib.import_module("repro.serve.shard")
        self.frames = []
        self._saved = None

    def __enter__(self):
        self._saved = self.service_mod.solve_shard_task
        self.service_mod.solve_shard_task = self._solve
        return self

    def __exit__(self, *exc):
        self.service_mod.solve_shard_task = self._saved

    def _solve(self, task):
        problem = task["problem"]
        seen = []
        evaluate = problem.evaluate_assignment

        def recording(choice):
            seen.append(np.array(choice, copy=True))
            return evaluate(choice)

        object.__setattr__(problem, "evaluate_assignment", recording)
        try:
            outcome = self.shard_mod.solve_shard_task(task)
        finally:
            object.__delattr__(problem, "evaluate_assignment")
        if not outcome["dropped"]:
            self.frames.append((problem, outcome, seen[-1] if seen else None))
        return outcome


def check_frame(problem, outcome: dict, choice) -> str:
    """Why a served frame is wrong, or '' when it is fine.

    Per-user rates and power use are recomputed here from the problem's
    rate table and power levels, not taken from the program's own
    evaluation, and the frame's reported figures must agree with them.
    """
    if choice is None:
        return "served frame has no assignment"
    rates = problem.rate_table()                      # (U, B, P)
    u_n, b_n, p_n = rates.shape
    choice = np.asarray(choice)
    if choice.shape != (b_n,) or not np.all((choice >= -1)
                                            & (choice < u_n * p_n)):
        return "served frame has a malformed assignment"
    user_rates = [0.0] * u_n
    power = []
    for b, ch in enumerate(choice.tolist()):
        if ch >= 0:
            u, p = divmod(ch, p_n)
            user_rates[u] += float(rates[u, b, p])
            power.append(float(problem.power_levels_mw[p]))
    if not all(math.isfinite(r) for r in user_rates):
        return "served frame has non-finite user rates"
    if math.fsum(power) > problem.total_power_mw + 1e-9:
        return "served frame violates the power budget"
    if not math.isclose(outcome["total_rate"], sum(user_rates),
                        rel_tol=1e-9, abs_tol=1e-9):
        return "served frame total rate disagrees with its assignment"
    met = {}
    for user, rate in zip(problem.users, user_rates):
        met.setdefault(user.service.value, []).append(
            rate >= user.min_rate_bps - 1e-6)
    if outcome["per_class_satisfaction"] != {
            svc: sum(v) / len(v) for svc, v in sorted(met.items())}:
        return "served frame QoS satisfaction disagrees with its assignment"
    return ""


def canonical_digest(config, duration_s: float, report) -> str:
    from repro.scenarios import ScenarioPack, canonical_json, canonical_report

    pack = ScenarioPack(name="serve_burst", description="perfbench serve_burst",
                        duration_s=duration_s, seed=config.seed,
                        build=lambda: config)
    text = canonical_json(canonical_report(pack, report))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failed_ues(r: OpRecord) -> int:
    """Shed UEs, or every offered UE of a pass that failed a check."""
    return r.data["offered_ues"] if r.data["failed_pass"] else r.data["shed_ues"]


class ServeBurst:
    name = "serve_burst"

    def __init__(self, params: Params = Params()):
        self.p = params
        self.trace_ops = params.trace_ops

    def setup(self, seed: int) -> dict:
        from repro.serve import QoSService

        configs = [_config(self.p, sub_seed(seed, "pass", i))
                   for i in range(4 * self.p.trace_ops)]
        warm = QoSService(_config(self.p, WARMUP_SEED))
        warm.run(self.p.warmup_s, chaos=_chaos())
        return {"seed": seed, "configs": configs}

    def execute(self, state: dict, i: int, rec=None) -> dict:
        from repro.serve import QoSService

        configs = state["configs"]
        if i >= len(configs):
            configs.append(_config(self.p, sub_seed(state["seed"], "pass", i)))
        config = configs[i]
        service = QoSService(config)
        stamps = []

        def on_tick(_service):
            stamps.append(clock())
            if rec is not None:
                rec.boundary("serve.tick")

        with _FrameCapture() as capture:
            start = clock()
            report = service.run(self.p.duration_s, chaos=_chaos(),
                                 on_tick=on_tick)
            wall = clock() - start
        ticks = [b - a for a, b in zip([start] + stamps[:-1], stamps)]
        return {"wall": wall, "ticks": ticks, "report": report,
                "frames": capture.frames, "service": service,
                "config": config}

    def check(self, state: dict, i: int, raw: dict) -> OpRecord:
        report, service = raw["report"], raw["service"]
        problems = []
        queued = sum(s.queue.depth_ues() for s in service.shards)
        shed = sum(report.shed_ues.values())
        ok = fail(problems, report.total_offered_ues
                  == report.total_served_ues + shed + queued,
                  f"pass {i}: offered UEs != served + shed + queued")
        ok &= fail(problems, report.drained, f"pass {i}: did not drain")
        ok &= fail(problems, report.shed_ues.get("URLLC", 0) == 0,
                   f"pass {i}: URLLC UEs were shed")
        answered = report.frames - report.frames_dropped
        ok &= fail(problems, len(raw["frames"]) == answered,
                   f"pass {i}: {len(raw['frames'])} frames checked, "
                   f"{answered} answered")
        bad = 0
        for problem, outcome, choice in raw["frames"]:
            why = check_frame(problem, outcome, choice)
            if why:
                bad += 1
                problems.append(f"pass {i}: {why}")
        failed = report.frames if not ok else bad
        return OpRecord(
            wall_s=raw["wall"], units=answered,
            latencies_ms=[1e3 * t for t in raw["ticks"]],
            attempted=report.frames, failed=failed, problems=problems,
            data={
                "digest": canonical_digest(raw["config"], self.p.duration_s,
                                           report),
                "sim_s": service.now_s,
                "sim_p99_ms": 1e3 * report.latency_percentiles()["p99"],
                "offered_ues": report.total_offered_ues,
                "shed_ues": shed,
                "failed_pass": failed > 0,
            })

    def summaries(self, records) -> list:
        ticks = [t for r in records for t in r.latencies_ms]
        sim_p99 = [r.data["sim_p99_ms"] for r in records]
        return [
            rate_summary("frames_per_s", "1/s", records),
            rate_summary("realtime_factor", "ratio", records,
                         units=lambda r: r.data["sim_s"]),
            Summary("tick_p50_ms", "ms", percentile(ticks, 50), ticks),
            Summary("tick_p95_ms", "ms", percentile(ticks, 95), ticks),
            Summary("sim_p99_ms", "ms", percentile(sim_p99, 50), sim_p99),
            rate_summary("error_rate", "ratio", records,
                         units=_failed_ues,
                         wall=lambda r: r.data["offered_ues"]),
        ]

    def run_values(self, records) -> dict:
        offered = sum(r.data["offered_ues"] for r in records)
        return {
            "serve.sim_p99_ms": percentile(
                [r.data["sim_p99_ms"] for r in records], 50),
            "serve.shed_ue_ratio": (sum(r.data["shed_ues"] for r in records)
                                    / offered if offered else 0.0),
        }
