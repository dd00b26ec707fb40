"""rra_exact: eMBB radio resource allocation solved to proven optimality.

One operation is one :func:`solve_rra_exact` call on the next instance
of the seed's stream (2 users x 4 blocks x 2 power levels, the
tutorial's 80 mW per block).  Instances of this size need tens to
hundreds of branch-and-bound nodes, past the serve rung's 60-node cap,
and are small enough that a run solves about two hundred of them:
solve times are bimodal (trees of about 20-35 or 60-115 nodes), so a
run needs that many for its mean and median to repeat across seeds.
Every optimum is checked against HiGHS through
:func:`scipy.optimize.milp`.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from common import WARMUP_SEED, OpRecord, Summary, clock, fail, percentile, rate_summary, sub_seed


#: eMBB users per instance
N_USERS = 2


@dataclass(frozen=True)
class Params:
    n_blocks: int = 4
    pool: int = 400
    warmup: int = 3
    trace_ops: int = 60


def make_problem(seed: int, n_blocks: int):
    from repro.qos import (ChannelConfig, ChannelModel, QoSRequirement,
                           RRAProblem, ServiceClass, UserSession)

    channel = ChannelModel(ChannelConfig(n_blocks=n_blocks),
                           rng=np.random.default_rng(seed))
    users = [UserSession(u, ServiceClass.EMBB,
                         QoSRequirement(1e5, 50.0, 0.99, 1))
             for u in range(N_USERS)]
    return RRAProblem(gains=channel.gains(N_USERS), users=users,
                      power_levels_mw=np.array([50.0, 100.0]),
                      total_power_mw=80.0 * n_blocks,
                      noise_mw=channel.noise_linear_mw)


def highs_optimum(problem) -> float:
    """The instance's optimal total rate by HiGHS, built from the rate
    table alone (independent of the program's MILP assembly)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    rates = problem.rate_table()              # (U, B, P)
    u_n, b_n, p_n = rates.shape
    n = rates.size
    rows, lo, hi = [], [], []
    for b in range(b_n):                      # one assignment per block
        row = np.zeros((u_n, b_n, p_n))
        row[:, b, :] = 1.0
        rows.append(row.ravel()); lo.append(-np.inf); hi.append(1.0)
    power = np.broadcast_to(problem.power_levels_mw, rates.shape)
    rows.append(power.ravel()); lo.append(-np.inf)
    hi.append(problem.total_power_mw)
    for u, floor in enumerate(problem.min_rates()):   # per-user rate floor
        row = np.zeros((u_n, b_n, p_n))
        row[u] = rates[u]
        rows.append(row.ravel()); lo.append(floor); hi.append(np.inf)
    res = milp(-rates.ravel(), integrality=np.ones(n),
               bounds=Bounds(0.0, 1.0),
               constraints=LinearConstraint(np.array(rows), lo, hi),
               options={"mip_rel_gap": 1e-12})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -float(res.fun)


class RRAExact:
    name = "rra_exact"

    def __init__(self, params: Params = Params()):
        self.p = params
        self.trace_ops = params.trace_ops
        self.qos = importlib.import_module("repro.qos.rra")

    def _problem(self, seed: int, i: int):
        return make_problem(sub_seed(seed, "instance", i), self.p.n_blocks)

    def setup(self, seed: int) -> dict:
        pool = [self._problem(seed, i) for i in range(self.p.pool)]
        for i in range(self.p.warmup):
            self.qos.solve_rra_exact(self._problem(WARMUP_SEED, i))
        return {"seed": seed, "pool": pool}

    def execute(self, state: dict, i: int, rec=None) -> dict:
        pool = state["pool"]
        if i >= len(pool):
            pool.append(self._problem(state["seed"], i))
        problem = pool[i]
        start = clock()
        result = self.qos.solve_rra_exact(problem)
        return {"wall": clock() - start, "problem": problem, "result": result}

    def check(self, state: dict, i: int, raw: dict) -> OpRecord:
        result, problem = raw["result"], raw["problem"]
        problems = []
        ok = fail(problems, bool(result.extra.get("converged")),
                  f"instance {i}: not proven optimal")
        ok &= fail(problems, result.qos_ok and result.power_ok,
                   f"instance {i}: answer is infeasible")
        ref = highs_optimum(problem)
        ok &= fail(problems, math.isclose(result.total_rate, ref, rel_tol=1e-6),
                   f"instance {i}: optimum {result.total_rate!r} "
                   f"!= HiGHS {ref!r}")
        return OpRecord(wall_s=raw["wall"], units=1,
                        latencies_ms=[1e3 * raw["wall"]], attempted=1,
                        failed=0 if ok else 1, problems=problems,
                        data={"digest": result.choice.tobytes().hex()})

    def summaries(self, records) -> list:
        solve_s = [r.wall_s for r in records]
        return [
            rate_summary("rra_solves_per_s", "1/s", records),
            Summary("rra_solve_p50_s", "s", percentile(solve_s, 50), solve_s),
        ]

    def run_values(self, records) -> dict:
        return {}
