"""verify_ladder: the hybrid exact/relaxed robustness verification vector.

One operation is one robustness spec on a fixed 2-6-6-2 ReLU network:
the spec goes through :func:`verify_resilient` (exact first, which
answers every spec at this size) and through each relaxed method on its
own, and every relaxed bound is scored against the exact one.  The 6-6
network keeps the exact solve's tail light: on a 2-8-8-2 network a few
eps = 0.2 specs take over a second each and the mean over a run stops
repeating across seeds.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

import numpy as np

from common import WARMUP_SEED, OpRecord, Summary, clock, fail, percentile, rate_summary, sub_seed

RELAXED = ("lp", "firstorder", "crown", "ibp")
EPS = (0.05, 0.1, 0.2)
NET_SEED = 3


@dataclass(frozen=True)
class Params:
    widths: tuple = (2, 6, 6, 2)
    pool: int = 1200
    warmup: int = 6
    trace_ops: int = 150


def make_net(widths, seed: int = NET_SEED):
    from repro.nn import Dense, ReLU, Sequential

    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(widths[:-1], widths[1:]):
        layers += [Dense(a, b, rng=rng), ReLU()]
    return Sequential(layers[:-1])


def make_specs(net, seed: int, n: int, start: int = 0):
    """Margin specs ``logit[label] - logit[other] > 0`` around seeded
    points, ``label`` being the network's own prediction."""
    from repro.verify import RobustnessSpec

    rng = np.random.default_rng(seed)
    n_in = net.layers[0].w.shape[0]
    x0s = rng.uniform(-1.0, 1.0, (start + n, n_in))[start:]
    logits = net.forward(x0s, training=False)
    specs = []
    for k, (x0, y) in enumerate(zip(x0s, logits)):
        label = int(np.argmax(y))
        c = np.zeros(y.size)
        c[label] = 1.0
        c[(label + 1) % y.size] = -1.0
        specs.append(RobustnessSpec(x0, EPS[(start + k) % len(EPS)], c))
    return specs


class VerifyLadder:
    name = "verify_ladder"

    def __init__(self, params: Params = Params()):
        self.p = params
        self.trace_ops = params.trace_ops
        self.verifier = importlib.import_module("repro.verify.verifier")

    def setup(self, seed: int) -> dict:
        net = make_net(self.p.widths)
        specs = make_specs(net, sub_seed(seed, "specs"), self.p.pool)
        for spec in make_specs(net, WARMUP_SEED, self.p.warmup):
            self._verify(net, spec)
        return {"seed": seed, "net": net, "specs": specs}

    def _verify(self, net, spec):
        from repro.exceptions import CertificationError

        ladder = self.verifier.verify_resilient(net, spec)
        bounds = {}
        for method in RELAXED:
            try:
                res = self.verifier.verify(net, spec, method=method)
                bounds[method] = res.margin_lower_bound
            except CertificationError:
                # certify-or-reject: a rejected bound proves nothing,
                # which is a sound answer, not an error
                bounds[method] = None
        return ladder, bounds

    def execute(self, state: dict, i: int, rec=None) -> dict:
        specs = state["specs"]
        if i >= len(specs):
            specs += make_specs(state["net"], sub_seed(state["seed"], "specs"),
                                len(specs), start=len(specs))
        start = clock()
        ladder, bounds = self._verify(state["net"], specs[i])
        return {"wall": clock() - start, "ladder": ladder, "bounds": bounds}

    def check(self, state: dict, i: int, raw: dict) -> OpRecord:
        ladder, bounds = raw["ladder"], raw["bounds"]
        problems = []
        ok = fail(problems, ladder.rung == "exact" and ladder.complete,
                  f"spec {i}: answered by {ladder.rung}, not a complete exact")
        exact = ladder.result.margin_lower_bound
        tol = 1e-6 * (1.0 + abs(exact))
        for method, bound in bounds.items():
            ok &= fail(problems, bound is None or bound <= exact + tol,
                       f"spec {i}: {method} bound {bound!r} above exact "
                       f"{exact!r}")
        exact_ok = exact > 0.0
        lp_ok = bounds["lp"] is not None and bounds["lp"] > 0.0
        return OpRecord(wall_s=raw["wall"], units=1,
                        latencies_ms=[1e3 * raw["wall"]], attempted=1,
                        failed=0 if ok else 1, problems=problems,
                        data={"digest": repr((ladder.rung, exact,
                                              sorted(bounds.items()))),
                              "exact_verified": exact_ok,
                              "lp_missed": exact_ok and not lp_ok})

    @staticmethod
    def _lp_fnr(records) -> float:
        proven = sum(r.data["exact_verified"] for r in records)
        return sum(r.data["lp_missed"] for r in records) / proven if proven else 0.0

    def summaries(self, records) -> list:
        spec_ms = [r.latencies_ms[0] for r in records]
        fnr = self._lp_fnr(records)
        return [
            rate_summary("verify_specs_per_s", "1/s", records),
            Summary("verify_spec_p50_ms", "ms", percentile(spec_ms, 50), spec_ms),
            Summary("verify_lp_fnr", "ratio", fnr, [fnr]),
        ]

    def run_values(self, records) -> dict:
        return {"verify.lp_fnr": self._lp_fnr(records)}
