"""The perf gate engine in ``tools/bench_gate.py``.

Gates run on snapshots written under ``tmp_path`` and on scripted
``measure`` callables, so no benchmark module is imported or timed.
The bound-pinning tests hold the gate table to the committed snapshots.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import pathlib
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_gate", REPO / "tools" / "bench_gate.py")
bench_gate = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench_gate  # dataclasses resolve annotations through it
_spec.loader.exec_module(bench_gate)
GATES = {gate.name: gate for gate in bench_gate.GATES}


class Scripted:
    """A ``measure`` stand-in returning one scripted row list per call
    (the last list repeats once the script runs out)."""

    def __init__(self, *attempts):
        self.attempts = attempts
        self.calls = 0

    def __call__(self):
        rows = self.attempts[min(self.calls, len(self.attempts) - 1)]
        self.calls += 1
        return [dict(row) for row in rows]


@pytest.fixture
def run(tmp_path, monkeypatch):
    """``run(name, committed_rows, *attempts)`` -> (failures, measure calls)."""
    monkeypatch.setattr(bench_gate, "RESULTS_DIR", tmp_path)

    def _run(name, committed, *attempts, **extra):
        snapshot = {"benchmark": name, "rows": committed, **extra}
        (tmp_path / f"BENCH_{name}.json").write_text(json.dumps(snapshot))
        measure = Scripted(*attempts)
        gate = dataclasses.replace(GATES[name], measure=measure)
        return bench_gate.run_gate(gate), measure.calls

    return _run


KERNELS = [{"family": "gram", "speedup": 4.0},
           {"family": "crown", "speedup": 30.0}]


def _kernels(gram, crown=31.0):
    return [{"family": "gram", "speedup": gram},
            {"family": "crown", "speedup": crown}]


def _firstorder(speedup, miscertified=0):
    return {"family": "sdp_b256", "speedup": speedup,
            "miscertified": miscertified}


SERVE = {"scenario": "chaos-burst", "tick_s": 0.1, "p99_latency_s": 0.98,
         "shed_rate_URLLC": 0.0, "shed_rate_eMBB": 0.0,
         "shed_rate_mMTC": 0.08}


class TestEngine:
    def test_all_rows_pass(self, run):
        assert run("kernels", KERNELS, _kernels(3.5)) == ([], 1)

    def test_floor_miss_recovered_by_retry(self, run):
        # gram's floor is 0.75 * 4.0 = 3.0
        assert run("kernels", KERNELS, _kernels(2.0), _kernels(3.2)) == ([], 2)

    def test_persistent_miss_fails_after_every_attempt(self, run):
        failures, calls = run("kernels", KERNELS, _kernels(2.9))
        assert calls == GATES["kernels"].retries + 1 == 3
        assert len(failures) == 1 and failures[0].startswith("kernels gram: speedup")

    def test_best_of_keeps_the_best_attempt(self, run):
        # a worse retry does not replace a better (still failing) row
        failures, _ = run("kernels", KERNELS, _kernels(2.5), _kernels(1.0))
        assert "speedup 2.5 misses >= 3" in failures[0]

    def test_row_missing_from_measurement_fails(self, run):
        failures, calls = run("kernels", KERNELS, _kernels(3.5)[:1])
        assert failures == ["kernels crown: missing from measurement"]
        assert calls == 3  # a missing row is retried like a miss

    def test_missing_snapshot_fails(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_gate, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(bench_gate, "RESULTS_DIR",
                            tmp_path / "benchmarks" / "results")
        measure = Scripted(_kernels(3.5))
        gate = dataclasses.replace(GATES["signal_streaming"], measure=measure)
        assert bench_gate.run_gate(gate) == [
            "missing snapshot benchmarks/results/BENCH_signal_streaming.json"]
        assert measure.calls == 0

    def test_serve_is_never_remeasured(self, run):
        slow = dict(SERVE, p99_latency_s=1.4)  # ceiling 0.98 * 1.25 + 0.1
        failures, calls = run("serve_soak", [SERVE], [slow])
        assert calls == 1
        assert len(failures) == 1 and "p99_latency_s 1.4 misses <= 1.325" in failures[0]

    def test_serve_urllc_shed_is_a_hard_zero(self, run):
        assert run("serve_soak", [SERVE], [SERVE]) == ([], 1)
        failures, _ = run("serve_soak", [SERVE],
                          [dict(SERVE, shed_rate_URLLC=1e-4)])
        assert len(failures) == 1 and "shed_rate_URLLC" in failures[0]

    @pytest.mark.parametrize("ratio, ok", [(1.1499, True), (1.15, False)])
    def test_obs_budget_is_strict(self, run, ratio, ok):
        committed = [{"mode": "recording_windowed", "ratio": 0.93, "budget": 1.15}]
        failures, _ = run("obs_overhead", committed,
                          [dict(committed[0], ratio=ratio)])
        assert (failures == []) == ok

    def test_analysis_cap_is_strict(self, run):
        committed = [{"scope": "src", "families": "both", "wall_s": 8.0}]
        failures, calls = run("analysis", committed,
                              [dict(committed[0], wall_s=10.0)], cap_s=10.0)
        assert calls == 3
        assert failures == ["analysis src/both: wall_s 10.0 misses < 10 "
                            "(committed 8)"]

    @pytest.mark.parametrize("attempts", [
        # attempt 1 misses the floor; the faster retry served a wrong answer
        [[_firstorder(8.0)], [_firstorder(10.0, miscertified=1)]],
        # the bad row is never kept (slower), but it still fails the gate
        [[_firstorder(8.0)], [_firstorder(7.0, miscertified=1)], [_firstorder(10.0)]],
    ])
    def test_firstorder_miscertified_on_retry_fails(self, run, attempts):
        committed = [_firstorder(12.9)]  # floor max(0.7 * 12.9, 5.0) = 9.03
        failures, calls = run("firstorder", committed, *attempts)
        assert calls == len(attempts)
        assert len(failures) == 1
        assert "miscertified 1 misses == 0 (invariant, attempt 2)" in failures[0]


def _committed(name):
    return json.loads((REPO / "benchmarks" / "results" / f"BENCH_{name}.json").read_text())


def _limits(name, snapshot):
    gate = GATES[name]
    return {tuple(row[f] for f in gate.key): list(gate.limits(row, snapshot))
            for row in snapshot["rows"]}


class TestBounds:
    """The table reproduces the bounds the per-gate checks used to hold."""

    def test_kernels(self):
        snapshot = _committed("kernels")
        assert _limits("kernels", snapshot) == {
            (r["family"],): [("speedup", ">=", r["speedup"] * (1.0 - 0.25))]
            for r in snapshot["rows"]}

    def test_signal_streaming(self):
        # no committed snapshot yet: pin the 30% margin on a synthetic row
        snapshot = {"rows": [{"family": "overlap_save", "speedup": 2.0}]}
        assert _limits("signal_streaming", snapshot) == {
            ("overlap_save",): [("speedup", ">=", 2.0 * (1.0 - 0.3))]}

    def test_firstorder(self):
        snapshot = _committed("firstorder")
        limits = _limits("firstorder", snapshot)
        for r in snapshot["rows"]:
            hard = 0.0 if r["family"].startswith("box_qp_warm") else 5.0
            assert limits[(r["family"],)] == [
                ("speedup", ">=", max(r["speedup"] * (1.0 - 0.3), hard))]
        assert limits[("box_qp_warm_b256",)][0][2] < 5.0
        assert GATES["firstorder"].invariants == (("miscertified", "==", 0),)

    def test_analysis(self):
        snapshot = _committed("analysis")
        limits = _limits("analysis", snapshot)
        for r in snapshot["rows"]:
            expected = [("wall_s", "<=", max(r["wall_s"] * (1.0 + 0.5), 0.1))]
            if (r["scope"], r["families"]) == ("src", "both"):
                expected.append(("wall_s", "<", snapshot["cap_s"]))
            assert limits[(r["scope"], r["families"])] == expected

    def test_serve_soak(self):
        snapshot = _committed("serve_soak")
        assert _limits("serve_soak", snapshot) == {
            (r["scenario"],): [
                ("p99_latency_s", "<=", r["p99_latency_s"] * (1.0 + 0.25) + r["tick_s"]),
                ("shed_rate_eMBB", "<=", r["shed_rate_eMBB"] + 0.05),
                ("shed_rate_mMTC", "<=", r["shed_rate_mMTC"] + 0.05)]
            for r in snapshot["rows"]}
        gate = GATES["serve_soak"]
        assert gate.invariants == (("shed_rate_URLLC", "==", 0.0),)
        assert gate.retries == 0

    def test_obs_overhead(self):
        snapshot = _committed("obs_overhead")
        assert _limits("obs_overhead", snapshot) == {
            (r["mode"],): [("ratio", "<", r["budget"])] for r in snapshot["rows"]}

    def test_every_gate_is_pinned(self):
        pinned = {name[len("test_"):] for name in vars(TestBounds)
                  if name.startswith("test_") and name != "test_every_gate_is_pinned"}
        assert pinned == set(GATES)
