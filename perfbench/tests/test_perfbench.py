"""The benchmark's own tests: tiny runs of every workload through every
check, the checks catching corrupted outputs, and the span arithmetic.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import rra_exact  # noqa: E402
import serve_burst  # noqa: E402
import stft_frontend  # noqa: E402
import verify_ladder  # noqa: E402
from common import digest_mismatches  # noqa: E402
from tracing import SpanRecorder, Target, covered, install, self_times, uninstall  # noqa: E402

TINY = {
    "serve_burst": lambda: serve_burst.ServeBurst(serve_burst.Params(
        n_cells=2, duration_s=1.0, warmup_s=0.2, trace_ops=1)),
    "rra_exact": lambda: rra_exact.RRAExact(rra_exact.Params(
        n_blocks=3, pool=3, warmup=1, trace_ops=2)),
    "verify_ladder": lambda: verify_ladder.VerifyLadder(verify_ladder.Params(
        widths=(2, 4, 4, 2), pool=4, warmup=1, trace_ops=3)),
    "stft_frontend": lambda: stft_frontend.STFTFrontend(stft_frontend.Params(
        segment=2048, chunk=512, pool=2, warmup_segment=512, trace_ops=1)),
}


def _one_op(name, seed=5):
    workload = TINY[name]()
    state = workload.setup(seed)
    raw = workload.execute(state, 0)
    return workload, state, raw


# ---- span arithmetic --------------------------------------------------------

class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_a_hand_built_tree():
    #   a [0, 10]
    #     b [1, 4]
    #       c [2, 3]
    #     d [5, 9]
    rec = SpanRecorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    a = rec.open("a")
    b = rec.open("b")
    c = rec.open("c")
    rec.close(c)
    rec.close(b)
    d = rec.open("d")
    rec.close(d)
    rec.close(a)
    assert [s[3] for s in rec.spans] == [-1, a, b, a]
    assert self_times(rec.spans) == [10 - 3 - 4, 3 - 1, 1, 4]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([], 0, 10) == 0


def test_boundary_spans_nest_under_their_enclosing_span():
    rec = SpanRecorder(clock=FakeClock(range(100)))
    run_idx = rec.open("run")
    rec.open("tick")
    rec.close(rec.open("work"))
    rec.boundary("tick")
    rec.close(rec.open("work"))
    rec.rename_top("tick", "report")
    rec.close(run_idx)
    names = [(s[0], s[3]) for s in rec.spans]
    assert names == [("run", -1), ("tick", 0), ("work", 1), ("report", 0),
                     ("work", 3)]


def test_an_exception_closes_the_spans_it_unwinds():
    rec = SpanRecorder(clock=FakeClock(range(100)))
    outer = rec.open("outer")
    rec.open("inner")            # never closed by its own wrapper
    rec.close(outer)
    assert all(s[2] is not None for s in rec.spans) and not rec.stack


def test_install_wraps_every_binding_and_uninstall_restores():
    pkg = types.ModuleType("fakepkg")
    lib = types.ModuleType("fakepkg.lib")
    user = types.ModuleType("fakepkg.user")

    def square(x):
        return x * x

    class Box:
        def get(self):
            return 7

    lib.square, lib.Box, user.square = square, Box, square
    sys.modules.update({"fakepkg": pkg, "fakepkg.lib": lib,
                        "fakepkg.user": user})
    try:
        rec = SpanRecorder()
        patches = install([
            Target("fakepkg.lib", "square", "sq",
                   attrs=lambda a, k, r: {"out": r}),
            Target("fakepkg.lib", "Box.get", "box.get"),
        ], rec, package="fakepkg")
        assert user.square(3) == 9 and Box().get() == 7
        assert [(s[0], s[5]) for s in rec.spans] == [("sq", {"out": 9}),
                                                     ("box.get", None)]
        # a module imported while the wrappers are in place binds one
        late = types.ModuleType("fakepkg.late")
        late.square = lib.square
        sys.modules["fakepkg.late"] = late
        uninstall(patches, package="fakepkg")
        assert user.square is square and lib.square is square
        assert late.square is square
        assert Box.__dict__["get"].__name__ == "get" and Box().get() == 7
    finally:
        for name in ("fakepkg", "fakepkg.lib", "fakepkg.user", "fakepkg.late"):
            sys.modules.pop(name, None)


# ---- every workload, tiny, through its checks -----------------------------

@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_every_check(name):
    workload = TINY[name]()
    result = run.measure(workload, seed=3, seconds=0.01, trace=False)
    records = result["records"]
    assert records and all(r.failed == 0 and not r.problems for r in records)
    metrics = run.report(workload, 3, 0.01, False, result)
    assert set(metrics) == {m["name"] for m in _benchmark()["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_per_layer_metric(name, capsys):
    workload = TINY[name]()
    result = run.measure(workload, seed=3, seconds=0.01, trace=True)
    assert all(r.failed == 0 for r in result["records"]), \
        [p for r in result["records"] for p in r.problems]
    per_layer = result["per_layer"]
    assert list(per_layer) == [m["name"] for m in _benchmark()["per_layer"]]
    capsys.readouterr()
    metrics = run.report(workload, 3, 0.01, True, result)
    assert list(metrics) == list(per_layer)
    # the end-to-end figures of the plain runs are printed too
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
               if line.strip()]
    assert set(run.END_TO_END) <= set(printed)
    assert per_layer["trace.overhead_ratio"][0] > 0
    touched = {
        "serve_burst": ("serve.ticks", "lp.solves", "map_solve.calls",
                        "ladder.answered.exact-bnb", "rra.exact.calls"),
        "rra_exact": ("lp.solves", "milp.solves", "bnb.nodes_per_solve",
                      "rra.to_milp_ms"),
        "verify_ladder": ("verify.exact.calls", "verify.ibp.calls",
                          "verify.firstorder.calls", "lp.solves"),
        "stft_frontend": ("fft.calls", "stft.frame_signal_ms",
                          "stream.decimate_ms", "stream.stft_ms"),
    }[name]
    assert all(per_layer[m][0] > 0 for m in touched)
    if name == "stft_frontend":
        assert per_layer["lp.solves"][0] == 0


def test_same_seed_same_inputs_and_outputs():
    for name in ("rra_exact", "verify_ladder", "stft_frontend"):
        records = []
        for _ in range(2):
            workload = TINY[name]()
            state = workload.setup(9)
            records.append([workload.check(state, 0,
                                           workload.execute(state, 0))])
        assert not digest_mismatches(*records)


def test_serve_checks_catch_a_bad_pass():
    workload, state, raw = _one_op("serve_burst")
    assert not workload.check(state, 0, raw).problems
    report = raw["report"]
    report.shed_ues["URLLC"] = 1
    report.drained = False
    rec = workload.check(state, 0, raw)
    text = " ".join(rec.problems)
    assert "URLLC" in text and "drain" in text and "offered" in text
    assert rec.failed == report.frames


def test_serve_frame_check_recomputes_each_served_frame():
    workload, state, raw = _one_op("serve_burst")
    problem, outcome, choice = next(
        frame for frame in raw["frames"] if np.any(frame[2] >= 0))
    check = serve_burst.check_frame
    assert check(problem, outcome, choice) == ""
    assert "no assignment" in check(problem, outcome, None)
    assert "malformed" in check(problem, outcome, np.append(choice, -1))
    over = np.where(choice >= 0, problem.n_users * problem.n_levels, -1)
    assert "malformed" in check(problem, outcome, over)
    assert "power" in check(dataclasses.replace(
        problem, total_power_mw=1e-3), outcome, choice)
    assert "non-finite" in check(dataclasses.replace(
        problem, gains=np.full_like(problem.gains, np.inf)), outcome, choice)
    assert "total rate" in check(
        problem, {**outcome, "total_rate": outcome["total_rate"] * 1.01},
        choice)
    assert "satisfaction" in check(
        problem, {**outcome, "per_class_satisfaction": {"eMBB": -1.0}},
        choice)
    # the pass check counts a frame whose served answer is wrong
    raw["frames"][0] = (problem, {**outcome, "total_rate": -1.0}, choice)
    record = workload.check(state, 0, raw)
    assert record.failed == 1 and "total rate" in " ".join(record.problems)


def test_rra_check_catches_a_wrong_optimum():
    workload, state, raw = _one_op("rra_exact")
    assert not workload.check(state, 0, raw).problems
    result = raw["result"]
    raw["result"] = dataclasses.replace(
        result, total_rate=result.total_rate * (1 - 1e-4),
        extra={**result.extra, "converged": False})
    record = workload.check(state, 0, raw)
    text = " ".join(record.problems)
    assert "instance 0: optimum" in text and "HiGHS" in text
    assert "not proven optimal" in text and record.failed == 1


def test_highs_reference_matches_exact_on_a_known_instance():
    from repro.qos import solve_rra_exact

    problem = rra_exact.make_problem(0, 3)
    assert math.isclose(rra_exact.highs_optimum(problem),
                        solve_rra_exact(problem).total_rate, rel_tol=1e-9)


def test_verify_check_catches_a_relaxed_bound_above_exact():
    workload, state, raw = _one_op("verify_ladder")
    assert not workload.check(state, 0, raw).problems
    exact = raw["ladder"].result.margin_lower_bound
    raw["bounds"]["crown"] = exact + 1.0
    text = " ".join(workload.check(state, 0, raw).problems)
    assert "crown bound" in text


def test_stft_checks_catch_numeric_and_bitwise_drift():
    workload, state, raw = _one_op("stft_frontend")
    assert not workload.check(state, 0, raw).problems
    raw["block"][0].coefficients[3, 2] += 1e-6
    raw["streamed"].coefficients[1, 1] = np.nextafter(
        raw["streamed"].coefficients[1, 1].real, np.inf)
    text = " ".join(workload.check(state, 0, raw).problems)
    assert "time_invariant STFT off numpy.fft" in text
    assert "differs from the block path" in text


def test_numpy_reference_matches_numpy_directly_for_one_frame():
    s = np.arange(10.0)
    g = np.ones(4)
    ref = stft_frontend.numpy_stft(s, g, 4, "simplified")
    assert np.allclose(ref[:, 1], np.fft.fft(s[4:8]))


# ---- the benchmark definition ---------------------------------------------

def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    bench = _benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(TINY)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == layers.PER_LAYER
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)) and len(bench["per_layer"]) <= 128


def test_design_notes_name_only_known_metrics_and_workloads():
    bench = _benchmark()
    design = json.loads((BENCH / "design.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert set(design["workloads"]) == workloads
    listed = set()
    for p in design["predictions"]:
        listed.update(p["metrics"])
        for metric, workload in p["moves"] + p["no_move"]:
            assert metric in metrics and workload in workloads
    assert listed <= metrics
    assert {g["name"] for g in design["gaps"]} == {
        "lp_pivots", "serve_tick_stages", "ladder_attempts"}


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rra_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
