"""The repository benchmark: four seeded workloads through the public API.

    python3 perfbench/run.py --workload serve_burst --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``;
nothing is installed.  ``--trace 0`` measures the end-to-end metrics
with no instrumentation.  ``--trace 1`` runs a fixed list of operations
(for at most about ``--seconds``), each once plain and once with the
public functions of every layer wrapped (see ``layers.py``), and reports
the per-layer metrics and the tracing overhead; the spans are written
to ``perfbench/out/``.

The report lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per untraced run; ``setup_s`` is their median, each scaled
#: to the reference machine speed like the operations' times
SETUPS = 5


def _load_workloads() -> dict:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no program source under {src}")
    sys.path.insert(0, str(src))
    from rra_exact import RRAExact
    from serve_burst import ServeBurst
    from stft_frontend import STFTFrontend
    from verify_ladder import VerifyLadder

    return {w.name: w for w in (ServeBurst, RRAExact, VerifyLadder,
                                STFTFrontend)}


def _run_op(workload, state, i, rec=None):
    """Execute and check operation ``i``; an exception fails the op."""
    from common import OpRecord, clock

    start = clock()
    try:
        raw = workload.execute(state, i, rec)
    except Exception as exc:  # the program raised: a failed operation
        return None, OpRecord(clock() - start, 0, [], 1, 1,
                              [f"op {i}: {type(exc).__name__}: {exc}"])
    return raw, None


def run_window(workload, state, seconds: float = math.inf,
               max_ops: int = 0, rec=None) -> tuple:
    """Run operations 0, 1, ... until ``seconds`` pass (at least one) or
    ``max_ops`` are done; returns their checked records, and the records
    of their traced runs.

    The calibration kernel runs between operations, once per 100 ms of
    the operation before it (about 1% of the window).  An operation's
    slowdown is the median kernel time within a second of it, over the
    reference time: the machine's speed drifts by 15-30% over seconds to
    minutes, and this takes most of that out.

    With ``rec``, every operation runs twice, plain and with every layer
    wrapped (see ``layers.py``), the two in alternating order so that
    warm-up and drift fall on both alike.  A traced run is checked after
    the wrappers are removed, so the checks add no spans.
    """
    from common import CALIBRATION_REF_S, calibration_times, clock
    from layers import TARGETS
    from tracing import install, uninstall

    plain, traced, timed, samples = [], [], [], []

    def sample(n: int) -> None:
        now = clock()
        samples.extend((now, t) for t in calibration_times(n))

    def one(i: int, tracing: bool):
        patches = install(TARGETS, rec) if tracing else []
        if tracing:
            rec.op = i
        start = clock()
        try:
            raw, failed = _run_op(workload, state, i,
                                  rec if tracing else None)
        finally:
            uninstall(patches)
        end = clock()
        record = failed or workload.check(state, i, raw)
        timed.append((record, start, end))
        sample(1 + int(record.wall_s / 0.1))
        (traced if tracing else plain).append(record)

    sample(5)
    deadline = clock() + seconds
    while True:
        i = len(plain)
        order = (False, True) if i % 2 == 0 else (True, False)
        for tracing in (order if rec else (False,)):
            one(i, tracing)
        if len(plain) == max_ops or clock() >= deadline:
            break
    for record, start, end in timed:
        near = [t for at, t in samples if start - 1.0 <= at <= end + 1.0]
        record.slowdown = statistics.median(near) / CALIBRATION_REF_S
    return plain, traced


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then run the operations, traced too with ``trace``."""
    from common import (CALIBRATION_REF_S, calibration_times, clock,
                        digest_mismatches, normalized_wall, rate)

    setup_s = []
    for _ in range(1 if trace else SETUPS):
        before = calibration_times(3)
        start = clock()
        state = workload.setup(seed)
        elapsed = clock() - start
        slowdown = (statistics.median(before + calibration_times(3))
                    / CALIBRATION_REF_S)
        setup_s.append((elapsed, elapsed / slowdown))
    if not trace:
        plain, _ = run_window(workload, state, seconds)
        return {"setup_s": setup_s, "records": plain}

    from layers import SpanIndex, per_layer_metrics
    from tracing import SpanRecorder, self_times

    rec = SpanRecorder()
    plain, traced = run_window(workload, state, seconds,
                               workload.trace_ops, rec)
    mismatches = digest_mismatches(plain, traced)
    traced[0].problems.extend(mismatches)
    traced[0].failed += len(mismatches)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    rec.write(str(out_dir / f"trace-{workload.name}-seed{seed}.jsonl"))
    run_values = workload.run_values(traced)
    base = rate(plain, wall=normalized_wall)
    run_values["trace.overhead_ratio"] = (
        base / rate(traced, wall=normalized_wall) if base else 0.0)
    return {"setup_s": setup_s, "records": plain + traced,
            "summary_records": plain,
            "per_layer": per_layer_metrics(
                SpanIndex(rec.spans, self_times(rec.spans)), run_values)}


def _fmt(v: float) -> str:
    return f"{v:.6g}"


#: the end-to-end metrics of ``BENCHMARK.json``.  Times are scaled to
#: the reference machine speed (see ``run_window``); the as-measured
#: values are printed next to them.
END_TO_END = ("setup_s", "throughput_norm_per_s", "latency_p50_norm_ms")


def report(workload, seed, seconds, trace, result) -> dict:
    """Print the human-readable report; return the contract metrics: the
    end-to-end ones, or with ``trace`` the per-layer ones."""
    from common import (Summary, normalized_latencies, normalized_wall,
                        percentile, rate, rate_summary)

    records = result["records"]
    print(f"perfbench {workload.name} seed={seed} seconds={seconds} "
          f"trace={int(trace)} ops={len(records)}")
    setup = [normalized for _, normalized in result["setup_s"]]
    # in a traced run, the end-to-end rows are those of the plain runs
    timed = result.get("summary_records", records)
    ok = [r for r in timed if r.latencies_ms]
    latencies = normalized_latencies(ok)
    rows = [Summary("setup_s", "s", statistics.median(setup), setup),
            rate_summary("throughput_norm_per_s", "1/s", ok,
                         wall=normalized_wall),
            Summary("latency_p50_norm_ms", "ms",
                    percentile(latencies, 50) if latencies else 0.0,
                    latencies)]
    if ok:
        rows += workload.summaries(ok)
    if not any(s.name == "error_rate" for s in rows):
        attempted = sum(r.attempted for r in records)
        failed = sum(r.failed for r in records)
        rows.append(Summary("error_rate", "ratio",
                            failed / attempted if attempted else 0.0,
                            [r.failed / r.attempted for r in records]))
    print(f"{'metric':<24} {'unit':<6} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>6}")
    for s in rows:
        q1, q2, q3 = s.quartiles()
        print(f"{s.name:<24} {s.unit:<6} {_fmt(s.value):>12} {_fmt(q2):>12} "
              f"{_fmt(q1):>12} {_fmt(q3):>12} {len(s.samples):>6}")
    raw = [t for r in ok for t in r.latencies_ms]
    raw_setup = statistics.median(t for t, _ in result["setup_s"])
    print(f"as measured: set-up {_fmt(raw_setup)} s, "
          f"throughput {_fmt(rate(ok))}/s, latency p50 "
          f"{_fmt(percentile(raw, 50) if raw else 0.0)} ms; median machine "
          f"slowdown vs reference "
          f"{_fmt(statistics.median(r.slowdown for r in ok) if ok else 1.0)}")
    for r in records:
        for problem in r.problems:
            print(f"CHECK FAILED: {problem}")
    if trace:
        print(f"{'per-layer metric':<34} {'unit':<6} {'value':>14}")
        for name, (value, unit) in result["per_layer"].items():
            print(f"{name:<34} {unit:<6} {_fmt(value):>14}")
        return {n: {"value": v, "unit": u}
                for n, (v, u) in result["per_layer"].items()}
    return {s.name: {"value": s.value, "unit": s.unit}
            for s in rows if s.name in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # one BLAS thread, set before numpy loads: the benchmark measures the
    # program's own serial work, and idle BLAS threads spin on the cores
    # the main thread runs on
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        workloads = _load_workloads()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    workload = workloads[args.workload]()
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("perfbench: the workload could not be set up", file=sys.stderr)
        return 1
    metrics = report(workload, args.seed, args.seconds, bool(args.trace),
                     result)
    records = result["records"]
    failed = sum(r.failed for r in records)
    problems = any(r.problems for r in records)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": sum(r.attempted for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
