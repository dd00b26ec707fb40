#!/usr/bin/env python
"""Perf regression gates: kernels, analyzer, serve, obs, signal, first-order.

Each gate replays one bench's pure ``measure_<name>()`` from
``benchmarks/bench_<name>.py`` and holds every row to limits computed
from the committed snapshot ``benchmarks/results/BENCH_<name>.json``.
The gates are declared as data in :data:`GATES`; one engine,
:func:`run_gate`, reads them.  Run from the repo root::

    PYTHONPATH=src python tools/bench_gate.py

The run fails (exit 1) if any gate fails.  A missing snapshot fails its
gate; it is never skipped.  The same gates are the ``perf``-marked
pytest test ``test_gate[<name>]`` (``pytest -m perf tools/bench_gate.py``),
never part of tier-1.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.util
import json
import operator
import os
import pathlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
RESULTS_DIR = BENCH_DIR / "results"

#: a limit or invariant: ``(field, comparison, bound)``; the row passes
#: when ``row[field] <comparison> bound`` holds
Limit = Tuple[str, str, float]
COMPARISONS = {">=": operator.ge, "<=": operator.le, "<": operator.lt,
               "==": operator.eq}


@dataclasses.dataclass(frozen=True)
class Gate:
    """One snapshot's gate, as data.

    ``limits(committed_row, snapshot)`` gives the triples a measured row
    must meet.  A row that misses one is re-measured up to ``retries``
    times, keeping the row whose ``best`` field is highest
    (``maximize``) or lowest, because wall-clock ratios carry scheduler
    noise while a real regression misses on every attempt.
    ``invariants`` hold on every row of every attempt and are never
    retried: one violation fails the gate.
    """

    name: str
    measure: Callable[[], List[dict]]
    key: Tuple[str, ...]
    best: str
    maximize: bool
    limits: Callable[[dict, dict], Sequence[Limit]]
    invariants: Tuple[Limit, ...] = ()
    retries: int = 2


def _load_bench_module(name: str):
    """Import a ``benchmarks/*.py`` module by path.

    The benchmarks directory is not a package, and bench modules import
    their siblings (``_harness``, ``conftest``) by bare name, so it goes
    on ``sys.path`` first.
    """
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    spec = importlib.util.spec_from_file_location(
        name, BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _replay(name: str) -> List[dict]:
    """Rows of ``benchmarks/bench_<name>.py``'s ``measure_<name>()``."""
    return getattr(_load_bench_module(f"bench_{name}"), f"measure_{name}")()


def _analysis_limits(row: dict, snapshot: dict) -> List[Limit]:
    # sub-100ms committed walls get an absolute floor on the ceiling: a
    # 50% margin on 20ms is pure scheduler noise, not a regression
    limits = [("wall_s", "<=", max(row["wall_s"] * 1.5, 0.1))]
    if (row["scope"], row["families"]) == ("src", "both"):
        # the full-src two-tier pass also stays under the tier-1 budget
        limits.append(("wall_s", "<", float(snapshot.get("cap_s", 10.0))))
    return limits


def _serve_limits(row: dict, snapshot: dict) -> List[Limit]:
    # one tick of absolute slack on p99 keeps near-zero baselines
    # meaningful; best-effort shed rates get 0.05 absolute slack
    return [("p99_latency_s", "<=", row["p99_latency_s"] * 1.25 + row["tick_s"]),
            ("shed_rate_eMBB", "<=", row["shed_rate_eMBB"] + 0.05),
            ("shed_rate_mMTC", "<=", row["shed_rate_mMTC"] + 0.05)]


def _firstorder_limits(row: dict, snapshot: dict) -> List[Limit]:
    # the batch families' headline claim is a hard 5x over the
    # per-problem rungs; the warm-start ratio has no hard floor
    hard = 0.0 if row["family"].startswith("box_qp_warm") else 5.0
    return [("speedup", ">=", max(row["speedup"] * 0.7, hard))]


GATES = (
    # kernel micro-benchmarks: speedup over the reference backend; a
    # drop means a kernel fell off its vectorized fast path
    Gate("kernels", functools.partial(_replay, "kernels"),
         key=("family",), best="speedup", maximize=True,
         limits=lambda row, snapshot: [("speedup", ">=", row["speedup"] * 0.75)]),
    # analyzer wall clock: noisier than speedup ratios, so a wider margin
    Gate("analysis", functools.partial(_replay, "analysis"),
         key=("scope", "families"), best="wall_s", maximize=False,
         limits=_analysis_limits),
    # serving soak on simulated time: bit-reproducible given the seed,
    # so never re-measured; URLLC shedding is a hard zero, not a ratio
    Gate("serve_soak", functools.partial(_replay, "serve_soak"),
         key=("scenario",), best="p99_latency_s", maximize=False,
         limits=_serve_limits,
         invariants=(("shed_rate_URLLC", "==", 0.0),), retries=0),
    # telemetry overhead: absolute budgets, not the committed ratio —
    # near 1.0 a relative diff is noise while the budget is the promise
    Gate("obs_overhead", functools.partial(_replay, "obs_overhead"),
         key=("mode",), best="ratio", maximize=False,
         limits=lambda row, snapshot: [("ratio", "<", float(row["budget"]))]),
    # streaming DSP speedup over its block oracle
    Gate("signal_streaming", functools.partial(_replay, "signal_streaming"),
         key=("family",), best="speedup", maximize=True,
         limits=lambda row, snapshot: [("speedup", ">=", row["speedup"] * 0.7)]),
    # first-order fast path: a certified answer that disagrees with the
    # reference rung means an uncertified answer was served
    Gate("firstorder", functools.partial(_replay, "firstorder"),
         key=("family",), best="speedup", maximize=True,
         limits=_firstorder_limits, invariants=(("miscertified", "==", 0),)),
)


def _miss(row: dict, limit: Limit):
    """How ``row`` misses ``limit``, or ``None`` when it meets it."""
    field, comparison, bound = limit
    if field in row and COMPARISONS[comparison](row[field], bound):
        return None
    return f"{field} {row.get(field)} misses {comparison} {bound:.4g}"


def run_gate(gate: Gate) -> List[str]:
    """Replay ``gate`` against its snapshot, print one table, and return
    failure strings; empty means the gate passes."""
    path = RESULTS_DIR / f"BENCH_{gate.name}.json"
    if not path.is_file():
        return [f"missing snapshot {os.path.relpath(path, REPO_ROOT)}"]
    snapshot = json.loads(path.read_text())
    committed = {tuple(row[f] for f in gate.key): row for row in snapshot["rows"]}
    limits = {key: gate.limits(row, snapshot) for key, row in committed.items()}
    better = operator.gt if gate.maximize else operator.lt
    failures: List[str] = []
    current: Dict[tuple, dict] = {}
    for attempt in range(gate.retries + 1):
        missed = [key for key in committed if key not in current
                  or any(_miss(current[key], lim) for lim in limits[key])]
        if not missed:
            break
        if attempt:
            print(f"(retry {attempt}: re-measuring {len(missed)} row(s) "
                  "that miss a limit)")
        for row in gate.measure():
            key = tuple(row.get(f) for f in gate.key)
            failures += [
                f"{gate.name} {'/'.join(map(str, key))}: {miss} "
                f"(invariant, attempt {attempt + 1})"
                for miss in (_miss(row, lim) for lim in gate.invariants) if miss]
            if key in missed and (key not in current or better(
                    row[gate.best], current[key][gate.best])):
                current[key] = row

    print(f"{gate.name + ' row':<28} {'field':<16} {'committed':>10} "
          f"{'current':>10}   limit")
    for key, base in committed.items():
        label = "/".join(map(str, key))
        row = current.get(key)
        if row is None:
            failures.append(f"{gate.name} {label}: missing from measurement")
            continue
        for field, comparison, bound in limits[key]:
            print(f"{label:<28} {field:<16} {base[field]:>10.4g} "
                  f"{row.get(field, float('nan')):>10.4g}   "
                  f"{comparison} {bound:.4g}")
            miss = _miss(row, (field, comparison, bound))
            if miss:
                failures.append(f"{gate.name} {label}: {miss} "
                                f"(committed {base[field]:.4g})")
    return failures


try:
    import pytest
except ImportError:  # CLI-only environments don't need the pytest shim
    pytest = None

if pytest is not None:
    @pytest.mark.perf
    @pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
    def test_gate(gate):
        """Perf-marked entry point (``pytest -m perf tools/bench_gate.py``);
        excluded from tier-1 by both the marker and ``testpaths``."""
        failures = run_gate(gate)
        assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    failures = []
    for gate in GATES:
        print()
        failures += run_gate(gate)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("bench gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
