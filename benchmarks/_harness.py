"""Shared timing and result-persistence harness for the benchmark suite.

Every ``bench_*.py`` prints a human-readable table; this module adds the
machine-readable half: :func:`timed` wraps one measured callable and
:func:`write_bench_json` persists a benchmark's rows to
``benchmarks/results/BENCH_<name>.json`` so runs can be diffed across
commits without re-parsing stdout.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Tuple

from repro.obs import jsonable

#: where write_bench_json drops its files, next to the bench modules
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` once, returning ``(result, wall_seconds)``."""
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def write_bench_json(name: str, payload: Any, extra: dict | None = None) -> Path:
    """Persist one benchmark's results as ``BENCH_<name>.json``.

    ``payload`` is typically the list of row dicts the bench printed;
    ``extra`` adds top-level fields (parameters, derived aggregates).
    Returns the written path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    doc = {"benchmark": name, "rows": jsonable(payload)}
    if extra:
        doc.update(jsonable(extra))
    path = RESULTS_DIR / f"BENCH_{name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return path


def maybe_write_bench_json(request, name: str, payload: Any,
                           extra: dict | None = None) -> Path | None:
    """Write ``BENCH_<name>.json`` only when the run was invoked with
    ``--commit-results`` (see ``benchmarks/conftest.py``).

    Every bench funnels its persistence through this helper so the flag
    behaves uniformly: a plain ``pytest benchmarks/...`` run prints
    tables and leaves the tree clean, while ``--commit-results`` refreshes
    the committed snapshots.  Returns the path, or ``None`` when skipped.
    """
    if not request.config.getoption("--commit-results"):
        return None
    path = write_bench_json(name, payload, extra=extra)
    print(f"\nwrote {path}")
    return path


def best_of(fn: Callable[[], Any], repeats: int = 5) -> Tuple[Any, float]:
    """Run ``fn`` ``repeats`` times and return ``(last_result, best_wall_s)``.

    Best-of-k is the standard noise filter for micro-benchmarks: the
    minimum over repeats estimates the cost with the least scheduler and
    cache interference.
    """
    best = float("inf")
    value = None
    for _ in range(max(1, repeats)):
        value, elapsed = timed(fn)
        best = min(best, elapsed)
    return value, best
