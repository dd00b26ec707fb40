"""What every workload shares: seeds, op records, summaries and the
calibration kernel that gauges the machine's speed.

A workload is a class with

* ``setup(seed) -> state`` — builds inputs from the seed alone,
  constructs what the operations need and runs a warm-up pass;
* ``execute(state, i, rec) -> raw`` — runs operation ``i`` of the
  seed's operation stream and times only the program's work;
* ``check(state, i, raw) -> OpRecord`` — checks the outputs, untimed;
* ``summaries(records) -> [Summary]`` — the workload's own end-to-end
  metrics, printed in the report;
* ``run_values(records) -> dict`` — behaviour metrics for the traced run.

``execute`` and ``check`` are separate so that in the traced run the
checks run after the wrappers are removed and add no spans.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

clock = time.perf_counter

#: warm-up inputs use this seed, not the workload seed, so set-up does
#: the same work whatever the seed
WARMUP_SEED = 0

#: the calibration kernel's time on the reference machine: normalized
#: metrics read as if measured on a machine where it takes this long
CALIBRATION_REF_S = 1.0e-3

_CAL_V = np.linspace(0.0, 1.0, 48)
_CAL_M = np.eye(24) * 0.5 + 0.01
_CAL_T = np.random.default_rng(0).uniform(0.1, 1.0, (24, 48))


def calibration_kernel() -> float:
    """A fixed mix of interpreter work, small numpy calls and dense
    tableau pivots, the same kinds of work as the program's hot loops,
    for gauging how fast the machine is running right now (about 1 ms on
    the reference machine)."""
    total = 0.0
    table: dict = {}
    for i in range(700):
        table[i % 97] = table.get(i % 97, 0) + i
        total += i * 0.5
    v, m = _CAL_V, _CAL_M
    for _ in range(25):
        v = np.roll(v, 1) * 0.999 + 0.001
        total += float(v @ _CAL_V)
        m = _CAL_M @ _CAL_M
    t = _CAL_T.copy()
    for k in range(10):
        row, col = k % 24, (7 * k) % 48
        t[row] /= t[row, col]
        mask = np.abs(t[:, col]) > 1e-9
        mask[row] = False
        t[mask] -= np.outer(t[mask, col], t[row])
    return total + float(m[0, 0]) + float(t[0, 0])


def calibration_times(n: int) -> List[float]:
    """Times of ``n`` calibration kernel runs."""
    times = []
    for _ in range(n):
        start = clock()
        calibration_kernel()
        times.append(clock() - start)
    return times


def normalized_wall(r: OpRecord) -> float:
    """An operation's time scaled to the reference machine speed."""
    return r.wall_s / r.slowdown


def normalized_latencies(records: Sequence[OpRecord]) -> List[float]:
    return [t / r.slowdown for r in records for t in r.latencies_ms]


def sub_seed(seed: int, *keys) -> int:
    """A 32-bit seed derived from the workload seed and a key path."""
    text = repr((int(seed),) + keys).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little")


@dataclass
class OpRecord:
    """One operation's timing and check outcome."""

    wall_s: float
    units: int
    latencies_ms: List[float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    #: how much slower than the reference the machine ran this operation:
    #: the calibration kernel's median time just before and just after it
    #: over :data:`CALIBRATION_REF_S`
    slowdown: float = 1.0


@dataclass
class Summary:
    """One end-to-end metric: an aggregate value plus its per-sample
    distribution (median and quartiles) and sample count."""

    name: str
    unit: str
    value: float
    samples: Sequence[float]

    def quartiles(self):
        vals = sorted(self.samples)
        if len(vals) >= 2:
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            return q1, q2, q3
        v = vals[0] if vals else float("nan")
        return v, v, v


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def rate(records: Sequence[OpRecord], units=lambda r: r.units,
         wall=lambda r: r.wall_s, scale: float = 1.0) -> float:
    """Throughput: ``scale`` x units per second of timed work."""
    total_wall = sum(wall(r) for r in records)
    return (scale * sum(units(r) for r in records) / total_wall
            if total_wall > 0 else 0.0)


def rate_summary(name: str, unit: str, records: Sequence[OpRecord],
                 units=lambda r: r.units, scale: float = 1.0,
                 wall=lambda r: r.wall_s) -> Summary:
    """Aggregate :func:`rate` with the per-operation rates as samples."""
    return Summary(name, unit, rate(records, units, wall, scale),
                   [rate([r], units, wall, scale) for r in records
                    if wall(r) > 0])


def digest_mismatches(first: Sequence[OpRecord],
                      second: Sequence[OpRecord]) -> List[str]:
    """Operations whose output digest differs between two runs."""
    return [f"op {i}: output differs between two runs of the operation"
            for i, (a, b) in enumerate(zip(first, second))
            if a.data.get("digest") != b.data.get("digest")]


def fail(problems: List[str], ok: bool, message: str) -> bool:
    """Record ``message`` when ``ok`` is false; returns ``ok``."""
    if not ok:
        problems.append(message)
    return ok
