"""stft_frontend: the FFT/STFT signal front-end, block and streaming.

One operation is one segment of a seeded signal taken (a) through the
block :func:`stft` under the time-invariant and the simplified phase
conventions and (b) in fixed chunks through ``OverlapSaveConvolver ->
MultiStageDecimator -> StreamingSTFT``.  This workload never touches the
LP, so an LP change predicts no movement here, and an FFT change
predicts none on the other workloads.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass

import numpy as np

from common import WARMUP_SEED, OpRecord, Summary, clock, fail, percentile, rate_summary, sub_seed

CONVENTIONS = ("time_invariant", "simplified")
#: block STFT: Hann window length and hop
WINDOW, HOP = 256, 64
#: streaming chain: decimation factor, then Hann window length and hop
DECIMATION, STREAM_WINDOW, STREAM_HOP = 4, 128, 32


@dataclass(frozen=True)
class Params:
    segment: int = 16384
    chunk: int = 4096
    pool: int = 64
    warmup_segment: int = 4096
    trace_ops: int = 8


def make_segment(seed: int, n: int) -> np.ndarray:
    """White noise plus two tones at seeded frequencies."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    f1, f2 = rng.uniform(0.01, 0.2, 2)
    return (rng.standard_normal(n) + np.sin(2 * np.pi * f1 * t)
            + 0.5 * np.sin(2 * np.pi * f2 * t))


def numpy_stft(s: np.ndarray, g: np.ndarray, hop: int,
               convention: str) -> np.ndarray:
    """Reference STFT by ``numpy.fft``, vectorized over frames."""
    n, lg = s.size, g.size
    half = lg // 2
    n_frames = -(-(n + half) // hop)
    offset = 0 if convention == "simplified" else half
    idx = np.arange(n_frames)[:, None] * hop - offset + np.arange(lg)[None, :]
    frames = np.where((idx >= 0) & (idx < n), s[np.clip(idx, 0, n - 1)], 0.0)
    frames = frames.astype(np.complex128) * g
    if convention != "simplified":
        frames = np.roll(frames, -half, axis=1)
    coeffs = np.fft.fft(frames, axis=1).T
    if convention == "time_invariant":
        mm = np.arange(lg)[:, None]
        nn = np.arange(n_frames)[None, :]
        coeffs = coeffs * np.exp(-2.0j * np.pi * mm * (nn * hop % lg) / lg)
    return coeffs


def _digest(raw: dict) -> str:
    h = hashlib.sha256(raw["streamed"].coefficients.tobytes())
    for result in raw["block"]:
        h.update(result.coefficients.tobytes())
    return h.hexdigest()


class STFTFrontend:
    name = "stft_frontend"

    def __init__(self, params: Params = Params()):
        self.p = params
        self.trace_ops = params.trace_ops
        self.stft_mod = importlib.import_module("repro.signal.stft")
        self.streaming = importlib.import_module("repro.signal.streaming")

    def _segment(self, seed: int, i: int, n: int = 0) -> np.ndarray:
        return make_segment(sub_seed(seed, "segment", i), n or self.p.segment)

    def setup(self, seed: int) -> dict:
        from repro.signal import design_decimator, design_lowpass, get_window

        p = self.p
        state = {
            "seed": seed,
            "pool": [self._segment(seed, i) for i in range(p.pool)],
            "window": get_window("hann", WINDOW),
            "stream_window": get_window("hann", STREAM_WINDOW),
            "taps": design_lowpass(0.10, 0.12, atten_db=60.0)[0],
            "decimator": design_decimator(DECIMATION, atten_db=70.0),
        }
        self._run(state, self._segment(WARMUP_SEED, 0, p.warmup_segment))
        return state

    def _run(self, state: dict, x: np.ndarray) -> dict:
        p = self.p
        start = clock()
        block = [self.stft_mod.stft(x, state["window"], HOP, convention=c)
                 for c in CONVENTIONS]
        mid = clock()
        conv = self.streaming.OverlapSaveConvolver(state["taps"])
        dec = state["decimator"].fresh()
        stream = self.streaming.StreamingSTFT(state["stream_window"],
                                              STREAM_HOP)
        decimated = []
        for k in range(0, x.size, p.chunk):
            z = dec.process(conv.process(x[k:k + p.chunk]))
            decimated.append(z)
            stream.process(z)
        z = dec.process(conv.flush())
        decimated.append(z)
        stream.process(z)
        streamed = stream.finalize()
        end = clock()
        return {"block_s": mid - start, "stream_s": end - mid, "block": block,
                "streamed": streamed, "decimated": np.concatenate(decimated)}

    def execute(self, state: dict, i: int, rec=None) -> dict:
        pool = state["pool"]
        if i >= len(pool):
            pool.append(self._segment(state["seed"], i))
        raw = self._run(state, pool[i])
        raw["signal"] = pool[i]
        return raw

    def check(self, state: dict, i: int, raw: dict) -> OpRecord:
        problems = []
        ok = True
        for conv, result in zip(CONVENTIONS, raw["block"]):
            ref = numpy_stft(raw["signal"], state["window"], HOP, conv)
            err = (np.max(np.abs(result.coefficients - ref))
                   / max(np.max(np.abs(ref)), 1e-300)
                   if result.coefficients.shape == ref.shape else np.inf)
            ok &= fail(problems, err <= 1e-9,
                       f"segment {i}: {conv} STFT off numpy.fft by {err:.3g}")
        block = self.stft_mod.stft(raw["decimated"], state["stream_window"],
                                   STREAM_HOP)
        ok &= fail(problems, np.array_equal(raw["streamed"].coefficients,
                                            block.coefficients),
                   f"segment {i}: streaming STFT differs from the block path")
        ok &= fail(problems, raw["decimated"].size
                   == -(-raw["signal"].size // DECIMATION),
                   f"segment {i}: decimator emitted {raw['decimated'].size} "
                   "samples")
        wall = raw["block_s"] + raw["stream_s"]
        return OpRecord(wall_s=wall, units=1, latencies_ms=[1e3 * wall],
                        attempted=1, failed=0 if ok else 1, problems=problems,
                        data={"digest": _digest(raw),
                              "block_s": raw["block_s"],
                              "stream_s": raw["stream_s"],
                              "samples": raw["signal"].size})

    def summaries(self, records) -> list:
        seg_ms = [r.latencies_ms[0] for r in records]
        return [
            # block throughput counts each convention's pass over a sample
            rate_summary("stft_msamples_per_s", "M/s", records,
                         units=lambda r: len(CONVENTIONS) * r.data["samples"],
                         scale=1e-6, wall=lambda r: r.data["block_s"]),
            rate_summary("stream_msamples_per_s", "M/s", records,
                         units=lambda r: r.data["samples"], scale=1e-6,
                         wall=lambda r: r.data["stream_s"]),
            Summary("segment_p50_ms", "ms", percentile(seg_ms, 50), seg_ms),
        ]

    def run_values(self, records) -> dict:
        return {}
