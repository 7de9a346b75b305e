"""Timed sections scaled to a fixed host speed.

The shared virtual machines this benchmark runs on change speed by half or
more within a minute, so a plain wall time says as much about the host's
neighbours as about the program.  A `Sampler` times a section and runs a
fixed reference chunk of work once before it, once after it and every
`interval` seconds during it, from a SIGALRM handler (between the section's
own bytecodes).  The chunks' mean time tracks the host's speed over the
section; the section's own time (its elapsed time less the chunks') is
reported as `wall_s` and, scaled to a host on which one chunk takes the
kind's reference time, as `ref_s`:

    ref_s = wall_s * REFERENCE_S[kind] / mean(chunk times)

Three kinds of chunk, each the mix of the code it scales: "small" (60
Cholesky-banded solves, clips and dot products on single 64-vectors, like
the lower solver's inner loop) for the path workloads and the instance
builds, "bulk" (the same on 64 x 512 blocks, like the oracle's batched
solves) for the oracle, and "python" (a pure interpreter loop) for
`import invoc`, which runs before numpy is loaded.  This module imports
numpy only for the numpy kinds.
"""

from __future__ import annotations

import signal
import statistics
import time

# median chunk times on the machine the reference figures in README.md were
# measured on; they only fix the unit of `ref_s`
REFERENCE_S = {"small": 1.3e-3, "bulk": 1.7e-3, "python": 0.43e-3}

PYTHON_LOOPS = 4000
SMALL_LOOPS = 60
BULK_LOOPS, BULK_COLUMNS = 2, 512


def _python_chunk() -> int:
    acc, table = 0, {}
    for i in range(PYTHON_LOOPS):
        acc += i * i % 7
        table[i & 63] = acc
    return acc


def _numpy_chunk(columns: int, loops: int):
    import numpy as np
    from scipy.linalg import cho_solve_banded

    n = 64
    band = np.zeros((2, n))
    band[0, 1:] = -1.0
    band[1] = 2.5
    rhs = np.linspace(0.0, 1.0, n * columns).reshape(n, columns).squeeze()

    def chunk() -> float:
        v, acc = rhs.copy(), 0.0
        for _ in range(loops):
            v = cho_solve_banded((band, False), v + rhs)
            v = np.clip(v, -1.0, 1.0)
            acc += float(np.vdot(v, rhs))
            v *= 0.5
        return acc

    return chunk


def _make_chunk(kind: str):
    if kind == "python":
        return _python_chunk
    if kind == "small":
        return _numpy_chunk(1, SMALL_LOOPS)
    return _numpy_chunk(BULK_COLUMNS, BULK_LOOPS)


class Sampler:
    """Context manager: time a section and sample the host's speed during it.

    After the `with` block, `wall_s` is the section's own time and `ref_s`
    that time at the reference speed.  Chunks are kept as (start, duration)
    pairs so that a chunk run after the section ended is not subtracted.
    """

    def __init__(self, kind: str, interval: float):
        self.kind, self.interval = kind, interval
        self._chunk = _make_chunk(kind)
        self.chunks: list[tuple[float, float]] = []
        self.wall_s = self.ref_s = float("nan")

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        self._chunk()
        self.chunks.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Sampler":
        self._chunk()  # first call warms the chunk's code paths; not timed
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        inside = sum(d for t, d in self.chunks if self._t0 <= t < t1)
        self._sample()
        self.wall_s = t1 - self._t0 - inside
        mean_chunk = statistics.fmean(d for _, d in self.chunks)
        self.ref_s = self.wall_s * REFERENCE_S[self.kind] / mean_chunk
