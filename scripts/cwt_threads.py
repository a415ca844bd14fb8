"""Time ``cwt_morlet`` and ``significance_mask`` with a forced thread count,
and measure the peak RSS that each extra worker adds; prints one JSON object.

    PYTHONPATH=src python3 scripts/cwt_threads.py [--reps 15]

Timing: white noise of padded length m = 2**k (n = m - 1 samples, default
scale grid), 1 and 2 threads alternating, median wall time of ``--reps``
transforms each, then of ``--reps`` significance masks of one of those
scalograms each, for m from 512 to 131072. The mask is one of the per-row
power passes that run on the transform's workers, above the same floor, so
both show where the ``_THREADED_MIN_LENGTH`` floor pays. Thread counts
beyond the host's CPUs say nothing about throughput, so only 1 and 2 are
timed.

Memory: one fresh process per worker count in 1, 2, 4, 8, 16 runs one
transform of white noise at n = 2**16 (131072 points, 105 scales) and
reports its ``ru_maxrss`` and how much the transform added to it. Workers
beyond the CPUs still hold their buffers at the same time, so this shows
what a larger host adds, which is what ``_MAX_WORKERS`` caps.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import multiscale as ms
from multiscale import wavelet


def force_workers(w: int) -> None:
    wavelet._worker_count = lambda rows, size, floor: min(w, rows)


def median_ms(reps: int, call) -> tuple[float, float]:
    """Median wall time of ``call()`` on 1 and on 2 threads, alternating."""
    times = {1: [], 2: []}
    for _ in range(reps):
        for w in (1, 2):
            force_workers(w)
            start = time.perf_counter()
            call()
            times[w].append(time.perf_counter() - start)
    return tuple(statistics.median(times[w]) * 1e3 for w in (1, 2))


def timing(reps: int) -> list[dict]:
    out = []
    for k in range(9, 18):
        m = 1 << k
        ts = ms.gen_white_noise(m - 1, 0)
        t1, t2 = median_ms(reps, lambda: ms.cwt_morlet(ts))
        sg = ms.cwt_morlet(ts)
        m1, m2 = median_ms(reps, lambda: ms.significance_mask(sg))
        out.append({"m": m, "J": ms.ScaleGrid.default_for(m - 1, 1.0).J,
                    "one_thread_ms": round(t1, 3), "two_threads_ms": round(t2, 3),
                    "speedup": round(t1 / t2, 3),
                    "mask_one_thread_ms": round(m1, 3),
                    "mask_two_threads_ms": round(m2, 3),
                    "mask_speedup": round(m1 / m2, 3)})
    return out


def child(w: int) -> None:
    ts = ms.gen_white_noise(1 << 16, 42)
    force_workers(w)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms.cwt_morlet(ts)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(before / 1024.0, after / 1024.0)


def memory() -> list[dict]:
    out = []
    for w in (1, 2, 4, 8, 16):
        before, after = map(float, subprocess.run(
            [sys.executable, __file__, "--child", str(w)], check=True,
            capture_output=True, text=True, env=os.environ).stdout.split())
        out.append({"workers": w, "peak_rss_mb": round(after, 1),
                    "added_by_transform_mb": round(after - before, 1)})
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=15)
    ap.add_argument("--child", type=int)
    args = ap.parse_args()
    if args.child:
        child(args.child)
        return
    print(json.dumps({
        "command": "PYTHONPATH=src python3 scripts/cwt_threads.py "
                   f"--reps {args.reps}",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        # a child's ru_maxrss starts at this process's peak at fork, so the
        # memory children run before the timing grows this process
        "memory_n65536": memory(),
        "timing": timing(args.reps),
    }, indent=1))


if __name__ == "__main__":
    main()
