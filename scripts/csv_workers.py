"""Time writing the scalogram CSV with a forced number of formatting
threads; prints one JSON object.

    PYTHONPATH=src python3 scripts/csv_workers.py [--reps 9]

White noise of n = 2**7 .. 2**14 samples on the default scale grid gives
J·n from about 2**12 to 2**20 CSV lines. Each sample is one fresh process
that builds the scalogram and then times writing every chunk of
``wavelet.scalogram_csv_chunks`` to a temporary file, as ``cli._save``
does, with the calling thread alone (1) or two formatting threads (2), so
that the threads' formatting overlaps the writes as in a CLI call. The two
counts alternate, ``--reps`` times each, and the median wall time of each
is reported. It shows where the ``_CSV_SPLIT_MIN_LINES`` floor pays.
Thread counts beyond the host's CPUs say nothing about throughput, so only
1 and 2 are timed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import multiscale as ms
from multiscale import wavelet


def child(n: int, w: int) -> None:
    sg = ms.cwt_morlet(ms.gen_white_noise(n, 0))
    threshold = wavelet.significance_threshold(sg)
    # after the transform, so that only the CSV's split is forced
    wavelet._worker_count = lambda units, size, floor: min(w, units)
    with tempfile.TemporaryFile() as fh:
        start = time.perf_counter()
        for chunk in wavelet.scalogram_csv_chunks(sg, threshold):
            fh.write(chunk)
        wall = time.perf_counter() - start
        size = fh.tell()
    print(wall, size)


def timing(reps: int) -> list[dict]:
    out = []
    for k in range(7, 15):
        n = 1 << k
        times = {1: [], 2: []}
        sizes = set()
        for _ in range(reps):
            for w in (1, 2):
                wall, size = subprocess.run(
                    [sys.executable, __file__, "--child", str(n), str(w)],
                    check=True, capture_output=True, text=True,
                    env=os.environ).stdout.split()
                times[w].append(float(wall))
                sizes.add(int(size))
        if len(sizes) != 1:
            raise SystemExit(f"n = {n}: the CSV size depends on the thread count")
        t1, t2 = (statistics.median(times[w]) * 1e3 for w in (1, 2))
        j = ms.ScaleGrid.default_for(n, 1.0).J
        out.append({"n": n, "J": j, "lines": j * n, "bytes": sizes.pop(),
                    "one_thread_ms": round(t1, 2),
                    "two_threads_ms": round(t2, 2),
                    "speedup": round(t1 / t2, 3)})
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--child", type=int, nargs=2, metavar=("N", "W"))
    args = ap.parse_args()
    if args.child:
        child(*args.child)
        return
    print(json.dumps({
        "command": "PYTHONPATH=src python3 scripts/csv_workers.py "
                   f"--reps {args.reps}",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "timing": timing(args.reps),
    }, indent=1))


if __name__ == "__main__":
    main()
