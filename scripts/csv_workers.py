"""Time writing the scalogram CSV with a forced number of formatting
threads and a forced unit size; prints one JSON object.

    PYTHONPATH=src python3 scripts/csv_workers.py [--reps 9]

White noise of n = 2**7 .. 2**14 samples on the default scale grid gives
J·n from about 2**12 to 2**20 CSV lines. Each sample is one fresh process
that builds the scalogram, sets ``wavelet._CSV_UNIT_LINES`` to one of the
unit sizes in ``UNITS``, and then times writing every chunk of
``wavelet.scalogram_csv_chunks`` to a temporary file, as ``cli._save``
does, with the calling thread alone (1) or two formatting threads (2), so
that the threads' formatting overlaps the writes as in a CLI call. The
child also reports the minor page faults (``ru_minflt``) of the timed loop
and its own peak RSS (``ru_maxrss``). The thread counts alternate,
``--reps`` times each, for every unit size, and each cell of the table is a
median. It shows which unit size is fastest and where the
``_CSV_SPLIT_MIN_LINES`` floor pays. Thread counts beyond the host's CPUs
say nothing about throughput, so only 1 and 2 are timed.
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
import tempfile
import time

import numpy as np

import multiscale as ms
from multiscale import wavelet

UNITS = (4096, 8192)  # the CSV unit sizes timed, in lines


def child(n: int, w: int, unit: int) -> None:
    sg = ms.cwt_morlet(ms.gen_white_noise(n, 0))
    threshold = wavelet.significance_threshold(sg)
    # after the transform, so that only the CSV's split is forced
    wavelet._worker_count = lambda units, size, floor: min(w, units)
    wavelet._CSV_UNIT_LINES = unit
    with tempfile.TemporaryFile() as fh:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        for chunk in wavelet.scalogram_csv_chunks(sg, threshold):
            fh.write(chunk)
        wall = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        size = fh.tell()
    # ru_maxrss is in KiB on Linux
    print(wall, size, usage.ru_minflt - faults, usage.ru_maxrss)


def timing(reps: int) -> list[dict]:
    out = []
    for k in range(7, 15):
        n = 1 << k
        j = ms.ScaleGrid.default_for(n, 1.0).J
        for unit in UNITS:
            runs = {1: [], 2: []}
            sizes = set()
            for _ in range(reps):
                for w in (1, 2):
                    wall, size, faults, rss = subprocess.run(
                        [sys.executable, __file__, "--child", str(n), str(w),
                         str(unit)],
                        check=True, capture_output=True, text=True,
                        env=os.environ).stdout.split()
                    runs[w].append((float(wall), int(faults), int(rss)))
                    sizes.add(int(size))
            if len(sizes) != 1:
                raise SystemExit(f"n = {n}: the CSV size depends on the "
                                 "thread count")
            t1, t2 = (statistics.median(r[0] for r in runs[w]) * 1e3
                      for w in (1, 2))
            row = {"n": n, "J": j, "lines": j * n, "unit_lines": unit,
                   "bytes": sizes.pop(), "one_thread_ms": round(t1, 2),
                   "two_threads_ms": round(t2, 2),
                   "speedup": round(t1 / t2, 3)}
            for w, name in ((1, "one_thread"), (2, "two_threads")):
                row[f"{name}_minflt"] = statistics.median(r[1] for r in runs[w])
                row[f"{name}_maxrss_mb"] = round(
                    statistics.median(r[2] for r in runs[w]) / 1024, 2)
            out.append(row)
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--child", type=int, nargs=3, metavar=("N", "W", "UNIT"))
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
