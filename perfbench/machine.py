"""Machine facts and noise, recorded with every run. Reads /proc and /sys
only; changes nothing about the host."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

LIMITS = ("The host cannot pin CPUs or drop the page cache; numbers are "
          "per-process wall times on a shared machine, so the benchmark "
          "reports medians and records load, steal and the interpreter floor.")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(index + "/level").strip()
        kind = _read(index + "/type").strip()
        size = _read(index + "/size").strip()
        shared = _read(index + "/shared_cpu_list").strip()
        if level and size:
            out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (
                f"{size} shared by cpus {shared}")
    return out


def _openblas_threads():
    """Thread count OpenBLAS will use, read from the library numpy loaded."""
    try:
        import numpy
    except ImportError:
        return None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _blas() -> str:
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        return "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def facts() -> dict:
    mem_kb = 0
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            mem_kb = int(line.split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_mb": round(mem_kb / 1024),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": _blas(),
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "MULTISCALE_THREADS")},
        "limits": LIMITS,
    }


def cpu_times() -> dict:
    """Aggregate jiffies from /proc/stat: total and steal."""
    fields = _read("/proc/stat").splitlines()[0].split()[1:]
    values = [int(v) for v in fields]
    return {"total": sum(values[:8]), "steal": values[7] if len(values) > 7 else 0}


def loadavg() -> list[float]:
    return [float(v) for v in _read("/proc/loadavg").split()[:3]]


def python_floor_ms(repeats: int = 3) -> float:
    """Median wall time of ``python -c pass``, the floor under every CLI op."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def noise(before: dict, after: dict) -> dict:
    total = after["total"] - before["total"]
    steal = after["steal"] - before["steal"]
    return {"steal_jiffies": steal,
            "steal_pct": 100.0 * steal / total if total > 0 else 0.0}
