"""Correctness gate: every op the benchmark times is checked here, and any
problem makes it a failed op.

The oracles are the acceptance tolerances on fGn with H = 0.8: R/S Hurst and
MFDFA h(2) within 0.1, spectral Hurst within 0.15. CLI ops must exit 0 and
print the summaries of the expected operations; a ``.mscl`` scalogram must
read back through ``scalogram_from_bytes`` with the right shape; and the
output files of repeats of one op within a run must have identical digests.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

HURST = 0.8
TOL_RS = 0.1
TOL_MFDFA = 0.1
TOL_SPECTRAL = 0.15


def cwt_scale_count(n: int, dj: float = 0.125) -> int:
    """Scales of the CLI's default grid (s0 = 2 dt, up to n dt / 4)."""
    return int(math.floor(math.log2(n / 8.0) / dj)) + 1


def _near(label: str, value, target: float, tol: float) -> list[str]:
    if not isinstance(value, (int, float)) or not abs(value - target) <= tol:
        return [f"{label} {value!r} not within {tol} of {target}"]
    return []


def _positive(label: str, value) -> list[str]:
    if not isinstance(value, (int, float)) or not (value > 0 and math.isfinite(value)):
        return [f"{label} {value!r} is not finite and > 0"]
    return []


def digest_dir(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_summary(summary: dict, n: int) -> list[str]:
    """Oracle and sanity checks on one stdout summary of an input of n rows."""
    op = summary.get("operation")
    if op == "rs":
        return _near("R/S hurst", summary.get("hurst"), HURST, TOL_RS)
    if op == "powerlaw":
        # every powerlaw op of the benchmark fits the profile: alpha = 2H + 1
        return _near("spectral hurst", summary.get("hurst"), HURST, TOL_SPECTRAL)
    if op == "mfdfa":
        return _near("MFDFA h2", summary.get("h2"), HURST, TOL_MFDFA)
    if op == "spectrum":
        return [] if summary.get("bins") == n // 2 else [f"spectrum bins {summary.get('bins')}"]
    if op == "heisenberg":
        return (_positive("amplitude", summary.get("amplitude"))
                + _positive("k_d", summary.get("k_d")))
    if op == "phase":
        ok = isinstance(summary.get("locking_intervals"), int)
        return [] if ok else ["phase summary lacks locking_intervals"]
    if op in ("profile", "gen"):
        return [] if summary.get("n") == n else [f"{op} n {summary.get('n')}"]
    if op == "cwt":
        return [] if summary.get("n_significant", -1) >= 0 else ["cwt n_significant"]
    return [f"unexpected operation {op!r}"]


def check_cwt_files(out_dir: Path, n: int) -> list[str]:
    from multiscale.errors import MultiscaleError
    from multiscale.wavelet import scalogram_from_bytes

    j = cwt_scale_count(n)
    problems = []
    mscl = list(out_dir.glob("*.mscl"))
    if len(mscl) != 1:
        return [f"expected one .mscl file, found {len(mscl)}"]
    try:
        shape = scalogram_from_bytes(mscl[0].read_bytes()).coeffs.shape
    except (MultiscaleError, ValueError, IndexError) as exc:
        return [f".mscl does not read back: {type(exc).__name__}: {exc}"]
    if shape != (j, n):
        problems.append(f".mscl shape {shape} != {(j, n)}")
    for csv in out_dir.glob("*.cwt.csv"):
        with open(csv, "rb") as fh:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if rows != j * n:
            problems.append(f"{csv.name} has {rows} rows, expected {j * n}")
    return problems


class Gate:
    """Checks the ops of one run and remembers the output digests per op key."""

    def __init__(self, n: int):
        self.n = n
        self.digests: dict[str, dict[str, str]] = {}
        self.compared = 0

    def check_cli(self, key: str, expect, returncode: int, stdout: str,
                  out_dir: Path) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            summaries = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        except ValueError:
            return ["stdout summary is not JSON"]
        ops = [s.get("operation") if isinstance(s, dict) else None for s in summaries]
        if ops != list(expect):
            return [f"operations {ops} != {list(expect)}"]
        problems = []
        for s in summaries:
            problems += check_summary(s, self.n)
            for f in s.get("files", []) + ([s["file"]] if "file" in s else []):
                if not Path(f).is_file():
                    problems.append(f"missing output {f}")
        if "cwt" in ops:
            problems += check_cwt_files(out_dir, self.n)
        return problems + self.check_digests(key, digest_dir(out_dir))

    def check_digests(self, key: str, digests: dict[str, str]) -> list[str]:
        first = self.digests.setdefault(key, digests)
        if first is digests:
            return []
        self.compared += 1
        if first != digests:
            changed = sorted(k for k in first.keys() | digests.keys()
                             if first.get(k) != digests.get(k))
            return [f"outputs differ from the first {key} op: {changed}"]
        return []


def check_lib(reply: dict, n: int) -> list[str]:
    """Checks on one lib_numerics op reply (see lib_worker.run_op)."""
    if "error" in reply:
        return [reply["error"]]
    r = reply.get("result", {})
    j = cwt_scale_count(n)
    problems = (_near("R/S hurst", r.get("rs_hurst"), HURST, TOL_RS)
                + _near("MFDFA h2 poly:1", r.get("mfdfa_h2_poly"), HURST, TOL_MFDFA)
                + _near("MFDFA h2 wavelet:2", r.get("mfdfa_h2_wavelet"), HURST, TOL_MFDFA)
                + _near("spectral hurst", r.get("spectral_hurst"), HURST, TOL_SPECTRAL)
                + _positive("GWS minimum", r.get("gws_min")))
    for label, value in zip(("amplitude", "k_d", "rss"), r.get("heisenberg", [])):
        problems += _positive(f"heisenberg {label}", value)
    if not r.get("dwt_max_err", 1.0) <= 1e-8:
        problems.append(f"idwt(dwt(x)) error {r.get('dwt_max_err')}")
    if r.get("cwt_shape") != [j, n] or r.get("mask_shape") != [j, n]:
        problems.append(f"cwt/mask shapes {r.get('cwt_shape')} {r.get('mask_shape')}")
    if r.get("phase_n") != [n, n, n]:
        problems.append(f"phase lengths {r.get('phase_n')}")
    return problems
