"""Golden outputs: the exit code, the sha256 of each stdout and stderr line
and the sha256 of each written file, for a fixed matrix of ``multiscale``
commands at n = 2048, kept in ``tests/golden_outputs.json``.

    PYTHONPATH=src python3 scripts/golden_outputs.py           # compare
    PYTHONPATH=src python3 scripts/golden_outputs.py --write   # regenerate

The matrix runs in this process through ``cli.main``, in a temporary
directory with relative paths, once on one CPU and once on every CPU of the
process's affinity set, so that the thread split of the CWT is covered (its
CSV of 65 x 2048 lines stays below the CSV's thread floor, which the tests
cover with forced thread counts). Comparing prints each command whose
digests differ from the manifest, and exits 1 if any does. ``--write``
refuses to write when the two CPU sets disagree.

Regenerate only when output changes on purpose, and name each changed
command in CHANGES.md. Regenerating to hide an unintended change defeats the
check. The manifest records the numpy and Python versions and the machine,
and holds only there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from multiscale import cli

MANIFEST = Path(__file__).resolve().parents[1] / "tests" / "golden_outputs.json"
REGENERATE = "PYTHONPATH=src python3 scripts/golden_outputs.py --write"

# files the matrix reads besides those its gen commands write
FIXTURES = {
    "bad.csv": "1.0\nx\n3.0\n",
    "const.csv": "1.0\n" * 256,
    "pipeline.cfg": ("pipeline.input = a.csv\n"
                     "pipeline.analyses = rs, profile, powerlaw\n"
                     "out = pipeline\n"),
}

_GEN = [
    ("gen-fgn-a", "gen fgn --n 2048 --h 0.8 --seed 42 --output a.csv"),
    ("gen-fgn-b", "gen fgn --n 2048 --h 0.6 --seed 7 --output b.csv"),
    ("gen-white", "gen white --n 2048 --seed 3 --output white.csv"),
    ("gen-cascade", "gen cascade --levels 11 --p 0.6 --shuffle --seed 5 "
                    "--output cascade.csv"),
    ("gen-sine", "gen sine --n 2048 --dt 0.1 --f 0.2 --output sine.csv"),
    ("gen-sines", "gen sines --n 2048 --f 0.01,0.05 --amp 1,0.5 "
                  "--output sines.csv"),
    ("gen-short", "gen white --n 1000 --output short.csv"),
]
_ANALYSES = [
    ("spectrum", "spectrum a.csv"),
    ("powerlaw", "powerlaw a.csv --profile"),
    ("heisenberg", "heisenberg sines.csv"),
    ("rs", "rs a.csv"),
    ("mfdfa", "mfdfa a.csv"),
    ("mfdfa-wavelet", "mfdfa a.csv --detrend wavelet:2"),
    ("cwt", "cwt a.csv"),
    ("phase-auto", "phase a.csv"),
]
_EXTRA = [
    ("cwt-omega0", "cwt a.csv --omega0 8.5 --dj 0.25"),
    ("cwt-dt", "cwt sine.csv"),
    ("cwt-s0-jtot", "cwt a.csv --s0 4dt --dj 0.5 --jtot 12 --format json"),
    ("cwt-tiny-dj", "cwt a.csv --dj 1e-300 --jtot 10"),
    ("phase-pair", "phase a.csv b.csv --scale 64dt"),
    ("spectrum-welch", "spectrum white.csv --segments 4 --overlap 0.5"),
    ("mfdfa-cascade", "mfdfa cascade.csv --format json"),
    ("pipeline", "pipeline --config pipeline.cfg"),
]
_ERRORS = [
    ("err-missing", "rs missing.csv"),
    ("err-malformed", "rs bad.csv"),
    ("err-constant", "rs const.csv --windows 16,32,64,128"),
    ("err-band", "powerlaw a.csv --fmin 0.4 --fmax 0.401"),
    ("err-command", "bogus a.csv"),
    ("err-kind", "gen bogus"),
    ("err-gen-n", "gen fgn --n 1"),
    ("err-hurst", "gen fgn --n 64 --h 1.5"),
    ("err-format", "rs a.csv --format xml"),
    ("err-detrend", "mfdfa a.csv --detrend bogus"),
    ("err-s0", "cwt a.csv --s0 1"),
    ("err-jtot", "cwt a.csv --jtot 200"),
    ("err-omega0", "cwt a.csv --omega0 4"),
    ("err-dj", "cwt a.csv --dj nan"),
    ("err-phase-lengths", "phase a.csv short.csv --scale 8dt"),
    ("err-config", "pipeline --config missing.cfg"),
]

# (name, argv); every command but gen and pipeline writes into its own
# directory, named after it
COMMANDS = _GEN + [
    (f"{name}-{fmt}", f"{cmd} --format {fmt}")
    for name, cmd in _ANALYSES for fmt in ("csv", "json", "both")
] + _EXTRA + _ERRORS


def _argv(name: str, cmd: str) -> list[str]:
    argv = shlex.split(cmd)
    if argv[0] not in ("gen", "pipeline"):
        argv += ["--out", name]
    return argv


def environment() -> dict:
    """What the digests hold for: other numpy builds may round differently."""
    return {"numpy": np.__version__,
            "python": "%d.%d" % sys.version_info[:2],
            "machine": platform.machine()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


def run_matrix() -> dict:
    """Run every command of ``COMMANDS`` in order; for each, its argv, exit
    code, stdout and stderr line digests, and the digest of each file that
    it created."""
    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        try:
            os.chdir(root)
            for fixture, text in FIXTURES.items():
                Path(fixture).write_text(text)
            for name, cmd in COMMANDS:
                argv = _argv(name, cmd)
                before = _files(root)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                results[name] = {
                    "argv": shlex.join(argv),
                    "exit": code,
                    "stdout": [_sha(ln.encode()) for ln in out.getvalue().splitlines()],
                    "stderr": [_sha(ln.encode()) for ln in err.getvalue().splitlines()],
                    "files": {p.relative_to(root).as_posix(): _sha(p.read_bytes())
                              for p in sorted(_files(root) - before)},
                }
        finally:
            os.chdir(cwd)
    return results


def cpu_sets() -> list[set[int] | None]:
    """One CPU of the process's affinity set, then the whole set; only the
    current set where the platform has no CPU affinity."""
    if not hasattr(os, "sched_getaffinity"):
        return [None]
    cpus = os.sched_getaffinity(0)
    return [{min(cpus)}, cpus]


def run_on_each_cpu_set() -> list[tuple[set[int] | None, dict]]:
    """``run_matrix()`` under each of ``cpu_sets()``; the process's affinity
    is restored afterwards."""
    runs, sets = [], cpu_sets()
    try:
        for cpus in sets:
            if cpus is not None:
                os.sched_setaffinity(0, cpus)
            runs.append((cpus, run_matrix()))
    finally:
        if sets[-1] is not None:  # the set the process started with
            os.sched_setaffinity(0, sets[-1])
    return runs


def changed(golden: dict, got: dict) -> list[str]:
    """Names of the commands whose record differs, or that only one holds."""
    return [name for name in dict.fromkeys([*golden, *got])
            if golden.get(name) != got.get(name)]


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="write the manifest instead of comparing with it")
    args = parser.parse_args(argv)
    if args.write:
        (_, first), *others = run_on_each_cpu_set()
        split = [name for _, got in others for name in changed(first, got)]
        for name in split:
            print(f"differs between CPU sets: {name}")
        if split:
            return 1
        MANIFEST.write_text(json.dumps(
            {"environment": environment(), "regenerate": REGENERATE,
             "commands": first}, indent=1) + "\n")
        print(f"wrote {len(first)} commands to {MANIFEST}")
        return 0
    golden = load_manifest()
    if golden["environment"] != environment():
        print(f"the manifest holds for {golden['environment']}, not for "
              f"{environment()}: regenerate it with {REGENERATE}")
        return 1
    status = 0
    for cpus, got in run_on_each_cpu_set():
        for name in changed(golden["commands"], got):
            print(f"changed on CPUs {sorted(cpus or [])}: {name}  "
                  f"({got.get(name, {}).get('argv', 'no longer run')})")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
