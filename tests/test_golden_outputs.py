"""Every output byte of a fixed matrix of CLI commands, held by digest in
``golden_outputs.json``: a change to any file, stdout or stderr line or exit
code fails here, on one CPU and on all of them. ``scripts/golden_outputs.py``
runs the matrix and regenerates the manifest."""
import importlib.util
import os
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "golden_outputs.py"


def test_outputs_match_the_golden_manifest(monkeypatch):
    # load the script without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("golden_outputs", SCRIPT)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    manifest = golden.load_manifest()
    assert manifest["environment"] == golden.environment(), (
        f"the manifest holds for {manifest['environment']}, not for "
        f"{golden.environment()}: regenerate it with `{golden.REGENERATE}`, "
        "and check that no digest moved but on purpose")
    before = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    for cpus, got in golden.run_on_each_cpu_set():
        changed = golden.changed(manifest["commands"], got)
        assert changed == [], f"output changed on CPUs {cpus}: {changed}"
    if before is not None:
        assert os.sched_getaffinity(0) == before
