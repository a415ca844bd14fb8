"""The benchmark's traced runs wrap each function named in
``perfbench/tracing.py``'s ``TARGETS``; a rename or deletion in
``multiscale`` that drops one of those names must fail here, and so must a
change to the arguments its counters read."""
import importlib
import importlib.util
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import multiscale as ms

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_trace_target_resolves(monkeypatch):
    # load the file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for modname, attr, _ in tracing.TARGETS:
        try:
            operator.attrgetter(attr)(importlib.import_module(modname))
        except (ImportError, AttributeError):
            missing.append(f"{modname}.{attr}")
    assert tracing.TARGETS and missing == []


def test_traced_cwt_counts_the_bytes_it_writes(tmp_path):
    src = tmp_path / "a.csv"
    src.write_text(ms.gen_fgn(256, 0.7, 3).to_csv())
    spans, out = tmp_path / "spans.json", tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    # -B: no bytecode is written next to the benchmark's files
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "traced_cli.py"),
         str(spans), "cwt", str(src), "--format", "both", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert all(span[5] for span in trace["spans"])
    sizes = {p.name: p.stat().st_size for p in out.iterdir()}
    assert sorted(sizes) == ["a.cwt.csv", "a.cwt.json", "a.cwt.mscl"]
    assert trace["counters"]["cli.write_bytes"] == sum(sizes.values())
    assert trace["counters"]["wavelet.scalogram_csv_bytes"] == sizes["a.cwt.csv"]
