"""The benchmark's traced runs wrap each function named in
``perfbench/tracing.py``'s ``TARGETS``; a rename or deletion in
``multiscale`` that drops one of those names must fail here."""
import importlib
import importlib.util
import operator
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
