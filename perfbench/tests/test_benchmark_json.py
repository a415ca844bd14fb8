"""BENCHMARK.json names exactly the metrics the benchmark prints."""
import json

import run
import tracing
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def fake_run(trace: bool) -> run.Run:
    r = run.Run(run.WORKLOADS["cli_light"], seed=1, seconds=1.0, trace=trace)
    r.setups = [1.0, 1.2, 1.1]
    r.peak_rss = 100.0
    r.ops = [{"kind": "rs", "traced": t, "wall": 1.0 + t, "rss_mb": 100.0,
              "problems": []} for t in (False, True)]
    r.units = [{"wall": 2.0, "spans": [], "counters": {}, "peaks": []}]
    return r


def test_end_to_end_names_and_units():
    metrics, _ = fake_run(False).end_to_end()
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_per_layer_names_and_units():
    metrics = fake_run(True).per_layer()
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.overhead_ms"][0] == 1000.0


def test_every_layer_is_reported():
    names = {m["name"].split(".", 1)[0] for m in SPEC["per_layer"]}
    assert set(tracing.LAYERS) <= names
