import json
import os
import subprocess
import sys

import pytest

import tracing
from conftest import BENCH, SRC


def span(name, start, end, parent=-1, ok=True):
    return [name, start, end, parent, 0, ok]


def test_self_time_subtracts_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("signal_core.load_csv", 1.0, 4.0, parent=0),
        span("fractal.mfdfa", 5.0, 9.0, parent=0),
        span("dwt.dwt", 6.0, 7.0, parent=2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("cli.parse", 1.0, 5.0, parent=0),
        span("cli.write", 3.0, 7.0, parent=0),
        span("cli.write", 9.0, 12.0, parent=0),   # runs past its parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_per_op_means_and_shares():
    op1 = {"wall": 4.0, "counters": {"cli.write_bytes": 100}, "peaks": [],
           "spans": [span("cli.main", 0.0, 3.0),
                     span("spectral.periodogram", 1.0, 2.0, parent=0),
                     span("spectral.serialize", 2.0, 2.5, parent=0, ok=False)]}
    op2 = {"wall": 2.0, "counters": {}, "peaks": [5.0],
           "spans": [span("cli.main", 0.0, 1.0)]}
    m = tracing.layer_metrics([op1, op2], imports=[(1.5, 900), (0.5, 700)])
    assert m["spectral.periodogram_s"] == pytest.approx(0.5)
    assert m["spectral.serialize_s"] == pytest.approx(0.25)
    assert m["cli.self_s"] == pytest.approx((1.5 + 1.0) / 2)
    assert m["cli.share"] == pytest.approx(2.5 / 6.0)
    assert m["spectral.share"] == pytest.approx(1.5 / 6.0)
    assert m["spectral.calls"] == 1.0 and m["spectral.errors"] == 0.5
    assert m["cli.write_bytes"] == 50.0
    assert m["fractal.mfdfa_peak_mb"] == 5.0
    assert m["import.s"] == 1.0 and m["import.modules"] == 800


def test_nested_spans_of_one_name_count_once():
    op = {"wall": 1.0, "counters": {}, "peaks": [],
          "spans": [span("wavelet.cwt_morlet", 0.0, 1.0),
                    span("wavelet.cwt_morlet", 0.2, 0.4, parent=0)]}
    assert tracing.layer_metrics([op], [])["wavelet.cwt_morlet_s"] == pytest.approx(1.0)


def _run(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_install_wraps_the_names_callers_look_up(tmp_path):
    # fractal calls dwt as _dwt_decompose; phase imports cwt_morlet directly
    spans = _run(
        "import json, multiscale as ms, tracing\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "ts = ms.gen_fgn(4096, 0.8, 1)\n"
        "ms.mfdfa(ms.profile(ts), [16, 32, 64, 128, 256, 512], [2.0],"
        " detrend=ms.WaveletDetrend(2))\n"
        "ms.phase_at_scale(ts, 16.0)\n"
        "print(json.dumps(t.spans))\n", tmp_path)
    names = [s[0] for s in spans]
    parent_of = {i: spans[s[3]][0] for i, s in enumerate(spans) if s[3] >= 0}
    assert "signal_core.gen_fgn" in names
    dwt_parents = {parent_of[i] for i, n in enumerate(names) if n == "dwt.dwt"}
    assert dwt_parents == {"fractal.wavelet_detrend"}
    cwt_parents = {parent_of[i] for i, n in enumerate(names) if n == "wavelet.cwt_morlet"}
    assert cwt_parents == {"phase.phase_at_scale"}


def test_traced_cli_writes_spans_and_behaves_like_the_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["gen", "fgn", "--n", "1024", "--seed", "3", "--out", str(tmp_path)]
    plain = subprocess.run([sys.executable, "-m", "multiscale.cli", *argv,
                            "--output", "plain.csv"], env=env, capture_output=True)
    traced = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"),
                             str(tmp_path / "spans.json"), *argv, "--output", "traced.csv"],
                            env=env, capture_output=True, text=True)
    assert plain.returncode == traced.returncode == 0, traced.stderr
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    d = json.loads((tmp_path / "spans.json").read_text())
    names = [s[0] for s in d["spans"]]
    assert names[0] == "import.multiscale_cli" and "cli.main" in names
    assert {"cli.parse", "signal_core.gen_fgn", "signal_core.to_csv", "cli.write"} <= set(names)
    assert d["counters"]["cli.write_bytes"] == (tmp_path / "traced.csv").stat().st_size
    assert d["modules"] > 0 and d["import_s"] > 0
