import argparse
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import multiscale as ms
from multiscale import (cli, errors, fractal, phase as phase_mod, signal_core,
                        wavelet)
from multiscale.cli import (Params, _parse_float_list, _parse_int_list,
                           _parse_scale, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    return json.loads(lines[-1])


def write_power_law_fixture(path, n=4096, dt=1e-3):
    """Series whose one-sided spectrum follows f^-2 exactly (zero phase)."""
    spec = np.zeros(n // 2 + 1)
    spec[1:] = np.arange(1, n // 2 + 1, dtype=float) ** -1.0
    x = np.fft.irfft(spec, n)
    ms.TimeSeries(x, dt=dt).to_csv()
    path.write_text(ms.TimeSeries(x, dt=dt).to_csv())


class TestGen:
    def test_sine_row_count(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "sine", "--f", "0.01",
                             "--n", "4096", "--out", str(tmp_path))
        assert code == 0
        summary = last_json(out)
        rows = (tmp_path / "sine.csv").read_text().strip().splitlines()
        assert len(rows) == 4096
        assert summary["n"] == 4096

    def test_fgn_deterministic(self, tmp_path, capsys):
        for name in ("a.csv", "b.csv"):
            code, *_ = run(capsys, "gen", "fgn", "--h", "0.7", "--n", "2048",
                           "--seed", "9", "--out", str(tmp_path),
                           "--output", name)
            assert code == 0
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_invalid_hurst_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "fgn", "--h", "1.5",
                             "--out", str(tmp_path))
        assert code == 2
        assert err.strip().count("\n") == 0
        payload = json.loads(err)
        assert payload["code"] == 2
        assert "detail" in payload

    def test_every_kind_is_sampled_at_dt(self, tmp_path, capsys):
        for kind in (["white", "--n", "8"], ["fgn", "--h", "0.7", "--n", "8"],
                     ["cascade", "--levels", "3"],
                     ["sine", "--f", "0.1", "--n", "8"],
                     ["sines", "--f", "0.1,0.2", "--n", "8"]):
            series = {}
            for dt in ("1", "0.5"):
                code, out, err = run(capsys, "gen", *kind,
                                     "--dt", dt, "--out", str(tmp_path / dt))
                assert code == 0, err
                assert last_json(out)["dt"] == float(dt)
                series[dt] = np.loadtxt(last_json(out)["file"], delimiter=",")
            times, values = series["0.5"].T
            assert np.array_equal(times, np.arange(times.size) * 0.5)
            if kind[0] not in ("sine", "sines"):  # a sine is sampled at dt
                assert np.array_equal(values, series["1"][:, 1])

    @pytest.mark.parametrize("how", ["flag", "gen.n", "n"])
    def test_cascade_refuses_a_length(self, tmp_path, capsys, how):
        argv = ["gen", "cascade", "--levels", "4", "--out", str(tmp_path)]
        if how == "flag":
            argv += ["--n", "16"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{how} = 16\n")
            argv += ["--config", str(cfg)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["detail"] == \
            "cascade takes its length from --levels"
        assert not (tmp_path / "cascade.csv").exists()

    def test_sine_without_f_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "sine", "--out", str(tmp_path))
        assert code == 2


class TestAnalyses:
    def test_powerlaw_exact(self, tmp_path, capsys):
        src = tmp_path / "pl.csv"
        write_power_law_fixture(src)
        code, out, err = run(capsys, "powerlaw", str(src),
                             "--fmin", "1.0", "--fmax", "100.0",
                             "--out", str(tmp_path))
        assert code == 0
        summary = last_json(out)
        assert summary["alpha"] == pytest.approx(2.0, abs=1e-9)
        assert summary["r2"] == pytest.approx(1.0, abs=1e-12)

    def test_rs_white_noise(self, tmp_path, capsys):
        run(capsys, "gen", "white", "--n", "8192", "--seed", "42",
            "--out", str(tmp_path))
        code, out, err = run(capsys, "rs", str(tmp_path / "white.csv"),
                             "--out", str(tmp_path))
        assert code == 0
        assert 0.43 <= last_json(out)["hurst"] <= 0.57

    def test_cwt_zero_signal(self, tmp_path, capsys):
        src = tmp_path / "zero.csv"
        src.write_text(ms.TimeSeries(np.zeros(512)).to_csv())
        code, out, err = run(capsys, "cwt", str(src), "--out", str(tmp_path))
        assert code == 0
        summary = last_json(out)
        assert summary["n_significant"] == 0
        from multiscale.wavelet import scalogram_from_bytes
        sg = scalogram_from_bytes(
            (tmp_path / "zero.cwt.mscl").read_bytes())
        assert np.allclose(sg.coeffs, 0.0)

    # 0.1 has a nonzero round-off variance about its floating-point mean
    @pytest.mark.parametrize("value", [1.0, 0.1])
    def test_cwt_constant_signal_marks_no_point(self, tmp_path, capsys,
                                                value):
        src = tmp_path / "const.csv"
        src.write_text(ms.TimeSeries(np.full(512, value)).to_csv())
        code, out, err = run(capsys, "cwt", str(src), "--out", str(tmp_path))
        assert code == 0
        assert last_json(out)["n_significant"] == 0
        flags = [line.rsplit(",", 1)[1] for line in
                 (tmp_path / "const.cwt.csv").read_text().splitlines()]
        assert set(flags) == {"0"}

    def test_cwt_variance_overflow_exit_4(self, tmp_path, capsys):
        src = tmp_path / "huge.csv"
        src.write_text(ms.TimeSeries(white(1024).samples * 1e160).to_csv())
        code, out, err = run(capsys, "cwt", str(src), "--out", str(tmp_path))
        assert code == 4
        assert out == ""
        assert json.loads(err) == {
            "code": 4, "operation": "cwt",
            "detail": "source series variance overflows float64"}

    def test_mfdfa_cascade(self, tmp_path, capsys):
        run(capsys, "gen", "cascade", "--levels", "14", "--p", "0.6",
            "--out", str(tmp_path))
        code, out, err = run(capsys, "mfdfa", str(tmp_path / "cascade.csv"),
                             "--out", str(tmp_path))
        assert code == 0
        summary = last_json(out)
        assert summary["width"] > 0.2

    def test_phase_pair(self, tmp_path, capsys):
        for name, phase in (("u.csv", "0"), ("v.csv", "1.0471975511965976")):
            run(capsys, "gen", "sine", "--f", "0.015625", "--n", "4096",
                "--phase", phase, "--out", str(tmp_path),
                "--output", name)
        code, out, err = run(capsys, "phase", str(tmp_path / "u.csv"),
                             str(tmp_path / "v.csv"), "--scale", "auto",
                             "--out", str(tmp_path))
        assert code == 0
        summary = last_json(out)
        assert summary["locking_intervals"] >= 1
        assert (tmp_path / "u__v.phasediff.json").exists()

    def test_mfdfa_single_q_writes_strict_json(self, tmp_path, capsys):
        # one q leaves the singularity spectrum undefined (NaN), which
        # strict JSON has no literal for
        run(capsys, "gen", "white", "--n", "4096", "--out", str(tmp_path))
        code, out, err = run(capsys, "mfdfa", str(tmp_path / "white.csv"),
                             "--q", "2", "--format", "json",
                             "--out", str(tmp_path))
        assert code == 0, err

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        obj = json.loads((tmp_path / "white.mfdfa.json").read_text(),
                         parse_constant=refuse)
        assert obj["alpha_sing"] == [None]
        assert obj["f_alpha"] == [None]
        json.loads(out, parse_constant=refuse)


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    """Two fGn inputs, a.csv and b.csv, long enough for every default grid."""
    d = tmp_path_factory.mktemp("inputs")
    for name, seed in (("a.csv", 1), ("b.csv", 2)):
        (d / name).write_text(ms.gen_fgn(2048, 0.7, seed).to_csv())
    return str(d / "a.csv"), str(d / "b.csv")


@pytest.fixture(scope="module")
def fgn_8192(tmp_path_factory):
    path = tmp_path_factory.mktemp("fgn") / "fgn.csv"
    path.write_text(ms.gen_fgn(8192, 0.8, 42).to_csv())
    return str(path)


def expected_files(analysis, fmt):
    """Names an analysis of a.csv (and b.csv for phase2) writes under fmt."""
    exts = {"csv": ["csv"], "json": ["json"], "both": ["csv", "json"]}[fmt]
    op = "phase" if analysis == "phase2" else analysis
    stems = ["a", "b"] if analysis == "phase2" else ["a"]
    names = {f"{stem}.{op}.{ext}" for stem in stems for ext in exts}
    if analysis == "cwt":
        names.add("a.cwt.mscl")
    if analysis == "phase2":
        names.add("a__b.phasediff.json")
    return names


class TestFileSet:
    @pytest.mark.parametrize("fmt", ["csv", "json", "both"])
    @pytest.mark.parametrize("analysis", ["spectrum", "powerlaw", "heisenberg",
                                          "rs", "mfdfa", "cwt", "phase",
                                          "phase2"])
    def test_format_selects_files(self, pair, tmp_path, capsys, analysis,
                                  fmt):
        inputs = list(pair) if analysis == "phase2" else [pair[0]]
        extra = ["--scale", "16dt"] if analysis.startswith("phase") else []
        command = "phase" if analysis == "phase2" else analysis
        code, out, err = run(capsys, command, *inputs, *extra,
                             "--format", fmt, "--out", str(tmp_path))
        assert code == 0, err
        written = {p.name for p in tmp_path.iterdir()}
        assert written == expected_files(analysis, fmt)
        assert sorted(Path(f).name for f in last_json(out)["files"]) == \
            sorted(written)

    def test_json_format_builds_no_csv(self, pair, tmp_path, capsys,
                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("CSV text built for --format json")

        monkeypatch.setattr(wavelet, "scalogram_to_csv", refuse)
        monkeypatch.setattr(phase_mod.PhaseSeries, "to_csv", refuse)
        code, *_ = run(capsys, "cwt", pair[0], "--format", "json",
                       "--out", str(tmp_path))
        assert code == 0
        code, *_ = run(capsys, "phase", *pair, "--scale", "16dt",
                       "--format", "json", "--out", str(tmp_path))
        assert code == 0

    def test_cwt_builds_no_mask(self, pair, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("(scale x time) mask built")

        monkeypatch.setattr(wavelet, "significance_mask", refuse)
        code, out, err = run(capsys, "cwt", pair[0], "--format", "both",
                             "--out", str(tmp_path))
        assert code == 0, err


class TestStreamedFiles:
    def test_cwt_holds_no_whole_file(self, pair, tmp_path, capsys):
        n = 2048
        coeff_bytes = 16 * wavelet.ScaleGrid.default_for(n, 1.0).J * n
        # the coefficients, a row of text and the FFT buffers fit; one more
        # copy of the .mscl record or the whole CSV text does not
        bound = 3 * coeff_bytes + 2 ** 20
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "cwt", pair[0], "--format", "both",
                                 "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert (tmp_path / "a.cwt.mscl").stat().st_size > coeff_bytes
        assert (tmp_path / "a.cwt.csv").stat().st_size > bound
        assert peak < bound


class TestValidateFirst:
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", [["gen", "white"], ["rs", "A"],
                                         ["cwt", "A"], ["phase", "A", "B"]])
    def test_bad_format_exits_2_before_any_work(self, pair, tmp_path, capsys,
                                                command, via):
        out = tmp_path / "out"
        argv = [{"A": pair[0], "B": pair[1]}.get(a, a) for a in command]
        if via == "flag":
            argv += ["--format", "xml", "--out", str(out)]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"format = xml\nout = {out}\n")
            argv += ["--config", str(cfg)]
        code, out_text, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["detail"] == "bad format: xml"
        assert out_text == ""
        assert not out.exists()

    @pytest.mark.parametrize("lines", [
        "pipeline.analyses = rs, bogus\n",
        "pipeline.analyses = rs, gen\n",
        "pipeline.analyses = rs, powerlaw\npowerlaw.format = xml\n",
    ])
    def test_pipeline_checks_every_step_first(self, pair, tmp_path, capsys,
                                              lines):
        out = tmp_path / "out"
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(f"pipeline.input = {pair[0]}\nout = {out}\n" + lines)
        code, out_text, err = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["code"] == 2
        assert out_text == ""
        assert not out.exists()


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["phase", "--scale", "abc"], ["cwt", "--s0", "0"],
        ["cwt", "--s0", "-1"], ["cwt", "--s0", "inf"], ["cwt", "--dj", "0"],
        ["cwt", "--dj", "abc"], ["rs", "--windows", "16,x"],
        ["cwt", "--omega0", "nan"], ["cwt", "--omega0", "inf"],
        ["mfdfa", "--q", "nan"],
        # a scale grid whose J does not fit the .mscl header, or that starts
        # below 2 dt
        ["cwt", "--dj", "1e-300"], ["cwt", "--dj", "1e-320"],
        ["cwt", "--s0", "1e-300"], ["cwt", "--s0", "1.9"],
        # n dt and 4 s0 both overflow
        ["cwt", "--dt", "1e308", "--s0", "1e308"],
    ])
    def test_bad_flag_value_exit_2(self, pair, tmp_path, capsys, argv):
        code, out, err = run(capsys, argv[0], pair[0], *argv[1:],
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, want", [
        # J = 900,000,001 fits the header but not physical memory
        (["--dj", "1e-8"], 3),
        # J fits the header; its largest scale fits no float
        (["--jtot", "4294967295"], 2),
    ])
    def test_costly_grid_exits_before_any_array(self, pair, tmp_path, capsys,
                                                monkeypatch, argv, want):
        def refuse(self):
            raise AssertionError("scales of the grid built")

        monkeypatch.setattr(wavelet.ScaleGrid, "scales", property(refuse))
        code, out, err = run(capsys, "cwt", pair[0], *argv,
                             "--out", str(tmp_path / "out"))
        assert code == want
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == want
        assert not (tmp_path / "out").exists()

    def test_jtot_is_not_checked_against_a_default_grid(self, pair, tmp_path,
                                                        capsys):
        # dj = 1e-300 alone gives a J beyond the header; --jtot replaces it
        code, out, err = run(capsys, "cwt", pair[0], "--dj", "1e-300",
                             "--jtot", "10", "--format", "json",
                             "--out", str(tmp_path))
        assert code == 0, err
        sg = wavelet.scalogram_from_bytes((tmp_path / "a.cwt.mscl").read_bytes())
        assert sg.coeffs.shape[0] == 10

    @pytest.mark.parametrize("n", ["1", "0", "-5"])
    def test_gen_short_n_exit_2(self, tmp_path, capsys, n):
        code, out, err = run(capsys, "gen", "white", "--n", n,
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 2
        assert not (tmp_path / "out").exists()

    def test_gen_negative_seed_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "white", "--seed=-1",
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 2
        assert not (tmp_path / "out").exists()

    def test_gen_sines_empty_f_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "sines", "--f", ",", "--n", "64",
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 2
        assert not (tmp_path / "out").exists()

    def test_allocation_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB")

        monkeypatch.setattr(signal_core, "gen_white_noise", fail)
        code, out, err = run(capsys, "gen", "white", "--n", "20000000000",
                             "--out", str(tmp_path / "out"))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 3
        assert not (tmp_path / "out").exists()

    def test_two_outputs_with_one_name_exit_2(self, pair, tmp_path, capsys):
        other = tmp_path / "other"
        other.mkdir()
        (other / "a.csv").write_text(Path(pair[1]).read_text())
        code, out, err = run(capsys, "phase", pair[0], str(other / "a.csv"),
                             "--out", str(tmp_path / "out"))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 2
        assert not (tmp_path / "out").exists()

    def test_malformed_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0, 2.0\noops, nope\n")
        code, out, err = run(capsys, "rs", str(bad), "--out", str(tmp_path))
        assert code == 3
        assert json.loads(err)["code"] == 3

    @pytest.mark.parametrize("content", [
        b"1.0\n2.0\n\xff\xfe\n3.0\n",  # not UTF-8
        b"0,1.0\n1,2.0\nnan,3.0\n3,4.0\n",  # non-finite time stamp
    ], ids=["undecodable", "nan_time"])
    def test_bad_input_bytes_exit_3(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        code, out, err = run(capsys, "rs", str(bad), "--out", str(tmp_path))
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 3

    def test_missing_input_exit_3(self, tmp_path, capsys):
        code, out, err = run(capsys, "rs", str(tmp_path / "ghost.csv"),
                             "--out", str(tmp_path))
        assert code == 3

    def test_constant_series_exit_4(self, tmp_path, capsys):
        src = tmp_path / "flat.csv"
        rows = [f"{i * 1.0},3.5" for i in range(1024)]
        src.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "rs", str(src), "--out", str(tmp_path))
        assert code == 4
        assert json.loads(err)["code"] == 4

    def test_directory_input_exit_3(self, tmp_path, capsys):
        code, out, err = run(capsys, "rs", str(tmp_path),
                             "--out", str(tmp_path))
        assert code == 3
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["code"] == 3
        assert payload["operation"] == "rs"

    @pytest.mark.parametrize("windows", ["0..1024", "-4..64", "64..16"])
    def test_bad_range_exit_2(self, tmp_path, capsys, windows):
        run(capsys, "gen", "white", "--n", "1024", "--out", str(tmp_path))
        code, out, err = run(capsys, "rs", str(tmp_path / "white.csv"),
                             "--windows", windows, "--out", str(tmp_path))
        assert code == 2
        assert json.loads(err)["code"] == 2

    def test_bad_subcommand_exit_2(self, tmp_path, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 2

    @pytest.mark.parametrize("detrend", ["wavelet:2", "wavelet:2,3"])
    def test_wavelet_detrend_default_scales_exit_0(self, fgn_8192, tmp_path,
                                                   capsys, detrend):
        code, out, err = run(capsys, "mfdfa", fgn_8192, "--detrend", detrend,
                             "--format", "json", "--out", str(tmp_path))
        assert code == 0, err
        scales = json.loads((tmp_path / "fgn.mfdfa.json").read_text())["scales"]
        wd = ms.fractal.WaveletDetrend(2, 3 if detrend.endswith(",3") else None)
        # a prefix of the half-octave grid floor(16 * 2**(k/2)) whose next
        # step would not fit
        steps = [int(16 * 2 ** (k / 2)) for k in range(len(scales) + 1)]
        assert len(scales) >= 6 and scales == steps[:-1]
        assert all(wd.interior(8192, s) >= 4 * s for s in scales)
        assert steps[-1] > 8192 // 4 or wd.interior(8192, steps[-1]) < 4 * steps[-1]

    def test_wavelet_detrend_default_scales_fit_short_series(self, tmp_path,
                                                              capsys):
        # a dyadic grid leaves only 5 scales at n = 4096, one fewer than
        # MFDFA needs
        src = tmp_path / "fgn.csv"
        src.write_text(ms.gen_fgn(4096, 0.8, 42).to_csv())
        code, out, err = run(capsys, "mfdfa", str(src), "--detrend", "wavelet:2",
                             "--format", "json", "--out", str(tmp_path))
        assert code == 0, err
        scales = json.loads((tmp_path / "fgn.mfdfa.json").read_text())["scales"]
        assert len(scales) >= 6

    @pytest.mark.parametrize("detrend", ["wavelet:2", "wavelet:2,3"])
    def test_wavelet_detrend_impossible_scales_exit_2(self, fgn_8192, tmp_path,
                                                      capsys, detrend):
        code, out, err = run(capsys, "mfdfa", fgn_8192, "--detrend", detrend,
                             "--scales", "16..2048", "--out", str(tmp_path))
        assert code == 2
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 2


class TestWarnings:
    @pytest.mark.parametrize("argv", [
        ["heisenberg", "A", "--fmin", "1e-300", "--fmax", "1e300"],
    ])
    def test_numeric_warnings_go_into_the_summary(self, pair, tmp_path,
                                                  capsys, argv):
        argv = [pair[0] if a == "A" else a for a in argv]
        code, out, err = run(capsys, *argv, "--format", "json",
                             "--out", str(tmp_path))
        assert code == 0
        assert err == ""
        summary = json.loads(out)
        assert list(summary)[-1] == "warnings"
        warned = summary["warnings"]
        assert warned and len(set(warned)) == len(warned)
        assert all("encountered" in w for w in warned)

    @pytest.mark.parametrize("argv", [["spectrum", "--dt", "1e308"],
                                      ["cwt", "--s0", "1e308"],
                                      ["cwt", "--dt", "1e-300", "--s0", "1e308"],
                                      # a Morlet filter zero at every bin
                                      ["cwt", "--omega0", "1e308"],
                                      ["phase", "--scale", "64",
                                       "--omega0", "1e308"]])
    def test_a_failed_run_prints_only_its_error_line(self, pair, tmp_path,
                                                     capsys, argv):
        code, out, err = run(capsys, argv[0], pair[0], *argv[1:],
                             "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["code"] == 2

    def test_warnings_of_cwt_worker_threads_are_caught(self, pair, tmp_path,
                                                       capsys, monkeypatch):
        spectrum = wavelet.morlet_spectrum

        def warning_spectrum(omega, scale, omega0):
            warnings.warn(f"row on {threading.current_thread().name}")
            return spectrum(omega, scale, omega0)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(wavelet, "_THREADED_MIN_LENGTH", 0)
        monkeypatch.setattr(wavelet, "morlet_spectrum", warning_spectrum)
        code, out, err = run(capsys, "cwt", pair[0], "--format", "json",
                             "--out", str(tmp_path))
        assert code == 0
        assert err == ""
        warned = json.loads(out)["warnings"]
        assert len(warned) == 3
        assert f"row on {threading.main_thread().name}" in warned

    def test_warnings_of_csv_worker_processes_are_caught(self, pair, tmp_path,
                                                         capfd, monkeypatch):
        to_csv = wavelet.scalogram_to_csv
        count = wavelet._worker_count
        used = []

        def warning_to_csv(sg, threshold, tails, j):
            warnings.warn(f"row {j}")
            return to_csv(sg, threshold, tails, j)

        def recorded_count(rows, size, floor):
            if floor != wavelet._CSV_SPLIT_MIN_LINES:  # the transform's split
                return count(rows, size, floor)
            used.append(count(rows, size, floor))
            return used[-1]

        monkeypatch.setattr(wavelet, "scalogram_to_csv", warning_to_csv)
        monkeypatch.setattr(wavelet, "_worker_count", recorded_count)
        monkeypatch.setattr(wavelet, "_CSV_SPLIT_MIN_LINES", 0)
        summaries = []
        for cpus in ({0}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus, raising=False)
            out_dir = tmp_path / str(len(cpus))
            code = main(["cwt", pair[0], "--format", "csv", "--out",
                         str(out_dir)])
            out, err = capfd.readouterr()  # the workers' stderr included
            assert code == 0
            assert err == ""
            summaries.append(json.loads(out.replace(str(out_dir), "OUT")))
        assert used == [1, 3]
        assert summaries[0] == summaries[1]
        j = wavelet.ScaleGrid.default_for(2048, 1.0).J
        assert summaries[1]["warnings"] == [f"row {k}" for k in range(j)]

    def test_each_pipeline_step_keeps_its_own_warnings(self, pair, tmp_path,
                                                       capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(f"pipeline.input = {pair[0]}\n"
                       "pipeline.analyses = rs, heisenberg\n"
                       "heisenberg.fmin = 1e-300\nheisenberg.fmax = 1e300\n"
                       f"out = {tmp_path}\n")
        code, out, err = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 0
        assert err == ""
        rs_line, heisenberg_line = map(json.loads, out.splitlines())
        assert "warnings" not in rs_line
        assert heisenberg_line["warnings"]


def worker_dies():
    os._exit(1)


def worker_raises():
    raise MemoryError("no room for a row")


def worker_raises_value_error():
    raise ValueError("a row the worker cannot format")


def worker_gets_ctrl_c():
    # a terminal's Ctrl-C reaches every process of the foreground group
    os.kill(os.getpid(), signal.SIGINT)


class TestCsvWorkerFailures:
    """cwt with its CSV rows split over three processes stops every worker
    and exits with the one error line, whatever fails."""

    @pytest.fixture(autouse=True)
    def split(self, monkeypatch):
        monkeypatch.setattr(wavelet, "_CSV_SPLIT_MIN_LINES", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)

    def cwt(self, pair, tmp_path):
        return main(["cwt", pair[0], "--format", "csv", "--out", str(tmp_path)])

    @staticmethod
    def in_workers(monkeypatch, action):
        """Run ``action`` before each row a worker process formats."""
        parent, to_csv = os.getpid(), wavelet.scalogram_to_csv

        def formatter(*args):
            if os.getpid() != parent:
                action()
            return to_csv(*args)

        monkeypatch.setattr(wavelet, "scalogram_to_csv", formatter)

    @pytest.mark.parametrize("fail", [worker_dies, worker_raises,
                                      worker_raises_value_error],
                             ids=["dies", "raises", "raises_ValueError"])
    def test_a_failing_worker_exits_3(self, pair, tmp_path, capfd,
                                      monkeypatch, fail):
        self.in_workers(monkeypatch, fail)
        code = self.cwt(pair, tmp_path)
        out, err = capfd.readouterr()
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        # row 0 is the caller's; row 1 is the first a worker owes
        assert json.loads(err) == {
            "code": 3, "operation": "cwt",
            "detail": "the process formatting CSV row 1 ended"}
        assert multiprocessing.active_children() == []

    def test_workers_leave_ctrl_c_to_the_parent(self, pair, tmp_path, capfd,
                                                monkeypatch):
        self.in_workers(monkeypatch, worker_gets_ctrl_c)
        assert self.cwt(pair, tmp_path) == 0
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("exc, code, detail", [
        (OSError("disk full"), 3, "disk full"),
        (KeyboardInterrupt, 130, "interrupted"),
    ], ids=["exc0", "KeyboardInterrupt"])
    def test_a_failed_write_stops_the_workers(self, pair, tmp_path, capfd,
                                              monkeypatch, exc, code, detail):
        write = cli._write

        def failing_after_one_row(fh, chunk):
            if fh.name.endswith(".csv") and fh.tell() > 0:  # the 2nd row
                raise exc
            write(fh, chunk)

        monkeypatch.setattr(cli, "_write", failing_after_one_row)
        assert self.cwt(pair, tmp_path) == code
        out, err = capfd.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"code": code, "operation": "cwt",
                                   "detail": detail}
        assert multiprocessing.active_children() == []

    def test_ctrl_c_while_computing_exits_130(self, pair, tmp_path, capfd,
                                             monkeypatch):
        def interrupted(*args, **kwargs):
            signal.raise_signal(signal.SIGINT)

        monkeypatch.setattr(wavelet, "significance_threshold", interrupted)
        # a background job inherits SIGINT as ignored: Ctrl-C must raise here
        handler = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            assert self.cwt(pair, tmp_path) == 130
        finally:
            signal.signal(signal.SIGINT, handler)
        out, err = capfd.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"code": 130, "operation": "cwt",
                                   "detail": "interrupted"}
        assert multiprocessing.active_children() == []


# The exit code of every package error, as the command line documents it.
EXIT_CODES = {"MultiscaleError": 2, "InvalidParameter": 2, "InputError": 3,
              "NumericError": 4}


def package_errors():
    """Every MultiscaleError subclass, in whichever module it is defined."""
    found, todo = [], [errors.MultiscaleError]
    while todo:
        found.append(todo.pop())
        todo.extend(found[-1].__subclasses__())
    return found


def injected(cls):
    def fail():
        raise cls("injected")
    return pytest.param(fail, EXIT_CODES.get(cls.__name__), "injected",
                        id=cls.__name__)


def zero_power_spectrum():
    freqs = np.linspace(0.1, 1.0, 32)
    power = np.ones(32)
    power[5] = 0.0
    return ms.PowerSpectrum(freqs, power, n_source=64, df=freqs[1] - freqs[0])


def white(n):
    return ms.gen_white_noise(n, 0)


def overflowed_scalogram():
    """A valid series whose variance and lag-1 products overflow float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        return ms.cwt_morlet(ms.TimeSeries(white(1024).samples * 1e160))


# One real raise site for each kind of failure the package refuses, named for
# that kind, with the exit code and the detail the command line prints for it.
# The family classes carry the code; the detail tells the sites apart.
FAILURES = [pytest.param(fail, code, detail, id=kind)
            for kind, fail, code, detail in [
    ("CliError", lambda: Params(argparse.Namespace(), {"x": "nan"}, "rs")
     .get("x", 0.0, float), 2, "bad value for x: nan"),
    ("Aliased", lambda: ms.gen_sine(64, 0.25, 3.0), 2,
     "f=3.0 is at or above Nyquist 2.0"),
    ("TooFewScales", lambda: ms.rescaled_range(white(512), [8, 16, 32]), 2,
     "need >= 4 window sizes"),
    ("GridTooCoarse", lambda: ms.cwt_morlet(
        white(256), wavelet.ScaleGrid(2.0, 0.6, 20)), 2,
     "largest scale exceeds a quarter of the record"),
    ("ScaleOutOfRange", lambda: ms.phase_at_scale(white(256), 0.5), 2,
     "smallest scale is below 2*dt"),
    ("BadOrder", lambda: ms.dwt(ms.TimeSeries(np.zeros(64)), 11, 1), 2,
     "Daubechies order must be in 1..10"),
    ("BadSeed", lambda: ms.gen_white_noise(8, -1), 2,
     "seed must be an integer >= 0"),
    ("TooShort", lambda: ms.load_csv("1.0"), 3, "need at least 2 rows"),
    ("ShortForDefaultWindows", lambda: ms.rescaled_range(white(300)), 3,
     "the default grid needs n >= 512 samples, got 300"),
    ("ShortForDefaultScales", lambda: ms.mfdfa(white(1024), None, [2.0]), 3,
     "the default grid needs n >= 2048 samples, got 1024"),
    ("Malformed", lambda: ms.load_csv("1\n , \n2\n3"), 3,
     "a line holds commas but no number"),
    ("NonUniformSampling", lambda: ms.load_csv("0,1\n1,2\n2.5,3"), 3,
     "time stamps are not uniformly spaced"),
    ("LengthMismatch", lambda: ms.phase_difference(
        ms.phase_at_scale(white(1024), 32.0),
        ms.phase_at_scale(white(512), 32.0)), 3, "phase series lengths differ"),
    ("ScaleMismatch", lambda: ms.phase_difference(
        ms.phase_at_scale(white(1024), 32.0),
        ms.phase_at_scale(white(1024), 48.0)), 3, "phase series scales differ"),
    ("SamplingMismatch", lambda: ms.phase_difference(
        ms.phase_at_scale(white(1024), 32.0),
        ms.phase_at_scale(ms.TimeSeries(white(1024).samples, dt=2.0), 32.0)),
     3, "phase series sampling intervals differ"),
    ("DegenerateWindow", lambda: ms.rescaled_range(
        ms.TimeSeries(np.ones(512)), [8, 16, 32, 64]), 4,
     "zero std in a window of size 8"),
    ("NonPositiveVariance", lambda: ms.mfdfa(
        ms.TimeSeries(np.zeros(4096)), [16, 32, 64, 128, 256, 512], [1.0, 2.0],
        detrend=1), 4, "zero detrended variance at scale 16"),
    ("InsufficientBand", lambda: ms.fit_heisenberg(
        zero_power_spectrum(), (0.1, 0.3)), 4,
     "need >= 16 bins inside the band"),
    ("ZeroPower", lambda: ms.fit_power_law(zero_power_spectrum(), 0.1, 1.0), 4,
     "all selected powers must be > 0"),
    ("EmptyCOI", lambda: ms.global_spectrum(wavelet.Scalogram(
        np.ones((1, 64), complex), np.array([1e6]), dj=0.125, dt=1.0),
        coi_only=True), 4, "some scales have no cone-of-influence interior"),
    ("EmptyBand", lambda: ms.scale_avg_variance(
        ms.cwt_morlet(white(256)), (1e9, 2e9)), 4,
     "band does not intersect the scale grid"),
    ("VarianceOverflow", lambda: wavelet.significance_threshold(
        overflowed_scalogram()), 4,
     "source series variance overflows float64"),
]]


class TestErrorExitCodes:
    def test_every_error_is_pinned(self):
        assert sorted(c.__name__ for c in package_errors()) == sorted(EXIT_CODES)

    @pytest.mark.parametrize("fail, want, detail",
                             [injected(c) for c in package_errors()] + FAILURES)
    def test_error_from_a_step_exits_with_its_code(self, pair, tmp_path,
                                                   capsys, monkeypatch, fail,
                                                   want, detail):
        monkeypatch.setattr(fractal, "rescaled_range",
                            lambda *args, **kwargs: fail())
        code, out, err = run(capsys, "rs", pair[0], "--out", str(tmp_path))
        assert code == want
        assert out == ""
        assert err.count("\n") == 1
        assert json.loads(err) == {"code": code, "operation": "rs",
                                   "detail": detail}


class TestIntListGrammar:
    @given(st.integers(1, 10 ** 6), st.integers(0, 10 ** 7))
    def test_range_is_doubling_up_to_b(self, a, span):
        b = a + span
        out = _parse_int_list(f"{a}..{b}")
        assert out[0] == a
        assert all(y == 2 * x for x, y in zip(out, out[1:]))
        assert out[-1] <= b < 2 * out[-1]

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
    def test_range_outside_grammar_rejected(self, a, b):
        assume(not 0 < a <= b)
        with pytest.raises(ValueError):
            _parse_int_list(f"{a}..{b}")

    @given(st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=20))
    def test_comma_list_round_trip(self, values):
        assert _parse_int_list(",".join(map(str, values))) == values


class TestScaleGrammar:
    @given(st.integers(1, 10 ** 6), st.floats(1e-9, 1e3))
    def test_dt_suffix_multiplies(self, k, dt):
        assert _parse_scale(f"{k}dt", dt) == k * dt
        assert _parse_scale(f" {float(k)!r}dt ", dt) == float(k) * dt

    @given(st.floats(allow_nan=False), st.floats(1e-9, 1e3))
    def test_plain_number_passes_through(self, x, dt):
        assert _parse_scale(repr(x), dt) == x


class TestParamsPrecedence:
    names = st.text("abcdefgh-", min_size=1, max_size=8)
    values = st.none() | st.integers(-10 ** 6, 10 ** 6).map(str)

    @given(names, values, values, values, st.integers())
    def test_flag_then_section_then_bare_then_default(self, name, flag,
                                                      scoped, bare, default):
        args = argparse.Namespace(**{name.replace("-", "_"): flag})
        config = {f"other.{name}": "noise"}
        if scoped is not None:
            config[f"sec.{name}"] = scoped
        if bare is not None:
            config[name] = bare
        params = Params(args, config, "sec")
        raw = next((v for v in (flag, scoped, bare) if v is not None), None)
        assert params.get(name, default) == (default if raw is None else raw)
        assert params.get(name, default, int) == \
            (default if raw is None else int(raw))

    @given(names, st.text("xyz.", min_size=1))
    def test_unconvertible_value_is_exit_2_error(self, name, raw):
        params = Params(argparse.Namespace(), {f"sec.{name}": raw}, "sec")
        with pytest.raises(errors.InvalidParameter, match="bad value for"):
            params.get(name, 0, int)

    @pytest.mark.parametrize("raw, convert", [
        ("nan", float), ("-inf", float), ("1e999", float),
        ("1,nan", _parse_float_list), ("inf,2", _parse_float_list),
        ("nandt", lambda raw: _parse_scale(raw, 1.0)),
    ])
    def test_non_finite_float_is_exit_2_error(self, raw, convert):
        params = Params(argparse.Namespace(), {"sec.x": raw}, "sec")
        with pytest.raises(errors.InvalidParameter, match="bad value for x"):
            params.get("x", 0.0, convert)


class TestConfig:
    def test_flags_and_config_equivalent(self, tmp_path, capsys):
        run(capsys, "gen", "white", "--n", "4096", "--seed", "3",
            "--out", str(tmp_path))
        src = tmp_path / "white.csv"
        flag_dir = tmp_path / "flags"
        cfg_dir = tmp_path / "cfg"
        run(capsys, "rs", str(src), "--windows", "16..512",
            "--out", str(flag_dir))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# rescaled-range settings\n"
                       "rs.windows = 16..512\n"
                       f"out = {cfg_dir}\n")
        code, *_ = run(capsys, "rs", str(src), "--config", str(cfg))
        assert code == 0
        assert (flag_dir / "white.rs.csv").read_bytes() == \
            (cfg_dir / "white.rs.csv").read_bytes()

    def test_flag_overrides_config(self, tmp_path, capsys):
        run(capsys, "gen", "white", "--n", "4096", "--seed", "3",
            "--out", str(tmp_path))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rs.windows = 16..128\n")
        code, out, err = run(capsys, "rs", str(tmp_path / "white.csv"),
                             "--config", str(cfg), "--windows", "16..512",
                             "--out", str(tmp_path))
        assert code == 0
        text = (tmp_path / "white.rs.csv").read_text()
        assert "512" in text


class TestPipeline:
    def test_two_analyses(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("pipeline.analyses = rs, powerlaw\n"
                       "gen.kind = fgn\n"
                       "gen.h = 0.8\n"
                       "gen.n = 8192\n"
                       "gen.seed = 42\n"
                       "powerlaw.profile = true\n"
                       f"out = {tmp_path}\n")
        code, out, err = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 0
        summaries = [json.loads(ln) for ln in out.strip().splitlines()]
        ops = [s["operation"] for s in summaries]
        assert ops[0] == "gen"
        assert ops[1:] == ["rs", "powerlaw"]
        rs_line = summaries[ops.index("rs")]
        assert rs_line["hurst"] == pytest.approx(0.8, abs=0.12)

    def test_empty_analyses_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("pipeline.analyses =\n"
                       "gen.kind = white\n"
                       f"out = {tmp_path}\n")
        code, out, err = run(capsys, "pipeline", "--config", str(cfg))
        assert code == 2


class TestDeterminism:
    def test_thread_env_invariance(self, tmp_path, capsys, monkeypatch):
        """cwt and phase write the same bytes and summary with one CPU as
        with four. phase picks its scale from a full CWT, so both split
        scale rows over threads when more than one CPU is available; cwt
        also splits its CSV rows (73 x 4096 lines) over processes."""
        run(capsys, "gen", "sines", "--f", "0.015625,0.004", "--n", "4096",
            "--out", str(tmp_path))
        src = str(tmp_path / "sines.csv")
        # the transform's thread counts, then the CSV's process counts
        counts = {wavelet._THREADED_MIN_LENGTH: [],
                  wavelet._CSV_SPLIT_MIN_LINES: []}
        count = wavelet._worker_count

        def recorded_count(rows, size, floor):
            counts[floor].append(count(rows, size, floor))
            return counts[floor][-1]

        monkeypatch.setattr(wavelet, "_worker_count", recorded_count)
        for command, csv_workers in ((["cwt", src], [1, 4]),
                                     (["phase", src], [None, None])):
            written, stdout, most = [], [], []
            for cpus in ({0}, {0, 1, 2, 3}):
                monkeypatch.setattr(os, "sched_getaffinity",
                                    lambda pid, cpus=cpus: cpus, raising=False)
                for recorded_counts in counts.values():
                    recorded_counts.clear()
                out = tmp_path / f"{command[0]}-{len(cpus)}"
                code, printed, err = run(capsys, *command, "--out", str(out))
                assert code == 0, err
                written.append({p.name: p.read_bytes() for p in out.iterdir()})
                stdout.append(printed.replace(str(out), "OUT"))
                most.append([max(c, default=None) for c in counts.values()])
            assert most == [[1, csv_workers[0]], [4, csv_workers[1]]]
            assert written[0] == written[1]
            assert stdout[0] == stdout[1]


class TestImportCost:
    @staticmethod
    def cli_import_loads(package):
        """Modules of ``package`` that a fresh ``import multiscale.cli`` loads."""
        src = str(Path(ms.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import multiscale.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == sys.argv[2]))")
        proc = subprocess.run([sys.executable, "-c", code, src, package],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        return proc.stdout.strip()

    def test_cli_import_loads_no_scipy(self):
        assert self.cli_import_loads("scipy") == "[]"

    def test_cli_import_loads_no_concurrent(self):
        # the CWT splits its rows over plain threads; concurrent.futures
        # would add ~10 ms to every CLI call
        assert self.cli_import_loads("concurrent") == "[]"

    @pytest.mark.parametrize("n, fmt, loaded", [
        (2048, "json", []),  # 65 x 2048 CSV lines, not written
        (256, "both", []),   # 41 x 256 lines, below the split
        (2048, "both", ["multiprocessing"]),
    ])
    def test_only_a_large_csv_loads_multiprocessing(self, tmp_path, n, fmt,
                                                    loaded):
        src = tmp_path / "a.csv"
        src.write_text(ms.gen_fgn(n, 0.7, 1).to_csv())
        j = wavelet.ScaleGrid.default_for(n, 1.0).J
        assert (j * n >= wavelet._CSV_SPLIT_MIN_LINES) == (n == 2048)
        code = ("import os, sys; sys.path.insert(0, sys.argv[1]); "
                "os.sched_getaffinity = lambda pid: {0, 1}; "
                "from multiscale.cli import main; "
                "assert main(sys.argv[2:]) == 0; "
                "print(sorted({m.split('.')[0] for m in sys.modules} "
                "& {'multiprocessing', 'concurrent'}))")
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(ms.__file__).parents[1]),
             "cwt", str(src), "--format", fmt, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, check=True)
        assert proc.stdout.splitlines()[-1] == str(loaded)
