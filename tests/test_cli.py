import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import multiscale as ms
from multiscale.cli import _parse_int_list, main


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


class TestExitCodes:
    def test_malformed_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0, 2.0\noops, nope\n")
        code, out, err = run(capsys, "rs", str(bad), "--out", str(tmp_path))
        assert code == 3
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
        run(capsys, "gen", "fgn", "--h", "0.7", "--n", "4096", "--seed", "5",
            "--out", str(tmp_path))
        src = tmp_path / "fgn.csv"
        d1, d2 = tmp_path / "one", tmp_path / "many"
        monkeypatch.setenv("MULTISCALE_THREADS", "1")
        run(capsys, "mfdfa", str(src), "--out", str(d1))
        monkeypatch.delenv("MULTISCALE_THREADS")
        run(capsys, "mfdfa", str(src), "--out", str(d2))
        assert (d1 / "fgn.mfdfa.csv").read_bytes() == \
            (d2 / "fgn.mfdfa.csv").read_bytes()


class TestImportCost:
    def test_cli_import_loads_no_scipy(self):
        src = str(Path(ms.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import multiscale.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert proc.stdout.strip() == "[]"
