import json

import numpy as np
import pytest

import gate


def summary(**kw):
    return json.dumps(kw) + "\n"


def test_nonzero_exit_is_a_failure(tmp_path):
    g = gate.Gate(n=8192)
    assert g.check_cli("rs", ("rs",), 3, "", tmp_path) == ["exit code 3"]


def test_summary_must_parse_with_the_expected_operation(tmp_path):
    g = gate.Gate(n=8192)
    assert g.check_cli("rs", ("rs",), 0, "not json\n", tmp_path)
    assert g.check_cli("rs", ("rs",), 0, summary(operation="spectrum", bins=4096),
                       tmp_path)


def test_oracles_at_acceptance_tolerances(tmp_path):
    g = gate.Gate(n=8192)
    assert g.check_cli("rs", ("rs",), 0, summary(operation="rs", hurst=0.79), tmp_path) == []
    assert g.check_cli("rs2", ("rs",), 0, summary(operation="rs", hurst=0.65), tmp_path)
    assert gate.check_summary({"operation": "powerlaw", "hurst": 0.94}, 8192) == []
    assert gate.check_summary({"operation": "powerlaw", "hurst": 0.96}, 8192)
    assert gate.check_summary({"operation": "mfdfa", "h2": None}, 65536)


def test_changed_output_between_repeats_is_a_failure(tmp_path):
    g = gate.Gate(n=8192)
    out = tmp_path / "out"
    out.mkdir()
    (out / "a.rs.csv").write_text("16,1.5\n")
    line = summary(operation="rs", hurst=0.8, files=[str(out / "a.rs.csv")])
    assert g.check_cli("rs", ("rs",), 0, line, out) == []
    assert g.check_cli("rs", ("rs",), 0, line, out) == []
    (out / "a.rs.csv").write_text("16,1.6\n")
    problems = g.check_cli("rs", ("rs",), 0, line, out)
    assert problems and "a.rs.csv" in problems[0]
    assert g.compared == 2


def test_missing_output_file_is_a_failure(tmp_path):
    g = gate.Gate(n=8192)
    line = summary(operation="rs", hurst=0.8, files=[str(tmp_path / "gone.csv")])
    assert g.check_cli("rs", ("rs",), 0, line, tmp_path)


@pytest.fixture
def cwt_out(tmp_path):
    import multiscale as ms
    from multiscale.wavelet import scalogram_to_bytes

    n = 64
    sg = ms.cwt_morlet(ms.gen_fgn(n, 0.8, 1))
    path = tmp_path / "a.cwt.mscl"
    path.write_bytes(scalogram_to_bytes(sg))
    return tmp_path, path, n


def test_scalogram_reads_back_with_the_right_shape(cwt_out):
    out, path, n = cwt_out
    line = summary(operation="cwt", n_significant=0, files=[str(path)])
    assert gate.Gate(n).check_cli("cwt", ("cwt",), 0, line, out) == []


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:-8],                 # truncated
    lambda b: b"XXXXX" + b[5:],       # bad magic
])
def test_corrupted_scalogram_is_a_failure(cwt_out, corrupt):
    out, path, n = cwt_out
    path.write_bytes(corrupt(path.read_bytes()))
    line = summary(operation="cwt", n_significant=0, files=[str(path)])
    assert gate.Gate(n).check_cli("cwt", ("cwt",), 0, line, out)


def test_lib_reply_checks():
    n = 65536
    j = gate.cwt_scale_count(n)
    good = {"result": {
        "rs_hurst": 0.78, "mfdfa_h2_poly": 0.8, "mfdfa_h2_wavelet": 0.79,
        "spectral_hurst": 0.8, "gws_min": 0.1, "heisenberg": [1.0, 0.1, 3.0],
        "dwt_max_err": 1e-13, "cwt_shape": [j, n], "mask_shape": [j, n],
        "phase_n": [n, n, n]}, "wall": 1.0}
    assert gate.check_lib(good, n) == []
    assert gate.check_lib({"error": "ValueError: boom"}, n) == ["ValueError: boom"]
    bad = {"result": dict(good["result"], dwt_max_err=1e-3, mfdfa_h2_poly=0.5)}
    assert len(gate.check_lib(bad, n)) == 2
    assert j == np.floor(np.log2(n / 8) / 0.125) + 1
