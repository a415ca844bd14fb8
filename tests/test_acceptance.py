"""End-to-end acceptance gate.

Each test covers one criterion, checks every sub-condition at its stated
tolerance, and prints a single PASS/FAIL line so the whole gate can be
read at a glance from `pytest -s tests/test_acceptance.py`.
"""
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import multiscale as ms
from multiscale.dwt import filter_length
from multiscale import wavelet
from multiscale.wavelet import MorletParams, ScaleGrid, morlet_spectrum
from multiscale.phase import wrap_phase

DYADIC = [2 ** k for k in range(4, 13)]


def report(name, checks, budget, elapsed):
    ok = all(v for _, v in checks) and elapsed < budget
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] {name} ({elapsed:.1f}s / {budget:.0f}s budget)")
    if not ok:
        for label, good in checks:
            if not good:
                print(f"         failed: {label}")
        if elapsed >= budget:
            print(f"         failed: runtime {elapsed:.1f}s over budget")
    assert ok, f"{name}: " + "; ".join(l for l, g in checks if not g)


def test_1_hurst_chain_consistency(capsys):
    t0 = time.monotonic()
    ts = ms.gen_fgn(2 ** 14, 0.8, 42)
    rs = ms.rescaled_range(ts, DYADIC)
    prof = ms.profile(ts)
    mf = ms.mfdfa(prof, DYADIC, [2.0], detrend=1)
    spec = ms.periodogram(prof)
    fit = ms.fit_power_law(spec, 1e-3, 0.1)
    h_spec = ms.hurst_from_alpha(fit.alpha).hurst
    checks = [
        (f"R/S hurst {rs.hurst:.3f} = 0.8 +/- 0.1", abs(rs.hurst - 0.8) <= 0.1),
        (f"MFDFA h(2) {mf.h(2.0):.3f} = 0.8 +/- 0.1",
         abs(mf.h(2.0) - 0.8) <= 0.1),
        (f"spectral H {h_spec:.3f} = 0.8 +/- 0.15",
         abs(h_spec - 0.8) <= 0.15),
    ]
    with capsys.disabled():
        report("1 Hurst chain consistency", checks, 10.0,
               time.monotonic() - t0)


def test_2_white_noise_calibration(capsys):
    t0 = time.monotonic()
    ts = ms.gen_white_noise(2 ** 14, 42)
    rs = ms.rescaled_range(ts, DYADIC)
    qs = [q for q in range(-5, 6) if q != 0]
    mf = ms.mfdfa(ms.profile(ts), DYADIC, [float(q) for q in qs], detrend=1)
    spread = float(mf.hq.max() - mf.hq.min())

    hits = total = 0
    for seed in range(20):
        sg = ms.cwt_morlet(ms.gen_white_noise(2048, seed))
        mask = ms.significance_mask(sg, level=0.95).mask
        inside = sg.coi[None, :] >= sg.scales[:, None]
        hits += int(mask[inside].sum())
        total += int(inside.sum())
    rate = hits / total
    checks = [
        (f"R/S hurst {rs.hurst:.3f} = 0.5 +/- 0.07",
         abs(rs.hurst - 0.5) <= 0.07),
        (f"h(q) spread {spread:.3f} < 0.1", spread < 0.1),
        (f"false-positive rate {rate:.4f} = 0.05 +/- 0.02",
         abs(rate - 0.05) <= 0.02),
    ]
    with capsys.disabled():
        report("2 White-noise calibration", checks, 60.0,
               time.monotonic() - t0)


def test_3_multifractal_oracle(capsys):
    t0 = time.monotonic()
    p = 0.6
    prof = ms.profile(ms.gen_binomial_cascade(16, p))
    qs = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
    res = ms.mfdfa(prof, DYADIC, qs, detrend=1)
    tau_an = -np.log2(p ** qs + (1 - p) ** qs)
    h_an = (tau_an + 1) / qs
    max_dev = float(np.max(np.abs(res.hq - h_an)))
    dense = ms.mfdfa(prof, DYADIC, np.delete(np.arange(-5.0, 5.5, 0.5), 10),
                     detrend=1)
    # chord slopes of tau(q) must be non-increasing (q grid skips q = 0)
    slopes = np.diff(dense.tau) / np.diff(dense.q_values)
    concave = bool(np.all(np.diff(slopes) <= 1e-6))
    checks = [
        (f"max |h(q) - analytic| {max_dev:.4f} <= 0.05", max_dev <= 0.05),
        ("tau(q) concave", concave),
    ]
    with capsys.disabled():
        report("3 Multifractal oracle", checks, 30.0, time.monotonic() - t0)


def test_4_heisenberg_asymptotes(capsys):
    t0 = time.monotonic()
    from multiscale.spectral import PowerSpectrum

    freqs = np.logspace(-3, 1, 400)
    c_true, kd_true = 2.5, 0.3
    model = ms.heisenberg_model(freqs, c_true, kd_true)
    spec = PowerSpectrum(freqs=freqs, power=model, n_source=800,
                         df=float(freqs[1] - freqs[0]))
    band = (freqs[0], freqs[-1])
    fit = ms.fit_heisenberg(spec, band)
    self_ok = (abs(fit.amplitude - c_true) / c_true < 1e-6
               and abs(fit.k_d - kd_true) / kd_true < 1e-6)

    kd_errs = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = model * np.exp(0.1 * rng.standard_normal(freqs.size))
        nfit = ms.fit_heisenberg(
            PowerSpectrum(freqs=freqs, power=noisy, n_source=800,
                          df=spec.df), band)
        kd_errs.append(abs(nfit.k_d - kd_true) / kd_true)
    noisy_ok = max(kd_errs) < 0.10

    def loglog_slope(f):
        h = 1e-4
        lo = ms.heisenberg_model(f * np.exp(-h), fit.amplitude, fit.k_d)
        hi = ms.heisenberg_model(f * np.exp(h), fit.amplitude, fit.k_d)
        return (np.log(hi) - np.log(lo)) / (2 * h)

    s_lo = float(loglog_slope(np.array([fit.k_d / 100]))[0])
    s_hi = float(loglog_slope(np.array([fit.k_d * 100]))[0])
    checks = [
        ("noiseless self-fit relative error < 1e-6", self_ok),
        (f"max k_d error over 20 noisy seeds {max(kd_errs):.4f} < 0.10",
         noisy_ok),
        (f"slope at k_d/100 {s_lo:.4f} = -5/3 +/- 0.02",
         abs(s_lo + 5.0 / 3.0) <= 0.02),
        (f"slope at 100 k_d {s_hi:.4f} = -7 +/- 0.02",
         abs(s_hi + 7.0) <= 0.02),
    ]
    with capsys.disabled():
        report("4 Heisenberg asymptotes", checks, 5.0,
               time.monotonic() - t0)


def test_5_cwt_correctness(capsys):
    t0 = time.monotonic()
    ts = ms.gen_white_noise(512, 11)
    grid = ScaleGrid(6.0, 0.25, 12)
    sg = ms.cwt_morlet(ts, grid)

    n = ts.n
    npad = 1024
    xp = np.concatenate([ts.samples, np.zeros(npad - n)])
    omega = 2 * np.pi * np.fft.fftfreq(npad, ts.dt)
    m = np.arange(npad)
    max_diff = 0.0
    for i, s in enumerate(grid.scales):
        psi_hat = np.sqrt(2 * np.pi * s / ts.dt) * morlet_spectrum(omega, s,
                                                                   6.0)
        psi = np.conj(np.fft.ifft(psi_hat))
        ref = np.array([np.sum(xp * psi[(m - k) % npad]) for k in range(n)])
        max_diff = max(max_diff, float(np.max(np.abs(sg.coeffs[i] - ref))))

    sine = ms.cwt_morlet(ms.gen_sine(2048, 1.0, 1.0 / 64))
    gws = ms.global_spectrum(sine, coi_only=True)
    peak_period = float(sine.periods()[int(np.argmax(gws))])
    peak_ok = abs(np.log2(peak_period / 64.0)) <= sine.dj + 1e-12

    two = ms.cwt_morlet(ms.TimeSeries(
        ms.gen_sine(8192, 1.0, 1 / 64).samples
        + ms.gen_sine(8192, 1.0, 1 / 512).samples))
    g2 = ms.global_spectrum(two, coi_only=True)
    interior = range(1, g2.size - 1)
    peaks = [j for j in interior
             if g2[j] > g2[j - 1] and g2[j] > g2[j + 1]
             and g2[j] > 0.05 * g2.max()]
    checks = [
        (f"brute-force max abs diff {max_diff:.2e} < 1e-8", max_diff < 1e-8),
        (f"sine peak period {peak_period:.1f} within one dj bin of 64",
         peak_ok),
        (f"two-sine global spectrum has exactly 2 peaks (got {len(peaks)})",
         len(peaks) == 2),
    ]
    with capsys.disabled():
        report("5 CWT correctness", checks, 10.0, time.monotonic() - t0)


def test_6_dwt_reconstruction(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for order in range(1, 11):
        x = rng.standard_normal(777)
        coeffs = ms.dwt(ms.TimeSeries(x), order, 3)
        back = ms.idwt(coeffs).samples
        worst = max(worst, float(np.max(np.abs(back - x))
                                 / np.max(np.abs(x))))
    ramp = np.linspace(-2.0, 5.0, 512)
    c = ms.dwt(ms.TimeSeries(ramp), 2, 1)
    margin = filter_length(2)
    interior = np.abs(c.details[0][margin:-margin])
    ramp_ok = float(interior.max()) < 1e-10 * np.ptp(ramp)
    checks = [
        (f"perfect reconstruction db1..db10 max rel err {worst:.2e} < 1e-10",
         worst < 1e-10),
        ("db2 annihilates linear trend (interior details < 1e-10)", ramp_ok),
    ]
    with capsys.disabled():
        report("6 DWT reconstruction", checks, 5.0, time.monotonic() - t0)


def test_7_phase(capsys):
    t0 = time.monotonic()
    n, f0 = 4096, 1.0 / 64
    scale = (1.0 / f0) / MorletParams().fourier_factor
    pa = ms.phase_at_scale(ms.gen_sine(n, 1.0, f0), scale)
    pb = ms.phase_at_scale(ms.gen_sine(n, 1.0, f0, phase=np.pi / 3), scale)
    d = ms.phase_difference(pb, pa)
    med = float(np.median(wrap_phase(d.delta[d.coi_valid])))
    offset_ok = abs(med - np.pi / 3) <= 0.05

    n2 = 6144
    t = np.arange(n2)
    detune = np.where((t >= n2 // 3) & (t < 2 * n2 // 3), 0.0, 0.25 * f0)
    b = ms.TimeSeries(np.sin(2 * np.pi * np.cumsum(f0 + detune)))
    dd = ms.phase_difference(
        ms.phase_at_scale(ms.gen_sine(n2, 1.0, f0), scale),
        ms.phase_at_scale(b, scale))
    min_dur = 64
    ivals = ms.locking_intervals(dd, tolerance=0.5, min_duration=min_dur)
    episode_ok = (len(ivals) == 1
                  and abs(ivals[0][0] - n2 // 3) <= 2 * min_dur
                  and abs(ivals[0][1] - 2 * n2 // 3) <= 2 * min_dur)

    rng = np.random.default_rng(123)
    vals = rng.uniform(-40.0, 40.0, 1000)
    wrapped = wrap_phase(vals)
    wrap_ok = (np.all(wrapped > -np.pi) and np.all(wrapped <= np.pi)
               and np.max(np.abs(wrap_phase(wrapped) - wrapped)) < 1e-12
               and np.max(np.abs(wrap_phase(vals + 2 * np.pi)
                                 - wrapped)) < 1e-9)
    pc = ms.phase_at_scale(ms.gen_white_noise(1024, 1), 32.0)
    pd = ms.phase_at_scale(ms.gen_white_noise(1024, 2), 32.0)
    anti = float(np.max(np.abs(wrap_phase(
        ms.phase_difference(pc, pd).delta
        + ms.phase_difference(pd, pc).delta))))
    checks = [
        (f"constant offset {med:.4f} = pi/3 +/- 0.05", offset_ok),
        ("locking episode boundaries within 2*min_duration", episode_ok),
        ("wrap invariants on 1000 random inputs", bool(wrap_ok)),
        (f"antisymmetry residual {anti:.2e} < 1e-9", anti < 1e-9),
    ]
    with capsys.disabled():
        report("7 Phase synchronization", checks, 10.0,
               time.monotonic() - t0)


def test_8_cli_determinism(capsys, tmp_path):
    t0 = time.monotonic()

    cpus = os.sched_getaffinity(0)

    def pin_one_cpu():
        # the child then sees one CPU, so its CWT runs on one thread
        os.sched_setaffinity(0, {min(cpus)})

    # the children import the package this test imported, however pytest
    # put it on the path
    src = os.path.dirname(os.path.dirname(ms.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(outdir, pin, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "multiscale.cli", *argv,
             "--out", str(outdir)],
            preexec_fn=pin_one_cpu if pin else None,
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    gen = tmp_path / "gen"
    run(gen, False, "gen", "fgn", "--h", "0.8", "--n", "8192", "--seed", "42")
    src = str(gen / "fgn.csv")
    fixtures = [
        ("rs", ["rs", src]),
        ("powerlaw", ["powerlaw", src, "--profile"]),
        ("mfdfa", ["mfdfa", src]),
        ("cwt", ["cwt", src]),
        ("phase", ["phase", src, "--scale", "64dt"]),
        # the automatic scale comes from a full, threaded CWT
        ("phase-auto", ["phase", src]),
        ("gen2", ["gen", "fgn", "--h", "0.8", "--n", "8192",
                  "--seed", "42"]),
    ]
    # the unpinned cwt run splits its rows over this many threads
    workers = wavelet._worker_count(ScaleGrid.default_for(8192, 1.0).J,
                                    wavelet._pad_length(8192))
    checks = [(f"cwt workers: {workers} unpinned vs 1 pinned on "
               f"{len(cpus)} CPU(s)", workers > 1 or len(cpus) == 1)]
    for name, argv in fixtures:
        dirs = {key: tmp_path / f"{name}-{key}" for key in
                ("run1", "run2", "one_cpu")}
        run(dirs["run1"], False, *argv)
        run(dirs["run2"], False, *argv)
        run(dirs["one_cpu"], True, *argv)
        stable = True
        files = sorted(p.name for p in dirs["run1"].iterdir())
        for other in ("run2", "one_cpu"):
            if sorted(p.name for p in dirs[other].iterdir()) != files:
                stable = False
                break
            for f in files:
                if (dirs["run1"] / f).read_bytes() != \
                        (dirs[other] / f).read_bytes():
                    stable = False
        checks.append((f"{name}: byte-identical across runs and with one "
                       "CPU", stable))
    with capsys.disabled():
        report("8 CLI determinism", checks, 60.0, time.monotonic() - t0)
