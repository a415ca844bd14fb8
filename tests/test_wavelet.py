import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import multiscale as ms
from multiscale import cli, errors, wavelet
from multiscale.wavelet import (MorletParams, ScaleGrid, Scalogram,
                                _chi2_ppf_2dof, _pad_length, morlet_spectrum,
                                scalogram_chunks, scalogram_csv_chunks,
                                scalogram_from_bytes, scalogram_to_bytes,
                                significance_mask, significance_threshold)

_BLOB = scalogram_to_bytes(ms.cwt_morlet(ms.gen_white_noise(64, 1)))


def csv_per_line(sg, mask):
    """The scalogram CSV as it was formatted before each row's scale became a
    prefix: every line formats all six cells."""
    times = (np.arange(sg.n) * sg.dt).tolist()
    power = np.abs(sg.coeffs) ** 2
    lines = []
    for s, c, p, m in zip(sg.scales.tolist(), sg.coeffs, power, mask):
        for row in zip(times, c.real.tolist(), c.imag.tolist(), p.tolist(),
                       m.tolist()):
            lines.append("%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % (s, *row))
    return "".join(lines)


def brute_force_cwt(x, dt, scales, omega0=6.0):
    """Time-domain convolution oracle, O(N^2) per scale.

    Zero-pads to the same power-of-two length as the FFT path and builds
    the analytic Morlet directly in the frequency domain per scale, but
    evaluates the convolution as an explicit sum.
    """
    n = len(x)
    npad = 1
    while npad < n + 1:
        npad *= 2
    xp = np.concatenate([x, np.zeros(npad - n)])
    out = np.empty((len(scales), n), complex)
    omega = 2 * np.pi * np.fft.fftfreq(npad, dt)
    m = np.arange(npad)
    for i, s in enumerate(scales):
        psi_hat = np.sqrt(2 * np.pi * s / dt) * morlet_spectrum(omega, s,
                                                                omega0)
        psi = np.conj(np.fft.ifft(psi_hat))
        for k in range(n):
            out[i, k] = np.sum(xp * psi[(m - k) % npad])
    return out


class TestCwtBasics:
    def test_zero_signal(self):
        sg = ms.cwt_morlet(ms.TimeSeries(np.zeros(256)))
        assert np.allclose(sg.coeffs, 0.0)

    def test_matches_brute_force(self):
        ts = ms.gen_white_noise(512, 11)
        grid = ScaleGrid(6.0, 0.25, 12)
        sg = ms.cwt_morlet(ts, grid)
        ref = brute_force_cwt(ts.samples, ts.dt, grid.scales)
        err = np.max(np.abs(sg.coeffs - ref)) / np.max(np.abs(ref))
        assert err < 1e-8

    def test_sine_peak_scale(self):
        ts = ms.gen_sine(2048, 1.0, 1.0 / 64)
        sg = ms.cwt_morlet(ts)
        gws = ms.global_spectrum(sg, coi_only=True)
        peak_period = sg.periods()[int(np.argmax(gws))]
        assert abs(np.log2(peak_period / 64.0)) <= sg.dj + 1e-12

    def test_linearity(self):
        a = ms.gen_white_noise(256, 1).samples
        b = ms.gen_white_noise(256, 2).samples
        grid = ScaleGrid(4.0, 0.25, 10)
        wa = ms.cwt_morlet(ms.TimeSeries(a), grid).coeffs
        wb = ms.cwt_morlet(ms.TimeSeries(b), grid).coeffs
        wab = ms.cwt_morlet(ms.TimeSeries(2.0 * a - 3.0 * b), grid).coeffs
        assert np.max(np.abs(wab - (2.0 * wa - 3.0 * wb))) < 1e-10 * np.max(
            np.abs(wab))

    def test_coi_symmetric(self):
        sg = ms.cwt_morlet(ms.gen_white_noise(300, 0))
        assert np.allclose(sg.coi, sg.coi[::-1])
        assert sg.coi[0] == 0.0

    def test_mother_is_analytic(self):
        omega = np.linspace(-20, 20, 401)
        psi_hat = morlet_spectrum(omega, 8.0, 6.0)
        assert np.all(psi_hat[omega <= 0] == 0.0)

    def test_too_short(self):
        with pytest.raises(errors.InputError,
                           match="need at least 32 samples"):
            ms.cwt_morlet(ms.TimeSeries(np.zeros(16)))

    def test_grid_too_coarse(self):
        with pytest.raises(errors.InvalidParameter,
                           match="largest scale exceeds a quarter"):
            ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(2.0, 0.6, 20))

    @pytest.mark.parametrize("s0, dj", [(0.0, 0.125), (-2.0, 0.125),
                                        (np.inf, 0.125), (np.nan, 0.125),
                                        (2.0, 0.0), (2.0, -0.5)])
    def test_default_grid_rejects_bad_s0_dj(self, s0, dj):
        with pytest.raises(errors.InvalidParameter):
            ScaleGrid.default_for(1024, 1.0, s0=s0, dj=dj)

    @pytest.mark.parametrize("s0, dj", [(np.nan, 0.125), (np.inf, 0.125),
                                        (2.0, np.nan), (2.0, np.inf)])
    def test_grid_rejects_non_finite_s0_dj(self, s0, dj):
        with pytest.raises(errors.InvalidParameter):
            ScaleGrid(s0=s0, dj=dj, J=4)

    @pytest.mark.parametrize("J", [0, 2 ** 32, np.inf, np.nan])
    def test_grid_rejects_j_outside_the_header_field(self, J):
        with pytest.raises(errors.InvalidParameter):
            ScaleGrid(s0=2.0, dj=0.125, J=J)

    @pytest.mark.parametrize("dj", [1e-300, 1e-320])
    def test_default_grid_rejects_j_outside_the_header_field(self, dj):
        with pytest.raises(errors.InvalidParameter):
            ScaleGrid.default_for(4096, 1.0, dj=dj)

    def test_default_grid_takes_a_given_j(self):
        # the J that dj = 1e-300 would give does not fit the header field
        grid = ScaleGrid.default_for(4096, 1.0, dj=1e-300, J=10)
        assert (grid.s0, grid.dj, grid.J) == (2.0, 1e-300, 10)
        assert ScaleGrid.default_for(4096, 0.5, J=3) == ScaleGrid(1.0, 0.125, 3)

    def test_default_grid_of_an_underflowed_ratio_is_one_scale(self):
        # n dt / (4 s0) underflows to 0: no log2 warning, and cwt_morlet
        # finds the one scale too coarse
        grid = ScaleGrid.default_for(4096, 1e-300, s0=1e308)
        assert grid.J == 1
        with pytest.raises(errors.InvalidParameter,
                           match="largest scale exceeds a quarter"):
            ms.cwt_morlet(ms.TimeSeries(np.ones(4096), dt=1e-300), grid)

    def test_default_grid_when_n_dt_and_4_s0_overflow(self):
        # the ratio n dt / (4 s0) is 64 although both products are inf
        grid = ScaleGrid.default_for(256, 1e308, s0=1e308)
        assert grid.J == ScaleGrid.default_for(256, 1.0, s0=1.0).J == 49

    @pytest.mark.parametrize("grid, error, match", [
        # J = 900,000,001: 59 TB of coefficients at n = 4096
        (ScaleGrid.default_for(4096, 1.0, dj=1e-8), MemoryError,
         "exceed physical memory"),
        # the largest scale is 2**(2**29) s0, which no float holds
        (ScaleGrid(2.0, 0.125, 2 ** 32 - 1), errors.InvalidParameter,
         "largest scale exceeds a quarter"),
        (ScaleGrid(1.0, 0.125, 2 ** 32 - 1), errors.InvalidParameter,
         r"smallest scale is below 2\*dt"),
    ], ids=["grid0-MemoryError", "grid1-GridTooCoarse",
            "grid2-ScaleOutOfRange"])
    def test_grid_is_checked_before_its_scales_exist(self, monkeypatch, grid,
                                                     error, match):
        def refuse(self):
            raise AssertionError("scales of the grid built")

        monkeypatch.setattr(ScaleGrid, "scales", property(refuse))
        with pytest.raises(error, match=match):
            ms.cwt_morlet(ms.gen_white_noise(4096, 0), grid)

    def test_coefficients_beyond_physical_memory_fail_first(self, monkeypatch):
        # 10 scales x 256 samples x 16 bytes is 40,960 bytes
        monkeypatch.setattr(wavelet, "_physical_memory", lambda: 40959)
        with pytest.raises(MemoryError):
            ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(2.0, 0.5, 10))
        monkeypatch.setattr(wavelet, "_physical_memory", lambda: 40960)
        ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(2.0, 0.5, 10))

    def test_physical_memory_unknown_without_sysconf(self, monkeypatch):
        assert 0 < wavelet._physical_memory() < np.inf
        monkeypatch.delattr(os, "sysconf")
        assert wavelet._physical_memory() == np.inf

    @pytest.mark.parametrize("s0", [1e-300, 1.9])
    def test_smallest_scale_below_two_dt_is_out_of_range(self, s0):
        with pytest.raises(errors.InvalidParameter,
                           match=r"smallest scale is below 2\*dt"):
            ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(s0, 0.5, 4))
        ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(2.0, 0.5, 4))

    def test_filter_zero_at_every_bin_is_refused_before_any_transform(self):
        # n = 256, dt = 1: the largest positive bin is 2 pi 255 / 512 =
        # 3.129, so the band |2 omega - omega0| <= 40 of s0 = 2 reaches it
        # up to omega0 = 46.2586
        ts = ms.gen_white_noise(256, 0)
        grid = ScaleGrid(2.0, 0.5, 6)
        ms.cwt_morlet(ts, grid, MorletParams(46.25))

        def refuse(*args, **kwargs):
            raise AssertionError("transform started")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "fft", refuse)
            for omega0 in (46.26, 1e308):
                with pytest.raises(errors.InvalidParameter,
                                   match="smallest scale is zero at every"):
                    ms.cwt_morlet(ts, grid, MorletParams(omega0))

    @settings(max_examples=200, deadline=None)
    @given(omega0=st.floats(5.0, 46.0), dt=st.floats(1e-3, 10.0),
           n=st.integers(32, 2 ** 13), frac=st.floats(0.0, 1.0))
    def test_filter_is_zero_outside_its_band(self, omega0, dt, n, frac):
        # s from 2 dt to n dt / 4; the bins the transform leaves out of the
        # filter must be those where the full-width filter is exactly 0.0
        s = min(2.0 * dt * (n / 8.0) ** frac, n * dt / 4.0)
        band = []

        def spy(omega, scale, omega0):
            band.extend(omega)
            return morlet_spectrum(omega, scale, omega0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wavelet, "morlet_spectrum", spy)
            try:
                ms.cwt_morlet(ms.TimeSeries(np.ones(n), dt=dt),
                              ScaleGrid(s, 0.125, 1), MorletParams(omega0))
            except errors.InvalidParameter:  # refused: no bin is in the band
                assert not band
        m = _pad_length(n)
        omega = 2.0 * np.pi * np.fft.fftfreq(m, dt)[1:(m + 1) // 2]
        outside = omega[~np.isin(omega, band)]
        assert np.all(morlet_spectrum(outside, s, omega0) == 0.0)

    def test_admissibility_floor(self):
        with pytest.raises(errors.InvalidParameter):
            MorletParams(omega0=4.0)

    @pytest.mark.parametrize("omega0", [np.nan, np.inf])
    def test_non_finite_omega0_rejected(self, omega0):
        with pytest.raises(errors.InvalidParameter):
            MorletParams(omega0=omega0)


def full_spectrum_cwt(ts, grid, params):
    """The transform as one full-length spectrum product and one ifft per
    scale on the calling thread: the reference that the half-spectrum,
    multi-threaded ``cwt_morlet`` must match bit for bit."""
    n = ts.n
    m = _pad_length(n)
    x = np.zeros(m)
    x[:n] = ts.samples
    spec = np.fft.fft(x)
    omega = 2.0 * np.pi * np.fft.fftfreq(m, ts.dt)
    coeffs = np.empty((grid.J, n), dtype=np.complex128)
    for j, s in enumerate(grid.scales):
        psi_hat = np.sqrt(2.0 * np.pi * s / ts.dt) * morlet_spectrum(
            omega, s, params.omega0)
        coeffs[j] = np.fft.ifft(spec * np.conj(psi_hat))[:n]
    return coeffs


@st.composite
def cwt_cases(draw):
    n = draw(st.integers(32, 4096))
    dt = draw(st.floats(1e-3, 10.0))
    dj = draw(st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    # s0 from 2 dt to n dt / 4, so that the filter bands run from clipped at
    # the Nyquist end to a few bins wide
    s0 = 2.0 * dt * (n / 8.0) ** draw(st.floats(0.0, 1.0))
    j_max = ScaleGrid.default_for(n, dt, s0=s0, dj=dj).J
    grid = ScaleGrid(s0, dj, draw(st.integers(1, min(j_max, 12))))
    x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(n)
    omega0 = draw(st.floats(5.0, 40.0))
    return ms.TimeSeries(x, dt=dt), grid, MorletParams(omega0)


class TestCwtThreads:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(case=cwt_cases())
    def test_bit_identical_to_full_spectrum_loop(self, cpus, case):
        ts, grid, params = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            mp.setattr(wavelet, "_THREADED_MIN_LENGTH", 0)
            got = ms.cwt_morlet(ts, grid, params).coeffs
        ref = full_spectrum_cwt(ts, grid, params)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("n, J, started", [(4096, 1, 0), (4096, 2, 1),
                                               (4096, 5, 2), (2047, 5, 0)])
    def test_one_thread_per_cpu_capped_at_scale_count(self, monkeypatch, n, J,
                                                      started):
        threads = []

        class Counted(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(threading, "Thread", Counted)
        ms.cwt_morlet(ms.gen_white_noise(n, 0), ScaleGrid(2.0, 0.5, J))
        assert len(threads) == started

    @pytest.mark.parametrize("J, cpus, calls", [(1, 1, 1), (5, 1, 3), (6, 1, 3),
                                                (5, 2, 3), (7, 3, 4), (2, 3, 2)])
    def test_two_rows_per_ifft_call(self, monkeypatch, J, cpus, calls):
        # each worker transforms its rows two at a time, an odd last one
        # alone: sum over workers of ceil(rows / 2) calls
        ifft = np.fft.ifft
        blocks = []

        def counted(z, *args, **kwargs):
            blocks.append(z.shape[0])
            return ifft(z, *args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(wavelet, "_THREADED_MIN_LENGTH", 0)
        monkeypatch.setattr(np.fft, "ifft", counted)
        ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(2.0, 0.25, J))
        assert len(blocks) == calls and sum(blocks) == J

    def test_peak_memory_is_coefficients_and_one_block(self, monkeypatch):
        # the block of two rows is transformed in place: beside the
        # coefficients, one worker holds 32 bytes per padded point for it,
        # plus the half spectrum, its frequencies and one row's narrow
        # filter band; an ifft result next to its input would add 32 more
        ts = ms.gen_white_noise(4096, 0)
        grid = ScaleGrid(64.0, 0.25, 12)
        m = _pad_length(ts.n)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        ms.cwt_morlet(ts, grid)  # first-call allocations are not the transform's
        tracemalloc.start()
        try:
            coeffs = ms.cwt_morlet(ts, grid).coeffs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - coeffs.nbytes < 56 * m

    def test_workers_capped_on_many_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        floor, most = wavelet._THREADED_MIN_LENGTH, wavelet._MAX_WORKERS
        assert wavelet._worker_count(105, 131072, floor) == most
        assert wavelet._worker_count(2, 131072, floor) == 2
        assert wavelet._worker_count(105, 2048, floor) == 1

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # 8 workers on a short switch interval: a row lost or written twice
        # by another worker breaks bit equality with the reference
        ts = ms.gen_fgn(600, 0.8, 9)
        grid = ScaleGrid(2.0, 0.125, 49)
        ref = full_spectrum_cwt(ts, grid, MorletParams())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        monkeypatch.setattr(wavelet, "_THREADED_MIN_LENGTH", 0)
        monkeypatch.setattr(wavelet, "_MAX_WORKERS", 8)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: results.extend(
                ms.cwt_morlet(ts, grid).coeffs for _ in range(20)))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(results) == 20
        for got in results:
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        def failing_ifft(*args, **kwargs):
            raise MemoryError("no room")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(wavelet, "_THREADED_MIN_LENGTH", 0)
        monkeypatch.setattr(np.fft, "ifft", failing_ifft)
        with pytest.raises(MemoryError):
            ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(2.0, 0.5, 6))

    def test_error_on_another_worker_reaches_the_caller(self, monkeypatch):
        ifft = np.fft.ifft
        main = threading.main_thread()

        def failing_off_main(*args, **kwargs):
            if threading.current_thread() is not main:
                raise MemoryError("no room")
            return ifft(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(wavelet, "_THREADED_MIN_LENGTH", 0)
        monkeypatch.setattr(np.fft, "ifft", failing_off_main)
        with pytest.raises(MemoryError):
            ms.cwt_morlet(ms.gen_white_noise(256, 0), ScaleGrid(2.0, 0.5, 6))

    def test_interrupt_on_caller_joins_and_stops_workers(self, monkeypatch):
        # Ctrl-C on the calling thread propagates once the workers, told
        # to stop, have finished the row they are on
        ifft = np.fft.ifft
        main = threading.main_thread()
        rows_off_main = []

        def interrupted_on_main(z, *args, **kwargs):
            if threading.current_thread() is main:
                raise KeyboardInterrupt
            rows_off_main.append(z.shape[0])
            return ifft(z, *args, **kwargs)

        before = threading.active_count()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(wavelet, "_THREADED_MIN_LENGTH", 0)
        monkeypatch.setattr(np.fft, "ifft", interrupted_on_main)
        with pytest.raises(KeyboardInterrupt):
            ms.cwt_morlet(ms.gen_white_noise(4096, 0), ScaleGrid(2.0, 0.125, 60))
        assert threading.active_count() == before
        assert sum(rows_off_main) < 40  # two workers' share of 60 rows

    def test_failed_thread_start_joins_the_started_ones(self, monkeypatch):
        started = []

        class SecondFails(threading.Thread):
            def start(self):
                if started:
                    raise RuntimeError("can't start new thread")
                started.append(self)
                super().start()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(threading, "Thread", SecondFails)
        with pytest.raises(RuntimeError, match="can't start"):
            ms.cwt_morlet(ms.gen_white_noise(4096, 0), ScaleGrid(2.0, 0.5, 6))
        assert len(started) == 1 and not started[0].is_alive()


class TestGlobalSpectrum:
    def test_two_sines_two_peaks(self):
        n = 8192
        x = (ms.gen_sine(n, 1.0, 1 / 64).samples
             + ms.gen_sine(n, 1.0, 1 / 512).samples)
        sg = ms.cwt_morlet(ms.TimeSeries(x))
        gws = ms.global_spectrum(sg, coi_only=True)
        interior = np.arange(1, len(gws) - 1)
        peaks = [j for j in interior
                 if gws[j] > gws[j - 1] and gws[j] > gws[j + 1]
                 and gws[j] > 0.05 * gws.max()]
        assert len(peaks) == 2
        periods = sorted(sg.periods()[peaks])
        assert abs(np.log2(periods[0] / 64.0)) < 2 * sg.dj + 1e-12
        assert abs(np.log2(periods[1] / 512.0)) < 2 * sg.dj + 1e-12

    def test_white_noise_flat_by_decade(self):
        accum = None
        for seed in range(8):
            ts = ms.gen_white_noise(4096, seed)
            sg = ms.cwt_morlet(ts, ScaleGrid(2.0, 0.125, 48))
            gws = ms.global_spectrum(sg, coi_only=True)
            accum = gws if accum is None else accum + gws
        scales = sg.scales
        means = []
        for lo, hi in [(2.0, 8.0), (8.0, 32.0), (32.0, 128.0)]:
            sel = (scales >= lo) & (scales < hi)
            means.append(accum[sel].mean())
        assert max(means) / min(means) < 2.5

    def test_row_by_row_power_matches_full_power(self):
        sg = ms.cwt_morlet(ms.gen_fgn(1000, 0.8, 3))
        got = ms.global_spectrum(sg)
        want = (np.abs(sg.coeffs) ** 2).mean(axis=1)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_empty_coi_unreachable_grid(self):
        base = ms.cwt_morlet(ms.gen_white_noise(64, 0))
        huge = Scalogram(coeffs=np.ones((1, 64), complex),
                         scales=np.array([1e6]), dj=0.125, dt=1.0,
                         params=base.params, src_var=1.0, src_lag1=0.0)
        with pytest.raises(errors.NumericError,
                           match="no cone-of-influence interior"):
            ms.global_spectrum(huge, coi_only=True)

    @pytest.mark.parametrize("amps, want", [([1, 3, 1, 3, 1], 1),
                                            ([1, 2, 4, 3, 5, 5], 4),
                                            ([3, 1, 2, 2], 2)])
    def test_dominant_scale_is_highest_interior_peak(self, amps, want):
        # a tie goes to the smaller scale; a plateau peaks at its first scale
        grid = ScaleGrid(2.0, 0.5, len(amps))
        sg = Scalogram(coeffs=np.repeat(np.array(amps, complex)[:, None], 64, 1),
                       scales=grid.scales, dj=grid.dj, dt=1.0)
        assert wavelet.dominant_scale(sg) == grid.scales[want]

    @pytest.mark.parametrize("amps", [[1, 2, 3], [3, 2, 1], [1, 1, 1], [5, 9]])
    def test_no_interior_peak_is_empty_band(self, amps):
        sg = Scalogram(coeffs=np.repeat(np.array(amps, complex)[:, None], 64, 1),
                       scales=ScaleGrid(2.0, 0.5, len(amps)).scales, dj=0.5,
                       dt=1.0)
        with pytest.raises(errors.NumericError,
                           match="no global-spectrum peak"):
            wavelet.dominant_scale(sg)


class TestScaleAveragedVariance:
    def test_modulated_amplitude_ratio(self):
        n = 8192
        carrier = ms.gen_sine(n, 1.0, 1 / 64).samples
        amp = np.where(np.arange(n) < n // 2, 1.0, 2.0)
        sg = ms.cwt_morlet(ms.TimeSeries(amp * carrier))
        sav = ms.scale_avg_variance(sg, (32.0, 128.0)).samples
        q = n // 8
        first = sav[q:n // 2 - q].mean()
        second = sav[n // 2 + q:n - q].mean()
        assert second / first == pytest.approx(4.0, rel=0.15)

    def test_white_noise_total_variance(self):
        ts = ms.gen_white_noise(4096, 42)
        sg = ms.cwt_morlet(ts, ScaleGrid(2.0, 0.125, 60))
        sav = ms.scale_avg_variance(sg, (sg.scales[0], sg.scales[-1]))
        inside = sg.coi >= sg.scales[0]
        assert sav.samples[inside].mean() == pytest.approx(
            np.var(ts.samples), rel=0.25)

    def test_empty_band(self):
        sg = ms.cwt_morlet(ms.gen_white_noise(256, 0))
        with pytest.raises(errors.NumericError,
                           match="band does not intersect the scale grid"):
            ms.scale_avg_variance(sg, (1e9, 2e9))


class TestSignificance:
    def test_level_bounds(self):
        sg = ms.cwt_morlet(ms.gen_white_noise(256, 0))
        with pytest.raises(errors.InvalidParameter):
            ms.significance_mask(sg, level=0.5)

    def test_sine_scale_significant(self):
        ts = ms.gen_sine(2048, 1.0, 1 / 64)
        sg = ms.cwt_morlet(ts)
        mask = ms.significance_mask(sg).mask
        j = int(np.argmin(np.abs(sg.periods() - 64.0)))
        inside = sg.coi >= sg.scales[j]
        assert mask[j, inside].mean() > 0.95

    def test_constant_series_has_infinite_thresholds(self):
        for value in (0.0, 1.0, 0.1):
            sg = ms.cwt_morlet(ms.TimeSeries(np.full(256, value)))
            assert sg.src_var == 0.0
            assert np.all(significance_threshold(sg) == np.inf)
            assert not significance_mask(sg).mask.any()

    @pytest.mark.parametrize("level,quantile", [
        (0.5, 1.3862943611198906),
        (0.9, 4.605170185988091),
        (0.95, 5.991464547107979),
        (0.99, 9.210340371976184),
        (0.999, 13.815510557964274),
    ])
    def test_chi2_two_dof_quantile(self, level, quantile):
        assert _chi2_ppf_2dof(level) == pytest.approx(quantile, rel=1e-14)

    def test_white_noise_false_positive_rate(self):
        hits = total = 0
        for seed in range(10):
            sg = ms.cwt_morlet(ms.gen_white_noise(2048, seed))
            mask = ms.significance_mask(sg).mask
            inside = sg.coi[None, :] >= sg.scales[:, None]
            hits += int(mask[inside].sum())
            total += int(inside.sum())
        rate = hits / total
        assert 0.02 < rate < 0.09


class TestReconstruction:
    def test_full_band(self):
        ts = ms.gen_white_noise(2048, 9)
        sg = ms.cwt_morlet(ts, ScaleGrid(2.0, 0.125, 64))
        rec = ms.reconstruct_band(sg, (sg.scales[0], sg.scales[-1]))
        corr = np.corrcoef(rec.samples, ts.samples)[0, 1]
        assert corr > 0.95


def g17_texts(values):
    """The text of each value as the vectorised formatter writes it."""
    cells = wavelet._g17_cells(np.array(values, dtype=np.float64))
    return [cell[cell != 0].tobytes() for cell in cells]


def percent_texts(values):
    return [b"%.17g" % v for v in values]


def neighbours(x, steps=3):
    """x and the ``steps`` doubles on each side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(steps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


class TestG17Cells:
    """The scalogram CSV's formatter writes the bytes of %.17g."""

    @settings(max_examples=300)
    @given(st.lists(st.floats() | st.floats(-1e17, 1e17), max_size=40))
    @example([0.0, -0.0, 5e-324, -2.2250738585072014e-308, np.nan, np.inf,
              -np.inf, 1.7976931348623157e308])
    def test_any_double_formats_as_percent(self, values):
        # st.floats() draws nan, inf, subnormals and -0.0 too
        assert g17_texts(values) == percent_texts(values)

    def test_random_bit_patterns_and_magnitudes(self):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64)
        spread = (rng.standard_normal(20000)
                  * 10.0 ** rng.integers(-6, 19, 20000))
        values = np.concatenate((bits.view(np.float64), spread)).tolist()
        assert g17_texts(values) == percent_texts(values)

    def test_powers_of_ten_and_their_neighbours(self):
        # log10 is one off next to many of them, %.17g changes notation at
        # 1e-4 and 1e17, and only a double just below one could round up
        # to it, carrying into one more digit
        values = [s * v for e in range(-8, 19) for v in neighbours(10.0 ** e)
                  for s in (1.0, -1.0)]
        assert g17_texts(values) == percent_texts(values)

    @pytest.mark.parametrize("skew", [-np.inf, np.inf])
    def test_exponent_does_not_rest_on_log10_rounding(self, monkeypatch, skew):
        # a log10 one ulp off puts exact powers of ten a decade too low, or
        # their lower neighbours a decade too high
        log10 = np.log10
        monkeypatch.setattr(np, "log10",
                            lambda a: np.nextafter(log10(a), skew))
        values = [v for e in range(-3, 17) for v in neighbours(10.0 ** e, 1)]
        assert g17_texts(values) == percent_texts(values)

    def test_one_micro_is_written_with_its_true_exponent(self):
        # the double 1e-06 is 9.99999999999999955e-07
        assert g17_texts([1e-06, -1e-06]) == [b"9.9999999999999995e-07",
                                              b"-9.9999999999999995e-07"]

    def test_half_way_digits_round_to_even(self):
        # 17 digits of each end in an exact 5: 1000000000000000.25 and .75
        # have 10000000000000002.5 and ...7.5
        values = [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375,
                  -(1e15 + 0.25)]
        assert g17_texts(values) == [
            b"1000000000000000.2", b"1000000000000000.8",
            b"100000000000000.12", b"100000000000000.38",
            b"-1000000000000000.2"]
        assert g17_texts(values) == percent_texts(values)

    def test_trailing_zeros_and_the_point_are_dropped(self):
        values = [100.0, 0.5, 1e16, 12345678901234567.0, 0.0001, 2.5e-3]
        assert g17_texts(values) == [b"100", b"0.5", b"10000000000000000",
                                     b"12345678901234568", b"0.0001",
                                     b"0.0025000000000000001"]
        assert g17_texts(values) == percent_texts(values)

    def test_empty(self):
        assert wavelet._g17_cells(np.empty(0)).shape == (0, 24)


class TestSerialization:
    def test_bytes_round_trip(self):
        sg = ms.cwt_morlet(ms.gen_white_noise(300, 5))
        blob = scalogram_to_bytes(sg)
        assert blob[:5] == b"MSCL1"
        back = scalogram_from_bytes(blob)
        assert np.array_equal(back.coeffs, sg.coeffs)
        assert back.scales.tobytes() == sg.scales.tobytes()
        assert back.dt == sg.dt
        assert back.params.omega0 == sg.params.omega0

    @settings(max_examples=40, deadline=None)
    @given(case=cwt_cases())
    def test_decode_is_bit_exact_and_re_encodes_identically(self, case):
        ts, grid, params = case
        sg = ms.cwt_morlet(ts, grid, params)
        blob = scalogram_to_bytes(sg)
        back = scalogram_from_bytes(blob)
        assert back.coeffs.tobytes() == sg.coeffs.tobytes()
        assert back.scales.tobytes() == sg.scales.tobytes()
        assert scalogram_to_bytes(back) == blob

    def test_chunks_join_to_the_record_without_copying_coefficients(self):
        sg = ms.cwt_morlet(ms.gen_white_noise(100, 2), ScaleGrid(2.0, 0.5, 5))
        head, scales, body = scalogram_chunks(sg)
        assert head + scales + bytes(body) == scalogram_to_bytes(sg)
        assert len(body) == sg.coeffs.nbytes
        if sys.byteorder == "little":
            assert np.shares_memory(np.frombuffer(body, np.uint8), sg.coeffs)

    def test_non_contiguous_coefficients_encode_like_a_copy(self):
        sg = ms.cwt_morlet(ms.gen_white_noise(100, 2), ScaleGrid(2.0, 0.5, 6))
        strided = Scalogram(coeffs=sg.coeffs[::2, ::2], scales=sg.scales[::2],
                            dj=1.0, dt=sg.dt)
        copied = Scalogram(coeffs=sg.coeffs[::2, ::2].copy(),
                           scales=sg.scales[::2].copy(), dj=1.0, dt=sg.dt)
        assert scalogram_to_bytes(strided) == scalogram_to_bytes(copied)

    @settings(max_examples=30, deadline=None)
    @given(case=cwt_cases(), level=st.floats(0.5, 1.0, exclude_min=True,
                                              exclude_max=True),
           workers=st.sampled_from([1, 3]),
           gain=st.sampled_from([1.0, 1e-8, 1e20]))
    def test_csv_matches_per_line_formatting(self, case, level, workers, gain):
        ts, grid, params = case
        # scaled, most values fall outside %.17g's fixed notation, some not
        ts = ms.TimeSeries(ts.samples * gain, dt=ts.dt)
        sg = ms.cwt_morlet(ts, grid, params)
        mask = significance_mask(sg, level).mask
        # one row per chunk, also when forked workers format all but every
        # third row, whatever the size
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wavelet, "_worker_count",
                       lambda j, size, floor: min(workers, j))
            chunks = list(scalogram_csv_chunks(
                sg, significance_threshold(sg, level)))
        assert len(chunks) == grid.J
        assert b"".join(chunks) == csv_per_line(sg, mask).encode()
        # the command line counts the points that the mask marks
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "x.csv")
            with open(src, "w") as fh:
                fh.writelines("%.17g\n" % v for v in ts.samples)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([
                    "cwt", src, "--dt", repr(ts.dt), "--s0", repr(grid.s0),
                    "--dj", repr(grid.dj), "--jtot", str(grid.J),
                    "--omega0", repr(params.omega0), "--sig", repr(level),
                    "--format", "json", "--out", tmp])
        assert code == 0
        assert json.loads(out.getvalue())["n_significant"] == mask.sum()

    def test_record_without_times_has_no_lines(self):
        sg = Scalogram(np.zeros((3, 0), complex), np.array([2.0, 4.0, 8.0]),
                       dj=1.0, dt=1.0)
        assert list(scalogram_csv_chunks(sg, np.zeros(3))) == [b"", b"", b""]

    def test_bad_magic(self):
        with pytest.raises(errors.InputError, match="bad scalogram magic"):
            scalogram_from_bytes(b"NOPE!" + bytes(64))

    def test_coefficients_are_interleaved_re_im(self):
        sg = ms.cwt_morlet(ms.gen_white_noise(100, 2), ScaleGrid(2.0, 0.5, 5))
        body = np.frombuffer(scalogram_to_bytes(sg)[-16 * sg.coeffs.size:],
                             dtype="<f8").reshape(5, 100, 2)
        assert np.array_equal(body[:, :, 0], sg.coeffs.real)
        assert np.array_equal(body[:, :, 1], sg.coeffs.imag)

    @given(st.integers(0, len(_BLOB) - 1), st.binary(min_size=1, max_size=64))
    def test_cut_or_padded_record_is_malformed(self, cut, extra):
        with pytest.raises(errors.InputError, match="scalogram (magic|record)"):
            scalogram_from_bytes(_BLOB[:cut])
        with pytest.raises(errors.InputError,
                           match="length does not match its header"):
            scalogram_from_bytes(_BLOB + extra)

    def test_decoded_scalogram_lacks_source_statistics(self):
        back = scalogram_from_bytes(_BLOB)
        assert back.coeffs.flags.writeable
        with pytest.raises(errors.InvalidParameter):
            ms.significance_mask(back)
