import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multiscale as ms
from multiscale import errors
from multiscale.phase import _running_range, wrap_phase


class TestWrapPhase:
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_range(self, x):
        w = wrap_phase(np.array([x]))[0]
        assert -np.pi < w <= np.pi

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=200)
    def test_idempotent(self, x):
        once = wrap_phase(np.array([x]))
        assert wrap_phase(once)[0] == pytest.approx(once[0], abs=1e-12)

    def test_shift_by_two_pi(self):
        x = np.linspace(-10, 10, 1001)
        assert np.allclose(wrap_phase(x), wrap_phase(x + 2 * np.pi),
                           atol=1e-9)


class TestPhaseAtScale:
    def test_sine_phase_slope(self):
        n, f0 = 4096, 1.0 / 64
        ts = ms.gen_sine(n, 1.0, f0)
        ph = ms.phase_at_scale(ts, 64.0 / ms.MorletParams().fourier_factor)
        sl = ph.coi_valid
        slope = np.polyfit(ts.times()[sl], ph.unwrapped[sl], 1)[0]
        assert slope == pytest.approx(2 * np.pi * f0, rel=0.01)

    def test_wrapped_consistent_with_unwrapped(self):
        ph = ms.phase_at_scale(ms.gen_white_noise(1024, 3), 24.0)
        assert np.allclose(ph.wrapped, wrap_phase(ph.unwrapped), atol=1e-10)

    def test_scale_out_of_range(self):
        ts = ms.gen_white_noise(256, 0)
        with pytest.raises(errors.InvalidParameter,
                           match=r"smallest scale is below 2\*dt"):
            ms.phase_at_scale(ts, 0.5)
        with pytest.raises(errors.InvalidParameter,
                           match="largest scale exceeds a quarter"):
            ms.phase_at_scale(ts, 1000.0)
        for bad in (0.0, -4.0, np.nan, np.inf):
            with pytest.raises(errors.InvalidParameter,
                               match="need finite s0"):
                ms.phase_at_scale(ts, bad)
        # a short series is reported first, whatever the scale
        with pytest.raises(errors.InputError,
                           match="need at least 32 samples"):
            ms.phase_at_scale(ms.gen_white_noise(31, 0), 1000.0)

    @given(st.integers(32, 4096),
           st.floats(1e-3, 1e3),
           st.one_of(st.tuples(st.sampled_from(["floor", "ceiling"]),
                               st.integers(-30, 30)),
                     st.tuples(st.just("interior"), st.floats(0.0, 1.0))))
    @settings(max_examples=60, deadline=None)
    # within the 1e-12 slack of each bound: cwt_morlet accepts both
    @example(1024, 1.0, ("floor", -1))
    @example(1024, 1.0, ("ceiling", 1))
    def test_phase_refuses_exactly_the_scales_cwt_refuses(self, n, dt, pick):
        """One scale rule: phase_at_scale and a one-scale cwt_morlet accept
        and refuse the same scales, with the same error class."""
        ts = ms.TimeSeries(ms.gen_white_noise(n, 0).samples, dt=dt)
        where, k = pick
        floor, ceiling = 2.0 * dt, n * dt / 4.0
        if where == "floor":
            scale = floor * (1.0 + k * 1e-13)
        elif where == "ceiling":
            scale = ceiling * (1.0 + k * 1e-13)
        else:
            scale = floor * (ceiling / floor) ** k

        def outcome(call):
            try:
                call()
            except errors.MultiscaleError as exc:
                return type(exc)
            return None

        assert outcome(lambda: ms.phase_at_scale(ts, scale)) == outcome(
            lambda: ms.cwt_morlet(ts, ms.ScaleGrid(scale, 0.125, 1)))


class TestPhaseDifference:
    def _pair(self, n=4096, f0=1.0 / 64, offset=np.pi / 3, seed=None):
        a = ms.gen_sine(n, 1.0, f0)
        b = ms.gen_sine(n, 1.0, f0, phase=offset)
        scale = (1.0 / f0) / ms.MorletParams().fourier_factor
        pa = ms.phase_at_scale(a, scale)
        pb = ms.phase_at_scale(b, scale)
        return pa, pb

    def test_constant_offset(self):
        pa, pb = self._pair()
        d = ms.phase_difference(pb, pa)
        sl = d.coi_valid
        med = np.median(wrap_phase(d.delta[sl]))
        assert med == pytest.approx(np.pi / 3, abs=0.05)

    def test_antisymmetry(self):
        a = ms.gen_white_noise(2048, 1)
        b = ms.gen_white_noise(2048, 2)
        pa = ms.phase_at_scale(a, 32.0)
        pb = ms.phase_at_scale(b, 32.0)
        dab = ms.phase_difference(pa, pb).delta
        dba = ms.phase_difference(pb, pa).delta
        assert np.max(np.abs(wrap_phase(dab + dba))) < 1e-9

    def test_amplitude_invariance(self):
        ts = ms.gen_white_noise(2048, 4)
        big = ts.with_samples(100.0 * ts.samples)
        pa = ms.phase_at_scale(ts, 32.0)
        pb = ms.phase_at_scale(big, 32.0)
        assert np.max(np.abs(wrap_phase(pa.wrapped - pb.wrapped))) < 1e-10

    def test_length_mismatch(self):
        pa = ms.phase_at_scale(ms.gen_white_noise(1024, 0), 32.0)
        pb = ms.phase_at_scale(ms.gen_white_noise(512, 0), 32.0)
        with pytest.raises(errors.InputError,
                           match="phase series lengths differ"):
            ms.phase_difference(pa, pb)

    def test_scale_mismatch(self):
        ts = ms.gen_white_noise(1024, 0)
        pa = ms.phase_at_scale(ts, 32.0)
        pb = ms.phase_at_scale(ts, 48.0)
        with pytest.raises(errors.InputError,
                           match="phase series scales differ"):
            ms.phase_difference(pa, pb)

    def test_sampling_interval_mismatch(self):
        # the same samples, stamped 0, 1, 2, ... and 0, 2, 4, ...
        a = ms.gen_fgn(1024, 0.7, 0)
        b = ms.TimeSeries(a.samples, dt=2.0)
        pa, pb = ms.phase_at_scale(a, 16.0), ms.phase_at_scale(b, 16.0)
        with pytest.raises(errors.InputError,
                           match="phase series sampling intervals differ"):
            ms.phase_difference(pa, pb)
        assert ms.phase_difference(pa, ms.phase_at_scale(
            ms.TimeSeries(a.samples, dt=1.0 + 1e-12), 16.0)).dt == 1.0


class TestReconstructBand:
    def test_band_separation(self):
        n = 8192
        lo = ms.gen_sine(n, 1.0, 1 / 512).samples
        hi = ms.gen_sine(n, 1.0, 1 / 64).samples
        sg = ms.cwt_morlet(ms.TimeSeries(lo + hi))
        ff = sg.params.fourier_factor
        rec_hi = ms.reconstruct_band(sg, (32.0 / ff, 128.0 / ff)).samples
        inner = slice(n // 8, -n // 8)
        assert np.corrcoef(rec_hi[inner], hi[inner])[0, 1] > 0.98
        assert abs(np.corrcoef(rec_hi[inner], lo[inner])[0, 1]) < 0.1

    def test_zero_signal(self):
        sg = ms.cwt_morlet(ms.TimeSeries(np.zeros(256)))
        rec = ms.reconstruct_band(sg, (sg.scales[0], sg.scales[-1]))
        assert np.allclose(rec.samples, 0.0)


def brute_force_range(u, size):
    """Window max - min with edge samples repeated beyond either end."""
    n = u.size
    out = np.empty(n)
    for i in range(n):
        idx = np.clip(np.arange(i - size // 2, i - size // 2 + size), 0, n - 1)
        out[i] = u[idx].max() - u[idx].min()
    return out


class TestRunningRange:
    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1,
                    max_size=200),
           st.integers(2, 300))
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, values, size):
        u = np.array(values)
        assert np.array_equal(_running_range(u, size),
                              brute_force_range(u, size))

    def test_window_longer_than_series_sees_everything(self):
        u = np.array([3.0, -1.0, 4.0, 1.5])
        assert np.array_equal(_running_range(u, 9), np.full(4, 5.0))


def loop_runs(ok, min_duration):
    """Half-open runs of True at least min_duration long, one sample at a
    time: the reference for the vectorised run detection."""
    intervals = []
    start = None
    for i, flag in enumerate(ok):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= min_duration:
                intervals.append((start, i))
            start = None
    if start is not None and ok.size - start >= min_duration:
        intervals.append((start, ok.size))
    return intervals


class TestLockingIntervals:
    @given(st.lists(st.booleans(), min_size=2, max_size=300),
           st.integers(2, 40))
    @settings(max_examples=300, deadline=None)
    def test_runs_match_loop(self, flags, min_duration):
        # a zero difference is locked everywhere, so the runs are those of
        # coi_valid alone
        ok = np.array(flags)
        d = ms.PhaseDiffResult(delta=np.zeros(ok.size), coi_valid=ok,
                               scale=4.0)
        ivals = ms.locking_intervals(d, tolerance=0.5,
                                     min_duration=min_duration)
        assert ivals == loop_runs(ok, min_duration)
        assert all(type(v) is int for iv in ivals for v in iv)

    def test_constant_offset_fully_locked(self):
        pa, pb = TestPhaseDifference()._pair()
        d = ms.phase_difference(pb, pa)
        ivals = ms.locking_intervals(d, tolerance=0.5, min_duration=64)
        assert len(ivals) == 1
        start, end = ivals[0]
        valid = np.flatnonzero(d.coi_valid)
        assert start <= valid[0] + 64
        assert end >= valid[-1] - 64

    def test_steady_drift_never_locks(self):
        n = 4096
        a = ms.gen_sine(n, 1.0, 1 / 64)
        b = ms.gen_sine(n, 1.0, 1 / 64 * 1.05)
        scale = 64.0 / ms.MorletParams().fourier_factor
        d = ms.phase_difference(ms.phase_at_scale(a, scale),
                                ms.phase_at_scale(b, scale))
        assert ms.locking_intervals(d, tolerance=0.5, min_duration=256) == []

    def test_episode_boundaries(self):
        n, f0 = 6144, 1.0 / 64
        t = np.arange(n)
        detune = np.where((t >= n // 3) & (t < 2 * n // 3), 0.0, 0.25 * f0)
        phase_b = 2 * np.pi * np.cumsum(f0 + detune)
        a = ms.gen_sine(n, 1.0, f0)
        b = ms.TimeSeries(np.sin(phase_b))
        scale = (1.0 / f0) / ms.MorletParams().fourier_factor
        d = ms.phase_difference(ms.phase_at_scale(a, scale),
                                ms.phase_at_scale(b, scale))
        min_dur = 64
        ivals = ms.locking_intervals(d, tolerance=0.5, min_duration=min_dur)
        assert len(ivals) == 1
        start, end = ivals[0]
        assert abs(start - n // 3) <= 2 * min_dur
        assert abs(end - 2 * n // 3) <= 2 * min_dur

    def test_constant_offset_invariance(self):
        pa, pb = TestPhaseDifference()._pair()
        d = ms.phase_difference(pb, pa)
        base = ms.locking_intervals(d, tolerance=0.5, min_duration=64)
        from dataclasses import replace
        shifted = replace(d, delta=d.delta + 1.7)
        assert ms.locking_intervals(shifted, tolerance=0.5,
                                    min_duration=64) == base

    def test_min_duration_longer_than_series(self):
        pa, pb = TestPhaseDifference()._pair()
        d = ms.phase_difference(pb, pa)
        assert ms.locking_intervals(d, min_duration=d.delta.size + 1) == []

    def test_with_locking_annotates(self):
        pa, pb = TestPhaseDifference()._pair()
        d = ms.phase_difference(pb, pa)
        annotated = ms.with_locking(d, tolerance=0.5, min_duration=64)
        assert annotated.tolerance == 0.5
        assert annotated.min_duration == 64
        assert len(annotated.locking_intervals) == 1
