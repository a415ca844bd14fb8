import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multiscale as ms
from multiscale import errors, fractal
from multiscale.dwt import boundary_margin
from multiscale.fractal import WaveletDetrend, _segment_variances

DYADIC = [2 ** k for k in range(4, 13)]
Q6 = [-5.0, -3.0, -1.0, 1.0, 3.0, 5.0]


def naive_rescaled_range(x, sizes):
    """Independent O(N^2) reimplementation used as an oracle."""
    rs_means = []
    for w in sizes:
        vals = []
        for start in range(0, (len(x) // w) * w, w):
            seg = x[start:start + w]
            mean = sum(seg) / w
            cum, lo, hi = 0.0, 0.0, 0.0
            for v in seg:
                cum += v - mean
                lo, hi = min(lo, cum), max(hi, cum)
            var = sum((v - mean) ** 2 for v in seg) / w
            vals.append((hi - lo) / var ** 0.5)
        rs_means.append(sum(vals) / len(vals))
    lx = np.log(np.asarray(sizes, float))
    ly = np.log(np.asarray(rs_means))
    return np.polyfit(lx, ly, 1)[0], rs_means


def hat_matrix_variances(x, scale, order):
    """Per-segment detrended variance through the scale x scale least-squares
    hat matrix on t = 0 .. scale-1: the reference for the QR projection."""
    n = x.size
    nseg = n // scale
    design = np.vander(np.arange(scale, dtype=np.float64), order + 1,
                       increasing=True)
    hat = design @ np.linalg.pinv(design)
    out = []
    for seg in (x[: nseg * scale].reshape(nseg, scale),
                x[n - nseg * scale:].reshape(nseg, scale)):
        res = seg - seg @ hat.T
        out.append(np.mean(res * res, axis=1))
    return np.concatenate(out)


def tau_analytic(q, p=0.6):
    return -np.log2(p ** q + (1 - p) ** q)


class TestRescaledRange:
    def test_white_noise(self):
        res = ms.rescaled_range(ms.gen_white_noise(2 ** 14, 42), DYADIC)
        assert res.hurst == pytest.approx(0.5, abs=0.07)

    def test_fgn_08(self):
        res = ms.rescaled_range(ms.gen_fgn(2 ** 14, 0.8, 42), DYADIC)
        assert res.hurst == pytest.approx(0.8, abs=0.1)

    def test_matches_naive_reimplementation(self):
        ts = ms.gen_white_noise(1024, 7)
        sizes = [8, 16, 32, 64, 128]
        res = ms.rescaled_range(ts, sizes)
        naive_h, naive_rs = naive_rescaled_range(list(ts.samples), sizes)
        assert np.max(np.abs(res.rs_values - np.array(naive_rs))) < 1e-10
        assert res.hurst == pytest.approx(naive_h, abs=1e-10)

    def test_affine_invariance(self):
        ts = ms.gen_white_noise(4096, 3)
        sizes = [16, 32, 64, 128, 256]
        base = ms.rescaled_range(ts, sizes).hurst
        moved = ms.rescaled_range(ts.with_samples(3.5 * ts.samples - 11.0),
                                  sizes).hurst
        assert moved == pytest.approx(base, abs=1e-9)

    def test_degenerate_window(self):
        ts = ms.TimeSeries(np.concatenate([np.full(64, 1.0),
                                           np.random.default_rng(0).standard_normal(64)]))
        with pytest.raises(errors.DegenerateWindow):
            ms.rescaled_range(ts, [8, 16, 32, 64])

    def test_too_few_scales(self):
        with pytest.raises(errors.TooFewScales):
            ms.rescaled_range(ms.gen_white_noise(512, 0), [8, 16, 32])


class TestAffineInvariance:
    """x -> a x + b with a > 0 leaves every Hurst estimate unchanged."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), hurst=st.floats(0.2, 0.9),
           a=st.floats(1e-2, 1e2), b=st.floats(-1e2, 1e2))
    def test_rs_hurst(self, seed, hurst, a, b):
        ts = ms.gen_fgn(1024, hurst, seed)
        sizes = [16, 32, 64, 128, 256]
        base = ms.rescaled_range(ts, sizes).hurst
        moved = ms.rescaled_range(ts.with_samples(a * ts.samples + b), sizes)
        assert moved.hurst == pytest.approx(base, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), hurst=st.floats(0.2, 0.9),
           a=st.floats(1e-2, 1e2), b=st.floats(-1e2, 1e2),
           order=st.integers(0, 3))
    def test_mfdfa_hq_of_the_profile(self, seed, hurst, a, b, order):
        ts = ms.gen_fgn(2048, hurst, seed)
        scales = [16, 32, 64, 128, 256, 512]
        base = ms.mfdfa(ms.profile(ts), scales, Q6, detrend=order).hq
        moved = ms.mfdfa(ms.profile(ts.with_samples(a * ts.samples + b)),
                         scales, Q6, detrend=order).hq
        assert np.max(np.abs(moved - base)) < 1e-8


class TestWaveletDetrend:
    def test_linear_ramp_interior_residual(self):
        n = 1024
        x = np.linspace(0.0, 5.0, n)
        res = ms.wavelet_detrend(ms.TimeSeries(x), 2, 3)
        m = boundary_margin(2, 3)
        assert np.max(np.abs(res.samples[m:n - m])) < 1e-8 * np.ptp(x)

    def test_zero_signal(self):
        res = ms.wavelet_detrend(ms.TimeSeries(np.zeros(256)), 4, 2)
        assert np.allclose(res.samples, 0.0)

    def test_band_separation_sine_plus_ramp(self):
        n = 4096
        sine = ms.gen_sine(n, 1.0, 1 / 32).samples
        ramp = np.linspace(0.0, 10.0, n)
        res = ms.wavelet_detrend(ms.TimeSeries(sine + ramp), 4, 8)
        m = boundary_margin(4, 8)
        sl = slice(m, n - m)
        corr = np.corrcoef(res.samples[sl], sine[sl])[0, 1]
        assert corr > 0.99

    def test_same_length(self):
        ts = ms.gen_white_noise(1000, 1)
        assert ms.wavelet_detrend(ts, 3, 2).n == 1000


class TestMFDFA:
    def test_fgn_monofractal(self):
        prof = ms.profile(ms.gen_fgn(2 ** 14, 0.8, 42))
        res = ms.mfdfa(prof, DYADIC, Q6 + [2.0], detrend=1)
        assert res.hq.max() - res.hq.min() < 0.1
        assert res.h(2.0) == pytest.approx(0.8, abs=0.1)

    def test_white_noise_h2(self):
        prof = ms.profile(ms.gen_white_noise(2 ** 14, 42))
        res = ms.mfdfa(prof, DYADIC, [2.0, 1.0, -1.0, 3.0, -3.0, 4.0], detrend=1)
        assert res.h(2.0) == pytest.approx(0.5, abs=0.07)

    def test_cascade_matches_analytic(self):
        prof = ms.profile(ms.gen_binomial_cascade(16, 0.6))
        res = ms.mfdfa(prof, DYADIC, Q6, detrend=1)
        for q, h in zip(res.q_values, res.hq):
            assert h == pytest.approx((tau_analytic(q) + 1) / q, abs=0.05)

    def test_cascade_hq_monotone_tau_concave(self):
        prof = ms.profile(ms.gen_binomial_cascade(16, 0.6))
        qs = np.arange(-5.0, 5.5, 0.5)
        res = ms.mfdfa(prof, DYADIC, qs[qs != 0], detrend=1)
        assert np.all(np.diff(res.hq) <= 1e-9)
        # concavity: chord slopes of tau(q) non-increasing (q grid is
        # non-uniform around the excluded q = 0)
        slopes = np.diff(res.tau) / np.diff(res.q_values)
        assert np.all(np.diff(slopes) <= 1e-6)

    def test_amplitude_invariance(self):
        prof = ms.profile(ms.gen_white_noise(8192, 5))
        a = ms.mfdfa(prof, DYADIC[:-2], Q6, detrend=1)
        b = ms.mfdfa(prof.with_samples(7.0 * prof.samples), DYADIC[:-2], Q6,
                     detrend=1)
        assert np.max(np.abs(a.hq - b.hq)) < 1e-9
        assert np.allclose(b.Fq, 7.0 * a.Fq)

    def test_wavelet_detrend_route(self):
        prof = ms.profile(ms.gen_fgn(2 ** 14, 0.8, 42))
        res = ms.mfdfa(prof, [2 ** k for k in range(4, 11)], [1.0, 2.0, 3.0],
                       detrend=WaveletDetrend(2))
        assert res.h(2.0) == pytest.approx(0.8, abs=0.1)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_fq_matches_hat_matrix_reference(self, monkeypatch, order):
        prof = ms.profile(ms.gen_fgn(4096, 0.8, 5))
        scales = DYADIC[:-3]
        got = ms.mfdfa(prof, scales, Q6, detrend=order).Fq
        monkeypatch.setattr(fractal, "_segment_variances",
                            hat_matrix_variances)
        ref = ms.mfdfa(prof, scales, Q6, detrend=order).Fq
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_poly_detrend_memory_is_linear(self):
        # an s x s hat matrix at s = 16384 would take 2 GB
        n, s = 65536, 16384
        x = ms.profile(ms.gen_fgn(n, 0.8, 1)).samples
        tracemalloc.start()
        try:
            f2 = _segment_variances(x, s, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f2.shape == (8,)
        assert peak < 8 * (8 * n)

    @pytest.mark.parametrize("level", [None, 3])
    def test_wavelet_grid_that_cannot_fit_is_invalid(self, level):
        prof = ms.profile(ms.gen_fgn(8192, 0.8, 42))
        wd = WaveletDetrend(2, level)
        assert wd.interior(8192, 2048) < 4 * 2048
        with pytest.raises(errors.InvalidParameter):
            ms.mfdfa(prof, [2 ** k for k in range(4, 12)], Q6, detrend=wd)

    def test_wavelet_scale_with_no_interior_segment_is_invalid(self):
        # level 9 at s = 1000 leaves 5200 - 2 * 511 * 5 = 90 samples: no
        # whole segment, which used to give NaN fluctuations
        prof = ms.profile(ms.gen_fgn(5200, 0.8, 42))
        with pytest.raises(errors.InvalidParameter):
            ms.mfdfa(prof, [16, 32, 64, 128, 256, 1000], Q6,
                     detrend=WaveletDetrend(3))

    def test_wavelet_interior(self):
        assert WaveletDetrend(2).interior(8192, 512) == \
            8192 - 2 * boundary_margin(2, 9)
        assert WaveletDetrend(2, 3).interior(8192, 512) == \
            8192 - 2 * boundary_margin(2, 3)

    def test_q_zero_rejected(self):
        prof = ms.profile(ms.gen_white_noise(4096, 0))
        with pytest.raises(errors.InvalidParameter):
            ms.mfdfa(prof, DYADIC[:-3], [0.0, 1.0, 2.0], detrend=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_q_rejected(self, bad):
        prof = ms.profile(ms.gen_white_noise(4096, 0))
        with pytest.raises(errors.InvalidParameter):
            ms.mfdfa(prof, DYADIC[:-3], [1.0, bad], detrend=1)

    def test_too_few_scales(self):
        prof = ms.profile(ms.gen_white_noise(4096, 0))
        with pytest.raises(errors.TooFewScales):
            ms.mfdfa(prof, [16, 32, 64], Q6, detrend=1)

    def test_zero_variance(self):
        prof = ms.TimeSeries(np.zeros(4096))
        with pytest.raises(errors.NonPositiveVariance):
            ms.mfdfa(prof, [16, 32, 64, 128, 256, 512], [1.0, 2.0], detrend=1)


class TestMultifractalityWidth:
    def test_monofractal_narrow(self):
        prof = ms.profile(ms.gen_fgn(2 ** 14, 0.8, 42))
        res = ms.mfdfa(prof, DYADIC, Q6, detrend=1)
        assert ms.multifractality_width(res) < 0.15

    def test_cascade_width_matches_analytic(self):
        prof = ms.profile(ms.gen_binomial_cascade(16, 0.6))
        qs = np.array(Q6)
        res = ms.mfdfa(prof, DYADIC, qs, detrend=1)
        # analytic alpha(q) = d tau/dq evaluated at the end moments
        def alpha_an(q, p=0.6):
            num = p ** q * np.log(p) + (1 - p) ** q * np.log(1 - p)
            return -num / ((p ** q + (1 - p) ** q) * np.log(2))
        expected = alpha_an(-5.0) - alpha_an(5.0)
        assert ms.multifractality_width(res) == pytest.approx(expected, rel=0.2)

    def test_single_q_rejected(self):
        prof = ms.profile(ms.gen_white_noise(4096, 1))
        res = ms.mfdfa(prof, [16, 32, 64, 128, 256, 512], [2.0, 1.0], detrend=1)
        with pytest.raises(errors.InvalidParameter):
            ms.multifractality_width(res)
