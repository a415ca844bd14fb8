import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multiscale as ms
from multiscale import errors
from multiscale.spectral import default_band, heisenberg_model


def make_power_law_spectrum(alpha, n_bins=256, f_lo=0.01, f_hi=10.0):
    freqs = np.logspace(np.log10(f_lo), np.log10(f_hi), n_bins)
    return ms.PowerSpectrum(freqs, freqs ** (-alpha), n_source=4096,
                            df=freqs[1] - freqs[0])


class TestPeriodogram:
    def test_sine_at_bin_frequency_single_bin(self):
        ts = ms.gen_sine(1024, 1.0, 8 / 1024)
        spec = ms.periodogram(ts, segments=1)
        assert spec.power.max() / spec.power.sum() >= 0.999

    def test_white_noise_flat_welch(self):
        ts = ms.gen_white_noise(2 ** 14, 4)
        spec = ms.periodogram(ts, segments=16, overlap_fraction=0.5)
        # decade-averaged flatness
        decades = np.floor(np.log10(spec.freqs))
        means = [spec.power[decades == d].mean() for d in np.unique(decades)]
        assert max(means) / min(means) < 2

    def test_matches_brute_force_dft(self):
        n = 64
        ts = ms.gen_white_noise(n, 11)
        spec = ms.periodogram(ts, segments=1)
        x = ts.samples - ts.samples.mean()
        k = np.arange(n)
        expected = []
        for kk in range(1, n // 2 + 1):
            coef = np.sum(x * np.exp(-2j * np.pi * kk * k / n))
            scale = 1.0 if kk == n // 2 else 2.0
            expected.append(scale * np.abs(coef) ** 2 * ts.dt / n)
        assert np.max(np.abs(spec.power - np.array(expected))) < 1e-10

    def test_parseval_single_segment(self):
        ts = ms.gen_white_noise(1024, 5)
        spec = ms.periodogram(ts, segments=1)
        var = ts.samples.var()
        assert spec.df * spec.power.sum() == pytest.approx(var, rel=1e-9)

    @pytest.mark.parametrize("parity", [0, 1], ids=["even", "odd"])
    @settings(max_examples=40, deadline=None)
    @given(half=st.integers(16, 1024), seed=st.integers(0, 2 ** 32 - 1),
           dt=st.floats(1e-3, 1e3), loc=st.floats(-1e3, 1e3))
    def test_parseval_single_boxcar_segment(self, parity, half, seed, dt, loc):
        # sum of power * df is the population variance, with or without a
        # Nyquist bin
        n = 2 * half + parity
        x = loc + np.random.default_rng(seed).standard_normal(n)
        spec = ms.periodogram(ms.TimeSeries(x, dt=dt), segments=1)
        assert spec.df * spec.power.sum() == pytest.approx(x.var(), rel=1e-9)

    def test_too_short_segments(self):
        ts = ms.gen_white_noise(32, 0)
        with pytest.raises(errors.InputError,
                           match="segment length must be >= 8"):
            ms.periodogram(ts, segments=8)


class TestPeriodogramClosedForms:
    """Density scaling and one-sided folding, checked against closed forms."""

    @pytest.mark.parametrize("segments", [1, 4])
    def test_sine_power_in_its_bin(self, segments):
        # A sine of amplitude A whose frequency is a bin of every segment
        # carries mean power A^2 / 2. The boxcar puts it in one bin; the Hann
        # window spreads it over that bin and its two neighbours.
        n, dt, amp, k = 4096, 0.01, 3.0, 64
        ts = ms.gen_sine(n, dt, k / (n * dt), amp=amp)
        spec = ms.periodogram(ts, segments=segments)
        peak = int(np.argmax(spec.power))
        span = 0 if segments == 1 else 1
        band = spec.power[peak - span:peak + span + 1].sum() * spec.df
        assert spec.freqs[peak] == pytest.approx(k / (n * dt), rel=1e-12)
        assert band == pytest.approx(amp ** 2 / 2.0, rel=1e-9)

    @pytest.mark.parametrize("segments,overlap", [(1, 0.0), (16, 0.5)])
    def test_white_noise_mean_density(self, segments, overlap):
        dt = 0.01
        ts = ms.TimeSeries(ms.gen_white_noise(2 ** 14, 7).samples, dt=dt)
        spec = ms.periodogram(ts, segments=segments,
                              overlap_fraction=overlap)
        mean_density = spec.power[:-1].mean()  # Nyquist bin is single
        assert mean_density == pytest.approx(2.0 * 1.0 * dt, rel=0.05)

    def test_even_length_nyquist_bin_single(self):
        # (-1)^k puts all of its unit mean square into the Nyquist bin;
        # doubling that bin would report twice the power.
        n, dt = 1024, 0.5
        ts = ms.TimeSeries(np.where(np.arange(n) % 2 == 0, 1.0, -1.0), dt=dt)
        spec = ms.periodogram(ts)
        assert spec.freqs[-1] == 0.5 / dt
        assert spec.power[-1] * spec.df == pytest.approx(1.0, rel=1e-12)
        assert spec.power[:-1].max() < 1e-20

    def test_odd_length_has_no_nyquist_bin(self):
        # Every non-DC bin of an odd-length series has a mirror image and is
        # doubled, so the density still integrates to the variance.
        n, dt = 1023, 0.25
        ts = ms.TimeSeries(ms.gen_white_noise(n, 3).samples, dt=dt)
        spec = ms.periodogram(ts)
        assert spec.freqs.size == (n - 1) // 2
        assert spec.freqs[-1] < 0.5 / dt
        assert spec.df * spec.power.sum() == pytest.approx(
            ts.samples.var(), rel=1e-9)

    def test_welch_drops_partial_trailing_segment(self):
        x = ms.gen_white_noise(1000, 9).samples
        tail = np.concatenate([x, 1e6 * np.ones(3)])
        a = ms.periodogram(ms.TimeSeries(x), segments=4)
        b = ms.periodogram(ms.TimeSeries(tail), segments=4)
        assert np.array_equal(a.power, b.power)


class TestFitPowerLaw:
    def test_exact_inverse_square(self):
        spec = make_power_law_spectrum(2.0)
        fit = ms.fit_power_law(spec, spec.freqs[0], spec.freqs[-1])
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_brownian_path_alpha_two(self):
        prof = ms.profile(ms.gen_white_noise(2 ** 14, 42))
        spec = ms.periodogram(prof)
        fit = ms.fit_power_law(spec, 1e-3, 0.1)  # central two decades
        assert fit.alpha == pytest.approx(2.0, abs=0.2)

    def test_fgn_profile_alpha_matches_hurst_relation(self):
        prof = ms.profile(ms.gen_fgn(2 ** 14, 0.8, 42))
        spec = ms.periodogram(prof)
        fit = ms.fit_power_law(spec, 1e-3, 0.1)
        assert fit.alpha == pytest.approx(2.6, abs=0.3)

    def test_power_scaling_invariance(self):
        spec = make_power_law_spectrum(1.7)
        scaled = ms.PowerSpectrum(spec.freqs, 1e6 * spec.power,
                                  n_source=spec.n_source, df=spec.df)
        a = ms.fit_power_law(spec, spec.freqs[0], spec.freqs[-1])
        b = ms.fit_power_law(scaled, spec.freqs[0], spec.freqs[-1])
        assert b.alpha == pytest.approx(a.alpha, abs=1e-12)
        assert b.intercept == pytest.approx(a.intercept + 6.0)

    def test_insufficient_band(self):
        spec = make_power_law_spectrum(2.0)
        with pytest.raises(errors.NumericError,
                           match="need >= 8 bins inside the band"):
            ms.fit_power_law(spec, spec.freqs[0], spec.freqs[3])

    def test_zero_power(self):
        freqs = np.linspace(0.1, 1.0, 32)
        power = np.ones(32)
        power[5] = 0.0
        spec = ms.PowerSpectrum(freqs, power, n_source=64, df=freqs[1] - freqs[0])
        with pytest.raises(errors.NumericError,
                           match="all selected powers must be > 0"):
            ms.fit_power_law(spec, 0.1, 1.0)

    def test_default_band(self):
        ts = ms.gen_white_noise(1024, 0)
        spec = ms.periodogram(ts)
        lo, hi = default_band(spec)
        assert lo == pytest.approx(4 * spec.df)
        assert hi == pytest.approx(spec.freqs[-1] / 4)


class TestHurstFromAlpha:
    @pytest.mark.parametrize("alpha,h,flag", [
        (2.0, 0.5, False),
        (3.0, 1.0, False),
        (0.5, -0.25, True),
    ])
    def test_cases(self, alpha, h, flag):
        est = ms.hurst_from_alpha(alpha)
        assert est.hurst == pytest.approx(h)
        assert est.out_of_range is flag

    def test_round_trip_identity(self):
        for h in np.linspace(0.01, 0.99, 23):
            assert ms.hurst_from_alpha(2 * h + 1).hurst == pytest.approx(h, abs=1e-15)


class TestFitHeisenberg:
    def test_self_fit_recovers_parameters(self):
        freqs = np.logspace(0, 4, 512)
        spec = ms.PowerSpectrum(freqs, heisenberg_model(freqs, 1.0, 100.0),
                                n_source=8192, df=freqs[1] - freqs[0])
        fit = ms.fit_heisenberg(spec, (freqs[0], freqs[-1]))
        assert fit.k_d == pytest.approx(100.0, rel=1e-6)
        assert fit.amplitude == pytest.approx(1.0, rel=1e-6)
        assert not fit.pinned

    def test_asymptotic_slopes(self):
        k_d = 100.0
        for f0, target in ((k_d / 100, -5.0 / 3.0), (100 * k_d, -7.0)):
            eps = 1e-4
            slope = (np.log(heisenberg_model(f0 * (1 + eps), 1.0, k_d))
                     - np.log(heisenberg_model(f0 / (1 + eps), 1.0, k_d))) / (
                         2 * np.log(1 + eps))
            assert slope == pytest.approx(target, abs=0.02)

    def test_pure_power_law_pins_kd(self):
        freqs = np.logspace(0, 3, 256)
        spec = ms.PowerSpectrum(freqs, freqs ** (-5.0 / 3.0), n_source=4096,
                                df=freqs[1] - freqs[0])
        fit = ms.fit_heisenberg(spec, (freqs[0], freqs[-1]))
        assert fit.pinned
        assert fit.k_d == pytest.approx(freqs[-1], rel=1e-3)

    def test_insufficient_band(self):
        freqs = np.logspace(0, 1, 10)
        spec = ms.PowerSpectrum(freqs, freqs ** -2.0, n_source=64,
                                df=freqs[1] - freqs[0])
        with pytest.raises(errors.NumericError,
                           match="need >= 16 bins inside the band"):
            ms.fit_heisenberg(spec, (freqs[0], freqs[-1]))
