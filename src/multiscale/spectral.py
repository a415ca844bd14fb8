"""Periodogram estimation, log-log power-law fitting (alpha = 2H + 1) and
Heisenberg turbulence-spectrum fitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidParameter, NumericError
from .signal_core import TimeSeries, _csv_rows, _json


@dataclass(frozen=True)
class PowerSpectrum:
    """One-sided power spectral density, DC bin excluded."""

    freqs: np.ndarray
    power: np.ndarray
    n_source: int
    df: float

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=np.float64)
        p = np.asarray(self.power, dtype=np.float64)
        if f.size != p.size or f.size < 2:
            raise InvalidParameter("freqs and power must have equal length >= 2")
        if np.any(np.diff(f) <= 0) or f[0] <= 0:
            raise InvalidParameter("freqs must be positive and strictly increasing")
        if np.any(p < 0):
            raise InvalidParameter("power must be nonnegative")
        f.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "freqs", f)
        object.__setattr__(self, "power", p)

    def to_csv(self) -> str:
        return _csv_rows(self.freqs, self.power)

    def to_json(self) -> str:
        return _json(df=self.df, n_source=self.n_source, freqs=self.freqs,
                     power=self.power)


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    intercept: float
    r2: float
    band: tuple[float, float]
    stderr: float = float("nan")

    def to_json(self) -> str:
        return _json(alpha=self.alpha, intercept=self.intercept, r2=self.r2,
                     band=self.band, stderr=self.stderr)


@dataclass(frozen=True)
class HurstEstimate:
    hurst: float
    out_of_range: bool


@dataclass(frozen=True)
class HeisenbergFit:
    """Fit of E(f) = C f^(-5/3) (1 + (f/k_d)^4)^(-4/3) in log space."""

    amplitude: float
    k_d: float
    rss: float
    pinned: bool

    def to_json(self) -> str:
        return _json(amplitude=self.amplitude, k_d=self.k_d, rss=self.rss,
                     pinned=self.pinned)


def _mean_psd(x: np.ndarray, nperseg: int, step: int, hann: bool,
              fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean one-sided density of the segments ``x[k*step : k*step+nperseg]``,
    each mean-removed and tapered by a periodic Hann window or a boxcar."""
    segs = np.lib.stride_tricks.sliding_window_view(x, nperseg)[::step]
    segs = segs - segs.mean(axis=1, keepdims=True)
    if hann:
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(nperseg) / nperseg)
    else:
        win = np.ones(nperseg)
    coef = np.fft.rfft(segs * win, axis=1)
    power = (coef * coef.conj()).real / (fs * np.sum(win * win))
    power[:, 1:(nperseg + 1) // 2] *= 2.0  # even length: Nyquist stays single
    return np.fft.rfftfreq(nperseg, 1.0 / fs), power.mean(axis=0)


def periodogram(ts: TimeSeries, segments: int = 1,
                overlap_fraction: float = 0.0) -> PowerSpectrum:
    """One-sided power spectral density, DC bin excluded.

    ``segments = 1``: the raw periodogram of the mean-removed series under
    a boxcar window. ``segments > 1``: Welch's average over segments of
    ``nperseg = n // segments`` samples that start ``nperseg -
    int(overlap_fraction * nperseg)`` apart, each mean-removed and tapered
    by a periodic Hann window w; trailing samples that fill no segment are
    dropped.

    Scaling: a segment's density is |rfft|^2 / (fs * sum(w^2)), so white
    noise of variance s^2 has mean density 2 s^2 dt. Every bin strictly
    between DC and Nyquist is doubled to fold in the negative frequencies;
    the Nyquist bin of an even-length segment is its own mirror image and
    stays single.
    """
    if segments < 1:
        raise InvalidParameter("segments must be >= 1")
    if not 0.0 <= overlap_fraction < 1.0:
        raise InvalidParameter("overlap_fraction must be in [0, 1)")
    nperseg = ts.n // segments
    if nperseg < 8:
        raise InputError("segment length must be >= 8")
    fs = 1.0 / ts.dt
    step = nperseg - int(overlap_fraction * nperseg)
    freqs, power = _mean_psd(ts.samples, nperseg, step, hann=segments > 1,
                             fs=fs)
    df = float(freqs[1] - freqs[0])
    spec = PowerSpectrum(freqs[1:], power[1:], n_source=ts.n, df=df)
    if not np.all(np.isfinite(spec.power)):
        raise NumericError("power overflows float64")
    return spec


def default_band(spec: PowerSpectrum) -> tuple[float, float]:
    """Band away from windowing and aliasing edges: [4*df, Nyquist/4]."""
    return 4.0 * spec.df, float(spec.freqs[-1]) / 4.0


def _band_mask(spec: PowerSpectrum, f_min: float, f_max: float) -> np.ndarray:
    if not f_min < f_max:
        raise InvalidParameter("need f_min < f_max")
    return (spec.freqs >= f_min) & (spec.freqs <= f_max)


def fit_power_law(spec: PowerSpectrum, f_min: float, f_max: float) -> PowerLawFit:
    """OLS of log10(power) on log10(freq) over [f_min, f_max]; alpha = -slope."""
    sel = _band_mask(spec, f_min, f_max)
    if np.count_nonzero(sel) < 8:
        raise NumericError("need >= 8 bins inside the band")
    p = spec.power[sel]
    if np.any(p <= 0):
        raise NumericError("all selected powers must be > 0")
    lx = np.log10(spec.freqs[sel])
    ly = np.log10(p)
    slope, intercept, stderr, r2 = _ols(lx, ly)
    return PowerLawFit(alpha=-slope, intercept=intercept, r2=r2,
                       band=(f_min, f_max), stderr=stderr)


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = np.sum((x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = np.sum(resid ** 2)
    ss_tot = np.sum((y - ym) ** 2)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    stderr = np.sqrt(ss_res / max(n - 2, 1) / sxx)
    return float(slope), float(intercept), float(stderr), float(min(max(r2, 0.0), 1.0))


def hurst_from_alpha(alpha: float) -> HurstEstimate:
    """H = (alpha - 1) / 2, flagged when outside the fractal range [0, 1]."""
    h = (alpha - 1.0) / 2.0
    return HurstEstimate(hurst=h, out_of_range=not 0.0 <= h <= 1.0)


def heisenberg_model(f, amplitude: float, k_d: float):
    """Turbulence spectrum with -5/3 inertial and -7 dissipation asymptotes."""
    f = np.asarray(f, dtype=np.float64)
    return amplitude * f ** (-5.0 / 3.0) * (1.0 + (f / k_d) ** 4) ** (-4.0 / 3.0)


def _heisenberg_log_base(logf: np.ndarray, log_kd: float) -> np.ndarray:
    return (-5.0 / 3.0) * logf - (4.0 / 3.0) * np.log(1.0 + np.exp(4.0 * (logf - log_kd)))


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def fit_heisenberg(spec: PowerSpectrum, band: tuple[float, float]) -> HeisenbergFit:
    """Least-squares Heisenberg fit in the log domain.

    The amplitude has a closed form for fixed k_d; k_d is located by
    golden-section search on log(k_d) over the band, refined to 1e-6
    relative. A minimum pinned to a band edge is flagged, not fatal.
    """
    f_min, f_max = band
    sel = _band_mask(spec, f_min, f_max)
    if np.count_nonzero(sel) < 16:
        raise NumericError("need >= 16 bins inside the band")
    p = spec.power[sel]
    if np.any(p <= 0):
        raise NumericError("all selected powers must be > 0")
    logf = np.log(spec.freqs[sel])
    logp = np.log(p)

    def rss_at(log_kd: float) -> float:
        base = _heisenberg_log_base(logf, log_kd)
        resid = logp - base
        resid -= resid.mean()  # closed-form log-amplitude
        return float(np.sum(resid ** 2))

    lo, hi = np.log(f_min), np.log(f_max)
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = rss_at(c), rss_at(d)
    while (b - a) > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = rss_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = rss_at(d)
    log_kd = c if fc < fd else d
    pinned = (log_kd - lo) < 1e-3 or (hi - log_kd) < 1e-3
    if pinned:
        # compare against the literal edges, which golden section never visits
        for edge in (lo, hi):
            if rss_at(edge) < rss_at(log_kd):
                log_kd = edge
    base = _heisenberg_log_base(logf, log_kd)
    log_c = float(np.mean(logp - base))
    rss = rss_at(log_kd)
    return HeisenbergFit(amplitude=float(np.exp(log_c)), k_d=float(np.exp(log_kd)),
                         rss=rss, pinned=bool(pinned))
