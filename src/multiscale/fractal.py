"""Rescaled-range Hurst estimation and multifractal detrended fluctuation
analysis with polynomial or Daubechies-wavelet detrending."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .dwt import boundary_margin, dwt as _dwt_decompose, idwt as _dwt_invert, zero_details
from .errors import InputError, InvalidParameter, NumericError
from .signal_core import TimeSeries, _csv_rows, _json
from .spectral import _ols


@dataclass(frozen=True)
class RSResult:
    window_sizes: np.ndarray
    rs_values: np.ndarray
    hurst: float
    stderr: float

    def to_json(self) -> str:
        return _json(hurst=self.hurst, stderr=self.stderr,
                     window_sizes=self.window_sizes, rs_values=self.rs_values)

    def to_csv(self) -> str:
        return _csv_rows(self.window_sizes, self.rs_values)


@dataclass(frozen=True)
class WaveletDetrend:
    """MFDFA detrending choice: subtract a Daubechies wavelet trend.

    ``level=None`` picks the decomposition level per analysis scale s as
    floor(log2(s)) so the removed trend band tracks the segment size; a
    fixed level removes one global trend band (fluctuations saturate for
    segments larger than that band).
    """

    order: int
    level: int | None = None

    def level_for(self, scale: int) -> int:
        return self.level if self.level is not None else max(1, int(np.log2(scale)))

    def interior(self, n: int, scale: int) -> int:
        """Residual samples left at this scale once both boundary margins
        of an n-sample series are cut."""
        return n - 2 * boundary_margin(self.order, self.level_for(scale))


@dataclass(frozen=True)
class MFDFAResult:
    scales: np.ndarray
    q_values: np.ndarray
    Fq: np.ndarray  # (len(scales), len(q_values))
    hq: np.ndarray
    tau: np.ndarray
    alpha_sing: np.ndarray
    f_alpha: np.ndarray

    def h(self, q: float) -> float:
        idx = np.nonzero(np.isclose(self.q_values, q))[0]
        if idx.size == 0:
            raise InvalidParameter(f"q={q} not among the computed moments")
        return float(self.hq[idx[0]])

    def to_json(self) -> str:
        return _json(scales=self.scales, q_values=self.q_values, Fq=self.Fq,
                     hq=self.hq, tau=self.tau, alpha_sing=self.alpha_sing,
                     f_alpha=self.f_alpha)

    def to_csv(self) -> str:
        """Long format: scale,q,Fq."""
        return _csv_rows(np.repeat(self.scales, self.q_values.size),
                         np.tile(self.q_values, self.scales.size),
                         self.Fq.ravel())


def _default_scales(n: int, count: int,
                    detrend: int | WaveletDetrend = 0) -> list[int]:
    """The default grid of an n-sample series, from 16 up to n/4: dyadic,
    or in half octaves ⌊16·2^(k/2)⌋ for wavelet detrending, whose residual
    interior must also hold 4 segments of a scale (dyadic steps stop too
    early there). InputError names the length ``count`` scales need."""
    wavelet = isinstance(detrend, WaveletDetrend)
    step = lambda k: int(16 * 2 ** (k / 2 if wavelet else k))
    # the fewest samples that hold scale s, both boundary margins included;
    # it grows with s
    need = lambda s: 4 * s + (n - detrend.interior(n, s) if wavelet else 0)
    scales = list(itertools.takewhile(lambda s: need(s) <= n,
                                      map(step, itertools.count())))
    if len(scales) < count:
        raise InputError(f"the default grid needs n >= "
                         f"{need(step(count - 1))} samples, got {n}")
    return scales


def rescaled_range(ts: TimeSeries, window_sizes=None) -> RSResult:
    """Classical R/S estimator over disjoint windows.

    Per window: range of the mean-adjusted cumulative deviations divided
    by the population standard deviation; averaged over windows, then the
    Hurst exponent is the log-log OLS slope against window size. The
    windows default to the dyadic grid 16..n/4.
    """
    if window_sizes is None:
        window_sizes = _default_scales(ts.n, 4)
    sizes = np.asarray(sorted(set(int(w) for w in window_sizes)), dtype=int)
    if sizes.size < 4:
        raise InvalidParameter("need >= 4 window sizes")
    if sizes[0] < 8:
        raise InvalidParameter("window sizes must be >= 8")
    x = ts.samples
    if sizes[-1] > x.size // 2:
        raise InvalidParameter("max window exceeds half the series length")

    rs = np.empty(sizes.size)
    for i, w in enumerate(sizes):
        nseg = x.size // w
        seg = x[: nseg * w].reshape(nseg, w)
        dev = seg - seg.mean(axis=1, keepdims=True)
        cum = np.cumsum(dev, axis=1)
        r = cum.max(axis=1) - cum.min(axis=1)
        s = seg.std(axis=1)
        if np.any(s == 0):
            raise NumericError(f"zero std in a window of size {w}")
        rs[i] = np.mean(r / s)

    slope, _, stderr, _ = _ols(np.log(sizes.astype(float)), np.log(rs))
    return RSResult(window_sizes=sizes, rs_values=rs, hurst=slope, stderr=stderr)


def wavelet_detrend(ts: TimeSeries, wavelet_order: int, level: int) -> TimeSeries:
    """Subtract the level-`level` Daubechies approximation trend.

    The outer ``boundary_margin(order, level)`` samples per edge are kept
    but carry boundary artifacts; variance-based consumers exclude them.
    """
    if level < 1:
        raise InvalidParameter("level must be >= 1")
    coeffs = _dwt_decompose(ts, wavelet_order, level)
    trend = _dwt_invert(zero_details(coeffs))
    return ts.with_samples(ts.samples - trend.samples)


def _segment_variances(x: np.ndarray, scale: int,
                       order: int | None = None) -> np.ndarray:
    """Mean squared residual per segment, forward and reverse segmentations,
    after subtracting each segment's least-squares polynomial of degree
    ``order`` when one is given."""
    n = x.size
    nseg = n // scale
    # orthonormal basis of the polynomials of degree <= order on the segment:
    # subtracting the projection onto it is the least-squares detrend, in
    # O(scale * order) memory instead of a scale x scale hat matrix
    basis = None if order is None else np.linalg.qr(
        np.vander(np.linspace(-1.0, 1.0, scale), order + 1, increasing=True))[0]
    fwd = x[: nseg * scale].reshape(nseg, scale)
    rev = x[n - nseg * scale :].reshape(nseg, scale)
    out = np.empty(2 * nseg)
    for k, seg in enumerate((fwd, rev)):
        res = seg if basis is None else seg - (seg @ basis) @ basis.T
        out[k * nseg : (k + 1) * nseg] = np.mean(res * res, axis=1)
    return out


def mfdfa(profile_ts: TimeSeries, scales, q_values,
          detrend: int | WaveletDetrend = 1) -> MFDFAResult:
    """Multifractal DFA of a profile series.

    ``detrend`` is either a polynomial order (per-segment least-squares
    fit) or a :class:`WaveletDetrend`, in which case the wavelet trend
    is removed from the whole profile once and boundary-affected samples
    are excluded before segmentation. The caller supplies a profile
    (see :func:`multiscale.signal_core.profile`). ``scales=None`` takes
    the default grid: dyadic 16..n/4, in half octaves for wavelet
    detrending while the residual interior holds 4 segments.
    """
    if scales is None:
        scales = _default_scales(profile_ts.n, 6, detrend)
    scales = np.asarray(sorted(set(int(s) for s in scales)), dtype=int)
    q = np.asarray(q_values, dtype=np.float64)
    if scales.size < 6:
        raise InvalidParameter(f"need >= 6 scales, got {scales.size}")
    # written so that a NaN q fails it
    if q.size < 1 or not np.all((q != 0) & (np.abs(q) <= 10)):
        raise InvalidParameter("q values must exclude 0 and satisfy |q| <= 10")
    n = profile_ts.n
    if scales[0] < 16 or scales[-1] > n // 4:
        raise InvalidParameter("scales must lie within [16, length/4]")

    if isinstance(detrend, WaveletDetrend):
        # a level per scale needs one segment in that level's residual
        # interior; one fixed level needs four of the largest scale
        need = 1 if detrend.level is None else 4
        for s in scales:
            if detrend.interior(n, int(s)) < need * s:
                raise InvalidParameter(
                    f"scale {s}: the residual interior left by the wavelet "
                    f"boundary margins holds fewer than {need} segment(s)")

        residuals = {}

        def var_fn(s):
            level = detrend.level_for(s)
            if level not in residuals:
                residuals.clear()  # scales ascend, so no level comes back
                resid = wavelet_detrend(profile_ts, detrend.order, level)
                margin = boundary_margin(detrend.order, level)
                residuals[level] = resid.samples[margin : n - margin]
            return _segment_variances(residuals[level], s)
    else:
        order = int(detrend)
        if order < 0:
            raise InvalidParameter("polynomial order must be >= 0")
        x = profile_ts.samples
        var_fn = lambda s: _segment_variances(x, s, order)

    Fq = np.empty((scales.size, q.size))
    for i, s in enumerate(scales):
        f2 = var_fn(int(s))
        if np.any(f2 <= 0):
            raise NumericError(f"zero detrended variance at scale {s}")
        # F_q(s) = ( mean f2**(q/2) )**(1/q)
        Fq[i] = np.exp(np.log(np.mean(f2[:, None] ** (q[None, :] / 2.0), axis=0)) / q)

    logs = np.log(scales.astype(float))
    hq = np.empty(q.size)
    for j in range(q.size):
        hq[j], _, _, _ = _ols(logs, np.log(Fq[:, j]))
    tau = q * hq - 1.0
    if q.size >= 2:
        alpha = np.gradient(tau, q)
        f_alpha = q * alpha - tau
    else:
        # the singularity spectrum needs a derivative in q
        alpha = np.full(q.size, np.nan)
        f_alpha = np.full(q.size, np.nan)
    return MFDFAResult(scales=scales, q_values=q, Fq=Fq, hq=hq, tau=tau,
                       alpha_sing=alpha, f_alpha=f_alpha)


def multifractality_width(res: MFDFAResult) -> float:
    """Width of the singularity spectrum, max(alpha) - min(alpha)."""
    if res.q_values.size < 3:
        raise InvalidParameter("need >= 3 q values for a meaningful width")
    return float(res.alpha_sing.max() - res.alpha_sing.min())
