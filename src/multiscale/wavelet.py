"""Morlet CWT and its Torrence-Compo reductions: cone of influence, global and
time-summed spectra, scale averages, band reconstruction, red-noise tests."""

from __future__ import annotations

import math
import os
import struct
import threading
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, InvalidParameter, NumericError
from .signal_core import TimeSeries

# reconstruction constant for omega0 = 6; other omega0 values keep relative
# scale-average/reconstruction shapes but lose absolute calibration
C_DELTA = 0.776
PSI0_ZERO = np.pi ** (-0.25)

# Shortest padded transform length that is split over threads: below it
# each row's FFT is too short to pay for handing the GIL between threads.
# scripts/cwt_threads.py on a 2-core host, two runs: two threads ran at
# 0.5-0.9x the speed of one at 512-2048 points, 0.82x and 1.21x at 4096 and
# 1.45-1.51x at 8192. No benchmark workload transforms fewer than 16384 points.
_THREADED_MIN_LENGTH = 4096
# Most threads per transform, and most processes per scalogram CSV. Each
# thread holds its own buffers: at n = 2**16 (131072 points, 105 scales) the
# transform added about 121/132/157/184/263 MB of peak RSS with 1/2/4/8/16
# workers (same script), so large hosts, and CPU counts that ignore cgroup
# quotas, cost at most ~25 MB over two workers. Speed-ups beyond 2 CPUs are
# unmeasured.
_MAX_WORKERS = 4
# Scale rows per inverse FFT call: numpy transforms a call's rows together in
# SIMD lanes, through a scratch copy. At 131072 points, in place, one thread
# took 3.9/3.1/2.9 ms per row in blocks of 1/2/4; at n = 2**16 two workers
# added 121/133/137/152 MB of peak RSS in blocks of 1/2/4/8.
_BLOCK_ROWS = 2
# Fewest scalogram CSV lines (scales x times) that are split over processes.
# scripts/csv_workers.py on a 2-core host, fresh process, median of 9: two
# processes took 1.9x as long as one at 4224 lines (8 -> 16 ms), 1.2x at
# 25088 (19 -> 23 ms), as long at 58368 (31 ms), and 1.17x less at 133120
# (70 -> 60 ms), 1.37x less at 299008 and 663552 (the n = 8192 CSV,
# 353 -> 257 ms). Importing multiprocessing and forking cost about 10 ms.
_CSV_SPLIT_MIN_LINES = 2 ** 16

_MAGIC = b"MSCL1"
_HEADER = struct.Struct("<IIdd")  # N, J, dt, omega0
_J_MAX = 2 ** 32 - 1  # the largest J the header's uint32 field holds


@dataclass(frozen=True)
class MorletParams:
    """Complex Morlet parameterized by the nondimensional center frequency."""

    omega0: float = 6.0

    def __post_init__(self):
        if not 5.0 <= self.omega0 < np.inf:
            raise InvalidParameter("omega0 must be finite and >= 5 for admissibility")

    @property
    def fourier_factor(self) -> float:
        """Ratio of equivalent Fourier period to scale."""
        w = self.omega0
        return 4.0 * np.pi / (w + np.sqrt(2.0 + w * w))


@dataclass(frozen=True)
class ScaleGrid:
    """Logarithmic scale grid s_j = s0 * 2**(j*dj), j = 0..J-1."""

    s0: float
    dj: float
    J: int

    def __post_init__(self):
        # written so that a NaN s0, dj or J fails it
        if not (0 < self.s0 < np.inf and 0 < self.dj < np.inf
                and 1 <= self.J <= _J_MAX):
            raise InvalidParameter("need finite s0 > 0 and dj > 0, 1 <= J < 2**32")

    @property
    def scales(self) -> np.ndarray:
        return self.s0 * 2.0 ** (self.dj * np.arange(self.J))

    @classmethod
    def default_for(cls, n: int, dt: float, s0: float | None = None,
                    dj: float = 0.125, J: int | None = None) -> "ScaleGrid":
        """Scales from ``s0`` (default: the smallest, 2 dt) in steps of
        ``dj`` octaves: ``J`` of them, or by default as many as fit in a
        quarter of the ``n`` samples' record."""
        grid = cls(s0=_smallest_scale(dt) if s0 is None else s0, dj=dj, J=1)
        if J is not None:
            return replace(grid, J=J)
        ratio = n * dt / (4.0 * grid.s0)
        if not np.isfinite(ratio):  # n dt or 4 s0 overflows
            ratio = n / 4.0 * (dt / grid.s0)
        # inf gives _J_MAX + 1, which cls rejects; an underflowed 0 gives J = 1
        with np.errstate(divide="ignore"):
            j_max = np.floor(float(np.log2(ratio)) / dj) + 1
        return replace(grid, J=int(np.clip(j_max, 1, _J_MAX + 1)))


@dataclass(frozen=True)
class Scalogram:
    """Complex CWT coefficients on a (scale x time) grid."""

    coeffs: np.ndarray
    scales: np.ndarray
    dj: float  # log2 spacing of the scales
    dt: float
    params: MorletParams = field(default_factory=MorletParams)
    src_var: float = float("nan")
    src_lag1: float = float("nan")

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    @property
    def coi(self) -> np.ndarray:
        """Largest trustworthy scale per time: edge distance / sqrt(2), seconds."""
        k = np.arange(self.n, dtype=np.float64)
        return np.minimum(k, self.n - 1 - k) * self.dt / np.sqrt(2.0)

    def periods(self) -> np.ndarray:
        """Equivalent Fourier periods of the scale grid."""
        return self.params.fourier_factor * self.scales


@dataclass(frozen=True)
class SignificanceMask:
    mask: np.ndarray  # bool, (scale x time)


def morlet_spectrum(omega: np.ndarray, scale: float, omega0: float) -> np.ndarray:
    """Normalized analytic Morlet spectrum, zero at omega <= 0."""
    arg = scale * omega - omega0
    out = PSI0_ZERO * np.exp(-0.5 * arg * arg)
    return np.where(omega > 0, out, 0.0)


def _smallest_scale(dt: float) -> float:
    """The default smallest scale and the floor of every grid: below about
    1.9 dt a Morlet scale's centre frequency is above Nyquist."""
    return 2.0 * dt


def _pad_length(n: int) -> int:
    return 1 << int(np.ceil(np.log2(n + 1)))


def lag1_autocorr(x: np.ndarray) -> float:
    d = x - x.mean()
    denom = float(np.sum(d * d))
    return float(np.sum(d[1:] * d[:-1]) / denom) if denom else 0.0


def _physical_memory() -> float:
    """Bytes of physical memory; inf where the platform does not tell."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no os.sysconf or name
        return np.inf


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _worker_count(rows: int, size: int, floor: int) -> int:
    """Workers that split ``rows`` scale rows of a job of ``size``: one per
    available CPU, at most ``_MAX_WORKERS`` and ``rows``, and one below
    ``floor``."""
    if size < floor:
        return 1
    return max(1, min(_cpu_count(), _MAX_WORKERS, rows))


def cwt_morlet(ts: TimeSeries, grid: ScaleGrid | None = None,
               params: MorletParams = MorletParams()) -> Scalogram:
    """FFT-domain continuous Morlet transform (Torrence & Compo 1998): the
    signal is zero-padded to the power of two above its length, and the
    coefficients are truncated back to it."""
    n = ts.n
    if n < 32:
        raise InputError("need at least 32 samples")
    if grid is None:
        grid = ScaleGrid.default_for(n, ts.dt)
    if grid.s0 < _smallest_scale(ts.dt) * (1.0 - 1e-12):
        raise InvalidParameter("smallest scale is below 2*dt")
    # in log2 space, before any array of J scales exists
    if (math.log2(grid.s0) + grid.dj * (grid.J - 1)
            > math.log2(n * ts.dt / 4.0) + math.log2(1.0 + 1e-12)):
        raise InvalidParameter("largest scale exceeds a quarter of the record")
    if 16 * grid.J * n > _physical_memory():
        raise MemoryError(f"{grid.J} x {n} coefficients exceed physical memory")
    scales = grid.scales

    m = _pad_length(n)
    # the Morlet spectrum is zero at omega <= 0, and exp(-arg**2 / 2) is 0.0
    # from |arg| = 38.61 on: row j's product is zero outside the positive
    # bins omega[lo[j]:hi[j]], those with |s_j * omega - omega0| <= 40
    pos = slice(1, (m + 1) // 2)
    omega = 2.0 * np.pi * np.fft.fftfreq(m, ts.dt)[pos]
    with np.errstate(over="ignore"):  # a bound past every bin may be inf
        lo = np.searchsorted(omega, (params.omega0 - 40.0) / scales)
        hi = np.searchsorted(omega, (params.omega0 + 40.0) / scales, "right")
    if lo[0] == hi[0]:
        raise InvalidParameter("the Morlet filter of the smallest scale is "
                               "zero at every frequency")
    x = np.zeros(m)
    x[:n] = ts.samples
    spec = np.fft.fft(x)[pos].copy()  # frees the other half of the spectrum
    del x

    coeffs = np.empty((grid.J, n), dtype=np.complex128)
    # worker k fills rows k, k+w, k+2w, ...; numpy's FFT and ufuncs release
    # the GIL and each worker writes only its own rows, so the result does
    # not depend on w. Worker 0 is the calling thread.
    w = _worker_count(grid.J, m, _THREADED_MIN_LENGTH)
    failed: list[BaseException] = []

    def rows(first: int) -> None:
        mine = range(first, grid.J, w)
        block = np.empty((min(_BLOCK_ROWS, len(mine)), m), dtype=np.complex128)
        for i in range(0, len(mine), _BLOCK_ROWS):
            if failed:  # another worker has raised: stop after this block
                return
            js = mine[i:i + _BLOCK_ROWS]
            z = block[:len(js)]
            z.fill(0.0)
            for row, j in zip(z, js):
                s = scales[j]
                psi_hat = np.sqrt(2.0 * np.pi * s / ts.dt) * morlet_spectrum(
                    omega[lo[j]:hi[j]], s, params.omega0)
                np.multiply(spec[lo[j]:hi[j]], psi_hat,
                            out=row[1 + lo[j]:1 + hi[j]])
            np.fft.ifft(z, axis=1, out=z)
            coeffs[js.start:js.stop:w] = z[:, :n]

    def worker(k: int) -> None:
        try:
            rows(k)
        except Exception as exc:  # re-raised on the calling thread
            failed.append(exc)

    threads = []
    try:
        for k in range(1, w):
            t = threading.Thread(target=worker, args=(k,))
            t.start()
            threads.append(t)
        rows(0)
    except BaseException as exc:  # Ctrl-C included: stop the workers early
        failed.append(exc)
        raise
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[0]

    # a constant series varies by its mean's round-off at most: record 0
    var = float(ts.samples.var()) if np.ptp(ts.samples) else 0.0
    return Scalogram(coeffs=coeffs, scales=scales, dj=grid.dj, dt=ts.dt,
                     params=params, src_var=var,
                     src_lag1=lag1_autocorr(ts.samples))


def _row_power(coeffs: np.ndarray):
    """Wavelet power one scale row at a time, so that no (J, n) power array
    is held next to the coefficients."""
    for c in coeffs:
        yield np.abs(c) ** 2


def global_spectrum(sg: Scalogram, coi_only: bool = False) -> np.ndarray:
    """Time-mean wavelet power per scale."""
    if not coi_only:
        return np.array([p.mean() for p in _row_power(sg.coeffs)])
    inside = sg.scales[:, None] <= sg.coi[None, :]
    counts = inside.sum(axis=1)
    if np.any(counts == 0):
        raise NumericError("some scales have no cone-of-influence interior")
    return np.array([np.where(ins, p, 0.0).sum()
                     for ins, p in zip(inside, _row_power(sg.coeffs))]) / counts


def _band_indices(sg: Scalogram, band: tuple[float, float]) -> np.ndarray:
    s_lo, s_hi = band
    sel = np.nonzero((sg.scales >= s_lo) & (sg.scales <= s_hi))[0]
    if sel.size == 0:
        raise NumericError("band does not intersect the scale grid")
    return sel


def scale_avg_variance(sg: Scalogram, band: tuple[float, float]) -> TimeSeries:
    """Scale-averaged wavelet variance over a scale band, per time."""
    sel = _band_indices(sg, band)
    weighted = np.abs(sg.coeffs[sel]) ** 2 / sg.scales[sel, None]
    out = (sg.dj * sg.dt / C_DELTA) * weighted.sum(axis=0)
    return TimeSeries(out, dt=sg.dt)


def reconstruct_band(sg: Scalogram, band: tuple[float, float]) -> TimeSeries:
    """Inverse wavelet sum restricted to a scale band."""
    sel = _band_indices(sg, band)
    terms = sg.coeffs[sel].real / np.sqrt(sg.scales[sel])[:, None]
    factor = sg.dj * np.sqrt(sg.dt) / (C_DELTA * PSI0_ZERO)
    return TimeSeries(factor * terms.sum(axis=0), dt=sg.dt)


def _chi2_ppf_2dof(level: float) -> float:
    """Quantile of chi-squared with 2 degrees of freedom. Its CDF is
    1 - exp(-x/2), which inverts in closed form (Torrence & Compo 1998)."""
    return -2.0 * float(np.log1p(-level))


def significance_threshold(sg: Scalogram, level: float = 0.95) -> np.ndarray:
    """Red-noise chi-squared significance test per Torrence-Compo: the
    wavelet power above which a point of each scale is significant.

    The lag-1 autocorrelation estimated from the source series defines a
    red-noise background spectrum; the threshold is that background times
    chi2(2, level)/2. A constant series has no background to stand above,
    so its thresholds are inf; one whose variance overflows float64 raises
    NumericError.
    """
    if not 0.5 < level < 1.0:
        raise InvalidParameter("level must be in (0.5, 1)")
    rho = sg.src_lag1
    if np.isnan(sg.src_var):
        raise InvalidParameter("scalogram lacks source statistics")
    if not np.isfinite(rho) or not np.isfinite(sg.src_var):
        raise NumericError("source series variance overflows float64")
    if sg.src_var == 0.0:
        return np.full(len(sg.scales), np.inf)
    freq = sg.dt / sg.periods()  # cycles per sample
    background = (1.0 - rho * rho) / (
        1.0 + rho * rho - 2.0 * rho * np.cos(2.0 * np.pi * freq))
    return sg.src_var * background * _chi2_ppf_2dof(level) / 2.0


def significance_mask(sg: Scalogram, level: float = 0.95) -> SignificanceMask:
    """Points whose power exceeds their scale's significance_threshold."""
    mask = np.empty(sg.coeffs.shape, dtype=bool)
    for p, thr, row in zip(_row_power(sg.coeffs),
                           significance_threshold(sg, level), mask):
        np.greater(p, thr, out=row)
    return SignificanceMask(mask=mask)


def dominant_scale(sg: Scalogram) -> float:
    """Scale of the highest interior local maximum of the cone-of-influence
    global spectrum, the smallest such scale on a tie."""
    gws = global_spectrum(sg, coi_only=True)
    mid = gws[1:-1]
    peak = (mid > gws[:-2]) & (mid >= gws[2:])
    if not peak.any():
        raise NumericError("no global-spectrum peak to select a scale")
    return float(sg.scales[1 + np.argmax(np.where(peak, mid, -np.inf))])


# serialization -------------------------------------------------------------

def scalogram_chunks(sg: Scalogram):
    """The :func:`scalogram_to_bytes` record in three pieces: magic and
    header, the scales, then the coefficients as a byte view (no copy for
    C-contiguous complex128 on a little-endian host)."""
    j, n = sg.coeffs.shape
    yield _MAGIC + _HEADER.pack(n, j, sg.dt, sg.params.omega0)
    yield sg.scales.astype("<f8").tobytes()
    yield memoryview(np.ascontiguousarray(sg.coeffs, dtype="<c16")).cast("B")


def scalogram_to_bytes(sg: Scalogram) -> bytes:
    """Binary layout: magic 'MSCL1', uint32 N, uint32 J, float64 dt, float64
    omega0, J float64 scales, then row-major (re, im) float64 pairs,
    little-endian throughout."""
    return b"".join(scalogram_chunks(sg))


def scalogram_from_bytes(data: bytes) -> Scalogram:
    """Decode :func:`scalogram_to_bytes` output.

    The record does not carry the source series' variance and lag-1
    autocorrelation, so :func:`significance_threshold` on a decoded
    scalogram raises InvalidParameter.
    """
    off = len(_MAGIC) + _HEADER.size
    if data[:len(_MAGIC)] != _MAGIC:
        raise InputError("bad scalogram magic")
    if len(data) < off:
        raise InputError("scalogram record shorter than its header")
    n, j, dt, omega0 = _HEADER.unpack_from(data, len(_MAGIC))
    if j < 1 or len(data) != off + 8 * j + 16 * j * n:
        raise InputError("scalogram record length does not match its header")
    scales = np.frombuffer(data, dtype="<f8", count=j, offset=off)
    coeffs = np.frombuffer(data, dtype="<c16", count=j * n, offset=off + 8 * j)
    dj = float(np.log2(scales[1] / scales[0])) if j > 1 else 0.125
    return Scalogram(coeffs=coeffs.reshape(j, n).astype(np.complex128),
                     scales=scales.astype(np.float64), dj=dj, dt=dt,
                     params=MorletParams(omega0=omega0))


# %.17g writes a float64 x with 1e-4 <= |x| < 1e17 in fixed notation, with
# the 17 significant digits of the integer nearest |x| * 10**(16 - k), k its
# decimal exponent. Every 10**(16 - k) is an exact double, so Dekker's
# error-free product (Numer. Math. 18:224, 1971) gives |x| * 10**(16 - k)
# exactly, as hi + lo, and the integer as % rounds it, ties to even.
_POW10 = np.array([float(10 ** e) for e in range(21)])
_SPLITTER = 2.0 ** 27 + 1  # Veltkamp's: splits a double into 26-bit halves
_G17_WIDTH = 24  # the longest %.17g text: "-2.2250738585072014e-308"
_ZERO_POINT = np.frombuffer(b"0.000", np.uint8)  # fixed notation below 1


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of each double: a == hi + lo, 26 bits each."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _times_pow10(a: np.ndarray,
                 e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's product of a and 10**e: hi rounded, hi + lo exact."""
    hi = a * _POW10.take(e)
    ah, al = _split(a)
    bh, bl = _POW10_HI.take(e), _POW10_LO.take(e)
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _fixed_significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each 1e-4 <= a < 1e17: the decimal exponent k of a's %.17g text
    and the integer 1e16 <= d < 1e17 of its 17 significant digits."""
    k = np.floor(np.log10(a)).astype(np.intp)
    np.clip(k, -4, 16, out=k)  # 10**(16 - k) stays in _POW10
    hi, lo = _times_pow10(a, 16 - k)
    # log10 can be one off next to a power of ten: a * 10**(16 - k),
    # compared exactly, then lies outside [1e16, 1e17)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        k[off] += np.where(high[off], 1, -1)
        hi[off], lo[off] = _times_pow10(a[off], 16 - k[off])
    # hi >= 2**53 is an even integer and |lo| <= 8, so rint rounds the
    # sum's half-way cases to even. None rounds up to 1e17: that a would lie
    # less than 5e-18 times 10**(k + 1) below it, and no double in range does
    return k, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _ascii_digits(d: np.ndarray) -> np.ndarray:
    """The 17 digits of each 1e16 <= d < 1e17 as ASCII, one row per digit
    position, its trailing zeros NUL."""
    digits = np.empty((17, d.size), np.uint8)
    high = d // 10 ** 8
    row = 0
    for v, p in ((high.astype(np.uint32), 10 ** 8),
                 ((d - high * 10 ** 8).astype(np.uint32), 10 ** 7)):
        while p:
            t = v // p
            digits[row] = t
            v -= t * p
            p //= 10
            row += 1
    # a digit stays if it or one after it is not 0; the first is never 0
    kept = digits != 0
    for i in range(15, 0, -1):
        kept[i] |= kept[i + 1]
    digits += ord("0")
    digits *= kept
    return digits


def _g17_cells(x: np.ndarray) -> np.ndarray:
    """``b"%.17g" % v`` for each float64 v of the 1-D ``x``: row i holds
    x[i]'s text in _G17_WIDTH bytes, with NUL bytes, to be dropped, where it
    has no sign, where trailing zeros were and after its end.

    Values in fixed notation, 1e-4 <= |x| < 1e17, are formatted here; %
    formats the others (0, tiny, huge, inf and nan) in bulk, and all of
    them when no value is in that range."""
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17)  # false on nan
    rest = np.flatnonzero(~fixed)
    text = (f"%-{_G17_WIDTH}.17g" * rest.size
            % tuple(x[rest].tolist())).encode()
    padded = np.frombuffer(text, np.uint8).reshape(rest.size, _G17_WIDTH)
    padded = padded * (padded != ord(" "))
    if rest.size == x.size:
        return padded
    covered = np.flatnonzero(fixed)
    k, d = _fixed_significand(a[covered])
    # by exponent, then the others: each exponent's cells are one slice
    by_k = np.argsort(k.astype(np.int8), kind="stable")
    k, order = k[by_k], np.concatenate((covered[by_k], rest))
    digits = _ascii_digits(d[by_k]).T
    cells = np.zeros((x.size, _G17_WIDTH), np.uint8)
    cells[:k.size, 0] = (x[order[:k.size]] < 0) * np.uint8(ord("-"))
    cells[k.size:] = padded
    bounds = np.searchsorted(k, np.arange(-4, 18))
    for e, start, stop in zip(range(-4, 17), bounds, bounds[1:]):
        g, cell = digits[start:stop], cells[start:stop]
        if e < 0:  # 0.ddd, 0.0ddd, ...
            cell[:, 1:2 - e] = _ZERO_POINT[:1 - e]
            cell[:, 2 - e:19 - e] = g
            continue
        cell[:, 1:e + 2] = np.maximum(g[:, :e + 1], ord("0"))  # zeros kept
        if e < 16:  # a point if a fraction digit is left
            cell[:, e + 2] = np.minimum(g[:, e + 1], ord("."))
            cell[:, e + 3:19] = g[:, e + 1:]
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return cells.take(inverse, axis=0)


def scalogram_to_csv(sg: Scalogram, threshold: np.ndarray,
                     times: np.ndarray, j: int) -> bytes:
    """The long-format lines scale,time,re,im,power,significant of scale
    row ``j``, a point flagged where its power exceeds ``threshold[j]``.
    ``times`` holds each line's ",time" text, NUL-padded, as
    :func:`scalogram_csv_chunks` builds it."""
    c = sg.coeffs[j]
    p = np.abs(c) ** 2
    scale = np.frombuffer(b"%.17g" % sg.scales[j], np.uint8)
    n, w = times.shape
    # one NUL-padded matrix of lines, with the values in 25-byte cells
    # ",re", ",im", ",power", then compacted
    line = np.empty((n, scale.size + w + 3 * (1 + _G17_WIDTH) + 3), np.uint8)
    line[:, :scale.size] = scale
    line[:, scale.size:scale.size + w] = times
    values = line[:, scale.size + w:-3].reshape(n, 3, 1 + _G17_WIDTH)
    values[:, :, 0] = ord(",")
    values[:, :, 1:] = _g17_cells(
        np.column_stack((c.real, c.imag, p)).ravel()).reshape(n, 3, _G17_WIDTH)
    line[:, -3] = ord(",")
    line[:, -2] = (p > threshold[j]) + np.uint8(ord("0"))
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


def scalogram_csv_chunks(sg: Scalogram, threshold: np.ndarray):
    """:func:`scalogram_to_csv` one scale row per chunk, in scale order,
    flagged against ``threshold`` (:func:`significance_threshold`).

    From ``_CSV_SPLIT_MIN_LINES`` lines on, w processes format the rows
    (``_worker_count``; one where processes cannot be forked): forked worker
    i formats rows k with k % w == i, the calling process the rows with
    k % w == 0. A worker formats its next row only once the caller has read
    the last one, so at most w rows are in flight and the text is never held
    whole. A Python warning raised in a worker is raised again here, in row
    order, as its row is yielded. A worker that fails in any way ends, and
    raises OSError here, naming the row it owed. The workers are stopped
    when the generator ends, fails or is closed.
    """
    j = len(sg.scales)
    # each line's ",time", formatted once; a column NUL on every line adds
    # nothing to the text
    times = np.zeros((sg.n, 1 + _G17_WIDTH), np.uint8)
    times[:, 0] = ord(",")
    times[:, 1:] = _g17_cells(np.arange(sg.n) * sg.dt)
    times = times[:, times.any(axis=0)]
    w = (_worker_count(j, j * sg.n, _CSV_SPLIT_MIN_LINES)
         if hasattr(os, "fork") else 1)
    conns, workers = [], []
    try:
        if w > 1:
            import multiprocessing  # ~12 ms that only a CSV this large pays

            # forked, the workers share the coefficients and the times
            # copy-on-write: nothing is pickled and nothing imported again
            fork = multiprocessing.get_context("fork")
            for i in range(1, w):
                conn, child_end = fork.Pipe(duplex=False)
                conns.append(conn)
                workers.append(fork.Process(
                    target=_csv_worker, daemon=True,
                    args=(sg, threshold, times, range(i, j, w), child_end)))
                with warnings.catch_warnings():
                    # numpy's idle OpenBLAS threads make Python 3.12+ warn
                    # at fork; a worker calls no BLAS routine
                    warnings.filterwarnings(
                        "ignore", "This process .* is multi-threaded",
                        DeprecationWarning)
                    workers[-1].start()
                child_end.close()  # so that a worker's death is an EOF here
        for k in range(j):
            if k % w == 0:
                yield scalogram_to_csv(sg, threshold, times, k)
                continue
            try:
                text, caught = conns[k % w - 1].recv()
            except EOFError:
                raise OSError(f"the process formatting CSV row {k} ended") from None
            for caught_warning in caught:
                warnings.warn_explicit(*caught_warning)
            yield text
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            if worker.pid is not None:  # started
                worker.terminate()  # it may be formatting a row nobody reads
                worker.join()


def _csv_worker(sg: Scalogram, threshold: np.ndarray, times: np.ndarray,
                rows: range, conn) -> None:
    """Send (text, warnings) for each row of ``rows`` in turn, each warning
    as (text, category, filename, lineno). The worker leaves Ctrl-C to its
    parent and writes nothing to stderr: a row that raises, or a reply that
    cannot be sent, ends it, which the parent sees as the pipe's end."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for k in rows:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                text = scalogram_to_csv(sg, threshold, times, k)
            conn.send((text, [(str(w.message), w.category, w.filename,
                               w.lineno) for w in caught]))
    except Exception:
        os._exit(1)
