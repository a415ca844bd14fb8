"""Morlet CWT and its Torrence-Compo reductions: cone of influence, global and
time-summed spectra, scale averages, band reconstruction, red-noise tests."""

from __future__ import annotations

import math
import os
import queue
import struct
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, InvalidParameter, NumericError
from .signal_core import TimeSeries

# reconstruction constant for omega0 = 6; other omega0 values keep relative
# scale-average/reconstruction shapes but lose absolute calibration
C_DELTA = 0.776
PSI0_ZERO = np.pi ** (-0.25)

# Shortest padded length whose transform and per-row power passes are split
# over threads: below it a row is too short to pay for handing over the GIL.
# scripts/cwt_threads.py, 2-core host: two threads transformed at 0.5-0.9x
# the speed of one up to 2048 points, 0.82-1.21x at 4096 and 1.36-1.51x at
# 8192 (four runs); significance_mask ran at 0.33-0.70x up to 4096 (0.5 ms
# lost there) and 1.08-1.18x at 8192 (two runs). No benchmark workload
# transforms fewer than 16384 points.
_THREADED_MIN_LENGTH = 4096
# Most threads per transform and per scalogram CSV. Each transform thread
# holds its own buffers: at n = 2**16 (131072 points, 105 scales) the
# transform added about 121/132/157/184/263 MB of peak RSS with 1/2/4/8/16
# workers (same script), and each CSV thread holds a 1.9 MB workspace, so
# large hosts, and CPU counts that ignore cgroup quotas, cost at most ~25 MB
# over two workers. Speed-ups beyond 2 CPUs are unmeasured.
_MAX_WORKERS = 4
# Scale rows per inverse FFT call: numpy transforms a call's rows together in
# SIMD lanes, through a scratch copy. Blocks of 1/2/4 took 3.9/3.1/2.9 ms per
# row at 131072 points, and perfbench's lib_numerics op (n = 2**16, in one
# process) ran 6-30 % slower with 1 than with 2 (6/6 pairs) for a peak RSS of
# 173 MB against 182.
_BLOCK_ROWS = 2
# Fewest scalogram CSV lines (scales x times) that are split over threads.
# scripts/csv_workers.py, 2-core host, 8192-line units, two runs: two threads
# ran 0.36-1.01x as fast as one up to 133120 lines, 1.11x and 1.20x at
# 299008, and 1.35-1.52x from 663552 (the n = 8192 CSV) on.
_CSV_SPLIT_MIN_LINES = 2 ** 18
# Most lines per unit of the scalogram CSV, formatted by one thread in its
# workspace (0.23 KB per line). cwt --format both on fGn, 2 CPUs: 4096/8192
# took 0.45/0.38 s at n = 8192 (peak 47.6/49.9 MB) and 3.3/2.9 s at 2**16.
_CSV_UNIT_LINES = 8192

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
    mean_power: np.ndarray | None = field(  # cwt_morlet's; replace drops it
        init=False, default=None, compare=False)

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
    """Workers that split ``rows`` scale rows (or CSV units) of a job of
    ``size``: one per available CPU, at most ``_MAX_WORKERS`` and ``rows``,
    and one below ``floor``."""
    if size < floor:
        return 1
    return max(1, min(_cpu_count(), _MAX_WORKERS, rows))


def cwt_morlet(ts: TimeSeries, grid: ScaleGrid | None = None,
               params: MorletParams = MorletParams()) -> Scalogram:
    """FFT-domain continuous Morlet transform (Torrence & Compo 1998): the
    signal is zero-padded to the power of two above its length, and the
    coefficients, read-only, are truncated back to it. Each row's mean power
    is stored too, for global_spectrum."""
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
    spec = np.fft.fft(ts.samples, m)[pos].copy()  # frees the other half

    coeffs, means = np.empty((grid.J, n), np.complex128), np.empty(grid.J)

    def transform(blocks) -> None:  # each worker writes only its own rows
        z = np.empty((min(_BLOCK_ROWS, grid.J), m), np.complex128)
        f, p = np.empty(omega.size), np.empty(n)  # filter, then power
        for js in blocks:
            (rows := z[:len(js)]).fill(0.0)
            for row, j in zip(rows, js):
                # morlet_spectrum(omega[b], s, omega0) * sqrt(2 pi s / dt) in
                # place, in its order for its bits; omega > 0 on the band
                s, b = scales[j], slice(lo[j], hi[j])
                arg = np.multiply(s, omega[b], out=f[b])
                arg -= params.omega0
                psi = np.multiply(-0.5, arg, out=p[b])
                np.exp(np.multiply(psi, arg, out=psi), out=psi)
                psi *= PSI0_ZERO
                psi *= np.sqrt(2.0 * np.pi * s / ts.dt)
                np.multiply(spec[b], psi, out=row[1:][b])
            np.fft.ifft(rows, axis=1, out=rows)
            coeffs[js.start:js.stop:js.step] = rows[:, :n]
            for row, j in zip(rows, js):  # its mean power while it is hot
                means[j] = np.square(np.abs(row[:n], out=p), out=p).mean()

    _on_workers(grid.J, m, transform, _BLOCK_ROWS)
    coeffs.flags.writeable = False
    # a constant series varies by its mean's round-off at most: record 0
    var = float(ts.samples.var()) if np.ptp(ts.samples) else 0.0
    sg = Scalogram(coeffs=coeffs, scales=scales, dj=grid.dj, dt=ts.dt,
                   params=params, src_var=var, src_lag1=lag1_autocorr(ts.samples))
    object.__setattr__(sg, "mean_power", means)
    return sg


def _on_workers(rows: int, size: int, task, block: int = 1) -> None:
    """Run ``task(blocks)`` on w workers (``_worker_count``), the calling
    thread as worker 0, at once where numpy releases the GIL: worker k's
    ``blocks`` gives its rows k, k + w, ... in ranges of at most ``block``,
    none once a worker has raised. The first exception, Ctrl-C included, is
    raised here when every worker has ended."""
    w = _worker_count(rows, size, _THREADED_MIN_LENGTH)
    failed: list[BaseException] = []
    err = np.geterr()  # a new thread would start with numpy's defaults

    def blocks(k: int):
        mine = range(k, rows, w)
        return (mine[i:i + block] for i in range(0, len(mine), block)
                if not failed)

    def worker(k: int) -> None:
        try:
            with np.errstate(**err):
                task(blocks(k))
        except Exception as exc:  # re-raised on the calling thread
            failed.append(exc)

    threads = []
    try:
        for k in range(1, w):
            t = threading.Thread(target=worker, args=(k,))
            t.start()
            threads.append(t)
        task(blocks(0))
    except BaseException as exc:  # Ctrl-C included: stop the workers early
        failed.append(exc)
        raise
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[0]


def _row_powers(sg: Scalogram, reduce) -> list:
    """``reduce(j, p)`` of each scale row j on the transform's workers, p its
    power ``np.abs(c) ** 2`` in a buffer that each worker reuses."""
    out = [None] * len(sg.scales)

    def task(blocks) -> None:
        p = np.empty(sg.n)
        for (j,) in blocks:  # blocks of one row
            out[j] = reduce(j, np.square(np.abs(sg.coeffs[j], out=p), out=p))

    _on_workers(len(sg.scales), _pad_length(sg.n), task)
    return out


def global_spectrum(sg: Scalogram, coi_only: bool = False) -> np.ndarray:
    """Time-mean wavelet power per scale (Torrence & Compo 1998, eq. 22): a
    copy of the means cwt_morlet stored, else computed; over each scale's
    cone-of-influence interior if ``coi_only``."""
    if not coi_only and sg.mean_power is not None:
        return sg.mean_power.copy()
    # scale j's mean over the times edge[j] to n - 1 - edge[j]
    edge = (np.searchsorted(sg.coi[:(sg.n + 1) // 2], sg.scales) if coi_only
            else np.zeros(len(sg.scales), int))
    if np.any(sg.n - 2 * edge <= 0):
        raise NumericError("some scales have no cone-of-influence interior")

    def interior_sum(j: int, p: np.ndarray) -> float:
        p[:edge[j]] = p[sg.n - edge[j]:] = 0.0
        return p.sum()
    return np.array(_row_powers(sg, interior_sum)) / (sg.n - 2 * edge)


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
    mask, thr = np.empty(sg.coeffs.shape, bool), significance_threshold(sg, level)
    _row_powers(sg, lambda j, p: np.greater(p, thr[j], out=mask[j]))
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
# Veltkamp's split of each power: _POW10 == _POW10_HI + _POW10_LO, 26 bits each
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


class _Workspace:
    """A thread's scratch memory for the CSV units it formats, of at most
    ``values`` values (3 per line); ``ws(at, dtype, *shape)`` views it from
    cell ``at``, a byte per value. Below, each buffer's first cell, its cells
    for v values, what it holds and, "to X", that it is dead once X is made.
    Buffers that share a cell never live at once; LINES is made after TEXT."""
    FLAG = 0       # 0      bool power flags, to the lines' flag column
    VALUES = 1     # 1-8    float64 re, im, power, then |x|, to PAIR
    ORDER = 1      # 1-8    intp order of the values by exponent, to INVERSE
    TEXT = 1       # 1-24   _g17_cells's 24-byte cells, to LINES
    NEG = 9        # 9      bool sign bits, to SIGNS
    REST = 10      # 10     bool fixed notation, then not, to k's fill
    DIGITS = 10    # 10-26  17 rows of ASCII digits, to CELLS
    K = 11         # 11     bool |x| >= 1e-4, briefly; then int8 k, to KEY
    E = 12         # 12-19  intp 16 - k, then float64 lo, to PAIR
    SORTED = 12    # 12-19  int64 d by exponent, to its halves in PAIR
    HI = 20        # 20-27  float64 log10 |x|, then hi, to PAIR
    KEY = 20       # 20-27  int64 sort key, to ORDER
    KEPT = 27      # 27-43  17 bool rows of kept digits, to DIGITS' mask
    CELLS = 27     # 27-50  24-byte cells by exponent, to TEXT
    DEKKER = 28    # 28-59  4 float64 rows, _times_pow10's scratch
    PAIR = 28      # 28-43  int64 d and rint(lo), to SORTED; halves, to HALVES
    HALVES = 44    # 44-59  uint32 halves (44-51), quotients (52-59), to DIGITS
    SIGNS = 51     # 51     bool signs by exponent, to CELLS
    INVERSE = 51   # 51-58  intp inverse of ORDER, to TEXT
    LINES = 25     # 25-67  a unit's lines, <= 127 bytes each, to its bytes

    def __init__(self, values: int):
        self.cell = -(-values // 64) * 64
        self.memory = np.empty(68 * self.cell, np.uint8)  # cells 0-67
        self.iota, self.mask = np.arange(values), np.empty(2 ** 16, bool)

    def __call__(self, at: int, dtype, *shape: int) -> np.ndarray:
        return np.ndarray(shape, dtype, self.memory, at * self.cell)


def _times_pow10(a: np.ndarray, e: np.ndarray, hi: np.ndarray,
                 lo: np.ndarray, ah, al, bh, bl) -> None:
    """Dekker's product of a and 10**e into hi, rounded, and lo, hi + lo
    exact, through four scratch arrays; lo may share e's memory."""
    np.multiply(a, np.take(_POW10, e, out=hi, mode="clip"), out=hi)
    np.take(_POW10_HI, e, out=bh, mode="clip")
    np.take(_POW10_LO, e, out=bl, mode="clip")
    # split a, then lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    t = np.multiply(_SPLITTER, a, out=ah)
    np.subtract(t, np.subtract(t, a, out=al), out=ah)
    np.subtract(a, ah, out=al)
    np.subtract(np.multiply(ah, bh, out=lo), hi, out=lo)
    lo += np.multiply(ah, bl, out=ah)
    lo += np.multiply(al, bh, out=bh)
    lo += np.multiply(al, bl, out=al)


def _fixed_significand(a: np.ndarray,
                       ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """For each 1e-4 <= a < 1e17: the decimal exponent k of a's %.17g text
    and the integer 1e16 <= d < 1e17 of its 17 significant digits."""
    v = a.size
    k, e = ws(ws.K, np.int8, v), ws(ws.E, np.intp, v)
    hi, lo = ws(ws.HI, np.float64, v), ws(ws.E, np.float64, v)
    log = np.floor(np.log10(a, out=hi), out=hi)
    np.clip(log, -4, 16, out=k, casting="unsafe")  # 10**(16 - k) in _POW10
    np.subtract(16, k, out=e)
    _times_pow10(a, e, hi, lo, *ws(ws.DEKKER, np.float64, 4, v))
    # log10 can be one off next to a power of ten: a * 10**(16 - k),
    # compared exactly, then lies outside [1e16, 1e17)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(low | high)
    k[off] += np.where(high[off], 1, -1)
    _times_pow10(a[off], 16 - k[off], *(fresh := np.empty((6, off.size))))
    hi[off], lo[off] = fresh[:2]
    # hi >= 2**53 is an even integer and |lo| <= 8, so rint rounds the
    # sum's half-way cases to even. None rounds up to 1e17: that a would lie
    # less than 5e-18 times 10**(k + 1) below it, and no double in range does
    d, r = ws(ws.PAIR, np.int64, 2, v)
    np.copyto(d, hi, "unsafe")
    np.copyto(r, np.rint(lo, out=lo), "unsafe")
    return k, np.add(d, r, out=d)


def _ascii_digits(d: np.ndarray, ws: _Workspace) -> np.ndarray:
    """The 17 digits of each 1e16 <= d < 1e17 as ASCII, one row per digit
    position, its trailing zeros NUL."""
    high, low = parts = ws(ws.PAIR, np.int64, 2, d.size)
    np.multiply(np.floor_divide(d, 10 ** 8, out=high), 10 ** 8, out=low)
    np.subtract(d, low, out=low)
    halves, t = ws(ws.HALVES, np.uint32, 2, 2, d.size)
    np.copyto(halves, parts, "unsafe")
    # both halves at once: the low one's first digit, a 0, lands in row 8
    # before the high one's last digit does
    digits = ws(ws.DIGITS, np.uint8, 17, d.size)
    for row in range(9):
        digits[row:row + 9:8] = np.floor_divide(halves, 10 ** (8 - row), out=t)
        halves -= np.multiply(t, 10 ** (8 - row), out=t)
    # a digit stays if it or one after it is not 0; the first is never 0
    kept = np.not_equal(digits, 0, out=ws(ws.KEPT, bool, 17, d.size))
    for i in range(15, 0, -1):
        kept[i] |= kept[i + 1]
    digits += ord("0")
    digits *= kept
    return digits


def _g17_cells(x: np.ndarray, ws: _Workspace | None = None) -> np.ndarray:
    """``b"%.17g" % v`` for each float64 v of the 1-D ``x``: row i holds
    x[i]'s text in _G17_WIDTH bytes, with NUL bytes, to be dropped, where it
    has no sign, where trailing zeros were and after its end; ``ws``'s TEXT
    (by default, a workspace made for ``x``), which may hold ``x`` in VALUES.

    Values in fixed notation, 1e-4 <= |x| < 1e17, are formatted here; %
    formats the others (0, tiny, huge, inf and nan) in bulk, and all of
    them when no value is in that range."""
    ws, v = ws or _Workspace(x.size), x.size
    neg, fixed = np.signbit(x, out=ws(ws.NEG, bool, v)), ws(ws.REST, bool, v)
    a = np.abs(x, out=ws(ws.VALUES, np.float64, v))
    np.less(a, 1e17, out=fixed)
    fixed &= np.greater_equal(a, 1e-4, out=ws(ws.K, bool, v))  # false on nan
    count, rest = np.count_nonzero(fixed), np.logical_not(fixed, out=fixed)
    if count < v:
        text = (f"%-{_G17_WIDTH}.17g" * (v - count) % tuple(
            np.where(neg[rest], -a[rest], a[rest]).tolist())).encode()
        padded = np.frombuffer(text, np.uint8).reshape(v - count, _G17_WIDTH)
        if not count:
            return padded * (padded != ord(" "))
        np.copyto(a, 1.0, where=rest)
    k, d = _fixed_significand(a, ws)
    np.copyto(k, 17, where=rest)
    # by exponent, then the others in x's order: each exponent's cells are
    # one slice. The key is k + 4 (21 for the others) above 32 bits of index
    key = np.add(k, 4, out=ws(ws.KEY, np.int64, v))
    np.bitwise_or(np.left_shift(key, 32, out=key), ws.iota[:v], out=key).sort()
    bounds = np.searchsorted(key, np.arange(22) << 32)
    order = np.bitwise_and(key, 2 ** 32 - 1, out=ws(ws.ORDER, np.intp, v))
    d = np.take(d, order, out=ws(ws.SORTED, np.int64, v), mode="clip")
    digits = _ascii_digits(d, ws).T
    (cells := ws(ws.CELLS, np.uint8, v, _G17_WIDTH)).fill(0)
    np.multiply(np.take(neg, order[:count], out=ws(ws.SIGNS, bool, count),
                        mode="clip"), np.uint8(ord("-")), out=cells[:count, 0])
    if count < v:
        np.multiply(padded, padded != ord(" "), out=cells[count:])
    for e, start, stop in zip(range(-4, 17), bounds, bounds[1:]):
        if start == stop:
            continue
        g, cell = digits[start:stop], cells[start:stop]
        if e < 0:  # 0.ddd, 0.0ddd, ...
            cell[:, 1:2 - e] = _ZERO_POINT[:1 - e]
            cell[:, 2 - e:19 - e] = g
            continue
        np.maximum(g[:, :e + 1], ord("0"), out=cell[:, 1:e + 2])  # zeros kept
        if e < 16:  # a point if a fraction digit is left
            np.minimum(g[:, e + 1], ord("."), out=cell[:, e + 2])
            cell[:, e + 3:19] = g[:, e + 1:]
    inverse = ws(ws.INVERSE, np.intp, v)
    inverse[order] = ws.iota[:v]
    return np.take(cells, inverse, 0, ws(ws.TEXT, np.uint8, *cells.shape),
                   "clip")


def scalogram_to_csv(sg: Scalogram, threshold: np.ndarray, times: np.ndarray,
                     j: int, cols: slice, ws: _Workspace) -> bytes:
    """The long-format lines scale,time,re,im,power,significant of scale
    row ``j`` at the times ``cols``, a point flagged where its power exceeds
    ``threshold[j]``, formatted in ``ws``. ``times`` holds each line's
    ",time" text, NUL-padded, as :func:`scalogram_csv_chunks` builds it."""
    c = sg.coeffs[j, cols]
    x = ws(ws.VALUES, np.float64, c.size, 3)
    x[:, 0], x[:, 1] = c.real, c.imag
    p = np.square(np.abs(c, out=x[:, 2]), out=x[:, 2])
    flag = np.greater(p, threshold[j], out=ws(ws.FLAG, bool, c.size))
    scale = np.frombuffer(b"%.17g" % sg.scales[j], np.uint8)
    times = times[cols]
    n, w = times.shape
    # one NUL-padded matrix of lines, with the values in 25-byte cells
    # ",re", ",im", ",power", then compacted
    line = ws(ws.LINES, np.uint8, n, scale.size + w + 3 * (1 + _G17_WIDTH) + 3)
    values = line[:, scale.size + w:-3].reshape(n, 3, 1 + _G17_WIDTH)
    values[:, :, 1:] = _g17_cells(x.ravel(), ws).reshape(n, 3, _G17_WIDTH)
    line[:, :scale.size] = scale
    line[:, scale.size:scale.size + w] = times
    values[:, :, 0] = ord(",")
    line[:, -3] = ord(",")
    np.add(flag, np.uint8(ord("0")), out=line[:, -2])
    line[:, -1] = ord("\n")
    # the text moves to the front a block at a time, in numpy (threads run)
    flat, size = line.ravel(), 0
    for block in np.split(flat, range(ws.mask.size, flat.size, ws.mask.size)):
        text = block[np.not_equal(block, 0, out=ws.mask[:block.size])]
        flat[size:size + text.size] = text
        size += text.size
    del text  # the unit's bytes are then its one large allocation
    return flat[:size].tobytes()


def scalogram_csv_chunks(sg: Scalogram, threshold: np.ndarray):
    """:func:`scalogram_to_csv` in units of at most ``_CSV_UNIT_LINES`` lines
    of one scale row, one unit per chunk, in file order, flagged against
    ``threshold`` (:func:`significance_threshold`).

    From ``_CSV_SPLIT_MIN_LINES`` lines on, w threads format the units
    (``_worker_count``): thread i formats units i, i + w, ... into its own
    one-unit slot, and the calling thread only takes them from the slots in
    file order, so each thread is at most one unit ahead of the reader and
    the text is never held whole. Below the floor, or with one CPU, the
    calling thread formats every unit and starts no thread. A unit that
    raises in a thread raises OSError here, naming its row. The threads are
    stopped and joined when the generator ends, fails or is closed.
    """
    rows = len(sg.scales)
    # each line's ",time", formatted once; a column NUL on every line adds
    # nothing to the text
    times = np.zeros((sg.n, 1 + _G17_WIDTH), np.uint8)
    times[:, 0] = ord(",")
    times[:, 1:] = _g17_cells(np.arange(sg.n) * sg.dt)
    times = times[:, times.any(axis=0)]
    units = [(j, slice(t, t + _CSV_UNIT_LINES)) for j in range(rows)
             for t in range(0, max(sg.n, 1), _CSV_UNIT_LINES)]
    w = _worker_count(len(units), rows * sg.n, _CSV_SPLIT_MIN_LINES)
    if w == 1:
        ws = _Workspace(3 * min(sg.n, _CSV_UNIT_LINES))
        for j, cols in units:
            yield scalogram_to_csv(sg, threshold, times, j, cols, ws)
        return
    slots = [queue.Queue(1) for _ in range(w)]
    stop = threading.Event()

    def fill(i: int) -> None:
        try:
            ws = _Workspace(3 * min(sg.n, _CSV_UNIT_LINES))
            for j, cols in units[i::w]:
                if stop.is_set():
                    return
                slots[i].put(scalogram_to_csv(sg, threshold, times, j, cols, ws))
        except Exception as exc:  # raised on the calling thread
            slots[i].put(exc)

    threads = []
    try:
        for i in range(w):
            # a daemon: a generator never closed cannot hold the interpreter
            # open at exit
            t = threading.Thread(target=fill, args=(i,), daemon=True)
            t.start()
            threads.append(t)
        for u, (j, _) in enumerate(units):
            chunk = slots[u % w].get()
            if isinstance(chunk, Exception):
                raise OSError(f"the thread formatting CSV row {j} failed: "
                              f"{chunk!r}") from chunk
            yield chunk
    finally:
        stop.set()
        # a thread blocked on its full slot puts once more, then stops
        for slot in slots:
            try:
                slot.get_nowait()
            except queue.Empty:
                pass
        for t in threads:
            t.join()
