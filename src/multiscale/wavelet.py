"""Morlet CWT and its Torrence-Compo reductions: cone of influence, global and
time-summed spectra, scale averages, band reconstruction, red-noise tests."""

from __future__ import annotations

import functools
import math
import os
import struct
import threading
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    EmptyBand,
    EmptyCOI,
    GridTooCoarse,
    InvalidParameter,
    Malformed,
    ScaleOutOfRange,
    TooShort,
)
from .signal_core import TimeSeries

# reconstruction constant for omega0 = 6; other omega0 values keep relative
# scale-average/reconstruction shapes but lose absolute calibration
C_DELTA = 0.776
PSI0_ZERO = np.pi ** (-0.25)

# Shortest padded transform length that is split over threads: below it
# each row's FFT is too short to pay for handing the GIL between threads.
# scripts/cwt_threads.py on a 2-core host: two threads took 1.2-1.9x as long
# as one at 512-2048 points, about as long at 4096 and 1.4-1.5x less at 8192.
# No benchmark workload transforms fewer than 16384 points.
_THREADED_MIN_LENGTH = 4096
# Most threads per transform, and most processes per scalogram CSV. Each
# thread holds its own buffers: at n = 2**16 (131072 points, 105 scales) the
# transform added 118/125/138/164/203 MB of peak RSS with 1/2/4/8/16 workers
# (same script), so large hosts, and CPU counts that ignore cgroup quotas,
# cost at most ~14 MB over two workers. Speed-ups beyond 2 CPUs are
# unmeasured.
_MAX_WORKERS = 4
# Fewest scalogram CSV lines (scales x times) that are split over processes.
# scripts/csv_workers.py on a 2-core host, fresh process, median of 9: two
# processes took 1.8x as long as one at 4224 lines (12 -> 22 ms), 1.1x at
# 10496 (29 -> 33 ms), and 1.35x less at 25088 (72 -> 53 ms), 1.6x less at
# 133120 and 663552 (the n = 8192 CSV, 1.77 -> 1.12 s). Importing
# multiprocessing and forking cost about 10 ms.
_CSV_SPLIT_MIN_LINES = 2 ** 14

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
                    dj: float = 0.125) -> "ScaleGrid":
        grid = cls(s0=2.0 * dt if s0 is None else s0, dj=dj, J=1)
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


def _worker_count(rows: int, length: int) -> int:
    """Threads for a transform of ``rows`` scales at padded ``length``: one
    per available CPU, at most ``_MAX_WORKERS`` and ``rows``, and one below
    ``_THREADED_MIN_LENGTH``."""
    if length < _THREADED_MIN_LENGTH:
        return 1
    return max(1, min(_cpu_count(), _MAX_WORKERS, rows))


def _csv_worker_count(rows: int, n: int) -> int:
    """Processes that format the CSV of ``rows`` scales by ``n`` times: one
    per available CPU, at most ``_MAX_WORKERS`` and ``rows``, and one below
    ``_CSV_SPLIT_MIN_LINES`` lines or where processes cannot be forked."""
    if rows * n < _CSV_SPLIT_MIN_LINES or not hasattr(os, "fork"):
        return 1
    return max(1, min(_cpu_count(), _MAX_WORKERS, rows))


def cwt_morlet(ts: TimeSeries, grid: ScaleGrid | None = None,
               params: MorletParams = MorletParams(),
               pad: str = "zero") -> Scalogram:
    """FFT-domain continuous Morlet transform.

    With ``pad='zero'`` the signal is zero-padded to the next power of two
    and truncated back; ``pad='periodic'`` performs the circular transform
    at the native length (exact time-shift covariance).
    """
    n = ts.n
    if n < 32:
        raise TooShort("need at least 32 samples")
    if grid is None:
        grid = ScaleGrid.default_for(n, ts.dt)
    # below about 1.9 dt a Morlet scale's centre frequency is above Nyquist
    if grid.s0 < 2.0 * ts.dt * (1.0 - 1e-12):
        raise ScaleOutOfRange("smallest scale is below 2*dt")
    # in log2 space, before any array of J scales exists
    if (math.log2(grid.s0) + grid.dj * (grid.J - 1)
            > math.log2(n * ts.dt / 4.0) + math.log2(1.0 + 1e-12)):
        raise GridTooCoarse("largest scale exceeds a quarter of the record")
    if pad not in ("zero", "periodic"):
        raise InvalidParameter("pad must be 'zero' or 'periodic'")
    if 16 * grid.J * n > _physical_memory():
        raise MemoryError(f"{grid.J} x {n} coefficients exceed physical memory")
    scales = grid.scales

    m = _pad_length(n) if pad == "zero" else n
    x = np.zeros(m)
    x[:n] = ts.samples
    # the Morlet spectrum is zero at omega <= 0, so only the positive bins
    # 1 .. (m+1)//2 - 1 carry the product; the rest of z stays zero
    pos = slice(1, (m + 1) // 2)
    spec = np.fft.fft(x)[pos]
    omega = 2.0 * np.pi * np.fft.fftfreq(m, ts.dt)[pos]

    coeffs = np.empty((grid.J, n), dtype=np.complex128)
    # worker k fills rows k, k+w, k+2w, ...; numpy's FFT and ufuncs release
    # the GIL and each worker writes only its own rows, so the result does
    # not depend on w. Worker 0 is the calling thread.
    w = _worker_count(grid.J, m)
    failed: list[BaseException] = []

    def rows(first: int) -> None:
        z = np.zeros(m, dtype=np.complex128)
        for j in range(first, grid.J, w):
            if failed:  # another worker has raised: stop after this row
                return
            s = scales[j]
            psi_hat = np.sqrt(2.0 * np.pi * s / ts.dt) * morlet_spectrum(
                omega, s, params.omega0)
            np.multiply(spec, psi_hat, out=z[pos])
            coeffs[j] = np.fft.ifft(z)[:n]

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

    return Scalogram(coeffs=coeffs, scales=scales, dj=grid.dj, dt=ts.dt,
                     params=params, src_var=float(ts.samples.var()),
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
        raise EmptyCOI("some scales have no cone-of-influence interior")
    return np.array([np.where(ins, p, 0.0).sum()
                     for ins, p in zip(inside, _row_power(sg.coeffs))]) / counts


def _band_indices(sg: Scalogram, band: tuple[float, float]) -> np.ndarray:
    s_lo, s_hi = band
    sel = np.nonzero((sg.scales >= s_lo) & (sg.scales <= s_hi))[0]
    if sel.size == 0:
        raise EmptyBand("band does not intersect the scale grid")
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


def significance_mask(sg: Scalogram, level: float = 0.95) -> SignificanceMask:
    """Red-noise chi-squared significance test per Torrence-Compo.

    The lag-1 autocorrelation estimated from the source series defines a
    red-noise background spectrum; wavelet power exceeding that background
    times chi2(2, level)/2 is marked significant.
    """
    if not 0.5 < level < 1.0:
        raise InvalidParameter("level must be in (0.5, 1)")
    rho = sg.src_lag1
    if not np.isfinite(rho) or not np.isfinite(sg.src_var):
        raise InvalidParameter("scalogram lacks source statistics")
    freq = sg.dt / (sg.params.fourier_factor * sg.scales)  # cycles per sample
    background = (1.0 - rho * rho) / (
        1.0 + rho * rho - 2.0 * rho * np.cos(2.0 * np.pi * freq))
    threshold = sg.src_var * background * _chi2_ppf_2dof(level) / 2.0
    mask = np.empty(sg.coeffs.shape, dtype=bool)
    for p, thr, row in zip(_row_power(sg.coeffs), threshold, mask):
        np.greater(p, thr, out=row)
    return SignificanceMask(mask=mask)


def dominant_scale(sg: Scalogram) -> float:
    """Scale of the highest interior local maximum of the cone-of-influence
    global spectrum, the smallest such scale on a tie."""
    gws = global_spectrum(sg, coi_only=True)
    mid = gws[1:-1]
    peak = (mid > gws[:-2]) & (mid >= gws[2:])
    if not peak.any():
        raise EmptyBand("no global-spectrum peak to select a scale")
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
    autocorrelation, so :func:`significance_mask` on a decoded scalogram
    raises InvalidParameter.
    """
    off = len(_MAGIC) + _HEADER.size
    if data[:len(_MAGIC)] != _MAGIC:
        raise Malformed("bad scalogram magic")
    if len(data) < off:
        raise Malformed("scalogram record shorter than its header")
    n, j, dt, omega0 = _HEADER.unpack_from(data, len(_MAGIC))
    if j < 1 or len(data) != off + 8 * j + 16 * j * n:
        raise Malformed("scalogram record length does not match its header")
    scales = np.frombuffer(data, dtype="<f8", count=j, offset=off)
    coeffs = np.frombuffer(data, dtype="<c16", count=j * n, offset=off + 8 * j)
    dj = float(np.log2(scales[1] / scales[0])) if j > 1 else 0.125
    return Scalogram(coeffs=coeffs.reshape(j, n).astype(np.complex128),
                     scales=scales.astype(np.float64), dj=dj, dt=dt,
                     params=MorletParams(omega0=omega0))


@functools.lru_cache(maxsize=1)
def _csv_line_tails(n: int, dt_hex: str) -> tuple[str, ...]:
    """An empty string, then each CSV line after its scale cell with the
    time already formatted: ``,time,%.17g,%.17g,%.17g,%d`` and a newline,
    for re, im, power and the flag. ``scale.join`` of them is a row's
    template, empty for n = 0. The last file's tails are kept, so that a
    writer that takes one row at a time formats each time once per file.
    ``dt`` comes as ``float.hex`` so that 0.0 and -0.0 are two keys."""
    times = (np.arange(n) * float.fromhex(dt_hex)).tolist()
    return ("", *[",%.17g,%%.17g,%%.17g,%%.17g,%%d\n" % t for t in times])


def scalogram_to_csv(sg: Scalogram, mask: SignificanceMask,
                     rows: slice = slice(None)) -> str:
    """Long-format lines scale,time,re,im,power,significant of the scale
    rows ``rows`` (all by default), so that a writer can take one row at a
    time."""
    tails = _csv_line_tails(sg.n, float(sg.dt).hex())
    coeffs = sg.coeffs[rows]
    out = []
    for s, c, p, m in zip(sg.scales[rows], coeffs, _row_power(coeffs),
                          mask.mask[rows]):
        # one template and one % per row; %d prints the 0.0/1.0 flags as 0/1
        scale = "%.17g" % s
        values = np.column_stack((c.real, c.imag, p, m)).ravel().tolist()
        out.append(scale.join(tails) % tuple(values))
    return "".join(out)


def scalogram_csv_chunks(sg: Scalogram, mask: SignificanceMask):
    """:func:`scalogram_to_csv` one scale row per chunk, in scale order.

    From ``_CSV_SPLIT_MIN_LINES`` lines on, w processes format the rows
    (``_csv_worker_count``): forked worker i formats rows k with k % w == i,
    the calling process the rows with k % w == 0. A worker formats its next
    row only once the caller has read the last one, so at most w rows are in
    flight and the text is never held whole. A Python warning raised in a
    worker is raised again here, in row order, as its row is yielded; a
    worker's exception is raised here, and a worker that dies raises
    OSError. The workers are stopped when the generator ends, fails or is
    closed.
    """
    j = len(sg.scales)
    w = _csv_worker_count(j, sg.n)
    conns, workers = [], []
    try:
        if w > 1:
            import multiprocessing  # ~12 ms that only a CSV this large pays

            # forked, the workers share the coefficients and the mask
            # copy-on-write: nothing is pickled and nothing imported again
            fork = multiprocessing.get_context("fork")
            _csv_line_tails(sg.n, float(sg.dt).hex())  # the workers inherit them
            for i in range(1, w):
                conn, child_end = fork.Pipe(duplex=False)
                conns.append(conn)
                workers.append(fork.Process(
                    target=_csv_worker, daemon=True,
                    args=(sg, mask, range(i, j, w), child_end)))
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
                yield scalogram_to_csv(sg, mask, slice(k, k + 1))
                continue
            try:
                ok, value, caught = conns[k % w - 1].recv()
            except EOFError:
                raise OSError(f"the process formatting CSV row {k} ended") from None
            for message, filename, lineno in caught:
                warnings.warn_explicit(message, type(message), filename, lineno)
            if not ok:
                raise value
            yield value
    finally:
        for conn in conns:
            conn.close()
        for worker in workers:
            if worker.pid is not None:  # started
                worker.terminate()  # it may be formatting a row nobody reads
                worker.join()


def _csv_worker(sg: Scalogram, mask: SignificanceMask, rows: range,
                conn) -> None:
    """Send (True, text, warnings) for each row of ``rows`` in turn, or
    (False, exception, warnings) for the first that raises, then stop.
    Each warning goes as (message, filename, lineno). The worker leaves
    Ctrl-C to its parent and writes nothing to stderr: a reply that cannot
    be sent ends it, which the parent sees as the pipe's end."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        for k in rows:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    reply = True, scalogram_to_csv(sg, mask, slice(k, k + 1))
                except Exception as exc:
                    reply = False, exc
            conn.send((*reply, [(w.message, w.filename, w.lineno)
                                for w in caught]))
            if not reply[0]:
                return
    except Exception:  # an unpicklable reply, or the parent stopped reading
        os._exit(1)
