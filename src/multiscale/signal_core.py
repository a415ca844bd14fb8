"""Time-series container, CSV ingestion, synthetic generators, profile
construction, and the one CSV and one JSON writer every result uses."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidParameter


def _csv_rows(*columns) -> str:
    """One comma-separated line per row of equal-length columns, each line
    ending in a newline: integer and boolean columns as %d, float columns
    as %.17g (enough digits to round-trip a float64)."""
    cols = [np.asarray(c) for c in columns]
    line = ",".join(
        "%d" if c.dtype.kind in "iub" else "%.17g" for c in cols)
    rows = zip(*(c.tolist() for c in cols))
    return "\n".join([line % row for row in rows]) + "\n"


def _plain(value):
    """``value`` as JSON-ready Python: arrays and tuples as lists, boolean
    arrays as 0/1, and non-finite floats as None."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "b":
            value = value.astype(np.int64)
        elif value.dtype.kind == "f" and not np.isfinite(value).all():
            value = np.where(np.isfinite(value), value, None)
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json(**fields) -> str:
    """One strict JSON object of ``fields``, keys in the order given;
    non-finite floats are written as null."""
    return json.dumps({k: _plain(v) for k, v in fields.items()},
                      allow_nan=False)


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued series.

    ``samples`` is stored as a read-only float64 array; ``dt`` is the
    sampling interval in seconds.
    """

    samples: np.ndarray
    dt: float = 1.0

    def __post_init__(self):
        x = np.ascontiguousarray(self.samples, dtype=np.float64)
        if x.ndim != 1 or x.size < 2:
            raise InputError("need at least 2 samples")
        if not np.all(np.isfinite(x)):
            raise InputError("samples must all be finite")
        if not 0 < self.dt < math.inf:
            raise InvalidParameter("dt must be finite and > 0")
        x.setflags(write=False)
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "dt", float(self.dt))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def n(self) -> int:
        return self.samples.size

    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    def with_samples(self, samples: np.ndarray) -> "TimeSeries":
        return TimeSeries(samples, dt=self.dt)

    # serialization -------------------------------------------------------

    def to_csv(self) -> str:
        return _csv_rows(self.times(), self.samples)


def load_csv(source, dt: float | None = None) -> TimeSeries:
    """Parse a one- or two-column CSV stream into a TimeSeries.

    Two-column input is interpreted as (time, value) and must be uniformly
    sampled (relative jitter below 1e-6); single-column input takes ``dt``
    from the argument (default 1.0). Comma and whitespace delimiters are
    both accepted. Cells are read by numpy's text parser: decimal or
    scientific literals, ``nan`` and ``inf``, in ASCII digits. A leading
    UTF-8 byte-order mark is ignored.
    """
    try:
        if hasattr(source, "read"):
            source = source.read()
        text = source.decode("utf-8") if isinstance(source, bytes) else source
    except UnicodeDecodeError as exc:
        raise InputError(f"byte {exc.start}: input is not UTF-8 text") from None
    if not isinstance(text, str):
        raise InputError("unsupported CSV source type")
    text = text.removeprefix("\ufeff")  # after decoding, so "byte N" counts it

    lines = text.replace(",", " ").splitlines()
    with warnings.catch_warnings():
        # input with no data row fails the row count below, not a warning on stderr
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError as exc:
            # numpy's first clause: what follows a ";" advises numpy callers
            raise InputError(str(exc).split(";")[0]) from None
    rows, ncols = data.shape
    # numpy also skips a line of commas alone, which is a row of empty cells
    if rows < len(lines) and rows < sum(map(bool, map(str.strip,
                                                      text.splitlines()))):
        raise InputError("a line holds commas but no number")
    if ncols not in (1, 2):
        raise InputError(f"expected 1 or 2 columns, got {ncols}")
    if rows < 2:
        raise InputError("need at least 2 rows")

    if ncols == 1:
        return TimeSeries(data[:, 0], dt=dt if dt is not None else 1.0)

    t, x = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(t)):
        raise InputError("time stamps must all be finite")
    with np.errstate(over="ignore"):  # an infinite step fails below
        diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise InputError("time stamps must be strictly increasing")
    # np.median's arithmetic, bit for bit, without the numpy.ma it imports
    k = diffs.size // 2
    lo, hi = np.partition(diffs, (k - 1, k))[[k - 1, k]].tolist()
    dt_est = hi if diffs.size % 2 else (lo + hi) / 2
    if not math.isfinite(dt_est):
        raise InputError("the time step overflows float64")
    if np.max(np.abs(diffs - dt_est)) > 1e-6 * dt_est:
        raise InputError("time stamps are not uniformly spaced")
    return TimeSeries(x, dt=dt if dt is not None else dt_est)


def profile(ts: TimeSeries) -> TimeSeries:
    """Cumulative sum of mean-subtracted samples; last element is ~0."""
    x = ts.samples
    return ts.with_samples(np.cumsum(x - x.mean()))


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidParameter("seed must be an integer >= 0")


def gen_white_noise(n: int, seed: int) -> TimeSeries:
    """i.i.d. standard Gaussian samples with dt = 1."""
    _check_seed(seed)
    if n < 2:
        raise InputError("n must be >= 2")
    rng = np.random.default_rng(seed)
    return TimeSeries(rng.standard_normal(n), dt=1.0)


def _fgn_autocov(n: int, hurst: float) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(k + 1) ** h2 - 2 * np.abs(k) ** h2 + np.abs(k - 1) ** h2)


def gen_fgn(n: int, hurst: float, seed: int) -> TimeSeries:
    """Fractional Gaussian noise by Davies-Harte circulant embedding.

    Unit variance, dt = 1; cumulative sum is fractional Brownian motion.
    Negative circulant eigenvalues are clamped to zero (with a warning
    when the deficit is non-trivial).
    """
    _check_seed(seed)
    if not 0.0 < hurst < 1.0:
        raise InvalidParameter("hurst must be in (0, 1)")
    if n < 2:
        raise InputError("n must be >= 2")

    gamma = _fgn_autocov(n + 1, hurst)
    # first row of the 2n circulant: gamma_0..gamma_n, gamma_{n-1}..gamma_1
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * lam.max():
        warnings.warn(
            "circulant embedding produced negative eigenvalues; clamping",
            RuntimeWarning,
        )
    lam = np.maximum(lam, 0.0)

    m = row.size  # = 2n
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(m)
    zp = rng.standard_normal(m)
    v = np.empty(m, dtype=np.complex128)
    half = m // 2
    v[0] = np.sqrt(lam[0] / m) * z[0]
    v[half] = np.sqrt(lam[half] / m) * z[half]
    j = np.arange(1, half)
    amp = np.sqrt(lam[j] / (2 * m))
    v[j] = amp * (z[j] + 1j * zp[j])
    v[m - j] = np.conj(v[j])
    x = np.fft.fft(v).real[:n]
    return TimeSeries(x, dt=1.0)


def gen_binomial_cascade(levels: int, p: float, seed: int = 0,
                         shuffle: bool = False) -> TimeSeries:
    """Binomial multiplicative cascade of length 2**levels.

    Value at binary address b is the product of ``levels`` factors, p for
    each 0 bit and 1-p for each 1 bit, scaled by 2**levels so the mean is
    one. Analytic tau(q) = -log2(p**q + (1-p)**q). Dyadic order unless
    ``shuffle`` is set, in which case positions are permuted per seed.
    """
    _check_seed(seed)
    if not 1 <= levels <= 24:
        raise InvalidParameter("levels must be in 1..24")
    if not 0.0 < p < 1.0:
        raise InvalidParameter("p must be in (0, 1)")

    b = np.bitwise_count(np.arange(2 ** levels, dtype=np.uint32)).astype(float)
    x = (2.0 ** levels) * p ** (levels - b) * (1.0 - p) ** b
    if shuffle:
        rng = np.random.default_rng(seed)
        x = x[rng.permutation(x.size)]
    return TimeSeries(x, dt=1.0)


def gen_sine(n: int, dt: float, f: float, amp: float = 1.0,
             phase: float = 0.0) -> TimeSeries:
    """Sampled sinusoid amp*sin(2*pi*f*t + phase)."""
    if n < 2:
        raise InputError("n must be >= 2")
    if not dt > 0 or not f > 0:
        raise InvalidParameter("dt and f must be > 0")
    if f >= 0.5 / dt:
        raise InvalidParameter(f"f={f} is at or above Nyquist {0.5 / dt}")
    k = np.arange(n)
    return TimeSeries(amp * np.sin(2 * np.pi * f * k * dt + phase), dt=dt)
