"""Instantaneous wavelet phase, phase differences and phase-locking interval
detection."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, InvalidParameter
from .signal_core import TimeSeries, _csv_rows, _json
from .wavelet import MorletParams, ScaleGrid, cwt_morlet

TWO_PI = 2.0 * np.pi


def wrap_phase(x) -> np.ndarray:
    """Wrap radians into (-pi, pi]."""
    w = np.mod(np.asarray(x, dtype=np.float64), TWO_PI)
    return np.where(w > np.pi, w - TWO_PI, w)


@dataclass(frozen=True)
class PhaseSeries:
    wrapped: np.ndarray
    unwrapped: np.ndarray
    scale: float
    coi_valid: np.ndarray
    dt: float = 1.0

    @property
    def n(self) -> int:
        return self.wrapped.size

    def to_csv(self) -> str:
        return _csv_rows(np.arange(self.n) * self.dt, self.wrapped,
                         self.unwrapped, self.coi_valid)

    def to_json(self) -> str:
        return _json(scale=self.scale, dt=self.dt, wrapped=self.wrapped,
                     unwrapped=self.unwrapped, coi_valid=self.coi_valid)


@dataclass(frozen=True)
class PhaseDiffResult:
    delta: np.ndarray
    coi_valid: np.ndarray
    scale: float
    dt: float = 1.0
    locking_intervals: tuple = ()
    tolerance: float | None = None
    min_duration: int | None = None

    def to_json(self) -> str:
        return _json(scale=self.scale, dt=self.dt, tolerance=self.tolerance,
                     min_duration=self.min_duration,
                     locking_intervals=self.locking_intervals, delta=self.delta,
                     coi_valid=self.coi_valid)


def phase_at_scale(ts: TimeSeries, scale: float,
                   params: MorletParams = MorletParams()) -> PhaseSeries:
    """Instantaneous phase of the complex Morlet coefficients at one scale."""
    sg = cwt_morlet(ts, grid=ScaleGrid(s0=scale, dj=0.125, J=1), params=params)
    wrapped = np.angle(sg.coeffs[0])
    unwrapped = np.unwrap(wrapped)
    coi_valid = scale <= sg.coi
    return PhaseSeries(wrapped=wrapped, unwrapped=unwrapped, scale=float(scale),
                       coi_valid=coi_valid, dt=ts.dt)


def phase_difference(a: PhaseSeries, b: PhaseSeries) -> PhaseDiffResult:
    """Wrapped pointwise phase difference a - b."""
    if a.n != b.n:
        raise InputError("phase series lengths differ")
    if not np.isclose(a.scale, b.scale):
        raise InputError("phase series scales differ")
    if not np.isclose(a.dt, b.dt):
        raise InputError("phase series sampling intervals differ")
    delta = wrap_phase(a.wrapped - b.wrapped)
    return PhaseDiffResult(delta=delta, coi_valid=a.coi_valid & b.coi_valid,
                           scale=a.scale, dt=a.dt)


def _running_range(u: np.ndarray, size: int) -> np.ndarray:
    """Moving max - min over windows ``u[i - size//2 : i - size//2 + size]``.

    Samples beyond either end repeat the edge value. Van Herk / Gil-Werman:
    cut the padded series into blocks of ``size``; every window spans the
    tail of one block and the head of the next, so a forward and a backward
    running extremum per block give each window's extremum in O(n) work,
    whatever the window size.
    """
    n = u.size
    left = size // 2
    nblocks = -(-(n + size - 1) // size)
    right = nblocks * size - n - left
    blocks = np.pad(u, (left, right), mode="edge").reshape(nblocks, size)

    def extremum(ufunc):
        fwd = ufunc.accumulate(blocks, axis=1).ravel()
        bwd = ufunc.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
        return ufunc(bwd[:n], fwd[size - 1:size - 1 + n])

    return extremum(np.maximum) - extremum(np.minimum)


def locking_intervals(diff: PhaseDiffResult, tolerance: float = 0.5,
                      min_duration: int = 32) -> list[tuple[int, int]]:
    """Maximal runs where the phase difference stays locked.

    A sample is locked when the centered moving range (window =
    ``min_duration``) of the unwrapped difference stays within
    ``tolerance`` and the sample is inside both cones of influence. Runs
    shorter than ``min_duration`` are discarded. Intervals are half-open
    ``[start, end)`` sample index pairs.
    """
    if not 0.0 < tolerance < np.pi:
        raise InvalidParameter("tolerance must be in (0, pi)")
    if min_duration < 2:
        raise InvalidParameter("min_duration must be >= 2")
    if min_duration > diff.delta.size:
        return []  # no run can last min_duration samples
    rng = _running_range(np.unwrap(diff.delta), min_duration)
    ok = (rng <= tolerance) & diff.coi_valid
    # a run starts where ok turns on and ends where it turns off; padding
    # both ends with False pairs every start with an end
    edges = np.flatnonzero(np.diff(ok, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    keep = ends - starts >= min_duration
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


def with_locking(diff: PhaseDiffResult, tolerance: float = 0.5,
                 min_duration: int = 32) -> PhaseDiffResult:
    """Copy of ``diff`` annotated with detected locking intervals."""
    ivs = locking_intervals(diff, tolerance=tolerance, min_duration=min_duration)
    return replace(diff, locking_intervals=tuple(ivs), tolerance=tolerance,
                   min_duration=min_duration)
