"""Layer spans around the calls into ``multiscale``, recorded from outside.

The program is not edited: ``install`` replaces each public function at the
name its caller looks up. ``fractal`` calls ``dwt.dwt`` as ``_dwt_decompose``
and ``phase`` imports ``cwt_morlet`` directly, so every attribute of every
loaded ``multiscale`` module that is the original function gets the wrapper.
Methods (``to_csv``, ``to_json``) are replaced on their class.

A span is (name, start, end, parent, op, ok); its layer is the part of the
name before the first dot. Spans stay in memory until the caller writes them.
This module imports only the standard library, so that importing it does not
change what the traced ``import multiscale`` has to load.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("import", "cli", "signal_core", "spectral", "fractal", "wavelet",
          "phase", "dwt")

# (module, attribute or Class.method, span name)
TARGETS = (
    ("multiscale.cli", "main", "cli.main"),
    ("multiscale.cli", "build_parser", "cli.parse"),
    ("multiscale.cli", "_Parser.parse_args", "cli.parse"),
    ("multiscale.cli", "load_config", "cli.parse"),
    ("multiscale.cli", "_write", "cli.write"),
    ("pathlib", "Path.write_bytes", "cli.write"),
    ("multiscale.signal_core", "load_csv", "signal_core.load_csv"),
    ("multiscale.signal_core", "gen_fgn", "signal_core.gen_fgn"),
    ("multiscale.signal_core", "profile", "signal_core.profile"),
    ("multiscale.signal_core", "TimeSeries.to_csv", "signal_core.to_csv"),
    ("multiscale.spectral", "periodogram", "spectral.periodogram"),
    ("multiscale.spectral", "fit_power_law", "spectral.fit"),
    ("multiscale.spectral", "fit_heisenberg", "spectral.fit"),
    ("multiscale.spectral", "PowerSpectrum.to_csv", "spectral.serialize"),
    ("multiscale.spectral", "PowerSpectrum.to_json", "spectral.serialize"),
    ("multiscale.spectral", "PowerLawFit.to_json", "spectral.serialize"),
    ("multiscale.spectral", "HeisenbergFit.to_json", "spectral.serialize"),
    ("multiscale.fractal", "rescaled_range", "fractal.rescaled_range"),
    ("multiscale.fractal", "mfdfa", "fractal.mfdfa"),
    ("multiscale.fractal", "wavelet_detrend", "fractal.wavelet_detrend"),
    ("multiscale.fractal", "RSResult.to_csv", "fractal.serialize"),
    ("multiscale.fractal", "RSResult.to_json", "fractal.serialize"),
    ("multiscale.fractal", "MFDFAResult.to_csv", "fractal.serialize"),
    ("multiscale.fractal", "MFDFAResult.to_json", "fractal.serialize"),
    ("multiscale.wavelet", "cwt_morlet", "wavelet.cwt_morlet"),
    ("multiscale.wavelet", "significance_mask", "wavelet.significance_mask"),
    ("multiscale.wavelet", "global_spectrum", "wavelet.global_spectrum"),
    ("multiscale.wavelet", "scalogram_to_csv", "wavelet.scalogram_to_csv"),
    ("multiscale.wavelet", "scalogram_to_bytes", "wavelet.scalogram_to_bytes"),
    ("multiscale.phase", "phase_at_scale", "phase.phase_at_scale"),
    ("multiscale.phase", "phase_difference", "phase.difference"),
    ("multiscale.phase", "with_locking", "phase.locking"),
    ("multiscale.phase", "PhaseSeries.to_csv", "phase.serialize"),
    ("multiscale.phase", "PhaseSeries.to_json", "phase.serialize"),
    ("multiscale.phase", "PhaseDiffResult.to_json", "phase.serialize"),
    ("multiscale.dwt", "dwt", "dwt.dwt"),
    ("multiscale.dwt", "idwt", "dwt.idwt"),
)

# Work counted at a span, from (args, result): counter name -> function.
COUNTERS = {
    "signal_core.load_csv": ("signal_core.load_csv_rows", lambda a, r: r.n),
    "cli.write": ("cli.write_bytes", lambda a, r: len(a[-1])),
    "wavelet.scalogram_to_csv": ("wavelet.scalogram_csv_bytes",
                                 lambda a, r: len(r)),
}

# Per-layer time metrics: metric -> span names whose inclusive time it sums.
TIME_METRICS = {
    "cli.parse_s": ("cli.parse",),
    "cli.write_s": ("cli.write",),
    "signal_core.load_csv_s": ("signal_core.load_csv",),
    "signal_core.to_csv_s": ("signal_core.to_csv",),
    "signal_core.gen_fgn_s": ("signal_core.gen_fgn",),
    "spectral.periodogram_s": ("spectral.periodogram",),
    "spectral.fit_s": ("spectral.fit",),
    "spectral.serialize_s": ("spectral.serialize",),
    "fractal.rescaled_range_s": ("fractal.rescaled_range",),
    "fractal.mfdfa_s": ("fractal.mfdfa",),
    "fractal.serialize_s": ("fractal.serialize",),
    "wavelet.cwt_morlet_s": ("wavelet.cwt_morlet",),
    "wavelet.significance_mask_s": ("wavelet.significance_mask",),
    "wavelet.global_spectrum_s": ("wavelet.global_spectrum",),
    "wavelet.scalogram_to_csv_s": ("wavelet.scalogram_to_csv",),
    "wavelet.scalogram_to_bytes_s": ("wavelet.scalogram_to_bytes",),
    "phase.phase_at_scale_s": ("phase.phase_at_scale",),
    "phase.locking_s": ("phase.locking",),
    "phase.serialize_s": ("phase.serialize",),
    "dwt.dwt_s": ("dwt.dwt",),
    "dwt.idwt_s": ("dwt.idwt",),
}
COUNT_METRICS = tuple(name for name, _ in COUNTERS.values())
PEAK_METRIC = "fractal.mfdfa_peak_mb"


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.enabled = True
        self.op = 0
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Drop what was recorded, e.g. between the ops of one worker."""
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: list[float] = []

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, time.perf_counter(), 0.0, parent, self.op, False]
        self.spans.append(span)
        self._stack.append(idx)
        peak = name == "fractal.mfdfa" and not tracemalloc.is_tracing()
        if peak:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            span[5] = True
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if peak:
                self.peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        if name in COUNTERS:
            counter, count = COUNTERS[name]
            self.counters[counter] += count(args, result)
        return result

    def wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "peaks": self.peaks}


def install(tracer: Tracer) -> None:
    """Wrap every target at each name a loaded module binds it to."""
    replaced = {}
    for modname, attr, name in TARGETS:
        module = importlib.import_module(modname)
        owner_name, _, func = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, func, tracer.wrapper(name, getattr(owner, func)))
        else:
            original = getattr(module, func)
            # the wrapper's closure keeps the original alive, so its id is unique
            replaced[id(original)] = tracer.wrapper(name, original)
    for modname, module in list(sys.modules.items()):
        if modname != "multiscale" and not modname.startswith("multiscale."):
            continue
        for key, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, key, replaced[id(value)])


# analysis ------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        reach = start
        for a, b in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def _outermost(spans, i) -> bool:
    """False when an ancestor of span i has the same name (no double count)."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == spans[i][0]:
            return False
        p = spans[p][3]
    return True


def layer_metrics(units, imports) -> dict:
    """Per-layer metrics of a traced run.

    ``units`` are the traced ops, each {"wall": seconds, "spans": [...],
    "counters": {...}, "peaks": [...]}; spans of one unit index into that
    unit's list. ``imports`` are (seconds, modules added) per traced process
    that imported the program. Times and counts are means per op; shares are
    layer self time over op wall time, summed over ops.
    """
    n = max(len(units), 1)
    total_wall = sum(u["wall"] for u in units) or 1.0
    sums = defaultdict(float)
    self_by_layer = defaultdict(float)
    calls = defaultdict(int)
    errors = defaultdict(int)
    peaks = []
    for u in units:
        spans = u["spans"]
        selfs = self_times(spans)
        by_name = defaultdict(float)
        for i, s in enumerate(spans):
            layer = s[0].split(".", 1)[0]
            self_by_layer[layer] += selfs[i]
            calls[layer] += 1
            errors[layer] += 0 if s[5] else 1
            if _outermost(spans, i):
                by_name[s[0]] += s[2] - s[1]
        for metric, names in TIME_METRICS.items():
            sums[metric] += sum(by_name[x] for x in names)
        for counter in COUNT_METRICS:
            sums[counter] += u["counters"].get(counter, 0)
        peaks.extend(u["peaks"])

    out = {m: sums[m] / n for m in (*TIME_METRICS, *COUNT_METRICS)}
    out["cli.self_s"] = self_by_layer["cli"] / n
    out[PEAK_METRIC] = max(peaks, default=0.0)
    out["import.s"] = sum(s for s, _ in imports) / len(imports) if imports else 0.0
    out["import.modules"] = (sum(m for _, m in imports) / len(imports)
                             if imports else 0.0)
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / n
        out[f"{layer}.errors"] = errors[layer] / n
        out[f"{layer}.share"] = self_by_layer[layer] / total_wall
    return out
