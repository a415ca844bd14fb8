"""Command-line front end: synthetic data generation, each analysis as a
subcommand, and config-driven pipelines. Emits plot-ready CSV/JSON files
plus a one-line JSON summary on stdout."""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import (
    errors,
    fractal,
    phase as phase_mod,
    signal_core,
    spectral,
    wavelet,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise errors.InvalidParameter(message)


# config / flag merging ------------------------------------------------------

def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise errors.InvalidParameter(f"cannot read config: {exc}") from exc
    cfg = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        key, sep, value = line.split("#", 1)[0].partition("=")
        if sep:
            cfg[key.strip()] = value.strip()
        elif key.strip():
            raise errors.InvalidParameter(f"config line {lineno}: expected key=value")
    return cfg


class Params:
    """Flag-over-config-over-default resolution for one step (``section``)."""

    def __init__(self, args: argparse.Namespace, config: dict, section: str):
        self.args = args
        self.config = config
        self.section = section

    def get(self, name: str, default=None, convert=str):
        """The first of flag, ``section.name`` key and bare ``name`` key that
        is set, converted; ``default`` (unconverted) when none is. A float,
        or a float in a list, that is not finite is a bad value."""
        for raw in (getattr(self.args, name.replace("-", "_"), None),
                    self.config.get(f"{self.section}.{name}"),
                    self.config.get(name)):
            if raw is not None:
                try:
                    value = convert(raw)
                    values = value if isinstance(value, list) else [value]
                    if any(isinstance(v, float) and not math.isfinite(v)
                           for v in values):
                        raise ValueError(raw)
                    return value
                except (TypeError, ValueError) as exc:
                    raise errors.InvalidParameter(f"bad value for {name}: {raw}") from exc
        return default


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def _dyadic(lo: int, hi: int) -> list[int]:
    """lo, 2*lo, 4*lo, ... up to hi; empty when lo > hi. Needs lo > 0."""
    out = []
    while lo <= hi:
        out.append(lo)
        lo *= 2
    return out


def _parse_int_list(raw: str) -> list[int]:
    """Comma list, or dyadic range 'a..b' (doubling) with 0 < a <= b."""
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        lo, hi = int(lo), int(hi)
        if not 0 < lo <= hi:
            raise ValueError(f"range a..b needs 0 < a <= b: {raw}")
        return _dyadic(lo, hi)
    return [int(p) for p in raw.split(",") if p.strip()]


def _parse_float_list(raw: str) -> list[float]:
    return [float(p) for p in raw.split(",") if p.strip()]


def _parse_scale(raw: str, dt: float) -> float:
    """Plain seconds, or 'Kdt' multiples of the sampling interval."""
    raw = raw.strip()
    if raw.endswith("dt"):
        return float(raw[:-2]) * dt
    return float(raw)


# analyses --------------------------------------------------------------------

class Artifact(NamedTuple):
    """One output file, ``stem + suffix``. ``make`` runs only when
    ``--format`` selects the file, and returns its content: the whole text,
    or an iterable of chunks (text, bytes or byte views), each written as it
    comes, so that no chunk need hold the whole file."""

    suffix: str
    fmt: str | None  # None: written under every format
    make: Callable[[], str | Iterable[str | bytes | memoryview]]
    stem: str | None = None  # None: the stem of the step's input file


def _csv_json(suffix: str, to_csv, to_json, stem: str | None = None):
    return [Artifact(suffix + ".csv", "csv", to_csv, stem),
            Artifact(suffix + ".json", "json", to_json, stem)]


def cmd_gen(params: Params, _series) -> tuple[dict, list[Artifact]]:
    kind = params.get("kind")
    dt = params.get("dt", 1.0, float)
    seed = params.get("seed", 0, int)
    if kind == "cascade" and params.get("n") is not None:
        raise errors.InvalidParameter("cascade takes its length from --levels")
    n = params.get("n", 4096, int)
    if n < 2:
        raise errors.InvalidParameter("n must be >= 2")
    if kind == "white":
        x = signal_core.gen_white_noise(n, seed).samples
    elif kind == "fgn":
        x = signal_core.gen_fgn(n, params.get("h", 0.5, float), seed).samples
    elif kind == "cascade":
        x = signal_core.gen_binomial_cascade(
            params.get("levels", 16, int), params.get("p", 0.6, float),
            seed, shuffle=params.get("shuffle", False, _parse_bool)).samples
    elif kind == "sine":
        f = params.get("f", None, float)
        if f is None:
            raise errors.InvalidParameter("sine needs --f")
        x = signal_core.gen_sine(n, dt, f, amp=params.get("amp", 1.0, float),
                                 phase=params.get("phase", 0.0, float)).samples
    elif kind == "sines":
        freqs = params.get("f", None, _parse_float_list)
        if not freqs:
            raise errors.InvalidParameter("sines needs --f f1,f2,...")
        amps = params.get("amp", [1.0] * len(freqs), _parse_float_list)
        if len(amps) != len(freqs):
            raise errors.InvalidParameter("--amp list must match --f list")
        x = sum((signal_core.gen_sine(n, dt, f, amp=a).samples
                 for f, a in zip(freqs, amps)), np.zeros(n))
    else:
        raise errors.InvalidParameter(f"unknown generator kind: {kind}")
    ts = signal_core.TimeSeries(x, dt=dt)
    name = params.get("output", kind + ".csv")
    return ({"kind": kind, "n": ts.n, "dt": ts.dt, "file": None},
            [Artifact(name, None, ts.to_csv)])


def cmd_profile(params: Params, ts) -> tuple[dict, list[Artifact]]:
    prof = signal_core.profile(ts)
    return ({"n": prof.n, "file": None},
            [Artifact(".profile.csv", None, prof.to_csv)])


def cmd_spectrum(params: Params, ts) -> tuple[dict, list[Artifact]]:
    spec = spectral.periodogram(ts, segments=params.get("segments", 1, int),
                                overlap_fraction=params.get("overlap", 0.0, float))
    peak = float(spec.freqs[int(np.argmax(spec.power))])
    return ({"peak_freq": peak, "df": spec.df, "bins": int(spec.freqs.size)},
            _csv_json(".spectrum", spec.to_csv, spec.to_json))


def _spectrum_and_band(params: Params, ts):
    spec = spectral.periodogram(ts, segments=params.get("segments", 1, int))
    f_min, f_max = spectral.default_band(spec)
    return spec, (params.get("fmin", f_min, float),
                  params.get("fmax", f_max, float))


def cmd_powerlaw(params: Params, ts) -> tuple[dict, list[Artifact]]:
    spec, band = _spectrum_and_band(params, ts)
    fit = spectral.fit_power_law(spec, *band)
    hurst = spectral.hurst_from_alpha(fit.alpha)
    return ({"alpha": fit.alpha, "hurst": hurst.hurst,
             "out_of_range": hurst.out_of_range, "r2": fit.r2,
             "band": list(band)},
            _csv_json(".powerlaw", spec.to_csv, fit.to_json))


def cmd_heisenberg(params: Params, ts) -> tuple[dict, list[Artifact]]:
    spec, band = _spectrum_and_band(params, ts)
    fit = spectral.fit_heisenberg(spec, band)
    return ({"amplitude": fit.amplitude, "k_d": fit.k_d, "rss": fit.rss,
             "pinned": fit.pinned},
            _csv_json(".heisenberg", spec.to_csv, fit.to_json))


def cmd_rs(params: Params, ts) -> tuple[dict, list[Artifact]]:
    res = fractal.rescaled_range(
        ts, params.get("windows", None, _parse_int_list))
    return ({"hurst": res.hurst, "stderr": res.stderr},
            _csv_json(".rs", res.to_csv, res.to_json))


def _parse_detrend(raw: str):
    if raw.startswith("poly:"):
        return int(raw.split(":", 1)[1])
    if raw.startswith("wavelet:"):
        parts = raw.split(":", 1)[1].split(",")
        level = int(parts[1]) if len(parts) > 1 else None
        return fractal.WaveletDetrend(order=int(parts[0]), level=level)
    raise ValueError(raw)


def cmd_mfdfa(params: Params, ts) -> tuple[dict, list[Artifact]]:
    if not params.get("no-profile", False, _parse_bool):
        ts = signal_core.profile(ts)
    detrend = params.get("detrend", 1, _parse_detrend)
    scales = params.get("scales", None, _parse_int_list)
    q = params.get("q", [-5, -3, -1, 1, 2, 3, 5], _parse_float_list)
    res = fractal.mfdfa(ts, scales, q, detrend=detrend)
    width = fractal.multifractality_width(res) if res.q_values.size >= 3 else None
    h2 = res.h(2.0) if np.any(np.isclose(res.q_values, 2.0)) else None
    return ({"h2": h2, "width": width, "hq": res.hq.tolist()},
            _csv_json(".mfdfa", res.to_csv, res.to_json))


def cmd_cwt(params: Params, ts) -> tuple[dict, list[Artifact]]:
    mp = wavelet.MorletParams(omega0=params.get("omega0", 6.0, float))
    grid = wavelet.ScaleGrid.default_for(
        ts.n, ts.dt,
        s0=params.get("s0", None, lambda raw: _parse_scale(raw, ts.dt)),
        dj=params.get("dj", 0.125, float), J=params.get("jtot", None, int))
    sg = wavelet.cwt_morlet(ts, grid=grid, params=mp)
    level = params.get("sig", 0.95, float)
    threshold = wavelet.significance_threshold(sg, level)
    gws = wavelet.global_spectrum(sg)
    n_significant = int(sum(np.count_nonzero(p > thr) for p, thr in
                            zip(wavelet._row_power(sg.coeffs), threshold)))
    gws_json = lambda: signal_core._json(
        scales=sg.scales, periods=sg.periods(), global_spectrum=gws,
        significance_level=level, n_significant=n_significant)
    j = int(np.argmax(gws))
    return ({"peak_scale": float(sg.scales[j]),
             "peak_period": float(sg.periods()[j]),
             "n_significant": n_significant},
            [Artifact(".cwt.mscl", None, lambda: wavelet.scalogram_chunks(sg)),
             Artifact(".cwt.csv", "csv",
                      lambda: wavelet.scalogram_csv_chunks(sg, threshold)),
             Artifact(".cwt.json", "json", gws_json)])


def cmd_phase(params: Params, ts_a) -> tuple[dict, list[Artifact]]:
    mp = wavelet.MorletParams(omega0=params.get("omega0", 6.0, float))
    scale = params.get("scale", "auto", lambda raw: raw if raw == "auto"
                       else _parse_scale(raw, ts_a.dt))
    if scale == "auto":
        scale = wavelet.dominant_scale(wavelet.cwt_morlet(ts_a, params=mp))
    pa = phase_mod.phase_at_scale(ts_a, scale, params=mp)
    # "files" holds its place ahead of the locking fields in the summary line
    summary = {"scale": scale, "files": None}
    artifacts = _csv_json(".phase", pa.to_csv, pa.to_json)
    path_b = params.get("input2", None)
    if path_b is not None:
        ts_b = _load_input(path_b, params.get("dt", None, float))
        pb = phase_mod.phase_at_scale(ts_b, scale, params=mp)
        tol = params.get("tol", 0.5, float)
        min_dur = params.get("min-duration", None, int)
        if min_dur is None:
            min_dur = max(2, int(round(scale * mp.fourier_factor / ts_a.dt)))
        diff = phase_mod.with_locking(phase_mod.phase_difference(pa, pb),
                                      tolerance=tol, min_duration=min_dur)
        stem_b = Path(path_b).stem
        artifacts += _csv_json(".phase", pb.to_csv, pb.to_json, stem=stem_b)
        artifacts.append(Artifact("__" + stem_b + ".phasediff.json", None,
                                  diff.to_json))
        summary.update(locking_intervals=len(diff.locking_intervals),
                       tolerance=tol, min_duration=min_dur)
    return summary, artifacts


# the runner --------------------------------------------------------------------

def _format(params: Params) -> str:
    fmt = params.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise errors.InvalidParameter(f"bad format: {fmt}")
    return fmt


def _load_input(path: str, dt: float | None) -> signal_core.TimeSeries:
    with open(path, "rb") as fh:
        return signal_core.load_csv(fh, dt=dt)


def _write(fh, chunk: str | bytes | memoryview) -> None:
    """Append one chunk to the binary file ``fh``, text as UTF-8."""
    fh.write(chunk.encode() if isinstance(chunk, str) else chunk)


def _save(path: Path, chunks: str | Iterable[str | bytes | memoryview]) -> str:
    with open(path, "wb") as fh:
        try:
            for chunk in (chunks,) if isinstance(chunks, str) else chunks:
                _write(fh, chunk)
        finally:
            # a generator left early releases what it holds (the CSV worker
            # processes) now, not when the traceback lets it go
            if hasattr(chunks, "close"):
                chunks.close()
    return str(path)


def _run(params: Params) -> dict:
    """Run the step ``params.section``: load its input, compute, write the
    files its format selects, and return its summary line, Python warnings
    included."""
    step, flags = _COMMANDS[params.section]
    fmt = _format(params)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series, stem = None, ""
        if "input" in flags:
            path = params.get("input")
            series = _load_input(path, params.get("dt", None, float))
            if "--profile" in flags and params.get("profile", False, _parse_bool):
                series = signal_core.profile(series)
            stem = Path(path).stem
        fields, artifacts = step(params, series)
        picked = [((stem if a.stem is None else a.stem) + a.suffix, a)
                  for a in artifacts if fmt == "both" or a.fmt in (None, fmt)]
        names = [name for name, _ in picked]
        if len(set(names)) < len(names):
            raise errors.InvalidParameter(
                f"two outputs would share a name: {', '.join(names)}")
        out_dir = Path(params.get("out", "."))
        out_dir.mkdir(parents=True, exist_ok=True)
        files = [_save(out_dir / name, a.make()) for name, a in picked]
    summary = {"operation": params.section, **fields}
    if "file" in summary:
        summary["file"] = files[0]
    else:
        summary["files"] = files
    if caught:
        summary["warnings"] = list(dict.fromkeys(str(w.message) for w in caught))
    return summary


def _pipeline(args: argparse.Namespace, config: dict) -> list[dict]:
    section = Params(args, config, "pipeline")
    names = [a.strip() for a in section.get("analyses", "").split(",")
             if a.strip()]
    if not names:
        raise errors.InvalidParameter("pipeline.analyses is empty")
    for name in names:
        if name == "gen" or name not in _COMMANDS:
            raise errors.InvalidParameter(f"unknown pipeline analysis: {name}")
    input_path = section.get("input")
    steps = [Params(argparse.Namespace(), config, name)
             for name in (["gen"] if input_path is None else []) + names]
    for params in steps:
        _format(params)
    summaries = []
    for params in steps:
        params.args.input = input_path
        summaries.append(_run(params))
        # gen and profile make the series the later steps read
        input_path = summaries[-1].get("file", input_path)
    return summaries


# argument parsing ----------------------------------------------------------------

# Each step once, with its function and its flags. Names without dashes are
# positionals; every value reaches Params.get as a string, which converts it
# like a config value. "profile" runs only as a pipeline step.
_COMMON = ("--config", "--out", "--format", "--dt")
_SWITCH = {"action": "store_const", "const": "true"}
_ARGPARSE = {"--profile": _SWITCH, "--shuffle": _SWITCH,
             "--no-profile": _SWITCH, "input2": {"nargs": "?"}}
_FIT = ("input", "--segments", "--profile", "--fmin", "--fmax")
_COMMANDS = {
    "gen": (cmd_gen, ("kind", "--n", "--seed", "--h", "--levels", "--p",
                      "--shuffle", "--f", "--amp", "--phase", "--output")),
    "spectrum": (cmd_spectrum, ("input", "--segments", "--profile", "--overlap")),
    "powerlaw": (cmd_powerlaw, _FIT),
    "heisenberg": (cmd_heisenberg, _FIT),
    "rs": (cmd_rs, ("input", "--windows")),
    "mfdfa": (cmd_mfdfa, ("input", "--scales", "--q", "--detrend", "--no-profile")),
    "cwt": (cmd_cwt, ("input", "--s0", "--dj", "--jtot", "--omega0", "--sig")),
    "phase": (cmd_phase, ("input", "input2", "--scale", "--omega0", "--tol",
                          "--min-duration")),
    "profile": (cmd_profile, ("input",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="multiscale",
                     description="Multi-scale fluctuation analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, flags) in _COMMANDS.items():
        if command == "profile":
            continue
        p = sub.add_parser(command)
        for flag in flags + _COMMON:
            p.add_argument(flag, **_ARGPARSE.get(flag, {}))
    sub.add_parser("pipeline").add_argument("--config")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        config = load_config(args.config)
        if args.command == "pipeline":
            summaries = _pipeline(args, config)
        else:
            summaries = [_run(Params(args, config, args.command))]
        for summary in summaries:
            print(signal_core._json(**summary))
        return 0
    except errors.MultiscaleError as exc:
        code, detail = exc.exit_code, str(exc)
    except (OSError, MemoryError) as exc:
        code, detail = 3, str(exc) or type(exc).__name__
    except KeyboardInterrupt:
        code, detail = 130, "interrupted"
    operation = argv[0] if argv else "cli"
    print(signal_core._json(code=code, operation=operation, detail=detail),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
