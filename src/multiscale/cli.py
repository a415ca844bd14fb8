"""Command-line front end: synthetic data generation, each analysis as a
subcommand, and config-driven pipelines. Emits plot-ready CSV/JSON files
plus a one-line JSON summary on stdout."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import (
    errors,
    fractal,
    phase as phase_mod,
    signal_core,
    spectral,
    wavelet,
)

_ARG_ERRORS = (
    errors.InvalidParameter, errors.Aliased, errors.BadOrder,
    errors.TooFewScales, errors.ScaleOutOfRange, errors.GridTooCoarse,
)
_INPUT_ERRORS = (
    errors.Malformed, errors.NonUniformSampling, errors.TooShort,
    errors.LengthMismatch, errors.ScaleMismatch, OSError,
)
_NUMERIC_ERRORS = (
    errors.DegenerateWindow, errors.NonPositiveVariance, errors.ZeroPower,
    errors.InsufficientBand, errors.EmbeddingFailure, errors.EmptyBand,
    errors.EmptyCOI,
)


class CliError(Exception):
    def __init__(self, code: int, detail: str):
        super().__init__(detail)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(2, message)


# config / flag merging ------------------------------------------------------

def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliError(2, f"cannot read config: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(2, f"config line {lineno}: expected key=value")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


class Params:
    """Flag-over-config-over-default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace, config: dict, section: str):
        self.args = args
        self.config = config
        self.section = section

    def get(self, name: str, default=None, convert=str):
        flag = getattr(self.args, name.replace("-", "_"), None)
        if flag is not None:
            raw = flag
        elif f"{self.section}.{name}" in self.config:
            raw = self.config[f"{self.section}.{name}"]
        elif name in self.config:
            raw = self.config[name]
        else:
            return default
        if isinstance(raw, str) and convert is not str:
            try:
                return convert(raw)
            except (TypeError, ValueError) as exc:
                raise CliError(2, f"bad value for {name}: {raw}") from exc
        return raw


def _parse_bool(raw: str) -> bool:
    if str(raw).lower() in ("1", "true", "yes", "on"):
        return True
    if str(raw).lower() in ("0", "false", "no", "off"):
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
    raw = str(raw)
    if ".." in raw:
        lo, hi = raw.split("..", 1)
        lo, hi = int(lo), int(hi)
        if not 0 < lo <= hi:
            raise ValueError(f"range a..b needs 0 < a <= b: {raw}")
        return _dyadic(lo, hi)
    return [int(p) for p in raw.split(",") if p.strip()]


def _parse_float_list(raw: str) -> list[float]:
    return [float(p) for p in str(raw).split(",") if p.strip()]


def _parse_scale(raw: str, dt: float) -> float:
    """Plain seconds, or 'Kdt' multiples of the sampling interval."""
    raw = str(raw).strip()
    if raw.endswith("dt"):
        return float(raw[:-2]) * dt
    return float(raw)


# I/O helpers ----------------------------------------------------------------

def _load_input(path: str, dt: float | None) -> signal_core.TimeSeries:
    with open(path, "rb") as fh:
        return signal_core.load_csv(fh, dt=dt)


def _load_series(params: Params) -> signal_core.TimeSeries:
    """Load the input, optionally replacing it by its cumulative profile."""
    ts = _load_input(params.get("input"), params.get("dt", None, float))
    if params.get("profile", False, _parse_bool):
        ts = signal_core.profile(ts)
    return ts


def _out_paths(params: Params, stem: str, analysis: str):
    out_dir = Path(params.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    fmt = params.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise CliError(2, f"bad format: {fmt}")
    return out_dir, stem + "." + analysis, fmt


def _write(out_dir: Path, name: str, text: str) -> str:
    path = out_dir / name
    path.write_text(text)
    return str(path)


def _emit(out_dir: Path, base: str, fmt: str, csv_text: str | None,
          json_text: str | None) -> list[str]:
    files = []
    if csv_text is not None and fmt in ("csv", "both"):
        files.append(_write(out_dir, base + ".csv", csv_text))
    if json_text is not None and fmt in ("json", "both"):
        files.append(_write(out_dir, base + ".json", json_text))
    return files


# subcommand handlers ---------------------------------------------------------

def cmd_gen(params: Params) -> dict:
    kind = params.get("kind")
    dt = params.get("dt", 1.0, float)
    seed = params.get("seed", 0, int)
    n = params.get("n", 4096, int)
    if kind == "white":
        ts = signal_core.gen_white_noise(n, seed)
    elif kind == "fgn":
        ts = signal_core.gen_fgn(n, params.get("h", 0.5, float), seed)
    elif kind == "cascade":
        ts = signal_core.gen_binomial_cascade(
            params.get("levels", 16, int), params.get("p", 0.6, float),
            seed, shuffle=params.get("shuffle", False, _parse_bool))
    elif kind == "sine":
        f = params.get("f", None, float)
        if f is None:
            raise CliError(2, "sine needs --f")
        ts = signal_core.gen_sine(n, dt, f,
                                  amp=params.get("amp", 1.0, float),
                                  phase=params.get("phase", 0.0, float))
    elif kind == "sines":
        freqs = params.get("f", None, _parse_float_list)
        amps = params.get("amp", None, _parse_float_list)
        if freqs is None:
            raise CliError(2, "sines needs --f f1,f2,...")
        if amps is None:
            amps = [1.0] * len(freqs)
        if len(amps) != len(freqs):
            raise CliError(2, "--amp list must match --f list")
        x = np.zeros(n)
        for f, a in zip(freqs, amps):
            x += signal_core.gen_sine(n, dt, f, amp=a).samples
        ts = signal_core.TimeSeries(x, dt=dt)
    else:
        raise CliError(2, f"unknown generator kind: {kind}")

    out_dir = Path(params.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    name = params.get("output", kind + ".csv")
    path = _write(out_dir, name, ts.to_csv())
    return {"operation": "gen", "kind": kind, "n": ts.n, "dt": ts.dt,
            "file": path}


def cmd_spectrum(params: Params) -> dict:
    ts = _load_series(params)
    spec = spectral.periodogram(ts, segments=params.get("segments", 1, int),
                                overlap_fraction=params.get("overlap", 0.0, float))
    out_dir, base, fmt = _out_paths(params, Path(params.get("input")).stem,
                                    "spectrum")
    files = _emit(out_dir, base, fmt, spec.to_csv(), spec.to_json())
    peak = float(spec.freqs[int(np.argmax(spec.power))])
    return {"operation": "spectrum", "peak_freq": peak, "df": spec.df,
            "bins": int(spec.freqs.size), "files": files}


def _fit_band(params: Params, spec: spectral.PowerSpectrum):
    f_min = params.get("fmin", None, float)
    f_max = params.get("fmax", None, float)
    default = spectral.default_band(spec)
    return (default[0] if f_min is None else f_min,
            default[1] if f_max is None else f_max)


def cmd_powerlaw(params: Params) -> dict:
    ts = _load_series(params)
    spec = spectral.periodogram(ts, segments=params.get("segments", 1, int))
    band = _fit_band(params, spec)
    fit = spectral.fit_power_law(spec, *band)
    hurst = spectral.hurst_from_alpha(fit.alpha)
    out_dir, base, fmt = _out_paths(params, Path(params.get("input")).stem,
                                    "powerlaw")
    files = _emit(out_dir, base, fmt, spec.to_csv(), fit.to_json())
    return {"operation": "powerlaw", "alpha": fit.alpha, "hurst": hurst.hurst,
            "out_of_range": hurst.out_of_range, "r2": fit.r2,
            "band": list(band), "files": files}


def cmd_heisenberg(params: Params) -> dict:
    ts = _load_series(params)
    spec = spectral.periodogram(ts, segments=params.get("segments", 1, int))
    band = _fit_band(params, spec)
    fit = spectral.fit_heisenberg(spec, band)
    out_dir, base, fmt = _out_paths(params, Path(params.get("input")).stem,
                                    "heisenberg")
    files = _emit(out_dir, base, fmt, spec.to_csv(), fit.to_json())
    return {"operation": "heisenberg", "amplitude": fit.amplitude,
            "k_d": fit.k_d, "rss": fit.rss, "pinned": fit.pinned,
            "files": files}


def cmd_rs(params: Params) -> dict:
    ts = _load_input(params.get("input"), params.get("dt", None, float))
    windows = params.get("windows", None, _parse_int_list)
    if windows is None:
        windows = _dyadic(16, ts.n // 4)
    res = fractal.rescaled_range(ts, windows)
    out_dir, base, fmt = _out_paths(params, Path(params.get("input")).stem, "rs")
    files = _emit(out_dir, base, fmt, res.to_csv(), res.to_json())
    return {"operation": "rs", "hurst": res.hurst, "stderr": res.stderr,
            "files": files}


def _parse_detrend(raw: str):
    raw = str(raw)
    if raw.startswith("poly:"):
        return int(raw.split(":", 1)[1])
    if raw.startswith("wavelet:"):
        parts = raw.split(":", 1)[1].split(",")
        level = int(parts[1]) if len(parts) > 1 else None
        return fractal.WaveletDetrend(order=int(parts[0]), level=level)
    raise ValueError(raw)


def cmd_mfdfa(params: Params) -> dict:
    ts = _load_input(params.get("input"), params.get("dt", None, float))
    if params.get("no-profile", False, _parse_bool):
        prof = ts
    else:
        prof = signal_core.profile(ts)
    scales = params.get("scales", None, _parse_int_list)
    if scales is None:
        scales = _dyadic(16, ts.n // 4)
    q = params.get("q", [-5, -3, -1, 1, 2, 3, 5], _parse_float_list)
    detrend = params.get("detrend", 1, _parse_detrend)
    res = fractal.mfdfa(prof, scales, q, detrend=detrend)
    width = fractal.multifractality_width(res) if res.q_values.size >= 3 else None
    out_dir, base, fmt = _out_paths(params, Path(params.get("input")).stem,
                                    "mfdfa")
    files = _emit(out_dir, base, fmt, res.to_csv(), res.to_json())
    h2 = res.h(2.0) if np.any(np.isclose(res.q_values, 2.0)) else None
    return {"operation": "mfdfa", "h2": h2, "width": width,
            "hq": res.hq.tolist(), "files": files}


def _make_grid(params: Params, ts) -> wavelet.ScaleGrid:
    dt = ts.dt
    s0 = params.get("s0", None, lambda raw: _parse_scale(raw, dt))
    dj = params.get("dj", 0.125, float)
    j_tot = params.get("jtot", None, int)
    if j_tot is None:
        return wavelet.ScaleGrid.default_for(ts.n, dt, s0=s0, dj=dj)
    return wavelet.ScaleGrid(s0=2.0 * dt if s0 is None else s0, dj=dj, J=j_tot)


def cmd_cwt(params: Params) -> dict:
    ts = _load_input(params.get("input"), params.get("dt", None, float))
    mp = wavelet.MorletParams(omega0=params.get("omega0", 6.0, float))
    sg = wavelet.cwt_morlet(ts, grid=_make_grid(params, ts), params=mp)
    level = params.get("sig", 0.95, float)
    mask = wavelet.significance_mask(sg, level)
    gws = wavelet.global_spectrum(sg)

    out_dir, base, fmt = _out_paths(params, Path(params.get("input")).stem,
                                    "cwt")
    files = [str(out_dir / (base + ".mscl"))]
    (out_dir / (base + ".mscl")).write_bytes(wavelet.scalogram_to_bytes(sg))
    gws_json = json.dumps({
        "scales": sg.scales.tolist(),
        "periods": sg.periods().tolist(),
        "global_spectrum": gws.tolist(),
        "significance_level": level,
        "n_significant": int(mask.mask.sum()),
    })
    files += _emit(out_dir, base, fmt, wavelet.scalogram_to_csv(sg, mask),
                   gws_json)
    j = int(np.argmax(gws))
    return {"operation": "cwt", "peak_scale": float(sg.scales[j]),
            "peak_period": float(sg.periods()[j]),
            "n_significant": int(mask.mask.sum()), "files": files}


def cmd_phase(params: Params) -> dict:
    dt = params.get("dt", None, float)
    path_a = params.get("input")
    path_b = params.get("input2", None)
    ts_a = _load_input(path_a, dt)
    mp = wavelet.MorletParams(omega0=params.get("omega0", 6.0, float))

    raw_scale = params.get("scale", "auto")
    if str(raw_scale) == "auto":
        sg = wavelet.cwt_morlet(ts_a, params=mp)
        tops = wavelet.dominant_scales(sg, k=1)
        if tops.size == 0:
            raise errors.EmptyBand("no global-spectrum peak to select a scale")
        scale = float(tops[0])
    else:
        scale = _parse_scale(raw_scale, ts_a.dt)

    pa = phase_mod.phase_at_scale(ts_a, scale, params=mp)
    out_dir, base_a, fmt = _out_paths(params, Path(path_a).stem, "phase")
    files = _emit(out_dir, base_a, fmt, pa.to_csv(), pa.to_json())
    summary = {"operation": "phase", "scale": scale, "files": files}

    if path_b is not None:
        ts_b = _load_input(path_b, dt)
        pb = phase_mod.phase_at_scale(ts_b, scale, params=mp)
        files += _emit(out_dir, Path(path_b).stem + ".phase", fmt,
                       pb.to_csv(), pb.to_json())
        tol = params.get("tol", 0.5, float)
        min_dur = params.get("min-duration", None, int)
        if min_dur is None:
            min_dur = max(2, int(round(scale * mp.fourier_factor / ts_a.dt)))
        diff = phase_mod.with_locking(phase_mod.phase_difference(pa, pb),
                                      tolerance=tol, min_duration=min_dur)
        stem = Path(path_a).stem + "__" + Path(path_b).stem
        files += _emit(out_dir, stem + ".phasediff", "json", None,
                       diff.to_json())
        summary.update({
            "locking_intervals": len(diff.locking_intervals),
            "tolerance": tol, "min_duration": min_dur, "files": files,
        })
    return summary


_ANALYSES = {
    "spectrum": cmd_spectrum,
    "powerlaw": cmd_powerlaw,
    "heisenberg": cmd_heisenberg,
    "rs": cmd_rs,
    "mfdfa": cmd_mfdfa,
    "cwt": cmd_cwt,
    "phase": cmd_phase,
}


def cmd_pipeline(args: argparse.Namespace, config: dict) -> list[dict]:
    section = Params(args, config, "pipeline")
    analyses = [a.strip() for a in
                str(section.get("analyses", "")).split(",") if a.strip()]
    if not analyses:
        raise CliError(2, "pipeline.analyses is empty")
    input_path = section.get("input")
    summaries = []
    if input_path is None:
        gen_params = Params(argparse.Namespace(), config, "gen")
        gen_summary = cmd_gen(gen_params)
        input_path = gen_summary["file"]
        summaries.append(gen_summary)
    for name in analyses:
        if name == "profile":
            prof_params = Params(argparse.Namespace(input=input_path),
                                 config, "profile")
            ts = signal_core.profile(_load_input(input_path,
                                                 prof_params.get("dt", None, float)))
            out_dir = Path(prof_params.get("out", "."))
            out_dir.mkdir(parents=True, exist_ok=True)
            input_path = _write(out_dir, Path(input_path).stem + ".profile.csv",
                                ts.to_csv())
            summaries.append({"operation": "profile", "n": ts.n,
                              "file": input_path})
            continue
        if name not in _ANALYSES:
            raise CliError(2, f"unknown pipeline analysis: {name}")
        ns = argparse.Namespace(input=input_path)
        summaries.append(_ANALYSES[name](Params(ns, config, name)))
    return summaries


# argument parsing ------------------------------------------------------------

def _add_common(sp):
    sp.add_argument("--config")
    sp.add_argument("--out")
    sp.add_argument("--format", choices=["csv", "json", "both"])
    sp.add_argument("--dt", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="multiscale",
                     description="Multi-scale fluctuation analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a synthetic series as CSV")
    p.add_argument("kind", choices=["white", "fgn", "cascade", "sine", "sines"])
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--h", type=float)
    p.add_argument("--levels", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--shuffle", action="store_const", const=True)
    p.add_argument("--f")
    p.add_argument("--amp")
    p.add_argument("--phase", type=float)
    p.add_argument("--output")
    _add_common(p)

    for name in ("spectrum", "powerlaw", "heisenberg"):
        p = sub.add_parser(name)
        p.add_argument("input")
        p.add_argument("--segments", type=int)
        p.add_argument("--profile", action="store_const", const=True)
        if name == "spectrum":
            p.add_argument("--overlap", type=float)
        else:
            p.add_argument("--fmin", type=float)
            p.add_argument("--fmax", type=float)
        _add_common(p)

    p = sub.add_parser("rs")
    p.add_argument("input")
    p.add_argument("--windows")
    _add_common(p)

    p = sub.add_parser("mfdfa")
    p.add_argument("input")
    p.add_argument("--scales")
    p.add_argument("--q")
    p.add_argument("--detrend")
    p.add_argument("--no-profile", action="store_const", const=True)
    _add_common(p)

    p = sub.add_parser("cwt")
    p.add_argument("input")
    p.add_argument("--s0")
    p.add_argument("--dj", type=float)
    p.add_argument("--jtot", type=int)
    p.add_argument("--omega0", type=float)
    p.add_argument("--sig", type=float)
    _add_common(p)

    p = sub.add_parser("phase")
    p.add_argument("input")
    p.add_argument("input2", nargs="?")
    p.add_argument("--scale")
    p.add_argument("--omega0", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--min-duration", type=int)
    _add_common(p)

    p = sub.add_parser("pipeline")
    p.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(getattr(args, "config", None))
        operation = args.command
        if operation == "pipeline":
            for summary in cmd_pipeline(args, config):
                print(json.dumps(summary))
        elif operation == "gen":
            print(json.dumps(cmd_gen(Params(args, config, "gen"))))
        else:
            print(json.dumps(_ANALYSES[operation](Params(args, config,
                                                         operation))))
        return 0
    except CliError as exc:
        code = exc.code
        detail = str(exc)
    except _ARG_ERRORS as exc:
        code, detail = 2, str(exc)
    except _INPUT_ERRORS as exc:
        code, detail = 3, str(exc)
    except _NUMERIC_ERRORS as exc:
        code, detail = 4, str(exc)
    operation = "cli"
    if argv or (argv is None and len(sys.argv) > 1):
        operation = (argv or sys.argv[1:])[0]
    print(json.dumps({"code": code, "operation": operation, "detail": detail}),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
