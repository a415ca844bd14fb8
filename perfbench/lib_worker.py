"""Long-lived worker for the ``lib_numerics`` workload.

Started as ``python3 perfbench/lib_worker.py TRACE`` with the checkout's
``src`` on PYTHONPATH. It imports ``multiscale``, reports the import, then
reads one JSON request per line from stdin and answers each on stdout:

    {"seed": S, "trace": 0|1}  ->  {"wall": s, "result": {...}, "spans": ...}
    {"exit": true}             ->  exits

One op is the whole library chain on a fresh fGn series. The result holds
the numbers the correctness gate checks; no input file is read or written.
"""

import json
import sys
import time

N = 2 ** 16
HURST = 0.8
WINDOWS = [16 * 2 ** k for k in range(11)]       # 16 .. n/4
SCALES = [16 * 2 ** k for k in range(9)]         # 16 .. 4096
Q = [-5.0, -3.0, -1.0, 1.0, 2.0, 3.0, 5.0]
PHASE_SCALE = 64.0
DWT_ORDER, DWT_LEVELS = 4, 8


def run_op(ms, seed: int) -> dict:
    ts = ms.gen_fgn(N, HURST, seed)
    prof = ms.profile(ts)
    spec = ms.periodogram(prof)
    fit = ms.fit_power_law(spec, *ms.spectral.default_band(spec))
    welch = ms.periodogram(ts, segments=8, overlap_fraction=0.5)
    heis = ms.fit_heisenberg(welch, ms.spectral.default_band(welch))
    rs = ms.rescaled_range(ts, WINDOWS)
    mf_poly = ms.mfdfa(prof, SCALES, Q, detrend=1)
    mf_wav = ms.mfdfa(prof, SCALES, Q, detrend=ms.WaveletDetrend(2))
    back = ms.idwt(ms.dwt(ts, DWT_ORDER, DWT_LEVELS))
    sg = ms.cwt_morlet(ts)
    mask = ms.significance_mask(sg)
    gws = ms.global_spectrum(sg)
    mp = ms.MorletParams()
    pa = ms.phase_at_scale(ts, PHASE_SCALE, params=mp)
    pb = ms.phase_at_scale(prof, PHASE_SCALE, params=mp)
    min_dur = max(2, int(round(PHASE_SCALE * mp.fourier_factor / ts.dt)))
    diff = ms.with_locking(ms.phase_difference(pa, pb), tolerance=0.5,
                           min_duration=min_dur)
    return {
        "n": ts.n,
        "spectral_hurst": ms.hurst_from_alpha(fit.alpha).hurst,
        "heisenberg": [heis.amplitude, heis.k_d, heis.rss],
        "rs_hurst": rs.hurst,
        "mfdfa_h2_poly": mf_poly.h(2.0),
        "mfdfa_h2_wavelet": mf_wav.h(2.0),
        "dwt_max_err": float(abs(back.samples - ts.samples).max()),
        "cwt_shape": list(sg.coeffs.shape),
        "mask_shape": list(mask.mask.shape),
        "gws_min": float(gws.min()),
        "phase_n": [pa.n, pb.n, int(diff.delta.size)],
        "locking_intervals": len(diff.locking_intervals),
    }


def main() -> int:
    trace = sys.argv[1] == "1"
    before = len(sys.modules)
    start = time.perf_counter()
    import multiscale as ms
    import_s = time.perf_counter() - start
    modules = len(sys.modules) - before

    tracer = None
    if trace:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    print(json.dumps({"ready": True, "import_s": import_s,
                      "modules": modules, "file": ms.__file__}), flush=True)

    for line in sys.stdin:
        req = json.loads(line)
        if req.get("exit"):
            break
        traced = tracer is not None and bool(req["trace"])
        if tracer is not None:
            tracer.reset()
            tracer.enabled = traced
        reply = {}
        start = time.perf_counter()
        try:
            reply["result"] = run_op(ms, int(req["seed"]))
        except Exception as exc:  # reported to the gate as a failed op
            reply["error"] = f"{type(exc).__name__}: {exc}"
        reply["wall"] = time.perf_counter() - start
        if traced:
            reply.update(tracer.dump())
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
