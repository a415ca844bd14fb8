"""Multi-scale fluctuation analysis toolkit.

Spectral power-law and Heisenberg turbulence fitting, rescaled-range and
multifractal DFA Hurst estimation, continuous Morlet wavelet analysis with
red-noise significance, Daubechies DWT detrending, and wavelet phase
synchronization, plus a CLI front end (``multiscale``).
"""

import importlib

from . import errors
from .dwt import DWTCoeffs, dwt, idwt
from .signal_core import (TimeSeries, gen_binomial_cascade, gen_fgn, gen_sine,
                          gen_white_noise, load_csv, profile)

# The other submodules load on first use of their name or an export (PEP 562).
# dwt stays eager: importing it later would rebind ``multiscale.dwt`` to it.
_EXPORTS = {
    "fractal": ("MFDFAResult", "RSResult", "WaveletDetrend", "mfdfa",
                "multifractality_width", "rescaled_range", "wavelet_detrend"),
    "phase": ("PhaseDiffResult", "PhaseSeries", "locking_intervals",
              "phase_at_scale", "phase_difference", "with_locking",
              "wrap_phase"),
    "spectral": ("HeisenbergFit", "PowerLawFit", "PowerSpectrum",
                 "fit_heisenberg", "fit_power_law", "heisenberg_model",
                 "hurst_from_alpha", "periodogram"),
    "wavelet": ("MorletParams", "ScaleGrid", "Scalogram", "SignificanceMask",
                "cwt_morlet", "global_spectrum", "reconstruct_band",
                "scale_avg_variance", "significance_mask"),
}


def __getattr__(name):
    for module_name, exports in _EXPORTS.items():
        if name == module_name or name in exports:
            module = importlib.import_module("." + module_name, __name__)
            # every export at once: none is read from the submodule again,
            # after a caller may have replaced it there
            globals().update({e: getattr(module, e) for e in exports})
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
