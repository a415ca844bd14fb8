"""Multi-scale fluctuation analysis toolkit.

Spectral power-law and Heisenberg turbulence fitting, rescaled-range and
multifractal DFA Hurst estimation, continuous Morlet wavelet analysis with
red-noise significance, Daubechies DWT detrending, and wavelet phase
synchronization, plus a CLI front end (``multiscale``).
"""

from . import errors
from .dwt import DWTCoeffs, dwt, idwt
from .fractal import (
    MFDFAResult,
    RSResult,
    WaveletDetrend,
    mfdfa,
    multifractality_width,
    rescaled_range,
    wavelet_detrend,
)
from .phase import (
    PhaseDiffResult,
    PhaseSeries,
    locking_intervals,
    phase_at_scale,
    phase_difference,
    with_locking,
    wrap_phase,
)
from .signal_core import (
    TimeSeries,
    gen_binomial_cascade,
    gen_fgn,
    gen_sine,
    gen_white_noise,
    load_csv,
    profile,
)
from .spectral import (
    HeisenbergFit,
    PowerLawFit,
    PowerSpectrum,
    fit_heisenberg,
    fit_power_law,
    heisenberg_model,
    hurst_from_alpha,
    periodogram,
)
from .wavelet import (
    MorletParams,
    ScaleGrid,
    Scalogram,
    SignificanceMask,
    cwt_morlet,
    global_spectrum,
    reconstruct_band,
    scale_avg_variance,
    significance_mask,
)

__version__ = "0.1.0"
