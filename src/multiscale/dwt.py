"""Daubechies discrete wavelet transform: Mallat pyramid with symmetric
boundary extension, and its exact inverse."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvalidParameter
from .signal_core import TimeSeries

# Orthonormal scaling (reconstruction low-pass) filters h0..h_{2p-1},
# normalized to sum sqrt(2); computed by spectral factorization of the
# binomial half-band polynomial at 60-digit precision.
_DB_FILTERS = {
    1: [0.7071067811865475244, 0.7071067811865475244],
    2: [-0.12940952255126038117, 0.22414386804201338103, 0.83651630373780790558,
        0.48296291314453414337],
    3: [0.035226291885709536603, -0.085441273882026661693, -0.1350110200102545887,
        0.4598775021184915701, 0.80689150931109257649, 0.332670552950082616],
    4: [-0.010597401785069032105, 0.032883011666885199735, 0.030841381835560763627,
        -0.18703481171909308408, -0.027983769416859854211, 0.63088076792985890788,
        0.71484657055291564709, 0.23037781330889650086],
    5: [0.003335725285473771278, -0.012580751999081999469, -0.0062414902127982742742,
        0.077571493840045713523, -0.032244869584638374648, -0.24229488706638203186,
        0.13842814590132073151, 0.72430852843777292773, 0.60382926979718967054,
        0.16010239797419291448],
    6: [-0.0010773010853084795649, 0.0047772575109455106396, 0.00055384220116149613925,
        -0.031582039317486029565, 0.027522865530305728626, 0.097501605587323049102,
        -0.12976686756726193556, -0.22626469396543982008, 0.31525035170919762909,
        0.75113390802109535068, 0.49462389039845308568, 0.11154074335010946362],
    7: [0.00035371379997452024845, -0.0018016407040474909153, 0.00042957797292136652113,
        0.012550998556099840613, -0.016574541630666880654, -0.03802993693501441358,
        0.080612609151083071913, 0.071309219266830264751, -0.22403618499387498264,
        -0.14390600392856497541, 0.46978228740519312247, 0.72913209084623511992,
        0.39653931948191730654, 0.07785205408500917902],
    8: [-0.00011747678412476953373, 0.00067544940645056936637, -0.0003917403733769470463,
        -0.0048703529934515743104, 0.0087460940474057767164, 0.013981027917398281649,
        -0.044088253930794751507, -0.01736930100180754617, 0.12874742662047845886,
        0.00047248457391328277036, -0.28401554296154692652, -0.015829105256349305667,
        0.58535468365420671277, 0.67563073629728980681, 0.31287159091429997066,
        0.054415842243104009955],
    9: [0.000039347320316271599481, -0.00025196318894271013697, 0.00023038576352319596721,
        0.0018476468830562264766, -0.0042815036824634298345, -0.0047232047577513972779,
        0.022361662123679097205, 0.00025094711483145195759, -0.067632829061329973676,
        0.030725681479333379212, 0.14854074933810638014, -0.096840783222976460514,
        -0.29327378327917490881, 0.13319738582500757619, 0.65728807805130053808,
        0.6048231236901111119, 0.24383467461259035373, 0.038077947363878346589],
    10: [-0.000013264202894521244812, 0.000093588670320069591334, -0.00011646685512928545095,
         -0.00068585669495971162656, 0.0019924052951850561172, 0.0013953517470529011658,
         -0.010733175483330575044, 0.0036065535669561696554, 0.03321267405934100174,
         -0.029457536821875812858, -0.071394147166397087145, 0.09305736460357235116,
         0.12736934033579326008, -0.1959462743773770435, -0.24984642432731537942,
         0.28117234366057746075, 0.68845903945360356574, 0.52720118893172558648,
         0.18817680007769148902, 0.026670057900555553587],
}


def filter_bank(order: int):
    """(dec_lo, dec_hi, rec_lo, rec_hi) for Daubechies order 1..10."""
    length = filter_length(order)
    rec_lo = np.asarray(_DB_FILTERS[order], dtype=np.float64)
    rec_hi = ((-1.0) ** np.arange(length)) * rec_lo[::-1]
    return rec_lo[::-1], rec_hi[::-1], rec_lo, rec_hi


def filter_length(order: int) -> int:
    if order not in _DB_FILTERS:
        raise InvalidParameter("Daubechies order must be in 1..10")
    return 2 * order


@dataclass(frozen=True)
class DWTCoeffs:
    """Pyramid output: detail arrays finest-first plus final approximation."""

    approx: np.ndarray
    details: tuple
    order: int
    lengths: tuple  # input length at each level, finest first
    dt: float = 1.0


def _dwt1_sym(x: np.ndarray, dec_lo: np.ndarray, dec_hi: np.ndarray):
    length = dec_lo.size
    ext = np.concatenate([x[:length - 1][::-1], x, x[-1:-length:-1]])
    lo = np.convolve(ext, dec_lo)[length - 1 : length - 1 + x.size + length - 1]
    hi = np.convolve(ext, dec_hi)[length - 1 : length - 1 + x.size + length - 1]
    return lo[1::2], hi[1::2]


def _idwt1_sym(ca: np.ndarray, cd: np.ndarray, rec_lo: np.ndarray,
               rec_hi: np.ndarray, n_out: int) -> np.ndarray:
    length = rec_lo.size
    up_a = np.zeros(2 * ca.size)
    up_d = np.zeros(2 * cd.size)
    up_a[::2] = ca
    up_d[::2] = cd
    y = np.convolve(up_a, rec_lo) + np.convolve(up_d, rec_hi)
    return y[length - 2 : length - 2 + n_out]


def dwt(ts: TimeSeries, order: int, levels: int) -> DWTCoeffs:
    """Mallat pyramid decomposition with symmetric boundary extension.

    ``levels`` must satisfy levels <= floor(log2(N / filter_length)).
    """
    x = ts.samples
    length = filter_length(order)
    if levels < 1:
        raise InvalidParameter("levels must be >= 1")
    if levels > int(np.floor(np.log2(x.size / length))):
        raise InputError("series too short for this order/levels")
    dec_lo, dec_hi, _, _ = filter_bank(order)

    details = []
    lengths = []
    a = x
    for _ in range(levels):
        lengths.append(a.size)
        a, d = _dwt1_sym(a, dec_lo, dec_hi)
        details.append(d)
    return DWTCoeffs(approx=a, details=tuple(details), order=order,
                     lengths=tuple(lengths), dt=ts.dt)


def idwt(coeffs: DWTCoeffs) -> TimeSeries:
    """Exact inverse of :func:`dwt`."""
    _, _, rec_lo, rec_hi = filter_bank(coeffs.order)
    a = coeffs.approx
    for d, n_out in zip(coeffs.details[::-1], coeffs.lengths[::-1]):
        a = _idwt1_sym(a, d, rec_lo, rec_hi, n_out)
    return TimeSeries(a, dt=coeffs.dt)


def zero_details(coeffs: DWTCoeffs) -> DWTCoeffs:
    """Copy of the pyramid with every detail band zeroed (trend only)."""
    return DWTCoeffs(approx=coeffs.approx,
                     details=tuple(np.zeros_like(d) for d in coeffs.details),
                     order=coeffs.order, lengths=coeffs.lengths,
                     dt=coeffs.dt)


def boundary_margin(order: int, level: int) -> int:
    """Samples per edge influenced by boundary handling at this depth."""
    return (2 ** level - 1) * (filter_length(order) - 1)
