import numpy as np
import pytest
from hypothesis import given, strategies as st

from multiscale import TimeSeries, errors
from multiscale.dwt import (
    boundary_margin,
    dwt,
    filter_bank,
    filter_length,
    idwt,
    zero_details,
)


# one case per order; the ids name the boundary extension
@pytest.mark.parametrize("order", [pytest.param(order, id=f"symmetric-{order}")
                                   for order in range(1, 11)])
@given(data=st.data())
def test_perfect_reconstruction(order, data):
    n = data.draw(st.integers(2 * filter_length(order), 4096), label="n")
    levels = data.draw(st.integers(
        1, int(np.floor(np.log2(n / filter_length(order))))), label="levels")
    x = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))
                              ).standard_normal(n)
    rec = idwt(dwt(TimeSeries(x), order, levels)).samples
    assert np.max(np.abs(rec - x)) < 1e-10 * np.max(np.abs(x))


@pytest.mark.parametrize("n", [100, 101, 257, 333])
def test_reconstruction_odd_lengths_symmetric(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    rec = idwt(dwt(TimeSeries(x), 3, 2)).samples
    assert np.max(np.abs(rec - x)) < 1e-10


def test_haar_hand_computed():
    coeffs = dwt(TimeSeries([1.0, 1.0, 2.0, 2.0]), 1, 1)
    assert np.allclose(coeffs.approx, [np.sqrt(2), 2 * np.sqrt(2)])
    assert np.allclose(coeffs.details[0], [0.0, 0.0])


def test_db2_annihilates_linear_ramp():
    x = np.linspace(0.0, 1.0, 256)
    coeffs = dwt(TimeSeries(x), 2, 1)
    interior = coeffs.details[0][3:-3]
    assert np.max(np.abs(interior)) < 1e-10


def test_filter_orthonormality():
    for order in range(1, 11):
        _, _, rec_lo, rec_hi = filter_bank(order)
        assert np.sum(rec_lo ** 2) == pytest.approx(1.0, abs=1e-14)
        assert np.sum(rec_lo * rec_hi) == pytest.approx(0.0, abs=1e-14)
        for k in range(1, order):
            shifted = np.sum(rec_lo[: -2 * k] * rec_lo[2 * k:])
            assert shifted == pytest.approx(0.0, abs=1e-14)


def test_trend_extraction_zero_signal():
    coeffs = dwt(TimeSeries(np.zeros(128)), 4, 2)
    trend = idwt(zero_details(coeffs)).samples
    assert np.allclose(trend, 0.0)


def test_bad_order():
    with pytest.raises(errors.InvalidParameter,
                       match=r"Daubechies order must be in 1\.\.10"):
        dwt(TimeSeries(np.zeros(64)), 11, 1)
    with pytest.raises(errors.InvalidParameter,
                       match=r"Daubechies order must be in 1\.\.10"):
        filter_length(0)


def test_too_many_levels():
    with pytest.raises(errors.InputError,
                       match="series too short for this order/levels"):
        dwt(TimeSeries(np.zeros(64)), 10, 3)  # filter length 20, N/L = 3.2


def test_boundary_margin_grows_with_level():
    assert boundary_margin(2, 1) == 3
    assert boundary_margin(2, 3) == 21
