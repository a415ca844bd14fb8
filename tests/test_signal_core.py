import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import multiscale as ms
from multiscale import errors
from multiscale.signal_core import _csv_rows, _json


class TestLoadCsv:
    def test_two_column(self):
        ts = ms.load_csv("0.0,1.5\n0.001,2.5")
        assert ts.dt == pytest.approx(0.001)
        assert np.allclose(ts.samples, [1.5, 2.5])

    def test_single_column_with_dt(self):
        ts = ms.load_csv("1.0\n1.0\n1.0", dt=0.5)
        assert ts.dt == 0.5
        assert np.allclose(ts.samples, [1.0, 1.0, 1.0])

    def test_whitespace_delimiter(self):
        ts = ms.load_csv("0.0 1.5\n0.5 2.5\n1.0 3.5")
        assert ts.dt == pytest.approx(0.5)

    def test_byte_stream(self):
        ts = ms.load_csv(io.BytesIO(b"0.0,1.0\n1.0,2.0\n2.0,3.0"))
        assert ts.n == 3

    @pytest.mark.parametrize("source", [b"\xef\xbb\xbf1.0\n2.0\n3.0\n",
                                        "\ufeff1.0\n2.0\n3.0\n"])
    def test_leading_byte_order_mark_is_ignored(self, source):
        assert ms.load_csv(source).samples.tolist() == [1.0, 2.0, 3.0]

    def test_bad_byte_after_a_byte_order_mark_counts_it(self):
        for data, at in ((b"1\n\xff", 2), (b"\xef\xbb\xbf1\n\xff", 5)):
            with pytest.raises(errors.InputError, match=f"^byte {at}: "):
                ms.load_csv(data)

    def test_non_uniform(self):
        with pytest.raises(errors.InputError, match="not uniformly spaced"):
            ms.load_csv("0,1\n1,2\n2.5,3")

    def test_malformed(self):
        with pytest.raises(errors.InputError, match="oops"):
            ms.load_csv("0,1\n1,oops")

    @pytest.mark.parametrize("text", [",,\n1\n2\n3", "1\n , \n2\n3",
                                      "1\n2\n3\n\n,"])
    def test_line_of_commas_alone_is_malformed(self, text):
        # a row of empty cells, not a blank line
        with pytest.raises(errors.InputError,
                           match="a line holds commas but no number"):
            ms.load_csv(text)
        assert ms.load_csv(text.replace(",", "")).n == 3

    def test_too_short(self):
        with pytest.raises(errors.InputError, match="need at least 2 rows"):
            ms.load_csv("1.0")

    def test_ragged_row_keeps_numpys_first_clause_only(self):
        with pytest.raises(errors.InputError,
                           match="^the number of columns changed") as info:
            ms.load_csv("0,1\n1,2\n2,3\n4\n5,6")
        assert "usecols" not in str(info.value)

    @pytest.mark.parametrize("parity", [0, 1])
    @given(st.integers(1, 40), st.floats(1e-300, 1e300),
           st.floats(-1e6, 1e6), st.data())
    def test_dt_is_the_median_step_bit_for_bit(self, parity, half, dt, t0,
                                               data):
        # jitter under 1e-6 of a step, each stamp written with all its digits
        rows = 2 * half + parity
        jitter = data.draw(st.lists(st.floats(-2e-7, 2e-7), min_size=rows,
                                    max_size=rows))
        t = (t0 + np.arange(rows) + np.array(jitter)) * dt
        assume(np.all(np.isfinite(t)) and np.all(np.diff(t) > 0))
        text = "".join(f"{v!r},1\n" for v in t.tolist())
        assert ms.load_csv(text).dt == float(np.median(np.diff(t)))

    @pytest.mark.parametrize("text", ["-1.7e308,1\n0,2\n1.7e308,3",
                                      "-1.7e308,1\n1.7e308,2"])
    def test_time_step_that_overflows_is_refused(self, text):
        # the first: two finite steps whose mean overflows; the second: one
        # step that overflows
        with pytest.raises(errors.InputError,
                           match="the time step overflows float64"):
            ms.load_csv(text)

    @pytest.mark.parametrize("text", ["", " \n\t\n", "\r\n\r\n"])
    def test_no_data_row_is_too_short_without_a_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.InputError,
                               match="need at least 2 rows"):
                ms.load_csv(text)


class TestProfile:
    def test_hand_computed(self):
        ts = ms.TimeSeries([1.0, 2.0, 3.0])
        assert np.allclose(ms.profile(ts).samples, [-1.0, -1.0, 0.0])

    def test_constant_is_zero(self):
        ts = ms.TimeSeries(np.full(16, 3.2))
        assert np.allclose(ms.profile(ts).samples, 0.0)

    def test_final_element_vanishes_white_noise(self):
        ts = ms.gen_white_noise(4096, 1)
        y = ms.profile(ts).samples
        assert abs(y[-1]) < 1e-9 * ts.n * np.max(np.abs(ts.samples))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
    def test_final_element_property(self, xs):
        y = ms.profile(ms.TimeSeries(xs)).samples
        scale = max(np.max(np.abs(xs)), 1.0)
        assert abs(y[-1]) <= 1e-9 * len(xs) * scale


class TestGenerators:
    def test_white_noise_mean(self):
        ts = ms.gen_white_noise(4096, 42)
        assert abs(ts.samples.mean()) < 4 / np.sqrt(4096)

    def test_white_noise_deterministic(self):
        a = ms.gen_white_noise(4096, 42)
        b = ms.gen_white_noise(4096, 42)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_white_noise_too_short(self):
        with pytest.raises(errors.InputError, match="n must be >= 2"):
            ms.gen_white_noise(1, 0)

    def test_fgn_half_is_white(self):
        n = 2 ** 14
        ts = ms.gen_fgn(n, 0.5, 42)
        x = ts.samples - ts.samples.mean()
        rho1 = np.sum(x[1:] * x[:-1]) / np.sum(x * x)
        assert abs(rho1) < 4 / np.sqrt(n)

    def test_fgn_unit_variance(self):
        ts = ms.gen_fgn(2 ** 14, 0.8, 42)
        assert abs(ts.samples.var() - 1.0) < 0.1

    def test_fgn_deterministic(self):
        a = ms.gen_fgn(1024, 0.7, 9)
        b = ms.gen_fgn(1024, 0.7, 9)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_fgn_bad_hurst(self):
        with pytest.raises(errors.InvalidParameter):
            ms.gen_fgn(1024, 1.2, 0)

    def test_cascade_symmetric_weights_constant(self):
        ts = ms.gen_binomial_cascade(6, 0.5)
        assert np.allclose(ts.samples, 1.0)

    def test_cascade_dyadic_first_value(self):
        ts = ms.gen_binomial_cascade(3, 0.75)
        assert ts.samples[0] == pytest.approx(0.75 ** 3 * 2 ** 3)

    def test_cascade_shuffle_deterministic(self):
        a = ms.gen_binomial_cascade(8, 0.6, seed=3, shuffle=True)
        b = ms.gen_binomial_cascade(8, 0.6, seed=3, shuffle=True)
        assert a.samples.tobytes() == b.samples.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: ms.gen_white_noise(8, -1),
        lambda: ms.gen_fgn(8, 0.5, -1),
        lambda: ms.gen_binomial_cascade(3, 0.6, -1, shuffle=True),
        lambda: ms.gen_white_noise(8, 1.5),
    ], ids=["white", "fgn", "cascade", "float"])
    def test_bad_seed(self, make):
        with pytest.raises(errors.InvalidParameter,
                           match="seed must be an integer >= 0"):
            make()

    def test_cascade_bad_levels(self):
        with pytest.raises(errors.InvalidParameter):
            ms.gen_binomial_cascade(25, 0.6)

    def test_sine_quarter_samples(self):
        ts = ms.gen_sine(4, 0.25, 1.0)
        assert np.allclose(ts.samples, [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    def test_sine_phase_is_cosine(self):
        ts = ms.gen_sine(64, 0.01, 5.0, phase=np.pi / 2)
        k = np.arange(64)
        assert np.allclose(ts.samples, np.cos(2 * np.pi * 5.0 * k * 0.01),
                           atol=1e-12)

    def test_sine_aliased(self):
        with pytest.raises(errors.InvalidParameter,
                           match="at or above Nyquist"):
            ms.gen_sine(64, 0.25, 3.0)


class TestCsvRows:
    @given(st.lists(st.tuples(st.integers(-2 ** 62, 2 ** 62), st.floats(),
                              st.booleans()), max_size=40))
    def test_matches_per_row_formatting(self, rows):
        # reference: the per-value loop each result type used to carry
        lines = [str(int(i)) + "," + ("%.17g" % x) + "," + str(int(b))
                 for i, x, b in rows]
        ints = np.array([r[0] for r in rows], dtype=np.int64)
        floats = np.array([r[1] for r in rows], dtype=np.float64)
        flags = np.array([r[2] for r in rows], dtype=bool)
        assert _csv_rows(ints, floats, flags) == "\n".join(lines) + "\n"

    def test_float_column_round_trips(self):
        x = np.array([0.1, -0.0, 1e-300, 2.0 ** 60, np.pi])
        text = _csv_rows(x)
        assert np.array_equal(np.array(text.split(), dtype=float), x)
        assert text.splitlines()[1] == "-0"


def strict_loads(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestJson:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=40), st.lists(st.booleans(), max_size=40))
    def test_finite_output_matches_hand_built_dict(self, xs, flags):
        # reference: the dictionaries the result types used to build
        x = np.array(xs, dtype=np.float64).reshape(-1, 1)
        ref = json.dumps({"n": len(xs), "x": x.tolist(),
                          "flags": [int(v) for v in flags],
                          "band": [1.5, 2.5], "none": None, "ok": True})
        assert _json(n=len(xs), x=x, flags=np.array(flags, dtype=bool),
                     band=(1.5, 2.5), none=None, ok=True) == ref

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_non_finite_floats_become_null(self, xs):
        out = strict_loads(_json(a=np.array(xs), b=xs[0], c=[xs[-1]],
                                 d=((xs[0],),)))
        expect = [v if np.isfinite(v) else None for v in xs]
        assert out == {"a": expect, "b": expect[0], "c": [expect[-1]],
                       "d": [[expect[0]]]}


class TestSerialization:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=200),
           st.floats(1e-6, 1e6), st.booleans())
    def test_csv_round_trip(self, xs, dt, two_columns):
        ts = ms.TimeSeries(xs, dt=dt)
        text = ts.to_csv() if two_columns else _csv_rows(ts.samples)
        back = ms.load_csv(text, dt=None if two_columns else dt)
        assert back.samples.tobytes() == ts.samples.tobytes()
        assert back.dt == pytest.approx(ts.dt)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.inf, np.nan])
    def test_dt_must_be_finite_and_positive(self, dt):
        with pytest.raises(errors.InvalidParameter,
                           match="dt must be finite and > 0"):
            ms.TimeSeries([1.0, 2.0], dt=dt)

    def test_samples_immutable(self):
        ts = ms.TimeSeries([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ts.samples[0] = 9.0
