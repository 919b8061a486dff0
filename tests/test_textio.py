"""The array encoder writes the text Python's own formatting writes: floats
as ``f"{v:.17g}"`` and integers as ``str``, byte for byte."""

import io
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from entropix import textio


def float_text(a) -> bytes:
    """The reference: the per-value loop ``entropy.csv`` was written by."""
    return "".join(",".join([f"{v:.17g}" for v in row]) + "\n"
                   for row in np.asarray(a).tolist()).encode()


def int_text(a, sep=",") -> bytes:
    """The reference: the per-value loop ``tokens.csv`` and the P2 body
    were written by."""
    return "".join(sep.join(map(str, row)) + "\n"
                   for row in np.asarray(a).tolist()).encode()


def encoded(a, sep=",") -> bytes:
    f = io.BytesIO()
    textio.write_rows(f, a, sep)
    return f.getvalue()


def assert_floats(values):
    a = np.asarray(values, dtype=np.float64).reshape(1, -1)
    assert encoded(a) == float_text(a)


shapes = st.one_of(
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=12))


class TestFloats:
    @settings(max_examples=300, deadline=None)
    @given(shapes.flatmap(lambda s: hnp.arrays(np.uint64, s)))
    def test_any_bit_pattern(self, bits):
        # every float64: subnormals, +-0.0, +-inf and NaN among them
        a = bits.view(np.float64)
        assert encoded(a) == float_text(a)

    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda s: hnp.arrays(np.float64, s,
                                               elements=st.floats())))
    def test_any_float(self, a):
        assert encoded(a) == float_text(a)

    def test_random_bits_at_scale(self):
        bits = np.random.default_rng(0).integers(0, 2 ** 64, size=(64, 512),
                                                 dtype=np.uint64)
        a = bits.view(np.float64)
        assert encoded(a) == float_text(a)

    def test_entropy_like_values(self):
        # the values an entropy map holds: [0, ln V] and tiny ones
        rng = np.random.default_rng(1)
        a = rng.random((128, 128)) * 10.0 ** rng.integers(-40, 1, (128, 128))
        assert encoded(a) == float_text(a)

    def test_powers_of_ten_and_their_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
        assert_floats(np.concatenate([tens, np.nextafter(tens, 0.0),
                                      np.nextafter(tens, np.inf)]))
        assert_floats(-tens)

    def test_exact_halfway_values(self):
        # m / 2^j with m odd: its exact decimal expansion has 18 significant
        # digits and ends in 5, halfway between two 17-digit values
        values = []
        for j in range(1, 40):
            m = -(-10 ** 17 // 5 ** j) | 1
            if m < 2 ** 53 and m * 5 ** j < 10 ** 18:
                values.append(math.ldexp(m, -j))
        assert len(values) > 10
        for v in values:
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        assert_floats(values + [-v for v in values])
        # they round half to even, some up and some down
        up = {Decimal(f"{v:.17g}") > Decimal(v) for v in values}
        assert up == {True, False}

    def test_fixed_and_exponent_notation_switch(self):
        edges = [1e-4, 1e-5, 1e16, 1e17, 9.99999999999999999e-5,
                 9.9999999999999995e-5, 0.00010000000000000002,
                 1.0000000000000001e-5, 9.999999999999999e16,
                 99999999999999999.0, 12345678901234567.0]
        edges = np.array(edges)
        assert_floats(np.concatenate([edges, np.nextafter(edges, 0.0),
                                      np.nextafter(edges, np.inf)]))

    def test_three_digit_exponents(self):
        assert_floats([1.5e-100, 1e100, 9.87654321e-200, 1e-284, 1e-285,
                       9.999999999999999e299, 1e300, 1.7976931348623157e308,
                       2.2250738585072014e-308, 5e-324, 1.2345e-310])

    def test_integral_and_short_values(self):
        assert_floats([0.0, -0.0, 1.0, 100.0, 120.5, 0.5, 0.25, 3.0, 1e15,
                       123456789.0, -7.0, 0.1, 0.2, 0.3, 2.0 ** 60,
                       math.inf, -math.inf, math.nan])

    def test_more_values_than_one_chunk(self):
        rng = np.random.default_rng(2)
        for shape in [(1, 3 * textio._CHUNK + 5), (textio._CHUNK + 3, 2),
                      (97, 101)]:
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
            assert encoded(a) == float_text(a)

    def test_empty_rows(self):
        assert encoded(np.zeros((3, 0))) == b"\n\n\n"
        assert encoded(np.zeros((0, 4))) == b""


class TestInts:
    @settings(max_examples=200, deadline=None)
    @given(shapes.flatmap(lambda s: hnp.arrays(np.int64, s)),
           st.sampled_from([",", " "]))
    def test_any_int64(self, a, sep):
        assert encoded(a, sep) == int_text(a, sep)

    def test_extremes(self):
        a = np.array([[0, -1, 9, 10, -10, 2 ** 63 - 1, -2 ** 63,
                       10 ** 18, 10 ** 18 - 1, -10 ** 18]])
        assert encoded(a) == int_text(a)
        assert encoded(a.T, " ") == int_text(a.T, " ")

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int16])
    def test_other_integer_dtypes(self, dtype):
        a = np.arange(-60, 60).reshape(8, 15).astype(dtype)
        assert encoded(a, " ") == int_text(a, " ")

    def test_more_values_than_one_chunk(self):
        a = np.random.default_rng(3).integers(0, 64, (300, 77))
        assert encoded(a) == int_text(a)
