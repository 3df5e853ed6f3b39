"""Tests for repro.quant.tensor: the QuantizedTensor container."""

import numpy as np
import pytest

from repro.quant import FP4, FP8_E4M3, IntegerCodec
from repro.quant.tensor import QuantizedTensor


class TestContainer:
    def test_codes_coerced_to_int64(self):
        qt = QuantizedTensor(
            codes=np.array([0, 1], dtype=np.int8),
            scale=1.0,
            zero_point=0,
            codec=IntegerCodec(bits=2),
        )
        assert qt.codes.dtype == np.int64

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([0]), scale=0.0, zero_point=0, codec=IntegerCodec(bits=2))

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="finite and positive"):
            QuantizedTensor(np.array([0]), scale=scale, zero_point=0, codec=IntegerCodec(bits=2))

    def test_nbytes_is_bit_packed(self):
        codec = IntegerCodec(bits=2)
        qt = QuantizedTensor(np.zeros(10, dtype=np.int64), 1.0, 0, codec)
        assert qt.nbytes == 3  # 20 bits -> 3 bytes


class TestDequantize:
    def test_integer_symmetric(self):
        codec = IntegerCodec(bits=4, symmetric=True)
        qt = QuantizedTensor(np.array([-8, 0, 7]), 0.5, 0, codec)
        assert np.allclose(qt.dequantize(), [-4.0, 0.0, 3.5])

    def test_integer_asymmetric_uses_zero_point(self):
        codec = IntegerCodec(bits=4, symmetric=False)
        qt = QuantizedTensor(np.array([0, 5, 15]), 2.0, 5, codec)
        assert np.allclose(qt.dequantize(), [-10.0, 0.0, 20.0])

    def test_minifloat_routes_through_indices(self):
        # Must agree with table[to_indices(codes)], not raw-code indexing.
        codes = np.array([0, 3, 9, 15])
        qt = QuantizedTensor(codes, 2.0, 0, FP4)
        expected = qt.values_per_index()[FP4.to_indices(codes)] * 2.0
        assert np.array_equal(qt.dequantize(), expected)

    def test_minifloat_matches_quantize_round_trip(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=32)
        qt = FP8_E4M3.quantize(values)
        table = FP8_E4M3.code_values()
        assert np.allclose(qt.dequantize(), table[qt.codes] * qt.scale)


class TestIndexSpace:
    @pytest.mark.parametrize(
        "codec",
        [
            IntegerCodec(bits=1, symmetric=True),
            IntegerCodec(bits=3, symmetric=True),
            IntegerCodec(bits=3, symmetric=False),
            FP4,
        ],
    )
    def test_values_per_index_consistent_with_dequantize(self, codec):
        rng = np.random.default_rng(4)
        qt = codec.quantize(rng.normal(size=50))
        via_table = qt.values_per_index()[qt.indices()] * qt.scale
        assert np.allclose(via_table, qt.dequantize())

    def test_indices_non_negative(self):
        codec = IntegerCodec(bits=3, symmetric=True)
        qt = codec.quantize(np.linspace(-1, 1, 20))
        idx = qt.indices()
        assert idx.min() >= 0 and idx.max() < codec.num_levels
