"""Tests for repro.quant.integer: codecs, ranges and edge cases."""

import numpy as np
import pytest

from repro.quant.integer import (
    IntegerCodec,
    dequantize,
    quantize_asymmetric,
    quantize_symmetric,
    signed_range,
    unsigned_range,
)


class TestRanges:
    def test_signed_range_one_bit_is_sign_set(self):
        assert signed_range(1) == (-1, 1)

    @pytest.mark.parametrize("bits,lo,hi", [(2, -2, 1), (4, -8, 7), (8, -128, 127)])
    def test_signed_range_multibit(self, bits, lo, hi):
        assert signed_range(bits) == (lo, hi)

    @pytest.mark.parametrize("bits,hi", [(1, 1), (3, 7), (8, 255)])
    def test_unsigned_range(self, bits, hi):
        assert unsigned_range(bits) == (0, hi)

    @pytest.mark.parametrize("fn", [signed_range, unsigned_range])
    def test_zero_bits_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0)


class TestSymmetric:
    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=256)
        codes, scale = quantize_symmetric(values, 4)
        recon = dequantize(codes, scale)
        assert np.max(np.abs(recon - values)) <= scale / 2 + 1e-12

    def test_codes_within_signed_range(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=100) * 10
        for bits in (2, 3, 4, 8):
            codes, _ = quantize_symmetric(values, bits)
            lo, hi = signed_range(bits)
            assert codes.min() >= lo and codes.max() <= hi

    def test_one_bit_is_sign_code_with_zero_mapping_to_plus_one(self):
        values = np.array([-2.0, -0.1, 0.0, 0.1, 2.0])
        codes, scale = quantize_symmetric(values, 1)
        assert codes.tolist() == [-1, -1, 1, 1, 1]
        assert scale > 0

    def test_one_bit_codes_are_sign_of_value_including_negative_zero(self):
        rng = np.random.default_rng(11)
        values = np.concatenate([rng.normal(size=200), [-0.0, 0.0, -1e-300, 1e-300]])
        codes, _ = quantize_symmetric(values, 1)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, np.where(values >= 0, 1, -1))
        assert codes[-4:].tolist() == [1, 1, -1, 1]

    def test_multibit_ties_round_half_to_even(self):
        # max |v| = 7 makes the 4-bit scale exactly 1, so these are ties.
        values = np.array([7.0, 0.5, 1.5, 2.5, 6.5, -0.5, -1.5, -2.5, -6.5])
        codes, scale = quantize_symmetric(values, 4)
        assert scale == 1.0
        assert codes.tolist() == [7, 0, 2, 2, 6, 0, -2, -2, -6]

    @pytest.mark.parametrize("bits", [2, 3, 4, 8])
    def test_multibit_codes_equal_round_then_clip(self, bits):
        values = np.random.default_rng(bits).normal(size=(33, 7)) * 3
        codes, scale = quantize_symmetric(values, bits)
        lo, hi = signed_range(bits)
        ref = np.clip(np.round(values / scale), lo, hi).astype(np.int64)
        assert codes.dtype == np.int64
        assert np.array_equal(codes, ref)

    def test_empty_tensor(self):
        codes, scale = quantize_symmetric(np.array([]), 4)
        assert codes.shape == (0,) and scale == 1.0

    def test_all_zero_tensor(self):
        codes, scale = quantize_symmetric(np.zeros(5), 4)
        assert np.array_equal(codes, np.zeros(5, dtype=np.int64))
        assert scale == 1.0


class TestAsymmetric:
    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(-1, 3, size=256)
        codes, scale, zp = quantize_asymmetric(values, 4)
        recon = dequantize(codes, scale, zp)
        assert np.max(np.abs(recon - values)) <= scale / 2 + 1e-12

    def test_zero_point_clamped_into_code_range(self):
        # All-positive values drive the raw zero point negative; it must
        # clamp to the unsigned range.
        values = np.array([10.0, 11.0, 12.0])
        codes, scale, zp = quantize_asymmetric(values, 3)
        lo, hi = unsigned_range(3)
        assert lo <= zp <= hi
        assert codes.min() >= lo and codes.max() <= hi

    def test_constant_tensor(self):
        codes, scale, zp = quantize_asymmetric(np.full(4, 2.5), 4)
        assert np.array_equal(codes, np.zeros(4, dtype=np.int64))
        assert scale == 1.0 and zp == 0

    def test_empty_tensor(self):
        codes, scale, zp = quantize_asymmetric(np.array([]), 4)
        assert codes.shape == (0,) and scale == 1.0 and zp == 0


class TestIntegerCodec:
    def test_quantize_returns_tensor_with_round_trip(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=64)
        codec = IntegerCodec(bits=4, symmetric=True)
        qt = codec.quantize(values)
        assert np.max(np.abs(qt.dequantize() - values)) <= qt.scale / 2 + 1e-12

    @pytest.mark.parametrize("bits", [1, 2, 4])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_index_round_trip(self, bits, symmetric):
        codec = IntegerCodec(bits=bits, symmetric=symmetric)
        values = codec.code_values()
        codes = codec.from_indices(np.arange(codec.num_levels))
        back = codec.to_indices(codes)
        assert np.array_equal(back, np.arange(codec.num_levels))
        assert len(values) == codec.num_levels

    def test_one_bit_index_round_trip(self):
        codec = IntegerCodec(bits=1, symmetric=True)
        codes = np.random.default_rng(12).choice([-1, 1], size=(9, 5))
        idx = codec.to_indices(codes)
        assert idx.dtype == np.int64
        assert np.array_equal(idx, (codes > 0).astype(np.int64))
        assert np.array_equal(codec.from_indices(idx), codes)

    def test_one_bit_code_values(self):
        codec = IntegerCodec(bits=1, symmetric=True)
        assert codec.code_values().tolist() == [-1.0, 1.0]

    def test_indices_are_contiguous_from_zero(self):
        codec = IntegerCodec(bits=3, symmetric=True)
        idx = codec.to_indices(np.arange(-4, 4))
        assert np.array_equal(idx, np.arange(8))


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFinite:
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_symmetric_rejects(self, bits, bad):
        with pytest.raises(ValueError, match="1 non-finite"):
            quantize_symmetric(np.array([1.0, bad, -2.0]), bits)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("bits", [1, 4, 8])
    def test_asymmetric_rejects(self, bits, bad):
        with pytest.raises(ValueError, match="1 non-finite"):
            quantize_asymmetric(np.array([1.0, bad, -2.0]), bits)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_codec_names_the_count(self, symmetric):
        values = np.array([[np.nan, 1.0], [np.inf, -np.inf]])
        with pytest.raises(ValueError, match="3 non-finite"):
            IntegerCodec(bits=4, symmetric=symmetric).quantize(values)

    def test_overflowing_range_rejected_by_scale_check(self):
        # Finite inputs whose range overflows float64 give an infinite scale.
        with pytest.raises(ValueError, match="finite and positive"):
            IntegerCodec(bits=4, symmetric=False).quantize(np.array([-1e308, 1e308]))
