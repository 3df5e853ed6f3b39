"""Tests for repro.kernels.packing: operand packing (OP)."""

import numpy as np
import pytest

from repro.kernels.packing import elems_per_byte, pack_codes, unpack_codes


class TestElemsPerByte:
    @pytest.mark.parametrize("bits,epb", [(1, 8), (2, 4), (4, 2), (8, 1)])
    def test_supported_widths(self, bits, epb):
        assert elems_per_byte(bits) == epb

    @pytest.mark.parametrize("bits", [0, 3, 5, 16])
    def test_unsupported_widths_rejected(self, bits):
        with pytest.raises(ValueError):
            elems_per_byte(bits)


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_2d_round_trip(self, bits):
        rng = np.random.default_rng(bits)
        idx = rng.integers(0, 2**bits, size=(37, 5))  # ragged K on purpose
        packed = pack_codes(idx, bits)
        assert packed.dtype == np.uint8
        assert packed.shape == (-(-37 // elems_per_byte(bits)), 5)
        back = unpack_codes(packed, bits, 37)
        assert np.array_equal(back, idx)

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_3d_round_trip_is_uint8(self, bits):
        rng = np.random.default_rng(10 + bits)
        idx = rng.integers(0, 2**bits, size=(13, 4, 3))
        packed = pack_codes(idx, bits)
        assert packed.dtype == np.uint8
        assert packed.shape == (-(-13 // elems_per_byte(bits)), 4, 3)
        assert np.array_equal(unpack_codes(packed, bits, 13), idx)

    def test_1d_round_trip(self):
        idx = np.array([1, 0, 1, 1, 0, 1, 0, 0, 1])
        packed = pack_codes(idx, 1)
        assert packed.shape == (2,)
        assert np.array_equal(unpack_codes(packed, 1, 9), idx)

    def test_known_byte_layout(self):
        # Slot i occupies bits [i*bits, (i+1)*bits): element 0 is the LSB.
        idx = np.array([1, 0, 3, 2])
        packed = pack_codes(idx, 2)
        assert packed.tolist() == [0b10_11_00_01]

    def test_compression_ratio(self):
        idx = np.zeros((64, 3), dtype=np.int64)
        assert pack_codes(idx, 1).shape[0] == 8
        assert pack_codes(idx, 4).shape[0] == 32

    def test_empty_input(self):
        packed = pack_codes(np.zeros((0, 4), dtype=np.int64), 2)
        assert packed.shape == (0, 4)
        assert unpack_codes(packed, 2, 0).shape == (0, 4)


class TestValidation:
    def test_out_of_range_codes_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([4]), 2)
        with pytest.raises(ValueError):
            pack_codes(np.array([-1]), 2)

    def test_unpack_count_validated(self):
        packed = pack_codes(np.zeros(8, dtype=np.int64), 1)
        with pytest.raises(ValueError):
            unpack_codes(packed, 1, 9)

    def test_scalar_input_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.int64(1), 1)
