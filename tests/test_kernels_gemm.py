"""Tests for the LUT-GEMM kernel and baselines.

Covers the PR's acceptance criteria: bit-exactness of the LUT-GEMM
accumulator against a numpy integer matmul for W1A3, W2A2 and W4A4, and
the decomposition of ExecutionStats latency into L_D / L_local / DMA /
host terms consistent with UpmemTimings.
"""

import importlib

import numpy as np
import pytest

from repro.kernels import (
    ablation_sweep,
    gemm_cost,
    lut_gemm,
    naive_pim_gemm,
    quantize_gemm_operands,
    software_reorder_gemm,
)
from repro.kernels.lut import CanonicalLut
from repro.kernels.packing import elems_per_byte
from repro.pim import UpmemConfig, UpmemSystem
from repro.pim.buffer import BufferOverflowError
from repro.quant import IntegerCodec, get_scheme, list_schemes

SCHEMES = ("W1A3", "W2A2", "W4A4")


def _operands(scheme_name, m=5, k=32, n=17, seed=0):
    rng = np.random.default_rng(seed)
    scheme = get_scheme(scheme_name)
    return quantize_gemm_operands(
        rng.normal(size=(m, k)), rng.normal(size=(k, n)), scheme
    )


def _reference_accumulator(a_q, w_q):
    """The numpy integer-matmul reference: zero-point-corrected codes."""
    return (a_q.codes - a_q.zero_point) @ w_q.codes


class TestBitExactness:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_lut_gemm_matches_numpy_integer_matmul(self, scheme):
        a_q, w_q = _operands(scheme)
        res = lut_gemm(a_q, w_q)
        ref = _reference_accumulator(a_q, w_q)
        assert res.accumulator.dtype == np.int64
        assert np.array_equal(res.accumulator, ref)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_output_is_scaled_accumulator(self, scheme):
        a_q, w_q = _operands(scheme)
        res = lut_gemm(a_q, w_q)
        expected = res.accumulator.astype(np.float64) * (a_q.scale * w_q.scale)
        assert np.array_equal(res.output, expected)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_kernels_agree(self, scheme):
        a_q, w_q = _operands(scheme, m=3, k=24, n=9, seed=3)
        ref = _reference_accumulator(a_q, w_q)
        for fn in (lut_gemm, software_reorder_gemm, naive_pim_gemm):
            assert np.array_equal(fn(a_q, w_q).accumulator, ref), fn.__name__

    @pytest.mark.parametrize("m,k,n", [(1, 8, 1), (7, 40, 3), (2, 33, 5)])
    def test_odd_shapes_including_ragged_packing(self, m, k, n):
        a_q, w_q = _operands("W1A3", m=m, k=k, n=n, seed=m * k + n)
        res = lut_gemm(a_q, w_q)
        assert np.array_equal(res.accumulator, _reference_accumulator(a_q, w_q))

    def test_minifloat_scheme_close_to_float_reference(self):
        rng = np.random.default_rng(5)
        scheme = get_scheme("W1A8-FP")
        a_q, w_q = quantize_gemm_operands(
            rng.normal(size=(4, 16)), rng.normal(size=(16, 6)), scheme
        )
        res = lut_gemm(a_q, w_q)
        ref = a_q.dequantize() @ w_q.dequantize()
        assert np.allclose(res.output, ref)


def _lut_fits(scheme_name):
    try:
        gemm_cost(get_scheme(scheme_name), 1, 1, 1)
    except BufferOverflowError:
        return False
    return True


FITTING_SCHEMES = tuple(s for s in list_schemes() if _lut_fits(s))


class TestByteGroupAccumulate:
    """Differential test of the packed-byte accumulate against the
    per-element reference gather ``table[w_idx, a_idx].sum(0)``."""

    def test_fitting_schemes_cover_every_packed_width(self):
        widths = {get_scheme(s).weight_bits for s in FITTING_SCHEMES}
        assert widths == {1, 2, 4}

    @pytest.mark.parametrize("scheme_name", FITTING_SCHEMES)
    @pytest.mark.parametrize("software_reorder", [False, True])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("k", [13, 37])  # ragged for 8, 4 and 2 per byte
    def test_matches_per_element_gather(self, scheme_name, software_reorder, m, k):
        scheme = get_scheme(scheme_name)
        assert k % elems_per_byte(scheme.weight_bits) != 0
        a_q, w_q = _operands(scheme_name, m=m, k=k, n=6, seed=m * 100 + k)
        res = lut_gemm(a_q, w_q, software_reorder=software_reorder)
        table = CanonicalLut.build(w_q, a_q).table
        w_idx = w_q.indices()
        ref = np.stack([table[w_idx, row[:, None]].sum(0) for row in a_q.indices()])
        assert res.accumulator.dtype == table.dtype
        integer_pair = isinstance(scheme.weight_codec, IntegerCodec) and isinstance(
            scheme.activation_codec, IntegerCodec
        )
        if integer_pair:
            assert np.array_equal(res.accumulator, ref)
        else:
            assert np.allclose(res.accumulator, ref)


class TestStatsDecomposition:
    def test_terms_anchored_to_timings(self):
        system = UpmemSystem()
        t = system.timings
        a_q, w_q = _operands("W2A2", m=4, k=64, n=32)
        stats = lut_gemm(a_q, w_q, system=system).stats

        # L_local term: one fused lookup per (m, k, column-on-critical-DPU).
        n_dpus, cols = system.partition(32)
        assert stats.n_lookups == 4 * 64 * cols
        assert stats.compute_s == pytest.approx(stats.n_lookups * t.local_lookup_latency_s)

        # L_D term: canonical (4x4 entries) plus reordering (256x4) LUT
        # entries — both tables are staged from DRAM, so the loads sum.
        assert stats.n_lut_entry_pairs == 16 + 256 * 4
        assert stats.lut_load_s == pytest.approx(
            stats.n_lut_entry_pairs * t.dram_entry_load_latency_s
        )

        # RC on: no software reorder time.
        assert stats.reorder_s == 0.0 and stats.n_reorders == 0

        # Total is exactly the sum of the four terms plus host time.
        assert stats.total_s == pytest.approx(
            stats.lut_load_s + stats.compute_s + stats.dma_s + stats.host_s
        )

    def test_dma_bytes_cover_packed_weights_activations_outputs(self):
        system = UpmemSystem()
        t = system.timings
        m, k, n = 4, 64, 32
        a_q, w_q = _operands("W2A2", m=m, k=k, n=n)
        stats = lut_gemm(a_q, w_q, system=system).stats
        _, cols = system.partition(n)
        kb = -(-k // elems_per_byte(2))
        expected = kb * cols + m * k * 1 + m * cols * t.accumulator_bytes
        assert stats.dma_bytes == expected
        assert stats.dma_s > 0

    def test_host_time_matches_transfer_model(self):
        system = UpmemSystem(UpmemConfig(num_ranks=2))
        t = system.timings
        m, k, n = 4, 64, 32
        a_q, w_q = _operands("W1A3", m=m, k=k, n=n)
        stats = lut_gemm(a_q, w_q, system=system).stats
        act_bytes = m * k
        out_bytes = m * n * t.accumulator_bytes
        expected = (
            t.host_latency_s
            + act_bytes / t.host_bandwidth_bytes_per_s
            + t.host_latency_s
            + out_bytes / (t.host_bandwidth_bytes_per_s * 2)
        )
        assert stats.host_s == pytest.approx(expected)

    def test_software_reorder_adds_reorder_term(self):
        a_q, w_q = _operands("W2A2")
        t = UpmemSystem().timings
        stats = software_reorder_gemm(a_q, w_q).stats
        assert stats.n_reorders == stats.n_lookups > 0
        assert stats.reorder_s == pytest.approx(stats.n_reorders * t.reorder_latency_s)
        # Without RC the reordering LUT is not staged.
        assert stats.n_lut_entry_pairs == 16

    def test_naive_uses_mac_latency_and_no_luts(self):
        a_q, w_q = _operands("W4A4")
        t = UpmemSystem().timings
        stats = naive_pim_gemm(a_q, w_q).stats
        assert stats.n_lookups == 0 and stats.n_lut_entry_pairs == 0
        assert stats.lut_load_s == 0.0
        assert stats.compute_s == pytest.approx(stats.n_macs * t.int8_mac_latency_s)

    def test_wram_peak_and_dram_activations_recorded(self):
        a_q, w_q = _operands("W4A4", m=8, k=128, n=64)
        stats = lut_gemm(a_q, w_q).stats
        assert stats.wram_peak_bytes > 0
        assert stats.dram_activations >= 1
        assert stats.n_dpus_used == 64


class TestScalingBehaviour:
    def test_more_dpus_reduce_critical_path(self):
        a_q, w_q = _operands("W2A2", m=8, k=64, n=256)
        small = UpmemSystem(UpmemConfig(num_ranks=1, dpus_per_rank=8))
        large = UpmemSystem(UpmemConfig(num_ranks=1, dpus_per_rank=64))
        assert (
            lut_gemm(a_q, w_q, system=large).stats.device_s
            < lut_gemm(a_q, w_q, system=small).stats.device_s
        )

    def test_reorder_lut_removes_software_overhead(self):
        a_q, w_q = _operands("W1A3", m=8, k=64, n=64)
        with_rc = lut_gemm(a_q, w_q).stats
        without_rc = software_reorder_gemm(a_q, w_q).stats
        assert with_rc.device_s < without_rc.device_s
        assert without_rc.reorder_s > 0

    def test_ablation_sweep_returns_all_rungs(self):
        a_q, w_q = _operands("W2A2")
        results = ablation_sweep(a_q, w_q)
        assert set(results) == {"naive_pim_gemm", "software_reorder_gemm", "lut_gemm"}
        ref = _reference_accumulator(a_q, w_q)
        for res in results.values():
            assert np.array_equal(res.accumulator, ref)

    def test_packing_shrinks_weight_dma(self):
        a_q, w_q = _operands("W1A3", m=2, k=512, n=8)
        lut_bytes = lut_gemm(a_q, w_q).stats.dma_bytes
        naive_bytes = naive_pim_gemm(a_q, w_q).stats.dma_bytes
        assert lut_bytes < naive_bytes  # 1-bit weights pack 8x


class TestEdgeCases:
    def test_empty_output_dimension(self):
        a_q, w_q = _operands("W2A2", m=3, k=8, n=17)
        empty_w = w_q.codec.quantize(np.zeros((8, 0)))
        res = lut_gemm(a_q, empty_w)
        assert res.output.shape == (3, 0)
        assert res.stats.total_s == 0.0

    def test_mismatched_inner_dims_rejected(self):
        a_q, w_q = _operands("W2A2", m=3, k=8, n=4)
        bad_w = w_q.codec.quantize(np.ones((9, 4)))
        with pytest.raises(ValueError):
            lut_gemm(a_q, bad_w)

    def test_non_2d_operands_rejected(self):
        scheme = get_scheme("W2A2")
        a3 = scheme.activation_codec.quantize(np.ones((2, 3, 4)))
        w = scheme.weight_codec.quantize(np.ones((3, 4)))
        with pytest.raises(ValueError):
            lut_gemm(a3, w)

    def test_w8a8_canonical_lut_exceeds_wram(self):
        # 256 x 256 x 4 B = 256 KB does not fit the 64 KB WRAM: the
        # capacity model must refuse rather than silently mis-cost.
        a_q, w_q = _operands("W8A8")
        with pytest.raises(BufferOverflowError, match="cannot run on the LUT kernel"):
            lut_gemm(a_q, w_q)
        # The 8-bit schemes remain runnable on the MAC baseline.
        assert np.array_equal(
            naive_pim_gemm(a_q, w_q).accumulator, _reference_accumulator(a_q, w_q)
        )

    @pytest.mark.parametrize("scheme_name", ["W8A8", "W1A16-FP"])
    @pytest.mark.parametrize("software_reorder", [False, True])
    def test_lut_fit_checked_before_functional_work(
        self, monkeypatch, scheme_name, software_reorder
    ):
        def no_functional_work(*args, **kwargs):
            raise AssertionError("weights packed before the LUT fit check")

        kernel_module = importlib.import_module("repro.kernels.lut_gemm")
        monkeypatch.setattr(kernel_module, "pack_codes", no_functional_work)
        a_q, w_q = _operands(scheme_name, m=2, k=16, n=3)
        with pytest.raises(BufferOverflowError):
            lut_gemm(a_q, w_q, software_reorder=software_reorder)

    def test_naive_rejects_minifloat_operands(self):
        rng = np.random.default_rng(6)
        scheme = get_scheme("W1A4-FP")
        a_q, w_q = quantize_gemm_operands(
            rng.normal(size=(2, 8)), rng.normal(size=(8, 3)), scheme
        )
        with pytest.raises(ValueError):
            naive_pim_gemm(a_q, w_q)
