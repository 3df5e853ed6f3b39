"""Cost-only GEMM entry points must match the functional kernels exactly."""

import re
from collections import Counter

import numpy as np
import pytest

from repro.experiments.sweep import SweepSpec, run_sweep
from repro.kernels import (
    gemm_cost,
    batch_gemm_cost,
    lut_gemm,
    naive_pim_gemm,
    quantize_gemm_operands,
    software_reorder_gemm,
)
from repro.kernels.baselines import _check_naive_codecs, _naive_cost_stats
from repro.kernels.cost import (
    COST_KERNELS,
    _cached_cost,
    _dummy_operands,
    _scheme_luts,
)
from repro.kernels.lut import CanonicalLut, ReorderingLut
from repro.kernels.lut_gemm import _lut_cost_stats
from repro.pim.buffer import BufferOverflowError
from repro.pim.upmem import UpmemConfig, UpmemSystem
from repro.quant import get_scheme, list_schemes

KERNEL_FNS = {
    "lut_gemm": lut_gemm,
    "software_reorder_gemm": software_reorder_gemm,
    "naive_pim_gemm": naive_pim_gemm,
}


@pytest.mark.parametrize("scheme_name", ["W1A3", "W2A2", "W4A4"])
@pytest.mark.parametrize("kernel", sorted(KERNEL_FNS))
def test_cost_matches_functional_kernel(scheme_name, kernel):
    scheme = get_scheme(scheme_name)
    rng = np.random.default_rng(7)
    a_q, w_q = quantize_gemm_operands(
        rng.normal(size=(5, 24)), rng.normal(size=(24, 10)), scheme
    )
    functional = KERNEL_FNS[kernel](a_q, w_q).stats
    analytical = gemm_cost(scheme, 5, 24, 10, kernel=kernel)
    assert analytical == functional


def test_cost_matches_on_multi_rank_system():
    scheme = get_scheme("W1A3")
    system = UpmemSystem(UpmemConfig(num_ranks=4))
    rng = np.random.default_rng(0)
    a_q, w_q = quantize_gemm_operands(
        rng.normal(size=(3, 16)), rng.normal(size=(16, 300)), scheme
    )
    assert gemm_cost(scheme, 3, 16, 300, system=system) == lut_gemm(a_q, w_q, system=system).stats


def test_cost_accepts_scheme_names():
    assert gemm_cost("w1a3", 4, 8, 8) == gemm_cost(get_scheme("W1A3"), 4, 8, 8)


def test_cost_returns_independent_copies():
    first = gemm_cost("W1A3", 4, 8, 8)
    first.compute_s = -1.0
    assert gemm_cost("W1A3", 4, 8, 8).compute_s >= 0.0


def test_cost_zero_dimensions():
    stats = gemm_cost("W1A3", 0, 8, 8)
    assert stats.total_s == 0.0
    assert gemm_cost("W1A3", 4, 8, 0).n_dpus_used == 0


def test_cost_rejects_negative_dimensions_and_bad_kernel():
    with pytest.raises(ValueError):
        gemm_cost("W1A3", -1, 8, 8)
    with pytest.raises(ValueError):
        gemm_cost("W1A3", 4, 8, 8, kernel="fused_gemm")


def test_lut_cost_overflows_for_wide_schemes():
    with pytest.raises(BufferOverflowError):
        gemm_cost("W8A8", 4, 8, 8, kernel="lut_gemm")
    # ...but the naive baseline runs W8A8 fine.
    assert gemm_cost("W8A8", 4, 8, 8, kernel="naive_pim_gemm").n_macs > 0


def test_naive_cost_rejects_wide_and_floating_codecs():
    with pytest.raises(ValueError):
        gemm_cost("W16A16", 4, 8, 8, kernel="naive_pim_gemm")
    with pytest.raises(ValueError):
        gemm_cost("W1A4-FP", 4, 8, 8, kernel="naive_pim_gemm")


def test_floating_scheme_costs_on_lut_kernel():
    scheme = get_scheme("W1A4-FP")
    rng = np.random.default_rng(1)
    a_q, w_q = quantize_gemm_operands(
        rng.normal(size=(3, 8)), rng.normal(size=(8, 6)), scheme
    )
    assert gemm_cost(scheme, 3, 8, 6) == lut_gemm(a_q, w_q).stats


def test_batch_gemm_cost_is_sequential_sum():
    shapes = [("W1A3", 4, 16, 8), ("W4A4", 2, 16, 8)]
    total = batch_gemm_cost(shapes)
    expected = gemm_cost("W1A3", 4, 16, 8) + gemm_cost("W4A4", 2, 16, 8)
    assert total.total_s == pytest.approx(expected.total_s)
    assert total.n_lookups == expected.n_lookups
    assert total.wram_peak_bytes == expected.wram_peak_bytes


def _clear_cost_caches():
    _cached_cost.cache_clear()
    _scheme_luts.cache_clear()


def test_sweep_builds_each_scheme_lut_once(monkeypatch):
    _clear_cost_caches()
    calls = Counter()
    build_clut, build_rlut = CanonicalLut.build, ReorderingLut.build

    def count_clut(weights, activations):
        calls["canonical"] += 1
        return build_clut(weights, activations)

    def count_rlut(bits):
        calls["reordering"] += 1
        return build_rlut(bits)

    monkeypatch.setattr(CanonicalLut, "build", count_clut)
    monkeypatch.setattr(ReorderingLut, "build", count_rlut)
    schemes = tuple(list_schemes())
    rows = run_sweep(SweepSpec(
        models=("gpt-125m", "gpt-350m"), schemes=schemes, kernels=COST_KERNELS,
        batch_sizes=(1, 2), prefill_lens=(16, 64), decode_tokens=4,
        num_ranks=(1, 4),
    ))
    assert any(row["status"] == "unsupported" for row in rows)
    # At most one build of each LUT per scheme, overflowing ones included.
    assert 0 < calls["canonical"] <= len(schemes)
    assert 0 < calls["reordering"] <= len(schemes)


def test_memoised_luts_are_read_only():
    clut, rlut = _scheme_luts(get_scheme("W1A3"))
    with pytest.raises(ValueError):
        clut.table[0, 0] = 1
    with pytest.raises(ValueError):
        rlut.table[0, 0] = 1


def _uncached_cost(scheme, m, k, n, kernel, system):
    if kernel == "naive_pim_gemm":
        _check_naive_codecs(scheme.activation_codec, scheme.weight_codec)
        return _naive_cost_stats(system, scheme.activation_bits, m, k, n)
    activations, weights = _dummy_operands(scheme)
    software_reorder = kernel == "software_reorder_gemm"
    rlut = None if software_reorder else ReorderingLut.build(scheme.weight_bits)
    clut = CanonicalLut.build(weights, activations)
    return _lut_cost_stats(system, clut, rlut, scheme.weight_bits,
                           scheme.activation_bits, m, k, n, software_reorder)


@pytest.mark.parametrize("kernel", COST_KERNELS)
def test_memoised_cost_equals_fresh_uncached_cost(kernel):
    _clear_cost_caches()
    system = UpmemSystem(UpmemConfig(num_ranks=2))
    for name in list_schemes():
        scheme = get_scheme(name)
        for m, k, n in [(1, 64, 96), (3, 256, 300), (16, 768, 2304)]:
            try:
                expected = _uncached_cost(scheme, m, k, n, kernel,
                                          UpmemSystem(system.config))
            except (BufferOverflowError, ValueError) as exc:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    gemm_cost(scheme, m, k, n, system=system, kernel=kernel)
                continue
            assert gemm_cost(scheme, m, k, n, system=system, kernel=kernel) == expected
