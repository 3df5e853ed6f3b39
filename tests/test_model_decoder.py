"""Functional decoder block and the cost-only model inference path."""

import numpy as np
import pytest

from repro.kernels import gemm_cost, lut_gemm
from repro.model import (
    ATTENTION_SCHEME,
    DecoderBlock,
    ModelConfig,
    SchemePolicy,
    block_gemm_cost,
    get_model_config,
    model_inference_cost,
    packed_weight_bytes,
    policy_weight_bytes,
)
from repro.pim.upmem import UpmemConfig, UpmemSystem

TINY = ModelConfig("tiny", hidden_size=32, num_layers=2, num_heads=4, ffn_size=64)


def test_forward_shapes_and_cache():
    block = DecoderBlock(TINY, SchemePolicy("W1A3"), seed=3)
    x = np.random.default_rng(0).normal(size=(2, 5, 32))
    res = block.forward(x)
    assert res.output.shape == (2, 5, 32)
    assert res.cache.tokens == 5
    assert res.cache.footprint_bytes == 2 * 2 * 5 * 32 * TINY.kv_bytes_per_value
    assert set(res.per_gemm) == {
        "qkv", "attn_out", "ffn_up", "ffn_down", "attn_scores", "attn_values"
    }
    # Block stats are the sum of the six GEMMs.
    assert res.stats.total_s == pytest.approx(
        sum(s.total_s for s in res.per_gemm.values())
    )


def test_forward_rejects_bad_input():
    block = DecoderBlock(TINY, SchemePolicy("W1A3"))
    with pytest.raises(ValueError):
        block.forward(np.zeros((2, 5, 16)))
    with pytest.raises(ValueError):
        block.forward(np.zeros((5, 32)))


def test_incremental_decode_matches_cache_growth():
    block = DecoderBlock(TINY, SchemePolicy("W1A3"), seed=1)
    x = np.random.default_rng(1).normal(size=(1, 4, 32))
    prefill = block.forward(x)
    step = block.forward(prefill.output[:, -1:, :], cache=prefill.cache)
    assert step.output.shape == (1, 1, 32)
    assert step.cache.tokens == 5
    # Decode attention is costed against the full cached history.
    assert step.per_gemm["attn_scores"] == gemm_cost(
        ATTENTION_SCHEME, 1 * 4 * 1, TINY.head_dim, 5, kernel="naive_pim_gemm"
    )


def test_prefill_decode_equivalence():
    """Token t's output agrees whether computed in one prefill pass or
    incrementally against a cache (causal masking is consistent).

    Agreement is up to activation-quantization noise: per-tensor dynamic
    scales differ between a 6-token and a 5+1-token split, so a wide
    activation format (A8) keeps the deviation a couple of orders of
    magnitude below the signal.
    """
    x = np.random.default_rng(5).normal(size=(1, 6, 32))
    full = DecoderBlock(TINY, SchemePolicy("W4A8"), seed=2).forward(x)
    block = DecoderBlock(TINY, SchemePolicy("W4A8"), seed=2)
    pre = block.forward(x[:, :5, :])
    step = block.forward(x[:, 5:, :], cache=pre.cache)
    np.testing.assert_allclose(step.output[0, 0], full.output[0, 5], atol=5e-3)


def test_block_projection_stats_match_direct_lut_gemm():
    """The functional block's projection stats equal direct kernel calls
    on the same shapes (the sweep-consistency contract, functional side)."""
    policy = SchemePolicy("W1A3")
    block = DecoderBlock(TINY, policy, seed=4)
    x = np.random.default_rng(4).normal(size=(1, 3, 32))
    res = block.forward(x)
    for name, (k, n) in TINY.projection_shapes().items():
        assert res.per_gemm[name] == gemm_cost(policy.default, 3, k, n), name


def test_per_layer_override_changes_weights():
    policy = SchemePolicy("W1A3", layer_overrides={1: "W4A4"})
    b0 = DecoderBlock(TINY, policy, layer_index=0)
    b1 = DecoderBlock(TINY, policy, layer_index=1)
    assert b0.weights["qkv"].bits == 1
    assert b1.weights["qkv"].bits == 4


def test_block_gemm_cost_layers_and_attention():
    system = UpmemSystem(UpmemConfig(num_ranks=2))
    total, per_gemm = block_gemm_cost(
        TINY, SchemePolicy("W1A3"), layer=0, batch=2, seq_q=3, kv_len=7, system=system
    )
    assert per_gemm["qkv"] == gemm_cost("W1A3", 6, 32, 96, system=system)
    assert per_gemm["attn_scores"] == gemm_cost(
        ATTENTION_SCHEME, 2 * 4 * 3, 8, 7, system=system, kernel="naive_pim_gemm"
    )
    assert total.total_s == pytest.approx(sum(s.total_s for s in per_gemm.values()))


def test_model_inference_cost_aggregates_layers():
    cost = model_inference_cost(
        TINY, SchemePolicy("W1A3"), batch=1, prefill_tokens=4, decode_tokens=2
    )
    block, _ = block_gemm_cost(TINY, SchemePolicy("W1A3"), 0, 1, 4, 4)
    assert cost.prefill.stats.total_s == pytest.approx(
        TINY.num_layers * block.total_s
    )
    assert cost.prefill.tokens == 4 and cost.decode.tokens == 2
    assert cost.kv_cache_bytes == TINY.kv_cache_bytes(1, 6)
    assert cost.total_s == pytest.approx(
        cost.prefill.latency_s + cost.decode.latency_s
    )
    assert cost.total_energy_j > 0
    # Layer-0 prefill projections are exposed for consistency checks.
    assert cost.per_projection["qkv"] == gemm_cost("W1A3", 4, 32, 96)


def test_model_inference_cost_zero_decode():
    cost = model_inference_cost(
        TINY, SchemePolicy("W1A3"), prefill_tokens=2, decode_tokens=0
    )
    assert cost.decode.latency_s == 0.0
    assert cost.decode.tokens_per_s == 0.0


def test_model_inference_cost_validation():
    with pytest.raises(ValueError):
        model_inference_cost(TINY, SchemePolicy("W1A3"), prefill_tokens=0)
    with pytest.raises(ValueError):
        model_inference_cost(TINY, SchemePolicy("W1A3"), batch=0)
    with pytest.raises(ValueError):
        model_inference_cost(TINY, SchemePolicy("W1A3"), decode_tokens=-1)


def test_full_size_model_costs_quickly_and_sensibly():
    cost = model_inference_cost(
        get_model_config("gpt-350m"),
        SchemePolicy("W1A3"),
        prefill_tokens=32,
        decode_tokens=4,
        system=UpmemSystem(UpmemConfig(num_ranks=4)),
    )
    assert cost.prefill.latency_s > cost.decode.latency_s / 4  # prefill >> one step
    assert cost.weight_bytes == get_model_config("gpt-350m").weight_footprint_bytes("W1A3")


def _loop_weight_bytes(config, policy):
    """Reference: sum every (layer, projection) pair of the stack."""
    return sum(
        packed_weight_bytes(k, n, policy.scheme_for(layer, name).weight_bits)
        for layer in range(config.num_layers)
        for name, (k, n) in config.projection_shapes().items()
    )


@pytest.mark.parametrize(
    "policy",
    [
        SchemePolicy("W1A3"),
        SchemePolicy("W4A4", projection_overrides={"ffn_up": "W1A3", "qkv": "W2A2"}),
        # Layers 7 and -1 lie outside the 4-layer stack and must be ignored.
        SchemePolicy("W2A2", layer_overrides={0: "W8A8", 2: "W1A3", 7: "W4A4", -1: "W1A3"}),
        SchemePolicy(
            "W1A3",
            layer_overrides={1: "W4A4", 3: "W8A8"},
            projection_overrides={"attn_out": "W2A2", "ffn_down": "W4A4"},
        ),
        SchemePolicy("W1A3", layer_overrides={layer: "W2A2" for layer in range(4)}),
    ],
)
def test_policy_weight_bytes_equals_per_layer_loop(policy):
    # Odd widths so packing at 1, 2 and 4 bits leaves ragged bytes.
    config = ModelConfig("ragged", hidden_size=36, num_layers=4, num_heads=4, ffn_size=100)
    got = policy_weight_bytes(config, policy)
    assert isinstance(got, int)
    assert got == _loop_weight_bytes(config, policy)
    big = get_model_config("gpt-1.3b")
    assert policy_weight_bytes(big, policy) == _loop_weight_bytes(big, policy)
