"""Cost-only transformer inference on the DRAM-PIM substrate.

This module maps a whole GPT-style decoder stack onto the analytical
kernel costs in :mod:`repro.kernels.cost` — no operand arrays are ever
materialised, so full-size models (GPT-6.7B) sweep in milliseconds.

Inference is split the way the paper's model figures are: a **prefill**
phase that pushes the whole prompt through every layer, and a **decode**
phase that generates tokens one at a time against a growing KV cache.
Per phase, each decoder block contributes

* four weight-GEMM costs routed through the selected kernel
  (``lut_gemm`` by default; the baselines reproduce the OP/LC/RC
  ablation at model scale), resolved per layer/projection by the
  :class:`~repro.model.policy.SchemePolicy`, and
* two attention matmul costs (scores ``Q K^T`` and values ``P V``)
  always costed on the substrate's native int8-MAC path at
  :data:`~repro.model.decoder.ATTENTION_SCHEME` precision, since LUTs
  only apply to static weight operands.

Because the per-GEMM stats come from the same shared cost functions the
functional kernels use, a sweep's GEMM components are guaranteed to be
identical to direct :func:`~repro.kernels.lut_gemm.lut_gemm` calls on
the same shapes.

The decode phase is aggregated in **closed form** by default: per-step
weight-GEMM stats are constant, and the attention matmuls' growth with
the KV length collapses to an exact analytical series (see
:func:`decode_phase_stats`), so costing long generations no longer
loops ``decode_tokens x num_layers`` times in Python.  The reference
loop is retained as ``decode_method="loop"`` and the equivalence is
tested field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.kernels.cost import (
    gemm_cost,
    naive_gemm_cost_sum_k,
    naive_gemm_cost_sum_n,
)
from repro.model.config import ModelConfig, packed_weight_bytes
from repro.model.decoder import ATTENTION_SCHEME, attention_gemm_costs
from repro.model.policy import SchemePolicy
from repro.pim.energy import EnergyBreakdown, EnergyModel
from repro.pim.upmem import ExecutionStats, UpmemSystem

__all__ = [
    "DECODE_METHODS",
    "PhaseCost",
    "InferenceCost",
    "block_gemm_cost",
    "decode_attention_stats_sum",
    "decode_phase_stats",
    "decode_segment_stats",
    "decode_step_weight_stats",
    "model_inference_cost",
    "policy_weight_bytes",
    "prefill_chunk_stats",
]


def _layers_identical(policy: SchemePolicy) -> bool:
    """True when every decoder layer resolves to the same schemes.

    Projection overrides apply uniformly to all layers, so only
    *layer* overrides can make blocks differ; without them, one block's
    stats can be scaled by ``num_layers`` instead of re-summed per
    layer (exact counts, float-rounding-equivalent latencies — see
    :meth:`~repro.pim.upmem.ExecutionStats.scaled`).
    """
    return not policy.layer_overrides

#: Decode-phase aggregation strategies accepted by
#: :func:`model_inference_cost` / :func:`decode_phase_stats`.
DECODE_METHODS = ("closed_form", "loop")


@dataclass
class PhaseCost:
    """Latency and energy of one inference phase (prefill or decode).

    Attributes
    ----------
    phase:
        ``"prefill"`` or ``"decode"``.
    tokens:
        Tokens processed in the phase across the batch.
    stats:
        Summed :class:`ExecutionStats` over all layers (and, for decode,
        all generated tokens).
    energy:
        :class:`EnergyBreakdown` attributed to those stats.
    """

    phase: str
    tokens: int
    stats: ExecutionStats
    energy: EnergyBreakdown

    @property
    def latency_s(self) -> float:
        """End-to-end phase latency in seconds."""
        return self.stats.total_s

    @property
    def tokens_per_s(self) -> float:
        """Phase throughput; 0 for an empty phase."""
        return self.tokens / self.latency_s if self.latency_s > 0 else 0.0


@dataclass
class InferenceCost:
    """Full-model inference cost: prefill + decode + footprints.

    ``per_projection`` holds layer-0 prefill stats for each GEMM in the
    block, so callers (and the acceptance tests) can check them against
    direct kernel invocations on the same shapes.
    """

    model: ModelConfig
    kernel: str
    batch: int
    prefill_tokens: int
    decode_tokens: int
    prefill: PhaseCost
    decode: PhaseCost
    kv_cache_bytes: int
    weight_bytes: int
    per_projection: Dict[str, ExecutionStats]

    @property
    def total_s(self) -> float:
        """Prefill plus decode latency."""
        return self.prefill.latency_s + self.decode.latency_s

    @property
    def total_energy_j(self) -> float:
        """Prefill plus decode energy in joules."""
        return self.prefill.energy.total_j + self.decode.energy.total_j


def policy_weight_bytes(config: ModelConfig, policy: SchemePolicy) -> int:
    """Packed-weight footprint of the stack under a (mixed) scheme policy.

    Every layer without a layer override resolves to the same schemes, so
    one block is summed once and scaled by their count; each overridden
    layer inside the stack is added on its own.
    """
    shapes = config.projection_shapes()

    def block_bytes(layer: int) -> int:
        return sum(
            packed_weight_bytes(k, n, policy.scheme_for(layer, name).weight_bits)
            for name, (k, n) in shapes.items()
        )

    overridden = {layer for layer in policy.layer_overrides if 0 <= layer < config.num_layers}
    total = sum(block_bytes(layer) for layer in overridden)
    plain = next((layer for layer in range(config.num_layers) if layer not in overridden), None)
    if plain is not None:
        total += (config.num_layers - len(overridden)) * block_bytes(plain)
    return total


def block_gemm_cost(
    config: ModelConfig,
    policy: SchemePolicy,
    layer: int,
    batch: int,
    seq_q: int,
    kv_len: int,
    system: Optional[UpmemSystem] = None,
    kernel: str = "lut_gemm",
) -> Tuple[ExecutionStats, Dict[str, ExecutionStats]]:
    """Cost of one decoder block processing ``seq_q`` query tokens.

    Parameters
    ----------
    layer:
        Block index (drives per-layer scheme overrides).
    batch, seq_q:
        The weight GEMMs see ``M = batch * seq_q`` rows.
    kv_len:
        KV positions visible to the queries (``seq_q`` during prefill,
        the full cached history plus one during decode).
    kernel:
        Weight-GEMM kernel; attention matmuls always use the native
        int8-MAC path (see module docstring).

    Returns
    -------
    (total, per_gemm):
        Summed block stats and the individual GEMM stats by name.
    """
    m = batch * seq_q
    per_gemm: Dict[str, ExecutionStats] = {}
    for name, (k, n) in config.projection_shapes().items():
        scheme = policy.scheme_for(layer, name)
        per_gemm[name] = gemm_cost(scheme, m, k, n, system=system, kernel=kernel)
    per_gemm.update(
        attention_gemm_costs(
            config.num_heads, config.head_dim, batch, seq_q, kv_len, system
        )
    )
    total = ExecutionStats(kernel="decoder_block")
    for stats in per_gemm.values():
        total = total + stats
    return total, per_gemm


def decode_step_weight_stats(
    config: ModelConfig,
    policy: SchemePolicy,
    batch: int,
    system: Optional[UpmemSystem] = None,
    kernel: str = "lut_gemm",
) -> ExecutionStats:
    """Weight-GEMM stats of *one* decode step, summed over every layer.

    A decode step pushes one query token per sequence through the stack,
    so every weight GEMM sees ``M = batch`` rows regardless of how far
    generation has progressed — these stats are constant across decode
    steps, which is what makes the closed-form decode aggregation (and
    the serving simulator's per-iteration costing) possible.  With no
    per-layer scheme overrides, one layer's GEMMs are costed once and
    scaled by ``num_layers``.
    """
    total = ExecutionStats(kernel="decode")
    shapes = config.projection_shapes()
    layers = range(1) if _layers_identical(policy) else range(config.num_layers)
    for layer in layers:
        for name in shapes:
            k, n = shapes[name]
            scheme = policy.scheme_for(layer, name)
            total = total + gemm_cost(scheme, batch, k, n, system=system, kernel=kernel)
    if _layers_identical(policy):
        total = total.scaled(config.num_layers)
    return total


def prefill_chunk_stats(
    config: ModelConfig,
    policy: SchemePolicy,
    batch: int,
    done_tokens: int,
    chunk_tokens: int,
    system: Optional[UpmemSystem] = None,
    kernel: str = "lut_gemm",
) -> ExecutionStats:
    """Stats of prefilling one ``chunk_tokens``-long slice of a prompt.

    The chunk's query tokens follow ``done_tokens`` already-cached
    prefix tokens: every weight GEMM sees ``M = batch * chunk_tokens``
    rows and the attention matmuls run at ``kv_len = done_tokens +
    chunk_tokens``, summed over every layer.  A single chunk covering
    the whole prompt (``done_tokens = 0``) is exactly the prefill phase
    of :func:`model_inference_cost`.  Chunking attends each query only
    to the prefix cached so far — slightly *less* attention work than
    the one-shot prefill, which costs every query against the full
    prompt length.  With no per-layer scheme overrides, one block is
    costed and scaled by ``num_layers``.
    """
    if chunk_tokens < 1:
        raise ValueError(f"chunk_tokens must be >= 1, got {chunk_tokens}")
    if done_tokens < 0:
        raise ValueError(f"done_tokens must be >= 0, got {done_tokens}")
    total = ExecutionStats(kernel="prefill_chunk")
    if _layers_identical(policy):
        block, _ = block_gemm_cost(
            config, policy, 0, batch, chunk_tokens,
            done_tokens + chunk_tokens, system=system, kernel=kernel,
        )
        return total + block.scaled(config.num_layers)
    for layer in range(config.num_layers):
        block, _ = block_gemm_cost(
            config, policy, layer, batch, chunk_tokens,
            done_tokens + chunk_tokens, system=system, kernel=kernel,
        )
        total = total + block
    return total


def decode_attention_stats_sum(
    config: ModelConfig,
    batch: int,
    kv_lo: int,
    kv_hi: int,
    system: Optional[UpmemSystem] = None,
) -> ExecutionStats:
    """Summed attention-matmul stats for one layer over a KV-length range.

    Analytical equivalent of summing
    :func:`~repro.model.decoder.attention_gemm_costs` with ``seq_q = 1``
    for every ``kv_len`` in ``[kv_lo, kv_hi]``: the score matmul grows
    its ``N`` dimension and the value matmul its ``K`` dimension with
    the KV length, and both collapse to exact series
    (:func:`~repro.kernels.cost.naive_gemm_cost_sum_n` /
    :func:`~repro.kernels.cost.naive_gemm_cost_sum_k`).  Attention
    shapes are identical in every layer, so callers scale the result by
    ``config.num_layers``.
    """
    m = batch * config.num_heads
    scores = naive_gemm_cost_sum_n(
        ATTENTION_SCHEME, m, config.head_dim, kv_lo, kv_hi, system=system
    )
    values = naive_gemm_cost_sum_k(
        ATTENTION_SCHEME, m, config.head_dim, kv_lo, kv_hi, system=system
    )
    return scores + values


def decode_segment_stats(
    config: ModelConfig,
    policy: SchemePolicy,
    kv_lens: Sequence[int],
    tokens: int,
    system: Optional[UpmemSystem] = None,
    kernel: str = "lut_gemm",
) -> ExecutionStats:
    """Closed-form cost of a whole multi-token decode *segment*.

    Advances a batch of sequences by ``tokens`` decode steps in one
    analytical evaluation: ``kv_lens[i]`` is sequence ``i``'s cached KV
    positions entering the segment, so step ``t`` (0-based) costs the
    weight GEMMs once at ``M = len(kv_lens)`` rows plus each sequence's
    two attention matmuls at ``kv_lens[i] + t + 1``.  This is the
    aggregation the event-driven serving engine
    (:mod:`repro.serving.scheduler`) uses between scheduler events,
    where the batch composition is constant: the weight stats scale by
    ``tokens`` and each sequence's attention growth collapses to the
    exact series of :func:`decode_attention_stats_sum`.

    Equivalent (counts exact, latencies to float rounding) to running
    ``tokens`` iterations of the per-token reference loop over the same
    batch.  Unlike :func:`decode_phase_stats`, each sequence attends
    with its *own* separate GEMM pair (``M = num_heads``), matching the
    serving engine's per-request attention accounting.
    """
    if tokens < 0:
        raise ValueError(f"tokens must be non-negative, got {tokens}")
    for kv in kv_lens:
        if kv < 0:
            raise ValueError(f"kv_lens must be non-negative, got {kv}")
    stats = ExecutionStats(kernel="decode")
    if tokens == 0 or not kv_lens:
        return stats
    stats = stats + decode_step_weight_stats(
        config, policy, len(kv_lens), system=system, kernel=kernel
    ).scaled(tokens)
    for kv in kv_lens:
        stats = stats + decode_attention_stats_sum(
            config, 1, kv + 1, kv + tokens, system=system
        ).scaled(config.num_layers)
    return stats


def decode_phase_stats(
    config: ModelConfig,
    policy: SchemePolicy,
    batch: int,
    prefill_tokens: int,
    decode_tokens: int,
    system: Optional[UpmemSystem] = None,
    kernel: str = "lut_gemm",
    method: str = "closed_form",
) -> ExecutionStats:
    """Aggregate decode-phase stats over ``decode_tokens`` generated tokens.

    Two equivalent aggregation strategies are provided:

    * ``"loop"`` — the reference step-by-step walk: for every generated
      token, cost every layer's block against the KV cache grown to
      ``prefill_tokens + t + 1`` positions (``decode_tokens x
      num_layers`` block evaluations).
    * ``"closed_form"`` — one weight-GEMM pass per layer scaled by
      ``decode_tokens`` (per-step weight stats are constant) plus an
      analytical series over the KV range for the two attention matmuls
      scaled by ``num_layers``.  Event counts match the loop exactly;
      latency floats agree to summation rounding
      (:meth:`~repro.pim.upmem.ExecutionStats.allclose`), at a cost
      independent of ``decode_tokens``.
    """
    if method not in DECODE_METHODS:
        raise ValueError(
            f"unknown decode method {method!r}; expected one of {DECODE_METHODS}"
        )
    stats = ExecutionStats(kernel="decode")
    if decode_tokens == 0:
        return stats
    if method == "loop":
        for t in range(decode_tokens):
            kv_len = prefill_tokens + t + 1
            for layer in range(config.num_layers):
                block, _ = block_gemm_cost(
                    config, policy, layer, batch, 1, kv_len,
                    system=system, kernel=kernel,
                )
                stats = stats + block
        return stats
    weights = decode_step_weight_stats(
        config, policy, batch, system=system, kernel=kernel
    ).scaled(decode_tokens)
    attention = decode_attention_stats_sum(
        config, batch, prefill_tokens + 1, prefill_tokens + decode_tokens,
        system=system,
    ).scaled(config.num_layers)
    return stats + weights + attention


def model_inference_cost(
    config: ModelConfig,
    policy: SchemePolicy,
    batch: int = 1,
    prefill_tokens: int = 128,
    decode_tokens: int = 32,
    system: Optional[UpmemSystem] = None,
    kernel: str = "lut_gemm",
    energy_model: Optional[EnergyModel] = None,
    decode_method: str = "closed_form",
) -> InferenceCost:
    """End-to-end analytical inference cost for one model configuration.

    Prefill runs every layer once over the ``prefill_tokens``-long
    prompt; decode then generates ``decode_tokens`` tokens, each a
    single-query pass per layer against a KV cache that has grown to
    ``prefill_tokens + t`` positions at step ``t``.  By default the
    decode phase is aggregated in closed form (cost independent of
    ``decode_tokens``; see :func:`decode_phase_stats`); pass
    ``decode_method="loop"`` for the reference step-by-step walk.

    Raises whatever the underlying kernels raise for unsupported
    schemes (e.g. :class:`~repro.pim.buffer.BufferOverflowError` when a
    scheme's LUTs exceed WRAM) — sweep drivers catch these to mark grid
    points unsupported.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if prefill_tokens < 1:
        raise ValueError("prefill_tokens must be >= 1 (the prompt has at least one token)")
    if decode_tokens < 0:
        raise ValueError("decode_tokens must be >= 0")
    if decode_method not in DECODE_METHODS:
        raise ValueError(
            f"unknown decode method {decode_method!r}; expected one of {DECODE_METHODS}"
        )
    energy_model = energy_model if energy_model is not None else EnergyModel()

    prefill_stats = ExecutionStats(kernel="prefill")
    per_projection: Dict[str, ExecutionStats] = {}
    if _layers_identical(policy):
        block, per_projection = block_gemm_cost(
            config, policy, 0, batch, prefill_tokens, prefill_tokens,
            system=system, kernel=kernel,
        )
        prefill_stats = prefill_stats + block.scaled(config.num_layers)
    else:
        for layer in range(config.num_layers):
            block, per_gemm = block_gemm_cost(
                config, policy, layer, batch, prefill_tokens, prefill_tokens,
                system=system, kernel=kernel,
            )
            prefill_stats = prefill_stats + block
            if layer == 0:
                per_projection = per_gemm

    decode_stats = decode_phase_stats(
        config, policy, batch, prefill_tokens, decode_tokens,
        system=system, kernel=kernel, method=decode_method,
    )

    prefill = PhaseCost(
        phase="prefill",
        tokens=batch * prefill_tokens,
        stats=prefill_stats,
        energy=energy_model.breakdown(prefill_stats),
    )
    decode = PhaseCost(
        phase="decode",
        tokens=batch * decode_tokens,
        stats=decode_stats,
        energy=energy_model.breakdown(decode_stats),
    )
    return InferenceCost(
        model=config,
        kernel=kernel,
        batch=batch,
        prefill_tokens=prefill_tokens,
        decode_tokens=decode_tokens,
        prefill=prefill,
        decode=decode,
        kv_cache_bytes=config.kv_cache_bytes(batch, prefill_tokens + decode_tokens),
        weight_bytes=policy_weight_bytes(config, policy),
        per_projection=per_projection,
    )
