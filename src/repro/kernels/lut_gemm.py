"""LUT-based GEMM on the UPMEM substrate (the paper's full OP+LC+RC design).

Functional semantics
--------------------
``lut_gemm(activations, weights)`` computes ``A @ W`` for an ``[M, K]``
activation tensor and a ``[K, N]`` weight tensor, both
:class:`~repro.quant.tensor.QuantizedTensor`.  The host emulation works
on packed weight bytes, as the device does.  Weights are bit-packed (OP):
byte ``j`` of a column holds the ``epb = 8 / bits`` weight indices of
K positions ``j*epb .. j*epb + epb - 1``.  For each activation row and
each byte group ``j`` the kernel builds one 256-entry slice

    ``G[j, b] = sum_s clut.table[slot_table[b, s], a_idx[j*epb + s]]``

where ``slot_table[b, s]`` is the weight index in slot ``s`` of byte
value ``b`` — the reordering LUT (RC) itself, or the shift/mask decode
of the 256 byte values under ``software_reorder``.  Each packed byte
then costs one lookup, ``G[j, packed[j, n]]``, and the slice is reused
across all N columns: the host analogue of the paper's operation
packing (several MACs per lookup) and of streaming only the relevant
LUT slice.  Padded tail slots of a ragged K add zero.  For integer codec
pairs the accumulator is exact ``int64`` and **bit-identical** to the
numpy integer matmul of the zero-point-corrected codes; scales are
applied once per output at the host.  The stats do not depend on this
emulation: they come from the shared analytic :func:`_lut_cost_stats`.

Cost semantics
--------------
Every kernel returns an :class:`~repro.pim.upmem.ExecutionStats` whose
terms are anchored to :class:`~repro.pim.timing.UpmemTimings` exactly as
the paper's analytical model (Section VI-I):

* ``lut_load_s  = n_lut_entry_pairs × L_D``
* ``compute_s   = n_lookups × L_local``
* ``reorder_s   = n_reorders × reorder_latency`` (software-reorder only)
* ``dma_s``     — tiled MRAM→WRAM streaming of packed weights,
  activation codes and output accumulators, tile size set by what is
  left of the 64 KB WRAM after the LUTs are staged,
* ``host_s``    — activation broadcast in, output gather back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.lut import CanonicalLut, ReorderingLut
from repro.kernels.packing import elems_per_byte, pack_codes
from repro.pim.buffer import BufferOverflowError
from repro.pim.upmem import ExecutionStats, UpmemSystem
from repro.quant.tensor import QuantizedTensor

__all__ = ["GemmResult", "lut_gemm", "quantize_gemm_operands"]


@dataclass
class GemmResult:
    """Numeric output plus the analytical cost of producing it.

    Attributes
    ----------
    output:
        ``[M, N]`` ``float64`` result with scales applied.
    accumulator:
        ``[M, N]`` raw device-side accumulator (``int64`` for integer
        codec pairs — the bit-exactness contract is on this array).
    stats:
        :class:`ExecutionStats` for the critical-path DPU.
    """

    output: np.ndarray
    accumulator: np.ndarray
    stats: ExecutionStats


def quantize_gemm_operands(
    activations: np.ndarray, weights: np.ndarray, scheme
) -> tuple[QuantizedTensor, QuantizedTensor]:
    """Quantize float operands per a :class:`~repro.quant.schemes.QuantScheme`."""
    a_q = scheme.activation_codec.quantize(np.asarray(activations))
    w_q = scheme.weight_codec.quantize(np.asarray(weights))
    return a_q, w_q


def _check_operands(activations: QuantizedTensor, weights: QuantizedTensor) -> tuple[int, int, int]:
    if activations.codes.ndim != 2 or weights.codes.ndim != 2:
        raise ValueError(
            f"expected 2-D operands, got activations {activations.shape} "
            f"and weights {weights.shape}"
        )
    m, k = activations.shape
    kw, n = weights.shape
    if k != kw:
        raise ValueError(f"inner dimensions differ: activations K={k}, weights K={kw}")
    return m, k, n


def _code_bytes(bits: int) -> int:
    """Bytes per unpacked code (activations are stored one code per slot)."""
    return (bits + 7) // 8


def _accumulate(
    clut: CanonicalLut, slot_table: np.ndarray, packed: np.ndarray, a_idx: np.ndarray
) -> np.ndarray:
    """Byte-group LUT accumulate: one lookup per packed weight byte.

    ``slot_table`` is ``[256, epb]`` (byte value, slot) → weight index;
    ``packed`` is ``[Kb, N]`` ``uint8``; ``a_idx`` is ``[M, K]``.
    """
    m, k = a_idx.shape
    kb, n = packed.shape
    epb = slot_table.shape[1]
    la = clut.table.shape[1]
    # entries[s, a, b]: product of slot s of byte b with activation index
    # a.  Activation index ``la`` is an all-zero row, so the padded tail
    # slots of a ragged K add nothing (weight index 0 is not a zero).
    entries = np.zeros((epb, la + 1, 256), dtype=clut.table.dtype)
    entries[:, :la] = clut.table[slot_table.T].transpose(0, 2, 1)
    a_groups = np.full((m, kb * epb), la, dtype=np.intp)
    a_groups[:, :k] = a_idx
    a_groups = a_groups.reshape(m, kb, epb)
    slots = np.arange(epb)
    gather = (np.arange(kb, dtype=np.intp) * 256)[:, None] + packed
    acc = np.empty((m, n), dtype=clut.table.dtype)
    for row in range(m):
        g = entries[slots, a_groups[row]].sum(axis=1)  # [Kb, 256]
        acc[row] = g.ravel().take(gather).sum(axis=0)
    return acc


def _stream_dma(system: UpmemSystem, dma_bytes: int, wram_tile_bytes: int) -> float:
    """Tiled MRAM→WRAM streaming time for ``dma_bytes`` on one DPU."""
    if dma_bytes <= 0:
        return 0.0
    if wram_tile_bytes <= 0:
        raise ValueError("no WRAM left for streaming tiles")
    t = system.timings
    n_transfers = -(-dma_bytes // wram_tile_bytes)
    cycles = n_transfers * t.dma_setup_cycles + dma_bytes / t.dram_to_wram_bytes_per_cycle
    return cycles * t.cycle_time_s


def _finish_stats(
    system: UpmemSystem,
    stats: ExecutionStats,
    buffer,
    weight_bytes: int,
    m: int,
    k: int,
    n: int,
    cols: int,
    act_code_bytes: int,
) -> None:
    """Shared cost tail: DMA streaming, DRAM bookkeeping and host transfers.

    MRAM layout is weights at offset 0, activation codes after, outputs
    after that; every kernel shares it so their stats stay comparable.
    """
    t = system.timings
    act_bytes = m * k * act_code_bytes
    out_bytes = m * cols * t.accumulator_bytes
    stats.dma_bytes = weight_bytes + act_bytes + out_bytes
    stats.dma_s = _stream_dma(system, stats.dma_bytes, buffer.bytes_free)

    bank = system.new_dram_bank()
    bank.read(0, weight_bytes)
    bank.read(weight_bytes, act_bytes)
    bank.write(weight_bytes + act_bytes, out_bytes)
    stats.dram_activations = bank.stats.activations
    stats.wram_peak_bytes = buffer.peak_bytes

    out_total = m * n * t.accumulator_bytes
    stats.host_bytes = act_bytes * system.config.num_ranks + out_total
    stats.host_s = system.broadcast_s(act_bytes) + system.gather_s(out_total)


def _lut_cost_stats(
    system: UpmemSystem,
    clut: CanonicalLut,
    rlut: ReorderingLut | None,
    weight_bits: int,
    activation_bits: int,
    m: int,
    k: int,
    n: int,
    software_reorder: bool,
) -> ExecutionStats:
    """Analytical cost of one LUT GEMM on the critical-path DPU.

    Shared by the functional kernel (:func:`lut_gemm`) and the cost-only
    entry point (:func:`repro.kernels.cost.gemm_cost`) so model-level
    sweeps are guaranteed to report exactly what the kernel would.
    ``rlut`` must be ``None`` iff ``software_reorder`` is set.
    """
    t = system.timings
    stats = ExecutionStats(
        kernel="software_reorder_gemm" if software_reorder else "lut_gemm"
    )
    n_dpus, cols = system.partition(n)
    stats.n_dpus_used = n_dpus
    if n_dpus == 0 or m == 0 or k == 0:
        return stats

    buffer = system.new_local_buffer()
    lut_bytes = clut.nbytes(t.lut_entry_bytes)
    if not software_reorder:
        lut_bytes += rlut.nbytes(t.reorder_entry_bytes)
    if lut_bytes > buffer.bytes_free:
        raise BufferOverflowError(
            f"the {weight_bits}-bit x {activation_bits}-bit LUTs need "
            f"{lut_bytes} B but only {buffer.bytes_free} B of WRAM are free; "
            f"this scheme cannot run on the LUT kernel (use naive_pim_gemm "
            f"or a narrower configuration)"
        )
    buffer.alloc("canonical_lut", clut.nbytes(t.lut_entry_bytes))
    stats.n_lut_entry_pairs = clut.num_entries
    if not software_reorder:
        buffer.alloc("reordering_lut", rlut.nbytes(t.reorder_entry_bytes))
        # Both LUTs are staged from DRAM entry by entry at L_D each, so
        # the loads sum (the tables are different sizes and cannot be
        # fetched pairwise).
        stats.n_lut_entry_pairs = clut.num_entries + rlut.num_entries
    stats.lut_load_s = stats.n_lut_entry_pairs * t.dram_entry_load_latency_s

    stats.n_lookups = m * k * cols
    stats.compute_s = stats.n_lookups * t.local_lookup_latency_s
    stats.n_instructions = stats.n_lookups * t.lookup_instructions
    if software_reorder:
        stats.n_reorders = stats.n_lookups
        stats.reorder_s = stats.n_reorders * t.reorder_latency_s
        stats.n_instructions += stats.n_reorders * t.reorder_instructions

    kb = -(-k // elems_per_byte(weight_bits))
    weight_bytes = kb * cols
    _finish_stats(
        system, stats, buffer, weight_bytes, m, k, n, cols, _code_bytes(activation_bits)
    )
    return stats


def lut_gemm(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    system: UpmemSystem | None = None,
    software_reorder: bool = False,
) -> GemmResult:
    """LUT-based GEMM; the paper's LoCaLUT kernel.

    Parameters
    ----------
    activations, weights:
        ``[M, K]`` and ``[K, N]`` quantized tensors.
    system:
        UPMEM deployment to cost against; defaults to one rank.
    software_reorder:
        Ablation switch (OP+LC without RC): packed weights are decoded
        with shift/mask arithmetic instead of the reordering LUT, adding
        ``reorder_latency`` per lookup and dropping the reordering LUT
        from WRAM.  Numerics are unchanged.
    """
    system = system if system is not None else UpmemSystem()
    m, k, n = _check_operands(activations, weights)
    rlut = None if software_reorder else ReorderingLut.build(weights.bits)
    clut = CanonicalLut.build(weights, activations)

    # --- cost path (critical-path DPU, N partitioned column-wise) --------
    # First, so a scheme whose LUTs overflow WRAM fails before any
    # functional work.
    stats = _lut_cost_stats(
        system, clut, rlut, weights.bits, activations.bits, m, k, n, software_reorder
    )

    # --- functional path -------------------------------------------------
    packed = pack_codes(weights.indices(), weights.bits)
    if software_reorder:
        # Shift/mask decode of every byte value, slot by slot.
        shifts = np.arange(elems_per_byte(weights.bits)) * weights.bits
        slot_table = (np.arange(256)[:, None] >> shifts) & (2**weights.bits - 1)
    else:
        slot_table = rlut.table
    acc = _accumulate(clut, slot_table, packed, activations.indices())
    output = acc.astype(np.float64) * (activations.scale * weights.scale)
    return GemmResult(output=output, accumulator=acc, stats=stats)
