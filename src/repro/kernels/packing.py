"""Bit-packing of low-bit codes into DRAM-resident bytes (the paper's OP).

Operand packing (OP) stores ``8 / bits`` weight codes per byte so a DRAM
burst delivers proportionally more weights.  Packing is done on LUT
*indices* (non-negative, ``[0, 2**bits)``) rather than signed codes, so
the packed byte is directly usable as a reordering-LUT address.

Codes are packed along axis 0 (the reduction dimension K of a ``[K, N]``
weight matrix): byte ``j`` of a column holds elements ``j*epb`` through
``j*epb + epb - 1``, element ``i`` in bits ``[i*bits, (i+1)*bits)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["elems_per_byte", "pack_codes", "unpack_codes"]

_SUPPORTED_BITS = (1, 2, 4, 8)


def elems_per_byte(bits: int) -> int:
    """How many ``bits``-wide codes fit in one byte."""
    if bits not in _SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {_SUPPORTED_BITS}, got {bits}")
    return 8 // bits


def pack_codes(indices: np.ndarray, bits: int) -> np.ndarray:
    """Pack non-negative LUT indices along axis 0 into bytes.

    Parameters
    ----------
    indices:
        ``[K, ...]`` integer array with values in ``[0, 2**bits)``.
    bits:
        Code width; must divide 8.

    Returns
    -------
    ``[ceil(K / (8/bits)), ...]`` ``uint8`` array.  A ragged tail is
    zero-padded (index 0), which callers must mask out on unpack via the
    ``count`` argument.
    """
    epb = elems_per_byte(bits)
    indices = np.asarray(indices)
    if indices.ndim < 1:
        raise ValueError("indices must have at least one dimension")
    if indices.size and (indices.min() < 0 or indices.max() >= 2**bits):
        raise ValueError(f"indices out of range for {bits}-bit codes")
    k = indices.shape[0]
    kb = -(-k // epb)
    # In range, so every index fits a byte; pack in uint8 throughout.
    grouped = np.zeros((kb * epb,) + indices.shape[1:], dtype=np.uint8)
    grouped[:k] = indices
    grouped = grouped.reshape((kb, epb) + indices.shape[1:])
    packed = grouped[:, 0].copy()
    for slot in range(1, epb):
        packed |= grouped[:, slot] << np.uint8(slot * bits)
    return packed


def unpack_codes(packed: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes`; software shift/mask decode.

    This is exactly the work the software-reorder baseline performs per
    element on the DPU — the reordering LUT replaces it with one lookup.

    Parameters
    ----------
    packed:
        ``[Kb, ...]`` ``uint8`` array from :func:`pack_codes`.
    bits:
        Code width used when packing.
    count:
        Number of valid leading elements along axis 0 (un-pads the tail).
    """
    epb = elems_per_byte(bits)
    packed = np.asarray(packed, dtype=np.uint8)
    if count < 0 or count > packed.shape[0] * epb:
        raise ValueError(f"count {count} out of range for packed shape {packed.shape}")
    slots = [
        ((packed.astype(np.int64) >> (slot * bits)) & (2**bits - 1))
        for slot in range(epb)
    ]
    interleaved = np.stack(slots, axis=1)
    flat = interleaved.reshape((packed.shape[0] * epb,) + packed.shape[1:])
    return flat[:count]
