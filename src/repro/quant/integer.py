"""Uniform integer quantization.

The paper evaluates LoCaLUT on low-bit quantized transformers where weights
use ``bw`` bits and activations use ``ba`` bits (``WxAy`` in the paper's
notation).  This module provides the reference integer codecs used both by
the functional GEMM kernels (so results can be checked bit-exactly against
``numpy`` integer matmuls) and by the accuracy proxy in
:mod:`repro.models.accuracy`.

Two flavours are provided:

* :func:`quantize_symmetric` — signed, zero-point-free quantization.  This is
  what LUT-based kernels use for weights, because the LUT entry only depends
  on the integer code.
* :func:`quantize_asymmetric` — unsigned codes with a zero point, used for
  activations after non-negative nonlinearities (e.g. post-GELU FFN inputs).

Both are wrapped by :class:`IntegerCodec`, which is the object the
:class:`~repro.quant.schemes.QuantScheme` registry hands out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegerCodec",
    "quantize_symmetric",
    "quantize_asymmetric",
    "dequantize",
    "signed_range",
    "unsigned_range",
]


def signed_range(bits: int) -> tuple[int, int]:
    """Return the (min, max) representable signed integers for ``bits``.

    A 1-bit signed code is treated as the binary set ``{-1, +1}`` mapped to
    codes ``{0, 1}`` (the convention used by BinaryBERT-style 1-bit weights
    and by the paper's W1Ax configurations), so its range is ``(-1, 1)``.
    """
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    if bits == 1:
        return -1, 1
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


def unsigned_range(bits: int) -> tuple[int, int]:
    """Return the (min, max) representable unsigned integers for ``bits``."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return 0, 2**bits - 1


def _reject_non_finite(values: np.ndarray, *extremes: float) -> None:
    """Raise ``ValueError`` if ``values`` holds NaN or infinities.

    ``extremes`` are maxima / minima the caller already reduced ``values``
    to; NaN and infinities propagate through those reductions, so the
    full scan that counts the offenders only runs on the error path.
    """
    if not all(map(math.isfinite, extremes)):
        count = int(np.count_nonzero(~np.isfinite(values)))
        raise ValueError(
            f"cannot quantize {count} non-finite value(s) (NaN or infinity)"
        )


def quantize_symmetric(values: np.ndarray, bits: int) -> tuple[np.ndarray, float]:
    """Symmetric (zero-point-free) quantization.

    Parameters
    ----------
    values:
        Floating-point tensor to quantize.
    bits:
        Number of bits for the integer codes.

    Returns
    -------
    (codes, scale):
        ``codes`` is an ``int64`` array of quantized integers and ``scale``
        the positive float such that ``values ~= codes * scale``.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = signed_range(bits)
    max_abs = float(np.max(np.abs(values))) if values.size else 0.0
    _reject_non_finite(values, max_abs)
    if max_abs == 0.0:
        return np.zeros(values.shape, dtype=np.int64), 1.0
    scale = max_abs / hi
    if bits == 1:
        # 1-bit symmetric quantization is a sign code: zero maps to +1.
        codes = (values >= 0).astype(np.int64)
        codes *= 2
        codes -= 1
        return codes, scale
    # Clip then round half to even (``np.round`` at zero decimals is
    # ``rint``); the two commute because the clip bounds are integers.
    scaled = values / scale
    np.clip(scaled, lo, hi, out=scaled)
    codes = np.empty(values.shape, dtype=np.int64)
    np.rint(scaled, out=codes, casting="unsafe")
    return codes, scale


def quantize_asymmetric(values: np.ndarray, bits: int) -> tuple[np.ndarray, float, int]:
    """Asymmetric quantization with an integer zero point.

    Returns ``(codes, scale, zero_point)`` with
    ``values ~= (codes - zero_point) * scale`` and codes in
    ``[0, 2**bits - 1]``.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = unsigned_range(bits)
    vmin = float(np.min(values)) if values.size else 0.0
    vmax = float(np.max(values)) if values.size else 0.0
    _reject_non_finite(values, vmin, vmax)
    if vmax == vmin:
        return np.full(values.shape, lo, dtype=np.int64), 1.0, 0
    scale = (vmax - vmin) / (hi - lo)
    zero_point = int(round(-vmin / scale))
    zero_point = max(lo, min(hi, zero_point))
    codes = np.clip(np.round(values / scale) + zero_point, lo, hi).astype(np.int64)
    return codes, scale, zero_point


def dequantize(codes: np.ndarray, scale: float, zero_point: int = 0) -> np.ndarray:
    """Map integer codes back to floating point values."""
    return (np.asarray(codes, dtype=np.float64) - zero_point) * scale


@dataclass(frozen=True)
class IntegerCodec:
    """A uniform integer codec for one tensor role (weights or activations).

    Attributes
    ----------
    bits:
        Bit width of the integer codes.
    symmetric:
        If True, codes are signed and no zero point is used.
    """

    bits: int
    symmetric: bool = True

    @property
    def num_levels(self) -> int:
        """Number of distinct integer codes representable by this codec."""
        return 2**self.bits

    @property
    def is_floating(self) -> bool:
        """Integer codecs are never floating point (see MinifloatCodec)."""
        return False

    def code_values(self) -> np.ndarray:
        """Return the real values represented by each code index.

        The returned array has ``num_levels`` entries; index ``i`` is the
        dequantized value of code ``i``.  LUT construction uses this to
        precompute entry values from packed code indices.
        """
        if self.symmetric:
            lo, hi = signed_range(self.bits)
            if self.bits == 1:
                return np.array([-1.0, 1.0])
            return np.arange(lo, hi + 1, dtype=np.float64)
        return np.arange(0, self.num_levels, dtype=np.float64)

    def quantize(self, values: np.ndarray):
        """Quantize ``values``; returns a :class:`~repro.quant.tensor.QuantizedTensor`."""
        from repro.quant.tensor import QuantizedTensor

        if self.symmetric:
            codes, scale = quantize_symmetric(values, self.bits)
            zero_point = 0
        else:
            codes, scale, zero_point = quantize_asymmetric(values, self.bits)
        return QuantizedTensor(codes=codes, scale=scale, zero_point=zero_point, codec=self)

    def to_indices(self, codes: np.ndarray) -> np.ndarray:
        """Map integer codes to LUT index space ``[0, num_levels)``.

        Symmetric codes are shifted so the most-negative code becomes index
        zero; asymmetric codes are already non-negative.
        """
        codes = np.asarray(codes, dtype=np.int64)
        if not self.symmetric:
            return codes
        if self.bits == 1:
            # codes are in {-1, +1} -> indices {0, 1}
            return (codes + 1) >> 1
        lo, _ = signed_range(self.bits)
        return codes - lo

    def from_indices(self, indices: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`to_indices`."""
        indices = np.asarray(indices, dtype=np.int64)
        if not self.symmetric:
            return indices
        if self.bits == 1:
            return indices * 2 - 1
        lo, _ = signed_range(self.bits)
        return indices + lo
