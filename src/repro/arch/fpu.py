"""Single-precision floating-point semantics (the RV32F subset Vortex uses).

Register values are stored as raw binary32 bit patterns (unsigned 32-bit
ints); every operation unpacks, computes in Python floats with a final
round-trip through binary32, and repacks.  This matches the behaviour of
the FPGA's DSP blocks closely enough for the paper's kernels, which only
rely on basic arithmetic, comparisons, conversions and fused multiply-add.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.common.bitutils import bits_to_float, float_to_bits, to_int32, to_uint32

_F32_MAX_INT = (1 << 31) - 1
_F32_MIN_INT = -(1 << 31)


def _round32(value: float) -> int:
    """Round a Python float to the nearest binary32 and return its bits.

    NaN results are canonicalized (0x7FC00000), as RISC-V mandates for
    every arithmetic operation producing NaN.
    """
    if value != value:  # NaN
        return _canonical_nan()
    return float_to_bits(value)


def _is_nan_bits(word: int) -> bool:
    exponent = (word >> 23) & 0xFF
    mantissa = word & 0x7FFFFF
    return exponent == 0xFF and mantissa != 0


def _canonical_nan() -> int:
    return 0x7FC00000


def fpu_op(mnemonic: str, rs1: int, rs2: int = 0, rs3: int = 0) -> int:
    """Execute a floating-point operation on raw binary32 operands.

    Comparison and conversion results are returned as integer register
    values; everything else is returned as binary32 bits.
    """
    a = bits_to_float(rs1)
    b = bits_to_float(rs2)
    c = bits_to_float(rs3)

    if mnemonic == "fadd.s":
        return _round32(a + b)
    if mnemonic == "fsub.s":
        return _round32(a - b)
    if mnemonic == "fmul.s":
        return _round32(a * b)
    if mnemonic == "fdiv.s":
        if b == 0.0:
            if a == 0.0 or math.isnan(a):
                return _canonical_nan()
            return _round32(math.copysign(math.inf, a) * math.copysign(1.0, b))
        return _round32(a / b)
    if mnemonic == "fsqrt.s":
        if a < 0.0:
            return _canonical_nan()
        return _round32(math.sqrt(a))
    if mnemonic == "fmin.s":
        if math.isnan(a):
            return rs2 if not math.isnan(b) else _canonical_nan()
        if math.isnan(b):
            return rs1
        return _round32(min(a, b))
    if mnemonic == "fmax.s":
        if math.isnan(a):
            return rs2 if not math.isnan(b) else _canonical_nan()
        if math.isnan(b):
            return rs1
        return _round32(max(a, b))
    if mnemonic == "fsgnj.s":
        return (rs1 & 0x7FFFFFFF) | (rs2 & 0x80000000)
    if mnemonic == "fsgnjn.s":
        return (rs1 & 0x7FFFFFFF) | ((rs2 ^ 0x80000000) & 0x80000000)
    if mnemonic == "fsgnjx.s":
        return rs1 ^ (rs2 & 0x80000000)
    if mnemonic == "feq.s":
        if _is_nan_bits(rs1) or _is_nan_bits(rs2):
            return 0
        return 1 if a == b else 0
    if mnemonic == "flt.s":
        if _is_nan_bits(rs1) or _is_nan_bits(rs2):
            return 0
        return 1 if a < b else 0
    if mnemonic == "fle.s":
        if _is_nan_bits(rs1) or _is_nan_bits(rs2):
            return 0
        return 1 if a <= b else 0
    if mnemonic == "fcvt.w.s":
        return to_uint32(_float_to_int(a, signed=True))
    if mnemonic == "fcvt.wu.s":
        return to_uint32(_float_to_int(a, signed=False))
    if mnemonic == "fcvt.s.w":
        return _round32(float(to_int32(rs1)))
    if mnemonic == "fcvt.s.wu":
        return _round32(float(to_uint32(rs1)))
    if mnemonic == "fmv.x.w":
        return to_uint32(rs1)
    if mnemonic == "fmv.w.x":
        return to_uint32(rs1)
    if mnemonic == "fmadd.s":
        return _round32(a * b + c)
    if mnemonic == "fmsub.s":
        return _round32(a * b - c)
    if mnemonic == "fnmsub.s":
        return _round32(-(a * b) + c)
    if mnemonic == "fnmadd.s":
        return _round32(-(a * b) - c)
    raise ValueError(f"not a floating-point operation: {mnemonic}")


def _float_to_int(value: float, signed: bool) -> int:
    """Convert to integer with RISC-V saturation semantics (round toward zero)."""
    if math.isnan(value):
        return _F32_MAX_INT if signed else 0xFFFFFFFF
    truncated = math.trunc(value) if math.isfinite(value) else math.copysign(math.inf, value)
    if signed:
        if truncated >= _F32_MAX_INT:
            return _F32_MAX_INT
        if truncated <= _F32_MIN_INT:
            return _F32_MIN_INT
        return int(truncated)
    if truncated <= 0:
        return 0 if truncated > -1 else 0
    if truncated >= 0xFFFFFFFF:
        return 0xFFFFFFFF
    return int(truncated)


# -- lane-vector forms -----------------------------------------------------------------
#
# Operands are numpy uint32 lane vectors holding raw binary32 bit patterns.
# Every operation mirrors the scalar path above bit for bit.  The scalar
# path computes in float64 (Python floats) and rounds once to binary32; for
# add/sub/mul the float64 intermediate is exact, so rounding it to binary32
# equals the correctly-rounded binary32 operation and the vector form
# computes directly in float32.  Division, square root and the fused
# multiply-add family keep the float64 intermediate (the scalar path's
# double rounding is part of the reference semantics), and the explicit
# special cases (canonical NaN on 0/0, NaN inputs to min/max, saturating
# conversions) are replicated with masked patches.

import numpy as np  # noqa: E402  (kept local to the vector section)

_CANONICAL_NAN_U32 = np.uint32(0x7FC00000)


def _bits_to_f64(bits: np.ndarray) -> np.ndarray:
    """Reinterpret uint32 lane bits as binary32, widened to float64."""
    return bits.view(np.float32).astype(np.float64)


def _f64_to_bits(values: np.ndarray) -> np.ndarray:
    """Round float64 lane values to binary32 and return the raw bits."""
    return values.astype(np.float32).view(np.uint32)


def _round_bits(values: np.ndarray) -> np.ndarray:
    """float32 lane values -> uint32 bits with RISC-V canonical NaNs."""
    return np.where(np.isnan(values), _CANONICAL_NAN_U32, values.view(np.uint32))


def _vec_fdiv(rs1: np.ndarray, rs2: np.ndarray) -> np.ndarray:
    a = _bits_to_f64(rs1)
    b = _bits_to_f64(rs2)
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = _round_bits((a / np.where(b != 0.0, b, 1.0)).astype(np.float32))
    zero_b = b == 0.0
    nan_case = zero_b & ((a == 0.0) | np.isnan(a))
    inf_case = zero_b & ~nan_case
    signed_inf = _f64_to_bits(np.copysign(np.inf, a) * np.copysign(1.0, b))
    result = np.where(inf_case, signed_inf, quotient)
    return np.where(nan_case, _CANONICAL_NAN_U32, result).astype(np.uint32)


def _vec_fsqrt(rs1: np.ndarray, rs2: np.ndarray) -> np.ndarray:
    a = _bits_to_f64(rs1)
    with np.errstate(invalid="ignore"):
        root = _round_bits(np.sqrt(np.where(a < 0.0, 0.0, a)).astype(np.float32))
    return np.where(a < 0.0, _CANONICAL_NAN_U32, root).astype(np.uint32)


def _vec_fminmax(rs1: np.ndarray, rs2: np.ndarray, use_max: bool) -> np.ndarray:
    a = rs1.view(np.float32)
    b = rs2.view(np.float32)
    nan_a = np.isnan(a)
    nan_b = np.isnan(b)
    picked = np.maximum(a, b) if use_max else np.minimum(a, b)
    # Python's min/max return the first operand on ties (so fmin(+0,-0) is
    # rs1), whereas numpy prefers -0/+0; replicate the scalar behaviour.
    # Selection never rounds, so float32 is exact here.
    picked = np.where(a == b, a, picked)
    # maximum/minimum propagate NaN; substitute zeros (the NaN cases are
    # patched in explicitly afterwards).
    result = np.where(nan_a | nan_b, np.float32(0.0), picked).view(np.uint32)
    result = np.where(nan_b & ~nan_a, rs1, result)
    result = np.where(nan_a & ~nan_b, rs2, result)
    return np.where(nan_a & nan_b, _CANONICAL_NAN_U32, result).astype(np.uint32)


def _vec_fcvt_from_float(rs1: np.ndarray, signed: bool) -> np.ndarray:
    a = _bits_to_f64(rs1)
    truncated = np.trunc(np.where(np.isnan(a), 0.0, a))
    if signed:
        clipped = np.clip(truncated, float(_F32_MIN_INT), float(_F32_MAX_INT))
        result = clipped.astype(np.int64).astype(np.uint32)
        return np.where(np.isnan(a), np.uint32(_F32_MAX_INT), result).astype(np.uint32)
    clipped = np.clip(truncated, 0.0, float(0xFFFFFFFF))
    result = clipped.astype(np.int64).astype(np.uint32)
    return np.where(np.isnan(a), np.uint32(0xFFFFFFFF), result).astype(np.uint32)


def _vec_compare(
    rs1: np.ndarray, rs2: np.ndarray, op: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    # IEEE comparisons with NaN operands are False, matching the scalar
    # path's explicit NaN checks; comparisons never round, so float32 is
    # exact.
    with np.errstate(invalid="ignore"):
        return op(rs1.view(np.float32), rs2.view(np.float32)).astype(np.uint32)


def _mul64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact float64 product of two binary32 lane vectors."""
    return np.multiply(a.view(np.float32), b.view(np.float32), dtype=np.float64)


_SIGN = np.uint32(0x80000000)
_MAG = np.uint32(0x7FFFFFFF)

FPU_VECTOR_OPS = {
    "fadd.s": lambda a, b, c: _round_bits(np.add(a.view(np.float32), b.view(np.float32))),
    "fsub.s": lambda a, b, c: _round_bits(np.subtract(a.view(np.float32), b.view(np.float32))),
    "fmul.s": lambda a, b, c: _round_bits(np.multiply(a.view(np.float32), b.view(np.float32))),
    "fdiv.s": lambda a, b, c: _vec_fdiv(a, b),
    "fsqrt.s": lambda a, b, c: _vec_fsqrt(a, b),
    "fmin.s": lambda a, b, c: _vec_fminmax(a, b, use_max=False),
    "fmax.s": lambda a, b, c: _vec_fminmax(a, b, use_max=True),
    "fsgnj.s": lambda a, b, c: np.bitwise_or(np.bitwise_and(a, _MAG), np.bitwise_and(b, _SIGN)),
    "fsgnjn.s": lambda a, b, c: np.bitwise_or(
        np.bitwise_and(a, _MAG), np.bitwise_and(np.bitwise_xor(b, _SIGN), _SIGN)
    ),
    "fsgnjx.s": lambda a, b, c: np.bitwise_xor(a, np.bitwise_and(b, _SIGN)),
    "feq.s": lambda a, b, c: _vec_compare(a, b, np.equal),
    "flt.s": lambda a, b, c: _vec_compare(a, b, np.less),
    "fle.s": lambda a, b, c: _vec_compare(a, b, np.less_equal),
    "fcvt.w.s": lambda a, b, c: _vec_fcvt_from_float(a, signed=True),
    "fcvt.wu.s": lambda a, b, c: _vec_fcvt_from_float(a, signed=False),
    "fcvt.s.w": lambda a, b, c: a.view(np.int32).astype(np.float32).view(np.uint32),
    "fcvt.s.wu": lambda a, b, c: a.astype(np.float32).view(np.uint32),
    "fmv.x.w": lambda a, b, c: a.copy(),
    "fmv.w.x": lambda a, b, c: a.copy(),
    "fmadd.s": lambda a, b, c: _round_bits(
        (_mul64(a, b) + c.view(np.float32)).astype(np.float32)
    ),
    "fmsub.s": lambda a, b, c: _round_bits(
        (_mul64(a, b) - c.view(np.float32)).astype(np.float32)
    ),
    "fnmsub.s": lambda a, b, c: _round_bits(
        (c.view(np.float32) - _mul64(a, b)).astype(np.float32)
    ),
    # Note operation order: -(a*b) - c, not -((a*b) + c) — they differ for
    # signed zeros.
    "fnmadd.s": lambda a, b, c: _round_bits(
        (np.negative(_mul64(a, b)) - c.view(np.float32)).astype(np.float32)
    ),
}


def fpu_op_vec(mnemonic: str, rs1: np.ndarray, rs2: np.ndarray, rs3: np.ndarray) -> np.ndarray:
    """Vectorized floating-point operation over raw-binary32 lane vectors."""
    op = FPU_VECTOR_OPS.get(mnemonic)
    if op is None:
        raise ValueError(f"not a floating-point operation: {mnemonic}")
    with np.errstate(all="ignore"):
        return op(rs1, rs2, rs3)
