"""Behavioural models of (approximate) unsigned multipliers.

A multiplier is fully described by its lookup table over the unsigned input
domain ``0..2^x_bits-1 × 0..2^w_bits-1`` (8×4 bit in the paper). Signed
integer codes from the symmetric quantizer are evaluated in sign-magnitude
form: ``g̃(a, b) = sign(a)·sign(b)·LUT[|a|, |b|]``, matching how the paper
adapts the unsigned EvoApprox8b circuits to signed 8×4 operation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MultiplierError


class Multiplier:
    """An unsigned ``x_bits × w_bits`` multiplier defined by a LUT.

    Parameters
    ----------
    name:
        Identifier used in registries, tables and energy lookups.
    lut:
        Integer array of shape ``(2^x_bits, 2^w_bits)`` with
        ``lut[a, b] ≈ a*b``.
    energy_savings:
        Fraction of multiplier energy saved relative to the exact design
        (0 = exact cost, 0.38 = 38% cheaper).
    """

    def __init__(self, name: str, lut: np.ndarray, x_bits: int = 8, w_bits: int = 4,
                 energy_savings: float = 0.0):
        lut = np.asarray(lut)
        expected = (2**x_bits, 2**w_bits)
        if lut.shape != expected:
            raise MultiplierError(
                f"multiplier {name!r}: LUT shape {lut.shape} != expected {expected}"
            )
        if lut.dtype.kind not in "iu":
            raise MultiplierError(f"multiplier {name!r}: LUT must be integer-typed")
        if lut.min() < 0:
            raise MultiplierError(f"multiplier {name!r}: unsigned LUT has negative entries")
        self.name = name
        self.x_bits = x_bits
        self.w_bits = w_bits
        self.lut = np.ascontiguousarray(lut, dtype=np.int32)
        self.energy_savings = float(energy_savings)

    # -- evaluation -----------------------------------------------------
    def apply_unsigned(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Evaluate on unsigned operands (broadcasting like ``a*b``)."""
        a, b = self._int64_operands(a, b)
        self._check_unsigned_range(a, b)
        return self.lut[a, b]

    def apply_signed(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Evaluate on signed operands via sign-magnitude decomposition."""
        a, b = self._int64_operands(a, b)
        mag_a, mag_b = np.abs(a), np.abs(b)
        self._check_unsigned_range(mag_a, mag_b)
        return np.sign(a) * np.sign(b) * self.lut[mag_a, mag_b]

    def signed_lut(self) -> np.ndarray:
        """Signed LUT ``L[a + xhi, b + whi] = g̃(a, b)`` over the symmetric
        code ranges, cached after first use.

        Sign-magnitude evaluation gives the odd symmetry
        ``L[:, whi + v] = -L[:, whi - v]`` that the GEMM engine exploits.
        """
        cached = getattr(self, "_signed_lut", None)
        if cached is not None:
            return cached
        xhi = 2 ** (self.x_bits - 1) - 1
        whi = 2 ** (self.w_bits - 1) - 1
        a = np.arange(-xhi, xhi + 1)
        b = np.arange(-whi, whi + 1)
        signs = np.sign(a)[:, None] * np.sign(b)[None, :]
        table = (signs * self.lut[np.abs(a)][:, np.abs(b)]).astype(np.int32)
        self._signed_lut = table
        return table

    def _int64_operands(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Integer operands widened to int64, so that ``abs`` of a minimum
        such as int8 -128 cannot wrap."""
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
            raise MultiplierError(
                f"{self.name}: operands must be integer-typed, got {a.dtype} and {b.dtype}"
            )
        return a.astype(np.int64), b.astype(np.int64)

    def _check_unsigned_range(self, a: np.ndarray, b: np.ndarray) -> None:
        if a.size and (a.min() < 0 or a.max() >= 2**self.x_bits):
            raise MultiplierError(
                f"{self.name}: operand a out of unsigned {self.x_bits}-bit range"
            )
        if b.size and (b.min() < 0 or b.max() >= 2**self.w_bits):
            raise MultiplierError(
                f"{self.name}: operand b out of unsigned {self.w_bits}-bit range"
            )

    def signed_lut_f32(self) -> np.ndarray:
        """:meth:`signed_lut` as float32 (cached).

        All entries are integers below 2^24, so float32 represents them
        exactly — the GEMM engine exploits this for fast exact BLAS.
        """
        cached = getattr(self, "_signed_lut_f32", None)
        if cached is None:
            cached = self.signed_lut().astype(np.float32)
            self._signed_lut_f32 = cached
        return cached

    def signed_lut_f64(self) -> np.ndarray:
        """:meth:`signed_lut` as float64 (cached).

        The GEMM engine's wide-accumulation path gathers from this table on
        every call; converting per call would dominate small GEMMs.
        """
        cached = getattr(self, "_signed_lut_f64", None)
        if cached is None:
            cached = self.signed_lut().astype(np.float64)
            self._signed_lut_f64 = cached
        return cached

    # -- properties ------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True when the LUT equals the exact product everywhere (cached)."""
        cached = getattr(self, "_is_exact", None)
        if cached is None:
            a = np.arange(2**self.x_bits)[:, None]
            b = np.arange(2**self.w_bits)[None, :]
            cached = bool(np.array_equal(self.lut, a * b))
            self._is_exact = cached
        return cached

    @property
    def is_weight_bit_linear(self) -> bool:
        """True when the LUT is linear in the weight bits (cached).

        Checks ``LUT(x, w) = Σ_{j<J} bit_j(w)·LUT(x, 2^j)`` over the
        signed code range (``x ≤ xhi``, ``w ≤ whi``, ``J = w_bits - 1``).
        Every multiplier that only drops partial products ``x_i·w_j`` —
        the truncated family — satisfies it; the GEMM plan builder then
        gathers ``J`` bit planes instead of one LUT column per active
        weight value (docs/PERFORMANCE.md, "Bit-plane plans").
        """
        cached = getattr(self, "_is_weight_bit_linear", None)
        if cached is None:
            xhi = 2 ** (self.x_bits - 1) - 1
            whi = 2 ** (self.w_bits - 1) - 1
            planes = np.arange(self.w_bits - 1)
            lut = self.lut[: xhi + 1].astype(np.int64)
            bits = (np.arange(whi + 1)[:, None] >> planes) & 1
            cached = bool(np.array_equal(lut[:, : whi + 1], lut[:, 1 << planes] @ bits.T))
            self._is_weight_bit_linear = cached
        return cached

    def error_table(self) -> np.ndarray:
        """Signed error ``g̃(a,b) - a*b`` over the full unsigned domain."""
        a = np.arange(2**self.x_bits)[:, None]
        b = np.arange(2**self.w_bits)[None, :]
        return self.lut.astype(np.int64) - a * b

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Multiplier({self.name!r}, {self.x_bits}x{self.w_bits})"


def exact_lut(x_bits: int = 8, w_bits: int = 4) -> np.ndarray:
    """LUT of the exact unsigned multiplier."""
    a = np.arange(2**x_bits, dtype=np.int64)[:, None]
    b = np.arange(2**w_bits, dtype=np.int64)[None, :]
    return (a * b).astype(np.int32)


class ExactMultiplier(Multiplier):
    """Reference exact multiplier (zero error, zero savings)."""

    def __init__(self, x_bits: int = 8, w_bits: int = 4):
        super().__init__("exact", exact_lut(x_bits, w_bits), x_bits, w_bits, 0.0)
