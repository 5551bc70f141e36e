"""Weight-stationary kernel plans for the approximate GEMM engine.

The paper's whole evaluation protocol (per-multiplier accuracy tables,
truncation sweeps, Monte-Carlo ε(y) profiling) runs the approximate GEMM
with **frozen weights**: the weight operand ``B`` of ``ỹ = g̃(A) · B`` is
identical across every batch of an evaluation, sweep cell or simulation.
A :class:`GemmPlan` hoists every weight-dependent quantity out of the
per-batch path:

- the plan's **basis**: either the active weight values (the ``v``
  with ``±v`` present in ``B``, found in one bucketization pass instead
  of ``2·whi`` boolean scans — an *indicator plan*), or, when the
  multiplier's LUT is linear in the weight bits (every truncated
  design), the ``J = w_bits - 1`` bit weights ``1, 2, 4`` — a
  *bit-plane plan*, chosen when ``B`` has more than ``J`` active values;
- the **coefficient matrix** ``H`` in a (K, V)-interleaved layout (so
  the per-batch gather is a single ``np.take``): ``H[k·V + i, n] =
  sign(B[k, n])`` when ``|B[k, n]|`` equals the i-th active value, or
  ``H[k·J + j, n] = sign(B[k, n])·bit_j(|B[k, n]|)`` for bit planes;
- the **dtype/precision decision** (float32 BLAS while every partial sum
  stays below 2^23, float64 otherwise) and the operand-magnitude check
  on ``B``;
- a packed ``(2·xhi+1, V)`` LUT slice so the activation gather reads
  ``V`` contiguous products per activation code.

``plan.execute(a)`` then gathers the LUT products of a batch in a single
``np.take`` (no list-append / ``np.concatenate``) and runs one BLAS
call. ``plan.execute_conv(codes, kernel, stride, padding)`` is the same
GEMM for a dense convolution: it gathers the products of every padded
NHWC activation once and unfolds the gathered products rather than the
codes, against a plan whose rows run in ``(kh, kw, c)`` order, and
returns a float product. Every product and partial sum is an
exactly-represented integer, so either result is **bitwise identical**
to the uncached :func:`repro.approx.gemm.approx_matmul` path (after
``im2col`` for a convolution) — reordering exact integer sums cannot
change them.

:class:`PlanCache` is the per-layer memo keyed by a weight-version
counter (see :class:`repro.nn.parameter.Parameter`); a training step
bumps the version, so a stale plan is impossible by construction. The
one switch that forces the uncached reference, :class:`plan_cache_disabled`,
is scoped to the calling thread.
Cache hits/misses/revalidations/bypasses, plan builds (bit-plane builds
separately) and repairs are counted on the metrics registry
(``plan_cache.*``) and surfaced by ``repro report`` and Prometheus.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.approx.backend import _EXACT_FLOAT32_BOUND
from repro.approx.multiplier import Multiplier
from repro.approx.registry import as_multiplier
from repro.autograd.im2col import nhwc_padded, nhwc_windows
from repro.errors import MultiplierError, ShapeError
from repro.obs import metrics as met
from repro.obs import trace as tr

# The switch is per thread: a ``plan_cache_disabled()`` block on one
# thread (a reference run) must not move serve replicas or other callers
# on other threads onto the uncached path. Unset means enabled.
_scope = threading.local()


def plan_caching_enabled() -> bool:
    """Whether this thread may build, reuse, revalidate and repair plans."""
    return getattr(_scope, "caching", True)


class plan_cache_disabled:
    """Context manager running a block on the uncached reference path.

    The one switch onto the reference: on this thread, no plan is built
    or reused, no plan is revalidated or repaired, and every GEMM runs
    the plan-less :func:`repro.approx.gemm.approx_matmul`. Benchmarks and the
    bitwise-equivalence tests compare against it. Other threads keep
    their own setting.
    """

    def __enter__(self) -> None:
        self._previous = plan_caching_enabled()
        _scope.caching = False

    def __exit__(self, *exc) -> None:
        _scope.caching = self._previous


def check_magnitude(codes: np.ndarray, bound: int, name: str, operand: str) -> None:
    """Reject operand codes outside the symmetric ``[-bound, bound]`` range."""
    if codes.size:
        # Python ints from min/max: no |codes| copy, and no wrap-around at
        # the most negative code (np.abs of an int32 minimum is negative).
        mag = max(-int(codes.min()), int(codes.max()))
        if mag > bound:
            raise MultiplierError(
                f"{name}: magnitude of operand {operand} exceeds the symmetric "
                f"range (max {mag} > {bound}); quantize into the symmetric "
                "range first"
            )


class LayerKernelState:
    """Cached weight-derived kernel state for one quantized-layer tag.

    Holds the quantized weight codes, the clipped-STE mask and the one
    forward plan of the layer's dense-conv GEMM (``None`` on the exact
    path, the reference path and depthwise layers). Revalidation keeps
    the plan across an optimizer step when the integer codes are
    unchanged or the plan can be repaired.
    """

    __slots__ = ("wq", "w_mask", "plan")

    def __init__(self, wq: np.ndarray, w_mask: np.ndarray, plan: GemmPlan | None = None):
        self.wq = wq
        self.w_mask = w_mask
        self.plan = plan


class GemmPlan:
    """Precomputed weight-stationary state for one ``A @ B`` operand ``B``.

    ``values`` is the plan's basis: the active weight magnitudes of an
    indicator plan, or the bit weights ``1, 2, 4, ...`` of a bit-plane
    plan (``bitplane=True``, see :func:`build_plan`). Either way
    ``big_h[k·V + i, n]`` is the coefficient of LUT column
    ``values[i]`` for weight ``B[k, n]``.

    Built once per (weights, multiplier) via :func:`build_plan`; executed
    per batch via :meth:`execute`. Instances are safe to share across
    threads for execution (each call gathers into its own array); the single
    sanctioned mutation is :func:`repair_plan`, which the training loop
    applies between batches to absorb sparse weight-code drift.
    """

    __slots__ = (
        "multiplier_name", "k", "n", "values", "lut_rows", "big_h",
        "dtype", "use_f32", "xhi", "whi", "bitplane", "nbytes",
    )

    def __init__(
        self,
        multiplier_name: str,
        k: int,
        n: int,
        values: np.ndarray,
        lut_rows: np.ndarray,
        big_h: np.ndarray,
        dtype: np.dtype,
        use_f32: bool,
        xhi: int,
        whi: int,
        bitplane: bool,
    ):
        self.multiplier_name = multiplier_name
        self.k = k
        self.n = n
        self.values = values
        self.lut_rows = lut_rows
        self.big_h = big_h
        self.dtype = dtype
        self.use_f32 = use_f32
        self.xhi = xhi
        self.whi = whi
        self.bitplane = bitplane
        self.nbytes = int(big_h.nbytes + lut_rows.nbytes + values.nbytes)

    @property
    def num_values(self) -> int:
        return len(self.values)

    def execute(self, a: np.ndarray) -> np.ndarray:
        """The approximate GEMM ``a @ B`` for one (row block of) ``a``.

        ``a`` must hold integer codes within the multiplier's symmetric
        x-range; codes outside it raise :class:`MultiplierError` (a
        negative LUT row index would otherwise wrap to a wrong product).
        """
        m, k = a.shape
        if k != self.k:
            raise ShapeError(
                f"plan for reduce dim {self.k} applied to operand with {k} columns"
            )
        check_magnitude(a, self.xhi, self.multiplier_name, "a")
        if self.num_values == 0:
            return np.zeros((m, self.n), dtype=np.int64)
        with tr.span("approx.lut_gather", nbytes=a.nbytes):
            idx = np.add(a, self.xhi, dtype=np.intp).reshape(-1)
            # No ``out=``: in the default "raise" mode NumPy gathers into a
            # temporary and copies it into ``out``, doing the gather twice.
            gathered = np.take(self.lut_rows, idx, axis=0)
        return np.rint(self._combine(gathered.reshape(m, -1), gathered.size)).astype(np.int64)

    def execute_conv(
        self, codes: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
    ) -> np.ndarray:
        """The approximate convolution of NCHW codes as an ``(N·OH·OW, OC)`` GEMM.

        The plan must be built from the weight codes in ``(kh, kw, c)``
        row order (:func:`conv_plan_operand`). Instead of unfolding the
        codes and gathering every unfolded code (up to ``kh·kw`` lookups
        per activation), this gathers the LUT products of each padded
        activation once, as an NHWC ``(N, Hp, Wp, C, V)`` array, and
        unfolds the *products* with one window copy into
        ``(N·OH·OW, KH·KW·C·V)`` rows
        (:func:`~repro.autograd.im2col.nhwc_windows`). The padding border
        is code 0, as in ``im2col``. The result is the float product in
        the plan's dtype: every partial sum is an exact integer, so it
        equals ``im2col`` + :meth:`execute` bit for bit and casts to
        float32 as that int64 result would.

        Codes outside the multiplier's symmetric x-range raise
        :class:`MultiplierError` before anything is gathered.
        """
        n, c, h, w = codes.shape
        kh, kw = kernel
        if kh * kw * c != self.k:
            raise ShapeError(
                f"plan for reduce dim {self.k} applied to a {kh}x{kw} conv over "
                f"{c} channels"
            )
        check_magnitude(codes, self.xhi, self.multiplier_name, "a")
        with tr.span("approx.lut_gather", nbytes=codes.nbytes):
            idx, stride = nhwc_padded(codes, kernel, stride, padding, np.intp, self.xhi)
            gathered = np.take(self.lut_rows, idx, axis=0)
            cols = nhwc_windows(gathered, kernel, stride)
        return self._combine(cols, gathered.size)

    def _combine(self, cols: np.ndarray, gathered_elems: int) -> np.ndarray:
        """One BLAS call of gathered ``(M, K·V)`` products against ``big_h``;
        the float product, whose every entry is an exact integer."""
        m, kv = cols.shape
        met.inc("approx.lut_gathered_values", self.num_values)
        met.inc("approx.lut_gathered_elems", gathered_elems)
        with tr.span(
            "approx.matmul_blas", nbytes=(m * kv + kv * self.n) * self.dtype.itemsize
        ):
            return cols @ self.big_h


def conv_plan_operand(wq: np.ndarray) -> np.ndarray:
    """Conv weight codes ``(OC, C, KH, KW)`` as a conv plan's ``(KH·KW·C, OC)``
    operand: rows in the ``(kh, kw, c)`` order in which
    :meth:`GemmPlan.execute_conv` unfolds NHWC products. A view when
    possible; pass it through ``np.ascontiguousarray`` to build a plan.
    """
    return wq.transpose(0, 2, 3, 1).reshape(wq.shape[0], -1).T


def build_plan(b: np.ndarray, multiplier: str | Multiplier) -> GemmPlan:
    """Build the weight-stationary plan for operand ``b`` of ``a @ b``.

    The basis follows the multiplier's LUT. When the LUT is linear in the
    weight bits (:attr:`Multiplier.is_weight_bit_linear`, every truncated
    design) and ``b`` has more active magnitudes than there are bit
    planes, the plan is a **bit-plane plan**: ``values = [1, 2, 4, ...]``
    and ``big_h[k·J + j, n] = sign(b)·bit_j(|b|)`` with ``J = w_bits - 1``,
    so execution gathers ``J`` LUT columns per activation. Otherwise it is
    an **indicator plan**: one bucketization pass over ``b`` finds the
    active magnitudes and scatters ``big_h[k·V + i, n] = sign(b)`` where
    ``|b|`` is the i-th of them, replacing the ``2·whi`` boolean scans of
    the uncached path. ``multiplier`` may be a registry name.
    """
    multiplier = as_multiplier(multiplier)
    b = np.asarray(b)
    if b.ndim != 2:
        raise ShapeError(f"plan operand must be 2-D, got shape {b.shape}")
    if b.dtype.kind not in "iu":
        raise MultiplierError("build_plan operates on integer weight codes")
    xhi = 2 ** (multiplier.x_bits - 1) - 1
    whi = 2 ** (multiplier.w_bits - 1) - 1
    check_magnitude(b, whi, multiplier.name, "b")

    k, n = b.shape
    max_product = float(np.abs(multiplier.lut).max())
    # A bit-plane partial sum is a sub-sum of the same non-negative LUT
    # terms, so the indicator plan's float32 gate covers both layouts.
    use_f32 = max_product * k < _EXACT_FLOAT32_BOUND
    lut = multiplier.signed_lut_f32() if use_f32 else multiplier.signed_lut_f64()
    dtype = np.dtype(np.float32) if use_f32 else np.dtype(np.float64)

    with tr.span("approx.plan_build", nbytes=b.nbytes):
        mag = np.abs(b)
        values = np.unique(mag)
        values = values[values > 0]
        planes = multiplier.w_bits - 1
        bitplane = len(values) > planes and multiplier.is_weight_bit_linear
        if bitplane:
            shifts = np.arange(planes)
            values = 1 << shifts
            bits = (mag[:, None, :] >> shifts[:, None]) & 1
            big_h = (np.sign(b)[:, None, :] * bits).reshape(k * planes, n).astype(dtype)
        else:
            v = len(values)
            big_h = np.zeros((k * v, n), dtype=dtype)
            if v:
                # v = 0 contributes g̃(a, 0) = 0 under sign-magnitude evaluation.
                slot = np.full(whi + 1, -1, dtype=np.intp)
                slot[values] = np.arange(v)
                kk, nn = np.nonzero(mag)
                big_h[kk * v + slot[mag[kk, nn]], nn] = np.sign(b[kk, nn])
        lut_rows = np.ascontiguousarray(lut[:, whi + values])
    plan = GemmPlan(
        multiplier.name, k, n, values, lut_rows, big_h, dtype, use_f32, xhi, whi, bitplane
    )
    met.observe("plan_cache.build", plan.nbytes)
    if bitplane:
        met.inc("plan_cache.build_bitplane")
    return plan


def repair_plan(
    plan: GemmPlan,
    old_b: np.ndarray,
    new_b: np.ndarray,
    changed: tuple[np.ndarray, np.ndarray] | None = None,
) -> bool:
    """Patch ``plan`` in place for a sparse weight-code change.

    An optimizer step typically flips a handful of 4-bit codes out of
    hundreds of thousands; rebuilding the whole plan for that is the
    training-loop regression this module fixes. Returns False (caller
    rebuilds) when the change cannot be expressed in the plan's basis:

    - a **bit-plane** plan rewrites the ``J`` plane entries of every
      changed position ``(k, n)`` — O(changed·J) — and accepts any code
      within the plan's magnitude range;
    - an **indicator** plan moves at most one ±1 entry of ``big_h``
      between value rows per changed position — an O(changed) scatter —
      and declines when a magnitude appears that it has no slot for.

    Magnitudes above ``whi`` are always declined (the bit-plane layout
    would silently drop their high bits). After a successful repair
    ``big_h`` is exactly the matrix :func:`build_plan` would produce for
    ``new_b`` in the same basis, except that indicator slots no longer
    used anywhere keep their (now all-zero) rows — zero-mask rows
    contribute exactly 0.0 to every partial sum, so
    :meth:`GemmPlan.execute` stays bitwise identical to a fresh build.
    This is the single sanctioned mutation of a plan; callers must not
    run it concurrently with :meth:`GemmPlan.execute` on other threads.

    ``changed`` optionally passes the differing positions ``(kk, nn)``
    in ``b`` coordinates when the caller already diffed the operands,
    skipping a redundant comparison pass.
    """
    if old_b.shape != new_b.shape or (plan.k, plan.n) != old_b.shape:
        return False
    kk, nn = np.nonzero(old_b != new_b) if changed is None else changed
    if kk.size == 0:
        return True
    v = plan.num_values
    if v == 0:
        return False  # plan built on all-zero weights has no slots at all
    new_vals = np.asarray(new_b[kk, nn])
    new_mag = np.abs(new_vals)
    if new_mag.max() > plan.whi:
        return False
    with tr.span("approx.plan_repair", nbytes=int(kk.size)):
        if plan.bitplane:
            shifts = np.arange(v)
            bits = (new_mag[:, None] >> shifts) & 1
            plan.big_h[kk[:, None] * v + shifts, nn[:, None]] = (
                np.sign(new_vals)[:, None] * bits
            )
        else:
            slot = np.full(plan.whi + 1, -1, dtype=np.intp)
            slot[plan.values] = np.arange(v)
            live = new_mag > 0
            if live.any() and (slot[new_mag[live]] < 0).any():
                return False
            old_mag = np.abs(np.asarray(old_b[kk, nn]))
            olive = old_mag > 0
            # Clear the old ±1 entries first, then scatter the new ones — a
            # sign flip at an unchanged magnitude lands on the same slot and
            # must end at the new sign.
            plan.big_h[kk[olive] * v + slot[old_mag[olive]], nn[olive]] = 0
            plan.big_h[kk[live] * v + slot[new_mag[live]], nn[live]] = np.sign(
                new_vals[live]
            ).astype(plan.dtype)
    met.observe("plan_cache.repair", int(kk.size))
    return True


class PlanCache:
    """Per-layer memo of weight-stationary GEMM state.

    One entry per ``tag`` (``"conv"`` for every dense-conv kernel,
    ``"depthwise"`` for depthwise layers). An entry is valid only while
    both its ``key`` —
    the layer's weight-version tuple — and the attached multiplier object
    are unchanged; a weight update bumps the version
    (:class:`repro.nn.parameter.Parameter`), so reusing a stale plan is
    impossible by construction. Cloned or pickled models start with an
    empty cache (plans hold large buffers and rebuild cheaply).
    """

    def __init__(self):
        self._entries: dict[str, tuple[Any, Multiplier | None, Any]] = {}

    def get(
        self,
        tag: str,
        key: Any,
        multiplier: Multiplier | None,
        build: Callable[[], Any],
        revalidate: Callable[[Any], tuple[Any, bool]] | None = None,
    ) -> Any:
        """The cached payload for ``(tag, key, multiplier)``, building on miss.

        ``revalidate`` extends the cache to the training loop: it is
        consulted when the stored key differs from the requested one
        *only in its leading component* (the weight version — tuple keys
        are ``(weight_version, step_version, weight_bits)``). The
        callback receives the stale payload and returns ``(payload,
        reused)``; ``reused=True`` means the expensive parts of the old
        payload were kept (e.g. an optimizer step left the quantized
        codes unchanged, so the plan is still bitwise-valid), counted as
        ``plan_cache.revalidate`` instead of a miss. Either way
        the entry is re-keyed to the current version.
        """
        if not plan_caching_enabled():
            met.inc("plan_cache.bypass")
            return build()
        entry = self._entries.get(tag)
        if entry is not None and entry[0] == key and entry[1] is multiplier:
            met.inc("plan_cache.hit")
            return entry[2]
        if (
            revalidate is not None
            and entry is not None
            and entry[1] is multiplier
            and isinstance(key, tuple)
            and isinstance(entry[0], tuple)
            and len(key) == len(entry[0])
            and key[1:] == entry[0][1:]
        ):
            payload, reused = revalidate(entry[2])
            self._entries[tag] = (key, multiplier, payload)
            if reused:
                met.inc("plan_cache.revalidate")
            else:
                met.inc("plan_cache.miss")
            return payload
        met.inc("plan_cache.miss")
        payload = build()
        self._entries[tag] = (key, multiplier, payload)
        return payload

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # Plans must not travel with clones or into worker processes: the
    # copy rebuilds from its own weights on first use.
    def __deepcopy__(self, memo) -> "PlanCache":
        return PlanCache()

    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self._entries = {}
