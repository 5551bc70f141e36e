"""Per-layer timing from outside the program: wrap its public entry points.

:class:`Tracer` rebinds each entry point *where its callers look it up*
(every ``repro.*`` module attribute bound to the function, or the class
attribute for a method), records one span per call on a per-thread stack
and restores every original on :meth:`Tracer.uninstall`. A span's self
time is its duration minus the durations of the spans nested in it, so
the self times of one thread add up to the time that thread spent inside
any wrapped call. Spans stay in memory and are written out by
:meth:`Tracer.dump` when the run ends.

Accounting: each thread that recorded a span is observed over a window
(the whole traced phase for the thread that installed the tracer, from
its first span to its last for other threads). ``unattributed`` is the
part of those windows that no span covers: Python glue and the layers
nobody wrapped (activations, pooling, residual adds).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MULTIPLIER_LABELS = {None: "exact", "truncated5": "trunc5", "evoapprox228": "evo228"}


def multiplier_label(multiplier) -> str:
    name = getattr(multiplier, "name", multiplier)
    return MULTIPLIER_LABELS.get(name, str(name))


class Tracer:
    """Span recorder plus the wrapper set of the benchmark's layers."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        # Which multiplier the work in flight runs under, and whether it is
        # inside train_model; set by the wrappers and by the workloads.
        self.phase: str | None = None
        self.in_fit = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._owner = threading.get_ident()
        self._window = (0, 0)

    # -- recording -----------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, after=None):
        """``fn`` timed as span ``name`` (a string or ``name(args, kwargs)``).

        ``after(args, kwargs, result)`` runs once the call returned, to
        record counts computed from the call's operands.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            stack = tracer._stack()
            children = [0]
            stack.append(children)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                with tracer._lock:
                    tracer.spans.append((span, threading.get_ident(), start, end))
                    tracer.self_ns[span] += end - start - children[0]
                    tracer.calls[span] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------
    def _rebind_function(self, fn, wrapper) -> None:
        """Point every ``repro.*`` module attribute bound to ``fn`` at ``wrapper``."""
        found = False
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no module binds {fn.__module__}.{fn.__qualname__}")

    def _rebind_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point and open the traced window."""
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        self._window = (time.perf_counter_ns(), 0)

    def _install(self) -> None:
        import importlib

        from repro.approx import backend, gemm, plan
        from repro.distill import teacher
        from repro.ge import estimator
        from repro.pipeline import algorithm1
        from repro.quant.qfunction import QuantConv2dFunction, QuantLinearFunction
        from repro.serve.batching import RequestQueue
        from repro.serve.server import Server
        from repro.sim import proxsim
        from repro.train import optim, trainer

        # The package re-exports the function under the module's own name.
        im2col = importlib.import_module("repro.autograd.im2col")

        def fn(name, original, after=None, decorate=None):
            inner = decorate(original) if decorate else original
            self._rebind_function(original, self.wrap(name, inner, after))

        def method(name, cls, attr, after=None, decorate=None):
            original = cls.__dict__[attr]
            inner = decorate(original) if decorate else original
            self._rebind_method(cls, attr, self.wrap(name, inner, after))

        def stage_label(args, kwargs):
            return multiplier_label(_arg(args, kwargs, 2, "multiplier"))

        fn(
            "pipeline.quant_stage",
            algorithm1.quantization_stage,
            decorate=lambda f: self._phased(f, lambda a, k: "exact"),
        )
        fn(
            lambda a, k: "pipeline.approx_stage." + stage_label(a, k),
            algorithm1.approximation_stage,
            decorate=lambda f: self._phased(f, stage_label),
        )
        fn("ge.estimate", estimator.estimate_error_model)
        fn("distill.teacher_logits", teacher.precompute_teacher_logits)
        fn("train.fit", trainer.train_model, decorate=self._fitting)
        method("train.optim", optim.SGD, "step")
        fn(
            "sim.eval",
            proxsim.evaluate_accuracy,
            lambda a, k, r: self.count("sim.eval_samples", len(_arg(a, k, 2, "y"))),
        )
        for cls in (QuantConv2dFunction, QuantLinearFunction):
            method("quant.fwd", cls, "forward")
            method("quant.bwd", cls, "backward")
        fn("approx.matmul", gemm.approx_matmul, self._count_matmul)
        exact_after = self._count_exact_gemm
        fn("approx.exact_gemm", gemm.exact_int_matmul, exact_after)
        fn("approx.exact_gemm", gemm.exact_int_matmul_cached, exact_after)
        fn("approx.float_matmul", backend.float_matmul)
        fn("approx.plan_build", plan.build_plan)
        fn(
            "approx.plan_repair",
            plan.repair_plan,
            lambda a, k, r: self.count("approx.repair_ok", 1 if r else 0),
        )
        method("approx.plan_get", plan.PlanCache, "get", decorate=self._classify_get)
        fn(
            "autograd.im2col",
            im2col.im2col,
            lambda a, k, r: self.count("autograd.im2col_bytes", r[0].nbytes),
        )
        fn("autograd.col2im", im2col.col2im)
        method("serve.submit", Server, "submit")
        method("serve.queue_wait", RequestQueue, "next_batch")

    def uninstall(self) -> None:
        """Close the traced window and restore every original binding."""
        self._window = (self._window[0], time.perf_counter_ns())
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers that also track state ------------------------------------------
    def _phased(self, fn, label):
        @functools.wraps(fn)
        def phased(*args, **kwargs):
            previous, self.phase = self.phase, label(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.phase = previous

        return phased

    def _fitting(self, fn):
        @functools.wraps(fn)
        def fitting(*args, **kwargs):
            self.in_fit = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.in_fit = False

        return fitting

    def _classify_get(self, get):
        """``PlanCache.get`` that counts whether it served a stored entry."""

        @functools.wraps(get)
        def classified(cache, tag, key, multiplier, build, revalidate=None):
            fired = []

            def counted_build():
                fired.append(True)
                return build()

            counted_revalidate = None
            if revalidate is not None:

                def counted_revalidate(old):
                    fired.append(True)
                    return revalidate(old)

            payload = get(cache, tag, key, multiplier, counted_build, revalidate=counted_revalidate)
            self.count("approx.plan_gets")
            if not fired:
                self.count("approx.plan_hits")
            return payload

        return classified

    def _count_matmul(self, args, kwargs, result) -> None:
        a, b, multiplier = args[0], args[1], _arg(args, kwargs, 2, "multiplier")
        if self.phase == "exact":
            self.count("bypass.matmul_calls.exact")
        if multiplier.is_exact:
            return
        plan = _arg(args, kwargs, 4, "plan")
        m, k = a.shape
        n = b.shape[1]
        if plan is not None:
            values, itemsize = plan.num_values, plan.dtype.itemsize
        else:
            mags = np.unique(np.abs(b))
            values, itemsize = int((mags > 0).sum()), 4
        self.count("approx.gather_elems", m * k * values)
        self.count("approx.blas_bytes", (m * k * values + k * values * n) * itemsize)

    def _count_exact_gemm(self, args, kwargs, result) -> None:
        if self.phase == "evo228" and self.in_fit:
            self.count("bypass.exact_gemm_calls.evo228_fit")

    # -- results -----------------------------------------------------------------
    def accounting(self) -> tuple[float, float]:
        """(observed thread-seconds, thread-seconds covered by no span)."""
        bounds: dict[int, tuple[int, int]] = {}
        for _, tid, start, end in self.spans:
            lo, hi = bounds.get(tid, (start, end))
            bounds[tid] = (min(lo, start), max(hi, end))
        bounds[self._owner] = self._window
        observed = sum(hi - lo for lo, hi in bounds.values())
        attributed = sum(self.self_ns.values())
        return observed / 1e9, max(0, observed - attributed) / 1e9

    def dump(self, path) -> None:
        """Write every span as ``[name, thread, start_ns, end_ns]``."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as out:
            json.dump(
                {
                    "names": names,
                    "window_ns": list(self._window),
                    "spans": [[index[n], t, s, e] for n, t, s, e in self.spans],
                },
                out,
            )


PER_LAYER = (
    ("pipeline.quant_stage_s", "s"),
    ("pipeline.approx_stage_s.trunc5", "s"),
    ("pipeline.approx_stage_s.evo228", "s"),
    ("ge.estimate_s", "s"),
    ("ge.estimate_calls", "count"),
    ("distill.teacher_logits_s", "s"),
    ("train.fit_s", "s"),
    ("train.steps", "count"),
    ("train.optim_s", "s"),
    ("sim.eval_s", "s"),
    ("sim.eval_samples", "count"),
    ("quant.fwd_s", "s"),
    ("quant.fwd_calls", "count"),
    ("quant.bwd_s", "s"),
    ("quant.bwd_calls", "count"),
    ("approx.matmul_s", "s"),
    ("approx.matmul_calls", "count"),
    ("approx.gather_elems", "count"),
    ("approx.blas_bytes", "B"),
    ("approx.exact_gemm_s", "s"),
    ("approx.exact_gemm_calls", "count"),
    ("approx.float_matmul_s", "s"),
    ("approx.plan_builds", "count"),
    ("approx.plan_build_s", "s"),
    ("approx.plan_get_s", "s"),
    ("approx.plan_repair_s", "s"),
    ("approx.plan_hit_ratio", "ratio"),
    ("approx.repair_ok_ratio", "ratio"),
    ("autograd.im2col_s", "s"),
    ("autograd.im2col_calls", "count"),
    ("autograd.im2col_bytes", "B"),
    ("autograd.col2im_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p99", "ms"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.batch_size_mean", "samples"),
    ("serve.batches", "count"),
    ("serve.rejected", "count"),
    ("serve.queue_depth_max", "samples"),
    ("bench.gen_idle_s", "s"),
    ("bypass.matmul_calls.exact", "count"),
    ("bypass.exact_gemm_calls.evo228_fit", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)


def layer_metrics(tracer: Tracer, untraced: dict, traced: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced timed phase.

    ``*_s`` are self times; ``traced`` and ``untraced`` are the workload's
    results for the traced phase and for the same phase run untraced just
    before it. The overhead compares their wall time per pass, because a
    phase that runs for a fixed time fits fewer passes in when traced.
    """

    def self_s(span: str) -> float:
        return tracer.self_ns.get(span, 0) / 1e9

    def calls(span: str) -> int:
        return tracer.calls.get(span, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def p99(values) -> float:
        return float(np.percentile(values, 99)) if len(values) else 0.0

    serve = traced.get("serve", {})
    server_ms = serve.get("server_ms", [])
    observed_s, unattributed_s = tracer.accounting()
    values = {
        "pipeline.quant_stage_s": self_s("pipeline.quant_stage"),
        "pipeline.approx_stage_s.trunc5": self_s("pipeline.approx_stage.trunc5"),
        "pipeline.approx_stage_s.evo228": self_s("pipeline.approx_stage.evo228"),
        "ge.estimate_s": self_s("ge.estimate"),
        "ge.estimate_calls": calls("ge.estimate"),
        "distill.teacher_logits_s": self_s("distill.teacher_logits"),
        "train.fit_s": self_s("train.fit"),
        "train.steps": calls("train.optim"),
        "train.optim_s": self_s("train.optim"),
        "sim.eval_s": self_s("sim.eval"),
        "sim.eval_samples": tracer.counts.get("sim.eval_samples", 0),
        "quant.fwd_s": self_s("quant.fwd"),
        "quant.fwd_calls": calls("quant.fwd"),
        "quant.bwd_s": self_s("quant.bwd"),
        "quant.bwd_calls": calls("quant.bwd"),
        "approx.matmul_s": self_s("approx.matmul"),
        "approx.matmul_calls": calls("approx.matmul"),
        "approx.gather_elems": tracer.counts.get("approx.gather_elems", 0),
        "approx.blas_bytes": tracer.counts.get("approx.blas_bytes", 0),
        "approx.exact_gemm_s": self_s("approx.exact_gemm"),
        "approx.exact_gemm_calls": calls("approx.exact_gemm"),
        "approx.float_matmul_s": self_s("approx.float_matmul"),
        "approx.plan_builds": calls("approx.plan_build"),
        "approx.plan_build_s": self_s("approx.plan_build"),
        "approx.plan_get_s": self_s("approx.plan_get"),
        "approx.plan_repair_s": self_s("approx.plan_repair"),
        "approx.plan_hit_ratio": ratio(
            tracer.counts.get("approx.plan_hits", 0), tracer.counts.get("approx.plan_gets", 0)
        ),
        "approx.repair_ok_ratio": ratio(
            tracer.counts.get("approx.repair_ok", 0), calls("approx.plan_repair")
        ),
        "autograd.im2col_s": self_s("autograd.im2col"),
        "autograd.im2col_calls": calls("autograd.im2col"),
        "autograd.im2col_bytes": tracer.counts.get("autograd.im2col_bytes", 0),
        "autograd.col2im_s": self_s("autograd.col2im"),
        "serve.submit_s": self_s("serve.submit"),
        "serve.queue_wait_s": self_s("serve.queue_wait"),
        "serve.server_ms.p50": float(np.median(server_ms)) if server_ms else 0.0,
        "serve.server_ms.p99": p99(server_ms),
        "serve.gen_lag_ms.p99": p99(serve.get("gen_lag_ms", [])),
        "serve.batch_size_mean": serve.get("batch_size_mean", 0.0),
        "serve.batches": serve.get("batches", 0),
        "serve.rejected": serve.get("rejected", 0),
        "serve.queue_depth_max": serve.get("queue_depth_max", 0),
        "bench.gen_idle_s": self_s("bench.gen_idle"),
        "bypass.matmul_calls.exact": tracer.counts.get("bypass.matmul_calls.exact", 0),
        "bypass.exact_gemm_calls.evo228_fit": tracer.counts.get(
            "bypass.exact_gemm_calls.evo228_fit", 0
        ),
        "trace.overhead_frac": (traced["wall_s"] / traced["passes"])
        / (untraced["wall_s"] / untraced["passes"]) - 1.0,
        "trace.unattributed_frac": ratio(unattributed_s, observed_s),
    }
    return {name: values[name] for name, _ in PER_LAYER}


def _arg(args, kwargs, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None
