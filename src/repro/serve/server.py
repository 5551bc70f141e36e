"""The inference server: replica workers over the plan-cached eval path.

Architecture (``docs/SERVING.md``): a :class:`Server` owns one bounded
:class:`~repro.serve.batching.RequestQueue` and ``replicas`` worker
threads on one ``ThreadPoolExecutor`` (inference is BLAS-dominated and
the GEMM releases the GIL, so threads scale while sharing the event log,
metrics registry and trace recorder directly). Each replica
holds its own ``deepcopy`` of the model — plan caches deepcopy *empty*
by design, so every replica builds warm, private
:class:`~repro.approx.plan.PlanCache` entries on first forward and the
replicas never contend on cache locks. Workers pull micro-batches,
concatenate the samples into one plan-cached GEMM batch, and scatter the
logits back to each request's future.

Weight swap is zero-downtime and torn-batch-free: ``swap_weights``
publishes ``(version, arrays)`` atomically; each replica applies the
newest published version *between* batches, so any one micro-batch runs
entirely under a single weight version, and in-flight batches drain
under the version they started with. Loading new arrays rebinds
``Parameter.data``, which bumps ``Parameter.version`` and invalidates
stale plans by construction — no cache flush call exists or is needed.

Results are bitwise identical to unbatched evaluation: the quantized
integer path is batch-invariant (every operation is exact integer
arithmetic carried in floats), so the response for a sample does not
depend on which requests it was coalesced with.
"""

from __future__ import annotations

import copy
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro import config as cfg
from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.errors import ServeError
from repro.nn.module import Module
from repro.obs import events as obs_events
from repro.obs import metrics as met
from repro.obs import trace as tr
from repro.parallel import cpu_parallelism
from repro.serve.batching import Request, RequestQueue
from repro.utils.serialization import load_model_arrays, model_state_arrays


@dataclass(frozen=True)
class ServeConfig:
    """Serving knobs; ``None`` fields resolve through :mod:`repro.config`.

    Every field follows the standard precedence chain (value given
    here > ``configure()`` > env > default; ``repro serve`` passes its
    flags here):

    - ``deadline_ms`` (``REPRO_SERVE_DEADLINE_MS``): micro-batching
      latency budget measured from the oldest queued request;
    - ``max_batch`` (``REPRO_SERVE_MAX_BATCH``): samples per micro-batch;
    - ``queue_depth`` (``REPRO_SERVE_QUEUE_DEPTH``): queued-sample bound
      past which admission raises ``BackpressureError``;
    - ``replicas`` (``REPRO_SERVE_REPLICAS``): model copies / worker
      threads; the default ``None`` auto-sizes to
      :func:`repro.parallel.cpu_parallelism`.
    """

    deadline_ms: float | None = None
    max_batch: int | None = None
    queue_depth: int | None = None
    replicas: int | None = None

    def resolved(self) -> "ServeConfig":
        """This config with every ``None`` resolved to a concrete value."""
        deadline_ms = float(cfg.resolve("serve_deadline_ms", self.deadline_ms))
        max_batch = int(cfg.resolve("serve_max_batch", self.max_batch))
        queue_depth = int(cfg.resolve("serve_queue_depth", self.queue_depth))
        replicas = cfg.resolve("serve_replicas", self.replicas)
        replicas = max(1, cpu_parallelism()) if replicas is None else int(replicas)
        if deadline_ms < 0:
            raise ServeError(f"deadline_ms must be >= 0, got {deadline_ms}")
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        if queue_depth < max_batch:
            raise ServeError(
                f"queue_depth ({queue_depth}) must be >= max_batch ({max_batch}); "
                "a full micro-batch must fit in the queue"
            )
        if replicas < 1:
            raise ServeError(f"replicas must be >= 1, got {replicas}")
        return ServeConfig(deadline_ms, max_batch, queue_depth, replicas)


@dataclass(frozen=True)
class Prediction:
    """One served response.

    ``logits`` has shape ``(num_classes,)`` for single-sample submits and
    ``(batch, num_classes)`` for batch submits. ``weights_version`` is the
    server weight generation the response was computed under (0 = the
    weights the server was constructed with); ``latency_s`` is
    queue-to-response, measured server-side.
    """

    logits: np.ndarray
    weights_version: int
    replica: int
    latency_s: float


class _Replica:
    """One model copy bound to one worker thread."""

    __slots__ = ("index", "model", "version")

    def __init__(self, index: int, model: Module):
        self.index = index
        self.model = model
        self.version = 0


class Server:
    """Micro-batching inference server; see the module docstring.

    Lifecycle: ``start()`` → ``submit()/submit_batch()/swap_weights()`` →
    ``stop()``. Also usable as a context manager (enters started, exits
    drained and stopped).
    """

    def __init__(self, model: Module, config: ServeConfig | None = None):
        if not isinstance(model, Module):
            raise ServeError(f"Server needs a Module, got {type(model).__name__}")
        self.config = (config or ServeConfig()).resolved()
        self._queue = RequestQueue(self.config.queue_depth, self._retry_after_hint)
        self._replicas = [
            _Replica(i, copy.deepcopy(model).eval())
            for i in range(self.config.replicas)
        ]
        self._pool = None
        self._worker_futures: list[Future] = []
        self._state_lock = threading.Lock()
        # Published weights: (version, arrays). Version 0 = construction
        # weights, already present in every replica.
        self._published: tuple[int, dict | None] = (0, None)
        self._faults: dict[int, BaseException] = {}
        # Stats (under _state_lock).
        self._served_requests = 0
        self._served_samples = 0
        self._batches = 0
        self._rejected = 0
        self._fault_count = 0
        self._swap_count = 0
        self._ewma_rate = 0.0  # samples/s over recent batches

    # -- lifecycle ---------------------------------------------------------
    def start(self, warm: np.ndarray | None = None) -> "Server":
        """Launch the replica workers (idempotent).

        ``warm`` — an optional sample batch run once through every replica
        before serving starts, so plan caches are built ahead of the first
        request instead of on it.
        """
        if self._pool is not None:
            return self
        if self._queue.closed:
            raise ServeError("server was stopped; build a new Server to serve again")
        if warm is not None:
            batch = np.asarray(warm, dtype=np.float32)
            with no_grad():
                for replica in self._replicas:
                    replica.model(Tensor(batch))
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.replicas, thread_name_prefix="repro-serve"
        )
        self._worker_futures = [
            self._pool.submit(self._replica_loop, replica)
            for replica in self._replicas
        ]
        obs_events.get_event_log().emit(
            "serve_start",
            replicas=self.config.replicas,
            max_batch=self.config.max_batch,
            deadline_ms=self.config.deadline_ms,
            queue_depth=self.config.queue_depth,
        )
        return self

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop serving. ``drain=True`` serves queued requests first;
        ``drain=False`` fails them with :class:`~repro.errors.ServeError`."""
        self._queue.close(drain=drain)
        if self._pool is not None:
            for future in self._worker_futures:
                future.result(timeout=timeout)  # surfaces worker crashes
            self._pool.shutdown(wait=True)
            self._pool = None
        obs_events.get_event_log().emit("serve_stop", drained=drain, **self.stats())

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._pool is not None and not self._queue.closed

    # -- request submission ------------------------------------------------
    def submit(self, x: np.ndarray) -> Future:
        """Queue ONE sample; the future resolves to a :class:`Prediction`
        whose ``logits`` is a single row.

        Raises :class:`~repro.errors.BackpressureError` (with
        ``retry_after_s``) when the queue is at depth — never blocks or
        hangs on a full queue.
        """
        x = np.asarray(x, dtype=np.float32)
        return self._enqueue(x[None], single=True)

    def submit_batch(self, xs: np.ndarray) -> Future:
        """Queue a batch of samples as one indivisible request.

        The whole batch is served by one replica under one weight version;
        a batch larger than ``max_batch`` runs as its own oversize
        micro-batch. Resolves to a :class:`Prediction` with 2-D logits.
        """
        xs = np.asarray(xs, dtype=np.float32)
        if xs.ndim < 2:
            raise ServeError(
                f"submit_batch needs a (batch, ...) array, got shape {xs.shape}; "
                "use submit() for a single sample"
            )
        if xs.shape[0] == 0:
            raise ServeError("submit_batch got an empty batch")
        return self._enqueue(xs, single=False)

    def _enqueue(self, x: np.ndarray, single: bool) -> Future:
        enqueued_ns = tr.get_trace_recorder().now_ns() if tr.enabled else 0
        request = Request(x, single=single, enqueued_ns=enqueued_ns)
        try:
            self._queue.put(request)
        except ServeError:
            with self._state_lock:
                self._rejected += 1
            met.inc("serve.rejected")
            raise
        met.set_gauge("serve.queue_depth", self._queue.depth_samples())
        return request.future

    # -- weight swap ---------------------------------------------------------
    def swap_weights(self, source: Module | dict) -> int:
        """Publish new weights with zero downtime; returns the new version.

        ``source`` is a model of the same architecture (its state is
        snapshotted now) or an arrays dict from
        :func:`repro.utils.serialization.model_state_arrays` /  a loaded
        ``.npz`` checkpoint. Serving never pauses: replicas pick the new
        version up between micro-batches, in-flight batches finish under
        the old weights, and every response reports the version it was
        computed under. Quantization step state travels with the arrays,
        and the ``Parameter.version`` bump makes each replica rebuild its
        GEMM plans on first use of the new weights.
        """
        if isinstance(source, Module):
            arrays = model_state_arrays(source)
        else:
            arrays = dict(source)
        with self._state_lock:
            version = self._published[0] + 1
            self._published = (version, arrays)
            self._swap_count += 1
        met.inc("serve.weight_swaps_published")
        obs_events.get_event_log().emit("serve_weight_swap", version=version)
        return version

    @property
    def weights_version(self) -> int:
        """The most recently published weight version."""
        return self._published[0]

    # -- chaos hook ----------------------------------------------------------
    def inject_replica_fault(self, replica: int = 0, exc: BaseException | None = None) -> None:
        """Arm a one-shot fault on a replica (test/chaos hook).

        The replica's *next* micro-batch fails with ``exc`` (default
        ``ServeError``): its requests get the exception on their futures,
        the failure is counted and logged, and the replica keeps serving —
        a fault is isolated to the batch that hit it.
        """
        if not 0 <= replica < len(self._replicas):
            raise ServeError(
                f"no replica {replica}; server has {len(self._replicas)}"
            )
        with self._state_lock:
            self._faults[replica] = exc or ServeError(
                f"injected fault on replica {replica}"
            )

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict:
        """Point-in-time serving statistics (plain scalars, JSON-safe)."""
        with self._state_lock:
            batches = self._batches
            samples = self._served_samples
            stats = {
                "replicas": self.config.replicas,
                "max_batch": self.config.max_batch,
                "deadline_ms": self.config.deadline_ms,
                "queue_depth_limit": self.config.queue_depth,
                "queue_depth": self._queue.depth_samples(),
                "served_requests": self._served_requests,
                "served_samples": samples,
                "batches": batches,
                "mean_batch_size": (samples / batches) if batches else 0.0,
                "batch_occupancy": (
                    samples / (batches * self.config.max_batch) if batches else 0.0
                ),
                "rejected": self._rejected,
                "replica_faults": self._fault_count,
                "weight_swaps": self._swap_count,
                "weights_version": self._published[0],
                "replica_versions": [r.version for r in self._replicas],
                "throughput_estimate_sps": self._ewma_rate,
            }
        return stats

    def _retry_after_hint(self) -> float:
        """Backpressure hint: time to drain the queue at the recent rate,
        floored at one batching deadline."""
        floor = max(self.config.deadline_ms / 1000.0, 0.001)
        with self._state_lock:
            rate = self._ewma_rate
        if rate <= 0:
            return max(floor, 0.05)
        return min(max(self._queue.depth_samples() / rate, floor), 5.0)

    # -- replica worker --------------------------------------------------------
    def _replica_loop(self, replica: _Replica) -> None:
        deadline_s = self.config.deadline_ms / 1000.0
        while True:
            batch = self._queue.next_batch(self.config.max_batch, deadline_s)
            if batch is None:
                return
            self._apply_swap(replica)
            self._run_batch(replica, batch)

    def _apply_swap(self, replica: _Replica) -> None:
        version, arrays = self._published
        if version == replica.version or arrays is None:
            return
        with tr.span("serve.weight_swap", replica=replica.index, version=version):
            load_model_arrays(
                replica.model, arrays, context=f"weight swap v{version}"
            )
        replica.version = version
        met.inc("serve.weight_swaps_applied")

    def _run_batch(self, replica: _Replica, batch: list[Request]) -> None:
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if not live:
            return
        total = sum(r.samples for r in live)
        start = time.perf_counter()
        fault = self._faults.pop(replica.index, None)
        batch_span_id = None
        try:
            with tr.span(
                "serve.batch",
                replica=replica.index,
                samples=total,
                requests=len(live),
                weights_version=replica.version,
            ):
                batch_span_id = tr.current_span_id()
                if fault is not None:
                    raise fault
                xs = live[0].x if len(live) == 1 else np.concatenate([r.x for r in live])
                with no_grad():
                    logits = replica.model(Tensor(xs)).data
        except BaseException as exc:
            with self._state_lock:
                self._fault_count += 1
            met.inc("serve.replica_faults")
            obs_events.get_event_log().emit(
                "serve_replica_fault",
                level=obs_events.ERROR,
                replica=replica.index,
                requests=len(live),
                error=f"{type(exc).__name__}: {exc}",
            )
            for request in live:
                request.future.set_exception(exc)
            return
        done = time.perf_counter()
        done_ns = tr.get_trace_recorder().now_ns() if tr.enabled else 0
        offset = 0
        for request in live:
            rows = logits[offset : offset + request.samples]
            offset += request.samples
            latency = done - request.enqueued_perf
            request.future.set_result(
                Prediction(
                    logits=rows[0] if request.single else rows,
                    weights_version=replica.version,
                    replica=replica.index,
                    latency_s=latency,
                )
            )
            met.observe("serve.request_latency_s", latency)
            if request.enqueued_ns:
                tr.record_span(
                    "serve.request",
                    request.enqueued_ns,
                    done_ns,
                    parent_id=batch_span_id,
                    samples=request.samples,
                    replica=replica.index,
                )
        met.observe("serve.batch_size", total)
        met.observe("serve.batch_occupancy", total / self.config.max_batch)
        met.set_gauge("serve.queue_depth", self._queue.depth_samples())
        duration = done - start
        with self._state_lock:
            self._served_requests += len(live)
            self._served_samples += total
            self._batches += 1
            if duration > 0:
                rate = total / duration
                self._ewma_rate = (
                    rate if self._ewma_rate == 0.0
                    else 0.7 * self._ewma_rate + 0.3 * rate
                )
