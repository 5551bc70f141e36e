"""Batched inference serving on the plan-cached evaluation path.

``repro.serve`` turns the weight-stationary fast path
(:mod:`repro.approx.plan`) into an inference service (``docs/SERVING.md``):

- :class:`~repro.serve.server.Server` — model-replica workers on the
  :mod:`repro.parallel` thread executor, each holding a warm per-replica
  plan cache, fed by a request queue with dynamic micro-batching
  (single-sample requests coalesce into one plan-cached GEMM batch under
  a configurable latency deadline);
- admission control — bounded-queue backpressure raising
  :class:`~repro.errors.BackpressureError` with a ``retry_after_s`` hint
  past the depth threshold;
- zero-downtime weight swap — :meth:`~repro.serve.server.Server.swap_weights`
  publishes a new weight version; in-flight batches drain under the old
  version and plans rebuild by construction via ``Parameter.version``;
- :class:`~repro.serve.client.Client` — sync/future submission with
  backpressure-aware retry;
- :class:`~repro.serve.http.HttpFrontend` — optional stdlib HTTP front
  end (``/v1/predict``, ``/healthz``, Prometheus ``/metrics``);
- :func:`~repro.serve.loadgen.run_load` — the closed- and open-loop load generator
  behind ``BENCH_serve.json`` (throughput at a p95 latency SLO, batch
  occupancy, bitwise response verification).

Every response is bitwise identical to evaluating the same sample alone
under the weight version it was served with: the quantized integer path
is batch-invariant (exact integer arithmetic), so coalescing requests
changes speed only, never results.
"""

from repro.errors import BackpressureError, ServeError
from repro.serve.batching import Request, RequestQueue
from repro.serve.client import Client
from repro.serve.http import HttpFrontend
from repro.serve.loadgen import LoadReport, run_load
from repro.serve.server import Prediction, ServeConfig, Server

__all__ = [
    "BackpressureError",
    "Client",
    "HttpFrontend",
    "LoadReport",
    "Prediction",
    "Request",
    "RequestQueue",
    "ServeConfig",
    "ServeError",
    "Server",
    "run_load",
]
