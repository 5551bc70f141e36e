"""The supported public API of :mod:`repro`, in one place.

Import nothing from this module — it re-documents what ``import repro``
already exposes. The names below (all reachable as ``repro.<name>``) are
the stability surface: ``tests/test_public_api.py`` snapshots them, so
removing or renaming one fails CI; everything imported from deeper
module paths is implementation detail that may change between PRs.

Data
----
- ``repro.make_synthetic_cifar(...)`` — the deterministic synthetic
  CIFAR10 stand-in used throughout the reproduction.
- ``repro.Dataset`` — its in-memory train/test container.
- ``repro.DatasetProtocol`` — the formal dataset contract
  (:mod:`repro.data.protocol`): ``io_shape``, ``train_batches()``,
  ``test_batches()``. Anything implementing it plugs into training,
  evaluation and the serving load generator.

Models and training
-------------------
- ``repro.create_model(name, ...)`` — model registry (``resnet20/32``,
  ``mobilenetv2``, ``simplecnn``, ``lenet5``, ``vggsmall``).
- ``repro.TrainConfig`` — epochs/batch size/LR/momentum/seed bundle
  accepted by every training stage.

Approximation
-------------
- ``repro.get_multiplier(name)`` / ``repro.Multiplier`` — approximate
  multiplier registry and base class (:mod:`repro.approx`).
- ``repro.PlanCache`` — the weight-stationary kernel-plan cache behind
  the fast quantized GEMM path (:mod:`repro.approx.plan`).

Pipeline (Algorithm 1)
----------------------
- ``repro.quantization_stage(...)`` — 8A4W quantization + KD fine-tune.
- ``repro.approximation_stage(...)`` — approximate retraining under a
  chosen multiplier and method.
- ``repro.run_algorithm1(...)`` — both stages end-to-end.
- ``repro.evaluate_accuracy(model, x, y)`` — test-set accuracy on the
  (possibly approximate) inference path.

Runtime configuration
---------------------
- ``repro.configure(**knobs)`` — process-wide knob overrides; returns
  the previous values for restoration.
- The precedence chain (explicit value > ``configure()`` > ``REPRO_*``
  environment > default) and the knob registry live in
  :mod:`repro.config`; see ``docs/SERVING.md`` for the table.

Serving
-------
- ``repro.Server`` / ``repro.ServeConfig`` — micro-batched inference
  serving with replicas, backpressure and zero-downtime weight swap
  (:mod:`repro.serve`, ``docs/SERVING.md``).
- ``repro.Client`` — blocking/async submission with backpressure retry.

Errors
------
All library exceptions derive from ``repro.ReproError``; the serving
additions are ``ServeError`` and ``BackpressureError`` (importable from
:mod:`repro.errors` / :mod:`repro.serve`).
"""

from __future__ import annotations

PUBLIC_API: tuple[str, ...] = (
    "Client",
    "Dataset",
    "DatasetProtocol",
    "Multiplier",
    "PlanCache",
    "ServeConfig",
    "Server",
    "TrainConfig",
    "approximation_stage",
    "configure",
    "create_model",
    "evaluate_accuracy",
    "get_multiplier",
    "make_synthetic_cifar",
    "quantization_stage",
    "run_algorithm1",
)
