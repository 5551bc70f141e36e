"""In-process client for :class:`repro.serve.server.Server`.

Wraps the raw future API with the polite-load behaviours a caller would
otherwise re-implement: synchronous ``predict`` with bounded retry on
:class:`~repro.errors.BackpressureError` (sleeping the server's
``retry_after_s`` hint between attempts), and ``map`` for closed-loop
batch scoring.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import Iterable

import numpy as np

from repro.errors import BackpressureError, ServeError
from repro.serve.server import Prediction, Server


class Client:
    """Submission helper bound to one server.

    ``retries`` bounds how many backpressure rejections a blocking call
    absorbs before re-raising; ``timeout_s`` bounds the wait for any one
    result.
    """

    def __init__(self, server: Server, retries: int = 8, timeout_s: float = 60.0):
        self._server = server
        self.retries = int(retries)
        self.timeout_s = float(timeout_s)

    # -- async passthrough -------------------------------------------------
    def submit(self, x: np.ndarray) -> Future:
        """One sample, no retry — backpressure raises immediately."""
        return self._server.submit(x)

    def submit_batch(self, xs: np.ndarray) -> Future:
        return self._server.submit_batch(xs)

    # -- blocking with retry ------------------------------------------------
    def predict(self, x: np.ndarray, timeout_s: float | None = None) -> Prediction:
        """One sample's :class:`Prediction`, retrying through backpressure."""
        return self._submit_with_retry(x, batch=False).result(
            timeout=self.timeout_s if timeout_s is None else timeout_s
        )

    def predict_batch(
        self, xs: np.ndarray, timeout_s: float | None = None
    ) -> Prediction:
        """A batch's :class:`Prediction` (2-D logits), retrying through
        backpressure; the batch is served indivisibly."""
        return self._submit_with_retry(xs, batch=True).result(
            timeout=self.timeout_s if timeout_s is None else timeout_s
        )

    def map(self, samples: Iterable[np.ndarray]) -> list[Prediction]:
        """Score every sample; submission retries through backpressure.

        Closed-loop in submission order: results come back in the same
        order as ``samples`` regardless of how requests were batched.
        """
        futures = [self._submit_with_retry(x, batch=False) for x in samples]
        return [f.result(timeout=self.timeout_s) for f in futures]

    def _submit_with_retry(self, x: np.ndarray, batch: bool) -> Future:
        submit = self._server.submit_batch if batch else self._server.submit
        attempts = 0
        while True:
            try:
                return submit(x)
            except BackpressureError as exc:
                attempts += 1
                if attempts > self.retries:
                    raise
                time.sleep(exc.retry_after_s)
            except ServeError:
                raise
