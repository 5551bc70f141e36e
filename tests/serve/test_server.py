"""Server integration: bitwise identity, weight swap, backpressure, faults.

The two load-bearing guarantees (ISSUE 9 / ``docs/SERVING.md``):

1. every served response is bitwise identical to evaluating the same
   sample alone under exactly one weight version — micro-batching and
   weight swapping change speed and freshness, never numbers, and no
   batch is ever torn across versions;
2. a submit past the queue-depth bound fails fast with
   :class:`~repro.errors.BackpressureError` — admission control rejects,
   it never hangs.
"""

from __future__ import annotations

import copy
import time

import numpy as np
import pytest

from repro.autograd.grad_mode import no_grad
from repro.autograd.tensor import Tensor
from repro.errors import BackpressureError, ServeError
from repro.serve import Client, ServeConfig, Server

pytestmark = pytest.mark.serve


def _single_eval(model, xs: np.ndarray) -> np.ndarray:
    """Reference: each sample evaluated alone (batch size 1)."""
    with no_grad():
        return np.concatenate([model(Tensor(xs[i : i + 1])).data for i in range(len(xs))])


@pytest.fixture()
def samples(tiny_dataset):
    return tiny_dataset.test_x[:24].astype(np.float32)


class TestServeConfig:
    def test_resolution_fills_defaults(self):
        resolved = ServeConfig().resolved()
        assert resolved.deadline_ms == 5.0
        assert resolved.max_batch == 32
        assert resolved.queue_depth == 256
        assert resolved.replicas >= 1

    def test_resolution_honours_configure(self):
        from repro import config

        previous = config.configure(serve_max_batch=4, serve_queue_depth=16)
        try:
            resolved = ServeConfig().resolved()
        finally:
            config.configure(**previous)
        assert resolved.max_batch == 4
        assert resolved.queue_depth == 16

    def test_explicit_fields_beat_ambient_config(self):
        from repro import config

        previous = config.configure(serve_max_batch=4)
        try:
            resolved = ServeConfig(max_batch=8, queue_depth=64).resolved()
        finally:
            config.configure(**previous)
        assert resolved.max_batch == 8

    def test_validation(self):
        with pytest.raises(ServeError):
            ServeConfig(max_batch=0, queue_depth=8).resolved()
        with pytest.raises(ServeError):
            ServeConfig(deadline_ms=-1.0).resolved()
        with pytest.raises(ServeError):
            ServeConfig(max_batch=16, queue_depth=8).resolved()
        with pytest.raises(ServeError):
            ServeConfig(replicas=0).resolved()


class TestBitwiseIdentity:
    def test_batched_responses_match_single_sample_eval(
        self, quantized_model, samples
    ):
        reference = _single_eval(quantized_model, samples)
        config = ServeConfig(deadline_ms=5.0, max_batch=8, queue_depth=64, replicas=2)
        with Server(quantized_model, config) as server:
            predictions = Client(server).map(list(samples))
        got = np.stack([p.logits for p in predictions])
        assert np.array_equal(reference, got)
        assert all(p.weights_version == 0 for p in predictions)

    def test_batch_submit_matches_and_is_single_version(
        self, quantized_model, samples
    ):
        reference = _single_eval(quantized_model, samples[:6])
        config = ServeConfig(deadline_ms=2.0, max_batch=4, queue_depth=64, replicas=1)
        with Server(quantized_model, config) as server:
            prediction = Client(server).predict_batch(samples[:6])  # oversize: solo
        assert np.array_equal(reference, prediction.logits)
        assert prediction.weights_version == 0


class TestWeightSwap:
    def test_responses_during_swap_are_bitwise_under_exactly_one_version(
        self, quantized_model, samples
    ):
        """ISSUE 9 satellite test (a): no torn batches across a swap.

        A stream of requests is submitted while the weights are swapped
        mid-flight. Every response must equal single-sample evaluation
        under the *one* weight version it reports — old or new, never a
        mixture — and late responses must be on the new version.
        """
        perturbed = copy.deepcopy(quantized_model)
        with no_grad():
            first = next(iter(perturbed.parameters()))
            first.data = (first.data * np.float32(0.75)).astype(np.float32)
        reference = {
            0: _single_eval(quantized_model, samples),
            1: _single_eval(perturbed, samples),
        }
        # The two versions must actually disagree or the test proves nothing.
        assert not np.array_equal(reference[0], reference[1])

        config = ServeConfig(deadline_ms=5.0, max_batch=4, queue_depth=256, replicas=2)
        with Server(quantized_model, config) as server:
            client = Client(server)
            futures = []
            for lap in range(6):
                futures.extend(
                    (i, client.submit(samples[i])) for i in range(len(samples))
                )
                if lap == 2:
                    assert server.swap_weights(perturbed) == 1
            results = [(i, f.result(timeout=30)) for i, f in futures]

        versions = {p.weights_version for _, p in results}
        assert versions <= {0, 1}
        assert 1 in versions  # the swap landed while serving
        for i, prediction in results:
            assert np.array_equal(
                reference[prediction.weights_version][i], prediction.logits
            ), f"response for sample {i} not bitwise under v{prediction.weights_version}"

    def test_swap_is_zero_downtime(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=1.0, max_batch=4, queue_depth=64, replicas=1)
        with Server(quantized_model, config) as server:
            client = Client(server)
            client.predict(samples[0])
            server.swap_weights(quantized_model)  # same weights, new version
            prediction = client.predict(samples[0])
            assert prediction.weights_version == 1
            assert server.stats()["replica_versions"] == [1]

    def test_swap_accepts_state_arrays(self, quantized_model, samples):
        from repro.utils.serialization import model_state_arrays

        config = ServeConfig(deadline_ms=1.0, max_batch=4, queue_depth=64, replicas=1)
        with Server(quantized_model, config) as server:
            version = server.swap_weights(model_state_arrays(quantized_model))
            assert version == 1
            prediction = Client(server).predict(samples[0])
        assert prediction.weights_version == 1
        assert np.array_equal(
            prediction.logits, _single_eval(quantized_model, samples[:1])[0]
        )


class TestBackpressure:
    def test_submit_past_depth_rejects_not_hangs(self, quantized_model, samples):
        """ISSUE 9 satellite test (b): bounded queue fails fast."""
        config = ServeConfig(deadline_ms=50.0, max_batch=4, queue_depth=4, replicas=1)
        server = Server(quantized_model, config)  # not started: nothing drains
        try:
            for i in range(4):
                server.submit(samples[i])
            start = time.perf_counter()
            with pytest.raises(BackpressureError) as excinfo:
                server.submit(samples[0])
            assert time.perf_counter() - start < 0.5
            assert excinfo.value.retry_after_s > 0
            assert server.stats()["rejected"] == 1
        finally:
            server.start()  # drain the four queued requests, then stop
            server.stop()

    def test_client_retry_absorbs_backpressure(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=1.0, max_batch=4, queue_depth=4, replicas=1)
        with Server(quantized_model, config) as server:
            client = Client(server, retries=64, timeout_s=60)
            predictions = client.map([samples[i % 8] for i in range(32)])
        assert len(predictions) == 32

    def test_raw_submit_does_not_retry(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=50.0, max_batch=2, queue_depth=2, replicas=1)
        server = Server(quantized_model, config)
        try:
            server.submit(samples[0])
            server.submit(samples[1])
            with pytest.raises(BackpressureError):
                Client(server).submit(samples[2])
        finally:
            server.start()
            server.stop()


class TestLifecycleAndFaults:
    def test_stop_drains_queued_requests(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=50.0, max_batch=8, queue_depth=64, replicas=1)
        server = Server(quantized_model, config)
        futures = [server.submit(samples[i]) for i in range(6)]
        server.start()
        server.stop(drain=True)
        reference = _single_eval(quantized_model, samples[:6])
        for i, future in enumerate(futures):
            assert np.array_equal(future.result(timeout=5).logits, reference[i])

    def test_stop_without_drain_fails_queued(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=60_000.0, max_batch=64, queue_depth=64,
                             replicas=1)
        server = Server(quantized_model, config)
        future = server.submit(samples[0])
        server.stop(drain=False)
        with pytest.raises(ServeError):
            future.result(timeout=5)

    def test_submit_after_stop_raises(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=1.0, max_batch=4, queue_depth=16, replicas=1)
        server = Server(quantized_model, config)
        server.start()
        server.stop()
        with pytest.raises(ServeError):
            server.submit(samples[0])

    def test_injected_fault_is_isolated_to_one_batch(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=1.0, max_batch=4, queue_depth=64, replicas=1)
        with Server(quantized_model, config) as server:
            client = Client(server)
            server.inject_replica_fault(0)
            failed = served = 0
            for i in range(12):
                try:
                    client.predict(samples[i])
                    served += 1
                except ServeError:
                    failed += 1
            assert failed >= 1  # the armed fault fired...
            assert served >= 10  # ...and the replica kept serving afterwards
            assert server.stats()["replica_faults"] == 1

    def test_rejects_non_module(self):
        with pytest.raises(ServeError):
            Server(object())  # type: ignore[arg-type]

    def test_submit_batch_validates_shape(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=1.0, max_batch=4, queue_depth=16, replicas=1)
        server = Server(quantized_model, config)
        with pytest.raises(ServeError):
            server.submit_batch(samples[0].ravel()[:4])  # 1-D: not a batch
        with pytest.raises(ServeError):
            server.submit_batch(samples[:0])  # empty batch
        server.stop(drain=False)

    def test_stats_shape(self, quantized_model, samples):
        config = ServeConfig(deadline_ms=1.0, max_batch=4, queue_depth=16, replicas=2)
        with Server(quantized_model, config) as server:
            Client(server).map(list(samples[:8]))
            stats = server.stats()
        assert stats["served_requests"] == 8
        assert stats["served_samples"] == 8
        assert stats["batches"] >= 1
        assert 0.0 < stats["batch_occupancy"] <= 1.0
        assert stats["replicas"] == 2


class TestObservability:
    def test_serve_spans_and_metrics_are_recorded(self, quantized_model, samples):
        from repro.obs import metrics as met
        from repro.obs import trace as tr

        config = ServeConfig(deadline_ms=2.0, max_batch=4, queue_depth=64, replicas=1)
        met.reset_metrics()
        met.enable_metrics()
        try:
            with tr.tracing() as recorder:
                with Server(quantized_model, config) as server:
                    Client(server).map(list(samples[:8]))
                    server.swap_weights(quantized_model)
                    Client(server).predict(samples[0])
            names = {span.name for span in recorder.spans()}
            assert "serve.batch" in names
            assert "serve.request" in names
            assert "serve.weight_swap" in names
            text = met.to_prometheus(met.get_metrics())
            assert "serve_batch_size" in text
            assert "serve_request_latency_s" in text
        finally:
            met.disable_metrics()
            met.reset_metrics()
