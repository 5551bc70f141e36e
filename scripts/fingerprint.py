#!/usr/bin/env python
"""Trajectory fingerprint: one sha256 per stage of a smoke Algorithm 1.

At seed 0, on one BLAS thread, this trains

- ResNet20 at width 0.25: float pre-training, the quantization stage, then
  ApproxKD+GE with truncated5 and with evoapprox228;
- a 3-block MobileNetV2 at width 0.25 (1×1, depthwise and 48-channel
  layers): float pre-training, the quantization stage and ApproxKD+GE with
  truncated5.

Each stage's hash covers every parameter and buffer of its model, in
``state_dict`` order; top-1 on the test split is printed beside it. A change
that alters any byte a stage produces flips that stage's hash and every
later one. Bytes depend on the BLAS build and the CPU it dispatches to, so
the output records numpy, BLAS and the platform: compare fingerprints from
one machine.

Usage::

    python scripts/fingerprint.py [--out FINGERPRINT.json]
    python scripts/fingerprint.py --check FINGERPRINT.json

``--check`` writes nothing; it exits 1 and names the first stage whose hash
differs from FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)  # before numpy is first imported

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.data import make_synthetic_cifar  # noqa: E402
from repro.models import mobilenetv2, resnet20  # noqa: E402
from repro.pipeline import approximation_stage, quantization_stage  # noqa: E402
from repro.sim import evaluate_accuracy  # noqa: E402
from repro.train import TrainConfig, cross_entropy_loss, train_model  # noqa: E402

SEED = 0
TRUNC5, EVO228 = (("trunc5", "truncated5"),), (("evo228", "evoapprox228"),)
# (expansion, channels, blocks, stride) at width 0.25: 8 → 8, 8 → 48 → 8, 8 → 48 → 16.
MBV2_BLOCKS = ((1, 16, 1, 1), (6, 24, 1, 1), (6, 64, 1, 2))


def digest(model) -> str:
    h = hashlib.sha256()
    for name, array in model.state_dict().items():
        array = np.ascontiguousarray(array)
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def trajectory(name, model, data, multipliers):
    """Yield ``(stage, model)`` for float pre-training, quantization and
    one ApproxKD+GE stage per multiplier."""
    config = TrainConfig(epochs=5, batch_size=48, lr=0.05, lr_decay_every=3, seed=SEED)
    train_model(model, data, cross_entropy_loss(), config)
    yield f"{name}.fp", model
    config = TrainConfig(epochs=1, batch_size=48, lr=1e-3, seed=SEED)
    quant, _ = quantization_stage(model, data, train_config=config)
    yield f"{name}.quant", quant
    config = TrainConfig(epochs=1, batch_size=16, lr=0.01, grad_clip=1.0, seed=SEED)
    for label, multiplier in multipliers:
        approx, _ = approximation_stage(quant, data, multiplier, train_config=config, rng=SEED)
        yield f"{name}.{label}", approx


def fingerprint() -> dict:
    data = make_synthetic_cifar(
        num_train=480, num_test=200, image_size=16, noise=0.4, seed=SEED
    )
    mbv2 = mobilenetv2(width_mult=0.25, rng=SEED, inverted_residual_config=MBV2_BLOCKS)
    runs = (
        ("resnet20", resnet20(width_mult=0.25, rng=SEED), TRUNC5 + EVO228),
        ("mbv2", mbv2, TRUNC5),
    )
    stages = {}
    for name, model, multipliers in runs:
        for stage, trained in trajectory(name, model, data, multipliers):
            top1 = evaluate_accuracy(trained, data.test_x, data.test_y)
            stages[stage] = {"sha256": digest(trained), "top1": round(float(top1), 4)}
            print(f"{stage:16s} {stages[stage]['sha256']}  top-1 {top1:.3f}", flush=True)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": SEED,
        "stages": stages,
        "provenance": {
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREADS},
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
    }


def first_difference(got: dict, expected: dict) -> str | None:
    for stage, want in expected["stages"].items():
        if got["stages"].get(stage, {}).get("sha256") != want["sha256"]:
            return stage
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=REPO / "FINGERPRINT.json")
    parser.add_argument("--check", type=Path, metavar="FILE")
    args = parser.parse_args(argv)
    result = fingerprint()
    if args.check is None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.out}")
        return 0
    expected = json.loads(args.check.read_text())
    stage = first_difference(result, expected)
    if stage is None:
        print(f"every stage matches {args.check}")
        return 0
    print(f"first differing stage: {stage}")
    if result["provenance"] != expected["provenance"]:
        print("provenance differs too: bytes depend on the BLAS build and platform")
    return 1


if __name__ == "__main__":
    sys.exit(main())
