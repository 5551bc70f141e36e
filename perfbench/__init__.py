"""The repository benchmark: Algorithm 1 and open-loop serving on ResNet20.

Run one workload with::

    python3 perfbench/run.py --workload algo1 --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object
(``correct``/``attempted``/``failed``/``metrics``); the line before it
holds the per-workload detail and provenance. ``--trace 1`` wraps the
program's public entry points from this package (:mod:`perfbench.tracer`)
and prints the per-layer metrics instead of the end-to-end ones.
"""
