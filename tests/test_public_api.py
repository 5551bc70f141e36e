"""Snapshot of the curated public API (:mod:`repro.api`).

Two contracts:

1. The supported surface — ``repro.api.PUBLIC_API`` — matches what
   ``import repro`` actually re-exports, name for name. Adding a name
   means updating the snapshot here (a reviewed, deliberate act);
   removing or renaming one fails this test and is a breaking change.
2. Runtime knobs resolve only through :mod:`repro.config`: no module
   under ``src/repro`` other than ``config.py`` reads ``REPRO_*``
   environment variables at runtime (:mod:`repro.obs.runmeta` may stamp
   their raw values into provenance records, nothing else).
"""

from __future__ import annotations

import re
from pathlib import Path

import repro
import repro.api

# The reviewed snapshot. Keep sorted.
EXPECTED_PUBLIC_API = (
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


class TestPublicApiSnapshot:
    def test_snapshot_matches_declared_api(self):
        assert tuple(sorted(repro.api.PUBLIC_API)) == EXPECTED_PUBLIC_API

    def test_snapshot_matches_lazy_exports(self):
        assert tuple(sorted(repro._LAZY_EXPORTS)) == EXPECTED_PUBLIC_API

    def test_every_name_resolves_to_the_real_object(self):
        import importlib

        for name in EXPECTED_PUBLIC_API:
            module_name, attr = repro._LAZY_EXPORTS[name]
            assert getattr(repro, name) is getattr(
                importlib.import_module(module_name), attr
            )

    def test_dir_lists_public_names(self):
        listing = dir(repro)
        for name in EXPECTED_PUBLIC_API:
            assert name in listing


class TestKnobReadContainment:
    def test_runtime_env_reads_live_only_in_config(self):
        src = Path(repro.__file__).parent
        pattern = re.compile(r"os\.environ(?:\.get)?\(\s*[\"']REPRO_|os\.environ\[[\"']REPRO_")
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.name == "config.py" and path.parent == src:
                continue
            if pattern.search(path.read_text()):
                offenders.append(str(path.relative_to(src)))
        assert not offenders, (
            "REPRO_* environment reads outside repro.config — route them "
            f"through config.resolve(): {offenders}"
        )

    def test_every_knob_env_var_is_registered(self):
        from repro import config

        for name in config.knob_names():
            assert config.KNOBS[name].env.startswith("REPRO_")
