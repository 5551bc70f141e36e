"""Atomic writes and corruption detection on the serialization layer."""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.errors import ReproError
from repro.models import simplecnn
from repro.utils.atomic import (
    atomic_write_json,
    atomic_write_text,
    atomic_writer,
    file_sha256,
)
from repro.utils.serialization import load_model, load_results, save_model, save_results

pytestmark = pytest.mark.resilience


def no_temp_files(directory):
    return not [p for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestAtomicWriter:
    def test_round_trips(self, tmp_path):
        atomic_write_text(tmp_path / "a.txt", "hello")
        with atomic_writer(tmp_path / "b.bin") as stream:
            stream.write(b"\x00\x01")
        atomic_write_json(tmp_path / "c.json", {"k": 1})
        assert (tmp_path / "a.txt").read_text() == "hello"
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
        assert json.loads((tmp_path / "c.json").read_text()) == {"k": 1}
        assert no_temp_files(tmp_path)

    def test_exception_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "data.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_writer(target, "w") as stream:
                stream.write("half a new fi")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "old"
        assert no_temp_files(tmp_path)

    def test_failed_replace_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "data.txt"
        target.write_text("old")

        def broken_replace(src, dst):
            raise OSError("disk pulled at the worst instant")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert no_temp_files(tmp_path)

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "file.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_unsupported_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_writer(tmp_path / "x", "a"):
                pass

    def test_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        data = bytes(range(256)) * 100
        path.write_bytes(data)
        assert file_sha256(path) == hashlib.sha256(data).hexdigest()


class TestCorruptionDetection:
    def test_corrupt_results_raise_with_path(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('{"accuracy": 0.9, "cur')  # truncated mid-write
        with pytest.raises(ReproError, match=str(path)):
            load_results(path)

    def test_corrupt_model_raises_with_path(self, tmp_path, rng):
        path = tmp_path / "model.npz"
        path.write_bytes(rng.bytes(64))  # not a zip archive at all
        with pytest.raises(ReproError, match=str(path)):
            load_model(simplecnn(base_width=4, rng=0), path)

    def test_truncated_model_raises(self, tmp_path):
        path = tmp_path / "model.npz"
        save_model(simplecnn(base_width=4, rng=0), path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(ReproError, match=str(path)):
            load_model(simplecnn(base_width=4, rng=0), path)

    def test_failed_save_results_preserves_previous(self, tmp_path):
        path = tmp_path / "results.json"
        save_results({"ok": True}, path)
        with pytest.raises(ReproError):
            save_results({"bad": object()}, path)
        assert load_results(path) == {"ok": True}
        assert no_temp_files(tmp_path)


class TestSymmetricKeyReporting:
    def test_extra_array_rejected(self, tmp_path):
        src = simplecnn(base_width=4, rng=0)
        path = tmp_path / "model.npz"
        save_model(src, path)
        from repro.utils.serialization import model_state_arrays

        arrays = model_state_arrays(src)
        arrays["phantom.weight"] = np.zeros(3, dtype=np.float32)
        with atomic_writer(path, "wb") as stream:
            np.savez(stream, **arrays)
        with pytest.raises(ReproError, match="unexpected.*phantom.weight"):
            load_model(simplecnn(base_width=4, rng=1), path)

    def test_missing_array_rejected(self, tmp_path):
        src = simplecnn(base_width=4, rng=0)
        path = tmp_path / "model.npz"
        from repro.utils.serialization import model_state_arrays

        arrays = model_state_arrays(src)
        dropped = next(iter(arrays))
        del arrays[dropped]
        with atomic_writer(path, "wb") as stream:
            np.savez(stream, **arrays)
        with pytest.raises(ReproError, match="missing"):
            load_model(simplecnn(base_width=4, rng=1), path)
