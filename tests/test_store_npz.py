"""Tests for the fast .npz store persistence."""

import numpy as np
import pytest

from repro.store.npz import save_npz, load_npz
from repro.store.store import StoreBuilder

from tests.test_store import make_record


class TestNpzRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        builder = StoreBuilder()
        builder.append(make_record())
        builder.append(make_record(client_ip=9, protocol="telnet",
                                   file_hashes=("a" * 64, "b" * 64)))
        builder.append(make_record(commands=(), file_hashes=(),
                                   login_success=False, password="",
                                   username="", client_version=""))
        store = builder.build()
        path = tmp_path / "trace.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        assert len(loaded) == len(store)
        for i in range(len(store)):
            assert loaded.record(i) == store.record(i)

    def test_columns_preserved(self, tmp_path):
        builder = StoreBuilder()
        for i in range(20):
            builder.append(make_record(client_ip=i, start_time=i * 86_400.0))
        store = builder.build()
        path = tmp_path / "t.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        assert np.array_equal(loaded.client_ip, store.client_ip)
        assert np.array_equal(loaded.day, store.day)
        assert loaded.hash_ids == store.hash_ids

    def test_empty_store(self, tmp_path):
        store = StoreBuilder().build()
        path = tmp_path / "empty.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        assert len(loaded) == 0

    def test_generated_roundtrip(self, small_store, tmp_path):
        path = tmp_path / "gen.npz"
        save_npz(small_store, path)
        loaded = load_npz(path)
        assert len(loaded) == len(small_store)
        assert np.array_equal(loaded.start_time, small_store.start_time)
        assert np.array_equal(loaded.honeypot, small_store.honeypot)
        assert loaded.hashes.values() == small_store.hashes.values()
        # Spot-check full records.
        for i in (0, len(loaded) // 2, len(loaded) - 1):
            assert loaded.record(i) == small_store.record(i)

    def test_analyses_work_on_loaded(self, small_store, tmp_path):
        from repro.core.classify import classify_store
        path = tmp_path / "gen.npz"
        save_npz(small_store, path)
        loaded = load_npz(path)
        assert np.array_equal(classify_store(loaded), classify_store(small_store))

    def test_version_check(self, tmp_path):
        builder = StoreBuilder()
        builder.append(make_record())
        path = tmp_path / "v.npz"
        save_npz(builder.build(), path)
        # Corrupt the version marker.
        data = dict(np.load(path, allow_pickle=True))
        data["format_version"] = np.array([99])
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError):
            load_npz(path)


class _Payload:
    """Pickles to a call that creates ``marker`` when unpickled."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        import pathlib
        return pathlib.Path.touch, (pathlib.Path(self.marker),)


def _saved(tmp_path, name="s.npz"):
    builder = StoreBuilder()
    builder.append(make_record())
    path = tmp_path / name
    save_npz(builder.build(), path)
    return path


class TestNpzHostileFiles:
    """load_npz never unpickles, and anything malformed is a ValueError
    naming the file."""

    def test_pickle_bearing_npz_does_not_run(self, tmp_path):
        marker = tmp_path / "ran"
        data = dict(np.load(_saved(tmp_path)))
        table = np.empty(1, dtype=object)
        table[0] = _Payload(marker)
        data["table_honeypots"] = table
        crafted = tmp_path / "crafted.npz"
        np.savez(crafted, **data)
        with pytest.raises(ValueError, match="crafted.npz"):
            load_npz(crafted)
        assert not marker.exists()

    def test_bare_pickle_does_not_run(self, tmp_path):
        import pickle

        marker = tmp_path / "ran"
        crafted = tmp_path / "pickled.npz"
        crafted.write_bytes(pickle.dumps(_Payload(marker)))
        with pytest.raises(ValueError, match="pickled.npz"):
            load_npz(crafted)
        assert not marker.exists()

    def test_random_bytes(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(np.random.default_rng(0).bytes(4096))
        with pytest.raises(ValueError, match="noise.npz"):
            load_npz(path)

    def test_empty_and_missing_files(self, tmp_path):
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="empty.npz"):
            load_npz(empty)
        with pytest.raises(ValueError, match="absent.npz"):
            load_npz(tmp_path / "absent.npz")

    def test_missing_column(self, tmp_path):
        data = dict(np.load(_saved(tmp_path)))
        del data["duration"]
        path = tmp_path / "partial.npz"
        np.savez(path, **data)
        with pytest.raises(ValueError, match="partial.npz.*duration"):
            load_npz(path)

    def test_wrong_format_version(self, tmp_path):
        data = dict(np.load(_saved(tmp_path)))
        data["format_version"] = np.array([1])
        path = tmp_path / "v1.npz"
        np.savez(path, **data)
        with pytest.raises(ValueError, match="v1.npz.*version 1"):
            load_npz(path)

    def test_bare_npy_array(self, tmp_path):
        path = tmp_path / "array.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.arange(3))
        with pytest.raises(ValueError, match="array.npz"):
            load_npz(path)

    @pytest.mark.parametrize("content", [b"\x00" * 64, b"PK\x03\x04broken"])
    def test_cli_load_prints_one_line(self, tmp_path, capsys, content):
        from repro.__main__ import main

        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["report", "--scale", "80000", "--load", str(path)])
        message = str(exc.value.code)
        assert message.startswith("--load: ") and "bad.npz" in message
        assert "\n" not in message


class TestNpzWriter:
    def test_suffix_appended_like_numpy(self, tmp_path):
        builder = StoreBuilder()
        builder.append(make_record())
        save_npz(builder.build(), tmp_path / "bare")
        assert len(load_npz(tmp_path / "bare.npz")) == 1

    def test_strings_with_nul_and_unicode_roundtrip(self, tmp_path):
        builder = StoreBuilder()
        builder.append(make_record(password="pw\x00", username="röot\x00",
                                   commands=("echo \x00", "uname -a")))
        store = builder.build()
        path = tmp_path / "nul.npz"
        save_npz(store, path)
        loaded = load_npz(path)
        assert loaded.record(0) == store.record(0)
        assert loaded.content_digest() == store.content_digest()

    def test_archive_holds_no_object_arrays(self, small_store, tmp_path):
        path = tmp_path / "gen.npz"
        save_npz(small_store, path)
        with np.load(path, allow_pickle=False) as data:
            for name in data.files:
                assert data[name].dtype != object, name
        assert load_npz(path).content_digest() == small_store.content_digest()
