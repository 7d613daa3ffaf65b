"""Fast columnar persistence for :class:`SessionStore` (numpy .npz).

JSONL (``repro.store.io``) is the interchange format; this module is the
fast path for saving/reloading large generated traces: all numeric columns
are stored as-is, each string table and the interned scripts as one UTF-8
JSON blob (a ``uint8`` array), and the variable-length per-session hash
lists in CSR-style (values + offsets) — the same shape the in-memory
:class:`HashIdColumn` uses, so save and load move whole arrays with no
per-row work.  Round-trips are exact.

Format version 2 holds no object arrays, so :func:`load_npz` reads with
``allow_pickle=False``: a crafted file cannot run code on load, and any
file that is not a well-formed store raises ``ValueError`` naming the file
and the reason.  (Version 1 kept strings in pickled object arrays.  JSON
blobs rather than numpy unicode arrays, because those drop trailing NUL
characters, which hostile input can carry.)
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.obs import get_metrics, stopwatch
from repro.store.interning import StringTable
from repro.store.records import CommandScript
from repro.store.store import HashIdColumn, SessionStore

PathLike = Union[str, Path]

_FORMAT_VERSION = 2

#: The ``format_version`` the content digest hashes: the digest covers
#: content, so it keeps version 1's definition across on-disk changes.
_DIGEST_FORMAT_VERSION = 1

#: Deflate level of :func:`save_npz` (``np.savez_compressed`` uses 6).
_COMPRESS_LEVEL = 1

_NUMERIC_COLUMNS = (
    "start_time", "duration", "honeypot", "protocol", "client_ip",
    "client_asn", "client_country", "n_attempts", "login_success",
    "script_id", "n_commands", "has_uri", "password_id", "username_id",
    "close_reason", "version_id",
)

_TABLES = ("honeypots", "countries", "passwords", "usernames", "hashes",
           "versions")


def _store_content(store: SessionStore) -> Tuple[dict, Dict[str, List[str]]]:
    """``(numeric arrays, string lists)`` keyed by npz name."""
    arrays = {name: getattr(store, name) for name in _NUMERIC_COLUMNS}
    # The in-memory hash column is already CSR — persist it verbatim.
    arrays["hash_values"] = np.asarray(store.hash_ids.values, dtype=np.int64)
    arrays["hash_offsets"] = np.asarray(store.hash_ids.offsets, dtype=np.int64)
    strings = {
        f"table_{name}": list(getattr(store, name).values()) for name in _TABLES
    }
    strings["scripts_json"] = [json.dumps(
        [[list(s.commands), list(s.uris)] for s in store.scripts]
    )]
    return arrays, strings


def store_digest(store: SessionStore) -> str:
    """sha256 over the persisted content of a store.

    Hashes the content :func:`save_npz` writes — numeric columns as raw
    bytes, string tables and interned scripts as JSON — so two stores
    digest equal iff their npz files round-trip to the same content.
    Backend/worker-count invariance checks compare these digests
    (``tests/test_sched.py``, the ci.sh backend matrix).
    """
    digest = hashlib.sha256()
    arrays, strings = _store_content(store)
    arrays["format_version"] = np.array([_DIGEST_FORMAT_VERSION])
    for name in sorted([*arrays, *strings]):
        digest.update(name.encode("utf-8"))
        if name in strings:
            digest.update(json.dumps(strings[name]).encode("utf-8"))
        else:
            arr = np.asarray(arrays[name])
            digest.update(str(arr.dtype).encode("utf-8"))
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _utf8(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def save_npz(store: SessionStore, path: PathLike) -> None:
    """Save a store to ``path`` (``.npz`` is appended when missing)."""
    watch = stopwatch()
    arrays, strings = _store_content(store)
    for name in _TABLES:
        arrays[f"table_{name}"] = _utf8(json.dumps(strings[f"table_{name}"]))
    arrays["scripts_json"] = _utf8(strings["scripts_json"][0])
    arrays["format_version"] = np.array([_FORMAT_VERSION])
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    with get_metrics().span("store/save_npz"), zipfile.ZipFile(
        path, "w", compression=zipfile.ZIP_DEFLATED,
        compresslevel=_COMPRESS_LEVEL,
    ) as archive:
        # The layout np.savez_compressed writes, at a faster level.
        for name, arr in arrays.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(arr),
                                          allow_pickle=False)
    metrics = get_metrics()
    metrics.inc("store.npz_saves")
    metrics.inc("store.npz_saved_sessions", len(store))
    elapsed = watch.elapsed()
    metrics.observe("store.npz_save_seconds", elapsed)
    if elapsed > 0:
        metrics.gauge_set(
            "store.npz_save_bytes_per_second",
            path.stat().st_size / elapsed,
        )


#: What a malformed file can raise while numpy opens and reads it.
_READ_ERRORS = (OSError, EOFError, ValueError, KeyError, TypeError,
                zipfile.BadZipFile)


def load_npz(path: PathLike) -> SessionStore:
    """Load a store saved by :func:`save_npz`.

    Raises ``ValueError`` naming ``path`` and the reason for anything that
    is not a readable version-2 store (missing file, random bytes, pickled
    data, a missing column, another format version).
    """
    watch = stopwatch()
    path = Path(path)
    with get_metrics().span("store/load_npz"):
        try:
            data = np.load(path, allow_pickle=False)
        except _READ_ERRORS as exc:
            raise ValueError(f"{path}: not a readable store ({exc})") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"{path}: not a store (a bare .npy array)")
        with data:
            try:
                store = _read_store(data)
            except _READ_ERRORS as exc:
                raise ValueError(f"{path}: not a readable store ({exc})") from exc
    metrics = get_metrics()
    metrics.inc("store.npz_loads")
    metrics.inc("store.npz_loaded_sessions", len(store))
    elapsed = watch.elapsed()
    metrics.observe("store.npz_load_seconds", elapsed)
    if elapsed > 0:
        metrics.gauge_set(
            "store.npz_load_bytes_per_second",
            path.stat().st_size / elapsed,
        )
    return store


def _json_blob(data, name: str):
    return json.loads(data[name].tobytes().decode("utf-8"))


def _read_store(data) -> SessionStore:
    version = int(data["format_version"][0])
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported store format version {version} (this build reads "
            f"{_FORMAT_VERSION}; regenerate the store)"
        )
    columns = {name: data[name] for name in _NUMERIC_COLUMNS}
    hash_ids = HashIdColumn(data["hash_values"], data["hash_offsets"])
    tables = {}
    for name in _TABLES:
        values = _json_blob(data, f"table_{name}")
        if not isinstance(values, list) \
                or not all(isinstance(v, str) for v in values):
            raise ValueError(f"table_{name} is not a list of strings")
        tables[name] = StringTable(values)
    scripts = [
        CommandScript(commands=tuple(commands), uris=tuple(uris))
        for commands, uris in _json_blob(data, "scripts_json")
    ]
    return SessionStore(hash_ids=hash_ids, scripts=scripts, **columns, **tables)
