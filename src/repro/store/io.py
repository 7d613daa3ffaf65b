"""Persistence for session records: JSON Lines (optionally gzipped).

One JSON object per session, mirroring :class:`SessionRecord`.  The format
is deliberately boring — it is the interchange surface between the
generator, the analysis library, and external tooling.
"""

from __future__ import annotations

import gzip
import json
import math
import zlib
from pathlib import Path
from typing import Iterable, Iterator, Union

import numpy as np

from repro.store.records import STORE_COLUMN_DTYPES, SessionRecord
from repro.store.store import SessionStore, StoreBuilder

PathLike = Union[str, Path]


def _open(path: PathLike, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def record_to_dict(record: SessionRecord) -> dict:
    return {
        "start_time": record.start_time,
        "duration": record.duration,
        "honeypot_id": record.honeypot_id,
        "protocol": record.protocol,
        "client_ip": record.client_ip,
        "client_asn": record.client_asn,
        "client_country": record.client_country,
        "n_login_attempts": record.n_login_attempts,
        "login_success": record.login_success,
        "username": record.username,
        "password": record.password,
        "commands": list(record.commands),
        "uris": list(record.uris),
        "file_hashes": list(record.file_hashes),
        "close_reason": record.close_reason,
        "client_version": record.client_version,
    }


def record_from_dict(data: dict) -> SessionRecord:
    return SessionRecord(
        start_time=float(data["start_time"]),
        duration=float(data["duration"]),
        honeypot_id=data["honeypot_id"],
        protocol=data["protocol"],
        client_ip=int(data["client_ip"]),
        client_asn=int(data.get("client_asn", -1)),
        client_country=data.get("client_country", ""),
        n_login_attempts=int(data.get("n_login_attempts", 0)),
        login_success=bool(data.get("login_success", False)),
        username=data.get("username", ""),
        password=data.get("password", ""),
        commands=tuple(data.get("commands", ())),
        uris=tuple(data.get("uris", ())),
        file_hashes=tuple(data.get("file_hashes", ())),
        close_reason=data.get("close_reason", "client-disconnect"),
        client_version=data.get("client_version", ""),
    )


def write_jsonl(records: Iterable[SessionRecord], path: PathLike) -> int:
    """Write records to a JSONL (or .jsonl.gz) file. Returns row count."""
    count = 0
    with _open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record_to_dict(record), separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


_REQUIRED_FIELDS = ("start_time", "duration", "honeypot_id", "protocol",
                    "client_ip")
_STRING_FIELDS = ("honeypot_id", "protocol", "client_country", "username",
                  "password", "close_reason", "client_version")
_LIST_FIELDS = ("commands", "uris", "file_hashes")
#: Integer fields and the bounds of the store column each one fills.
_INT_BOUNDS = {
    name: (int(np.iinfo(STORE_COLUMN_DTYPES[column]).min),
           int(np.iinfo(STORE_COLUMN_DTYPES[column]).max))
    for name, column in (("client_ip", "client_ip"),
                         ("client_asn", "client_asn"),
                         ("n_login_attempts", "n_attempts"))
}


def _parse_line(line: str) -> SessionRecord:
    data = json.loads(line)
    if not isinstance(data, dict):
        raise TypeError("not a JSON object")
    for name in _REQUIRED_FIELDS:
        if name not in data:
            raise ValueError(f"missing field {name!r}")
    for name in _STRING_FIELDS:
        if not isinstance(data.get(name, ""), str):
            raise TypeError(f"field {name!r} is not a string")
    for name in _LIST_FIELDS:
        value = data.get(name, [])
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise TypeError(f"field {name!r} is not a list of strings")
    record = record_from_dict(data)
    if not (math.isfinite(record.start_time) and math.isfinite(record.duration)):
        raise ValueError("start_time and duration must be finite")
    for name, (low, high) in _INT_BOUNDS.items():
        if not low <= getattr(record, name) <= high:
            raise ValueError(f"field {name!r} out of range")
    return record


def iter_jsonl(path: PathLike) -> Iterator[SessionRecord]:
    """Stream records from a JSONL (or .jsonl.gz) file.

    Raises ``ValueError`` naming ``path`` and the line for anything that
    is not a readable trace: a missing file, bad or truncated gzip, text
    that is not UTF-8 or not JSON, a missing or mistyped field.
    """
    lineno = 0
    try:
        with _open(path, "r") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _parse_line(line)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"{path}: line {lineno}: not a session record ({exc})"
                    ) from exc
                yield record
    except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise ValueError(
            f"{path}: line {lineno + 1}: not a readable trace ({exc})"
        ) from exc


def read_jsonl(path: PathLike) -> SessionStore:
    """Load a JSONL trace into a frozen :class:`SessionStore`.

    Raises ``ValueError`` for a malformed trace, as :func:`iter_jsonl`.
    """
    builder = StoreBuilder()
    for record in iter_jsonl(path):
        builder.append(record)
    return builder.build()
