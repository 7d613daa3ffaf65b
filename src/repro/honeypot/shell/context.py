"""Execution context shared by shell commands.

The context carries the fake filesystem, environment variables, the URI
resolver used to satisfy downloads, and accumulators for everything the
honeypot must record: file creations/modifications (with content hashes),
downloads (with simulated transfer time, which feeds the session timeout
logic), and whether the client asked to exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.honeypot.filesystem import FakeFilesystem
from repro.honeypot.shell.resolver import UriResolver, StaticPayloadResolver


@dataclass
class FileChange:
    """A file created or modified by a client command."""

    path: str
    sha256: str
    size: int
    created: bool  # True = new file, False = modification


@dataclass
class DownloadRecord:
    """A remote resource fetched during the session."""

    uri: str
    sha256: Optional[str]
    size: int
    duration: float
    success: bool
    #: Where the payload was saved; with ``open_error``, where it was not.
    saved_path: Optional[str] = None
    #: Why the output file could not be opened (``"Is a directory"``).
    open_error: Optional[str] = None


@dataclass
class ShellContext:
    fs: FakeFilesystem
    resolver: UriResolver = field(default_factory=StaticPayloadResolver)
    env: Dict[str, str] = field(default_factory=lambda: {
        "HOME": "/root",
        "PATH": "/usr/bin:/bin:/usr/sbin:/sbin",
        "USER": "root",
        "SHELL": "/bin/sh",
    })
    hostname: str = "localhost"
    now: float = 0.0

    file_changes: List[FileChange] = field(default_factory=list)
    downloads: List[DownloadRecord] = field(default_factory=list)
    exit_requested: bool = False

    def record_write(self, path: str, content: bytes, append: bool = False) -> FileChange:
        """Write through the fs and record the resulting change."""
        entry, created = self.fs.write(path, content, now=self.now, append=append)
        change = FileChange(
            path=entry.path, sha256=entry.sha256, size=entry.size, created=created
        )
        self.file_changes.append(change)
        return change

    def record_download(self, uri: str, save_as: Optional[str] = None) -> DownloadRecord:
        """Fetch ``uri`` via the resolver, store the payload, record it."""
        path = save_as or self._default_save_path(uri)
        if self.fs.is_dir(path):
            # Fetchers open their output before saving; onto a directory
            # that open fails, so nothing is written and no hash recorded.
            record = DownloadRecord(
                uri=uri, sha256=None, size=0, duration=0.0, success=False,
                saved_path=path, open_error="Is a directory",
            )
            self.downloads.append(record)
            return record
        payload = self.resolver.fetch(uri)
        if payload is None:
            record = DownloadRecord(
                uri=uri, sha256=None, size=0, duration=self.resolver.failure_delay(uri),
                success=False,
            )
            self.downloads.append(record)
            return record
        change = self.record_write(path, payload)
        record = DownloadRecord(
            uri=uri,
            sha256=change.sha256,
            size=change.size,
            duration=self.resolver.transfer_time(uri, len(payload)),
            success=True,
            saved_path=change.path,
        )
        self.downloads.append(record)
        return record

    def _default_save_path(self, uri: str) -> str:
        name = uri.rstrip("/").rsplit("/", 1)[-1] or "index.html"
        # strip URL query strings
        name = name.split("?", 1)[0] or "download"
        return f"{self.fs.cwd}/{name}" if self.fs.cwd != "/" else f"/{name}"
