"""In-memory Unix-like filesystem for the emulated shell.

The honeypot records a content hash whenever a client command creates or
modifies a file.  This filesystem tracks file content, permissions and
mtimes, normalises paths, and reports create/modify transitions so the
session layer can emit the matching events.

The default template mimics the minimal embedded-Linux layout that Cowrie
presents (busybox-ish /bin, /proc pseudo-files with plausible content).
"""

from __future__ import annotations

import hashlib
import posixpath
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple


def hash_content(content: bytes) -> str:
    """SHA-256 hex digest; the signature the farm uses to identify files."""
    return hashlib.sha256(content).hexdigest()


def encode_text(text: str) -> bytes:
    """UTF-8 bytes of client-typed text; never raises.

    Undecodable input bytes arrive as lone surrogates U+DC80..U+DCFF
    (``surrogateescape`` decoding) and encode back to those bytes; any
    other lone surrogate takes its three-byte ``surrogatepass`` form.
    Valid text encodes as plain UTF-8.
    """
    try:
        return text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        return text.encode("utf-8", "surrogatepass")


@dataclass(frozen=True)
class FileEntry:
    """One file or directory.  Immutable: a change replaces the entry, so
    every session's filesystem can share the pristine layout's entries."""

    path: str
    content: bytes = b""
    mode: int = 0o644
    mtime: float = 0.0
    is_dir: bool = False

    @property
    def sha256(self) -> str:
        return hash_content(self.content)

    @property
    def size(self) -> int:
        return len(self.content)


PROC_CPUINFO = (
    "processor\t: 0\n"
    "model name\t: ARMv7 Processor rev 5 (v7l)\n"
    "BogoMIPS\t: 38.40\n"
    "Features\t: half thumb fastmult vfp edsp neon vfpv3\n"
    "CPU implementer\t: 0x41\n"
    "Hardware\t: Generic DT based system\n"
).encode()

PROC_MEMINFO = (
    "MemTotal:         254696 kB\n"
    "MemFree:          181240 kB\n"
    "Buffers:           12068 kB\n"
    "Cached:            38912 kB\n"
    "SwapTotal:             0 kB\n"
    "SwapFree:              0 kB\n"
).encode()

PROC_MOUNTS = (
    "/dev/root / ext4 rw,relatime 0 0\n"
    "proc /proc proc rw,relatime 0 0\n"
    "tmpfs /tmp tmpfs rw,relatime 0 0\n"
).encode()

ETC_PASSWD = (
    "root:x:0:0:root:/root:/bin/sh\n"
    "daemon:x:1:1:daemon:/usr/sbin:/usr/sbin/nologin\n"
    "nobody:x:65534:65534:nobody:/nonexistent:/usr/sbin/nologin\n"
).encode()

DEFAULT_LAYOUT: Dict[str, bytes] = {
    "/proc/cpuinfo": PROC_CPUINFO,
    "/proc/meminfo": PROC_MEMINFO,
    "/proc/mounts": PROC_MOUNTS,
    "/etc/passwd": ETC_PASSWD,
    "/etc/hostname": b"localhost\n",
    "/bin/busybox": b"\x7fELF\x01\x01\x01busybox-stub",
    "/bin/sh": b"\x7fELF\x01\x01\x01sh-stub",
    # Busybox applet symlink stubs; `which <tool>` resolves here.
    "/usr/bin/ls": b"\x7fELF\x01\x01\x01busybox-stub",
    "/usr/bin/wget": b"\x7fELF\x01\x01\x01busybox-stub",
    "/usr/bin/uname": b"\x7fELF\x01\x01\x01busybox-stub",
    "/usr/bin/free": b"\x7fELF\x01\x01\x01busybox-stub",
    "/var/log/wtmp": b"",
}

DEFAULT_DIRS = [
    "/", "/bin", "/dev", "/etc", "/home", "/proc", "/root", "/sbin",
    "/tmp", "/usr", "/usr/bin", "/var", "/var/log", "/var/run", "/var/tmp",
]


def _pristine_layout() -> Dict[str, FileEntry]:
    entries = {d: FileEntry(path=d, is_dir=True, mode=0o755) for d in DEFAULT_DIRS}
    for path, content in DEFAULT_LAYOUT.items():
        mode = 0o755 if path.startswith("/bin") else 0o644
        entries[path] = FileEntry(path=path, content=content, mode=mode)
    entries["/root"] = FileEntry(path="/root", is_dir=True, mode=0o700)
    return entries


#: The default layout, built once; each populated filesystem starts as a
#: shallow copy of it (copy-on-write: entries are frozen and replaced).
_PRISTINE: Dict[str, FileEntry] = _pristine_layout()


class FakeFilesystem:
    """A path -> :class:`FileEntry` store with Unix path semantics."""

    def __init__(self, populate: bool = True):
        self._entries: Dict[str, FileEntry] = dict(_PRISTINE) if populate else {}
        self.cwd = "/root"

    # -- path handling -----------------------------------------------------

    def resolve(self, path: str) -> str:
        """Normalise ``path`` against the current working directory."""
        if not path:
            return self.cwd
        if not path.startswith("/"):
            path = posixpath.join(self.cwd, path)
        norm = posixpath.normpath(path)
        return norm if norm.startswith("/") else "/" + norm

    # -- queries -----------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.resolve(path) in self._entries

    def is_dir(self, path: str) -> bool:
        entry = self._entries.get(self.resolve(path))
        return bool(entry and entry.is_dir)

    def get(self, path: str) -> Optional[FileEntry]:
        return self._entries.get(self.resolve(path))

    def read(self, path: str) -> bytes:
        entry = self._entries.get(self.resolve(path))
        if entry is None:
            raise FileNotFoundError(path)
        if entry.is_dir:
            raise IsADirectoryError(path)
        return entry.content

    def listdir(self, path: str) -> List[str]:
        base = self.resolve(path)
        if base not in self._entries or not self._entries[base].is_dir:
            raise FileNotFoundError(path)
        prefix = base.rstrip("/") + "/"
        names = set()
        for p in self._entries:
            if p != base and p.startswith(prefix):
                rest = p[len(prefix):]
                names.add(rest.split("/", 1)[0])
        return sorted(names)

    def all_files(self) -> List[FileEntry]:
        return [e for e in self._entries.values() if not e.is_dir]

    # -- mutation ----------------------------------------------------------

    def mkdir(self, path: str, now: float = 0.0) -> bool:
        """Create a directory (and parents). Returns True if created."""
        full = self.resolve(path)
        if full in self._entries:
            return False
        parts = full.strip("/").split("/")
        acc = ""
        created = False
        for part in parts:
            acc += "/" + part
            if acc not in self._entries:
                self._entries[acc] = FileEntry(path=acc, is_dir=True, mode=0o755, mtime=now)
                created = True
        return created

    def write(
        self, path: str, content: bytes, now: float = 0.0, append: bool = False
    ) -> Tuple[FileEntry, bool]:
        """Write/append to a file; returns ``(entry, created)``.

        ``created`` is True when the path did not exist before, which is the
        signal the session layer uses to distinguish FILE_CREATED from
        FILE_MODIFIED events.
        """
        full = self.resolve(path)
        parent = posixpath.dirname(full) or "/"
        self.mkdir(parent, now=now)
        existing = self._entries.get(full)
        if existing is not None and existing.is_dir:
            raise IsADirectoryError(path)
        created = existing is None
        if append and existing is not None:
            content = existing.content + content
        entry = FileEntry(
            path=full,
            content=content,
            mode=existing.mode if existing else 0o644,
            mtime=now,
        )
        self._entries[full] = entry
        return entry, created

    def chmod(self, path: str, mode: int) -> bool:
        full = self.resolve(path)
        entry = self._entries.get(full)
        if entry is None:
            return False
        self._entries[full] = replace(entry, mode=mode)
        return True

    def remove(self, path: str) -> bool:
        full = self.resolve(path)
        entry = self._entries.get(full)
        if entry is None:
            return False
        if entry.is_dir:
            prefix = full.rstrip("/") + "/"
            for p in list(self._entries):
                if p.startswith(prefix):
                    del self._entries[p]
        del self._entries[full]
        return True

    def chdir(self, path: str) -> bool:
        full = self.resolve(path)
        if self.is_dir(full):
            self.cwd = full
            return True
        return False
