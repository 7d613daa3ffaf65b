"""The shell's compiled lexer equals the tokenisers it replaced.

``split_words`` must return exactly what ``shlex.split(s, posix=True)``
returns and raise ``ValueError`` exactly where shlex raises.  The
top-level splitter and the redirect scan must equal the per-character
loops they replaced, which are kept below verbatim as oracles.  Session
filesystems start as copies of one pristine layout, so nothing one
session does may show in another.
"""

import dataclasses
import shlex
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.honeypot.filesystem import FakeFilesystem, FileEntry, _PRISTINE
from repro.honeypot.shell.parser import (
    _parse_simple,
    _split_top_level,
    split_words,
)


def old_split_top_level(line: str) -> List[str]:
    """The per-character splitter the compiled one replaced (verbatim)."""
    parts: List[str] = []
    buf: List[str] = []
    quote: Optional[str] = None
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if quote:
            buf.append(ch)
            if ch == quote:
                quote = None
            i += 1
            continue
        if ch in ("'", '"', "`"):
            quote = ch
            buf.append(ch)
            i += 1
            continue
        if line.startswith("&&", i) or line.startswith("||", i):
            parts.append("".join(buf))
            buf = []
            i += 2
            continue
        if ch in (";", "|", "\n"):
            parts.append("".join(buf))
            buf = []
            i += 1
            continue
        if ch == "&" and not line.startswith("&&", i):
            # trailing background '&': drop the ampersand, keep the command
            i += 1
            continue
        buf.append(ch)
        i += 1
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def old_redirect_index(body: str) -> int:
    """The per-character redirect scan the regex replaced (verbatim)."""
    quote: Optional[str] = None
    redir_idx = -1
    for i, ch in enumerate(body):
        if quote:
            if ch == quote:
                quote = None
            continue
        if ch in ("'", '"', "`"):
            quote = ch
        elif ch == ">":
            redir_idx = i
            break
    return redir_idx


def shlex_result(text):
    try:
        return "ok", shlex.split(text, posix=True)
    except ValueError:
        return "error", None


def words_result(text):
    try:
        return "ok", split_words(text)
    except ValueError:
        return "error", None


#: Characters that steer the lexers, plus the odd ones hostile input
#: carries: NUL, a lone surrogate, vertical tab, non-ASCII spaces.
LEXER_PIECES = st.sampled_from(
    list("ab ") + ["'", '"', "`", "\\", ";", "|", "&", ">", "\n", "\t",
                   "\r", "\x00", "\udcff", "\x0b", "\x0c", "\xa0",
                   "\u3000", "$(", ")", "\u00e9", "&&", "||", ">>"]
)
lexer_text = st.lists(LEXER_PIECES, max_size=30).map("".join)


class TestSplitWords:
    @settings(max_examples=600)
    @given(lexer_text)
    def test_equals_shlex(self, text):
        assert words_result(text) == shlex_result(text)

    @settings(max_examples=200)
    @given(st.text(max_size=30))
    def test_equals_shlex_on_any_text(self, text):
        assert words_result(text) == shlex_result(text)

    @pytest.mark.parametrize("text", [
        "", " ", "''", "'' ''", "a''b", '""', "\\", "a\\", "'", '"',
        '"a\\', "\\\n", "a\\ b", '"a\\"b"', '"a\\b"', '"\\\\"', "'a\\'",
        "a\x0bb", "a\xa0b", "x\x00y 'z'", "echo '\\''", "echo ''''''''",
        '"it\'s" \'say "hi"\'',
    ])
    def test_known_cases(self, text):
        assert words_result(text) == shlex_result(text)

    def test_empty_quotes_are_words(self):
        assert split_words("'' a \"\"") == ["", "a", ""]


class TestTopLevel:
    @settings(max_examples=600)
    @given(lexer_text)
    def test_equals_char_loop(self, text):
        assert _split_top_level(text) == old_split_top_level(text)

    @pytest.mark.parametrize("line", [
        "a&&&b", "a|||b", "a & b &", "'a;b", "\"a|b\"c;d", "`a;b`;c",
        "a\\;b", "&", ";;", "a\n\nb", "'x'\"y\"`z`&&w",
    ])
    def test_known_cases(self, line):
        assert _split_top_level(line) == old_split_top_level(line)


class TestRedirectScan:
    @settings(max_examples=400)
    @given(lexer_text)
    def test_equals_char_loop(self, text):
        index = old_redirect_index(text)
        command = _parse_simple(text)
        if index < 0:
            assert command.redirect_path is None
            assert not command.redirect_append
        else:
            target = text[index:]
            append = target.startswith(">>")
            target = target[2:] if append else target[1:]
            expected = target.strip().split()[0] if target.strip() else None
            assert command.redirect_path == expected
            assert command.redirect_append == append


class TestCopyOnWriteFilesystem:
    def _pristine_snapshot(self):
        return {path: dataclasses.astuple(e) for path, e in _PRISTINE.items()}

    def test_changes_stay_in_their_session(self):
        before = self._pristine_snapshot()
        fs = FakeFilesystem()
        fs.write("/tmp/payload", b"x")
        fs.write("/etc/passwd", b"root::0:0::/:/bin/sh\n", append=True)
        fs.chmod("/bin/busybox", 0o777)
        fs.chmod("/etc/hostname", 0o600)
        fs.remove("/proc")
        fs.remove("/usr/bin/wget")
        fs.mkdir("/var/run/x")
        fresh = FakeFilesystem()
        assert not fresh.exists("/tmp/payload")
        assert fresh.read("/etc/passwd").count(b"\n") == 3
        assert fresh.get("/bin/busybox").mode == 0o755
        assert fresh.get("/etc/hostname").mode == 0o644
        assert fresh.is_dir("/proc") and fresh.exists("/proc/cpuinfo")
        assert fresh.exists("/usr/bin/wget")
        assert not fresh.exists("/var/run/x")
        assert self._pristine_snapshot() == before

    def test_chmod_replaces_the_entry(self):
        fs = FakeFilesystem()
        shared = fs.get("/bin/sh")
        assert fs.chmod("/bin/sh", 0o700)
        assert fs.get("/bin/sh").mode == 0o700
        assert shared.mode == 0o755
        assert fs.get("/bin/sh").content == shared.content

    def test_entries_are_frozen(self):
        entry = FakeFilesystem().get("/etc/passwd")
        assert isinstance(entry, FileEntry)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.mode = 0o777

    def test_fresh_layout_matches_pristine(self):
        fs = FakeFilesystem()
        assert fs._entries == _PRISTINE
        assert fs._entries is not _PRISTINE
        assert list(fs._entries) == list(_PRISTINE)
        assert fs.get("/root").mode == 0o700
