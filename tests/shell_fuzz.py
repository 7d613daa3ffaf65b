"""Seeded random shell lines for the emulated shell's never-raise fuzz.

:func:`fuzz_lines` draws every line from ``random.Random(seed)`` alone, so
a seed always yields the same lines.  Lines chain the registry's command
names (plus unknown and path-invoked ones) with ``;``, ``|``, ``&&``,
``||``, ``&`` and newlines, and mix into their arguments quotes,
backslashes, ``$(``, backticks, redirections, NUL bytes, lone surrogates
(how undecodable input bytes arrive) and, in about one line in a hundred,
500+ characters of text.

:func:`run_fuzz` types the lines into fresh :class:`EmulatedShell`
instances and returns every line that raised.  ``tests/test_shell_fuzz.py``
runs 5,000 lines; the fuzz stage of ``scripts/ci.sh`` runs 100,000.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.honeypot.filesystem import FakeFilesystem
from repro.honeypot.shell.base import default_registry
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.shell import EmulatedShell

PATHS = ("/", "/tmp", "/tmp/x", "/tmp/", ".", "..", "~", "-", "/etc/passwd",
         "/proc/cpuinfo", "/dev/null", "/var/tmp/.d", "/root/.ssh/k", "a b",
         "/bin/busybox")
URLS = ("http://198.51.100.7/x.sh", "ftp://203.0.113.9/m", "198.51.100.7",
        "tftp://203.0.113.9/mips", "http://h/\udcff", "user@h:/tmp/f")
WORDS = ("-a", "-rf", "-O", "-o", "-l", "-r", "-g", "-c", "-u", "-p", "-n",
         "x", "$HOME", "${IFS}", "*", "777", "+x", "1", "root:pw", "--help")
SPECIALS = ("'", '"', "\\", "$(", ")", "`", ">", ">>", "<", "2>&1", "&>",
            "\x00", "\udcff", "\udc80", "\ud800", "\x1b[2J", "\t", "\x0b",
            "\xa0", "é", "''", '""', "\\ ", "\\\n")
SEPARATORS = (";", "; ", " | ", "|", " && ", "||", " & ", "&", "\n", ";;")
UNKNOWN = ("./bot", "/tmp/x", "perl", "python3", "/bin/busybox", "\udcff",
           "")
#: Share of lines padded past 500 characters.
LONG_SHARE = 0.01


def _word(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(PATHS)
    if roll < 0.45:
        return rng.choice(URLS)
    if roll < 0.7:
        return rng.choice(WORDS)
    if roll < 0.9:
        return rng.choice(SPECIALS)
    return "".join(rng.choice(SPECIALS + WORDS) for _ in range(rng.randint(2, 4)))


def _command(rng: random.Random, names: List[str]) -> str:
    name = rng.choice(names) if rng.random() < 0.9 else rng.choice(UNKNOWN)
    parts = [name] + [_word(rng) for _ in range(rng.randint(0, 5))]
    text = " ".join(parts) if rng.random() < 0.8 else "".join(parts)
    roll = rng.random()
    if roll < 0.05:
        text = f"echo $({text})"
    elif roll < 0.08:
        text = f"echo `{text}`"
    return text


def _line(rng: random.Random, names: List[str]) -> str:
    commands = [_command(rng, names) for _ in range(rng.randint(1, 4))]
    line = commands[0]
    for command in commands[1:]:
        line += rng.choice(SEPARATORS) + command
    if rng.random() < LONG_SHARE:
        while len(line) < 500:
            line += rng.choice(SEPARATORS + (" ",)) + _command(rng, names)
        line += rng.choice("A%\\'\"") * rng.randint(0, 300)
    return line


def fuzz_lines(seed: int, count: int) -> Iterator[str]:
    """``count`` seeded random shell lines."""
    rng = random.Random(seed)
    names = default_registry().names()
    for _ in range(count):
        yield _line(rng, names)


def run_fuzz(seed: int, count: int,
             lines_per_shell: int = 50) -> List[Tuple[str, str]]:
    """Execute the seeded lines; ``(line, exception)`` for each that raised.

    A shell is replaced every ``lines_per_shell`` lines, and after a line
    that asks it to exit, so files written by earlier lines stay few.
    """
    raised: List[Tuple[str, str]] = []
    shell = None
    for index, line in enumerate(fuzz_lines(seed, count)):
        if shell is None or index % lines_per_shell == 0 \
                or shell.context.exit_requested:
            shell = EmulatedShell(ShellContext(fs=FakeFilesystem()))
        try:
            shell.execute(line)
        except Exception as exc:  # the fault this fuzz looks for
            raised.append((line, f"{type(exc).__name__}: {exc}"))
    return raised
