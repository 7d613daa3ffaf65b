"""Seeded hostile shell-input grammar for the ``live-farm`` workload.

A honeypot exists to absorb whatever an attacker types, so the live
workload mixes a small share of hostile sessions into the calibrated
script traffic.  Every line comes from one production of a small grammar
over the constructs that have broken shell emulators before:

* redirections onto odd targets;
* unbalanced and nested quoting, escapes;
* nested command substitution (``$(...)`` and backticks);
* NUL bytes and lone surrogates (invalid UTF-8 once encoded);
* long lines: one huge word, many ``;``-chained commands, deep pipes.

The grammar draws only from the ``random.Random`` it is given, so one
seed always yields the same lines, and :func:`production_deck` keeps each
production's share fixed across seeds.

Two constructs still make the shell raise instead of answering (ROADMAP
item 5): redirecting output onto a directory (``echo x > /tmp``,
``IsADirectoryError``) and ``rm -rf /`` (``KeyError: '/'``).  The timed
traffic leaves them out, so that its sessions measure serving and not
failing; :func:`crasher_lines` lists every such line, and the benchmark
serves them once per run, untimed, and tallies what they raise.
"""

from __future__ import annotations

import random
from typing import List

DIRECTORIES = ("/", "/tmp", "/tmp/", "/var", "/etc", "/usr", "/dev",
               ".", "..", "~", "/proc", "/home/")
FILES = ("/tmp/.x", "out.txt", "/var/tmp/a b", "/dev/null", "-", "''",
         "/etc/passwd", "~/.ssh/authorized_keys")
WORDS = ("x", "hello", "$HOME", "$PATH", "*", "?", "a\\ b", "--help",
         "-rf", "\\x41", "%s%s%n", "$((1+1))", "${IFS}", "!!")
COMMANDS = ("echo", "cat", "ls", "cd", "rm", "mkdir", "wget", "curl",
            "busybox", "chmod", "sh", "uname", "cp", "mv", "grep", "tftp")
LOCAL_COMMANDS = tuple(c for c in COMMANDS
                       if c not in ("wget", "curl", "tftp", "busybox"))
REDIRECTS = (">", ">>", "<", "2>", "2>&1 >", "&>", ">|")


def _word(rng: random.Random) -> str:
    return rng.choice(WORDS)


def _redirect(rng: random.Random) -> str:
    target = rng.choice(FILES)
    cmd = rng.choice(("echo", "cat", "printf", "busybox echo", ""))
    return f"{cmd} {_word(rng)} {rng.choice(REDIRECTS)} {target}".strip()


def _quoting(rng: random.Random) -> str:
    forms = (
        "echo 'unterminated",
        'echo "unterminated $(uname',
        "echo \"a'b\"'c\"d'",
        "echo \\",
        "echo '\\''",
        'echo "$"',
        "echo ''''''''",
        "echo \"\\\"\\\"\\\"\"",
    )
    return rng.choice(forms) + (" " + _word(rng) if rng.random() < 0.5
                                else "")


def _substitution(rng: random.Random) -> str:
    depth = rng.randint(2, 12)
    inner = rng.choice(("uname", "id", "echo x", "cat /proc/cpuinfo"))
    if rng.random() < 0.5:
        expr = inner
        for _ in range(depth):
            expr = f"echo $({expr})"
    else:
        expr = inner
        for _ in range(min(depth, 4)):
            expr = f"echo `{expr}`"
    if rng.random() < 0.3:
        expr = expr[:-rng.randint(1, 3)]  # drop closing parens/backticks
    return expr


def _binary(rng: random.Random) -> str:
    forms = (
        "echo a\x00b",
        "\x00",
        "cat /etc/passwd\x00; rm -rf /tmp/.x",
        "echo \udcff\udcfe",
        "\x1b[2J\x1b[H",
        "echo \x7f\x08\x08",
        "".join(chr(rng.randint(1, 31)) for _ in range(16)),
    )
    return rng.choice(forms)


#: Sizes of the long-line productions.  Fixed, so that every seed costs
#: the shell about the same; the seed varies only what the lines say.
LONG_WORD, LONG_CHAIN, LONG_PIPE = 16384, 200, 100


def _long_word(rng: random.Random) -> str:
    return f"{rng.choice(COMMANDS)} " + rng.choice("AZ%") * LONG_WORD


def _long_chain(rng: random.Random) -> str:
    # No fetchers here: a download's cost depends on its URL, which would
    # make the chain's cost depend on the seed.
    return "; ".join(f"{rng.choice(LOCAL_COMMANDS)} {_word(rng)}"
                     for _ in range(LONG_CHAIN))


def _long_pipe(rng: random.Random) -> str:
    return " | ".join([f"cat {rng.choice(FILES)}"] + ["grep a"] * LONG_PIPE)


#: Productions with their share of hostile lines, in 150ths.  Long lines
#: cost the shell ten times an ordinary session; they are kept to a few
#: per thousand sessions so that the p99 session sits in the ordinary
#: traffic instead of on the edge of this small group.
PRODUCTIONS = ((50, _redirect), (30, _quoting), (30, _substitution),
               (37, _binary), (1, _long_word), (1, _long_chain),
               (1, _long_pipe))

#: Hostile lines per hostile session.
LINES_PER_SESSION = 3


def production_deck(rng: random.Random, sessions: int) -> List:
    """Productions for ``sessions`` hostile sessions, in exact shares.

    The deck holds each production in its fixed share and only its order
    depends on the seed, so the mix of hostile input is the same on every
    seed.
    """
    slots = [fn for weight, fn in PRODUCTIONS for _ in range(weight)]
    count = sessions * LINES_PER_SESSION
    deck = [slots[i % len(slots)] for i in range(count)]
    rng.shuffle(deck)
    return deck


def hostile_script(rng: random.Random, normal_lines: List[str],
                   productions: List) -> List[str]:
    """A session script: hostile lines from ``productions`` mixed into the
    leading part of an ordinary script."""
    lines = list(normal_lines[:rng.randint(0, len(normal_lines))])
    for production in productions:
        lines.insert(rng.randint(0, len(lines)), production(rng))
    return lines


def crasher_lines() -> List[str]:
    """Every redirection onto a directory, and ``rm -rf /``: the lines
    kept out of the timed traffic because the shell raises on them.

    The list is fixed, so its tally is the same on every seed; a fix for
    a crasher shows as a smaller tally.
    """
    lines = [f"echo x {op} {target}"
             for op in REDIRECTS for target in DIRECTORIES]
    return lines + ["rm -rf /", "cat /etc/passwd\x00; rm -rf /"]
