"""Command-line parsing for the emulated shell.

A client input line may chain several simple commands with ``;``, ``&&``,
``||`` and ``|``.  The paper's command analysis splits recorded command
strings at ``;`` and ``|``; the shell does the same split at execution time,
so one input line yields one recorded command per stage.  Each simple
command is tokenised with quote handling and may carry ``>``/``>>`` output
redirection.

All three scans -- the top-level split, the redirect search and the word
split (:func:`split_words`, shlex's POSIX rules) -- are compiled regular
expressions, so a hostile line costs a few regex passes instead of a
Python step per character (DESIGN.md, "Shell lexer").
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class SimpleCommand:
    """One pipeline stage: argv, original text, optional redirection."""

    text: str
    argv: List[str] = field(default_factory=list)
    redirect_path: Optional[str] = None
    redirect_append: bool = False

    @property
    def name(self) -> str:
        return self.argv[0] if self.argv else ""


#: A quoted run for the splitter and the redirect scan: ``'…'``, ``"…"``
#: or `` `…` ``, an unterminated one running to the end of the line.
#: Backslash is not special in either scan.
_QUOTED_RUN = r"""'[^']*(?:'|\Z)|"[^"]*(?:"|\Z)|`[^`]*(?:`|\Z)"""

#: Top-level split of a line: quoted and plain runs are command text
#: (group 1); ``&&``, ``||``, ``;``, ``|`` and newline end a command
#: (group 2); a lone ``&`` (backgrounding) is dropped.
_TOP_LEVEL_RE = re.compile(
    rf"""((?:[^'"`&|;\n]+|{_QUOTED_RUN})+)|(&&|\|\||[;|\n])|&"""
)

#: The text before the first ``>`` outside quotes; an unterminated quote
#: runs to the end, so a match shorter than the body ends at a ``>``.
_UNQUOTED_PREFIX_RE = re.compile(rf"""(?:[^'"`>]+|{_QUOTED_RUN})*""")

#: One piece of a POSIX shlex word stream: whitespace, a plain run, a
#: single-quoted run, a double-quoted run, an escaped character, or a
#: lone quote/backslash that nothing closes (the shlex error cases).
_WORD_PIECE_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)"""
    r"""|(?P<plain>[^ \t\r\n'"\\]+)"""
    r"""|'(?P<single>[^']*)'"""
    r"""|"(?P<double>(?:[^"\\]|\\.)*)\""""
    r"""|\\(?P<escaped>.)"""
    r"""|(?P<open>.)""",
    re.DOTALL,
)
#: Inside double quotes a backslash escapes only ``\`` and ``"``.
_DOUBLE_ESCAPE_RE = re.compile(r"""\\([\\"])""")
_UNQUOTED_WORD_RE = re.compile(r"[^ \t\r\n]+")


def split_words(text: str) -> List[str]:
    r"""Split ``text`` into words exactly as ``shlex.split(text, posix=True)``.

    Whitespace is only space, tab, CR and LF.  Outside quotes ``\``
    escapes any character; inside double quotes it escapes only ``\`` and
    ``"`` and is kept before anything else; single quotes escape nothing.
    A quoted empty string is a word of its own.  Raises
    :class:`ValueError` for an unclosed quote or a trailing backslash,
    where shlex does.

    >>> split_words(r'''echo '' "c\"d" e\ f 'a b' ''')
    ['echo', '', 'c"d', 'e f', 'a b']
    """
    if "'" not in text and '"' not in text and "\\" not in text:
        return _UNQUOTED_WORD_RE.findall(text)
    words: List[str] = []
    word: List[str] = []
    in_word = False
    for match in _WORD_PIECE_RE.finditer(text):
        kind = match.lastgroup
        if kind == "ws":
            if in_word:
                words.append("".join(word))
                word = []
                in_word = False
            continue
        if kind == "open":
            raise ValueError("No closing quotation" if match.group() != "\\"
                             else "No escaped character")
        piece = match.group(kind)
        if kind == "double" and "\\" in piece:
            piece = _DOUBLE_ESCAPE_RE.sub(r"\1", piece)
        word.append(piece)
        in_word = True
    if in_word:
        words.append("".join(word))
    return words


def _split_top_level(line: str) -> List[str]:
    """Split a line at top-level separators, respecting quotes.

    One ``findall`` of :data:`_TOP_LEVEL_RE`: text runs join up into a
    command, a separator closes it, a lone ``&`` yields neither.
    """
    parts: List[str] = []
    buf: List[str] = []
    for text, separator in _TOP_LEVEL_RE.findall(line):
        if text:
            buf.append(text)
        elif separator:
            parts.append("".join(buf))
            buf = []
    parts.append("".join(buf))
    return [p.strip() for p in parts if p.strip()]


def _parse_simple(text: str) -> SimpleCommand:
    redirect_path: Optional[str] = None
    redirect_append = False
    body = text
    # The first unquoted > or >> starts the redirection.
    redir_idx = _UNQUOTED_PREFIX_RE.match(body).end()
    if redir_idx < len(body):
        target = body[redir_idx:]
        body = body[:redir_idx]
        if target.startswith(">>"):
            redirect_append = True
            target = target[2:]
        else:
            target = target[1:]
        redirect_path = target.strip().split()[0] if target.strip() else None
    if "'" not in body and '"' not in body and "\\" not in body:
        # No quoting or escapes: keep plain str.split, which (unlike the
        # shlex rules) also splits at vertical tab, form feed and the
        # Unicode spaces -- the argv the shell has always recorded.
        argv = body.split()
    else:
        try:
            argv = split_words(body)
        except ValueError:
            argv = body.split()
    return SimpleCommand(
        text=text.strip(),
        argv=argv,
        redirect_path=redirect_path,
        redirect_append=redirect_append,
    )


#: Parse memo: scripted sessions re-type the same recon/dropper lines
#: endlessly, so parsing is the shell's hottest pure function.  Parsed
#: templates are cached per line; callers get fresh copies (argv included)
#: so a cached parse can never be mutated through a previous caller.
_PARSE_CACHE: dict = {}
_PARSE_CACHE_MAX = 8192


def split_command_line(line: str) -> List[SimpleCommand]:
    """Split one input line into its simple commands.

    >>> [c.name for c in split_command_line("uname -a; free -m | grep Mem")]
    ['uname', 'free', 'grep']
    """
    cached = _PARSE_CACHE.get(line)
    if cached is None:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        cached = [_parse_simple(part) for part in _split_top_level(line)]
        _PARSE_CACHE[line] = cached
    return [
        SimpleCommand(
            text=c.text,
            argv=list(c.argv),
            redirect_path=c.redirect_path,
            redirect_append=c.redirect_append,
        )
        for c in cached
    ]
