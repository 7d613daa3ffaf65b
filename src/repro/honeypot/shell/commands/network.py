"""Networking commands — the dropper tools.

``wget``/``curl``/``tftp``/``ftpget`` are how intruders pull payloads onto
the box.  Each fetch goes through the session's URI resolver, produces a
file write (hence a recorded hash) on success, and contributes simulated
transfer time, which is what lets CMD+URI sessions outlive the three-minute
timeout in the paper's Figure 7 (the timeout resets while a download is in
flight).
"""

from __future__ import annotations

from repro.honeypot.shell.base import CommandRegistry
from repro.honeypot.shell.context import DownloadRecord, ShellContext
from repro.honeypot.shell.parser import SimpleCommand
from repro.honeypot.uri import extract_uris


def _cannot_open(tool: str, record: DownloadRecord) -> str:
    """Busybox's text for an output file that would not open."""
    return f"{tool}: can't open '{record.saved_path}': {record.open_error}"


def _wget(ctx: ShellContext, cmd: SimpleCommand) -> str:
    uris = extract_uris(cmd.text)
    if not uris:
        return "wget: missing URL"
    save_as = None
    argv = cmd.argv
    for i, arg in enumerate(argv):
        if arg in ("-O", "-o") and i + 1 < len(argv):
            save_as = argv[i + 1]
    outputs = []
    for uri in uris:
        record = ctx.record_download(uri, save_as=save_as)
        if record.success:
            outputs.append(
                f"Connecting to {uri.split('/')[2]}... connected.\n"
                f"'{record.saved_path}' saved [{record.size}]"
            )
        elif record.open_error:
            outputs.append(_cannot_open("wget", record))
        else:
            outputs.append(f"wget: can't connect to remote host: Connection refused")
    return "\n".join(outputs)


def _curl(ctx: ShellContext, cmd: SimpleCommand) -> str:
    uris = extract_uris(cmd.text)
    if not uris:
        return "curl: try 'curl --help' for more information"
    save_as = None
    to_file = False
    argv = cmd.argv
    for i, arg in enumerate(argv):
        if arg in ("-o", "--output") and i + 1 < len(argv):
            save_as = argv[i + 1]
            to_file = True
        elif arg in ("-O", "--remote-name"):
            to_file = True
    outputs = []
    for uri in uris:
        # Output to stdout is still a fetch (hash recorded), to a temp path.
        record = ctx.record_download(
            uri, save_as=save_as if to_file else "/tmp/.curl_stdout"
        )
        if record.open_error:
            outputs.append(
                f"Warning: Failed to create the file {record.saved_path}: "
                f"{record.open_error}\n"
                "curl: (23) Failure writing output to destination"
            )
        elif not record.success:
            outputs.append("curl: (7) Failed to connect")
        elif not to_file:
            outputs.append(f"<payload {record.size} bytes>")
    return "\n".join(outputs)


def _tftp(ctx: ShellContext, cmd: SimpleCommand) -> str:
    uris = extract_uris(cmd.text)
    if not uris:
        return "tftp: bad usage"
    save_as = None
    argv = cmd.argv
    for i, arg in enumerate(argv):
        if arg == "-l" and i + 1 < len(argv):
            save_as = argv[i + 1]
    record = ctx.record_download(uris[0], save_as=save_as)
    if record.success:
        return ""
    if record.open_error:
        return _cannot_open("tftp", record)
    return "tftp: timeout"


def _ftpget(ctx: ShellContext, cmd: SimpleCommand) -> str:
    uris = extract_uris(cmd.text)
    if not uris:
        return "ftpget: usage: ftpget HOST LOCAL REMOTE"
    positional = [a for a in cmd.argv[1:] if not a.startswith("-")]
    save_as = positional[1] if len(positional) >= 2 else None
    record = ctx.record_download(uris[0], save_as=save_as)
    if record.success:
        return ""
    if record.open_error:
        return _cannot_open("ftpget", record)
    return "ftpget: connect: Connection refused"


def _ping(ctx: ShellContext, cmd: SimpleCommand) -> str:
    target = next((a for a in cmd.argv[1:] if not a.startswith("-")), "")
    if not target:
        return "ping: usage error"
    return (
        f"PING {target} ({target}): 56 data bytes\n"
        f"64 bytes from {target}: seq=0 ttl=49 time=42.0 ms\n"
        f"--- {target} ping statistics ---\n"
        "1 packets transmitted, 1 packets received, 0% packet loss"
    )


def _ssh(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return "ssh: connect to host: Connection refused"


def _scp(ctx: ShellContext, cmd: SimpleCommand) -> str:
    uris = extract_uris(cmd.text)
    if uris:
        record = ctx.record_download(uris[0])
        if record.success:
            return ""
        if record.open_error:
            return f"scp: {record.saved_path}: {record.open_error}"
    return "ssh: connect to host: Connection refused"


def _nc(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return "nc: bad address"


def register(registry: CommandRegistry) -> None:
    registry.register("wget", _wget)
    registry.register("curl", _curl)
    registry.register("tftp", _tftp)
    registry.register("ftpget", _ftpget)
    registry.register("ping", _ping)
    registry.register("ssh", _ssh)
    registry.register("scp", _scp)
    registry.register("nc", _nc)
    registry.register("netcat", _nc)
