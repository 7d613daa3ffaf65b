"""Session / system control commands.

Includes the credential-change commands the paper calls out (``chpasswd``,
``passwd``), busybox applet dispatch (Mirai's honeypot-detection probe), and
interpreter invocations (``sh script.sh``) which execute a downloaded script
as unknown-command input the way Cowrie records them.
"""

from __future__ import annotations

from repro.honeypot.filesystem import encode_text
from repro.honeypot.shell.base import CommandRegistry
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.parser import SimpleCommand


def _exit(ctx: ShellContext, cmd: SimpleCommand) -> str:
    ctx.exit_requested = True
    return ""


def _shadow_digest(ctx: ShellContext, cmd: SimpleCommand) -> str:
    """Derive the new /etc/shadow hash field from the credential input.

    The real chpasswd hashes whatever password arrives on stdin; we model
    stdin as the command text plus the contents of any referenced file
    (the ``chpasswd < /tmp/.p`` dropper idiom), so different campaign
    passwords yield different shadow contents — and thus different
    recorded file hashes.
    """
    import hashlib

    seed = encode_text(cmd.text)
    for token in cmd.text.replace("<", " ").replace(">", " ").split():
        if token.startswith("/") and ctx.fs.exists(token) and not ctx.fs.is_dir(token):
            try:
                seed += ctx.fs.read(token)
            except (FileNotFoundError, IsADirectoryError):
                pass
    return hashlib.sha256(seed).hexdigest()[:22]


def _passwd(ctx: ShellContext, cmd: SimpleCommand) -> str:
    # Record the (pretend) credential change as a file modification of
    # /etc/shadow, like the real system would cause.
    digest = _shadow_digest(ctx, cmd)
    ctx.record_write("/etc/shadow", f"root:$6$salt${digest}:19000:0:99999:7:::\n".encode())
    return "passwd: password updated successfully"


def _chpasswd(ctx: ShellContext, cmd: SimpleCommand) -> str:
    digest = _shadow_digest(ctx, cmd)
    ctx.record_write("/etc/shadow", f"root:$6$salt${digest}:19000:0:99999:7:::\n".encode())
    return ""


def _crontab(ctx: ShellContext, cmd: SimpleCommand) -> str:
    if "-l" in cmd.argv:
        return "no crontab for root"
    if "-r" in cmd.argv:
        return ""
    return ""


def _service(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def _systemctl(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def _kill(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def _sleep(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def _export(ctx: ShellContext, cmd: SimpleCommand) -> str:
    for arg in cmd.argv[1:]:
        if "=" in arg:
            key, value = arg.split("=", 1)
            ctx.env[key] = value
    return ""


def _ulimit(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return "unlimited"

def _true(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def _yes(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return "y"


def _reboot(ctx: ShellContext, cmd: SimpleCommand) -> str:
    ctx.exit_requested = True
    return ""


def _sh(ctx: ShellContext, cmd: SimpleCommand) -> str:
    """Run ``sh script`` / ``bash -c 'cmd'`` — interpret the target inline."""
    args = cmd.argv[1:]
    if not args:
        return ""
    if args[0] == "-c" and len(args) > 1:
        from repro.honeypot.shell.shell import EmulatedShell

        sub = EmulatedShell(ctx)
        result = sub.execute(args[1])
        return "\n".join(r.output for r in result.commands if r.output)
    script = args[0]
    try:
        content = ctx.fs.read(script).decode("utf-8", "replace")
    except (FileNotFoundError, IsADirectoryError):
        return f"sh: {script}: No such file or directory"
    if content.startswith("\x7fELF") or "\x00" in content:
        return f"sh: {script}: cannot execute binary file"
    from repro.honeypot.shell.shell import EmulatedShell

    sub = EmulatedShell(ctx)
    outputs = []
    for line in content.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        result = sub.execute(line)
        outputs.extend(r.output for r in result.commands if r.output)
    return "\n".join(outputs)


def _busybox(ctx: ShellContext, cmd: SimpleCommand) -> str:
    """busybox APPLET [args] — dispatch, or the Mirai applet-not-found probe."""
    args = cmd.argv[1:]
    if not args:
        return (
            "BusyBox v1.24.1 (2019-01-21 22:55:52 UTC) multi-call binary.\n"
            "Usage: busybox [function [arguments]...]"
        )
    applet = args[0]
    from repro.honeypot.shell.base import default_registry

    func = default_registry().lookup(applet)
    if func is None or applet.isupper():
        # Mirai probes with an uppercase token ("/bin/busybox MIRAI") and
        # expects "<token>: applet not found" from a real busybox.
        return f"{applet}: applet not found"
    inner = SimpleCommand(
        text=" ".join(args),
        argv=args,
        redirect_path=cmd.redirect_path,
        redirect_append=cmd.redirect_append,
    )
    return func(ctx, inner)


def _awk(ctx: ShellContext, cmd: SimpleCommand) -> str:
    # Frequently used to parse /proc files; emulate the common field grab.
    return ""


def _xargs(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def register(registry: CommandRegistry) -> None:
    registry.register("exit", _exit)
    registry.register("logout", _exit)
    registry.register("passwd", _passwd)
    registry.register("chpasswd", _chpasswd)
    registry.register("crontab", _crontab)
    registry.register("service", _service)
    registry.register("systemctl", _systemctl)
    registry.register("kill", _kill)
    registry.register("killall", _kill)
    registry.register("pkill", _kill)
    registry.register("sleep", _sleep)
    registry.register("export", _export)
    registry.register("ulimit", _ulimit)
    registry.register("true", _true)
    registry.register("false", _true)
    registry.register("yes", _yes)
    registry.register("reboot", _reboot)
    registry.register("shutdown", _reboot)
    registry.register("halt", _reboot)
    registry.register("sh", _sh)
    registry.register("bash", _sh)
    registry.register("ash", _sh)
    registry.register("busybox", _busybox)
    registry.register("awk", _awk)
    registry.register("xargs", _xargs)
