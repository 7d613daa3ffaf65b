"""File-manipulation commands.

``echo`` with redirection is the honeyfarm's single most consequential
command: the dominant campaign in the paper (hash H1) injects a trojan SSH
key into ``~/.ssh/authorized_keys`` via ``echo >>`` — a file modification
the honeypot hashes and records.
"""

from __future__ import annotations

import posixpath

from repro.honeypot.shell.base import CommandRegistry
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.parser import SimpleCommand


def _cat(ctx: ShellContext, cmd: SimpleCommand) -> str:
    outputs = []
    for path in cmd.argv[1:]:
        if path.startswith("-"):
            continue
        try:
            outputs.append(ctx.fs.read(path).decode("utf-8", "replace").rstrip("\n"))
        except FileNotFoundError:
            outputs.append(f"cat: {path}: No such file or directory")
        except IsADirectoryError:
            outputs.append(f"cat: {path}: Is a directory")
    return "\n".join(outputs)


def _echo(ctx: ShellContext, cmd: SimpleCommand) -> str:
    args = cmd.argv[1:]
    interpret_escapes = False
    if args and args[0] == "-e":
        interpret_escapes = True
        args = args[1:]
    elif args and args[0] == "-n":
        args = args[1:]
    text = " ".join(args)
    if interpret_escapes:
        text = text.replace("\\n", "\n").replace("\\t", "\t")
        # Hex escapes (\x41) are common in dropper probes.
        out = []
        i = 0
        while i < len(text):
            if text.startswith("\\x", i) and i + 4 <= len(text):
                try:
                    out.append(chr(int(text[i + 2:i + 4], 16)))
                    i += 4
                    continue
                except ValueError:
                    pass
            out.append(text[i])
            i += 1
        text = "".join(out)
    return text


def _ls(ctx: ShellContext, cmd: SimpleCommand) -> str:
    paths = [a for a in cmd.argv[1:] if not a.startswith("-")] or ["."]
    outputs = []
    for path in paths:
        try:
            outputs.append("  ".join(ctx.fs.listdir(path)))
        except FileNotFoundError:
            if ctx.fs.exists(path):
                outputs.append(posixpath.basename(ctx.fs.resolve(path)))
            else:
                outputs.append(f"ls: {path}: No such file or directory")
    return "\n".join(outputs)


def _cd(ctx: ShellContext, cmd: SimpleCommand) -> str:
    target = cmd.argv[1] if len(cmd.argv) > 1 else ctx.env.get("HOME", "/root")
    if not ctx.fs.chdir(target):
        # Busybox-style shells create-and-enter is not a thing; report error.
        return f"-sh: cd: {target}: No such file or directory"
    return ""


def _pwd(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ctx.fs.cwd


def _mkdir(ctx: ShellContext, cmd: SimpleCommand) -> str:
    for path in cmd.argv[1:]:
        if path.startswith("-"):
            continue
        ctx.fs.mkdir(path, now=ctx.now)
    return ""


def _touch(ctx: ShellContext, cmd: SimpleCommand) -> str:
    for path in cmd.argv[1:]:
        if path.startswith("-"):
            continue
        if not ctx.fs.exists(path):
            ctx.record_write(path, b"")
    return ""


def _rm(ctx: ShellContext, cmd: SimpleCommand) -> str:
    outputs = []
    for path in cmd.argv[1:]:
        if path.startswith("-"):
            continue
        if ctx.fs.resolve(path) == "/":
            outputs.append("rm: it is dangerous to operate recursively on '/'")
            outputs.append("rm: use --no-preserve-root to override this failsafe")
            continue
        if not ctx.fs.remove(path):
            outputs.append(f"rm: can't remove '{path}': No such file or directory")
    return "\n".join(outputs)


def _cp(ctx: ShellContext, cmd: SimpleCommand) -> str:
    args = [a for a in cmd.argv[1:] if not a.startswith("-")]
    if len(args) < 2:
        return "cp: missing file operand"
    src, dst = args[0], args[-1]
    try:
        content = ctx.fs.read(src)
    except (FileNotFoundError, IsADirectoryError):
        return f"cp: can't stat '{src}': No such file or directory"
    if ctx.fs.is_dir(dst):
        dst = posixpath.join(dst, posixpath.basename(ctx.fs.resolve(src)))
    ctx.record_write(dst, content)
    return ""


def _mv(ctx: ShellContext, cmd: SimpleCommand) -> str:
    result = _cp(ctx, cmd)
    if result:
        return result.replace("cp:", "mv:")
    args = [a for a in cmd.argv[1:] if not a.startswith("-")]
    ctx.fs.remove(args[0])
    return ""


def _chmod(ctx: ShellContext, cmd: SimpleCommand) -> str:
    args = [a for a in cmd.argv[1:] if not a.startswith("-")]
    if len(args) < 2:
        return "chmod: missing operand"
    mode_text, paths = args[0], args[1:]
    try:
        mode = int(mode_text, 8)
    except ValueError:
        mode = 0o755  # symbolic modes (+x) all end up executable here
    outputs = []
    for path in paths:
        if not ctx.fs.chmod(path, mode):
            outputs.append(f"chmod: {path}: No such file or directory")
    return "\n".join(outputs)


def _chown(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def _head(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return _head_tail(ctx, cmd, take_head=True)


def _tail(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return _head_tail(ctx, cmd, take_head=False)


def _head_tail(ctx: ShellContext, cmd: SimpleCommand, take_head: bool) -> str:
    count = 10
    paths = []
    args = cmd.argv[1:]
    i = 0
    while i < len(args):
        if args[i] == "-n" and i + 1 < len(args):
            try:
                count = int(args[i + 1])
            except ValueError:
                pass
            i += 2
        elif args[i].startswith("-") and args[i][1:].isdigit():
            count = int(args[i][1:])
            i += 1
        elif args[i].startswith("-"):
            i += 1
        else:
            paths.append(args[i])
            i += 1
    outputs = []
    for path in paths:
        try:
            lines = ctx.fs.read(path).decode("utf-8", "replace").splitlines()
        except (FileNotFoundError, IsADirectoryError):
            outputs.append(f"head: {path}: No such file or directory")
            continue
        chunk = lines[:count] if take_head else lines[-count:]
        outputs.append("\n".join(chunk))
    return "\n".join(outputs)


def _grep(ctx: ShellContext, cmd: SimpleCommand) -> str:
    args = [a for a in cmd.argv[1:] if not a.startswith("-")]
    if not args:
        return ""
    pattern = args[0]
    outputs = []
    for path in args[1:]:
        try:
            for line in ctx.fs.read(path).decode("utf-8", "replace").splitlines():
                if pattern in line:
                    outputs.append(line)
        except (FileNotFoundError, IsADirectoryError):
            outputs.append(f"grep: {path}: No such file or directory")
    return "\n".join(outputs)


def _find(ctx: ShellContext, cmd: SimpleCommand) -> str:
    start = next((a for a in cmd.argv[1:] if not a.startswith("-")), ".")
    base = ctx.fs.resolve(start)
    matches = [e.path for e in ctx.fs.all_files() if e.path.startswith(base)]
    return "\n".join(sorted(matches))


def _which(ctx: ShellContext, cmd: SimpleCommand) -> str:
    from repro.honeypot.shell.base import default_registry

    outputs = []
    for name in cmd.argv[1:]:
        if default_registry().is_known(name):
            outputs.append(f"/usr/bin/{name}")
    return "\n".join(outputs)


def _dd(ctx: ShellContext, cmd: SimpleCommand) -> str:
    # Mirai probes the architecture by dd-ing the first bytes of a binary.
    infile = None
    count = 1
    bs = 512
    for arg in cmd.argv[1:]:
        if arg.startswith("if="):
            infile = arg[3:]
        elif arg.startswith("count="):
            try:
                count = int(arg[6:])
            except ValueError:
                pass
        elif arg.startswith("bs="):
            try:
                bs = int(arg[3:])
            except ValueError:
                pass
    if infile:
        try:
            data = ctx.fs.read(infile)[: count * bs]
            head = data.decode("latin-1")
        except (FileNotFoundError, IsADirectoryError):
            return f"dd: {infile}: No such file or directory"
        return head + f"\n{count}+0 records in\n{count}+0 records out"
    return f"{count}+0 records in\n{count}+0 records out"


def _ln(ctx: ShellContext, cmd: SimpleCommand) -> str:
    return ""


def _stat(ctx: ShellContext, cmd: SimpleCommand) -> str:
    args = [a for a in cmd.argv[1:] if not a.startswith("-")]
    outputs = []
    for path in args:
        entry = ctx.fs.get(path)
        if entry is None:
            outputs.append(f"stat: can't stat '{path}': No such file or directory")
        else:
            kind = "directory" if entry.is_dir else "regular file"
            outputs.append(f"  File: {path}\n  Size: {entry.size}\t{kind}")
    return "\n".join(outputs)


def register(registry: CommandRegistry) -> None:
    registry.register("cat", _cat)
    registry.register("echo", _echo)
    registry.register("ls", _ls)
    registry.register("cd", _cd)
    registry.register("pwd", _pwd)
    registry.register("mkdir", _mkdir)
    registry.register("touch", _touch)
    registry.register("rm", _rm)
    registry.register("cp", _cp)
    registry.register("mv", _mv)
    registry.register("chmod", _chmod)
    registry.register("chown", _chown)
    registry.register("head", _head)
    registry.register("tail", _tail)
    registry.register("grep", _grep)
    registry.register("egrep", _grep)
    registry.register("find", _find)
    registry.register("which", _which)
    registry.register("dd", _dd)
    registry.register("ln", _ln)
    registry.register("stat", _stat)
