"""Cowrie-style structured honeypot events.

Cowrie logs JSON events such as ``cowrie.session.connect``,
``cowrie.login.failed`` and ``cowrie.command.input``.  We reproduce the same
event vocabulary; the farm collector consumes these to build per-session
summary records (the form the paper's dataset takes).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict


class EventType(enum.Enum):
    SESSION_CONNECT = "honeypot.session.connect"
    CLIENT_VERSION = "honeypot.client.version"
    LOGIN_SUCCESS = "honeypot.login.success"
    LOGIN_FAILED = "honeypot.login.failed"
    COMMAND_INPUT = "honeypot.command.input"
    COMMAND_FAILED = "honeypot.command.failed"
    FILE_DOWNLOAD = "honeypot.session.file_download"
    FILE_UPLOAD = "honeypot.session.file_upload"
    FILE_CREATED = "honeypot.session.file_created"
    FILE_MODIFIED = "honeypot.session.file_modified"
    SESSION_CLOSED = "honeypot.session.closed"

    #: Members are singletons compared by identity; the identity hash is
    #: C-level, where ``Enum.__hash__`` runs Python code on every lookup.
    __hash__ = object.__hash__


#: ``EventType -> eventid`` string: one dict lookup, where ``.value``
#: goes through the enum's Python-level descriptor on every live event.
EVENT_KIND: Dict[EventType, str] = {kind: kind.value for kind in EventType}


@dataclass
class HoneypotEvent:
    """One structured log event emitted by a honeypot session."""

    event_type: EventType
    timestamp: float
    session_id: str
    honeypot_id: str
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "eventid": EVENT_KIND[self.event_type],
            "timestamp": self.timestamp,
            "session": self.session_id,
            "sensor": self.honeypot_id,
            **self.data,
        }
