"""URI resolvers: how the honeypot obtains remote payload bytes.

A real Cowrie deployment downloads the referenced resource from the
Internet.  We have no Internet, so resolvers synthesise payload bytes.  The
default resolver is deterministic in the URI — the same dropper URL always
yields the same bytes, hence the same file hash, exactly the property that
lets the farm correlate one campaign across honeypots.  Workload campaigns
install their own payloads via :class:`StaticPayloadResolver` so a campaign
controls the hash its dropper produces.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from repro.honeypot.filesystem import encode_text


class UriResolver:
    """Base resolver: deterministic pseudo-payload per URI."""

    #: Simulated effective bandwidth (bytes/second) for transfer-time model.
    bandwidth = 150_000.0
    #: Base latency for any fetch (connection setup etc.).
    base_latency = 1.2

    def fetch(self, uri: str) -> Optional[bytes]:
        """Payload bytes for ``uri``, or None for a failed fetch."""
        seed = hashlib.sha256(encode_text(uri)).digest()
        # Size: 4-120 KiB, deterministic in the URI.
        size = 4096 + int.from_bytes(seed[:2], "big") % (120 * 1024)
        block = hashlib.sha256(seed).digest()
        reps = size // len(block) + 1
        return (block * reps)[:size]

    def transfer_time(self, uri: str, size: int) -> float:
        return self.base_latency + size / self.bandwidth

    def failure_delay(self, uri: str) -> float:
        """Time wasted on a fetch that ultimately fails (timeout-ish)."""
        return 10.0


class StaticPayloadResolver(UriResolver):
    """Resolver with an explicit URI -> payload table.

    Unknown URIs fall back to the deterministic base behaviour unless
    ``strict`` is set, in which case they fail (useful for testing the
    download-failure path).
    """

    def __init__(self, payloads: Optional[Dict[str, bytes]] = None, strict: bool = False):
        self.payloads: Dict[str, bytes] = dict(payloads or {})
        self.strict = strict

    def register(self, uri: str, payload: bytes) -> None:
        self.payloads[uri] = payload

    def fetch(self, uri: str) -> Optional[bytes]:
        if uri in self.payloads:
            return self.payloads[uri]
        if self.strict:
            return None
        return super().fetch(uri)
