"""Session emission helpers shared by background and campaign generation.

Wraps the store builder with pre-interned credential / version / country
tables so the day kernels only shuffle integer ids around, and holds
:class:`DayDraws`, the buffer that splits every kernel into a per-day draw
loop and one per-shard derivation pass.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.agents.credentials import (
    FAILED_PASSWORDS,
    FAILED_USERNAMES,
    SUCCESSFUL_PASSWORDS,
)
from repro.honeypot.protocol import COMMON_CLIENT_VERSIONS
from repro.simulation.rng import RngStream, weight_cdf
from repro.store.store import HashBlockCsr, StoreBuilder

SECONDS_PER_DAY = 86_400


class DayDraws:
    """One kernel call's raw per-day draws, concatenated once per shard.

    A day kernel walks its days doing only the draws -- each from that
    day's stream, in the same order and sizes as one day emitted alone --
    and :meth:`put` s them here by name.  :meth:`cat` then hands back each
    name's concatenation for one vectorised derivation pass over the whole
    shard.  :meth:`unit` records every emitted block's day, row count and
    tag in row order.
    """

    def __init__(self) -> None:
        self.parts: Dict[str, list] = defaultdict(list)
        self.days: List[int] = []
        self.sizes: List[int] = []
        self.tags: List[int] = []
        self.n = 0

    def unit(self, day: int, size: int, tag: int = 0) -> int:
        """Open a block of ``size`` rows; returns its first row."""
        self.days.append(day)
        self.sizes.append(size)
        self.tags.append(tag)
        self.n += size
        return self.n - size

    def put(self, name: str, draws) -> None:
        """Buffer one day's draws (an array or a tuple of arrays)."""
        self.parts[name].append(draws)

    def cat(self, name: str, dtype=np.float64):
        """All days' ``name`` draws in row order (empty if none)."""
        parts = self.parts.get(name)
        if not parts:
            return np.zeros(0, dtype)
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(column) for column in zip(*parts))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def rows(self, per_unit) -> np.ndarray:
        """A per-block value repeated over each block's rows."""
        return np.repeat(np.asarray(per_unit), self.sizes)

    def start_times(self) -> np.ndarray:
        """``day * 86400 + u`` over the ``start`` draws."""
        return self.rows(self.days) * SECONDS_PER_DAY + self.cat("start")


def client_columns(population, idx: np.ndarray) -> Dict[str, np.ndarray]:
    """The three client columns of ``append_block`` for population rows."""
    return {
        "client_ip": population.ip[idx],
        "client_asn": population.asn[idx],
        "client_country": population.country[idx].astype(np.int32),
    }


def gather_hash_rows(
    tuples: Sequence[Tuple[int, ...]], owner: np.ndarray
) -> HashBlockCsr:
    """Row ``i`` carries ``tuples[owner[i]]``, as one CSR block."""
    lengths = np.fromiter(map(len, tuples), np.int64, count=len(tuples))
    flat = np.fromiter(
        (h for t in tuples for h in t), np.int64, count=int(lengths.sum())
    )
    row_lengths = lengths[owner]
    total = int(row_lengths.sum())
    firsts = np.cumsum(row_lengths) - row_lengths
    source = np.cumsum(lengths) - lengths
    at = (np.arange(total, dtype=np.int64)
          + np.repeat(source[owner] - firsts, row_lengths))
    return HashBlockCsr(values=flat[at], lengths=row_lengths)


class SessionEmitter:
    """Holds the builder plus interned lookup tables for fast emission."""

    def __init__(self, builder: StoreBuilder, rng: RngStream):
        self.builder = builder
        self.rng = rng

        self.success_pw_ids = np.array(
            [builder.passwords.intern(p) for p, _ in SUCCESSFUL_PASSWORDS],
            dtype=np.int32,
        )
        w = np.array([weight for _, weight in SUCCESSFUL_PASSWORDS], dtype=float)
        self.success_pw_weights = w / w.sum()

        self.fail_pw_ids = np.array(
            [builder.passwords.intern(p) for p, _ in FAILED_PASSWORDS], dtype=np.int32
        )
        w = np.array([weight for _, weight in FAILED_PASSWORDS], dtype=float)
        self.fail_pw_weights = w / w.sum()

        self.fail_user_ids = np.array(
            [builder.usernames.intern(u) for u, _ in FAILED_USERNAMES], dtype=np.int32
        )
        w = np.array([weight for _, weight in FAILED_USERNAMES], dtype=float)
        self.fail_user_weights = w / w.sum()

        self.root_id = builder.usernames.intern("root")
        self.root_pw_id = builder.passwords.intern("root")

        self.version_ids = np.array(
            [builder.versions.intern(v) for v in COMMON_CLIENT_VERSIONS],
            dtype=np.int32,
        )

        # Precomputed inverse CDFs: choice_indices(cdf=...) draws the exact
        # same values as the p= spelling while skipping the per-call cumsum.
        self._success_pw_cdf = weight_cdf(self.success_pw_weights)
        self._fail_pw_cdf = weight_cdf(self.fail_pw_weights)
        self._fail_user_cdf = weight_cdf(self.fail_user_weights)

    # -- samplers -------------------------------------------------------------

    # Like the field samplers, each sampler splits into its draws and an
    # elementwise derivation the day kernels run once per shard.

    def success_from(self, u: np.ndarray) -> np.ndarray:
        """Successful-password ids for uniform draws ``u``."""
        return self.success_pw_ids[
            self._success_pw_cdf.searchsorted(u, side="right")
        ]

    def success_passwords(self, rng: RngStream, n: int) -> np.ndarray:
        return self.success_from(rng.random_array(n))

    @staticmethod
    def fail_credential_draws(rng: RngStream, n: int) -> Tuple[np.ndarray, ...]:
        return rng.random_array(n), rng.random_array(n), rng.random_array(n)

    def fail_credentials_from(
        self, non_root_u: np.ndarray, user_u: np.ndarray, password_u: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        non_root = non_root_u < 0.55
        users = np.full(len(non_root), self.root_id, dtype=np.int32)
        idx = self._fail_user_cdf.searchsorted(user_u[non_root], side="right")
        users[non_root] = self.fail_user_ids[idx]
        passwords = np.full(len(non_root), self.root_pw_id, dtype=np.int32)
        idx = self._fail_pw_cdf.searchsorted(password_u[non_root], side="right")
        passwords[non_root] = self.fail_pw_ids[idx]
        return users, passwords

    def fail_credentials(self, rng: RngStream, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(username_ids, password_ids) for failing attempts.

        Roughly half the failures use a non-root username; the rest are
        root with the rejected password.
        """
        return self.fail_credentials_from(*self.fail_credential_draws(rng, n))

    def draw_versions(self, rng: RngStream, draws: DayDraws,
                      is_ssh: np.ndarray) -> None:
        """One day's client-version draws into ``draws``.

        The version-index draw is sized by how many SSH sessions offer a
        version, so it is counted here, per day.
        """
        u = rng.random_array(len(is_ssh))
        draws.put("version_u", u)
        count = int(np.count_nonzero(is_ssh & (u < 0.72)))
        if count:
            draws.put("version_i", rng.choice_indices(len(self.version_ids),
                                                      size=count))

    def versions_from(self, protocol: np.ndarray, draws: DayDraws) -> np.ndarray:
        """SSH client-version ids (-1 for Telnet / silent clients)."""
        versions = np.full(len(protocol), -1, dtype=np.int32)
        offered = (protocol == 0) & (draws.cat("version_u") < 0.72)
        versions[offered] = self.version_ids[draws.cat("version_i", np.int64)]
        return versions

    def client_versions(self, rng: RngStream, n: int, protocol: np.ndarray) -> np.ndarray:
        """SSH client-version ids (-1 for Telnet / silent clients)."""
        draws = DayDraws()
        self.draw_versions(rng, draws, protocol == 0)
        return self.versions_from(protocol, draws)

    # -- emission --------------------------------------------------------------

    def append_draws(self, draws: DayDraws, protocol: np.ndarray, **columns) -> None:
        """Append one kernel call's rows as one block: start times and
        client versions derived from ``draws``, the rest as given."""
        self.append_block(
            start_time=draws.start_times(),
            protocol=protocol,
            version_id=self.versions_from(protocol, draws),
            **columns,
        )

    def append_block(
        self,
        start_time: np.ndarray,
        duration: np.ndarray,
        honeypot: Sequence[int],
        protocol: np.ndarray,
        client_ip: np.ndarray,
        client_asn: np.ndarray,
        client_country: np.ndarray,
        n_attempts: np.ndarray,
        login_success: np.ndarray,
        script_id: Sequence[int],
        password_id: np.ndarray,
        username_id: np.ndarray,
        hash_ids: Optional[HashBlockCsr],
        close_reason: np.ndarray,
        version_id: np.ndarray,
    ) -> None:
        # Pure pass-through: the builder adopts ndarrays as column chunks,
        # so no `.tolist()` round-trip and no per-element re-coercion.
        self.builder.append_block(
            start_time=start_time,
            duration=duration,
            honeypot_id=honeypot,
            protocol=protocol,
            client_ip=client_ip,
            client_asn=client_asn,
            client_country_id=client_country,
            n_attempts=n_attempts,
            login_success=login_success,
            script_id=script_id,
            password_id=password_id,
            username_id=username_id,
            hash_ids=hash_ids,
            close_reason_id=close_reason,
            version_id=version_id,
        )

    def flush(self) -> None:
        """No-op on the scalar path (rows reach the builder immediately)."""
