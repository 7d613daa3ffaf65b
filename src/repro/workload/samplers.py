"""Vectorised per-category field samplers.

Durations, close reasons and login-attempt counts per session category,
shaped to reproduce the paper's Figure 7 (session-duration ECDFs):

* NO_CRED / FAIL_LOG sessions are mostly closed by the client well under a
  minute; a minority of NO_CRED connections linger to the no-login timeout;
* more than 90% of NO_CMD sessions end at the three-minute idle timeout;
* CMD sessions mix client closes with a substantial idle-timeout share;
* CMD+URI sessions inherit download transfer time and can cross the
  three-minute line (the timeout resets while a download is in flight).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.honeypot.session import CloseReason
from repro.store.store import _CLOSE_REASON_IDS
from repro.simulation.rng import RngStream
from repro.workload.blocks import TransitionTable

CLOSE_CLIENT = _CLOSE_REASON_IDS[CloseReason.CLIENT_DISCONNECT.value]
CLOSE_AUTH_TIMEOUT = _CLOSE_REASON_IDS[CloseReason.AUTH_TIMEOUT.value]
CLOSE_IDLE_TIMEOUT = _CLOSE_REASON_IDS[CloseReason.IDLE_TIMEOUT.value]
CLOSE_TOO_MANY = _CLOSE_REASON_IDS[CloseReason.TOO_MANY_ATTEMPTS.value]
CLOSE_EXIT = _CLOSE_REASON_IDS[CloseReason.CLIENT_EXIT.value]

NO_LOGIN_TIMEOUT = 120.0
IDLE_TIMEOUT = 180.0

# Auth-phase attempt-count transition rows (P[1, 2, 3 attempts]), with
# their CDFs built once at import: batched draws through TransitionTable
# are value-identical to the old inline ``p=[...]`` spelling.
FAIL_LOG_ATTEMPTS = TransitionTable([0.24, 0.16, 0.60])
NO_CMD_ATTEMPTS = TransitionTable([0.72, 0.19, 0.09])
CMD_ATTEMPTS = TransitionTable([0.70, 0.20, 0.10])


# Each category's fields come in two halves: ``*_draws`` takes every draw
# (in the order the fields consume them) and ``*_derive`` turns the raw
# draws into fields with elementwise numpy only.  Because the derive half
# is elementwise, it can run once over a whole shard's concatenated draws
# (the day kernels) and give the same values it gives per day;
# ``*_fields`` composes the two for a single batch.


def no_cred_draws(rng: RngStream, n: int) -> Tuple[np.ndarray, ...]:
    return rng.random_array(n), rng.random_array(n), rng.exponential_array(9.0, n)


def no_cred_derive(
    u: np.ndarray, quick_u: np.ndarray, linger_e: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    quick = 0.5 + 2.5 * quick_u  # banner-grab and leave
    linger = np.clip(linger_e, 0.5, NO_LOGIN_TIMEOUT - 5.0)
    duration = np.where(u < 0.30, quick, np.where(u < 0.88, linger, NO_LOGIN_TIMEOUT))
    close = np.where(u < 0.88, CLOSE_CLIENT, CLOSE_AUTH_TIMEOUT).astype(np.uint8)
    return duration, close


def no_cred_fields(rng: RngStream, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(durations, close_reason_ids) for NO_CRED sessions."""
    return no_cred_derive(*no_cred_draws(rng, n))


def fail_log_draws(rng: RngStream, n: int) -> Tuple[np.ndarray, ...]:
    return (rng.random_array(n), rng.uniform_array(1.5, 6.0, n),
            rng.uniform_array(0.4, 2.5, n), rng.random_array(n))


def fail_log_derive(
    is_ssh: np.ndarray,
    attempts_u: np.ndarray,
    per_try: np.ndarray,
    extra: np.ndarray,
    closed_u: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    attempts = FAIL_LOG_ATTEMPTS.index(attempts_u).astype(np.uint16) + 1
    duration = attempts * per_try + extra
    server_closed = (attempts == 3) & is_ssh & (closed_u < 0.35)
    close = np.where(server_closed, CLOSE_TOO_MANY, CLOSE_CLIENT).astype(np.uint8)
    return duration, close, attempts


def fail_log_fields(
    rng: RngStream, n: int, is_ssh: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(durations, close_reason_ids, n_attempts) for FAIL_LOG sessions."""
    return fail_log_derive(is_ssh, *fail_log_draws(rng, n))


def no_cmd_draws(rng: RngStream, n: int) -> Tuple[np.ndarray, ...]:
    return (rng.random_array(n), rng.uniform_array(2.0, 10.0, n),
            rng.random_array(n), rng.uniform_array(3.0, 55.0, n))


def no_cmd_derive(
    attempts_u: np.ndarray,
    login_delay: np.ndarray,
    timeout_u: np.ndarray,
    linger: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    attempts = NO_CMD_ATTEMPTS.index(attempts_u).astype(np.uint16) + 1
    timed_out = timeout_u < 0.92
    duration = np.where(
        timed_out, login_delay + IDLE_TIMEOUT, login_delay + linger
    )
    close = np.where(timed_out, CLOSE_IDLE_TIMEOUT, CLOSE_CLIENT).astype(np.uint8)
    return duration, close, attempts


def no_cmd_fields(rng: RngStream, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(durations, close_reason_ids, n_attempts) for NO_CMD sessions."""
    return no_cmd_derive(*no_cmd_draws(rng, n))


def cmd_draws(rng: RngStream, n: int) -> Tuple[np.ndarray, ...]:
    return (rng.random_array(n), rng.lognormal_array(0.0, 0.35, n),
            rng.uniform_array(2.0, 12.0, n), rng.random_array(n))


def cmd_derive(
    exec_seconds: np.ndarray,
    attempts_u: np.ndarray,
    jitter: np.ndarray,
    think: np.ndarray,
    u: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    attempts = CMD_ATTEMPTS.index(attempts_u).astype(np.uint16) + 1
    base = think + exec_seconds * jitter
    # 62% client disconnect right after the script; 30% idle out afterwards;
    # 8% explicit exit.
    duration = np.where(u < 0.62, base, np.where(u < 0.92, base + IDLE_TIMEOUT, base))
    close = np.where(
        u < 0.62, CLOSE_CLIENT, np.where(u < 0.92, CLOSE_IDLE_TIMEOUT, CLOSE_EXIT)
    ).astype(np.uint8)
    return duration, close, attempts


def cmd_fields(
    rng: RngStream, n: int, exec_seconds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(durations, close_reason_ids, n_attempts) for CMD / CMD+URI sessions.

    ``exec_seconds`` is each session's script execution time (think time
    plus any download transfer time from the profiled script run).
    """
    return cmd_derive(exec_seconds, *cmd_draws(rng, n))


def protocol_from(u: np.ndarray, ssh_share) -> np.ndarray:
    """0 = SSH, 1 = Telnet, from uniform draws and the SSH share."""
    return (u >= ssh_share).astype(np.uint8)


def protocol_array(rng: RngStream, n: int, ssh_share: float) -> np.ndarray:
    """0 = SSH, 1 = Telnet, with the category's SSH share."""
    return protocol_from(rng.random_array(n), ssh_share)
