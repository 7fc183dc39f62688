"""The monitored process p on a real event loop.

:class:`LiveHeartbeatSender` paces heartbeats at absolute deadlines
``σ_i = i·η`` on the local clock (``local = loop.time() − origin``) —
the live counterpart of the simulator's
:class:`~repro.sim.heartbeat.HeartbeatSender`, with the same semantics:

* the message carries the *nominal* ``σ_i``, not the actual departure
  time, so receiver-side ``A − S`` measures network delay plus send
  lateness — the end-to-end quantity the Section 5/6 estimators define;
* send slots already in the past are skipped, never burst — a sender
  that stalls (event-loop hiccough, suspended laptop) resumes at its
  first *future* slot, exactly like the simulator's ``_arm_next``.

Pacing is absolute, not relative: each iteration sleeps until the next
``σ_i`` deadline rather than for ``η``, so scheduling latency does not
accumulate into clock drift over a long soak.
"""

from __future__ import annotations

import asyncio

from repro.errors import InvalidParameterError
from repro.live.transport import SenderTransport
from repro.live.wire import HeartbeatEncoder

__all__ = ["LiveHeartbeatSender"]


class LiveHeartbeatSender:
    """η-paced heartbeat sender over a datagram transport.

    Args:
        transport: where datagrams go (loopback or UDP).
        name: the sender's process name, carried in every message.
        eta: inter-sending time η in local time.
        loop: the event loop whose clock paces the schedule.
        origin: loop time at which the local clock reads zero (share it
            with the monitor for the synchronized-clock regime).
        incarnation: identity epoch, bumped by a restarted process
            (footnote 2: a recovered process is a new identity).
        first_seq: sequence number of the first heartbeat.
    """

    def __init__(
        self,
        transport: SenderTransport,
        *,
        name: str,
        eta: float,
        loop: asyncio.AbstractEventLoop,
        origin: float,
        incarnation: int = 0,
        first_seq: int = 1,
    ) -> None:
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta}")
        if first_seq < 1:
            raise InvalidParameterError(
                f"first_seq must be >= 1, got {first_seq}"
            )
        self._transport = transport
        self._name = name
        self._eta = float(eta)
        self._loop = loop
        self._origin = float(origin)
        self._incarnation = int(incarnation)
        # Constant header+name prefix packed once; per-send work is one
        # (seq, σ) pack_into plus the immutable payload snapshot.
        self._encoder = HeartbeatEncoder(name, int(incarnation))
        self._next_seq = int(first_seq)
        self._sent = 0
        self._stop_event = asyncio.Event()

    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        return self._name

    @property
    def eta(self) -> float:
        return self._eta

    @property
    def incarnation(self) -> int:
        return self._incarnation

    @property
    def sent_count(self) -> int:
        return self._sent

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def stopped(self) -> bool:
        return self._stop_event.is_set()

    def local_now(self) -> float:
        return self._loop.time() - self._origin

    def send_local_time(self, seq: int) -> float:
        """``σ_seq = seq·η`` — the paper's schedule."""
        return seq * self._eta

    def stop(self) -> None:
        """Stop sending immediately (crash injection / shutdown).

        Datagrams already handed to the transport still arrive — the
        Section 3.1 semantics that messages in flight survive the crash.
        Idempotent; wakes the pacing loop if it is sleeping.
        """
        self._stop_event.set()

    # ------------------------------------------------------------------ #

    async def run(self) -> None:
        """Send heartbeats until :meth:`stop` (or cancellation)."""
        while not self._stop_event.is_set():
            # Skip slots already in the past: a sender started (or
            # resumed) mid-schedule begins at its first future slot.
            now_local = self.local_now()
            while self.send_local_time(self._next_seq) < now_local:
                self._next_seq += 1
            seq = self._next_seq
            deadline = self.send_local_time(seq)
            if not await self._sleep_until(deadline):
                return  # stopped while waiting
            self._next_seq += 1
            self._sent += 1
            self._transport.send(
                self._encoder.encode(seq, self.send_local_time(seq))
            )

    async def _sleep_until(self, local_deadline: float) -> bool:
        """Sleep to an absolute local deadline; False if stopped first."""
        while True:
            delay = (self._origin + local_deadline) - self._loop.time()
            if delay <= 0.0:
                return not self._stop_event.is_set()
            try:
                await asyncio.wait_for(self._stop_event.wait(), timeout=delay)
                return False  # stop() fired
            except asyncio.TimeoutError:
                continue
