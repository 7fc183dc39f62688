"""Two-terminal UDP roles: ``live send`` and ``live monitor``.

These are the operational entry points behind the CLI: one process runs
:func:`run_udp_sender` (the monitored process p), another runs
:func:`run_udp_monitor` (the monitoring process q), possibly on another
machine.

Clock regime: both sides anchor their local clock to the Unix epoch
(``local ≈ time.time()``), so the schedule ``σ_i = i·η`` is a property
of *wall time*, not of process start — a sender and a monitor started at
different moments still agree on which heartbeat belongs to which slot,
and the clocks are synchronized exactly as well as NTP keeps the hosts.
Residual skew shows up as apparent delay, which is why the defaults run
NFD-S with a δ comfortably above LAN jitter; for genuinely
unsynchronized hosts, monitor with ``detector="nfd-e"`` (eq. 6.3
expected-arrival estimation is offset-invariant — the property pinned by
``tests/core/test_arrival_property.py``).
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.errors import InvalidParameterError
from repro.live.monitor import LiveMonitorService
from repro.live.sender import LiveHeartbeatSender
from repro.live.transport import (
    BatchedUdpMonitorTransport,
    UdpSenderTransport,
)

__all__ = [
    "epoch_origin",
    "detector_factory_for",
    "run_udp_sender",
    "run_udp_monitor",
]


def epoch_origin(loop: asyncio.AbstractEventLoop) -> float:
    """Loop-time origin that makes local time read Unix time."""
    return loop.time() - time.time()


def detector_factory_for(
    detector: str, eta: float, delta: float
) -> Callable[[int], object]:
    """A ``factory(first_seq)`` for the named detector.

    ``delta`` is the freshness shift for NFD-S and the safety margin α
    for NFD-E (both add slack on top of the expected arrival; the CLI
    exposes one knob).
    """
    if detector == "nfd-s":
        return lambda first_seq: NFDS(eta, delta, first_seq=first_seq)
    if detector == "nfd-e":
        return lambda first_seq: NFDE(
            eta, alpha=delta, first_seq=first_seq
        )
    raise InvalidParameterError(f"unknown detector {detector!r}")


async def run_udp_sender(
    *,
    name: str,
    host: str,
    port: int,
    eta: float,
    duration: Optional[float] = None,
    incarnation: int = 0,
) -> int:
    """Send η-paced heartbeats to ``host:port`` until duration/cancel.

    Returns the number of heartbeats sent.
    """
    loop = asyncio.get_running_loop()
    transport = UdpSenderTransport(host, port)
    await transport.start()
    origin = epoch_origin(loop)
    sender = LiveHeartbeatSender(
        transport,
        name=name,
        eta=eta,
        loop=loop,
        origin=origin,
        incarnation=incarnation,
        # Start at the current wall-time slot, not at seq 1 (which was
        # decades ago on the epoch clock).
        first_seq=max(1, int((loop.time() - origin) // eta) + 1),
    )
    if duration is not None:
        loop.call_later(duration, sender.stop)
    try:
        await sender.run()
    finally:
        sender.stop()
        await transport.aclose()
    return sender.sent_count


async def run_udp_monitor(
    *,
    host: str,
    port: int,
    eta: float,
    delta: float,
    detector: str = "nfd-s",
    duration: Optional[float] = None,
    report_every: float = 2.0,
    registry=None,
    emit: Callable[[str], None] = print,
) -> LiveMonitorService:
    """Monitor whatever senders appear at ``host:port``.

    Unknown senders are auto-admitted with the configured detector;
    restarts are recognized through the wire incarnation.  Every
    ``report_every`` seconds a one-line status is emitted.  Returns the
    (closed) service so callers can inspect results and telemetry.

    The socket is drained by :class:`BatchedUdpMonitorTransport`, which
    falls back to the asyncio endpoint on loops without ``add_reader``.
    """
    loop = asyncio.get_running_loop()
    service = LiveMonitorService(
        loop=loop,
        origin=epoch_origin(loop),
        registry=registry,
        keep_traces=False,  # a real monitor runs indefinitely
        auto_admit=lambda name: (
            detector_factory_for(detector, eta, delta),
            eta,
        ),
    )
    transport = BatchedUdpMonitorTransport(host, port, service.on_datagram)
    await transport.start()
    service.start()
    deadline = None if duration is None else loop.time() + duration
    try:
        while deadline is None or loop.time() < deadline:
            step = report_every
            if deadline is not None:
                step = min(step, max(deadline - loop.time(), 0.0))
            await asyncio.sleep(step)
            suspected = sorted(service.suspected)
            emit(
                f"[live-monitor] peers={len(service.peer_names)}"
                f" suspected={suspected if suspected else '[]'}"
            )
    except asyncio.CancelledError:
        pass
    finally:
        await transport.aclose()
        await service.aclose()
    return service
