"""The vectorized monitor core on a real event loop.

:class:`LoopWheelScheduler` drives the shared
:class:`~repro.service.soa.VectorMonitorEngine` timer wheel from an
asyncio loop: the engine keeps **one** armed ``loop.call_at`` — the
earliest freshness deadline across *all* monitored peers — instead of
one timer chain per peer, which is what lets a single live monitor
track 10^5+ senders without drowning the loop's timer heap.

:class:`SoALiveHost` is the per-incarnation adapter, mirroring the
surface of :class:`~repro.live.runtime.LiveDetectorHost` (deliver /
stop / finish / estimator / observer) while the detector state lives in
the engine's NumPy tables.  Local time is the engine's native timebase
here (``scheduler.now()`` is loop time minus origin), so traces and
online estimators record local times exactly as the object host does.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Optional

from repro.core.base import HeartbeatFailureDetector
from repro.errors import SimulationError
from repro.estimation.observer import HeartbeatObserver
from repro.metrics.transitions import TRUST, OutputTrace
from repro.service.soa import VectorMonitorEngine, _RowDetectorView
from repro.telemetry.qos_online import OnlineQoSEstimator

__all__ = ["LoopWheelScheduler", "SoALiveHost"]


class LoopWheelScheduler:
    """Adapts an asyncio loop to the engine's scheduler protocol.

    Engine time is *local* time (loop time minus origin) — the same
    clock :class:`~repro.live.runtime.LiveDetectorHost` hands its
    detectors — so freshness deadlines land on the loop at
    ``origin + deadline`` exactly like the object path's ``call_at``.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, origin: float
    ) -> None:
        self._loop = loop
        self._origin = float(origin)
        self._handle: Optional[asyncio.TimerHandle] = None

    @property
    def origin(self) -> float:
        return self._origin

    def now(self) -> float:
        return self._loop.time() - self._origin

    def wake_at(self, time: float, callback: Callable[[], None]) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._loop.call_at(self._origin + time, callback)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None


class SoALiveHost:
    """One monitored incarnation hosted in the shared SoA engine.

    Drop-in for :class:`~repro.live.runtime.LiveDetectorHost`: owns the
    per-incarnation measurement state (output trace, online QoS
    estimator, heartbeat observer) and forwards receipts to its engine
    row.  ``stop`` retires the row idempotently — a removed peer can
    never fire a post-removal transition, even for a deadline already
    due in the wheel.
    """

    def __init__(
        self,
        engine: VectorMonitorEngine,
        detector: HeartbeatFailureDetector,
        *,
        warmup: float = 0.0,
        keep_trace: bool = True,
        observer: Optional[HeartbeatObserver] = None,
        on_transition: Optional[Callable[[float, str], None]] = None,
    ) -> None:
        self._engine = engine
        self._observer = observer
        self._on_transition_hook = on_transition
        self._stopped = False
        self._delivered = 0
        start = engine.now
        self._trace: Optional[OutputTrace] = (
            OutputTrace(start_time=start, initial_output=detector.output)
            if keep_trace
            else None
        )
        self._estimator = OnlineQoSEstimator(
            start_time=start,
            initial_output=detector.output,
            warmup=warmup,
        )
        self._row = engine.register(
            detector, on_transition=self._on_engine_transition
        )
        self._detector_view = _RowDetectorView(engine, self._row, detector)

    # -- LiveDetectorHost-compatible surface --------------------------- #

    @property
    def row(self) -> int:
        return self._row

    @property
    def detector(self):
        return self._detector_view

    @property
    def observer(self) -> Optional[HeartbeatObserver]:
        return self._observer

    @property
    def estimator(self) -> OnlineQoSEstimator:
        return self._estimator

    @property
    def delivered_count(self) -> int:
        return self._delivered

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def trusted(self) -> bool:
        """Whether the row currently trusts its peer."""
        return self._engine.output_char(self._row) == TRUST

    def local_now(self) -> float:
        return self._engine.now

    def start(self) -> None:
        if self._stopped:
            raise SimulationError("host already stopped")
        self._engine.start_row(self._row)

    def deliver_parts(self, seq: int, send_local_time: float) -> None:
        """Feed one receipt; receipt time is local *now*.

        Mirrors the object host's order: the observer sees the receipt
        first (an :class:`~repro.errors.EstimationError` for pre-window
        sequence numbers propagates before the detector state moves).
        """
        t = self.prepare(seq, send_local_time)
        if t is not None:
            self._engine.deliver(self._row, seq, send_local_time, at_real=t)

    def prepare(
        self,
        seq: int,
        send_local_time: float,
        now: Optional[float] = None,
    ) -> Optional[float]:
        """Book-keep one receipt and return its engine receipt time —
        without applying it to the engine.

        The batched drain calls this per heartbeat, accumulates
        ``(time, row, seq)`` triples, and applies the whole chunk with
        one :meth:`VectorMonitorEngine.ingest`.  Everything the scalar
        path does *outside* the engine happens here, in the same order:
        delivered count, then observer (whose pre-window
        :class:`~repro.errors.EstimationError` propagates before any
        engine state moves).  Returns None for a stopped host (the late
        arrival is swallowed exactly like :meth:`deliver`).

        ``now`` lets the caller hoist the clock read: datagrams drained
        together were all already queued when the consumer woke, so one
        receipt timestamp per chunk is the honest reading — and saves a
        clock call per heartbeat.
        """
        if self._stopped:
            return None  # late arrival to a removed incarnation
        self._delivered += 1
        t = self._engine.now if now is None else now
        if self._observer is not None:
            self._observer.observe_arrival(seq, send_local_time, t)
        return t

    def _on_engine_transition(
        self, real: float, local: float, output: str
    ) -> None:
        if self._stopped:
            return
        if self._trace is not None:
            self._trace.record(local, output)
        self._estimator.observe(local, output)
        if self._on_transition_hook is not None:
            self._on_transition_hook(local, output)

    def stop(self) -> None:
        """Retire the engine row; idempotent."""
        self._stopped = True
        self._engine.remove(self._row)

    def finish(
        self, end_local_time: Optional[float] = None
    ) -> Optional[OutputTrace]:
        """Stop the host and close its measurement state.

        Returns the closed trace (None when ``keep_trace`` was off).
        """
        end = self._engine.now if end_local_time is None else end_local_time
        self.stop()
        if not self._estimator.closed:
            self._estimator.close(end)
        if self._trace is not None and not self._trace.closed:
            self._trace.close(end)
        return self._trace
