"""The monitoring process q on a real event loop.

:class:`LiveMonitorService` is the live counterpart of
:class:`~repro.service.monitor_service.MonitorService`: it receives raw
datagrams from a transport, decodes them, and dispatches each heartbeat
to the peer's host — an engine row (:class:`~repro.live.soa.SoALiveHost`)
for NFD-S/U/E, a :class:`~repro.live.runtime.LiveDetectorHost` for any
other detector — with the operational hardening a wall-clock service
needs:

* **bounded inbox** — the transport callback only enqueues; a consumer
  task drains.  When the queue is full the datagram is dropped and
  counted (``live_inbox_dropped_total``), never blocking the loop: for
  a failure detector, a *late* heartbeat is worse than a lost one.
* **junk tolerance** — undecodable datagrams (port scans, misdirected
  traffic) are counted, not raised; so are heartbeats from unknown
  senders and from sequence numbers before the observation window.
* **incarnation dispatch** — a heartbeat with a higher incarnation than
  the current host means the peer restarted (footnote 2: a new
  identity): the old incarnation's host is finalized into the results
  and a fresh detector is started via the peer's factory; lower
  incarnations are stale stragglers and are dropped.
* **supervised consumer** — the inbox consumer runs under a
  :class:`~repro.live.supervisor.TaskSupervisor` and is restarted if it
  ever dies on an unexpected exception.

All measurement state (traces, online QoS estimators, observers) lives
in the hosts; the service contributes registry counters so an operator
can watch the stream (``live_*`` series, exported through the existing
:mod:`repro.telemetry.export` JSONL/Prometheus writers unchanged).
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.core.base import HeartbeatFailureDetector
from repro.errors import EstimationError, InvalidParameterError, SimulationError
from repro.estimation.observer import HeartbeatObserver
from repro.live.runtime import LiveDetectorHost
from repro.live.soa import LoopWheelScheduler, SoALiveHost
from repro.live.supervisor import TaskSupervisor
from repro.live.wire import HeartbeatBatchDecoder, WireError
from repro.metrics.transitions import SUSPECT, OutputTrace
from repro.service import soa
from repro.service.events import MonitorEvent
from repro.telemetry.qos_online import OnlineQoSEstimator
from repro.telemetry.registry import MetricsRegistry

__all__ = ["LiveMonitorService", "LivePeerResult"]

DetectorFactory = Callable[[int], HeartbeatFailureDetector]

#: auto-admission hook: name -> (detector_factory, eta), or None to refuse.
AdmitHook = Callable[[str], Optional[tuple]]

#: Most datagrams the consumer dispatches per wakeup.  A backlog larger
#: than this is split into several chunks so one burst cannot hold the
#: loop for longer than one chunk's work.
_DRAIN_CHUNK = 256


@dataclass(frozen=True)
class LivePeerResult:
    """The closed measurement state of one monitored incarnation."""

    name: str
    incarnation: int
    first_seq: int
    trace: Optional[OutputTrace]
    estimator: OnlineQoSEstimator
    observer: Optional[HeartbeatObserver]
    delivered: int


class _Peer:
    __slots__ = (
        "name",
        "eta",
        "factory",
        "incarnation",
        "first_seq",
        "host",
        "observer_kwargs",
        "observe",
    )

    def __init__(self, name, eta, factory, observer_kwargs, observe) -> None:
        self.name = name
        self.eta = eta
        self.factory = factory
        self.observer_kwargs = observer_kwargs
        self.observe = observe
        self.incarnation = 0
        self.first_seq = 1
        #: SoALiveHost (NFD-S/U/E) or LiveDetectorHost (other detectors)
        self.host: Optional[object] = None


class LiveMonitorService:
    """Monitors a set of peers from a live datagram stream.

    Args:
        loop: the event loop (defaults to the running loop).
        origin: loop time at which local time reads zero (defaults to
            *now*; share it with in-process senders for synchronized
            clocks, or anchor it to the Unix epoch for UDP peers).
        registry: metrics registry for the ``live_*`` series.
        inbox_limit: bounded-inbox capacity in datagrams.
        warmup: per-incarnation startup span excluded from online QoS.
        keep_traces: retain full output traces (on for soaks/tests, off
            for indefinitely-running services).

    The detector picks its host: NFD-S/U/E peers live in one shared
    :class:`~repro.service.soa.VectorMonitorEngine` — one armed loop
    timer for the whole service, and one
    :meth:`~repro.service.soa.VectorMonitorEngine.ingest` per drained
    chunk, which takes NumPy passes only when the chunk is large enough
    to pay for them.  Every other detector gets its own
    :class:`LiveDetectorHost` with per-peer loop timers.

    The inbox consumer drains up to a fixed chunk of queued datagrams
    per wakeup and dispatches them through one routine
    (:meth:`_dispatch_batch`); a chunk of one datagram is just a chunk.
    """

    def __init__(
        self,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        origin: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        inbox_limit: int = 4096,
        warmup: float = 0.0,
        keep_traces: bool = True,
        auto_admit: Optional[AdmitHook] = None,
    ) -> None:
        if inbox_limit < 1:
            raise InvalidParameterError(
                f"inbox_limit must be >= 1, got {inbox_limit}"
            )
        self._loop = (
            loop if loop is not None else asyncio.get_running_loop()
        )
        self._origin = (
            self._loop.time() if origin is None else float(origin)
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self._warmup = float(warmup)
        self._keep_traces = keep_traces
        self._auto_admit = auto_admit
        self._soa_engine: Optional[soa.VectorMonitorEngine] = None
        self._soa_scheduler: Optional[LoopWheelScheduler] = None
        self._decoder = HeartbeatBatchDecoder()
        # Reused accumulators for the SoA ingest path.  Receipt times
        # are constant within a chunk segment (one clock read per
        # drained chunk), so instead of appending the same float per
        # heartbeat the marks list records ``(time, start_index)`` per
        # segment and the flush expands it.
        self._pend_rows: List[int] = []
        self._pend_seqs: List[int] = []
        self._pend_marks: List[tuple] = []
        # The inbox is a plain deque plus a wakeup event rather than an
        # asyncio.Queue: the producer side is always the synchronous
        # transport callback (put_nowait semantics only), so the Queue's
        # waiter machinery buys nothing and costs ~0.5µs per datagram on
        # both ends — a large fraction of the batched path's budget.
        self._inbox_limit = int(inbox_limit)
        self._inbox: Deque[bytes] = deque()
        self._inbox_ready = asyncio.Event()
        self._peers: Dict[str, _Peer] = {}
        self._results: List[LivePeerResult] = []
        self._listeners: List[Callable[[MonitorEvent], None]] = []
        self._suspected: set = set()
        self._supervisor = TaskSupervisor()
        self._started = False
        self._closed = False

        reg = self.registry
        self._c_received = reg.counter(
            "live_datagrams_received_total", "datagrams offered to the inbox"
        )
        self._c_inbox_dropped = reg.counter(
            "live_inbox_dropped_total",
            "datagrams dropped on any shed path (inbox full, or arrival "
            "after shutdown)",
        )
        self._c_drop_noted = reg.counter(
            "live_dropped_heartbeats_noted_total",
            "shed heartbeats whose sequence numbers were excluded from "
            "the loss-rate estimate (local overload is not network loss)",
        )
        self._c_invalid = reg.counter(
            "live_datagrams_invalid_total", "datagrams that failed to decode"
        )
        self._c_unknown = reg.counter(
            "live_unknown_sender_total", "heartbeats from unregistered peers"
        )
        self._c_stale = reg.counter(
            "live_stale_incarnation_total",
            "heartbeats from a superseded incarnation",
        )
        self._c_prewindow = reg.counter(
            "live_prewindow_heartbeats_total",
            "heartbeats sequenced before the observation window",
        )
        self._c_dispatched = reg.counter(
            "live_heartbeats_dispatched_total",
            "heartbeats delivered to a detector host",
        )
        self._c_restarts = reg.counter(
            "live_incarnation_restarts_total",
            "peer restarts observed via a higher incarnation",
        )
        self._t_trust = reg.counter(
            "live_transitions_total",
            "detector output transitions",
            labels={"output": "T"},
        )
        self._t_suspect = reg.counter(
            "live_transitions_total",
            "detector output transitions",
            labels={"output": "S"},
        )
        self._g_suspected = reg.gauge(
            "live_suspected_processes", "peers currently suspected"
        )

    # ------------------------------------------------------------------ #
    # Clock
    # ------------------------------------------------------------------ #

    @property
    def origin(self) -> float:
        return self._origin

    @property
    def soa_engine(self) -> Optional[soa.VectorMonitorEngine]:
        """The shared SoA engine, if the service has built one."""
        return self._soa_engine

    def _soa(self) -> soa.VectorMonitorEngine:
        if self._soa_engine is None:
            self._soa_scheduler = LoopWheelScheduler(self._loop, self._origin)
            self._soa_engine = soa.VectorMonitorEngine(self._soa_scheduler)
        return self._soa_engine

    def local_now(self) -> float:
        return self._loop.time() - self._origin

    # ------------------------------------------------------------------ #
    # Peers
    # ------------------------------------------------------------------ #

    def add_peer(
        self,
        name: str,
        detector_factory: DetectorFactory,
        *,
        eta: float,
        stats_window: int = 1000,
        arrival_window: int = 32,
        loss_reorder_horizon: Optional[int] = 1024,
        observe: bool = True,
    ) -> None:
        """Register a peer and start monitoring it now.

        Args:
            name: the peer's process name (the wire identity).
            detector_factory: called as ``factory(first_seq)`` for every
                incarnation; must return a fresh unbound detector.
            eta: the peer's nominal inter-sending time (for the
                estimation pipeline and the first-seq computation).
            observe: attach the Section 5/6 estimation pipeline (loss /
                delay / expected-arrival) to every incarnation.  Turn
                off for peers whose detector parameters are fixed — the
                per-heartbeat estimator update is then skipped entirely,
                which is a large share of the monitor's hot-path cost.
        """
        if name in self._peers:
            raise InvalidParameterError(f"peer {name!r} already monitored")
        if eta <= 0:
            raise InvalidParameterError(f"eta must be positive, got {eta}")
        peer = _Peer(
            name=name,
            eta=float(eta),
            factory=detector_factory,
            observer_kwargs={
                "stats_window": stats_window,
                "arrival_window": arrival_window,
                "loss_reorder_horizon": loss_reorder_horizon,
            },
            observe=observe,
        )
        self._peers[name] = peer
        self._start_incarnation(peer, incarnation=0)

    def _start_incarnation(self, peer: _Peer, incarnation: int) -> None:
        # A detector started mid-stream must begin at the current send
        # window, not at seq 1 — same first-seq rule as MonitorService.
        first_seq = max(1, int(math.floor(self.local_now() / peer.eta)) + 1)
        detector = peer.factory(first_seq)
        observer = (
            HeartbeatObserver(
                eta=peer.eta, first_seq=first_seq, **peer.observer_kwargs
            )
            if peer.observe
            else None
        )
        # The incarnation is captured in the closure so a transition
        # fired by a superseded host can be recognized and muted — the
        # election layer must never act on a stale incarnation's bit.
        hook = lambda t, out, name=peer.name, inc=incarnation: (  # noqa: E731
            self._note_transition(name, out, t, inc)
        )
        if soa.supports_detector(detector):
            host = SoALiveHost(
                self._soa(),
                detector,
                warmup=self._warmup,
                keep_trace=self._keep_traces,
                observer=observer,
                on_transition=hook,
            )
        else:
            host = LiveDetectorHost(
                detector,
                loop=self._loop,
                origin=self._origin,
                warmup=self._warmup,
                keep_trace=self._keep_traces,
                observer=observer,
                on_transition=hook,
            )
        peer.incarnation = incarnation
        peer.first_seq = first_seq
        peer.host = host
        self._suspected.add(peer.name)  # paper detectors start at S
        self._g_suspected.set(len(self._suspected))
        host.start()
        # Announce the fresh incarnation to subscribers: it starts at S
        # (administrative — not a detector transition, so no counters),
        # which guarantees a consumer holding a stale trust bit drops it
        # the instant the restart is observed.
        self._publish(
            MonitorEvent(
                time=self.local_now(),
                process=peer.name,
                output=SUSPECT,
                administrative=True,
                incarnation=incarnation,
            )
        )

    def _finalize_incarnation(self, peer: _Peer) -> Optional[LivePeerResult]:
        host = peer.host
        if host is None:
            return None
        # Receipts still buffered for the SoA ingest path must reach the
        # engine before any book is closed (restart mid-batch).
        self._flush_soa()
        trace = host.finish()
        result = LivePeerResult(
            name=peer.name,
            incarnation=peer.incarnation,
            first_seq=peer.first_seq,
            trace=trace,
            estimator=host.estimator,
            observer=host.observer,
            delivered=host.delivered_count,
        )
        self._results.append(result)
        peer.host = None
        # A finalized incarnation no longer contributes to the suspected
        # gauge (a restart re-adds the name immediately; a removal must
        # not leave a ghost behind).
        self._suspected.discard(peer.name)
        self._g_suspected.set(len(self._suspected))
        # Departure event: subscribers (e.g. an elector) must untrust a
        # peer whose books just closed, exactly like the sim service's
        # synthetic S on remove_process.
        self._publish(
            MonitorEvent(
                time=self.local_now(),
                process=peer.name,
                output=SUSPECT,
                administrative=True,
                incarnation=peer.incarnation,
            )
        )
        return result

    def remove_peer(self, name: str) -> Optional[LivePeerResult]:
        """Stop monitoring a peer.  **Idempotent**: removing an unknown
        or already-removed peer returns None and changes nothing.

        The current incarnation's books are closed into :attr:`results`
        (and returned), the host is neutralized so no pending freshness
        deadline can fire a post-removal transition, and the name leaves
        the suspected gauge.  Note that with ``auto_admit`` installed, a
        later heartbeat from the same name re-admits it as a brand-new
        peer — admission policy, not this method, owns membership.
        """
        peer = self._peers.pop(name, None)
        if peer is None:
            return None
        return self._finalize_incarnation(peer)

    def _try_admit(self, name: str) -> Optional[_Peer]:
        """Admit an unknown sender through the auto-admission hook."""
        if self._auto_admit is None:
            return None
        spec = self._auto_admit(name)
        if spec is None:
            return None
        factory, eta = spec
        self.add_peer(name, factory, eta=eta)
        return self._peers[name]

    def subscribe(self, listener: Callable[[MonitorEvent], None]) -> None:
        """Register a callback for every detector transition.

        Subscribers receive current-incarnation transitions plus
        administrative ``S`` events at incarnation starts and removals
        (mirroring :class:`~repro.service.monitor_service.MonitorService`),
        so a consumer like :class:`~repro.election.omega.LiveElector`
        can never hold a trust bit belonging to a finalized incarnation.
        """
        self._listeners.append(listener)

    def _publish(self, event: MonitorEvent) -> None:
        for callback in self._listeners:
            callback(event)

    def _note_transition(
        self, name: str, output: str, time: float, incarnation: int
    ) -> None:
        peer = self._peers.get(name)
        if peer is None or peer.incarnation != incarnation:
            # A superseded incarnation's host fired after its books were
            # closed; its opinion must not leak to gauges or listeners.
            return
        if output == SUSPECT:
            self._t_suspect.inc()
            self._suspected.add(name)
        else:
            self._t_trust.inc()
            self._suspected.discard(name)
        self._g_suspected.set(len(self._suspected))
        self._publish(
            MonitorEvent(
                time=time,
                process=name,
                output=output,
                incarnation=incarnation,
            )
        )

    @property
    def peer_names(self) -> List[str]:
        return sorted(self._peers)

    @property
    def suspected(self) -> set:
        return set(self._suspected)

    def host(self, name: str):
        """The live host of a peer's current incarnation (a
        :class:`LiveDetectorHost` or :class:`SoALiveHost`)."""
        peer = self._peers.get(name)
        if peer is None or peer.host is None:
            raise SimulationError(f"no live host for peer {name!r}")
        return peer.host

    # ------------------------------------------------------------------ #
    # Datagram path
    # ------------------------------------------------------------------ #

    def on_datagram(self, payload: bytes) -> None:
        """Transport callback: enqueue, never block, drop-and-count.

        *Every* shed path increments ``live_inbox_dropped_total``: a
        full inbox mid-burst, and arrivals after :meth:`aclose` (nothing
        will ever drain the queue again — silently enqueueing would hide
        the drop from the operator *and* leak memory).  Shed heartbeats
        that still decode are announced to the current incarnation's
        loss estimator so monitor-side overload is not mistaken for
        network loss.
        """
        self._c_received.inc()
        if self._closed:
            self._c_inbox_dropped.inc()
            return
        if len(self._inbox) >= self._inbox_limit:
            self._c_inbox_dropped.inc()
            self._note_shed_heartbeat(payload)
            return
        self._inbox.append(payload)
        self._inbox_ready.set()

    def _note_shed_heartbeat(self, payload: bytes) -> None:
        """Best-effort: tell the loss estimator about a locally-shed
        heartbeat so it cannot poison the reorder-horizon accounting
        (the message *did* traverse the network)."""
        try:
            sender, incarnation, seq, _ = self._decoder.decode_fields(
                payload
            )
        except WireError:
            return  # junk; nothing to protect
        peer = self._peers.get(sender)
        if (
            peer is None
            or peer.host is None
            or incarnation != peer.incarnation
        ):
            return
        observer = peer.host.observer
        if observer is not None:
            observer.note_local_drop(seq)
            self._c_drop_noted.inc()

    async def _consume(self) -> None:
        inbox = self._inbox
        ready = self._inbox_ready
        popleft = inbox.popleft
        limit = _DRAIN_CHUNK
        while True:
            # Block for the first datagram, then opportunistically drain
            # the backlog up to the chunk limit: under load one consumer
            # wakeup dispatches hundreds of heartbeats, and the SoA
            # engine applies them with one vectorized ingest.
            if not inbox:
                ready.clear()
                await ready.wait()
            if len(inbox) <= limit:
                batch = list(inbox)  # bulk copy, no per-item pops
                inbox.clear()
            else:
                batch = [popleft() for _ in range(limit)]
            self._dispatch_batch(batch)

    def _flush_soa(self) -> None:
        """Apply buffered receipts to the SoA engine in one ingest."""
        rows = self._pend_rows
        marks = self._pend_marks
        if not rows:
            marks.clear()
            return
        # Every buffered receipt must belong to a recorded segment —
        # feeding uninitialized times to the engine would corrupt
        # verdicts silently.
        assert marks and marks[0][1] == 0, "receipts outside any segment"
        times: List[float] = []
        for k, (t, start) in enumerate(marks):
            end = marks[k + 1][1] if k + 1 < len(marks) else len(rows)
            times.extend([t] * (end - start))
        # Empty the buffers before the ingest: a transition listener
        # that removes a peer flushes again, and must find nothing.
        batch_rows, batch_seqs = rows[:], self._pend_seqs[:]
        rows.clear()
        self._pend_seqs.clear()
        marks.clear()
        self._soa_engine.ingest(times, batch_rows, batch_seqs)

    def _dispatch_batch(self, payloads: List[bytes]) -> None:
        """Decode and dispatch one drained chunk, datagram by datagram.

        Each datagram, in arrival order: junk is counted invalid; an
        unknown sender is offered to the admission hook and counted
        unknown if refused; a lower incarnation is a stale straggler;
        a higher one means the peer restarted (footnote 2 — a new
        identity), so the old incarnation's books are closed and a
        fresh detector started; a heartbeat sequenced before the
        incarnation's window is counted pre-window.  Everything else
        reaches the peer's host.

        The chunk is decoded by the allocation-light
        :class:`~repro.live.wire.HeartbeatBatchDecoder` (tuples +
        interned names, no per-message dataclass), counters are
        incremented once per chunk, and receipts for trusting engine
        rows — which cannot produce a T — are accumulated as
        ``(time, row, seq)`` and applied with a single
        :meth:`~repro.service.soa.VectorMonitorEngine.ingest`.  Every
        other receipt is applied at once with its own clock read.  The
        buffer is flushed before any such receipt and before any
        structural change (admission, incarnation restart), so engine
        state never moves out of order.
        """
        decode = self._decoder.decode_fields
        peers = self._peers
        n_invalid = n_unknown = n_stale = n_prewindow = n_dispatched = 0
        pend_rows = self._pend_rows
        pend_seqs = self._pend_seqs
        # One receipt timestamp for the whole chunk: every drained
        # datagram was already queued when the consumer woke, so the
        # wakeup instant is their shared local receipt time (and the
        # clock is read once, not once per heartbeat).
        chunk_now: Optional[float] = None
        for payload in payloads:
            try:
                sender, incarnation, seq, sigma = decode(payload)
            except WireError:
                n_invalid += 1
                continue
            peer = peers.get(sender)
            if peer is None:
                # The flush clears the pending segment marks, so the
                # hoisted clock read must be invalidated with it —
                # whether or not the sender is admitted.  (An admitted
                # sender's row also registers at a fresh engine time.)
                self._flush_soa()
                chunk_now = None
                peer = self._try_admit(sender)
                if peer is None:
                    n_unknown += 1
                    continue
            if incarnation < peer.incarnation or peer.host is None:
                n_stale += 1
                continue
            if incarnation > peer.incarnation:
                self._c_restarts.inc()
                self._finalize_incarnation(peer)  # flushes the buffer
                self._start_incarnation(peer, incarnation=incarnation)
                chunk_now = None  # fresh row, fresh clock read
            host = peer.host
            if isinstance(host, SoALiveHost) and host.trusted:
                # A receipt for a trusting row cannot produce a T: it
                # joins the chunk's one ingest.
                if chunk_now is None:
                    chunk_now = self._soa_engine.now
                    self._pend_marks.append((chunk_now, len(pend_rows)))
                if host._observer is None:
                    # Inlined prepare() for the estimator-less case: the
                    # per-heartbeat work collapses to a delivered count
                    # and two appends (same package, hot path).
                    if not host._stopped:
                        host._delivered += 1
                        pend_rows.append(host._row)
                        pend_seqs.append(seq)
                    n_dispatched += 1
                    continue
                try:
                    t = host.prepare(seq, sigma, chunk_now)
                except EstimationError:
                    n_prewindow += 1
                    continue
                if t is not None:
                    # prepare() echoed chunk_now, so the receipt joins
                    # the current segment.
                    pend_rows.append(host.row)
                    pend_seqs.append(seq)
                n_dispatched += 1
            else:
                # A receipt that may trust its peer (or one for an
                # object host) is applied at once on its own clock
                # read: buffered behind the rest of the chunk, the T
                # would be published later than its receipt time.
                self._flush_soa()
                chunk_now = None
                try:
                    host.deliver_parts(seq, sigma)
                except EstimationError:
                    # Sequenced before this incarnation's window (clock
                    # skew on the sender side, or a straggler from
                    # before a restart).
                    n_prewindow += 1
                    continue
                n_dispatched += 1
        self._flush_soa()
        if n_invalid:
            self._c_invalid.inc(n_invalid)
        if n_unknown:
            self._c_unknown.inc(n_unknown)
        if n_stale:
            self._c_stale.inc(n_stale)
        if n_prewindow:
            self._c_prewindow.inc(n_prewindow)
        if n_dispatched:
            self._c_dispatched.inc(n_dispatched)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the supervised inbox consumer."""
        if self._started:
            raise SimulationError("service already started")
        self._started = True
        self._supervisor.spawn("monitor-inbox", self._consume, restart=True)

    async def aclose(self) -> List[LivePeerResult]:
        """Graceful shutdown: drain the consumer, close every host.

        Returns the results of all incarnations (historic restarts plus
        the ones finalized now), in finalization order.
        """
        if self._closed:
            return list(self._results)
        self._closed = True
        if self._started:
            await self._supervisor.shutdown()
        # Drain datagrams that were queued but not yet consumed, so a
        # burst right before shutdown still reaches the books — in the
        # same chunks the consumer would have used.
        leftovers: List[bytes] = list(self._inbox)
        self._inbox.clear()
        for start in range(0, len(leftovers), _DRAIN_CHUNK):
            self._dispatch_batch(leftovers[start : start + _DRAIN_CHUNK])
        for name in sorted(self._peers):
            self._finalize_incarnation(self._peers[name])
        if self._soa_scheduler is not None:
            self._soa_scheduler.close()
        return list(self._results)

    @property
    def results(self) -> List[LivePeerResult]:
        """Finalized incarnations so far (all of them after aclose)."""
        return list(self._results)

    @property
    def consumer_crashes(self):
        return self._supervisor.crashes
