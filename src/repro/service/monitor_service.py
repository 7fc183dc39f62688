"""Monitoring many processes with per-process detectors and links.

:class:`MonitorService` owns, for each monitored process, the full
two-process pipeline of the paper — heartbeat sender, lossy link,
detector host — and fans every output transition out to service-level
listeners as :class:`~repro.service.events.MonitorEvent`.

Per-process isolation matters: each link has its own loss probability
and delay distribution (a LAN peer and a WAN peer should not share a
configuration), and each detector can be configured against a different
QoS contract via the Section 4-6 configurators.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import HeartbeatFailureDetector
from repro.errors import InvalidParameterError, SimulationError
from repro.metrics.transitions import OutputTrace
from repro.net.clocks import Clock
from repro.net.delays import DelayDistribution
from repro.net.link import LossyLink
from repro.service import soa
from repro.service.events import MonitorEvent
from repro.sim.engine import Simulator
from repro.sim.heartbeat import HeartbeatSender
from repro.sim.monitor import DetectorHost

__all__ = ["MonitoredProcess", "MonitorService"]

Listener = Callable[[MonitorEvent], None]


@dataclass
class MonitoredProcess:
    """Everything the service keeps per monitored process."""

    name: str
    sender: HeartbeatSender
    #: a :class:`~repro.service.soa.SoAMonitorHost` (NFD-S/U/E) or a
    #: :class:`DetectorHost` (every other detector); both expose the
    #: same surface (detector, deliver, stop, finish, …).
    host: object
    link: LossyLink
    incarnation: int = 0
    #: the fault engine driving this pipeline, when the process was
    #: registered with a scenario (its ``timeline`` segments the
    #: incarnation's QoS by fault window).
    scenario_engine: Optional[object] = None
    #: real time at which this incarnation crashes (``inf`` = never).
    #: A *scheduled* crash sets this to the future crash instant — the
    #: process is still live (and a suspicion still a mistake) until
    #: then, which is what the membership layer's spurious-change
    #: accounting compares against.
    crash_time: float = math.inf
    events: List[MonitorEvent] = field(default_factory=list)

    @property
    def detector(self) -> HeartbeatFailureDetector:
        return self.host.detector

    @property
    def output(self) -> str:
        return self.detector.output

    @property
    def trusted(self) -> bool:
        return self.detector.output == "T"

    @property
    def crashed(self) -> bool:
        """Whether a crash has been injected (now or scheduled).

        For "has it crashed *yet*" compare :attr:`crash_time` against
        the simulation clock: ``proc.crashed_by(sim.now)``.
        """
        return self.crash_time != math.inf

    def crashed_by(self, time: float) -> bool:
        """Whether this incarnation is actually down at ``time``."""
        return time >= self.crash_time


class MonitorService:
    """A registry of monitored processes sharing one simulator.

    Args:
        sim: the discrete-event simulator all pipelines run on.
        seed: base seed; each (process, incarnation) derives its own
            independent random stream.

    The detector picks its host: NFD-S/U/E senders live in the shared
    vectorized :class:`~repro.service.soa.VectorMonitorEngine` (NumPy
    tables and a single timer wheel, which is what lets one monitor
    track 10^5+ senders); every other detector gets its own
    :class:`~repro.sim.monitor.DetectorHost`.
    """

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self._sim = sim
        self._seed = int(seed)
        self._soa: Optional[soa.VectorMonitorEngine] = None
        self._processes: Dict[str, MonitoredProcess] = {}
        self._closed_traces: Dict[Tuple[str, int], OutputTrace] = {}
        self._closed_crash_times: Dict[Tuple[str, int], float] = {}
        self._listeners: List[Listener] = []
        self._started = False

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def soa_engine(self) -> Optional[soa.VectorMonitorEngine]:
        """The shared SoA engine, if the service has built one."""
        return self._soa

    def _soa_engine(self) -> soa.VectorMonitorEngine:
        if self._soa is None:
            self._soa = soa.VectorMonitorEngine(
                soa.SimWheelScheduler(self._sim)
            )
        return self._soa

    @property
    def process_names(self) -> tuple:
        return tuple(sorted(self._processes))

    def process(self, name: str) -> MonitoredProcess:
        try:
            return self._processes[name]
        except KeyError:
            raise InvalidParameterError(f"unknown process {name!r}") from None

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def add_process(
        self,
        name: str,
        detector: HeartbeatFailureDetector,
        eta: float,
        delay: Optional[DelayDistribution] = None,
        loss_probability: float = 0.0,
        sender_clock: Optional[Clock] = None,
        monitor_clock: Optional[Clock] = None,
        incarnation: int = 0,
        scenario=None,
        link=None,
    ) -> MonitoredProcess:
        """Register a process and build its monitoring pipeline.

        If the service has already been started, the new pipeline starts
        immediately (processes can join a running system).

        The transport is declared either by ``delay`` (+
        ``loss_probability``), building the paper's
        :class:`~repro.net.link.LossyLink` from the per-(process,
        incarnation) stream, or by passing a pre-built LossyLink-
        compatible ``link`` — e.g. a
        :class:`~repro.net.wan.RoutedWanLink` relaying heartbeats across
        a multi-site topology.  Exactly one of the two must be given; a
        caller-provided link owns its randomness, so it must be
        constructed from a seeded generator for reproducible runs.

        ``scenario`` (a :class:`repro.faults.FaultScenario`) scripts
        faults onto this process's pipeline only: the link is wrapped in
        a :class:`repro.faults.FaultyLink` whose fault draws come from a
        per-(process, incarnation) ``STREAM_FAULTS`` stream, clocks are
        auto-upgraded to :class:`~repro.net.clocks.FaultableClock` where
        the scenario needs them, and the engine's timeline is available
        as ``proc.scenario_engine.timeline``.  Event times are absolute
        simulation times, so a process registered mid-run must use a
        scenario written for the current clock.
        """
        if name in self._processes:
            raise InvalidParameterError(
                f"process {name!r} already monitored; remove it first or "
                f"re-add under a new incarnation"
            )
        if (delay is None) == (link is None):
            raise InvalidParameterError(
                "pass exactly one of delay= (a LossyLink is built for "
                "the process) or link= (a pre-built transport)"
            )
        # zlib.crc32 is stable across processes (str hash() is salted by
        # PYTHONHASHSEED and would break run-to-run reproducibility).
        name_key = zlib.crc32(name.encode("utf-8"))
        if link is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self._seed, name_key, incarnation])
            )
            link = LossyLink(
                delay=delay, loss_probability=loss_probability, rng=rng
            )
        engine = None
        if scenario is not None:
            # Imported lazily: repro.faults sits above the service layer.
            from repro.faults.links import FaultyLink
            from repro.faults.runner import _resolve_clock
            from repro.faults.scenario import ScenarioEngine
            from repro.sim.seeds import STREAM_FAULTS

            fault_rng = np.random.default_rng(
                np.random.SeedSequence(
                    [self._seed, name_key, incarnation, STREAM_FAULTS]
                )
            )
            link = FaultyLink(link, fault_rng)
            sender_clock = _resolve_clock(sender_clock, scenario, "sender")
            monitor_clock = _resolve_clock(monitor_clock, scenario, "monitor")
        if soa.supports_detector(detector):
            host = soa.SoAMonitorHost(
                self._soa_engine(),
                detector,
                clock=monitor_clock,
                incarnation=incarnation,
            )
        else:
            host = DetectorHost(
                self._sim,
                detector,
                clock=monitor_clock,
                sender_clock=sender_clock,
            )
        # A process joining mid-run keeps the paper's global schedule
        # σ_i = i·η but starts at the first index still in the future.
        first_seq = max(1, int(self._sim.now // eta) + 1)
        sender = HeartbeatSender(
            self._sim,
            link,
            eta=eta,
            deliver=host.deliver,
            clock=sender_clock,
            first_seq=first_seq,
            origin=first_seq * eta,
            send_gate=scenario.send_gate() if scenario is not None else None,
        )
        if scenario is not None and len(scenario):
            engine = ScenarioEngine(
                self._sim,
                scenario,
                link,
                sender_clock=sender_clock,
                monitor_clock=monitor_clock,
                label=f"{name}#{incarnation}",
            )
            engine.install()
        proc = MonitoredProcess(
            name=name, sender=sender, host=host, link=link,
            incarnation=incarnation, scenario_engine=engine,
        )
        self._processes[name] = proc
        # Re-route the host's transition recording through the service so
        # listeners see named events (the trace still records too).
        if isinstance(host, soa.SoAMonitorHost):
            host.listener = self._make_listener(proc, None)
        else:
            detector._listener = self._make_listener(proc, detector._listener)
        if self._started:
            host.start()
            sender.start()
        return proc

    def _make_listener(self, proc: MonitoredProcess, inner):
        def listener(local_time: float, output: str) -> None:
            if inner is not None:
                inner(local_time, output)
            if self._processes.get(proc.name) is not proc:
                # A removed/replaced incarnation's detector may still
                # fire timers; its transitions must not be attributed to
                # the current incarnation.
                return
            event = MonitorEvent(
                time=self._sim.now,
                process=proc.name,
                output=output,
                incarnation=proc.incarnation,
            )
            proc.events.append(event)
            for callback in self._listeners:
                callback(event)

        return listener

    def add_process_with_contract(
        self,
        name: str,
        contract,
        delay: DelayDistribution,
        loss_probability: float = 0.0,
        sender_clock: Optional[Clock] = None,
        monitor_clock: Optional[Clock] = None,
    ) -> MonitoredProcess:
        """Register a process by *QoS contract* rather than by detector.

        The Section 4 configurator translates the contract plus the
        link's known behaviour into an NFD-S and the matching heartbeat
        rate (the two are inseparable).  Raises
        :class:`~repro.errors.QoSUnachievableError` when the contract is
        impossible on this link — for *any* failure detector.
        """
        from repro.service.contracts import detector_for_contract

        configured = detector_for_contract(contract, loss_probability, delay)
        return self.add_process(
            name,
            configured.detector,
            eta=configured.eta,
            delay=delay,
            loss_probability=loss_probability,
            sender_clock=sender_clock,
            monitor_clock=monitor_clock,
        )

    def restart_process(
        self,
        name: str,
        detector: HeartbeatFailureDetector,
        eta: float,
        delay: DelayDistribution,
        loss_probability: float = 0.0,
    ) -> MonitoredProcess:
        """Re-admit a (crashed) process under a new incarnation.

        Footnote 2 of the paper: crashes are permanent — "a process that
        recovers from a crash assumes a new identity."  The service
        models that by replacing the old pipeline with a fresh one whose
        incarnation counter is bumped; higher layers see a leave (if the
        old incarnation was still trusted) followed by a join.
        """
        old = self.process(name)
        incarnation = old.incarnation + 1
        self.remove_process(name)
        return self.add_process(
            name,
            detector,
            eta=eta,
            delay=delay,
            loss_probability=loss_probability,
            incarnation=incarnation,
        )

    def remove_process(self, name: str) -> None:
        """Stop tracking a process.  **Idempotent**: removing a process
        that is not (or no longer) monitored is a no-op, so listeners
        reacting to the same transition cannot double-remove under
        churn.

        A final synthetic S event is published so higher layers (e.g.
        group membership) see the departure.  The incarnation's output
        trace is closed *and retained* (see :meth:`finish`) — mistakes
        made by departed incarnations stay in the QoS accounting — and
        the host's engine row is retired (or, on an object host, its
        pending timer chain cancelled), so a removed sender can
        never fire a final post-removal transition and churn-heavy runs
        do not accumulate inert simulator events.
        """
        proc = self._processes.get(name)
        if proc is None:
            return
        proc.sender.stop()  # no further heartbeats from this incarnation
        event = MonitorEvent(
            time=self._sim.now,
            process=name,
            output="S",
            administrative=True,
            incarnation=proc.incarnation,
        )
        proc.events.append(event)
        for callback in self._listeners:
            callback(event)
        self._closed_traces[(name, proc.incarnation)] = proc.host.finish()
        self._closed_crash_times[(name, proc.incarnation)] = proc.crash_time
        proc.host.stop()  # cancel the detector's timer chain
        del self._processes[name]

    # ------------------------------------------------------------------ #
    # Operation
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start all registered pipelines."""
        if self._started:
            raise SimulationError("service already started")
        self._started = True
        for proc in self._processes.values():
            proc.host.start()
            proc.sender.start()

    def subscribe(self, listener: Listener) -> None:
        """Register a callback for every detector transition."""
        self._listeners.append(listener)

    def crash(self, name: str, at_time: Optional[float] = None) -> None:
        """Crash a monitored process now (or at a future real time).

        The crash *time* — not a boolean — is recorded on the process:
        a suspicion raised before a scheduled crash takes effect is
        still a detector mistake, and the membership layer counts it as
        spurious by comparing the event time against ``crash_time``.
        """
        proc = self.process(name)
        when = self._sim.now if at_time is None else float(at_time)
        proc.sender.crash_at(when)
        proc.crash_time = min(proc.crash_time, when)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def output(self, name: str) -> str:
        """Current detector output for one process."""
        return self.process(name).output

    def trusted_set(self) -> frozenset:
        """Names of all currently trusted processes."""
        return frozenset(
            name for name, p in self._processes.items() if p.trusted
        )

    def suspected_set(self) -> frozenset:
        """Names of all currently suspected processes."""
        return frozenset(
            name for name, p in self._processes.items() if not p.trusted
        )

    @property
    def closed_traces(self) -> Dict[Tuple[str, int], OutputTrace]:
        """Traces of incarnations already removed/restarted, keyed by
        ``(name, incarnation)``."""
        return dict(self._closed_traces)

    def finish(self) -> Dict[Tuple[str, int], OutputTrace]:
        """Close and return the output traces of *every* incarnation.

        Keys are ``(name, incarnation)``: live pipelines are closed at
        the current time, and incarnations departed via
        :meth:`remove_process`/:meth:`restart_process` are included with
        the trace closed at their departure — so mistakes made by old
        incarnations do not vanish from the QoS accounting.
        """
        out = dict(self._closed_traces)
        for name, proc in self._processes.items():
            out[(name, proc.incarnation)] = proc.host.finish()
        return out

    def crash_times(self) -> Dict[Tuple[str, int], float]:
        """Real crash instants for every incarnation ever monitored,
        keyed like :meth:`finish` (``inf`` = never crashed)."""
        out = dict(self._closed_crash_times)
        for name, proc in self._processes.items():
            out[(name, proc.incarnation)] = proc.crash_time
        return out

    def recovery_traces(self):
        """Stitch every incarnation into per-identity recovery traces.

        Returns ``{name: RecoveryTrace}`` combining the closed traces of
        departed incarnations with the live ones (closed at the current
        time, like :meth:`finish`) and the real crash instants recorded
        by :meth:`crash`.  This is the input to the crash-recovery QoS
        estimators in :mod:`repro.metrics.recovery` — suspicion while an
        identity was genuinely down is not charged as a mistake.

        Like :meth:`finish`, this is a final snapshot: live traces are
        closed at ``sim.now``.
        """
        from repro.metrics.recovery import stitch_recovery_traces

        return stitch_recovery_traces(self.finish(), self.crash_times())
