"""An n-process simulated election cluster.

Every process runs its *own* monitor — a
:class:`~repro.service.monitor_service.MonitorService` tracking the
other ``n - 1`` processes — plus an Omega elector on top.  All monitors
share one :class:`~repro.sim.engine.Simulator`, so the cluster's
interleavings are deterministic under a seed, while each monitor's links
draw from independent random streams (two monitors observing the same
sender see different losses and delays, as on a real network).

Crash/recovery drivers keep a :class:`~repro.election.metrics.GroundTruth`
in lockstep with the simulation:

* ``crash(name, t)`` stops ``name``'s heartbeats toward every monitor
  (the detectors find out the hard way, one detection time later);
* ``recover(name, t)`` re-admits ``name`` under a **new incarnation** at
  every up monitor (paper footnote 2: recovery = new identity) and
  cold-restarts ``name``'s *own* monitor — a rebooted process has no
  detector state, so its pipelines restart from scratch and its elector
  is :meth:`~repro.election.omega.OmegaCore.reset` (trusting nobody but
  itself until fresh heartbeats arrive; still-down peers are re-crashed
  immediately so the fresh pipelines never trust them).

The result bundles the electors' leader timelines, the ground truth and
the per-monitor recovery traces — everything
:func:`~repro.election.metrics.score_election` and the recovery-aware
QoS estimators need.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.election.metrics import (
    GroundTruth,
    cluster_agreement_time,
    score_election,
)
from repro.election.omega import ServiceElector
from repro.net.delays import DelayDistribution
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator

__all__ = ["ElectionCluster", "ClusterResult"]

#: factory signature: ``(monitor, subject) -> HeartbeatFailureDetector``
DetectorFactory = Callable[[str, str], object]


def _prune_scenario(scenario, now: float):
    """Drop fault events a restarted incarnation can no longer see.

    Scenarios script *absolute* times and refuse to install events in
    the past, so a pipeline rebuilt mid-run (recovery = new incarnation)
    keeps only the windows still open and the point events still ahead.
    Returns ``None`` when nothing survives.
    """
    from repro.faults.scenario import FaultScenario

    keep = []
    for event in scenario.events:
        duration = getattr(event, "duration", None)
        if duration is not None:
            if getattr(event, "start") + duration > now:
                keep.append(event)
        elif getattr(event, "start", getattr(event, "time", 0.0)) >= now:
            keep.append(event)
    if not keep:
        return None
    return FaultScenario(keep, name=scenario.name)


@dataclass
class ClusterResult:
    """Everything a finished cluster run exposes for scoring."""

    truth: GroundTruth
    electors: Dict[str, ServiceElector]
    services: Dict[str, MonitorService]
    end: float

    @property
    def timelines(self):
        """``{monitor: leader-event tuple}`` for every monitor."""
        return {m: e.events for m, e in self.electors.items()}

    @property
    def initial_leaders(self) -> Dict[str, Optional[str]]:
        """Leader before any event: an elector on a candidate process
        elects itself at birth (it trusts only itself)."""
        return {m: m for m in self.electors}

    def qos(self, observer: str, *, start: float = 0.0):
        """Consumer-level QoS as seen by one monitor, masked to the
        instants that monitor was itself up."""
        return score_election(
            self.electors[observer].events,
            self.truth,
            start=start,
            end=self.end,
            initial=observer,
            observer=observer,
        )

    def agreement_time(self, *, after: Optional[float] = None) -> float:
        """First instant (default: after the last real crash/recovery)
        from which all up monitors agree on one up leader through the
        end of the run."""
        if after is None:
            after = self.truth.last_event_time
        return cluster_agreement_time(
            self.timelines,
            self.truth,
            after=after,
            end=self.end,
            initial=self.initial_leaders,
        )

    def recovery_traces(self, observer: str):
        """Per-identity recovery traces of ``observer``'s detectors."""
        return self.services[observer].recovery_traces()


class ElectionCluster:
    """Build and drive an n-monitor election over one simulator.

    Args:
        names: the candidate processes; each runs a monitor + elector.
        detector_factory: ``(monitor, subject) -> detector`` — called
            once per pipeline *and* once per restarted incarnation (the
            fresh identity gets a fresh detector).
        eta: heartbeat period shared by all senders.
        delay: link delay distribution (stateless; samples are drawn
            from each link's own stream).
        loss_probability: i.i.d. message-loss probability per link.
        seed: base seed; monitors derive independent streams from it.
        registry: optional telemetry registry shared by all electors
            (labelled per monitor).
        scenario_factory: optional ``(monitor, subject) -> FaultScenario``
            applied to each *initial* pipeline (fault windows for the
            E17 fault table).  Restarted incarnations also consult it —
            scenarios script absolute times, so expired windows are
            simply inert.
        clock_factory: optional ``(monitor, subject) ->
            (sender_clock, monitor_clock)`` — per-pipeline clock skew /
            drift (fresh clocks per incarnation; the property suite
            fuzzes skew through this).
    """

    def __init__(
        self,
        names: Sequence[str],
        detector_factory: DetectorFactory,
        *,
        eta: float,
        delay: DelayDistribution,
        loss_probability: float = 0.0,
        seed: int = 0,
        registry=None,
        scenario_factory=None,
        clock_factory=None,
    ) -> None:
        names = tuple(names)
        if len(names) < 2:
            raise InvalidParameterError("an election needs >= 2 processes")
        if len(set(names)) != len(names):
            raise InvalidParameterError("duplicate process names")
        self._names = names
        self._factory = detector_factory
        self._eta = float(eta)
        self._delay = delay
        self._loss = float(loss_probability)
        self._scenarios = scenario_factory
        self._clocks = clock_factory
        self.sim = Simulator()
        self.truth = GroundTruth(names)
        self._down: set = set()
        self.services: Dict[str, MonitorService] = {}
        self.electors: Dict[str, ServiceElector] = {}
        for m in names:
            service = MonitorService(
                self.sim,
                seed=(int(seed) * 1000003 + zlib.crc32(m.encode("utf-8")))
                % (2**31),
            )
            for subject in names:
                if subject == m:
                    continue
                self._add_pipeline(service, m, subject, incarnation=0)
            self.services[m] = service
            self.electors[m] = ServiceElector(
                service, m, registry=registry, label=m
            )
        for service in self.services.values():
            service.start()

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    def _add_pipeline(
        self, service: MonitorService, monitor: str, subject: str, incarnation: int
    ) -> None:
        scenario = (
            self._scenarios(monitor, subject)
            if self._scenarios is not None
            else None
        )
        if scenario is not None and self.sim.now > 0.0:
            scenario = _prune_scenario(scenario, self.sim.now)
        sender_clock = monitor_clock = None
        if self._clocks is not None:
            sender_clock, monitor_clock = self._clocks(monitor, subject)
        service.add_process(
            subject,
            self._factory(monitor, subject),
            eta=self._eta,
            delay=self._delay,
            loss_probability=self._loss,
            sender_clock=sender_clock,
            monitor_clock=monitor_clock,
            incarnation=incarnation,
            scenario=scenario,
        )

    def _restart_pipeline(
        self, service: MonitorService, monitor: str, subject: str
    ) -> None:
        incarnation = service.process(subject).incarnation + 1
        service.remove_process(subject)
        self._add_pipeline(service, monitor, subject, incarnation=incarnation)

    # ------------------------------------------------------------------ #
    # Ground-truth drivers
    # ------------------------------------------------------------------ #

    def crash(self, name: str, time: float) -> None:
        """Schedule a real crash of ``name`` at ``time``."""
        self.truth.crash(name, time)
        self.sim.schedule_at(time, lambda: self._do_crash(name))

    def recover(self, name: str, time: float) -> None:
        """Schedule a recovery (new incarnation) of ``name`` at
        ``time``.  Must be paired with an earlier :meth:`crash`."""
        self.truth.recover(name, time)
        self.sim.schedule_at(time, lambda: self._do_recover(name))

    def _do_crash(self, name: str) -> None:
        self._down.add(name)
        for m, service in self.services.items():
            if m == name or m in self._down:
                continue
            # Stop name's heartbeats toward this monitor; the real crash
            # instant is recorded so a *pre-crash* suspicion still
            # counts as a mistake in the recovery-aware accounting.
            service.crash(name)

    def _do_recover(self, name: str) -> None:
        self._down.discard(name)
        now = self.sim.now
        # 1. Every up monitor re-admits `name` under a new incarnation.
        for m, service in self.services.items():
            if m == name or m in self._down:
                continue
            self._restart_pipeline(service, m, name)
        # 2. `name`'s own monitor cold-restarts: the rebooted process
        #    has no detector state — fresh incarnations of every
        #    pipeline, elector reset to self-trust only.
        service = self.services[name]
        self.electors[name].core.reset(now)
        for subject in self._names:
            if subject == name:
                continue
            self._restart_pipeline(service, name, subject)
            if subject in self._down:
                # The peer is still really down: kill the fresh sender
                # immediately so the new pipeline never trusts it.
                service.crash(subject)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def run_until(self, time: float) -> None:
        self.sim.run_until(time)

    def result(self) -> ClusterResult:
        """Snapshot the run for scoring (callable mid-run or at end)."""
        return ClusterResult(
            truth=self.truth,
            electors=dict(self.electors),
            services=dict(self.services),
            end=self.sim.now,
        )
