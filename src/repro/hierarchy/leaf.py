"""Leaf tier: a monitor service watching one shard of senders.

A :class:`LeafMonitor` wraps a :class:`~repro.service.MonitorService`
(NFD-S/U/E senders live on the vectorized SoA engine, which is what
lets a leaf carry 10^4+ senders) and maintains the shard-status book the digest
plane publishes: every detector transition, admission, restart and
removal bumps the affected sender's status version, and
:meth:`make_digest` snapshots the book under a fresh digest version.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.base import HeartbeatFailureDetector
from repro.errors import InvalidParameterError
from repro.hierarchy.digest import SenderStatus, ShardDigest
from repro.net.clocks import Clock
from repro.net.delays import DelayDistribution
from repro.service.events import MonitorEvent
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator

__all__ = ["LeafMonitor"]


class LeafMonitor:
    """One shard's monitor plus the status book it publishes upward."""

    def __init__(
        self,
        leaf_id: str,
        sim: Simulator,
        seed: int = 0,
    ) -> None:
        self.leaf_id = leaf_id
        self.service = MonitorService(sim, seed=seed)
        self.service.subscribe(self._on_event)
        self._sim = sim
        self._statuses: Dict[str, SenderStatus] = {}
        self._digest_version = 0
        self.digests_published = 0
        #: heartbeat messages offered by incarnations already removed
        #: (their links leave the service registry with them).
        self._retired_heartbeats = 0

    # ------------------------------------------------------------------ #
    # Shard membership
    # ------------------------------------------------------------------ #

    def add_sender(
        self,
        name: str,
        detector: HeartbeatFailureDetector,
        eta: float,
        delay: DelayDistribution,
        loss_probability: float = 0.0,
        sender_clock: Optional[Clock] = None,
        monitor_clock: Optional[Clock] = None,
        incarnation: int = 0,
    ) -> None:
        self.service.add_process(
            name,
            detector,
            eta=eta,
            delay=delay,
            loss_probability=loss_probability,
            sender_clock=sender_clock,
            monitor_clock=monitor_clock,
            incarnation=incarnation,
        )
        # Detectors initialize to S (suspect until the first fresh
        # heartbeat), so the published status starts untrusted.
        self._statuses[name] = SenderStatus(
            trusted=False,
            incarnation=incarnation,
            version=1,
            since=self._sim.now,
        )

    def crash_sender(self, name: str, at_time: Optional[float] = None) -> None:
        self.service.crash(name, at_time=at_time)

    def restart_sender(
        self,
        name: str,
        detector_factory: Callable[[], HeartbeatFailureDetector],
        eta: float,
        delay: DelayDistribution,
        loss_probability: float = 0.0,
    ) -> None:
        """Re-admit a crashed sender under a bumped incarnation."""
        old = self.service.process(name)
        self._retired_heartbeats += old.link.stats.offered
        proc = self.service.restart_process(
            name,
            detector_factory(),
            eta=eta,
            delay=delay,
            loss_probability=loss_probability,
        )
        prev = self._statuses[name]
        self._statuses[name] = SenderStatus(
            trusted=False,
            incarnation=proc.incarnation,
            version=prev.version + 1,
            since=self._sim.now,
        )

    def remove_sender(self, name: str) -> None:
        """Drop a sender from the shard, publishing a tombstone."""
        if name not in self._statuses:
            raise InvalidParameterError(
                f"sender {name!r} is not in shard {self.leaf_id!r}"
            )
        proc = self.service.process(name)
        self._retired_heartbeats += proc.link.stats.offered
        self.service.remove_process(name)
        prev = self._statuses[name]
        self._statuses[name] = SenderStatus(
            trusted=False,
            incarnation=prev.incarnation,
            version=prev.version + 1,
            since=self._sim.now,
            present=False,
        )

    @property
    def sender_names(self) -> tuple:
        return tuple(sorted(self._statuses))

    # ------------------------------------------------------------------ #
    # Event -> status book
    # ------------------------------------------------------------------ #

    def _on_event(self, event: MonitorEvent) -> None:
        # Administrative S events (remove/restart) are handled by the
        # membership methods above, which also know the tombstone vs
        # new-incarnation distinction; counting them here would publish
        # a spurious suspicion for a sender that merely departed.
        if event.administrative:
            return
        prev = self._statuses.get(event.process)
        if prev is None or not prev.present:
            return
        trusted = event.output == "T"
        if trusted == prev.trusted:
            return
        proc = self.service.process(event.process)
        self._statuses[event.process] = SenderStatus(
            trusted=trusted,
            incarnation=proc.incarnation,
            version=prev.version + 1,
            since=event.time,
        )

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def make_digest(self) -> ShardDigest:
        """Snapshot the status book under a fresh digest version."""
        self._digest_version += 1
        self.digests_published += 1
        return ShardDigest(
            origin=self.leaf_id,
            version=self._digest_version,
            published_at=self._sim.now,
            statuses=dict(self._statuses),
        )

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    @property
    def heartbeat_messages(self) -> int:
        """Heartbeats offered to this leaf across all incarnations."""
        live = sum(
            self.service.process(n).link.stats.offered
            for n in self.service.process_names
        )
        return self._retired_heartbeats + live
