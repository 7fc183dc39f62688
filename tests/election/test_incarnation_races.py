"""Regression pins for (name, incarnation) stitching across
remove→restart races — on both the object reference hosts and the SoA
engine's generation-tagged rows.  The election layer must never act on
a stale incarnation's trust bit.
"""

from __future__ import annotations

import math

import pytest

from repro.core.nfd_s import NFDS
from repro.election import ServiceElector
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.delays import ConstantDelay
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator

ETA = 1.0
DELTA = 0.5
DELAY = ConstantDelay(0.05)


def make_service(seed=11):
    sim = Simulator()
    service = MonitorService(sim, seed=seed)
    service.add_process("x", NFDS(ETA, DELTA), eta=ETA, delay=DELAY)
    service.add_process("y", NFDS(ETA, DELTA), eta=ETA, delay=DELAY)
    return sim, service


@pytest.mark.usefixtures("each_path")
class TestRemoveRestartRace:
    def test_trace_stitching_across_race(self):
        """Crash, then restart *before* the old incarnation's suspicion
        deadline fires: the old pipeline still has a pending S timer at
        the restart instant — the classic stale-transition race."""
        sim, service = make_service()
        events = []
        service.subscribe(events.append)
        service.start()
        sim.run_until(10.0)
        service.crash("x")  # suspicion would fire at ~10.5 + eta
        sim.run_until(10.2)
        service.restart_process(
            "x", NFDS(ETA, DELTA), eta=ETA, delay=DELAY
        )
        restart_time = sim.now
        sim.run_until(25.0)

        # Closed books keyed by (name, incarnation): the old one ends
        # at the restart instant, the crash instant is preserved.
        closed = service.closed_traces
        assert ("x", 0) in closed
        assert closed[("x", 0)].end_time == restart_time
        assert service.crash_times()[("x", 0)] == 10.0
        assert service.process("x").incarnation == 1

        # No event from incarnation 0 may surface after its removal.
        stale = [
            e
            for e in events
            if e.process == "x"
            and e.incarnation == 0
            and e.time > restart_time
        ]
        assert stale == []

        # The recovery trace stitches both incarnations.
        rec = service.recovery_traces()["x"]
        assert [s.incarnation for s in rec.spans] == [0, 1]
        assert rec.spans[0].crash_time == 10.0
        assert rec.spans[1].crash_time == math.inf

    def test_elector_never_acts_on_stale_trust_bit(self):
        sim, service = make_service()
        elector = ServiceElector(service, "z")
        service.start()
        sim.run_until(10.0)
        assert "x" in elector.core.trusted

        service.crash("x")
        sim.run_until(10.2)
        # Restart while the old incarnation is crashed-but-undetected:
        # its trust bit is stale the moment the new incarnation exists.
        service.restart_process(
            "x", NFDS(ETA, DELTA), eta=ETA, delay=DELAY
        )
        restart_time = sim.now
        # The administrative S on removal untrusts x synchronously.
        assert "x" not in elector.core.trusted
        assert elector.leader == "y"

        # x stays untrusted until the *new* incarnation's first fresh
        # heartbeat flips its fresh detector S -> T.
        sim.run_until(25.0)
        retrust = [
            e
            for e in service.process("x").events
            if e.output == TRUST and e.incarnation == 1
        ]
        assert retrust, "new incarnation never earned trust"
        assert retrust[0].time > restart_time
        assert "x" in elector.core.trusted
        assert elector.leader == "x"

    def test_same_instant_remove_readd(self):
        """Remove and re-add at the same simulation instant: the closed
        key and the live pipeline must not collide."""
        sim, service = make_service()
        service.start()
        sim.run_until(8.0)
        service.remove_process("x")
        service.add_process(
            "x", NFDS(ETA, DELTA), eta=ETA, delay=DELAY, incarnation=7
        )
        sim.run_until(20.0)
        traces = service.finish()
        assert ("x", 0) in traces
        assert ("x", 7) in traces
        assert traces[("x", 0)].end_time == 8.0
        # Both incarnations observed disjoint windows.
        assert traces[("x", 7)].start_time >= 8.0

    def test_soa_generation_rows_do_not_leak(self):
        """After a churn burst, the live pipeline's verdicts come from
        the *current* generation only: the restarted detector starts at
        S and re-earns T, regardless of the retired row's final state."""
        sim, service = make_service()
        service.start()
        sim.run_until(6.0)
        for _ in range(3):  # repeated remove→restart churn
            service.restart_process(
                "x", NFDS(ETA, DELTA), eta=ETA, delay=DELAY
            )
        proc = service.process("x")
        assert proc.incarnation == 3
        # Fresh detector: suspects until its new incarnation's first
        # fresh heartbeat, then trusts.
        assert proc.output == SUSPECT
        sim.run_until(10.0)
        assert proc.output == TRUST
        keys = sorted(k for k in service.closed_traces if k[0] == "x")
        assert keys == [("x", 0), ("x", 1), ("x", 2)]
