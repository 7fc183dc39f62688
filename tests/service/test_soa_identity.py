"""Shipped vs reference: MonitorService on the SoA engine vs object hosts.

The SoA engine's hard correctness bar is **bit-identical detector
verdicts** with the per-sender object reference hosts — same transition
times, same order, same QoS accounting — under everything the service
can throw at it: lossy links, churn (joins, removals, restarts,
scheduled crashes), skewed and drifting monitor clocks, scripted fault
scenarios, and senders on distinct periods (one cohort each).  Every
test here runs the identical seeded workload on the reference hosts
(``monitor_path("object")``) and on the shipped path at three
small-route thresholds — 0 (every ingest and cohort tick vectorized),
the default, and one no population reaches (all scalar) — and compares
the full observable record.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
import repro.service.soa as soa_mod
from repro.faults.scenario import (
    ClockJump,
    DelayRegime,
    Duplication,
    FaultScenario,
    Partition,
    Reordering,
    Stall,
)
from repro.net.clocks import DriftingClock, SkewedClock
from repro.net.delays import ConstantDelay, ExponentialDelay
from repro.service.monitor_service import MonitorService
from repro.sim.engine import Simulator
from repro.telemetry import ServiceTelemetry

ETA = 1.0


def nfds():
    return NFDS(eta=ETA, delta=0.4)


def nfde():
    return NFDE(eta=ETA, alpha=0.25, window=6)


#: small-route thresholds the shipped path is run at
THRESHOLDS = (0, soa_mod._SCALAR_MAX, 10**9)


def run_dual(monitor_path, drive, *, seed=11, telemetry=False):
    """Run ``drive(sim, svc)`` on the reference hosts and on the shipped
    path at every threshold; return the reference record and the list
    of shipped records.

    The record is everything an application can observe: the published
    event stream, each incarnation's closed trace, and (optionally) the
    online QoS estimates.
    """
    with monitor_path("object"):
        ref = _record(drive, seed, telemetry, on_engine=False)
    shipped = []
    for threshold in THRESHOLDS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(soa_mod, "_SCALAR_MAX", threshold)
            shipped.append(_record(drive, seed, telemetry, on_engine=True))
    return ref, shipped


def _record(drive, seed, telemetry, on_engine):
    sim = Simulator()
    svc = MonitorService(sim, seed=seed)
    tel = ServiceTelemetry(svc) if telemetry else None
    events = []
    svc.subscribe(
        lambda e: events.append(
            (e.time, e.process, e.output, e.administrative)
        )
    )
    drive(sim, svc)
    assert (svc.soa_engine is not None) == on_engine
    traces = {
        key: (
            trace.start_time,
            trace.end_time,
            tuple((t.time, t.kind.name) for t in trace.transitions),
        )
        for key, trace in svc.finish().items()
    }
    qos = None
    if tel is not None:
        qos = {
            key: tuple(
                getattr(est, f)
                for f in ("e_tmr", "e_tm", "query_accuracy", "e_tfg")
            )
            for key, est in tel.finish().items()
        }
    return tuple(events), traces, qos


def assert_identical(obj, shipped, min_events=1):
    assert len(shipped) == len(THRESHOLDS)
    for threshold, soa in zip(THRESHOLDS, shipped):
        assert obj[0] == soa[0], f"event streams diverged at {threshold}"
        assert obj[1] == soa[1], f"incarnation traces diverged at {threshold}"
        if obj[2] is not None:
            assert set(obj[2]) == set(soa[2])
            for key, want in obj[2].items():
                got = soa[2][key]
                for w, g in zip(want, got):
                    if isinstance(w, float) and math.isnan(w):
                        assert math.isnan(g), key
                    else:
                        assert g == w, key  # bit-identical, not approx
    assert len(obj[0]) >= min_events, "workload produced no churn"


def test_engine_argument_is_gone():
    # The detector picks the host; there is no backend option left.
    with pytest.raises(TypeError):
        MonitorService(Simulator(), engine="soa")
    assert not hasattr(MonitorService(Simulator()), "engine")


def test_steady_lossy_population_identical(monitor_path):
    def drive(sim, svc):
        for i in range(12):
            svc.add_process(
                f"p{i}",
                nfds() if i % 2 else nfde(),
                eta=ETA,
                delay=ExponentialDelay(0.3),
                loss_probability=0.2,
            )
        svc.start()
        sim.run_until(150.0)

    obj, soa = run_dual(monitor_path, drive, telemetry=True)
    assert_identical(obj, soa, min_events=50)


def test_random_churn_identical(monitor_path):
    """Joins, removals, restarts and scheduled crashes, with detectors
    joining mid-run (late first_seq) — the full churn surface."""

    def drive(sim, svc):
        rng = np.random.default_rng(20260808)
        svc.start()
        live, crashed, ever = set(), set(), 0

        def add(name, incarnation=0):
            svc.add_process(
                name,
                nfde(),
                eta=ETA,
                delay=ExponentialDelay(0.25),
                loss_probability=0.15,
                incarnation=incarnation,
            )

        for _ in range(45):
            action = rng.choice(
                ["join", "crash", "restart", "remove", "wait"]
            )
            if action == "join" or not live:
                ever += 1
                add(f"c{ever}")
                live.add(f"c{ever}")
            elif action == "crash":
                victim = sorted(live)[int(rng.integers(len(live)))]
                # Half the crashes are scheduled in the future: the
                # timer wheel must still fire the final suspicion for a
                # sender that dies *later*.
                at = (
                    None
                    if rng.random() < 0.5
                    else sim.now + float(rng.uniform(0.5, 3.0))
                )
                svc.crash(victim, at_time=at)
                live.discard(victim)
                crashed.add(victim)
            elif action == "restart" and crashed:
                name = sorted(crashed)[int(rng.integers(len(crashed)))]
                crashed.discard(name)
                svc.restart_process(
                    name,
                    nfde(),
                    eta=ETA,
                    delay=ExponentialDelay(0.25),
                    loss_probability=0.15,
                )
                live.add(name)
            elif action == "remove":
                victim = sorted(live)[int(rng.integers(len(live)))]
                svc.remove_process(victim)
                live.discard(victim)
            sim.run_until(sim.now + float(rng.uniform(1.0, 6.0)))
        sim.run_until(sim.now + 10.0)

    obj, soa = run_dual(monitor_path, drive, telemetry=True)
    assert_identical(obj, soa, min_events=60)


def test_remove_process_idempotent_on_both_backends(monitor_path):
    for kind in ("object", "soa"):
        with monitor_path(kind):
            sim = Simulator()
            svc = MonitorService(sim, seed=3)
            svc.add_process(
                "p", nfds(), eta=ETA, delay=ConstantDelay(0.05)
            )
            svc.start()
            sim.run_until(10.0)
            svc.remove_process("p")
            svc.remove_process("p")  # listener double-fire: a no-op
            assert set(svc.finish()) == {("p", 0)}


def test_skewed_and_drifting_monitor_clocks_identical(monitor_path):
    def drive(sim, svc):
        svc.add_process(
            "sk",
            nfds(),
            eta=ETA,
            delay=ExponentialDelay(0.3),
            loss_probability=0.2,
            monitor_clock=SkewedClock(0.37),
        )
        svc.add_process(
            "dr",
            nfde(),
            eta=ETA,
            delay=ExponentialDelay(0.3),
            loss_probability=0.2,
            monitor_clock=DriftingClock(skew=0.1, drift=1e-4),
        )
        svc.start()
        sim.run_until(120.0)

    obj, soa = run_dual(monitor_path, drive)
    assert_identical(obj, soa, min_events=20)


def test_distinct_eta_population_identical(monitor_path):
    """Every sender on its own period — the shape of a fleet whose
    senders run spread periods: each NFD-S sender is a cohort of one,
    so every cohort tick and most ingests are small.  Crashes and
    restarts (with a fresh period) keep rows retiring and joining."""
    etas = 0.5 + np.random.default_rng(7).random(16)

    def detector(i, eta):
        if i % 3 == 0:
            return NFDE(eta=eta, alpha=0.3 * eta, window=6)
        return NFDS(eta=eta, delta=0.4 * eta)

    def drive(sim, svc):
        for i, eta in enumerate(etas):
            svc.add_process(
                f"q{i}",
                detector(i, eta),
                eta=eta,
                delay=ExponentialDelay(0.15),
                loss_probability=0.15,
            )
        svc.start()
        sim.run_until(30.0)
        for i in (1, 4, 9):
            svc.crash(f"q{i}")
        sim.run_until(45.0)
        for i in (1, 4):
            eta = 1.2 * etas[i]
            svc.restart_process(
                f"q{i}",
                detector(i, eta),
                eta=eta,
                delay=ExponentialDelay(0.15),
                loss_probability=0.15,
            )
        sim.run_until(90.0)

    obj, soa = run_dual(monitor_path, drive, telemetry=True)
    assert_identical(obj, soa, min_events=100)


@pytest.mark.slow
def test_fault_scenarios_identical(monitor_path):
    """Scripted partitions, delay regimes, duplication, reordering,
    monitor clock jumps and sender stalls — the fault layer drives the
    same violations into both backends."""
    scenario = FaultScenario(
        [
            Partition(start=20.0, duration=4.0),
            DelayRegime(time=40.0, delay=ExponentialDelay(0.6)),
            Duplication(
                start=55.0, duration=10.0, probability=0.5, lag=0.3,
                jitter=0.2,
            ),
            Reordering(
                start=70.0, duration=10.0, probability=0.5,
                extra_delay=1.7,
            ),
            ClockJump(time=85.0, offset=0.8, target="monitor"),
            Stall(start=95.0, duration=2.5),
        ],
        name="gauntlet",
    )

    def drive(sim, svc):
        svc.add_process(
            "f1",
            nfds(),
            eta=ETA,
            delay=ExponentialDelay(0.2),
            loss_probability=0.1,
            scenario=scenario,
        )
        svc.add_process(
            "f2",
            nfde(),
            eta=ETA,
            delay=ExponentialDelay(0.2),
            loss_probability=0.1,
            scenario=scenario,
        )
        svc.start()
        sim.run_until(120.0)

    obj, soa = run_dual(monitor_path, drive)
    assert_identical(obj, soa, min_events=30)


def test_soa_engine_is_shared_and_sized_to_population():
    sim = Simulator()
    svc = MonitorService(sim, seed=5)
    for i in range(30):
        svc.add_process(
            f"p{i}", nfds(), eta=ETA, delay=ConstantDelay(0.05)
        )
    svc.start()
    sim.run_until(5.0)
    eng = svc.soa_engine
    assert eng is not None
    assert eng.n_active == 30
    # One shared wheel: the cohort keeps a single armed deadline for
    # the whole perfect-clock NFD-S population.
    assert eng.pending_deadlines <= 2
    svc.remove_process("p7")
    assert eng.n_active == 29


def test_coinciding_nfdu_expiries_fire_in_row_order(monitor_path):
    """Two NFD-U senders whose expiries land on one instant.  The
    shipped path fires them in ``(time, row)`` order: registration
    order, p0 before p1.  The reference hosts fire them in arm order —
    p1's last heartbeat arrives first, so p1 is suspected first there.
    The multiset of events is the same; only the order differs."""
    from repro.core.nfd_u import NFDU

    def drive(sim, svc):
        for name, delay in (("p0", 0.3), ("p1", 0.1)):
            svc.add_process(
                name,
                NFDU(eta=1.0, alpha=0.5, expected_arrival=lambda s: s + 0.2),
                eta=1.0,
                delay=ConstantDelay(delay),
            )
        svc.start()
        sim.run_until(5.5)  # seq 5 sent at 5.0, received 5.3 / 5.1
        svc.crash("p0")
        svc.crash("p1")
        sim.run_until(10.0)

    def expiries(kind):
        with monitor_path(kind):
            sim = Simulator()
            svc = MonitorService(sim, seed=1)
            events = []
            svc.subscribe(events.append)
            drive(sim, svc)
        return [(e.time, e.process) for e in events if e.output == "S"]

    # τ_6 = EA_6 + α = 6.2 + 0.5 for both senders.
    assert expiries("soa") == [(6.7, "p0"), (6.7, "p1")]
    assert expiries("object") == [(6.7, "p1"), (6.7, "p0")]
