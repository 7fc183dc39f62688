"""Unit tests for the vectorized monitor core (repro.service.soa).

The engine's contract is *bit-identity* with the object detectors: every
test here either pins an engine-only behaviour (canonical tie ordering,
idempotent removal, batch/scalar equivalence) or replays the same
schedule through a per-sender :class:`DetectorHost` and demands the
exact same transition stream, float for float.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.errors import InvalidParameterError, SimulationError
import repro.service.soa as soa_mod
from repro.net.clocks import DriftingClock, SkewedClock
from repro.service.soa import (
    ManualScheduler,
    SimWheelScheduler,
    VectorMonitorEngine,
    supports_detector,
)
from repro.sim.engine import Simulator
from repro.sim.monitor import DetectorHost

ETA, DELTA = 1.0, 0.5


def engine(record=True, start=0.0):
    return VectorMonitorEngine(
        ManualScheduler(start), record_transitions=record
    )


def object_stream(detector_factories, schedule, horizon, clocks=None):
    """Replay ``schedule`` = [(time, index, seq), ...] through object
    DetectorHosts; returns [(real_time, index, output), ...]."""
    sim = Simulator()
    log = []
    hosts = []
    for i, factory in enumerate(detector_factories):
        det = factory()
        host = DetectorHost(
            sim, det, clock=clocks[i] if clocks else None
        )
        inner = det._listener

        def listener(local, out, i=i, inner=inner):
            if inner is not None:
                inner(local, out)
            log.append((sim.now, i, out))

        det._listener = listener
        hosts.append(host)
    for host in hosts:
        host.start()
    for t, i, seq in schedule:
        sim.schedule_at(t, lambda h=hosts[i], s=seq: h.deliver(s, 0.0))
    sim.run_until(horizon)
    return log


def engine_stream(detector_factories, schedule, horizon, clocks=None):
    """The same replay through the SoA engine's scalar deliver path."""
    eng = engine()
    for i, factory in enumerate(detector_factories):
        row = eng.register(
            factory(), clock=clocks[i] if clocks else None
        )
        assert row == i
        eng.start_row(row)
    for t, i, seq in schedule:
        eng.deliver(i, seq, at_real=t)
    eng.advance(horizon)
    return eng.transition_log


class TestRegistration:
    def test_unsupported_detector_rejected(self):
        with pytest.raises(InvalidParameterError):
            engine().register(object())
        assert not supports_detector(object())
        assert supports_detector(NFDS(eta=1.0, delta=0.5))
        assert supports_detector(
            NFDU(eta=1.0, alpha=0.5, expected_arrival=lambda i: float(i))
        )
        assert supports_detector(NFDE(eta=1.0, alpha=0.5, window=4))

    def test_bound_detector_rejected(self):
        sim = Simulator()
        det = NFDS(eta=ETA, delta=DELTA)
        DetectorHost(sim, det)  # binds
        with pytest.raises(SimulationError):
            engine().register(det)

    def test_row_ids_never_reused(self):
        eng = engine()
        a = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.remove(a)
        b = eng.register(NFDS(eta=ETA, delta=DELTA))
        assert b == a + 1
        assert eng.n_rows == 2
        assert eng.n_active == 1

    def test_capacity_growth_preserves_state(self):
        eng = engine()
        rows = [
            eng.register(NFDS(eta=ETA, delta=DELTA), incarnation=i)
            for i in range(200)  # crosses the initial 64-capacity twice
        ]
        for row in rows:
            eng.start_row(row)
            eng.deliver(row, 1, at_real=0.01)
        assert eng.n_active == 200
        assert all(eng.incarnation(r) == r for r in rows)
        assert all(eng.output_char(r) == "T" for r in rows)


class TestSingleRowSemantics:
    """One row must behave exactly like one object detector."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: NFDS(eta=ETA, delta=DELTA),
            lambda: NFDU(
                eta=ETA, alpha=DELTA, expected_arrival=lambda i: i * ETA
            ),
            lambda: NFDE(eta=ETA, alpha=0.3, window=4),
        ],
        ids=["nfds", "nfdu", "nfde"],
    )
    def test_random_schedule_matches_object(self, factory):
        rng = np.random.default_rng(7)
        schedule = []
        for seq in range(1, 60):
            if rng.random() < 0.15:
                continue  # lost
            schedule.append((seq * ETA + rng.exponential(0.2), 0, seq))
        schedule.sort()
        horizon = 62.0
        obj = object_stream([factory], schedule, horizon)
        soa = engine_stream([factory], schedule, horizon)
        assert obj == soa
        assert len(obj) > 4  # the lossy link produced real churn

    def test_reordered_and_duplicated_deliveries(self):
        factory = lambda: NFDE(eta=ETA, alpha=0.2, window=3)
        # Stale, duplicate and out-of-order sequence numbers exercise
        # the ℓ-cutoff (stale seq ≤ ℓ must be ignored *entirely*).
        schedule = [
            (1.1, 0, 1),
            (2.05, 0, 2),
            (2.50, 0, 1),  # stale duplicate
            (4.02, 0, 4),  # 3 overtaken
            (4.60, 0, 3),  # late: below ℓ, ignored
            (5.30, 0, 5),
            (5.31, 0, 5),  # duplicate
        ]
        horizon = 9.0
        assert object_stream([factory], schedule, horizon) == engine_stream(
            [factory], schedule, horizon
        )


class TestTieOrdering:
    def test_simultaneous_suspicions_ordered_by_row_id(self):
        """Rows sharing a freshness grid suspect at the same instant;
        the canonical order is (time, row id) — regardless of whether
        the row sits in the vector cohort or on an individual timer."""
        factories = [lambda: NFDS(eta=ETA, delta=DELTA) for _ in range(5)]
        # Row 2 gets a zero-skew clock: real == local, but it is forced
        # onto the individual-entry path rather than the cohort.
        clocks = [None, None, SkewedClock(0.0), None, None]
        schedule = [(1.0 + 0.001 * i, i, 1) for i in range(5)]
        soa = engine_stream(factories, schedule, 4.0, clocks)
        suspicions = [(t, row) for t, row, out in soa if out == "S"]
        assert len(suspicions) == 5
        assert all(t == suspicions[0][0] for t, _ in suspicions)
        assert [row for _, row in suspicions] == [0, 1, 2, 3, 4]
        # And the object path agrees on the whole stream.
        assert soa == object_stream(factories, schedule, 4.0, clocks)

    def test_deterministic_across_registration_interleavings(self):
        """The same population in a different registration order yields
        the same (time, sender) verdict sets."""

        def run(order):
            eng = engine()
            label_of = {}
            for label in order:
                row = eng.register(NFDS(eta=ETA, delta=DELTA))
                label_of[row] = label
                eng.start_row(row)
                eng.deliver(row, 1, at_real=1.0 + 0.01 * label)
            eng.advance(5.0)
            return sorted(
                (t, label_of[row], out)
                for t, row, out in eng.transition_log
            )

        assert run([0, 1, 2, 3]) == run([3, 1, 0, 2])


class TestRemoval:
    def test_remove_is_idempotent(self):
        eng = engine()
        row = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.start_row(row)
        eng.remove(row)
        eng.remove(row)  # no error
        assert not eng.is_active(row)

    def test_no_transition_after_removal_even_for_due_deadline(self):
        """The churn race: a freshness deadline already in the wheel
        must not fire a final S for a removed sender."""
        eng = engine()
        row = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.start_row(row)
        eng.deliver(row, 1, at_real=1.0)  # trusts; next deadline 2.5
        eng.remove(row)
        eng.advance(10.0)
        assert [e for e in eng.transition_log if e[1] == row] == [
            (1.0, row, "T")
        ]

    def test_delivery_to_removed_row_is_ignored(self):
        eng = engine()
        row = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.start_row(row)
        eng.remove(row)
        eng.deliver(row, 1, at_real=1.0)
        assert eng.delivered_count(row) == 0
        assert eng.transition_log == []

    def test_listener_removing_sibling_suppresses_its_emission(self):
        """Reentrancy: a sink that removes another row during a shared
        deadline slice must suppress the sibling's pending emission."""
        events = []
        eng = VectorMonitorEngine(ManualScheduler(0.0))
        rows = {}

        def sink_a(real, local, out):
            events.append(("a", real, out))
            if out == "S":
                eng.remove(rows["b"])

        def sink_b(real, local, out):
            events.append(("b", real, out))

        rows["a"] = eng.register(NFDS(eta=ETA, delta=DELTA), on_transition=sink_a)
        rows["b"] = eng.register(NFDS(eta=ETA, delta=DELTA), on_transition=sink_b)
        for row in rows.values():
            eng.start_row(row)
            eng.deliver(row, 1, at_real=1.0)
        eng.advance(5.0)  # both due to suspect at 2.5; a's sink kills b
        assert ("a", 2.5, "S") in events
        assert ("b", 2.5, "S") not in events
        assert not eng.is_active(rows["b"])

    def test_remove_releases_row_references(self):
        """A retired row must not pin its host: the sink (a bound
        method of the host), the expected-arrival function and the
        clock are dropped on removal."""

        class Host:
            def sink(self, real, local, out):
                pass

        host, clock = Host(), SkewedClock(0.1)

        def expected_arrival(seq):
            return seq * ETA

        eng = engine()
        row = eng.register(
            NFDU(eta=ETA, alpha=0.4, expected_arrival=expected_arrival),
            clock=clock,
            on_transition=host.sink,
        )
        eng.start_row(row)
        eng.deliver(row, 1, at_real=1.0)
        refs = [weakref.ref(x) for x in (host, clock, expected_arrival)]
        del host, clock, expected_arrival
        gc.collect()
        assert all(r() is not None for r in refs)  # held while active
        eng.remove(row)
        gc.collect()
        assert all(r() is None for r in refs)

    def test_cohort_compacts_after_mass_removal(self):
        eng = engine(record=False)
        rows = [eng.register(NFDS(eta=ETA, delta=DELTA)) for _ in range(64)]
        for row in rows:
            eng.start_row(row)
            eng.deliver(row, 1, at_real=1.0)
        for row in rows[:60]:
            eng.remove(row)
        eng.advance(3.0)  # the 2.5 tick triggers lazy compaction
        eng.advance(100.0)
        assert eng.n_active == 4
        # A fully-populated wheel still only holds O(cohorts + skewed
        # rows) entries, not O(removed rows).
        assert eng.pending_deadlines <= 4


class TestBatchIngest:
    def test_batch_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(13)
        n, slots = 40, 50

        def factories():
            return [
                (lambda: NFDS(eta=ETA, delta=DELTA))
                if i % 3
                else (lambda: NFDE(eta=ETA, alpha=0.3, window=4))
                for i in range(n)
            ]

        times, rows, seqs = [], [], []
        for s in range(1, slots + 1):
            keep = rng.random(n) >= 0.1
            t = s * ETA + rng.exponential(0.15, n)
            for i in np.nonzero(keep)[0]:
                times.append(t[i])
                rows.append(i)
                seqs.append(s)
        order = np.argsort(times, kind="stable")
        times = np.asarray(times)[order]
        rows = np.asarray(rows)[order]
        seqs = np.asarray(seqs)[order]
        horizon = (slots + 2) * ETA

        scalar = engine()
        for f in factories():
            scalar.start_row(scalar.register(f()))
        for t, r, s in zip(times, rows, seqs):
            scalar.deliver(int(r), int(s), at_real=float(t))
        scalar.advance(horizon)

        batch = engine()
        for f in factories():
            batch.start_row(batch.register(f()))
        batch.ingest(times, rows, seqs)
        batch.advance(horizon)

        assert scalar.transition_log == batch.transition_log
        assert len(batch.transition_log) > n  # real churn happened

    def test_ingest_validates_lengths(self):
        eng = engine()
        eng.start_row(eng.register(NFDS(eta=ETA, delta=DELTA)))
        with pytest.raises(InvalidParameterError):
            eng.ingest(
                np.array([1.0, 2.0]),
                np.array([0]),
                np.array([1]),
            )


class TestRoutes:
    """The scalar and vectorized routes apply one set of rules: at any
    small-route threshold, ingests of any size give the reference
    verdict stream."""

    @staticmethod
    def population():
        etas = list(0.5 + np.random.default_rng(5).random(6))
        specs = [(ETA, lambda: NFDS(eta=ETA, delta=DELTA))] * 12
        specs += [
            (eta, lambda eta=eta: NFDS(eta=eta, delta=0.4 * eta))
            for eta in etas
        ]
        specs += [(ETA, lambda: NFDE(eta=ETA, alpha=0.3, window=4))] * 3
        # The EA offset keeps the NFD-U expiries off the NFD-S grid:
        # coinciding deadlines of different senders fire in arm order on
        # the reference, in row order on the engine.
        specs += [
            (
                ETA,
                lambda: NFDU(
                    eta=ETA, alpha=0.4, expected_arrival=lambda s: s + 0.13
                ),
            )
        ]
        return specs

    @pytest.mark.parametrize(
        "threshold", [0, 1, soa_mod._SCALAR_MAX, 10**9]
    )
    def test_any_threshold_matches_object(self, threshold, monkeypatch):
        monkeypatch.setattr(soa_mod, "_SCALAR_MAX", threshold)
        rng = np.random.default_rng(29)
        specs = self.population()
        slots = 40
        schedule = []
        for row, (eta, _) in enumerate(specs):
            for s in range(1, slots + 1):
                if rng.random() >= 0.15:
                    schedule.append((s * eta + rng.exponential(0.2), row, s))
        schedule.sort()
        horizon = slots * 1.6
        factories = [f for _, f in specs]
        want = object_stream(factories, schedule, horizon)

        eng = engine()
        for f in factories:
            eng.start_row(eng.register(f()))
        pos = 0
        while pos < len(schedule):  # chunks of 1..20 receipts
            chunk = schedule[pos : pos + int(rng.integers(1, 21))]
            pos += len(chunk)
            times, rows, seqs = zip(*chunk)
            eng.ingest(times, rows, seqs)
        eng.advance(horizon)
        assert eng.transition_log == want
        assert len(want) > 3 * len(specs)  # real churn happened


    @pytest.mark.parametrize("threshold", [0, soa_mod._SCALAR_MAX])
    def test_deadline_precedes_same_instant_receipt(
        self, threshold, monkeypatch
    ):
        """m_2 arriving exactly at τ_2 = 2.5: the deadline fires first
        (S, since only m_1 was seen), then the receipt trusts again."""
        monkeypatch.setattr(soa_mod, "_SCALAR_MAX", threshold)
        eng = engine()
        row = eng.register(NFDS(eta=ETA, delta=DELTA))
        eng.start_row(row)
        eng.ingest([1.0], [row], [1])
        eng.advance(2.0)  # τ_1 = 1.5 passes; τ_2 = 2.5 is next
        eng.ingest([2.5], [row], [2])
        eng.advance(3.0)
        assert eng.transition_log == [
            (1.0, row, "T"),
            (2.5, row, "S"),
            (2.5, row, "T"),
        ]


class TestSchedulers:
    def test_manual_scheduler_time_tracks_advance(self):
        eng = engine()
        assert eng.now == 0.0
        eng.advance(7.5)
        assert eng.now == 7.5

    def test_sim_wheel_scheduler_single_armed_wakeup(self):
        """N cohort members share one simulator event, not N chains."""
        sim = Simulator()
        eng = VectorMonitorEngine(
            SimWheelScheduler(sim), record_transitions=True
        )
        rows = [eng.register(NFDS(eta=ETA, delta=DELTA)) for _ in range(50)]
        for row in rows:
            eng.start_row(row)
            eng.deliver(row, 1, at_real=0.01)
        pending_with_fifty = sim.pending
        sim.run_until(10.0)
        suspicions = [e for e in eng.transition_log if e[2] == "S"]
        assert len(suspicions) == 50
        assert all(t == 2.5 for t, _, _ in suspicions)
        # The wheel arms one wakeup regardless of population size.
        assert pending_with_fifty <= 2

    def test_drifting_clock_row_matches_object(self):
        factories = [lambda: NFDS(eta=ETA, delta=DELTA)]
        clocks = [DriftingClock(skew=0.1, drift=1e-3)]
        schedule = [(s * ETA + 0.07, 0, s) for s in range(1, 20) if s % 5]
        obj = object_stream(factories, schedule, 25.0, clocks)
        soa = engine_stream(factories, schedule, 25.0, clocks)
        assert obj == soa
        assert any(out == "S" for _, _, out in obj)
