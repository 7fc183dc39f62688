"""Telemetry hooks: simulator, fastsim kernels, parallel/crash-run executors.

Two invariants matter everywhere:

* recording must not change any simulation result (bit-identity with
  telemetry on vs off);
* with telemetry disabled, the instrumented paths must record nothing.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.net.delays import ExponentialDelay
from repro.sim.engine import Simulator
from repro.sim.fastsim import simulate_nfds_fast
from repro.sim.parallel import parallel_map, run_crash_runs_parallel
from repro.sim.runner import SimulationConfig

FAST_KWARGS = dict(
    eta=1.0,
    delta=1.0,
    loss_probability=0.05,
    delay=ExponentialDelay(0.1),
    seed=3,
    target_mistakes=10**9,
    max_heartbeats=4_000,
    chunk_size=1_000,
)


class TestSimulatorTelemetry:
    def test_counts_scheduled_and_fired(self):
        sim = Simulator()
        reg = telemetry.MetricsRegistry()
        sim.attach_telemetry(reg)
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert len(fired) == 3
        assert reg.counter("sim_events_scheduled_total").value == 3
        assert reg.counter("sim_events_fired_total").value == 3
        assert reg.gauge("sim_heap_depth").max >= 1

    def test_cancelled_events_not_fired(self):
        sim = Simulator()
        reg = telemetry.MetricsRegistry()
        sim.attach_telemetry(reg)
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        handle.cancel()
        sim.run_until(10.0)
        assert reg.counter("sim_events_scheduled_total").value == 2
        assert reg.counter("sim_events_fired_total").value == 1

    def test_detach_stops_recording(self):
        sim = Simulator()
        reg = telemetry.MetricsRegistry()
        sim.attach_telemetry(reg)
        sim.schedule_at(1.0, lambda: None)
        sim.detach_telemetry()
        sim.schedule_at(2.0, lambda: None)
        sim.run_until(10.0)
        assert reg.counter("sim_events_scheduled_total").value == 1
        assert reg.counter("sim_events_fired_total").value == 0


class TestFastsimTelemetry:
    def test_records_per_kernel_call(self):
        with telemetry.enabled() as reg:
            result = simulate_nfds_fast(**FAST_KWARGS)
        labels = {"algorithm": "nfd-s"}
        assert reg.counter("fastsim_runs_total", labels=labels).value == 1
        assert (
            reg.counter("fastsim_heartbeats_total", labels=labels).value
            == result.n_heartbeats
        )
        assert (
            reg.counter("fastsim_mistakes_total", labels=labels).value
            == result.n_mistakes
        )
        hist = reg.histogram("fastsim_run_seconds", labels=labels)
        assert hist.count == 1
        assert hist.sum > 0.0

    def test_results_identical_on_and_off(self):
        off = simulate_nfds_fast(**FAST_KWARGS)
        with telemetry.enabled():
            on = simulate_nfds_fast(**FAST_KWARGS)
        assert np.array_equal(off.s_transition_times, on.s_transition_times)
        assert np.array_equal(off.mistake_durations, on.mistake_durations)
        assert off.suspect_time == on.suspect_time

    def test_disabled_records_nothing(self):
        reg = telemetry.MetricsRegistry()
        assert telemetry.active() is None
        simulate_nfds_fast(**FAST_KWARGS)
        assert len(reg) == 0


class TestExecutorTelemetry:
    def test_parallel_map_chunk_stats(self):
        with telemetry.enabled() as reg:
            out = parallel_map(lambda x: x * x, list(range(10)), jobs=1)
        assert out == [x * x for x in range(10)]
        assert reg.counter("parallel_items_total").value == 10
        assert reg.counter("parallel_chunks_total").value >= 1
        assert reg.histogram("parallel_chunk_seconds").count >= 1
        assert reg.histogram("parallel_wall_seconds").count == 1

    def test_batched_crash_runs(self):
        from repro.core.nfd_s import NFDS

        config = SimulationConfig(
            eta=1.0,
            delay=ExponentialDelay(0.02),
            loss_probability=0.01,
            horizon=40.0,
            seed=11,
        )
        with telemetry.enabled() as reg:
            run_crash_runs_parallel(
                lambda: NFDS(eta=1.0, delta=1.0),
                config,
                n_runs=6,
                jobs=1,
                chunk_size=4,
                settle_time=20.0,
            )
        labels = {"kernel": "nfds"}
        assert (
            reg.counter("batch_crash_runs_total", labels=labels).value == 6
        )
        assert (
            reg.counter("batch_crash_batches_total", labels=labels).value
            == 2
        )


class TestRuntimeSwitch:
    def test_enabled_restores_prior_state(self):
        assert telemetry.active() is None
        with telemetry.enabled() as reg:
            assert telemetry.active() is reg
            with telemetry.enabled() as inner:
                assert telemetry.active() is inner
            assert telemetry.active() is reg
        assert telemetry.active() is None

    def test_enable_disable(self):
        reg = telemetry.enable()
        try:
            assert telemetry.active() is reg
            assert telemetry.enable() is reg  # idempotent with no arg
        finally:
            telemetry.disable()
        assert telemetry.active() is None
