"""Benchmark the parallel experiment executor (not a paper table).

Times the same crash-run batch serially and fanned out over worker
processes, asserts the two are bit-identical (the executor's contract),
and records the speedup per job count.  The speedup ceiling is the
machine's core count — the work items are independent and the IPC
payload is a few floats per run, so on a 4-core host the 4-job row
approaches 4x; on a single-core host every row collapses to ~1x (the
executor falls back to measuring only its own overhead).  NFD-S runs
take the closed-form crash kernel, one pass per chunk, so the batch is
cut into ``CHUNK`` -run chunks to give the workers something to share.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core.nfd_s import NFDS
from repro.experiments.common import ExperimentTable
from repro.net.delays import ExponentialDelay
from repro.sim.parallel import run_crash_runs_parallel
from repro.sim.runner import SimulationConfig, run_crash_runs

N_RUNS = 48
CHUNK = 6
CONFIG = SimulationConfig(
    eta=1.0,
    delay=ExponentialDelay(0.3),
    loss_probability=0.05,
    horizon=400.0,
    warmup=5.0,
    seed=2024,
)


def _factory():
    return NFDS(eta=1.0, delta=1.0)


@pytest.mark.benchmark(group="parallel")
def test_parallel_crash_run_speedup(benchmark, emit):
    """Serial vs parallel wall time for one crash-run batch."""
    t0 = time.perf_counter()
    serial = run_crash_runs(_factory, CONFIG, n_runs=N_RUNS)
    serial_seconds = time.perf_counter() - t0

    table = ExperimentTable(
        title=(
            f"Parallel executor: {N_RUNS} crash runs "
            f"({os.cpu_count()} core(s) available)"
        ),
        columns=["jobs", "wall s", "busy s", "speedup", "identical"],
    )
    table.add_row("serial", serial_seconds, serial_seconds, 1.0, "-")

    for jobs in (1, 2, 4):
        result, stats = run_crash_runs_parallel(
            _factory,
            CONFIG,
            n_runs=N_RUNS,
            jobs=jobs,
            chunk_size=CHUNK,
            with_stats=True,
        )
        identical = np.array_equal(
            result.detection_times, serial.detection_times
        ) and np.array_equal(result.crash_times, serial.crash_times)
        assert identical, f"jobs={jobs} diverged from serial"
        table.add_row(
            jobs,
            stats.wall_seconds,
            stats.busy_seconds,
            serial_seconds / stats.wall_seconds,
            "yes",
        )

    table.add_note(
        "'identical' asserts bit-equality of detection_times/crash_times "
        "vs the serial run (the executor's determinism contract)"
    )
    table.add_note(
        "speedup is bounded by the host's core count; busy s is summed "
        "worker time (~serial time when the fan-out adds no overhead)"
    )
    emit(table, "parallel")

    # pytest-benchmark row: the all-cores fan-out.
    result = benchmark.pedantic(
        run_crash_runs_parallel,
        args=(_factory, CONFIG),
        kwargs=dict(n_runs=N_RUNS, jobs=0, chunk_size=CHUNK),
        rounds=3,
        iterations=1,
    )
    assert np.array_equal(result.detection_times, serial.detection_times)
