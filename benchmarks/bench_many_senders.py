"""Many-senders monitor benchmark: object-per-sender vs the SoA engine.

Measures what the vectorized monitor core (``repro.service.soa``) buys
on the one axis the ROADMAP north-star cares about — per-heartbeat cost
when a *single* monitor tracks a very large sender population — and
writes the numbers as one JSON document (``BENCH_many_senders.json`` at
the repo root):

* **service_compare** — the full :class:`MonitorService` pipeline
  (senders, lossy links, hosts) on the object reference hosts vs the
  shipped SoA hosts at an object-tractable population, with the verdict
  streams asserted identical;
* **engine_scale** — the SoA engine driven through batched
  :meth:`~repro.service.soa.VectorMonitorEngine.ingest` at 10^5+
  senders (the population the object path cannot reach), against an
  *object-direct* baseline: the identical arrival schedule replayed
  through per-sender :class:`DetectorHost` timer chains on the
  discrete-event simulator.  Both sides consume a pre-built schedule,
  so the ratio is pure execution-strategy (tables + one wheel vs
  objects + per-sender chains).

Every compared pair is verified **bit-identical** first (same
transition times, outputs and ordering) on a smaller population — a
speedup over a wrong answer is worthless.  Usage::

    PYTHONPATH=src python benchmarks/bench_many_senders.py           # full
    PYTHONPATH=src python benchmarks/bench_many_senders.py --smoke   # CI-safe

``--smoke`` runs a 10^4-sender ingest in a couple of seconds (the CI
many-senders smoke); committed numbers come from a full run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import time
from pathlib import Path
from unittest import mock

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_many_senders.json"

SCHEMA = "repro.bench.many_senders/1"

ETA, DELTA = 1.0, 0.5
DELAY_SCALE = 0.1
LOSS = 0.02


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def build_schedule(n_senders: int, slots: int, seed: int = 0):
    """A shared arrival schedule: per-slot exponential delays, i.i.d.
    loss, globally time-sorted ``(times, rows, seqs)`` arrays."""
    rng = np.random.default_rng(seed)
    sigma = np.arange(1, slots + 1, dtype=np.float64)[:, None] * ETA
    times = sigma + rng.exponential(DELAY_SCALE, (slots, n_senders))
    keep = rng.random((slots, n_senders)) >= LOSS
    flat_keep = keep.ravel()
    t = times.ravel()[flat_keep]
    rows = np.tile(np.arange(n_senders, dtype=np.int64), slots)[flat_keep]
    seqs = np.repeat(
        np.arange(1, slots + 1, dtype=np.int64), n_senders
    )[flat_keep]
    order = np.argsort(t, kind="stable")
    return t[order], rows[order], seqs[order]


def run_object_direct(times, rows, seqs, n_senders, horizon, record=False):
    """Replay a schedule through per-sender DetectorHost timer chains.

    Returns (seconds of event-loop time, transitions or None).  Schedule
    injection is excluded from the timing on both sides of the
    comparison; the measured span covers exactly what each backend does
    per heartbeat and per freshness deadline.
    """
    from repro.core.nfd_s import NFDS
    from repro.sim.engine import Simulator
    from repro.sim.monitor import DetectorHost

    sim = Simulator()
    log = [] if record else None
    hosts = []
    for i in range(n_senders):
        detector = NFDS(eta=ETA, delta=DELTA)
        host = DetectorHost(sim, detector)
        if record:
            def listener(local, out, i=i):
                log.append((sim.now, i, out))
            detector._listener = _chain(detector._listener, listener)
        hosts.append(host)
    for host in hosts:
        host.start()
    for t, r, s in zip(times, rows, seqs):
        sim.schedule_at(
            float(t), lambda h=hosts[r], s=int(s): h.deliver(s, 0.0)
        )
    seconds = _time(lambda: sim.run_until(horizon))
    return seconds, log


def _chain(inner, outer):
    def listener(local, out):
        if inner is not None:
            inner(local, out)
        outer(local, out)

    return listener


def run_engine_ingest(times, rows, seqs, n_senders, horizon, record=False):
    """Replay the same schedule through the SoA engine's batch path."""
    from repro.core.nfd_s import NFDS
    from repro.service.soa import ManualScheduler, VectorMonitorEngine

    engine = VectorMonitorEngine(
        ManualScheduler(0.0), record_transitions=record
    )
    for _ in range(n_senders):
        row = engine.register(NFDS(eta=ETA, delta=DELTA))
        engine.start_row(row)

    def run():
        engine.ingest(times, rows, seqs)
        engine.advance(horizon)

    seconds = _time(run)
    return seconds, engine


def verify_identity(n_senders: int, slots: int) -> int:
    """Assert object-direct and SoA-ingest produce bit-identical
    transition streams on a shared schedule; returns the stream size."""
    times, rows, seqs = build_schedule(n_senders, slots, seed=99)
    horizon = (slots + 1) * ETA + DELTA
    _, obj_log = run_object_direct(
        times, rows, seqs, n_senders, horizon, record=True
    )
    _, engine = run_engine_ingest(
        times, rows, seqs, n_senders, horizon, record=True
    )
    soa_log = engine.transition_log
    if obj_log != soa_log:
        diverge = next(
            (i for i, (a, b) in enumerate(zip(obj_log, soa_log)) if a != b),
            min(len(obj_log), len(soa_log)),
        )
        raise AssertionError(
            f"verdict streams diverge at index {diverge}: "
            f"object={obj_log[diverge:diverge + 2]} "
            f"soa={soa_log[diverge:diverge + 2]}"
        )
    return len(obj_log)


def bench_service_compare(smoke: bool) -> dict:
    """Full MonitorService pipeline, object reference hosts vs the
    shipped SoA hosts, identical verdicts."""
    from repro.core.nfd_s import NFDS
    from repro.net.delays import ExponentialDelay
    from repro.service import soa
    from repro.service.monitor_service import MonitorService
    from repro.sim.engine import Simulator

    n = 100 if smoke else 600
    horizon = 20.0 if smoke else 60.0

    def run(refuse_engine):
        sim = Simulator()
        svc = MonitorService(sim, seed=17)
        # The object reference hosts are reached through the selection
        # predicate, the seam the identity tests use.
        hosts = (
            mock.patch.object(soa, "supports_detector", lambda d: False)
            if refuse_engine
            else contextlib.nullcontext()
        )
        with hosts:
            for i in range(n):
                svc.add_process(
                    f"p{i}",
                    NFDS(eta=ETA, delta=DELTA),
                    eta=ETA,
                    delay=ExponentialDelay(DELAY_SCALE),
                    loss_probability=LOSS,
                )
        svc.start()
        seconds = _time(lambda: sim.run_until(horizon))
        delivered = sum(
            svc.process(f"p{i}").host.delivered_count for i in range(n)
        )
        traces = {
            key: tuple((t.time, t.kind.name) for t in trace.transitions)
            for key, trace in svc.finish().items()
        }
        return seconds, delivered, traces

    obj_s, obj_hb, obj_traces = run(refuse_engine=True)
    soa_s, soa_hb, soa_traces = run(refuse_engine=False)
    assert obj_traces == soa_traces, "service verdict streams diverged"
    assert obj_hb == soa_hb
    return {
        "n_senders": n,
        "sim_horizon_s": horizon,
        "heartbeats": obj_hb,
        "object_s": round(obj_s, 6),
        "soa_s": round(soa_s, 6),
        "object_per_heartbeat_us": round(1e6 * obj_s / obj_hb, 3),
        "soa_per_heartbeat_us": round(1e6 * soa_s / soa_hb, 3),
        "speedup": round(obj_s / soa_s, 2),
        "verdicts_identical": True,
    }


def bench_engine_scale(smoke: bool) -> dict:
    """10^5+ senders through batched ingest vs the object-direct
    baseline at an object-tractable population (per-heartbeat cost is
    population-independent up to the heap's log factor, which favours
    the *object* side of the ratio)."""
    n_soa = 10_000 if smoke else 120_000
    slots_soa = 10 if smoke else 40
    n_obj = 200 if smoke else 1_000
    slots_obj = 20 if smoke else 50

    times, rows, seqs = build_schedule(n_obj, slots_obj, seed=1)
    horizon_obj = (slots_obj + 1) * ETA + DELTA
    obj_s, _ = run_object_direct(times, rows, seqs, n_obj, horizon_obj)
    obj_hb = len(times)

    times, rows, seqs = build_schedule(n_soa, slots_soa, seed=2)
    horizon_soa = (slots_soa + 1) * ETA + DELTA
    soa_s, engine = run_engine_ingest(times, rows, seqs, n_soa, horizon_soa)
    soa_hb = len(times)

    obj_us = 1e6 * obj_s / obj_hb
    soa_us = 1e6 * soa_s / soa_hb
    return {
        "object_baseline": {
            "n_senders": n_obj,
            "heartbeats": obj_hb,
            "seconds": round(obj_s, 6),
            "per_heartbeat_us": round(obj_us, 3),
        },
        "soa_ingest": {
            "n_senders": n_soa,
            "heartbeats": soa_hb,
            "seconds": round(soa_s, 6),
            "per_heartbeat_us": round(soa_us, 3),
            "heartbeats_per_s": int(soa_hb / soa_s),
            "active_rows": engine.n_active,
            "pending_deadlines": engine.pending_deadlines,
        },
        "per_heartbeat_speedup": round(obj_us / soa_us, 1),
    }


def collect(smoke: bool) -> dict:
    identity_transitions = verify_identity(
        n_senders=64, slots=30 if smoke else 60
    )
    return {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "generated_by": "benchmarks/bench_many_senders.py",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "identity_check_transitions": identity_transitions,
        "service_compare": bench_service_compare(smoke),
        "engine_scale": bench_engine_scale(smoke),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="10^4-sender workload (seconds, CI-safe); numbers not "
        "representative",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    doc = collect(smoke=args.smoke)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    print(f"\nwritten: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
