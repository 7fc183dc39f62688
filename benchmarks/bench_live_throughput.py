"""Live monitor datapath throughput: shipped SoA hosts vs object reference.

Measures the live datagram path (``repro.live``: bounded deque inbox,
allocation-light wire codec, chunked consumer drain, SoA ``ingest``) on
a pre-enqueued burst, and writes the numbers as one JSON document
(``BENCH_live_throughput.json`` at the repo root).

Two timed modes, both on the one chunked drain: ``soa`` is the shipped
service (NFD-S peers on the SoA engine) and ``object`` the per-peer
reference hosts, reached by making the selection predicate
``repro.service.soa.supports_detector`` refuse every detector — the
seam the identity tests use.  Each runs twice: with the Section 5/6 estimation
pipeline attached (the full-service configuration) and without it (the
detector-core configuration, ``add_peer(..., observe=False)``), because
the per-heartbeat estimator update is pure Python and common to both
modes, so it dilutes exactly the overhead the SoA ingest removes.  A
burst is the SoA engine's best case; the one-datagram-per-wakeup case
is the repository benchmark's ``fleet`` workload (``perfbench/``).

**Identity before timing**: a mixed stream (junk datagrams, unknown
senders, out-of-order sequence numbers, incarnation restarts, stale
stragglers) is dispatched through both modes first, and every
``live_*`` counter plus every incarnation's ``(name, incarnation,
first_seq, delivered)`` book must agree exactly — the two modes must
make the *same decisions* datagram for datagram.  (Detector
verdict identity between the shipped and reference hosts under real pacing
is pinned separately by ``tests/live/test_batched_drain.py`` and the
engine's own identity suite; transition *timestamps* on a wall clock
are not run-reproducible, so they are not compared here.)

The timing methodology enqueues every payload before starting the
consumer and measures from ``start()`` until the registry accounts for
the whole stream, so the measured span is exactly the monitor datapath:
decode, dispatch, estimator update, detector/engine work.  Usage::

    PYTHONPATH=src python benchmarks/bench_live_throughput.py           # full
    PYTHONPATH=src python benchmarks/bench_live_throughput.py --smoke   # CI-safe

``--smoke`` shrinks the stream to run in a couple of seconds; committed
numbers come from a full run.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import platform
import time
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_live_throughput.json"

SCHEMA = "repro.bench.live_throughput/2"

ETA, DELTA = 0.05, 0.03
MODES = ("object", "soa")


@contextlib.contextmanager
def _hosts(mode):
    """Build the services' hosts for ``mode``: ``"soa"`` is the shipped
    selection, ``"object"`` routes every detector to the reference
    host."""
    from repro.service import soa

    if mode == "soa":
        yield
        return
    with mock.patch.object(soa, "supports_detector", lambda d: False):
        yield


def build_payloads(n_senders: int, slots: int):
    """The benchmark stream: every sender, every slot, in slot order."""
    from repro.live.wire import HeartbeatEncoder

    encoders = [HeartbeatEncoder(f"s{i}") for i in range(n_senders)]
    out = []
    for slot in range(1, slots + 1):
        sigma = slot * ETA
        for enc in encoders:
            out.append(enc.encode(slot, sigma))
    return out


def _processed(registry) -> float:
    """Datagrams fully accounted for by the dispatch counters."""
    total = 0.0
    for key, metric in registry.items():
        if key.startswith(
            (
                "live_heartbeats_dispatched",
                "live_datagrams_invalid",
                "live_unknown_sender",
                "live_stale_incarnation",
                "live_prewindow_heartbeats",
            )
        ):
            total += metric.value
    return total


async def _run_mode(payloads, n_senders, mode, observe):
    """Time one (mode, observe) configuration; returns seconds."""
    from repro.core.nfd_s import NFDS
    from repro.live import LiveMonitorService

    loop = asyncio.get_running_loop()
    service = LiveMonitorService(
        loop=loop,
        origin=loop.time(),
        inbox_limit=len(payloads) + 1,
        keep_traces=False,
    )
    with _hosts(mode):
        for i in range(n_senders):
            service.add_peer(
                f"s{i}",
                lambda first_seq: NFDS(ETA, DELTA, first_seq=first_seq),
                eta=ETA,
                observe=observe,
            )
    for payload in payloads:
        service.on_datagram(payload)
    n = len(payloads)
    registry = service.registry
    t0 = time.perf_counter()
    service.start()
    while _processed(registry) < n:
        await asyncio.sleep(0)
    seconds = time.perf_counter() - t0
    await service.aclose()
    return seconds


# ---------------------------------------------------------------------- #
# Identity
# ---------------------------------------------------------------------- #


def build_mixed_stream(n_senders: int, slots: int):
    """A stream exercising every dispatch decision: valid heartbeats
    (some out of order), junk, unknown senders, incarnation restarts,
    and stale stragglers from the superseded incarnation."""
    from repro.live.wire import encode_heartbeat

    out = []
    for slot in range(1, slots + 1):
        for i in range(n_senders):
            name = f"s{i}"
            if slot == 3 and i % 4 == 0:
                out.append(b"\x00junk" * 3)  # undecodable
            if slot == 4 and i % 5 == 0:
                out.append(encode_heartbeat("ghost", 0, slot, slot * ETA))
            if i % 3 == 0 and slot > slots // 2:
                # restarted identity: higher incarnation from mid-stream
                out.append(encode_heartbeat(name, 1, slot, slot * ETA))
                if slot % 2 == 0:  # straggler from the old incarnation
                    out.append(
                        encode_heartbeat(name, 0, slot - 1, (slot - 1) * ETA)
                    )
            else:
                inc = 1 if (i % 3 == 0) else 0
                out.append(encode_heartbeat(name, inc, slot, slot * ETA))
    # a small out-of-order tail
    out.append(encode_heartbeat("s1", 0, 2, 2 * ETA))
    return out


async def _dispatch_fingerprint(payloads, n_senders, mode):
    """Counters + per-incarnation books after dispatching a stream."""
    from repro.core.nfd_s import NFDS
    from repro.live import LiveMonitorService

    loop = asyncio.get_running_loop()
    service = LiveMonitorService(
        loop=loop,
        origin=loop.time(),
        inbox_limit=len(payloads) + 1,
        keep_traces=False,
    )
    n = len(payloads)
    registry = service.registry
    # Restarts build fresh hosts while the stream drains.
    with _hosts(mode):
        for i in range(n_senders):
            service.add_peer(
                f"s{i}",
                lambda first_seq: NFDS(ETA, DELTA, first_seq=first_seq),
                eta=ETA,
            )
        for payload in payloads:
            service.on_datagram(payload)
        service.start()
        while _processed(registry) < n:
            await asyncio.sleep(0)
        results = await service.aclose()
    counters = {
        key: metric.value
        for key, metric in registry.items()
        if key.startswith("live_") and key.endswith("_total")
    }
    books = sorted(
        (r.name, r.incarnation, r.first_seq, r.delivered) for r in results
    )
    return counters, books


async def verify_identity(n_senders: int, slots: int) -> dict:
    """Assert both modes make identical dispatch decisions."""
    payloads = build_mixed_stream(n_senders, slots)
    fingerprints = {
        mode: await _dispatch_fingerprint(payloads, n_senders, mode)
        for mode in MODES
    }
    baseline_key = "object"
    baseline = fingerprints[baseline_key]
    for key, fp in fingerprints.items():
        if fp != baseline:
            raise AssertionError(
                f"dispatch fingerprints diverge: {key} != {baseline_key}\n"
                f"  {key}: {fp}\n  {baseline_key}: {baseline}"
            )
    counters, books = baseline
    return {
        "stream_datagrams": len(payloads),
        "modes_compared": sorted(fingerprints),
        "counters": {k: int(v) for k, v in sorted(counters.items())},
        "incarnation_books": len(books),
        "identical": True,
    }


# ---------------------------------------------------------------------- #
# Timing
# ---------------------------------------------------------------------- #


async def bench_modes(n_senders: int, slots: int) -> dict:
    payloads = build_payloads(n_senders, slots)
    n = len(payloads)
    doc: dict = {
        "n_senders": n_senders,
        "slots": slots,
        "heartbeats": n,
        "eta": ETA,
        "delta": DELTA,
    }
    for label, observe in (("full_service", True), ("detector_core", False)):
        modes = {}
        for mode in MODES:
            seconds = await _run_mode(payloads, n_senders, mode, observe)
            modes[mode] = {
                "seconds": round(seconds, 6),
                "heartbeats_per_s": int(n / seconds),
                "per_heartbeat_us": round(1e6 * seconds / n, 3),
            }
        doc[label] = {
            "modes": modes,
            "speedup_soa_vs_object": round(
                modes["object"]["seconds"] / modes["soa"]["seconds"], 2
            ),
        }
    return doc


async def collect(smoke: bool) -> dict:
    n_senders = 60 if smoke else 300
    slots = 30 if smoke else 200
    identity = await verify_identity(
        n_senders=24, slots=12 if smoke else 24
    )
    throughput = await bench_modes(n_senders, slots)
    return {
        "schema": SCHEMA,
        "mode": "smoke" if smoke else "full",
        "generated_by": "benchmarks/bench_live_throughput.py",
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "identity_check": identity,
        "throughput": throughput,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small stream (seconds, CI-safe); numbers not representative",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)
    doc = asyncio.run(collect(smoke=args.smoke))
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    print(f"\nwritten: {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
