"""The inbox drain makes the decisions the stream dictates.

The consumer drains queued datagrams in chunks and dispatches each
chunk through one routine (chunk decode, hoisted receipt clock, one SoA
ingest per chunk).  Its decisions — junk, unknown senders, reordering,
incarnation restarts, stale stragglers, inbox overflow, real wall-clock
pacing — are pinned here as literals worked out from how each stream is
built, on the object reference hosts and on the shipped SoA hosts, for
chunk caps that split restarts and admissions across chunk boundaries
(1, 3) or take the whole backlog at once (256), and with the engine's
small-route threshold forced to 0 (every ingest vectorized) and to a
size no chunk reaches (every ingest scalar).
"""

from __future__ import annotations

import asyncio

import repro.live.monitor as monitor_mod
import repro.service.soa as soa_mod
from repro.core.nfd_s import NFDS
from repro.live.monitor import LiveMonitorService
from repro.live.wire import encode_heartbeat

# η = 1 s: a restart processed within the first second of the run
# starts its incarnation at first_seq = 1, so the books are literals.
ETA, DELTA = 1.0, 0.5
PATHS = ("object", "soa")
CHUNK_CAPS = (1, 3, 256)
#: small-route thresholds forced on the shipped path at the largest cap
FORCED_THRESHOLDS = (0, 10**9)


def _factory(first_seq):
    return NFDS(ETA, DELTA, first_seq=first_seq)


def _modes(monkeypatch, monitor_path):
    """Every host path × chunk cap, then the shipped path at the
    forced thresholds; the cap and threshold are set on the modules."""
    modes = [
        (path, cap, soa_mod._SCALAR_MAX)
        for path in PATHS
        for cap in CHUNK_CAPS
    ]
    modes += [("soa", CHUNK_CAPS[-1], t) for t in FORCED_THRESHOLDS]
    for path, cap, threshold in modes:
        monkeypatch.setattr(monitor_mod, "_DRAIN_CHUNK", cap)
        monkeypatch.setattr(soa_mod, "_SCALAR_MAX", threshold)
        with monitor_path(path):
            yield path, cap, threshold


def mixed_stream(n_senders=6, slots=10):
    """Junk, ghosts, restarts, stale stragglers, out-of-order tail."""
    out = []
    for slot in range(1, slots + 1):
        for i in range(n_senders):
            name = f"s{i}"
            if slot == 2 and i == 0:
                out.append(b"\x00not-a-heartbeat")
            if slot == 3 and i == 1:
                out.append(encode_heartbeat("ghost", 0, slot, slot * ETA))
            if i % 2 == 0 and slot > slots // 2:
                out.append(encode_heartbeat(name, 1, slot, slot * ETA))
                # straggler from the superseded incarnation
                out.append(
                    encode_heartbeat(name, 0, slot - 1, (slot - 1) * ETA)
                )
            else:
                out.append(encode_heartbeat(name, 0, slot, slot * ETA))
    out.append(encode_heartbeat("s1", 0, 2, 2 * ETA))  # reordered tail
    return out


# mixed_stream() with 6 senders × 10 slots: 60 slot heartbeats, plus
# 1 junk datagram, 1 ghost, 15 stragglers (even senders, slots 6-10)
# and the reordered tail = 78 datagrams.  Odd senders deliver all 10
# slots (s1 also the tail); each even sender delivers slots 1-5 to
# incarnation 0, restarts at slot 6 and delivers slots 6-10 to
# incarnation 1, while its 5 stragglers are stale.
MIXED_COUNTERS = {
    "live_datagrams_received_total": 78,
    "live_inbox_dropped_total": 0,
    "live_dropped_heartbeats_noted_total": 0,
    "live_datagrams_invalid_total": 1,
    "live_unknown_sender_total": 1,
    "live_stale_incarnation_total": 15,
    "live_prewindow_heartbeats_total": 0,
    "live_heartbeats_dispatched_total": 61,
    "live_incarnation_restarts_total": 3,
}
# (name, incarnation, first_seq, delivered)
MIXED_BOOKS = [
    ("s0", 0, 1, 5),
    ("s0", 1, 1, 5),
    ("s1", 0, 1, 11),
    ("s2", 0, 1, 5),
    ("s2", 1, 1, 5),
    ("s3", 0, 1, 10),
    ("s4", 0, 1, 5),
    ("s4", 1, 1, 5),
    ("s5", 0, 1, 10),
]

PROCESSED_PREFIXES = (
    "live_heartbeats_dispatched",
    "live_datagrams_invalid",
    "live_unknown_sender",
    "live_stale_incarnation",
    "live_prewindow_heartbeats",
)


def _processed(registry):
    return sum(
        m.value
        for key, m in registry.items()
        if key.startswith(PROCESSED_PREFIXES)
    )


def _counters(registry):
    return {
        key: m.value
        for key, m in registry.items()
        if key.startswith("live_") and key.endswith("_total")
    }


async def _dispatch_all(payloads, *, n_senders=6):
    loop = asyncio.get_running_loop()
    service = LiveMonitorService(
        loop=loop,
        origin=loop.time(),
        inbox_limit=len(payloads) + 1,
        keep_traces=False,
    )
    for i in range(n_senders):
        service.add_peer(f"s{i}", _factory, eta=ETA)
    for payload in payloads:
        service.on_datagram(payload)
    n = len(payloads)
    service.start()
    while _processed(service.registry) < n:
        await asyncio.sleep(0)
    results = await service.aclose()
    books = sorted(
        (r.name, r.incarnation, r.first_seq, r.delivered) for r in results
    )
    return _counters(service.registry), books


class TestDecisionIdentity:
    def test_all_modes_agree_on_mixed_stream(
        self, monkeypatch, monitor_path
    ):
        """Every mode ends at the stream's literal counters and
        incarnation books."""

        async def main():
            payloads = mixed_stream()
            assert len(payloads) == 78
            for mode in _modes(monkeypatch, monitor_path):
                counters, books = await _dispatch_all(payloads)
                assert counters == MIXED_COUNTERS, mode
                assert books == MIXED_BOOKS, mode

        asyncio.run(main())

    def test_aclose_drains_leftovers_through_batch_path(
        self, monkeypatch, monitor_path
    ):
        """Datagrams queued but never consumed (service closed before
        the consumer ran) still reach the books — identically."""
        # 3 senders × 4 slots: 12 slot heartbeats + junk + ghost + 4
        # stragglers (s0, s2 at slots 3-4) + tail = 19 datagrams.
        expected_counters = {
            "live_datagrams_received_total": 19,
            "live_inbox_dropped_total": 0,
            "live_dropped_heartbeats_noted_total": 0,
            "live_datagrams_invalid_total": 1,
            "live_unknown_sender_total": 1,
            "live_stale_incarnation_total": 4,
            "live_prewindow_heartbeats_total": 0,
            "live_heartbeats_dispatched_total": 13,
            "live_incarnation_restarts_total": 2,
        }
        expected_books = [
            ("s0", 0, 2),
            ("s0", 1, 2),
            ("s1", 0, 5),
            ("s2", 0, 2),
            ("s2", 1, 2),
        ]

        async def main():
            payloads = mixed_stream(n_senders=3, slots=4)
            for mode in _modes(monkeypatch, monitor_path):
                loop = asyncio.get_running_loop()
                service = LiveMonitorService(
                    loop=loop,
                    origin=loop.time(),
                    inbox_limit=len(payloads) + 1,
                    keep_traces=False,
                )
                for i in range(3):
                    service.add_peer(f"s{i}", _factory, eta=ETA)
                for payload in payloads:
                    service.on_datagram(payload)
                books = await service.aclose()  # never started
                assert (
                    _counters(service.registry) == expected_counters
                ), mode
                assert sorted(
                    (r.name, r.incarnation, r.delivered) for r in books
                ) == expected_books, mode

        asyncio.run(main())


class TestOverflow:
    def test_inbox_overflow_counts_identically(
        self, monkeypatch, monitor_path
    ):
        """Every overflow datagram is dropped-and-counted, decodable
        sheds are announced to the loss estimator (through the batch
        decoder), and the surviving prefix dispatches — in every mode."""

        async def main():
            payloads = [
                encode_heartbeat("s0", 0, seq, seq * ETA)
                for seq in range(1, 21)
            ]
            for mode in _modes(monkeypatch, monitor_path):
                loop = asyncio.get_running_loop()
                service = LiveMonitorService(
                    loop=loop,
                    origin=loop.time(),
                    inbox_limit=8,
                    keep_traces=False,
                )
                service.add_peer("s0", _factory, eta=ETA)
                for payload in payloads:  # all before the consumer runs
                    service.on_datagram(payload)
                service.start()
                while _processed(service.registry) < 8:
                    await asyncio.sleep(0)
                await service.aclose()
                counters = _counters(service.registry)
                assert counters["live_datagrams_received_total"] == 20
                assert counters["live_inbox_dropped_total"] == 12
                # every shed datagram decoded to a current-incarnation
                # heartbeat, so all were noted to the loss estimator
                assert (
                    counters["live_dropped_heartbeats_noted_total"] == 12
                ), mode
                assert counters["live_heartbeats_dispatched_total"] == 8

        asyncio.run(main())


class TestObserveFlag:
    def test_observe_false_skips_pipeline_not_delivery(self):
        async def main():
            payloads = [
                encode_heartbeat("s0", 0, seq, seq * ETA)
                for seq in range(1, 9)
            ]
            delivered = {}
            for observe in (True, False):
                loop = asyncio.get_running_loop()
                service = LiveMonitorService(
                    loop=loop,
                    origin=loop.time(),
                    keep_traces=False,
                )
                service.add_peer("s0", _factory, eta=ETA, observe=observe)
                for payload in payloads:
                    service.on_datagram(payload)
                service.start()
                while _processed(service.registry) < len(payloads):
                    await asyncio.sleep(0)
                (result,) = await service.aclose()
                assert (result.observer is not None) == observe
                delivered[observe] = result.delivered
            assert delivered[True] == delivered[False] == 8

        asyncio.run(main())


class TestPacedTransitions:
    def test_transition_kinds_match_under_real_pacing(
        self, monkeypatch, monitor_path
    ):
        """A wall-clock run with deliberately dropped heartbeats forces
        a deterministic S/T kind sequence (margins ≫ timer jitter);
        every mode must produce it."""
        eta, delta = 0.08, 0.04
        # seq i arrives at i·η + 5 ms; seqs 4, 5 are dropped; nothing
        # after seq 8.  Freshness points sit at i·η + δ, so every
        # boundary has a ≥ 35 ms margin:
        #   S→T at arr(1)=0.085, T→S at τ_4=0.36, S→T at arr(6)=0.485,
        #   T→S at τ_9=0.76 (m_8 keeps trust through [τ_8, τ_9));
        #   close at 0.82.
        sends = [i for i in range(1, 9) if i not in (4, 5)]
        expected = ["T", "S", "T", "S"]

        async def run_one():
            loop = asyncio.get_running_loop()
            origin = loop.time() + 0.02
            service = LiveMonitorService(
                loop=loop,
                origin=origin,
                keep_traces=True,
            )
            service.add_peer(
                "s0",
                lambda first_seq: NFDS(eta, delta, first_seq=first_seq),
                eta=eta,
            )
            service.start()
            for seq in sends:
                loop.call_at(
                    origin + seq * eta + 0.005,
                    service.on_datagram,
                    encode_heartbeat("s0", 0, seq, seq * eta),
                )
            await asyncio.sleep((origin - loop.time()) + 0.82)
            (result,) = await service.aclose()
            assert result.delivered == len(sends)
            return [t.kind.value for t in result.trace.transitions]

        async def main():
            for mode in _modes(monkeypatch, monitor_path):
                # A loaded machine can push a wakeup past even these
                # margins; such jitter is transient, so allow a couple
                # of fresh runs.  A *systematic* divergence of one
                # mode fails every attempt.
                for attempt in range(3):
                    got = await run_one()
                    if got == expected:
                        break
                assert got == expected, (mode, got)

        asyncio.run(main())


    def test_distinct_periods_under_real_pacing(
        self, monkeypatch, monitor_path
    ):
        """Senders on distinct periods — one engine cohort each, the
        shape of a fleet on spread periods — each force the same
        deterministic kind sequence in every mode."""
        delta = 0.04
        etas = {"a": 0.08, "b": 0.09, "c": 0.1}
        # seq i arrives at i·η + 5 ms; seqs 3, 4 are dropped; nothing
        # after seq 6.  Freshness points sit at i·η + δ (≥ 35 ms from
        # any arrival): S→T at arr(1), T→S at τ_3, S→T at arr(5),
        # T→S at τ_7 (≤ 0.74); close at 0.8.
        sends = (1, 2, 5, 6)
        expected = {name: ["T", "S", "T", "S"] for name in etas}

        async def run_one():
            loop = asyncio.get_running_loop()
            origin = loop.time() + 0.02
            service = LiveMonitorService(
                loop=loop, origin=origin, keep_traces=True
            )
            for name, eta in etas.items():
                service.add_peer(
                    name,
                    lambda first_seq, eta=eta: NFDS(
                        eta, delta, first_seq=first_seq
                    ),
                    eta=eta,
                )
                for seq in sends:
                    loop.call_at(
                        origin + seq * eta + 0.005,
                        service.on_datagram,
                        encode_heartbeat(name, 0, seq, seq * eta),
                    )
            service.start()
            await asyncio.sleep((origin - loop.time()) + 0.8)
            results = await service.aclose()
            return {
                r.name: [t.kind.value for t in r.trace.transitions]
                for r in results
            }

        async def main():
            for mode in _modes(monkeypatch, monitor_path):
                for attempt in range(3):  # transient jitter, as above
                    got = await run_one()
                    if got == expected:
                        break
                assert got == expected, (mode, got)

        asyncio.run(main())
