"""Tests for the live SoA hosts (tier-1: sub-second).

``LiveMonitorService`` keeps NFD-S/U/E peer state in the shared
:class:`VectorMonitorEngine` with a single armed ``loop.call_at``
wakeup.  The observable behaviour — dispatch, suspicion, incarnation
restarts, removal, metrics — must match the object reference hosts'.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.core.adaptive import AdaptiveController, AdaptiveNFDE
from repro.core.nfd_s import NFDS
from repro.live.monitor import LiveMonitorService
from repro.live.runtime import LiveDetectorHost
from repro.live.soa import SoALiveHost
from repro.live.wire import encode_heartbeat


def counter(service, name, **labels):
    metric = service.registry.get(name, labels or None)
    return 0 if metric is None else metric.value


async def drain(service, rounds=6):
    for _ in range(rounds):
        await asyncio.sleep(0)


def nfds_factory(eta, delta):
    return lambda first_seq: NFDS(eta, delta, first_seq=first_seq)


class TestEngineSelection:
    def test_engine_argument_is_gone(self):
        async def main():
            # The detector picks the host; no backend option is left.
            with pytest.raises(TypeError):
                LiveMonitorService(engine="soa")
            service = LiveMonitorService()
            assert not hasattr(service, "engine")
            assert service.soa_engine is None  # built on first peer
            await service.aclose()

        asyncio.run(main())

    def test_detector_type_picks_the_host(self):
        """NFD-S/U/E peers get engine rows; any other detector — even
        an NFD-E subclass, whose reconfiguration the tables do not
        model — gets its own object host."""

        async def main():
            service = LiveMonitorService()
            service.add_peer("nfds", nfds_factory(0.05, 0.02), eta=0.05)
            service.add_peer(
                "adaptive",
                lambda first_seq: AdaptiveNFDE(
                    0.05, 0.02, AdaptiveController(1.0, 0.01, 10.0)
                ),
                eta=0.05,
            )
            assert isinstance(service.host("nfds"), SoALiveHost)
            assert isinstance(service.host("adaptive"), LiveDetectorHost)
            await service.aclose()

        asyncio.run(main())

    def test_peers_share_one_engine(self):
        async def main():
            service = LiveMonitorService()
            for i in range(8):
                service.add_peer(
                    f"p{i}", nfds_factory(0.05, 0.02), eta=0.05
                )
            eng = service.soa_engine
            assert eng is not None and eng.n_active == 8
            for i in range(8):
                assert isinstance(service.host(f"p{i}"), SoALiveHost)
            await service.aclose()
            assert eng.n_active == 0

        asyncio.run(main())


class TestDispatchAndSuspicion:
    def test_delivery_trusts_then_wheel_suspects(self):
        async def main():
            service = LiveMonitorService()
            transitions = []
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            host = service.host("p0")
            assert host.delivered_count == 1
            assert host.detector.output == "T"
            assert "p0" not in service.suspected
            # Silence: the engine wheel (one loop timer for the whole
            # population) must fire the freshness deadline.
            await asyncio.sleep(0.2)
            assert host.detector.output == "S"
            assert "p0" in service.suspected
            results = await service.aclose()
            trace = results[0].trace
            assert [t.kind.name for t in trace.transitions] == [
                "T_TRANSITION",
                "S_TRANSITION",
            ]

        asyncio.run(main())

    def test_restart_finalizes_and_redispatches(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            first_host = service.host("p0")
            service.on_datagram(encode_heartbeat("p0", 2, 1, 0.05))
            await drain(service)
            assert counter(service, "live_incarnation_restarts_total") == 1
            assert service.host("p0") is not first_host
            assert first_host.stopped
            assert service.host("p0").delivered_count == 1
            # The dead incarnation's engine row is retired.
            eng = service.soa_engine
            assert eng.n_active == 1
            assert not eng.is_active(first_host.row)
            final = await service.aclose()
            assert [r.incarnation for r in final] == [0, 2]

        asyncio.run(main())


class TestAutoAdmit:
    def test_walk_in_lands_in_engine(self):
        async def main():
            service = LiveMonitorService(
                auto_admit=lambda name: (nfds_factory(0.05, 0.02), 0.05),
            )
            service.start()
            service.on_datagram(encode_heartbeat("walk-in", 0, 1, 0.05))
            await drain(service)
            assert service.peer_names == ["walk-in"]
            host = service.host("walk-in")
            assert isinstance(host, SoALiveHost)
            assert host.delivered_count == 1
            assert service.soa_engine.n_active == 1
            # remove_peer documents that auto_admit owns membership: a
            # later heartbeat re-admits the name as a brand-new peer.
            service.remove_peer("walk-in")
            service.on_datagram(encode_heartbeat("walk-in", 0, 2, 0.10))
            await drain(service)
            assert service.peer_names == ["walk-in"]
            assert service.host("walk-in") is not host
            await service.aclose()

        asyncio.run(main())


class TestRemoval:
    def test_remove_peer_idempotent(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            first = service.remove_peer("p0")
            assert first is not None and first.delivered == 1
            assert service.remove_peer("p0") is None  # no-op
            assert service.remove_peer("never-added") is None
            assert service.soa_engine.n_active == 0
            # The retired row's deadline must not fire a ghost S.
            await asyncio.sleep(0.2)
            assert service.results == [first]
            await service.aclose()

        asyncio.run(main())

    def test_retired_rows_release_their_hosts(self):
        """A finalized incarnation's host must not stay reachable
        through the engine's per-row sink, clock or arrival function
        for as long as the service runs."""

        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            await drain(service)
            first = weakref.ref(service.host("p0"))
            service.on_datagram(encode_heartbeat("p0", 1, 1, 0.05))
            await drain(service)  # restart: incarnation 0 finalized
            gone = weakref.ref(service.host("p0"))
            service.remove_peer("p0")
            gc.collect()
            assert first() is None
            assert gone() is None
            await service.aclose()

        asyncio.run(main())


class TestShedAccounting:
    def test_overflow_drops_are_counted_and_noted(self):
        """Satellite bugfix: every shed path increments the drop
        counter, and decodable shed heartbeats are excluded from the
        peer's loss-rate estimate (monitor overload is not network
        loss)."""

        async def main():
            service = LiveMonitorService(inbox_limit=4)
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            # Consumer not started: seqs 5..10 overflow the inbox.
            for seq in range(1, 11):
                service.on_datagram(
                    encode_heartbeat("p0", 0, seq, 0.05 * seq)
                )
            assert counter(service, "live_inbox_dropped_total") == 6
            assert (
                counter(service, "live_dropped_heartbeats_noted_total")
                == 6
            )
            service.start()
            await drain(service)  # seqs 1..4 dispatch
            host = service.host("p0")
            assert host.delivered_count == 4
            loss = host.observer.loss
            assert loss.highest_seq == 4
            # A later heartbeat opens the 5..10 gap; the noted drops
            # must not be charged to p_L.
            service.on_datagram(encode_heartbeat("p0", 0, 11, 0.55))
            await drain(service)
            assert loss.highest_seq == 11
            assert loss.missing_count == 0
            assert loss.estimate() == 0.0
            await service.aclose()

        asyncio.run(main())

    def test_post_close_arrivals_counted_as_drops(self):
        async def main():
            service = LiveMonitorService()
            service.add_peer("p0", nfds_factory(0.05, 0.02), eta=0.05)
            service.start()
            await service.aclose()
            before = counter(service, "live_inbox_dropped_total")
            service.on_datagram(encode_heartbeat("p0", 0, 1, 0.05))
            assert (
                counter(service, "live_inbox_dropped_total") == before + 1
            )

        asyncio.run(main())
