"""Tests for the η-paced live sender (tier-1: sub-second)."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import InvalidParameterError
from repro.live.sender import LiveHeartbeatSender
from repro.live.wire import decode_heartbeat


class RecordingTransport:
    def __init__(self):
        self.payloads = []

    def send(self, payload):
        self.payloads.append(payload)


class TestPacing:
    def test_nominal_sigma_stamps(self):
        """Messages carry σ_i = i·η even when sent late — the simulator's
        (and the paper's) semantics."""

        async def main():
            loop = asyncio.get_running_loop()
            transport = RecordingTransport()
            sender = LiveHeartbeatSender(
                transport,
                name="p0",
                eta=0.04,
                loop=loop,
                origin=loop.time(),
            )
            task = asyncio.ensure_future(sender.run())
            await asyncio.sleep(0.30)
            sender.stop()
            await task
            heartbeats = [decode_heartbeat(p) for p in transport.payloads]
            assert 4 <= len(heartbeats) <= 8
            for hb in heartbeats:
                assert hb.sender == "p0"
                assert hb.send_local_time == pytest.approx(hb.seq * 0.04)
            seqs = [hb.seq for hb in heartbeats]
            assert seqs[0] == 1
            assert seqs == sorted(set(seqs))

        asyncio.run(main())

    def test_started_mid_schedule_skips_past_slots(self):
        """A sender whose origin lies in the past begins at its first
        future slot — never bursts the backlog (sim `_arm_next` rule)."""

        async def main():
            loop = asyncio.get_running_loop()
            transport = RecordingTransport()
            sender = LiveHeartbeatSender(
                transport,
                name="p0",
                eta=0.05,
                loop=loop,
                origin=loop.time() - 10.0,  # 200 slots in the past
            )
            task = asyncio.ensure_future(sender.run())
            await asyncio.sleep(0.12)
            sender.stop()
            await task
            heartbeats = [decode_heartbeat(p) for p in transport.payloads]
            assert 1 <= len(heartbeats) <= 4  # no backlog burst
            assert heartbeats[0].seq >= 200

        asyncio.run(main())


class TestStop:
    def test_stop_wakes_sleeping_sender(self):
        async def main():
            loop = asyncio.get_running_loop()
            sender = LiveHeartbeatSender(
                RecordingTransport(),
                name="p0",
                eta=3600.0,  # would sleep for an hour
                loop=loop,
                origin=loop.time(),
            )
            task = asyncio.ensure_future(sender.run())
            await asyncio.sleep(0.02)
            t0 = loop.time()
            sender.stop()
            await asyncio.wait_for(task, timeout=1.0)
            assert loop.time() - t0 < 0.5
            assert sender.sent_count == 0

        asyncio.run(main())


class TestValidation:
    def test_parameters(self):
        loop = asyncio.new_event_loop()
        try:
            with pytest.raises(InvalidParameterError):
                LiveHeartbeatSender(
                    RecordingTransport(),
                    name="p",
                    eta=0.0,
                    loop=loop,
                    origin=0.0,
                )
            with pytest.raises(InvalidParameterError):
                LiveHeartbeatSender(
                    RecordingTransport(),
                    name="p",
                    eta=0.1,
                    loop=loop,
                    origin=0.0,
                    first_seq=0,
                )
        finally:
            loop.close()
