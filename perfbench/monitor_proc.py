"""The system under test for the live workloads: one monitor process.

The service is assembled the way ``repro.live.roles.run_udp_monitor``
assembles it — ``LiveMonitorService`` on the epoch clock with the
library's default engine and drain, auto-admitting NFD-S senders, fed
by ``BatchedUdpMonitorTransport`` on loopback — plus a ``LiveElector``
and the benchmark's verdict recorder as subscribers.  Engine and drain
are deliberately not passed, so a change of library default is measured
the way users get it.

Protocol (one line per message on stdout, commands on stdin):

* prints ``bound <port> <epoch>`` once the socket is bound;
* prints ``trusted <epoch>`` once every initial sender is trusted;
* on ``begin`` / ``end`` snapshots CPU time and counters;
* on ``dump`` prints ``result <json>`` and exits; on ``quit`` exits.

Run by ``perfbench/run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import time

from repro.election.omega import LiveElector
from repro.live.monitor import LiveMonitorService
from repro.live.roles import detector_factory_for, epoch_origin
from repro.live.transport import BatchedUdpMonitorTransport
from repro.telemetry.registry import MetricsRegistry

import spans
import workload
from child import emit, peak_rss_mb

COUNTERS = {
    "received": "live_datagrams_received_total",
    "inbox_shed": "live_inbox_dropped_total",
    "invalid": "live_datagrams_invalid_total",
    "unknown": "live_unknown_sender_total",
    "stale": "live_stale_incarnation_total",
    "prewindow": "live_prewindow_heartbeats_total",
    "dispatched": "live_heartbeats_dispatched_total",
    "restarts": "live_incarnation_restarts_total",
}


class Recorder:
    """Stamps every published event with the monitor's own clock.

    ``MonitorEvent.time`` is not used: a backend may stamp an S verdict
    with the deadline instant rather than the instant it was delivered.
    """

    def __init__(self, service, initial) -> None:
        self.events = []
        self._now = service.local_now
        self._untrusted = set(initial)
        self._initial = frozenset(initial)
        self.trusted_at = None
        service.subscribe(self.on_event)

    def on_event(self, event) -> None:
        t = self._now()
        self.events.append(
            (t, event.process, event.output, event.incarnation,
             event.administrative)
        )
        if self.trusted_at is None and event.process in self._initial:
            if event.output == "T":
                self._untrusted.discard(event.process)
                if not self._untrusted:
                    self.trusted_at = t
                    emit("trusted", repr(t))
            else:
                self._untrusted.add(event.process)


def kernel_drops(port: int):
    """The ``drops`` column of ``/proc/net/udp`` for our socket."""
    try:
        with open("/proc/net/udp") as fh:
            lines = fh.readlines()[1:]
    except OSError:
        return None
    for line in lines:
        fields = line.split()
        if fields[1].endswith(f":{port:04X}"):
            return int(fields[-1])
    return None


def install_tracing(tracer: spans.Tracer, loop) -> None:
    """Wrap the live path's public entry points (see spans.py)."""
    add_reader = loop.add_reader
    call_at = loop.call_at
    late = tracer.samples.setdefault("loop.timer_late_s", [])

    def traced_add_reader(fd, callback, *args):
        return add_reader(
            fd, tracer.wrap(callback, "live.transport.readable"), *args
        )

    def traced_call_at(when, callback, *args, context=None):
        tracer.count("loop.timers_armed")
        timed = tracer.wrap(callback, "core.timer")

        def fire(*a):
            late.append(loop.time() - when)
            return timed(*a)

        return call_at(when, fire, *args, context=context)

    loop.add_reader = traced_add_reader
    loop.call_at = traced_call_at

    mon = "repro.live.monitor:LiveMonitorService"
    tracer.patch_method(mon, "on_datagram", "live.monitor.enqueue")
    tracer.patch_method(mon, "_dispatch_batch", "live.monitor.dispatch",
                        sample=lambda a, r: len(a[1]))
    tracer.patch_method(mon, "_try_admit", "live.monitor.admit")
    tracer.patch_method(mon, "_finalize_incarnation", "live.monitor.finalize")
    tracer.patch_method(mon, "_start_incarnation",
                        "live.monitor.start_incarnation")
    tracer.patch_method("repro.live.wire:HeartbeatBatchDecoder",
                        "decode_fields", "live.wire.decode")
    tracer.patch_method("repro.estimation.observer:HeartbeatObserver",
                        "observe_arrival", "estimation.observe")
    tracer.patch_method("repro.live.runtime:LiveDetectorHost",
                        "deliver_parts", "live.runtime.deliver")
    tracer.patch_method("repro.live.soa:SoALiveHost", "prepare",
                        "live.runtime.prepare")
    tracer.patch_method("repro.core.nfd_s:NFDS", "on_heartbeat",
                        "core.on_heartbeat")
    tracer.patch_method("repro.service.soa:VectorMonitorEngine", "ingest",
                        "service.soa.ingest",
                        sample=lambda a, r: len(a[1]))
    tracer.patch_method("repro.service.soa:VectorMonitorEngine", "advance",
                        "service.soa.advance")
    tracer.patch_method("repro.telemetry.qos_online:OnlineQoSEstimator",
                        "observe", "telemetry.observe")
    tracer.patch_method("repro.election.omega:OmegaCore", "on_transition",
                        "election.on_transition")


async def serve(args) -> None:
    loop = asyncio.get_running_loop()
    pop = workload.population(args.workload, args.seed, args.seconds)
    eta_of = pop.eta_of()

    commands: asyncio.Queue = asyncio.Queue()
    buf = bytearray()

    def on_stdin() -> None:
        chunk = os.read(0, 4096)
        if not chunk:
            loop.remove_reader(0)
            commands.put_nowait("quit")
            return
        buf.extend(chunk)
        while b"\n" in buf:
            line, _, rest = bytes(buf).partition(b"\n")
            buf[:] = rest
            commands.put_nowait(line.decode().strip())

    loop.add_reader(0, on_stdin)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        install_tracing(tracer, loop)

    def admit(name):
        eta = eta_of.get(name)
        if eta is None:
            return None
        return detector_factory_for("nfd-s", eta, workload.DELTA), eta

    registry = MetricsRegistry()
    service = LiveMonitorService(
        loop=loop,
        origin=epoch_origin(loop),
        registry=registry,
        keep_traces=False,
        auto_admit=admit,
    )
    # The elector stays subscribed for the life of the service.
    LiveElector(service, keep_history=False)
    recorder = Recorder(service, pop.names[: pop.n_initial])
    transport = BatchedUdpMonitorTransport(
        "127.0.0.1", 0, service.on_datagram
    )
    await transport.start()
    service.start()
    port = transport.local_address[1]
    emit("bound", port, repr(time.time()))

    def snapshot():
        ru = resource.getrusage(resource.RUSAGE_SELF)
        snap = {
            "epoch": time.time(),
            "utime": ru.ru_utime,
            "stime": ru.ru_stime,
            "ctx": ru.ru_nvcsw + ru.ru_nivcsw,
            "counters": {
                k: registry.get(v).value for k, v in COUNTERS.items()
            },
            "transport_received": transport.received,
            "kernel_drops": kernel_drops(port),
            "leader_changes": registry.get(
                "election_leader_changes_total"
            ).value,
        }
        if tracer is not None:
            snap["trace"] = tracer.snapshot()
        return snap

    def cpu_now():
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return ru.ru_utime + ru.ru_stime

    marks = {}
    slices = []
    while True:
        cmd = await commands.get()
        if cmd == "tick":
            slices.append(cpu_now())
        elif cmd in ("begin", "end"):
            slices.append(cpu_now())
            marks[cmd] = snapshot()
        elif cmd == "dump":
            break
        elif cmd == "quit":
            await transport.aclose()
            return
    marks["dump"] = snapshot()
    result = {
        "marks": marks,
        "slices": slices,
        "rss_mb": peak_rss_mb(),
        "consumer_crashes": len(service.consumer_crashes),
        "events": recorder.events,
    }
    if tracer is not None:
        result["samples"] = tracer.samples
        result["missing"] = tracer.missing
        result["span_cost_s"] = spans.calibrate()
    await transport.aclose()
    emit("result", json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
