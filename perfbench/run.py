"""The repository benchmark: one entry point, one named workload per run.

    python3 perfbench/run.py --workload {incast,fleet,tables} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program under test is imported from
``src/`` (pure Python, nothing to build).  ``incast`` and ``fleet`` run
the live monitor as its own process (``monitor_proc.py``) and drive it
from this process, which is the load generator: one UDP socket, no
threads, open loop on each sender's ``σ_i = i·η`` grid, every heartbeat
timed from when it was due.  ``tables`` runs the seed-to-table path in
its own process (``tables_proc.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(see ``BENCHMARK.json``).  The line before it, starting with ``info``,
carries every other figure: verdict latencies, loss and error ratios,
table hashes, the environment stamp.  A run that cannot check its
results, or whose generator ran too late to be valid, exits non-zero
without a result line.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import select
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up is measured this many times per run; the median is reported.
SETUP_REPS = 5
#: a run whose generator sent its p99 heartbeat later than this is
#: invalid: the load it offered is not the load the workload declares.
MAX_GEN_LATE_MS = 50.0
#: deadline for one monitor (or tables process) to become ready.
READY_TIMEOUT_S = 60.0
#: the measured window is cut into slices this long; CPU per heartbeat
#: is the median over slices, so a transient stall of the machine moves
#: one slice, not the result.
SLICE_S = 1.0
#: quiet period after the window so queued datagrams are dispatched
#: before the final counters are read.
DRAIN_S = 0.05

LIVE = ("incast", "fleet")
WORKLOADS = LIVE + ("tables",)

END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MB",
    "cpu_us_per_hb": "us",
}

PER_LAYER = {
    "live.transport.wakeups_per_hb": "1/hb",
    "live.transport.self_us_per_hb": "us",
    "live.transport.kernel_drops": "count",
    "live.monitor.batch_p50": "count",
    "live.monitor.self_us_per_hb": "us",
    "live.monitor.inbox_shed": "count",
    "live.monitor.admit_ms_p50": "ms",
    "live.monitor.restart_ms_p50": "ms",
    "live.wire.decode_us_per_hb": "us",
    "live.wire.invalid": "count",
    "estimation.observe_us_per_hb": "us",
    "live.runtime.deliver_us_per_hb": "us",
    "core.self_us_per_hb": "us",
    "loop.timers_armed_per_hb": "1/hb",
    "service.soa.ingest_calls": "count",
    "service.soa.rows_per_ingest": "count",
    "service.soa.ingest_us_per_hb": "us",
    "service.soa.advance_us_per_call": "us",
    "telemetry.observe_us_per_transition": "us",
    "election.on_transition_us": "us",
    "election.leader_changes": "count",
    "loop.timer_late_ms_p99": "ms",
    "loop.unattributed_us_per_hb": "us",
    "proc.sys_share": "ratio",
    "proc.ctx_switches_per_s": "1/s",
    "gen.late_ms_p99": "ms",
    "gen.sent": "count",
    "gen.scripted_drops": "count",
    "experiments.fig12_s": "s",
    "experiments.e7_s": "s",
    "experiments.e18a_s": "s",
    "sim.fastsim.hb_per_s": "1/s",
    "sim.fastsim.self_s": "s",
    "sim.engine.events_per_s": "1/s",
    "sim.runner.self_s": "s",
    "net.wan.transmits": "count",
    "net.wan.self_s": "s",
    "analysis.self_s": "s",
    "metrics.self_s": "s",
    "trace.overhead_share": "ratio",
    "trace.missing": "count",
}


class BenchError(Exception):
    """The run cannot produce a checked result (exit code 2)."""


class InvalidRun(Exception):
    """The run measured something other than the workload (exit 3)."""


# ---------------------------------------------------------------------- #
# Small helpers
# ---------------------------------------------------------------------- #


def pct(values, q: float) -> float:
    """The q-th percentile (0..100), linear interpolation; NaN if empty."""
    if not values:
        return math.nan
    xs = sorted(values)
    k = (len(xs) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def environment() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    try:
        with open("/proc/sys/net/core/rmem_default") as fh:
            rmem = int(fh.read().split()[0])
    except OSError:
        rmem = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "network": "loopback",
        "net.core.rmem_default": rmem,
    }


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


class Child:
    """A benchmark child process speaking the line protocol."""

    def __init__(self, argv: List[str], cpu: Optional[int] = None) -> None:
        self.spawned_at = time.time()
        self.proc = subprocess.Popen(
            [sys.executable] + argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=child_env(),
            preexec_fn=None if cpu is None else (
                lambda: os.sched_setaffinity(0, {cpu})
            ),
        )
        self.fd = self.proc.stdout.fileno()
        os.set_blocking(self.fd, False)
        self._buf = b""
        self.lines: List[str] = []

    def poll_lines(self, timeout: float) -> None:
        """Wait up to ``timeout`` for output and collect whole lines."""
        ready, _, _ = select.select([self.fd], [], [], max(timeout, 0.0))
        if not ready:
            return
        chunk = os.read(self.fd, 1 << 20)
        if not chunk:
            raise BenchError(
                f"child exited with code {self.proc.wait()}"
            )
        self._buf += chunk
        while b"\n" in self._buf:
            line, self._buf = self._buf.split(b"\n", 1)
            self.lines.append(line.decode())

    def take(self, tag: str) -> Optional[str]:
        for k, line in enumerate(self.lines):
            if line.startswith(tag + " "):
                del self.lines[k]
                return line[len(tag) + 1:]
        return None

    def wait_for(self, tag: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            got = self.take(tag)
            if got is not None:
                return got
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"timed out waiting for {tag!r}")
            self.poll_lines(min(left, 0.5))

    def send(self, command: str) -> None:
        self.proc.stdin.write((command + "\n").encode())
        self.proc.stdin.flush()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("quit")
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


# ---------------------------------------------------------------------- #
# Live workloads
# ---------------------------------------------------------------------- #


class Generator:
    """Open-loop heartbeat source: one UDP socket, no threads."""

    def __init__(self, pop) -> None:
        from repro.live.wire import HeartbeatEncoder

        self.pop = pop
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._encoder = HeartbeatEncoder
        self._encoders: Dict[tuple, object] = {}
        self.addr = None
        self.errors = 0

    def target(self, port: int) -> None:
        self.addr = ("127.0.0.1", port)

    def encode(self, k: int, inc: int, seq: int) -> bytes:
        enc = self._encoders.get((k, inc))
        if enc is None:
            enc = self._encoder(self.pop.names[k], inc)
            self._encoders[(k, inc)] = enc
        return enc.encode(seq, seq * self.pop.etas[k])

    def send(self, payload: bytes) -> None:
        try:
            self.sock.sendto(payload, self.addr)
        except OSError:
            self.errors += 1

    @staticmethod
    def wait_until(due: float, child: Child) -> None:
        while True:
            left = due - time.time()
            if left <= 0.0002:
                return
            child.poll_lines(left - 0.0002)

    def steady(self, child: Child, until, stop=None) -> None:
        """Every initial sender on its grid, no script, until epoch
        ``until`` or until ``stop()`` holds."""
        import heapq

        now = time.time()
        heap = []
        for k in range(self.pop.n_initial):
            eta = self.pop.etas[k]
            seq = math.ceil(now / eta)
            heap.append((seq * eta, k, seq))
        heapq.heapify(heap)
        while heap:
            due, k, seq = heap[0]
            if due >= until or (stop is not None and stop()):
                return
            self.wait_until(due, child)
            self.send(self.encode(k, 0, seq))
            heapq.heapreplace(
                heap, ((seq + 1) * self.pop.etas[k], k, seq + 1)
            )

    def window(self, sched, child: Child, t0: float, t1: float):
        """Send the scripted window, marking a CPU slice at every
        ``SLICE_S`` boundary; returns per-event lateness (s) and the
        heartbeats sent per slice."""
        import numpy as np

        from workload import HB, JUNK

        due = sched.due.tolist()
        kind = sched.kind.tolist()
        sender = sched.sender.tolist()
        inc = sched.incarnation.tolist()
        seq = sched.seq.tolist()
        late = np.empty(len(due))
        junk = iter(sched.junk)
        bounds = slice_bounds(t0, t1)
        per_slice = [0] * (len(bounds) - 1)
        k = 0
        child.send("begin")
        for n in range(len(due)):
            while k + 1 < len(bounds) - 1 and due[n] >= bounds[k + 1]:
                k += 1
                self.wait_until(bounds[k], child)
                child.send("tick")
            self.wait_until(due[n], child)
            if kind[n] == JUNK:
                payload = next(junk)
            else:
                payload = self.encode(sender[n], inc[n], seq[n])
            self.send(payload)
            late[n] = time.time() - due[n]
            if kind[n] == HB:
                per_slice[k] += 1
        while k + 1 < len(bounds) - 1:
            k += 1
            self.wait_until(bounds[k], child)
            child.send("tick")
        self.wait_until(t1, child)
        child.send("end")
        return late, per_slice


def slice_bounds(t0: float, t1: float) -> List[float]:
    """``t0, t0 + SLICE_S, ..., t1``; a short remainder joins the last."""
    n = max(int((t1 - t0) / SLICE_S + 1e-9), 1)
    return [t0 + k * SLICE_S for k in range(n)] + [t1]


def monitor_argv(args) -> List[str]:
    return [
        os.path.join(HERE, "monitor_proc.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]


def run_live(args) -> Dict[str, object]:
    import workload
    from oracle import Verdict, match

    pop = workload.population(args.workload, args.seed, args.seconds)
    gen = Generator(pop)
    setups: List[float] = []
    child = None
    # Generator and monitor each keep a core of their own, so neither
    # is migrated onto the other's core mid-window.
    cpus = sorted(os.sched_getaffinity(0))
    monitor_cpu = cpus[-1] if len(cpus) >= 2 else None
    if monitor_cpu is not None:
        os.sched_setaffinity(0, set(cpus[:-1]))
    # A collector pass over the schedule would stall the open loop for
    # tens of milliseconds; the generator allocates little, so it runs
    # without one.
    gc.disable()
    try:
        for rep in range(SETUP_REPS):
            if child is not None:
                child.close()
            child = Child(monitor_argv(args), monitor_cpu)
            port, _ = child.wait_for("bound", READY_TIMEOUT_S).split()
            gen.target(int(port))
            gen.steady(
                child,
                until=child.spawned_at + READY_TIMEOUT_S,
                stop=lambda: any(
                    line.startswith("trusted ") for line in child.lines
                ),
            )
            trusted_at = child.take("trusted")
            if trusted_at is None:
                raise BenchError("monitor never trusted every initial sender")
            setups.append(float(trusted_at) - child.spawned_at)
        # The script is drawn now; sending pauses while it is built and
        # the lead-in gives every sender time to be trusted again.
        t0 = time.time() + 1.5
        t1 = t0 + args.seconds
        sched = workload.schedule(pop, args.seed, t0, t1)
        gc.collect()
        gc.freeze()
        gen.steady(child, until=t0)
        late, per_slice = gen.window(sched, child, t0, t1)
        hb_window = sum(per_slice)
        time.sleep(DRAIN_S)
        child.send("dump")
        result = json.loads(child.wait_for("result", READY_TIMEOUT_S))
    finally:
        gc.enable()
        os.sched_setaffinity(0, cpus)
        if child is not None:
            child.close()
        gen.sock.close()

    late_ms_p99 = pct(late.tolist(), 99) * 1e3
    if not late_ms_p99 <= MAX_GEN_LATE_MS:
        raise InvalidRun(
            f"generator p99 lateness {late_ms_p99:.1f} ms exceeds "
            f"{MAX_GEN_LATE_MS} ms"
        )

    verdicts = [
        Verdict(t, name, out, inc)
        for t, name, out, inc, admin in result["events"]
        if not admin
    ]
    outcome = match(sched.streams, verdicts, t_start=t0, t_end=t1)
    marks = result["marks"]
    begin, end, dump = marks["begin"], marks["end"], marks["dump"]
    cpu_s = (end["utime"] + end["stime"]) - (begin["utime"] + begin["stime"])
    counters = dump["counters"]

    def delta(key):
        return counters[key] - begin["counters"][key]

    # Window accounting, begin mark to final read: datagrams in flight
    # at the begin mark shift a handful of heartbeats either way.
    lost = max(hb_window - delta("dispatched") - delta("prewindow"), 0)
    if dump["kernel_drops"] is not None and begin["kernel_drops"] is not None:
        kernel = dump["kernel_drops"] - begin["kernel_drops"]
    else:
        kernel = max(
            len(sched.due)
            - (dump["transport_received"] - begin["transport_received"]),
            0,
        )

    checks = outcome.checks
    violations = list(outcome.violations)
    for ok, what in (
        (counters["unknown"] == 0, "heartbeats from unknown senders"),
        (result["consumer_crashes"] == 0, "inbox consumer crashed"),
        (counters["invalid"] <= len(sched.junk), "valid datagrams rejected"),
    ):
        checks += 1
        if not ok:
            violations.append(what)

    lat = {k: [x * 1e3 for x in v] for k, v in outcome.latency.items()}
    suspect = lat.get("gap", []) + lat.get("crash", [])
    info = {
        "trust_ms_p50": pct(lat.get("recover", []), 50),
        "trust_ms_p99": pct(lat.get("recover", []), 99),
        "suspect_ms_p50": pct(suspect, 50),
        "suspect_ms_p99": pct(suspect, 99),
        "restart_ms_p50": pct(lat.get("restart", []), 50),
        "restart_ms_p90": pct(lat.get("restart", []), 90),
        "admit_ms_p50": pct(lat.get("admit", []), 50),
        "samples": {k: len(v) for k, v in lat.items()},
        "hb_lost_ratio": lost / max(hb_window, 1),
        "kernel_drops": kernel,
        "inbox_shed": delta("inbox_shed"),
        "verdict_error_ratio": outcome.error_ratio,
        "expected_verdicts": outcome.expected,
        "spurious_s": outcome.spurious_s,
        "spurious_t": outcome.spurious_t,
        "missing": outcome.missing,
        "gen_late_ms_p50": pct(late.tolist(), 50) * 1e3,
        "gen_late_ms_p99": late_ms_p99,
        "gen_send_errors": gen.errors,
        "script": {
            "drops": sched.scripted_drops,
            "crashes": sched.crashes,
            "restarts": sched.restarts,
            "restarts_seen": delta("restarts"),
            "admissions": sched.admissions,
            "junk": len(sched.junk),
        },
        "setup_s_samples": setups,
        "violations": violations[:20],
    }
    cpu = result["slices"]
    slice_cost = [
        (cpu[k + 1] - cpu[k]) / n * 1e6
        for k, n in enumerate(per_slice)
        if n > 0
    ]
    if len(slice_cost) != len(per_slice):
        raise BenchError("a CPU slice without heartbeats")
    info["cpu_us_per_hb_window"] = cpu_s / max(hb_window, 1) * 1e6
    info["cpu_us_per_hb_slices"] = [round(c, 3) for c in slice_cost]
    e2e = {
        "setup_s": statistics.median(setups),
        "rss_mb": result["rss_mb"],
        "cpu_us_per_hb": statistics.median(slice_cost),
    }
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update({
        "gen.late_ms_p99": late_ms_p99,
        "gen.sent": float(hb_window),
        "gen.scripted_drops": float(sched.scripted_drops),
        "live.transport.kernel_drops": float(kernel),
        "live.monitor.inbox_shed": float(delta("inbox_shed")),
        "live.wire.invalid": float(delta("invalid")),
        "live.monitor.admit_ms_p50": _nan0(info["admit_ms_p50"]),
        "live.monitor.restart_ms_p50": _nan0(info["restart_ms_p50"]),
        "election.leader_changes": float(
            end["leader_changes"] - begin["leader_changes"]
        ),
    })
    window_s = end["epoch"] - begin["epoch"]
    stime = end["stime"] - begin["stime"]
    layers["proc.sys_share"] = stime / cpu_s if cpu_s > 0 else 0.0
    layers["proc.ctx_switches_per_s"] = (end["ctx"] - begin["ctx"]) / window_s
    if args.trace:
        layers.update(_live_layers(result, begin, end, cpu_s, hb_window))
        info["trace_missing"] = result["missing"]
    return {
        "attempted": checks,
        "failed": len(violations),
        "e2e": e2e,
        "layers": layers,
        "info": info,
    }


def _nan0(x: float) -> float:
    return 0.0 if math.isnan(x) else x


def _live_layers(result, begin, end, cpu_s, hb) -> Dict[str, float]:
    import spans

    win = spans.window(begin["trace"], end["trace"])
    stats, counts = win["stats"], win["counts"]

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def window_samples(name):
        lo = begin["trace"]["sample_len"].get(name, 0)
        hi = end["trace"]["sample_len"].get(name, 0)
        return result["samples"].get(name, [])[lo:hi]

    per_hb = 1e6 / max(hb, 1)
    n_spans = sum(v[0] for v in stats.values())
    overhead = n_spans * result["span_cost_s"]
    ingest_rows = window_samples("service.soa.ingest")
    transitions = calls("telemetry.observe")
    elections = calls("election.on_transition")
    return {
        "live.transport.wakeups_per_hb":
            calls("live.transport.readable") / max(hb, 1),
        "live.transport.self_us_per_hb":
            self_s("live.transport.readable") * per_hb,
        "live.monitor.batch_p50":
            _nan0(pct(window_samples("live.monitor.dispatch"), 50)),
        "live.monitor.self_us_per_hb": self_s(
            "live.monitor.enqueue", "live.monitor.dispatch",
            "live.monitor.admit", "live.monitor.finalize",
            "live.monitor.start_incarnation",
        ) * per_hb,
        "live.wire.decode_us_per_hb": self_s("live.wire.decode") * per_hb,
        "estimation.observe_us_per_hb":
            self_s("estimation.observe") * per_hb,
        "live.runtime.deliver_us_per_hb":
            self_s("live.runtime.deliver", "live.runtime.prepare") * per_hb,
        "core.self_us_per_hb":
            self_s("core.on_heartbeat", "core.timer") * per_hb,
        "loop.timers_armed_per_hb":
            counts.get("loop.timers_armed", 0) / max(hb, 1),
        "service.soa.ingest_calls": float(calls("service.soa.ingest")),
        "service.soa.rows_per_ingest": _nan0(pct(ingest_rows, 50)),
        "service.soa.ingest_us_per_hb":
            self_s("service.soa.ingest") * per_hb,
        "service.soa.advance_us_per_call": self_s("service.soa.advance")
            / max(calls("service.soa.advance"), 1) * 1e6,
        "telemetry.observe_us_per_transition":
            self_s("telemetry.observe") / max(transitions, 1) * 1e6,
        "election.on_transition_us":
            self_s("election.on_transition") / max(elections, 1) * 1e6,
        "loop.timer_late_ms_p99":
            _nan0(pct(window_samples("loop.timer_late_s"), 99)) * 1e3,
        "loop.unattributed_us_per_hb":
            max(cpu_s - win["top_level_s"], 0.0) * per_hb,
        "trace.overhead_share": overhead / cpu_s if cpu_s > 0 else 0.0,
        "trace.missing": float(len(result["missing"])),
    }


# ---------------------------------------------------------------------- #
# Tables workload
# ---------------------------------------------------------------------- #


def run_tables(args) -> Dict[str, object]:
    argv = [os.path.join(HERE, "tables_proc.py"), "--seed", str(args.seed)]
    setups: List[float] = []
    for _ in range(SETUP_REPS - 1):
        child = Child(argv + ["--probe"])
        try:
            ready = float(child.wait_for("ready", READY_TIMEOUT_S))
            setups.append(ready - child.spawned_at)
        finally:
            child.close()
    child = Child(argv + ["--trace", str(args.trace)])
    try:
        ready = float(child.wait_for("ready", READY_TIMEOUT_S))
        setups.append(ready - child.spawned_at)
        result = json.loads(child.wait_for("result", 170.0))
    finally:
        child.close()
    info = {
        "tables_s": result["tables_s"],
        "check_fail_ratio": result["failed"] / max(result["checks"], 1),
        "band_rows": result["band_rows"],
        "band_in": result["band_in"],
        "sha256": result["sha256"],
        "simulated_heartbeats": result["heartbeats"],
        "fastsim_heartbeats": result["fastsim_heartbeats"],
        "des_heartbeats": result["des_heartbeats"],
        "experiment_s": result["experiment_s"],
        "setup_s_samples": setups,
        "violations": result["violations"],
    }
    e2e = {
        "setup_s": statistics.median(setups),
        "rss_mb": result["rss_mb"],
        "cpu_us_per_hb": result["cpu_s"] / max(result["heartbeats"], 1)
        * 1e6,
    }
    layers = {name: 0.0 for name in PER_LAYER}
    layers.update(result.get("layers", {}))
    return {
        "attempted": result["checks"],
        "failed": result["failed"],
        "e2e": e2e,
        "layers": layers,
        "info": info,
    }


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, SRC)
    try:
        out = run_tables(args) if args.workload == "tables" else run_live(args)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = dict(out["info"])
    info["environment"] = environment()
    info["workload"] = args.workload
    info["seed"] = args.seed
    info["trace"] = args.trace
    print("info " + json.dumps(info, sort_keys=True, default=str))
    if args.trace:
        values, units = out["layers"], PER_LAYER
    else:
        values, units = out["e2e"], END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
