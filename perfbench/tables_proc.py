"""The system under test for the ``tables`` workload: seed in, tables out.

One process, ``jobs=1``: Fig. 12 at T_D^U ∈ {1, 2, 3} (``run_fig12``,
``target_mistakes=200``), E7 (``run_detection_time``) and E18a
(``theorem5_table``), all seeded from ``--seed``.  The path splits its
time between NumPy kernels (fastsim, Fig. 12) and the pure-Python
discrete-event simulator (E7, E18a).

Prints ``ready <epoch>`` just before the first experiment call (with
``--probe`` it then exits: a set-up sample) and ``result <json>`` after
the last table.  Run by ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import time
import weakref

from repro.experiments.detection_time import run_detection_time
from repro.experiments.fig12 import fig12_tm_table, fig12_tmr_table, run_fig12
from repro.experiments.wan_exp import WanSettings, theorem5_table
from repro.metrics.confidence import mean_ci
from repro.sim.heartbeat import HeartbeatSender

import spans
from child import emit, peak_rss_mb

TDU = (1.0, 2.0, 3.0)
TARGET_MISTAKES = 200
BAND_LEVEL = 0.99


class SentCounter:
    """Heartbeats sent by every discrete-event sender of the run.

    Counted once per sender (at collection, or at the end for senders
    still alive), never per heartbeat, so the untraced run pays nothing
    measurable for it.
    """

    def __init__(self) -> None:
        self.total = 0
        self._live = weakref.WeakSet()
        counter = self
        start = HeartbeatSender.start

        def counted_start(sender):
            counter._live.add(sender)
            return start(sender)

        def on_del(sender):
            counter.total += sender.sent_count

        HeartbeatSender.start = counted_start
        HeartbeatSender.__del__ = on_del

    def finish(self) -> int:
        gc.collect()
        return self.total + sum(s.sent_count for s in list(self._live))


def install_tracing(tracer: spans.Tracer) -> None:
    for kernel in ("simulate_nfds_fast", "simulate_nfde_fast",
                   "simulate_nfdu_fast", "simulate_sfd_fast"):
        tracer.patch_function("repro.sim.fastsim", kernel, "sim.fastsim",
                              sample=lambda a, r: r.n_heartbeats)
    tracer.patch_method("repro.sim.engine:Simulator", "run_until",
                        "sim.engine.run")
    schedule_at = getattr(
        tracer._resolve("repro.sim.engine:Simulator"), "schedule_at", None
    )
    if schedule_at is None:
        tracer.missing.append("sim.engine: Simulator.schedule_at")
    else:
        def counted(self, *args, **kwargs):
            tracer.count("sim.engine.events")
            return schedule_at(self, *args, **kwargs)

        tracer._resolve("repro.sim.engine:Simulator").schedule_at = counted
    for fn in ("run_failure_free", "run_crash_runs"):
        tracer.patch_function("repro.sim.runner", fn, "sim.runner")
    for fn in ("run_failure_free_parallel", "run_crash_runs_parallel"):
        tracer.patch_function("repro.sim.parallel", fn, "sim.runner")
    tracer.patch_method("repro.net.wan.relay:RoutedWanLink", "transmit",
                        "net.wan.transmit")
    for method in ("e_tmr", "e_tm", "query_accuracy"):
        tracer.patch_method("repro.analysis.nfds_theory:NFDSAnalysis",
                            method, "analysis")
    for fn in ("predict_route", "within_theorem5_band",
               "detection_within_bound"):
        tracer.patch_function("repro.net.wan.analysis", fn, "analysis")
    for fn in ("estimate_accuracy", "pool_accuracy"):
        tracer.patch_function("repro.metrics.qos", fn, "metrics")
    tracer.patch_function("repro.metrics.confidence", "mean_ci", "metrics")


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_set(seed: int, sent: SentCounter) -> dict:
    """One Fig. 12 + E7 + E18a pass, with its cost."""
    des0 = sent.finish()
    wall0, cpu0 = time.perf_counter(), cpu_s()
    points = run_fig12(
        list(TDU), target_mistakes=TARGET_MISTAKES, seed=seed, jobs=1
    )
    wall1 = time.perf_counter()
    e7 = run_detection_time(seed=seed, jobs=1)
    wall2 = time.perf_counter()
    e18a = theorem5_table(WanSettings(seed=seed), jobs=1)
    wall3, cpu3 = time.perf_counter(), cpu_s()
    return {
        "tables": (points, e7, e18a),
        "text": {
            "fig12_tmr": fig12_tmr_table(points).to_text(),
            "fig12_tm": fig12_tm_table(points).to_text(),
            "e7": e7.to_text(),
            "e18a": e18a.to_text(),
        },
        "wall_s": wall3 - wall0,
        "cpu_s": cpu3 - cpu0,
        "experiment_s": {"fig12": wall1 - wall0, "e7": wall2 - wall1,
                         "e18a": wall3 - wall2},
        "fastsim_hb": int(sum(
            r.n_heartbeats
            for p in points
            for r in (p.nfds, p.nfde, p.sfd_l, p.sfd_s)
        )),
        "des_hb": int(sent.finish() - des0),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    sent = SentCounter()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        install_tracing(tracer)
    emit("ready", repr(time.time()))
    if args.probe:
        return

    run = table_set(args.seed, sent)
    points, e7, e18a = run["tables"]
    tables = run["text"]

    # Sure bounds: a failing row is a wrong result, whatever the seed.
    # NFD-E's bound is relative (it holds in expectation over the
    # arrival-estimation noise, as the E7 table notes), so its row is
    # counted with the statistical bands instead.
    checks, violations = 0, []
    band_rows = band_in = 0
    for row in e7.rows:
        bound = float(row[e7.columns.index("bound")])
        held = row[e7.columns.index("bound held")] == "yes"
        if str(row[0]).startswith("NFD-E"):
            band_rows += 1
            band_in += held
        elif math.isfinite(bound):
            checks += 1
            if not held:
                violations.append(f"E7 {row[0]}: bound {bound} not held")
    for row in e18a.rows:
        checks += 1
        if row[e18a.columns.index("T_D<=bound")] != "yes":
            violations.append(f"E18a {row[0]}: T_D bound not held")

    # 99 % bands fail about once in a hundred rows by design: counted.
    for row in e18a.rows:
        band_rows += 1
        band_in += row[e18a.columns.index("in band")] == "yes"
    for p in points:
        samples = p.nfds.tmr_samples
        if samples.size >= 2:
            band_rows += 1
            ci = mean_ci(samples, BAND_LEVEL)
            band_in += ci.low <= p.analytic_tmr <= ci.high or math.isclose(
                ci.point, p.analytic_tmr, rel_tol=1e-9
            )

    result = {
        "tables_s": run["wall_s"],
        "experiment_s": run["experiment_s"],
        "fastsim_heartbeats": run["fastsim_hb"],
        "des_heartbeats": run["des_hb"],
        "cpu_s": run["cpu_s"],
        "heartbeats": run["fastsim_hb"] + run["des_hb"],
        "checks": checks,
        "failed": len(violations),
        "violations": violations,
        "band_rows": band_rows,
        "band_in": int(band_in),
        "sha256": {name: sha(text) for name, text in tables.items()},
        "rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = layers(tracer, run["experiment_s"], run["cpu_s"])
        result["missing"] = tracer.missing
    emit("result", json.dumps(result, default=float))


def layers(tracer, experiment_s, busy_s):
    stats = tracer.stats

    def get(name):
        return stats.get(name, [0, 0.0, 0.0])

    fastsim = get("sim.fastsim")
    engine = get("sim.engine.run")
    events = tracer.counts.get("sim.engine.events", 0)
    n_spans = sum(v[0] for v in stats.values()) + events
    return {
        "experiments.fig12_s": experiment_s["fig12"],
        "experiments.e7_s": experiment_s["e7"],
        "experiments.e18a_s": experiment_s["e18a"],
        "sim.fastsim.hb_per_s": (
            sum(tracer.samples.get("sim.fastsim", [])) / fastsim[1]
            if fastsim[1] > 0 else 0.0
        ),
        "sim.fastsim.self_s": fastsim[2],
        "sim.engine.events_per_s": events / engine[1] if engine[1] else 0.0,
        "sim.runner.self_s": get("sim.runner")[2],
        "net.wan.transmits": float(get("net.wan.transmit")[0]),
        "net.wan.self_s": get("net.wan.transmit")[2],
        "analysis.self_s": get("analysis")[2],
        "metrics.self_s": get("metrics")[2],
        "trace.overhead_share": n_spans * spans.calibrate() / busy_s,
        "trace.missing": float(len(tracer.missing)),
    }


if __name__ == "__main__":
    main()
