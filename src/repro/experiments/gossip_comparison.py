"""E13 (extension) — gossip vs NFD with the paper's metrics.

The paper's Section 2.3 criticizes measuring gossip-style detectors by
their "probability of premature timeouts" — implementation-specific and
incomparable across designs.  Its remedy is to measure *everything*
with the implementation-independent QoS metrics.  This experiment does
exactly that: an N-node gossip cluster and an N-node NFD-E monitoring
mesh are given the **same per-process message budget**, and both are
scored on detection time, mistake rate and query accuracy.

Budget accounting: a gossip node sends ``1/t_gossip`` vectors per time
unit; an NFD mesh member heartbeats ``N−1`` peers every η, i.e.
``(N−1)/η`` messages per time unit.  Matched budget: ``η = (N−1) ·
t_gossip``.  (Gossip's vectors are Θ(N) large, heartbeats are O(1), so
the byte-budget comparison would favour NFD even more.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.nfd_e import NFDE
from repro.experiments.common import FIG12_SETTINGS, ExperimentTable, Fig12Settings
from repro.gossip.simulation import run_gossip
from repro.metrics.qos import estimate_accuracy
from repro.sim.parallel import run_crash_runs_parallel
from repro.sim.runner import SimulationConfig, run_failure_free

__all__ = ["run_gossip_comparison"]


def run_gossip_comparison(
    n_nodes: int = 8,
    t_gossip: float = 1.0,
    t_fail: float = 6.0,
    settings: Fig12Settings = FIG12_SETTINGS,
    horizon: float = 20_000.0,
    n_crash_runs: int = 60,
    seed: int = 1313,
) -> ExperimentTable:
    """Gossip cluster vs NFD-E mesh at a matched message budget."""
    delay = settings.delay
    p_l = settings.loss_probability

    # ----- gossip: failure-free accuracy ------------------------------ #
    gossip_ff = run_gossip(
        n_nodes,
        t_gossip=t_gossip,
        t_fail=t_fail,
        delay=delay,
        loss_probability=p_l,
        horizon=horizon,
        seed=seed,
    )
    gossip_accs = [
        estimate_accuracy(t, warmup=5 * t_fail)
        for t in gossip_ff.traces.values()
    ]
    gossip_rate = float(np.mean([a.mistake_rate for a in gossip_accs]))
    gossip_pa = float(np.mean([a.query_accuracy for a in gossip_accs]))

    # ----- gossip: crash detection ------------------------------------ #
    detections = []
    for i in range(max(1, n_crash_runs // max(1, n_nodes - 1))):
        r = run_gossip(
            n_nodes,
            t_gossip=t_gossip,
            t_fail=t_fail,
            delay=delay,
            loss_probability=p_l,
            horizon=40 * t_fail,
            crash_member="n0",
            crash_time=20 * t_fail + (i % 7) * t_gossip / 7.0,
            seed=seed + 100 + i,
        )
        detections.extend(r.detection_times.values())
    gossip_td = np.asarray(detections, dtype=float)

    # ----- NFD-E at the matched budget -------------------------------- #
    # Each mesh member sends N-1 heartbeats per eta; match rates.
    eta = (n_nodes - 1) * t_gossip
    # Same detection *target* as gossip's typical: alpha tuned so NFD's
    # expected detection time (bound − η/2 over a uniform crash phase)
    # equals gossip's observed mean T_D — equal speed, compare accuracy.
    target_td = float(np.mean(gossip_td)) if gossip_td.size else t_fail
    alpha = max(
        target_td - eta / 2.0 - settings.mean_delay, 0.1 * eta
    )
    config = SimulationConfig(
        eta=eta,
        delay=delay,
        loss_probability=p_l,
        horizon=horizon,
        warmup=5 * (eta + alpha),
        seed=seed + 1,
    )
    nfd_ff = run_failure_free(
        lambda: NFDE(eta=eta, alpha=alpha, window=32), config
    )
    crash_cfg = SimulationConfig(
        eta=eta,
        delay=delay,
        loss_probability=p_l,
        horizon=30 * eta,
        seed=seed + 2,
    )
    nfd_crash = run_crash_runs_parallel(
        lambda: NFDE(eta=eta, alpha=alpha, window=32),
        crash_cfg,
        n_runs=n_crash_runs,
        jobs=1,
        settle_time=5 * (eta + alpha),
    )

    table = ExperimentTable(
        title=(
            f"Gossip (N={n_nodes}, T_gossip={t_gossip:g}, T_fail={t_fail:g}) "
            f"vs NFD-E mesh at matched per-process message budget"
        ),
        columns=[
            "detector",
            "msgs/s/process",
            "mean T_D",
            "max T_D",
            "mistake rate",
            "P_A",
        ],
    )
    table.add_row(
        "gossip",
        gossip_ff.per_process_send_rate,
        float(gossip_td.mean()) if gossip_td.size else None,
        float(gossip_td.max()) if gossip_td.size else None,
        gossip_rate,
        gossip_pa,
    )
    table.add_row(
        f"NFD-E mesh (eta={eta:g}, alpha={alpha:g})",
        (n_nodes - 1) / eta,
        nfd_crash.mean_detection_time,
        nfd_crash.max_detection_time,
        nfd_ff.accuracy.mistake_rate,
        nfd_ff.accuracy.query_accuracy,
    )
    table.add_note(
        "budgets matched in messages/s; gossip messages are Theta(N) "
        "bytes vs O(1) heartbeats, so a byte-budget match would shift "
        "further toward NFD"
    )
    table.add_note(
        "NFD-E's alpha is set so its *expected* detection time equals "
        "gossip's observed mean T_D (equal speed -> compare accuracy)"
    )
    table.add_note(
        "expected shape: gossip's staleness timeout turns every slow "
        "propagation into a recorded mistake and has no hard T_D bound; "
        "NFD keeps a deterministic bound and is the more accurate "
        "detector at equal speed here (and wins outright per byte)"
    )
    return table
