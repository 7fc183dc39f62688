"""E11 — the φ-accrual descendant vs the paper's NFD-E.

The φ-accrual detector (Hayashibara et al. 2004 — the design behind
Akka's and Cassandra's failure detectors) descends directly from this
paper's QoS framework.  This experiment runs both on the Section 7
workload at several thresholds Φ and reports the paper's primary
metrics, measured with the event-driven simulator (φ-accrual's
data-dependent timers do not vectorize).

The instructive outcome: φ-accrual spans a *family* of operating points
(one per Φ) on the detection-time/accuracy trade-off, while NFD-E with a
configured (η, α) hits a *contracted* point — detection time bounded by
construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.jacobson import JacobsonFD
from repro.core.nfd_e import NFDE
from repro.core.phi_accrual import PhiAccrualFD
from repro.experiments.common import FIG12_SETTINGS, ExperimentTable, Fig12Settings
from repro.sim.parallel import run_crash_runs_parallel
from repro.sim.runner import SimulationConfig, run_failure_free

__all__ = ["run_phi_comparison"]


def run_phi_comparison(
    tdu: float = 2.0,
    thresholds: Optional[Sequence[float]] = None,
    settings: Fig12Settings = FIG12_SETTINGS,
    horizon: float = 30_000.0,
    n_crash_runs: int = 100,
    seed: int = 1111,
) -> ExperimentTable:
    """φ-accrual (several Φ) vs NFD-E on the Section 7 workload."""
    if thresholds is None:
        thresholds = [1.0, 2.0, 4.0, 8.0]
    eta = settings.eta
    alpha = tdu - settings.mean_delay - eta

    config = SimulationConfig(
        eta=eta,
        delay=settings.delay,
        loss_probability=settings.loss_probability,
        horizon=horizon,
        warmup=50.0,
        seed=seed,
    )
    crash_config = SimulationConfig(
        eta=eta,
        delay=settings.delay,
        loss_probability=settings.loss_probability,
        horizon=100.0,
        seed=seed + 1,
    )

    table = ExperimentTable(
        title=(
            f"phi-accrual vs NFD-E on the Section 7 workload "
            f"(eta={eta}, p_L={settings.loss_probability}, horizon={horizon:g})"
        ),
        columns=[
            "detector",
            "E(T_MR)",
            "E(T_M)",
            "P_A",
            "mean T_D",
            "max T_D",
        ],
    )

    cases = [
        (
            f"NFD-E (alpha={alpha:g})",
            lambda: NFDE(eta=eta, alpha=alpha, window=settings.nfde_window),
        )
    ]
    for phi in thresholds:
        cases.append(
            (
                f"phi-accrual (phi={phi:g})",
                lambda phi=phi: PhiAccrualFD(
                    threshold=phi, window=200, bootstrap_interval=eta
                ),
            )
        )
    cases.append(
        (
            "jacobson (k=4)",
            lambda: JacobsonFD(k=4.0, bootstrap_interval=eta),
        )
    )

    for name, factory in cases:
        acc = run_failure_free(factory, config).accuracy
        crash = run_crash_runs_parallel(
            factory,
            crash_config,
            n_runs=n_crash_runs,
            jobs=1,
            settle_time=50.0,
        )
        table.add_row(
            name,
            acc.e_tmr,
            acc.e_tm,
            acc.query_accuracy,
            crash.mean_detection_time,
            crash.max_detection_time,
        )
    table.add_note(
        "NFD-E's max T_D is bounded by construction (alpha + eta + E(D)); "
        "phi-accrual trades detection speed for accuracy via the "
        "threshold with no hard bound"
    )
    return table
