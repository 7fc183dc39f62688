"""E6 — Theorem 6 empirically: NFD-S has the best query accuracy.

Among all detectors that (a) send heartbeats every η and (b) guarantee
``T_D ≤ T_D^U``, NFD-S with ``δ = T_D^U − η`` maximizes ``P_A``.  We
check the claim against every competitor in this library that satisfies
(a) and (b): the cutoff SFDs at several cutoffs, and NFD-S itself with a
*sub-optimal* (smaller) δ — all measured on the same workload.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.nfds_theory import NFDSAnalysis
from repro.experiments.common import (
    FIG12_SETTINGS,
    ExperimentTable,
    Fig12Settings,
    steady_state_warmup,
)
from repro.sim.fastsim import (
    FastAccuracyResult,
    simulate_nfds_fast,
    simulate_sfd_fast,
)
from repro.sim.parallel import parallel_map

__all__ = ["run_optimality"]


def run_optimality(
    tdu: float = 2.0,
    settings: Fig12Settings = FIG12_SETTINGS,
    cutoffs: Optional[Sequence[float]] = None,
    target_mistakes: int = 2000,
    max_heartbeats: int = 20_000_000,
    seed: int = 606,
    jobs: Optional[int] = 1,
) -> ExperimentTable:
    """Compare ``P_A`` across same-rate, same-detection-bound detectors.

    ``jobs`` fans the table rows out over worker processes; the rows
    (and their seeds) are identical to serial evaluation.
    """
    if cutoffs is None:
        cutoffs = [0.04, 0.08, 0.16, 0.32, 0.64]
    eta = settings.eta
    p_l = settings.loss_probability
    delay = settings.delay
    delta_star = tdu - eta

    table = ExperimentTable(
        title=(
            f"Theorem 6 (optimality): P_A at equal rate eta={eta} and "
            f"equal detection bound T_D^U={tdu}"
        ),
        columns=["detector", "P_A (sim)", "1-P_A (sim)", "E(T_MR)", "E(T_M)"],
    )

    # One entry per table row; each is (label, kind, parameter, seed) so
    # the fan-out reproduces exactly the serial seeds and ordering.  The
    # sub-optimal NFD-S rows show delta = T_D^U - eta is the right
    # choice within the NFD family too.
    cases = [(f"NFD-S* (delta={delta_star:g})", "nfds", delta_star, seed)]
    for frac in (0.5, 0.75):
        delta = delta_star * frac
        cases.append((f"NFD-S (delta={delta:g})", "nfds", delta, seed + 1))
    for c in cutoffs:
        if c >= tdu:
            continue
        cases.append((f"SFD (c={c:g})", "sfd", c, seed + 2))

    def run_case(case) -> FastAccuracyResult:
        _label, kind, param, case_seed = case
        common = dict(
            loss_probability=p_l,
            delay=delay,
            seed=case_seed,
            target_mistakes=target_mistakes,
            max_heartbeats=max_heartbeats,
        )
        if kind == "nfds":
            return simulate_nfds_fast(
                eta=eta,
                delta=param,
                warmup=steady_state_warmup(eta, delta=param),
                **common,
            )
        return simulate_sfd_fast(
            eta=eta,
            timeout=tdu - param,
            cutoff=param,
            warmup=steady_state_warmup(
                eta, timeout=tdu - param, cutoff=param
            ),
            **common,
        )

    results = parallel_map(run_case, cases, jobs=jobs)
    for (label, _kind, _param, _seed), r in zip(cases, results):
        table.add_row(
            label,
            r.query_accuracy,
            1.0 - r.query_accuracy,
            r.e_tmr,
            r.e_tm,
        )

    analytic = NFDSAnalysis(eta, delta_star, p_l, delay)
    table.add_note(
        f"analytic P_A of NFD-S*: {analytic.query_accuracy():.8f}"
    )
    table.add_note(
        "Theorem 6 predicts the first row has the highest P_A of all rows"
    )
    return table
