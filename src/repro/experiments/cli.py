"""Command-line entry point regenerating the paper's tables and figures.

Usage::

    python -m repro.experiments <experiment> [--full] [--out DIR]
    python -m repro.experiments all --out results/

``--full`` runs at the paper's scale (Fig. 12 with 500 mistake-recurrence
intervals per point, up to ~5·10⁸ heartbeats for the largest ``T_D^U``);
the default is a faster, shape-preserving scale.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.experiments.adaptive_exp import run_adaptive
from repro.experiments.common import ExperimentTable
from repro.experiments.config_examples import run_config_examples
from repro.experiments.cutoff_ablation import run_cutoff_ablation
from repro.experiments.detection_time import run_detection_time
from repro.experiments.distributions import run_distributions
from repro.experiments.election_exp import run_election_qos
from repro.experiments.fault_sensitivity import run_fault_sensitivity
from repro.experiments.gossip_comparison import run_gossip_comparison
from repro.experiments.hierarchy_exp import run_hierarchy_comparison
from repro.experiments.fig12 import (
    fig12_ascii_plot,
    fig12_tm_table,
    fig12_tmr_table,
    run_fig12,
)
from repro.experiments.nfde_window import run_nfde_window
from repro.experiments.optimality import run_optimality
from repro.experiments.phi_comparison import run_phi_comparison
from repro.experiments.profile_costs import run_profile_costs
from repro.experiments.wan_exp import run_wan

__all__ = ["main"]


def _fig12_tables(full: bool, jobs: int):
    points = run_fig12(
        target_mistakes=500 if full else 200,
        max_heartbeats=600_000_000 if full else 30_000_000,
        jobs=jobs,
    )
    tables = [fig12_tmr_table(points), fig12_tm_table(points)]
    print()
    print(fig12_ascii_plot(points))
    return tables


# Each entry takes (full, jobs).  `jobs` fans the experiment's
# independent units (sweep points or crash runs) out over worker
# processes via repro.sim.parallel; experiments without that axis
# ignore it.  Results are bit-identical for every jobs value.
_EXPERIMENTS: Dict[str, Callable[[bool, int], list]] = {
    "fig12": _fig12_tables,
    "config-examples": lambda full, jobs: [run_config_examples()],
    "nfde-window": lambda full, jobs: [
        run_nfde_window(target_mistakes=3000 if full else 800, jobs=jobs)
    ],
    "optimality": lambda full, jobs: [
        run_optimality(target_mistakes=5000 if full else 1000, jobs=jobs)
    ],
    "detection-time": lambda full, jobs: [
        run_detection_time(n_runs=1000 if full else 200, jobs=jobs)
    ],
    "cutoff-ablation": lambda full, jobs: [
        run_cutoff_ablation(target_mistakes=2000 if full else 500, jobs=jobs)
    ],
    "distributions": lambda full, jobs: [
        run_distributions(target_mistakes=2000 if full else 500)
    ],
    "fault-sensitivity": lambda full, jobs: run_fault_sensitivity(
        full=full, jobs=jobs
    ),
    "election": lambda full, jobs: run_election_qos(full=full),
    "adaptive": lambda full, jobs: [run_adaptive()],
    "phi-accrual": lambda full, jobs: [
        run_phi_comparison(horizon=100_000.0 if full else 20_000.0)
    ],
    "profile-costs": lambda full, jobs: [run_profile_costs()],
    "gossip": lambda full, jobs: [
        run_gossip_comparison(
            horizon=40_000.0 if full else 10_000.0,
            n_crash_runs=200 if full else 40,
        )
    ],
    "hierarchy": lambda full, jobs: run_hierarchy_comparison(
        horizon=4_000.0 if full else 1_500.0,
        n_crash_runs=24 if full else 8,
    ),
    "wan": lambda full, jobs: run_wan(full=full, jobs=jobs),
}


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "live":
        # The live runtime has its own sub-CLI (soak/send/monitor) with
        # role-specific options; hand it everything after "live".
        from repro.experiments.live_cli import live_main

        return live_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the evaluation of 'On the Quality of Service of "
            "Failure Detectors' (Chen, Toueg, Aguilera)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all", "report"],
        help=(
            "which experiment to run ('all' for every one; 'report' "
            "writes a single markdown report with every table; see also "
            "the 'live' subcommand: `... live {soak,send,monitor} -h`)"
        ),
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's full statistical scale (slow)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory to save result tables as text files",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for parallel experiments (0 = all cores); "
            "results are bit-identical to --jobs 1 for the same seed"
        ),
    )
    parser.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        help=(
            "enable the telemetry layer and append one JSON-lines "
            "snapshot (schema repro.telemetry/1) per experiment to this "
            "file; the final Prometheus text exposition is written "
            "alongside it with a .prom suffix"
        ),
    )
    args = parser.parse_args(argv)
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0 (0 = all cores), got {args.jobs}")

    if args.experiment == "report":
        from repro.experiments.report import generate_report

        out_dir = args.out if args.out is not None else Path("results")
        path = generate_report(
            out_dir / "REPORT.md",
            full=args.full,
            jobs=args.jobs,
            telemetry_out=args.telemetry_out,
        )
        print(f"report written: {path}")
        return 0

    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.telemetry_out is None:
        _run_experiments(names, args)
        return 0
    from repro.telemetry import export, runtime

    registry = runtime.enable()
    try:
        _run_experiments(names, args, telemetry=(registry, args.telemetry_out))
    finally:
        prom_path = args.telemetry_out.with_suffix(".prom")
        prom_path.parent.mkdir(parents=True, exist_ok=True)
        prom_path.write_text(export.to_prometheus(registry))
        runtime.disable()
    print(
        f"  telemetry: {args.telemetry_out} (+ {prom_path})", file=sys.stderr
    )
    return 0


def _run_experiments(names, args, telemetry=None) -> None:
    for name in names:
        start = time.time()
        tables = _EXPERIMENTS[name](args.full, args.jobs)
        elapsed = time.time() - start
        for i, table in enumerate(tables):
            print()
            print(table.to_text())
            if args.out is not None:
                suffix = f"-{i}" if len(tables) > 1 else ""
                path = args.out / f"{name}{suffix}.txt"
                table.save(path)
                print(f"  saved: {path}")
        if telemetry is not None:
            from repro.telemetry import export

            registry, out_path = telemetry
            # One cumulative snapshot per experiment: diffing consecutive
            # lines attributes counter deltas to the experiment between
            # them.
            export.append_jsonl(out_path, registry, label=name)
        print(f"  [{name}: {elapsed:.1f}s]", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
