"""The ``live`` CLI: wall-clock runs of the detectors (repro.live).

Three roles::

    python -m repro.experiments live soak [--peers N --duration S ...]
    python -m repro.experiments live send    --name p0 --port 9999
    python -m repro.experiments live monitor --port 9999

``soak`` runs the self-contained loopback soak (model-driven loss and
delay, Theorem 5 gate) and exits nonzero if any gate fails — the same
run the ``live``-marked test suite and the CI smoke job perform.
``send``/``monitor`` are the two-terminal UDP roles; see the README
quickstart.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path
from typing import Optional

__all__ = ["live_main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments live",
        description="Run the live (wall-clock) failure-detector runtime.",
    )
    sub = parser.add_subparsers(dest="role", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--uvloop",
        action="store_true",
        help=(
            "run on uvloop (optional dependency); fails loudly if the "
            "package is not installed"
        ),
    )

    soak = sub.add_parser(
        "soak",
        parents=[common],
        help="loopback soak gated against the Theorem 5 closed forms",
    )
    soak.add_argument("--peers", type=int, default=4)
    soak.add_argument("--eta", type=float, default=0.05)
    soak.add_argument("--delta", type=float, default=0.03)
    soak.add_argument("--loss", type=float, default=0.15)
    soak.add_argument("--mean-delay", type=float, default=0.02)
    soak.add_argument("--duration", type=float, default=20.0)
    soak.add_argument(
        "--kill",
        type=int,
        default=1,
        help="senders to kill mid-run (detection-time gate)",
    )
    soak.add_argument("--kill-after", type=float, default=None)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the text report to this file as well as stdout",
    )
    soak.add_argument(
        "--telemetry-out",
        type=Path,
        default=None,
        help=(
            "append one JSON-lines registry snapshot to this file; the "
            "Prometheus exposition goes alongside with a .prom suffix"
        ),
    )

    send = sub.add_parser(
        "send", parents=[common], help="UDP heartbeat sender (process p)"
    )
    send.add_argument("--name", required=True, help="this process's name")
    send.add_argument("--host", default="127.0.0.1")
    send.add_argument("--port", type=int, required=True)
    send.add_argument("--eta", type=float, default=1.0)
    send.add_argument("--duration", type=float, default=None)
    send.add_argument(
        "--incarnation",
        type=int,
        default=0,
        help="bump after a restart (a recovered process is a new identity)",
    )

    mon = sub.add_parser(
        "monitor",
        parents=[common],
        help="UDP heartbeat monitor (process q)",
    )
    mon.add_argument("--host", default="0.0.0.0")
    mon.add_argument("--port", type=int, required=True)
    mon.add_argument("--eta", type=float, default=1.0)
    mon.add_argument(
        "--delta",
        type=float,
        default=0.5,
        help="freshness shift (NFD-S) / safety margin alpha (NFD-E)",
    )
    mon.add_argument(
        "--detector", choices=["nfd-s", "nfd-e"], default="nfd-s"
    )
    mon.add_argument("--duration", type=float, default=None)
    mon.add_argument("--report-every", type=float, default=2.0)
    mon.add_argument("--telemetry-out", type=Path, default=None)
    return parser


def _export_telemetry(registry, path: Path, label: str) -> None:
    from repro.telemetry import export

    export.append_jsonl(path, registry, label=label)
    prom_path = path.with_suffix(".prom")
    prom_path.write_text(export.to_prometheus(registry))
    print(f"  telemetry: {path} (+ {prom_path})", file=sys.stderr)


def _run_soak(args) -> int:
    from repro.live.soak import SoakConfig, run_soak

    config = SoakConfig(
        peers=args.peers,
        eta=args.eta,
        delta=args.delta,
        loss=args.loss,
        mean_delay=args.mean_delay,
        duration=args.duration,
        kill=args.kill,
        kill_after=args.kill_after,
        seed=args.seed,
    )
    result = run_soak(config)
    report = result.report()
    print(report)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(report + "\n")
        print(f"  saved: {args.out}", file=sys.stderr)
    if args.telemetry_out is not None and result.registry is not None:
        _export_telemetry(result.registry, args.telemetry_out, "live-soak")
    return 0 if result.passed else 1


def _run_send(args) -> int:
    from repro.live.roles import run_udp_sender

    try:
        sent = asyncio.run(
            run_udp_sender(
                name=args.name,
                host=args.host,
                port=args.port,
                eta=args.eta,
                duration=args.duration,
                incarnation=args.incarnation,
            )
        )
    except KeyboardInterrupt:
        print("\nsender stopped", file=sys.stderr)
        return 0
    print(f"sent {sent} heartbeats", file=sys.stderr)
    return 0


def _run_monitor(args) -> int:
    from repro.live.roles import run_udp_monitor
    from repro.telemetry.registry import MetricsRegistry

    registry = MetricsRegistry()
    try:
        asyncio.run(
            run_udp_monitor(
                host=args.host,
                port=args.port,
                eta=args.eta,
                delta=args.delta,
                detector=args.detector,
                duration=args.duration,
                report_every=args.report_every,
                registry=registry,
            )
        )
    except KeyboardInterrupt:
        print("\nmonitor stopped", file=sys.stderr)
    if args.telemetry_out is not None:
        _export_telemetry(registry, args.telemetry_out, "live-monitor")
    return 0


def live_main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.uvloop:
        from repro.live.loops import install_uvloop

        if not install_uvloop():
            print(
                "error: --uvloop requested but the uvloop package is "
                "not installed (pip install uvloop)",
                file=sys.stderr,
            )
            return 2
    if args.role == "soak":
        return _run_soak(args)
    if args.role == "send":
        return _run_send(args)
    return _run_monitor(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(live_main())
