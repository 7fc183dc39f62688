"""One-shot reproduction report.

``python -m repro.experiments report`` (or :func:`generate_report`)
runs every experiment at the chosen scale and writes a single markdown
document with all tables, runtimes and environment stamps — the
artifact to attach to a reproduction claim.
"""

from __future__ import annotations

import platform
import time
from pathlib import Path
from typing import List, Optional, Tuple

__all__ = ["generate_report"]


def generate_report(
    out_path: Path,
    full: bool = False,
    experiments: Optional[List[str]] = None,
    jobs: int = 1,
    telemetry_out: Optional[Path] = None,
) -> Path:
    """Run experiments and write a markdown report; returns the path.

    ``jobs`` is forwarded to the parallel-capable experiments (see
    ``python -m repro.experiments --jobs``); it changes only wall time,
    never results.
    ``telemetry_out`` enables the telemetry layer for the duration of
    the run, appends one JSON-lines snapshot per experiment to that
    path, and adds a counter-summary section to the report.
    """
    # Imported lazily so `--help` stays fast.
    from repro import __version__
    from repro.experiments.cli import _EXPERIMENTS

    registry = None
    if telemetry_out is not None:
        from repro.telemetry import runtime

        registry = runtime.enable()

    names = sorted(_EXPERIMENTS) if experiments is None else experiments
    sections: List[Tuple[str, float, list]] = []
    try:
        for name in names:
            start = time.time()
            tables = _EXPERIMENTS[name](full, jobs)
            sections.append((name, time.time() - start, tables))
            if registry is not None:
                from repro.telemetry import export

                export.append_jsonl(telemetry_out, registry, label=name)
    finally:
        if registry is not None:
            from repro.telemetry import runtime

            runtime.disable()

    lines: List[str] = []
    lines.append("# Reproduction report — QoS of Failure Detectors")
    lines.append("")
    lines.append(
        f"- library: repro {__version__}  \n"
        f"- python: {platform.python_version()} on {platform.system()} "
        f"{platform.machine()}  \n"
        f"- scale: {'full (paper scale)' if full else 'reduced (shape-preserving)'}  \n"
        f"- generated: {time.strftime('%Y-%m-%d %H:%M:%S')}"
    )
    lines.append("")
    lines.append(
        "Paper: Chen, Toueg, Aguilera — *On the Quality of Service of "
        "Failure Detectors* (DSN 2000 / IEEE TC 2002).  See EXPERIMENTS.md "
        "for the paper-vs-measured discussion of each table."
    )
    for name, elapsed, tables in sections:
        lines.append("")
        lines.append(f"## {name}  ({elapsed:.1f}s)")
        for table in tables:
            lines.append("")
            lines.append("```text")
            lines.append(table.to_text())
            lines.append("```")
    if registry is not None:
        lines.append("")
        lines.append("## telemetry")
        lines.append("")
        lines.append(
            f"Per-experiment snapshots appended to `{telemetry_out}` "
            "(schema `repro.telemetry/1`).  Final cumulative counters:"
        )
        lines.append("")
        lines.append("```text")
        for key, metric in registry.items():
            if metric.kind == "counter":
                lines.append(f"{key} = {metric.value:g}")
        lines.append("```")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text("\n".join(lines) + "\n")
    return out_path
