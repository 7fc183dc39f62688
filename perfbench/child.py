"""Child-process side of the line protocol ``run.py`` speaks."""

from __future__ import annotations

import resource
import sys


def emit(*parts) -> None:
    """One protocol line on stdout, flushed at once."""
    sys.stdout.write(" ".join(str(p) for p in parts) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    """This process's peak resident set size."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
