"""The live workloads: sender population and fault script from a seed.

Every sender heartbeats on the paper's grid ``σ_i = i·η`` of the Unix
epoch clock, the regime ``repro.live.roles`` uses.  The script is drawn
in slot units relative to each sender's first slot of the measured
window, so a seed fixes the inputs whatever instant the run starts.

``incast``
    400 senders on one η = 0.1 s grid: every slot is one 400-datagram
    burst, past the burst size at which a default-sized socket buffer
    starts dropping.  About 1 % of heartbeats are script-dropped (runs
    of one or two) to produce S/T samples; nothing else changes.
``fleet``
    900 senders, each with its own η in [0.1, 0.2) s, so arrivals are
    smooth at ~6k heartbeats/s: about half of one core for a monitor
    with the elector and the estimators attached (1,500 senders drive it
    past saturation on a 2-core machine).  Churn runs through the whole
    window:
    bursty script drops, permanent crashes, incarnation restarts
    (~10/s) with stale-incarnation stragglers, never-seen senders
    admitted on the fly and ~0.1 % junk datagrams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from oracle import Stream

#: NFD-S freshness shift for every sender; below every η, so the oracle's
#: one-S-per-gap rule holds, and far above loopback delay.
DELTA = 0.05

HB, STALE, JUNK = 0, 1, 2

#: Scripted events stay this far from the window's edges, so every
#: verdict they cause is due inside the window.
LEAD_IN = 0.3
LEAD_OUT = 1.5


@dataclass(frozen=True)
class Population:
    """Who sends, at which rate: everything the monitor may know."""

    workload: str
    names: Tuple[str, ...]
    etas: Tuple[float, ...]
    n_initial: int

    def eta_of(self) -> Dict[str, float]:
        return dict(zip(self.names, self.etas))


def population(workload: str, seed: int, seconds: float) -> Population:
    rng = np.random.default_rng([seed, 1])
    if workload == "incast":
        n = 400
        return Population(
            workload,
            tuple(f"i{k:03d}" for k in range(n)),
            (0.1,) * n,
            n,
        )
    if workload == "fleet":
        n = 900
        n_admit = max(1, round(3.0 * seconds))
        etas = rng.uniform(0.1, 0.2, size=n + n_admit)
        names = [f"f{k:04d}" for k in range(n)]
        names += [f"n{k:03d}" for k in range(n_admit)]
        return Population(workload, tuple(names), tuple(etas.tolist()), n)
    raise ValueError(f"unknown live workload {workload!r}")


@dataclass
class Schedule:
    """The measured window's datagrams in due order, plus the oracle's
    view of every stream."""

    due: np.ndarray  # float64 epoch seconds
    kind: np.ndarray  # HB / STALE / JUNK
    sender: np.ndarray  # index into Population.names (-1 for junk)
    incarnation: np.ndarray
    seq: np.ndarray
    junk: List[bytes]  # payloads of JUNK events, in due order
    streams: List[Stream]
    scripted_drops: int
    crashes: int
    restarts: int
    admissions: int


def _first_seq(t: float, eta: float) -> int:
    return int(math.ceil(t / eta))


def _drop_runs(rng, slots: int, p_start: float, max_len: int, geometric: bool):
    """Relative slots (0-based) of scripted drops, runs kept ≥ 2 slots
    apart so each run is its own S/T pair."""
    dropped: List[int] = []
    i = 0
    while i < slots:
        if rng.random() < p_start:
            if geometric:
                length = int(min(max_len, rng.geometric(1.0 / 3.0)))
            else:
                length = 1 if rng.random() < 0.7 else 2
            length = min(length, slots - i)
            dropped.extend(range(i, i + length))
            i += length + 2
        else:
            i += 1
    return dropped


def schedule(pop: Population, seed: int, t0: float, t1: float) -> Schedule:
    """The script for the window ``[t0, t1)`` (epoch seconds)."""
    rng = np.random.default_rng([seed, 2])
    n = len(pop.names)
    lo, hi = t0 + LEAD_IN, t1 - LEAD_OUT
    fleet = pop.workload == "fleet"
    span = max(hi - lo, 0.0)

    # Which initial senders crash or restart, and when.
    crash_at: Dict[int, float] = {}
    restart_at: Dict[int, Tuple[float, int, int]] = {}
    admit_at: Dict[int, float] = {}
    if fleet:
        n_crash = round(2.0 * span)
        n_restart = round(10.0 * span)
        picks = rng.choice(pop.n_initial, size=n_crash + n_restart,
                           replace=False)
        for k in picks[:n_crash]:
            crash_at[int(k)] = float(rng.uniform(lo, hi))
        for k in picks[n_crash:]:
            restart_at[int(k)] = (
                float(rng.uniform(lo, hi)),
                int(rng.integers(0, 3)),  # pause, in slots
                int(rng.integers(1, 3)),  # stale stragglers
            )
        for k in range(pop.n_initial, n):
            admit_at[k] = float(rng.uniform(lo, hi))

    cols: List[Tuple[np.ndarray, int, int, int, np.ndarray]] = []
    streams: List[Stream] = []
    scripted = 0

    def add_stream(k, inc, start, end, sent, **kw):
        nonlocal scripted
        eta = pop.etas[k]
        seqs = np.asarray(sent, dtype=np.int64)
        cols.append((seqs * eta, HB, k, inc, seqs))
        scripted += (end - start) - len(sent)
        streams.append(
            Stream(pop.names[k], inc, eta, DELTA, start, end,
                   tuple(int(s) for s in sent), **kw)
        )

    def with_drops(start, end, eta, guard_lo, guard_hi):
        """Grid seqs in [start, end) minus scripted drops inside
        [guard_lo, guard_hi) (epoch seconds)."""
        first = max(start, _first_seq(guard_lo, eta))
        last = min(end, _first_seq(guard_hi, eta))
        if fleet:
            rel = _drop_runs(rng, max(last - first, 0), 0.002, 6, True)
        else:
            rel = _drop_runs(rng, max(last - first, 0), 0.0075, 2, False)
        drop = {first + r for r in rel}
        return [s for s in range(start, end) if s not in drop]

    for k in range(n):
        eta = pop.etas[k]
        if k in admit_at:
            b = _first_seq(admit_at[k], eta)
            end = _first_seq(t1, eta)
            sent = with_drops(b, end, eta, (b + 3) * eta, hi)
            add_stream(k, 0, b, end, sent, fresh=True)
            continue
        start = _first_seq(t0, eta)
        end = _first_seq(t1, eta)
        if k in crash_at:
            c = _first_seq(crash_at[k], eta)
            sent = with_drops(start, c, eta, lo, (c - 3) * eta)
            add_stream(k, 0, start, c, sent, crashed=True)
        elif k in restart_at:
            t_r, pause, n_stale = restart_at[k]
            a1 = _first_seq(t_r, eta)  # first slot the old incarnation misses
            b = a1 + pause
            sent = with_drops(start, a1, eta, lo, (a1 - 3) * eta)
            add_stream(k, 0, start, a1, sent, superseded_at=b * eta)
            new = with_drops(b, end, eta, (b + 3) * eta, hi)
            add_stream(k, 1, b, end, new, fresh=True)
            # Old-incarnation stragglers land just after the new
            # incarnation's first heartbeat, so the service sees them
            # as stale rather than as the old stream's last words.
            last_old = sent[-1]
            for j in range(n_stale):
                cols.append((
                    np.array([b * eta + 0.001 * (j + 1)]), STALE, k, 0,
                    np.array([last_old], dtype=np.int64),
                ))
        else:
            sent = with_drops(start, end, eta, lo, hi)
            add_stream(k, 0, start, end, sent)

    due = np.concatenate([c[0] for c in cols])
    kind = np.concatenate([np.full(c[0].size, c[1], np.int8) for c in cols])
    sender = np.concatenate([np.full(c[0].size, c[2], np.int32) for c in cols])
    inc = np.concatenate([np.full(c[0].size, c[3], np.int32) for c in cols])
    seq = np.concatenate([c[4] for c in cols])

    junk: List[bytes] = []
    if fleet:
        rate = sum(1.0 / e for e in pop.etas[: pop.n_initial])
        n_junk = int(round(0.001 * rate * (t1 - t0)))
        junk_due = np.sort(rng.uniform(t0, t1, size=n_junk))
        for _ in range(n_junk):
            body = rng.integers(0, 256, size=int(rng.integers(8, 48)),
                                dtype=np.uint8).tobytes()
            junk.append(b"\x00" + body)  # never the wire magic
        due = np.concatenate([due, junk_due])
        kind = np.concatenate([kind, np.full(n_junk, JUNK, np.int8)])
        sender = np.concatenate([sender, np.full(n_junk, -1, np.int32)])
        inc = np.concatenate([inc, np.zeros(n_junk, np.int32)])
        seq = np.concatenate([seq, np.zeros(n_junk, np.int64)])

    keep = (due >= t0) & (due < t1)
    order = np.argsort(due[keep], kind="stable")
    return Schedule(
        due=due[keep][order],
        kind=kind[keep][order],
        sender=sender[keep][order],
        incarnation=inc[keep][order],
        seq=seq[keep][order],
        junk=junk,
        streams=streams,
        scripted_drops=scripted,
        crashes=len(crash_at),
        restarts=len(restart_at),
        admissions=len(admit_at),
    )
