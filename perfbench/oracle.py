"""Expected NFD-S verdicts for a scripted heartbeat schedule.

The generator knows exactly which heartbeats it sent, so for NFD-S with
``δ < η`` the monitor's S/T output is determined by the schedule alone
(as long as every sent heartbeat reaches the detector before its own
freshness point ``τ_i = σ_i + δ``):

* a run of unsent heartbeats ``i..j`` in a trusted stream yields one S
  at ``τ_i`` and one T when ``m_{j+1}`` arrives (at ``σ_{j+1}``);
* a crash after ``m_{c-1}`` yields one S at ``τ_c`` and nothing after;
* a new incarnation (restart) or a never-seen sender (admission) is
  started by its first heartbeat, which lies before the detector's
  observation window, so the T verdict comes with the *second*
  heartbeat;
* a restart after a pause longer than ``δ`` first suspects the old
  incarnation at ``τ`` of its first missing heartbeat.

Administrative S events (the service's incarnation bookkeeping) are not
detector verdicts and are excluded before matching.  Heartbeats the
monitor loses itself (kernel socket buffer, inbox shed) show up as
spurious S verdicts and late T verdicts: that is the monitor-caused
error the benchmark reports, not a scripting error.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

SUSPECT = "S"
TRUST = "T"

#: A verdict stamped this long before its due instant still matches
#: (the two processes derive the epoch clock separately).
EARLY_TOLERANCE = 0.002


@dataclass(frozen=True)
class Stream:
    """One incarnation of one sender, over the analysed span.

    ``start_seq``/``end_seq`` bound the grid ``[start_seq, end_seq)``
    the stream was scheduled on; ``sent`` lists the heartbeats actually
    sent.  ``fresh`` marks a stream whose detector is started by its
    first heartbeat (restart or admission); otherwise the stream is
    running and trusted when the span starts.  ``crashed`` marks a
    stream that stops for good after its grid; ``superseded_at`` is the
    send time of the next incarnation's first heartbeat, if any.
    """

    name: str
    incarnation: int
    eta: float
    delta: float
    start_seq: int
    end_seq: int
    sent: Tuple[int, ...]
    fresh: bool = False
    crashed: bool = False
    superseded_at: Optional[float] = None

    def sigma(self, i: int) -> float:
        return i * self.eta

    def tau(self, i: int) -> float:
        return i * self.eta + self.delta


@dataclass(frozen=True)
class Expected:
    """One verdict the monitor must deliver."""

    name: str
    incarnation: int
    output: str
    due: float
    cause: str  # "gap" | "crash" | "recover" | "restart" | "admit"
    until: float = math.inf
    #: instant latency is measured from; a restart or admission counts
    #: from its first heartbeat, which the detector does not observe.
    origin: Optional[float] = None


@dataclass(frozen=True)
class Verdict:
    """One detector verdict as the benchmark's recorder stamped it."""

    time: float
    name: str
    output: str
    incarnation: int


@dataclass
class Outcome:
    """Expected verdicts matched against the recorded ones."""

    expected: int = 0
    matched: int = 0
    missing: int = 0
    spurious_s: int = 0
    spurious_t: int = 0
    #: latency samples in seconds, by cause of the expected verdict
    latency: Dict[str, List[float]] = field(default_factory=dict)
    #: correctness checks made and violated (see :func:`check`)
    checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def error_ratio(self) -> float:
        """(spurious S + expected verdicts never seen) ÷ expected."""
        if self.expected == 0:
            return 0.0
        return (self.spurious_s + self.missing) / self.expected


def expected_verdicts(stream: Stream) -> List[Expected]:
    """The exact S/T list NFD-S (δ < η) produces for ``stream``."""
    if not stream.delta < stream.eta:
        raise ValueError("the oracle needs delta < eta")
    sent = set(stream.sent)
    out: List[Expected] = []
    seq = stream.start_seq
    trusted = True
    if stream.fresh:
        ordered = sorted(stream.sent)
        if len(ordered) < 2:
            return out
        cause = "restart" if stream.incarnation > 0 else "admit"
        out.append(
            Expected(stream.name, stream.incarnation, TRUST,
                     stream.sigma(ordered[1]), cause,
                     origin=stream.sigma(ordered[0]))
        )
        seq = ordered[1] + 1
    for i in range(seq, stream.end_seq):
        if i in sent:
            if not trusted:
                out.append(
                    Expected(stream.name, stream.incarnation, TRUST,
                             stream.sigma(i), "recover")
                )
                trusted = True
        elif trusted:
            out.append(
                Expected(stream.name, stream.incarnation, SUSPECT,
                         stream.tau(i), "gap")
            )
            trusted = False
    if trusted and (stream.crashed or stream.superseded_at is not None):
        tau = stream.tau(stream.end_seq)
        if stream.superseded_at is None or tau < stream.superseded_at:
            out.append(
                Expected(stream.name, stream.incarnation, SUSPECT, tau,
                         "crash")
            )
    # A verdict matches its expectation only before the next one is due.
    bounded = []
    for k, e in enumerate(out):
        until = out[k + 1].due if k + 1 < len(out) else math.inf
        bounded.append(
            Expected(e.name, e.incarnation, e.output, e.due, e.cause, until,
                     e.due if e.origin is None else e.origin)
        )
    return bounded


def _forbidden_trust(stream: Stream) -> List[Tuple[float, float, str]]:
    """Intervals in which a T verdict for ``stream`` is impossible.

    NFD-S trusts at ``t ∈ [τ_i, τ_{i+1})`` only after receiving some
    ``m_j`` with ``j ≥ i``; inside a run of unsent heartbeats ``i..j``
    no such message exists until ``m_{j+1}`` is sent.
    """
    sent = set(stream.sent)
    lo = stream.start_seq
    if stream.fresh and stream.sent:
        lo = min(stream.sent) + 1
    spans: List[Tuple[float, float, str]] = []
    i = lo
    while i < stream.end_seq:
        if i in sent:
            i += 1
            continue
        j = i
        while j + 1 < stream.end_seq and j + 1 not in sent:
            j += 1
        if j + 1 < stream.end_seq:
            spans.append((stream.tau(i), stream.sigma(j + 1), "gap"))
        else:
            spans.append((stream.tau(i), math.inf, "tail"))
        i = j + 1
    if stream.crashed or stream.superseded_at is not None:
        # No m_j with j >= end_seq of this incarnation is ever sent.
        spans.append((stream.tau(stream.end_seq), math.inf, "ended"))
    return spans


def check(
    streams: Sequence[Stream],
    verdicts: Sequence[Verdict],
    *,
    t_end: float,
    slack: float = 0.001,
) -> Tuple[int, List[str]]:
    """Correctness checks that hold whatever the monitor lost.

    * no T verdict inside a scripted gap, after a crash, or for an
      incarnation already superseded (a trust bit nothing justifies);
    * every crashed stream whose crash is due before ``t_end`` ends
      suspected (completeness; NFD-S detects within ``δ + η``).

    Returns ``(checks made, violation descriptions)``.
    """
    by_key: Dict[Tuple[str, int], List[Verdict]] = {}
    for v in verdicts:
        by_key.setdefault((v.name, v.incarnation), []).append(v)
    checks = 0
    violations: List[str] = []
    for s in streams:
        mine = by_key.get((s.name, s.incarnation), [])
        trust_times = [v.time for v in mine if v.output == TRUST]
        for lo, hi, why in _forbidden_trust(s):
            if lo >= t_end:
                continue
            checks += 1
            k = bisect.bisect_right(trust_times, lo + slack)
            if k < len(trust_times) and trust_times[k] < hi - EARLY_TOLERANCE:
                violations.append(
                    f"{s.name}#{s.incarnation}: T at {trust_times[k]:.4f} "
                    f"inside {why} [{lo:.4f}, {hi:.4f})"
                )
        if s.crashed and s.tau(s.end_seq) + s.eta < t_end:
            checks += 1
            if not mine or mine[-1].output != SUSPECT:
                violations.append(
                    f"{s.name}#{s.incarnation}: crash at "
                    f"tau={s.tau(s.end_seq):.4f} never suspected"
                )
    return checks, violations


def match(
    streams: Sequence[Stream],
    verdicts: Sequence[Verdict],
    *,
    t_start: float,
    t_end: float,
) -> Outcome:
    """Match recorded verdicts in ``[t_start, t_end)`` to the oracle.

    Every expected verdict due in the span is matched to the first
    recorded verdict of the same stream and output between its due
    instant and the next expectation's.  Recorded verdicts left over
    are spurious; expectations left over are missing.
    """
    outcome = Outcome()
    by_key: Dict[Tuple[str, int], List[Verdict]] = {}
    for v in sorted(verdicts, key=lambda v: v.time):
        if t_start <= v.time < t_end:
            by_key.setdefault((v.name, v.incarnation), []).append(v)
    known = set()
    for s in streams:
        key = (s.name, s.incarnation)
        known.add(key)
        actual = by_key.get(key, [])
        used = [False] * len(actual)
        for e in expected_verdicts(s):
            if not (t_start <= e.due < t_end):
                continue
            outcome.expected += 1
            hit = None
            for k, v in enumerate(actual):
                if used[k] or v.output != e.output:
                    continue
                if v.time < e.due - EARLY_TOLERANCE:
                    continue
                if v.time < e.until:
                    hit = k
                break
            if hit is None:
                outcome.missing += 1
                continue
            used[hit] = True
            outcome.matched += 1
            outcome.latency.setdefault(e.cause, []).append(
                max(0.0, actual[hit].time - e.origin)
            )
        for k, v in enumerate(actual):
            if not used[k]:
                if v.output == SUSPECT:
                    outcome.spurious_s += 1
                else:
                    outcome.spurious_t += 1
    for key, actual in by_key.items():
        if key not in known:
            for v in actual:
                if v.output == SUSPECT:
                    outcome.spurious_s += 1
                else:
                    outcome.spurious_t += 1
    outcome.checks, outcome.violations = check(
        streams, verdicts, t_end=t_end
    )
    return outcome
