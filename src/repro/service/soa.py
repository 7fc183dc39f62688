"""Vectorized many-sender monitor core: SoA state tables + one timer wheel.

The paper's algorithms are defined per monitored process, and the object
backend mirrors that: one detector instance, one freshness-point timer
chain, and one host per sender.  That design caps a single monitor at a
few thousand senders — the per-sender ``call_at`` chains alone put one
live simulator/loop event per sender per ``η`` on the heap.

:class:`VectorMonitorEngine` replaces the object-per-sender hot path
with a struct-of-arrays core:

* **state tables** — per-sender NFD-S/U/E state (highest sequence
  number, next freshness index, next freshness point, current verdict,
  incarnation, delivered count, NFD-E's normalized-arrival window) lives
  in NumPy arrays indexed by a dense integer *row* id;
* **one timer wheel** — instead of N independent timer chains there is
  a single deadline heap with *one* scheduled wakeup (the earliest
  deadline).  Same-(η, δ) NFD-S senders on perfect clocks share a
  *cohort*: the whole cohort's freshness point ``τ_i`` is one heap entry
  processed with one vectorized pass, so the wakeup count is O(ticks),
  not O(senders × ticks);
* **batched ingestion** — :meth:`VectorMonitorEngine.ingest` consumes a
  time-sorted array of heartbeats and processes the (dominant) trusted
  NFD-S rows with ``np.maximum.at`` between wheel ticks, reusing the
  batched-kernel idiom of :mod:`repro.sim.batch`.

Correctness bar: the engine produces **bit-identical verdict streams**
to the object-per-sender reference hosts (:class:`~repro.sim.monitor.
DetectorHost`, :class:`~repro.live.runtime.LiveDetectorHost`) — same
transition times and outputs per sender — which the shipped-vs-reference
suites in ``tests/service`` and ``tests/live`` pin under churn,
restarts, scheduled crashes and fault scenarios.

Canonical tie ordering: deadlines on the *identical* timestamp are
processed in ``(time, row id)`` order (row ids follow registration), and
deadlines at ``t`` precede heartbeats arriving at ``t``.  The reference
hosts fire coinciding timers in arm order.  That is row order for NFD-S
senders on one ``(η, δ)`` grid (each detector re-arms from inside its
previous timer), but not across grids, nor for NFD-U/E expiries, which
each sender's last receipt arms: there the events at one instant are
the same and only their order across senders differs.  The other
divergence is the contrived ``δ ≥ η`` NFD-S configuration with an
arrival *exactly* on a freshness point, where the reference lets the
delivery win; the engine keeps deadline-first.

Size-chosen routes: NumPy pays a fixed cost per call that only a batch
amortises.  An ingest of at most ``_SCALAR_MAX`` receipts, and a cohort
tick with at most that many members, run as plain Python loops over the
same tables; larger ones take the vectorized passes.  Both routes apply
the same rules in the same order, so the route never changes a verdict.

The engine is scheduler-agnostic: the simulator backend drives it
through :class:`SimWheelScheduler`, the live runtime through
:class:`repro.live.soa.LoopWheelScheduler`, and batch callers (the
many-senders benchmark) through :class:`ManualScheduler` with explicit
arrival times.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import HeartbeatFailureDetector
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.errors import InvalidParameterError, SimulationError
from repro.metrics.transitions import SUSPECT, TRUST
from repro.net.clocks import Clock, PerfectClock

__all__ = [
    "VectorMonitorEngine",
    "SimWheelScheduler",
    "ManualScheduler",
    "SoAMonitorHost",
    "supports_detector",
]

#: detector kinds held in the state tables
KIND_NFDS = 0
KIND_NFDU = 1
KIND_NFDE = 2

#: heap-entry discriminators (second tuple element; value irrelevant to
#: semantics — slices are gathered whole — but keeps tuples comparable)
_ENTRY_ROW = 0
_ENTRY_COHORT = 1

#: transition sink signature: (real_time, local_time, "T"/"S")
TransitionSink = Callable[[float, float, str], None]

#: Largest ingest (receipts) or cohort tick (members) handled by plain
#: Python loops; above it the vectorized passes amortise NumPy's fixed
#: cost per call.  A one-datagram-per-wakeup stream of senders on
#: spread periods (one cohort each) stays entirely below it.
_SCALAR_MAX = 8


def supports_detector(detector: HeartbeatFailureDetector) -> bool:
    """Whether the SoA engine can host this detector natively.

    This is the services' host selection: the engine vectorizes the
    paper's three NFD algorithms, and every other detector (adaptive,
    φ-accrual, …) runs on the object-per-sender host.  The check is on
    the exact type: a subclass (e.g. the self-reconfiguring
    :class:`~repro.core.adaptive.AdaptiveNFDE`) may change behaviour
    the engine's tables do not model.
    """
    return type(detector) in (NFDS, NFDU, NFDE)


# ---------------------------------------------------------------------- #
# Schedulers
# ---------------------------------------------------------------------- #


class SimWheelScheduler:
    """Drives the wheel from a :class:`~repro.sim.engine.Simulator`.

    The engine keeps at most one armed wakeup; re-arming cancels the
    previous simulator event, so the wheel contributes O(1) live events
    to the heap regardless of sender count.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._handle = None

    def now(self) -> float:
        return self._sim.now

    def wake_at(self, time: float, callback: Callable[[], None]) -> None:
        if self._handle is not None:
            self._handle.cancel()
        self._handle = self._sim.schedule_at(max(time, self._sim.now), callback)


class ManualScheduler:
    """A scheduler for batch drivers: time advances only via ingestion.

    Wakeups are never armed — callers are expected to push time forward
    explicitly with :meth:`VectorMonitorEngine.ingest` /
    :meth:`VectorMonitorEngine.advance`.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.time = float(start)

    def now(self) -> float:
        return self.time

    def wake_at(self, time: float, callback: Callable[[], None]) -> None:
        pass  # batch drivers advance the wheel themselves


class _Cohort:
    """All perfect-clock NFD-S rows sharing one (η, δ) freshness grid."""

    __slots__ = ("eta", "delta", "rows", "n", "tick", "armed")

    def __init__(self, eta: float, delta: float) -> None:
        self.eta = eta
        self.delta = delta
        self.rows = np.empty(8, dtype=np.int64)
        self.n = 0
        self.tick = 0  # next freshness index with a pushed heap entry
        self.armed = False

    def add(self, row: int) -> None:
        if self.n == len(self.rows):
            grown = np.empty(2 * len(self.rows), dtype=np.int64)
            grown[: self.n] = self.rows[: self.n]
            self.rows = grown
        self.rows[self.n] = row
        self.n += 1

    def members(self) -> np.ndarray:
        return self.rows[: self.n]

    def freshness(self, i: int) -> float:
        return i * self.eta + self.delta


class VectorMonitorEngine:
    """Struct-of-arrays monitor core for NFD-S / NFD-U / NFD-E senders.

    Args:
        scheduler: wheel driver providing ``now()`` and ``wake_at()``.
        record_transitions: keep every transition in
            :attr:`transition_log` as ``(time, row, output)`` — for
            identity tests and benchmarks that run without sinks.

    Rows are registered with :meth:`register` (a fresh, unbound detector
    instance acts as the parameter spec), armed with :meth:`start_row`,
    fed through :meth:`deliver` (scalar) or :meth:`ingest` (batched,
    time-sorted), and retired with :meth:`remove` — which is idempotent
    and guarantees no further transitions are emitted for the row, even
    for deadlines already due in the wheel (the churn race the object
    backend guards with ``DetectorHost.stop``).
    """

    def __init__(self, scheduler, *, record_transitions: bool = False) -> None:
        self._scheduler = scheduler
        self._heap: List[Tuple] = []
        self._armed: Optional[float] = None
        self._time = float(scheduler.now())
        self._n = 0
        cap = 64
        self._kind = np.zeros(cap, dtype=np.int8)
        self._active = np.zeros(cap, dtype=bool)
        self._trusted = np.zeros(cap, dtype=bool)
        self._eta = np.zeros(cap, dtype=np.float64)
        self._shift = np.zeros(cap, dtype=np.float64)  # δ (S) or α (U/E)
        self._max_seq = np.zeros(cap, dtype=np.int64)  # max seq (S) / ℓ (U/E)
        self._next_check = np.zeros(cap, dtype=np.int64)  # S freshness index
        self._tau_next = np.zeros(cap, dtype=np.float64)  # U/E τ_{ℓ+1} (local)
        self._gen = np.zeros(cap, dtype=np.int64)  # U/E timer generation
        self._incarnation = np.zeros(cap, dtype=np.int64)
        self._delivered = np.zeros(cap, dtype=np.int64)
        # NFD-E normalized-arrival windows (compact slots, only E rows)
        self._win_slot = np.full(cap, -1, dtype=np.int64)
        self._win_width = 0
        self._win_rows = 0
        self._win_buf = np.zeros((0, 0), dtype=np.float64)
        self._win_count = np.zeros(0, dtype=np.int64)
        self._win_head = np.zeros(0, dtype=np.int64)
        self._win_sum = np.zeros(0, dtype=np.float64)
        self._win_len = np.zeros(0, dtype=np.int64)
        # Per-row Python-object state (cold; scalar paths only)
        self._clocks: List[Optional[Clock]] = []
        self._sinks: List[Optional[TransitionSink]] = []
        self._ea_fns: List[Optional[Callable[[int], float]]] = []
        self._cohorts: Dict[Tuple[float, float], _Cohort] = {}
        self.transition_log: Optional[List[Tuple[float, int, str]]] = (
            [] if record_transitions else None
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Engine time: the later of the wheel's progress and the
        scheduler clock (batch drivers may run ahead of the latter)."""
        return max(self._time, self._scheduler.now())

    @property
    def n_rows(self) -> int:
        """Rows ever registered (row ids are never reused)."""
        return self._n

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self._active[: self._n]))

    @property
    def pending_deadlines(self) -> int:
        """Heap entries (including lazily-invalidated ones)."""
        return len(self._heap)

    def output_char(self, row: int) -> str:
        return TRUST if self._trusted[row] else SUSPECT

    def is_active(self, row: int) -> bool:
        return bool(self._active[row])

    def delivered_count(self, row: int) -> int:
        return int(self._delivered[row])

    def incarnation(self, row: int) -> int:
        return int(self._incarnation[row])

    # ------------------------------------------------------------------ #
    # Registration / removal
    # ------------------------------------------------------------------ #

    def _grow(self) -> None:
        cap = 2 * len(self._kind)
        for name in (
            "_kind",
            "_active",
            "_trusted",
            "_eta",
            "_shift",
            "_max_seq",
            "_next_check",
            "_tau_next",
            "_gen",
            "_incarnation",
            "_delivered",
            "_win_slot",
        ):
            old = getattr(self, name)
            grown = np.zeros(cap, dtype=old.dtype)
            if name == "_win_slot":
                grown.fill(-1)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def _alloc_window(self, row: int, window: int) -> None:
        if window > self._win_width:
            width = max(window, 2 * self._win_width, 8)
            grown = np.zeros((max(len(self._win_count), 8), width))
            grown[: self._win_rows, : self._win_width] = self._win_buf[
                : self._win_rows
            ]
            self._win_buf = grown
            self._win_width = width
        if self._win_rows == len(self._win_count):
            cap = max(2 * len(self._win_count), 8)
            for name in ("_win_count", "_win_head", "_win_len"):
                old = getattr(self, name)
                grown = np.zeros(cap, dtype=np.int64)
                grown[: self._win_rows] = old[: self._win_rows]
                setattr(self, name, grown)
            grown_sum = np.zeros(cap)
            grown_sum[: self._win_rows] = self._win_sum[: self._win_rows]
            self._win_sum = grown_sum
            if self._win_buf.shape[0] < cap:
                grown_buf = np.zeros((cap, self._win_width))
                grown_buf[: self._win_rows] = self._win_buf[: self._win_rows]
                self._win_buf = grown_buf
        slot = self._win_rows
        self._win_rows += 1
        self._win_len[slot] = window
        self._win_slot[row] = slot

    def register(
        self,
        detector: HeartbeatFailureDetector,
        *,
        clock: Optional[Clock] = None,
        on_transition: Optional[TransitionSink] = None,
        incarnation: int = 0,
    ) -> int:
        """Add a sender row; the detector instance is the parameter spec.

        The detector must be fresh (unbound, unstarted): the engine owns
        the state from here on, and the instance is only read for its
        parameters (η, δ/α, window, first_seq).
        """
        if not supports_detector(detector):
            raise InvalidParameterError(
                f"SoA engine does not support {type(detector).__name__}; "
                f"it runs on an object host"
            )
        if detector._runtime is not None or detector._started:
            raise SimulationError(
                "detector already bound/started; the SoA engine needs a "
                "fresh instance as its parameter spec"
            )
        if self._n == len(self._kind):
            self._grow()
        row = self._n
        self._n += 1
        self._active[row] = True
        self._trusted[row] = False  # paper detectors start at S
        self._eta[row] = detector.eta
        self._incarnation[row] = incarnation
        self._delivered[row] = 0
        self._clocks.append(None if clock is None else clock)
        self._sinks.append(on_transition)
        if isinstance(detector, NFDE):
            self._kind[row] = KIND_NFDE
            self._shift[row] = detector.alpha
            self._max_seq[row] = detector._first_seq - 1  # ℓ
            self._tau_next[row] = 0.0
            self._ea_fns.append(None)
            self._alloc_window(row, detector.estimator.window)
        elif isinstance(detector, NFDU):
            self._kind[row] = KIND_NFDU
            self._shift[row] = detector.alpha
            self._max_seq[row] = detector._first_seq - 1  # ℓ
            self._tau_next[row] = 0.0
            self._ea_fns.append(detector._expected_arrival)
        else:
            self._kind[row] = KIND_NFDS
            self._shift[row] = detector.delta
            self._max_seq[row] = detector._first_seq - 1
            self._next_check[row] = detector._first_seq
            self._ea_fns.append(None)
        return row

    def remove(self, row: int) -> None:
        """Retire a row.  **Idempotent**; no transition is ever emitted
        for the row after this returns — deadlines already due in the
        wheel are invalidated, the SoA analogue of cancelling a removed
        sender's timer chain.  The row's sink, expected-arrival function
        and clock are released, so a retired row does not keep its host
        alive."""
        if row < 0 or row >= self._n or not self._active[row]:
            return
        self._active[row] = False
        self._gen[row] += 1
        self._sinks[row] = None
        self._ea_fns[row] = None
        self._clocks[row] = None

    # ------------------------------------------------------------------ #
    # Clock helpers (scalar paths)
    # ------------------------------------------------------------------ #

    def _local(self, row: int, real: float) -> float:
        clock = self._clocks[row]
        return real if clock is None else clock.local_time(real)

    def _real(self, row: int, local: float) -> float:
        clock = self._clocks[row]
        return local if clock is None else clock.real_time(local)

    # ------------------------------------------------------------------ #
    # Arming
    # ------------------------------------------------------------------ #

    def start_row(self, row: int) -> None:
        """Arm the row's initial freshness deadline (detector start)."""
        if not self._active[row]:
            return
        now_real = self.now
        self._time = max(self._time, now_real)
        kind = self._kind[row]
        if kind == KIND_NFDS:
            eta = float(self._eta[row])
            delta = float(self._shift[row])
            if self._clocks[row] is None:
                # Catch a stale first_seq up to the present (the object
                # host replays overdue freshness points asap; nothing is
                # emitted because the initial output is already S and no
                # heartbeat can have arrived before start).
                while self._next_check[row] * eta + delta <= now_real:
                    self._next_check[row] += 1
                self._join_cohort(row, eta, delta)
            else:
                i = int(self._next_check[row])
                real = max(self._real(row, i * eta + delta), self._time)
                heapq.heappush(self._heap, (real, _ENTRY_ROW, row, i))
        else:
            # NFD-U/E: τ_0 = 0; arm only if the local clock is behind it.
            if self._tau_next[row] > self._local(row, now_real):
                real = max(self._real(row, self._tau_next[row]), self._time)
                self._gen[row] += 1
                heapq.heappush(
                    self._heap, (real, _ENTRY_ROW, row, -int(self._gen[row]))
                )
        self._request_wakeup()

    def _join_cohort(self, row: int, eta: float, delta: float) -> None:
        key = (eta, delta)
        cohort = self._cohorts.get(key)
        if cohort is None:
            cohort = _Cohort(eta, delta)
            self._cohorts[key] = cohort
        cohort.add(row)
        first = int(self._next_check[row])
        if not cohort.armed:
            cohort.tick = first
            cohort.armed = True
            heapq.heappush(
                self._heap,
                (cohort.freshness(first), _ENTRY_COHORT, key, first),
            )
        # An armed cohort's next tick is always <= any legal new member's
        # first index (first freshness points are in the future), so the
        # member is picked up when the shared grid reaches it.

    def _request_wakeup(self) -> None:
        if not self._heap:
            return
        t = self._heap[0][0]
        if self._armed is not None and self._armed <= t:
            return
        self._armed = t
        self._scheduler.wake_at(t, self._on_wake)

    def _on_wake(self) -> None:
        self._armed = None
        self.advance(self._scheduler.now())
        self._request_wakeup()

    # ------------------------------------------------------------------ #
    # Wheel
    # ------------------------------------------------------------------ #

    def advance(self, time: float) -> None:
        """Process every freshness deadline with ``deadline <= time``.

        Deadlines sharing a timestamp are gathered into one slice and
        their transitions emitted in canonical ``(time, row)`` order.
        """
        heap = self._heap
        while heap and heap[0][0] <= time:
            t0 = heap[0][0]
            entries = []
            while heap and heap[0][0] == t0:
                entries.append(heapq.heappop(heap))
            self._time = max(self._time, t0)
            self._process_slice(t0, entries)
        self._time = max(self._time, time)

    def _process_slice(self, t0: float, entries: List[Tuple]) -> None:
        suspects: List[int] = []
        rearm: List[Tuple] = []
        for entry in entries:
            _, etype, a, b = entry
            if etype == _ENTRY_COHORT:
                cohort = self._cohorts[a]
                tick = b
                if tick != cohort.tick:
                    continue  # superseded entry
                if cohort.n <= _SCALAR_MAX:
                    alive = self._tick_scalar(cohort, tick, suspects)
                else:
                    alive = self._tick_vector(cohort, tick, suspects)
                if not alive:
                    cohort.armed = False  # dormant until a member joins
                    cohort.n = 0
                    continue
                cohort.tick = tick + 1
                rearm.append(
                    (cohort.freshness(tick + 1), _ENTRY_COHORT, a, tick + 1)
                )
            else:
                row = a
                if not self._active[row]:
                    continue
                if b >= 0:
                    # NFD-S (non-perfect clock): b is the freshness index.
                    if b != self._next_check[row]:
                        continue
                    if self._max_seq[row] < b and self._trusted[row]:
                        self._trusted[row] = False
                        suspects.append(row)
                    self._next_check[row] = b + 1
                    eta = float(self._eta[row])
                    delta = float(self._shift[row])
                    real = max(
                        self._real(row, (b + 1) * eta + delta), t0
                    )
                    rearm.append((real, _ENTRY_ROW, row, b + 1))
                else:
                    # NFD-U/E expiry: -b is the arming generation.
                    if -b != self._gen[row]:
                        continue  # cancelled by a later heartbeat
                    if self._trusted[row]:
                        self._trusted[row] = False
                        suspects.append(row)
        for item in rearm:
            heapq.heappush(self._heap, item)
        if suspects:
            suspects.sort()
            for row in suspects:
                self._emit(row, t0, SUSPECT)

    def _tick_scalar(
        self, cohort: _Cohort, tick: int, suspects: List[int]
    ) -> bool:
        """One freshness point of a small cohort, member by member.
        Returns False when no member is active any more."""
        active = self._active
        alive = [r for r in cohort.rows[: cohort.n].tolist() if active[r]]
        if not alive:
            return False
        if len(alive) * 2 < cohort.n:
            cohort.rows[: len(alive)] = alive
            cohort.n = len(alive)
        next_check = self._next_check
        max_seq = self._max_seq
        trusted = self._trusted
        for row in alive:
            if next_check[row] == tick:
                if max_seq[row] < tick and trusted[row]:
                    trusted[row] = False
                    suspects.append(row)
                next_check[row] = tick + 1
        return True

    def _tick_vector(
        self, cohort: _Cohort, tick: int, suspects: List[int]
    ) -> bool:
        """One freshness point of a large cohort in vectorized passes.
        Returns False when no member is active any more."""
        members = cohort.members()
        alive = members[self._active[members]]
        if alive.size == 0:
            return False
        if alive.size * 2 < cohort.n:
            cohort.rows = alive.copy()
            cohort.n = alive.size
            alive = cohort.members()
        due = alive[self._next_check[alive] == tick]
        if due.size:
            stale = due[self._max_seq[due] < tick]
            if stale.size:
                newly = stale[self._trusted[stale]]
                if newly.size:
                    self._trusted[newly] = False
                    suspects.extend(newly.tolist())
            self._next_check[due] = tick + 1
        return True

    def _emit(self, row: int, real: float, output: str) -> None:
        if not self._active[row]:
            return  # removed by a listener earlier in this slice
        if self.transition_log is not None:
            self.transition_log.append((real, row, output))
        sink = self._sinks[row]
        if sink is not None:
            sink(real, self._local(row, real), output)

    # ------------------------------------------------------------------ #
    # Receipts
    # ------------------------------------------------------------------ #

    @staticmethod
    def _window_index(now: float, eta: float, delta: float) -> int:
        """NFD-S window index i with τ_i <= now < τ_{i+1} (float-exact
        replica of :meth:`NFDS._current_window_index`)."""
        i = math.floor((now - delta) / eta)
        while i * eta + delta > now:
            i -= 1
        while (i + 1) * eta + delta <= now:
            i += 1
        return i if i > 0 else 0

    def _deliver_nfds(self, row: int, seq: int, t: float) -> None:
        if seq > self._max_seq[row]:
            self._max_seq[row] = seq
        now_local = self._local(row, t)
        i = self._window_index(
            now_local, float(self._eta[row]), float(self._shift[row])
        )
        if self._max_seq[row] >= i and not self._trusted[row]:
            self._trusted[row] = True
            self._emit(row, t, TRUST)

    def _deliver_nfdu(self, row: int, seq: int, t: float) -> None:
        if seq <= self._max_seq[row]:
            return  # old or duplicate message: no effect (Fig. 9)
        self._max_seq[row] = seq
        now_local = self._local(row, t)
        eta = float(self._eta[row])
        if self._kind[row] == KIND_NFDE:
            ea = self._observe_window(row, seq, now_local, eta)
        else:
            ea = self._ea_fns[row](seq + 1)
        tau = ea + float(self._shift[row])
        self._tau_next[row] = tau
        self._gen[row] += 1  # cancels any armed expiry
        if now_local < tau:
            if not self._trusted[row]:
                self._trusted[row] = True
                self._emit(row, t, TRUST)
            real = max(self._real(row, tau), t)
            heapq.heappush(
                self._heap, (real, _ENTRY_ROW, row, -int(self._gen[row]))
            )
        else:
            # m_ℓ already stale on arrival: remain (or become) suspect.
            if self._trusted[row]:
                self._trusted[row] = False
                self._emit(row, t, SUSPECT)

    def _observe_window(
        self, row: int, seq: int, recv_local: float, eta: float
    ) -> float:
        """Feed the row's eq. (6.3) window and return EA_{seq+1}.

        Float-op order matches :class:`ArrivalTimeEstimator` exactly
        (append-then-evict), so estimates are bit-identical.
        """
        slot = self._win_slot[row]
        window = int(self._win_len[slot])
        count = int(self._win_count[slot])
        head = int(self._win_head[slot])
        norm = recv_local - eta * seq
        total = float(self._win_sum[slot]) + norm
        if count == window:
            total -= float(self._win_buf[slot, head])
            self._win_buf[slot, head] = norm
            self._win_head[slot] = (head + 1) % window
        else:
            self._win_buf[slot, (head + count) % window] = norm
            self._win_count[slot] = count + 1
            count += 1
        self._win_sum[slot] = total
        return total / min(count, window) + eta * (seq + 1)

    def deliver(
        self,
        row: int,
        seq: int,
        send_local_time: float = 0.0,
        at_real: Optional[float] = None,
    ) -> None:
        """Process one heartbeat receipt for ``row`` at ``at_real``
        (default: the scheduler's *now*) — a one-receipt :meth:`ingest`."""
        t = self._scheduler.now() if at_real is None else at_real
        self.ingest((t,), (row,), (seq,))

    def ingest(self, times, rows, seqs) -> None:
        """Consume a batch of heartbeats sorted by arrival time.

        Freshness deadlines due at or before a receipt's time fire
        first — the canonical deadline-before-delivery rule.  A batch of
        at most ``_SCALAR_MAX`` receipts is applied receipt by receipt
        (sequences are taken as they come, no arrays are built).  A
        larger one is cut at the wheel's deadlines; within each span,
        receipts for *trusted* perfect-clock NFD-S rows — the
        steady-state bulk — are applied as single vectorized passes,
        and receipts that can transition (suspected rows, NFD-U/E rows,
        skewed clocks) replay through the scalar rules.
        """
        n = len(times)
        if len(rows) != n or len(seqs) != n:
            raise InvalidParameterError("times/rows/seqs length mismatch")
        if n <= _SCALAR_MAX:
            for t, row, seq in zip(times, rows, seqs):
                self._receive(int(row), int(seq), float(t))
            self._request_wakeup()
            return
        times = np.ascontiguousarray(times, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        seqs = np.ascontiguousarray(seqs, dtype=np.int64)
        pos = 0
        while pos < n:
            t_dead = self._heap[0][0] if self._heap else math.inf
            hi = (
                int(np.searchsorted(times, t_dead, side="left"))
                if math.isfinite(t_dead)
                else n
            )
            if hi > pos:
                self._ingest_chunk(
                    times[pos:hi], rows[pos:hi], seqs[pos:hi]
                )
                pos = hi
            if pos < n:
                self.advance(times[pos])
        self._request_wakeup()

    def _receive(self, row: int, seq: int, t: float) -> None:
        """Apply one receipt (the scalar route of :meth:`ingest`)."""
        if row < 0 or row >= self._n or not self._active[row]:
            return
        heap = self._heap
        if heap and heap[0][0] <= t:
            self.advance(t)
            if not self._active[row]:
                return  # a deadline listener removed the row
        if t > self._time:
            self._time = t
        self._delivered[row] += 1
        if self._kind[row] != KIND_NFDS:
            self._deliver_nfdu(row, seq, t)
        elif self._trusted[row] and self._clocks[row] is None:
            # A trusted perfect-clock row cannot transition on receipt.
            if seq > self._max_seq[row]:
                self._max_seq[row] = seq
        else:
            self._deliver_nfds(row, seq, t)

    def _ingest_chunk(
        self, times: np.ndarray, rows: np.ndarray, seqs: np.ndarray
    ) -> None:
        """Apply a deadline-free span of receipts."""
        act = self._active[rows]
        if not act.all():
            times, rows, seqs = times[act], rows[act], seqs[act]
            if len(rows) == 0:
                return
        np.add.at(self._delivered, rows, 1)
        # Fast lane: trusted, perfect-clock NFD-S rows.  No deadline
        # falls inside the chunk, so a trusted row stays trusted for the
        # whole span and its receipts reduce to a running max.
        fast = (
            (self._kind[rows] == KIND_NFDS)
            & self._trusted[rows]
            & np.fromiter(
                (self._clocks[r] is None for r in rows),
                dtype=bool,
                count=len(rows),
            )
        )
        if fast.any():
            np.maximum.at(self._max_seq, rows[fast], seqs[fast])
        slow = ~fast
        if slow.any():
            for t, row, seq in zip(times[slow], rows[slow], seqs[slow]):
                row = int(row)
                t = float(t)
                self._time = max(self._time, t)
                kind = self._kind[row]
                if kind == KIND_NFDS:
                    self._deliver_nfds(row, int(seq), t)
                else:
                    self._deliver_nfdu(row, int(seq), t)
        if len(times):
            self._time = max(self._time, float(times[-1]))


# ---------------------------------------------------------------------- #
# Simulator-service host adapter
# ---------------------------------------------------------------------- #


class _RowDetectorView:
    """Read-only detector facade over one engine row.

    Presents the surface of a live :class:`HeartbeatFailureDetector`
    (``output``, ``suspects``, parameters, ``describe``) while the real
    state lives in the engine's tables; parameter attributes delegate to
    the original (unbound) spec detector.
    """

    __slots__ = ("_engine", "_row", "_spec")

    def __init__(self, engine: VectorMonitorEngine, row: int, spec) -> None:
        self._engine = engine
        self._row = row
        self._spec = spec

    @property
    def output(self) -> str:
        return self._engine.output_char(self._row)

    @property
    def suspects(self) -> bool:
        return self.output == SUSPECT

    def describe(self) -> str:
        return f"soa:{self._spec.describe()}"

    def __getattr__(self, name):
        return getattr(self._spec, name)


class SoAMonitorHost:
    """Drop-in for :class:`~repro.sim.monitor.DetectorHost` backed by a
    shared :class:`VectorMonitorEngine` row.

    Owns the per-incarnation measurement state (the
    :class:`~repro.metrics.transitions.OutputTrace`) exactly like the
    object host; the detector state and freshness timers live in the
    engine.  ``stop`` retires the row idempotently — a removed sender
    can never fire a final transition.
    """

    def __init__(
        self,
        engine: VectorMonitorEngine,
        detector: HeartbeatFailureDetector,
        clock: Optional[Clock] = None,
        incarnation: int = 0,
    ) -> None:
        from repro.metrics.transitions import OutputTrace

        self._engine = engine
        self._spec = detector
        self._clock = clock if clock is not None else PerfectClock()
        self._stopped = False
        self._started = False
        #: service-installed listener ``(local_time, output)``
        self.listener: Optional[Callable[[float, str], None]] = None
        self._trace = OutputTrace(
            start_time=engine.now, initial_output=detector.output
        )
        self._row = engine.register(
            detector,
            clock=None if isinstance(self._clock, PerfectClock) else self._clock,
            on_transition=self._on_transition,
            incarnation=incarnation,
        )
        self._detector_view = _RowDetectorView(engine, self._row, detector)

    # -- DetectorHost-compatible surface ------------------------------- #

    @property
    def row(self) -> int:
        return self._row

    @property
    def detector(self):
        return self._detector_view

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def delivered_count(self) -> int:
        return self._engine.delivered_count(self._row)

    @property
    def trace_start_time(self) -> float:
        return self._trace.start_time

    @property
    def trace_initial_output(self) -> str:
        return self._trace.initial_output

    @property
    def stopped(self) -> bool:
        return self._stopped

    def local_now(self) -> float:
        return self._clock.local_time(self._engine.now)

    def start(self) -> None:
        if self._started:
            raise SimulationError("host already started")
        self._started = True
        self._engine.start_row(self._row)

    def stop(self) -> None:
        """Retire the row; idempotent (see :meth:`VectorMonitorEngine.remove`)."""
        self._stopped = True
        self._engine.remove(self._row)

    def deliver(self, seq: int, send_local_time: float) -> None:
        if self._stopped:
            return  # late arrival to a removed incarnation
        self._engine.deliver(self._row, seq, send_local_time)

    def _on_transition(self, real: float, local: float, output: str) -> None:
        if self._stopped:
            return
        self._trace.record(real, output)
        if self.listener is not None:
            self.listener(local, output)

    def finish(self):
        """Close and return the output trace at the current time."""
        return self._trace.close(self._engine.now)
