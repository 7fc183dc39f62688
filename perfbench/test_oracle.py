"""Tests for the verdict oracle on hand-built schedules.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

import math

import pytest

from oracle import (
    SUSPECT,
    TRUST,
    Stream,
    Verdict,
    check,
    expected_verdicts,
    match,
)

ETA = 0.1
DELTA = 0.04


def stream(sent, start=10, end=30, **kw):
    return Stream(
        name=kw.pop("name", "p"),
        incarnation=kw.pop("incarnation", 0),
        eta=ETA,
        delta=DELTA,
        start_seq=start,
        end_seq=end,
        sent=tuple(sent),
        **kw,
    )


def kinds(expected):
    return [(e.output, round(e.due, 9), e.cause) for e in expected]


def test_no_gap_no_verdicts():
    assert expected_verdicts(stream(range(10, 30))) == []


def test_single_drop_is_one_s_at_tau_and_one_t_at_next_sigma():
    sent = [i for i in range(10, 30) if i != 15]
    got = kinds(expected_verdicts(stream(sent)))
    assert got == [
        (SUSPECT, round(15 * ETA + DELTA, 9), "gap"),
        (TRUST, round(16 * ETA, 9), "recover"),
    ]


def test_dropped_run_yields_one_pair():
    sent = [i for i in range(10, 30) if not 15 <= i <= 18]
    got = kinds(expected_verdicts(stream(sent)))
    assert got == [
        (SUSPECT, round(15 * ETA + DELTA, 9), "gap"),
        (TRUST, round(19 * ETA, 9), "recover"),
    ]


def test_back_to_back_gaps_separated_by_one_heartbeat():
    sent = [i for i in range(10, 30) if i not in (15, 17, 18)]
    got = kinds(expected_verdicts(stream(sent)))
    assert got == [
        (SUSPECT, round(15 * ETA + DELTA, 9), "gap"),
        (TRUST, round(16 * ETA, 9), "recover"),
        (SUSPECT, round(17 * ETA + DELTA, 9), "gap"),
        (TRUST, round(19 * ETA, 9), "recover"),
    ]


def test_crash_is_one_s_and_nothing_after():
    got = kinds(expected_verdicts(stream(range(10, 20), end=20, crashed=True)))
    assert got == [(SUSPECT, round(20 * ETA + DELTA, 9), "crash")]


def test_crash_inside_a_gap_adds_no_second_s():
    sent = [i for i in range(10, 20) if i != 19]
    got = kinds(expected_verdicts(stream(sent, end=20, crashed=True)))
    assert got == [(SUSPECT, round(19 * ETA + DELTA, 9), "gap")]


def test_immediate_restart_suppresses_old_suspicion():
    old = stream(range(10, 20), end=20, superseded_at=20 * ETA)
    assert expected_verdicts(old) == []


def test_restart_after_a_pause_suspects_old_incarnation_first():
    old = stream(range(10, 20), end=20, superseded_at=22 * ETA)
    assert kinds(expected_verdicts(old)) == [
        (SUSPECT, round(20 * ETA + DELTA, 9), "crash")
    ]


def test_new_incarnation_trusts_on_its_second_heartbeat():
    new = stream(range(22, 30), start=22, incarnation=1, fresh=True)
    got = expected_verdicts(new)
    assert kinds(got) == [(TRUST, round(23 * ETA, 9), "restart")]
    assert got[0].origin == pytest.approx(22 * ETA)


def test_restart_latency_counts_from_the_first_heartbeat():
    new = stream(range(22, 30), start=22, incarnation=1, fresh=True)
    verdicts = [Verdict(23 * ETA + 0.001, "p", TRUST, 1)]
    out = match([new], verdicts, t_start=0.0, t_end=10.0)
    assert out.latency["restart"] == [pytest.approx(ETA + 0.001)]


def test_admission_is_reported_as_admit():
    new = stream(range(5, 30), start=5, fresh=True)
    assert kinds(expected_verdicts(new))[0][2] == "admit"


def test_oracle_refuses_delta_not_below_eta():
    s = Stream("p", 0, ETA, ETA, 1, 5, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        expected_verdicts(s)


def test_until_bounds_each_expectation_by_the_next():
    sent = [i for i in range(10, 30) if i != 15]
    s_exp, t_exp = expected_verdicts(stream(sent))
    assert s_exp.until == t_exp.due
    assert math.isinf(t_exp.until)


def test_match_counts_latency_spurious_and_missing():
    sent = [i for i in range(10, 30) if i not in (15, 25)]
    s = stream(sent)
    verdicts = [
        Verdict(15 * ETA + DELTA + 0.001, "p", SUSPECT, 0),
        Verdict(16 * ETA + 0.002, "p", TRUST, 0),
        # a monitor-caused mistake: S and T around a delivered heartbeat
        Verdict(20 * ETA + DELTA + 0.001, "p", SUSPECT, 0),
        Verdict(21 * ETA + 0.001, "p", TRUST, 0),
        # the S for the drop of 25 never comes; the T does
        Verdict(26 * ETA + 0.003, "p", TRUST, 0),
    ]
    out = match([s], verdicts, t_start=0.0, t_end=10.0)
    assert out.expected == 4
    assert out.matched == 3
    assert out.missing == 1
    assert out.spurious_s == 1
    assert out.spurious_t == 1
    assert out.latency["gap"] == [pytest.approx(0.001)]
    assert sorted(out.latency["recover"]) == [
        pytest.approx(0.002),
        pytest.approx(0.003),
    ]
    assert out.error_ratio == pytest.approx(2 / 4)


def test_match_ignores_verdicts_outside_the_span_and_flags_unknown_streams():
    s = stream(range(10, 30))
    verdicts = [
        Verdict(0.5, "p", SUSPECT, 0),  # before the span
        Verdict(1.5, "ghost", TRUST, 0),
    ]
    out = match([s], verdicts, t_start=1.0, t_end=3.0)
    assert out.expected == 0
    assert out.spurious_t == 1
    assert out.spurious_s == 0


def test_check_flags_trust_inside_a_gap_and_after_a_crash():
    sent = [i for i in range(10, 20) if not 13 <= i <= 14]
    s = stream(sent, end=20, crashed=True)
    good = [
        Verdict(13 * ETA + DELTA, "p", SUSPECT, 0),
        Verdict(15 * ETA + 0.001, "p", TRUST, 0),
        Verdict(20 * ETA + DELTA, "p", SUSPECT, 0),
    ]
    checks, violations = check([s], good, t_end=10.0)
    assert checks == 2 + 1  # gap, ended, completeness
    assert violations == []
    bad = good + [
        Verdict(14 * ETA, "p", TRUST, 0),
        Verdict(21 * ETA, "p", TRUST, 0),
    ]
    bad.sort(key=lambda v: v.time)
    _, violations = check([s], bad, t_end=10.0)
    assert len(violations) == 3  # T in gap, T after crash, not S at the end


def test_check_flags_trust_for_a_superseded_incarnation():
    old = stream(range(10, 20), end=20, superseded_at=20 * ETA)
    verdicts = [Verdict(20 * ETA + DELTA + 0.01, "p", TRUST, 0)]
    _, violations = check([old], verdicts, t_end=10.0)
    assert len(violations) == 1
