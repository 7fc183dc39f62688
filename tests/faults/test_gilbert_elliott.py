"""The Gilbert–Elliott bursty-loss link: closed forms and statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.faults import GilbertElliottLink
from repro.net.delays import ConstantDelay, ExponentialDelay


def _link(rng, p_good=0.0, p_bad=1.0, p_gb=0.02, p_bg=0.25):
    return GilbertElliottLink(
        ExponentialDelay(0.02),
        p_good=p_good,
        p_bad=p_bad,
        p_gb=p_gb,
        p_bg=p_bg,
        rng=rng,
    )


class TestClosedForms:
    def test_stationary_distribution(self, rng):
        link = _link(rng, p_gb=0.02, p_bg=0.25)
        assert link.stationary_bad == pytest.approx(0.02 / 0.27)
        assert link.mean_burst_length == pytest.approx(4.0)

    @given(
        p_good=st.floats(min_value=0.0, max_value=0.3),
        p_bad=st.floats(min_value=0.5, max_value=1.0),
        p_gb=st.floats(min_value=1e-3, max_value=1.0),
        p_bg=st.floats(min_value=1e-3, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_stationary_loss_closed_form(self, p_good, p_bad, p_gb, p_bg):
        link = GilbertElliottLink(
            ConstantDelay(0.1),
            p_good=p_good,
            p_bad=p_bad,
            p_gb=p_gb,
            p_bg=p_bg,
            rng=np.random.default_rng(0),
        )
        pi_bad = p_gb / (p_gb + p_bg)
        expected = (1.0 - pi_bad) * p_good + pi_bad * p_bad
        assert link.stationary_loss_rate == pytest.approx(expected)
        # Balance: flow good->bad equals flow bad->good in stationarity.
        assert (1.0 - pi_bad) * p_gb == pytest.approx(pi_bad * p_bg)

    def test_from_average_matches_target(self):
        link = GilbertElliottLink.from_average(
            ConstantDelay(0.1), average_loss=0.05, burst_length=6.0,
            rng=np.random.default_rng(0),
        )
        assert link.stationary_loss_rate == pytest.approx(0.05)
        assert link.mean_burst_length == pytest.approx(6.0)

    def test_from_average_validates(self):
        delay = ConstantDelay(0.1)
        with pytest.raises(InvalidParameterError):
            GilbertElliottLink.from_average(delay, 0.05, burst_length=0.5)
        with pytest.raises(InvalidParameterError):
            GilbertElliottLink.from_average(delay, 1.0, burst_length=4.0)
        with pytest.raises(InvalidParameterError):
            # avg below p_good is unreachable
            GilbertElliottLink.from_average(
                delay, 0.05, burst_length=4.0, p_good=0.1
            )


class TestStatistics:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        average=st.sampled_from([0.02, 0.05, 0.10]),
        burst=st.sampled_from([2.0, 4.0, 8.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_empirical_loss_matches_stationary_rate(
        self, seed, average, burst
    ):
        """The long-run loss rate converges to π_g·p_g + π_b·p_b.

        The tolerance uses the exact asymptotic variance of the mean of
        a Markov-modulated Bernoulli sequence: with ρ = 1 − p_gb − p_bg,
        long-run Var = p̄(1−p̄) + 2(p_b−p_g)²·π_g·π_b·ρ/(1−ρ).  The band
        is z·σ with a false-failure budget of 1e-6 per example.  The
        loss count of 4000 messages in bursts of up to 8 is right-skewed,
        so a normal z understates the tail: the exact tail, computed by
        dynamic programming over (channel state, loss count) from the
        stationary start, is at most 7.9e-7 at z = 7 over the nine drawn
        (average, burst) pairs (at z = 6 it reaches 9.5e-6).
        """
        n = 4000
        link = GilbertElliottLink.from_average(
            ConstantDelay(0.1), average, burst,
            rng=np.random.default_rng(seed),
        )
        p_gb, p_bg = link.transition_probabilities
        p_good, p_bad = link.state_loss_probabilities
        fates = np.isinf(link.transmit_batch(n))
        pi_bad = link.stationary_bad
        p_bar = link.stationary_loss_rate
        rho = 1.0 - p_gb - p_bg
        var = p_bar * (1.0 - p_bar) + (
            2.0 * (p_bad - p_good) ** 2 * (1.0 - pi_bad) * pi_bad
            * rho / (1.0 - rho)
        )
        tolerance = 7.0 * math.sqrt(var / n)
        assert abs(fates.mean() - p_bar) <= tolerance
        assert link.stats.offered == n
        assert link.stats.dropped == int(fates.sum())

    def test_losses_arrive_in_bursts(self):
        """Mean run length of consecutive losses ≈ the burst length
        (p_bad = 1 makes loss runs and bad sojourns coincide)."""
        link = GilbertElliottLink.from_average(
            ConstantDelay(0.1), 0.05, burst_length=8.0,
            rng=np.random.default_rng(123),
        )
        fates = np.isinf(link.transmit_batch(400_000)).astype(int)
        edges = np.diff(np.concatenate([[0], fates, [0]]))
        starts = np.flatnonzero(edges == 1)
        ends = np.flatnonzero(edges == -1)
        run_lengths = ends - starts
        assert run_lengths.mean() == pytest.approx(8.0, rel=0.1)


class TestDeterminism:
    def test_same_seed_same_fates(self):
        a = _link(np.random.default_rng(42))
        b = _link(np.random.default_rng(42))
        for i in range(500):
            ra = a.transmit(i, float(i))
            rb = b.transmit(i, float(i))
            assert ra.delay == rb.delay

    def test_transmit_and_batch_share_the_stream(self):
        """n transmit() calls and one transmit_batch(n) draw the same
        fates from the same generator state."""
        a = _link(np.random.default_rng(7))
        b = _link(np.random.default_rng(7))
        singles = np.array([a.transmit(i, 0.0).delay for i in range(300)])
        batch = b.transmit_batch(300)
        assert np.array_equal(singles, batch)

    def test_validates_parameters(self):
        with pytest.raises(InvalidParameterError):
            _link(np.random.default_rng(0), p_bad=1.5)
        with pytest.raises(InvalidParameterError):
            _link(np.random.default_rng(0), p_gb=0.0)
