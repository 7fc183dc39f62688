"""Property-based agreement of the vectorized NFD-S simulator with the
Theorem 5 closed forms across random parameter points.

The exact replay tests pin the *semantics*; this pins the *statistics*
over a broad random slice of the parameter space (loss rates, shifts,
delay scales), so a regression that only bites some regimes is caught.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.nfds_theory import NFDSAnalysis
from repro.net.delays import ExponentialDelay
from repro.sim.fastsim import simulate_nfds_fast


@given(
    delta=st.floats(min_value=0.0, max_value=2.5),
    p_l=st.floats(min_value=0.0, max_value=0.3),
    mean=st.floats(min_value=0.05, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
@pytest.mark.slow
def test_fastsim_tracks_theorem5(delta, p_l, mean, seed):
    eta = 1.0
    delay = ExponentialDelay(mean)
    analysis = NFDSAnalysis(eta, delta, p_l, delay)
    result = simulate_nfds_fast(
        eta,
        delta,
        p_l,
        delay,
        seed=seed,
        target_mistakes=10**9,
        max_heartbeats=150_000,
        chunk_size=50_000,
    )
    # Query accuracy is a time-average: it converges fast everywhere.
    assert result.query_accuracy == pytest.approx(
        analysis.query_accuracy(), abs=0.01
    )
    # Mistake statistics only when enough samples accumulated.  Both
    # T_MR and T_M have a coefficient of variation of at most about 1
    # here (near-geometric recurrences, exponential-tail durations), so
    # with n >= 300 samples the 30 % band is >= 0.30·sqrt(300) ≈ 5.2σ:
    # within the 1e-6 false-failure budget per example.
    if result.n_mistakes >= 300:
        assert result.e_tmr == pytest.approx(analysis.e_tmr(), rel=0.30)
        assert result.e_tm == pytest.approx(analysis.e_tm(), rel=0.30)
    elif analysis.e_tmr() > 10_000:
        # Rare-mistake regime: the simulator must also see mistakes
        # rarely (no more than a few times the analytic rate's budget).
        # The count is about Poisson(expected); the floor of 12 keeps
        # its tail past the bound <= 5e-7 for every expected value
        # (worst near expected = 2.2; a floor of 10 allowed 3.6e-6).
        expected = result.total_time / analysis.e_tmr()
        assert result.n_mistakes <= max(12.0, 6.0 * expected)
