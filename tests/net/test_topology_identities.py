"""Property tests for the path-composition identities.

Three identities make :func:`repro.net.topology.compose_path` the bridge
from a hop-by-hop WAN description to the paper's single-link model:

1. **Exact moment additivity** — ``PathDelay`` mean/variance equal the
   hop sums *exactly* (float-sum equality, not approximation): the
   Section 5/6 configurators consume these moments, so any slack here
   would leak into certified configurations.
2. **Multiplicative loss** — the composed loss equals
   ``1 − Π(1 − p_i)``, and a brute-force per-hop Bernoulli transmit
   converges to the same rate.
3. **Single-hop transparency** — a one-hop path is *distributionally
   identical* to its underlying :class:`DelayDistribution`: identical
   samples from an identically seeded generator, identical moments, and
   a Monte-Carlo CDF that converges to the hop's exact CDF.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.delays import (
    ConstantDelay,
    ExponentialDelay,
    GammaDelay,
    LogNormalDelay,
    ShiftedExponentialDelay,
    UniformDelay,
)
from repro.net.topology import PathDelay, compose_path

# One strategy per delay family, parameters kept in well-conditioned
# ranges (the identities are exact regardless; the ranges just keep the
# Monte-Carlo checks fast to converge).
_hop = st.one_of(
    st.floats(0.005, 0.2).map(ExponentialDelay),
    st.floats(0.01, 0.1).map(ConstantDelay),
    st.tuples(st.floats(0.0, 0.05), st.floats(0.005, 0.1)).map(
        lambda t: ShiftedExponentialDelay(*t)
    ),
    st.tuples(st.floats(0.01, 0.05), st.floats(0.06, 0.2)).map(
        lambda t: UniformDelay(*t)
    ),
    st.tuples(st.floats(0.5, 4.0), st.floats(0.005, 0.05)).map(
        lambda t: GammaDelay(*t)
    ),
    st.tuples(st.floats(-4.0, -2.0), st.floats(0.2, 0.8)).map(
        lambda t: LogNormalDelay(*t)
    ),
)

_hops = st.lists(_hop, min_size=1, max_size=5)
_losses = st.lists(st.floats(0.0, 0.6), min_size=1, max_size=5)


class TestMomentAdditivity:
    @given(hops=_hops)
    @settings(max_examples=60, deadline=None)
    def test_mean_and_variance_are_exact_hop_sums(self, hops):
        path = PathDelay(hops)
        assert path.mean == float(sum(h.mean for h in hops))
        assert path.variance == float(sum(h.variance for h in hops))

    @given(hops=_hops, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_sampled_moments_converge_to_the_sums(self, hops, seed):
        path = PathDelay(hops)
        s = path.sample(np.random.default_rng(seed), 60_000)
        assert s.mean() == pytest.approx(path.mean, rel=0.05, abs=1e-3)
        assert s.var() == pytest.approx(
            path.variance, rel=0.25, abs=1e-4
        )


class TestLossComposition:
    @given(losses=_losses)
    @settings(max_examples=60, deadline=None)
    def test_composed_loss_is_one_minus_survival_product(self, losses):
        _, loss = compose_path([(ConstantDelay(0.01), p) for p in losses])
        survival = math.prod(1.0 - p for p in losses)
        assert loss == pytest.approx(1.0 - survival, abs=1e-12)

    @given(
        losses=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_composed_loss_matches_per_hop_monte_carlo(self, losses, seed):
        """Brute force: transmit n messages hop by hop, each hop an
        independent Bernoulli drop; the end-to-end survival fraction
        must converge to the composed rate."""
        _, loss = compose_path([(ConstantDelay(0.01), p) for p in losses])
        rng = np.random.default_rng(seed)
        n = 40_000
        delivered = np.ones(n, dtype=bool)
        for p in losses:
            delivered &= rng.random(n) >= p
        mc_loss = 1.0 - delivered.mean()
        # Band z·σ with a false-failure budget of 1e-6 per example:
        # P(|N(0,1)| > 4.9) ≈ 9.6e-7.  σ = sqrt(p(1-p)/n) is taken at
        # p = 1/2, its maximum: exact where the normal approximation
        # holds at n = 40k, and conservative for small p, where the
        # binomial tail is heavier than the normal one.
        sigma = math.sqrt(0.25 / n)
        assert abs(mc_loss - loss) <= 4.9 * sigma


class TestSingleHopTransparency:
    @given(hop=_hop, seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_samples_bit_identical_to_hop(self, hop, seed):
        path = PathDelay([hop])
        a = path.sample(np.random.default_rng(seed), 512)
        b = hop.sample(np.random.default_rng(seed), 512)
        assert np.array_equal(a, b)
        assert path.mean == hop.mean
        assert path.variance == hop.variance

    @given(hop=_hop)
    @settings(max_examples=20, deadline=None)
    def test_monte_carlo_cdf_converges_to_hop_cdf(self, hop):
        path = PathDelay([hop], cdf_samples=120_000, seed=11)
        lo = max(hop.mean - 2.0 * hop.std, 1e-6)
        grid = np.linspace(lo, hop.mean + 3.0 * hop.std, 13)
        # DKW bound: P(sup-norm error > 0.008) <= 2·exp(-2·n·0.008²)
        # ≈ 4e-7 at n = 120k; allow atoms on the grid (ConstantDelay)
        # via side='right' cdf.
        np.testing.assert_allclose(
            np.asarray(path.cdf(grid)),
            np.asarray(hop.cdf(grid)),
            atol=0.008,
        )
