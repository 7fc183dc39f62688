"""Bit-identity tests for the closed-form crash-run kernel.

The invariant under test: for a fixed seed, every crash run that
:func:`repro.sim.parallel.run_crash_runs_parallel` routes through the
kernel of :mod:`repro.sim.batch` — crash detection times and the
detection-time table — is *bit-identical* to the event-driven reference
:func:`repro.sim.runner.run_crash_runs`, for every ``chunk_size`` and
every ``jobs`` value (a kernel batch is one ``chunk_size`` span of
runs).  The route is a pure execution strategy; it must never be
observable in the numbers.  The kernel-route telemetry counter
shows which route a call took, so a silent fallback cannot hide behind
an identity check.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import telemetry
from repro.core.base import HeartbeatFailureDetector, SUSPECT
from repro.core.nfd_e import NFDE
from repro.core.nfd_s import NFDS
from repro.core.nfd_u import NFDU
from repro.core.simple import SimpleFD
from repro.errors import InvalidParameterError
from repro.net.clocks import DriftingClock
from repro.net.delays import (
    ConstantDelay,
    ExponentialDelay,
    MixtureDelay,
    UniformDelay,
)
from repro.sim.batch import crash_kernel_spec
from repro.sim.parallel import run_crash_runs_parallel
from repro.sim.runner import CrashRunResult, SimulationConfig, run_crash_runs

CHUNK_SIZES = [1, 3, 64]
JOBS = [1, 2]


def _config(seed: int = 42, **kw) -> SimulationConfig:
    base = dict(
        eta=1.0,
        delay=ExponentialDelay(0.02),
        loss_probability=0.01,
        horizon=80.0,
        warmup=0.0,
        seed=seed,
    )
    base.update(kw)
    return SimulationConfig(**base)


DETECTORS = {
    "nfds": lambda: NFDS(eta=1.0, delta=1.0),
    "nfde": lambda: NFDE(eta=1.0, alpha=0.9, window=8),
    "nfdu": lambda: NFDU(
        eta=1.0, alpha=0.9, expected_arrival=lambda s: s * 1.0 + 0.02
    ),
    "sfd_cutoff": lambda: SimpleFD(timeout=1.7, cutoff=0.3),
    "sfd_plain": lambda: SimpleFD(timeout=2.0),
}


def _assert_same_result(a: CrashRunResult, b: CrashRunResult) -> None:
    assert np.array_equal(a.crash_times, b.crash_times)
    assert np.array_equal(a.detection_times, b.detection_times)


def _kernel_runs(reg) -> int:
    """Crash runs the closed-form kernel evaluated under ``reg``."""
    return sum(
        metric.value
        for key, metric in reg.items()
        if key.startswith("batch_crash_runs_total")
    )


def _run(
    factory, config, n_runs, *, kernel=True, jobs=1, **kw
) -> CrashRunResult:
    """One-entry-point run that also asserts which route it took."""
    with telemetry.enabled() as reg:
        result = run_crash_runs_parallel(
            factory, config, n_runs=n_runs, jobs=jobs, **kw
        )
    assert _kernel_runs(reg) == (n_runs if kernel else 0)
    return result


class TestCrashKernelBitIdentity:
    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_matches_event_driven_all_batch_sizes(self, name):
        factory = DETECTORS[name]
        config = _config()
        ref = run_crash_runs(factory, config, n_runs=24, settle_time=40.0)
        for chunk_size in CHUNK_SIZES:
            for jobs in JOBS:
                got = _run(
                    factory,
                    config,
                    24,
                    chunk_size=chunk_size,
                    jobs=jobs,
                    settle_time=40.0,
                )
                _assert_same_result(ref, got)

    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_matches_under_heavy_loss(self, name):
        # Heavy loss exercises the premature-suspicion and no-delivery
        # branches, and the data-dependent RNG interleave of LossyLink.
        factory = DETECTORS[name]
        config = _config(
            seed=7,
            delay=ExponentialDelay(0.3),
            loss_probability=0.35,
            horizon=60.0,
        )
        ref = run_crash_runs(factory, config, n_runs=20, settle_time=6.0)
        got = _run(factory, config, 20, chunk_size=7, settle_time=6.0)
        _assert_same_result(ref, got)
        assert ref.n_premature > 0  # regime check: branch was exercised

    def test_matches_with_mixture_delay_and_undetected(self):
        # Mixture delays draw a different RNG pattern per sample; a long
        # tail plus a short settle also produces never-detected runs.
        mix = MixtureDelay(
            [ExponentialDelay(0.05), UniformDelay(0.5, 2.5)], [0.7, 0.3]
        )
        config = _config(
            seed=9, eta=0.5, delay=mix, loss_probability=0.1, horizon=60.0
        )
        factory = DETECTORS["nfds"]
        ref = run_crash_runs(factory, config, n_runs=20, settle_time=6.0)
        got = _run(factory, config, 20, settle_time=6.0)
        _assert_same_result(ref, got)
        assert ref.n_undetected > 0  # regime check

    def test_matches_with_constant_delay_ties(self):
        # Constant delays make arrivals land exactly on freshness points
        # and timer deadlines — the tie cases of the closed forms.
        config = _config(
            seed=11, delay=ConstantDelay(0.25), loss_probability=0.2,
            horizon=60.0,
        )
        for name in sorted(DETECTORS):
            ref = run_crash_runs(
                DETECTORS[name], config, n_runs=16, settle_time=8.0
            )
            got = _run(
                DETECTORS[name], config, 16, chunk_size=5, settle_time=8.0
            )
            _assert_same_result(ref, got)

    def test_batch_size_never_changes_results(self):
        config = _config(seed=3)
        factory = DETECTORS["sfd_cutoff"]
        results = [
            _run(
                factory, config, 17, chunk_size=cs, settle_time=40.0
            ).detection_times
            for cs in (1, 2, 5, 17, 1000)
        ]
        for other in results[1:]:
            assert np.array_equal(results[0], other)

    def test_invalid_batch_size(self):
        with pytest.raises(InvalidParameterError):
            run_crash_runs_parallel(
                DETECTORS["nfds"], _config(), n_runs=4, chunk_size=0
            )


class TestCrashKernelSpec:
    def test_known_detectors_supported(self):
        config = _config()
        for name, factory in DETECTORS.items():
            spec = crash_kernel_spec(factory, config)
            assert spec is not None, name

    def test_unknown_detector_falls_back(self):
        class OddDetector(HeartbeatFailureDetector):
            def _on_start(self):
                self._set_output(SUSPECT)

            def on_heartbeat(self, heartbeat):
                pass

        config = _config()
        assert crash_kernel_spec(OddDetector, config) is None
        # The entry point still works — via the event-driven route.
        ref = run_crash_runs(OddDetector, config, n_runs=5, settle_time=10.0)
        got = _run(
            OddDetector, config, 5, kernel=False, chunk_size=2,
            settle_time=10.0,
        )
        _assert_same_result(ref, got)

    def test_subclass_not_matched(self):
        # Exact types only: a subclass may override behaviour the closed
        # forms do not model.
        class TweakedNFDS(NFDS):
            pass

        def factory():
            return TweakedNFDS(eta=1.0, delta=1.0)

        config = _config()
        assert crash_kernel_spec(factory, config) is None
        ref = run_crash_runs(factory, config, n_runs=4, settle_time=10.0)
        got = _run(factory, config, 4, kernel=False, settle_time=10.0)
        _assert_same_result(ref, got)

    def test_nonperfect_clock_falls_back(self):
        config = _config(monitor_clock=DriftingClock(drift=1e-4))
        assert crash_kernel_spec(DETECTORS["nfds"], config) is None
        ref = run_crash_runs(
            DETECTORS["nfds"], config, n_runs=6, settle_time=10.0
        )
        got = _run(
            DETECTORS["nfds"], config, 6, kernel=False, chunk_size=3,
            settle_time=10.0,
        )
        _assert_same_result(ref, got)

    def test_keep_traces_falls_back(self):
        got = _run(
            DETECTORS["nfds"],
            _config(),
            4,
            kernel=False,
            chunk_size=2,
            settle_time=10.0,
            keep_traces=True,
        )
        assert len(got.traces) == 4

    def test_link_factory_falls_back(self):
        # Regression: a relayed WAN route draws its own fates, which the
        # kernel's LossyLink replay would silently replace.
        from repro.experiments.wan_exp import (
            WanSettings,
            build_topology,
            route_config,
        )

        s = WanSettings(seed=1, horizon=200.0)
        config = route_config(s, build_topology(), "sgp")
        factory = s.detector_factory()
        assert crash_kernel_spec(factory, config) is None
        ref = run_crash_runs(factory, config, n_runs=12, settle_time=10.0)
        got = _run(factory, config, 12, kernel=False, settle_time=10.0)
        _assert_same_result(ref, got)


class TestPrematureProperty:
    def test_counts_exact_zeros(self):
        result = CrashRunResult(
            detection_times=np.array([0.0, 1.5, math.inf, 0.0]),
            crash_times=np.zeros(4),
        )
        assert result.n_premature == 2
        assert result.n_undetected == 1


class TestBatchedExperiments:
    def test_detection_time_batched_equals_serial(self, monkeypatch):
        """E7 takes the kernel route for all four cases, and its table
        equals the one the event-driven route produces."""
        from repro.experiments.detection_time import run_detection_time
        from repro.sim import parallel

        with telemetry.enabled() as reg:
            batched = run_detection_time(n_runs=12)
        assert _kernel_runs(reg) == 4 * 12
        monkeypatch.setattr(
            parallel, "crash_kernel_spec", lambda factory, config: None
        )
        serial = run_detection_time(n_runs=12)
        assert serial.to_text() == batched.to_text()


class TestFastReplay:
    """The certified sampling shortcuts and the fate-stream cache."""

    def test_scalar_samplers_certify_for_plain_families(self):
        from repro.net.delays import (
            GammaDelay,
            LogNormalDelay,
            ShiftedExponentialDelay,
            WeibullDelay,
        )
        from repro.sim.batch import _verified_scalar_sampler

        plain = [
            ExponentialDelay(0.02),
            ShiftedExponentialDelay(0.01, 0.05),
            UniformDelay(0.1, 0.5),
            ConstantDelay(0.3),
            GammaDelay(2.0, 0.01),
            WeibullDelay(1.5, 0.02),
            LogNormalDelay(-4.0, 0.5),
        ]
        for delay in plain:
            assert _verified_scalar_sampler(delay) is not None, delay

    def test_interleaved_families_fall_back(self):
        from repro.net.delays import EmpiricalDelay
        from repro.sim.batch import (
            _verified_batch_sampling,
            _verified_scalar_sampler,
        )

        mixture = MixtureDelay(
            [ExponentialDelay(0.05), UniformDelay(0.5, 2.5)], [0.7, 0.3]
        )
        empirical = EmpiricalDelay([0.1, 0.2, 0.3, 0.4])
        # No scalar shortcut exists for either family.
        assert _verified_scalar_sampler(mixture) is None
        assert _verified_scalar_sampler(empirical) is None
        # A batched mixture draws all component choices before any
        # values — a different stream order than per-message draws — so
        # it must fail certification.  (The empirical bootstrap is a
        # plain per-element integer draw and legitimately certifies.)
        assert not _verified_batch_sampling(mixture)
        assert _verified_batch_sampling(empirical)

    def test_subclass_never_certifies(self):
        from repro.sim.batch import _verified_scalar_sampler

        class Tweaked(ExponentialDelay):
            def sample(self, rng, size):
                return super().sample(rng, size) * 2.0

        assert _verified_scalar_sampler(Tweaked(0.02)) is None

    def test_batch_sampling_certifies_without_loss(self):
        from repro.sim.batch import _verified_batch_sampling

        assert _verified_batch_sampling(ExponentialDelay(0.02))
        assert _verified_batch_sampling(UniformDelay(0.1, 0.5))

    def test_fate_cache_reuse_is_bit_identical(self):
        """A second kernel call over the same link reuses cached
        prefixes (and extends them for longer runs) without changing a
        single value — the detection-time experiment's access pattern."""
        from repro.sim import batch as batch_mod

        config = _config(seed=99)
        factory = DETECTORS["nfds"]
        ref = run_crash_runs(factory, config, n_runs=24, settle_time=40.0)
        batch_mod._FATES_CACHE.clear()
        first = _run(factory, config, 10, chunk_size=4, settle_time=40.0)
        cached = _run(factory, config, 24, chunk_size=7, settle_time=40.0)
        assert np.array_equal(
            first.detection_times, ref.detection_times[:10]
        ) or first.crash_times.size == 10  # crash times differ with n_runs
        _assert_same_result(cached, ref)

    def test_fate_cache_shared_across_detector_cases(self):
        """Different detectors over the same link replay each stream
        once; the second case must still match its own serial run."""
        from repro.sim import batch as batch_mod

        config = _config(seed=7)
        batch_mod._FATES_CACHE.clear()
        for name in ("nfds", "sfd_cutoff", "nfde"):
            factory = DETECTORS[name]
            ref = run_crash_runs(factory, config, n_runs=16, settle_time=40.0)
            got = _run(factory, config, 16, settle_time=40.0)
            _assert_same_result(got, ref)
