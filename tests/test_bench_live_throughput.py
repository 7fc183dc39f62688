"""The live-throughput benchmark and its committed artifact.

Tier-1 coverage for ``benchmarks/bench_live_throughput.py``: the smoke
mode must run end to end with the documented schema (including its
built-in object-vs-SoA dispatch-identity check), and the committed
``BENCH_live_throughput.json`` must keep recording why the SoA engine
exists — it beats the object engine on a burst, on the detector-core
path.  Timings are machine-dependent and never re-asserted here; only
the committed ratios are.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "bench_live_throughput.py"
ARTIFACT = REPO_ROOT / "BENCH_live_throughput.json"

MODE_KEYS = {"object", "soa"}


def _load_module():
    spec = importlib.util.spec_from_file_location(
        "bench_live_throughput", SCRIPT
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_schema(doc):
    assert doc["schema"] == "repro.bench.live_throughput/2"
    identity = doc["identity_check"]
    # collect() raises if any mode's dispatch fingerprint diverges, so
    # a written document implies the identity check passed — but the
    # artifact must say so explicitly.
    assert identity["identical"] is True
    assert identity["stream_datagrams"] > 0
    assert identity["counters"]["live_datagrams_invalid_total"] > 0
    assert identity["counters"]["live_incarnation_restarts_total"] > 0
    assert identity["counters"]["live_stale_incarnation_total"] > 0
    throughput = doc["throughput"]
    assert throughput["heartbeats"] == (
        throughput["n_senders"] * throughput["slots"]
    )
    for section in ("full_service", "detector_core"):
        modes = throughput[section]["modes"]
        assert set(modes) == MODE_KEYS
        for stats in modes.values():
            assert stats["seconds"] > 0
            assert stats["heartbeats_per_s"] > 0
            assert stats["per_heartbeat_us"] > 0
        assert throughput[section]["speedup_soa_vs_object"] > 0


class TestSmokeMode:
    def test_collect_smoke_schema(self):
        import asyncio

        doc = asyncio.run(_load_module().collect(smoke=True))
        assert doc["mode"] == "smoke"
        _check_schema(doc)


class TestCommittedArtifact:
    def test_artifact_records_the_acceptance_bar(self):
        doc = json.loads(ARTIFACT.read_text())
        assert doc["mode"] == "full"
        _check_schema(doc)
        # SoA's reason to exist: on a burst, one vectorized ingest per
        # chunk beats per-peer detector objects on the detector-core path
        core = doc["throughput"]["detector_core"]
        assert core["speedup_soa_vs_object"] > 1.0
