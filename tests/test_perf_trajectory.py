"""The perf-trajectory harness and its committed artifact.

Tier-1 coverage for ``benchmarks/perf_trajectory.py``: the smoke mode
must run end to end and produce the documented schema, and the committed
``BENCH_fastsim.json`` must stay parseable, schema-conformant, and keep
recording the crash kernel's headline win.  Timings themselves
are machine-dependent and never asserted here beyond sanity.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "perf_trajectory.py"
ARTIFACT = REPO_ROOT / "BENCH_fastsim.json"


def _load_module():
    spec = importlib.util.spec_from_file_location("perf_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSmokeMode:
    def test_collect_smoke_schema(self):
        doc = _load_module().collect(smoke=True)
        assert doc["schema"] == "repro.bench.fastsim/3"
        assert doc["mode"] == "smoke"
        assert doc["crash_runs"]["speedup"] > 0
        analytic = doc["analytic"]
        assert analytic["predict_memoized_s"] < analytic["predict_cold_s"]
        assert analytic["configure_nfds_s"] > 0
        tel = doc["telemetry"]
        # Smoke workloads are milliseconds, so the ratio is noisy; only
        # the structure is asserted here.  The committed full-mode
        # artifact enforces the <5% budget.
        assert tel["telemetry_off_s"] > 0 and tel["telemetry_on_s"] > 0
        assert "overhead_pct" in tel


class TestCommittedArtifact:
    def test_artifact_matches_schema(self):
        doc = json.loads(ARTIFACT.read_text())
        assert doc["schema"] == "repro.bench.fastsim/3"
        assert doc["mode"] == "full"
        assert doc["generated_by"] == "benchmarks/perf_trajectory.py"
        assert set(doc) >= {
            "crash_runs",
            "analytic",
            "telemetry",
            "python",
            "date",
        }

    def test_artifact_records_the_headline_wins(self):
        doc = json.loads(ARTIFACT.read_text())
        # The crash-run entry point takes the closed-form kernel: >= 5x
        # over the event-driven reference on 300 cold NFD-S replicas.
        assert doc["crash_runs"]["n_runs"] == 300
        assert doc["crash_runs"]["speedup"] >= 5.0
        # Memoizing the Theorem 5 terms must make repeat queries much
        # cheaper than a cold evaluation.
        assert doc["analytic"]["memoization_speedup"] >= 10.0
        # The telemetry layer's contract: enabling it costs < 5% on the
        # fastsim hot path at the full benchmark scale.
        assert doc["telemetry"]["overhead_pct"] < 5.0
