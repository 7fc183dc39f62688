"""The live CLI's datapath flags and the gated uvloop selection."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main as experiments_main
from repro.experiments.live_cli import _build_parser, live_main
from repro.live.loops import install_uvloop, uvloop_available


class TestFastPathFlags:
    def test_soak_flags_reach_the_config(self, monkeypatch):
        captured = {}

        def fake_run_soak(config):
            captured["config"] = config
            raise SystemExit(0)

        import repro.live.soak as soak_mod

        monkeypatch.setattr(soak_mod, "run_soak", fake_run_soak)
        with pytest.raises(SystemExit):
            live_main(
                [
                    "soak",
                    "--duration",
                    "5",
                    "--seed",
                    "3",
                ]
            )
        config = captured["config"]
        assert (config.duration, config.seed) == (5.0, 3)
        assert not hasattr(config, "engine")

    def test_monitor_flags_parse_with_defaults(self):
        args = _build_parser().parse_args(
            ["monitor", "--port", "9999"]
        )
        assert not hasattr(args, "engine")
        assert not hasattr(args, "drain_batch")
        assert args.uvloop is False

    def test_soak_rejects_unknown_engine(self, capsys):
        # The host follows the detector; every --engine is unknown now.
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["soak", "--engine", "gpu"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["soak", "--fanout"],
            ["monitor", "--port", "9999", "--no-batched-socket"],
            ["soak", "--engine", "soa"],
            ["monitor", "--port", "9999", "--engine", "soa"],
        ],
    )
    def test_removed_live_datapath_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_crash_route_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            experiments_main(["detection-time", "--batch-size", "64"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUvloopGate:
    def test_flag_fails_loudly_when_uvloop_missing(self, capsys):
        if uvloop_available():  # pragma: no cover - env dependent
            pytest.skip("uvloop installed in this environment")
        code = live_main(["soak", "--uvloop", "--duration", "5"])
        assert code == 2
        assert "uvloop" in capsys.readouterr().err

    def test_install_returns_false_without_package(self):
        if uvloop_available():  # pragma: no cover - env dependent
            pytest.skip("uvloop installed in this environment")
        assert install_uvloop() is False
