"""Tests for the ``simulate`` CLI subcommand."""

import pytest

from repro.cli import main
from repro.errors import ConfigError


class TestSimulate:
    def test_default_single_session(self, capsys):
        assert main(["simulate", "--horizon", "500"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "completed stages" in out

    @pytest.mark.parametrize(
        "policy", ["fig3", "thm7", "static", "per-slot", "periodic", "ewma"]
    )
    def test_every_single_policy_runs(self, policy, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    policy,
                    "--traffic",
                    "poisson",
                    "--horizon",
                    "300",
                ]
            )
            == 0
        )
        assert policy in capsys.readouterr().out

    @pytest.mark.parametrize(
        "traffic",
        ["figure1", "onoff", "poisson", "vbr", "pareto", "selfsimilar", "feasible"],
    )
    def test_every_traffic_runs(self, traffic, capsys):
        assert (
            main(["simulate", "--traffic", traffic, "--horizon", "400"]) == 0
        )
        assert traffic in capsys.readouterr().out

    @pytest.mark.parametrize("policy", ["phased", "continuous"])
    def test_multi_session(self, policy, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    policy,
                    "--traffic",
                    "multi-feasible",
                    "--sessions",
                    "3",
                    "--horizon",
                    "500",
                ]
            )
            == 0
        )
        assert policy in capsys.readouterr().out

    def test_mismatched_policy_traffic_rejected(self):
        with pytest.raises(ConfigError, match="multi-session"):
            main(["simulate", "--policy", "phased", "--traffic", "poisson"])

    def test_save_trace(self, tmp_path, capsys):
        path = tmp_path / "run.npz"
        assert (
            main(
                [
                    "simulate",
                    "--horizon",
                    "300",
                    "--save-trace",
                    str(path),
                ]
            )
            == 0
        )
        assert path.exists()
        from repro.sim.serialize import load_single_trace

        trace = load_single_trace(path)
        assert trace.horizon == 300

    def test_save_multi_trace(self, tmp_path):
        path = tmp_path / "multi.npz"
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    "continuous",
                    "--traffic",
                    "multi-feasible",
                    "--sessions",
                    "2",
                    "--horizon",
                    "400",
                    "--save-trace",
                    str(path),
                ]
            )
            == 0
        )
        from repro.sim.serialize import load_multi_trace

        assert load_multi_trace(path).k == 2


class TestSimulateFaults:
    def test_fault_flags_print_signaling_stats(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--traffic",
                    "onoff",
                    "--horizon",
                    "600",
                    "--fault-intensity",
                    "0.4",
                    "--retry-attempts",
                    "4",
                    "--headroom",
                    "1.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "signaling:" in out
        assert "requests" in out

    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                ["--traffic", "onoff", "--horizon", "600",
                 "--fault-intensity", "0.4", "--retry-attempts", "1"],
                "signaling: 59 requests, 12 drops, 0 retries, 12 give-ups "
                "(intensity 0.4, 1 attempts)",
            ),
            (
                ["--policy", "phased", "--traffic", "multi-feasible",
                 "--sessions", "2", "--horizon", "1200",
                 "--fault-intensity", "0.2", "--seed", "3"],
                "signaling: 8 requests, 2 drops, 2 retries, 0 give-ups "
                "(intensity 0.2, 4 attempts)",
            ),
        ],
        ids=["single", "multi"],
    )
    def test_signaling_line_sums_the_installed_links(self, argv, line, capsys):
        # Recorded before the plane moved from policy wrappers to links.
        assert main(["simulate", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [text for text in lines if text.startswith("signaling:")] == [line]

    def test_zero_intensity_omits_signaling_stats(self, capsys):
        assert main(["simulate", "--horizon", "300"]) == 0
        assert "signaling:" not in capsys.readouterr().out

    def test_intensity_validated(self):
        with pytest.raises(ConfigError, match="fault-intensity"):
            main(["simulate", "--fault-intensity", "1.5"])

    def test_headroom_rejected_for_multi(self):
        with pytest.raises(ConfigError, match="headroom"):
            main(
                [
                    "simulate",
                    "--policy",
                    "phased",
                    "--traffic",
                    "multi-feasible",
                    "--headroom",
                    "1.5",
                ]
            )

    def test_multi_session_stall_reported_not_raised(self, capsys):
        # Intensity 0.3 strands overflow bits (the phased algorithm closes
        # the overflow channel open-loop); the CLI reports the stall.
        code = main(
            [
                "simulate",
                "--policy",
                "phased",
                "--traffic",
                "multi-feasible",
                "--sessions",
                "4",
                "--horizon",
                "1500",
                "--fault-intensity",
                "0.3",
            ]
        )
        assert code == 1
        assert "stalled" in capsys.readouterr().out
