"""Tests for the command-line interface."""

import argparse
import io

import pytest

from repro.cli import build_parser, main
from repro.obs.progress import progress_sink


def _progress_commands() -> list[str]:
    """Every subcommand that takes ``--progress``."""
    (sub,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sorted(
        name
        for name, parser in sub.choices.items()
        if any("--progress" in a.option_strings for a in parser._actions)
    )


class TestParser:
    def test_list(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "E-F1"])
        assert args.ids == ["E-F1"]
        assert args.seed == 0
        assert args.scale == 1.0

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_progress_commands_are_found(self):
        assert _progress_commands() == ["arena", "attack", "report"]

    @pytest.mark.parametrize("mode", ["off", "none"])
    @pytest.mark.parametrize("command", _progress_commands())
    def test_every_subcommand_accepts_both_silent_spellings(self, command, mode):
        args = build_parser().parse_args([command, "--progress", mode])
        assert progress_sink(args.progress, io.StringIO()) is None


class TestMain:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E-T6" in out
        assert "E-F1" in out

    def test_run_prints_table(self, capsys):
        assert main(["run", "E-F1", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "E-F1" in out
        assert "PASS" in out

    def test_run_markdown_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "result.md"
        code = main(
            ["run", "E-F1", "--scale", "0.3", "--markdown", "--out", str(out_file)]
        )
        assert code == 0
        content = out_file.read_text()
        assert content.startswith("### E-F1")
        assert "| statistic | value |" in content

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
