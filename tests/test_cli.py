"""Unit tests for the command-line interface and the report generator."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_cli_patterns(capsys):
    assert main(["patterns"]) == 0
    out = capsys.readouterr().out
    assert "sigmoid_embedding" in out
    assert "SIGMOID" in out


def test_cli_experiments(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "table6" in out and "fig11" in out


def test_cli_datasets(capsys):
    assert main(["datasets", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "cora" in out and "orkut" in out


def test_cli_kernel(capsys):
    assert main(
        [
            "kernel",
            "--graph",
            "cora",
            "--dims",
            "16",
            "--scale",
            "0.3",
            "--repeats",
            "1",
            "--no-generic",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "speedup_opt_vs_dgl" in out


def test_cli_run_table5(capsys):
    assert main(["run", "table5"]) == 0
    out = capsys.readouterr().out
    assert "Table V" in out


def test_cli_runtime_stats(capsys):
    assert main(
        [
            "runtime",
            "stats",
            "--nodes",
            "400",
            "--epochs",
            "3",
            "--dim",
            "8",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "plan_cache" in out
    assert "hit_rate" in out
    assert "split_jobs" in out


def test_cli_report_quick(tmp_path, capsys):
    output = tmp_path / "report.md"
    assert main(["report", "--output", str(output), "--quick", "--scale", "0.1"]) == 0
    text = output.read_text()
    assert "# FusedMM reproduction" in text
    assert "Table VI" in text
    assert "Fig. 11" in text
