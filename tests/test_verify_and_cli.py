"""Tests for the verification package and the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import kernels
from repro.core.config import ConfigSpace
from repro.cli import build_parser, main
from repro.errors import VerificationError
from repro.verify.crosscheck import CrossCheckReport, cross_check, cross_check_space
from repro.types import ReplacementPolicy


class TestCrossCheck:
    def test_exact_report(self, loop_trace):
        report = cross_check(loop_trace, block_size=16, associativity=2, set_sizes=(1, 2, 4, 8))
        assert report.exact
        assert report.configs_checked == 8
        assert "EXACT" in report.summary()
        report.raise_on_mismatch()  # must not raise

    def test_mismatch_raises(self):
        report = CrossCheckReport(trace_name="t", configs_checked=1)
        from repro.core.config import CacheConfig

        report.mismatches.append((CacheConfig(1, 1, 4), 5, 6))
        assert not report.exact
        with pytest.raises(VerificationError):
            report.raise_on_mismatch()

    def test_cross_check_space(self, mixed_trace):
        space = ConfigSpace(set_sizes=[1, 2, 4, 8], associativities=[1, 2, 4],
                            block_sizes=[16, 32], policy=ReplacementPolicy.FIFO)
        reports = cross_check_space(mixed_trace, space)
        # dew_runs: 2 block sizes x 2 non-trivial associativities
        assert len(reports) == 4
        assert all(report.exact for report in reports.values())


class TestCli:
    def test_parser_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_generate_and_dew(self, tmp_path, capsys):
        trace_path = tmp_path / "small.din"
        assert main(["generate", "g721_enc", str(trace_path), "--requests", "1500"]) == 0
        assert trace_path.exists()
        assert main(["dew", str(trace_path), "--block-size", "16",
                     "--associativity", "2", "--max-sets", "64"]) == 0
        output = capsys.readouterr().out
        assert "DEW:" in output and "miss_rate" in output

    def test_generate_csv_and_baseline(self, tmp_path, capsys):
        trace_path = tmp_path / "small.csv"
        assert main(["generate", "djpeg", str(trace_path), "--requests", "1200"]) == 0
        assert main(["baseline", str(trace_path), "--block-size", "16",
                     "--associativity", "2", "--max-sets", "32"]) == 0
        output = capsys.readouterr().out
        assert "baseline:" in output

    def test_verify_command(self, tmp_path, capsys):
        trace_path = tmp_path / "verify.din"
        main(["generate", "cjpeg", str(trace_path), "--requests", "1200"])
        assert main(["verify", str(trace_path), "--block-size", "8",
                     "--associativity", "2", "--max-sets", "32"]) == 0
        assert "EXACT" in capsys.readouterr().out

    def test_reproduce_command_smoke(self, capsys, monkeypatch):
        # Keep the reproduction tiny: it exists to prove the plumbing works.
        monkeypatch.setenv("REPRO_BENCH_REQUESTS", "1500")
        assert main(["reproduce", "--requests", "1500"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "Table 3" in output
        # Figure 5 and the headline claims name each side's implementation:
        # DEW's walk and the walk of the baseline's single simulators.
        def side(name, noun):
            walk = kernels.load(name)
            return f"kernel {noun}" if walk.function is not None else f"python {noun} ({walk.reason})"

        sides = f"DEW: {side('dew', 'walk')}; baseline: {side('single', 'single')}"
        assert f"Figure 5: speed-up of DEW over baseline ({sides})" in output
        assert f"Headline claims (this run; {sides}):" in output

    @pytest.mark.parametrize("command", [
        ["sweep", "--block-sizes", "8,16", "--associativities", "1,2", "--max-sets", "64"],
        ["dew", "--block-size", "8", "--associativity", "2", "--max-sets", "1024"],
    ])
    def test_closed_stdout_exits_without_traceback(self, tmp_path, command):
        # `repro-dew ... | head -1`, made deterministic: the pipe's read end
        # is closed before the command starts, so its first write fails.
        trace_path = tmp_path / "pipe.din"
        assert main(["generate", "cjpeg", str(trace_path), "--requests", "2000"]) == 0
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(repro.__file__).resolve().parents[1])
        try:
            completed = subprocess.run(
                [sys.executable, "-m", "repro.cli", command[0], str(trace_path), *command[1:]],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src),
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        assert "BrokenPipeError" not in completed.stderr
