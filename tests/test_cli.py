"""Tests for the command-line interface."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_delay_defaults(self):
        args = build_parser().parse_args(["delay"])
        assert args.scenario == 1
        assert args.policy == "wf2qplus"
        assert args.duration == 6.0

    def test_bad_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["delay", "--scenario", "9"])

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["delay", "--policy", "nope"])


class TestCommands:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "WFQ" in out and "WF2Q+" in out and "GPS" in out

    def test_delay(self, capsys):
        assert main(["delay", "--duration", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "max delay" in out
        assert "Cor. 2 bound" in out

    def test_delay_series(self, capsys):
        assert main(["delay", "--duration", "0.5", "--series"]) == 0
        out = capsys.readouterr().out
        # Series lines: "<time> <delay_ms>".
        data_lines = [l for l in out.splitlines()
                      if l and l[0].isdigit() and " " in l]
        assert len(data_lines) > 0

    def test_linksharing(self, capsys):
        assert main(["linksharing", "--duration", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "TCP-1" in out
        assert "mean relative error" in out

    def test_bounds(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "RT-1" in out
        assert "WF2Q/WF2Q+" in out


class TestStatsParser:
    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.scheduler == "wf2qplus"
        assert args.flows == 64
        assert args.packets == 20000
        assert args.trace is None
        assert args.check is False

    def test_bad_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--scheduler", "nope"])


class TestFloatOptions:
    """Float options reject NaN, infinities and values <= 0 at parse time.

    Before the check, each of these hung, raised a traceback or ran as if
    the value were valid; now argparse names the option and exits 2.
    """

    @pytest.mark.parametrize("argv", [
        ["stats", "--length", "0"],
        ["stats", "--rate", "0"],
        ["stats", "--pipeline", "--rate", "inf"],
        ["sim", "--duration", "-1"],
        ["sim", "--duration", "nan"],
        ["sim", "--rate", "0"],
        ["sim", "--rate", "nan"],
        ["sim", "--rate", "inf"],
        ["serve", "--duration", "-1"],
        ["serve", "--rate", "inf"],
        ["serve", "--rate", "nan"],
        ["serve", "--checkpoint-every", "0"],
        ["serve", "--idle-ttl", "-1"],
        ["serve", "--stall-wall", "-1"],
        ["chaos", "--duration", "0"],
        ["chaos", "--scheduler", "wf2qplus", "--rate", "inf"],
        ["chaos", "--load", "0"],
        ["delay", "--duration", "-1"],
        ["delay", "--duration", "inf"],
        ["linksharing", "--duration", "-1"],
    ], ids=" ".join)
    def test_out_of_range_value_exits_2_naming_the_option(self, argv,
                                                          capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[-2] in err
        assert "Traceback" not in err

    def test_finite_positive_values_parse(self):
        args = build_parser().parse_args(
            ["serve", "--duration", "0.5", "--rate", "2e6",
             "--checkpoint-every", "0.05", "--idle-ttl", "1",
             "--stall-wall", "30"])
        assert (args.duration, args.rate, args.checkpoint_every,
                args.idle_ttl, args.stall_wall) == (0.5, 2e6, 0.05, 1.0, 30.0)


class TestStats:
    def test_stats_with_check_and_trace(self, capsys, tmp_path):
        from repro.obs.sinks import read_jsonl

        trace = tmp_path / "trace.jsonl"
        assert main(["stats", "--scheduler", "wf2qplus", "--flows", "8",
                     "--packets", "200", "--check",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "enqueue" in out and "dequeue" in out  # profiler table
        assert "invariants: OK" in out
        assert "trace: wrote" in out
        events = read_jsonl(str(trace))
        assert len(events) > 400  # enq + deq per churned packet, at least
        assert {e.kind for e in events} >= {"enqueue", "dequeue",
                                            "virtual-time"}

    def test_stats_hierarchical(self, capsys):
        assert main(["stats", "--scheduler", "hwf2qplus", "--flows", "12",
                     "--packets", "100", "--check"]) == 0
        out = capsys.readouterr().out
        assert "invariants: OK" in out
        assert "total" in out  # metrics table

    def test_stats_fifo(self, capsys):
        assert main(["stats", "--scheduler", "fifo", "--flows", "4",
                     "--packets", "50"]) == 0
        out = capsys.readouterr().out
        assert "repro stats" in out
        assert "invariants" not in out


class TestBrokenPipe:
    def test_reader_closing_the_pipe_exits_1_without_traceback(self):
        """``repro stats | head -1``.  3000 flows print a ~250 KB metrics
        table, several times a default pipe buffer (64 KiB on Linux), so
        the command is still writing when the reader closes the pipe
        after one line."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stats", "--scheduler", "fifo",
             "--flows", "3000", "--packets", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert first.startswith(b"repro stats")
        assert b"Traceback" not in stderr
        assert b"BrokenPipeError" not in stderr
