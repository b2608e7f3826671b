"""Error-path tests: malformed inputs must fail loudly, early, and helpfully.

Covers the option-file parser's line-numbered diagnostics, schema
validation of out-of-range values, the netlist builder's candidate-listing
errors, BAN classification failures, the runner's case-failure wrapper,
and the CLI's non-zero exits on bad input (and on a closed stdout).
"""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.core.bangen import ban_kind
from repro.core.netlist import NetlistBuilder, NetlistError
from repro.experiments.runner import CaseExecutionError, run_cases
from repro.hdl.ast import Module, Port, Range
from repro.options import presets
from repro.options.inputfile import parse_option_file, parse_option_text, render_option_text
from repro.options.schema import BANSpec, BusSpec, BusSubsystemSpec, OptionError

VALID_HEADER = """
bus_system 1
subsystem S
  bus GBAVIII
    address_width 32
    data_width 64
"""


class TestParserDiagnostics:
    def test_non_integer_count_names_line_and_token(self):
        text = "bus_system 1\nsubsystem S\n  bans four\n"
        with pytest.raises(OptionError, match=r"line 3: 'bans' expects an integer BAN count, got 'four'"):
            parse_option_text(text)

    def test_missing_argument_names_the_line(self):
        text = "bus_system 1\nsubsystem S\n  bus\n"
        with pytest.raises(OptionError, match=r"line 3: 'bus' expects a bus type"):
            parse_option_text(text)

    def test_unknown_key_reports_line_and_full_line(self):
        text = "bus_system 1\nsubsystem S\n  frobnicate 3\n"
        with pytest.raises(OptionError, match=r"line 3: unknown option 'frobnicate'"):
            parse_option_text(text)

    def test_line_numbers_skip_comments_and_blanks(self):
        text = "# header\n\nbus_system 1\n# note\nsubsystem S\n  cpu MPC755\n"
        with pytest.raises(OptionError, match=r"line 6: 'cpu' outside a ban block"):
            parse_option_text(text)

    @pytest.mark.parametrize(
        "line,expected",
        [
            ("  bus GBAVIII", "'bus' outside a subsystem"),
            ("  ban A", "'ban' outside a subsystem"),
            ("  arbiter fcfs", "'arbiter' outside a bus block"),
            ("  data_width 64", "'data_width' outside a bus block"),
            ("  memory SRAM 20 64", "'memory' outside a ban block"),
        ],
    )
    def test_out_of_context_keys(self, line, expected):
        with pytest.raises(OptionError, match=expected):
            parse_option_text("bus_system 1\n%s\n" % line)

    def test_memory_with_bad_width_token(self):
        text = VALID_HEADER + "  ban A\n    cpu MPC755\n    memory SRAM xx 64\n"
        with pytest.raises(OptionError, match=r"'memory' expects an integer address width, got 'xx'"):
            parse_option_text(text)

    def test_subsystem_count_mismatch(self):
        text = "bus_system 2\nsubsystem ONLY\n  bus GBAVIII\n  ban A\n    cpu MPC755\n    memory SRAM 20 64\n"
        with pytest.raises(OptionError, match="declares 2 subsystems but 1"):
            parse_option_text(text)

    def test_file_errors_carry_the_path(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("bus_system 1\nsubsystem S\n  bans nope\n")
        with pytest.raises(OptionError, match=r"bad\.txt: line 3"):
            parse_option_file(str(bad))


class TestSchemaValidation:
    def test_address_width_out_of_range(self):
        text = "bus_system 1\nsubsystem S\n  bus GBAVIII\n    address_width 8\n  ban A\n    cpu MPC755\n    memory SRAM 20 64\n"
        with pytest.raises(OptionError, match=r"address width 8 outside \[16, 64\]"):
            parse_option_text(text)

    def test_data_width_not_in_menu(self):
        text = "bus_system 1\nsubsystem S\n  bus GBAVIII\n    data_width 48\n  ban A\n    cpu MPC755\n    memory SRAM 20 64\n"
        with pytest.raises(OptionError, match=r"data width 48 not in \(32, 64, 128\)"):
            parse_option_text(text)

    def test_bfba_requires_fifo_depth(self):
        text = "bus_system 1\nsubsystem S\n  bus BFBA\n    fifo_depth 0\n  ban A\n    cpu MPC755\n    memory SRAM 20 64\n"
        with pytest.raises(OptionError, match="BFBA requires a positive Bi-FIFO depth"):
            parse_option_text(text)


class TestNetlistErrors:
    @staticmethod
    def _leaf(name="leaf"):
        return Module(name, ports=[Port("clk", "input"), Port("data", "output", Range(7, 0))])

    def test_duplicate_instance_name(self):
        builder = NetlistBuilder("top")
        builder.add_instance("u0", self._leaf(), "u0")
        with pytest.raises(NetlistError, match="duplicate logical instance 'u0'"):
            builder.add_instance("u0", self._leaf(), "u0_again")

    def test_unknown_module_lists_candidates(self):
        builder = NetlistBuilder("top")
        builder.add_instance("cbi_a", self._leaf(), "u_cbi_a")
        builder.add_instance("cbi_b", self._leaf(), "u_cbi_b")
        with pytest.raises(NetlistError) as excinfo:
            builder.connect("w_clk", 1, [("cbi_c", "clk", 0, 0)])
        message = str(excinfo.value)
        assert "unknown module 'cbi_c'" in message
        assert "known modules: cbi_a, cbi_b" in message
        assert "did you mean" in message

    def test_unknown_port_lists_the_modules_ports(self):
        builder = NetlistBuilder("top")
        builder.add_instance("u0", self._leaf(), "u0")
        with pytest.raises(NetlistError) as excinfo:
            builder.connect("w_clk", 1, [("u0", "clok", 0, 0)])
        message = str(excinfo.value)
        assert "has no port 'clok'" in message
        assert "did you mean 'clk'?" in message
        assert "its ports: clk, data" in message


class TestBanClassification:
    def test_unknown_bus_mix_lists_supported_mixes(self):
        ban = BANSpec(name="A", cpu_type="MPC755", memories=[])
        subsystem = BusSubsystemSpec(
            name="S", bans=[ban], buses=[BusSpec(bus_type="MYSTERY")]
        )
        with pytest.raises(OptionError) as excinfo:
            ban_kind(ban, subsystem)
        message = str(excinfo.value)
        assert "cannot classify BAN A under bus mix {MYSTERY}" in message
        assert "supported mixes" in message
        assert "GBAVIII" in message


def _boom(case):
    raise ValueError("bad case payload %d" % case)


class TestRunnerErrors:
    def test_case_failure_is_wrapped_with_the_case(self):
        with pytest.raises(CaseExecutionError) as excinfo:
            run_cases(_boom, [41], jobs=1)
        message = str(excinfo.value)
        assert "case 41 failed" in message
        assert "ValueError" in message
        assert "bad case payload 41" in message
        assert excinfo.value.case == 41
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestCliExits:
    def test_malformed_options_file_exits_2_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("bus_system 1\nsubsystem S\n  bans four\n")
        code = main(["generate", "--options", str(bad), "--out", str(tmp_path / "gen")])
        assert code == 2
        captured = capsys.readouterr()
        assert "repro: option error" in captured.err
        assert "line 3" in captured.err
        assert "'four'" in captured.err

    def test_ban_with_two_memories_exits_2(self, tmp_path, capsys):
        # The generator emits one memory per BAN; a second one must be
        # refused, not silently dropped from the netlist and the machine.
        text = render_option_text(presets.preset("GBAVIII", 4))
        options = tmp_path / "two_memories.txt"
        options.write_text(text.replace("  ban B\n", "    memory SRAM 18 64\n  ban B\n", 1))
        argv = ["simulate", "--options", str(options), "--app", "ofdm", "--style", "FPA"]
        code = main(argv + ["--no-ledger"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: option error:")
        assert captured.err.count("\n") == 1
        assert "BAN A: a BAN holds at most one memory, 2 requested" in captured.err

    def test_missing_options_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["simulate", "--options", str(tmp_path / "nope.txt"), "--app", "ofdm"]
        )
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["list"], ["profile", "5", "--top", "200"]],
        ids=["fits-the-buffer", "overflows-the-buffer"],
    )
    def test_closed_stdout_exits_141_quietly(self, argv, tmp_path):
        # ``repro ... | head``: the reader is gone before the first write.
        # With stdout block-buffered, ``list`` fails on the last flush and
        # ``profile`` in mid-verb; a closed pipe is not an input error.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro"] + argv,
                stdout=write_end,
                stderr=subprocess.PIPE,
                cwd=str(tmp_path),
                env=dict(env, PYTHONPATH=src),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr.decode()) == (141, "")

    @pytest.mark.parametrize("name", ["wheel", "compild"])
    @pytest.mark.parametrize(
        "argv,env",
        [
            (["table", "5"], True),
            (["table", "5", "--kernel"], False),
            (["chaos", "--backend"], False),
        ],
        ids=["env", "kernel-flag", "backend-flag"],
    )
    def test_unknown_kernel_exits_2_before_any_work(
        self, name, argv, env, monkeypatch, capsys
    ):
        if env:
            monkeypatch.setenv("REPRO_SIM_KERNEL", name)
        else:
            argv = argv + [name]
        assert main(argv + ["--no-ledger"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # rejected before any table row printed
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: unknown scheduler backend %r" % name)
        assert lines[0].endswith("(expected heap or compiled)")
