"""Tests for the CLI, the option input-file format, and the VCD export."""

import os

import pytest

from repro.cli import main
from repro.options import presets
from repro.options.inputfile import parse_option_text, render_option_text
from repro.options.schema import OptionError
from repro.sim.fabric import build_machine
from repro.sim.kernel import KERNEL_BACKENDS
from repro.sim.vcd import GrantTrace, VcdWriter, vcd_from_machine
from repro.soc.api import SocAPI
from repro.soc.handshake import GbaviChannel

EXAMPLE9 = """
# Example 9: the BFBA Bus System of Figure 4
bus_system 1
subsystem SUB1
  bans 4
  bus BFBA
    address_width 32
    data_width 64
    fifo_depth 1024
  ban A
    cpu MPC755
    memory SRAM 20 64
"""


class TestInputFile:
    def test_example9_round_trips_the_paper(self):
        """Example 9's input sequence yields the Figure 4 BFBA system."""
        spec = parse_option_text(EXAMPLE9, name="BFBA")
        assert spec.pe_count == 4
        assert spec.subsystems[0].buses[0].bus_type == "BFBA"
        assert spec.subsystems[0].buses[0].fifo_depth == 1024
        # 4 x 8 MB = the paper's 32 MB of total non-cache memory.
        assert spec.total_memory_bytes == 32 * 2**20

    def test_ban_fill_clones_shape(self):
        spec = parse_option_text(EXAMPLE9)
        bans = spec.subsystems[0].pe_bans
        assert [ban.name for ban in bans] == ["A", "B", "C", "D"]
        for ban in bans:
            assert ban.cpu_type == "MPC755"
            assert ban.memories[0].address_width == 20

    def test_global_and_ip_modifiers(self):
        text = """
bus_system 1
subsystem S
  bus GBAVIII
  ban A
    cpu MPC755
    memory SRAM 20 64
  ban G global
    memory SRAM 20 64
  ban FFT ip DCT attach A
"""
        spec = parse_option_text(text)
        subsystem = spec.subsystems[0]
        assert subsystem.global_bans[0].name == "G"
        ip = subsystem.ip_bans[0]
        assert ip.non_cpu_type == "DCT" and ip.ip_attach == "A"

    def test_subsystem_count_mismatch(self):
        with pytest.raises(OptionError):
            parse_option_text("bus_system 2\nsubsystem S\n  bus GBAVI\n  ban A\n    cpu MPC755\n    memory SRAM 20 64\n")

    def test_unknown_line(self):
        with pytest.raises(OptionError):
            parse_option_text("frobnicate 3\n")

    @pytest.mark.parametrize("name", ["BFBA", "GBAVII", "SPLITBA", "HYBRID"])
    def test_render_parse_round_trip(self, name):
        spec = presets.preset(name, 4)
        text = render_option_text(spec)
        again = parse_option_text(text, name=name)
        assert again.pe_count == spec.pe_count
        assert len(again.subsystems) == len(spec.subsystems)
        for sub_a, sub_b in zip(spec.subsystems, again.subsystems):
            assert [b.bus_type for b in sub_a.buses] == [b.bus_type for b in sub_b.buses]
            assert [b.name for b in sub_a.bans] == [b.name for b in sub_b.bans]


class TestCli:
    def test_generate_writes_files(self, tmp_path):
        out = str(tmp_path / "gen")
        code = main(["generate", "--preset", "GBAVI", "--pes", "2", "--out", out])
        assert code == 0
        files = os.listdir(out)
        assert "report.txt" in files
        assert any(name.startswith("bus_system_") for name in files)

    def test_generate_from_option_file(self, tmp_path):
        option_file = tmp_path / "system.txt"
        option_file.write_text(EXAMPLE9)
        out = str(tmp_path / "gen")
        code = main(["generate", "--options", str(option_file), "--out", out])
        assert code == 0

    def test_simulate_ofdm(self, capsys):
        code = main(
            ["simulate", "--preset", "GBAVIII", "--app", "ofdm", "--style", "FPA",
             "--packets", "2"]
        )
        assert code == 0
        assert "Mbps" in capsys.readouterr().out

    def test_simulate_database(self, capsys):
        code = main(["simulate", "--preset", "GGBA", "--app", "database"])
        assert code == 0
        assert "41 tasks" in capsys.readouterr().out

    def test_parser_loads_no_simulation_package(self):
        # ``repro list`` and ``--help`` do not pay for importing the apps,
        # the paper tables, the DSE engine or the bench harness.
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print(*sys.modules)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        heavy = ("repro.apps", "repro.experiments", "repro.dse", "repro.bench")
        assert [name for name in out.stdout.split() if name.startswith(heavy)] == []

    @pytest.mark.parametrize(
        "verb,option,default",
        [
            ("bench", "--baselines", "benchmarks/baselines.json"),
            ("bench", "--out", "repo-root BENCH_kernel.json"),
            ("dse", "--cache-dir", ".repro/dse"),
            ("fuzz", "--cache-dir", ".repro/dse"),
        ],
    )
    def test_help_names_the_defaults_the_verbs_use(self, verb, option, default, capsys):
        # The parser leaves these paths unset, so that building it imports
        # neither the harness nor the DSE engine; its help must still name
        # the paths the verbs fall back to.
        from repro.bench.harness import DEFAULT_BASELINES, DEFAULT_OUT
        from repro.dse.cache import DEFAULT_CACHE_DIR

        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        actual = {
            "--baselines": os.path.relpath(DEFAULT_BASELINES, repo),
            "--out": "repo-root " + os.path.relpath(DEFAULT_OUT, repo),
            "--cache-dir": DEFAULT_CACHE_DIR,
        }[option]
        assert actual == default.replace("/", os.sep)
        with pytest.raises(SystemExit):
            main([verb, "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "(default: %s)" % default in help_text

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "GBAVII" in out and "MBI_SRAM" in out


class TestVcd:
    def test_writer_format(self):
        writer = VcdWriter()
        a = writer.add_signal("top", "sig_a")
        b = writer.add_signal("top", "bus_b", width=4)
        writer.change(0, a, 0)
        writer.change(5, a, 1)
        writer.change(5, b, 0b1010, width=4)
        text = writer.dumps()
        assert "$var wire 1" in text and "$var wire 4" in text
        assert "#5" in text
        assert "b1010" in text
        assert text.index("#0") < text.index("#5")

    def test_negative_time_rejected(self):
        writer = VcdWriter()
        identifier = writer.add_signal("top", "x")
        with pytest.raises(ValueError):
            writer.change(-1, identifier, 0)

    def test_machine_export_contains_handshake_edges(self):
        machine = build_machine(presets.preset("GBAVI", 4))
        machine.attach_probe(GrantTrace())
        channel = GbaviChannel(SocAPI(machine, "A"), SocAPI(machine, "B"), 8)

        def sender():
            yield from channel.send(list(range(8)))

        def receiver():
            yield from channel.recv()

        machine.pe("A").run(sender())
        machine.pe("B").run(receiver())
        machine.sim.run()
        text = vcd_from_machine(machine)
        assert "done_op" in text and "done_rv" in text
        assert "gnt_mpc755_a" in text
        # The transfer produces real value changes after time zero: the
        # handshake registers toggle and bus grants come and go.
        body = text.split("$enddefinitions $end", 1)[1]
        after_t0 = body.split("#", 2)[-1]
        scalar_changes = [
            line for line in after_t0.splitlines() if line[:1] in ("0", "1") and len(line) > 1
        ]
        assert len(scalar_changes) >= 6

    def test_every_register_block_reports_to_the_probe(self):
        """Blocks made for extra links, before or after the probe attached,
        report their writes like the BAN's own block and get their own
        VCD scope."""
        machine = build_machine(presets.preset("GBAVI", 4))
        early = machine.hsregs_for("C", "A").target
        grants = GrantTrace()
        machine.attach_probe(grants)
        late = machine.hsregs_for("B", "A").target
        blocks = [machine.hs_blocks["A"], early, late]
        for block in blocks:
            block.write("DONE_OP", 1)
        assert [grants.registers.get(block) for block in blocks] == [
            [(0, "DONE_OP", 1)]
        ] * 3
        text = vcd_from_machine(machine)
        for scope in ("hs_regs_a", "hs_regs_a_from_b", "hs_regs_a_from_c"):
            assert "$scope module %s $end" % scope in text

    def test_grant_trace_attached_between_rounds(self):
        """A grant trace attached after a run sees every later grant, on a
        compiled machine too: a probed machine's tenures all take the
        hooked path."""

        def transfer(machine, channel):
            def sender():
                yield from channel.send(list(range(8)))

            def receiver():
                yield from channel.recv()

            machine.pe("A").run(sender())
            machine.pe("B").run(receiver())
            machine.sim.run()

        texts = {}
        for kernel in KERNEL_BACKENDS:
            machine = build_machine(presets.preset("GBAVI", 4), kernel=kernel)
            channel = GbaviChannel(SocAPI(machine, "A"), SocAPI(machine, "B"), 8)
            transfer(machine, channel)
            grants = GrantTrace()
            machine.attach_probe(grants)
            transfer(machine, channel)
            assert machine.sim.now == 2806
            assert sum(len(edges) for edges in grants.edges.values()) == 100
            texts[kernel] = vcd_from_machine(machine)
        assert texts["heap"] == texts["compiled"]


class TestVcdDumpvars:
    """Satellite: $dumpvars initial block + same-timestamp dedupe."""

    def test_header_then_dumpvars_block(self):
        writer = VcdWriter()
        a = writer.add_signal("top", "a")
        b = writer.add_signal("top", "bus", width=4)
        writer.change(0, a, 1)
        writer.change(7, a, 0)
        text = writer.dumps()
        lines = text.splitlines()
        end_defs = lines.index("$enddefinitions $end")
        # Spec layout: definitions, then the time-zero $dumpvars block
        # establishing an initial value for *every* declared signal.
        assert lines[end_defs + 1] == "#0"
        assert lines[end_defs + 2] == "$dumpvars"
        block = lines[end_defs + 3 : lines.index("$end", end_defs)]
        assert "1%s" % a in block  # recorded time-zero value
        assert "bx %s" % b in block  # undumped signal starts as x
        assert lines.index("$end", end_defs) < lines.index("#7")

    def test_undumped_scalar_starts_x(self):
        writer = VcdWriter()
        a = writer.add_signal("top", "a")
        text = writer.dumps()
        assert "x%s" % a in text.split("$dumpvars", 1)[1].split("$end", 1)[0]

    def test_same_timestamp_last_write_wins(self):
        writer = VcdWriter()
        a = writer.add_signal("top", "a")
        writer.change(5, a, 0)
        writer.change(5, a, 1)
        text = writer.dumps()
        at_5 = text.split("#5", 1)[1]
        changes = [line for line in at_5.splitlines() if line.endswith(a)]
        # One change only, carrying the final value -- two lines for one
        # signal at one timestamp would be ambiguous to viewers.
        assert changes == ["1%s" % a]

    def test_same_timestamp_dedupe_multibit(self):
        writer = VcdWriter()
        bus = writer.add_signal("top", "bus", width=4)
        writer.change(3, bus, 0b0001, width=4)
        writer.change(3, bus, 0b1010, width=4)
        text = writer.dumps()
        assert "b1010 %s" % bus in text
        assert "b1 %s" % bus not in text

    def test_distinct_timestamps_all_kept(self):
        writer = VcdWriter()
        a = writer.add_signal("top", "a")
        writer.change(1, a, 1)
        writer.change(2, a, 0)
        writer.change(3, a, 1)
        text = writer.dumps()
        for stamp in ("#1", "#2", "#3"):
            assert stamp in text


class TestGenerateLintReporting:
    """Satellite: warnings surfaced in generate output + --strict gate."""

    @staticmethod
    def _force_warning(monkeypatch):
        from repro.core.busyn import GeneratedBusSystem
        from repro.hdl.lint import LintMessage

        monkeypatch.setattr(
            GeneratedBusSystem,
            "lint",
            lambda self: [LintMessage("warning", "module m", "port left dangling")],
        )

    def test_warning_count_printed_and_reported(self, tmp_path, capsys, monkeypatch):
        self._force_warning(monkeypatch)
        out = str(tmp_path / "gen")
        code = main(["generate", "--preset", "GBAVI", "--pes", "2", "--out", out])
        assert code == 0  # warnings alone do not fail a non-strict run
        assert "clean, 1 warnings" in capsys.readouterr().out
        report = open(os.path.join(out, "report.txt")).read()
        assert "lint warnings: 1" in report
        assert "port left dangling" in report

    def test_strict_turns_warnings_into_failure(self, tmp_path, capsys, monkeypatch):
        self._force_warning(monkeypatch)
        out = str(tmp_path / "gen")
        code = main(
            ["generate", "--preset", "GBAVI", "--pes", "2", "--out", out, "--strict"]
        )
        assert code == 1

    def test_strict_passes_on_clean_design(self, tmp_path):
        out = str(tmp_path / "gen")
        code = main(
            ["generate", "--preset", "GBAVIII", "--pes", "2", "--out", out, "--strict"]
        )
        assert code == 0
