"""Width-parameterization sweep (ISSUE 10 regression suite).

The generation stack must honor ``data_width`` end to end: the wire and
module libraries emit a split dh/dl lane pair at widths >= 64 and a
single-lane layout at 32, memory word counts derive from the true word
size, and the verify layer reads the same widths out of the elaborated
netlist.  Three guards:

* a {32, 64, 128} x {BFBA, SPLITBA, GBAVII} sweep asserting HDL lint
  cleanliness, a netlist free of structural findings, and segment widths
  read from it (and so in the machine built from it) at every width;
* bit-identity of every default-width (64) preset netlist against the
  checked-in SHA-256 baselines captured before the width work landed
  (``tests/data/netlist_sha256_w64.json``) -- no regression at the
  default width;
* Table II/V gate counts must scale with the data width (the estimator
  once hard-coded 64-bit data paths).
"""

import hashlib
import json
import os

import pytest

from repro.core.busyn import BusSyn
from repro.hdl import lint_design
from repro.options import presets
from repro.verify import graph_from_design

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "netlist_sha256_w64.json")

WIDTHS = [32, 64, 128]
SWEEP_ARCHS = ["BFBA", "SPLITBA", "GBAVII"]


def _spec(arch, data_width, pe_count=4):
    spec = presets.preset(arch, pe_count)
    if data_width is not None:
        spec.set_data_width(data_width)
        spec.validate()
    return spec


class TestWidthSweep:
    @pytest.mark.parametrize("arch", SWEEP_ARCHS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_lint_clean(self, arch, width):
        generated = BusSyn().generate(_spec(arch, width))
        errors = [m for m in lint_design(generated.design()) if m.severity == "error"]
        assert errors == [], "\n".join(str(m) for m in errors)

    @pytest.mark.parametrize("arch", SWEEP_ARCHS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_structural_equivalence(self, arch, width):
        generated = BusSyn().generate(_spec(arch, width))
        findings = graph_from_design(generated.design()).findings
        assert findings == [], "\n".join(str(f) for f in findings)
        machine = generated.build_machine()
        assert {segment.data_width for segment in machine.segments.values()} == {width}

    @pytest.mark.parametrize("arch", SWEEP_ARCHS)
    def test_segment_width_tracks_option(self, arch):
        for width in WIDTHS:
            spec = _spec(arch, width)
            graph = graph_from_design(BusSyn().generate(spec).design())
            seg_widths = {
                node.data_width
                for subsystem in graph.subsystems
                for ban in subsystem.bans
                for node in (ban.segment, ban.shared)
                if node is not None
            }
            assert seg_widths == {width}, (
                "%s at %d bits: netlist segment widths %s" % (arch, width, seg_widths)
            )


class TestDefaultWidthBitIdentity:
    """data_width=64 output is byte-identical to the pre-PR netlists."""

    with open(GOLDEN_PATH) as handle:
        GOLDEN = json.load(handle)

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_netlist_unchanged(self, key):
        arch, pe_count = key.rsplit("_pes", 1)
        spec = presets.preset(arch, int(pe_count))
        text = BusSyn().generate(spec).verilog()
        golden = self.GOLDEN[key]
        assert len(text.encode()) == golden["bytes"], "%s: size changed" % key
        assert hashlib.sha256(text.encode()).hexdigest() == golden["sha256"], (
            "%s: netlist text changed at the default data width" % key
        )


class TestGateCountsScaleWithWidth:
    @pytest.mark.parametrize("arch", SWEEP_ARCHS)
    def test_table2_counts_differ_between_32_and_128(self, arch):
        counts = {
            width: BusSyn().generate(_spec(arch, width)).report.gate_count
            for width in WIDTHS
        }
        assert counts[32] < counts[64] < counts[128], counts
