"""Cross-layer verification: netlist<->fabric equivalence + protocol monitors.

Two complementary checks tie the generator (:mod:`repro.core`) and the
simulator (:mod:`repro.sim`) together:

* **structural** -- :func:`graph_from_design` and :func:`graph_from_machine`
  abstract both elaborations of a spec into a :class:`FabricGraph`;
  :func:`compare_graphs` reports every structural divergence as a typed
  :class:`Finding`;
* **runtime** -- :class:`ProtocolMonitor` probes arbiters, segments,
  FIFOs and bridges (a :class:`repro.obs.Probe`, free when off) and
  asserts the bus-protocol invariants (grant one-hot, REQ-until-GNT, FIFO
  conservation/bounds, bridge forwarding conservation, transaction
  retirement) while the workload runs.

:func:`run_verify` sweeps both checks across architectures and scheduler
backends; the ``repro verify`` CLI verb and CI's smoke step drive it.
"""

from .equiv import compare_graphs
from .findings import Finding
from .graph import FabricGraph, SegmentNode, graph_from_design, graph_from_machine
from .monitors import ProtocolMonitor, ProtocolViolationError, attach_monitors
from .runner import (
    SMOKE_ARCHITECTURES,
    VERIFY_ARCHITECTURES,
    format_verify_summary,
    run_verify,
    run_verify_case,
)

__all__ = [
    "Finding",
    "FabricGraph",
    "SegmentNode",
    "graph_from_design",
    "graph_from_machine",
    "compare_graphs",
    "ProtocolMonitor",
    "ProtocolViolationError",
    "attach_monitors",
    "VERIFY_ARCHITECTURES",
    "SMOKE_ARCHITECTURES",
    "run_verify_case",
    "run_verify",
    "format_verify_summary",
]
