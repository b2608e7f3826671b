"""Cross-layer verification: the netlist's structure + protocol monitors.

Two complementary checks tie the generator (:mod:`repro.core`) and the
simulator (:mod:`repro.sim`) together:

* **structural** -- :func:`graph_from_design` extracts the bus fabric of a
  generated design pin by pin into the :class:`FabricGraph` the
  simulation machine is built from, reporting every dropped or misrouted
  wire as a typed :class:`Finding`;
* **runtime** -- :class:`ProtocolMonitor` probes arbiters, segments,
  FIFOs and bridges (a :class:`repro.obs.Probe`, free when off) and
  asserts the bus-protocol invariants (grant one-hot, REQ-until-GNT, FIFO
  conservation/bounds, bridge forwarding conservation, transaction
  retirement) while the workload runs.

:func:`repro.verify.runner.run_verify` sweeps both checks across
architectures and scheduler backends; the ``repro verify`` CLI verb and
CI's smoke step drive it.  The package itself does not load the sweep,
so the machine builder, which needs only the extractor, stays light.
"""

from .findings import Finding
from .graph import BanNode, FabricGraph, SegmentNode, SubsystemNode, graph_from_design
from .monitors import ProtocolMonitor, ProtocolViolationError, attach_monitors

__all__ = [
    "Finding",
    "FabricGraph",
    "SubsystemNode",
    "BanNode",
    "SegmentNode",
    "graph_from_design",
    "ProtocolMonitor",
    "ProtocolViolationError",
    "attach_monitors",
]
