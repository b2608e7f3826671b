"""Compiled scheduler backend (``--kernel compiled``).

Two layers of specialization over a calendar scheduler (this cycle's
entries, next cycle's entries, a heap for later ones):

* :mod:`repro.sim.compiled.kernel` -- one run loop in which every
  ``yield <int>`` is a *direct entry* and a process waiting alone on an
  event is resumed by the loop itself (no proxy event, no callback list,
  no ``Event._fire``/``Process._resume`` on the hot path);
* :mod:`repro.sim.compiled.specializer` -- per-architecture fabric
  specialization: per-(master, device) transaction closures binding the
  route, grant path and timing, built on a pair's first use, installed
  when every observability/fault/monitor hook is off and removed the
  moment one is attached (free-when-off becomes *absent*-when-off).

Nothing is generated: both layers are ordinary Python source.
"""

from .kernel import CompiledSimulator

__all__ = ["CompiledSimulator"]
