"""Compiled scheduler backend (``--kernel compiled``).

Two layers of specialization over a calendar scheduler (this cycle's
entries, next cycle's entries, a heap for later ones):

* :mod:`repro.sim.compiled.kernel` -- run-loop variants generated with
  ``compile()``/``exec`` from one template; every ``yield <int>`` is a
  *direct entry* and a process waiting alone on an event is resumed by
  the loop itself (no proxy event, no callback list, no
  ``Event._fire``/``Process._resume`` on the hot path);
* :mod:`repro.sim.compiled.specializer` -- per-architecture fabric
  specialization: per-(master, device) transaction closures binding the
  route, grant path and timing, built on a pair's first use, installed
  when every observability/fault/monitor hook is off and removed the
  moment one is attached (free-when-off becomes *absent*-when-off).

``repro compile -o DIR`` dumps the generated run loops for inspection.
"""

from .kernel import CompiledSimulator, generated_kernel_sources, KERNEL_VARIANTS

__all__ = [
    "CompiledSimulator",
    "generated_kernel_sources",
    "KERNEL_VARIANTS",
]
