"""Compiled scheduler backend (``--kernel compiled``).

Only a scheduler: a calendar (this cycle's entries, next cycle's entries,
a heap for later ones) and one run loop, :mod:`repro.sim.compiled.kernel`,
in which every ``yield <int>`` is a *direct entry*, a process waiting
alone on an event is resumed by the loop itself (no proxy event, no
callback list, no ``Event._fire``/``Process._resume`` on the hot path),
and parked poll loops are skipped over whole periods (poll fast-forward).
The fabric is the same on both backends (:class:`repro.sim.fabric.Machine`).

Nothing is generated: the run loop is ordinary Python source.
"""

from .kernel import CompiledSimulator

__all__ = ["CompiledSimulator"]
