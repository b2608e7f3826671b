"""Parallel experiment runner (DESIGN.md section 4).

Every experiment table is a list of *independent* cases: each case builds
its own :class:`~repro.sim.kernel.Simulator` and machine, so cases share no
mutable state and can run in separate worker processes.  :func:`run_cases`
fans a module-level case worker out over a ``ProcessPoolExecutor`` while
keeping the result order identical to the input order -- a parallel run
returns bit-identical rows to a sequential one, just sooner.

Workers are addressed as ``(module, qualname)`` pairs rather than function
objects so the payloads pickle by reference regardless of how the callable
was obtained.  Each invocation also records per-case telemetry: wall-clock
seconds and the number of simulation kernel events processed (measured as
the delta of :func:`repro.sim.kernel.total_events_processed` around the
call, which is per-process and therefore correct in workers too).

``jobs <= 1`` bypasses the pool entirely and runs inline -- same code path,
no process overhead, so the sequential behaviour of ``run_tableN()`` is
unchanged.
"""

from __future__ import annotations

import gc
import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.report import drain_recorded
from ..sim.kernel import total_events_processed

__all__ = ["CaseExecutionError", "CaseTelemetry", "run_cases"]


class CaseExecutionError(RuntimeError):
    """A case worker raised: identifies *which* case died, and on what.

    Pool workers report failures as pickled exceptions with no payload
    context; this wrapper pins the failing case and worker so a 40-case
    sweep doesn't reduce to a bare traceback.  The original exception is
    chained (``__cause__``) and summarized in the message.
    """

    def __init__(self, module_name: str, qualname: str, case: Any, error: BaseException):
        super().__init__(
            "case %r failed in %s.%s: %s: %s"
            % (case, module_name, qualname, type(error).__name__, error)
        )
        self.case = case
        self.worker = "%s.%s" % (module_name, qualname)


@dataclass
class CaseTelemetry:
    """Measurement of one case invocation (returned in input order).

    ``run_reports`` carries any :class:`repro.obs.report.RunReport` dicts
    the case recorded (via :func:`repro.obs.report.record_run`) -- drained
    per case in the executing process, so worker-side telemetry rides back
    to the parent with the result and aggregates deterministically.
    """

    case: Any
    wall_seconds: float
    events_processed: int
    run_reports: List[Dict[str, Any]] = field(default_factory=list)

    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.events_processed / self.wall_seconds


def _resolve(module_name: str, qualname: str) -> Callable:
    return getattr(importlib.import_module(module_name), qualname)


def _invoke(payload: Tuple[str, str, Any, Dict[str, Any]]) -> Tuple[Any, CaseTelemetry]:
    """Run one case in the current process, measuring time and events."""
    module_name, qualname, case, kwargs = payload
    func = _resolve(module_name, qualname)
    drain_recorded()  # discard reports stranded by an earlier failed case
    events_before = total_events_processed()
    start = time.perf_counter()
    try:
        result = func(case, **kwargs)
    except CaseExecutionError:
        raise
    except Exception as error:
        raise CaseExecutionError(module_name, qualname, case, error) from error
    wall = time.perf_counter() - start
    # The case's machine is cyclic garbage now: collect it while it is
    # young, so the next case does not run on top of it.
    gc.collect(1)
    telemetry = CaseTelemetry(case, wall, total_events_processed() - events_before)
    telemetry.run_reports = drain_recorded()
    return result, telemetry


def run_cases(
    func: Callable,
    cases: Sequence[Any],
    jobs: int = 1,
    kwargs: Optional[Dict[str, Any]] = None,
) -> Tuple[List[Any], List[CaseTelemetry]]:
    """Run ``func(case, **kwargs)`` for every case; returns (results, telemetry).

    Results and telemetry are in the same order as ``cases`` regardless of
    ``jobs``, so parallel and sequential runs are interchangeable.  ``func``
    must be a module-level callable (importable by name) and ``case`` /
    ``kwargs`` / results must pickle when ``jobs > 1``.
    """
    module_name = getattr(func, "__module__", None)
    qualname = getattr(func, "__qualname__", None)
    if not module_name or not qualname or "." in qualname:
        raise ValueError(
            "run_cases needs a module-level function, got %r" % (func,)
        )
    if _resolve(module_name, qualname) is not func:
        raise ValueError(
            "%s.%s does not resolve back to %r (decorated or shadowed?)"
            % (module_name, qualname, func)
        )
    frozen_kwargs = dict(kwargs or {})
    payloads = [(module_name, qualname, case, frozen_kwargs) for case in cases]
    if jobs <= 1 or len(payloads) <= 1:
        pairs = [_invoke(payload) for payload in payloads]
    else:
        workers = min(jobs, len(payloads))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves input order, giving deterministic rows.
            pairs = list(pool.map(_invoke, payloads))
    results = [result for result, _telemetry in pairs]
    telemetry = [telemetry for _result, telemetry in pairs]
    return results, telemetry
