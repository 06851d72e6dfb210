"""The vectorized execution engine and the batched session layer.

This package is the lane-parallel back end of the simulation stack:

* :mod:`repro.engine.protocol` — the :class:`ExecutionEngine` protocol all
  simulation drivers implement.
* :mod:`repro.engine.vector_emulator` — per-PC plan-compiled, whole-warp
  lane-vector instruction execution.
* :mod:`repro.engine.vector_core` — the vectorized functional core and
  multi-core processor (drop-in engine for the FUNCSIM driver).
* :mod:`repro.engine.session` — batched multi-kernel sessions: queue
  (kernel, config) jobs, execute them concurrently on a process or thread
  pool, aggregate the reports.

``Session`` and friends are re-exported lazily to avoid a circular import
(the runtime drivers import the vector engine, while the session layer
imports the runtime).
"""

from repro.engine.protocol import ExecutionEngine
from repro.engine.vector_core import VectorProcessor, VectorSimtCore
from repro.engine.vector_emulator import VectorWarpEmulator

__all__ = [
    "ExecutionEngine",
    "VectorProcessor",
    "VectorSimtCore",
    "VectorWarpEmulator",
    "Session",
    "JobQueue",
    "KernelJob",
    "JobResult",
    "BatchReport",
    "diff_execution_reports",
    "execute_job",
    "design_point_jobs",
]

_SESSION_EXPORTS = {
    "Session",
    "JobQueue",
    "KernelJob",
    "JobResult",
    "BatchReport",
    "diff_execution_reports",
    "execute_job",
    "design_point_jobs",
}


def __getattr__(name: str):
    if name in _SESSION_EXPORTS:
        from repro.engine import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
