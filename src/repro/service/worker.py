"""Worker protocol for the simulation service's sharded process fleet.

Each shard owns one :class:`ProcessWorker`: a dedicated child process
connected by a duplex pipe, processing one job at a time.  The protocol is
hand-rolled (rather than a ``ProcessPoolExecutor``) because the server
needs capabilities a pool hides:

* **kill-on-timeout** — a job that exceeds its budget is abandoned by
  terminating the worker process (the only way to interrupt a compute-bound
  simulation), surfaced as :class:`JobTimeout`;
* **crash detection** — a worker dying mid-job closes the pipe, surfaced as
  :class:`WorkerCrash` so the server can retry the job on a respawned
  worker.

A worker serves each job with :func:`~repro.engine.session.execute_job`,
i.e. on a fresh :class:`~repro.runtime.device.VortexDevice`.  Re-running a
kernel on a dirty device produces *wrong* results (allocator high-water
mark, warm timing-model caches, accumulated counters), and rewinding a
used device from a pristine checkpoint costs more than building one
(restore 0.37-0.70 ms, rebuild 0.10-0.15 ms), so no device is pooled and
the bit-identical replay the content-addressed cache depends on holds by
construction.  What stays warm is what the long-lived process keeps anyway:
its imports and the per-process kernel memo of :mod:`repro.engine.session`
(assembled program images, ~0.7 ms each).

Workers prefer the ``fork`` start method: it inherits the parent's warm
imports (faster spawn) and, in tests, inherited module state serves as a
fault-injection seam (:data:`_FAULT_INJECTOR`).  Where processes cannot be
created at all, :class:`InlineWorker` degrades to in-process execution with
the same interface (minus kill-on-timeout).
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from collections.abc import Callable
from multiprocessing.connection import Connection

from repro.engine.session import JobResult, KernelJob, execute_job

#: Test seam: when not ``None``, called with each job inside the worker
#: before execution.  With the ``fork`` start method a monkeypatched value
#: is inherited by newly spawned workers, letting tests inject crashes
#: (e.g. ``os._exit``) deterministically without touching the protocol.
_FAULT_INJECTOR: Callable[[KernelJob], None] | None = None


class WorkerCrash(RuntimeError):
    """The worker process died (or its pipe broke) while a job was in flight."""


class JobTimeout(RuntimeError):
    """A job exceeded its time budget and its worker was terminated."""


def worker_main(conn: Connection) -> None:
    """Entry point of a worker process: serve jobs off ``conn`` until told to stop."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        kind = message[0]
        if kind == "stop":
            conn.close()
            return
        if kind == "ping":
            conn.send(("pong",))
            continue
        # ("run", job)
        job: KernelJob = message[1]
        if _FAULT_INJECTOR is not None:
            _FAULT_INJECTOR(job)
        result = execute_job(job)
        try:
            conn.send(("done", result))
        except (BrokenPipeError, OSError):
            return


def _start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class ProcessWorker:
    """Parent-side handle on one worker process (one job in flight at a time)."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context(_start_method())
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._process = ctx.Process(target=worker_main, args=(child_conn,), daemon=True)
        with warnings.catch_warnings():
            # Python 3.12 warns on fork()ing a process that has threads (the
            # service client's event-loop thread).  The worker only runs
            # self-contained simulation code off a pipe, so the fork is safe.
            warnings.simplefilter("ignore", DeprecationWarning)
            self._process.start()
        child_conn.close()
        self.jobs_served = 0

    @property
    def pid(self) -> int | None:
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    def request(self, job: KernelJob, timeout: float | None) -> JobResult:
        """Run ``job`` on the worker, blocking up to ``timeout`` seconds.

        Raises :class:`WorkerCrash` if the worker dies mid-job and
        :class:`JobTimeout` (after terminating the worker — the handle is
        dead either way and must be replaced) when the budget elapses.
        """
        try:
            self._conn.send(("run", job))
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrash(f"worker pid={self.pid} pipe closed on send: {exc}") from exc
        try:
            if not self._conn.poll(timeout):
                self.terminate()
                raise JobTimeout(
                    f"job {job.describe()!r} exceeded {timeout}s on worker pid={self.pid}"
                )
            message = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerCrash(f"worker pid={self.pid} died mid-job: {exc}") from exc
        result: JobResult = message[1]
        self.jobs_served += 1
        return result

    def terminate(self) -> None:
        """Kill the worker process immediately (used on timeout/shutdown)."""
        if self._process.is_alive():
            self._process.kill()
        self._process.join(timeout=5.0)
        self._conn.close()

    def stop(self) -> None:
        """Ask the worker to exit cleanly, then reap it."""
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)
        self._conn.close()


class InlineWorker:
    """Degraded in-process stand-in for :class:`ProcessWorker`.

    Used where the platform cannot create processes at all.  Same
    ``request`` interface; ``timeout`` cannot be enforced (a thread cannot
    be killed) and crashes cannot be isolated — documented trade-off of the
    fallback, not of the service design.
    """

    def __init__(self) -> None:
        self.jobs_served = 0

    @property
    def pid(self) -> int | None:
        return os.getpid()

    @property
    def alive(self) -> bool:
        return True

    def request(self, job: KernelJob, timeout: float | None) -> JobResult:
        if _FAULT_INJECTOR is not None:
            _FAULT_INJECTOR(job)
        result = execute_job(job)
        self.jobs_served += 1
        return result

    def terminate(self) -> None:
        pass

    def stop(self) -> None:
        pass


def create_worker(mode: str = "auto") -> ProcessWorker | InlineWorker:
    """Build a worker: ``"process"``, ``"inline"``, or ``"auto"`` (try process)."""
    if mode == "inline":
        return InlineWorker()
    if mode == "process":
        return ProcessWorker()
    if mode != "auto":
        raise ValueError(f"unknown worker mode {mode!r}")
    try:
        return ProcessWorker()
    except (OSError, ImportError):
        return InlineWorker()
