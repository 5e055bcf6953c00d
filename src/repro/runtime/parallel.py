"""Process-parallel execution of independent sweep cells.

A sweep (a paper table, a sensitivity grid, a parameter scan) is a set
of independent cells; nothing couples them except the shared build
cache, which each worker process re-warms on its own.  This module
describes one cell as a picklable :class:`SolveTask`, executes task
lists either serially or on a :class:`~concurrent.futures.\
ProcessPoolExecutor`, and keeps the
:class:`~repro.runtime.sweeprunner.SweepRunner` checkpoint semantics:
cells already present in the runner's journal are restored without
solving, fresh results are recorded in the parent process as they
complete (so a killed parallel run resumes exactly like a serial one),
and the returned list is ordered by input position regardless of
completion order.

Parallel and serial execution produce bit-identical results: a task's
payload is a plain float or JSON-style dict computed by the same
deterministic solver code path, and pickling across the process
boundary is exact for both.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import AttackConfig
from repro.core.incentives import IncentiveModel
from repro.errors import ReproError, SchedulerSpecError
from repro.runtime import telemetry

#: Task kinds understood by :func:`execute_task`.
TASK_KINDS = ("relative", "absolute", "orphans", "selfish_ds", "analyze",
              "warm", "validate_seed", "qa_cell")


@dataclass(frozen=True)
class SolveTask:
    """One picklable sweep cell.

    Attributes
    ----------
    kind:
        What to solve: ``"relative"`` / ``"absolute"`` / ``"orphans"``
        (the three incentive-model utilities, payload = float),
        ``"selfish_ds"`` (the Bitcoin selfish-mining baseline, payload
        = float), ``"analyze"`` (full analysis, payload = the JSON
        dict of :func:`repro.analysis.store.analysis_to_payload`), or
        ``"warm"`` (same solve and payload as ``"analyze"``, but
        :func:`decode_payload` leaves the payload as the raw dict --
        the atlas-precompute kind, which stores payloads verbatim and
        must not pay the MDP-rebuilding cost of full analysis
        reconstruction), or ``"validate_seed"`` (one seed of a
        multi-seed Monte-Carlo validation, payload = the sample dict
        of :func:`repro.analysis.validation.run_validation_seed`).
    key:
        Journal identity of the cell (stable across runs).
    config:
        Attack configuration (all kinds except ``"selfish_ds"``).
    model:
        Incentive model (``"analyze"`` only).
    params:
        Extra keyword arguments (``"selfish_ds"``: ``alpha``, ``tie``,
        ``max_len``; ``"validate_seed"``: ``seed``, ``steps``,
        ``trajectories``, ``engine``, ``policy``; ``"analyze"``:
        optional ``wall_clock`` / ``max_ticks`` running the solve
        under a supervised budget -- how the serving layer propagates
        request deadlines into worker processes).
    """

    kind: str
    key: Tuple
    config: Optional[AttackConfig] = None
    model: Optional[IncentiveModel] = None
    params: Tuple[Tuple[str, object], ...] = field(default=())


def execute_task(task: SolveTask):
    """Solve one task and return its JSON-compatible payload.

    Runs in a worker process under parallel execution; must therefore
    touch only picklable inputs and return picklable, JSON-encodable
    output (what the journal would store).
    """
    if task.kind == "relative":
        from repro.core.solve import solve_relative_revenue
        return solve_relative_revenue(task.config).utility
    if task.kind == "absolute":
        from repro.core.solve import solve_absolute_reward
        return solve_absolute_reward(task.config).utility
    if task.kind == "orphans":
        from repro.core.solve import solve_orphan_rate
        return solve_orphan_rate(task.config).utility
    if task.kind == "selfish_ds":
        from repro.baselines.selfish_ds import (
            solve_selfish_mining_double_spend,
        )
        return solve_selfish_mining_double_spend(
            **dict(task.params)).absolute_reward
    if task.kind in ("analyze", "warm"):
        from repro.analysis.store import analysis_to_payload
        from repro.core.solve import analyze
        params = dict(task.params)
        wall_clock = params.get("wall_clock")
        supervisor = None
        if wall_clock is not None:
            # Deadline propagation across the task boundary: the
            # serving layer ships the *remaining* request time as a
            # wall-clock budget, so a solve running in a worker is cut
            # off by the same typed error path as an in-process one
            # (supervised fallback chain included).
            from repro.runtime.budget import Budget
            from repro.runtime.supervisor import SolverSupervisor
            supervisor = SolverSupervisor(
                budget=Budget(wall_clock=wall_clock,
                              max_ticks=params.get("max_ticks")))
        return analysis_to_payload(
            analyze(task.config, task.model, supervisor=supervisor))
    if task.kind == "validate_seed":
        from repro.analysis.validation import run_validation_seed
        return run_validation_seed(task.config, task.model,
                                   **dict(task.params))
    if task.kind == "qa_cell":
        from repro.qa.conformance import run_cell_payload
        return run_cell_payload(**dict(task.params))
    raise ReproError(f"unknown task kind {task.kind!r}")


def decode_payload(kind: str, payload):
    """Convert a journal/worker payload back to the caller-facing
    value (identity for float kinds and for ``"warm"`` -- whose
    consumers store the raw payload -- analysis reconstruction for
    ``"analyze"``)."""
    if kind == "analyze":
        from repro.analysis.store import analysis_from_payload
        return analysis_from_payload(payload)
    return payload


def execute_task_traced(task: SolveTask) -> Tuple[object, Dict]:
    """Solve one task under a fresh worker-local tracer and return
    ``(payload, telemetry_snapshot)``.

    Used by :func:`run_cells` when the parent has tracing enabled.
    The worker swaps in its own :class:`~repro.runtime.telemetry.\
Tracer` for the duration (a fork-started worker inherits the parent's
    registry, which must not be double-counted), times the cell, and
    ships counters/gauges/events back for the parent to merge.  The
    snapshot carries the cell wall time and worker pid as a
    ``worker-cell`` event so merged traces expose per-worker load.
    """
    tracer = telemetry.Tracer()
    started = time.perf_counter()
    with telemetry.use_tracer(tracer):
        payload = execute_task(task)
    tracer.events.append(
        {"type": "worker-cell", "key": list(task.key),
         "pid": os.getpid(),
         "wall_s": time.perf_counter() - started})
    return payload, tracer.snapshot()


ProgressFn = Optional[Callable[[SolveTask, object], None]]


class Scheduler:
    """Strategy for executing a batch of independent cells.

    :func:`run_cells` historically hard-coded one strategy (an
    in-process loop below a worker threshold, a
    :class:`~concurrent.futures.ProcessPoolExecutor` above it).  A
    scheduler makes that choice pluggable without touching the
    checkpoint semantics, which stay in :func:`run_cells`: the
    scheduler only answers "how many execution slots?" and "what
    executor runs them?".
    """

    name = "serial"

    def slots(self, workers: int) -> int:
        """Number of concurrent execution slots given the call site's
        ``workers`` hint (1 means the serial in-process path)."""
        return 1

    def executor(self, slots: int):
        """A started ``concurrent.futures`` executor with ``slots``
        workers (only called when ``slots > 1``)."""
        raise ReproError(f"scheduler {self.name!r} has no executor")


class SerialScheduler(Scheduler):
    """Always solve in-process, whatever ``workers`` says.  Useful for
    debugging (breakpoints, profilers) and on platforms where process
    pools misbehave."""

    name = "serial"


class ProcessScheduler(Scheduler):
    """The default: a local
    :class:`~concurrent.futures.ProcessPoolExecutor`.

    ``workers=None`` defers to the call site's ``workers`` argument,
    so ``--scheduler process`` changes nothing for existing sweeps;
    ``ProcessScheduler(8)`` (or ``--scheduler process:8``) pins the
    pool size regardless of what callers pass.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise SchedulerSpecError(
                f"scheduler workers must be >= 1, got {workers!r}")
        self.workers = workers

    def slots(self, workers: int) -> int:
        return self.workers if self.workers is not None else workers

    def executor(self, slots: int):
        return ProcessPoolExecutor(max_workers=slots)


def make_scheduler(spec: str) -> Scheduler:
    """Build a scheduler from a CLI-style spec string: ``"serial"``,
    ``"process"`` or ``"process:<N>"``."""
    if spec == "serial":
        return SerialScheduler()
    if spec == "process":
        return ProcessScheduler()
    if spec.startswith("process:"):
        count = spec.split(":", 1)[1]
        try:
            workers = int(count)
        except ValueError:
            raise SchedulerSpecError(
                f"invalid process scheduler worker count "
                f"{count!r}") from None
        # ProcessScheduler rejects workers < 1 with the same typed
        # error, so "process:0" fails here at parse time instead of
        # propagating a bare ValueError out of ProcessPoolExecutor
        # deep inside run_cells.
        return ProcessScheduler(workers)
    raise ReproError(
        f"unknown scheduler {spec!r}; expected 'serial', 'process' "
        "or 'process:<N>'")


#: Process-global default used by :func:`run_cells` when no explicit
#: scheduler is passed (how the CLI's ``--scheduler`` flag reaches
#: sweeps, the qa matrix and the serve worker pool).
_DEFAULT_SCHEDULER: Optional[Scheduler] = None


def set_default_scheduler(scheduler: Optional[Scheduler]) -> None:
    """Install (or with ``None`` clear) the process-global scheduler."""
    global _DEFAULT_SCHEDULER
    _DEFAULT_SCHEDULER = scheduler


def default_scheduler() -> Optional[Scheduler]:
    """The installed process-global scheduler, if any."""
    return _DEFAULT_SCHEDULER


def run_cells(tasks: Sequence[SolveTask], runner=None, workers: int = 1,
              progress: ProgressFn = None,
              scheduler: Optional[Scheduler] = None) -> List:
    """Execute ``tasks`` and return their decoded values in input
    order.

    Parameters
    ----------
    tasks:
        The cells to solve.
    runner:
        Optional :class:`~repro.runtime.sweeprunner.SweepRunner`.
        Journaled cells are restored without solving; fresh results
        are recorded (and ``fault_hook`` fired) in the parent process.
    workers:
        ``1`` solves in-process; ``> 1`` fans the non-restored cells
        out to that many worker processes.  Results are identical
        either way, only wall time and journal record *order* differ
        (parallel records in completion order).
    progress:
        Optional callback invoked with ``(task, value)`` as each cell
        completes (input order when serial, completion order when
        parallel).
    scheduler:
        Execution strategy.  ``None`` uses the process-global default
        (:func:`set_default_scheduler`) when one is installed, else
        the historical behaviour (a local process pool sized by
        ``workers``).  Schedulers change *where* cells run, never
        their results or the journal semantics.

    With tracing enabled (:mod:`repro.runtime.telemetry`), worker
    cells run under worker-local tracers whose snapshots ship back
    with each payload and merge into the parent's tracer; merged
    counters are independent of ``workers``.  A worker exception does
    not abandon finished work: already-completed futures are drained
    and recorded (journal included), in-flight futures are cancelled,
    and the exception is re-raised with the failing cell's key on its
    ``task_key`` attribute.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers!r}")
    if scheduler is None:
        scheduler = _DEFAULT_SCHEDULER
    if scheduler is None:
        scheduler = ProcessScheduler()
    slots = scheduler.slots(workers)
    results: List = [None] * len(tasks)
    pending: List[Tuple[int, SolveTask]] = []
    for i, task in enumerate(tasks):
        journal = getattr(runner, "journal", None)
        if journal is not None and task.key in journal:
            runner.stats.restored += 1
            telemetry.counter_add("journal/restored")
            results[i] = decode_payload(task.kind, journal.get(task.key))
            if progress is not None:
                progress(task, results[i])
        else:
            pending.append((i, task))

    if slots == 1 or len(pending) <= 1:
        # Serial path: reuse SweepRunner.cell so checkpoint semantics
        # (fault_hook before each fresh solve, record after) match the
        # historical serial sweeps exactly.
        for i, task in pending:
            if runner is not None:
                payload = runner.cell(
                    list(task.key),
                    lambda task=task: execute_task(task))
            else:
                payload = execute_task(task)
            results[i] = decode_payload(task.kind, payload)
            if progress is not None:
                progress(task, results[i])
        return results

    def record(task: SolveTask, payload) -> None:
        if runner is None:
            return
        # In parallel mode solves happen in workers, so the
        # fault_hook fires in the parent just before the journal
        # record -- the closest crash point the parent controls.
        if runner.fault_hook is not None:
            runner.fault_hook(runner.stats.solved)
        if runner.journal is not None:
            runner.journal.record(list(task.key), payload)
        runner.stats.solved += 1
        telemetry.counter_add("journal/solved")

    traced = telemetry.tracing_enabled()
    worker_fn = execute_task_traced if traced else execute_task

    def unpack(payload):
        if not traced:
            return payload
        payload, snapshot = payload
        telemetry.current_tracer().merge_snapshot(snapshot)
        return payload

    with scheduler.executor(slots) as pool:
        futures: Dict = {pool.submit(worker_fn, task): (i, task)
                         for i, task in pending}
        handled = set()
        for future in as_completed(futures):
            i, task = futures[future]
            handled.add(future)
            try:
                payload = unpack(future.result())
            except Exception as exc:
                _salvage(futures, handled=handled, record=record,
                         results=results, unpack=unpack)
                # Re-raise the worker's own exception, with the
                # failing cell's identity attached for diagnostics.
                exc.task_key = task.key
                raise
            record(task, payload)
            results[i] = decode_payload(task.kind, payload)
            if progress is not None:
                progress(task, results[i])
    return results


def _salvage(futures: Dict, handled, record, results: List,
             unpack) -> None:
    """Clean up after a worker exception mid-``as_completed``: cancel
    every not-yet-started future, then drain the ones that already
    completed successfully (and were not yet consumed by the main
    loop) and record their payloads (journal included) so a resume
    does not re-solve finished work."""
    for future in futures:
        if future not in handled:
            future.cancel()
    for future, (i, task) in futures.items():
        if future in handled or not future.done() or future.cancelled():
            continue
        try:
            payload = unpack(future.result())
        except Exception:
            continue  # a second failure; the first is being raised
        try:
            record(task, payload)
        except Exception:
            continue  # e.g. an injected fault hook; keep draining
        results[i] = decode_payload(task.kind, payload)
