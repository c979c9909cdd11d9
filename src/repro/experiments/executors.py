"""Execution engine: how a grid's pending tasks run.

A task is a ``(store_key, fn, payload)`` triple.  :func:`run_tasks` is
the one cached-execution path every grid driver shares: it recovers the
shards a killed parallel run left behind, serves every task the
:class:`~repro.experiments.store.SweepStore` already holds, and hands
the rest to an executor — :class:`SerialSweepExecutor` in-process, or
:class:`WorkStealingSweepExecutor` on worker processes that pull from
one task queue and persist to per-worker shard stores.
:func:`make_executor` picks one for a worker count without
oversubscribing the usable cores.  A task that raises becomes a
structured ``{"error": ...}`` result that is reported but never
persisted, so the next run retries it.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import sys
import time
import traceback
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.experiments.store import SweepStore


@dataclass(frozen=True)
class CellExecution:
    """What one task produced: its result and wall-clock cost.

    ``cached`` marks a result :func:`run_tasks` served from the store
    instead of running the task (its ``elapsed_s`` is 0).
    """

    result: object
    elapsed_s: float
    cached: bool = False


@dataclass(frozen=True)
class CellEvent:
    """One progress notification: a task finished (or was served cached).

    ``completed``/``total`` count within the emitting stage — the cache
    scan for ``"cached"`` events, the executor's task list otherwise.
    """

    key: str
    status: str  # "cached" | "done" | "failed"
    elapsed_s: float
    completed: int
    total: int
    error: Optional[dict] = None


ProgressCallback = Callable[[CellEvent], None]


def is_failure(result) -> bool:
    """True when ``result`` is a structured task failure, not a value."""
    return isinstance(result, dict) and "error" in result


def _structured_error(error: BaseException) -> dict:
    """A JSON-able record of a task failure (kept out of the store)."""
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }
    }


def _guarded(fn, payload) -> tuple[object, float]:
    """Run one task, converting any exception into a structured failure."""
    start = time.perf_counter()
    try:
        result = fn(payload)
    except Exception as error:  # noqa: BLE001 - one cell must not kill the sweep
        result = _structured_error(error)
    return result, time.perf_counter() - start


def _notify(
    progress: Optional[ProgressCallback],
    key: str,
    result,
    elapsed_s: float,
    completed: int,
    total: int,
) -> None:
    if progress is None:
        return
    failed = is_failure(result)
    progress(
        CellEvent(
            key=key,
            status="failed" if failed else "done",
            elapsed_s=elapsed_s,
            completed=completed,
            total=total,
            error=result["error"] if failed else None,
        )
    )


# Per-worker state, installed by the pool initializer (or directly by the
# serial executor).  Module-level because multiprocessing workers can only
# reach module-level state: the shard store this worker persists to, and
# the run-wide shared object (e.g. the dataset/runner spec) shipped once
# per worker instead of once per task.
_WORKER_SHARD: Optional[SweepStore] = None
_WORKER_SHARED: object = None


def worker_shared():
    """The run-wide shared object passed to ``executor.run(..., shared=)``.

    Task functions call this to reach heavyweight run-constant state (a
    dataset, a runner spec) without it riding inside every task payload.
    """
    return _WORKER_SHARED


def _initialize_worker(shard_dir: Optional[str], shared) -> None:
    global _WORKER_SHARD, _WORKER_SHARED
    if shard_dir is not None:
        _WORKER_SHARD = SweepStore(Path(shard_dir) / f"shard-{os.getpid()}.json")
    _WORKER_SHARED = shared


class SerialSweepExecutor:
    """Run tasks one after another in-process, persisting as each finishes.

    The reference executor: zero parallelism overhead, finest-grained
    resume (the store log is appended after every single cell).
    """

    workers = 1

    def run(
        self,
        tasks: Sequence[tuple],
        store: SweepStore,
        progress: Optional[ProgressCallback] = None,
        shared=None,
    ) -> dict[str, CellExecution]:
        global _WORKER_SHARED
        previous = _WORKER_SHARED
        _WORKER_SHARED = shared
        try:
            executions: dict[str, CellExecution] = {}
            for index, (key, fn, payload) in enumerate(tasks):
                result, elapsed = _guarded(fn, payload)
                if not is_failure(result):
                    store.put(key, result)
                executions[key] = CellExecution(result, elapsed)
                _notify(progress, key, result, elapsed, index + 1, len(tasks))
            store.compact()
            return executions
        finally:
            # Don't retain this run's shared state (dataset, rebuilt
            # runner) in a long-lived process; pool workers die with
            # theirs, the serial path must drop its own.
            _WORKER_SHARED = previous


def _execute_task(task: tuple) -> tuple[str, object, float]:
    """Worker entry: run one task, persist success to this worker's shard."""
    key, fn, payload = task
    result, elapsed = _guarded(fn, payload)
    if _WORKER_SHARD is not None and not is_failure(result):
        _WORKER_SHARD.put(key, result)
    return key, result, elapsed


def _worker_main(task_queue, result_queue, shard_dir, shared) -> None:
    """Work-stealing worker loop: pull tasks until the sentinel arrives.

    Each finished cell is appended to this worker's shard store *before*
    its result is reported back, so a parent killed mid-run loses nothing
    the workers completed.
    """
    _initialize_worker(shard_dir, shared)
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            result_queue.put(_execute_task(task))
    finally:
        if _WORKER_SHARD is not None:
            _WORKER_SHARD.close()


class WorkStealingSweepExecutor:
    """Fan tasks out to worker processes that pull from a shared queue.

    The former executor handed a process pool one future per cell; this
    one makes the pull explicit and lock-free for the caller: every worker
    draws its next cell from one shared queue the moment it finishes the
    last, so uneven cell costs (a trap-attack cell can cost many times a
    linear one) never leave a worker idle while another drags a long
    chunk — the degenerate, always-correct form of work stealing where
    the global queue is every thief's victim.

    Persistence is sharded: each worker appends finished cells to its own
    log-backed shard store (``<store>.shards/shard-<pid>.json``), so no
    two processes write one file and a killed run's completed cells
    survive for :meth:`SweepStore.recover_shards`.  On completion the
    parent merges all results into the main store, absorbs shards, and
    compacts — producing bytes identical to a serial run, because every
    cell's randomness is keyed by its configuration fingerprint, never by
    which worker ran it or in what order.

    Task exceptions become structured failure results; a worker that dies
    *without* raising (OOM-kill, segfault) surfaces as
    :class:`concurrent.futures.process.BrokenProcessPool` once the
    remaining workers drain the queue, and the dead run's shards remain
    for the next run to recover.

    Parameters
    ----------
    workers:
        Worker-process count; capped at the number of pending tasks.
        Construct directly to force a count; :func:`make_executor` caps
        requests at the usable cores instead of oversubscribing.

    Workers start by ``fork`` on Linux (cheap, inherits loaded numpy) and
    by the platform default elsewhere (forking after BLAS/framework init
    is unsafe on macOS).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def _context(self):
        if sys.platform == "linux":
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def run(
        self,
        tasks: Sequence[tuple],
        store: SweepStore,
        progress: Optional[ProgressCallback] = None,
        shared=None,
    ) -> dict[str, CellExecution]:
        if not tasks:
            store.compact()  # resumed byte-identity even with nothing to do
            return {}
        shard_dir = store.shard_directory()
        if shard_dir is not None:
            shard_dir.mkdir(parents=True, exist_ok=True)
        context = self._context()
        task_queue = context.Queue()
        result_queue = context.Queue()
        for task in tasks:
            task_queue.put(task)
        workers = min(self.workers, len(tasks))
        for _ in range(workers):
            task_queue.put(None)  # one shutdown sentinel per worker
        processes = [
            context.Process(
                target=_worker_main,
                args=(
                    task_queue,
                    result_queue,
                    str(shard_dir) if shard_dir is not None else None,
                    shared,
                ),
                daemon=True,
            )
            for _ in range(workers)
        ]
        executions: dict[str, CellExecution] = {}

        def absorb(item) -> None:
            key, result, elapsed = item
            executions[key] = CellExecution(result, elapsed)
            _notify(progress, key, result, elapsed, len(executions), len(tasks))

        try:
            for process in processes:
                process.start()
            while len(executions) < len(tasks):
                try:
                    absorb(result_queue.get(timeout=0.1))
                except queue_module.Empty:
                    if any(process.is_alive() for process in processes):
                        continue
                    # Every worker exited; drain what they flushed before
                    # deciding whether someone died holding a task.
                    while len(executions) < len(tasks):
                        try:
                            absorb(result_queue.get(timeout=0.2))
                        except queue_module.Empty:
                            break
                    if len(executions) < len(tasks):
                        raise BrokenProcessPool(
                            f"{len(tasks) - len(executions)} sweep task(s) "
                            "never returned: a worker died without raising "
                            "(OOM-kill or segfault); cells it finished "
                            "survive in its shard for the next run to "
                            "recover"
                        )
        finally:
            # Unread tasks (broken-pool or interrupt path) must not block
            # the parent on the queue's feeder thread.
            task_queue.cancel_join_thread()
            for process in processes:
                process.join(timeout=5.0)
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            task_queue.close()
            result_queue.close()
        store.update(
            {
                key: execution.result
                for key, execution in executions.items()
                if not is_failure(execution.result)
            }
        )
        # Absorb-and-remove every shard through the store's own recovery
        # path: our workers' shards hold keys just merged (skipped), while
        # shards a *previous* killed run left behind are merged too —
        # never deleted unmerged.
        store.recover_shards()
        store.compact()
        return executions


def usable_cpu_count() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def make_executor(workers: "int | None" = 1):
    """Build the right executor for ``workers``, never oversubscribing.

    ``None`` (or ``"auto"``) asks for every usable core.  A request
    beyond the usable cores is reduced with a warning — forcing 4 workers
    onto a 1-core host once *recorded a 0.29x "speedup"* in
    BENCH_sweep_parallel — and a request that lands at one worker
    degrades to the :class:`SerialSweepExecutor`, which beats a
    single-worker process pool by construction.  Construct
    :class:`WorkStealingSweepExecutor` directly to force a worker count
    (tests do, to exercise multi-process paths on small hosts).
    """
    cap = usable_cpu_count()
    if workers is None or workers == "auto":
        workers = cap
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > cap:
        warnings.warn(
            f"requested {workers} sweep workers but only {cap} usable "
            f"core(s); reducing to {cap} (oversubscribed process pools "
            "run *slower* than serial)",
            RuntimeWarning,
            stacklevel=2,
        )
        workers = cap
    if workers <= 1:
        return SerialSweepExecutor()
    return WorkStealingSweepExecutor(workers)


def run_tasks(
    tasks: Sequence[tuple],
    store: SweepStore,
    executor=None,
    progress: Optional[ProgressCallback] = None,
    shared=None,
) -> dict[str, CellExecution]:
    """Run ``(store_key, fn, payload)`` tasks, serving stored ones.

    Recovers the shards a killed parallel run left behind, serves every
    task whose key ``store`` already holds as a ``cached`` execution (with
    a ``"cached"`` progress event), and runs the rest through ``executor``
    (serial in-process when None), which persists their successes.
    Returns ``store_key -> CellExecution`` for every task, in task order.
    """
    store.recover_shards()
    executions: dict[str, CellExecution] = {}
    pending = []
    for task in tasks:
        key = task[0]
        value = store.get(key)
        if value is None:
            pending.append(task)
            continue
        executions[key] = CellExecution(value, 0.0, cached=True)
        if progress is not None:
            progress(
                CellEvent(
                    key=key,
                    status="cached",
                    elapsed_s=0.0,
                    completed=len(executions),
                    total=len(tasks),
                )
            )
    executor = executor if executor is not None else SerialSweepExecutor()
    executions.update(executor.run(pending, store, progress, shared))
    return {task[0]: executions[task[0]] for task in tasks}
