"""Parallel campaign execution over a process pool.

Every headline artifact of the reproduction -- the figure sweeps, the
order-error penalties, multi-seed replication -- is a batch of
independent, CPU-bound, pure-Python simulations.  :class:`SweepExecutor`
runs such a batch:

- **Deterministically.**  Results merge by *submission index*, never by
  completion order, so the output of ``--jobs 8`` is bit-for-bit the
  output of ``--jobs 1``.  Each task is seeded entirely by its config
  (the simulator draws every stream from the config seed; there is no
  process-global RNG state), so where a task runs cannot matter.
- **Through one code path.**  ``jobs=1`` calls the same
  :func:`~repro.exec.summary.execute_config` worker in-process that the
  pool calls in children -- serial and parallel cannot drift.
- **With failures surfaced.**  A worker exception, a dead worker
  process, or a task exceeding ``timeout_s`` raises a structured
  :class:`SweepTaskError` naming the task, instead of a hung sweep or a
  bare traceback from a nameless child.
- **Against a content-addressed cache.**  Points whose digest is cached
  are replayed without simulating; fresh points are written to the
  cache as they finish, so an interrupted campaign resumes where it
  stopped (see :mod:`repro.exec.cache`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.exec.cache import ResultCache
from repro.exec.digest import config_digest
from repro.exec.summary import RunSummary, execute_config
from repro.experiments.config import ExperimentConfig

__all__ = ["SweepExecutor", "SweepTaskError"]

Worker = Callable[..., RunSummary]
#: One unique point of a batch: its digest and the first index that asked for it.
Unit = Tuple[str, int]


class SweepTaskError(RuntimeError):
    """One sweep task failed, crashed, or timed out.

    Carries enough structure (task index, config, digest, failure kind)
    for a campaign driver to report, skip, or retry the point; the
    original exception rides along as ``__cause__``.
    """

    #: Failure kinds.
    FAILED = "failed"  # the worker raised
    CRASHED = "crashed"  # the worker process died (segfault, OOM-kill)
    TIMEOUT = "timeout"  # no result within timeout_s

    def __init__(
        self,
        index: int,
        config: ExperimentConfig,
        digest: str,
        kind: str,
        detail: str = "",
    ) -> None:
        self.index = index
        self.config = config
        self.digest = digest
        self.kind = kind
        self.detail = detail
        message = (
            f"sweep task #{index} (arch={config.architecture}, "
            f"load={config.load:g}, seed={config.seed}) {kind}"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)


def _task_error(
    unit: Unit,
    configs: Sequence[ExperimentConfig],
    exc: BaseException,
    kind: str = SweepTaskError.FAILED,
    detail: str = "",
) -> SweepTaskError:
    """The error naming ``unit``'s task; a worker's own exception is quoted."""
    digest, index = unit
    return SweepTaskError(
        index, configs[index], digest, kind, detail or f"{type(exc).__name__}: {exc}"
    )


class SweepExecutor:
    """Run batches of :class:`ExperimentConfig` to :class:`RunSummary`.

    ``jobs=1`` (the default) executes in-process; ``jobs=N`` fans out
    over a :class:`~concurrent.futures.ProcessPoolExecutor`.  One
    executor can serve several batches (e.g. a sweep followed by a
    replication) and accumulates campaign totals in :meth:`stats`.

    ``worker`` swaps the task function (testing / extension hook); the
    cache is keyed by config digest regardless, so only pass a
    ``cache_dir`` with workers whose output is a pure function of the
    config, as :func:`execute_config` is.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[Union[str, "object"]] = None,
        *,
        timeout_s: Optional[float] = None,
        collect_obs: bool = False,
        worker: Optional[Worker] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache = ResultCache(cache_dir)
        self.timeout_s = timeout_s
        self.collect_obs = collect_obs
        self.worker: Worker = worker if worker is not None else execute_config
        #: Campaign totals across every run() call on this executor.
        self.tasks = 0
        self.cache_hits = 0
        self.executed = 0

    # ------------------------------------------------------------------
    def digest_of(self, config: ExperimentConfig) -> str:
        """The cache key for one task under this executor's options."""
        return config_digest(config, collect_obs=self.collect_obs)

    def stats(self) -> Dict[str, int]:
        """Campaign totals: submitted points, cache replays, simulations."""
        return {
            "tasks": self.tasks,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "jobs": self.jobs,
        }

    # ------------------------------------------------------------------
    def run(self, configs: Sequence[ExperimentConfig]) -> List[RunSummary]:
        """Execute every config; results align with ``configs`` by index."""
        configs = list(configs)
        self.tasks += len(configs)
        digests = [self.digest_of(config) for config in configs]
        # Unique points in first-appearance order; duplicates coalesce.
        first: Dict[str, int] = {}
        for index, digest in enumerate(digests):
            first.setdefault(digest, index)
        done: Dict[str, RunSummary] = {}
        for digest in first:
            cached = self.cache.get(digest)
            if cached is not None:
                done[digest] = cached
        self.cache_hits += sum(digest in done for digest in digests)
        todo = [(digest, index) for digest, index in first.items() if digest not in done]
        if self.jobs == 1 or len(todo) <= 1:
            self._run_serial(configs, todo, done)
        else:
            self._run_pool(configs, todo, done)
        return [done[digest] for digest in digests]

    # ------------------------------------------------------------------
    def _finish(
        self, digest: str, summary: RunSummary, done: Dict[str, RunSummary], *, store: bool = True
    ) -> None:
        if store:
            self.cache.put(digest, summary)
        self.executed += 1
        done[digest] = summary

    def _run_serial(
        self,
        configs: Sequence[ExperimentConfig],
        todo: Sequence[Unit],
        done: Dict[str, RunSummary],
    ) -> None:
        for unit in todo:
            digest, index = unit
            try:
                summary = self.worker(configs[index], collect_obs=self.collect_obs)
            except Exception as exc:
                raise _task_error(unit, configs, exc) from exc
            self._finish(digest, summary, done)

    def _run_pool(
        self,
        configs: Sequence[ExperimentConfig],
        todo: Sequence[Unit],
        done: Dict[str, RunSummary],
    ) -> None:
        # Imported here: a single run, and every --jobs 1 campaign, never
        # builds a pool and should not load multiprocessing to say so.
        from concurrent.futures import (
            BrokenExecutor,
            ProcessPoolExecutor,
            TimeoutError as FutureTimeoutError,
            as_completed,
        )

        kwargs = {"collect_obs": self.collect_obs}
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(todo)))
        try:
            # `self.worker` looks like a bound-method submission but is a
            # plain module-level function stored on the instance
            # (execute_config by default; the constructor documents the
            # picklability requirement for overrides), so only the
            # function reference pickles, never `self`.
            futures = [
                pool.submit(self.worker, configs[index], **kwargs)  # simlint: allow-unpicklable-worker
                for _, index in todo
            ]
            unit_of = dict(zip(futures, todo))
            stored = set()
            try:
                if self.timeout_s is None:
                    # Persist points as they finish (completion order is
                    # fine here: the cache is content-addressed), so an
                    # interrupt keeps every completed point.  Failures
                    # are deliberately deferred to the ordered pass
                    # below, which surfaces the *lowest-index* failure
                    # deterministically.
                    for future in as_completed(futures):
                        try:
                            summary = future.result()
                        except Exception:
                            continue
                        self.cache.put(unit_of[future][0], summary)
                        stored.add(future)
                # Deterministic merge: strictly by submission index.
                for future, unit in unit_of.items():
                    try:
                        summary = future.result(timeout=self.timeout_s)
                    except FutureTimeoutError as exc:
                        raise _task_error(
                            unit,
                            configs,
                            exc,
                            SweepTaskError.TIMEOUT,
                            f"no result within {self.timeout_s}s",
                        ) from exc
                    except BrokenExecutor as exc:
                        raise _task_error(
                            unit,
                            configs,
                            exc,
                            SweepTaskError.CRASHED,
                            "worker process died before returning a result",
                        ) from exc
                    except Exception as exc:
                        raise _task_error(unit, configs, exc) from exc
                    self._finish(unit[0], summary, done, store=future not in stored)
            except SweepTaskError:
                # Abort the campaign *now*: cancel queued tasks and kill
                # running workers, otherwise shutdown would block on the
                # very task that just timed out (the hung sweep this
                # error exists to prevent).  Completed points are
                # already in the cache.
                for future in futures:
                    future.cancel()
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
                raise
        finally:
            pool.shutdown(wait=True)
