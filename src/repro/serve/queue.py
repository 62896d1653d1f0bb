"""Async job submission: futures, in-flight dedup, bounded backpressure.

A :class:`~repro.session.Session` answers one request at a time and a
:class:`~repro.engine.batch.BatchRunner` walks jobs in order.
:class:`JobQueue` is the concurrent front-end a long-lived server needs, and
the only one: it accepts :class:`~repro.engine.batch.BatchJob`\\ s, returns
:class:`concurrent.futures.Future`\\ s, and executes them on a worker pool
over one shared :class:`BatchRunner` (so the per-graph sessions, caches and
any persistent :class:`~repro.store.ArtifactStore` are shared by every job).
A request thus travels ``Session`` → ``BatchRunner`` → ``JobQueue`` → the
HTTP tier (:mod:`repro.serve.http`).

Three serving behaviours:

* **in-flight dedup** — identical jobs submitted while the first is still
  running share one future (one execution); the dedup key is built on the
  problem's own :meth:`~repro.problems.Problem.request_key`, so every
  equivalent spelling coalesces.
* **bounded backpressure** — with ``max_pending=N``, at most ``N`` jobs are
  queued-or-running; further ``submit`` calls block until capacity frees.
  :meth:`~JobQueue.map` streams results in submission order while the window
  keeps at most ``N`` jobs in flight, so arbitrarily long job streams keep a
  bounded number of pending results.  (Per-*graph* state — one session with
  its CSR view and caches — is bounded by the runner, not by
  ``max_pending``: ``BatchRunner(max_sessions=N)`` keeps the ``N`` most
  recently used sessions and re-opens an evicted one from the store on its
  next job.)
* **session safety** — sessions are single-threaded by design (their caches
  are plain dicts), so execution is serialised per graph; concurrency comes
  from distinct graphs, from in-flight dedup, and from the engines themselves
  (NumPy kernels release the GIL, and ``sharded:workers=N`` runs each round's
  shards on ``N`` threads).

Results are **bit-identical to sequential execution**: per-graph serialisation
means every job sees the same cache state transitions as some sequential order,
and every engine is deterministic (the equivalence suites pin this).
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.engine.batch import BatchJob, BatchResult, BatchRunner
from repro.errors import QueueFullError, ServeError
from repro.obs import trace as obs_trace
from repro.obs.metrics import counter_families, family, gauge_family
from repro.problems import Problem, get_problem


@dataclass
class ServeStats:
    """Counters of what a :class:`JobQueue` accepted and ran.

    ``queue_depth`` is a live gauge (requests accepted but not yet completed
    — exactly what ``max_pending`` bounds), not a monotone counter;
    ``per_problem`` counts every request by canonical problem name, whether it
    started an execution or coalesced onto one.  Both feed the HTTP
    ``/metrics`` endpoint, where ``dedup_hits`` is the wire spelling of
    ``deduplicated``.
    """

    submitted: int = 0      #: requests accepted for execution
    deduplicated: int = 0   #: submissions coalesced onto an in-flight future
    completed: int = 0      #: executions finished (successfully or not)
    queue_depth: int = 0    #: gauge: executions accepted and not yet completed
    #: requests per canonical problem name (accepted + coalesced)
    per_problem: Dict[str, int] = field(default_factory=dict)

    @property
    def dedup_hits(self) -> int:
        """Wire alias of :attr:`deduplicated` (the ``/metrics`` spelling)."""
        return self.deduplicated

    def count_problem(self, name: Optional[str]) -> None:
        """Count one request against ``name`` (None: problem unresolvable)."""
        if name is not None:
            self.per_problem[name] = self.per_problem.get(name, 0) + 1

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of the counters."""
        snapshot = dict(vars(self))
        snapshot["per_problem"] = dict(self.per_problem)
        snapshot["dedup_hits"] = self.deduplicated
        return snapshot

    @staticmethod
    def families(snapshot: dict, prefix: str = "repro_serve") -> list:
        """A :meth:`to_dict` snapshot as metric families for a
        ``MetricsRegistry`` collector.

        How the serving stats register into the observability layer (via
        ``register_collector``) instead of being hand-merged: the monotone
        counters become ``<prefix>_*_total``, ``queue_depth`` stays a gauge,
        and ``per_problem`` becomes one labelled counter family.
        """
        families = counter_families(
            prefix, {key: snapshot[key] for key in
                     ("submitted", "deduplicated", "completed")},
            "Serving counter")
        families.append(gauge_family(
            f"{prefix}_queue_depth",
            "Executions accepted and not yet completed",
            snapshot["queue_depth"]))
        families.append(family(
            f"{prefix}_requests_total", "counter",
            "Requests by canonical problem name (accepted + coalesced)",
            [("", {"problem": name}, float(count))
             for name, count in sorted(snapshot["per_problem"].items())]))
        return families


class JobQueue:
    """Asynchronous, deduplicating front-end over a :class:`BatchRunner`.

    Parameters
    ----------
    runner:
        The batch runner to execute on (owns one session per graph and the
        optional persistent store).  When omitted, a default
        ``BatchRunner()`` (``vectorized`` engine, no store).
    max_workers:
        Worker threads.  Jobs on the *same* graph are serialised (sessions
        are single-threaded by design); distinct graphs run concurrently.
    max_pending:
        Backpressure bound: at most this many jobs queued-or-running;
        ``submit`` blocks beyond it.  ``None`` means unbounded.

    >>> with JobQueue(BatchRunner(store="./cache"), max_workers=4,
    ...               max_pending=64) as queue:           # doctest: +SKIP
    ...     futures = [queue.submit(job) for job in jobs]
    ...     results = [f.result() for f in futures]
    """

    def __init__(self, runner: Optional[BatchRunner] = None, *,
                 max_workers: int = 2,
                 max_pending: Optional[int] = None) -> None:
        if max_workers < 1:
            raise ServeError(f"max_workers must be >= 1, got {max_workers}")
        if max_pending is not None and max_pending < 1:
            raise ServeError(f"max_pending must be >= 1, got {max_pending}")
        self.runner = runner if runner is not None else BatchRunner()
        self.max_pending = max_pending
        self.stats = ServeStats()
        self._pool = ThreadPoolExecutor(max_workers=max_workers,
                                        thread_name_prefix="repro-serve")
        self._registry_lock = threading.Lock()
        self._inflight: Dict[object, Future] = {}
        self._capacity = (threading.BoundedSemaphore(max_pending)
                          if max_pending is not None else None)
        self._closed = False
        #: id(graph) -> (weakref to the graph, its serialisation lock).  The
        #: weakref detects id() reuse after a graph is collected (an aliased
        #: lock would serialise unrelated graphs — or worse, hand a recycled
        #: id a lock some thread holds), and dead entries are pruned so a
        #: long-lived queue's lock map does not grow with every graph it
        #: ever served.
        self._graph_locks: Dict[int, Tuple[weakref.ref, threading.Lock]] = {}

    def _job_key(self, job: BatchJob,
                 problem: Optional[Problem] = None) -> Optional[tuple]:
        problem = get_problem(job.problem) if problem is None else problem
        # Validates the job up front (budget + param consistency), so a bad
        # job fails at submit time, not inside a worker.
        params = BatchRunner._job_params(job, problem)
        job.resolve_rounds()
        base = problem.request_key(params)
        if base is None:
            return None
        token = job.problem if isinstance(job.problem, Problem) else type(problem)
        # The label is part of the key: a shared future returns one
        # BatchResult whose stats carry one job identity, so only jobs that
        # would report identically may coalesce (differently-named duplicates
        # still share the session's result cache — the compute is not repeated,
        # only the per-job stats row is).
        return (id(job.graph), token, base, job.label())

    def _graph_lock(self, graph) -> threading.Lock:
        with self._registry_lock:
            key = id(graph)
            hit = self._graph_locks.get(key)
            if hit is not None and hit[0]() is graph:
                return hit[1]
            dead = [k for k, (ref, _) in self._graph_locks.items()
                    if ref() is None]
            for k in dead:
                del self._graph_locks[k]
            lock = threading.Lock()
            self._graph_locks[key] = (weakref.ref(graph), lock)
            return lock

    # ------------------------------------------------------------- submission
    def submit(self, job: BatchJob, *, block: bool = True) -> "Future[BatchResult]":
        """Accept one job; returns a future of its :class:`BatchResult`.

        An identical in-flight job (same graph, problem and canonicalised
        parameters) shares one future and one execution; a job whose
        parameters are unhashable is never coalesced.  With ``max_pending``
        jobs already in flight, ``block=True`` waits for capacity;
        ``block=False`` raises :class:`~repro.errors.QueueFullError` instead
        (the shape a network front-end needs: backpressure becomes a 429, not
        a stalled socket).  Every request counts against its canonical
        problem name in :attr:`ServeStats.per_problem`.
        """
        problem = get_problem(job.problem)
        key = self._job_key(job, problem)
        with self._registry_lock:
            if self._closed:
                raise ServeError(f"{type(self).__name__} is closed")
            if key is not None:
                hit = self._inflight.get(key)
                if hit is not None:
                    self.stats.deduplicated += 1
                    self.stats.count_problem(problem.name)
                    return hit
        if self._capacity is not None:
            # Backpressure: block until capacity frees, or refuse outright.
            if not self._capacity.acquire(blocking=block):
                raise QueueFullError(
                    f"{type(self).__name__} is at max_pending={self.max_pending} "
                    f"jobs queued-or-running")
        holding_permit = self._capacity is not None
        try:
            with self._registry_lock:
                if self._closed:
                    raise ServeError(f"{type(self).__name__} is closed")
                if key is not None:
                    # A racing submitter registered the same request while we
                    # waited for capacity: join its future, return the permit.
                    hit = self._inflight.get(key)
                    if hit is not None:
                        self.stats.deduplicated += 1
                        self.stats.count_problem(problem.name)
                        return hit
                # When tracing, the submitter's span context and submit time
                # ride along so the worker can record the queue wait and
                # parent its execution span across the pool boundary.
                obs_ctx = None
                if obs_trace.active() is not None:
                    obs_ctx = (obs_trace.current_context(), time.time(),
                               time.perf_counter())
                future = self._pool.submit(self._run_one, obs_ctx, job)
                holding_permit = False   # the running job now owns the permit
                if key is not None:
                    self._inflight[key] = future
                self.stats.submitted += 1
                self.stats.queue_depth += 1
                self.stats.count_problem(problem.name)
        finally:
            if holding_permit:
                self._capacity.release()
        if key is not None:
            future.add_done_callback(lambda _done, key=key: self._forget(key))
        return future

    def _run_one(self, obs_ctx, job: BatchJob) -> BatchResult:
        execute_span = obs_trace.NOOP_SPAN
        tracer = obs_trace.active()
        if tracer is not None and obs_ctx is not None:
            parent, submit_unix, submit_perf = obs_ctx
            tracer.record_span(
                "serve.queue_wait", start_unix=submit_unix,
                duration=time.perf_counter() - submit_perf, parent=parent)
            execute_span = obs_trace.span("serve.execute", parent=parent)
        try:
            with execute_span, self._graph_lock(job.graph):
                return self.runner.run_job(job)
        finally:
            with self._registry_lock:
                self.stats.completed += 1
                self.stats.queue_depth -= 1
            if self._capacity is not None:
                self._capacity.release()

    def _forget(self, key) -> None:
        with self._registry_lock:
            self._inflight.pop(key, None)

    def map(self, jobs: Iterable[BatchJob]) -> Iterator[BatchResult]:
        """Stream results in submission order with bounded in-flight jobs.

        With ``max_pending`` set, at most that many jobs are in flight while
        the input iterator is consumed lazily, so pending results stay
        bounded for arbitrarily long job streams (per-graph session state is
        bounded by the runner's ``max_sessions`` — see the module docstring).
        Exceptions from a job surface at its position in the stream.
        """
        pending: deque = deque()
        for job in jobs:
            pending.append(self.submit(job))
            while pending and pending[0].done():
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()

    def run(self, jobs: Iterable[BatchJob]) -> List[BatchResult]:
        """Submit every job and collect the results (submission order)."""
        return list(self.map(jobs))

    # -------------------------------------------------------------- lifecycle
    @property
    def in_flight(self) -> int:
        """Number of deduplicatable requests currently queued or running."""
        with self._registry_lock:
            return len(self._inflight)

    def close(self, wait: bool = True) -> None:
        """Stop accepting submissions; optionally wait for running jobs."""
        with self._registry_lock:
            self._closed = True
        self._pool.shutdown(wait=wait)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=exc_type is None)
