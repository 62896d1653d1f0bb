"""`repro.serve.http` — the network front-end over ``JobQueue`` + ``ArtifactStore``.

Everything below PR 4's serving layer is in-process only; this module puts a
real socket in front of it, with nothing beyond the standard library
(:mod:`http.server` / :mod:`socketserver`).  One
:class:`ReproHTTPServer` wraps one :class:`~repro.serve.JobQueue` (shared
:class:`~repro.engine.batch.BatchRunner`, one session per graph, in-flight
dedup via :meth:`~repro.problems.Problem.request_key`) and, optionally, one
persistent :class:`~repro.store.ArtifactStore` — so N remote clients get the
exact semantics the in-process tests pin: concurrent mixed requests are
bit-identical to sequential ``Session.solve``, identical in-flight requests
coalesce onto one execution, restarts resume from the store.

Resources are content fingerprints
----------------------------------
Graphs are addressed by :func:`~repro.graph.csr.csr_fingerprint` — uploading
the same bytes twice registers one graph, and a store-backed server resumes
that graph's artifacts across restarts::

    PUT  /graphs                      upload (edge-list text or JSON) or name a
                                      bundled dataset; -> {"fingerprint", ...}
    GET  /graphs                      registered graphs
    GET  /graphs/<fp>                 one graph's descriptor
    POST /graphs/<fp>/jobs            submit one problem request -> job id
    GET  /jobs/<id>                   poll; ?wait=<s> long-polls,
                                      ?include=result attaches the full result
    GET  /jobs                        every issued job (summaries)
    POST /graphs/<fp>/batch           submit a request list, stream NDJSON
                                      results back in submission order
    GET  /metrics                     ServeStats + session/store counters;
                                      ?format=prometheus renders text
                                      exposition from the MetricsRegistry
    GET  /health                      liveness probe

Observability
-------------
Every request runs inside an ``http.request`` span (:mod:`repro.obs` —
a no-op unless tracing is enabled) and, when the server was built with
``access_log=``, appends one NDJSON line per request (method, path, status,
tenant, duration; job id + dedup flag on submissions).  Default stderr
request logging stays suppressed either way.  Job records keep a by-status
count updated on completion (no full scan under the state lock) and finished
records are garbage-collected beyond ``max_finished_jobs`` — polling an
evicted id answers 404 like a never-issued one.  A finished record keeps
its stats row and a copy of the result without the surviving numbers, so a
retained record pins no trajectory.

Bounded sessions
----------------
A store-backed server's runner keeps at most :data:`MAX_SESSIONS` sessions
open, least recently used first out.  A job on an evicted version re-opens
its session from the store (a disk hit, not a cold run); a re-opened delta
version is the same version, so replaying a delta POST on it still answers
``created: false`` and its first job at a new λ still re-solves only the
frontier.  Without a store a re-open would be a cold solve, so a store-less
server keeps every session.  ``/metrics`` reports the open sessions and the
evictions; session counters keep counting what evicted sessions did.

Admission control
-----------------
Two client-visible 429 conditions, both structured
(:mod:`repro.errors` wire protocol, ``{"error": {"code", "message"}}``):

* **per-tenant token-bucket quotas** (``quota_rate`` requests/s refill,
  ``quota_burst`` bucket size, tenant = ``X-Repro-Tenant`` header) →
  ``429`` with code ``quota-exceeded`` and a ``Retry-After`` header;
* **queue backpressure** — job submission uses the non-blocking path, so when
  ``max_pending`` executions are in flight the server answers ``429`` with
  code ``queue-full`` instead of stalling the socket.

Request bodies are read to exactly their ``Content-Length``.  A declared
length above :data:`MAX_BODY_BYTES` answers ``413`` with code
``payload-too-large`` and closes the connection; a body that ends early,
or a length that is not a non-negative integer, answers ``400``
(``bad-request``).  None of these registers a graph or submits a job.

Lifecycle
---------
:meth:`ReproHTTPServer.start` serves on a background thread;
:meth:`~ReproHTTPServer.drain` is the graceful shutdown the CLI binds to
SIGTERM: stop accepting connections, finish the in-flight handler threads and
queued jobs (sessions persist their artifacts per request, so a drained
store holds no half-written state — atomic tmp+rename writes never leave
``.tmp`` files behind), then close the worker pool.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field, fields, is_dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro._version import __version__
from repro.engine.batch import BatchJob, BatchResult, BatchRunner
from repro.engine.kernels import check_frontier_fraction
from repro.errors import (
    AlgorithmError,
    GraphError,
    PayloadTooLargeError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ServeError,
    StoreError,
    UnknownResourceError,
    WireFormatError,
)
from repro.graph.datasets import list_datasets, load_dataset
from repro.graph.delta import GraphDelta, chain_fingerprint
from repro.graph.graph import Graph
from repro.graph.io import from_dict as graph_from_dict
from repro.graph.io import parse_edge_list
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, family, gauge_family, get_registry
from repro.serve.queue import JobQueue, ServeStats
from repro.session import SessionStats
from repro.store import ArtifactStore

#: Longest long-poll a single ``?wait=`` request may hold a handler thread
#: (longer waits re-poll; an unbounded wait would stall graceful drain).
MAX_WAIT_SECONDS = 30.0

#: Largest request body the server reads (256 MiB).  A larger declared
#: ``Content-Length`` answers 413 before a byte of the body is read; a
#: 200k-node Barabási–Albert upload is about 17 MB of JSON.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Sessions a store-backed server's runner keeps open (least recently used
#: evicted first).  Each holds a graph version's CSR view, trajectories and
#: cached answers; an evicted one re-opens from the store on its next job.
MAX_SESSIONS = 32

#: BatchJob fields a wire submission may set (everything else is 400), with
#: the JSON type each must carry.  A bool is never a number here, and the
#: budget fields take null for "not given".
_NUMBER = (int, float)
_JOB_FIELDS = {
    "problem": ("a string", (str,)),
    "name": ("a string", (str,)),
    "epsilon": ("a number", _NUMBER + (type(None),)),
    "gamma": ("a number", _NUMBER + (type(None),)),
    "rounds": ("an integer", (int, type(None))),
    "lam": ("a number", _NUMBER),
    "tie_break": ("a string", (str,)),
    "track_kept": ("a boolean", (bool,)),
}

#: HTTP status per error class; resolved along the exception's MRO so
#: subclasses inherit their parent's mapping unless they claim their own.
_STATUS_BY_ERROR = {
    PayloadTooLargeError: 413,
    QuotaExceededError: 429,
    QueueFullError: 429,     # a ServeError, but backpressure is not a 503
    UnknownResourceError: 404,
    WireFormatError: 400,
    AlgorithmError: 400,
    GraphError: 400,
    StoreError: 400,
    ServeError: 503,
    ReproError: 500,
}


def _status_for(exc: ReproError) -> int:
    for cls in type(exc).__mro__:
        if cls in _STATUS_BY_ERROR:
            return _STATUS_BY_ERROR[cls]
    return 500  # pragma: no cover - ReproError row always matches


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/s refill, ``burst`` capacity.

    ``try_acquire`` returns ``0.0`` when a token was taken, else the seconds
    until enough tokens will have refilled — the ``Retry-After`` a transport
    should surface.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ServeError(f"token bucket needs positive rate/burst, "
                             f"got rate={rate}, burst={burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> float:
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self.burst,
                               self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate


@dataclass
class _GraphRecord:
    """One registered graph (the server always serves the *first* upload's
    object, so every job on a fingerprint goes to the runner's one open
    session on it, re-opened if the session bound evicted it)."""

    fingerprint: str
    graph: Graph
    source: str                        #: "dataset:<name>" | "edge-list" | "json" | "delta"
    uploads: int = 1                   #: times this content was (re-)uploaded
    parent: Optional[str] = None       #: parent fingerprint for delta-derived versions
    content_fingerprint: Optional[str] = None  #: content address when the
                                       #: resource address is a chain fingerprint


@dataclass
class _JobRecord:
    """One issued job id and the future that answers it.

    Once the job is done, ``future`` is swapped for a completed one holding
    the result without its surviving numbers (:func:`_retained`).
    """

    id: str
    fingerprint: str
    problem: str
    tenant: str
    label: str
    future: "Future[BatchResult]"
    submitted_unix: float = field(default_factory=time.time)
    status: str = "pending"            #: "pending" | "done" | "error"


def _retained(batch: BatchResult) -> "Future[BatchResult]":
    """A completed future of ``batch`` with its stats row and a shallow copy
    of its problem result, both without the surviving numbers (whose
    trajectory is a view of the session's), so a retained job record pins
    no trajectory."""
    result = batch.result
    if is_dataclass(result) and "surviving" in {f.name for f in fields(result)}:
        result = replace(result, surviving=None)
    retained: "Future[BatchResult]" = Future()
    retained.set_result(replace(batch, surviving=None, result=result))
    return retained


class ReproHTTPServer(ThreadingHTTPServer):
    """A threaded HTTP/JSON server over one :class:`JobQueue` + store.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port`).
    engine, store, workers, max_pending, engine_options:
        Forwarded to the owned :class:`~repro.serve.JobQueue` /
        :class:`~repro.engine.batch.BatchRunner` (``store`` also registers
        the artifact store the metrics report on).  With a store, the
        runner keeps at most :data:`MAX_SESSIONS` sessions open.
    quota_rate, quota_burst:
        Per-tenant token bucket (requests/s refill and bucket size); ``None``
        disables quotas.  Tenants are named by the ``X-Repro-Tenant`` header
        (missing header → the ``"default"`` tenant).
    access_log:
        ``None`` (default, no access logging), a path to append NDJSON
        access-log lines to, or an open text stream (not closed on drain).
    max_finished_jobs:
        Retain at most this many finished (done/error) job records; the
        oldest finished records beyond the cap are evicted and answer 404.
        ``None`` disables the bound (pre-PR behaviour).
    """

    daemon_threads = False     #: drain joins handler threads: finish, not kill
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 engine="vectorized", store=None, workers: int = 2,
                 max_pending: Optional[int] = None,
                 quota_rate: Optional[float] = None,
                 quota_burst: Optional[float] = None,
                 access_log=None,
                 max_finished_jobs: Optional[int] = 1024,
                 **engine_options) -> None:
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(store) if store is not None
            and not isinstance(store, ArtifactStore) else store)
        runner = BatchRunner(engine, store=self.store,
                             max_sessions=(None if self.store is None
                                           else MAX_SESSIONS),
                             **engine_options)
        self.queue = JobQueue(runner, max_workers=workers,
                              max_pending=max_pending)
        self.quota_rate = quota_rate
        self.quota_burst = (quota_burst if quota_burst is not None
                            else max(1.0, float(quota_rate or 0.0)))
        if max_finished_jobs is not None and max_finished_jobs < 0:
            raise ServeError(f"max_finished_jobs must be >= 0 or None, "
                             f"got {max_finished_jobs}")
        self.max_finished_jobs = max_finished_jobs
        self._buckets: Dict[str, TokenBucket] = {}
        self._graphs: Dict[str, _GraphRecord] = {}
        self._jobs: Dict[str, _JobRecord] = {}   # insertion-ordered (dict)
        self._by_future: Dict[Future, _JobRecord] = {}
        self._jobs_by_status: Dict[str, int] = {"pending": 0, "done": 0,
                                                "error": 0}
        self._evicted_jobs = 0
        self._job_counter = 0
        self._rejected_quota = 0
        self._rejected_backpressure = 0
        self._state_lock = threading.Lock()
        self._draining = False
        self._serve_thread: Optional[threading.Thread] = None
        self._access_lock = threading.Lock()
        self._access_owned = False
        if access_log is None:
            self._access_file = None
        elif hasattr(access_log, "write"):
            self._access_file = access_log
        else:
            self._access_file = open(access_log, "a", encoding="utf-8")
            self._access_owned = True
        self.registry = MetricsRegistry()
        self.registry.register_collector(self._collect_families)
        # Per-tenant label dimension (the aggregate spellings above stay for
        # dashboards that predate it): who submits, who gets throttled.
        self._jobs_submitted_by_tenant = self.registry.counter(
            "repro_http_jobs_submitted_total",
            "Job submissions admitted, by tenant", labelnames=("tenant",))
        self._rejected_by_tenant = self.registry.counter(
            "repro_http_tenant_rejected_total",
            "Submissions refused by admission control, by tenant and reason",
            labelnames=("tenant", "reason"))
        self._deltas_by_tenant = self.registry.counter(
            "repro_http_deltas_applied_total",
            "Graph deltas applied, by tenant", labelnames=("tenant",))
        self._applied_deltas = 0
        super().__init__((host, port), _Handler)

    # ---------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The bound TCP port (useful after binding port 0)."""
        return self.server_address[1]

    @property
    def host(self) -> str:
        return self.server_address[0]

    def start(self) -> "ReproHTTPServer":
        """Serve on a background thread (returns immediately)."""
        if self._serve_thread is not None:
            raise ServeError("server is already running")
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True)
        self._serve_thread.start()
        return self

    def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight, close the queue.

        New submissions observed by still-running handler threads are refused
        with 503 (``serve`` code) the moment draining begins; the accept loop
        stops; handler threads are joined (``block_on_close``), which waits
        out their long-polls and streams; finally the worker pool drains its
        queued jobs.  Idempotent.
        """
        with self._state_lock:
            if self._draining:
                return
            self._draining = True
        self.shutdown()            # stop serve_forever (no new connections)
        self.server_close()        # join in-flight handler threads
        self.queue.close(wait=True)  # finish queued jobs, release the pool
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10)
            self._serve_thread = None
        if self._access_owned and self._access_file is not None:
            with self._access_lock:
                self._access_file.close()
                self._access_file = None

    def __enter__(self) -> "ReproHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    # ----------------------------------------------------------------- tenants
    def _charge_tenant(self, tenant: str, tokens: float = 1.0) -> None:
        if self.quota_rate is None:
            return
        with self._state_lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.quota_rate, self.quota_burst)
        retry_after = bucket.try_acquire(tokens)
        if retry_after > 0.0:
            with self._state_lock:
                self._rejected_quota += 1
            self._rejected_by_tenant.inc(tenant=tenant, reason="quota")
            raise QuotaExceededError(
                f"tenant {tenant!r} exceeded its request quota "
                f"({self.quota_rate:g}/s, burst {self.quota_burst:g})",
                retry_after=retry_after)

    # ------------------------------------------------------------------ graphs
    def register_graph(self, graph: Graph, *, source: str) -> Tuple[str, bool]:
        """Register ``graph`` under its content fingerprint.

        Returns ``(fingerprint, created)``; re-uploading identical content
        keeps serving the first object (at most one open session per graph
        in the shared runner) and merely bumps its upload counter.  The
        fingerprint is read from a runner session on ``graph``: a new
        graph's session is adopted by the runner, so its jobs and deltas
        reuse the CSR view built here, and a duplicate's session is
        dropped.
        """
        if graph.num_nodes == 0:
            raise GraphError("an uploaded graph needs at least one node")
        runner = self.queue.runner
        session = runner.new_session(graph)
        fingerprint = session.fingerprint
        with self._state_lock:
            hit = self._graphs.get(fingerprint)
            if hit is not None:
                hit.uploads += 1
                return fingerprint, False
            self._graphs[fingerprint] = _GraphRecord(
                fingerprint=fingerprint, graph=graph, source=source)
            runner.adopt_session(session)
            return fingerprint, True

    def graph_record(self, fingerprint: str) -> _GraphRecord:
        with self._state_lock:
            hit = self._graphs.get(fingerprint)
        if hit is None:
            raise UnknownResourceError(
                f"no graph registered under fingerprint {fingerprint!r} "
                f"(PUT /graphs first)")
        return hit

    def _graph_from_payload(self, payload: dict) -> Tuple[Graph, str]:
        if "dataset" in payload:
            name = payload["dataset"]
            if not isinstance(name, str) or name not in list_datasets():
                raise WireFormatError(
                    f"unknown dataset {name!r}; expected one of "
                    f"{', '.join(list_datasets())}")
            weighted = bool(payload.get("weighted", False))
            return load_dataset(name, weighted=weighted), f"dataset:{name}"
        if payload.get("format") == "repro-graph-v1":
            return graph_from_dict(payload), "json"
        if "edge_list" in payload:
            if not isinstance(payload["edge_list"], str):
                raise WireFormatError("edge_list must be a string")
            return parse_edge_list(payload["edge_list"]), "edge-list"
        raise WireFormatError(
            "graph upload must carry one of: {'dataset': name}, "
            "{'edge_list': text}, or a repro-graph-v1 document")

    # ------------------------------------------------------------------ deltas
    def apply_delta(self, fingerprint: str, payload: dict, *,
                    tenant: str = "default") -> dict:
        """Apply one :class:`~repro.graph.GraphDelta` to a registered graph.

        The parent may itself be delta-derived (resources are addressed by
        chain fingerprint), so versions chain.  The child session is minted
        by :meth:`repro.session.Session.apply_delta` — carrying the parent
        link, lineage record and frontier state — and adopted into the shared
        runner so every later job on the child graph goes through the
        incremental path.  Deriving a version that is already registered
        (same chain fingerprint) is idempotent: the existing record answers
        with ``created=False``, and the delta is not applied again (its key
        is the chain fingerprint the session would mint, computed from the
        parent's lineage address and the delta alone).
        """
        with self._state_lock:
            if self._draining:
                raise ServeError("server is draining; not accepting deltas")
        record = self.graph_record(fingerprint)
        self._charge_tenant(tenant)
        if not isinstance(payload, dict):
            raise WireFormatError("delta request must be a JSON object")
        unknown = sorted(set(payload) - {"delta", "max_frontier_fraction"})
        if unknown:
            raise WireFormatError(
                f"unknown delta field(s) {', '.join(map(repr, unknown))}; "
                f"allowed: 'delta', 'max_frontier_fraction'")
        if "delta" not in payload:
            raise WireFormatError("delta request must carry a 'delta' document")
        delta = GraphDelta.from_dict(payload["delta"])
        fraction = payload.get("max_frontier_fraction", 0.25)
        if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
            raise WireFormatError("max_frontier_fraction must be a number")
        fraction = check_frontier_fraction(float(fraction))
        parent_session = self.queue.runner.session(record.graph)
        child_fp = chain_fingerprint(parent_session.chain_fingerprint, delta)
        with self._state_lock:
            hit = self._graphs.get(child_fp)
            if hit is not None:
                hit.uploads += 1
        created = False
        if hit is None:
            child = parent_session.apply_delta(delta,
                                               max_frontier_fraction=fraction)
            with self._state_lock:
                # Two concurrent first POSTs both apply; one registers.
                hit = self._graphs.get(child_fp)
                created = hit is None
                if created:
                    hit = self._graphs[child_fp] = _GraphRecord(
                        fingerprint=child_fp, graph=child.graph,
                        source="delta", parent=fingerprint,
                        content_fingerprint=child.fingerprint)
                    self._applied_deltas += 1
                else:
                    hit.uploads += 1
            if created:
                self.queue.runner.adopt_session(child)
        self._deltas_by_tenant.inc(tenant=tenant)
        return {**self._graph_doc(hit), "delta": delta.describe(),
                "operations": delta.num_operations, "created": created,
                "tenant": tenant}

    # -------------------------------------------------------------------- jobs
    def _build_job(self, graph: Graph, payload: dict) -> BatchJob:
        if not isinstance(payload, dict):
            raise WireFormatError(f"job request must be an object, "
                                  f"got {type(payload).__name__}")
        unknown = sorted(set(payload) - set(_JOB_FIELDS))
        if unknown:
            raise WireFormatError(
                f"unknown job field(s) {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(_JOB_FIELDS)}")
        for key, value in payload.items():
            expected, types = _JOB_FIELDS[key]
            if not isinstance(value, types) or (
                    isinstance(value, bool) and bool not in types):
                raise WireFormatError(f"job field {key!r} must be {expected}, "
                                      f"got {value!r}")
        return BatchJob(graph=graph, **payload)

    def submit_job(self, fingerprint: str, payload: dict, *,
                   tenant: str = "default") -> dict:
        """Admit one wire submission; returns the job's wire document.

        Order of admission control: quota (cheapest, per tenant), then the
        queue's own validation + non-blocking backpressure.  The returned
        document carries ``deduplicated=True`` when the submission coalesced
        onto an already-issued job id.
        """
        with self._state_lock:
            if self._draining:
                raise ServeError("server is draining; not accepting jobs")
        record_graph = self.graph_record(fingerprint)
        self._charge_tenant(tenant)
        job = self._build_job(record_graph.graph, payload)
        try:
            future = self.queue.submit(job, block=False)
        except QueueFullError:
            with self._state_lock:
                self._rejected_backpressure += 1
            self._rejected_by_tenant.inc(tenant=tenant, reason="backpressure")
            raise
        self._jobs_submitted_by_tenant.inc(tenant=tenant)
        record, created = self._record_job(future, fingerprint, job, tenant)
        return {**self.job_document(record), "deduplicated": not created}

    def _record_job(self, future: Future, fingerprint: str, job: BatchJob,
                    tenant: str) -> Tuple[_JobRecord, bool]:
        """``(record, created)``: the job record already issued for
        ``future`` (the submission coalesced onto it), else a new pending
        one, looked up and registered under ``_state_lock``."""
        with self._state_lock:
            hit = self._by_future.get(future)
            if hit is not None:
                return hit, False
            self._job_counter += 1
            record = _JobRecord(id=f"j{self._job_counter:06d}",
                                fingerprint=fingerprint,
                                problem=job.problem_name(), tenant=tenant,
                                label=job.label(), future=future)
            self._jobs[record.id] = record
            self._by_future[future] = record
            self._jobs_by_status["pending"] += 1
        # Once done, the future can never coalesce again (the queue forgets
        # it), so drop the reverse mapping and move the by-status counter;
        # the job record stays pollable until retention evicts it.  Added
        # outside the lock: a done future runs the callback synchronously,
        # and _job_finished takes _state_lock.
        future.add_done_callback(self._job_finished)
        return record, True

    def _job_finished(self, future: Future) -> None:
        """Done-callback: settle the record's status and bound retention.

        Keeping ``_jobs_by_status`` updated here is what lets ``/metrics``
        answer without walking every job record under ``_state_lock``.
        """
        with self._state_lock:
            record = self._by_future.pop(future, None)
            if record is None or record.status != "pending":
                return
            if future.exception() is not None:
                record.status = "error"
            else:
                record.status = "done"
                record.future = _retained(future.result())
            self._jobs_by_status["pending"] -= 1
            self._jobs_by_status[record.status] += 1
            self._evict_finished_locked()

    def _evict_finished_locked(self) -> None:
        """Drop the oldest finished records beyond ``max_finished_jobs``."""
        if self.max_finished_jobs is None:
            return
        finished = (self._jobs_by_status["done"]
                    + self._jobs_by_status["error"])
        if finished <= self.max_finished_jobs:
            return
        for job_id in [record.id for record in self._jobs.values()
                       if record.status != "pending"]:
            if finished <= self.max_finished_jobs:
                break
            record = self._jobs.pop(job_id)
            self._jobs_by_status[record.status] -= 1
            self._evicted_jobs += 1
            finished -= 1

    def job_record(self, job_id: str) -> _JobRecord:
        with self._state_lock:
            hit = self._jobs.get(job_id)
        if hit is None:
            raise UnknownResourceError(f"no job {job_id!r} was ever issued")
        return hit

    def job_document(self, record: _JobRecord, *,
                     include_result: bool = False) -> dict:
        """The wire form of one job: status plus (on completion) the stats
        row, the scalar objective, and — only when asked — the full
        ``result.to_dict()`` payload (per-node values are large)."""
        doc = {"job": record.id, "fingerprint": record.fingerprint,
               "problem": record.problem, "label": record.label,
               "tenant": record.tenant}
        future = record.future
        if not future.done():
            doc["status"] = "pending"
            return doc
        exc = future.exception()
        if exc is not None:
            doc["status"] = "error"
            doc["error"] = (exc.to_dict() if isinstance(exc, ReproError)
                            else {"code": "error", "message": str(exc)})
            return doc
        batch_result: BatchResult = future.result()
        stats = batch_result.stats
        doc["status"] = "done"
        doc["stats"] = {"engine": stats.engine, "rounds": stats.rounds,
                        "seconds": stats.seconds,
                        "converged_round": stats.converged_round,
                        "num_nodes": stats.num_nodes,
                        "num_edges": stats.num_edges}
        doc["objective"] = stats.objective
        if include_result:
            doc["result"] = batch_result.result.to_dict()
        return doc

    def wait_job(self, record: _JobRecord, wait: float) -> None:
        """Block up to ``wait`` seconds (capped) for the job to finish."""
        try:
            record.future.exception(timeout=min(max(0.0, wait),
                                                MAX_WAIT_SECONDS))
        except FutureTimeoutError:
            pass  # still pending: the document will say so

    def stream_batch(self, fingerprint: str, payloads: List[dict], *,
                     tenant: str = "default",
                     include_result: bool = False) -> Iterable[dict]:
        """Submit ``payloads`` and yield their job documents in submit order.

        The whole batch is charged against the tenant's quota up front (one
        token per request — a batch is not a quota loophole) and submitted
        through the *blocking* path: ``max_pending`` then throttles how far
        submission runs ahead, exactly like :meth:`JobQueue.map`, while
        results stream back in submission order as they complete.
        """
        with self._state_lock:
            if self._draining:
                raise ServeError("server is draining; not accepting jobs")
        if not payloads:
            raise WireFormatError("batch needs a non-empty 'requests' list")
        record_graph = self.graph_record(fingerprint)
        self._charge_tenant(tenant, tokens=float(len(payloads)))
        jobs = [self._build_job(record_graph.graph, payload)
                for payload in payloads]
        for job in jobs:
            # The queue's own submit-time validation, run on every request
            # before the stream's 200 goes out: a bad one answers 4xx and no
            # job of the batch is submitted.
            self.queue._job_key(job)
        self._jobs_submitted_by_tenant.inc(float(len(payloads)), tenant=tenant)

        def documents():
            pending: List[_JobRecord] = []
            for job in jobs:
                future = self.queue.submit(job, block=True)
                pending.append(
                    self._record_job(future, fingerprint, job, tenant)[0])
                while pending and pending[0].future.done():
                    yield self.job_document(pending.pop(0),
                                            include_result=include_result)
            for record in pending:
                record.future.exception()  # wait without raising
                yield self.job_document(record, include_result=include_result)

        return documents()

    # ----------------------------------------------------------------- metrics
    def metrics(self) -> dict:
        """The ``/metrics`` document: ServeStats + session + store counters.

        One snapshot that both ``/metrics`` formats render (the Prometheus
        text through :meth:`_collect_families`).  Job counts come from the
        by-status counters the done-callbacks maintain — O(1) under the
        lock, not a scan of every record ever issued.
        """
        with self._state_lock:
            total_jobs = len(self._jobs)
            by_status = dict(self._jobs_by_status)
            server = {"version": __version__, "graphs": len(self._graphs),
                      "draining": self._draining,
                      "applied_deltas": self._applied_deltas,
                      "rejected_quota": self._rejected_quota,
                      "rejected_backpressure": self._rejected_backpressure,
                      "evicted_jobs": self._evicted_jobs}
        runner = self.queue.runner
        server.update(sessions=runner.cached_graphs,
                      evicted_sessions=runner.evicted_sessions,
                      quota_rate=self.quota_rate,
                      max_pending=self.queue.max_pending)
        document = {
            "server": server,
            "serve": self.queue.stats.to_dict(),
            "session": runner.aggregate_stats(),
            "jobs": {"total": total_jobs, **by_status},
            "store": None,
        }
        if self.store is not None:
            info = self.store.info()
            document["store"] = {"root": info["root"], "files": info["files"],
                                 "bytes": info["bytes"],
                                 "graphs": len(info["graphs"])}
        return document

    def _collect_families(self) -> list:
        """Scrape-time collector: the :meth:`metrics` snapshot as
        server/serve/session/store families."""
        document = self.metrics()
        server, jobs = document["server"], dict(document["jobs"])
        total_jobs = jobs.pop("total")
        families = [
            gauge_family("repro_http_graphs", "Registered graphs",
                         float(server["graphs"])),
            gauge_family("repro_http_draining",
                         "1 while the server drains, else 0",
                         1.0 if server["draining"] else 0.0),
            gauge_family("repro_http_jobs", "Retained job records",
                         float(total_jobs)),
            family("repro_http_jobs_by_status", "gauge",
                   "Retained job records by status",
                   [("", {"status": status}, float(count))
                    for status, count in sorted(jobs.items())]),
            family("repro_http_jobs_evicted_total", "counter",
                   "Finished job records dropped by bounded retention",
                   [("", {}, float(server["evicted_jobs"]))]),
            family("repro_http_rejected_total", "counter",
                   "Submissions refused by admission control",
                   [("", {"reason": "backpressure"},
                     float(server["rejected_backpressure"])),
                    ("", {"reason": "quota"},
                     float(server["rejected_quota"]))]),
            gauge_family("repro_runner_sessions", "Open runner sessions",
                         float(server["sessions"])),
            family("repro_runner_sessions_evicted_total", "counter",
                   "Runner sessions evicted by the session bound",
                   [("", {}, float(server["evicted_sessions"]))]),
        ]
        families.extend(ServeStats.families(document["serve"]))
        families.extend(SessionStats.families(
            document["session"], help_prefix="Aggregated session counter"))
        store = document["store"]
        if store is not None:
            families.append(gauge_family(
                "repro_store_files", "Files in the artifact store",
                float(store["files"])))
            families.append(gauge_family(
                "repro_store_bytes", "Bytes in the artifact store",
                float(store["bytes"])))
            families.append(gauge_family(
                "repro_store_graphs", "Graphs with artifacts in the store",
                float(store["graphs"])))
        return families

    def render_prometheus(self) -> str:
        """Text exposition: this server's registry + the process-wide one
        (always-on kernel-round and solve-latency histograms)."""
        return self.registry.render(get_registry())

    # -------------------------------------------------------------- access log
    def log_access(self, entry: dict) -> None:
        """Append one NDJSON access-log line; a broken stream never fails
        the request being logged (best effort by design)."""
        with self._access_lock:
            stream = self._access_file
            if stream is None:
                return
            try:
                stream.write(json.dumps(entry) + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass

    def graphs_document(self) -> dict:
        with self._state_lock:
            records = list(self._graphs.values())
        return {"graphs": [self._graph_doc(record) for record in records]}

    @staticmethod
    def _graph_doc(record: _GraphRecord) -> dict:
        doc = {"fingerprint": record.fingerprint,
               "n": record.graph.num_nodes, "m": record.graph.num_edges,
               "source": record.source, "uploads": record.uploads}
        if record.parent is not None:
            doc["parent"] = record.parent
        if record.content_fingerprint is not None:
            doc["content_fingerprint"] = record.content_fingerprint
        return doc

    def jobs_document(self) -> dict:
        with self._state_lock:
            records = list(self._jobs.values())
        return {"jobs": [self.job_document(record) for record in records]}


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the :class:`ReproHTTPServer` methods."""

    server: ReproHTTPServer
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"
    timeout = 60          #: a stalled peer cannot pin a handler thread forever
    #: TCP_NODELAY: the headers and the body go out as two ``send()`` calls,
    #: and with Nagle's algorithm on the body waits for the client's delayed
    #: ACK, which adds ~40 ms to every response.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ plumbing
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Suppress stdlib stderr logging; structured access logging is the
        opt-in NDJSON stream (``ReproHTTPServer(access_log=...)``) written
        from :meth:`_dispatch` — never stderr noise by default."""

    def _send_json(self, status: int, payload: dict,
                   headers: Tuple[Tuple[str, str], ...] = ()) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_payload(self, exc: ReproError) -> None:
        headers: Tuple[Tuple[str, str], ...] = ()
        if isinstance(exc, QuotaExceededError):
            headers = (("Retry-After", f"{max(0.0, exc.retry_after):.3f}"),)
        elif isinstance(exc, PayloadTooLargeError):
            # The unread body would be parsed as the next request.
            headers = (("Connection", "close"),)
        self._send_json(_status_for(exc), {"error": exc.to_dict()}, headers)

    def _read_body(self) -> bytes:
        """The request body: exactly ``Content-Length`` bytes, or an error.

        A declared length above :data:`MAX_BODY_BYTES` raises
        :class:`~repro.errors.PayloadTooLargeError` before anything is read;
        a body that ends before its declared length, or a length that is not
        a non-negative integer, raises :class:`~repro.errors.WireFormatError`,
        so a truncated upload is never parsed.
        """
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise WireFormatError("bad Content-Length header")
        if length > MAX_BODY_BYTES:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length > 0 else b""
        if len(raw) < length:
            raise WireFormatError(f"request body ended after {len(raw)} of "
                                  f"{length} bytes")
        return raw

    def _read_json(self) -> dict:
        raw = self._read_body()
        if not raw:
            raise WireFormatError("request needs a JSON body")
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WireFormatError(f"request body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise WireFormatError("request body must be a JSON object")
        return payload

    def _tenant(self) -> str:
        return self.headers.get("X-Repro-Tenant", "default").strip() or "default"

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        self._status = 0          # 0 = connection dropped before an answer
        self._log_extra: Dict[str, object] = {}
        try:
            with obs_trace.span("http.request", method=method,
                                path=self.path) as sp:
                try:
                    parts = urlsplit(self.path)
                    segments = [unquote(s) for s in parts.path.split("/") if s]
                    query = parse_qs(parts.query)
                    route = getattr(self, f"_route_{method.lower()}")
                    route(segments, query)
                except ReproError as exc:
                    self._send_error_payload(exc)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the client went away; nothing to answer
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    self._send_json(
                        500, {"error": {"code": "error",
                                        "message": f"{type(exc).__name__}: "
                                                   f"{exc}"}})
                sp.set(status=self._status)
        finally:
            if self.server._access_file is not None:
                self.server.log_access(
                    {"ts": time.time(), "method": method, "path": self.path,
                     "status": self._status, "tenant": self._tenant(),
                     "duration_ms": round(
                         (time.perf_counter() - start) * 1000.0, 3),
                     **self._log_extra})

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        self._dispatch("GET")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    # -------------------------------------------------------------------- routes
    def _route_get(self, segments: List[str], query: dict) -> None:
        if segments == ["health"]:
            self._send_json(200, {"status": "ok", "version": __version__})
        elif segments == ["metrics"]:
            fmt = query.get("format", ["json"])[0]
            if fmt == "prometheus":
                self._send_text(200, self.server.render_prometheus(),
                                "text/plain; version=0.0.4; charset=utf-8")
            elif fmt == "json":
                self._send_json(200, self.server.metrics())
            else:
                raise WireFormatError(f"unknown metrics format {fmt!r}; "
                                      f"expected 'json' or 'prometheus'")
        elif segments == ["graphs"]:
            self._send_json(200, self.server.graphs_document())
        elif len(segments) == 2 and segments[0] == "graphs":
            record = self.server.graph_record(segments[1])
            self._send_json(200, self.server._graph_doc(record))
        elif segments == ["jobs"]:
            self._send_json(200, self.server.jobs_document())
        elif len(segments) == 2 and segments[0] == "jobs":
            record = self.server.job_record(segments[1])
            if "wait" in query:
                try:
                    wait = float(query["wait"][0])
                except ValueError:
                    raise WireFormatError(
                        f"wait must be a number of seconds, "
                        f"got {query['wait'][0]!r}")
                self.server.wait_job(record, wait)
            include_result = query.get("include", ["summary"])[0] == "result"
            self._send_json(200, self.server.job_document(
                record, include_result=include_result))
        else:
            raise UnknownResourceError(f"no route GET {self.path!r}")

    def _route_put(self, segments: List[str], query: dict) -> None:
        if segments == ["graphs"]:
            tenant = self._tenant()
            # Quotas cover every mutating request, uploads included (reads —
            # polling, /metrics — stay free so a throttled client can still
            # collect what it already paid for).
            self.server._charge_tenant(tenant)
            content_type = (self.headers.get("Content-Type") or
                            "application/json").split(";")[0].strip()
            if content_type == "text/plain":
                text = self._read_body().decode("utf-8", errors="replace")
                graph, source = parse_edge_list(text), "edge-list"
            else:
                payload = self._read_json()
                graph, source = self.server._graph_from_payload(payload)
            fingerprint, created = self.server.register_graph(graph,
                                                              source=source)
            record = self.server.graph_record(fingerprint)
            self._send_json(201 if created else 200,
                            {**self.server._graph_doc(record),
                             "created": created, "tenant": tenant})
        else:
            raise UnknownResourceError(f"no route PUT {self.path!r}")

    def _route_post(self, segments: List[str], query: dict) -> None:
        if len(segments) == 3 and segments[0] == "graphs" \
                and segments[2] == "jobs":
            payload = self._read_json()
            document = self.server.submit_job(segments[1], payload,
                                              tenant=self._tenant())
            self._log_extra = {"job": document.get("job"),
                               "deduplicated": document.get("deduplicated",
                                                            False)}
            self._send_json(202, document)
        elif len(segments) == 3 and segments[0] == "graphs" \
                and segments[2] == "deltas":
            payload = self._read_json()
            document = self.server.apply_delta(segments[1], payload,
                                               tenant=self._tenant())
            self._log_extra = {"child": document.get("fingerprint"),
                               "created": document.get("created", False)}
            self._send_json(201 if document.get("created") else 200, document)
        elif len(segments) == 3 and segments[0] == "graphs" \
                and segments[2] == "batch":
            payload = self._read_json()
            requests = payload.get("requests")
            if not isinstance(requests, list):
                raise WireFormatError("batch body must carry a 'requests' list")
            include_result = payload.get("include") == "result"
            documents = self.server.stream_batch(
                segments[1], requests, tenant=self._tenant(),
                include_result=include_result)
            self._stream_ndjson(documents)
        elif segments == ["graphs"]:
            self._route_put(segments, query)   # POST /graphs is PUT's alias
        else:
            raise UnknownResourceError(f"no route POST {self.path!r}")

    def _stream_ndjson(self, documents: Iterable[dict]) -> None:
        """Chunked ``application/x-ndjson``: one job document per line, in
        submission order, written as each job completes."""
        self._status = 200
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            for document in documents:
                line = json.dumps(document).encode("utf-8") + b"\n"
                self.wfile.write(f"{len(line):X}\r\n".encode("ascii")
                                 + line + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up mid-stream; jobs keep running server-side
