"""Layer attribution for traced runs.

The program's own spans stop at ``session.solve`` / ``engine.run`` /
``kernel.*`` / ``store.*``, so most of a cold solve would show up as
unexplained self time.  A traced run therefore wraps the public functions of
each layer in ``repro.obs.trace`` spans, at the module attribute each caller
resolves (``repro.session.graph_to_csr`` is a different binding from
``repro.graph.csr.graph_to_csr``).  The program's files are not edited: the
wrappers are installed for the traced pass only and removed afterwards.

Every span record is then assigned to one per-layer metric by name; its *self
time* (duration minus the part of its interval covered by child spans) is
added to that metric.  The benchmark's own per-operation root span
(``bench.op``) keeps only the time no layer span covers: ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.obs import trace as obs_trace

#: The root span the benchmark opens around every timed operation.
ROOT_SPAN = "bench.op"

#: A tracer ring large enough that nothing is ever evicted (a deque with a
#: ``maxlen`` does not preallocate).
RING_SIZE = 1 << 26

#: span name -> call sites ``("module[:Class]", attribute)`` it wraps.
WRAPPERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "bench.graph.csr": (("repro.session", "graph_to_csr"),
                        ("repro.graph.csr", "graph_to_csr")),
    "bench.graph.fingerprint": (("repro.session", "csr_fingerprint"),
                                ("repro.graph.csr", "csr_fingerprint")),
    "bench.graph.delta_apply": (("repro.session", "apply_graph_delta"),),
    "bench.graph.io": (("repro.serve.client", "graph_to_dict"),),
    "bench.core.grid": (("repro.session", "grid_for_graph"),
                        ("repro.core.rounding", "grid_for_graph")),
    "bench.core.kept_sets": (("repro.core.orientation",
                              "kept_sets_from_trajectory"),),
    "bench.core.orientation": (("repro.problems", "orientation_from_kept"),),
    "bench.core.densest": (("repro.problems", "weak_densest_subsets"),),
    "bench.engine.kernel": (("repro.engine.vectorized", "compact_trajectory"),),
    "bench.engine.frontier": (("repro.engine.vectorized",
                               "frontier_trajectory"),),
    "bench.engine.assemble": (("repro.engine.vectorized:TrajectoryEngine",
                               "assemble"),),
    "bench.engine.densest_kernels": (
        ("repro.engine.densest_kernels", "bfs_forest"),
        ("repro.engine.densest_kernels", "local_elimination_rounds"),
        ("repro.engine.densest_kernels", "aggregate_and_decide")),
    "bench.client.submit": (("repro.serve.client:ServeClient", "submit"),),
    "bench.client.wait": (("repro.serve.client:ServeClient", "result"),),
    "bench.client.upload": (("repro.serve.client:ServeClient", "upload_graph"),),
    "bench.client.delta": (("repro.serve.client:ServeClient", "apply_delta"),),
}

#: Call sites whose program spans raise while tracing is on, wrapped in a
#: benchmark span that suppresses the program's spans inside it:
#: ``ArtifactStore.record_lineage`` passes its parent fingerprint as
#: ``obs_trace.span(parent=...)``, which ``span()`` reads as a span context,
#: so every store-backed ``Session.apply_delta`` fails under a tracer.
QUIET_WRAPPERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "bench.store.lineage": (("repro.store.store:ArtifactStore",
                             "record_lineage"),),
}

#: The span the load generator opens itself around ``include=result`` polls
#: (``ServeClient.poll`` also runs inside ``result``, so it is not wrapped).
FETCH_SPAN = "bench.client.fetch"

#: span name -> the metric its self time is added to.  Names not listed here
#: (for example spans a later version of the program adds) inherit the metric
#: of their nearest listed ancestor, so their time is never lost.
SPAN_METRIC = {
    ROOT_SPAN: "unattributed_s",
    "bench.graph.csr": "graph.csr_s",
    "bench.graph.fingerprint": "graph.fingerprint_s",
    "bench.graph.delta_apply": "graph.delta_apply_s",
    "bench.graph.io": "graph.io_s",
    "bench.core.grid": "core.grid_s",
    "bench.core.kept_sets": "core.kept_sets_s",
    "bench.core.orientation": "core.orientation_s",
    "bench.core.densest": "core.densest_s",
    "densest.phases": "core.densest_s",
    "bench.engine.kernel": "engine.kernel_s",
    "bench.engine.frontier": "engine.frontier_s",
    "bench.engine.assemble": "engine.assemble_s",
    "bench.engine.densest_kernels": "engine.densest_kernels_s",
    "session.solve": "session.solve_s",
    "session.surviving": "session.solve_s",
    "engine.run": "session.solve_s",
    "store.save_trajectory": "store.save_s",
    "store.save_result": "store.save_s",
    "store.record_lineage": "store.save_s",
    "traj.publish": "store.save_s",
    "bench.store.lineage": "store.save_s",
    "store.load_trajectory": "store.load_s",
    "store.load_result": "store.load_s",
    "bench.client.submit": "client.submit_s",
    "bench.client.wait": "client.wait_s",
    FETCH_SPAN: "client.fetch_s",
    "bench.client.upload": "client.upload_s",
    "bench.client.delta": "client.delta_s",
}

#: Span names whose call counts are metrics of their own.
SPAN_COUNTS = {"bench.graph.csr": "graph.csr_calls",
               "bench.core.grid": "core.grid_calls"}

#: Metrics computed from span self times (all zero when a layer is unused).
TIME_METRICS = tuple(sorted(set(SPAN_METRIC.values())))


def _resolve(site: str):
    module_name, _, class_name = site.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Wrappers:
    """Installs the layer spans for one traced pass; use as a context manager.

    ``fired`` holds the span names whose wrapper ran at least once and
    ``missing`` the call sites that no longer exist in the program (both
    reported with the run, so a renamed function shows up as an unfired
    wrapper instead of silently dropping its layer).
    """

    def __init__(self, *, layers: bool = True) -> None:
        self.fired: set = set()
        self.missing: List[str] = []
        self._tables = ((WRAPPERS, False), (QUIET_WRAPPERS, True)) if layers \
            else ((QUIET_WRAPPERS, True),)
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, quiet: bool):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fired.add(name)
            with obs_trace.span(name):
                if quiet:
                    with obs_trace.SUPPRESSED_SPAN:
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
        return wrapper

    def _install(self, name: str, site: str, attr: str, quiet: bool) -> None:
        try:
            owner = _resolve(site)
        except (ImportError, AttributeError):
            owner = None
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{site}.{attr}")
            return
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, name, quiet))
        else:
            wrapped = self._wrap(raw, name, quiet)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def __enter__(self) -> "Wrappers":
        for table, quiet in self._tables:
            for name, sites in table.items():
                for site, attr in sites:
                    self._install(name, site, attr, quiet)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


class SpanLog:
    """Collects span records across per-operation tracer lifetimes.

    ``capture()`` enables a fresh tracer whose ring never evicts, and on exit
    appends its records and disables it again, so output checks that run
    between operations are never traced.  ``dropped`` counts records a
    tracer emitted but no longer held.
    """

    def __init__(self) -> None:
        self.records: List[dict] = []
        self.dropped = 0

    def capture(self):
        return _Capture(self)


class _Capture:
    def __init__(self, log: SpanLog) -> None:
        self._log = log
        self._tracer = None

    def __enter__(self):
        self._tracer = obs_trace.enable(ring_size=RING_SIZE)
        return self

    def __exit__(self, *exc) -> None:
        records = self._tracer.spans()
        self._log.dropped += self._tracer.emitted - len(records)
        self._log.records.extend(records)
        obs_trace.disable()


def self_times(records: Iterable[dict]) -> List[Tuple[dict, float]]:
    """``(record, self seconds)`` for every record.

    Self time is the duration minus the union of the child intervals clipped
    to the parent's interval; clipping matters for children that run on
    another thread after their parent returned (a job executed after the
    HTTP request that submitted it).
    """
    records = list(records)
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for rec in records:
        if rec.get("parent"):
            start = float(rec["ts"])
            children[rec["parent"]].append((start, start + float(rec["dur"])))
    out = []
    for rec in records:
        start = float(rec["ts"])
        end = start + float(rec["dur"])
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(rec["span"], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((rec, max(0.0, float(rec["dur"]) - covered)))
    return out


def attribute(records: List[dict]) -> Tuple[Dict[str, float], Dict[str, int],
                                             float, int]:
    """Per-layer self times from one pass's records.

    Returns ``(times, counts, root_seconds, orphans)``: the time and call
    count metrics, the summed duration of the root spans (the traced wall
    time the layer self times must add up to), and the number of records
    that are neither a root span nor under one.
    """
    by_id = {rec["span"]: rec for rec in records}
    metrics = {name: 0.0 for name in TIME_METRICS}
    counts = {name: 0 for name in SPAN_COUNTS.values()}
    orphans = 0
    root_seconds = 0.0
    for rec, seconds in self_times(records):
        if rec["name"] == ROOT_SPAN:
            root_seconds += float(rec["dur"])
        if rec["name"] in SPAN_COUNTS:
            counts[SPAN_COUNTS[rec["name"]]] += 1
        chain = [rec]
        while chain[-1].get("parent") in by_id:
            chain.append(by_id[chain[-1]["parent"]])
        if chain[-1]["name"] != ROOT_SPAN:
            orphans += 1
            continue
        # The root maps to unattributed_s, so some ancestor always matches.
        metrics[next(SPAN_METRIC[r["name"]] for r in chain
                     if r["name"] in SPAN_METRIC)] += seconds
    return metrics, counts, root_seconds, orphans


def server_metrics(records: Iterable[dict], since_unix: float) -> Dict[str, float]:
    """The serving layer's own spans, from a ``repro serve --trace`` file.

    Only records that started at or after ``since_unix`` count (set-up
    uploads and probes are excluded).  ``http.request_s`` is self time; a
    long-poll's self time includes the time it waited for its job.
    """
    records = [rec for rec in records if float(rec.get("ts", 0.0)) >= since_unix]
    out = {"serve.queue_wait_s": 0.0, "serve.execute_s": 0.0,
           "http.request_s": 0.0}
    for rec, seconds in self_times(records):
        if rec["name"] == "serve.queue_wait":
            out["serve.queue_wait_s"] += float(rec["dur"])
        elif rec["name"] == "serve.execute":
            out["serve.execute_s"] += float(rec["dur"])
        elif rec["name"] == "http.request":
            out["http.request_s"] += seconds
    return out
