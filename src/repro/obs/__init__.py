"""`repro.obs` — stdlib-only observability: spans, traces and metrics.

Two halves, both disabled-by-default and dependency-free:

* **Tracing** (:mod:`repro.obs.trace`) — hierarchical wall-clock spans
  (``obs.span("session.solve", lam=0.0)``) recorded into a bounded in-memory
  ring and, optionally, a JSONL file.  Span context propagates across the
  serving worker pool and into a threaded shard plan's pool threads
  (``sharded:workers=N``; their spans carry the shard ranges).  A recorded
  JSONL trace renders to Chrome trace-event format
  (``repro trace export --chrome``) so a solve opens in Perfetto, and
  aggregates to a per-span-name latency table
  (``repro trace summarize``).  An enabled tracer records every span;
  ``with trace.SUPPRESSED_SPAN:`` silences the current thread for a block
  (a traced ``bench/`` run times a layer as one span that way).  When
  tracing is disabled — the default — ``span()`` returns a shared no-op
  object; the hot paths pay one module attribute read per span site
  (``tests/test_obs.py`` bounds that cost, and a traced ``bench/`` run
  reports the end-to-end cost of enabling tracing as
  ``obs.trace_overhead``).

* **Metrics** (:mod:`repro.obs.metrics`) — a :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms (notably per-problem solve
  latency and per-round kernel time, observed into the process-wide default
  registry), rendered in Prometheus text exposition at
  ``GET /metrics?format=prometheus``.  ``SessionStats`` / ``ServeStats`` /
  store counters register as scrape-time collector families instead of being
  hand-merged into one JSON blob.

Tracing never changes results: spans observe wall time and attributes only,
and the equivalence tests pin bit-identity with tracing enabled.
"""

from repro.obs.trace import (
    NOOP_SPAN,
    Span,
    SpanContext,
    Tracer,
    active,
    chrome_trace,
    current_context,
    disable,
    enable,
    enabled,
    read_jsonl,
    span,
    summarize,
    timed,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter_families,
    family,
    gauge_family,
    get_registry,
)

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanContext",
    "Tracer",
    "active",
    "chrome_trace",
    "current_context",
    "disable",
    "enable",
    "enabled",
    "read_jsonl",
    "span",
    "summarize",
    "timed",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter_families",
    "family",
    "gauge_family",
    "get_registry",
]
