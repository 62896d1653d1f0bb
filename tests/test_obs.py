"""The observability subsystem: tracing, metrics, exposition, CLI, HTTP.

The load-bearing contract is the bit-identity one — enabling tracing must
never change a computed result — plus structural integrity of what gets
recorded: parent/child links hold across pool threads, the ring stays
bounded, the Prometheus text follows the exposition grammar, and the access
log / job GC behave on a real socket.
"""

from __future__ import annotations

import io
import json
import re
import time
import urllib.request

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.engine import get_engine
from repro.graph.datasets import load_dataset
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.client import ServeClient
from repro.serve.http import ReproHTTPServer
from repro.session import Session


@pytest.fixture(autouse=True)
def _isolated_tracer():
    """Never leak a process-wide tracer between tests."""
    obs_trace.disable()
    yield
    obs_trace.disable()


def _solve_values(engine_spec: str, rounds: int = 6):
    graph = load_dataset("caveman")
    session = Session(graph, engine=get_engine(engine_spec))
    result = session.coreness(rounds=rounds)
    return result.values


# ----------------------------------------------------------------- no-op mode
class TestDisabledMode:
    def test_disabled_is_the_shared_noop(self):
        assert obs_trace.active() is None
        assert not obs_trace.enabled()
        assert obs_trace.span("anything", x=1) is obs_trace.NOOP_SPAN
        assert obs_trace.current_context() is None
        with obs_trace.span("nested") as sp:
            sp.set(ignored=True)
            assert obs_trace.current_context() is None

    def test_noop_solve_emits_zero_spans(self):
        values = _solve_values("vectorized")
        assert values  # the solve ran
        assert obs_trace.active() is None  # and installed no tracer

    def test_timed_measures_even_when_disabled(self):
        with obs_trace.timed("block", tag="t") as timing:
            sum(range(1000))
        assert timing.seconds is not None and timing.seconds >= 0.0

    @pytest.mark.bench
    def test_disabled_span_costs_under_ten_microseconds(self):
        # What every instrumented call site pays per request when tracing is
        # off: the gate that keeps an untraced run's overhead negligible.
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            with obs_trace.span("noop.probe"):
                pass
        assert (time.perf_counter() - start) / calls < 1e-5


# -------------------------------------------------------------- bit-identity
class TestBitIdentity:
    @pytest.mark.parametrize("spec,kernel_spans", [
        ("vectorized", True),
        ("faithful", False),   # per-node simulation, no CSR round kernel
        ("sharded:shards=4,workers=2", True),
    ])
    def test_traced_solve_is_bit_identical(self, spec, kernel_spans):
        baseline = _solve_values(spec)
        obs_trace.enable()
        traced = _solve_values(spec)
        assert traced == baseline
        names = {record["name"] for record in obs_trace.active().spans()}
        assert "session.solve" in names
        assert "engine.run" in names
        assert ("kernel.round_range" in names) == kernel_spans


# ----------------------------------------------------- span structure / ring
class TestSpanIntegrity:
    def test_parent_child_nesting_single_thread(self):
        tracer = obs_trace.enable()
        with obs_trace.span("outer", layer=1):
            with obs_trace.span("inner", layer=2):
                pass
        by_name = {r["name"]: r for r in tracer.spans()}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["inner"]["trace"] == by_name["outer"]["trace"]
        assert by_name["outer"]["parent"] is None

    def test_thread_pool_shards_link_to_the_run(self):
        tracer = obs_trace.enable()
        _solve_values("sharded:shards=4,workers=2")
        records = tracer.spans()
        by_id = {r["span"]: r for r in records}
        shards = [r for r in records if r["name"] == "kernel.shard"]
        assert shards, "thread-pool shard spans were not recorded"
        run = next(r for r in records if r["name"] == "engine.run")
        for shard in shards:
            assert shard["trace"] == run["trace"]
            parent = by_id[shard["parent"]]
            # Recorded from pool threads with an explicit parent: the
            # enclosing engine context, not a thread-local orphan.
            assert parent["name"] in ("engine.run",
                                      "session.surviving", "session.solve")
            assert {"lo", "hi", "round"} <= set(shard["attrs"])

    def test_ring_is_bounded_but_counts_everything(self):
        tracer = obs_trace.enable(ring_size=8)
        for i in range(20):
            with obs_trace.span("tick", i=i):
                pass
        assert len(tracer.spans()) == 8
        assert tracer.emitted == 20
        assert [r["attrs"]["i"] for r in tracer.spans()] == list(range(12, 20))

    def test_error_spans_record_the_exception(self):
        tracer = obs_trace.enable()
        with pytest.raises(RuntimeError):
            with obs_trace.span("doomed"):
                raise RuntimeError("kaput")
        (record,) = tracer.spans()
        assert record["attrs"]["error"] == "RuntimeError"

    def test_suppressed_span_silences_its_block(self):
        # What the bench's quiet layer wrappers rely on: one span for the
        # block, none for what it calls.
        tracer = obs_trace.enable()
        with obs_trace.span("layer"):
            with obs_trace.SUPPRESSED_SPAN:
                assert obs_trace.active() is None
                assert obs_trace.span("inner") is obs_trace.NOOP_SPAN
                with obs_trace.timed("timed") as timing:
                    pass
            assert obs_trace.active() is tracer
        assert timing.seconds is not None
        assert [r["name"] for r in tracer.spans()] == ["layer"]

    def test_root_sampling_is_not_an_option(self):
        with pytest.raises(TypeError):
            obs.enable(sample_rate=2)
        with pytest.raises(TypeError):
            obs_trace.Tracer(sample_rate=2)
        assert not hasattr(obs_trace.Tracer, "sample_root")


# -------------------------------------------------------- export / summarize
class TestExport:
    def test_jsonl_roundtrip_chrome_and_summary(self, tmp_path):
        path = tmp_path / "run.trace"
        obs_trace.enable(jsonl_path=str(path))
        _solve_values("vectorized")
        obs_trace.disable()
        records = obs_trace.read_jsonl(path)
        assert records and all(
            {"name", "trace", "span", "ts", "dur", "pid", "tid"} <= set(r)
            for r in records)
        doc = obs_trace.chrome_trace(records)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == len(records)
        assert all(e["ph"] == "X" and e["ts"] >= 0 and e["dur"] >= 0
                   for e in events)
        rows = obs_trace.summarize(records)
        assert rows[0]["total_seconds"] == max(r["total_seconds"] for r in rows)
        kernel = next(r for r in rows if r["name"] == "kernel.round_range")
        assert kernel["count"] >= 1
        assert kernel["p50_seconds"] <= kernel["p95_seconds"] <= \
            kernel["max_seconds"]

    def test_read_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"name": "ok"}\nnot json\n', encoding="utf-8")
        from repro.errors import WireFormatError
        with pytest.raises(WireFormatError):
            obs_trace.read_jsonl(path)


# ----------------------------------------------------------------------- CLI
class TestTraceCLI:
    @pytest.fixture
    def recorded(self, tmp_path):
        """A JSONL fixture recorded through the public CLI surface."""
        path = tmp_path / "cli.trace"
        out = io.StringIO()
        assert cli_main(["coreness", "--dataset", "caveman", "--epsilon",
                         "0.5", "--trace", str(path)], out=out) == 0
        assert obs_trace.active() is None  # main() tears the tracer down
        return path

    def test_summarize_renders_a_table(self, recorded):
        out = io.StringIO()
        assert cli_main(["trace", "summarize", "--input", str(recorded)],
                        out=out) == 0
        text = out.getvalue()
        assert "session.solve" in text and "kernel.round_range" in text
        assert re.search(r"# spans=\d+", text)

    def test_export_chrome_is_perfetto_openable_json(self, recorded, tmp_path):
        target = tmp_path / "chrome.json"
        out = io.StringIO()
        assert cli_main(["trace", "export", "--input", str(recorded),
                         "--chrome", "--output", str(target)], out=out) == 0
        doc = json.loads(target.read_text(encoding="utf-8"))
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"session.solve", "engine.run", "kernel.round_range"} <= names

    def test_export_without_chrome_reemits_records(self, recorded):
        out = io.StringIO()
        assert cli_main(["trace", "export", "--input", str(recorded)],
                        out=out) == 0
        assert isinstance(json.loads(out.getvalue()), list)


# ------------------------------------------------------------------- metrics
def _parse_exposition(text: str):
    """Parse Prometheus text exposition; asserts the line grammar."""
    types, samples = {}, []
    name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    sample_re = re.compile(
        r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
        r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
        r' (?P<value>[^ ]+)$')
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            assert name_re.match(line.split(" ", 3)[2])
            continue
        if line.startswith("# TYPE "):
            _, _, name, type_ = line.split(" ", 3)
            assert type_ in ("counter", "gauge", "histogram")
            types[name] = type_
            continue
        match = sample_re.match(line)
        assert match, f"bad exposition line: {line!r}"
        labels = dict(re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"',
                                 match.group("labels") or ""))
        samples.append((match.group("name"), labels,
                        float(match.group("value"))))
    return types, samples


class TestMetricsExposition:
    def test_counter_gauge_and_label_escaping(self):
        registry = obs_metrics.MetricsRegistry()
        counter = registry.counter("repro_test_events_total", "events",
                                   labelnames=("reason",))
        counter.inc(reason='we"ird\n\\x')
        registry.gauge("repro_test_depth", "depth").set(3.5)
        types, samples = _parse_exposition(registry.render())
        assert types["repro_test_events_total"] == "counter"
        assert types["repro_test_depth"] == "gauge"
        (name, labels, value) = next(
            s for s in samples if s[0] == "repro_test_events_total")
        assert value == 1.0
        # The escaped form round-trips through a conforming parser.
        unescaped = labels["reason"].replace(r"\\", "\x00").replace(
            r"\n", "\n").replace(r"\"", '"').replace("\x00", "\\")
        assert unescaped == 'we"ird\n\\x'

    def test_histogram_buckets_are_monotone_and_inf_equals_count(self):
        registry = obs_metrics.MetricsRegistry()
        histogram = registry.histogram("repro_test_latency_seconds", "lat",
                                       buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        types, samples = _parse_exposition(registry.render())
        assert types["repro_test_latency_seconds"] == "histogram"
        buckets = [(labels["le"], value) for name, labels, value in samples
                   if name == "repro_test_latency_seconds_bucket"]
        assert [le for le, _ in buckets] == ["0.01", "0.1", "1", "+Inf"]
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)  # cumulative ⇒ monotone
        count = next(v for n, _, v in samples
                     if n == "repro_test_latency_seconds_count")
        assert buckets[-1][1] == count == 4.0
        total = next(v for n, _, v in samples
                     if n == "repro_test_latency_seconds_sum")
        assert total == pytest.approx(5.555)

    def test_registry_creation_is_idempotent_by_name(self):
        registry = obs_metrics.MetricsRegistry()
        first = registry.counter("repro_test_total", "x")
        assert registry.counter("repro_test_total", "x") is first
        with pytest.raises(ValueError):
            registry.gauge("repro_test_total", "x")

    def test_global_registry_observes_solves(self):
        _solve_values("vectorized")
        text = obs_metrics.get_registry().render()
        types, samples = _parse_exposition(text)
        assert types["repro_solve_latency_seconds"] == "histogram"
        assert types["repro_kernel_round_seconds"] == "histogram"
        count = next(v for n, labels, v in samples
                     if n == "repro_solve_latency_seconds_count"
                     and labels.get("problem") == "coreness")
        assert count >= 1.0


# ------------------------------------------------------------- HTTP surfaces
class TestServeObservability:
    def test_prometheus_scrape_parses_and_carries_server_families(self):
        with ReproHTTPServer(workers=2) as server:
            with ServeClient(server.host, server.port) as client:
                fp = client.upload_dataset("caveman")
                issued = client.submit(fp, problem="coreness", rounds=4)
                client.result(issued["job"])
            with urllib.request.urlopen(
                    f"http://{server.host}:{server.port}"
                    f"/metrics?format=prometheus") as response:
                assert response.status == 200
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                text = response.read().decode("utf-8")
        types, samples = _parse_exposition(text)
        assert types["repro_http_jobs_by_status"] == "gauge"
        assert types["repro_serve_submitted_total"] == "counter"
        assert types["repro_solve_latency_seconds"] == "histogram"
        submitted = next(v for n, _, v in samples
                         if n == "repro_serve_submitted_total")
        assert submitted == 1.0
        done = next(v for n, labels, v in samples
                    if n == "repro_http_jobs_by_status"
                    and labels["status"] == "done")
        assert done == 1.0

    def test_unknown_metrics_format_is_400(self):
        with ReproHTTPServer(workers=1) as server:
            with ServeClient(server.host, server.port) as client:
                from repro.errors import WireFormatError
                with pytest.raises(WireFormatError):
                    client._request("GET", "/metrics?format=xml")

    def test_access_log_is_structured_ndjson(self, tmp_path):
        log_path = tmp_path / "access.ndjson"
        with ReproHTTPServer(workers=2, access_log=str(log_path)) as server:
            with ServeClient(server.host, server.port,
                             tenant="team-a") as client:
                fp = client.upload_dataset("caveman")
                issued = client.submit(fp, problem="coreness", rounds=4)
                client.result(issued["job"])
                client.metrics()
        lines = [json.loads(line) for line in
                 log_path.read_text(encoding="utf-8").splitlines()]
        assert len(lines) >= 4  # upload, submit, poll(s), metrics
        for entry in lines:
            assert {"ts", "method", "path", "status", "tenant",
                    "duration_ms"} <= set(entry)
            assert entry["tenant"] == "team-a"
            assert entry["duration_ms"] >= 0.0
        submit = next(e for e in lines
                      if e["method"] == "POST" and e["path"].endswith("/jobs"))
        assert submit["status"] == 202
        assert submit["job"] == issued["job"]
        assert submit["deduplicated"] is False

    def test_no_access_log_writes_nothing(self, tmp_path, capsys):
        with ReproHTTPServer(workers=1) as server:
            with ServeClient(server.host, server.port) as client:
                client.health()
        assert "GET /health" not in capsys.readouterr().err  # stderr stays quiet

    def test_finished_jobs_are_garbage_collected(self, monkeypatch):
        from repro.serve import http as serve_http

        monkeypatch.setattr(serve_http, "MAX_FINISHED_JOBS", 2)
        with ReproHTTPServer(workers=1) as server:
            with ServeClient(server.host, server.port) as client:
                fp = client.upload_dataset("caveman")
                job_ids = []
                for rounds in (2, 3, 4, 5):
                    issued = client.submit(fp, problem="coreness",
                                           rounds=rounds)
                    client.result(issued["job"])
                    job_ids.append(issued["job"])
                deadline_metrics = None
                for _ in range(200):
                    deadline_metrics = client.metrics()
                    if deadline_metrics["server"]["evicted_jobs"] >= 2:
                        break
                assert deadline_metrics["server"]["evicted_jobs"] == 2
                assert deadline_metrics["jobs"]["total"] == 2
                assert deadline_metrics["jobs"]["done"] == 2
                # The two oldest finished records are gone — polling them is
                # indistinguishable from a never-issued id.
                from repro.errors import UnknownResourceError
                for evicted in job_ids[:2]:
                    with pytest.raises(UnknownResourceError):
                        client.result(evicted)
                for kept in job_ids[2:]:
                    assert client.result(kept)["status"] == "done"

    def test_http_request_spans_nest_queue_and_engine(self):
        tracer = obs_trace.enable()
        with ReproHTTPServer(workers=2) as server:
            with ServeClient(server.host, server.port) as client:
                fp = client.upload_dataset("caveman")
                issued = client.submit(fp, problem="coreness", rounds=4)
                client.result(issued["job"])
        names = {record["name"] for record in tracer.spans()}
        assert {"http.request", "client.request", "serve.queue_wait",
                "serve.execute", "session.solve", "engine.run",
                "kernel.round_range"} <= names
        by_id = {r["span"]: r for r in tracer.spans()}
        execute = next(r for r in tracer.spans()
                       if r["name"] == "serve.execute")
        wait = next(r for r in tracer.spans()
                    if r["name"] == "serve.queue_wait")
        # Queue wait + execution hang off the submitting request's context.
        assert execute["parent"] in by_id
        assert wait["parent"] == execute["parent"]
        assert by_id[execute["parent"]]["name"] == "http.request"
