"""The HTTP front-end: wire equivalence, dedup, quotas, backpressure, drain.

Everything runs against a real socket (ephemeral port, loopback).  The
acceptance contract mirrors tests/test_serve.py one layer out: N client
threads of mixed problems against a live server are bit-identical to
sequential in-process ``Session.solve`` — including a restart from a
persistent store.  Timing tests gate on events, never sleeps.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

import repro.problems as problems_module
from repro.errors import (
    AlgorithmError,
    QueueFullError,
    QuotaExceededError,
    ServeError,
    UnknownResourceError,
    WireFormatError,
)
from repro.graph.datasets import load_dataset
from repro.graph.delta import GraphDelta
from repro.graph.io import to_dict as graph_to_dict
from repro.problems import CorenessProblem, register_problem
from repro.serve.client import ServeClient, solve_many
from repro.serve.http import ReproHTTPServer, TokenBucket
from repro.session import Session


@pytest.fixture
def server():
    with ReproHTTPServer(workers=4) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as cli:
        yield cli


@pytest.fixture
def gated_problem():
    """A coreness twin registered as 'gated-http' that blocks until released."""

    class _GatedHTTP(CorenessProblem):
        name = "gated-http"
        started = threading.Event()
        release = threading.Event()

        def solve(self, session, **params):
            type(self).started.set()
            assert type(self).release.wait(timeout=10), "gate never released"
            return super().solve(session, **params)

    register_problem("gated-http", _GatedHTTP)
    try:
        yield _GatedHTTP
    finally:
        _GatedHTTP.release.set()
        problems_module._FACTORIES.pop("gated-http", None)


def _mixed_requests():
    return [{"problem": problem, "rounds": rounds}
            for problem in ("coreness", "orientation")
            for rounds in (3, 6)]


class TestGraphResources:
    def test_upload_is_idempotent_on_content(self, client):
        first = client.upload_dataset("caveman")
        assert len(first) == 64 and set(first) <= set("0123456789abcdef")
        assert client.upload_dataset("caveman") == first
        record = client.graph(first)
        assert record["uploads"] == 2
        assert record["n"] == load_dataset("caveman").num_nodes

    def test_json_upload_is_idempotent_and_serves_correctly(self, client):
        # The fingerprint hashes the CSR view, which keeps adjacency
        # *insertion order* — so a JSON round trip (edges() order) need not
        # collide with the dataset upload, but identical documents must, and
        # the uploaded copy must solve exactly like its in-process twin.
        from repro.graph.io import from_dict

        payload = graph_to_dict(load_dataset("caveman"))
        fp = client.upload_graph(from_dict(payload))
        assert client.upload_graph(from_dict(payload)) == fp
        issued = client.submit(fp, problem="coreness", rounds=6)
        doc = client.result(issued["job"], include_result=True)
        reference = Session(from_dict(payload)).coreness(rounds=6)
        assert doc["result"] == json.loads(json.dumps(reference.to_dict()))

    def test_edge_list_upload(self, client):
        fp = client.upload_edge_list("0 1 2.0\n1 2\n# isolated: 9\n")
        record = client.graph(fp)
        assert record["n"] == 4 and record["m"] == 2
        assert record["source"] == "edge-list"

    def test_graphs_listing(self, client):
        fp = client.upload_dataset("caveman")
        assert [g["fingerprint"] for g in client.graphs()] == [fp]

    def test_unknown_dataset_is_a_wire_error(self, client):
        with pytest.raises(WireFormatError, match="unknown dataset"):
            client.upload_dataset("atlantis")

    def test_unknown_fingerprint_is_404(self, client):
        with pytest.raises(UnknownResourceError):
            client.graph("f" * 64)

    def test_unroutable_path_is_404(self, client):
        with pytest.raises(UnknownResourceError):
            client._request("GET", "/nope")


def _counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


class TestUploadBuildsTheViewOnce:
    def test_upload_and_first_job_share_one_view(self, tmp_path, monkeypatch):
        import repro.graph.csr as csr_module
        import repro.serve.http as http_module
        import repro.session as session_module

        calls = {"graph_to_csr": [], "csr_fingerprint": [], "_splice": []}
        for module in (csr_module, session_module, http_module):
            for name, seen in calls.items():
                if name in vars(module):
                    monkeypatch.setattr(module, name,
                                        _counting(getattr(module, name), seen))
        with ReproHTTPServer(workers=2, store=tmp_path / "store") as srv, \
                ServeClient(srv.host, srv.port) as cli:
            fp = cli.upload_dataset("caveman")
            cli.result(cli.submit(fp, problem="coreness", rounds=6)["job"])
            assert len(calls["graph_to_csr"]) == 1
            assert len(calls["csr_fingerprint"]) == 1

            runner = srv.queue.runner
            opened = runner.cached_graphs
            assert cli.upload_dataset("caveman") == fp
            assert runner.cached_graphs == opened
            assert cli.graph(fp)["uploads"] == 2

            # The uploaded graph's session holds its view, so a delta's child
            # splices its own from it.
            cli.apply_delta(fp, GraphDelta(add_nodes=["new"]))
            assert len(calls["_splice"]) == 1


class TestReplayedDelta:
    def test_a_repeated_delta_post_is_not_applied_again(self, tmp_path,
                                                         monkeypatch):
        import repro.graph.csr as csr_module
        import repro.session as session_module
        from repro.store import ArtifactStore

        calls = {"apply_graph_delta": [], "_splice": [], "csr_fingerprint": []}
        for module in (csr_module, session_module):
            for name, seen in calls.items():
                if name in vars(module):
                    monkeypatch.setattr(module, name,
                                        _counting(getattr(module, name), seen))
        lineage = calls["record_lineage"] = []
        monkeypatch.setattr(ArtifactStore, "record_lineage",
                            _counting(ArtifactStore.record_lineage, lineage))
        delta = GraphDelta(add_edges=[(0, 239, 1.0)], remove_edges=[(0, 1)])
        with ReproHTTPServer(workers=2, store=tmp_path / "store") as srv, \
                ServeClient(srv.host, srv.port) as cli:
            fp = cli.upload_dataset("caveman")
            first = cli.apply_delta(fp, delta)
            assert first["created"] is True and first["uploads"] == 1
            assert len(calls["apply_graph_delta"]) == len(lineage) == 1
            seen = {name: len(made) for name, made in calls.items()}
            opened = srv.queue.runner.cached_graphs

            again = cli.apply_delta(fp, delta.to_dict())
            assert again["created"] is False and again["uploads"] == 2
            assert again["fingerprint"] == first["fingerprint"]
            assert {name: len(made) for name, made in calls.items()} == seen
            assert srv.queue.runner.cached_graphs == opened

            # A bad fraction answers the same error whether or not the
            # version is registered.
            for graph_fp in (fp, first["fingerprint"]):
                with pytest.raises(AlgorithmError, match="must be in"):
                    cli.apply_delta(graph_fp, delta, max_frontier_fraction=2.0)
            assert cli.graph(first["fingerprint"])["uploads"] == 2


def _prometheus_samples(text: str, prefix: str) -> dict:
    return {name: float(value) for name, value in
            (line.split(" ", 1) for line in text.splitlines()
             if line.startswith(prefix))}


class TestSessionBound:
    """The server's runner keeps at most ``MAX_SESSIONS`` sessions; an
    evicted version re-opens from the store under its chain fingerprint."""

    VERSIONS = 100

    def test_retained_heap_stops_growing_with_versions(self, tmp_path):
        import gc
        import tracemalloc

        import repro.serve.http as http_module

        from repro.graph.generators.random_graphs import barabasi_albert

        graph = barabasi_albert(5000, 3, seed=1)
        edges = [(u, v) for u, v, _ in graph.edges()]
        deltas = [GraphDelta(remove_edges=[edges[2 * i]],
                             set_weights=[(*edges[2 * i + 1], 2.0)]).to_dict()
                  for i in range(self.VERSIONS)]
        job = {"problem": "coreness", "rounds": 6}
        with ReproHTTPServer(workers=2, store=tmp_path / "store") as srv:
            runner = srv.queue.runner
            versions = [srv.register_graph(graph, source="json")[0]]
            first, retained = None, {}
            totals = runner.aggregate_stats()   # /metrics' "session" section
            tracemalloc.start()
            try:
                for i, delta in enumerate(deltas, start=1):
                    versions.append(srv.apply_delta(
                        versions[-1], {"delta": delta})["fingerprint"])
                    record = srv.job_record(
                        srv.submit_job(versions[-1], job)["job"])
                    srv.wait_job(record, 30)
                    if first is None:
                        first = srv.job_document(record, include_result=True)
                    now = runner.aggregate_stats()
                    assert all(now[key] >= value
                               for key, value in totals.items()), i
                    totals = now
                    if i in (self.VERSIONS // 2, self.VERSIONS):
                        gc.collect()
                        retained[i] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            per_version = ((retained[self.VERSIONS]
                            - retained[self.VERSIONS // 2])
                           / (self.VERSIONS - self.VERSIONS // 2))
            assert per_version < 0.5 * 2 ** 20, per_version
            assert runner.cached_graphs <= http_module.MAX_SESSIONS
            assert srv.metrics()["server"]["evicted_sessions"] > 0

            # The first version was evicted long ago: its job re-opens it
            # from the store, bit-identically and without a cold run.
            scrape = _prometheus_samples(srv.render_prometheus(),
                                         "repro_session_")
            record = srv.job_record(srv.submit_job(versions[1], job)["job"])
            srv.wait_job(record, 30)
            again = srv.job_document(record, include_result=True)
            assert again["result"] == first["result"]
            now = srv.metrics()["session"]
            assert now["disk_hits"] == totals["disk_hits"] + 1
            assert now["cold_runs"] == totals["cold_runs"]
            rescrape = _prometheus_samples(srv.render_prometheus(),
                                           "repro_session_")
            assert all(rescrape[name] >= value
                       for name, value in scrape.items()
                       if name.endswith("_total"))

            # Replaying the delta that derived the second version mints the
            # same key on the re-opened first version.
            replay = srv.apply_delta(versions[1], {"delta": deltas[1]})
            assert replay["created"] is False
            assert replay["fingerprint"] == versions[2]

            # Two threads that miss on one evicted version get one session.
            missed = srv.graph_record(versions[3]).graph
            opened = runner.new_session
            barrier = threading.Barrier(2)

            def slow_open(graph):
                session = opened(graph)
                time.sleep(0.05)
                return session

            runner.new_session = slow_open
            got = []

            def miss():
                barrier.wait(timeout=10)
                got.append(runner.session(missed))

            threads = [threading.Thread(target=miss) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert len(got) == 2 and got[0] is got[1]


    def test_versions_evicted_before_their_jobs_solve_by_frontier(
            self, tmp_path, monkeypatch):
        """``MAX_SESSIONS + 4`` deltas POSTed with no job in between: the
        first version's session is long evicted when its jobs come, yet
        each (one per λ, with an eviction between them) re-solves only the
        frontier from the root's stored trajectory, as it would unevicted."""
        import repro.serve.http as http_module

        from repro.graph.delta import apply_delta
        from repro.graph.generators.random_graphs import barabasi_albert

        monkeypatch.setattr(http_module, "MAX_SESSIONS", 3)
        graph = barabasi_albert(300, 3, seed=3)
        edges = [(u, v) for u, v, _ in graph.edges()]
        deltas = [GraphDelta(remove_edges=[edges[3 * i]]) for i in range(7)]
        with ReproHTTPServer(workers=2, store=tmp_path / "store") as srv:
            runner = srv.queue.runner

            def job(version, lam):
                record = srv.job_record(srv.submit_job(
                    version, {"problem": "coreness", "rounds": 6,
                              "lam": lam})["job"])
                srv.wait_job(record, 30)
                return srv.job_document(record, include_result=True)

            versions = [srv.register_graph(graph, source="json")[0]]
            for lam in (0.0, 0.5):
                job(versions[0], lam)
            for delta in deltas:
                versions.append(srv.apply_delta(
                    versions[-1], {"delta": delta.to_dict(),
                                   "max_frontier_fraction": 1.0})
                    ["fingerprint"])
            assert runner.evicted_sessions == len(deltas) + 1 - 3
            first = apply_delta(graph, deltas[0])
            for lam in (0.0, 0.5):
                before = srv.metrics()["session"]
                doc = job(versions[1], lam)
                after = srv.metrics()["session"]
                assert after["incremental_runs"] == \
                    before["incremental_runs"] + 1
                assert after["cold_runs"] == before["cold_runs"]
                cold = Session(first).coreness(rounds=6, lam=lam)
                assert json.dumps(doc["result"]) == json.dumps(cold.to_dict())
                for version in versions[-3:]:        # evict it again
                    runner.session(srv.graph_record(version).graph)

    def test_a_server_without_a_store_keeps_every_session(self, monkeypatch):
        """Without a store a re-open would solve cold: no bound."""
        import repro.serve.http as http_module

        monkeypatch.setattr(http_module, "MAX_SESSIONS", 1)
        with ReproHTTPServer(workers=1) as srv:
            for name in ("caveman", "communities"):
                srv.register_graph(load_dataset(name), source="json")
            assert srv.queue.runner.max_sessions is None
            server = srv.metrics()["server"]
        assert (server["sessions"], server["evicted_sessions"]) == (2, 0)


class TestJobLifecycle:
    def test_submit_poll_result(self, client):
        fp = client.upload_dataset("caveman")
        issued = client.submit(fp, problem="coreness", rounds=6)
        assert issued["job"].startswith("j")
        assert issued["deduplicated"] is False
        done = client.result(issued["job"])
        assert done["status"] == "done"
        assert done["stats"]["rounds"] == 6
        assert done["objective"] == pytest.approx(
            Session(load_dataset("caveman")).coreness(rounds=6).max_value)

    def test_full_result_is_bit_identical_to_inprocess(self, client):
        fp = client.upload_dataset("caveman")
        issued = client.submit(fp, problem="coreness", rounds=6)
        doc = client.result(issued["job"], include_result=True)
        reference = Session(load_dataset("caveman")).coreness(rounds=6)
        assert doc["result"] == json.loads(json.dumps(reference.to_dict()))

    def test_poll_without_wait_reports_pending(self, client, gated_problem):
        fp = client.upload_dataset("caveman")
        issued = client.submit(fp, problem="gated-http", rounds=3)
        assert gated_problem.started.wait(timeout=10)
        assert client.poll(issued["job"])["status"] == "pending"
        gated_problem.release.set()
        assert client.result(issued["job"])["status"] == "done"

    def test_submit_to_unknown_graph_is_404(self, client):
        with pytest.raises(UnknownResourceError):
            client.submit("e" * 64, problem="coreness", rounds=3)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(UnknownResourceError):
            client.poll("j424242")

    def test_invalid_params_fail_at_submission(self, client):
        fp = client.upload_dataset("caveman")
        with pytest.raises(AlgorithmError):
            client.submit(fp, problem="coreness", rounds=3, epsilon=0.5)
        with pytest.raises(AlgorithmError):
            client.submit(fp, problem="nope", rounds=3)
        with pytest.raises(WireFormatError, match="unknown job field"):
            client.submit(fp, problem="coreness", rounds=3, frobnicate=1)

    def test_worker_failures_surface_as_error_documents(self, client):
        class _FailingHTTP(CorenessProblem):
            name = "failing-http"

            def solve(self, session, **params):
                raise RuntimeError("deliberate worker failure")

        register_problem("failing-http", _FailingHTTP)
        try:
            fp = client.upload_dataset("caveman")
            issued = client.submit(fp, problem="failing-http", rounds=3)
            with pytest.raises(Exception, match="deliberate worker failure"):
                client.result(issued["job"])
            doc = client.poll(issued["job"])
            assert doc["status"] == "error"
            assert doc["error"]["code"] == "error"
        finally:
            problems_module._FACTORIES.pop("failing-http", None)

    def test_jobs_listing(self, client):
        fp = client.upload_dataset("caveman")
        ids = {client.submit(fp, problem="coreness", rounds=r)["job"]
               for r in (3, 4)}
        for job_id in ids:
            client.result(job_id)
        assert {doc["job"] for doc in client.jobs()} == ids


class TestMalformedWireInput:
    """Malformed bodies answer 400 with a typed code: never 500, never coerced."""

    @pytest.mark.parametrize("method,route,body,code", [
        ("PUT", "/graphs", {"format": "repro-graph-v1"}, "graph"),
        ("PUT", "/graphs", {"format": "repro-graph-v1", "nodes": [1, 2],
                            "edges": [[1]]}, "graph"),
        ("PUT", "/graphs", {"edge_list": "1 2 x\n"}, "graph"),
        ("PUT", "/graphs", {"edge_list": "1 2 nan\n2 3 1\n"}, "graph"),
        ("PUT", "/graphs", {"edge_list": "1 2 inf\n"}, "graph"),
        ("POST", "deltas", {"delta": {"add_edges": [["a", "b", "w"]]}},
         "graph"),
        ("POST", "deltas", {"delta": {"add_nodes": 5}}, "graph"),
        ("POST", "jobs", {"rounds": "abc"}, "bad-request"),
        ("POST", "jobs", {"epsilon": "x"}, "bad-request"),
        ("POST", "jobs", {"rounds": 3, "lam": "x"}, "bad-request"),
        ("POST", "jobs", {"rounds": 3, "name": ["a"]}, "bad-request"),
        ("POST", "jobs", {"rounds": 3.5}, "bad-request"),
        ("POST", "jobs", {"rounds": True}, "bad-request"),
        ("POST", "jobs", {"rounds": 3, "track_kept": "x"}, "bad-request"),
    ])
    def test_answers_400_with_a_typed_code(self, server, client, method,
                                           route, body, code):
        fp = client.upload_dataset("caveman")
        path = route if route.startswith("/") else f"/graphs/{fp}/{route}"
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request(method, path, body=json.dumps(body),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            status, document = response.status, json.loads(response.read())
        finally:
            conn.close()
        assert status == 400, document
        assert document["error"]["code"] == code
        assert client.jobs() == []


def _raw_exchange(server, request: bytes, *, close_write: bool = False):
    """Send hand-built request bytes; read until the server closes.

    Returns ``(status, head, document)`` of the response.  A server that keeps
    the connection open times the read out, and a second response after the
    first makes the JSON parse fail, so both count against the test.
    """
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), head, json.loads(body)


class TestRequestBodyLength:
    """``Content-Length`` is checked, not trusted (raw sockets: a
    well-behaved client never sends these requests).  Each rule is checked
    on both readers of a body: the JSON one and the ``text/plain`` upload."""

    @pytest.mark.parametrize("content_type", ["application/json",
                                              "text/plain"])
    def test_oversized_body_is_413_and_closes_the_connection(
            self, server, client, content_type):
        request = (b"PUT /graphs HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Type: " + content_type.encode() + b"\r\n"
                   b"Content-Length: 100000000000\r\n\r\n")
        status, head, document = _raw_exchange(server, request)
        assert status == 413, document
        assert document["error"]["code"] == "payload-too-large"
        assert b"connection: close" in head.lower()
        assert client.graphs() == [] and client.jobs() == []

    @pytest.mark.parametrize("content_type,body", [
        ("application/json", b'{"dataset": "caveman"}'),
        ("text/plain", b"0 1\n1 2\n2 3"),  # 4 nodes
    ], ids=["application/json", "text/plain"])
    def test_truncated_body_is_400_and_registers_nothing(
            self, server, client, content_type, body):
        # Declares 40 bytes, sends a shorter body that parses, closes.
        request = (b"PUT /graphs HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Type: " + content_type.encode() + b"\r\n"
                   b"Content-Length: 40\r\n\r\n" + body)
        status, _, document = _raw_exchange(server, request, close_write=True)
        assert status == 400, document
        assert document["error"]["code"] == "bad-request"
        assert client.graphs() == [] and client.jobs() == []

    @pytest.mark.parametrize("length", [b"abc", b"-1"])
    def test_malformed_length_is_400_and_registers_nothing(self, server,
                                                           client, length):
        # A negative length would otherwise read as an empty edge list.
        request = (b"PUT /graphs HTTP/1.1\r\nHost: test\r\n"
                   b"Content-Type: text/plain\r\n"
                   b"Content-Length: " + length + b"\r\n\r\n")
        status, _, document = _raw_exchange(server, request, close_write=True)
        assert status == 400, document
        assert document["error"]["code"] == "bad-request"
        assert client.graphs() == [] and client.jobs() == []


class TestInFlightDedupOverTheWire:
    def test_identical_inflight_submissions_share_one_job_id(
            self, server, client, gated_problem):
        fp = client.upload_dataset("caveman")
        first = client.submit(fp, problem="gated-http", rounds=3)
        assert gated_problem.started.wait(timeout=10)
        second = client.submit(fp, problem="gated-http", rounds=3)
        assert second["job"] == first["job"]
        assert second["deduplicated"] is True
        gated_problem.release.set()
        assert client.result(first["job"])["status"] == "done"
        metrics = client.metrics()
        assert metrics["serve"]["dedup_hits"] == 1
        assert metrics["serve"]["submitted"] == 1
        assert metrics["serve"]["per_problem"] == {"gated-http": 2}


class TestQuotas:
    def test_exhausted_bucket_is_429_with_retry_after(self):
        with ReproHTTPServer(workers=1, quota_rate=0.001,
                             quota_burst=2.0) as server:
            with ServeClient(server.host, server.port, tenant="busy") as cli:
                fp = cli.upload_dataset("caveman")        # token 1
                cli.submit(fp, problem="coreness", rounds=3)  # token 2
                with pytest.raises(QuotaExceededError) as info:
                    cli.submit(fp, problem="coreness", rounds=4)
                assert info.value.retry_after > 0
                # Polling is quota-free: a throttled client can still collect.
                assert cli.metrics()["server"]["rejected_quota"] == 1

    def test_tenants_have_independent_buckets(self):
        with ReproHTTPServer(workers=1, quota_rate=0.001,
                             quota_burst=1.0) as server:
            with ServeClient(server.host, server.port, tenant="a") as one:
                fp = one.upload_dataset("caveman")
                with pytest.raises(QuotaExceededError):
                    one.submit(fp, problem="coreness", rounds=3)
                with ServeClient(server.host, server.port, tenant="b") as two:
                    issued = two.submit(fp, problem="coreness", rounds=3)
                    assert two.result(issued["job"])["status"] == "done"

    def test_token_bucket_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_acquire() == 0.0
        retry = bucket.try_acquire()
        assert 0.0 < retry <= 0.1

    def test_invalid_bucket_bounds_rejected(self):
        with pytest.raises(ServeError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ServeError):
            TokenBucket(rate=1.0, burst=-2.0)


class TestBackpressure:
    def test_submission_beyond_max_pending_is_429(self, gated_problem):
        with ReproHTTPServer(workers=1, max_pending=1) as server:
            with ServeClient(server.host, server.port) as cli:
                fp = cli.upload_dataset("caveman")
                first = cli.submit(fp, problem="gated-http", rounds=3)
                assert gated_problem.started.wait(timeout=10)
                with pytest.raises(QueueFullError):
                    cli.submit(fp, problem="coreness", rounds=4)
                # Identical in-flight requests coalesce even at capacity.
                dup = cli.submit(fp, problem="gated-http", rounds=3)
                assert dup["job"] == first["job"] and dup["deduplicated"]
                gated_problem.release.set()
                assert cli.result(first["job"])["status"] == "done"
                metrics = cli.metrics()
                assert metrics["server"]["rejected_backpressure"] == 1
                assert metrics["serve"]["queue_depth"] == 0

    def test_queue_full_refusal_answers_status_429(self, gated_problem):
        # ServeClient maps error codes, not statuses, to classes, so read
        # the status line itself: a QueueFullError is a ServeError, whose
        # own row answers 503.
        with ReproHTTPServer(workers=1, max_pending=1) as server:
            with ServeClient(server.host, server.port) as cli:
                fp = cli.upload_dataset("caveman")
                first = cli.submit(fp, problem="gated-http", rounds=3)
                assert gated_problem.started.wait(timeout=10)
                conn = http.client.HTTPConnection(server.host, server.port,
                                                  timeout=10)
                try:
                    conn.request("POST", f"/graphs/{fp}/jobs",
                                 body=json.dumps({"problem": "coreness",
                                                  "rounds": 4}),
                                 headers={"Content-Type": "application/json"})
                    response = conn.getresponse()
                    document = json.loads(response.read())
                finally:
                    conn.close()
                assert response.status == 429, document
                assert document["error"]["code"] == "queue-full"
                gated_problem.release.set()
                assert cli.result(first["job"])["status"] == "done"


class TestBatchStreaming:
    def test_streams_in_submission_order(self, client):
        fp = client.upload_dataset("caveman")
        requests = _mixed_requests()
        docs = list(client.batch(fp, requests))
        assert [d["problem"] for d in docs] == [r["problem"] for r in requests]
        assert all(d["status"] == "done" for d in docs)

    def test_duplicate_batch_entries_coalesce(self, server, client,
                                              gated_problem):
        # The gate holds the first entry in flight until its duplicate has
        # demonstrably coalesced (or a timeout frees the batch so the
        # assertion can fail with evidence instead of hanging).
        fp = client.upload_dataset("caveman")

        def release_after_dedup():
            tick = threading.Event()
            for _ in range(1000):
                if server.queue.stats.deduplicated >= 1:
                    break
                tick.wait(0.01)
            gated_problem.release.set()

        releaser = threading.Thread(target=release_after_dedup, daemon=True)
        releaser.start()
        docs = list(client.batch(
            fp, [{"problem": "gated-http", "rounds": 3},
                 {"problem": "orientation", "rounds": 3},
                 {"problem": "gated-http", "rounds": 3}]))
        releaser.join(timeout=30)
        assert docs[0]["job"] == docs[2]["job"]
        assert client.metrics()["serve"]["dedup_hits"] == 1

    def test_batch_results_match_inprocess(self, client):
        fp = client.upload_dataset("caveman")
        docs = list(client.batch(fp, [{"problem": "coreness", "rounds": 6}],
                                 include_result=True))
        reference = Session(load_dataset("caveman")).coreness(rounds=6)
        assert docs[0]["result"] == json.loads(json.dumps(reference.to_dict()))

    def test_empty_batch_is_a_wire_error(self, client):
        fp = client.upload_dataset("caveman")
        with pytest.raises(WireFormatError):
            list(client.batch(fp, []))

    def test_bad_request_fails_the_batch_before_any_job_is_submitted(
            self, client):
        fp = client.upload_dataset("caveman")
        with pytest.raises(AlgorithmError, match="rounds"):
            list(client.batch(fp, [{"rounds": 3}, {"rounds": -1}]))
        assert client.jobs() == []


class TestMetricsDocument:
    def test_shape(self, client):
        fp = client.upload_dataset("caveman")
        issued = client.submit(fp, problem="coreness", rounds=3)
        client.result(issued["job"])
        metrics = client.metrics()
        assert metrics["server"]["graphs"] == 1
        assert metrics["server"]["draining"] is False
        assert metrics["serve"]["submitted"] == 1
        assert metrics["serve"]["completed"] == 1
        assert metrics["jobs"] == {"total": 1, "pending": 0, "done": 1,
                                   "error": 0}
        assert metrics["store"] is None          # no store configured
        assert metrics["session"]["result_hits"] >= 0
        assert metrics["session"]["disk_hits"] == 0

    def test_frontier_peak_is_a_max_gauge(self, monkeypatch, tmp_path):
        import repro.serve.http as http_module

        graphs = {5: load_dataset("caveman"), 7: load_dataset("communities")}
        with ReproHTTPServer(workers=1) as srv:
            for peak, graph in graphs.items():
                srv.register_graph(graph, source="json")
                srv.queue.runner.session(graph).stats.frontier_peak_nodes = peak
            assert srv.metrics()["session"]["frontier_peak_nodes"] == 7
            text = srv.render_prometheus()
        assert "# TYPE repro_session_frontier_peak_nodes gauge" in text
        assert "repro_session_frontier_peak_nodes 7" in text.splitlines()
        assert "repro_session_frontier_peak_nodes_total" not in text

        # An evicted session's peak still counts, and the bound shows.
        monkeypatch.setattr(http_module, "MAX_SESSIONS", 1)
        with ReproHTTPServer(workers=1, store=tmp_path / "store") as srv:
            for peak, graph in sorted(graphs.items(), reverse=True):
                srv.register_graph(graph, source="json")
                srv.queue.runner.session(graph).stats.frontier_peak_nodes = peak
            metrics = srv.metrics()
            lines = srv.render_prometheus().splitlines()
        assert metrics["session"]["frontier_peak_nodes"] == 7
        assert (metrics["server"]["sessions"],
                metrics["server"]["evicted_sessions"]) == (1, 1)
        assert "repro_runner_sessions 1" in lines
        assert "# TYPE repro_runner_sessions_evicted_total counter" in lines
        assert "repro_runner_sessions_evicted_total 1" in lines

    def test_health(self, client):
        assert client.health()["status"] == "ok"


class TestRoundTripLatency:
    def test_health_round_trip_has_no_delayed_ack_stall(self, client):
        # With Nagle's algorithm on the server socket, a response's body
        # waited for the client's delayed ACK: ~40 ms per round trip.
        client.health()  # connect outside the timed loop
        samples = []
        for _ in range(20):
            start = time.perf_counter()
            client.health()
            samples.append(time.perf_counter() - start)
        assert statistics.median(samples) < 0.020


class TestConcurrentWireEquivalence:
    """Satellite 4 / acceptance: >=4 client threads of mixed problems against
    a live server, bit-identical to sequential in-process solves."""

    THREADS = 4

    def _reference(self):
        expected = {}
        for dataset in ("caveman", "communities"):
            session = Session(load_dataset(dataset))
            for request in _mixed_requests():
                result = session.solve(request["problem"],
                                       rounds=request["rounds"])
                expected[(dataset, request["problem"], request["rounds"])] = (
                    json.loads(json.dumps(result.to_dict())))
        return expected

    def test_concurrent_clients_match_sequential_sessions(self, server):
        expected = self._reference()
        with ServeClient(server.host, server.port) as setup:
            fps = {name: setup.upload_dataset(name)
                   for name in ("caveman", "communities")}
        outcomes, failures = {}, []

        def hammer(thread_index):
            try:
                with ServeClient(server.host, server.port) as cli:
                    # Each thread walks the full matrix from a different
                    # offset, so distinct requests race on every graph.
                    work = [(d, r) for d in ("caveman", "communities")
                            for r in _mixed_requests()]
                    offset = thread_index % len(work)
                    for dataset, request in work[offset:] + work[:offset]:
                        issued = cli.submit(fps[dataset], **request)
                        doc = cli.result(issued["job"], include_result=True)
                        outcomes[(thread_index, dataset, request["problem"],
                                  request["rounds"])] = doc["result"]
            except Exception as exc:  # pragma: no cover - diagnostic path
                failures.append((thread_index, exc))

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        assert len(outcomes) == self.THREADS * len(expected)
        for (_, dataset, problem, rounds), result in outcomes.items():
            assert result == expected[(dataset, problem, rounds)], (
                dataset, problem, rounds)

    def test_solve_many_coalesces_duplicates(self, server, gated_problem):
        # The gate keeps the first submission in flight while its three
        # duplicates arrive, so all four must land on one job id.
        def release_after_dedup():
            tick = threading.Event()
            for _ in range(1000):
                if server.queue.stats.deduplicated >= 3:
                    break
                tick.wait(0.01)
            gated_problem.release.set()

        releaser = threading.Thread(target=release_after_dedup, daemon=True)
        releaser.start()
        with ServeClient(server.host, server.port) as cli:
            fp = cli.upload_dataset("caveman")
            requests = [{"problem": "gated-http", "rounds": 5}] * 4
            docs = solve_many(cli, fp, requests)
            releaser.join(timeout=30)
            assert len({doc["job"] for doc in docs}) == 1
            assert all(doc["status"] == "done" for doc in docs)


class TestStoreAndDrain:
    def test_restart_from_store_serves_disk_hits(self, tmp_path):
        store = tmp_path / "store"
        requests = _mixed_requests()
        with ReproHTTPServer(workers=2, store=store) as first:
            with ServeClient(first.host, first.port) as cli:
                fp = cli.upload_dataset("caveman")
                before = [doc["result"] for doc in
                          (cli.result(cli.submit(fp, **r)["job"],
                                      include_result=True)
                           for r in requests)]
        # Graceful drain must leave no half-written artifacts behind.
        stray = [p for p in store.rglob("*") if "tmp" in p.name]
        assert stray == []
        with ReproHTTPServer(workers=2, store=store) as second:
            with ServeClient(second.host, second.port) as cli:
                fp = cli.upload_dataset("caveman")
                after = [doc["result"] for doc in
                         (cli.result(cli.submit(fp, **r)["job"],
                                     include_result=True)
                          for r in requests)]
                metrics = cli.metrics()
                assert metrics["session"]["disk_hits"] >= 1
                assert metrics["store"]["files"] > 0
        assert after == before

    def test_drain_is_idempotent_and_kills_the_socket(self, server):
        host, port = server.host, server.port
        with ServeClient(host, port) as cli:
            assert cli.health()["status"] == "ok"
        server.drain()
        server.drain()
        with ServeClient(host, port, timeout=2.0) as cli:
            with pytest.raises(ServeError):
                cli.health()

    def test_drain_finishes_inflight_jobs(self, gated_problem):
        server = ReproHTTPServer(workers=1).start()
        with ServeClient(server.host, server.port) as cli:
            fp = cli.upload_dataset("caveman")
            issued = cli.submit(fp, problem="gated-http", rounds=3)
        assert gated_problem.started.wait(timeout=10)
        release = threading.Timer(0.05, gated_problem.release.set)
        release.start()
        server.drain()   # must wait for the job, not abandon it
        release.join()
        record = server.job_record(issued["job"])
        assert record.future.done() and record.future.exception() is None


class TestCLIServeCommand:
    def test_command_serve_runs_and_drains(self, tmp_path):
        import io
        import re

        from repro.cli import _build_parser, _command_serve

        args = _build_parser().parse_args(
            ["serve", "--host", "127.0.0.1", "--port", "0",
             "--store", str(tmp_path / "store"), "--workers", "2"])
        out, ready, stop = io.StringIO(), threading.Event(), threading.Event()
        runner = threading.Thread(
            target=_command_serve, args=(args, out, ready, stop), daemon=True)
        runner.start()
        assert ready.wait(timeout=30), "server never came up"
        port = int(re.search(r"http://127\.0\.0\.1:(\d+)", out.getvalue())
                   .group(1))
        with ServeClient("127.0.0.1", port) as cli:
            fp = cli.upload_dataset("caveman")
            issued = cli.submit(fp, problem="coreness", rounds=3)
            assert cli.result(issued["job"])["status"] == "done"
        stop.set()
        runner.join(timeout=30)
        assert not runner.is_alive()
        assert "drained" in out.getvalue()
