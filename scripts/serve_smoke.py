#!/usr/bin/env python
"""Smoke-test the HTTP service the way an operator runs it.

Launches ``python -m repro serve`` as a real subprocess on an ephemeral
port backed by a throwaway store, then over a real socket: uploads the
caveman dataset, runs one job per registered problem, fetches each answer
with ``include=result`` and compares it with ``to_dict()`` of the same
request solved by an in-process ``Session`` on the same dataset, checks ``/metrics``
accounting (both the JSON document and the Prometheus text exposition),
posts a chain of ``MAX_SESSIONS + 8`` deltas and solves each version (so the
runner evicts the first versions' sessions), then re-solves the first delta
version (the same answer, one more disk hit, no new cold run), replays the
delta that made it and the delta posted on it (each ``created: false``, the
same fingerprint) and scrapes ``/metrics`` twice (no
``repro_session_*_total`` sample may fall), posts a second chain of
``MAX_SESSIONS + 8`` deltas with no job in between and solves its first
version last (a frontier re-solve from the root's stored trajectory: one more
incremental run, no new cold run, the in-process answer),
checks that the median of 20 ``/health`` round trips stays under
``MAX_HEALTH_RTT`` seconds (half the ~40 ms delayed-ACK stall a server
socket with Nagle's algorithm on adds to every response), and finally
SIGTERMs the server.  The drain must exit 0 and may not leave
``*.tmp`` staging files behind in the store (the atomic publish contract:
readers only ever see complete artifacts).

Used by scripts/check.sh; exits non-zero on any failure.
"""

from __future__ import annotations

import os
import pathlib
import re
import signal
import statistics
import subprocess
import sys
import json
import tempfile
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph.datasets import load_dataset  # noqa: E402
from repro.graph.delta import GraphDelta, apply_delta  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.http import MAX_SESSIONS  # noqa: E402
from repro.session import Session  # noqa: E402

BANNER = re.compile(r"listening on http://([^:]+):(\d+)")
DATASET = "caveman"
PROBLEMS = ("coreness", "orientation", "densest")
ROUNDS = 6
MAX_HEALTH_RTT = 0.020
SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$')


def scrape_prometheus(host, port):
    """Scrape /metrics?format=prometheus and parse the text exposition into
    ``{sample name (with labels): value}``."""
    url = f"http://{host}:{port}/metrics?format=prometheus"
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200, response.status
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain; version=0.0.4"), \
            content_type
        text = response.read().decode("utf-8")
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            assert parts[0] == "#" and parts[1] in ("HELP", "TYPE"), line
            continue
        assert SAMPLE_LINE.match(line), f"unparseable sample line: {line!r}"
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    names = {name.split("{", 1)[0] for name in samples}
    required = {"repro_http_jobs", "repro_http_jobs_by_status",
                "repro_serve_submitted_total", "repro_solve_latency_seconds_count",
                "repro_runner_sessions", "repro_runner_sessions_evicted_total",
                "repro_session_frontier_peak_nodes"}
    missing = required - names
    assert not missing, f"exposition is missing families: {missing}"
    return samples


def solve(client, fingerprint):
    """One coreness job on ``fingerprint``; its full result."""
    issued = client.submit(fingerprint, problem="coreness", rounds=ROUNDS)
    doc = client.result(issued["job"], include_result=True)
    assert doc["status"] == "done", doc
    return doc["result"]


def check_delta_chain(client, host, port, root):
    """Post a chain of ``MAX_SESSIONS + 8`` deltas, solving each version,
    so the runner evicts the first ones; then re-open the first delta
    version and replay both the delta that made it and the one posted on
    it."""
    graph = load_dataset(DATASET)
    edges = [(u, v) for u, v, _ in graph.edges()]
    deltas = [GraphDelta(set_weights=[(*edges[i], 2.0)])
              for i in range(MAX_SESSIONS + 8)]
    versions, first = [root], None
    for delta in deltas:
        doc = client.apply_delta(versions[-1], delta)
        assert doc["created"] is True, doc
        versions.append(doc["fingerprint"])
        answer = solve(client, versions[-1])
        first = answer if first is None else first
    before = client.metrics()
    assert before["server"]["sessions"] <= MAX_SESSIONS, before["server"]
    assert before["server"]["evicted_sessions"] >= 8, before["server"]
    scraped = scrape_prometheus(host, port)

    assert solve(client, versions[1]) == first, \
        "the re-opened first version answers differently"
    after = client.metrics()["session"]
    assert after["disk_hits"] > before["session"]["disk_hits"], after
    assert after["cold_runs"] == before["session"]["cold_runs"], after

    for at, delta, made in ((0, deltas[0], versions[1]),
                            (1, deltas[1], versions[2])):
        replay = client.apply_delta(versions[at], delta)
        assert replay["created"] is False, replay
        assert replay["fingerprint"] == made, \
            "a replayed delta on a re-opened version minted a new key"

    rescraped = scrape_prometheus(host, port)
    fell = [name for name, value in scraped.items()
            if name.startswith("repro_session_") and name.endswith("_total")
            and rescraped[name] < value]
    assert not fell, f"session counters fell across evictions: {fell}"
    return len(deltas)


def check_unsolved_chain(client, root):
    """Post ``MAX_SESSIONS + 8`` deltas with no job in between, so the first
    version is evicted before its first job; that job must still re-solve
    only the frontier, from the root's stored trajectory."""
    graph = load_dataset(DATASET)
    edges = [(u, v) for u, v, _ in graph.edges()]
    deltas = [GraphDelta(set_weights=[(*edges[i], 3.0)])
              for i in range(MAX_SESSIONS + 8)]
    solve(client, root)
    versions = [root]
    for delta in deltas:
        doc = client.apply_delta(versions[-1], delta,
                                 max_frontier_fraction=1.0)
        assert doc["created"] is True, doc
        versions.append(doc["fingerprint"])
    before = client.metrics()["session"]
    answer = solve(client, versions[1])
    after = client.metrics()["session"]
    assert after["incremental_runs"] == before["incremental_runs"] + 1, \
        "an evicted, never solved version lost its frontier re-solve"
    assert after["cold_runs"] == before["cold_runs"], after
    expected = Session(apply_delta(graph, deltas[0])).coreness(rounds=ROUNDS)
    assert answer == json.loads(json.dumps(expected.to_dict())), \
        "the evicted version answers differently from in-process"
    return len(deltas)


def health_rtt_median(client, samples=20):
    """Median wall time of ``samples`` keep-alive ``GET /health`` round trips."""
    client.health()  # connect outside the timed loop
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        client.health()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def wait_for_banner(proc, deadline=20.0):
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before announcing its port")
        match = BANNER.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise RuntimeError("server never announced its port")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        store = pathlib.Path(tmp) / "store"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(store), "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=REPO_ROOT, env=env)
        try:
            host, port = wait_for_banner(proc)
            local = Session(load_dataset(DATASET))
            with ServeClient(host, port) as client:
                fingerprint = client.upload_dataset(DATASET)
                jobs = [client.submit(fingerprint, problem=problem,
                                      rounds=ROUNDS)
                        for problem in PROBLEMS]
                for problem, issued in zip(PROBLEMS, jobs):
                    doc = client.result(issued["job"], include_result=True)
                    assert doc["status"] == "done", doc
                    expected = json.loads(json.dumps(
                        local.solve(problem, rounds=ROUNDS).to_dict()))
                    assert doc["result"] == expected, \
                        f"{problem}: the wire answer differs from in-process"
                metrics = client.metrics()
                serve = metrics["serve"]
                assert serve["submitted"] == len(PROBLEMS), serve
                assert serve["queue_depth"] == 0, serve
                assert metrics["store"] is not None, "store not wired in"
                assert metrics["store"]["files"] >= 1, metrics["store"]
                rtt = health_rtt_median(client)
                assert rtt < MAX_HEALTH_RTT, \
                    f"median /health round trip {rtt * 1e3:.1f} ms"
                families = len({name.split("{", 1)[0] for name
                                in scrape_prometheus(host, port)})
                chain = check_delta_chain(client, host, port, fingerprint)
                unsolved = check_unsolved_chain(client, fingerprint)
            proc.send_signal(signal.SIGTERM)
            returncode = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        output = proc.stdout.read()
        if returncode != 0:
            print(output, file=sys.stderr)
            print(f"serve smoke: server exited {returncode} on SIGTERM",
                  file=sys.stderr)
            return 1
        strays = [p for p in store.rglob("*") if "tmp" in p.name]
        if strays:
            print(f"serve smoke: drain left staging files: {strays}",
                  file=sys.stderr)
            return 1
        if not any(store.rglob("*.json")):
            print("serve smoke: store is empty after the run", file=sys.stderr)
            return 1
    print(f"serve smoke: {len(PROBLEMS)} problems over the wire, "
          "each answer equal to the in-process one, "
          f"{families} prometheus families parsed, "
          f"{chain} chained deltas past the session bound "
          "(first version re-opened as a disk hit, replay not re-applied, "
          "no session counter fell), "
          f"{unsolved} more posted unsolved (the first solved last, by "
          "frontier), "
          f"median /health round trip {rtt * 1e3:.2f} ms, graceful drain, "
          "no staging files left behind")
    return 0


if __name__ == "__main__":
    sys.exit(main())
