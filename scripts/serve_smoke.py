#!/usr/bin/env python
"""Smoke-test the HTTP service the way an operator runs it.

Launches ``python -m repro serve`` as a real subprocess on an ephemeral
port backed by a throwaway store, then over a real socket: uploads the
caveman dataset, runs one job per registered problem, fetches each answer
with ``include=result`` and compares it with ``to_dict()`` of the same
request solved by an in-process ``Session`` on the same dataset, checks ``/metrics``
accounting (both the JSON document and the Prometheus text exposition),
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
from repro.serve.client import ServeClient  # noqa: E402
from repro.session import Session  # noqa: E402

BANNER = re.compile(r"listening on http://([^:]+):(\d+)")
DATASET = "caveman"
PROBLEMS = ("coreness", "orientation", "densest")
ROUNDS = 6
MAX_HEALTH_RTT = 0.020
SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$')


def check_prometheus_exposition(host, port):
    """Scrape /metrics?format=prometheus and parse the text exposition."""
    url = f"http://{host}:{port}/metrics?format=prometheus"
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.status == 200, response.status
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain; version=0.0.4"), \
            content_type
        text = response.read().decode("utf-8")
    names = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            assert parts[0] == "#" and parts[1] in ("HELP", "TYPE"), line
            continue
        assert SAMPLE_LINE.match(line), f"unparseable sample line: {line!r}"
        names.add(line.split("{", 1)[0].split(" ", 1)[0])
    required = {"repro_http_jobs", "repro_http_jobs_by_status",
                "repro_serve_submitted_total", "repro_solve_latency_seconds_count"}
    missing = required - names
    assert not missing, f"exposition is missing families: {missing}"
    return len(names)


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
            families = check_prometheus_exposition(host, port)
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
          f"median /health round trip {rtt * 1e3:.2f} ms, graceful drain, "
          "no staging files left behind")
    return 0


if __name__ == "__main__":
    sys.exit(main())
