"""A stateful machine over delta lineage: the server's bounded session map,
weak parent links and restarts from the store.

One ``hypothesis.stateful`` machine drives an in-process
:class:`~repro.serve.http.ReproHTTPServer` whose session bound is patched to
2, so most steps evict a session and most jobs re-open one, next to chains
of plain :class:`~repro.session.Session` versions that the machine drops at
random (their children then seed from the store or solve cold).  Each plain
chain runs on an engine drawn at its root and inherited by its children:
``vectorized``, sequential or threaded ``sharded``.  The spill threshold
:data:`repro.session.SPILL_BYTES` is patched to :data:`SPILL_AT`, so a
store-backed version appends its larger trajectories to the shared store's
``.traj`` files as they are computed (beside the server's appends) and keeps
its smaller ones in RAM.  Every run starts one stored chain whose child is
solved by frontier above the threshold, and fails unless some spilled
version was frontier-solved.  After every step:

* every answer equals a cold ``vectorized`` solve of its version's graph:
  the answer's JSON, the trajectory rows and, for orientations, the
  in-weights (part of that JSON); a stored plain version whose trajectory
  reaches the threshold maps its own ``.traj`` file, frontier re-solves
  included;
* every server record's content fingerprint equals ``graph_fingerprint`` of
  its graph, which equals the graph the machine derived on its own;
* a delta POST answers ``chain_fingerprint(parent, delta)``, and a replayed
  one ``created: false`` with the fingerprint it answered before;
* no aggregate session counter of ``/metrics`` decreased.

Weights are integer or dyadic, so bit-identity is the contract.
"""

from __future__ import annotations

import copy
import gc
import json
import os
import shutil
import tempfile
import unittest
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule,
                                 run_state_machine_as_test)

import repro.serve.http as http_module
import repro.session as session_module
from repro.graph.csr import graph_fingerprint
from repro.graph.delta import GraphDelta, apply_delta, chain_fingerprint
from repro.graph.graph import Graph
from repro.serve.http import ReproHTTPServer
from repro.session import Session
from repro.store import ArtifactStore
from repro.store.traj import rows_path

_WEIGHTS = st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.0))
_PROBLEMS = st.sampled_from(("coreness", "orientation"))
#: Few budgets and two λ, so versions of a chain meet requests their
#: parents have answered (the frontier re-solve's precondition).
_ROUNDS = st.sampled_from((2, 4, 7))
_LAMS = st.sampled_from((0.0, 0.5))
#: Engines a plain chain runs on; every one must answer as cold vectorized.
_ENGINES = st.sampled_from(("vectorized", "sharded:3",
                            "sharded:shards=3,workers=2"))

#: The patched spill threshold: a stored version spills once
#: ``(T + 1) · n ≥ 40`` (T = 7 from 5 nodes, T = 4 from 8, T = 2 from 14).
SPILL_AT = 40 * 8

#: What the plain checks saw across one run of the machine.
_SEEN = Counter()


def _newest_first(items):
    """Pick from ``items`` with the newest (last) ones drawn most often."""
    return st.sampled_from(list(items)[::-1])


@st.composite
def _graphs(draw, min_nodes: int = 2) -> Graph:
    n = draw(st.integers(min_nodes, 12))
    graph = Graph(nodes=range(n))
    node = st.integers(0, n - 1)
    for u, v, w in draw(st.lists(st.tuples(node, node, _WEIGHTS),
                                 max_size=3 * n)):
        graph.add_edge(u, v, w)
    return graph


def _draw_delta(data, graph: Graph) -> GraphDelta:
    nodes = list(graph.nodes())
    edges = sorted({(u, v) for u, v, _ in graph.edges()})
    new = [max(nodes) + 1 + i for i in range(data.draw(st.integers(0, 2)))]
    pool = st.sampled_from(nodes + new)
    removed = (data.draw(st.lists(st.sampled_from(edges), unique=True,
                                  max_size=2)) if edges else [])
    edits = st.lists(st.tuples(pool, pool, _WEIGHTS), max_size=2,
                     unique_by=lambda edit: (min(edit[:2]), max(edit[:2])))
    return GraphDelta(add_nodes=new[:data.draw(st.integers(0, len(new)))],
                      remove_edges=removed, set_weights=data.draw(edits),
                      add_edges=data.draw(edits))


def _cold(graph: Graph, problem: str, rounds: int, lam: float):
    params = {"rounds": rounds}
    if problem == "coreness":
        params["lam"] = lam
    return Session(graph, engine="vectorized").solve(problem, **params)


class LineageMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="repro-lineage-"))
        self.store = ArtifactStore(self.tmp / "store")
        #: server version -> the graph the machine derived for it
        self.expected = {}
        #: (parent version, delta) -> the version it made
        self.posted = {}
        #: what the server was told, in order, for replay after a restart
        self.uploads, self.history = [], []
        #: plain Session versions the machine still holds
        self.plain = []
        self.server = self._open_server()
        self.totals = {}

    def _open_server(self) -> ReproHTTPServer:
        with mock.patch.object(http_module, "MAX_SESSIONS", 2):
            return ReproHTTPServer(workers=2, store=self.store)

    def _close_server(self) -> None:
        self.server.queue.close(wait=True)
        self.server.server_close()

    def teardown(self) -> None:
        self._close_server()
        shutil.rmtree(self.tmp, ignore_errors=True)

    # ------------------------------------------------------------ server side
    @initialize(graph=_graphs())
    def first_upload(self, graph):
        self.upload(graph)

    @rule(graph=_graphs())
    def upload(self, graph):
        fingerprint, created = self.server.register_graph(
            copy.deepcopy(graph), source="json")
        assert created == (fingerprint not in self.expected)
        if created:
            self.expected[fingerprint] = graph
            self.uploads.append(graph)

    @precondition(lambda self: self.expected)
    @rule(data=st.data(), warm=st.booleans(), problem=_PROBLEMS,
          rounds=_ROUNDS, lam=_LAMS)
    def post_delta(self, data, warm, problem, rounds, lam):
        """POST a delta on a version (a replay, or a new one); ``warm`` runs
        one job on the parent before it and the same job on the child after
        it, the shape of a stream of updates."""
        parent = data.draw(_newest_first(self.expected))
        replays = [delta for (fp, delta) in self.posted if fp == parent]
        if replays and data.draw(st.booleans()):
            delta = data.draw(st.sampled_from(replays))
        else:
            delta = _draw_delta(data, self.expected[parent])
        if warm:
            self._job(parent, problem, rounds, lam)
        doc = self.server.apply_delta(parent, {"delta": delta.to_dict()})
        assert doc["fingerprint"] == chain_fingerprint(parent, delta)
        made = self.posted.get((parent, delta))
        if made is not None:
            assert doc["created"] is False and doc["fingerprint"] == made
        else:
            assert doc["created"] is True
            self.posted[(parent, delta)] = doc["fingerprint"]
            self.history.append((parent, delta))
            self.expected[doc["fingerprint"]] = apply_delta(
                self.expected[parent], delta)
        if warm:
            self._job(doc["fingerprint"], problem, rounds, lam)

    @precondition(lambda self: self.expected)
    @rule(data=st.data(), problem=_PROBLEMS, rounds=_ROUNDS, lam=_LAMS)
    def run_job(self, data, problem, rounds, lam):
        self._job(data.draw(_newest_first(self.expected)), problem, rounds,
                  lam)

    def _job(self, version, problem, rounds, lam):
        payload = {"problem": problem, "rounds": rounds}
        if problem == "coreness":
            payload["lam"] = lam
        else:
            lam = 0.0
        record = self.server.job_record(
            self.server.submit_job(version, payload)["job"])
        self.server.wait_job(record, 30)
        doc = self.server.job_document(record, include_result=True)
        assert doc["status"] == "done", doc
        graph = self.expected[version]
        cold = _cold(graph, problem, rounds, lam)
        assert json.dumps(doc["result"]) == json.dumps(cold.to_dict())
        stored = self.store.load_trajectory(graph_fingerprint(graph), lam,
                                            num_nodes=graph.num_nodes)
        assert stored is not None and stored.shape[0] > rounds
        assert stored[:rounds + 1].tobytes() == \
            cold.surviving.trajectory.tobytes()

    @rule()
    def restart(self):
        """A fresh server on the same store, told the same uploads and
        deltas: every version comes back under the same fingerprint."""
        self._close_server()
        self.server = self._open_server()
        self.totals = {}
        for graph in self.uploads:
            _, created = self.server.register_graph(copy.deepcopy(graph),
                                                    source="json")
            assert created
        for parent, delta in self.history:
            doc = self.server.apply_delta(parent, {"delta": delta.to_dict()})
            assert doc["created"] is True
            assert doc["fingerprint"] == self.posted[(parent, delta)]

    # ------------------------------------------------------- plain sessions
    @initialize(graph=_graphs(min_nodes=5), engine=_ENGINES, lam=_LAMS,
                weight=_WEIGHTS)
    def spilled_chain(self, graph, engine, lam, weight):
        """A stored root and a child one edge (to a new node) away, both
        solved at T = 7, so the child's frontier re-solve spills."""
        root = Session(copy.deepcopy(graph), engine=engine, store=self.store)
        self._plain(root, "coreness", 7, lam)
        child = root.apply_delta(
            GraphDelta(add_edges=[(0, graph.num_nodes, weight)]),
            max_frontier_fraction=1.0)
        self._plain(child, "coreness", 7, lam)
        self.plain += [root, child]

    @precondition(lambda self: self.expected)
    @rule(data=st.data(), stored=st.booleans(), engine=_ENGINES)
    def plain_root(self, data, stored, engine):
        graph = self.expected[data.draw(_newest_first(self.expected))]
        self.plain.append(Session(copy.deepcopy(graph), engine=engine,
                                  store=self.store if stored else None))

    @precondition(lambda self: self.plain)
    @rule(data=st.data(), fraction=st.sampled_from((0.25, 1.0)),
          warm=st.booleans(), rounds=_ROUNDS, lam=_LAMS)
    def plain_derive(self, data, fraction, warm, rounds, lam):
        """Derive a child of a held version; ``warm`` first solves the
        parent at both λ and then the child at one, so a later solve of the
        child at the other λ needs the parent's trajectory again."""
        parent = data.draw(_newest_first(self.plain))
        if warm:
            for each in (0.0, 0.5):
                self._plain(parent, "coreness", rounds, each)
        child = parent.apply_delta(_draw_delta(data, parent.graph),
                                   max_frontier_fraction=fraction)
        self.plain.append(child)
        if warm:
            self._plain(child, "coreness", rounds, lam)

    @precondition(lambda self: self.plain)
    @rule(data=st.data(), problem=_PROBLEMS, rounds=_ROUNDS, lam=_LAMS)
    def plain_solve(self, data, problem, rounds, lam):
        self._plain(data.draw(_newest_first(self.plain)), problem, rounds,
                    lam)

    @staticmethod
    def _plain(session, problem, rounds, lam):
        frontier_runs = session.stats.incremental_runs
        if problem == "orientation":
            lam = 0.0
            answer = session.orientation(rounds=rounds)
        else:
            answer = session.coreness(rounds=rounds, lam=lam)
        cold = _cold(session.graph, problem, rounds, lam)
        assert json.dumps(answer.to_dict()) == json.dumps(cold.to_dict())
        trajectory = answer.surviving.trajectory
        assert trajectory.tobytes() == cold.surviving.trajectory.tobytes()
        # A stored version whose trajectory reaches the threshold maps its
        # own .traj, whether it was solved cold, resumed, re-solved by
        # frontier or read back from the store.
        if session.store is not None and \
                (rounds + 1) * session.graph.num_nodes * 8 >= SPILL_AT:
            assert isinstance(trajectory, np.memmap)
            assert os.path.samefile(trajectory.filename, rows_path(
                session.store.root, session.fingerprint, lam))
            if session.stats.incremental_runs > frontier_runs:
                _SEEN["spilled frontier"] += 1

    @precondition(lambda self: self.plain)
    @rule(data=st.data())
    def drop(self, data):
        """Drop the machine's last reference to one plain version."""
        del self.plain[data.draw(st.integers(0, len(self.plain) - 1))]
        gc.collect()

    # ------------------------------------------------------------ invariants
    @invariant()
    def records_are_fingerprinted_by_content(self):
        for doc in self.server.graphs_document()["graphs"]:
            version = doc["fingerprint"]
            content = graph_fingerprint(self.server.graph_record(version).graph)
            assert content == doc.get("content_fingerprint", version)
            assert content == graph_fingerprint(self.expected[version])
        for session in self.plain:
            assert session.fingerprint == graph_fingerprint(session.graph)

    @invariant()
    def no_counter_decreases(self):
        metrics = self.server.metrics()
        assert metrics["server"]["sessions"] <= 2
        now = metrics["session"]
        assert all(now[key] >= value for key, value in self.totals.items())
        self.totals = now


def _run(max_examples: int) -> None:
    """Run the machine for ``max_examples`` examples under the patched spill
    threshold; fail unless it solved a spilled frontier child."""
    _SEEN.clear()
    with mock.patch.object(session_module, "SPILL_BYTES", SPILL_AT):
        run_state_machine_as_test(LineageMachine, settings=settings(
            max_examples=max_examples, stateful_step_count=30, deadline=None,
            suppress_health_check=[HealthCheck.too_slow,
                                   HealthCheck.filter_too_much]))
    assert _SEEN["spilled frontier"] > 0, _SEEN


class TestLineageMachine(unittest.TestCase):
    def runTest(self):
        _run(40)


@pytest.mark.slow
def test_lineage_machine_long_profile():
    """Five times the tier-1 examples; ``scripts/check.sh`` runs it in its
    ``slow`` step."""
    _run(200)
