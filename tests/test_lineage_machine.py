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
version was frontier-solved.  Two rules act on held plain versions: one
writes in place (an added, re-weighted or removed edge) to the graph of a
version no held version derives from, or to a ``copy.copy`` of it, on a row
that graph shares copy-on-write with another held version, and replaces the
version's session with a fresh one on the written graph; the other opens
``Session(version.graph, store=same)`` on a stored version and must answer
from disk.  After every step:

* every answer equals a reference solve of its version's graph on a fresh
  ``Session(graph, engine=spec)``, the spec drawn per solve from the same
  three engines, at the solve's tie-break (drawn per orientation job and
  per plain solve from ``history``, ``stable`` and ``naive``): the answer's
  JSON, the trajectory rows and, bit for bit, the values and, for
  orientations, the in-weights; a stored plain version whose trajectory
  reaches the threshold maps its own ``.traj`` file, frontier re-solves
  included;
* a write to one graph leaves every other held version's
  ``graph_fingerprint`` as it was, and a fresh session on the written graph
  answers as a cold solve does;
* a restarted stored version answers bit-identically to the version, with a
  disk hit and no round executed, at a λ the version solved;
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
_BUDGETS = (2, 4, 7)
_ROUNDS = st.sampled_from(_BUDGETS)
_LAMS = st.sampled_from((0.0, 0.5))
#: Engines a plain chain runs on, and the reference solve's engine, drawn
#: per solve: one shard plan must answer as any other.
_ENGINES = st.sampled_from(("vectorized", "sharded:3",
                            "sharded:shards=3,workers=2"))
_TIE_BREAKS = st.sampled_from(("history", "stable", "naive"))

#: The patched spill threshold: a stored version spills once
#: ``(T + 1) · n ≥ 40`` (T = 7 from 5 nodes, T = 4 from 8, T = 2 from 14).
SPILL_AT = 40 * 8

#: What the plain checks and the write and restart rules saw across one run.
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


def _derives_from(session: Session, ancestor: Session) -> bool:
    """Whether ``ancestor`` is on ``session``'s chain of live parents."""
    parent = session.parent
    while parent is not None:
        if parent is ancestor:
            return True
        parent = parent.parent
    return False


def _cold(graph: Graph, problem: str, rounds: int, lam: float,
          tie_break: str, engine: str):
    """The reference answer: a fresh session on ``engine`` solves cold."""
    params = {"rounds": rounds, "tie_break": tie_break}
    if problem == "coreness":
        params["lam"] = lam
    return Session(graph, engine=engine).solve(problem, **params)


def _bits(values) -> bytes:
    """A value mapping's floats, in its own order, as bytes."""
    return np.fromiter(values.values(), dtype=np.float64,
                       count=len(values)).tobytes()


def _same_answer(answer, cold) -> None:
    assert json.dumps(answer.to_dict()) == json.dumps(cold.to_dict())
    assert list(answer.values) == list(cold.values)
    assert _bits(answer.values) == _bits(cold.values)
    if hasattr(answer, "orientation"):
        in_weight = answer.orientation.in_weight
        assert list(in_weight) == list(cold.orientation.in_weight)
        assert _bits(in_weight) == _bits(cold.orientation.in_weight)


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
        #: id of a held stored plain version -> {λ: largest T it solved}
        self.solved = {}
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
          rounds=_ROUNDS, lam=_LAMS, tie_break=_TIE_BREAKS,
          reference=_ENGINES)
    def post_delta(self, data, warm, problem, rounds, lam, tie_break,
                   reference):
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
            self._job(parent, problem, rounds, lam, tie_break, reference)
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
            self._job(doc["fingerprint"], problem, rounds, lam, tie_break,
                      reference)

    @precondition(lambda self: self.expected)
    @rule(data=st.data(), problem=_PROBLEMS, rounds=_ROUNDS, lam=_LAMS,
          tie_break=_TIE_BREAKS, reference=_ENGINES)
    def run_job(self, data, problem, rounds, lam, tie_break, reference):
        self._job(data.draw(_newest_first(self.expected)), problem, rounds,
                  lam, tie_break, reference)

    def _job(self, version, problem, rounds, lam, tie_break, reference):
        """A job on ``version``; an orientation job asks for ``tie_break``
        (a coreness job keeps the default), and the job's JSON, whose
        floats read back exactly, must equal the reference's."""
        payload = {"problem": problem, "rounds": rounds}
        if problem == "coreness":
            payload["lam"] = lam
            tie_break = "history"
        else:
            lam = 0.0
            payload["tie_break"] = tie_break
        record = self.server.job_record(
            self.server.submit_job(version, payload)["job"])
        self.server.wait_job(record, 30)
        doc = self.server.job_document(record, include_result=True)
        assert doc["status"] == "done", doc
        graph = self.expected[version]
        cold = _cold(graph, problem, rounds, lam, tie_break, reference)
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
                weight=_WEIGHTS, tie_break=_TIE_BREAKS, reference=_ENGINES)
    def spilled_chain(self, graph, engine, lam, weight, tie_break,
                      reference):
        """A stored root and a child one edge (to a new node) away, both
        solved at T = 7, so the child's frontier re-solve spills."""
        root = Session(copy.deepcopy(graph), engine=engine, store=self.store)
        self._plain(root, "coreness", 7, lam, tie_break, reference)
        child = root.apply_delta(
            GraphDelta(add_edges=[(0, graph.num_nodes, weight)]),
            max_frontier_fraction=1.0)
        self._plain(child, "coreness", 7, lam, tie_break, reference)
        self.plain += [root, child]

    @precondition(lambda self: self.expected)
    @rule(data=st.data(), stored=st.booleans(), engine=_ENGINES)
    def plain_root(self, data, stored, engine):
        graph = self.expected[data.draw(_newest_first(self.expected))]
        self.plain.append(Session(copy.deepcopy(graph), engine=engine,
                                  store=self.store if stored else None))

    @precondition(lambda self: self.plain)
    @rule(data=st.data(), fraction=st.sampled_from((0.25, 1.0)),
          warm=st.booleans(), rounds=_ROUNDS, lam=_LAMS,
          tie_break=_TIE_BREAKS, reference=_ENGINES)
    def plain_derive(self, data, fraction, warm, rounds, lam, tie_break,
                     reference):
        """Derive a child of a held version; ``warm`` first solves the
        parent at both λ and then the child at one, so a later solve of the
        child at the other λ needs the parent's trajectory again."""
        parent = data.draw(_newest_first(self.plain))
        if warm:
            for each in (0.0, 0.5):
                self._plain(parent, "coreness", rounds, each, tie_break,
                            reference)
        child = parent.apply_delta(_draw_delta(data, parent.graph),
                                   max_frontier_fraction=fraction)
        self.plain.append(child)
        if warm:
            self._plain(child, "coreness", rounds, lam, tie_break, reference)

    @precondition(lambda self: self.plain)
    @rule(data=st.data(), problem=_PROBLEMS, rounds=_ROUNDS, lam=_LAMS,
          tie_break=_TIE_BREAKS, reference=_ENGINES)
    def plain_solve(self, data, problem, rounds, lam, tie_break, reference):
        self._plain(data.draw(_newest_first(self.plain)), problem, rounds,
                    lam, tie_break, reference)

    def _plain(self, session, problem, rounds, lam, tie_break, reference):
        frontier_runs = session.stats.incremental_runs
        if problem == "orientation":
            lam = 0.0
            answer = session.orientation(rounds=rounds, tie_break=tie_break)
        else:
            answer = session.solve("coreness", rounds=rounds, lam=lam,
                                   tie_break=tie_break)
        cold = _cold(session.graph, problem, rounds, lam, tie_break,
                     reference)
        _same_answer(answer, cold)
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
        if session.store is not None:
            solved = self.solved.setdefault(id(session), {})
            solved[lam] = max(rounds, solved.get(lam, 0))
        return answer

    def _writable(self):
        """``(version, nodes)`` pairs: a held version no held version
        derives from, and the nodes whose rows its graph shares
        copy-on-write with another held version's graph."""
        pairs = []
        for session in self.plain:
            if any(_derives_from(other, session) for other in self.plain):
                continue
            rows = session.graph.neighbor_weights
            shared = [v for v in session.graph.nodes() if any(
                other is not session and other.graph.has_node(v) and
                other.graph.neighbor_weights(v) is rows(v)
                for other in self.plain)]
            if shared:
                pairs.append((session, shared))
        return pairs

    @precondition(lambda self: self._writable())
    @rule(data=st.data(), through_copy=st.booleans(), weight=_WEIGHTS,
          problem=_PROBLEMS, rounds=_ROUNDS, lam=_LAMS,
          tie_break=_TIE_BREAKS, reference=_ENGINES)
    def write_in_place(self, data, through_copy, weight, problem, rounds,
                       lam, tie_break, reference):
        """Add, re-weight or remove an edge at a shared row, in place, in a
        version's graph or in a ``copy.copy`` of it; a fresh Session on the
        written graph then replaces the version's."""
        version, shared = data.draw(st.sampled_from(self._writable()))
        graph = copy.copy(version.graph) if through_copy else version.graph
        untouched = [s.graph for s in self.plain if s is not version]
        if through_copy:
            untouched.append(version.graph)
        before = [graph_fingerprint(g) for g in untouched]
        node = data.draw(st.sampled_from(shared))
        neighbors = sorted(graph.neighbors(node))
        strangers = [v for v in graph.nodes()
                     if v != node and v not in graph.neighbor_weights(node)]
        edit = data.draw(st.sampled_from(
            (["add"] if strangers else []) +
            (["reweight", "remove"] if neighbors else [])))
        partner = data.draw(st.sampled_from(
            strangers if edit == "add" else neighbors))
        u, v = (node, partner) if data.draw(st.booleans()) else (partner, node)
        if edit == "remove":
            graph.remove_edge(u, v)
        else:               # a second add_edge accumulates: a re-weight
            graph.add_edge(u, v, weight)
        assert [graph_fingerprint(g) for g in untouched] == before
        fresh = Session(graph, engine=version.engine, store=version.store)
        self.plain[self.plain.index(version)] = fresh
        self.solved.pop(id(version), None)
        self._plain(fresh, problem, rounds, lam, tie_break, reference)
        _SEEN["write through copy" if through_copy else "write"] += 1

    @precondition(lambda self: self.solved)
    @rule(data=st.data(), engine=_ENGINES, tie_break=_TIE_BREAKS,
          reference=_ENGINES)
    def restart_stored(self, data, engine, tie_break, reference):
        """``Session(version.graph, store=same)`` on a held stored version
        answers as the version does, from disk, at a λ the version solved
        (orientation only at λ = 0)."""
        version = data.draw(_newest_first(
            s for s in self.plain if id(s) in self.solved))
        solved = self.solved[id(version)]
        lam = data.draw(st.sampled_from(sorted(solved)))
        rounds = data.draw(st.sampled_from(
            [t for t in _BUDGETS if t <= solved[lam]]))
        problem = data.draw(st.sampled_from(
            ("coreness", "orientation") if lam == 0.0 else ("coreness",)))
        restarted = Session(version.graph, engine=engine, store=version.store)
        answer = self._plain(restarted, problem, rounds, lam, tie_break,
                             reference)
        assert restarted.stats.disk_hits == 1, restarted.stats
        assert restarted.stats.rounds_executed == 0, restarted.stats
        assert restarted.stats.cold_runs == 0, restarted.stats
        self.solved.pop(id(restarted), None)
        if problem == "orientation":
            own = version.orientation(rounds=rounds, tie_break=tie_break)
        else:
            own = version.coreness(rounds=rounds, lam=lam)
        _same_answer(answer, own)
        assert answer.surviving.trajectory.tobytes() == \
            own.surviving.trajectory.tobytes()
        _SEEN["store restart"] += 1

    @precondition(lambda self: self.plain)
    @rule(data=st.data())
    def drop(self, data):
        """Drop the machine's last reference to one plain version."""
        dropped = self.plain.pop(data.draw(st.integers(0, len(self.plain) - 1)))
        self.solved.pop(id(dropped), None)
        del dropped
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
    threshold; fail unless it solved a spilled frontier child, wrote to a
    shared row and restarted a stored version."""
    _SEEN.clear()
    with mock.patch.object(session_module, "SPILL_BYTES", SPILL_AT):
        run_state_machine_as_test(LineageMachine, settings=settings(
            max_examples=max_examples, stateful_step_count=30, deadline=None,
            suppress_health_check=[HealthCheck.too_slow,
                                   HealthCheck.filter_too_much]))
    assert _SEEN["spilled frontier"] > 0, _SEEN
    assert _SEEN["write"] + _SEEN["write through copy"] > 0, _SEEN
    assert _SEEN["store restart"] > 0, _SEEN


class TestLineageMachine(unittest.TestCase):
    def runTest(self):
        _run(40)


@pytest.mark.slow
def test_lineage_machine_long_profile():
    """Five times the tier-1 examples; ``scripts/check.sh`` runs it in its
    ``slow`` step."""
    _run(200)
