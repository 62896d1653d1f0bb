"""The in-process workloads: inputs, set-up and the timed phase.

Every workload is a class with the same shape:

* ``__init__(seed, seconds, smoke)`` generates the inputs from the seed (the
  program only ever sees the generated graphs and request schedules) and
  fixes the operation count from ``seconds``, so the parent and a change do
  the same work for the same arguments;
* ``setup()`` is the program-side set-up that ``setup_s`` times; it ends
  with one warm-up operation on a 2k-node graph so imports and lazy set-up
  are not timed.  ``teardown(state)`` releases it;
* ``run(state, spans)`` is the timed phase.  It returns a :class:`Phase`
  with one latency per operation; output checks run after each operation,
  outside its timing.  ``spans`` is a :class:`layers.SpanLog` on the traced
  pass and ``None`` otherwise.

A closed loop replays one fixed schedule (a cycle of requests, or a request
mix on a fresh session) several times, each replay from identical state.
Every timed operation is scaled to reference speed (:mod:`speed`, read just
before it), and an operation's latency is the median of its replays.  Run
length scales the number of replays.  Every request class has an exact
count in the schedule, so the percentiles fall inside one class of operation
instead of on the edge between two.

The graphs are built by this module's own generators, not the program's, so
a change to ``repro.graph.generators`` cannot change the inputs.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.delta import GraphDelta
from repro.graph.graph import Graph
from repro.obs import trace as obs_trace
from repro.session import Session

from checks import Checker, digest, value_array
from layers import ROOT_SPAN
from speed import speed as machine_speed

#: Where runs keep their temporary stores; inside the checkout, removed on exit.
SCRATCH = Path(__file__).resolve().parents[1] / ".bench_tmp"

#: Latency limit behind ``slo_attain`` (seconds from due time to answer).
SLO_SECONDS = 2.0

TIE_BREAKS = ("history", "stable", "naive")


def replays_for(seconds: float, replay_seconds: float) -> int:
    """How many replays of about ``replay_seconds`` (measured on a 2-CPU
    machine) fill a run of ``seconds``; at least two, so every operation has
    a second chance."""
    return max(2, int(round(seconds / replay_seconds)))


def deck(rng: random.Random, values: Sequence) -> Iterator:
    """Deal ``values`` without replacement, reshuffling when exhausted, so
    every value comes up equally often."""
    while True:
        items = list(values)
        rng.shuffle(items)
        yield from items


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# --------------------------------------------------------------------- inputs

def ba_graph(n: int, m: int, seed: int) -> Graph:
    """Barabási–Albert preferential attachment (skewed degrees)."""
    rng = np.random.default_rng(seed)
    graph = Graph(nodes=range(n))
    repeated: List[int] = []
    for v in range(1, m + 1):
        graph.add_edge(0, v, 1.0)
        repeated.extend((0, v))
    draws = iter(rng.random(8 * m * n).tolist())
    for new in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(next(draws) * len(repeated))])
        for t in sorted(targets):
            graph.add_edge(new, t, 1.0)
            repeated.extend((new, t))
    return graph


def er_graph(n: int, mean_degree: float, seed: int) -> Graph:
    """Erdős–Rényi with edge probability ``mean_degree / n`` (uniform degrees)."""
    rng = np.random.default_rng(seed)
    pairs = n * (n - 1) // 2
    m = int(rng.binomial(pairs, mean_degree / n))
    u = rng.integers(0, n, size=2 * m + 64)
    v = rng.integers(0, n, size=2 * m + 64)
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    _, first = np.unique(lo * n + hi, return_index=True)
    first = np.sort(first)[:m]
    graph = Graph(nodes=range(n))
    for a, b in zip(lo[first].tolist(), hi[first].tolist()):
        graph.add_edge(a, b, 1.0)
    return graph


def edge_weights(graph: Graph) -> Dict[Tuple[int, int], float]:
    return {(min(u, v), max(u, v)): w for u, v, w in graph.edges()}


def mutate(rng: random.Random, weights: Dict[Tuple[int, int], float],
           edges: List[Tuple[int, int]], n: int, n_remove: int,
           n_reweight: int, n_add: int) -> GraphDelta:
    """A delta removing, re-weighting (to 2.0) and adding edges.

    ``weights`` is the harness's own edge map of the current version and is
    updated in place; ``edges`` lists every edge ever present (removed ones
    are skipped when picking).
    """
    chosen = set()
    while len(chosen) < n_remove + n_reweight:
        edge = edges[rng.randrange(len(edges))]
        if edge in weights:
            chosen.add(edge)
    chosen = sorted(chosen)
    rng.shuffle(chosen)
    removed, reweighted = chosen[:n_remove], chosen[n_remove:]
    for edge in removed:
        del weights[edge]
    for edge in reweighted:
        weights[edge] = 2.0
    added = []
    while len(added) < n_add:
        u, v = rng.randrange(n), rng.randrange(n)
        edge = (min(u, v), max(u, v))
        if u != v and edge not in weights:
            weights[edge] = 1.0
            edges.append(edge)
            added.append(edge)
    return GraphDelta(remove_edges=removed,
                      set_weights=[(u, v, 2.0) for u, v in reweighted],
                      add_edges=[(u, v, 1.0) for u, v in added])


WARMUP_NODES = 2000


def warm_up(graph: Graph) -> None:
    """One operation of every kind on a small graph (imports, lazy set-up)."""
    session = Session(graph)
    session.coreness(rounds=10)
    session.orientation(rounds=10)
    session.densest(rounds=6, engine="array")


# ---------------------------------------------------------------- measurement

@dataclass
class Phase:
    """What one timed phase did."""

    latencies: List[float] = field(default_factory=list)  #: wall seconds of every operation
    speeds: List[float] = field(default_factory=list)     #: machine speed before each
    #: reference-speed seconds of each operation, one per replay
    replays: Dict[Hashable, List[float]] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    slo_met: int = 0
    wall: float = 0.0           #: seconds the phase took (closed loop: summed latencies)
    ops_per_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, seconds: float, failure: Optional[str],
               op: Hashable = None, speed: float = 1.0) -> None:
        """One timed operation of ``seconds`` at machine ``speed``; ``op``
        names it across replays (``None``: an operation never replayed)."""
        self.latencies.append(seconds)
        self.speeds.append(speed)
        key = ("once", len(self.latencies)) if op is None else op
        self.replays.setdefault(key, []).append(seconds * speed)
        if failure is not None:
            self.failures.append(failure)
        elif seconds <= SLO_SECONDS:
            self.slo_met += 1

    def typical(self) -> List[float]:
        """Each operation's median over its replays, reference-speed seconds."""
        return [median(times) for times in self.replays.values()]

    def scaled_total(self) -> float:
        """Every operation's reference-speed seconds, summed."""
        return sum(map(sum, self.replays.values()))

    def close_loop(self) -> None:
        """Closed-loop totals: the summed latencies, and one client's
        throughput over the typical time of every operation."""
        self.wall = sum(self.latencies)
        typical = self.typical()
        self.ops_per_s = len(typical) / sum(typical)


def measure(fn, spans):
    """Run ``fn()`` as one timed operation: ``(result, seconds, error,
    speed)``, with the machine's speed read just before it.

    Garbage left by earlier operations is collected first, and the speed
    read, both outside the timing, so no operation pays for another's.  On
    the traced pass the operation runs under the root span inside its own
    tracer lifetime, so whatever runs between operations is never traced.
    """
    gc.collect()
    now = machine_speed()
    capture = spans.capture() if spans is not None else contextlib.nullcontext()
    with capture, obs_trace.span(ROOT_SPAN):
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            return (None, time.perf_counter() - start,
                    f"{type(exc).__name__}: {exc}", now)
        return result, time.perf_counter() - start, None, now


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            with contextlib.suppress(FileNotFoundError):
                total += os.path.getsize(os.path.join(root, name))
    return total


def new_store() -> Path:
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="store-", dir=SCRATCH))


SESSION_COUNTERS = ("rounds_executed", "rounds_reused", "problem_hits",
                    "disk_hits", "frontier_nodes_recomputed",
                    "incremental_fallbacks")


def session_counts(stats: List[Tuple[dict, dict]], solves: int) -> Dict[str, float]:
    """Per-layer counters from ``Session.stats``, summed over ``(after,
    before)`` snapshot pairs of the sessions a phase used."""
    total = dict.fromkeys(SESSION_COUNTERS, 0)
    for now, then in stats:
        for key in SESSION_COUNTERS:
            total[key] += now[key] - then.get(key, 0)
    rounds = total["rounds_executed"] + total["rounds_reused"]
    return {
        "session.rounds_executed": total["rounds_executed"],
        "session.rounds_reused": total["rounds_reused"],
        "session.reuse_ratio": total["rounds_reused"] / rounds if rounds else 0.0,
        "session.hit_ratio": total["problem_hits"] / solves if solves else 0.0,
        "session.frontier_nodes": total["frontier_nodes_recomputed"],
        "session.fallbacks": total["incremental_fallbacks"],
        "store.disk_hits": total["disk_hits"],
    }


def check_result(checker: Checker, graph: Graph, problem: str, params: dict,
                 result) -> Tuple[str, Optional[str]]:
    rounds = params["rounds"]
    if problem == "coreness":
        return checker.coreness(graph, result, rounds, params.get("lam") or 0.0)
    if problem == "orientation":
        return checker.orientation(graph, result, rounds,
                                   params.get("tie_break", "history"))
    return checker.densest(graph, result, rounds)


class Workload:
    """Shared plumbing; subclasses define the inputs, set-up and phase."""

    name = ""
    setup_reps = 5      #: set-ups timed for ``setup_s`` (their median)
    scaled = True       #: times are scaled to reference speed (:mod:`speed`)
    #: Wrapped layers (``layers.WRAPPERS`` span names) the timed phase must reach.
    LAYERS: Tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, smoke: bool) -> None:
        self.rng = random.Random(seed)
        self.warmup_graph = ba_graph(WARMUP_NODES if not smoke else 300, 3,
                                     seed + 7)
        self.checker = Checker()
        self.operations: Dict[str, int] = {}

    def setup(self, traced: bool = False):
        warm_up(self.warmup_graph)

    def teardown(self, state) -> None:
        pass

    @contextlib.contextmanager
    def replay_state(self, state, replay: int):
        """The set-up state for replay 0; a fresh one for every later replay,
        set up outside the timing and torn down after the replay."""
        if replay == 0:
            yield state
            return
        fresh = self.setup()
        try:
            yield fresh
        finally:
            self.teardown(fresh)

    def peak_rss_mb(self, state) -> float:
        return peak_rss_mb()

    def diagnostics(self) -> dict:
        return {}


# ------------------------------------------------------------------ cold-solve

class ColdSolve(Workload):
    """Closed loop, one client: a fresh Session and one solve per operation.

    A replay is one cycle over every (graph, problem) pair, each cycle in its
    own seeded order; every operation starts from a fresh Session, so the
    cycles replay from identical state.
    """

    name = "cold-solve"
    REPLAY_SECONDS = 1.7
    LAYERS = ("bench.graph.csr", "bench.core.grid", "bench.core.kept_sets",
              "bench.core.orientation", "bench.core.densest",
              "bench.engine.kernel", "bench.engine.assemble",
              "bench.engine.densest_kernels")
    REQUESTS = (("coreness", {"rounds": 10}),
                ("orientation", {"rounds": 10}),
                ("densest", {"rounds": 6, "engine": "array"}))

    def __init__(self, seed, seconds, smoke):
        super().__init__(seed, seconds, smoke)
        n = 1500 if smoke else 20_000
        self.graphs = {"ba": ba_graph(n, 3, seed), "er": er_graph(n, 6.0, seed + 1)}
        combos = [(g, problem, params) for g in self.graphs
                  for problem, params in self.REQUESTS]
        cycles = 2 if smoke else replays_for(seconds, self.REPLAY_SECONDS)
        self.cycles = []
        for _ in range(cycles):
            cycle = list(combos)
            self.rng.shuffle(cycle)
            self.cycles.append(cycle)
        self.operations = {"operations": len(combos) * cycles,
                           "distinct": len(combos), "replays": cycles, "nodes": n}

    def run(self, state, spans) -> Phase:
        phase = Phase()
        stats = []
        for cycle in self.cycles:
            for graph_name, problem, params in cycle:
                graph = self.graphs[graph_name]

                def op():
                    session = Session(graph)
                    return session, session.solve(problem, **params)

                result, seconds, error, speed = measure(op, spans)
                if error is None:
                    stats.append((result[0].stats.to_dict(), {}))
                    answer, error = check_result(self.checker, graph, problem,
                                                 params, result[1])
                    error = error or self.checker.same_answer(
                        (graph_name, problem), answer)
                phase.record(seconds, error, op=(graph_name, problem),
                             speed=speed)
                del result
        phase.close_loop()
        phase.counts = session_counts(stats, phase.attempted)
        return phase


# ------------------------------------------------------------------ warm-mixed

class WarmMixed(Workload):
    """Closed loop, one client, against one long-lived store-backed Session.

    The schedule is :attr:`SIZE` operations on a fresh Session with exact
    class counts (shares in :attr:`MIX`), replayed on a fresh set-up each
    time; parameters are dealt from decks, so every seed has the same number
    of request-cache hits: the 28 repeats plus the second deal of the small
    orientation, densest and λ decks, 38 of 80.
    The coreness budgets skip T=10 (solved during set-up) and the densest
    budgets (a densest solve leaves its coreness cached), so all 24 of them
    are new: a slice or a prefix resume.  Hits stay just under half, and p50
    is one of the cheapest slices, not a microsecond hit whose time follows
    the machine's cache noise.  p90 falls among the first orientation
    requests and the restarts.
    """

    name = "warm-mixed"
    setup_reps = 3
    SIZE = 80
    REPLAY_SECONDS = 3.3
    LAYERS = ColdSolve.LAYERS + ("bench.graph.fingerprint",)
    MIX = (("repeat", 0.35), ("coreness", 0.30), ("orientation", 0.15),
           ("densest", 0.10), ("lam", 0.05), ("restart", 0.05))
    DENSEST_ROUNDS = (4, 6, 8)
    CORENESS_ROUNDS = tuple(sorted(set(range(2, 31)) - {10, *DENSEST_ROUNDS}))

    def __init__(self, seed, seconds, smoke):
        super().__init__(seed, seconds, smoke)
        n = 2000 if smoke else 20_000
        self.graph = ba_graph(n, 3, seed)
        size = 40 if smoke else self.SIZE
        self.replays = 2 if smoke else replays_for(seconds, self.REPLAY_SECONDS)
        self.schedule = self._schedule(size)
        self.operations = {"operations": size * self.replays, "distinct": size,
                           "replays": self.replays, "nodes": n}

    def _schedule(self, size: int) -> List[Tuple[str, str, dict]]:
        kinds: List[str] = []
        for kind, share in self.MIX:
            kinds += [kind] * int(round(share * size))
        self.rng.shuffle(kinds)
        draws = {
            "coreness": deck(self.rng, [("coreness", (("rounds", t),))
                                        for t in self.CORENESS_ROUNDS]),
            "orientation": deck(self.rng, [
                ("orientation", (("rounds", t), ("tie_break", tb)))
                for t, tb in itertools.product((6, 10, 14), TIE_BREAKS)]),
            "densest": deck(self.rng, [("densest", (("rounds", t), ("engine", "array")))
                                       for t in self.DENSEST_ROUNDS]),
            "lam": deck(self.rng, [("coreness", (("rounds", 10), ("lam", lam)))
                                   for lam in (0.25, 0.5)]),
        }
        # An exact repeat re-sends the latest request of a kind dealt in
        # proportion to the mix, so the hits' request types (whose latencies
        # differ) are the same for every seed.
        repeated = deck(self.rng, [kind for kind, share in self.MIX
                                   if kind in draws
                                   for _ in range(round(20 * share))])
        latest = {"coreness": ("coreness", (("rounds", 10),))}  # set-up's solve
        schedule = []
        for kind in kinds:
            if kind == "restart":
                schedule.append(("restart", "coreness", {"rounds": 10}))
                continue
            if kind == "repeat":
                problem, params = latest.get(next(repeated), latest["coreness"])
            else:
                problem, params = latest[kind] = next(draws[kind])
            schedule.append((kind, problem, dict(params)))
        return schedule

    def setup(self, traced: bool = False):
        warm_up(self.warmup_graph)
        store = new_store()
        session = Session(self.graph, store=store)
        return store, session, session.coreness(rounds=10)

    def teardown(self, state) -> None:
        shutil.rmtree(state[0], ignore_errors=True)

    def run(self, state, spans) -> Phase:
        phase = Phase()
        stats = []
        written = 0
        for replay in range(self.replays):
            with self.replay_state(state, replay) as (store, session, first):
                answer, _ = check_result(self.checker, self.graph, "coreness",
                                         {"rounds": 10}, first)
                self.checker.same_answer(("coreness", 10, None), answer)
                before = session.stats.to_dict()
                bytes_before = dir_bytes(store)
                for index, (kind, problem, params) in enumerate(self.schedule):
                    target = None if kind == "restart" else session

                    def op():
                        used = target or Session(self.graph, store=store)
                        return used, used.solve(problem, **params)

                    result, seconds, error, speed = measure(op, spans)
                    if error is None:
                        if result[0] is not session:
                            stats.append((result[0].stats.to_dict(), {}))
                        answer, error = check_result(self.checker, self.graph,
                                                     problem, params, result[1])
                        request = (problem, params["rounds"],
                                   params.get("tie_break") or params.get("lam"))
                        error = error or self.checker.same_answer(request, answer)
                    phase.record(seconds, error, op=index, speed=speed)
                    del result
                stats.append((session.stats.to_dict(), before))
                written += dir_bytes(store) - bytes_before
        phase.close_loop()
        phase.counts = session_counts(stats, phase.attempted)
        phase.counts["store.bytes_written"] = written
        return phase


# ----------------------------------------------------------------- edge-stream

class EdgeStream(Workload):
    """Closed loop, one client: deltas applied to a store-backed Session.

    The schedule is :attr:`UPDATES` chained updates from the base graph,
    replayed on a fresh set-up each time.  Every update removes 4 edges,
    re-weights 4 and adds 2, then reads coreness T=10 on the new version (and
    an orientation every 4th update).  The last update is a burst touching 1%
    of the edges, which takes the cold fallback.  Latency is staleness: from
    the delta's arrival until every read on its version is answered.
    """

    name = "edge-stream"
    setup_reps = 3
    UPDATES = 8
    REPLAY_SECONDS = 2.0
    LAYERS = ("bench.graph.csr", "bench.graph.fingerprint",
              "bench.graph.delta_apply", "bench.core.grid",
              "bench.core.kept_sets", "bench.core.orientation",
              "bench.engine.kernel", "bench.engine.frontier",
              "bench.engine.assemble")

    def __init__(self, seed, seconds, smoke):
        super().__init__(seed, seconds, smoke)
        n = 2000 if smoke else 20_000
        self.n = n
        self.graph = ba_graph(n, 3, seed)
        self.replays = 2 if smoke else replays_for(seconds, self.REPLAY_SECONDS)
        self.updates = self._updates()
        self.operations = {"operations": self.UPDATES * self.replays,
                           "distinct": self.UPDATES, "replays": self.replays,
                           "nodes": n}

    def _updates(self) -> List[Tuple[GraphDelta, bool, Optional[np.ndarray]]]:
        weights = edge_weights(self.graph)
        edges = list(weights)
        updates = []
        for i in range(1, self.UPDATES + 1):
            if i == self.UPDATES:
                k = max(2, len(weights) // 100)
                delta = mutate(self.rng, weights, edges, self.n, k // 2, 0, k - k // 2)
            else:
                delta = mutate(self.rng, weights, edges, self.n, 4, 4, 2)
            # The burst version and the last incremental version are checked
            # against a cold solve; their (u, v, w) rows are kept as an array
            # so the harness's copies stay out of the measured peak memory.
            checked = i >= self.UPDATES - 1
            snapshot = np.array([(u, v, w) for (u, v), w in weights.items()]) \
                if checked else None
            updates.append((delta, i % 4 == 0, snapshot))
        return updates

    def setup(self, traced: bool = False):
        warm_up(self.warmup_graph)
        store = new_store()
        session = Session(self.graph, store=store)
        session.coreness(rounds=10)
        return store, session

    def teardown(self, state) -> None:
        shutil.rmtree(state[0], ignore_errors=True)

    def run(self, state, spans) -> Phase:
        phase = Phase()
        stats = []
        written = solves = 0
        for replay in range(self.replays):
            with self.replay_state(state, replay) as (store, session):
                before = session.stats.to_dict()
                bytes_before = dir_bytes(store)
                current = session
                for index, (delta, orient, snapshot) in enumerate(self.updates):
                    parent = current

                    def op():
                        child = parent.apply_delta(delta)
                        core = child.coreness(rounds=10)
                        return child, core, (child.orientation(rounds=10)
                                             if orient else None)

                    solves += 2 if orient else 1
                    result, seconds, error, speed = measure(op, spans)
                    if error is None:
                        current, core, orientation = result
                        stats.append((current.stats.to_dict(), {}))
                        # The first replay checks the snapshot versions; every
                        # replay must then give the first replay's answers.
                        if snapshot is not None and replay == 0:
                            error = self._check_version(snapshot, current, core,
                                                        orientation)
                        error = error or self.checker.same_answer(
                            ("update", index), self._answer(current, core,
                                                            orientation))
                    phase.record(seconds, error, op=index, speed=speed)
                    del result
                stats.append((session.stats.to_dict(), before))
                written += dir_bytes(store) - bytes_before
                del current, parent  # release the replay's chain of versions
        phase.close_loop()
        phase.counts = session_counts(stats, solves)
        phase.counts["store.bytes_written"] = written
        return phase

    @staticmethod
    def _answer(child: Session, core, orientation) -> str:
        graph = child.graph
        return digest(child.chain_fingerprint, value_array(core.values, graph),
                      None if orientation is None else
                      value_array(orientation.orientation.in_weight, graph))

    def _check_version(self, edges: np.ndarray, child: Session, core,
                       orientation) -> Optional[str]:
        """A checked version's graph must hold exactly the edges of the
        harness's own edge map, and its answers must match a cold Session on
        that graph bit for bit and meet the paper's guarantees.  The cold
        Session takes the version's own graph, not one rebuilt from the edge
        map: the orientation breaks ties by adjacency order, which a rebuilt
        graph does not keep.  The last incremental version also covers the
        ones before it: its frontier re-solve copies their trajectory
        rows."""
        graph = child.graph
        expected = {(int(u), int(v)): w for u, v, w in edges.tolist()}
        if list(graph.nodes()) != list(range(self.n)) or expected != {
                (min(u, v), max(u, v)): w for u, v, w in graph.edges()}:
            return "the delta chain did not produce the expected graph"
        cold = Session(graph)
        if value_array(core.values, graph).tobytes() != \
                value_array(cold.coreness(rounds=10).values, graph).tobytes():
            return "incremental coreness differs from a cold solve"
        _, error = self.checker.coreness(graph, core, 10)
        if error is None and orientation is not None:
            reference = cold.orientation(rounds=10)
            if digest(value_array(orientation.orientation.in_weight, graph)) != \
                    digest(value_array(reference.orientation.in_weight, graph)):
                return "incremental orientation differs from a cold solve"
            _, error = self.checker.orientation(graph, orientation, 10)
        return error
