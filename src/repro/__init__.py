"""repro — reproduction of "Distributed Approximate k-Core Decomposition and
Min-Max Edge Orientation: Breaking the Diameter Barrier" (Chan, Sozio, Sun; IPDPS 2019).

The package is organised as:

* :mod:`repro.graph`     — weighted undirected graph substrate, generators, datasets;
* :mod:`repro.distsim`   — synchronous LOCAL/CONGEST message-passing simulator;
* :mod:`repro.core`      — the paper's Algorithms 1-6 and the one-shot API;
* :mod:`repro.session`   — the stateful :class:`Session` facade (cached CSR views,
  Λ-grids, results and resumable elimination trajectories);
* :mod:`repro.problems`  — the problem registry (coreness / orientation / densest)
  with a uniform request/result protocol;
* :mod:`repro.engine`    — interchangeable execution engines and the batch runner;
* :mod:`repro.store`     — persistent content-addressed artifact store (trajectories
  and results survive process restarts, resumed bit-identically);
* :mod:`repro.serve`     — async job submission (futures, in-flight dedup, bounded
  backpressure) over the batch runner, and the HTTP tier in front of it;
* :mod:`repro.baselines` — exact/centralized and distributed comparator algorithms;
* :mod:`repro.analysis`  — approximation-ratio metrics, invariant checks and the
  experiment runners the tests assert on.

Quick start
-----------
>>> from repro import Session, load_dataset
>>> session = Session(load_dataset("collab-small"))
>>> result = session.coreness(epsilon=0.5)
>>> all(result.values[v] >= 0 for v in session.graph.nodes())
True
"""

from repro._version import __version__
from repro.core.api import (
    CorenessResult,
    OrientationResult,
    approximate_coreness,
    approximate_densest_subsets,
    approximate_orientation,
)
from repro.core.densest import WeakDensestResult
from repro.engine import (
    BatchJob,
    BatchRunner,
    Engine,
    available_engines,
    get_engine,
    register_engine,
)
from repro.errors import (
    AlgorithmError,
    ConvergenceError,
    GraphError,
    InvalidLambdaError,
    ProtocolError,
    QueueFullError,
    QuotaExceededError,
    ReproError,
    ServeError,
    SimulationError,
    StoreError,
    UnknownResourceError,
    WireFormatError,
    error_from_dict,
)
from repro.graph.csr import csr_fingerprint, graph_fingerprint
from repro.graph.datasets import list_datasets, load_dataset
from repro.graph.graph import Graph
from repro.problems import (
    Problem,
    available_problems,
    get_problem,
    register_problem,
)
from repro.serve import (
    JobQueue,
    ReproHTTPServer,
    ServeClient,
    ServeStats,
)
from repro.session import Session, SessionStats
from repro.store import ArtifactStore

__all__ = [
    "__version__",
    "Graph",
    "load_dataset",
    "list_datasets",
    "Session",
    "SessionStats",
    "Problem",
    "get_problem",
    "register_problem",
    "available_problems",
    "approximate_coreness",
    "approximate_orientation",
    "approximate_densest_subsets",
    "CorenessResult",
    "OrientationResult",
    "WeakDensestResult",
    "Engine",
    "get_engine",
    "register_engine",
    "available_engines",
    "BatchRunner",
    "BatchJob",
    "ArtifactStore",
    "JobQueue",
    "ServeStats",
    "ReproHTTPServer",
    "ServeClient",
    "ReproError",
    "GraphError",
    "ProtocolError",
    "SimulationError",
    "AlgorithmError",
    "InvalidLambdaError",
    "ConvergenceError",
    "StoreError",
    "ServeError",
    "QueueFullError",
    "QuotaExceededError",
    "UnknownResourceError",
    "WireFormatError",
    "error_from_dict",
]
