"""Synthetic stand-in dataset registry.

The full version of the paper reports experiments on real-world SNAP graphs.  Those
datasets cannot be downloaded in this offline environment, so the registry below
provides **seeded synthetic stand-ins** whose structural knobs (degree skew,
clustering, community structure, density) are calibrated to the classes of graphs
used in the k-core / densest-subgraph literature:

=================  =============================================  =========================
Registry name      Stand-in for                                   Generator
=================  =============================================  =========================
``collab-small``   small collaboration network (ca-GrQc-like)     powerlaw-cluster
``collab-medium``  medium collaboration network (ca-AstroPh-like) powerlaw-cluster
``social-ba``      social/follower network (skewed degrees)       Barabási–Albert
``web-rmat``       web-like graph (heavy-tailed, self-similar)    R-MAT
``communities``    ground-truth community network (email-Eu-like) planted partition
``p2p-sparse``     peer-to-peer overlay (Gnutella-like)           Erdős–Rényi G(n, m)
``road-grid``      road-network-like high-diameter graph          2-D grid
``caveman``        tightly clustered social graph                 relaxed caveman
=================  =============================================  =========================

Every entry is deterministic (fixed seed) so experiment tables are reproducible.
``load_dataset(name, weighted=...)`` optionally layers integer weights on top, which
is the regime used by the weighted experiments (E3, E5).

The substitution keeps what the paper's empirical claim is about: the convergence
speed of the peeling process on skewed-degree, community-structured graphs, which
these models reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.generators.community import planted_partition, relaxed_caveman
from repro.graph.generators.random_graphs import (
    barabasi_albert,
    erdos_renyi_gnm,
    powerlaw_cluster,
)
from repro.graph.generators.rmat import rmat_graph
from repro.graph.generators.structured import grid_graph
from repro.graph.generators.weights import with_uniform_integer_weights


@dataclass(frozen=True)
class DatasetSpec:
    """A named, seeded synthetic dataset."""

    name: str
    description: str
    builder: Callable[[], Graph]
    category: str  #: "small" (unit tests / quick benches) or "medium" (full benches)


def _registry() -> Dict[str, DatasetSpec]:
    return {
        "collab-small": DatasetSpec(
            name="collab-small",
            description="Small collaboration-network stand-in (powerlaw-cluster, n=400, m~1.5k)",
            builder=lambda: powerlaw_cluster(400, 4, 0.3, seed=101),
            category="small",
        ),
        "collab-medium": DatasetSpec(
            name="collab-medium",
            description="Medium collaboration-network stand-in (powerlaw-cluster, n=3000, m~12k)",
            builder=lambda: powerlaw_cluster(3000, 4, 0.25, seed=102),
            category="medium",
        ),
        "social-ba": DatasetSpec(
            name="social-ba",
            description="Follower-network stand-in (Barabasi-Albert, n=2000, m~6k)",
            builder=lambda: barabasi_albert(2000, 3, seed=103),
            category="medium",
        ),
        "web-rmat": DatasetSpec(
            name="web-rmat",
            description="Web-graph stand-in (R-MAT scale 10, edge factor 6)",
            builder=lambda: rmat_graph(10, 6, seed=104),
            category="medium",
        ),
        "communities": DatasetSpec(
            name="communities",
            description="Ground-truth community stand-in (planted partition, 8 blocks of 50)",
            builder=lambda: planted_partition(8, 50, 0.30, 0.01, seed=105),
            category="small",
        ),
        "p2p-sparse": DatasetSpec(
            name="p2p-sparse",
            description="Peer-to-peer overlay stand-in (G(n, m), n=1500, m=4500)",
            builder=lambda: erdos_renyi_gnm(1500, 4500, seed=106),
            category="medium",
        ),
        "road-grid": DatasetSpec(
            name="road-grid",
            description="Road-network-like high-diameter stand-in (40x40 grid)",
            builder=lambda: grid_graph(40, 40),
            category="small",
        ),
        "caveman": DatasetSpec(
            name="caveman",
            description="Tightly clustered social stand-in (relaxed caveman, 20 cliques of 12)",
            builder=lambda: relaxed_caveman(20, 12, 0.15, seed=107),
            category="small",
        ),
    }


def list_datasets(category: Optional[str] = None) -> List[str]:
    """Names of the registered datasets, optionally filtered by category."""
    specs = _registry()
    if category is None:
        return sorted(specs)
    return sorted(name for name, spec in specs.items() if spec.category == category)


def dataset_info(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` registered under ``name``."""
    specs = _registry()
    if name not in specs:
        raise GraphError(f"unknown dataset {name!r}; available: {sorted(specs)}")
    return specs[name]


def load_dataset(name: str, *, weighted: bool = False, weight_seed: int = 7,
                 weight_high: int = 10) -> Graph:
    """Build the named dataset.

    Parameters
    ----------
    name:
        One of :func:`list_datasets`.
    weighted:
        When ``True`` layer uniform integer weights in ``[1, weight_high]`` on top of
        the unit-weight topology (deterministic given ``weight_seed``).
    """
    spec = dataset_info(name)
    graph = spec.builder()
    if weighted:
        graph = with_uniform_integer_weights(graph, 1, weight_high, seed=weight_seed)
    return graph
