"""Graph substrate: weighted undirected graphs, CSR views, quotient graphs,
structural properties, serialisation, generators and the synthetic dataset registry."""

from repro.graph.builders import (
    graph_from_adjacency_matrix,
    graph_from_edges,
    graph_from_networkx,
    graph_to_adjacency_matrix,
    graph_to_networkx,
    with_weights,
)
from repro.graph.csr import (
    CSRAdjacency,
    csr_fingerprint,
    csr_subset_density,
    graph_fingerprint,
    graph_to_csr,
)
from repro.graph.datasets import DatasetSpec, dataset_info, list_datasets, load_dataset
from repro.graph.delta import (
    GraphDelta,
    apply_delta,
    chain_fingerprint,
    changed_labels,
)
from repro.graph.graph import Graph
from repro.graph.io import (
    from_dict,
    read_edge_list,
    read_json,
    to_dict,
    write_edge_list,
    write_json,
)
from repro.graph.properties import (
    bfs_distances,
    connected_components,
    count_triangles,
    degeneracy_ordering,
    degree_statistics,
    eccentricity,
    hop_diameter,
    is_connected,
)
from repro.graph.quotient import induced_subgraph, quotient_graph

__all__ = [
    "Graph",
    "CSRAdjacency",
    "csr_fingerprint",
    "csr_subset_density",
    "graph_fingerprint",
    "graph_to_csr",
    "GraphDelta",
    "apply_delta",
    "chain_fingerprint",
    "changed_labels",
    "graph_from_adjacency_matrix",
    "graph_from_edges",
    "graph_from_networkx",
    "graph_to_adjacency_matrix",
    "graph_to_networkx",
    "with_weights",
    "DatasetSpec",
    "dataset_info",
    "list_datasets",
    "load_dataset",
    "from_dict",
    "read_edge_list",
    "read_json",
    "to_dict",
    "write_edge_list",
    "write_json",
    "bfs_distances",
    "connected_components",
    "count_triangles",
    "degeneracy_ordering",
    "degree_statistics",
    "eccentricity",
    "hop_diameter",
    "is_connected",
    "induced_subgraph",
    "quotient_graph",
]
