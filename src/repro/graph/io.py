"""Graph serialisation: weighted edge lists and a JSON container format.

The edge-list format is the de-facto standard of the graph-mining literature (one
``u v [w]`` triple per line, ``#`` comments allowed), so synthetic stand-in datasets
written by this library can be swapped for real SNAP downloads without code changes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import GraphError
from repro.graph.graph import Graph

PathLike = Union[str, Path]


def write_edge_list(graph: Graph, path: PathLike, *, write_weights: bool = True,
                    header: str = "") -> None:
    """Write ``graph`` as a whitespace-separated edge list.

    Node labels are written with ``str``; isolated nodes are recorded in a trailing
    ``# isolated:`` comment so that a round-trip preserves the node set exactly.
    """
    path = Path(path)
    lines = []
    if header:
        for h in header.splitlines():
            lines.append(f"# {h}")
    lines.append(f"# nodes={graph.num_nodes} edges={graph.num_edges}")
    touched = set()
    for u, v, w in graph.edges():
        touched.add(u)
        touched.add(v)
        if write_weights:
            lines.append(f"{u} {v} {w:.12g}")
        else:
            lines.append(f"{u} {v}")
    isolated = [str(v) for v in graph.nodes() if v not in touched]
    if isolated:
        lines.append("# isolated: " + " ".join(isolated))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_label(token: str):
    """Parse a node label: integers stay integers, everything else stays a string."""
    try:
        return int(token)
    except ValueError:
        return token


def parse_edge_list(text: str, *, default_weight: float = 1.0) -> Graph:
    """Parse edge-list *text* (the format of :func:`write_edge_list`).

    The in-memory twin of :func:`read_edge_list`, shared with transports that
    receive the bytes over a socket instead of a file (the HTTP graph upload
    of :mod:`repro.serve.http`).
    """
    graph = Graph()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# isolated:"):
                for token in line[len("# isolated:"):].split():
                    graph.add_node(_parse_label(token))
            continue
        parts = line.split()
        if len(parts) == 2:
            u, v = parts
            graph.add_edge(_parse_label(u), _parse_label(v), default_weight)
        elif len(parts) == 3:
            u, v, w = parts
            try:
                weight = float(w)
            except ValueError:
                raise GraphError(f"non-numeric weight in edge-list line: "
                                 f"{raw!r}") from None
            graph.add_edge(_parse_label(u), _parse_label(v), weight)
        else:
            raise GraphError(f"malformed edge-list line: {raw!r}")
    return graph


def read_edge_list(path: PathLike, *, default_weight: float = 1.0) -> Graph:
    """Read a whitespace-separated edge list written by :func:`write_edge_list`.

    Also accepts plain SNAP-style files (``u v`` per line, ``#`` comments).  Repeated
    edges accumulate weight, consistently with :meth:`Graph.add_edge`.
    """
    return parse_edge_list(Path(path).read_text(encoding="utf-8"),
                           default_weight=default_weight)


def to_dict(graph: Graph) -> dict:
    """JSON-serialisable dict representation (labels stringified)."""
    return {
        "format": "repro-graph-v1",
        "nodes": [str(v) for v in graph.nodes()],
        "edges": [[str(u), str(v), w] for u, v, w in graph.edges()],
    }


def from_dict(payload: dict) -> Graph:
    """Inverse of :func:`to_dict` (node labels come back as strings or ints)."""
    if payload.get("format") != "repro-graph-v1":
        raise GraphError(f"unsupported graph payload format: {payload.get('format')!r}")
    try:
        graph = Graph(nodes=(_parse_label(v) for v in payload["nodes"]))
        for u, v, w in payload["edges"]:
            graph.add_edge(_parse_label(u), _parse_label(v), float(w))
    except KeyError as exc:
        raise GraphError(f"graph payload is missing its {exc} field") from exc
    except (TypeError, ValueError) as exc:   # wrong shape or weight type
        raise GraphError(f"malformed graph payload: {exc}") from exc
    return graph


def write_json(graph: Graph, path: PathLike) -> None:
    """Write the JSON container format."""
    Path(path).write_text(json.dumps(to_dict(graph)), encoding="utf-8")


def read_json(path: PathLike) -> Graph:
    """Read the JSON container format."""
    return from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
