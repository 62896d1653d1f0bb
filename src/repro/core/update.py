"""The ``Update`` subroutine (Algorithm 3) and its variants.

Given the current surviving numbers ``b_i`` and edge weights ``w_i`` of a node's
neighbours, ``Update`` returns

* the **maximum real number** ``b`` such that ``Σ_{i : b_i >= b} w_i >= b``, and
* an auxiliary neighbour subset ``N ⊆ {u_i : b_i >= b}`` with ``Σ_{u_i ∈ N} w_i <= b``
  (the in-neighbour candidates for the min-max edge orientation).

Equivalently (and this is what the vectorised engine exploits): sort the entries by
``b_i`` in non-increasing order, let ``S_k`` be the prefix weight of the ``k``
largest entries; then ``b = max_k min(S_k, b_(k))``.

Three implementation variants are provided, matching the paper:

* :func:`update_sorted` — the faithful ``O(d log d)`` sorting implementation with
  the *stateful* lexicographic tie-breaking rule of Algorithm 3 (ties in the current
  surviving number are broken by the history of past surviving numbers, most recent
  first, then by node identity).  This is the default used by the simulator
  protocols and is the version whose auxiliary subsets satisfy the invariants of
  Definition III.7 (Lemma III.11).
* :func:`update_stable` — the paper's remarked alternative: each node keeps a fixed
  neighbour ordering and stable-sorts by the current surviving numbers only.
* :func:`update_counting` — the ``O(d)`` counting variant of Remark III.8 for
  unit-weight graphs (returns only the surviving number, not the subset).

Self-loops are supported through the ``self_loop`` parameter: a self-loop of weight
``ℓ`` behaves like a virtual neighbour whose surviving number is ``+∞`` and which is
never eligible for the auxiliary subset (an edge cannot be oriented towards a
non-endpoint); this is exactly what quotient graphs (Definition II.2) require.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.bfs import comparable_identity
from repro.errors import AlgorithmError

#: One neighbour entry: (neighbour id, neighbour's current surviving number, edge weight).
Entry = Tuple[Hashable, float, float]


@dataclass(frozen=True)
class UpdateResult:
    """Result of one ``Update`` call."""

    value: float                 #: the new surviving number ``b``
    kept: Tuple[Hashable, ...]   #: the auxiliary subset ``N`` (possibly empty)

    @property
    def kept_set(self) -> frozenset:
        """The auxiliary subset as a frozenset (convenient for invariant checks)."""
        return frozenset(self.kept)


def _validate_entries(entries: Sequence[Entry]) -> None:
    for entry in entries:
        if len(entry) != 3:
            raise AlgorithmError(f"entries must be (node, b, w) triples, got {entry!r}")
        _, b, w = entry
        if w < 0:
            raise AlgorithmError(f"edge weights must be non-negative, got {w!r}")
        if math.isnan(b) or math.isnan(w):
            raise AlgorithmError("NaN values are not allowed in Update entries")


def _scan(sorted_entries: List[Entry], self_loop: float) -> UpdateResult:
    """Core scan of Algorithm 3 on entries sorted by non-decreasing surviving number.

    ``sorted_entries`` follow the paper's indexing ``b_1 <= ... <= b_d``; the scan
    walks from ``i = d`` down to ``1`` accumulating the suffix weight ``s`` and stops
    at the first index where ``s > b_{i-1}`` (with the convention ``b_0 = -inf``).
    ``self_loop`` initialises ``s`` because a self-loop survives exactly as long as
    the node itself does.
    """
    d = len(sorted_entries)
    if d == 0:
        return UpdateResult(value=self_loop, kept=())
    values = [b for _, b, _ in sorted_entries]
    # A self-loop acts as a virtual neighbour with surviving number +inf: if its
    # weight alone exceeds every neighbour's surviving number, the best feasible
    # threshold lies strictly above b_d and equals the loop weight itself (no
    # neighbour is eligible for the auxiliary subset in that case).
    if self_loop > values[-1]:
        return UpdateResult(value=self_loop, kept=())
    s = self_loop
    for i in range(d, 0, -1):
        node_i, b_i, w_i = sorted_entries[i - 1]
        s += w_i
        b_prev = values[i - 2] if i >= 2 else -math.inf
        if s > b_prev:
            kept = [u for u, _, _ in sorted_entries[i:]]
            if s <= b_i:
                value = s
                kept.append(node_i)
            else:
                value = b_i
            return UpdateResult(value=value, kept=tuple(kept))
    raise AlgorithmError("Update scan failed to terminate; this should be impossible")


def update_sorted(entries: Sequence[Entry], *,
                  histories: Optional[Dict[Hashable, Sequence[float]]] = None,
                  self_loop: float = 0.0) -> UpdateResult:
    """Algorithm 3 with the paper's stateful tie-breaking rule.

    Parameters
    ----------
    entries:
        ``(u_i, b_i, w_i)`` triples for the node's neighbours.
    histories:
        Optional map ``u -> past surviving numbers of u`` (oldest first, **not**
        including the current value).  Ties in the current ``b_i`` are broken by the
        lexicographic order of these histories with more recent entries having
        higher priority, and any remaining tie by node identity — exactly the rule
        in Algorithm 3 line 1.  When ``None``, ties fall through to node identity.
    self_loop:
        Total self-loop weight of the node (see the module docstring).
    """
    _validate_entries(entries)
    if self_loop < 0:
        raise AlgorithmError(f"self_loop weight must be non-negative, got {self_loop}")

    def sort_key(entry: Entry):
        node, b, _ = entry
        if histories is not None and node in histories:
            hist = tuple(reversed(tuple(histories[node])))
        else:
            hist = ()
        return (b, hist, comparable_identity(node))

    ordered = sorted(entries, key=sort_key)
    return _scan(ordered, self_loop)


def update_stable(entries: Sequence[Entry], neighbor_order: Sequence[Hashable], *,
                  self_loop: float = 0.0) -> UpdateResult:
    """Algorithm 3 with the stable-sort alternative mentioned in its comment.

    ``neighbor_order`` is the node's fixed ordering of its neighbours; entries are
    stable-sorted by the current surviving numbers, so equal values keep the fixed
    order.  The paper notes this is an acceptable replacement for the history-based
    rule.
    """
    _validate_entries(entries)
    position = {u: i for i, u in enumerate(neighbor_order)}
    missing = [u for u, _, _ in entries if u not in position]
    if missing:
        raise AlgorithmError(f"neighbor_order is missing entries for {missing!r}")
    ordered = sorted(entries, key=lambda e: position[e[0]])
    ordered.sort(key=lambda e: e[1])  # stable: equal b keep the fixed order
    return _scan(ordered, self_loop)


def update_naive(entries: Sequence[Entry], *, self_loop: float = 0.0) -> UpdateResult:
    """Algorithm 3 with *no* principled tie-breaking (identity order only).

    Used by the A1 ablation: the surviving number it returns is identical to the
    other variants, but its auxiliary subsets are not covered by Lemma III.11 (the
    feasibility invariant can fail, which the ablation measures).
    """
    return update_sorted(entries, histories=None, self_loop=self_loop)


def update_counting(degrees: Sequence[float], *, self_loop: float = 0.0) -> float:
    """The ``O(d)`` counting variant of Remark III.8 for unit edge weights.

    ``degrees`` are the neighbours' current (integer-valued) surviving numbers and
    every edge weight is 1 — the unweighted setting of Remark III.8, in which every
    surviving number produced by the protocol is an integer.  The answer is the
    classic h-index: the largest integer ``k`` such that at least ``k`` neighbours
    have surviving number ``>= k``.  A counter array of size ``d + 1`` suffices
    because the answer can never exceed the number of neighbours ``d``.

    Only ``self_loop == 0`` is supported (the unweighted input graphs of the paper
    have no self-loops); use :func:`update_sorted` otherwise.  The equivalence with
    :func:`update_sorted` on unit-weight integer inputs is asserted by the
    test-suite and measured by the A2 ablation benchmark.
    """
    if self_loop != 0.0:
        raise AlgorithmError("update_counting only supports self_loop == 0; "
                             "use update_sorted for graphs with self-loops")
    d = len(degrees)
    if d == 0:
        return 0.0
    counts = [0] * (d + 1)
    for b in degrees:
        if b < 0:
            raise AlgorithmError(f"surviving numbers must be non-negative, got {b}")
        if b != math.inf and abs(b - round(b)) > 1e-9:
            raise AlgorithmError(
                "update_counting requires integer surviving numbers (unweighted graphs); "
                f"got {b!r}")
        counts[min(d, int(b) if b != math.inf else d)] += 1
    suffix = 0
    for k in range(d, -1, -1):
        suffix += counts[k]
        if suffix >= k:
            return float(k)
    return 0.0


def update_value_only(entries: Sequence[Entry], *, self_loop: float = 0.0) -> float:
    """The surviving number of Algorithm 3 without the auxiliary subset.

    Uses the ``max_k min(S_k, b_(k))`` characterisation directly; this is the
    specification the vectorised engine implements and against which the faithful
    implementations are property-tested.
    """
    _validate_entries(entries)
    ordered = sorted(entries, key=lambda e: -e[1])
    best = self_loop
    prefix = self_loop
    for _, b, w in ordered:
        prefix += w
        best = max(best, min(prefix, b))
    return best
