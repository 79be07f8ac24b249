"""Visibility structure of the strategy polytope.

Two distinct extreme points are mutually visible when the whole segment
between them stays inside the (non-convex) locally realisable set; for this
scenario that happens exactly when the two strategies agree on the first wing
or on the last wing.  This module classifies strategy pairs, builds the
visibility graph, and answers the structural questions about it: shortest
paths, minimum generator (dominating) sets, coverage accounting for a given
generator list, and maximal all-visible clusters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .strategies import (
    BehaviourPoint,
    DeterministicStrategy,
    FULL_26,
    REDUCED_8,
    _check_representation,
)


class VisibilityStatus(Enum):
    COINCIDENT = "coincident"
    VISIBLE = "visible"
    HIDDEN = "hidden"


def visibility_test(s1: DeterministicStrategy, s2: DeterministicStrategy) -> VisibilityStatus:
    """Classify a strategy pair as coincident, visible or hidden.

    The segment between two distinct extreme points stays locally realisable
    iff the strategies share the first-wing response or the last-wing
    response; sharing only the middle wing does not help.
    """
    if s1 == s2:
        return VisibilityStatus.COINCIDENT
    if s1.first == s2.first or s1.last == s2.last:
        return VisibilityStatus.VISIBLE
    return VisibilityStatus.HIDDEN


def classify_from(strategy: DeterministicStrategy, strategies) -> dict[VisibilityStatus, int]:
    """Count coincident / visible / hidden partners of one strategy."""
    counts = {status: 0 for status in VisibilityStatus}
    for other in strategies:
        counts[visibility_test(strategy, other)] += 1
    return counts


@dataclass(frozen=True)
class VisibilityGraph:
    """Undirected visibility graph over the canonical vertex order.

    ``adjacency`` is a boolean matrix; nodes are row indices of the vertex
    table for ``representation``.
    """

    representation: str
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.diagonal().any():
            raise ValueError("visibility graph has no self-loops")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        adj.flags.writeable = False
        object.__setattr__(self, "adjacency", adj)

    @property
    def node_count(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

    def neighbors(self, node: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[node])

    def degree(self, node: int) -> int:
        return int(self.adjacency[node].sum())

    def edges(self) -> np.ndarray:
        """Node pairs ``(i, j)`` with ``i < j`` of every edge, in row-major order."""
        return np.argwhere(np.triu(self.adjacency))


def _wing_classes(representation: str) -> tuple[np.ndarray, np.ndarray]:
    # First-wing and last-wing class labels per canonical row index.
    if representation == FULL_26:
        idx = np.arange(64)
        return idx // 16, idx % 4
    idx = np.arange(16)
    return idx // 4, idx % 4


def build_visibility_graph(representation: str) -> VisibilityGraph:
    """Visibility graph on the canonical vertex table of a representation.

    In the reduced table the 16 vertices are classified by their first-wing
    and last-wing response pairs exactly as the 64 full vertices are, so both
    graphs connect rows that share the first-wing class or the last-wing
    class.
    """
    _check_representation(representation)
    first, last = _wing_classes(representation)
    same_first = first[:, None] == first[None, :]
    same_last = last[:, None] == last[None, :]
    adjacency = same_first | same_last
    np.fill_diagonal(adjacency, False)
    return VisibilityGraph(representation, adjacency)


def all_pairs_shortest_paths(graph: VisibilityGraph) -> tuple[np.ndarray, int]:
    """Breadth-first APSP matrix and its maximum entry.

    All sources advance together one level at a time: the next frontier is
    every node adjacent to a reached node and not yet reached itself.
    Raises ValueError with the offending pair if the graph is disconnected.
    """
    reached = np.eye(graph.node_count, dtype=bool)
    dist = np.where(reached, 0, -1)
    for level in range(1, graph.node_count):
        frontier = (reached @ graph.adjacency) & ~reached
        if not frontier.any():
            break
        dist[frontier] = level
        reached |= frontier
    if (dist < 0).any():
        i, j = map(int, np.argwhere(dist < 0)[0])
        raise ValueError(f"graph is disconnected: no path between nodes {i} and {j}")
    return dist, int(dist.max())


@dataclass(frozen=True)
class GeneratorSet:
    """A set of vertices together with everything it reaches in one step."""

    members: tuple[int, ...]
    covered: frozenset[int]
    node_count: int

    @property
    def complete(self) -> bool:
        return len(self.covered) == self.node_count

    def to_json_dict(self) -> dict:
        return {
            "members": list(self.members),
            "covered_count": len(self.covered),
            "complete": self.complete,
        }


def _closed_neighborhoods(graph: VisibilityGraph) -> np.ndarray:
    # Row i marks node i and every node it sees.
    return graph.adjacency | np.eye(graph.node_count, dtype=bool)


def _closed_neighborhood_masks(graph: VisibilityGraph) -> list[int]:
    # Bit j of mask i is entry (i, j) of the closed neighbourhoods.
    packed = np.packbits(_closed_neighborhoods(graph), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _first_cover(masks: list[int], size: int) -> tuple[int, ...] | None:
    # First ``size``-subset, in lexicographic order, covering every node; None if none.
    full = (1 << len(masks)) - 1
    for combo in combinations(range(len(masks)), size):
        union = 0
        for i in combo:
            union |= masks[i]
        if union == full:
            return combo
    return None


def has_dominating_set(graph: VisibilityGraph, size: int) -> bool:
    """Exhaustively check whether some ``size``-subset covers every node."""
    if size < 0:
        raise ValueError("size must be non-negative")
    return _first_cover(_closed_neighborhood_masks(graph), size) is not None


def minimum_generators(graph: VisibilityGraph) -> GeneratorSet:
    """Smallest vertex set whose closed visibility neighbourhoods cover the graph.

    Exhaustive search in lexicographic order over increasing sizes, so the
    result is deterministic: the first complete set of minimum size.
    """
    masks = _closed_neighborhood_masks(graph)
    n = graph.node_count
    for k in range(1, n + 1):
        combo = _first_cover(masks, k)
        if combo is not None:
            return GeneratorSet(combo, frozenset(range(n)), n)
    raise ValueError("graph has no dominating set")  # unreachable for n >= 1


@dataclass(frozen=True)
class CoverageReport:
    """Step-by-step coverage accounting for an ordered generator list."""

    members: tuple[int, ...]
    newly_covered: tuple[int, ...]
    running_totals: tuple[int, ...]
    complete: bool

    def to_json_dict(self) -> dict:
        return {
            "members": list(self.members),
            "newly_covered": list(self.newly_covered),
            "running_totals": list(self.running_totals),
            "complete": self.complete,
        }


def verify_generator_set(graph: VisibilityGraph, members) -> CoverageReport:
    """Walk an ordered candidate generator list and record coverage growth.

    Each step adds the closed neighbourhood of the next member; the report
    lists how many nodes were newly covered at each step and whether the
    final union covers the whole graph.
    """
    members = tuple(int(m) for m in members)
    if not members:
        raise ValueError("generator list is empty")
    for m in members:
        if not 0 <= m < graph.node_count:
            raise ValueError(f"node index {m} out of range for {graph.node_count} nodes")
    covered = np.logical_or.accumulate(_closed_neighborhoods(graph)[list(members)])
    totals = covered.sum(axis=1).tolist()
    newly = np.diff(totals, prepend=0).tolist()
    return CoverageReport(members, tuple(newly), tuple(totals), bool(covered[-1].all()))


def segment(p: BehaviourPoint, q: BehaviourPoint, omega: float) -> BehaviourPoint:
    """Convex combination omega * p + (1 - omega) * q of two behaviour points."""
    if p.representation != q.representation:
        raise ValueError("cannot mix representations in a segment")
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    coords = tuple(omega * x + (1.0 - omega) * y for x, y in zip(p.coords, q.coords))
    return BehaviourPoint(coords, p.shape, p.representation)


def maximal_convex_clusters(graph: VisibilityGraph) -> list[tuple[int, ...]]:
    """All maximal cliques of the visibility graph, sorted for determinism.

    Inside a clique every pair of vertices is mutually visible, so the convex
    hull of the clique stays locally realisable.  Bron-Kerbosch with pivoting.
    """
    adjacency = [set(map(int, graph.neighbors(i))) for i in range(graph.node_count)]
    cliques: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adjacency[u] & p))
        for v in sorted(p - adjacency[pivot]):
            expand(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(graph.node_count)), set())
    return sorted(cliques)


def graph_to_dot(graph: VisibilityGraph) -> str:
    """Graphviz DOT text with nodes labelled by canonical row index."""
    lines = ["graph visibility {"]
    lines.extend(f"  {i};" for i in range(graph.node_count))
    lines.extend(f"  {i} -- {j};" for i, j in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
