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
from itertools import chain, combinations, islice

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
    """Count coincident / visible / hidden partners of one strategy.

    ``visibility_test`` defines the rule; it is inlined here as one pass with
    three int counters, because a call per pair makes the full-26 structural
    report about 40% slower.  A partner with the same first wing is coincident
    or visible, else one with the same last wing is visible, else it is hidden.
    """
    first, last = strategy.first, strategy.last
    coincident = visible = hidden = 0
    for other in strategies:
        if other.first == first:
            if other == strategy:
                coincident += 1
            else:
                visible += 1
        elif other.last == last:
            visible += 1
        else:
            hidden += 1
    return {
        VisibilityStatus.COINCIDENT: coincident,
        VisibilityStatus.VISIBLE: visible,
        VisibilityStatus.HIDDEN: hidden,
    }


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


def _row_masks(matrix: np.ndarray) -> list[int]:
    # Bit j of mask i is entry (i, j) of a boolean matrix.
    packed = np.packbits(matrix, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bits(mask: int):
    # Indices of the set bits of a mask, in ascending order.
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_cover(closed: np.ndarray, size: int) -> tuple[int, ...] | None:
    # First ``size``-subset, in lexicographic order, whose rows of ``closed`` cover
    # every node; None if none.  The (size - 1)-subsets ("prefixes") come in
    # lexicographic order, n at a time.  missed[p, l] counts the nodes covered by
    # neither prefix p nor node l; counts up to n are exact in float32 for any n
    # below 2**24.  Prefix p plus l is a cover iff the count is 0 and l lies above the
    # prefix's last member, and the first such pair in row-major order is the
    # first cover.  A zero with l not above the last member is skipped: either
    # the prefix covers alone, or its set also has a valid pair in an earlier row.
    n = closed.shape[0]
    if size == 0:
        return () if n == 0 else None
    left = ~closed
    left_by = np.ascontiguousarray(left.T, dtype=np.float32)  # column l: what l misses
    subsets = combinations(range(n), size - 1)
    while prefixes := list(islice(subsets, n)):
        block = np.fromiter(chain.from_iterable(prefixes), np.intp)
        uncovered = np.logical_and.reduce(left[block.reshape(len(prefixes), size - 1)], axis=1)
        missed = uncovered @ left_by
        if missed.min() > 0:
            continue
        for flat in np.flatnonzero(missed == 0):
            p, last = divmod(int(flat), n)
            if last > max(prefixes[p], default=-1):
                return (*prefixes[p], last)
    return None


def has_dominating_set(graph: VisibilityGraph, size: int) -> bool:
    """Whether some ``size``-subset of nodes covers every node.

    Exhaustive: the (size - 1)-subsets are walked in lexicographic order, n at
    a time, and one matrix product per block counts, for each of them and each
    node that could complete it, the nodes left uncovered.  The walk stops at
    the lexicographically first covering set.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    return _first_cover(_closed_neighborhoods(graph), size) is not None


def minimum_generators(graph: VisibilityGraph) -> GeneratorSet:
    """Smallest vertex set whose closed visibility neighbourhoods cover the graph.

    Sizes are tried in increasing order with the exhaustive search of
    ``has_dominating_set``.  Within a size, candidate sets are examined in
    lexicographic order of their sorted members, so the result is
    deterministic: the lexicographically first complete set of minimum size.
    """
    closed = _closed_neighborhoods(graph)
    n = graph.node_count
    for k in range(1, n + 1):
        combo = _first_cover(closed, k)
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
    hull of the clique stays locally realisable.  Bron-Kerbosch with pivoting
    (the pivot has the most neighbours among the candidates), on node sets
    held as int bit masks; each clique is listed with ascending members and
    the list is sorted.
    """
    neighbors = _row_masks(graph.adjacency)
    cliques: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            cliques.append(tuple(_bits(r)))
            return
        pivot = max(_bits(p | x), key=lambda u: (neighbors[u] & p).bit_count())
        for v in _bits(p & ~neighbors[pivot]):
            expand(r | 1 << v, p & neighbors[v], x & neighbors[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << graph.node_count) - 1, 0)
    return sorted(cliques)


def graph_to_dot(graph: VisibilityGraph) -> str:
    """Graphviz DOT text with nodes labelled by canonical row index."""
    lines = ["graph visibility {"]
    lines.extend(f"  {i};" for i in range(graph.node_count))
    lines.extend(f"  {i} -- {j};" for i, j in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
