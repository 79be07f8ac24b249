"""Visibility structure of the strategy polytope.

Two distinct extreme points are mutually visible when the whole segment
between them stays inside the (non-convex) locally realisable set; for this
scenario that happens exactly when the two strategies agree on the first wing
or on the last wing.  This module classifies strategy pairs, builds the
visibility graph, and answers the structural questions about it: shortest
paths, minimum generator (dominating) sets, coverage accounting for a given
generator list, and maximal all-visible clusters.

The generator and clique searches run on the closed-twin quotient.  Closed
twins are nodes with the same closed neighbourhood (each sees the other and
every node the other sees); they fall into classes, ordered by their smallest
member, and the quotient graph has one node per class.  A minimum cover holds
at most one node of a class, and a maximal clique holds every node of a class
or none, so both answers on the quotient lift back to the graph unchanged.
Each graph finds its quotient and the quotient's minimum cover once, on first
use, and the two canonical graphs are constants, built once at import.
The full-26 graph is 16 classes of 4 twins (the strategies that differ only
in the middle wing), and its quotient is the reduced-8 graph, which has no
twins and is its own quotient.  Shortest paths run on the quotient as well:
each graph keeps one table of distances between its classes, a class of
twins at distance 1 from itself, which ``diameter`` reads and the shortest
path matrix lifts to the nodes.

A graph holds nothing but the int bit masks of its adjacency rows, and
every search, listing and export reads them, so nothing here imports
numpy until a caller asks for an array: the adjacency matrix, the shortest
path matrix, or a graph built from a matrix.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import chain, combinations
from typing import TYPE_CHECKING

from .strategies import (
    BehaviourPoint,
    DeterministicStrategy,
    FULL_26,
    REDUCED_8,
    _check_int,
    _check_real,
    _check_representation,
    _Record,
)

if TYPE_CHECKING:
    import numpy as np


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
    three int counters over the strategies' wing indices, because a
    ``visibility_test`` call per pair makes the classification ~5x slower.
    A partner with the same first wing is coincident (all three wings
    equal) or visible, else one with the same last wing is visible, else it
    is hidden.
    """
    first, middle, last = strategy.first, strategy.middle, strategy.last
    coincident = visible = hidden = 0
    for other in strategies:
        if other.first == first:
            if other.middle == middle and other.last == last:
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


def _bits(mask: int):
    # Indices of the set bits of a mask, in ascending order.
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VisibilityGraph(_Record, eq=False):
    """Undirected visibility graph on nodes 0 .. n - 1.

    Bit j of the int ``row_masks[i]`` is set iff nodes i and j see each
    other; in a graph from ``build_visibility_graph`` the nodes are the rows
    of that representation's vertex table.  The masks are all the graph
    holds: construction checks them (ints, no bit beyond the last node, no
    self-loops, symmetric), and ``adjacency`` is a read-only boolean matrix
    built from them on first use.  ``from_adjacency`` builds a graph from a
    matrix.  The closed-twin quotient, which the generator, clique and
    shortest-path searches read, its minimum cover and its class-distance
    table are computed once per graph.  Graphs compare by identity.
    """

    row_masks: tuple[int, ...]

    def __init__(self, row_masks: tuple[int, ...]) -> None:
        masks = tuple(row_masks)
        n = len(masks)
        for node, mask in enumerate(masks):
            _check_int("row mask", mask, 0, (1 << n) - 1)
            if mask >> node & 1:
                raise ValueError("visibility graph has no self-loops")
        if any(not masks[j] >> i & 1 for i, mask in enumerate(masks) for j in _bits(mask)):
            raise ValueError("adjacency must be symmetric")
        self._store(masks)

    @classmethod
    def from_adjacency(cls, adjacency) -> VisibilityGraph:
        """Graph from a square adjacency matrix (any array-like) of booleans
        or of the numbers 0 and 1."""
        import numpy as np

        adj = np.asarray(adjacency)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        # A cast to bool would make an edge of NaN, 0.5, 2 or the string "0".
        if adj.dtype.kind not in "biuf" or not ((adj == 0) | (adj == 1)).all():
            raise ValueError("adjacency entries must be booleans or the numbers 0 and 1")
        packed = np.packbits(adj.astype(bool), axis=1, bitorder="little")
        return cls(tuple(int.from_bytes(row.tobytes(), "little") for row in packed))

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only boolean adjacency matrix, built from the masks."""
        import numpy as np

        n = self.node_count
        size = (n + 7) // 8
        packed = np.frombuffer(b"".join(mask.to_bytes(size, "little") for mask in self.row_masks), np.uint8)
        adj = np.unpackbits(packed.reshape(n, size), axis=1, count=n, bitorder="little").astype(bool)
        adj.flags.writeable = False
        return adj

    @property
    def node_count(self) -> int:
        return len(self.row_masks)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.row_masks) // 2

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(_bits(self.row_masks[node]))

    def degree(self, node: int) -> int:
        return self.row_masks[node].bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Node pairs ``(i, j)`` with ``i < j`` of every edge, in row-major order."""
        return tuple(
            (i, j) for i, mask in enumerate(self.row_masks) for j in _bits(mask >> (i + 1) << (i + 1))
        )

    @cached_property
    def _twin_quotient(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        # Closed-twin classes, each a tuple of its nodes, in order of smallest
        # member; and the quotient's closed neighbourhoods as masks over class
        # indices.  Twins have equal closed-neighbourhood masks, so the classes
        # are the nodes grouped by that mask.  Class d is in class c's closed
        # neighbourhood iff d's smallest member is.
        classes: dict[int, list[int]] = {}
        for node, mask in enumerate(self.row_masks):
            classes.setdefault(mask | 1 << node, []).append(node)
        members = tuple(map(tuple, classes.values()))
        smallest = [nodes[0] for nodes in members]
        masks = tuple(
            sum(1 << d for d, node in enumerate(smallest) if closed >> node & 1) for closed in classes
        )
        return members, masks

    @cached_property
    def _class_distances(self) -> tuple[tuple[int, ...], ...]:
        # Breadth-first distance between every two closed-twin classes: the
        # next ring is every class that a class of the last ring sees and that
        # is not yet reached.  A class is at distance 1 from itself when it
        # holds two twins, else 0.  A failed search raises and caches nothing.
        if not self.row_masks:
            raise ValueError("shortest paths need a graph with at least one node")
        members, masks = self._twin_quotient
        full = (1 << len(members)) - 1
        table = []
        for source, nodes in enumerate(members):
            dist = [0] * len(members)
            dist[source] = int(len(nodes) > 1)
            reached = ring = 1 << source
            depth = 0
            while reached != full:
                grown = 0
                for c in _bits(ring):
                    grown |= masks[c]
                ring = grown & ~reached
                if not ring:
                    # Classes are ordered by smallest member and the first source
                    # is node 0's class: this is the first unreachable node pair.
                    missing = members[next(_bits(full & ~reached))][0]
                    raise ValueError(f"graph is disconnected: no path between nodes {nodes[0]} and {missing}")
                depth += 1
                reached |= ring
                for c in _bits(ring):
                    dist[c] = depth
            table.append(tuple(dist))
        return tuple(table)

    @cached_property
    def _minimum_generators(self) -> CoverageReport:
        # The coverage report of the lexicographically first smallest cover of
        # the quotient, each class lifted to its smallest member; callers rule
        # out the empty graph, whose cover is empty.  The report is frozen and
        # holds only tuples, so every caller can share it.
        members, masks = self._twin_quotient
        covers = (_first_cover(masks, size) for size in range(len(masks) + 1))
        cover = next(cover for cover in covers if cover is not None)
        return verify_generator_set(self, [members[c][0] for c in cover])


def _canonical_masks(representation: str) -> tuple[int, ...]:
    # Rows that share the first-wing class or the last-wing class see each
    # other.  Each class is the mask of its rows, and a row's neighbours are
    # the union of its two classes without the row itself.
    n = 64 if representation == FULL_26 else 16
    first = [0] * 4
    last = [0] * 4
    for node in range(n):
        first[4 * node // n] |= 1 << node
        last[node % 4] |= 1 << node
    return tuple((first[4 * node // n] | last[node % 4]) & ~(1 << node) for node in range(n))


# Both canonical graphs, built once and shared.
_CANONICAL_GRAPHS = {rep: VisibilityGraph(_canonical_masks(rep)) for rep in (FULL_26, REDUCED_8)}


def build_visibility_graph(representation: str) -> VisibilityGraph:
    """Visibility graph on the canonical vertex table of a representation.

    In the reduced table the 16 vertices are classified by their first-wing
    and last-wing response pairs exactly as the 64 full vertices are, so both
    graphs connect rows that share the first-wing class or the last-wing
    class.  Both graphs are built once, at import, and every call returns
    the same frozen graph.
    """
    _check_representation(representation)
    return _CANONICAL_GRAPHS[representation]


def diameter(graph: VisibilityGraph) -> int:
    """Largest shortest-path distance between two nodes of a connected graph.

    The largest entry of the graph's class-distance table, which counts a
    class that holds two twins as at distance 1 from itself.  Raises
    ValueError, naming the first unreachable pair, if the graph is
    disconnected, and on a graph with no nodes.
    """
    return max(map(max, graph._class_distances))


def all_pairs_shortest_paths(graph: VisibilityGraph) -> tuple[np.ndarray, int]:
    """Breadth-first APSP matrix and its maximum entry, the ``diameter``.

    The class-distance table of the closed-twin quotient, lifted to the
    nodes: two nodes are as far apart as their classes, so distinct twins
    are at distance 1, and the diagonal is 0.  Each call returns a new
    array.  Raises ValueError like ``diameter``.
    """
    import numpy as np

    members, _ = graph._twin_quotient
    class_of = [c for _, c in sorted((node, c) for c, nodes in enumerate(members) for node in nodes)]
    dist = np.array(graph._class_distances)[np.ix_(class_of, class_of)]
    np.fill_diagonal(dist, 0)
    return dist, int(dist.max())


def _first_cover(masks: list[int], size: int) -> tuple[int, ...] | None:
    # First ``size``-subset, in lexicographic order, whose closed-neighbourhood
    # masks cover every node; None if none.
    full = (1 << len(masks)) - 1
    for combo in combinations(range(len(masks)), size):
        union = 0
        for i in combo:
            union |= masks[i]
        if union == full:
            return combo
    return None


def has_dominating_set(graph: VisibilityGraph, size: int) -> bool:
    """Whether some ``size``-subset of nodes covers every node.

    Adding nodes to a cover keeps it one, so for 1 <= size <= n the answer
    is whether ``size`` is at least the size of the minimum cover, which
    each graph finds once, by the search ``minimum_generators`` describes,
    and every later call reads.  The empty set covers only the empty graph,
    and no set has more than n nodes.
    """
    _check_int("size", size, 0)
    if not 1 <= size <= graph.node_count:
        return size == graph.node_count == 0
    return size >= len(graph._minimum_generators.members)


def minimum_generators(graph: VisibilityGraph) -> CoverageReport:
    """Smallest vertex set whose closed visibility neighbourhoods cover the graph.

    Once per graph, sizes k are tried in increasing order with a loop over the
    k-subsets of classes of the closed-twin quotient, OR-ing the int bit masks
    of their closed neighbourhoods until one union holds every class, and
    each class of the first such cover is lifted to its smallest member.
    Within a size, candidate sets are examined in lexicographic order of their
    sorted members, so the result is deterministic: the lexicographically first
    complete set of minimum size.  The lift gives that same set on the graph:
    a minimum cover never holds two twins, since one of them could be dropped,
    and putting each member's smallest twin in its place keeps it a cover that
    is no later in that order; classes are numbered in order of their smallest
    members, so the order of class sets and of their lifts agree.  The
    result is the cover's coverage report, from ``verify_generator_set``,
    built once per graph; every call returns the same report.
    """
    if not graph.node_count:
        raise ValueError("graph has no dominating set")
    return graph._minimum_generators


class CoverageReport(_Record):
    """Step-by-step coverage accounting for an ordered generator list."""

    members: tuple[int, ...]
    newly_covered: tuple[int, ...]
    running_totals: tuple[int, ...]
    complete: bool

    def __init__(
        self, members: tuple[int, ...], newly_covered: tuple[int, ...],
        running_totals: tuple[int, ...], complete: bool,
    ) -> None:
        self._store(members, newly_covered, running_totals, complete)

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "covered_count": self.running_totals[-1]}


def verify_generator_set(graph: VisibilityGraph, members) -> CoverageReport:
    """Walk an ordered candidate generator list and record coverage growth.

    Each step adds the closed neighbourhood of the next member; the report
    lists how many nodes were newly covered at each step and whether the
    final union covers the whole graph.
    """
    members = tuple(members)
    if not members:
        raise ValueError("generator list is empty")
    n, masks = graph.node_count, graph.row_masks
    for m in members:
        _check_int("node index", m, 0, n - 1)
    covered = 0
    newly = []
    totals = []
    for m in members:
        before = covered.bit_count()
        covered |= masks[m] | 1 << m
        totals.append(covered.bit_count())
        newly.append(totals[-1] - before)
    return CoverageReport(members, tuple(newly), tuple(totals), covered == (1 << n) - 1)


def segment(p: BehaviourPoint, q: BehaviourPoint, omega: float) -> BehaviourPoint:
    """Convex combination omega * p + (1 - omega) * q of two behaviour points."""
    if p.representation != q.representation:
        raise ValueError("cannot mix representations in a segment")
    _check_real("omega", omega, 0, 1)
    coords = tuple(omega * x + (1.0 - omega) * y for x, y in zip(p.coords, q.coords))
    return BehaviourPoint(coords, p.representation)


def maximal_convex_clusters(graph: VisibilityGraph) -> list[tuple[int, ...]]:
    """All maximal cliques of the visibility graph, sorted for determinism.

    Inside a clique every pair of vertices is mutually visible, so the convex
    hull of the clique stays locally realisable.  A twin of a clique member
    sees every other member, so a maximal clique is a union of whole
    closed-twin classes, and the maximal cliques of the graph are exactly the
    lifts of those of its quotient.  Bron-Kerbosch with pivoting (the pivot
    has the most neighbours among the candidates) runs on the quotient, on
    class sets held as int bit masks; each clique is lifted to the ascending
    list of its classes' members, and the list is sorted.
    """
    members, masks = graph._twin_quotient
    neighbors = [mask & ~(1 << c) for c, mask in enumerate(masks)]
    cliques: list[tuple[int, ...]] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            cliques.append(tuple(sorted(chain.from_iterable(members[c] for c in _bits(r)))))
            return
        pivot = max(_bits(p | x), key=lambda u: (neighbors[u] & p).bit_count())
        for v in _bits(p & ~neighbors[pivot]):
            expand(r | 1 << v, p & neighbors[v], x & neighbors[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, (1 << len(members)) - 1, 0)
    return sorted(cliques)


def graph_to_dot(graph: VisibilityGraph) -> str:
    """Graphviz DOT text with nodes labelled by canonical row index."""
    lines = ["graph visibility {"]
    lines.extend(f"  {i};" for i in range(graph.node_count))
    lines.extend(f"  {i} -- {j};" for i, j in graph.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
