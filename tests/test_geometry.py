"""Visibility classification and graph-structure tests.

Core claims pinned here:
  * Every vertex sees exactly {1 coincident, 27 visible, 36 hidden} partners.
  * Both visibility graphs are degree-regular (27 / 6), have 864 / 48 edges,
    and APSP maximum exactly 2.
  * Minimum generator sets have size 4 on both graphs; the diagonal and
    same-row constructions cover with the frozen increment patterns.
  * Maximal cliques are the 8 wing classes (size 16 full, size 4 reduced).
  * APSP and the diameter (from the quotient), coverage accounting, the
    edge and neighbour listings and the DOT text (from the masks) agree with
    the node-by-node walks kept below as references, on the canonical graphs
    and on generated graphs (connected or not).
  * The cover search, the bit-mask Bron-Kerbosch and the one-pass
    classification agree with the big-int subset loop, the set-based
    Bron-Kerbosch and a per-pair visibility_test count kept below; on the
    empty graph the empty set is the only cover.
  * build_visibility_graph returns one shared graph per representation, and
    a graph runs its minimum-cover search once, whichever of
    minimum_generators and has_dominating_set asks first; every call to
    minimum_generators returns the same report.  It builds its class-distance
    table once too, across diameter and APSP calls, and each APSP call
    returns a new, writable matrix.
  * Node indices and dominating-set sizes must be ints: floats, strings and
    bools are rejected, not truncated.
  * The full graph's closed-twin quotient is the reduced graph, and the
    generator and clique searches on the quotient agree with those
    references on generated graphs with planted twins.
  * A graph holds its adjacency as int row masks, checked at construction;
    its matrix round-trips the one it was built from and is read-only, and
    mutating the caller's array leaves the graph and its answers unchanged.
  * Shortest paths and the diameter reject the 0-node graph with a message
    of their own.
  * Both canonical graphs stand for the geometry: at omega in {0.5, 0.1,
    0.01}, the reduced-8 columns of every visible pair's segment point
    project onto the uncorrelated manifold at distance <= 1e-11, and every
    hidden pair's at >= 5e-3, each projection converged and certified.
"""

import re
from functools import cached_property
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from p3poly import geometry as ge
from p3poly import manifold
from p3poly import strategies as st


def all_strategies():
    return st.enumerate_strategies()


def test_visibility_examples():
    s = all_strategies()
    assert ge.visibility_test(s[0], s[0]) is ge.VisibilityStatus.COINCIDENT
    # Same first wing (indices 0 and 1 share alpha class 0).
    assert ge.visibility_test(s[0], s[4]) is ge.VisibilityStatus.VISIBLE
    # Same last wing (indices 0 and 16 share gamma class 0).
    assert ge.visibility_test(s[0], s[16]) is ge.VisibilityStatus.VISIBLE
    # Sharing only the middle wing does not help.
    assert s[17].middle == s[0].middle
    assert s[17].first != s[0].first and s[17].last != s[0].last
    assert ge.visibility_test(s[17], s[0]) is ge.VisibilityStatus.HIDDEN
    # Nothing shared at all.
    assert ge.visibility_test(s[21], s[0]) is ge.VisibilityStatus.HIDDEN


def test_visibility_symmetry():
    s = all_strategies()
    rng = np.random.default_rng(7)
    for _ in range(300):
        i, j = rng.integers(0, 64, size=2)
        assert ge.visibility_test(s[i], s[j]) is ge.visibility_test(s[j], s[i])


def test_classification_counts_exhaustive():
    s = all_strategies()
    expected = {
        ge.VisibilityStatus.COINCIDENT: 1,
        ge.VisibilityStatus.VISIBLE: 27,
        ge.VisibilityStatus.HIDDEN: 36,
    }
    for strategy in s:
        assert ge.classify_from(strategy, s) == expected


def test_full_graph_structure():
    graph = ge.build_visibility_graph(st.FULL_26)
    assert graph.node_count == 64
    assert graph.edge_count == 864
    assert all(graph.degree(i) == 27 for i in range(64))
    # Adjacency agrees with the pairwise test.
    s = all_strategies()
    for i in (0, 13, 21, 42, 63):
        for j in range(64):
            expected = ge.visibility_test(s[i], s[j]) is ge.VisibilityStatus.VISIBLE
            assert bool(graph.adjacency[i, j]) == expected


def test_reduced_graph_structure():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    assert graph.node_count == 16
    assert graph.edge_count == 48
    assert all(graph.degree(i) == 6 for i in range(16))


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loops"):
        ge.VisibilityGraph.from_adjacency(np.ones((2, 2), dtype=bool))
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        ge.VisibilityGraph.from_adjacency(asym)
    with pytest.raises(ValueError, match="square"):
        ge.VisibilityGraph.from_adjacency(np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        ge.build_visibility_graph("full")


@pytest.mark.parametrize(
    "entry", [float("nan"), 0.5, 2, -1, "0", "1", None, 1j], ids=repr,
)
def test_from_adjacency_takes_only_booleans_and_zero_or_one(entry):
    # A cast to bool used to make each of these an edge.
    with pytest.raises(ValueError, match="booleans or the numbers 0 and 1"):
        ge.VisibilityGraph.from_adjacency([[0, entry], [entry, 0]])


def test_from_adjacency_accepts_booleans_ints_floats_and_the_empty_graph():
    for adjacency in ([[False, True], [True, False]], [[0, 1], [1, 0]], np.array([[0.0, 1.0], [1.0, 0.0]])):
        assert ge.VisibilityGraph.from_adjacency(adjacency).row_masks == (0b10, 0b01)
    assert ge.VisibilityGraph.from_adjacency(np.zeros((0, 0))).node_count == 0


@pytest.mark.parametrize(
    "masks, message",
    [
        ((0b10, 0b01), None),
        ((0b10, 0b00), "symmetric"),
        ((0b110, 0b001, 0b000), "symmetric"),
        ((0b110, 0b001, 0b001), None),
        ((0b01, 0b00), "self-loops"),
    ],
)
def test_graph_validates_its_row_masks(masks, message):
    if message is None:
        assert ge.VisibilityGraph(list(masks)).row_masks == masks
    else:
        with pytest.raises(ValueError, match=message):
            ge.VisibilityGraph(masks)


def test_graph_owns_a_copy_of_its_adjacency():
    adjacency = np.array(ge.build_visibility_graph(st.REDUCED_8).adjacency)
    graph = ge.VisibilityGraph.from_adjacency(adjacency)
    assert graph.row_masks == ge.build_visibility_graph(st.REDUCED_8).row_masks
    assert adjacency.flags.writeable and not graph.adjacency.flags.writeable
    assert not np.shares_memory(adjacency, graph.adjacency)
    before = graph.adjacency.copy()
    generators = ge.minimum_generators(graph)
    # Node 0 sees every node: one node now dominates the caller's graph.
    adjacency[0, 1:] = adjacency[1:, 0] = True
    assert ge.minimum_generators(ge.VisibilityGraph.from_adjacency(adjacency)).members == (0,)
    assert np.array_equal(graph.adjacency, before)
    assert ge.minimum_generators(graph) == generators


def test_apsp_max_two():
    for representation in (st.FULL_26, st.REDUCED_8):
        graph = ge.build_visibility_graph(representation)
        dist, longest = ge.all_pairs_shortest_paths(graph)
        assert longest == 2
        assert (dist.diagonal() == 0).all()
        assert (dist == dist.T).all()
        assert dist.min() == 0
        assert ((dist == 1) == graph.adjacency).all()


def test_apsp_disconnected_raises():
    graph = ge.VisibilityGraph.from_adjacency(np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="disconnected"):
        ge.all_pairs_shortest_paths(graph)
    with pytest.raises(ValueError, match="disconnected"):
        ge.diameter(graph)


def test_minimum_generators_both_graphs():
    for representation in (st.FULL_26, st.REDUCED_8):
        graph = ge.build_visibility_graph(representation)
        generators = ge.minimum_generators(graph)
        assert len(generators.members) == 4
        assert generators.complete
        assert generators.running_totals[-1] == graph.node_count
        assert generators == ge.verify_generator_set(graph, generators.members)


def test_no_size_three_dominating_set_reduced():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    assert not ge.has_dominating_set(graph, 3)
    assert ge.has_dominating_set(graph, 4)
    with pytest.raises(ValueError, match=r"^size must be an int >= 0, got -1$"):
        ge.has_dominating_set(graph, -1)


def test_canonical_graphs_are_shared_constants():
    for representation in (st.FULL_26, st.REDUCED_8):
        assert ge.build_visibility_graph(representation) is ge.build_visibility_graph(representation)


@pytest.mark.parametrize("representation", [st.FULL_26, st.REDUCED_8])
def test_cover_search_runs_once_per_graph(monkeypatch, representation):
    sizes = []
    first_cover = ge._first_cover

    def counted(masks, size):
        sizes.append(size)
        return first_cover(masks, size)

    monkeypatch.setattr(ge, "_first_cover", counted)
    masks = ge.build_visibility_graph(representation).row_masks
    graph = ge.VisibilityGraph(masks)
    generators = ge.minimum_generators(graph)
    search = list(sizes)
    assert search == sorted(set(search)) and len(generators.members) == 4
    for size in range(graph.node_count + 2):
        ge.has_dominating_set(graph, size)
    assert ge.minimum_generators(graph) is generators
    assert sizes == search
    # On a fresh graph, the dominating-set question alone runs the same search.
    fresh = ge.VisibilityGraph(masks)
    assert not ge.has_dominating_set(fresh, 3) and ge.has_dominating_set(fresh, 4)
    assert ge.minimum_generators(fresh).members == generators.members
    assert sizes == search * 2


@pytest.mark.parametrize("representation", [st.FULL_26, st.REDUCED_8])
def test_class_distances_are_built_once_per_graph(monkeypatch, representation):
    built = []
    build = ge.VisibilityGraph._class_distances.func

    def counted(graph):
        built.append(graph)
        return build(graph)

    table = cached_property(counted)
    table.__set_name__(ge.VisibilityGraph, "_class_distances")
    monkeypatch.setattr(ge.VisibilityGraph, "_class_distances", table)
    masks = ge.build_visibility_graph(representation).row_masks
    graph = ge.VisibilityGraph(masks)
    results = []
    for _ in range(3):
        assert ge.diameter(graph) == 2
        dist, longest = ge.all_pairs_shortest_paths(graph)
        assert longest == 2
        results.append(dist)
    assert built == [graph]
    # Every call returns its own writable matrix, so changing one result
    # changes neither the others nor the next call's.
    expected = results[0].copy()
    assert all(dist.flags.writeable for dist in results)
    assert len({id(dist) for dist in results}) == len(results)
    results[0][:] = 7
    assert np.array_equal(results[1], expected)
    assert np.array_equal(ge.all_pairs_shortest_paths(graph)[0], expected)
    assert built == [graph]
    # A fresh graph builds its own table, whichever search asks first.
    fresh = ge.VisibilityGraph(masks)
    assert np.array_equal(ge.all_pairs_shortest_paths(fresh)[0], expected)
    assert ge.diameter(fresh) == 2
    assert built == [graph, fresh]


def test_coverage_diagonal_full():
    graph = ge.build_visibility_graph(st.FULL_26)
    report = ge.verify_generator_set(graph, (0, 21, 42, 63))
    assert report.newly_covered == (28, 20, 12, 4)
    assert report.running_totals == (28, 48, 60, 64)
    assert report.complete


def test_coverage_same_row_full():
    graph = ge.build_visibility_graph(st.FULL_26)
    report = ge.verify_generator_set(graph, (0, 1, 2, 3))
    assert report.newly_covered == (28, 12, 12, 12)
    assert report.running_totals == (28, 40, 52, 64)
    assert report.complete


def test_coverage_reduced_constructions():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    diagonal = ge.verify_generator_set(graph, (0, 5, 10, 15))
    assert diagonal.newly_covered == (7, 5, 3, 1)
    assert diagonal.running_totals == (7, 12, 15, 16)
    assert diagonal.complete
    same_row = ge.verify_generator_set(graph, (0, 1, 2, 3))
    assert same_row.newly_covered == (7, 3, 3, 3)
    assert same_row.complete


def test_coverage_single_vertex_incomplete():
    graph = ge.build_visibility_graph(st.FULL_26)
    report = ge.verify_generator_set(graph, (0,))
    assert report.newly_covered == (28,)
    assert not report.complete


def test_coverage_errors():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    with pytest.raises(ValueError):
        ge.verify_generator_set(graph, ())
    with pytest.raises(ValueError):
        ge.verify_generator_set(graph, (0, 16))
    # Not truncated to (0, 5, 10, 1): the first member that is not an int is named.
    with pytest.raises(ValueError, match=r"^node index must be an int in 0\.\.15, got 0\.9$"):
        ge.verify_generator_set(graph, [0.9, 5.5, "10", True])


@pytest.mark.parametrize("bad", [0.9, 5.5, 2.0, 2.5, "10", True, False, None, np.int64(1)])
def test_node_indices_and_sizes_must_be_ints(bad):
    graph = ge.build_visibility_graph(st.REDUCED_8)
    with pytest.raises(ValueError, match=f"^node index must be an int in 0\\.\\.15, got {re.escape(repr(bad))}$"):
        ge.verify_generator_set(graph, [0, bad, 1])
    with pytest.raises(ValueError, match=f"^size must be an int >= 0, got {re.escape(repr(bad))}$"):
        ge.has_dominating_set(graph, bad)


def test_segment_endpoints_and_midpoint():
    p = st.BehaviourPoint.reduced([1.0] * 8)
    q = st.BehaviourPoint.reduced([0.0] * 8)
    assert ge.segment(p, q, 1.0) == p
    assert ge.segment(p, q, 0.0) == q
    mid = ge.segment(p, q, 0.5)
    assert mid.coords == (0.5,) * 8


def test_segment_errors():
    p = st.BehaviourPoint.reduced([0.5] * 8)
    q = st.BehaviourPoint.full([0.5] * 26)
    with pytest.raises(ValueError):
        ge.segment(p, p, 1.5)
    with pytest.raises(ValueError):
        ge.segment(p, q, 0.5)


def test_segment_between_visible_vertices_stays_consistent():
    # A mixture of two strategies sharing the first wing keeps the pair
    # coordinates consistent with the mixture of the vertices.
    s = all_strategies()
    p = st.behaviour_from_vertex(st.vertex_from_strategy(s[21]))
    q = st.behaviour_from_vertex(st.vertex_from_strategy(s[23]))  # same alpha, beta
    mix = ge.segment(p, q, 0.25)
    expected = 0.25 * np.array(p.coords) + 0.75 * np.array(q.coords)
    assert np.allclose(mix.as_array(), expected)


def test_maximal_cliques_reduced():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    cliques = ge.maximal_convex_clusters(graph)
    assert len(cliques) == 8
    assert {len(c) for c in cliques} == {4}
    # First-wing class 0 and last-wing class 0 are cliques.
    assert (0, 1, 2, 3) in cliques
    assert (0, 4, 8, 12) in cliques
    # Every clique is fully connected.
    for clique in cliques:
        for i in clique:
            for j in clique:
                if i != j:
                    assert graph.adjacency[i, j]


def test_maximal_cliques_full():
    graph = ge.build_visibility_graph(st.FULL_26)
    cliques = ge.maximal_convex_clusters(graph)
    assert len(cliques) == 8
    assert {len(c) for c in cliques} == {16}
    assert tuple(range(16)) in cliques           # first-wing class 0
    assert tuple(range(0, 64, 4)) in cliques     # last-wing class 0


def test_dot_export():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    dot = ge.graph_to_dot(graph)
    assert dot.startswith("graph visibility {")
    assert dot.rstrip().endswith("}")
    assert "  0 -- 1;" in dot
    edge_lines = [line for line in dot.splitlines() if "--" in line]
    assert len(edge_lines) == 48


def test_generator_set_report_dicts():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    generators = ge.minimum_generators(graph)
    data = generators.to_json_dict()
    assert data["complete"] is True
    assert len(data["members"]) == 4
    assert data["covered_count"] == 16
    report = ge.verify_generator_set(graph, (0, 5, 10, 15)).to_json_dict()
    assert report == {
        "members": (0, 5, 10, 15),
        "newly_covered": (7, 5, 3, 1),
        "running_totals": (7, 12, 15, 16),
        "complete": True,
        "covered_count": 16,
    }
    partial = ge.verify_generator_set(graph, (0,)).to_json_dict()
    assert (partial["covered_count"], partial["complete"]) == (7, False)


# References: node-by-node walks over the rows of the adjacency matrix, which
# the tests on generated graphs check against the matrix each graph came from.

def reference_neighbors(graph, i):
    return np.flatnonzero(graph.adjacency[i]).tolist()


def reference_apsp(graph):
    # Per-source breadth-first search on Python lists.
    n = graph.node_count
    rows = graph.adjacency.tolist()
    dist = [[-1] * n for _ in range(n)]
    for source in range(n):
        dist[source][source] = 0
        frontier = [source]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in range(n):
                    if rows[u][v] and dist[source][v] < 0:
                        dist[source][v] = level
                        nxt.append(v)
            frontier = nxt
    for i in range(n):
        for j in range(n):
            if dist[i][j] < 0:
                raise ValueError(f"graph is disconnected: no path between nodes {i} and {j}")
    return np.array(dist), max(map(max, dist))


def reference_masks(graph):
    masks = []
    for i in range(graph.node_count):
        mask = 1 << i
        for j in reference_neighbors(graph, i):
            mask |= 1 << int(j)
        masks.append(mask)
    return masks


def reference_coverage(graph, members):
    covered = set()
    newly = []
    totals = []
    for m in members:
        closed = {m} | {int(j) for j in reference_neighbors(graph, m)}
        newly.append(len(closed - covered))
        covered |= closed
        totals.append(len(covered))
    return tuple(newly), tuple(totals), len(covered) == graph.node_count


def reference_dot(graph):
    lines = ["graph visibility {"]
    lines.extend(f"  {i};" for i in range(graph.node_count))
    for i in range(graph.node_count):
        for j in reference_neighbors(graph, i):
            if i < j:
                lines.append(f"  {i} -- {int(j)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_first_cover(masks, size):
    full = (1 << len(masks)) - 1
    for combo in combinations(range(len(masks)), size):
        union = 0
        for i in combo:
            union |= masks[i]
        if union == full:
            return combo
    return None


def reference_cliques(graph):
    adjacency = [set(map(int, reference_neighbors(graph, i))) for i in range(graph.node_count)]
    cliques = []

    def expand(r, p, x):
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


def reference_classification(strategy, strategies):
    counts = {status: 0 for status in ge.VisibilityStatus}
    for other in strategies:
        counts[ge.visibility_test(strategy, other)] += 1
    return counts


@hs.composite
def adjacency_matrices(draw, max_nodes=40):
    # Symmetric and loop-free; low densities give disconnected graphs.
    n = draw(hs.integers(1, max_nodes))
    density = draw(hs.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return upper | upper.T


CANONICAL = [ge.build_visibility_graph(rep).adjacency for rep in (st.FULL_26, st.REDUCED_8)]
oracle_settings = settings(derandomize=True, database=None, deadline=None)


@oracle_settings
@given(adjacency_matrices())
@example(CANONICAL[0])
@example(CANONICAL[1])
def test_apsp_matches_per_source_bfs(adjacency):
    check_apsp(ge.VisibilityGraph.from_adjacency(adjacency))


def check_apsp(graph):
    # Whether the graph is connected, after checking APSP against the reference:
    # the same matrix and maximum, or the same error naming the first
    # unreachable pair in row-major order.
    try:
        expected = reference_apsp(graph)
    except ValueError as exc:
        for search in (ge.all_pairs_shortest_paths, ge.diameter):
            with pytest.raises(ValueError) as raised:
                search(graph)
            assert str(raised.value) == str(exc)
        return False
    dist, longest = ge.all_pairs_shortest_paths(graph)
    assert dist.dtype == expected[0].dtype
    assert np.array_equal(dist, expected[0])
    assert longest == ge.diameter(graph) == expected[1]
    return True


def test_apsp_matches_per_source_bfs_on_seeded_small_graphs():
    connected = []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 13))
        upper = np.triu(rng.random((n, n)) < rng.choice([0.1, 0.3, 0.6]), k=1)
        connected.append(check_apsp(ge.VisibilityGraph.from_adjacency(upper | upper.T)))
    assert 50 <= sum(connected) <= 250


@oracle_settings
@given(adjacency_matrices(), hs.data())
@example(CANONICAL[0], None)
@example(CANONICAL[1], None)
def test_coverage_matches_set_walk(adjacency, data):
    graph = ge.VisibilityGraph.from_adjacency(adjacency)
    n = graph.node_count
    assert np.array_equal(graph.adjacency, adjacency)
    assert [mask | 1 << i for i, mask in enumerate(graph.row_masks)] == reference_masks(graph)
    if data is None:
        member_lists = [(0, 21, 42, 63), (0, 1, 2, 3), (0, 5, 10, 15), (3, 3, 0, 3)]
        member_lists = [m for m in member_lists if max(m) < n]
    else:
        member_lists = [data.draw(hs.lists(hs.integers(0, n - 1), min_size=1, max_size=2 * n))]
    for members in member_lists:
        report = ge.verify_generator_set(graph, members)
        assert report.members == tuple(members)
        assert (report.newly_covered, report.running_totals, report.complete) == reference_coverage(
            graph, members
        )


@oracle_settings
@given(adjacency_matrices())
@example(CANONICAL[0])
@example(CANONICAL[1])
def test_dot_and_edges_match_neighbor_loop(adjacency):
    graph = ge.VisibilityGraph.from_adjacency(adjacency)
    assert ge.graph_to_dot(graph) == reference_dot(graph)
    edges = graph.edges()
    assert edges == tuple(map(tuple, np.argwhere(np.triu(adjacency)).tolist()))
    assert len(edges) == graph.edge_count
    for i in range(graph.node_count):
        assert graph.neighbors(i) == tuple(reference_neighbors(graph, i))
        assert graph.degree(i) == len(graph.neighbors(i))


@oracle_settings
@given(adjacency_matrices(max_nodes=12))
def test_cover_search_matches_subset_loop(adjacency):
    graph = ge.VisibilityGraph.from_adjacency(adjacency)
    n = graph.node_count
    masks = reference_masks(graph)
    smallest = None
    for size in range(n + 2):
        expected = reference_first_cover(masks, size)
        assert ge._first_cover(masks, size) == expected
        assert ge.has_dominating_set(graph, size) == (expected is not None)
        if smallest is None and size and expected is not None:
            smallest = expected
    generators = ge.minimum_generators(graph)
    assert generators.members == smallest
    assert all(type(m) is int for m in generators.members)


@pytest.mark.parametrize("adjacency", CANONICAL, ids=["full-26", "reduced-8"])
def test_cover_search_matches_subset_loop_on_canonical_graphs(adjacency):
    graph = ge.VisibilityGraph.from_adjacency(adjacency)
    masks = reference_masks(graph)
    for size in range(5):
        assert ge._first_cover(masks, size) == reference_first_cover(masks, size)
    assert ge.minimum_generators(graph).members == reference_first_cover(masks, 4)


def test_empty_graph_has_only_the_empty_cover():
    graph = ge.VisibilityGraph.from_adjacency(np.zeros((0, 0), dtype=bool))
    assert graph.row_masks == () and graph.adjacency.shape == (0, 0)
    assert ge._first_cover([], 0) == ()
    assert ge._first_cover([], 1) is None
    assert ge.has_dominating_set(graph, 0)
    assert not ge.has_dominating_set(graph, 1)
    with pytest.raises(ValueError, match="no dominating set"):
        ge.minimum_generators(graph)


def test_empty_graph_has_no_shortest_paths():
    graph = ge.VisibilityGraph(())
    for search in (ge.all_pairs_shortest_paths, ge.diameter):
        with pytest.raises(ValueError, match="at least one node"):
            search(graph)


@oracle_settings
@given(adjacency_matrices(max_nodes=25))
@example(CANONICAL[0])
@example(CANONICAL[1])
def test_cliques_match_set_bron_kerbosch(adjacency):
    graph = ge.VisibilityGraph.from_adjacency(adjacency)
    assert ge.maximal_convex_clusters(graph) == reference_cliques(graph)


@oracle_settings
@given(hs.lists(hs.integers(0, 63), max_size=150), hs.integers(0, 63))
def test_classification_matches_pairwise_count(picks, index):
    # Strategies built anew from the row index, so equality is by value and
    # not by identity.
    listed = all_strategies()
    strategies = [st.DeterministicStrategy(k // 16, k // 4 % 4, k % 4) for k in picks]
    assert ge.classify_from(listed[index], strategies) == reference_classification(
        listed[index], strategies
    )


def test_full_graph_quotient_is_the_reduced_graph():
    # Twins differ only in the middle wing; class 4 * first + last holds the
    # nodes 16 * first + 4 * middle + last, and the reduced graph is twin-free.
    members, masks = ge.build_visibility_graph(st.FULL_26)._twin_quotient
    assert members == tuple(
        tuple(16 * f + 4 * m + l for m in range(4)) for f in range(4) for l in range(4)
    )
    reduced = ge.build_visibility_graph(st.REDUCED_8)
    assert list(masks) == reference_masks(reduced)
    members, masks = reduced._twin_quotient
    assert members == tuple((node,) for node in range(16))
    assert list(masks) == reference_masks(reduced)


@hs.composite
def planted_twins(draw):
    # Each node of a small generated graph becomes a clique of 1-4 closed twins,
    # each seeing the node's neighbours, and the nodes are shuffled.  The base
    # graph is small because the reference subset loop is exponential in n.
    base = draw(adjacency_matrices(max_nodes=6))
    copies = draw(hs.lists(hs.integers(1, 4), min_size=len(base), max_size=len(base)))
    owner = np.repeat(np.arange(len(base)), copies)
    owner = owner[np.random.default_rng(draw(hs.integers(0, 2**32 - 1))).permutation(owner.size)]
    adjacency = base[np.ix_(owner, owner)] | (owner[:, None] == owner[None, :])
    np.fill_diagonal(adjacency, False)
    return adjacency


@oracle_settings
@given(planted_twins())
@example(CANONICAL[0])
@example(CANONICAL[1])
def test_quotient_searches_match_reference_loops_on_planted_twins(adjacency):
    graph = ge.VisibilityGraph.from_adjacency(adjacency)
    masks = reference_masks(graph)
    smallest = None
    for size in range(graph.node_count + 2):
        expected = reference_first_cover(masks, size)
        assert ge.has_dominating_set(graph, size) == (expected is not None)
        if smallest is None and size and expected is not None:
            smallest = expected
    generators = ge.minimum_generators(graph)
    assert generators.members == smallest
    assert all(type(m) is int for m in generators.members)
    assert ge.maximal_convex_clusters(graph) == reference_cliques(graph)


@pytest.mark.parametrize("rep", [st.FULL_26, st.REDUCED_8])
def test_visibility_graph_is_certified_by_projecting_segments(rep):
    # Two vertices see each other iff the segment between them stays in the
    # local set.  A hidden pair differs in both end wings, so along its
    # segment the end parties are correlated, which no product point of
    # reduced-8 allows; a visible pair mixes one source only.  So every
    # segment point of a visible pair projects onto the manifold at distance
    # 0, and every one of a hidden pair stays away from it.  This shares no
    # code with geometry's wing rule: the reduced-8 columns are taken by
    # name and projected by manifold.project.
    columns = [st.column_names(rep).index(name) for name in st.REDUCED_COLUMN_NAMES]
    rows = [[row[k] for k in columns] for row in st.vertex_rows(rep)]
    adjacency = ge.build_visibility_graph(rep).adjacency
    distances = {True: [], False: []}
    for i, j in combinations(range(len(rows)), 2):
        for omega in (0.5, 0.1, 0.01):
            coords = [omega * x + (1.0 - omega) * y for x, y in zip(rows[i], rows[j])]
            result = manifold.project(st.BehaviourPoint.reduced(coords))
            assert result.converged and result.global_gap <= 1e-9, (i, j, omega)
            distances[bool(adjacency[i, j])].append(result.distance)
    pairs = len(rows) * (len(rows) - 1) // 2
    assert len(distances[True]) + len(distances[False]) == 3 * pairs
    assert max(distances[True]) <= 1e-11
    assert min(distances[False]) >= 5e-3
