"""Visibility classification and graph-structure tests.

Core claims pinned here:
  * Every vertex sees exactly {1 coincident, 27 visible, 36 hidden} partners.
  * Both visibility graphs are degree-regular (27 / 6), have 864 / 48 edges,
    and APSP maximum exactly 2.
  * Minimum generator sets have size 4 on both graphs; the diagonal and
    same-row constructions cover with the frozen increment patterns.
  * Maximal cliques are the 8 wing classes (size 16 full, size 4 reduced).
  * The matrix forms of APSP, coverage accounting and the edge list agree
    with the node-by-node walks kept below as references, on the canonical
    graphs and on generated graphs (connected or not).
  * The blocked cover search, the bit-mask Bron-Kerbosch and the one-pass
    classification agree with the big-int subset loop, the set-based
    Bron-Kerbosch and a per-pair visibility_test count kept below.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from p3poly import geometry as ge
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
    with pytest.raises(ValueError):
        ge.VisibilityGraph(st.FULL_26, np.ones((2, 2), dtype=bool))  # self-loops
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ValueError):
        ge.VisibilityGraph(st.FULL_26, asym)
    with pytest.raises(ValueError):
        ge.build_visibility_graph("full")


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
    graph = ge.VisibilityGraph("reduced-8", np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="disconnected"):
        ge.all_pairs_shortest_paths(graph)


def test_minimum_generators_both_graphs():
    for representation in (st.FULL_26, st.REDUCED_8):
        graph = ge.build_visibility_graph(representation)
        generators = ge.minimum_generators(graph)
        assert len(generators.members) == 4
        assert generators.complete
        report = ge.verify_generator_set(graph, generators.members)
        assert report.complete


def test_no_size_three_dominating_set_reduced():
    graph = ge.build_visibility_graph(st.REDUCED_8)
    assert not ge.has_dominating_set(graph, 3)
    assert ge.has_dominating_set(graph, 4)


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
    report = ge.verify_generator_set(graph, (0, 5, 10, 15)).to_json_dict()
    assert report["running_totals"][-1] == 16


# References: the node-by-node walks the matrix forms replaced.

def reference_apsp(graph):
    n = graph.node_count
    neighbor_lists = [graph.neighbors(i) for i in range(n)]
    dist = np.full((n, n), -1, dtype=int)
    for source in range(n):
        dist[source, source] = 0
        frontier = [source]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in neighbor_lists[u]:
                    if dist[source, v] < 0:
                        dist[source, v] = level
                        nxt.append(int(v))
            frontier = nxt
    if (dist < 0).any():
        i, j = map(int, np.argwhere(dist < 0)[0])
        raise ValueError(f"graph is disconnected: no path between nodes {i} and {j}")
    return dist, int(dist.max())


def reference_masks(graph):
    masks = []
    for i in range(graph.node_count):
        mask = 1 << i
        for j in graph.neighbors(i):
            mask |= 1 << int(j)
        masks.append(mask)
    return masks


def reference_coverage(graph, members):
    covered = set()
    newly = []
    totals = []
    for m in members:
        closed = {m} | {int(j) for j in graph.neighbors(m)}
        newly.append(len(closed - covered))
        covered |= closed
        totals.append(len(covered))
    return tuple(newly), tuple(totals), len(covered) == graph.node_count


def reference_dot(graph):
    lines = ["graph visibility {"]
    lines.extend(f"  {i};" for i in range(graph.node_count))
    for i in range(graph.node_count):
        for j in graph.neighbors(i):
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
    adjacency = [set(map(int, graph.neighbors(i))) for i in range(graph.node_count)]
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
    graph = ge.VisibilityGraph(st.REDUCED_8, adjacency)
    try:
        expected = reference_apsp(graph)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            ge.all_pairs_shortest_paths(graph)
        assert str(raised.value) == str(exc)
        return
    dist, longest = ge.all_pairs_shortest_paths(graph)
    assert dist.dtype == expected[0].dtype
    assert np.array_equal(dist, expected[0])
    assert longest == expected[1]


@oracle_settings
@given(adjacency_matrices(), hs.data())
@example(CANONICAL[0], None)
@example(CANONICAL[1], None)
def test_coverage_matches_set_walk(adjacency, data):
    graph = ge.VisibilityGraph(st.REDUCED_8, adjacency)
    n = graph.node_count
    assert ge._row_masks(ge._closed_neighborhoods(graph)) == reference_masks(graph)
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
    graph = ge.VisibilityGraph(st.REDUCED_8, adjacency)
    assert ge.graph_to_dot(graph) == reference_dot(graph)
    edges = graph.edges().tolist()
    assert edges == [[i, int(j)] for i in range(graph.node_count) for j in graph.neighbors(i) if i < j]
    assert len(edges) == graph.edge_count


@oracle_settings
@given(adjacency_matrices(max_nodes=12))
def test_cover_search_matches_subset_loop(adjacency):
    graph = ge.VisibilityGraph(st.REDUCED_8, adjacency)
    n = graph.node_count
    closed = ge._closed_neighborhoods(graph)
    masks = reference_masks(graph)
    smallest = None
    for size in range(n + 2):
        expected = reference_first_cover(masks, size)
        assert ge._first_cover(closed, size) == expected
        assert ge.has_dominating_set(graph, size) == (expected is not None)
        if smallest is None and size and expected is not None:
            smallest = expected
    generators = ge.minimum_generators(graph)
    assert generators.members == smallest
    assert all(type(m) is int for m in generators.members)


@pytest.mark.parametrize("adjacency", CANONICAL, ids=["full-26", "reduced-8"])
def test_cover_search_matches_subset_loop_on_canonical_graphs(adjacency):
    graph = ge.VisibilityGraph(st.REDUCED_8, adjacency)
    closed = ge._closed_neighborhoods(graph)
    masks = reference_masks(graph)
    for size in range(5):
        assert ge._first_cover(closed, size) == reference_first_cover(masks, size)
    assert ge.minimum_generators(graph).members == reference_first_cover(masks, 4)


@oracle_settings
@given(adjacency_matrices(max_nodes=25))
@example(CANONICAL[0])
@example(CANONICAL[1])
def test_cliques_match_set_bron_kerbosch(adjacency):
    graph = ge.VisibilityGraph(st.REDUCED_8, adjacency)
    assert ge.maximal_convex_clusters(graph) == reference_cliques(graph)


@oracle_settings
@given(hs.lists(hs.integers(0, 63), max_size=150), hs.integers(0, 63))
def test_classification_matches_pairwise_count(picks, index):
    # A second enumeration, so equality is by value and not by identity.
    listed, fresh = all_strategies(), all_strategies()
    strategies = [fresh[k] for k in picks]
    assert ge.classify_from(listed[index], strategies) == reference_classification(
        listed[index], strategies
    )
