"""Property tests: the Dijkstra kernel against an independent oracle.

Most SSSP checks compare against ``single_source``, which runs the same
kernel they test. Here the oracle is an in-test Bellman-Ford that shares
no code with it. Small integer weights (zero included) make cost ties
common, which is where a lazy-deletion heap can go wrong.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.sequential.dijkstra import INF, dijkstra
from repro.graph.digraph import Graph

FAST = settings(max_examples=150, deadline=None)


def bellman_ford(vertices, weights, seeds, known):
    """Multi-seed distances that strictly beat ``known`` everywhere.

    A vertex only relaxes its out-edges once its own cost beats its
    prior, so the result is the least cost over paths whose every
    prefix improves on ``known`` — the bounded search Dijkstra does.
    """
    dist = {}
    for v, cost in seeds.items():
        if v in vertices and cost < known.get(v, INF):
            dist[v] = cost
    for _ in range(len(vertices)):
        changed = False
        for (u, v), w in weights.items():
            if u in dist and dist[u] + w < min(
                dist.get(v, INF), known.get(v, INF)
            ):
                dist[v] = dist[u] + w
                changed = True
        if not changed:
            break
    return dist


@st.composite
def cases(draw, ids=st.integers(0, 7), weight=st.integers(0, 3)):
    vertices = draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    pick = st.sampled_from(vertices)
    weights = {}  # (src, dst) -> weight; a repeated edge overwrites
    for src, dst, w in draw(
        st.lists(st.tuples(pick, pick, weight), max_size=30)
    ):
        weights[(src, dst)] = w
    seeds = draw(
        st.dictionaries(pick, st.integers(0, 4), min_size=1, max_size=3)
    )
    known = draw(st.dictionaries(pick, st.integers(0, 12)))
    graph = Graph()
    for v in vertices:
        graph.add_vertex(v)
    for (src, dst), w in weights.items():
        graph.add_edge(src, dst, w)
    return graph, set(vertices), weights, seeds, known


def _check(graph, vertices, weights, seeds, known):
    updates, settled = dijkstra(graph, seeds, known=known or None)
    assert updates == bellman_ford(vertices, weights, seeds, known)
    assert settled == len(updates)
    for v, d in updates.items():
        assert d < known.get(v, INF)


@FAST
@given(cases())
def test_dijkstra_matches_bellman_ford(case):
    _check(*case)


@FAST
@given(cases())
def test_dijkstra_without_prior_reaches_every_reachable_vertex(case):
    graph, vertices, weights, seeds, _ = case
    _check(graph, vertices, weights, seeds, {})


@FAST
@given(
    cases(
        ids=st.one_of(st.integers(0, 4), st.sampled_from("abcd")),
        weight=st.just(1),
    )
)
def test_dijkstra_never_compares_vertex_ids(case):
    # Equal weights tie int and str vertices on cost; the heap entry's
    # sequence number must settle the tie before the ids are compared.
    _check(*case)
