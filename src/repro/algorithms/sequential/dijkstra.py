"""Dijkstra's algorithm — the paper's PEval for SSSP (Example 1).

The multi-seed form computes, for every vertex, the least cost of
reaching it from any seed given the seeds' starting costs. PEval seeds
with ``{source: 0}``; IncEval seeds with the border vertices whose
update parameters just decreased — the same routine serves both, which
is exactly the reuse the PIE model advertises.

The priority queue is the stdlib :mod:`heapq` with lazy deletion: a
vertex is pushed again on every strict improvement and the stale
entries are skipped when popped. This beats a decrease-key heap written
in Python by a wide margin, because every push and pop runs in C.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Hashable, Mapping

from repro.graph.digraph import Graph

VertexId = Hashable

#: Distance of unreachable vertices.
INF = float("inf")


def dijkstra(
    graph: Graph,
    seeds: Mapping[VertexId, float],
    known: Mapping[VertexId, float] | None = None,
) -> tuple[dict[VertexId, float], int]:
    """Multi-seed Dijkstra with optional prior distances.

    Args:
        graph: the (fragment-local) graph.
        seeds: starting vertices and their starting costs.
        known: previously settled distances; a vertex is only re-settled
            (and its edges only re-relaxed) if the new cost improves on
            ``known`` — this is what makes the incremental call *bounded*
            by the affected region instead of the fragment size.

    Returns:
        (distance updates, settled count). ``distance updates`` contains
        every vertex whose distance improved (including seeds that did),
        in the order the vertices were settled.
    """
    prior = known or {}
    # Best cost offered so far per vertex; only a strict improvement over
    # it (and over ``prior``) pushes a heap entry. Heap entries are
    # (cost, seq, vertex): the sequence number breaks cost ties, so
    # vertex ids are never compared and need not be orderable.
    tentative: dict[VertexId, float] = {}
    heap: list[tuple[float, int, VertexId]] = []
    seq = count()
    for v, cost in seeds.items():
        if v in graph and cost < prior.get(v, INF):
            tentative[v] = cost
            heappush(heap, (cost, next(seq), v))
    dist: dict[VertexId, float] = {}
    iter_out = graph.iter_out
    while heap:
        cost, _, v = heappop(heap)
        if cost > tentative[v]:
            continue  # stale: v was re-pushed at a lower cost
        dist[v] = cost
        # iter_out streams (dst, weight) pairs straight off the store —
        # for CSR that's a zero-copy walk of the row arrays
        for dst, weight in iter_out(v):
            candidate = cost + weight
            # tentative <= prior wherever both exist, so the prior
            # lookup only matters for vertices not yet offered a cost
            if candidate < tentative.get(dst, INF) and candidate < prior.get(
                dst, INF
            ):
                tentative[dst] = candidate
                heappush(heap, (candidate, next(seq), dst))
    return dist, len(dist)


def single_source(graph: Graph, source: VertexId) -> dict[VertexId, float]:
    """Classic SSSP from one source; unreachable vertices get ``inf``."""
    updates, _ = dijkstra(graph, {source: 0.0})
    out = {v: INF for v in graph.vertices()}
    out.update(updates)
    return out
