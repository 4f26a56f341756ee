"""The benchmark's workloads and the seeded generators of their inputs.

Each workload is a closed loop with one client: the next request is
sent only when the previous one has returned. The program receives only
what these generators produce from ``--seed``: SSSP sources and ΔG
batches. Graphs come from ``graph_from_spec``, which is deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    store: str
    partition: str
    workers: int
    backend: str
    #: True: a GrapeService with standing queries and interleaved ΔG
    #: batches. False: SSSP point queries through a Session, each
    #: followed by a small ΔG batch routed by GrapeEngine.apply_delta.
    serve: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="road-sssp",
            graph="road:120x120",
            store="dict",
            partition="multilevel",
            workers=4,
            backend="simulated",
            serve=False,
            # Multilevel partitioning keeps a query near 10 supersteps,
            # so the sequential Dijkstra kernel dominates each query and
            # multilevel coarsening dominates set-up. ΔG repair, the
            # cache, IPC and the CSR store are all bypassed.
            why=(
                "kernel-bound SSSP point queries: Dijkstra dominates each "
                "query, multilevel partitioning dominates set-up"
            ),
        ),
        Workload(
            name="power-serve-delta",
            graph="power:1000",
            store="csr",
            partition="hash",
            workers=4,
            backend="simulated",
            serve=True,
            # Skewed degrees under hash partitioning maximise border
            # vertices and bytes shipped; standing SSSP and CC queries
            # exercise ΔG routing, the CSR overlay, scoped versus
            # full-restart repair (CC's giant component), and cache
            # invalidation and rewarm. The process backend is bypassed.
            why=(
                "reads beside writes: skewed SSSP reads through the cache "
                "alternate with mixed insert/delete/reweight batches that repair standing queries"
            ),
        ),
        Workload(
            name="road-sssp-process",
            graph="road:60x60",
            store="dict",
            partition="hash",
            workers=2,
            backend="process",
            serve=False,
            # Hash partitioning on a high-diameter grid gives about 48
            # supersteps per query, each a pickle-and-pipe round trip to
            # the worker processes, so per-superstep IPC is exposed as
            # nowhere else. Two workers: one per CPU.
            why=(
                "SSSP on the process backend: ~48 supersteps per query, "
                "each a pickle-and-pipe round trip to two worker processes"
            ),
        ),
    )
}

#: ΔG mix of one power-serve-delta batch. Three deletions send about a
#: third of the batches through a CC full restart (each deletion inside
#: the giant component has a ~12% chance of one), keeping the share of
#: slow batches away from the 10% a p90 would straddle.
SERVE_BATCH = {"inserts": 4, "deletes": 3, "reweights": 2}
#: Reweights per batch on the SSSP-only workloads. With the edge that
#: churns, a batch routes about 30 ops (about 0.6 ms on the process
#: backend, a third of it the effect sync to the workers). A batch of
#: a few ops takes 0.2 ms, and a single preemption of the process by
#: the host's scheduler, a few ms, then decides whether it lands
#: beyond the p90.
ROAD_REWEIGHTS = 28
#: ΔG batches after each query on the SSSP-only workloads. A batch
#: takes well under a millisecond beside a query of 100-200 ms, so one
#: batch per query would leave under 200 samples for the update
#: percentiles of a run, too few for a steady p90 of a long-tailed
#: latency. The first batch after a query runs slower than the rest
#: (the query has evicted the fragments from the CPU caches); with four
#: it is a fixed quarter of the samples, away from the 10% a p90 would
#: straddle.
ROAD_BATCHES = 4
#: Probability that a power-serve-delta cycle's second read asks for
#: the standing SSSP source (a cache hit); otherwise it asks for a
#: uniform random source (almost always a miss). With the first read
#: always a hit, the cache-hit share sits near 70%, away from the 50%
#: a median would straddle.
SERVE_STANDING_READ = 0.4


class EdgeModel:
    """The edge set a ΔG stream has produced so far.

    Every generated op is valid against it: inserts add absent edges,
    deletes and reweights touch present ones, and no batch names an
    edge twice (``apply_delta`` rejects that). New weights are drawn
    from the generator's range for the graph.
    """

    def __init__(self, graph, low: float, high: float) -> None:
        self.vertices = list(graph.vertices())
        self.edges = [(e.src, e.dst) for e in graph.edges()]
        self.index = {e: i for i, e in enumerate(self.edges)}
        self._low, self._span = low, high - low
        self._deleted: tuple | None = None

    def _weight(self, rng: random.Random) -> float:
        return self._low + self._span * rng.random()

    def _add(self, edge: tuple) -> None:
        self.index[edge] = len(self.edges)
        self.edges.append(edge)

    def _remove(self, edge: tuple) -> None:
        i = self.index.pop(edge)
        last = self.edges.pop()
        if i < len(self.edges):
            self.edges[i] = last
            self.index[last] = i

    def _present(self, rng: random.Random, used: set, n: int) -> list:
        picked = []
        while len(picked) < n:
            edge = rng.choice(self.edges)
            if edge not in used:
                used.add(edge)
                picked.append(edge)
        return picked

    def batch(
        self, rng: random.Random, inserts: int, deletes: int, reweights: int
    ) -> tuple[list, list, list]:
        """Random absent edges inserted, present ones deleted and
        reweighted: (inserts, deletes, reweights) as plain tuples."""
        used: set = set()
        ins = []
        while len(ins) < inserts:
            edge = (rng.choice(self.vertices), rng.choice(self.vertices))
            if edge[0] != edge[1] and edge not in self.index and edge not in used:
                used.add(edge)
                ins.append((*edge, self._weight(rng)))
        dels = self._present(rng, used, deletes)
        rws = [(*e, self._weight(rng)) for e in self._present(rng, used, reweights)]
        for src, dst, _ in ins:
            self._add((src, dst))
        for edge in dels:
            self._remove(edge)
        return ins, dels, rws

    def churn(self, rng: random.Random, reweights: int) -> tuple[list, list, list]:
        """Delete one edge, re-insert the one the previous batch deleted,
        reweight others: the topology stays within one edge of the
        original, so interleaved batches do not reshape the queries."""
        ins = []
        if self._deleted is not None:
            ins.append((*self._deleted, self._weight(rng)))
            self._add(self._deleted)
        used = {(src, dst) for src, dst, _ in ins}
        (deleted,) = self._present(rng, used, 1)
        rws = [(*e, self._weight(rng)) for e in self._present(rng, used, reweights)]
        self._remove(deleted)
        self._deleted = deleted
        return ins, [deleted], rws


def _sources(graph) -> list:
    """Vertices with an out-edge (an isolated source is a trivial query)."""
    return [v for v in graph.vertices() if graph.out_degree(v)]


class RoadInputs:
    """Cycles of (uniform random SSSP source, ``ROAD_BATCHES`` small ΔG
    batches)."""

    def __init__(self, graph, seed: int) -> None:
        self._rng = random.Random(f"road:{seed}")
        self._sources = _sources(graph)
        # road_network draws edge weights from [1, 10)
        self._model = EdgeModel(graph, 1.0, 10.0)
        warmup = random.Random(f"warmup:{seed}")
        self.warmup = [warmup.choice(self._sources) for _ in range(2)]

    def next_source(self):
        return self._rng.choice(self._sources)

    def next_cycle(self) -> tuple[object, list[tuple[list, list, list]]]:
        source = self.next_source()
        return source, [
            self._model.churn(self._rng, ROAD_REWEIGHTS) for _ in range(ROAD_BATCHES)
        ]


class ServeInputs:
    """Cycles of (hot read, skewed read, ΔG batch) for power-serve-delta.

    ``standing`` is the standing SSSP query's source and ``hot`` the
    source a polling client reads after every batch; the service's
    rewarm keeps ``hot`` cached, so that read always hits. Both are the
    graph's two highest-degree vertices, not drawn from the seed: they
    are repaired or rewarmed in every batch, so a seeded choice would
    make the update latency of a run depend on which vertices it drew.
    """

    def __init__(self, graph, seed: int) -> None:
        self._rng = random.Random(f"serve:{seed}")
        self._sources = _sources(graph)
        by_degree = sorted(self._sources, key=graph.out_degree, reverse=True)
        self.standing, self.hot = by_degree[:2]
        # power_law draws edge weights from [1, 5)
        self._model = EdgeModel(graph, 1.0, 5.0)

    def next_cycle(self) -> tuple[object, object, tuple[list, list, list]]:
        if self._rng.random() < SERVE_STANDING_READ:
            second = self.standing
        else:
            second = self._rng.choice(self._sources)
        return self.hot, second, self._model.batch(self._rng, **SERVE_BATCH)
