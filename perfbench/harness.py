"""Set-up, the closed-loop clients, correctness checks, and the counters
and spans recorded around the program.

Only public surfaces are called: ``graph_from_spec``, ``Session``
(partitioning, fragment build and backend start are forced through its
``fragmented`` and ``backend`` properties), ``GrapeEngine``,
``ExecutionBackend``, ``GrapeService`` and ``canonical_answer_bytes``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import random
import resource
import signal
import statistics
import time
import traceback
from contextlib import contextmanager

import repro.engineapi.session as session_module
from repro.algorithms.sequential.dijkstra import single_source
from repro.core.delta import GraphDelta
from repro.core.engine import GrapeEngine
from repro.engineapi.query import build_query
from repro.engineapi.registry import get_program
from repro.engineapi.session import Session
from repro.graph.generators import graph_from_spec
from repro.partition.base import Partitioner, evaluate_partition
from repro.runtime.backends import ProcessBackend, SimulatedBackend
from repro.runtime.message import COORDINATOR
from repro.service.service import GrapeService, canonical_answer_bytes

from spans import SpanRecorder
from workloads import RoadInputs, ServeInputs, Workload

#: Set-ups per run; ``setup_s`` is their median. The first one builds
#: the deployment the requests use; the others run in forked copies of
#: the process, spread through the timed phase.
SETUPS = 5
#: Benchmark-side deadline of one request or one set-up. A hung process
#: worker (``ProcessBackend`` has no receive deadline) becomes a counted
#: failure instead of a hang.
OP_DEADLINE_S = 30.0
SETUP_DEADLINE_S = 60.0
#: Every CHECK_EVERY-th query (from a seeded offset) is checked.
CHECK_EVERY = 10
#: Rewarm budget of the service: the hot source's entry.
REWARM_HOTTEST = 1
#: Program methods that run worker-local kernel code, by layer span.
KERNEL_METHODS = {
    "peval": "algorithms.peval",
    "inceval": "algorithms.inceval",
    "repair_partial": "algorithms.repair",
    "on_graph_update": "algorithms.repair",
    "delta_seeds": "algorithms.repair",
    "invalidated_region": "algorithms.repair",
}
#: Superstep phases of the ΔG repair hooks.
REPAIR_PHASES = ("repair", "update", "invalidate")


class DeadlineExceeded(Exception):
    """A request or set-up ran past the benchmark-side deadline."""


def _expire(signum, frame):
    raise DeadlineExceeded("ran past the benchmark-side deadline")


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread after ``seconds``."""
    if signal.getsignal(signal.SIGALRM) is not _expire:
        signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ----------------------------------------------------------------------
# Correctness checks (each returns True when the answer is right)
# ----------------------------------------------------------------------
def sssp_matches_oracle(answer: dict, oracle: dict) -> bool:
    """Engine SSSP answer == sequential Dijkstra over reachable vertices."""
    reachable = {v: d for v, d in oracle.items() if d != math.inf}
    return answer.keys() == reachable.keys() and all(
        math.isclose(answer[v], d, rel_tol=1e-12, abs_tol=1e-12)
        for v, d in reachable.items()
    )


def same_bytes(answer: object, reference: object) -> bool:
    """Byte-identical canonical forms."""
    return canonical_answer_bytes(answer) == canonical_answer_bytes(reference)


CHECKS = {"oracle": sssp_matches_oracle, "bytes": same_bytes}


def _corruptions(answer: dict) -> list[dict]:
    """Two wrong copies of an answer: one value changed, one vertex gone."""
    key = next(iter(answer))
    changed = dict(answer)
    value = changed[key]
    changed[key] = value + 1 if isinstance(value, (int, float)) else None
    dropped = dict(answer)
    del dropped[key]
    return [changed, dropped]


def checks_reject_corruption(samples: dict) -> bool:
    """Every check used this run accepts its real sample and rejects
    corrupted copies of it, so a mismatch cannot go unnoticed."""
    for kind, (answer, reference) in samples.items():
        check = CHECKS[kind]
        if not check(answer, reference):
            return False
        if any(check(bad, reference) for bad in _corruptions(answer)):
            return False
    return True


def digest(answer: object) -> str:
    return hashlib.sha256(canonical_answer_bytes(answer)).hexdigest()


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
class Deployment:
    """One set-up: graph, session, and on serving workloads the service."""

    def __init__(self, workload: Workload, graph, session, service) -> None:
        self.workload = workload
        self.graph = graph
        self.session = session
        self.service = service

    def close(self) -> None:
        self.session.close()


def deploy(
    workload: Workload,
    standing_source=None,
    tracer=None,
    rec: SpanRecorder | None = None,
) -> tuple[Deployment, float]:
    """Build graph, partition, fragments, backend (and service); timed.

    ``Session`` partitions and starts its backend lazily, so both are
    forced here: ``fragmented`` partitions and builds fragments, and
    ``backend.partials()`` starts the process pool and ships fragments.
    """
    start = time.perf_counter()
    with deadline(SETUP_DEADLINE_S):
        if rec is None:
            graph = graph_from_spec(workload.graph, store=workload.store)
        else:
            with rec.span("graph.generate"):
                graph = graph_from_spec(workload.graph, store=workload.store)
        session = Session(
            graph,
            num_workers=workload.workers,
            partition=workload.partition,
            backend=workload.backend,
            store=workload.store,
            tracer=tracer,
        )
        session.fragmented
        if rec is None:
            session.backend.partials()
        else:
            with rec.span("runtime.backend.start"):
                session.backend.partials()
        service = None
        if workload.serve:
            service = GrapeService(session, rewarm_hottest=REWARM_HOTTEST)
            service.register_standing("sssp", "sssp", {"source": standing_source})
            service.register_standing("cc", "cc", {})
    return Deployment(workload, graph, session, service), time.perf_counter() - start


def setup_in_child(workload: Workload, standing_source=None) -> tuple[int, float]:
    """Time one full set-up in a forked copy of this process.

    The copy's memory never counts toward this process's peak RSS, so
    set-ups can be sampled in the middle of the timed phase, across the
    same spells of host speed as the requests. Returns the child's pid,
    which the caller reaps with ``os.waitpid`` once it has read its own
    children's resource usage, and the set-up seconds.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            dep, seconds = deploy(workload, standing_source)
            dep.close()
            os.write(write_fd, repr(seconds).encode())
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks = []
    try:
        with deadline(SETUP_DEADLINE_S):
            while chunk := os.read(read_fd, 64):
                chunks.append(chunk)
    except DeadlineExceeded:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(read_fd)
    if not chunks:
        os.waitpid(pid, 0)
        raise RuntimeError("set-up failed in the forked child (see stderr)")
    return pid, float(b"".join(chunks))


# ----------------------------------------------------------------------
# Counters at the engine boundary (on in every pass; no timing)
# ----------------------------------------------------------------------
class EngineRuns:
    """RunMetrics (and repair stats) of the GrapeEngine runs made while
    ``active``: inside timed requests, not in warm-ups or checks."""

    def __init__(self) -> None:
        self.active = False
        self.runs: list = []
        self.repairs: list = []
        self._saved: list = []

    def install(self) -> None:
        for attr, sink in (("run", self.runs), ("run_incremental", self.repairs)):
            original = vars(GrapeEngine)[attr]
            self._saved.append((attr, original))

            def counted(*args, _original=original, _sink=sink, **kwargs):
                result = _original(*args, **kwargs)
                if self.active:
                    _sink.append((result.metrics, result.repair))
                return result

            setattr(GrapeEngine, attr, counted)

    def uninstall(self) -> None:
        for attr, original in self._saved:
            setattr(GrapeEngine, attr, original)
        self._saved.clear()


def install_spans(rec: SpanRecorder, workload: Workload) -> None:
    """Wrap the public calls into each layer for one traced pass."""
    rec.patch(Partitioner, "__call__", "partition")
    rec.patch(session_module, "build_fragments", "graph.fragment_build")
    rec.patch(Session, "run", "engineapi.session.run")
    rec.patch(GrapeEngine, "run", "core.engine.run")
    rec.patch(GrapeEngine, "run_incremental", "core.delta.repair")
    rec.patch(GrapeEngine, "apply_delta", "core.delta.apply")
    for backend in (SimulatedBackend, ProcessBackend):
        rec.patch(backend, "execute", "runtime.backend.execute")
        rec.patch(backend, "invoke", "runtime.backend.invoke")
        rec.patch(backend, "invoke_all", "runtime.backend.invoke")
    rec.patch(GrapeService, "query", "service.query")
    rec.patch(GrapeService, "apply_updates", "service.apply_updates")
    rec.patch(GrapeService, "register_standing", "service.register_standing")
    for name in ("sssp", "cc") if workload.serve else ("sssp",):
        program = type(get_program(name))
        rec.patch(program, "assemble", "algorithms.assemble")
        if workload.backend == "simulated":
            # Kernels of process workers run in other processes; their
            # time comes from the workers' compute in RunMetrics.
            for method, span in KERNEL_METHODS.items():
                rec.patch(program, method, span)


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class Phase:
    """What one timed pass did and saw."""

    def __init__(
        self,
        counters: EngineRuns,
        rec: SpanRecorder | None,
        seed: int,
        keep_digests: bool,
    ):
        self.counters = counters
        self.rec = rec
        self.query_s: list[float] = []
        self.update_s: list[float] = []
        self.hits = 0
        self.rewarmed = 0
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.checked = 0
        self.final_checks = 0
        self.samples: dict = {}
        self.digests: list[str] | None = [] if keep_digests else None
        self.check_offset = random.Random(f"check:{seed}").randrange(CHECK_EVERY)

    @property
    def wall(self) -> float:
        return sum(self.query_s) + sum(self.update_s)

    def call(self, fn, *args):
        """One request under the deadline: (value, wall seconds)."""
        self.counters.active = True
        start = time.perf_counter()
        try:
            if self.rec is None:
                with deadline(OP_DEADLINE_S):
                    value = fn(*args)
            else:
                self.rec.request += 1
                with deadline(OP_DEADLINE_S), self.rec.span("bench.request"):
                    value = fn(*args)
            return value, time.perf_counter() - start
        finally:
            self.counters.active = False

    def check(self, kind: str, answer, reference, what: str, final=False) -> None:
        self.checked += 1
        self.final_checks += final
        self.samples[kind] = (answer, reference)
        if not CHECKS[kind](answer, reference):
            self.mismatches.append(what)

    def sampled(self, index: int) -> bool:
        return index % CHECK_EVERY == self.check_offset

    def record(self, answer) -> None:
        if self.digests is not None:
            self.digests.append(digest(answer))


def _sssp(session: Session, source):
    return session.run(get_program("sssp"), build_query("sssp", source=source)).answer


def _reference_sssp(dep: Deployment, source):
    """Simulated-backend answer over the same fragments (process oracle)."""
    engine = GrapeEngine(dep.session.fragmented)
    return engine.run(get_program("sssp"), build_query("sssp", source=source)).answer


def _mirror(graph, ins, dels, rws) -> None:
    """Apply a batch to the master graph the oracles read."""
    for src, dst, weight in ins:
        graph.add_edge(src, dst, weight)
    for src, dst in dels:
        graph.remove_edge(src, dst)
    for src, dst, weight in rws:
        graph.add_edge(src, dst, weight)


class RoadRunner:
    """Cycles of one SSSP point query and a few small ΔG batches routed
    by ``GrapeEngine.apply_delta`` (no standing query to repair)."""

    def __init__(self, dep: Deployment, inputs: RoadInputs, phase: Phase) -> None:
        self.dep, self.inputs, self.phase = dep, inputs, phase
        self.process = dep.workload.backend == "process"
        self.engine = dep.session.engine()
        self.index = 0
        # Warm-up queries (not timed): first-call costs are not the
        # steady state a client sees.
        for source in inputs.warmup:
            _sssp(dep.session, source)

    def measured(self) -> float:
        return sum(self.phase.query_s)

    def _check(self, answer, source, what: str, final=False) -> None:
        if self.process:
            reference = _reference_sssp(self.dep, source)
            self.phase.check("bytes", answer, reference, what, final)
        else:
            oracle = single_source(self.dep.graph, source)
            self.phase.check("oracle", answer, oracle, what, final)

    def step(self) -> bool:
        phase, index = self.phase, self.index
        source, batches = self.inputs.next_cycle()
        try:
            answer, seconds = phase.call(_sssp, self.dep.session, source)
        except Exception as exc:
            phase.failures.append(f"query {index}: {type(exc).__name__}: {exc}")
            return False
        phase.query_s.append(seconds)
        phase.record(answer)
        if phase.sampled(index):
            self._check(answer, source, f"query {index}")
        for k, (ins, dels, rws) in enumerate(batches):
            delta = GraphDelta.from_dict({"insert": ins, "delete": dels, "reweight": rws})
            try:
                _, seconds = phase.call(self.engine.apply_delta, delta)
            except Exception as exc:
                phase.failures.append(f"batch {index}.{k}: {type(exc).__name__}: {exc}")
                return False
            phase.update_s.append(seconds)
            _mirror(self.dep.graph, ins, dels, rws)
        self.index += 1
        return True

    def finish(self) -> None:
        """One more query checks the last batch reached every fragment
        and worker (the process check compares with the simulator on the
        coordinator's fragments; this one also with Dijkstra)."""
        source = self.inputs.next_source()
        answer = _sssp(self.dep.session, source)
        oracle = single_source(self.dep.graph, source)
        self.phase.check("oracle", answer, oracle, "after updates", final=True)
        if self.process:
            self._check(answer, source, "after updates", final=True)


class ServeRunner:
    """Cycles of two SSSP reads and one mixed ΔG batch on the service."""

    def __init__(self, dep: Deployment, inputs: ServeInputs, phase: Phase) -> None:
        self.dep, self.inputs, self.phase = dep, inputs, phase
        self.service = dep.service
        self.reads = 0
        self.cycle = 0
        # Warm-up (not timed): read the hot source twice, so its cache
        # entry has a hit and every later batch rewarms it.
        for _ in range(2):
            self.service.query("sssp", {"source": inputs.hot})

    def measured(self) -> float:
        return self.phase.wall

    def step(self) -> bool:
        phase, service = self.phase, self.service
        hot, second, (ins, dels, rws) = self.inputs.next_cycle()
        for source in (hot, second):
            index = self.reads
            try:
                served, seconds = phase.call(service.query, "sssp", {"source": source})
            except Exception as exc:
                phase.failures.append(f"query {index}: {type(exc).__name__}: {exc}")
                return False
            phase.query_s.append(seconds)
            phase.hits += served.from_cache
            phase.record(served.answer)
            if phase.sampled(index):
                oracle = single_source(self.dep.graph, source)
                phase.check("oracle", served.answer, oracle, f"query {index}")
            self.reads += 1
        try:
            outcome, seconds = phase.call(
                lambda: service.apply_updates(edges=ins, deletes=dels, reweights=rws)
            )
        except Exception as exc:
            phase.failures.append(f"batch {self.cycle}: {type(exc).__name__}: {exc}")
            return False
        phase.update_s.append(seconds)
        phase.rewarmed += outcome.rewarmed
        phase.record(sorted(outcome.repaired.items()))
        self.cycle += 1
        return True

    def finish(self) -> None:
        """Standing answers against a fresh recompute on the mutated graph
        (the service mirrors every batch onto its session's graph)."""
        dep, phase, service = self.dep, self.phase, self.service
        fresh = Session(
            dep.graph,
            num_workers=dep.workload.workers,
            partition=dep.workload.partition,
            store=dep.workload.store,
        )
        standing = self.inputs.standing
        sssp = service.standing_answer("sssp")
        recomputed = fresh.run(get_program("sssp"), build_query("sssp", source=standing))
        phase.check("bytes", sssp, recomputed.answer, "standing sssp", final=True)
        cc = fresh.run(get_program("cc"), build_query("cc")).answer
        phase.check("bytes", service.standing_answer("cc"), cc, "standing cc", final=True)
        oracle = single_source(dep.graph, standing)
        phase.check("oracle", sssp, oracle, "standing sssp oracle", final=True)


def make_runner(dep: Deployment, reference_graph, seed: int, phase: Phase):
    """The workload's client over a deployment, with inputs from ``seed``."""
    if dep.workload.serve:
        return ServeRunner(dep, ServeInputs(reference_graph, seed), phase)
    return RoadRunner(dep, RoadInputs(reference_graph, seed), phase)


def drive(runners: list, budget: float, pauses: int = 0, on_pause=None) -> None:
    """Run cycles on every runner in lockstep until the first has spent
    ``budget`` seconds in timed requests, then run the final checks.
    ``on_pause`` runs (untimed) ``pauses`` times, evenly spaced in
    request time.

    Lockstep keeps passes that are compared with each other (untraced,
    Tracer attached, span wrappers) in the same stretch of machine time,
    so a slow spell of the host slows all of them alike; the order
    rotates every cycle so no pass always goes first.
    """
    lead = runners[0]
    cycle = 0
    paused = 0
    while lead.measured() < budget:
        turn = cycle % len(runners)
        if not all(runner.step() for runner in runners[turn:] + runners[:turn]):
            return
        cycle += 1
        if paused < pauses and lead.measured() >= budget * (paused + 1) / (pauses + 1):
            on_pause()
            paused += 1
    for runner in runners:
        runner.finish()


# ----------------------------------------------------------------------
# Facts and summaries
# ----------------------------------------------------------------------
def peak_rss_mb(workers: int, process: bool) -> float:
    """Peak RSS of this process plus its worker processes.

    ``RUSAGE_CHILDREN`` gives the largest reaped worker's peak, so the
    workers' share is that peak times the worker count.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * children if process else 0)) / 1024.0


def host_gauge_ms() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs
    Python at this moment. The host's speed drifts by up to about 1.8x
    over minutes, so results record this gauge beside them."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(200_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return (time.perf_counter() - start) * 1e3


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def facts(workload: Workload, seed: int, dep: Deployment) -> dict:
    fragmented = dep.session.fragmented
    report = evaluate_partition(
        dep.graph, fragmented.assignment, workload.workers, strategy=workload.partition
    )
    return {
        "workload": workload.name,
        "seed": seed,
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "graph": workload.graph,
        "store": workload.store,
        "partition": workload.partition,
        "workers": workload.workers,
        "backend": workload.backend,
        "vertices": report.num_vertices,
        "edges": report.num_edges,
        "cut_edges": report.cut_edges,
        "cut_edges_frac": report.cut_fraction,
        "balance": report.balance,
    }


def repair_shares(engine_runs: EngineRuns, batches: int, standing: int) -> dict:
    """Full-restart share of repairs with unsafe ops, and of batches
    (each batch repairs every standing query once, in turn)."""
    repairs = [repair for _, repair in engine_runs.repairs]
    unsafe = [r for r in repairs if r.unsafe_ops]
    full = [r for r in unsafe if r.mode == "full"]
    per_batch = [
        any(r.mode == "full" for r in repairs[i : i + standing])
        for i in range(0, len(repairs), max(standing, 1))
    ]
    return {
        "full_restart_frac": len(full) / len(unsafe) if unsafe else 0.0,
        "batches_with_full_restart_frac": (
            sum(per_batch) / batches if batches else 0.0
        ),
        "invalidated": sum(r.invalidated for r in repairs),
    }


def worker_compute(metrics: list, parallel: bool) -> dict:
    """Worker compute seconds from RunMetrics, split by phase.

    A superstep's compute also holds the coordinator's own work: message
    aggregation in IncEval rounds and Assemble. That is taken out, so
    what remains ran inside ``ExecutionBackend.execute``. ``critical``
    is the compute that sets each superstep's duration: the slowest
    worker when workers run in parallel, all of them when they run one
    after another in this process.
    """
    coordinator = sum(m.worker_compute.get(COORDINATOR, 0.0) for m in metrics)
    by_phase: dict[str, float] = {}
    makespans = 0.0
    for m in metrics:
        for s in m.supersteps:
            by_phase[s.phase] = by_phase.get(s.phase, 0.0) + s.compute_total
            makespans += s.compute_makespan
    aggregation = coordinator - by_phase.get("assemble", 0.0)
    workers = sum(by_phase.values()) - coordinator
    return {
        "peval": by_phase.get("peval", 0.0),
        "inceval": by_phase.get("inceval", 0.0) - aggregation,
        "repair": sum(by_phase.get(p, 0.0) for p in REPAIR_PHASES),
        "critical": makespans - coordinator if parallel else workers,
    }
