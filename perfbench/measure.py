"""The two kinds of run: untraced end-to-end metrics, traced per-layer
metrics. See README.md for every metric's definition."""

from __future__ import annotations

import gc
import os
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import harness
from repro.graph.generators import graph_from_spec
from repro.obs import Tracer
from spans import SpanRecorder
from workloads import ServeInputs


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def run_untraced(workload, seed: int, seconds: float):
    """Set-up times, one timed pass, checks: the end-to-end metrics."""
    reference = graph_from_spec(workload.graph, store=workload.store)
    standing = ServeInputs(reference, seed).standing if workload.serve else None
    gauge = [harness.host_gauge_ms()]
    dep, first = harness.deploy(workload, standing)
    setup_times = [first]
    children = []

    def sample_setup():
        pid, seconds = harness.setup_in_child(workload, standing)
        children.append(pid)
        setup_times.append(seconds)
        gauge.append(harness.host_gauge_ms())

    info = harness.facts(workload, seed, dep)
    counters = harness.EngineRuns()
    counters.install()
    phase = harness.Phase(counters, None, seed, keep_digests=False)
    try:
        runner = harness.make_runner(dep, reference, seed, phase)
        harness.drive([runner], seconds, harness.SETUPS - 1, sample_setup)
        standing_count = len(dep.service.standing_queries()) if dep.service else 0
    finally:
        counters.uninstall()
        dep.close()
        # Read the workers' peak before the set-up children are reaped:
        # their usage would count as a worker's otherwise.
        rss = harness.peak_rss_mb(workload.workers, workload.backend == "process")
        for pid in children:
            os.waitpid(pid, 0)
    setup_s = statistics.median(setup_times)
    info["setup_samples"] = setup_times
    info["host_gauge_ms"] = gauge
    selftest = harness.checks_reject_corruption(phase.samples)
    runs = [m for m, _ in counters.runs]
    queries, updates = len(phase.query_s), len(phase.update_s)
    query_wall = phase.wall if workload.serve else sum(phase.query_s)
    info.update(_mode_shares(phase, counters, standing_count))
    info.update(
        query_samples=queries,
        update_samples=updates,
        engine_runs=len(runs) + len(counters.repairs),
        checked=phase.checked,
        mismatches=phase.mismatches,
        failures=phase.failures,
        checks_reject_corruption=selftest,
    )
    failed = len(phase.failures) + len(phase.mismatches)
    attempted = queries + updates + len(phase.failures) + phase.final_checks
    info["failed_frac"] = failed / max(attempted, 1)
    metrics = {}
    if queries >= 2 and updates >= 2:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "query_p50_ms": _metric(statistics.median(phase.query_s) * 1e3, "ms"),
            "query_p90_ms": _metric(harness.percentile(phase.query_s, 90) * 1e3, "ms"),
            "queries_per_s": _metric(queries / query_wall, "1/s"),
            "update_p50_ms": _metric(statistics.median(phase.update_s) * 1e3, "ms"),
            "update_p90_ms": _metric(harness.percentile(phase.update_s, 90) * 1e3, "ms"),
            "comm_mb_per_query": _metric(
                _mean(sum(m.communication_mb for m in runs), len(runs)), "MB"
            ),
            "peak_rss_mb": _metric(rss, "MB"),
        }
    correct = failed == 0 and selftest and bool(metrics)
    return info, correct, max(attempted, 1), failed, metrics


def _mode_shares(phase, counters, standing_count: int) -> dict:
    """The mode shares the workload design keeps away from boundaries."""
    queries, updates = len(phase.query_s), len(phase.update_s)
    out = {
        "cache_hit_frac": _mean(phase.hits, queries),
        "rewarmed_per_batch": _mean(phase.rewarmed, updates),
    }
    if standing_count:
        out.update(harness.repair_shares(counters, updates, standing_count))
    return out


def run_traced(workload, seed: int, seconds: float, out_dir: Path):
    """Three deployments driven in lockstep over the same inputs:
    untraced, with a repro.obs Tracer attached, and with the benchmark's
    span wrappers recording. Answers must agree byte for byte; the last
    one gives the per-layer metrics."""
    reference = graph_from_spec(workload.graph, store=workload.store)
    standing = ServeInputs(reference, seed).standing if workload.serve else None

    rec = SpanRecorder()
    passes = [
        SimpleNamespace(name=name, counters=harness.EngineRuns())
        for name in ("untraced", "obs", "traced")
    ]
    base, obs, traced = passes
    for p in passes:
        p.counters.install()
        p.phase = harness.Phase(
            p.counters, rec if p is traced else None, seed, keep_digests=True
        )
    # Installed for all three deployments; outside a traced request a
    # wrapper only finds the span stack empty and calls through.
    harness.install_spans(rec, workload)
    deps = []
    try:
        base.dep, _ = harness.deploy(workload, standing)
        deps.append(base.dep)
        obs.dep, _ = harness.deploy(workload, standing, tracer=Tracer())
        deps.append(obs.dep)
        with rec.span("bench.setup"):
            traced.dep, traced.setup_wall = harness.deploy(workload, standing, rec=rec)
        deps.append(traced.dep)
        traced.info = harness.facts(workload, seed, traced.dep)
        runners = [harness.make_runner(p.dep, reference, seed, p.phase) for p in passes]
        harness.drive(runners, seconds / 3)
        service = traced.dep.service
        traced.standing = len(service.standing_queries()) if service else 0
        fragments = traced.dep.session.fragmented.fragments
        traced.stores = [f.graph.store for f in fragments]
        traced.edges = sum(f.graph.num_edges for f in fragments)
    finally:
        rec.unpatch_all()
        for p in reversed(passes):
            p.counters.uninstall()
        for dep in deps:
            dep.close()
    failures = [f for p in passes for f in p.phase.failures]
    mismatches = [m for p in passes for m in p.phase.mismatches]
    for p in (obs, traced):
        if p.phase.digests != base.phase.digests:
            mismatches.append(f"{p.name} pass answers differ from the untraced pass")
    out_dir.mkdir(exist_ok=True)
    rec.write(str(out_dir / f"spans-{workload.name}-{seed}.json"))

    metrics = _layer_metrics(workload, rec, traced, base.phase, obs.phase)
    samples = {k: v for p in passes for k, v in p.phase.samples.items()}
    selftest = harness.checks_reject_corruption(samples)
    ops = sum(
        len(p.phase.query_s) + len(p.phase.update_s) + p.phase.final_checks
        for p in passes
    )
    attempted = max(ops + len(failures), 1)
    failed = len(failures) + len(mismatches)
    metrics["failed_frac"] = _metric(failed / attempted, "frac")
    info = traced.info
    info.update(
        query_samples=len(traced.phase.query_s),
        update_samples=len(traced.phase.update_s),
        checked=sum(p.phase.checked for p in passes),
        mismatches=mismatches,
        failures=failures,
        checks_reject_corruption=selftest,
        layer_self_s=_layer_self(rec),
    )
    correct = failed == 0 and selftest
    return info, correct, attempted, failed, metrics


def _layer_self(rec) -> dict:
    """Self seconds per layer (first dotted component of the span name)."""
    out: dict[str, float] = {}
    for name, (seconds, _) in rec.totals().items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + seconds
    return out


def _layer_metrics(workload, rec, traced, base, obs) -> dict:
    """Per-layer metrics of the traced pass; ``base`` and ``obs`` are the
    untraced and Tracer-attached phases over the same requests."""
    counters, phase = traced.counters, traced.phase
    selfs = rec.totals()
    incl = rec.totals(inclusive=True)

    def self_s(name):
        return selfs.get(name, (0.0, 0))[0]

    def incl_s(name):
        return incl.get(name, (0.0, 0))[0]

    def count(name):
        return selfs.get(name, (0.0, 0))[1]

    runs = [m for m, _ in counters.runs]
    repairs = [m for m, _ in counters.repairs]
    every = runs + repairs
    n_runs = len(every)
    queries, batches = len(phase.query_s), len(phase.update_s)
    process = workload.backend == "process"

    compute = harness.worker_compute(every, parallel=process)
    critical = compute["critical"]
    if process:
        # Kernels ran in the worker processes: use their measured compute.
        peval, inceval, repair = compute["peval"], compute["inceval"], compute["repair"]
        inceval_calls = sum(
            s.active_workers for m in every for s in m.supersteps if s.phase == "inceval"
        )
    else:
        peval = self_s("algorithms.peval")
        inceval = self_s("algorithms.inceval")
        repair = self_s("algorithms.repair")
        inceval_calls = count("algorithms.inceval")
    named = sum(
        seconds for i, seconds in enumerate(rec.self_times())
        if rec.spans[i][0] not in ("bench.setup", "bench.request")
    )
    traced_wall = traced.setup_wall + phase.wall
    shares = (
        harness.repair_shares(counters, batches, traced.standing) if traced.standing else {}
    )
    m = _metric
    return {
        "graph.generate_s": m(incl_s("graph.generate"), "s"),
        "graph.fragment_build_s": m(incl_s("graph.fragment_build"), "s"),
        "graph.bytes_per_edge": m(_resident_bytes(traced.stores) / traced.edges, "B"),
        "partition.s": m(incl_s("partition"), "s"),
        "partition.cut_edges_frac": m(traced.info["cut_edges_frac"], "frac"),
        "algorithms.peval_s": m(_mean(peval, n_runs), "s"),
        "algorithms.inceval_s": m(_mean(inceval, n_runs), "s"),
        "algorithms.repair_s": m(_mean(repair, batches), "s"),
        "algorithms.inceval_calls_per_query": m(_mean(inceval_calls, n_runs), "count"),
        "core.engine.supersteps_per_query": m(
            _mean(sum(r.num_supersteps for r in runs), len(runs)), "count"
        ),
        "core.engine.messages_per_query": m(
            _mean(sum(r.total_messages for r in runs), len(runs)), "count"
        ),
        "core.engine.self_s": m(
            _mean(self_s("core.engine.run") + self_s("core.delta.repair"), n_runs), "s"
        ),
        "core.delta.apply_s": m(_mean(incl_s("core.delta.apply"), batches), "s"),
        "core.delta.repair_s": m(_mean(incl_s("core.delta.repair"), batches), "s"),
        "core.delta.full_restart_frac": m(shares.get("full_restart_frac", 0.0), "frac"),
        "core.delta.invalidated_per_batch": m(
            _mean(shares.get("invalidated", 0), batches), "count"
        ),
        "runtime.backend.start_s": m(incl_s("runtime.backend.start"), "s"),
        "runtime.backend.execute_s": m(
            _mean(incl_s("runtime.backend.execute"), n_runs), "s"
        ),
        "runtime.backend.wait_s": m(
            _mean(incl_s("runtime.backend.execute") - critical, n_runs), "s"
        ),
        "runtime.costmodel.virtual_s_per_query": m(
            _mean(sum(r.total_time for r in runs), len(runs)), "s"
        ),
        "service.cache.hit_frac": m(_mean(phase.hits, queries), "frac"),
        "service.overhead_s": m(
            _mean(self_s("service.query"), count("service.query")), "s"
        ),
        "service.rewarmed_per_batch": m(_mean(phase.rewarmed, batches), "count"),
        "obs.overhead_frac": m(obs.wall / base.wall - 1.0, "frac"),
        "bench.trace_overhead_frac": m(phase.wall / base.wall - 1.0, "frac"),
        "bench.reconcile_frac": m(abs(named - traced_wall) / traced_wall, "frac"),
    }


def _resident_bytes(stores) -> int:
    """Resident bytes of the fragment stores: ``sys.getsizeof`` over
    everything reachable from them (types, modules and functions are
    shared with the process and not charged)."""
    seen: set[int] = set()
    stack = list(stores)
    total = 0
    skip = (type, type(sys), type(_resident_bytes))
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total
