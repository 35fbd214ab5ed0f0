"""The benchmark's four workloads, each run once through the public API.

:func:`make_inputs` turns ``(shape, seed)`` into the rows a workload
deals out, off the clock.  :func:`run_cycle` builds the system over
them (``setup_s``), runs its queries (``query_s``) and returns one
plain dict of measurements; ``run.py`` executes each cycle in a forked
child so no process-global state carries over from one cycle to the
next.  When asked to verify, a cycle checks every succeeded result
against the centralized oracle; the other cycles of a run are held to
the verified one through their report fingerprints.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Any

from repro.core.planner import PrivacyParameters, ResiliencyParameters
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager import verification
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.plan import compile as plan_compile
from repro.query.relation import Relation
from repro.workload.engine import WorkloadEngine
from repro.workload.fingerprint import report_fingerprint
from repro.workload.spec import WorkloadSpec

#: The demo's grouping-sets query (Section 3.2, Part 1, query (i)); the
#: same text as ``benchmarks/_scenarios.DEMO_SQL``, held here so the
#: benchmark does not move when that table harness changes.
DEMO_SQL = (
    "SELECT count(*), avg(age), avg(bmi) FROM health "
    "WHERE age > 65 "
    "GROUP BY GROUPING SETS ((region), (sex), ())"
)


@dataclass(frozen=True)
class SingleShape:
    """One demo query over one freshly built swarm."""

    contributors: int
    processors: int
    rows_per_contributor: int
    max_raw: int
    sealed: bool = False


@dataclass(frozen=True)
class MultiShape:
    """A closed-loop ``WorkloadEngine`` run over one shared swarm."""

    contributors: int
    processors: int
    queries: int
    in_flight: int
    standbys: int
    message_loss: float
    backup_fraction: float


#: ``full`` is what the benchmark measures; ``tiny`` keeps the same
#: code paths at a size the benchmark's own tests can afford.
SHAPES: dict[str, dict[str, Any]] = {
    "large-swarm": {
        "full": SingleShape(600, 60, 2, max_raw=75),
        "tiny": SingleShape(40, 20, 2, max_raw=20),
    },
    # no message loss: under loss the transport's per-link circuit
    # breaker sometimes drops a final result (about 1 query in 250 at
    # 5%, and still on 2 of 40 seeds at 1%), and a gated workload may
    # not fail; ACKs and retransmit timers still run on every transfer.
    # ``tiny`` keeps the loss so the tests cover the retransmit path.
    "multi-query": {
        "full": MultiShape(60, 300, 100, 16, 2, 0.0, 0.25),
        "tiny": MultiShape(20, 60, 6, 3, 2, 0.05, 0.25),
    },
    "dense-rows": {
        "full": SingleShape(150, 20, 256, max_raw=4800),
        "tiny": SingleShape(20, 20, 16, max_raw=80),
    },
    "sealed": {
        "full": SingleShape(120, 20, 4, max_raw=60, sealed=True),
        "tiny": SingleShape(12, 12, 2, max_raw=8, sealed=True),
    },
}

def _tag(workload: str, seed: int) -> str:
    """Pinned device-identity prefix: a run's bytes must not depend on
    how many scenarios the process built before it."""
    return f"pb-{workload}-{seed}"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _groups_check(report, group_by, dataset: Relation, allow_missing: bool) -> str | None:
    """``None`` when the result has the oracle's groups, else why not."""
    validity = verification.verify_against_centralized(
        report, group_by, dataset
    ).validity
    if validity.extra_groups or (validity.missing_groups and not allow_missing):
        return (
            f"{report.query_id}: {validity.missing_groups} missing / "
            f"{validity.extra_groups} extra groups"
        )
    return None


def _run_single(
    workload: str, shape: SingleShape, seed: int, rows: list[dict], tracer, verify: bool
) -> dict[str, Any]:
    n_rows = len(rows)
    config = ScenarioConfig(
        n_contributors=shape.contributors,
        n_processors=shape.processors,
        rows=rows,
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        rows_per_device=(shape.rows_per_contributor, shape.rows_per_contributor),
        collection_window=20.0,
        deadline=80.0,
        secure_channels=shape.sealed,
        require_attestation=shape.sealed,
        seed=seed,
        scenario_tag=_tag(workload, seed),
    )
    privacy = PrivacyParameters(max_raw_per_edgelet=shape.max_raw)
    resiliency = ResiliencyParameters(fault_rate=0.1, target_success=0.99)

    with tracer.phase("run"):
        started = time.perf_counter()
        with tracer.phase("setup"):
            scenario = Scenario(config)
        setup_done = time.perf_counter()
        with tracer.phase("query"):
            compiled = plan_compile.compile_query(
                DEMO_SQL,
                query_id=f"{workload}-{seed}",
                snapshot_cardinality=n_rows,
                privacy=privacy,
                resiliency=resiliency,
            )
            result = scenario.run_compiled(compiled)
        finished = time.perf_counter()

    report = result.report
    start = result.executor.start_time
    ok = report.success and not report.degraded
    mismatches = []
    if ok and verify:
        problem = _groups_check(
            report, compiled.spec.group_by, Relation(HEALTH_SCHEMA, rows),
            allow_missing=False,
        )
        if problem:
            mismatches.append(problem)
            ok = False
    stats = scenario.network.stats
    return {
        "setup_s": setup_done - started,
        "query_s": finished - setup_done,
        "attempted": 1,
        "completed": 1,
        "succeeded": int(ok),
        "mismatches": mismatches,
        "sim_events": scenario.simulator.processed,
        "bytes_sent": stats.bytes_sent,
        "messages_sent": stats.sent,
        "messages_delivered": stats.delivered,
        # a query that never delivered waited out its whole horizon
        "latencies": [
            (report.completion_time if report.completion_time is not None
             else result.executor.deadline_at) - start
        ],
        "queue_waits": [0.0],
        "retransmits": 0,
        "gave_up": 0,
        "admission_offers": 0,
        "admission_shed": 0,
        "fingerprints": {report.query_id: report_fingerprint(report, base_time=start)},
        "peak_rss_mb": _peak_rss_mb(),
    }


def _run_multi(
    workload: str, shape: MultiShape, seed: int, rows: list[dict], tracer, verify: bool
) -> dict[str, Any]:
    spec = WorkloadSpec(
        n_queries=shape.queries,
        arrival_process="closed",
        target_in_flight=shape.in_flight,
        max_concurrent=shape.in_flight,
        backup_fraction=shape.backup_fraction,
        reliability=True,
        seed=seed,
    )

    with tracer.phase("run"):
        started = time.perf_counter()
        with tracer.phase("setup"):
            engine = WorkloadEngine(
                spec,
                n_contributors=shape.contributors,
                n_processors=shape.processors,
                rows=rows,
                scenario_tag=_tag(workload, seed),
                standby_count=shape.standbys,
                message_loss=shape.message_loss,
            )
        setup_done = time.perf_counter()
        with tracer.phase("query"):
            result = engine.run()
        finished = time.perf_counter()

    dataset = Relation(HEALTH_SCHEMA, rows) if verify else None
    succeeded = 0
    mismatches = []
    latencies = []
    waits = []
    retransmits = gave_up = 0
    for record in result.records:
        if record.latency is not None:
            latencies.append(record.latency)
        if record.started_at is not None:
            waits.append(record.started_at - record.arrived_at)
        if record.transport is not None:
            retransmits += record.transport.stats.retransmissions
            gave_up += record.transport.stats.transfers_failed
        report = record.report
        if report is None or not report.success or report.degraded:
            continue
        # each query aggregates a sampled snapshot, so a group the sample
        # never drew may be missing; a group the data lacks may not appear
        problem = verify and _groups_check(
            report, engine.group_by, dataset, allow_missing=True
        )
        if problem:
            mismatches.append(problem)
        else:
            succeeded += 1
    stats = engine.scenario.network.stats
    return {
        "setup_s": setup_done - started,
        "query_s": finished - setup_done,
        "attempted": len(result.records),
        "completed": result.completed,
        "succeeded": succeeded,
        "mismatches": mismatches,
        "sim_events": engine.scenario.simulator.processed,
        "bytes_sent": stats.bytes_sent,
        "messages_sent": stats.sent,
        "messages_delivered": stats.delivered,
        "latencies": latencies,
        "queue_waits": waits,
        "retransmits": retransmits,
        "gave_up": gave_up,
        "admission_offers": engine.admission.arrivals,
        "admission_shed": engine.admission.shed,
        "fingerprints": result.fingerprints(),
        "peak_rss_mb": _peak_rss_mb(),
    }


def make_inputs(workload: str, shape_name: str, seed: int) -> list[dict]:
    """The rows ``workload`` deals out, a pure function of the seed."""
    shape = SHAPES[workload][shape_name]
    if isinstance(shape, MultiShape):
        n_rows = 2 * shape.contributors
    else:
        n_rows = shape.contributors * shape.rows_per_contributor
    return generate_health_rows(n_rows, seed=seed)


def run_cycle(
    workload: str, shape_name: str, seed: int, rows: list[dict], tracer, verify: bool
) -> dict[str, Any]:
    """Run ``workload`` once at ``SHAPES[workload][shape_name]``."""
    shape = SHAPES[workload][shape_name]
    run = _run_multi if isinstance(shape, MultiShape) else _run_single
    return run(workload, shape, seed, rows, tracer, verify)
