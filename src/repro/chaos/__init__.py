"""repro.chaos — seeded chaos campaigns with invariant checking.

The verification muscle behind the paper's failure demonstrations:
message-level fault injection on the opportunistic network
(:mod:`repro.network.faults`), executable Resiliency / Validity / Crowd
Liability invariants (:mod:`~repro.chaos.invariants`), deterministic
seeded campaign sweeps (:mod:`~repro.chaos.campaign`), failure-schedule
shrinking (:mod:`~repro.chaos.shrink`), replayable JSON repro
artifacts (:mod:`~repro.chaos.artifact`), chaos over concurrent
multi-query workloads with per-query invariant verdicts
(:mod:`~repro.chaos.workload`), and long-soak chaos over standing
queries with per-window verdicts under population churn
(:mod:`~repro.chaos.continuous`).
"""

from repro.chaos.artifact import ReproArtifact
from repro.chaos.continuous import (
    ContinuousChaosConfig,
    SoakOutcome,
    WindowOutcome,
    run_soak,
)
from repro.chaos.campaign import (
    CampaignConfig,
    CampaignResult,
    RunOutcome,
    RunSpec,
    TopologySpec,
    run_campaign,
    run_single,
)
from repro.network.faults import (
    FaultDecision,
    FaultSpec,
    MessageFaultInjector,
    corrupt_payload,
    fault_mix_help,
    parse_fault_mix,
)
from repro.network.outages import (
    GrayWindow,
    OutagePlan,
    OutageSpec,
    Partition,
    RegionalCrash,
    build_outage_plan,
    parse_outage_mix,
    split_chaos_mix,
)
from repro.chaos.invariants import (
    INVARIANTS,
    RunRecord,
    Violation,
    check_all,
)
from repro.chaos.shrink import (
    failure_plan_from_events,
    shrink_failure_plan,
    shrink_outage_plan,
)
from repro.chaos.workload import (
    QueryOutcome,
    WorkloadChaosConfig,
    WorkloadChaosOutcome,
    run_workload,
    shrink_workload_plan,
    workload_failure_predicate,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "ContinuousChaosConfig",
    "FaultDecision",
    "FaultSpec",
    "GrayWindow",
    "INVARIANTS",
    "MessageFaultInjector",
    "OutagePlan",
    "OutageSpec",
    "Partition",
    "QueryOutcome",
    "RegionalCrash",
    "ReproArtifact",
    "RunOutcome",
    "RunRecord",
    "RunSpec",
    "SoakOutcome",
    "TopologySpec",
    "Violation",
    "WindowOutcome",
    "WorkloadChaosConfig",
    "WorkloadChaosOutcome",
    "build_outage_plan",
    "check_all",
    "corrupt_payload",
    "failure_plan_from_events",
    "fault_mix_help",
    "parse_fault_mix",
    "parse_outage_mix",
    "run_campaign",
    "run_single",
    "run_soak",
    "run_workload",
    "shrink_failure_plan",
    "shrink_outage_plan",
    "shrink_workload_plan",
    "split_chaos_mix",
    "workload_failure_predicate",
]
