"""The execution options every entry point shares, declared once.

:class:`ExecutionOptions` holds the five knobs that decide *how* a
query executes — the reliability overlay and its recovery deadline,
φ-accrual suspicion, fenced takeover, and the operator engine.  The
spec classes of every layer (``ScenarioConfig``, ``WorkloadSpec``,
``StandingQuerySpec``, the chaos ``RunSpec`` and ``CampaignConfig``)
subclass it instead of redeclaring the fields, the CLI derives its
flags from it, and :func:`execution_wiring` is the one place that turns
the options into coordinator arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.runtime.recovery import RecoveryConfig

__all__ = ["ENGINES", "ExecutionOptions", "execution_wiring"]

#: The operator engines; both produce byte-identical reports.
ENGINES = ("row", "columnar")


@dataclass(frozen=True, kw_only=True)
class ExecutionOptions:
    """How each query execution runs, independent of what it computes.

    Keyword-only, so a subclass keeps its own positional fields.

    Attributes:
        reliability: wire the
            :class:`~repro.network.reliable.ReliableTransport` overlay
            (ACK/retransmission, adaptive timeouts, circuit breakers)
            plus the query-level :class:`RecoveryConfig` (phase
            watchdogs, standby reprovisioning, graceful degradation).
        phase_deadline: computation-phase deadline offset forwarded to
            the recovery layer (``None`` = 85% of the query deadline);
            only meaningful with ``reliability``.
        detector: feed transport delivery observations into a φ-accrual
            failure detector and let the recovery watchdog reprovision
            *suspected* (partitioned/gray, nominally online) Computers;
            only meaningful with ``reliability``.
        fencing: stamp generation-numbered fencing tokens on
            reprovisioned partitions so a stale predecessor's partial
            loses at the combiner (split-brain-safe takeover).
        engine: operator engine, one of :data:`ENGINES`.
    """

    reliability: bool = False
    phase_deadline: float | None = None
    detector: bool = False
    fencing: bool = False
    engine: str = "row"

    def __post_init__(self) -> None:
        if self.phase_deadline is not None and self.phase_deadline <= 0:
            raise ValueError("phase_deadline must be positive")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")

    def options_dict(self) -> dict[str, Any]:
        """The five option fields as flat keyword arguments (also the
        keys chaos artifacts store them under)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(ExecutionOptions)
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExecutionOptions":
        """Read the flat option keys; a missing key takes its default,
        so artifacts written before an option existed still load."""
        phase_deadline = data.get("phase_deadline")
        return ExecutionOptions(
            reliability=bool(data.get("reliability", False)),
            phase_deadline=(
                float(phase_deadline) if phase_deadline is not None else None
            ),
            detector=bool(data.get("detector", False)),
            fencing=bool(data.get("fencing", False)),
            engine=str(data.get("engine", "row")),
        )

    @classmethod
    def from_args(cls, args: Any) -> "ExecutionOptions":
        """The options a parsed CLI namespace carries (subcommands that
        expose only ``--engine`` default the rest)."""
        return ExecutionOptions.from_dict(vars(args))


def execution_wiring(
    options: ExecutionOptions, network: Any, *, seed: int, telemetry: Any
) -> dict[str, Any]:
    """The coordinator keyword arguments ``options`` ask for.

    Under ``reliability`` this builds the query's
    :class:`~repro.network.reliable.ReliableTransport` over ``network``
    (jitter RNG seeded ``seed + 4``) and its :class:`RecoveryConfig`;
    ``fencing`` and ``detector`` pass through unchanged.  Returns the
    ``transport``, ``recovery``, ``fencing`` and ``detector`` arguments
    of :class:`~repro.core.runtime.ExecutionCoordinator`.
    """
    transport = None
    recovery = None
    if options.reliability:
        from repro.network.reliable import ReliableTransport

        transport = ReliableTransport(network, seed=seed + 4, telemetry=telemetry)
        recovery = RecoveryConfig(phase_deadline=options.phase_deadline)
    return {
        "transport": transport,
        "recovery": recovery,
        "fencing": options.fencing,
        "detector": options.detector,
    }
