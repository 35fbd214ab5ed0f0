"""The execution options: one declaration, one CLI surface, one wiring.

:class:`repro.core.runtime.ExecutionOptions` is the only place the five
execution knobs are declared; every spec class inherits them, the CLI
derives its flags from them, and :func:`execution_wiring` is the only
place they become coordinator arguments.
"""

from __future__ import annotations

import argparse
import dataclasses

import pytest

from repro.chaos.campaign import CampaignConfig, RunSpec
from repro.cli import build_parser
from repro.continuous import ContinuousEngine, StandingQuerySpec
from repro.core.runtime import ExecutionOptions, RecoveryConfig, execution_wiring
from repro.data.health import HEALTH_SCHEMA
from repro.manager.scenario import ScenarioConfig
from repro.network.opnet import OpportunisticNetwork
from repro.network.reliable import ReliableTransport
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph
from repro.telemetry import Telemetry
from repro.workload import WorkloadEngine, WorkloadSpec

FIELDS = tuple(f.name for f in dataclasses.fields(ExecutionOptions))
EXECUTING = ("run", "chaos", "workload", "continuous")
ENGINE_ONLY = ("plan", "explain")
ALL_ON = ExecutionOptions(
    reliability=True, phase_deadline=9.5, detector=True, fencing=True,
    engine="columnar",
)


def _subparser(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return sub.choices[name]


def _option_defaults(name: str) -> dict[str, object]:
    return {
        action.dest: action.default
        for action in _subparser(name)._actions
        if action.dest in FIELDS
    }


def _argv(options: ExecutionOptions) -> list[str]:
    argv = ["--engine", options.engine]
    if options.reliability:
        argv.append("--reliability")
    if options.phase_deadline is not None:
        argv += ["--phase-deadline", str(options.phase_deadline)]
    if options.detector:
        argv.append("--detector")
    if options.fencing:
        argv.append("--fencing")
    return argv


class TestDeclaration:
    def test_five_fields_with_their_defaults(self):
        assert ExecutionOptions().options_dict() == {
            "reliability": False,
            "phase_deadline": None,
            "detector": False,
            "fencing": False,
            "engine": "row",
        }

    @pytest.mark.parametrize(
        "spec_class",
        [ScenarioConfig, WorkloadSpec, StandingQuerySpec, RunSpec, CampaignConfig],
    )
    def test_every_spec_inherits_instead_of_redeclaring(self, spec_class):
        assert issubclass(spec_class, ExecutionOptions)
        for name in FIELDS:
            assert name not in spec_class.__dict__.get("__annotations__", {})

    def test_validation_lives_in_the_base(self):
        with pytest.raises(ValueError, match="phase_deadline"):
            ExecutionOptions(phase_deadline=0.0)
        with pytest.raises(ValueError, match="unknown engine"):
            ExecutionOptions(engine="vector")
        # inherited by every spec, including ones that never checked
        with pytest.raises(ValueError, match="phase_deadline"):
            WorkloadSpec(n_queries=1, phase_deadline=-1.0)
        with pytest.raises(ValueError, match="unknown engine"):
            StandingQuerySpec(engine="vector")
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(seed=1, tag="t", engine="vector")

    def test_keyword_construction_keeps_working(self):
        spec = WorkloadSpec(5, reliability=True, seed=3)
        assert spec.n_queries == 5 and spec.reliability and spec.seed == 3
        config = ScenarioConfig(
            4, 4, [], HEALTH_SCHEMA, fencing=True, phase_deadline=7.0,
        )
        assert config.fencing and config.phase_deadline == 7.0

    def test_from_dict_defaults_missing_keys(self):
        assert ExecutionOptions.from_dict({}) == ExecutionOptions()
        assert ExecutionOptions.from_dict(ALL_ON.options_dict()) == ALL_ON
        assert ExecutionOptions.from_dict(
            {"reliability": True, "phase_deadline": 3}
        ) == ExecutionOptions(reliability=True, phase_deadline=3.0)


class TestCliSurface:
    def test_executing_subcommands_share_the_five_flags(self):
        expected = ExecutionOptions().options_dict()
        for name in EXECUTING:
            assert _option_defaults(name) == expected, name

    def test_plan_and_explain_take_only_the_engine(self):
        for name in ENGINE_ONLY:
            assert _option_defaults(name) == {"engine": "row"}, name

    @pytest.mark.parametrize("name", EXECUTING)
    @pytest.mark.parametrize("options", [ExecutionOptions(), ALL_ON])
    def test_from_args_round_trips(self, name, options):
        args = build_parser().parse_args([name, *_argv(options)])
        assert ExecutionOptions.from_args(args) == options

    @pytest.mark.parametrize("name", ENGINE_ONLY)
    def test_engine_only_subcommands_round_trip(self, name):
        args = build_parser().parse_args([name, "--engine", "columnar"])
        assert ExecutionOptions.from_args(args) == ExecutionOptions(
            engine="columnar"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--reliability"])


class TestWiring:
    def _network(self):
        simulator = Simulator()
        return OpportunisticNetwork(simulator, ContactGraph(), seed=1)

    def test_plain_options_wire_no_overlay(self):
        wiring = execution_wiring(
            ExecutionOptions(fencing=True), self._network(), seed=3,
            telemetry=Telemetry(),
        )
        assert wiring == {
            "transport": None, "recovery": None, "fencing": True,
            "detector": False,
        }

    def test_reliability_wires_transport_and_recovery(self):
        network = self._network()
        wiring = execution_wiring(ALL_ON, network, seed=3, telemetry=Telemetry())
        assert isinstance(wiring["transport"], ReliableTransport)
        assert wiring["transport"].network is network
        assert wiring["recovery"] == RecoveryConfig(phase_deadline=9.5)
        assert wiring["fencing"] is True
        assert wiring["detector"] is True

    def test_workload_engine_honours_detector_and_fencing(self):
        spec = WorkloadSpec(
            n_queries=2, max_concurrent=2, seed=4, reliability=True,
            detector=True, fencing=True,
        )
        engine = WorkloadEngine(
            spec, n_contributors=24, n_processors=40, telemetry=Telemetry(),
            standby_count=1,
        )
        assert engine.scenario_config.options_dict() == spec.options_dict()
        result = engine.run()
        executed = [r for r in result.records if r.executor is not None]
        assert executed
        for record in executed:
            assert record.executor.ctx.fencing is True
            assert record.executor.recovery.detector is not None

    def test_continuous_engine_honours_detector_and_fencing(self):
        spec = StandingQuerySpec(
            max_windows=2, seed=4, reliability=True, detector=True,
            fencing=True,
        )
        engine = ContinuousEngine(spec, telemetry=Telemetry(), standby_count=1)
        result = engine.run()
        executed = [w for w in result.windows if w.executor is not None]
        assert executed
        for record in executed:
            assert record.executor.ctx.fencing is True
            assert record.executor.recovery.detector is not None
