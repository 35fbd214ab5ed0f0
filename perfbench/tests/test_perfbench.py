"""Tests of the benchmark itself, at the tiny shape.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = (
    "success_ratio", "bytes_per_query", "messages_per_query",
    "virtual_latency_p50_s", "virtual_latency_p95_s",
)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import run as bench  # noqa: E402

# every workload the command runs, gated in BENCHMARK.json or not
WORKLOADS = list(bench.WORKLOADS)


def _bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--shape", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _record(workload: str, trace: int, seed: int = 3) -> dict:
    path = ROOT / ".bench_build" / "perfbench" / f"{workload}-tiny-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def untraced():
    return {w: _result(_bench(w, 0)) for w in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {w: _result(_bench(w, 1)) for w in WORKLOADS}


def test_workload_names_match_the_shapes():
    import workloads

    assert tuple(workloads.SHAPES) == bench.WORKLOADS
    assert {w["name"] for w in SPEC["workloads"]} <= set(bench.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced, workload):
    result = untraced[workload]
    assert result["correct"] and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_emitted_with_its_unit(traced, workload):
    result = traced[workload]
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_account_for_the_traced_wall(traced, workload):
    metrics = {k: v["value"] for k, v in traced[workload]["metrics"].items()}
    layers = sum(
        v for k, v in metrics.items()
        if k.endswith(".self_s") and not k.startswith("trace.")
    )
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9
    )


def test_untraced_run_records_no_spans(untraced):
    for workload in WORKLOADS:
        cycles = _record(workload, 0)["cycles"]
        assert cycles and all(c["trace"] is None for c in cycles)


def test_traced_run_alternates_untraced_and_traced_cycles(traced):
    for workload in WORKLOADS:
        cycles = _record(workload, 1)["cycles"]
        assert [c["traced"] for c in cycles[:2]] == [0, 1]
        for cycle in cycles:
            if cycle["traced"]:
                assert [s["name"] for s in cycle["trace"]["spans"]] == ["run", "setup", "query"]
            else:
                assert cycle["trace"] is None


def test_wrapped_layers_are_called_where_predicted(traced):
    value = {
        w: {k: v["value"] for k, v in traced[w]["metrics"].items()} for w in WORKLOADS
    }
    for workload in WORKLOADS:
        assert value[workload]["crypto.keygen.calls"] > 0
        assert value[workload]["network.topology.links"] > 0
        assert value[workload]["network.sim.events"] > 0
        assert value[workload]["plan.compile.calls"] > 0
        assert value[workload]["core.dispatch.calls"] > 0
        assert value[workload]["query.groupby.rows"] > 0
        sealed = workload == "sealed"
        for name in ("crypto.sign.calls", "crypto.verify.calls", "crypto.dh.calls",
                     "crypto.aead.bytes", "devices.attest.calls"):
            assert (value[workload][name] > 0) == sealed, (workload, name)
    assert value["multi-query"]["manager.admission.offers"] > 0
    assert value["multi-query"]["network.reliable.retransmits"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat_across_runs(untraced, workload):
    fingerprints = _record(workload, 0)["cycles"][0]["fingerprints"]
    again = _result(_bench(workload, 0))
    for name in DETERMINISTIC:
        assert again["metrics"][name] == untraced[workload]["metrics"][name], name
    assert _record(workload, 0)["cycles"][0]["fingerprints"] == fingerprints


def test_changed_fingerprint_is_a_mismatch():
    cycle = {key: 0 for key in bench.DETERMINISTIC}
    cycle.update(mismatches=[], fingerprints={"q": "a"})
    changed = dict(cycle, fingerprints={"q": "b"})
    assert bench.check([cycle, dict(cycle)]) == []
    assert bench.check([cycle, changed]) == ["cycle 1 changed fingerprints"]
    wrong = dict(cycle, mismatches=["q: 1 missing / 0 extra groups"])
    assert bench.check([wrong]) == ["q: 1 missing / 0 extra groups"]


def test_host_times_are_scaled_to_the_reference_speed():
    # around the first cycle the reference block ran twice as fast as
    # REFERENCE_S, around the second at exactly that speed
    cycle = dict(
        traced=0, setup_s=1.0, query_s=2.0, completed=4, succeeded=4, attempted=4,
        sim_events=100, peak_rss_mb=90.0, bytes_sent=8, messages_sent=4, latencies=[1.0],
        reference_s=bench.REFERENCE_S / 2,
    )
    slower = dict(cycle, setup_s=2.0, query_s=4.0, reference_s=bench.REFERENCE_S)
    metrics = bench.end_to_end([cycle, slower])
    assert metrics["setup_s"] == pytest.approx(2.0)
    assert metrics["query_s"] == pytest.approx(4.0)
    assert metrics["wall_s"] == pytest.approx(6.0)
    assert metrics["queries_per_s"] == pytest.approx(4 / 4.0)
    assert metrics["sim_events_per_s"] == pytest.approx(100 / 4.0)
    assert metrics["peak_rss_mb"] == 90.0


def test_fails_without_the_program(tmp_path):
    proc = _bench("sealed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
