"""Self-tests of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench -q

Each workload runs on a 4x4 mesh with a shortened preset, so the whole file
takes well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

from repro.harness.presets import MeasurementPreset  # noqa: E402
from repro.obs.ledger import RunLedger  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = MeasurementPreset(
    name="smoke",
    min_warmup=100,
    warmup_window=50,
    max_warmup=300,
    sample_cycles=200,
    drain_cycles=2_000,
    throughput_cycles=200,
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(workload: str, trace: bool) -> dict:
    result, _ = run.run(
        workload, seed=3, seconds=0.0, trace=trace, mesh_size=4, preset=SMOKE,
        announce=lambda line: None,
    )
    return result


def test_names_and_units_are_well_formed():
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_pass_prints_every_metric_with_its_unit(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] >= 1
    spec = run.load_spec()["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    json.dumps(result, allow_nan=False)


def test_forced_check_failure_is_a_failed_operation(monkeypatch):
    original = RunLedger.replay_experiment

    def tampered(record):
        result = original(record)
        return dataclasses.replace(result, mean_latency=result.mean_latency + 1.0)

    monkeypatch.setattr(RunLedger, "replay_experiment", staticmethod(tampered))
    result = smoke("vc8-latency", trace=False)
    assert result["failed"] >= 1
    assert not result["correct"]


def targets() -> dict[tuple[int, str], object]:
    owners = [entry[0] for entry in tracer.TIMED + tracer.SPANNED + tracer.COUNTED]
    owners += [owner for owner, _ in tracer.STEPPED]
    owners += [tracer.Simulator, tracer.NetworkModel, tracer.ObsSession, tracer.saturation]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_wrappers_leave_nothing_patched():
    before = targets()
    tr = tracer.Tracer()
    with tr:
        assert tr.patched
        assert targets() != before
    assert targets() == before
    with pytest.raises(RuntimeError):
        with hostspeed.HostClock():
            raise RuntimeError("a failing pass still restores the wrappers")
    assert targets() == before


def test_host_normalised_time():
    reference = hostspeed.REFERENCE_KERNEL_S
    host = hostspeed.HostClock()
    # Three segments while the host ran at half speed for most of them, and
    # 3 ms of kernel readings inside the 103 ms the pass took.
    host.segments = [(0.025, reference), (0.025, 2 * reference), (0.025, 2 * reference)]
    host.kernel_total = 0.003
    raw, normalised = host.normalised(0.103)
    assert raw == pytest.approx(0.1)
    # Every neighbourhood's median reading is twice the reference.
    assert normalised == pytest.approx(0.05)


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        [sys.executable if part == "python3" else part for part in command]
        + ["--workload", "vc8-latency", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
