"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload fr6-latency --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs one untraced pass and one traced pass and prints the
per-layer metrics.  The last line of standard output is always one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every number is host time except the simulated cycles, which drive
``sim_cycles_per_s``, and the accuracy figures against the paper's Table 3.
End-to-end times are host-normalised (see hostspeed.py); raw seconds are
printed beside them.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up and replay, which take a fraction of a second each, are sampled
# in rounds between cold passes and after them, for SAMPLE_S seconds in all,
# and reported as medians.
SAMPLE_S = 5.0
REPLAYS_PER_ROUND = 4
CALIBRATION_READINGS = 51
# Where cold runs must never write: the CLI's default ledger and the
# committed results.
FORBIDDEN = (ROOT / ".frfc", ROOT / "benchmarks" / "results")

clock = time.perf_counter


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def simulation_seed(workload: str, seed: int) -> int:
    """The seed the simulator receives, generated from the workload seed."""
    return random.Random(f"{workload}:{seed}").randrange(1, 2**31)


# -- host fingerprint --------------------------------------------------------


def fingerprint() -> dict[str, Any]:
    from hostspeed import kernel_median
    from repro.obs.manifest import git_sha

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
        # The host-speed kernel at start-up: recorded, never gated on.
        "calibration_s": kernel_median(CALIBRATION_READINGS),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# -- the two kinds of run -----------------------------------------------------


def setup_once(runner: Any, index: int, mesh_size: int) -> tuple[float, float]:
    """One set-up, in a fresh interpreter (see setup_probe.py): raw and
    host-normalised seconds.  The host's speed is read in this process on
    either side of it, where the kernel runs warm."""
    from hostspeed import bracketed, normalise

    command = [
        sys.executable,
        str(BENCH_DIR / "setup_probe.py"),
        str(SRC),
        str(runner.work_dir / f"setup-{index}"),
        runner.workload.config,
        repr(runner.workload.first_load),
        str(runner.seed),
        str(mesh_size),
    ]
    completed, _, kernel = bracketed(
        lambda: subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    )
    raw = float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return raw, normalise(raw, kernel)


def end_to_end(
    runner: Any, seconds: float, mesh_size: int, announce: Callable[[str], None]
) -> tuple[dict[str, float], dict[str, float], Any]:
    """Cold passes while the next one fits in ``seconds`` (at least one),
    each followed by a round of set-up and replay samples; then more rounds
    until sampling has taken ``SAMPLE_S``.  Every time is host-normalised.
    Returns the metrics, the medians of the raw times, and the first cold
    pass."""
    from hostspeed import HostClock, bracketed, normalise

    passes = []
    # (raw, host-normalised) seconds of each sample
    walls: list[tuple[float, float]] = []
    setups: list[tuple[float, float]] = []
    replays: list[tuple[float, float]] = []
    sampling = 0.0

    def sample_round(cold: Any) -> None:
        nonlocal sampling
        start = clock()
        setups.append(setup_once(runner, len(setups), mesh_size))
        for _ in range(REPLAYS_PER_ROUND):
            # A replay is short and allocates much (the code digest parses
            # sources): garbage left by earlier work must not be collected
            # inside it.
            gc.collect()
            _, raw, kernel = bracketed(lambda: runner.replay(cold))
            replays.append((raw, normalise(raw, kernel)))
        sampling += clock() - start

    measured = 0.0
    while True:
        with HostClock() as host:
            passes.append(runner.cold_pass(cycles=lambda: host.cycles))
        walls.append(host.normalised(passes[-1].wall))
        announce(
            f"pass {len(passes)}: {passes[-1].cycles} cycles, {walls[-1][0]:.3f} s raw, "
            f"{walls[-1][1]:.3f} s host-normalised ({len(host.segments)} host-speed readings)"
        )
        measured += passes[-1].wall
        sample_round(passes[-1])
        # Garbage from the finished pass must not add to the next one's peak.
        gc.collect()
        if measured + passes[-1].wall > seconds:
            break
    while sampling < SAMPLE_S:
        sample_round(passes[-1])
    for later in passes[1:]:
        runner.outcome.check(
            "repeated cold pass",
            [] if later.digests() == passes[0].digests() else ["results differ between passes"],
        )
    samples = {"setup_s": setups, "wall_s": walls, "replay_s": replays}
    for name, pairs in samples.items():
        announce(f"{name} samples, host-normalised: {' '.join(f'{n:.4f}' for _, n in pairs)}")
    metrics = {name: statistics.median(n for _, n in pairs) for name, pairs in samples.items()}
    metrics["sim_cycles_per_s"] = statistics.median(
        p.cycles / n for p, (_, n) in zip(passes, walls)
    )
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = {name: statistics.median(r for r, _ in pairs) for name, pairs in samples.items()}
    return metrics, raw, passes[0]


def per_layer(runner: Any, trace_path: Path) -> tuple[dict[str, float], Any]:
    """One untraced pass, then one traced pass plus its warm replay.
    Returns the metrics and the untraced pass."""
    from hostspeed import HostClock
    from tracer import Tracer, leftovers, phase_intervals

    with HostClock(calibrate=False) as counter:
        untraced = runner.cold_pass(cycles=lambda: counter.cycles)
    tracer = Tracer()
    with tracer:
        targets = tracer.patched
        traced = runner.cold_pass(operation=tracer.operation)
        runner.replay(traced, operation=tracer.operation)
    outcome = runner.outcome
    outcome.check(
        "traced run matches untraced run",
        [] if traced.digests() == untraced.digests() else ["simulated results differ"],
    )
    outcome.check("wrappers restored", [f"{name} still patched" for name in leftovers(targets)])
    metrics = layer_metrics(tracer, traced.wall, untraced, runner)
    problems = layer_problems(metrics, runner.workload)
    problems += [
        f"{op.label} has a drain phase"
        for op in tracer.all_operations()
        if op.kind == "probe" and any(phase == "drain" for phase, _, _ in phase_intervals(op))
    ]
    outcome.check("layer isolation", problems)
    tracer.write_spans(trace_path)
    return metrics, untraced


def layer_metrics(tracer: Any, traced_wall: float, untraced: Any, runner: Any) -> dict[str, float]:
    from tracer import phase_intervals
    from workloads import accuracy, observed_overhead

    agg = tracer.aggregate

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    steps = sorted(tracer.step_samples)
    fr_cycles, vc_cycles = tracer.node_cycles["fr"], tracer.node_cycles["vc"]
    receive, reserve, polls = agg("sim.link_receive"), agg("core.reserve"), agg("traffic.poll")
    metrics: dict[str, float] = {
        "sim.step_s": agg("sim.step.fr").self_time + agg("sim.step.vc").self_time,
        "sim.step_ms_p50": percentile(steps, 50) * 1e3,
        "sim.step_ms_p99": percentile(steps, 99) * 1e3,
        "sim.step_samples": len(steps),
        "sim.cycles": agg("sim.step.fr").calls + agg("sim.step.vc").calls,
        "sim.link_sends": agg("sim.link_send").calls,
        "sim.link_receives": receive.calls,
        "sim.link_receive_hit_ratio": share(receive.hits, receive.calls),
    }
    for phase in ("control", "ni_control", "departures", "ni_data", "arrivals"):
        stats = agg(f"core.{phase}")
        metrics[f"core.{phase}_s"] = stats.self_time
        metrics[f"core.{phase}_active_frac"] = share(stats.calls, fr_cycles)
    metrics.update(
        {
            "core.reserve_calls": reserve.calls,
            "core.reserve_fail_ratio": share(reserve.calls - reserve.hits, reserve.calls),
            "core.data_flits_ejected": agg("core.data_eject").calls,
            "vc.credits_switch_s": agg("vc.deliver_credits").self_time
            + agg("vc.switch_traversal").self_time,
            "vc.deliver_s": agg("vc.deliver").self_time,
            "vc.inject_s": agg("vc.inject").self_time,
            "vc.route_alloc_s": agg("vc.route_alloc").self_time,
            "vc.router_active_frac": share(agg("vc.route_alloc").calls, vc_cycles),
            "vc.ni_active_frac": share(agg("vc.inject").calls, vc_cycles),
            "traffic.source_polls": polls.calls,
            "traffic.packets_created": polls.hits,
            "stats.latency_records": agg("stats.latency_record").calls,
            "stats.flits_counted": agg("stats.record_flit").calls,
        }
    )
    phases = {"warmup": 0.0, "sample": 0.0, "drain": 0.0}
    operations = tracer.all_operations()
    for op in operations:
        for phase, start, end in phase_intervals(op):
            phases[phase] += end - start
    cold = [op for op in tracer.operations if op.kind != "replay"]
    lookup = agg("obs.ledger_lookup")
    errors = accuracy(runner.workload, untraced)
    metrics.update(
        {
            "harness.warmup_s": phases["warmup"],
            "harness.sample_s": phases["sample"],
            "harness.drain_s": phases["drain"],
            "harness.points": sum(
                op.kind in ("point", "observed") and op.simulated for op in operations
            ),
            "harness.probes": sum(op.kind == "probe" and op.simulated for op in operations),
            "harness.point_overlap": share(sum(op.end - op.start for op in cold), traced_wall),
            "obs.code_digest_s": agg("obs.code_digest").total,
            "obs.ledger_lookup_s": lookup.total,
            "obs.ledger_record_s": agg("obs.ledger_record").total,
            "obs.ledger_hit_ratio": share(lookup.hits, lookup.calls),
            "obs.observer_s": agg("obs.observer").self_time,
            "obs.finalize_s": agg("obs.finalize").total,
            "obs.events_emitted": tracer.events_emitted,
            "obs.events_dropped": tracer.events_dropped,
            "obs.overhead_ratio": observed_overhead(untraced) or 0.0,
            "model.base_latency_err_cycles": errors["base"] or 0.0,
            "model.latency50_err_cycles": errors["lat50"] or 0.0,
            "model.saturation_err_pct": errors["saturation"] or 0.0,
            "bench.trace_overhead_ratio": share(traced_wall, untraced.wall),
        }
    )
    return metrics


# Per-layer metrics that must be non-zero where the layer works and zero
# where it must not.
LAYER_PROBES = {
    "core": (
        "core.control_active_frac",
        "core.ni_control_active_frac",
        "core.departures_active_frac",
        "core.ni_data_active_frac",
        "core.arrivals_active_frac",
        "core.reserve_calls",
        "core.data_flits_ejected",
    ),
    "vc": ("vc.router_active_frac", "vc.ni_active_frac", "vc.credits_switch_s", "vc.inject_s"),
    "obs": ("obs.observer_s", "obs.finalize_s", "obs.events_emitted", "obs.overhead_ratio"),
}
SHARED_PROBES = (
    "sim.cycles",
    "sim.link_sends",
    "traffic.packets_created",
    "stats.flits_counted",
    "harness.warmup_s",
    "harness.sample_s",
    "obs.ledger_lookup_s",
    "obs.ledger_record_s",
    "obs.ledger_hit_ratio",
)


def layer_problems(metrics: dict[str, float], workload: Any) -> list[str]:
    """What the traced run saw that contradicts the workload's design."""
    problems = [f"{name} is 0" for name in SHARED_PROBES if not metrics[name]]
    for layer, names in LAYER_PROBES.items():
        works = layer in workload.layers
        for name in names:
            if works and not metrics[name]:
                problems.append(f"{name} is 0 but {workload.name} exercises {layer}")
            if not works and metrics[name]:
                problems.append(f"{name} is {metrics[name]} but {workload.name} bypasses {layer}")
    drains = bool(workload.loads)
    if drains != bool(metrics["harness.drain_s"]):
        problems.append(f"harness.drain_s is {metrics['harness.drain_s']}")
    if bool(workload.bracket) != bool(metrics["harness.probes"]):
        problems.append(f"harness.probes is {metrics['harness.probes']}")
    return problems


# -- entry point -------------------------------------------------------------


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    mesh_size: int = 8,
    preset: Any = "quick",
    announce: Callable[[str], None] = lambda line: print(line, flush=True),
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; return the result object (not printed here) and
    what a record keeps beside it: the host fingerprint and the medians of
    the raw times.  Progress lines go to ``announce``."""
    from workloads import WORKLOADS, Outcome, Runner, describe

    spec = load_spec()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    workload = WORKLOADS[workload_name]
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    for forbidden in FORBIDDEN:
        if forbidden.resolve() in work_dir.resolve().parents:
            raise RuntimeError(f"work directory {work_dir} lies under {forbidden}")
    outcome = Outcome()
    runner = Runner(
        workload, simulation_seed(workload_name, seed), work_dir, outcome, mesh_size, preset
    )
    host = fingerprint()
    announce(f"perfbench {workload_name} seed={seed} trace={int(trace)}: {workload.why}")
    announce(f"host {json.dumps(host, sort_keys=True)}")
    raw: dict[str, float] = {}
    try:
        if trace:
            trace_path = WORK / "traces" / f"{workload_name}-seed{seed}.jsonl"
            values, cold = per_layer(runner, trace_path)
            announce(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            values, raw, cold = end_to_end(runner, seconds, mesh_size, announce)
            announce(f"raw medians (s): {json.dumps(raw, sort_keys=True)}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in describe(workload, cold):
        announce(line)
    if set(values) != set(wanted):
        raise RuntimeError(
            f"computed metrics {sorted(set(values) ^ set(wanted))} do not match BENCHMARK.json"
        )
    for failure in outcome.failures:
        announce(f"FAILED {failure}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    return result, {"host": host, "raw": raw}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        help="append the result, the host fingerprint and the raw times to this JSONL file",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "result": result,
            **notes,
        }
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
