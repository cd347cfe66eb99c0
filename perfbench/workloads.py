"""The workloads, one cold pass of each, and the checks on its outputs.

Every workload is a single-process batch job on one core, with uniform
traffic, 5-flit packets and the ``quick`` preset, driven through the public
harness API.  A *pass* runs all of a workload's operations once against
fresh ledgers; a *replay* runs them again through new ``RunLedger``
instances on the stores the pass filled.
"""

from __future__ import annotations

import dataclasses
import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Optional

from repro import FR6, VC8, find_saturation, run_experiment
from repro.harness.experiment import AnyConfig, ExperimentResult
from repro.harness.presets import MeasurementPreset
from repro.obs.ledger import RunLedger, canonical_json
from repro.obs.session import ObsSession
from repro.topology.mesh import Mesh2D

clock = time.perf_counter

PACKET_LENGTH = 5
#: A sub-saturation point must deliver its offered load to within 3%.
DELIVERY_TOLERANCE = 0.03
#: Table 3 of the paper (fast control, 5-flit packets): base latency and
#: latency at 50% of capacity in cycles, saturation in % of capacity.
PAPER_TABLE3 = {
    "FR6": {"base": 27.0, "lat50": 33.0, "saturation": 77.0},
    "VC8": {"base": 32.0, "lat50": 39.0},
}
BASE_LOAD = 0.05
CONFIGS: dict[str, AnyConfig] = {"FR6": FR6, "VC8": VC8}


@dataclass(frozen=True)
class Workload:
    """What one workload runs.  ``loads`` are latency points; ``bracket``
    (low, high, resolution) is a saturation search; ``observed`` runs the
    single latency point detached and then fully observed."""

    name: str
    config: str
    why: str
    loads: tuple[float, ...] = ()
    bracket: Optional[tuple[float, float, float]] = None
    observed: bool = False
    layers: frozenset[str] = frozenset()

    @property
    def first_load(self) -> float:
        return self.loads[0] if self.loads else self.bracket[0]  # type: ignore[index]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fr6-table3",
            "FR6",
            "the three FR6 cells of Table 3: points at 0.05 (sparse, worklists "
            "prune) and 0.50 (dense), drain included, then a saturation "
            "bisection over [0.70, 0.84] (full tables, failed reservations, no drain)",
            loads=(BASE_LOAD, 0.50),
            bracket=(0.70, 0.84, 0.075),
            layers=frozenset({"core"}),
        ),
        Workload(
            "vc8-latency",
            "VC8",
            "the VC8 baseline at the FR6 loads: shared layers work as in FR, "
            "the FR core does nothing",
            loads=(BASE_LOAD, 0.50),
            layers=frozenset({"vc"}),
        ),
        Workload(
            "fr6-observed",
            "FR6",
            "the FR6 0.50 point detached and then with every frfc obs "
            "instrument attached: the only run where obs does work",
            loads=(0.50,),
            observed=True,
            layers=frozenset({"core", "obs"}),
        ),
    )
}


@dataclass
class Outcome:
    """Operations attempted and failed, with a reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, label: str, problems: list[str]) -> None:
        """Count one operation; it fails when any problem was found."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def run(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run one operation, counting an exception as its failure."""
        try:
            return fn()
        except Exception:  # an operation's failure must not stop the run
            self.check(label, [traceback.format_exc(limit=3).strip().replace("\n", " | ")])
            return None


@dataclass
class Op:
    """One operation of a pass and its result in canonical form."""

    label: str
    kind: str  # "point", "search" or "observed"
    load: float
    result: Any = None
    canonical: str = ""
    seconds: float = 0.0
    cycles: int = 0


@dataclass
class Pass:
    """One cold pass: its operations, wall time and the stores it filled."""

    ops: list[Op]
    wall: float
    cycles: int
    stores: list[tuple[Path, list[Op]]]

    def digests(self) -> list[str]:
        return [op.canonical for op in self.ops]


def find_op(ops: list[Op], kind: str, load: Optional[float] = None) -> Optional[Op]:
    """The first successful operation of ``kind`` (at ``load``, if given)."""
    for op in ops:
        if op.kind == kind and load in (None, op.load) and op.result is not None:
            return op
    return None


def canonical(result: Any) -> str:
    return canonical_json(dataclasses.asdict(result))


class Runner:
    """Runs passes and replays of one workload at one seed."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        work_dir: Path,
        outcome: Outcome,
        mesh_size: int = 8,
        preset: str | MeasurementPreset = "quick",
    ) -> None:
        self.workload = workload
        self.config = CONFIGS[workload.config]
        self.seed = seed
        self.work_dir = work_dir
        self.outcome = outcome
        self.mesh = Mesh2D(mesh_size, mesh_size)
        self.preset = preset
        self._stores = 0

    def _fresh_store(self) -> Path:
        self._stores += 1
        return self.work_dir / f"ledger-{self._stores}"

    def _common(self) -> dict[str, Any]:
        return dict(seed=self.seed, preset=self.preset, mesh=self.mesh)

    def point(
        self, load: float, ledger: RunLedger, obs: Optional[ObsSession] = None
    ) -> ExperimentResult:
        return run_experiment(
            self.config,
            load,
            packet_length=PACKET_LENGTH,
            ledger=ledger,
            obs=obs,
            **self._common(),
        )

    def search(self, ledger: RunLedger) -> Any:
        low, high, resolution = self.workload.bracket  # type: ignore[misc]
        return find_saturation(
            self.config,
            packet_length=PACKET_LENGTH,
            low=low,
            high=high,
            resolution=resolution,
            delivery_tolerance=DELIVERY_TOLERANCE,
            ledger=ledger,
            **self._common(),
        )

    # -- a cold pass ---------------------------------------------------------

    def cold_pass(
        self,
        operation: Optional[Callable[[str, str], ContextManager[Any]]] = None,
        cycles: Callable[[], int] = lambda: 0,
    ) -> Pass:
        """Run every operation once against fresh ledgers and check each.

        ``operation`` brackets each operation for a tracer; ``cycles`` reads
        the simulated-cycle counter.
        """
        bracket = operation or (lambda kind, label: nullcontext())
        name = self.config.name
        detached = RunLedger(self._fresh_store())
        ops: list[Op] = []
        stores: list[tuple[Path, list[Op]]] = [(detached.root, ops)]
        start = clock()
        cycles_before = cycles()
        for load in self.workload.loads:
            op = Op(f"{name} point load={load:.2f}", "point", load)
            self._timed(op, bracket, lambda: self.point(load, detached), cycles)
            ops.append(op)
            self._check_point(op)
        if self.workload.bracket is not None:
            op = Op(f"{name} saturation search {self.workload.bracket}", "search", 0.0)
            self._timed(op, bracket, lambda: self.search(detached), cycles)
            ops.append(op)
            self._check_search(op)
        observed_ops: list[Op] = []
        if self.workload.observed:
            load = self.workload.loads[0]
            ledger = RunLedger(self._fresh_store())
            op = Op(f"{name} observed point load={load:.2f}", "observed", load)
            self._timed(op, bracket, lambda: self._observed(load, ledger), cycles)
            observed_ops.append(op)
            stores.append((ledger.root, observed_ops))
            self._check_point(op, reference=find_op(ops, "point", load))
        wall = clock() - start
        return Pass(ops + observed_ops, wall, cycles() - cycles_before, stores)

    def _observed(self, load: float, ledger: RunLedger) -> ExperimentResult:
        artifacts = self.work_dir / f"artifacts-{self._stores}"
        artifacts.mkdir(parents=True, exist_ok=True)

        def out(name: str) -> str:
            return str(artifacts / name)

        session = ObsSession(
            events_out=out("events.jsonl"),
            trace_out=out("trace.json"),
            metrics_out=out("metrics.csv"),
            spatial_out=out("spatial.csv"),
            heatmap_out=out("heatmap.json"),
            profile=True,
            attribution_out=out("attribution.json"),
            manifest_out=out("obs_manifest.json"),
            bench_out=out("BENCH_obs.json"),
            # The event cap of the CI observed point: memory stays bounded
            # and the drop count is non-zero, as it is there.
            capacity=50_000,
        )
        result = self.point(load, ledger, obs=session)
        session.finalize(
            config=self.config,
            seed=self.seed,
            preset=getattr(self.preset, "name", self.preset),
            offered_load=load,
            packet_length=PACKET_LENGTH,
            command="perfbench",
        )
        return result

    def _timed(
        self,
        op: Op,
        bracket: Callable[[str, str], ContextManager[Any]],
        fn: Callable[[], Any],
        cycles: Callable[[], int],
    ) -> None:
        before = cycles()
        start = clock()
        with bracket(op.kind, op.label):
            op.result = self.outcome.run(op.label, fn)
        op.seconds = clock() - start
        op.cycles = cycles() - before
        if op.result is not None:
            op.canonical = canonical(op.result)

    def _check_point(self, op: Op, reference: Optional[Op] = None) -> None:
        """A latency point; ``reference`` is the detached run of an observed one."""
        result = op.result
        if result is None:
            return
        problems = []
        if reference is not None and op.canonical != reference.canonical:
            problems.append("observed result differs from detached")
        if result.saturated:
            problems.append("sub-saturation point reported saturated")
        if not math.isfinite(result.mean_latency):
            problems.append("no latency measured")
        if abs(result.accepted_load - op.load) > DELIVERY_TOLERANCE * op.load:
            problems.append(
                f"accepted {result.accepted_load:.4f} outside "
                f"{DELIVERY_TOLERANCE:.0%} of offered {op.load:.2f}"
            )
        self.outcome.check(op.label, problems)

    def _check_search(self, op: Op) -> None:
        result = op.result
        if result is None:
            return
        low, high, _ = self.workload.bracket  # type: ignore[misc]
        problems = []
        if not low <= result.knee <= high:
            problems.append(f"knee {result.knee:.3f} outside bracket [{low}, {high}]")
        self.outcome.check(op.label, problems)

    # -- warm replay ---------------------------------------------------------

    def replay(
        self,
        cold: Pass,
        operation: Optional[Callable[[str, str], ContextManager[Any]]] = None,
    ) -> float:
        """Re-run every operation through a new ``RunLedger`` on each store
        the cold pass filled; every one must be a verified hit that equals
        its cold result byte for byte.  Returns the wall time."""
        bracket = operation or (lambda kind, label: nullcontext())
        start = clock()
        for root, ops in cold.stores:
            ledger = RunLedger(root)
            for op in ops:
                label = f"replay {op.label}"
                with bracket("replay", label):
                    if op.kind == "search":
                        result = self.outcome.run(label, lambda: self.search(ledger))
                    else:
                        result = self.outcome.run(label, lambda op=op: self.point(op.load, ledger))
                if result is None:
                    continue
                problems = []
                if canonical(result) != op.canonical:
                    problems.append("warm replay differs from the cold result")
                if ledger.misses or ledger.corrupt:
                    problems.append(
                        f"{ledger.misses} misses, {ledger.corrupt} corrupt records on replay"
                    )
                self.outcome.check(label, problems)
        return clock() - start


def accuracy(workload: Workload, cold: Pass) -> dict[str, Optional[float]]:
    """Simulated absolute error against the paper's Table 3 (None where
    the workload has no such point or the paper gives no reference)."""
    refs = PAPER_TABLE3[workload.config]
    errors: dict[str, Optional[float]] = {"base": None, "lat50": None, "saturation": None}
    base = find_op(cold.ops, "point", BASE_LOAD)
    if base is not None:
        errors["base"] = abs(base.result.mean_latency - refs["base"])
    mid = find_op(cold.ops, "point", 0.50)
    if mid is not None:
        errors["lat50"] = abs(mid.result.mean_latency - refs["lat50"])
    search = find_op(cold.ops, "search")
    if search is not None and "saturation" in refs:
        errors["saturation"] = abs(search.result.saturation * 100 - refs["saturation"])
    return errors


def observed_overhead(cold: Pass) -> Optional[float]:
    """Observed ÷ detached wall time of the same point in the same pass."""
    observed = find_op(cold.ops, "observed")
    if observed is None:
        return None
    detached = find_op(cold.ops, "point", observed.load)
    return observed.seconds / detached.seconds if detached is not None else None


def describe(workload: Workload, cold: Pass) -> list[str]:
    """Human-readable lines: each operation, the accuracy against Table 3,
    and the observed overhead where there is one."""
    lines = []
    for op in cold.ops:
        summary = op.result.summary() if hasattr(op.result, "summary") else ""
        if op.kind == "search" and op.result is not None:
            summary = (
                f"knee={op.result.knee:.3f} plateau={op.result.plateau:.3f} "
                f"probes={len(op.result.probes)}"
            )
        lines.append(f"op {op.label}: {op.seconds:.3f} s, {op.cycles} cycles; {summary}")
    errors = accuracy(workload, cold)
    names = {
        "base": "base_latency_err_cycles",
        "lat50": "latency50_err_cycles",
        "saturation": "saturation_err_pct",
    }
    lines.append(
        "accuracy vs paper Table 3 (simulated): "
        + " ".join(
            f"{names[key]}={'n/a' if value is None else f'{value:.4f}'}"
            for key, value in errors.items()
        )
    )
    ratio = observed_overhead(cold)
    if ratio is not None:
        lines.append(f"obs_overhead_ratio={ratio:.4f} (observed ÷ detached, same point)")
    return lines
