"""Wrappers around each layer's public methods, installed from outside ``src/``.

Nothing in ``src/`` is edited.  A :class:`Patcher` replaces methods on the
simulator's classes (and one harness module function) with wrappers defined
here and puts the originals back on exit.  Wrappers go in before the first
network is built: networks look their methods up on the class at call time.

An untraced run has one wrapper, ``hostspeed.HostClock``, on
``network.step``: it counts simulated cycles, which a saturation search does
not report, and reads the host's speed between segments of them.

:class:`Tracer` is the traced run.  Three kinds of wrapper keep its cost in
proportion to the call rate:

* *timed* -- per-node phase methods, ledger and session calls, samplers and
  the event bus: a count, a total time and a self time (total minus the
  time of timed calls nested inside it);
* *per-cycle* -- ``network.step``: timed like the above, plus one span per
  cycle, which gives the step-time percentiles;
* *counted* -- the finest-grained calls (link send/receive,
  ``reserve_earliest``, source polls, stats records, data-flit release):
  a count and, where a call can come back empty, a count of useful
  results.  They are not timed.

Spans (operations, harness phases, cycles, ledger and session calls) stay in
memory and are written out by :meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.baselines.vc.interface import VCNodeInterface
from repro.baselines.vc.network import VCNetwork
from repro.baselines.vc.router import VCRouter
from repro.core.flits import FlitPool
from repro.core.interface import FRNodeInterface
from repro.core.network import FRNetwork
from repro.core.reservation import OutputReservationTable
from repro.core.router import FRRouter
from repro.harness import saturation
from repro.obs.events import EventBus
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import ObsSession
from repro.obs.spatial import SpatialMetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.link import Link
from repro.sim.netbase import NetworkModel
from repro.stats.collectors import LatencyStats, ThroughputCounter
from repro.traffic.source import PacketSource

clock = time.perf_counter
_MISSING = object()

# (owner, attribute, aggregate key).  Several methods may share one key.
TIMED = (
    (FRRouter, "control_phase", "core.control"),
    (FRNodeInterface, "control_phase", "core.ni_control"),
    (FRRouter, "data_departures", "core.departures"),
    (FRNodeInterface, "data_phase", "core.ni_data"),
    (FRRouter, "data_arrivals", "core.arrivals"),
    (VCRouter, "deliver_credits", "vc.deliver_credits"),
    (VCRouter, "switch_traversal", "vc.switch_traversal"),
    (VCRouter, "deliver_flits", "vc.deliver"),
    (VCNodeInterface, "inject", "vc.inject"),
    (VCRouter, "route_and_allocate", "vc.route_alloc"),
    (RunLedger, "code_digest", "obs.code_digest"),
    (EventBus, "emit", "obs.observer"),
    (MetricsRegistry, "check", "obs.observer"),
    (SpatialMetricsRegistry, "check", "obs.observer"),
)
# Timed, and each call also kept as a span of the current operation.
SPANNED = (
    (RunLedger, "lookup", "obs.ledger_lookup"),
    (RunLedger, "record_experiment", "obs.ledger_record"),
    (RunLedger, "record_throughput", "obs.ledger_record"),
    (ObsSession, "attach", "obs.attach"),
)
# Counted only.  The last field says which results count as useful:
# non-empty lists (``"truthy"``), anything but None (``"not_none"``), or
# no distinction (None).
COUNTED = (
    (Link, "send", "sim.link_send", None),
    (Link, "receive", "sim.link_receive", "truthy"),
    (OutputReservationTable, "reserve_earliest", "core.reserve", "not_none"),
    (PacketSource, "maybe_create", "traffic.poll", "not_none"),
    (LatencyStats, "record", "stats.latency_record", None),
    (ThroughputCounter, "record_flit", "stats.record_flit", None),
    (FlitPool, "release_data", "core.data_eject", None),
)
STEPPED = ((FRNetwork, "fr"), (VCNetwork, "vc"))


class Patcher:
    """Replaces attributes and restores exactly what was there before."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        raise NotImplementedError

    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        self._patches.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, make(getattr(owner, name)))

    def uninstall(self) -> None:
        """Restore every original, newest patch first (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    @property
    def patched(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) for every replacement in place."""
        return list(self._patches)

    def __enter__(self) -> "Patcher":
        if self._patches:
            raise RuntimeError(f"{type(self).__name__} already installed")
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


@dataclass
class Aggregate:
    """Count, total time and self time of one wrapped method (or group)."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    hits: int = 0


@dataclass
class Operation:
    """One harness operation: a point, a probe, a search or a replay."""

    op_id: int
    parent_id: int
    kind: str
    label: str
    start: float
    end: float = 0.0
    first_step: Optional[float] = None
    window_set: Optional[float] = None
    sample_end: Optional[float] = None
    last_step_end: Optional[float] = None
    children: list["Operation"] = field(default_factory=list)

    @property
    def simulated(self) -> bool:
        return self.first_step is not None


class Tracer(Patcher):
    """Installs the layer wrappers and keeps what they saw."""

    def __init__(self) -> None:
        super().__init__()
        self.aggregates: dict[str, Aggregate] = {}
        self.node_cycles: dict[str, int] = {model: 0 for _, model in STEPPED}
        self.step_samples: list[float] = []
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.operations: list[Operation] = []
        self.events_emitted = 0
        self.events_dropped = 0
        self._stack: list[float] = [0.0]
        self._current: Optional[Operation] = None
        self._next_id = 1

    def aggregate(self, key: str) -> Aggregate:
        return self.aggregates.setdefault(key, Aggregate())

    def all_operations(self) -> list[Operation]:
        """Every operation, parents before their children."""
        found: list[Operation] = []
        pending = list(reversed(self.operations))
        while pending:
            op = pending.pop()
            found.append(op)
            pending.extend(reversed(op.children))
        return found

    def install(self) -> None:
        for owner, name, key in TIMED:
            self._patch(owner, name, lambda fn, key=key: self._timed(key, fn))
        for owner, name, key in SPANNED:
            self._patch(owner, name, lambda fn, key=key: self._spanned(key, fn))
        for owner, name, key, hit in COUNTED:
            self._patch(owner, name, lambda fn, key=key, hit=hit: self._counted(key, hit, fn))
        for owner, model in STEPPED:
            self._patch(owner, "step", lambda fn, model=model: self._per_cycle(model, fn))
        self._patch(Simulator, "step", self._simulator_step)
        self._patch(NetworkModel, "set_measure_window", self._window_marker)
        self._patch(ObsSession, "finalize", self._finalize)
        self._patch(saturation, "measure_throughput", self._probe)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        agg = self.aggregate(key)
        stack = self._stack

        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                agg.calls += 1
                agg.total += elapsed
                agg.self_time += elapsed - child

        return timed

    def _spanned(self, key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._timed(key, fn)
        agg = self.aggregate(key)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = timed(*args, **kwargs)
            self._span(key, start, clock())
            if result is not None:
                agg.hits += 1
            return result

        return spanned

    def _counted(
        self, key: str, hit: Optional[str], fn: Callable[..., Any]
    ) -> Callable[..., Any]:
        agg = self.aggregate(key)
        if hit == "truthy":

            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                agg.calls += 1
                if result:
                    agg.hits += 1
                return result

        elif hit == "not_none":

            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                agg.calls += 1
                if result is not None:
                    agg.hits += 1
                return result

        else:

            def counted(*args: Any, **kwargs: Any) -> Any:
                agg.calls += 1
                return fn(*args, **kwargs)

        return counted

    def _per_cycle(self, model: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        agg = self.aggregate(f"sim.step.{model}")
        stack = self._stack
        samples = self.step_samples
        node_cycles = self.node_cycles

        def step(network: Any, cycle: int) -> None:
            stack.append(0.0)
            start = clock()
            try:
                fn(network, cycle)
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                stack[-1] += elapsed
                agg.calls += 1
                agg.total += elapsed
                agg.self_time += elapsed - child
                samples.append(elapsed)
                node_cycles[model] += len(network.routers)
                self._span("network.step", start, end)

        return step

    def _simulator_step(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._timed("sim.simulator_step", fn)

        def step(simulator: Any, cycles: int = 1) -> None:
            start = clock()
            try:
                timed(simulator, cycles)
            finally:
                op = self._current
                if op is not None:
                    end = clock()
                    if op.first_step is None:
                        op.first_step = start
                    if op.window_set is not None and op.sample_end is None:
                        op.sample_end = end
                    op.last_step_end = end

        return step

    def _window_marker(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def set_measure_window(network: Any, start: int, end: int) -> None:
            fn(network, start, end)
            if self._current is not None:
                self._current.window_set = clock()

        return set_measure_window

    def _finalize(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        spanned = self._spanned("obs.finalize", fn)

        def finalize(session: Any, *args: Any, **kwargs: Any) -> Any:
            self.events_emitted += session.bus.events_emitted
            self.events_dropped += session.events_dropped
            return spanned(session, *args, **kwargs)

        return finalize

    def _probe(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def measure_throughput(
            config: Any, offered_load: float, *args: Any, **kwargs: Any
        ) -> Any:
            with self.operation("probe", f"{config.name} load={offered_load:.3f}"):
                return fn(config, offered_load, *args, **kwargs)

        return measure_throughput

    # -- operations and spans ------------------------------------------------

    @contextmanager
    def operation(self, kind: str, label: str) -> Iterator[Operation]:
        """Bracket one harness operation; nested operations become children."""
        parent = self._current
        op = Operation(
            self._next_id, parent.op_id if parent is not None else 0, kind, label, clock()
        )
        self._next_id += 1
        (parent.children if parent is not None else self.operations).append(op)
        self._current = op
        try:
            yield op
        finally:
            op.end = clock()
            self._current = parent
            self.spans.append((op.op_id, op.parent_id, f"{kind} {label}", op.start, op.end))
            for phase, start, end in phase_intervals(op):
                self.spans.append((op.op_id, op.op_id, f"harness.{phase}", start, end))

    def _span(self, name: str, start: float, end: float) -> None:
        op_id = self._current.op_id if self._current is not None else 0
        self.spans.append((op_id, op_id, name, start, end))

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: operation id, the id of the operation
        that caused it (0 at top level), name, and start/end in seconds
        since the first span."""
        origin = min((start for _, _, _, start, _ in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for op_id, parent, name, start, end in self.spans:
                span = {
                    "op": op_id,
                    "parent": parent,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                }
                out.write(json.dumps(span) + "\n")


def phase_intervals(op: Operation) -> list[tuple[str, float, float]]:
    """Warmup, sample and drain intervals of one simulated operation.

    Derived from public calls only: warm-up runs from the first
    ``Simulator.step`` to ``set_measure_window``, the sample is the next
    ``Simulator.step`` batch, and drain is any stepping after that.
    """
    if op.first_step is None or op.window_set is None:
        return []
    intervals = [("warmup", op.first_step, op.window_set)]
    if op.sample_end is not None:
        intervals.append(("sample", op.window_set, op.sample_end))
        if op.last_step_end is not None and op.last_step_end > op.sample_end:
            intervals.append(("drain", op.sample_end, op.last_step_end))
    return intervals


def leftovers(patched: list[tuple[Any, str, Any]]) -> list[str]:
    """Names from a :attr:`Patcher.patched` snapshot not restored since."""
    return [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, original in patched
        if vars(owner).get(name, _MISSING) is not original
    ]
