"""The virtual-channel router.

A single-stage router: a flit that arrives during cycle ``t`` is routed and
VC-allocated the same cycle (combinationally, as the paper's 1-cycle
"routing and scheduling latency" allows) and can win switch arbitration --
the paper's random arbitration -- at ``t + 1``.  Credits flow back over
1-cycle credit wires; a buffer is therefore idle for the full propagation +
credit turnaround the paper's Figure 1 illustrates, which is exactly the
inefficiency flit-reservation flow control removes.

Each router owns its input queues and, for each output, the upstream view of
the downstream router: per-VC credit counts and VC-ownership flags.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.baselines.vc.config import VCConfig
from repro.baselines.vc.flits import VCFlit
from repro.sim.link import Link
from repro.sim.rng import DeterministicRng
from repro.topology.mesh import EJECT, INJECT
from repro.topology.routing import DimensionOrderRouting

NUM_PORTS = 5  # north, east, south, west, local


class VCRouter:
    """One mesh router under virtual-channel flow control."""

    __slots__ = (
        "node",
        "config",
        "routing",
        "rng",
        "eject",
        "in_queues",
        "in_route",
        "in_out_vc",
        "in_active",
        "pool_occupancy",
        "out_data_links",
        "out_credit_links",
        "in_credit_links",
        "in_data_links",
        "out_credits",
        "out_shared_credits",
        "out_vc_owned",
        "connected_outputs",
        "ni_credit",
        "on_flit_arrival",
        "on_flit_forward",
        "_buffered_total",
        "_flags",
        "_wake",
        "flits_forwarded",
    )

    def __init__(
        self,
        node: int,
        config: VCConfig,
        routing: DimensionOrderRouting,
        rng: DeterministicRng,
        eject: Callable[[VCFlit, int], None],
    ) -> None:
        self.node = node
        self.config = config
        self.routing = routing
        self.rng = rng
        self.eject = eject
        v = config.num_vcs
        # Input side: per-port, per-VC flit queues and packet state.
        self.in_queues: list[list[deque[VCFlit]]] = [
            [deque() for _ in range(v)] for _ in range(NUM_PORTS)
        ]
        self.in_route = [[-1] * v for _ in range(NUM_PORTS)]
        self.in_out_vc = [[-1] * v for _ in range(NUM_PORTS)]
        self.in_active = [[False] * v for _ in range(NUM_PORTS)]
        self.pool_occupancy = [0] * NUM_PORTS
        # Output side: the upstream view of each downstream input.
        self.out_data_links: list[Optional[Link[tuple[int, VCFlit]]]] = [None] * NUM_PORTS
        self.out_credit_links: list[Optional[Link[int]]] = [None] * NUM_PORTS  # to upstream
        self.in_credit_links: list[Optional[Link[int]]] = [None] * NUM_PORTS  # from downstream
        self.in_data_links: list[Optional[Link[tuple[int, VCFlit]]]] = [None] * NUM_PORTS
        self.out_credits = [[config.buffers_per_vc] * v for _ in range(NUM_PORTS)]
        # Shared-pool mode (Tamir-Frazier): each VC keeps one dedicated slot
        # so a blocked VC can never monopolise the pool (that would deadlock);
        # the remaining slots are shared.
        self.out_shared_credits = [config.buffers_per_input - v] * NUM_PORTS
        self.out_vc_owned = [[False] * v for _ in range(NUM_PORTS)]
        self.connected_outputs: list[int] = []
        # Set by the network: called with (vc,) when a local-input flit leaves.
        self.ni_credit: Optional[Callable[[int], None]] = None
        # Observability hooks (pure observers; arbitration never consults
        # them).  Arrival: (flit, port, vc, cycle); forward: (flit, in port,
        # in vc, out port, cycle), ejections included.
        self.on_flit_arrival: Optional[Callable[[VCFlit, int, int, int], None]] = None
        self.on_flit_forward: Optional[Callable[[VCFlit, int, int, int, int], None]] = None
        # Activity tracking: total buffered flits across all inputs, plus the
        # wake slot the network rebinds to its worklist (bind_activity).
        self._buffered_total = 0
        self._flags = bytearray(1)
        self._wake = 0
        # Diagnostics.
        self.flits_forwarded = 0

    def bind_activity(self, flags: bytearray, index: int) -> None:
        """Point this router's wake slot at the network's worklist array."""
        self._flags = flags
        self._wake = index

    # -- wiring (done once by the network) -----------------------------------

    def connect_output(
        self, port: int, data_link: Link[tuple[int, VCFlit]], credit_link: Link[int]
    ) -> None:
        """Attach the outgoing data link and incoming credit link of ``port``."""
        self.out_data_links[port] = data_link
        self.in_credit_links[port] = credit_link
        self.connected_outputs.append(port)

    def connect_input(
        self, port: int, data_link: Link[tuple[int, VCFlit]], credit_link: Link[int]
    ) -> None:
        """Attach the incoming data link and outgoing credit link of ``port``."""
        self.in_data_links[port] = data_link
        self.out_credit_links[port] = credit_link

    # -- per-cycle phases -----------------------------------------------------

    def deliver_credits(self, cycle: int) -> None:
        """Absorb credits returned by downstream routers."""
        buffers_per_vc = self.config.buffers_per_vc
        for port in self.connected_outputs:
            link = self.in_credit_links[port]
            credits = self.out_credits[port]
            for vc in link.receive(cycle):
                outstanding = buffers_per_vc - credits[vc]
                credits[vc] += 1
                if outstanding >= 2:
                    # The freed slot was a shared one; the VC's dedicated
                    # slot is released last.
                    self.out_shared_credits[port] += 1

    def switch_traversal(self, cycle: int) -> None:
        """Random switch arbitration and flit forwarding.

        One flit per input port and one per output port per cycle; winners
        are drawn in uniformly random order (the paper's random arbitration).
        """
        if not self._buffered_total:
            return
        candidates = self._gather_candidates()
        if not candidates:
            return
        if len(candidates) > 1:
            candidates = self.rng.shuffled(candidates)
        used_inputs = 0
        used_outputs = 0
        for port, vc, out_port in candidates:
            in_bit = 1 << port
            out_bit = 1 << out_port
            if used_inputs & in_bit or used_outputs & out_bit:
                continue
            used_inputs |= in_bit
            used_outputs |= out_bit
            self._forward(port, vc, out_port, cycle)

    def _gather_candidates(self) -> list[tuple[int, int, int]]:
        pool_mode = self.config.buffer_sharing == "pool"
        num_vcs = self.config.num_vcs
        candidates: list[tuple[int, int, int]] = []
        for port in range(NUM_PORTS):
            queues = self.in_queues[port]
            active = self.in_active[port]
            route = self.in_route[port]
            for vc in range(num_vcs):
                if not queues[vc] or not active[vc]:
                    continue
                out_port = route[vc]
                if out_port != EJECT:
                    out_vc = self.in_out_vc[port][vc]
                    if pool_mode:
                        if not self._pool_send_allowed(out_port, out_vc):
                            continue
                    elif self.out_credits[out_port][out_vc] <= 0:
                        continue
                candidates.append((port, vc, out_port))
        return candidates

    def _forward(self, port: int, vc: int, out_port: int, cycle: int) -> None:
        flit = self.in_queues[port][vc].popleft()
        self.pool_occupancy[port] -= 1
        self._buffered_total -= 1
        self.flits_forwarded += 1
        # The hook fires after the dequeue but before the flit moves.
        if self.on_flit_forward is not None:
            self.on_flit_forward(flit, port, vc, out_port, cycle)
        if out_port == EJECT:
            self.eject(flit, cycle)
        else:
            out_vc = self.in_out_vc[port][vc]
            self.out_data_links[out_port].send((out_vc, flit), cycle)
            if self.config.buffers_per_vc - self.out_credits[out_port][out_vc] >= 1:
                # The VC's dedicated slot is taken; this flit uses a shared one.
                self.out_shared_credits[out_port] -= 1
            self.out_credits[out_port][out_vc] -= 1
            if flit.is_tail:
                self.out_vc_owned[out_port][out_vc] = False
        # Return the freed buffer to whoever feeds this input.
        if port == INJECT:
            self.ni_credit(vc)
        else:
            self.out_credit_links[port].send(vc, cycle)
        if flit.is_tail:
            self.in_active[port][vc] = False
            self.in_route[port][vc] = -1
            self.in_out_vc[port][vc] = -1

    def deliver_flits(self, cycle: int) -> None:
        """Move arriving flits from input links into their VC queues."""
        for port in range(4):  # mesh ports only; local input is fed by the NI
            link = self.in_data_links[port]
            if link is None:
                continue
            for out_vc, flit in link.receive(cycle):
                self.accept_flit(port, out_vc, flit, cycle)

    def accept_flit(self, port: int, vc: int, flit: VCFlit, cycle: int = -1) -> None:
        """Insert one flit into an input VC queue, checking buffer bounds.

        ``cycle`` only feeds the observability hook (``-1`` marks callers
        outside the clocked phases, e.g. test setup).
        """
        queue = self.in_queues[port][vc]
        if self.config.buffer_sharing == "private":
            if len(queue) >= self.config.buffers_per_vc:
                raise RuntimeError(
                    f"VC buffer overflow at node {self.node} port {port} vc {vc}: "
                    "credit protocol violated"
                )
        elif self.pool_occupancy[port] >= self.config.buffers_per_input:
            raise RuntimeError(
                f"buffer pool overflow at node {self.node} port {port}: "
                "credit protocol violated"
            )
        queue.append(flit)
        self.pool_occupancy[port] += 1
        self._buffered_total += 1
        self._flags[self._wake] = 1
        if self.on_flit_arrival is not None:
            self.on_flit_arrival(flit, port, vc, cycle)

    def route_and_allocate(self, cycle: int) -> bool:
        """Route new head flits and allocate output virtual channels.

        Runs last in the cycle, so it also computes the router's activity
        predicate for the network worklist: buffered flits or anything in
        flight toward this router (data or credits) keeps it stepped.
        """
        if self._buffered_total:
            requests: dict[int, list[tuple[int, int]]] = {}
            num_vcs = self.config.num_vcs
            for port in range(NUM_PORTS):
                queues = self.in_queues[port]
                active = self.in_active[port]
                for vc in range(num_vcs):
                    if active[vc] or not queues[vc]:
                        continue
                    head = queues[vc][0]
                    if not head.is_head:
                        raise RuntimeError(
                            f"non-head flit {head!r} at the front of an idle VC at "
                            f"node {self.node}: packet framing corrupted"
                        )
                    out_port = self.routing.output_port(self.node, head.destination)
                    if out_port == EJECT:
                        self.in_route[port][vc] = EJECT
                        self.in_active[port][vc] = True
                    else:
                        bucket = requests.get(out_port)
                        if bucket is None:
                            bucket = []
                            requests[out_port] = bucket
                        bucket.append((port, vc))
            for out_port, requesters in requests.items():
                self._allocate_vcs(out_port, requesters)
            return True
        in_data = self.in_data_links
        for port in range(4):
            link = in_data[port]
            if link is not None and link.in_flight():
                return True
        in_credit = self.in_credit_links
        for port in self.connected_outputs:
            if in_credit[port].in_flight():
                return True
        return False

    def _allocate_vcs(self, out_port: int, requesters: list[tuple[int, int]]) -> None:
        free_vcs = [
            vc for vc in range(self.config.num_vcs) if self._vc_allocatable(out_port, vc)
        ]
        if not free_vcs:
            return
        if len(requesters) > 1:
            requesters = self.rng.shuffled(requesters)
        free_vcs = self.rng.shuffled(free_vcs)
        for (port, vc), out_vc in zip(requesters, free_vcs):
            self.in_route[port][vc] = out_port
            self.in_out_vc[port][vc] = out_vc
            self.in_active[port][vc] = True
            self.out_vc_owned[out_port][out_vc] = True

    def _pool_send_allowed(self, out_port: int, vc: int) -> bool:
        """Shared-pool gate: the VC's dedicated slot or a shared slot free."""
        outstanding = self.config.buffers_per_vc - self.out_credits[out_port][vc]
        return outstanding == 0 or self.out_shared_credits[out_port] > 0

    def _vc_allocatable(self, out_port: int, vc: int) -> bool:
        if self.out_vc_owned[out_port][vc]:
            return False
        if self.config.vc_reallocation == "when_empty":
            return self.out_credits[out_port][vc] == self.config.buffers_per_vc
        return True

    # -- introspection --------------------------------------------------------

    def buffered_flits(self, port: int) -> int:
        """Occupied buffers at one input (for the Section 4.2 occupancy study)."""
        return self.pool_occupancy[port]

    def buffered_total(self) -> int:
        """Occupied buffers summed over every input of this router."""
        total = 0
        for occupied in self.pool_occupancy:
            total += occupied
        return total
