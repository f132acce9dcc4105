"""Deterministic discrete-event substrate.

Simulation clock with FIFO tie-break at equal timestamps, node state
machines with provisioning and preemption, and the latency/bandwidth
interconnect timing model. Everything observable is a pure function of
(initial state, seed): per-entity RNG streams are derived by hashing the
master seed with a stable purpose string, so draw order never depends on
scheduling order.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import AllocationUnavailable

BOOT_LATENCY_RANGE = (60, 300)  # uniform integer seconds per provision batch
DEFAULT_PREEMPTION_RATE = 0.05  # events per node-hour


def derived_rng(seed: int, purpose: str) -> random.Random:
    """Stable child RNG; independent of PYTHONHASHSEED and call order."""
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# interconnect timing


@dataclass(frozen=True)
class InterconnectModel:
    """Per-message latency (seconds) and sustained bandwidth (bytes/second)."""

    name: str
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")


AZURE_INTERCONNECT = InterconnectModel("azure", alpha=1.95e-6, beta=5.2e9)
COLONIAL_INTERCONNECT = InterconnectModel("colonial-one", alpha=1.25e-6, beta=6.2e9)

INTERCONNECTS = {m.name: m for m in (AZURE_INTERCONNECT, COLONIAL_INTERCONNECT)}


def comm_time(model: InterconnectModel, message_bytes: int) -> float:
    if message_bytes < 0:
        raise ValueError("message_bytes must be non-negative")
    return model.alpha + message_bytes / model.beta


def allreduce_time(model: InterconnectModel, participants: int, message_bytes: int) -> float:
    """Binomial-tree closure: ceil(log2(p)) latency-bound rounds."""
    if participants < 1:
        raise ValueError("participants must be at least 1")
    if participants == 1:
        return 0.0
    rounds = math.ceil(math.log2(participants))
    return rounds * comm_time(model, message_bytes)


# ---------------------------------------------------------------------------
# event loop


@dataclass
class _Scheduled:
    time: float
    seq: int
    action: Callable[[], None]
    cancelled: bool = False

    def cancel(self):
        self.cancelled = True


class EventLog:
    """Append-only transition log, serialized as time<TAB>entity<TAB>transition."""

    def __init__(self):
        self.records: list[tuple[float, str, str]] = []

    def append(self, time: float, entity: str, transition: str):
        self.records.append((time, entity, transition))

    def lines(self) -> list[str]:
        return [f"{t:.6f}\t{e}\t{tr}" for t, e, tr in self.records]

    def dump(self) -> str:
        out = "\n".join(self.lines())
        return out + "\n" if out else ""


class SimClock:
    """Time-ordered event queue with stable FIFO tie-break by insertion."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, _Scheduled]] = []
        self._seq = 0

    def schedule(self, at: float, action: Callable[[], None]) -> _Scheduled:
        if at < self.now:
            raise ValueError(f"cannot schedule into the past ({at} < {self.now})")
        ev = _Scheduled(at, self._seq, action)
        heapq.heappush(self._heap, (at, self._seq, ev))
        self._seq += 1
        return ev

    def schedule_after(self, delay: float, action: Callable[[], None]) -> _Scheduled:
        return self.schedule(self.now + delay, action)

    def pending(self) -> int:
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    def step(self) -> bool:
        """Run the next event; returns False when the queue is drained."""
        while self._heap:
            _, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self.now = ev.time
            ev.action()
            return True
        return False

    def run(self, until: Optional[Callable[[], bool]] = None):
        """Drain the queue, stopping early once `until()` becomes true."""
        while True:
            if until is not None and until():
                return
            if not self.step():
                return


# ---------------------------------------------------------------------------
# nodes


class Priority(enum.Enum):
    DEDICATED = "dedicated"
    LOW_PRIORITY = "low_priority"


class NodeState(enum.Enum):
    STARTING = "Starting"
    IDLE = "Idle"
    RUNNING = "Running"
    PREEMPTED = "Preempted"


_LEGAL_TRANSITIONS = {
    (NodeState.STARTING, NodeState.IDLE),
    (NodeState.IDLE, NodeState.RUNNING),
    (NodeState.RUNNING, NodeState.IDLE),
    (NodeState.IDLE, NodeState.PREEMPTED),
    (NodeState.RUNNING, NodeState.PREEMPTED),
}


class Node:
    def __init__(self, node_id: str, sku: str, priority: Priority, boot_latency: int):
        self.node_id = node_id
        self.sku = sku
        self.priority = priority
        self.state = NodeState.STARTING
        self.boot_latency = boot_latency
        self.ready_time: Optional[float] = None
        self.released_time: Optional[float] = None
        self.preempt_at: Optional[float] = None
        # (start, end, task_id) busy intervals, for the gang invariants
        self.busy_log: list[tuple[float, float, str]] = []

    def transition(self, to: NodeState, at: float, log: EventLog):
        if (self.state, to) not in _LEGAL_TRANSITIONS:
            raise ValueError(f"illegal node transition {self.state.value} -> {to.value}")
        if to is NodeState.PREEMPTED and self.priority is not Priority.LOW_PRIORITY:
            raise ValueError("dedicated nodes are never preempted")
        log.append(at, f"node/{self.node_id}", f"{self.state.value}->{to.value}")
        self.state = to
        if to is NodeState.IDLE and self.ready_time is None:
            self.ready_time = at

    @property
    def alive(self) -> bool:
        return self.state in (NodeState.IDLE, NodeState.RUNNING, NodeState.STARTING)


@dataclass(frozen=True)
class ScarcityWindow:
    """Interval of simulated time during which low-priority allocation is denied."""

    start: float
    end: float

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


class PreemptionProcess:
    """Exponential per-node preemption clock; rate is events per node-hour."""

    def __init__(self, rate: float = DEFAULT_PREEMPTION_RATE, seed: int = 0):
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.rate = rate
        self.seed = seed

    def preempt_after(self, node_id: str) -> float:
        """Seconds from node readiness to preemption (inf when rate is 0)."""
        if self.rate == 0:
            return math.inf
        rng = derived_rng(self.seed, f"preempt/{node_id}")
        return rng.expovariate(self.rate) * 3600.0


class Provisioner:
    """Creates nodes with seeded boot latencies and enqueues readiness events.

    One boot latency is drawn per provision batch and shared by the batch, so
    all nodes of a pool become usable at the same instant; this keeps billed
    node time equal to the pool's wall-clock life.
    """

    def __init__(self, clock: SimClock, log: EventLog, seed: int = 0,
                 scarcity_windows: tuple[ScarcityWindow, ...] = ()):
        self.clock = clock
        self.log = log
        self.seed = seed
        self.scarcity_windows = tuple(scarcity_windows)

    def low_priority_available(self, at: float) -> bool:
        return not any(w.covers(at) for w in self.scarcity_windows)

    def provision(self, batch_id: str, sku: str, dedicated: int, low_priority: int,
                  on_ready: Callable[[Node], None], staging_seconds: float = 0.0,
                  staging_label: str = "") -> list[Node]:
        if dedicated < 0 or low_priority < 0:
            raise ValueError("node counts must be non-negative")
        if low_priority > 0 and not self.low_priority_available(self.clock.now):
            raise AllocationUnavailable(
                f"low-priority capacity unavailable at t={self.clock.now:.0f}s"
            )
        if dedicated + low_priority == 0:
            return []
        lo, hi = BOOT_LATENCY_RANGE
        boot = derived_rng(self.seed, f"boot/{batch_id}").randint(lo, hi)
        nodes = []
        for i in range(dedicated + low_priority):
            prio = Priority.DEDICATED if i < dedicated else Priority.LOW_PRIORITY
            node = Node(f"{batch_id}/{i}", sku, prio, boot)
            self.log.append(self.clock.now, f"node/{node.node_id}", f"->{node.state.value}")
            if staging_seconds > 0 and staging_label:
                self.clock.schedule_after(boot, _staging_action(node, self, staging_label))
            self.clock.schedule_after(boot + staging_seconds,
                                      _ready_action(node, self, on_ready))
            nodes.append(node)
        return nodes


def _staging_action(node: Node, prov: Provisioner, label: str):
    def action():
        if node.state is NodeState.STARTING and node.released_time is None:
            prov.log.append(prov.clock.now, f"node/{node.node_id}", label)

    return action


def _ready_action(node: Node, prov: Provisioner, on_ready: Callable[[Node], None]):
    def action():
        if node.state is NodeState.STARTING and node.released_time is None:
            node.transition(NodeState.IDLE, prov.clock.now, prov.log)
            on_ready(node)

    return action
