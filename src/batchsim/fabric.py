"""Deterministic discrete-event substrate.

Simulation clock with FIFO tie-break at equal timestamps, the event log,
the node state machine (the batch service boots and preempts nodes), and
the latency/bandwidth interconnect timing model. Everything observable is
a pure function of (initial state, seed): per-entity RNG streams are
derived by hashing the master seed with a stable purpose string, so draw
order never depends on scheduling order.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

BOOT_LATENCY_RANGE = (60, 300)  # uniform integer seconds, one draw per pool
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
    """Binomial-tree closure: ceil(log2(p)) latency-bound rounds; p < 1 is a ValueError."""
    rounds = math.ceil(math.log2(participants))
    return rounds * comm_time(model, message_bytes)


# ---------------------------------------------------------------------------
# event loop


@dataclass(slots=True)
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

    __hash__ = object.__hash__  # members are singletons; Enum.__hash__ is Python code


# each legal (from, to) node transition and its event-log text
_LEGAL_TRANSITIONS = {(a, b): f"{a.value}->{b.value}" for a, b in (
    (NodeState.STARTING, NodeState.IDLE), (NodeState.IDLE, NodeState.RUNNING),
    (NodeState.RUNNING, NodeState.IDLE), (NodeState.IDLE, NodeState.PREEMPTED),
    (NodeState.RUNNING, NodeState.PREEMPTED))}


class Node:
    """A VM of a pool; its SKU is the pool's `config.sku`."""

    __slots__ = ("node_id", "position", "entity", "priority", "state", "ready_time",
                 "released_time", "preempt_at", "busy_log")

    def __init__(self, node_id: str, priority: Priority, position: int = 0):
        self.node_id = node_id
        self.position = position  # index in its pool's nodes
        self.entity = f"node/{node_id}"  # the event-log entity
        self.priority = priority
        self.state = NodeState.STARTING
        self.ready_time: Optional[float] = None
        self.released_time: Optional[float] = None
        self.preempt_at: Optional[float] = None
        # busy intervals (start, end, "task/<job>/<task>#<attempt>") in the order they end;
        # state.json stores only those that no task row records, and a load rebuilds the rest
        self.busy_log: list[tuple[float, float, str]] = []

    def transition(self, to: NodeState, at: float, log: EventLog):
        text = _LEGAL_TRANSITIONS.get((self.state, to))
        if text is None:
            raise ValueError(f"illegal node transition {self.state.value} -> {to.value}")
        if to is NodeState.PREEMPTED and self.priority is not Priority.LOW_PRIORITY:
            raise ValueError("dedicated nodes are never preempted")
        log.records.append((at, self.entity, text))
        self.state = to
        if to is NodeState.IDLE and self.ready_time is None:
            self.ready_time = at
