"""Event-driven round engine: virtual clock, event heap, round cutoffs.

The synchronous seed drove every selected client inline from
``Server.run_round`` — fine at 10 clients, hopeless at fleet scale, and
structurally unable to express the timing phenomena cross-device attacks
assume (stragglers, heterogeneous hardware, diurnal availability).  This
module replaces that loop with a small discrete-event simulation:

- :class:`VirtualClock` — deterministic integer-tick simulated time
  (microsecond resolution).  Nothing in :mod:`repro.fl` ever reads the
  wall clock (enforced by the ``no-sim-wallclock`` lint rule); all timing
  derives from this clock, so two runs of the same federation are
  tick-for-tick identical on any host.
- :class:`Event` / :class:`EventQueue` — a binary heap whose ordering is
  a pure function of each event's ``(time, kind, client_id)`` key, never
  of insertion order.  Registering clients (or pushing events) in a
  different order cannot reorder the simulation — the property the
  hypothesis suite pins.
- :class:`CountCutoff` / :class:`TimeCutoff` — round-close policies.  A
  count cutoff closes the round once the expected number of updates has
  landed (the degenerate case that reproduces the legacy synchronous loop
  byte-for-byte); a time cutoff closes at ``opened_at + duration`` and
  whatever lands later *is* a straggler — lateness is an emergent timing
  outcome, not a coin flip.
- :class:`RoundEngine` — runs one round's events: dispatches the selected
  clients through an :class:`~repro.fl.arrivals.ArrivalProcess`, pops
  completion events in virtual-time order, ingests each arriving update
  into the :class:`~repro.fl.aggregators.RoundBuffer` as it lands, and
  classifies dropouts (never complete) and stragglers (complete after the
  cutoff) from the event timeline.

The server (:mod:`repro.fl.server`) owns the protocol semantics —
aggregation, secure-aggregation commitment windows, dishonest-server
hooks — and delegates *when things happen* to this engine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.fl.aggregators import RoundBuffer, flat_spec
from repro.fl.messages import GradientUpdate

#: Virtual-clock resolution: one tick is one simulated microsecond.
TICKS_PER_SECOND = 1_000_000


def ticks(seconds: float) -> int:
    """Convert simulated seconds to integer clock ticks (deterministic)."""
    return int(round(float(seconds) * TICKS_PER_SECOND))


def seconds(tick_count: int) -> float:
    """Convert integer clock ticks back to simulated seconds."""
    return tick_count / TICKS_PER_SECOND


class VirtualClock:
    """Deterministic simulated time, counted in integer ticks.

    Integer ticks (not floats) so event ordering never depends on
    floating-point rounding, and so two federations advancing through the
    same events read identical times on every platform.
    """

    def __init__(self, start: int = 0) -> None:
        self._now = int(start)

    @property
    def now(self) -> int:
        """The current simulated time in ticks."""
        return self._now

    @property
    def now_s(self) -> float:
        """The current simulated time in seconds."""
        return seconds(self._now)

    def advance_to(self, tick: int) -> int:
        """Move time forward to ``tick``; moving backwards is a bug."""
        tick = int(tick)
        if tick < self._now:
            raise ValueError(
                f"virtual clock cannot run backwards ({tick} < {self._now})"
            )
        self._now = tick
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now})"


# The event taxonomy.  ``completion`` sorts before ``close`` at the same
# tick, so an update landing exactly at the deadline is on time.
EVENT_KINDS = ("completion", "close")
_KIND_PRIORITY = {kind: priority for priority, kind in enumerate(EVENT_KINDS)}


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence on the virtual timeline.

    ``kind`` is one of :data:`EVENT_KINDS`; ``client_id`` is ``-1`` for
    events that belong to the round rather than to a client (the close
    event).  The sort key is the event's identity — never a heap
    insertion counter — which is what makes the pop order invariant to
    the order clients were registered or events were pushed.
    """

    time: int
    kind: str
    client_id: int = -1

    def __post_init__(self) -> None:
        if self.kind not in _KIND_PRIORITY:
            raise ValueError(
                f"unknown event kind {self.kind!r}; known: {EVENT_KINDS}"
            )

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (self.time, _KIND_PRIORITY[self.kind], self.client_id)


class EventQueue:
    """A deterministic min-heap of :class:`Event`\\ s.

    Pop order is the sorted order of the events' ``sort_key``\\ s — a pure
    function of the event *set*, independent of push order.  Two events
    with the same key would be the same occurrence; pushing a duplicate
    key is rejected to keep the order total.
    """

    def __init__(self, events: Sequence[Event] = ()) -> None:
        self._heap: list[tuple[tuple[int, int, int], Event]] = []
        self._keys: set[tuple[int, int, int]] = set()
        for event in events:
            self.push(event)

    def push(self, event: Event) -> None:
        key = event.sort_key
        if key in self._keys:
            raise ValueError(f"duplicate event key {key}")
        self._keys.add(key)
        heapq.heappush(self._heap, (key, event))

    def pop(self) -> Event:
        key, event = heapq.heappop(self._heap)
        self._keys.remove(key)
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


# --------------------------------------------------------------------------
# Round cutoffs.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CountCutoff:
    """Close the round after a fixed number of updates has arrived.

    ``target=None`` means "every on-time dispatch the arrival plan
    expects" — with the compat arrival process this is exactly the legacy
    synchronous behaviour (wait for all non-straggling survivors), which
    is why the count-cutoff engine reproduces the seed's round records
    byte-for-byte.  A positive ``target`` is the
    over-selection strategy real systems use: select 120, close on the
    first 100.
    """

    target: Optional[int] = None

    def __post_init__(self) -> None:
        if self.target is not None and self.target < 1:
            raise ValueError("count cutoff target must be >= 1")

    def arrival_target(self, plan: "RoundPlan") -> Optional[int]:
        if self.target is not None:
            return self.target
        if plan.expected_fresh is not None:
            return plan.expected_fresh
        return len(plan.dispatched)

    def deadline(self, opened_at: int, plan: "RoundPlan") -> Optional[int]:
        return None


@dataclass(frozen=True)
class TimeCutoff:
    """Close the round ``duration`` ticks after it opens.

    Every completion landing at ``opened_at + duration`` or earlier is an
    on-time arrival; anything later is a straggler *by timing*, not by
    coin flip.  ``min_arrivals`` optionally keeps the round open past the
    deadline until that many updates have landed (a grace floor so a
    too-tight deadline degrades instead of producing empty rounds).
    """

    duration: int
    min_arrivals: int = 0

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ValueError("time cutoff duration must be >= 1 tick")
        if self.min_arrivals < 0:
            raise ValueError("min_arrivals must be non-negative")

    def arrival_target(self, plan: "RoundPlan") -> Optional[int]:
        return None

    def deadline(self, opened_at: int, plan: "RoundPlan") -> Optional[int]:
        return opened_at + self.duration


RoundCutoff = "CountCutoff | TimeCutoff"


def make_cutoff(
    round_duration_s: Optional[float] = None,
    count_target: Optional[int] = None,
    min_arrivals: int = 0,
) -> "CountCutoff | TimeCutoff":
    """Resolve the configured cutoff policy.

    A positive ``round_duration_s`` selects a :class:`TimeCutoff`;
    otherwise a :class:`CountCutoff` (with ``count_target``, or the
    legacy wait-for-everyone degenerate case when that is ``None``).
    """
    if round_duration_s is not None and round_duration_s > 0:
        return TimeCutoff(ticks(round_duration_s), min_arrivals=min_arrivals)
    return CountCutoff(target=count_target)


# --------------------------------------------------------------------------
# Arrival plans (produced by repro.fl.arrivals, consumed by the engine).
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduledCompletion:
    """One dispatched client and the tick its update will land."""

    client_id: int
    time: int


@dataclass
class RoundPlan:
    """An arrival process's timeline for one round.

    ``dispatched`` lists the clients that will eventually complete, with
    their completion ticks; ``unavailable`` the selected clients that
    never start (offline at dispatch, failed mid-round) — the engine
    records them as dropped.  ``expected_fresh`` is set by the compat
    process to tell the default count cutoff how many arrivals the legacy
    semantics would have waited for (its stragglers are scheduled but not
    expected); trace-driven processes leave it ``None``.
    """

    dispatched: list[ScheduledCompletion] = field(default_factory=list)
    unavailable: list[int] = field(default_factory=list)
    expected_fresh: Optional[int] = None


@dataclass
class RoundLedger:
    """Everything the engine observed while running one round's events.

    ``fresh`` holds the on-time updates in arrival order — the order
    their rows were packed into ``buffer`` — and ``late`` the updates
    that completed after the cutoff (computed so they can fold into the
    next round as stale arrivals; empty under commitment protocols, whose
    late uploads are undecryptable and discarded uncomputed).  ``buffer``
    is ``None`` when nothing arrived on time.
    """

    opened_at: int
    closed_at: int
    fresh: list[GradientUpdate]
    late: list[GradientUpdate]
    dropped_ids: list[int]
    straggler_ids: list[int]
    buffer: Optional[RoundBuffer]
    arrival_ticks: list[tuple[int, int]]
    late_ticks: list[tuple[int, int]]
    timing: Optional[dict] = None


class RoundEngine:
    """Drives one round's virtual-time event loop for the server.

    The server hands over the selected client ids, a ``compute`` callable
    (materialize the client, deliver the broadcast, collect its update —
    all protocol semantics stay server-side), and the round's bookkeeping
    knobs; the engine owns *time*: it builds the arrival plan, pops
    events in deterministic virtual-time order, ingests on-time updates
    into the round buffer as they land, and classifies dropout and
    straggling from the timeline.
    """

    def __init__(self, clock: VirtualClock, arrivals, cutoff) -> None:
        self.clock = clock
        self.arrivals = arrivals
        self.cutoff = cutoff

    @property
    def records_timing(self) -> bool:
        """Whether round records should carry the timing annotation.

        The compat configuration (rank-synthesized arrival times closing
        on the legacy count) records ``None`` so its round records are
        byte-identical to the pre-engine synchronous loop; any real
        arrival process or non-default cutoff records the timeline.
        """
        synthetic = getattr(self.arrivals, "synthesizes_time", False)
        legacy_cutoff = (
            isinstance(self.cutoff, CountCutoff) and self.cutoff.target is None
        )
        return not (synthetic and legacy_cutoff)

    def run_round(
        self,
        selected_ids: Sequence[int],
        round_index: int,
        server_rng,
        compute: Callable[[int], GradientUpdate],
        compute_late: bool = True,
        extra_capacity: int = 0,
        release_gradients: bool = False,
    ) -> RoundLedger:
        """Run one round's events and return the observed ledger.

        ``compute(client_id)`` is invoked exactly when the client's
        completion event pops — on-time arrivals before the cutoff, late
        ones after (skipped entirely when ``compute_late`` is false, the
        commitment-protocol case).  ``extra_capacity`` reserves buffer
        rows for updates the server will append after the event loop
        (stale arrivals from a previous round).

        ``release_gradients=True`` drops each on-time update's gradient
        dict right after its row is packed into the buffer — the server
        sets it when nothing downstream reads per-update gradients (no
        ``inspect_updates`` override), so a 10k-arrival round holds one
        contiguous matrix instead of 10k per-client dicts.  Late updates
        always keep their gradients: they fold into the next round's
        buffer as stale arrivals.
        """
        opened_at = self.clock.now
        plan = self.arrivals.plan_round(
            list(selected_ids), round_index, opened_at, server_rng
        )
        queue = EventQueue()
        for completion in plan.dispatched:
            queue.push(
                Event(completion.time, "completion", completion.client_id)
            )
        target = self.cutoff.arrival_target(plan)
        deadline = self.cutoff.deadline(opened_at, plan)
        min_arrivals = getattr(self.cutoff, "min_arrivals", 0)
        if deadline is not None:
            queue.push(Event(deadline, "close"))

        fresh: list[GradientUpdate] = []
        late: list[GradientUpdate] = []
        arrival_ticks: list[tuple[int, int]] = []
        late_ticks: list[tuple[int, int]] = []
        straggler_ids: list[int] = []
        buffer: Optional[RoundBuffer] = None
        closed = False
        closed_at: Optional[int] = None
        deadline_passed = False
        last_on_time = opened_at

        # A zero-target count cutoff (every expected arrival straggled)
        # closes the round immediately: whatever the queue still holds is
        # late by definition.
        if target == 0:
            closed = True
            closed_at = opened_at

        while queue:
            event = queue.pop()
            if event.kind == "close":
                # The grace floor can hold the round open past its
                # deadline; otherwise the close event seals it.
                deadline_passed = True
                if len(fresh) >= min_arrivals or not queue:
                    closed = True
                    closed_at = event.time
                continue
            if not closed:
                update = compute(event.client_id)
                if buffer is None:
                    capacity = len(plan.dispatched) + extra_capacity
                    buffer = RoundBuffer(capacity, flat_spec(update.gradients))
                buffer.add(update.gradients)
                if release_gradients:
                    update.gradients = {}
                fresh.append(update)
                arrival_ticks.append((event.client_id, event.time))
                last_on_time = event.time
                if (target is not None and len(fresh) >= target) or (
                    deadline_passed and len(fresh) >= min_arrivals
                ):
                    closed = True
                    closed_at = event.time
            else:
                straggler_ids.append(event.client_id)
                late_ticks.append((event.client_id, event.time))
                if compute_late:
                    late.append(compute(event.client_id))

        if closed_at is None:
            # Count-cutoff round that ran out of events before reaching
            # its target (mass dropout): it closes when the last on-time
            # arrival landed.
            closed_at = last_on_time
        closed_at = max(closed_at, opened_at)
        self.clock.advance_to(closed_at)

        timing = None
        if self.records_timing:
            timing = {
                "opened_at": opened_at,
                "closed_at": closed_at,
                "cutoff": (
                    "time" if isinstance(self.cutoff, TimeCutoff) else "count"
                ),
                "arrival_ticks": [list(pair) for pair in arrival_ticks],
                "late_ticks": [list(pair) for pair in late_ticks],
                "unavailable": list(plan.unavailable),
            }
        return RoundLedger(
            opened_at=opened_at,
            closed_at=closed_at,
            fresh=fresh,
            late=late,
            dropped_ids=list(plan.unavailable),
            straggler_ids=straggler_ids,
            buffer=buffer,
            arrival_ticks=arrival_ticks,
            late_ticks=late_ticks,
            timing=timing,
        )
