"""Pluggable client arrival processes: who completes a round, and when.

An :class:`ArrivalProcess` turns the server's selected client set into a
:class:`~repro.fl.engine.RoundPlan` — per-client completion ticks on the
virtual clock, plus the clients that never start at all.  The engine pops
those completions in time order; the round cutoff then *derives* dropout
and straggling from the timeline instead of drawing them from rates.

Three processes ship with the engine:

- :class:`InstantArrivals` — the compatibility layer.  Reproduces the
  legacy rate-based scenario semantics exactly: it consumes the server's
  RNG with the same dropout/straggler coin flips the synchronous loop
  drew, then synthesizes one-tick-apart completion times that replay the
  legacy arrival order (survivors in selection order, then stragglers).
  Under the default count cutoff this makes the event engine
  byte-identical to the pre-engine loop.
- :class:`UniformArrivals` — every client's round latency is uniform on
  ``[low_s, high_s]`` simulated seconds, keyed by ``(seed, client_id,
  round)``.  The minimal genuinely-timed process; with a time cutoff,
  stragglers emerge wherever the draw lands past the deadline.
- :class:`TieredArrivals` — per-client latency/compute traces.  Each
  client is pinned to a :class:`HardwareTier` (flagship/mid/budget/IoT by
  fleet share), draws per-round compute time around the tier's mean with
  lognormal jitter plus network latency, can fail mid-round with the
  tier's failure rate, and — when a :class:`DiurnalCycle` is attached —
  is simply offline for part of every simulated day.

Every trace draw is keyed by ``seed_sequence_for(seed, label, client,
round)``: completion times are pure functions of configuration, invariant
to registration order, worker count, and which other clients exist — the
same discipline the sweep engine's byte-identity rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.fl.engine import RoundPlan, ScheduledCompletion, ticks
from repro.utils.registry import Registry
from repro.utils.rng import seed_sequence_for


class ArrivalProcess:
    """Base class: schedules the completion timeline of one round.

    ``synthesizes_time`` marks processes whose ticks are bookkeeping
    artifacts (the compat layer) rather than modeled durations; the
    engine omits the timing annotation from round records for those so
    legacy records stay byte-identical.
    """

    name = "base"
    synthesizes_time = False

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InstantArrivals(ArrivalProcess):
    """Legacy rate-based participation as a degenerate arrival process.

    Consumes ``server_rng`` exactly as the synchronous loop's
    ``simulate_participation`` did — one dropout draw per selected
    client, one straggler draw per survivor, zero draws when both rates
    are zero — so federations configured through the rate knobs reproduce
    the seed's RNG stream bit-for-bit.  Completion ticks are synthesized
    one tick apart in the legacy computation order: survivors first (in
    selection order), stragglers after every survivor.
    """

    name = "instant"
    synthesizes_time = True

    def __init__(
        self, dropout_rate: float = 0.0, straggler_rate: float = 0.0
    ) -> None:
        for rate, label in (
            (dropout_rate, "dropout_rate"),
            (straggler_rate, "straggler_rate"),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")
        self.dropout_rate = dropout_rate
        self.straggler_rate = straggler_rate

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        if self.dropout_rate == 0.0 and self.straggler_rate == 0.0:
            active = list(selected_ids)
            dropped: list[int] = []
            stragglers: list[int] = []
        else:
            active, dropped, stragglers = [], [], []
            for client_id in selected_ids:
                if server_rng.random() < self.dropout_rate:
                    dropped.append(client_id)
                elif server_rng.random() < self.straggler_rate:
                    stragglers.append(client_id)
                else:
                    active.append(client_id)
        dispatched = [
            ScheduledCompletion(client_id, opened_at + rank + 1)
            for rank, client_id in enumerate(active)
        ]
        base = opened_at + len(active) + 1
        dispatched.extend(
            ScheduledCompletion(client_id, base + rank)
            for rank, client_id in enumerate(stragglers)
        )
        return RoundPlan(
            dispatched=dispatched,
            unavailable=dropped,
            expected_fresh=len(active),
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dropout_rate={self.dropout_rate}, "
            f"straggler_rate={self.straggler_rate})"
        )


def _trace_rng(
    seed: int, label: str, client_id: int, round_index: int
) -> np.random.Generator:
    """A generator keyed by (seed, label, client, round) — order-invariant."""
    return np.random.default_rng(
        seed_sequence_for(seed, label, str(int(client_id)), str(int(round_index)))
    )


class UniformArrivals(ArrivalProcess):
    """Round latency uniform on ``[low_s, high_s]`` simulated seconds."""

    name = "uniform"

    def __init__(
        self, low_s: float = 0.1, high_s: float = 1.0, seed: int = 0
    ) -> None:
        if not 0 < low_s <= high_s:
            raise ValueError("need 0 < low_s <= high_s")
        self.low_s = low_s
        self.high_s = high_s
        self.seed = seed

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        dispatched = []
        for client_id in selected_ids:
            rng = _trace_rng(self.seed, "uniform-latency", client_id, round_index)
            delay = ticks(float(rng.uniform(self.low_s, self.high_s)))
            dispatched.append(
                ScheduledCompletion(client_id, opened_at + max(delay, 1))
            )
        return RoundPlan(dispatched=dispatched)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(low_s={self.low_s}, high_s={self.high_s})"
        )


@dataclass(frozen=True)
class HardwareTier:
    """One device class of a heterogeneous fleet.

    ``compute_s`` is the mean local-training duration in simulated
    seconds, ``jitter`` the sigma of the lognormal factor applied per
    round, ``network_s`` the mean one-way upload latency, and
    ``failure_rate`` the per-round probability the device starts but
    never reports (battery died, app evicted).  ``weight`` is the tier's
    share of the fleet.
    """

    name: str
    compute_s: float
    network_s: float = 0.05
    jitter: float = 0.35
    failure_rate: float = 0.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_s <= 0 or self.network_s < 0:
            raise ValueError("tier durations must be positive")
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError("failure_rate must be in [0, 1]")
        if self.weight <= 0:
            raise ValueError("tier weight must be positive")


#: A cross-device census loosely following published FL system papers:
#: a fast minority, a broad middle, a long budget tail, and a sliver of
#: embedded devices an order of magnitude slower.
DEFAULT_TIERS: tuple[HardwareTier, ...] = (
    HardwareTier("flagship", compute_s=0.12, network_s=0.03, weight=0.15),
    HardwareTier("mid", compute_s=0.30, network_s=0.05, weight=0.55),
    HardwareTier(
        "budget", compute_s=0.90, network_s=0.10, failure_rate=0.02, weight=0.25
    ),
    HardwareTier(
        "iot", compute_s=2.50, network_s=0.20, failure_rate=0.05, weight=0.05
    ),
)


@dataclass(frozen=True)
class DiurnalCycle:
    """Availability window repeating every ``period_s`` simulated seconds.

    Each client's phase offset within the cycle is keyed by its id, so at
    any instant roughly ``duty_cycle`` of the fleet is reachable and the
    reachable set rotates as virtual time advances — the compressed-day
    model of devices that are only eligible while idle and charging.
    """

    period_s: float = 60.0
    duty_cycle: float = 0.5

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 < self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be in (0, 1]")

    def available(self, client_id: int, tick: int, seed: int) -> bool:
        period = ticks(self.period_s)
        window = int(round(period * self.duty_cycle))
        phase_rng = np.random.default_rng(
            seed_sequence_for(seed, "diurnal-phase", str(int(client_id)))
        )
        phase = int(phase_rng.integers(period))
        return (tick + phase) % period < window


class TieredArrivals(ArrivalProcess):
    """Per-client latency/compute traces over heterogeneous hardware tiers.

    A client's tier assignment is permanent (keyed by id alone); its
    per-round duration is ``(compute_s * lognormal(jitter) + network_s *
    Exp(1))`` seconds, keyed by ``(client, round)``.  Tier failure draws
    and the optional :class:`DiurnalCycle` availability check decide who
    never completes.  All of it is deterministic per configuration —
    nothing depends on the order clients were registered or scheduled.
    """

    name = "tiered"

    def __init__(
        self,
        tiers: Sequence[HardwareTier] = DEFAULT_TIERS,
        seed: int = 0,
        diurnal: Optional[DiurnalCycle] = None,
    ) -> None:
        if not tiers:
            raise ValueError("need at least one hardware tier")
        self.tiers = tuple(tiers)
        self.seed = seed
        self.diurnal = diurnal
        total = sum(tier.weight for tier in self.tiers)
        self._shares = np.asarray(
            [tier.weight / total for tier in self.tiers], dtype=np.float64
        )

    def tier_of(self, client_id: int) -> HardwareTier:
        """The client's permanent hardware tier (keyed by id alone)."""
        rng = np.random.default_rng(
            seed_sequence_for(self.seed, "hardware-tier", str(int(client_id)))
        )
        return self.tiers[int(rng.choice(len(self.tiers), p=self._shares))]

    def completion_delay(
        self, client_id: int, round_index: int
    ) -> Optional[int]:
        """Ticks from dispatch to completion; ``None`` when the device fails."""
        tier = self.tier_of(client_id)
        rng = _trace_rng(self.seed, "tier-trace", client_id, round_index)
        if tier.failure_rate and rng.random() < tier.failure_rate:
            return None
        compute = tier.compute_s * float(rng.lognormal(0.0, tier.jitter))
        network = tier.network_s * float(rng.exponential(1.0))
        return max(ticks(compute + network), 1)

    def plan_round(
        self,
        selected_ids: list[int],
        round_index: int,
        opened_at: int,
        server_rng: np.random.Generator,
    ) -> RoundPlan:
        dispatched = []
        unavailable = []
        for client_id in selected_ids:
            if self.diurnal is not None and not self.diurnal.available(
                client_id, opened_at, self.seed
            ):
                unavailable.append(client_id)
                continue
            delay = self.completion_delay(client_id, round_index)
            if delay is None:
                unavailable.append(client_id)
                continue
            dispatched.append(
                ScheduledCompletion(client_id, opened_at + delay)
            )
        return RoundPlan(dispatched=dispatched, unavailable=unavailable)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tiers={[t.name for t in self.tiers]}, "
            f"diurnal={self.diurnal})"
        )


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------


def _tiered_diurnal(seed: int = 0, **options) -> TieredArrivals:
    """``tiered`` with a default :class:`DiurnalCycle` attached."""
    options.setdefault("diurnal", DiurnalCycle())
    return TieredArrivals(seed=seed, **options)


# Lookups lower-case the requested name, so registered names must be
# lower-case too.
ARRIVALS: Registry[Callable[..., ArrivalProcess]] = Registry(
    "arrival process", r"[a-z][a-z0-9-]*", "lower-case words joined by '-'"
)
for _process in (InstantArrivals, UniformArrivals, TieredArrivals):
    ARRIVALS.register(_process)
ARRIVALS.register(_tiered_diurnal, name="tiered-diurnal")


def make_arrivals(
    spec: "str | ArrivalProcess | None",
    dropout_rate: float = 0.0,
    straggler_rate: float = 0.0,
    seed: int = 0,
    **options,
) -> ArrivalProcess:
    """Resolve an arrival process from a name, instance, or ``None``.

    ``None`` (and ``"instant"``) selects the legacy-compatible process
    driven by the rate knobs.  The trace-driven processes refuse nonzero
    dropout/straggler rates: under them those phenomena are emergent
    timing outcomes, and silently layering coin flips on top would make
    the scenario lie about its own semantics.
    """
    if isinstance(spec, ArrivalProcess):
        if options:
            raise ValueError("cannot pass options with a process instance")
        return spec
    name = "instant" if spec is None else str(spec).lower()
    process = ARRIVALS[name]
    if process is InstantArrivals:
        return InstantArrivals(
            dropout_rate=dropout_rate, straggler_rate=straggler_rate, **options
        )
    if dropout_rate or straggler_rate:
        raise ValueError(
            f"arrival process {name!r} derives dropout and straggling from "
            "timing traces; rate knobs must stay zero under it"
        )
    return process(seed=seed, **options)
