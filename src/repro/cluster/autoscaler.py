"""Queue-pressure / p99-burn autoscaling with explicit hysteresis.

The autoscaler is a control loop, and control loops on noisy signals
oscillate unless damped. Three dampers, all deterministic and all unit
tested against adversarial traces:

- **consecutive-breach counts** — a scale decision needs the signal to
  breach for ``up_after`` (or ``down_after``) *consecutive* observation
  ticks; an alternating high/low trace therefore never moves the node
  count (the flapping test).
- **asymmetric thresholds** — scale-up triggers at high pressure or a
  latency burn above 1, scale-down only well below both, so the
  thresholds themselves form a dead band.
- **cooldown** — after any action the loop ignores further signals for
  ``cooldown_seconds``, giving the fleet time to absorb the change
  (new nodes start cold; drains take time to empty).

Signals come from the cluster simulator each control tick: mean queue
pressure over active nodes (the same reading that drives the
degradation ladder, one level up) and the fleet latency-p99 **burn**
(windowed p99 / SLO bound, from the same rolling windows the alert
plane evaluates — "scale before you page" made literal).

The autoscaler only *decides*; the simulator owns executing the
decision (creating the node, draining the victim) and reports it back
as a :class:`ScaleEvent` so scorecards can show cause alongside effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

#: fleet p99 burn at/above which a tick votes scale-up
_UP_BURN = 1.2
#: burn at/below which (or unknown) a low-pressure tick votes scale-down
_DOWN_BURN = 0.6


@dataclass(frozen=True)
class AutoscalerConfig:
    """The control-loop surface; defaults tuned for the built-in
    scenarios (pressure in [0, 1], burn normalized to 1.0 = at bound)."""

    min_nodes: int = 1
    max_nodes: int = 64
    #: mean active-node pressure at/above which a tick votes scale-up
    up_pressure: float = 0.55
    #: mean pressure at/below which a tick votes scale-down, provided
    #: the burn is also low
    down_pressure: float = 0.15
    #: consecutive breaching ticks required to act
    up_after: int = 2
    down_after: int = 6
    #: quiet period after any action, seconds of simulated time
    cooldown_seconds: float = 0.5
    #: nodes added per scale-up step
    step_up: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if self.up_after < 1 or self.down_after < 1:
            raise ValueError("breach counts must be at least 1")
        if self.step_up < 1:
            raise ValueError("step_up must be at least 1")
        if self.down_pressure >= self.up_pressure:
            raise ValueError("down_pressure must sit below up_pressure")


@dataclass(frozen=True)
class ScaleEvent:
    """One executed scaling action, for the scorecard."""

    at: float
    action: str  # "up" | "down" | "loss"
    node: str
    #: active node count after the action
    nodes_after: int
    reason: str
    #: tenants whose primary shard changed because of this action
    moved_tenants: int = 0


class Autoscaler:
    """Decides scale-up/scale-down from (pressure, burn) observations."""

    UP = "up"
    DOWN = "down"

    def __init__(self, config: Optional[AutoscalerConfig] = None) -> None:
        self.config = config if config is not None else AutoscalerConfig()
        self._up_streak = 0
        self._down_streak = 0
        self._last_action_at: Optional[float] = None

    def _in_cooldown(self, now: float) -> bool:
        return (
            self._last_action_at is not None
            and now - self._last_action_at < self.config.cooldown_seconds
        )

    def observe(
        self,
        now: float,
        active_nodes: int,
        pressures: Sequence[float],
        p99_burn: Optional[float],
    ) -> Optional[str]:
        """Feed one control tick; returns ``"up"``, ``"down"``, or None.

        ``pressures`` are the active nodes' queue pressures this tick;
        ``p99_burn`` is the fleet windowed p99 over its SLO bound (None
        before any completion lands). Streaks update even inside the
        cooldown window so a persistent condition acts the moment the
        cooldown lifts, but opposing signals always reset each other.
        """
        cfg = self.config
        mean_pressure = (
            sum(pressures) / len(pressures) if pressures else 0.0
        )
        up_vote = mean_pressure >= cfg.up_pressure or (
            p99_burn is not None and p99_burn >= _UP_BURN
        )
        down_vote = (
            not up_vote
            and mean_pressure <= cfg.down_pressure
            and (p99_burn is None or p99_burn <= _DOWN_BURN)
        )
        self._up_streak = self._up_streak + 1 if up_vote else 0
        self._down_streak = self._down_streak + 1 if down_vote else 0
        if self._in_cooldown(now):
            return None
        if (
            self._up_streak >= cfg.up_after
            and active_nodes < cfg.max_nodes
        ):
            self._note_action(now)
            return self.UP
        if (
            self._down_streak >= cfg.down_after
            and active_nodes > cfg.min_nodes
        ):
            self._note_action(now)
            return self.DOWN
        return None

    def _note_action(self, now: float) -> None:
        self._last_action_at = now
        self._up_streak = 0
        self._down_streak = 0
