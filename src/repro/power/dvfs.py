"""Utilization-driven DVFS governor (P-state control).

Table I lists per-core DVFS among HolDCSim's power knobs, and the related
work it targets (SleepScale, NCAP) trades frequency against sleep states.
This module provides an ondemand-style governor: it periodically measures
each server's core occupancy and steps the processor frequency up when the
server runs hot and down when it runs cold, within the configured P-state
ladder.

The governor composes with any sleep-state controller (it only touches
frequency), so SleepScale-style joint speed-scaling + sleep studies are a
matter of attaching both.

The facility layer's thermal throttle (:mod:`repro.facility.throttle`)
interacts through **frequency caps**: :meth:`DvfsGovernor.set_frequency_cap`
clamps a server's usable ladder from above, and the next tick steps any
processor running over the cap straight down to it.  Caps compose with the
ondemand policy — the governor still scales within the clamped ladder — so
thermal limits and utilisation control coexist without fighting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.engine import Engine

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server


class DvfsGovernor:
    """Ondemand-style frequency scaling for a set of servers.

    Args:
        engine: simulation engine.
        servers: servers to govern (each socket is stepped independently
            through its own ``available_frequencies_ghz`` ladder).
        up_threshold: busy-core fraction above which frequency steps up.
        down_threshold: busy-core fraction below which frequency steps down.
        interval_s: sampling period.
    """

    def __init__(
        self,
        engine: Engine,
        servers: Sequence["Server"],
        up_threshold: float = 0.8,
        down_threshold: float = 0.3,
        interval_s: float = 0.05,
    ):
        if not 0.0 <= down_threshold < up_threshold <= 1.0:
            raise ValueError(
                f"need 0 <= down ({down_threshold}) < up ({up_threshold}) <= 1"
            )
        if interval_s <= 0:
            raise ValueError(f"interval must be positive, got {interval_s}")
        self.engine = engine
        self.servers = list(servers)
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.interval_s = interval_s
        self.steps_up = 0
        self.steps_down = 0
        #: Per-server frequency ceiling (GHz), set by thermal throttling.
        self.frequency_caps: Dict[int, float] = {}
        self._started = False

    def start(self) -> None:
        """Begin periodic frequency adjustment."""
        if self._started:
            return
        self._started = True
        self.engine.post(self.interval_s, self._tick)

    # -- frequency caps (thermal throttle interface) --------------------
    def set_frequency_cap(self, server: "Server", max_frequency_ghz: float) -> None:
        """Clamp ``server``'s usable ladder to rungs <= ``max_frequency_ghz``.

        Takes effect at the next tick: processors over the cap step straight
        down to the highest allowed rung (or the lowest rung when the cap
        sits below the whole ladder).
        """
        if max_frequency_ghz <= 0:
            raise ValueError(
                f"frequency cap must be positive, got {max_frequency_ghz}"
            )
        self.frequency_caps[server.server_id] = max_frequency_ghz

    def clear_frequency_cap(self, server: "Server") -> None:
        """Remove ``server``'s cap; the ondemand policy ramps back on demand."""
        self.frequency_caps.pop(server.server_id, None)

    def _allowed_ladder(self, server: "Server", processor) -> List[float]:
        ladder = sorted(processor.config.available_frequencies_ghz)
        cap = self.frequency_caps.get(server.server_id)
        if cap is None:
            return ladder
        allowed = [f for f in ladder if f <= cap]
        return allowed if allowed else ladder[:1]

    def _tick(self) -> None:
        for server in self.servers:
            if not server.can_execute:
                continue
            for processor in server.processors:
                ladder = self._allowed_ladder(server, processor)
                if processor.frequency_ghz not in ladder:
                    # Over a freshly applied cap: step straight down to it.
                    processor.set_frequency(ladder[-1])
                    self.steps_down += 1
                    continue
                if len(ladder) < 2:
                    continue
                busy_fraction = processor.busy_core_count / len(processor.cores)
                index = ladder.index(processor.frequency_ghz)
                if busy_fraction > self.up_threshold and index + 1 < len(ladder):
                    processor.set_frequency(ladder[index + 1])
                    self.steps_up += 1
                elif busy_fraction < self.down_threshold and index > 0:
                    processor.set_frequency(ladder[index - 1])
                    self.steps_down += 1
        self.engine.post(self.interval_s, self._tick)

    def frequency_snapshot(self) -> Dict[int, List[float]]:
        """Current frequency per server id (one entry per socket)."""
        return {
            server.server_id: [p.frequency_ghz for p in server.processors]
            for server in self.servers
        }
