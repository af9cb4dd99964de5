"""Network links: capacity, propagation delay, adaptive link rate.

A link joins two topology nodes (server or switch).  Each direction has the
full configured capacity (full-duplex).  Links know about the switch ports
they terminate on so traffic can drive port/line-card power states, and they
implement dynamic link rate adaptation (ALR, Gunaratne et al.): when demand
is low the link steps down to the smallest configured rate that still covers
demand, which proportionally reduces active port power.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import LinkConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.switch import Port


class Link:
    """An undirected, full-duplex link between two topology nodes."""

    def __init__(self, u: str, v: str, config: LinkConfig):
        if u == v:
            raise ValueError(f"link endpoints must differ, got {u!r} twice")
        self.u = u
        self.v = v
        self.config = config
        self.current_rate_bps = config.rate_bps
        # Ports indexed by the node the port belongs to (switch endpoints only).
        self.ports: Dict[str, "Port"] = {}
        # Independent per-direction counters of active users (flows/packets).
        self._active: Dict[Tuple[str, str], int] = {
            (u, v): 0,
            (v, u): 0,
        }

    # ------------------------------------------------------------------
    @property
    def endpoints(self) -> Tuple[str, str]:
        return (self.u, self.v)

    @property
    def propagation_delay_s(self) -> float:
        return self.config.propagation_delay_s

    def direction(self, src: str, dst: str) -> Tuple[str, str]:
        """Validate and normalise a direction tuple for this link."""
        if (src, dst) not in self._active:
            raise ValueError(f"({src!r}, {dst!r}) is not a direction of {self}")
        return (src, dst)

    def attach_port(self, node: str, port: "Port") -> None:
        """Bind the switch-side port terminating this link at ``node``."""
        if node not in (self.u, self.v):
            raise ValueError(f"{node!r} is not an endpoint of {self}")
        if node in self.ports:
            raise ValueError(f"{self} already has a port at {node!r}")
        self.ports[node] = port
        port.link = self

    # ------------------------------------------------------------------
    # Activity tracking (drives port/line-card power states)
    # ------------------------------------------------------------------
    def begin_activity(self, src: str, dst: str) -> float:
        """Traffic begins traversing ``src -> dst``; returns wake latency."""
        key = self.direction(src, dst)
        self._active[key] += 1
        wake = 0.0
        for port in self.ports.values():
            wake = max(wake, port.begin_activity())
        return wake

    def end_activity(self, src: str, dst: str, quiet_since: Optional[float] = None) -> None:
        """Traffic stopped traversing ``src -> dst``.

        ``quiet_since`` settles a batched end that logically happened at an
        earlier instant (see :meth:`Port.end_activity`).
        """
        key = self.direction(src, dst)
        if self._active[key] <= 0:
            raise RuntimeError(f"no active traffic on {self} {key}")
        self._active[key] -= 1
        for port in self.ports.values():
            port.end_activity(quiet_since)

    def active_count(self, src: str, dst: str) -> int:
        return self._active[self.direction(src, dst)]

    @property
    def busy(self) -> bool:
        return any(count > 0 for count in self._active.values())

    # ------------------------------------------------------------------
    # Adaptive link rate (ALR)
    # ------------------------------------------------------------------
    def adapt_rate(self, demanded_bps: float) -> float:
        """Step to the smallest configured rate covering ``demanded_bps``.

        Returns the selected rate.  Links without ``adaptive_rates_bps`` stay
        at full rate.  Active port power is scaled by ``rate / full_rate``.
        """
        rates = self.config.adaptive_rates_bps
        if not rates:
            return self.current_rate_bps
        candidates = [r for r in sorted(rates) if r >= demanded_bps]
        selected = candidates[0] if candidates else max(rates)
        selected = min(selected, self.config.rate_bps)
        if selected != self.current_rate_bps:
            self.current_rate_bps = selected
            factor = selected / self.config.rate_bps
            for port in self.ports.values():
                port.set_rate_factor(factor)
        return self.current_rate_bps

    def __repr__(self) -> str:
        return f"<Link {self.u}<->{self.v} {self.current_rate_bps/1e9:g}Gbps>"
