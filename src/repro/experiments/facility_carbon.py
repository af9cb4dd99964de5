"""Facility co-simulation study: CRAC setpoint × carbon profile sweep.

HolDCSim's holistic scope stops at the server wall; this extension closes
the facility loop.  Each sweep point runs the same seeded workload while the
:class:`~repro.facility.plant.Facility` co-simulates zone thermals, cooling
power, and carbon/price signals on the same event engine:

* **raising the CRAC setpoint** improves the chiller COP (less cooling
  power, lower PUE) but raises the zones' thermal steady state — past the
  throttle limit the zone's servers are DVFS-capped, lengthening
  compute-bound tasks.  The sweep exposes this cooling-energy ↔ latency
  trade directly;
* **the carbon profile** converts the same facility energy into different
  gCO2 totals, showing when (not just how much) a run draws power matters.

A full diurnal signal cycle is compressed into the run window by default
(``signal_period_s = duration_s``), so short runs still see the profile's
shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.config import ServerConfig, small_cloud_server
from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.experiments.common import audit_farm, build_farm, drive
from repro.facility import (
    Facility,
    FacilityConfig,
    ThrottleConfig,
    carbon_profile,
    outside_temperature_profile,
    price_profile,
)
from repro.power.dvfs import DvfsGovernor
from repro.runner import SweepOptions, SweepSpec, run_sweep
from repro.server.server import Server
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.profiles import WorkloadProfile, web_search_profile

DEFAULT_SETPOINTS_C = (22.0, 26.0, 30.0)
DEFAULT_CARBON_PROFILES = ("solar", "evening-peak")


@dataclass
class FacilityCarbonPoint:
    """One sweep point: outcomes at a single (setpoint, carbon profile)."""

    setpoint_c: float
    carbon: str
    jobs_completed: int
    mean_latency_s: float
    p99_latency_s: float
    it_energy_j: float
    cooling_energy_j: float
    overhead_energy_j: float
    facility_energy_j: float
    mean_pue: float
    peak_zone_temp_c: float
    gco2_g: float
    cost_usd: float
    throttle_engagements: int
    throttled_s: float


def build_facility(
    engine: Engine,
    servers: Sequence[Server],
    setpoint_c: float,
    carbon: str = "solar",
    price: str = "time-of-use",
    n_zones: int = 2,
    thermal_limit_c: float = 45.0,
    period_s: float = 40.0,
    facility_config: Optional[FacilityConfig] = None,
) -> Facility:
    """Wire a DVFS governor and a facility loop over ``servers``.

    Nothing is started: callers start ``facility.governor``, then the
    facility.  ``period_s`` is the length of one carbon/price/outside
    temperature cycle.
    """
    base = facility_config or FacilityConfig(
        tick_s=0.5,
        n_zones=n_zones,
        throttle=ThrottleConfig(limit_c=thermal_limit_c),
    )
    return Facility(
        engine,
        servers,
        replace(base, setpoint_c=setpoint_c),
        carbon=carbon_profile(carbon, period_s=period_s),
        price=price_profile(price, period_s=period_s),
        outside=outside_temperature_profile(period_s=period_s),
        governor=DvfsGovernor(engine, servers),
    )


def run_facility_carbon_point(
    setpoint_c: float,
    carbon: str = "solar",
    price: str = "time-of-use",
    n_servers: int = 8,
    n_cores: int = 2,
    n_zones: int = 2,
    utilization: float = 0.6,
    duration_s: float = 40.0,
    thermal_limit_c: float = 45.0,
    signal_period_s: Optional[float] = None,
    seed: int = 1,
    profile: Optional[WorkloadProfile] = None,
    server_config: Optional[ServerConfig] = None,
    facility_config: Optional[FacilityConfig] = None,
    audit: str = "warn",
) -> FacilityCarbonPoint:
    """Run one seeded workload with the facility loop closed."""
    profile = profile or web_search_profile()
    config = server_config or small_cloud_server(n_cores=n_cores)
    period_s = duration_s if signal_period_s is None else signal_period_s
    farm = build_farm(n_servers, config, seed=seed)
    facility = build_facility(
        farm.engine,
        farm.servers,
        setpoint_c,
        carbon=carbon,
        price=price,
        n_zones=n_zones,
        thermal_limit_c=thermal_limit_c,
        period_s=period_s,
        facility_config=facility_config,
    )
    facility.governor.start()
    facility.start(until=duration_s)

    rng = RandomSource(seed)
    rate = arrival_rate_for_utilization(
        utilization, profile.mean_service_s, n_servers, n_cores
    )
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    factory = profile.job_factory(rng.stream("service"))
    # Audit after facility.stop() so its accounts are closed and included.
    driver = drive(farm, arrivals, factory, duration_s=duration_s, drain=True,
                   audit="off")
    facility.stop()
    audit_farm(farm, driver=driver, audit=audit, facility=facility)

    scheduler = farm.scheduler
    now = farm.engine.now
    summary = facility.summary(now)
    has_jobs = len(scheduler.job_latency) > 0
    return FacilityCarbonPoint(
        setpoint_c=setpoint_c,
        carbon=carbon,
        jobs_completed=scheduler.jobs_completed,
        mean_latency_s=scheduler.job_latency.mean() if has_jobs else float("nan"),
        p99_latency_s=(
            scheduler.job_latency.percentile(99) if has_jobs else float("nan")
        ),
        it_energy_j=summary["it_energy_j"],
        cooling_energy_j=summary["cooling_energy_j"],
        overhead_energy_j=summary["overhead_energy_j"],
        facility_energy_j=summary["facility_energy_j"],
        mean_pue=summary["mean_pue"],
        peak_zone_temp_c=summary["peak_zone_temp_c"],
        gco2_g=summary["gco2_g"],
        cost_usd=summary["cost_usd"],
        throttle_engagements=summary["throttle_engagements"],
        throttled_s=summary["throttled_s"],
    )


@dataclass
class FacilityCarbonSweep:
    """Facility outcomes across the setpoint × carbon-profile grid."""

    setpoints_c: List[float]
    carbon_profiles: List[str]
    points: List[FacilityCarbonPoint]

    def render(self) -> str:
        lines = [
            "Facility carbon — CRAC setpoint × carbon profile sweep "
            "(energy, PUE, throttling, gCO2, cost)",
            f"{'set(C)':>7} {'carbon':>13} {'done':>6} {'mean(s)':>9} "
            f"{'p99(s)':>9} {'IT(kJ)':>8} {'cool(kJ)':>9} {'PUE':>6} "
            f"{'peak(C)':>8} {'thrtl':>6} {'thr(s)':>7} {'gCO2':>8} {'$':>8}",
        ]
        for p in self.points:
            lines.append(
                f"{p.setpoint_c:>7.1f} {p.carbon:>13} {p.jobs_completed:>6d} "
                f"{p.mean_latency_s:>9.4f} {p.p99_latency_s:>9.4f} "
                f"{p.it_energy_j / 1e3:>8.2f} {p.cooling_energy_j / 1e3:>9.2f} "
                f"{p.mean_pue:>6.3f} {p.peak_zone_temp_c:>8.2f} "
                f"{p.throttle_engagements:>6d} {p.throttled_s:>7.1f} "
                f"{p.gco2_g:>8.2f} {p.cost_usd:>8.4f}"
            )
        return "\n".join(lines)


def run_facility_carbon_sweep(
    setpoints_c: Sequence[float] = DEFAULT_SETPOINTS_C,
    carbon_profiles: Sequence[str] = DEFAULT_CARBON_PROFILES,
    n_servers: int = 8,
    n_cores: int = 2,
    n_zones: int = 2,
    utilization: float = 0.6,
    duration_s: float = 40.0,
    thermal_limit_c: float = 45.0,
    seed: int = 1,
    jobs: int = 1,
    sweep_options: Optional[SweepOptions] = None,
    audit: str = "warn",
) -> FacilityCarbonSweep:
    """Sweep CRAC setpoint × carbon profile over the same seeded workload.

    Each grid point is an independent seeded run, so ``jobs > 1`` evaluates
    them on a process pool with bit-identical results.
    """
    spec = SweepSpec("facility-carbon")
    for setpoint in setpoints_c:
        for carbon in carbon_profiles:
            spec.add(
                run_facility_carbon_point,
                setpoint_c=setpoint,
                carbon=carbon,
                n_servers=n_servers,
                n_cores=n_cores,
                n_zones=n_zones,
                utilization=utilization,
                duration_s=duration_s,
                thermal_limit_c=thermal_limit_c,
                seed=seed,
                audit=audit,
            )
    points = run_sweep(spec, jobs=jobs, options=sweep_options)
    return FacilityCarbonSweep(
        setpoints_c=list(setpoints_c),
        carbon_profiles=list(carbon_profiles),
        points=[p for p in points if p is not None],
    )
