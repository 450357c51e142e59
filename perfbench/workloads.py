"""Seeded workload generator: plain scenario texts plus the parameters behind them.

Each member is one ``cli.load_scenario`` -> ``cli.run`` call. The generator
emits YAML text only (the program sees nothing but its documented scenario
schema) and keeps the physical parameters it drew so the reference solver can
rebuild the same problem from library constructors, independent of the CLI.

Work per pass must not depend on the seed, or the wall-time spread across
seeds would swamp the run-to-run noise. Drawn quantities that set the amount
of integration (durations, sweep slopes) therefore come in antithetic pairs
``c + h v`` and ``c - h v`` with ``v`` stratified over the pairs: every seed
integrates the same total simulated time, while the individual inputs differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import yaml

WORKLOADS = ("cone_steer", "optimal_phase", "param_grid", "compare_thermal")

SIGMA_X = [[0.0, 1.0], [1.0, 0.0]]
# m1 != 0: the only coupling that exercises the population/coherence cross rates
TILTED = [[0.3, 1.0], [1.0, -0.3]]
ZERO_T_BATH = {"model": "zero_temperature_ohmic", "eta_coupling": 0.1, "cutoff_energy": 20.0}
THERMAL_BATH = {
    "model": "ohmic_thermal", "eta_coupling": 0.1, "temperature_energy": 0.5,
    "cutoff_energy": 20.0,
}
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Member:
    """One scenario of a workload: its YAML text and the parameters it encodes."""

    name: str
    params: dict
    text: str


def _pairs(rng: random.Random, n_pairs: int, center: float, half_width: float) -> list:
    """2 * n_pairs values whose sum is exactly 2 * n_pairs * center."""
    out = []
    for k in range(n_pairs):
        v = (k + rng.random()) / n_pairs
        out += [center + half_width * v, center - half_width * v]
    return out


def _scenario(path, coupling, bath, run, solver=None, initial=None) -> str:
    doc = {"path": path, "coupling": {"matrix": coupling}, "bath": bath}
    if initial is not None:
        doc["initial"] = initial
    doc["solver"] = solver or {
        "method": "rk45_adaptive", "rtol": RTOL, "atol": ATOL, "record_stride": 10,
    }
    doc["run"] = run
    return yaml.safe_dump(doc, sort_keys=False)


def _cone(theta, period):
    return {
        "kind": "rotating_cone", "field_energy": 1.0, "theta_rad": theta,
        "drive_omega_rad_per_time": 2 * math.pi / period,
    }


def _cone_family(rng, n_cone_pairs, optimal_phase):
    """Zero-temperature cones plus one pair of gentle Landau-Zener sweeps."""
    run = {"mode": "simulate", "optimal_phase": optimal_phase, "spectral_shift": False}
    members = []
    thetas = _pairs(rng, n_cone_pairs, 0.9, 0.35)
    periods = _pairs(rng, n_cone_pairs, 75.0, 25.0)
    rng.shuffle(thetas)
    for i, (theta, period) in enumerate(zip(thetas, periods)):
        params = {"kind": "rotating_cone", "theta": theta, "period": period,
                  "coupling": SIGMA_X, "bath": ZERO_T_BATH, "rho_gg": 1.0, "rho_ge": 0j,
                  "mode": "simulate", "optimal_phase": optimal_phase}
        text = _scenario(_cone(theta, period), SIGMA_X, ZERO_T_BATH, run)
        members.append(Member(f"cone{i}", params, text))
    # max alpha ~ slope / (sqrt(2) gap^2) <= 0.06 at the crossing
    for i, slope in enumerate(_pairs(rng, 1, 0.06, 0.025)):
        duration = 80.0
        path = {"kind": "linear_sweep", "slope_energy_per_time": slope, "gap_energy": 1.0,
                "duration_time": duration}
        params = {"kind": "linear_sweep", "slope": slope, "gap": 1.0, "duration": duration,
                  "coupling": SIGMA_X, "bath": ZERO_T_BATH, "rho_gg": 1.0, "rho_ge": 0j,
                  "mode": "simulate", "optimal_phase": optimal_phase}
        members.append(Member(f"sweep{i}", params, _scenario(path, SIGMA_X, ZERO_T_BATH, run)))
    return members


def _param_grid(rng):
    theta = math.pi / 3
    periods = _pairs(rng, 8, 30.0, 10.0)
    sweep_run = {"mode": "sweep", "sweep_periods_time": periods}
    solver = {"method": "rk45_adaptive", "rtol": RTOL, "atol": ATOL, "record_stride": 5}
    sweep = Member(
        "sweep",
        {"kind": "rotating_cone", "theta": theta, "periods": periods, "coupling": SIGMA_X,
         "bath": ZERO_T_BATH, "rho_gg": 1.0, "rho_ge": 0j, "mode": "sweep"},
        _scenario(_cone(theta, periods[0]), SIGMA_X, ZERO_T_BATH, sweep_run, solver),
    )
    # theta <= pi/2 keeps the ground-branch phase at +pi (1 - cos theta) (README)
    lo, hi, n = 0.1, math.pi / 2, 64
    thetas = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    flat = {"model": "flat", "s0_rate": 0.0}
    berry_run = {"mode": "berry", "berry_theta_grid_rad": thetas, "history_samples": 513}
    berry = Member(
        "berry",
        {"kind": "rotating_cone", "thetas": thetas, "mode": "berry"},
        _scenario(_cone(thetas[0], 2 * math.pi / 0.1), SIGMA_X, flat, berry_run),
    )
    return [sweep, berry]


def _compare_thermal(rng, n_pairs=2):
    members = []
    thetas = _pairs(rng, n_pairs, 1.0, 0.25)
    periods = _pairs(rng, n_pairs, 100.0, 30.0)
    for i, (theta, period) in enumerate(zip(thetas, periods)):
        rho_gg = rng.uniform(0.6, 0.9)
        mag = rng.uniform(0.4, 0.8) * math.sqrt(rho_gg * (1.0 - rho_gg))
        phase = rng.uniform(0.0, 2 * math.pi)
        rho_ge = mag * complex(math.cos(phase), math.sin(phase))
        params = {"kind": "rotating_cone", "theta": theta, "period": period,
                  "coupling": TILTED, "bath": THERMAL_BATH, "rho_gg": rho_gg,
                  "rho_ge": rho_ge, "mode": "compare"}
        text = _scenario(
            _cone(theta, period), TILTED, THERMAL_BATH, {"mode": "compare"},
            solver={"method": "rk45_adaptive", "rtol": RTOL, "atol": ATOL, "record_stride": 20},
            initial={"rho_gg": rho_gg, "rho_ge": [rho_ge.real, rho_ge.imag]},
        )
        members.append(Member(f"compare{i}", params, text))
    return members


def generate(workload: str, seed: int) -> list:
    """The members of ``workload`` for ``seed``; equal seeds give equal members."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cone_steer":
        return _cone_family(rng, 3, optimal_phase=False)
    if workload == "optimal_phase":
        return _cone_family(rng, 1, optimal_phase=True)
    if workload == "param_grid":
        return _param_grid(rng)
    if workload == "compare_thermal":
        return _compare_thermal(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
