"""Scenario configuration, run orchestration and persistence.

Scenarios are single YAML files with explicit units in the key names (see
README for the full schema). A run writes a self-contained directory
``<out>/<timestamp>-<scenario hash>/`` holding a metadata echo, one CSV per
trajectory and, for sweep/compare/berry modes, a summary CSV. CSV payloads
are byte-identical for identical scenarios; timestamps live only in the
metadata.
"""

from __future__ import annotations

import argparse
import cmath
import concurrent.futures
import dataclasses
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import yaml

from . import __version__
from .bath import (
    SpectralDensity,
    flat,
    ohmic_thermal,
    rates,
    spectrum_from_csv,
    zero_temperature_ohmic,
)
from .control import ControlPath, frame_at, linear_sweep, path_from_csv, rotating_cone, sample_history
from .dynamics import (
    DensityState,
    SolverConfig,
    Trajectory,
    integrate,
    rhs_full,
    rhs_nonsteered,
    rhs_secular,
)
from .errors import ParseError, QSteerError, ValidationError
from .gauge import berry_phase

# Not called here; perfbench's tracer and its self-tests patch this name.
from .gauge import phase_shifted_frame  # noqa: F401


@dataclass(frozen=True)
class PathConfig:
    kind: str
    field_energy: Optional[float] = None
    theta_rad: Optional[float] = None
    drive_omega_rad_per_time: Optional[float] = None
    duration_time: Optional[float] = None
    slope_energy_per_time: Optional[float] = None
    gap_energy: Optional[float] = None
    csv_file: Optional[str] = None

    @property
    def duration(self) -> Optional[float]:
        """Explicit duration, else one drive period; None for a sampled path without one."""
        if self.duration_time is not None:
            return self.duration_time
        if self.drive_omega_rad_per_time is not None:
            return 2 * math.pi / abs(self.drive_omega_rad_per_time)
        return None


@dataclass(frozen=True)
class BathConfig:
    """Bath model parameters; ``cutoff_energy`` None means no cutoff."""

    model: str
    s0_rate: Optional[float] = None
    eta_coupling: Optional[float] = None
    temperature_energy: Optional[float] = None
    cutoff_energy: Optional[float] = None
    csv_file: Optional[str] = None


@dataclass(frozen=True)
class Scenario:
    """Fully validated, picklable description of one run."""

    path: PathConfig
    coupling: tuple
    bath: BathConfig
    initial_rho_gg: float
    initial_rho_ge: complex
    solver: SolverConfig
    mode: str
    optimal_phase: bool
    spectral_shift: bool
    sweep_periods: tuple = ()
    berry_thetas: tuple = ()
    history_samples: int = 4097

    def canonical_dict(self) -> dict:
        def c2l(z):
            z = complex(z)
            return [z.real, z.imag]

        return {
            "path": {k: v for k, v in dataclasses.asdict(self.path).items() if v is not None},
            "coupling": {"matrix": [[c2l(self.coupling[0][0]), c2l(self.coupling[0][1])],
                                    [c2l(self.coupling[1][0]), c2l(self.coupling[1][1])]]},
            "bath": {k: v for k, v in dataclasses.asdict(self.bath).items() if v is not None},
            "initial": {"rho_gg": self.initial_rho_gg, "rho_ge": c2l(self.initial_rho_ge)},
            "solver": {k: v for k, v in dataclasses.asdict(self.solver).items() if v is not None},
            "run": {
                "mode": self.mode,
                "optimal_phase": self.optimal_phase,
                "spectral_shift": self.spectral_shift,
                "sweep_periods_time": list(self.sweep_periods),
                "berry_theta_grid_rad": list(self.berry_thetas),
                "history_samples": self.history_samples,
            },
        }

    def scenario_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def sub_scenarios(self) -> list:
        """Derived single-run scenarios for sweep mode, one per period.

        Each keeps the cone geometry but sets the drive period, integrates
        exactly one period, and scales the fixed step / step cap with the
        period so the per-period resolution is constant.
        """
        if self.mode != "sweep":
            return [self]
        subs = []
        base_t = self.solver.t1 - self.solver.t0
        for p in self.sweep_periods:
            scale = p / base_t
            solver = dataclasses.replace(
                self.solver,
                t0=0.0,
                t1=p,
                dt=None if self.solver.dt is None else self.solver.dt * scale,
                dt_max=None if self.solver.dt_max is None else self.solver.dt_max * scale,
            )
            path = dataclasses.replace(
                self.path, drive_omega_rad_per_time=2 * math.pi / p, duration_time=p
            )
            subs.append(
                dataclasses.replace(self, path=path, solver=solver, mode="simulate", sweep_periods=())
            )
        return subs


def _complex_entry(value, where, problems):
    z = None
    if isinstance(value, (int, float)):
        z = complex(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            z = complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    if z is None or not cmath.isfinite(z):
        problems.append(f"{where}: expected a finite number or [re, im] pair")
        return 0j
    return z


def _number(value, where, problems):
    try:
        v = float(value)
    except (TypeError, ValueError):
        problems.append(f"{where}: expected a number")
        return None
    if not math.isfinite(v):
        problems.append(f"{where}: must be finite")
        return None
    return v


def _positive(value, where, problems, allow_zero=False):
    v = _number(value, where, problems)
    if v is None:
        return None
    if v < 0 or (v == 0 and not allow_zero):
        problems.append(f"{where}: must be positive")
        return None
    return v


def _build_path(data, problems) -> Optional[PathConfig]:
    if not isinstance(data, dict):
        problems.append("path: expected a mapping")
        return None
    kind = data.get("kind")
    if kind == "rotating_cone":
        Omega = _positive(data.get("field_energy"), "path.field_energy", problems)
        theta = data.get("theta_rad")
        if not isinstance(theta, (int, float)) or not 0 <= theta <= math.pi:
            problems.append("path.theta_rad: must be a number in [0, pi]")
            theta = None
        omega = data.get("drive_omega_rad_per_time")
        if not isinstance(omega, (int, float)) or not math.isfinite(omega) or omega == 0:
            problems.append("path.drive_omega_rad_per_time: must be a finite nonzero number")
            omega = None
        duration = data.get("duration_time")
        if duration is not None:
            duration = _positive(duration, "path.duration_time", problems)
        if None in (Omega, theta, omega):
            return None
        return PathConfig(
            kind=kind,
            field_energy=Omega,
            theta_rad=float(theta),
            drive_omega_rad_per_time=float(omega),
            duration_time=duration,
        )
    if kind == "linear_sweep":
        slope = data.get("slope_energy_per_time")
        if not isinstance(slope, (int, float)) or not math.isfinite(slope):
            problems.append("path.slope_energy_per_time: must be a finite number")
            slope = None
        gap = _positive(data.get("gap_energy"), "path.gap_energy", problems)
        duration = _positive(data.get("duration_time"), "path.duration_time", problems)
        if None in (slope, gap, duration):
            return None
        return PathConfig(
            kind=kind,
            slope_energy_per_time=float(slope),
            gap_energy=gap,
            duration_time=duration,
        )
    if kind == "sampled":
        csv_file = data.get("csv_file")
        if not isinstance(csv_file, str):
            problems.append("path.csv_file: required for sampled paths")
            return None
        duration = data.get("duration_time")
        if duration is not None:
            duration = _positive(duration, "path.duration_time", problems)
            if duration is None:
                return None
        return PathConfig(kind=kind, csv_file=csv_file, duration_time=duration)
    problems.append("path.kind: must be rotating_cone, linear_sweep or sampled")
    return None


def _build_coupling(data, problems):
    matrix = None if not isinstance(data, dict) else data.get("matrix")
    if not (isinstance(matrix, list) and len(matrix) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in matrix)):
        problems.append("coupling.matrix: expected a 2x2 matrix")
        return None
    rows = []
    for i, row in enumerate(matrix):
        rows.append(tuple(
            _complex_entry(v, f"coupling.matrix[{i}][{j}]", problems) for j, v in enumerate(row)
        ))
    m = tuple(rows)
    herm = max(
        abs(m[0][0].imag), abs(m[1][1].imag), abs(m[0][1] - m[1][0].conjugate())
    )
    if herm > 1e-14:
        problems.append(f"coupling.matrix: not Hermitian (residual {herm:.3e})")
        return None
    return m


def _build_bath(data, problems) -> Optional[BathConfig]:
    if not isinstance(data, dict):
        problems.append("bath: expected a mapping")
        return None
    model = data.get("model")
    if model == "flat":
        s0 = _positive(data.get("s0_rate"), "bath.s0_rate", problems, allow_zero=True)
        return None if s0 is None else BathConfig(model=model, s0_rate=s0)
    if model == "ohmic_thermal":
        eta = _positive(data.get("eta_coupling"), "bath.eta_coupling", problems, allow_zero=True)
        T = _positive(data.get("temperature_energy"), "bath.temperature_energy", problems)
        cut = data.get("cutoff_energy")
        if cut is not None:
            cut = _positive(cut, "bath.cutoff_energy", problems)
            if cut is None:
                return None
        if None in (eta, T):
            return None
        return BathConfig(model=model, eta_coupling=eta, temperature_energy=T, cutoff_energy=cut)
    if model == "zero_temperature_ohmic":
        eta = _positive(data.get("eta_coupling"), "bath.eta_coupling", problems, allow_zero=True)
        cut = data.get("cutoff_energy")
        if cut is not None:
            cut = _positive(cut, "bath.cutoff_energy", problems)
            if cut is None:
                return None
        if eta is None:
            return None
        return BathConfig(model=model, eta_coupling=eta, cutoff_energy=cut)
    if model == "tabulated":
        csv_file = data.get("csv_file")
        if not isinstance(csv_file, str):
            problems.append("bath.csv_file: required for tabulated spectra")
            return None
        return BathConfig(model=model, csv_file=csv_file)
    problems.append(
        "bath.model: must be flat, ohmic_thermal, zero_temperature_ohmic or tabulated"
    )
    return None


def _build_solver(data, duration, problems) -> Optional[SolverConfig]:
    data = data if isinstance(data, dict) else {}
    method = data.get("method", "rk45_adaptive")
    t0 = _number(data.get("t0_time", 0.0), "solver.t0_time", problems)
    t1 = data.get("t1_time")
    if t1 is not None:
        t1 = _number(t1, "solver.t1_time", problems)
    elif duration is None:
        problems.append("solver.t1_time: required when the path has no path.duration_time")
    elif t0 is not None:
        t1 = t0 + duration
    ok = t0 is not None and t1 is not None
    if ok and not t1 > t0:
        problems.append("solver.t1_time: must exceed solver.t0_time")
        ok = False
    stride = data.get("record_stride", 1)
    if not isinstance(stride, int) or stride < 1:
        problems.append("solver.record_stride: must be an integer >= 1")
        ok = False
    dt = rtol = atol = dt_max = None
    if method == "rk4_fixed":
        dt = _positive(data.get("dt_time"), "solver.dt_time", problems)
        ok = ok and dt is not None
    elif method == "rk45_adaptive":
        rtol = _positive(data.get("rtol", 1e-9), "solver.rtol", problems)
        atol = _positive(data.get("atol", 1e-12), "solver.atol", problems)
        dt_max = data.get("dt_max_time")
        dt_max = None if dt_max is None else _positive(dt_max, "solver.dt_max_time", problems)
        ok = ok and rtol is not None and atol is not None
    else:
        problems.append("solver.method: must be rk4_fixed or rk45_adaptive")
        ok = False
    if not ok:
        return None
    try:
        if method == "rk4_fixed":
            return SolverConfig(method=method, t0=t0, t1=t1, dt=dt, record_stride=stride)
        return SolverConfig(
            method=method, t0=t0, t1=t1, rtol=rtol, atol=atol, dt_max=dt_max,
            record_stride=stride,
        )
    except ValueError as exc:
        problems.append(f"solver: {exc}")
        return None


def load_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario, reporting every problem at once."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("scenario must be a mapping at top level")

    problems: list[str] = []
    path = _build_path(data.get("path"), problems)
    coupling = _build_coupling(data.get("coupling"), problems)
    bath_cfg = _build_bath(data.get("bath"), problems)

    initial = data.get("initial", {})
    initial = initial if isinstance(initial, dict) else {}
    rho_gg = initial.get("rho_gg", 1.0)
    if not isinstance(rho_gg, (int, float)) or not 0.0 <= rho_gg <= 1.0:
        problems.append("initial.rho_gg: must be in [0, 1]")
        rho_gg = 1.0
    rho_ge = _complex_entry(initial.get("rho_ge", 0.0), "initial.rho_ge", problems)
    if rho_gg * (1.0 - rho_gg) - abs(rho_ge) ** 2 < -1e-12:
        problems.append("initial: state not positive (|rho_ge|^2 > rho_gg rho_ee)")

    run = data.get("run", {})
    run = run if isinstance(run, dict) else {}
    mode = run.get("mode", "simulate")
    if mode not in ("simulate", "sweep", "compare", "berry"):
        problems.append("run.mode: must be simulate, sweep, compare or berry")
    optimal_phase = bool(run.get("optimal_phase", False))
    spectral_shift = bool(run.get("spectral_shift", False))
    history_samples = run.get("history_samples", 4097)
    if not isinstance(history_samples, int) or history_samples < 3:
        problems.append("run.history_samples: must be an integer >= 3")
        history_samples = 4097

    # grids are parsed whenever present so a CLI subcommand can switch modes;
    # they are only required when the scenario's own mode needs them
    sweep_periods = ()
    raw = run.get("sweep_periods_time")
    if raw is not None:
        if not isinstance(raw, list):
            problems.append("run.sweep_periods_time: expected a list of positive numbers")
        else:
            ok = [p for p in raw if isinstance(p, (int, float)) and 0 < p < math.inf]
            if len(ok) != len(raw):
                problems.append("run.sweep_periods_time: entries must be finite positive numbers")
            sweep_periods = tuple(float(p) for p in ok)
    if mode == "sweep":
        if not sweep_periods:
            problems.append("run.sweep_periods_time: required non-empty list for sweep mode")
        if path is not None and path.kind != "rotating_cone":
            problems.append("run.mode: sweep requires a rotating_cone path")

    berry_thetas = ()
    raw = run.get("berry_theta_grid_rad")
    if raw is not None:
        if not isinstance(raw, list):
            problems.append("run.berry_theta_grid_rad: expected a list of angles in [0, pi]")
        else:
            ok = [v for v in raw if isinstance(v, (int, float)) and 0 <= v <= math.pi]
            if len(ok) != len(raw):
                problems.append("run.berry_theta_grid_rad: entries must lie in [0, pi]")
            berry_thetas = tuple(float(v) for v in ok)
    if mode == "berry":
        if not berry_thetas:
            problems.append("run.berry_theta_grid_rad: required non-empty list for berry mode")
        if path is not None and path.kind != "rotating_cone":
            problems.append("run.mode: berry requires a rotating_cone path")

    solver = _build_solver(data.get("solver"), path.duration if path else None, problems)

    if problems:
        raise ValidationError(problems)
    return Scenario(
        path=path,
        coupling=coupling,
        bath=bath_cfg,
        initial_rho_gg=float(rho_gg),
        initial_rho_ge=rho_ge,
        solver=solver,
        mode=mode,
        optimal_phase=optimal_phase,
        spectral_shift=spectral_shift,
        sweep_periods=sweep_periods,
        berry_thetas=berry_thetas,
        history_samples=history_samples,
    )


def scenario_from_file(path) -> Scenario:
    return load_scenario(Path(path).read_text())


# ----------------------------------------------------------------------
# materialization and execution
# ----------------------------------------------------------------------

def build_path(cfg: PathConfig, coupling) -> ControlPath:
    A = [[coupling[0][0], coupling[0][1]], [coupling[1][0], coupling[1][1]]]
    if cfg.kind == "rotating_cone":
        return rotating_cone(
            cfg.field_energy, cfg.theta_rad, cfg.drive_omega_rad_per_time, A,
            duration=cfg.duration_time,
        )
    if cfg.kind == "linear_sweep":
        return linear_sweep(cfg.slope_energy_per_time, cfg.gap_energy, cfg.duration_time, A)
    return path_from_csv(cfg.csv_file, A)


def _cutoff(cfg: BathConfig) -> float:
    return math.inf if cfg.cutoff_energy is None else cfg.cutoff_energy


def build_bath(cfg: BathConfig) -> SpectralDensity:
    if cfg.model == "flat":
        return flat(cfg.s0_rate)
    if cfg.model == "ohmic_thermal":
        return ohmic_thermal(cfg.eta_coupling, cfg.temperature_energy, _cutoff(cfg))
    if cfg.model == "zero_temperature_ohmic":
        return zero_temperature_ohmic(cfg.eta_coupling, _cutoff(cfg))
    return spectrum_from_csv(cfg.csv_file)


def _integrate_variant(scenario: Scenario, variant: str) -> Trajectory:
    path = build_path(scenario.path, scenario.coupling)
    sd = build_bath(scenario.bath)
    initial = DensityState(scenario.initial_rho_gg, scenario.initial_rho_ge)
    if variant == "nonsteered":
        frame0 = frame_at(path, scenario.solver.t0)
        r0 = rates(frame0.m1, frame0.m2, frame0.omega01, sd)
        return integrate(
            lambda t, s, f: rhs_nonsteered(s, r0, frame0.omega01),
            initial, scenario.solver, frame_provider=lambda t: frame0,
        )
    provider = lambda t: frame_at(path, t)
    if variant == "secular":
        return integrate(
            lambda t, s, f: rhs_secular(s, rates(f.m1, f.m2, f.omega01, sd), f.omega01),
            initial, scenario.solver, frame_provider=provider,
        )
    # The optimal-phase run is the plain run seen in the rotated basis; the
    # spectral shift vanishes there, and rhs_full is covariant without it.
    shift = scenario.spectral_shift and not scenario.optimal_phase
    return integrate(
        lambda t, s, f: rhs_full(s, f, sd, spectral_shift=shift),
        initial, scenario.solver, frame_provider=provider, track_phases=scenario.optimal_phase,
    )


def _summary_row(traj: Trajectory) -> dict:
    return {
        "final_rho_gg": traj.final.state.rho_gg,
        "max_excited_population": max(1.0 - s.state.rho_gg for s in traj.samples),
        "max_positivity_violation": traj.max_positivity_violation,
        "max_alpha": traj.max_alpha,
    }


def _sweep_worker(args):
    sub, run_dir, index = args
    traj = _integrate_variant(sub, "full")
    name = f"period_{index:03d}.csv"
    with open(Path(run_dir) / name, "w") as fh:
        traj.write_csv(fh)
    row = _summary_row(traj)
    row["period_time"] = sub.solver.t1 - sub.solver.t0
    row["file"] = name
    return index, row


@dataclass
class RunArtifacts:
    run_dir: Path
    metadata: dict
    files: list


def run(scenario: Scenario, out_dir="runs", jobs: int = 1, seed: Optional[int] = None) -> RunArtifacts:
    """Execute a scenario and persist its artifacts under a fresh run directory."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    run_dir = Path(out_dir) / f"{stamp}-{scenario.scenario_hash()}"
    run_dir.mkdir(parents=True, exist_ok=False)
    started = time.monotonic()
    metadata = {
        "tool": "qsteer",
        "version": __version__,
        "scenario": scenario.canonical_dict(),
        "scenario_hash": scenario.scenario_hash(),
        "seed": seed,
        "status": "running",
    }
    files: list = []
    invariants = {"trace_residual": 0.0, "max_positivity_violation": 0.0, "max_alpha": 0.0}

    def note(traj: Trajectory):
        invariants["max_positivity_violation"] = max(
            invariants["max_positivity_violation"], traj.max_positivity_violation
        )
        invariants["max_alpha"] = max(invariants["max_alpha"], traj.max_alpha)

    try:
        if scenario.mode == "simulate":
            traj = _integrate_variant(scenario, "full")
            note(traj)
            with open(run_dir / "trajectory.csv", "w") as fh:
                traj.write_csv(fh)
            files.append("trajectory.csv")
        elif scenario.mode == "compare":
            rows = []
            for variant in ("full", "secular", "nonsteered"):
                traj = _integrate_variant(scenario, variant)
                note(traj)
                name = f"{variant}.csv"
                with open(run_dir / name, "w") as fh:
                    traj.write_csv(fh)
                files.append(name)
                row = _summary_row(traj)
                row["variant"] = variant
                rows.append(row)
            with open(run_dir / "summary.csv", "w") as fh:
                fh.write(
                    "variant,final_rho_gg,max_excited_population,max_positivity_violation\n"
                )
                for row in rows:
                    fh.write(
                        f"{row['variant']},{row['final_rho_gg']:.17g},"
                        f"{row['max_excited_population']:.17g},"
                        f"{row['max_positivity_violation']:.17g}\n"
                    )
            files.append("summary.csv")
        elif scenario.mode == "sweep":
            subs = scenario.sub_scenarios()
            tasks = [(sub, str(run_dir), i) for i, sub in enumerate(subs)]
            if jobs > 1:
                with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                    results = dict(pool.map(_sweep_worker, tasks))
            else:
                results = dict(map(_sweep_worker, tasks))
            with open(run_dir / "summary.csv", "w") as fh:
                fh.write(
                    "period_time,final_rho_gg,max_excited_population,"
                    "max_positivity_violation,file\n"
                )
                for i in sorted(results):
                    row = results[i]
                    files.append(row["file"])
                    fh.write(
                        f"{row['period_time']:.17g},{row['final_rho_gg']:.17g},"
                        f"{row['max_excited_population']:.17g},"
                        f"{row['max_positivity_violation']:.17g},{row['file']}\n"
                    )
                    invariants["max_positivity_violation"] = max(
                        invariants["max_positivity_violation"], row["max_positivity_violation"]
                    )
                    invariants["max_alpha"] = max(invariants["max_alpha"], row["max_alpha"])
            files.append("summary.csv")
        elif scenario.mode == "berry":
            with open(run_dir / "berry.csv", "w") as fh:
                fh.write(
                    "theta_rad,delta_lambda_g,delta_lambda_e,"
                    "delta_lambda_g_mod_2pi,delta_lambda_e_mod_2pi\n"
                )
                for theta in scenario.berry_thetas:
                    cfg = dataclasses.replace(scenario.path, theta_rad=theta, duration_time=None)
                    path = build_path(cfg, scenario.coupling)
                    history = sample_history(path, 0.0, path.duration, scenario.history_samples)
                    phases = berry_phase(history)
                    fh.write(
                        f"{theta:.17g},{phases.delta_lambda_g:.17g},"
                        f"{phases.delta_lambda_e:.17g},{phases.delta_lambda_g_mod:.17g},"
                        f"{phases.delta_lambda_e_mod:.17g}\n"
                    )
            files.append("berry.csv")
        metadata["status"] = "ok"
    except Exception as exc:
        metadata["status"] = f"failed: {exc}"
        raise
    finally:
        metadata["wall_time_s"] = time.monotonic() - started
        metadata["invariants"] = invariants
        metadata["files"] = files
        with open(run_dir / "metadata.json", "w") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return RunArtifacts(run_dir=run_dir, metadata=metadata, files=[run_dir / f for f in files])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qsteer",
        description="Master-equation runs for adiabatically steered two-level systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep", "compare", "berry", "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
        p.add_argument("--jobs", type=int, default=1, help="concurrent sub-runs for sweeps")
        p.add_argument("--seed", type=int, default=None, help="recorded in metadata")
    args = parser.parse_args(argv)

    try:
        scenario = scenario_from_file(args.config)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print("scenario invalid:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print("scenario OK")
        return 0

    if args.command != scenario.mode:
        scenario = dataclasses.replace(scenario, mode=args.command)
        if args.command == "sweep" and not scenario.sweep_periods:
            print("scenario invalid:\n  - run.sweep_periods_time: required for sweep", file=sys.stderr)
            return 1
        if args.command == "berry" and not scenario.berry_thetas:
            print("scenario invalid:\n  - run.berry_theta_grid_rad: required for berry", file=sys.stderr)
            return 1
        if args.command in ("sweep", "berry") and scenario.path.kind != "rotating_cone":
            print(f"scenario invalid:\n  - run.mode: {args.command} requires a rotating_cone path", file=sys.stderr)
            return 1

    try:
        artifacts = run(scenario, out_dir=args.out, jobs=args.jobs, seed=args.seed)
    except (QSteerError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    print(artifacts.run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
