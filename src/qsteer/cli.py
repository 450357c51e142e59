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
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import Optional

import yaml

# CPython's own SHA-256: hashlib would map OpenSSL (~3.5 MB resident) for one digest
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .bath import (
    SpectralDensity,
    _secular_rates,
    flat,
    ohmic_thermal,
    rates,
    tabulated,
    zero_temperature_ohmic,
)
from .control import (
    _HERMITIAN_TOL,
    ControlPath,
    _frame_provider,
    _hermitian_residual,
    frame_at,
    linear_sweep,
    rotating_cone,
    sampled_path,
)
from .dynamics import (
    _METHODS,
    DensityState,
    SolverConfig,
    _frozen_affine,
    _rhs_full,
    berry_phase,
    from_pair,
    integrate,
    rhs_nonsteered,
    rhs_secular,
)
from .errors import OutOfRange, ParseError, QSteerError, ValidationError

# Not called here; perfbench's tracer and its self-tests patch these names.
from .dynamics import phase_shifted_frame, rhs_full  # noqa: F401


@dataclass(frozen=True)
class Scenario:
    """Fully validated, picklable description of one run.

    ``path`` and ``bath`` hold the checked keys of their YAML sections.
    ``history_samples`` is read by nothing; it is kept, and hashed, so that
    the hashes of scenarios that set it do not move. ``window_end`` is the
    key that set ``solver.t1``, which messages name; it is not hashed.
    """

    path: dict
    coupling: tuple
    bath: dict
    initial_rho_gg: float
    initial_rho_ge: complex
    solver: SolverConfig
    mode: str
    optimal_phase: bool
    sweep_periods: tuple = ()
    berry_thetas: tuple = ()
    history_samples: int = 4097
    window_end: str = "solver.t1_time"

    def canonical_dict(self) -> dict:
        def c2l(z):
            z = complex(z)
            return [z.real, z.imag]

        return {
            "path": dict(self.path),
            "coupling": {"matrix": [[c2l(self.coupling[0][0]), c2l(self.coupling[0][1])],
                                    [c2l(self.coupling[1][0]), c2l(self.coupling[1][1])]]},
            "bath": dict(self.bath),
            "initial": {"rho_gg": self.initial_rho_gg, "rho_ge": c2l(self.initial_rho_ge)},
            "solver": {k: v for k, v in dataclasses.asdict(self.solver).items() if v is not None},
            "run": {
                "mode": self.mode,
                "optimal_phase": self.optimal_phase,
                "sweep_periods_time": list(self.sweep_periods),
                "berry_theta_grid_rad": list(self.berry_thetas),
                "history_samples": self.history_samples,
            },
        }

    def scenario_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode()).hexdigest()[:12]


def _is_real(value) -> bool:
    """An int or a float; YAML booleans load as Python ints but are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _complex_entry(value, where, problems):
    z = None
    try:
        if _is_real(value):
            z = complex(value)
        elif isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_real, value)):
            z = complex(float(value[0]), float(value[1]))
    except OverflowError:
        pass
    if z is None or not cmath.isfinite(z):
        problems.append(f"{where}: expected a finite number or [re, im] pair")
        return 0j
    return z


def _number(value, where, problems):
    if not _is_real(value):  # YAML text such as "1.0" or 1e-9 is a string, not a number
        problems.append(f"{where}: expected a number")
        return None
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        problems.append(f"{where}: must be finite")
        return None
    return v


def _flag(run, key, problems) -> bool:
    value = run.get(key, False)
    if not isinstance(value, bool):
        problems.append(f"run.{key}: expected true or false")
        return False
    return value


def _positive(value, where, problems, allow_zero=False):
    v = _number(value, where, problems)
    if v is None:
        return None
    if v < 0 or (v == 0 and not allow_zero):
        problems.append(f"{where}: must be positive")
        return None
    return v


def _nonnegative(value, where, problems):
    return _positive(value, where, problems, allow_zero=True)


def _nonzero(value, where, problems):
    v = _number(value, where, problems)
    if v == 0:
        problems.append(f"{where}: must be nonzero")
        return None
    return v


def _angle(value, where, problems):
    if not _is_real(value) or not 0 <= value <= math.pi:
        problems.append(f"{where}: must be a number in [0, pi]")
        return None
    return float(value)


def _file_name(value, where, problems):
    if not isinstance(value, str):
        problems.append(f"{where}: expected a file name")
        return None
    return value


def _stride(value, where, problems):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        problems.append(f"{where}: must be an integer >= 1")
        return None
    return value


def _parses(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _read_csv(csv_path, names) -> list:
    """The rows of a UTF-8 data file, each as the floats of its first len(names) fields.

    A leading byte-order mark is dropped, as a BOM-prefixed YAML config's is.
    The first non-empty row is skipped as a header if none of those fields
    parses as a number; any other row that does not parse, a first row with a
    typo among numbers included, and any row with fewer fields than names,
    raises ValueError naming its line.
    """
    need = f"{', '.join(names[:-1])} and {names[-1]}"
    rows = []
    with open(csv_path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(row for row in reader if row):
            if len(row) < len(names):
                raise ValueError(f"line {reader.line_num} needs {need}, got {','.join(row)!r}")
            try:
                rows.append([float(x) for x in row[:len(names)]])
            except ValueError:
                if i or any(_parses(x) for x in row[:len(names)]):  # only a first row of text is a header
                    raise ValueError(f"line {reader.line_num} does not parse: {','.join(row)!r}") from None
    return rows


def _sampled(rows, coupling_A) -> ControlPath:
    return sampled_path([row[0] for row in rows], [row[1:] for row in rows], coupling_A)


def _tabulated(rows) -> SpectralDensity:
    return tabulated([omega for omega, _ in rows], [s for _, s in rows])


# The path and bath sections, one entry per kind: the library constructor (for a
# data file, one that takes the rows _read_data_files reads) and {YAML key:
# (constructor argument, check, required)}. A key without an argument is
# validated and echoed but not passed on.
_PATHS = {
    "rotating_cone": (rotating_cone, {
        "field_energy": ("Omega", _positive, True),
        "theta_rad": ("theta", _angle, True),
        "drive_omega_rad_per_time": ("omega", _nonzero, True),
        "duration_time": ("duration", _positive, False),
    }),
    "linear_sweep": (linear_sweep, {
        "slope_energy_per_time": ("slope", _number, True),
        "gap_energy": ("gap", _positive, True),
        "duration_time": ("duration", _positive, True),
    }),
    # a sampled path's duration only sets the default solver window
    "sampled": (_sampled, {
        "csv_file": (None, _file_name, True),
        "duration_time": (None, _positive, False),
    }),
}
_BATHS = {
    "flat": (flat, {"s0_rate": ("s0", _nonnegative, True)}),
    "ohmic_thermal": (ohmic_thermal, {
        "eta_coupling": ("eta", _nonnegative, True),
        "temperature_energy": ("temperature", _positive, True),
        "cutoff_energy": ("cutoff", _positive, False),
    }),
    "zero_temperature_ohmic": (zero_temperature_ohmic, {
        "eta_coupling": ("eta", _nonnegative, True),
        "cutoff_energy": ("cutoff", _positive, False),
    }),
    "tabulated": (_tabulated, {"csv_file": (None, _file_name, True)}),
}
# The solver section, one kind per method: a fixed step (no error row) takes
# dt_time, an adaptive one its tolerances and step cap; every method a window.
_WINDOW = {"t0_time": ("t0", _number, False), "t1_time": ("t1", _number, False),
           "record_stride": ("record_stride", _stride, False)}
_STEP = {"dt_time": ("dt", _positive, True)}
_TOLERANCES = {"rtol": ("rtol", _positive, False), "atol": ("atol", _positive, False),
               "dt_max_time": ("dt_max", _positive, False)}
_SOLVERS = {method: (SolverConfig, {**_WINDOW, **(_STEP if m.err is None else _TOLERANCES)})
            for method, m in _METHODS.items()}


def _mapping(name, data, keys, problems) -> Optional[dict]:
    """One section's mapping ({} when absent or null), or None when it is not a mapping.

    A value that is not a mapping and each key outside ``keys`` are reported.
    """
    if data is None:
        return {}
    if not isinstance(data, dict):
        problems.append(f"{name}: expected a mapping")
        return None
    problems.extend(f"{name}.{key}: unknown key" for key in data if key not in keys)
    return data


def _section(name, data, tag, table, problems, default=None) -> Optional[dict]:
    """The checked keys of one section, or None if any of its keys is invalid.

    ``tag`` selects the kind, ``default`` when the tag is absent. A null
    optional key is absent; a key that only another kind lists is not read.
    """
    reported = len(problems)
    data = _mapping(name, data, {tag}.union(*(fields for _, fields in table.values())), problems)
    if data is None:
        return None
    kind = data.get(tag, default)
    if not isinstance(kind, str) or kind not in table:
        *kinds, last = table
        problems.append(f"{name}.{tag}: must be {', '.join(kinds)} or {last}")
        return None
    cfg = {tag: kind}
    for key, (_, check, required) in table[kind][1].items():
        if data.get(key) is None and not required:
            continue
        value = check(data.get(key), f"{name}.{key}", problems)
        if value is not None:
            cfg[key] = value
    return cfg if len(problems) == reported else None


def _construct(table, tag, cfg, rows=None, **extra):
    """The object ``cfg`` describes; a data file's kind is built from the file's ``rows``."""
    make, fields = table[cfg[tag]]
    args = {arg: cfg[key] for key, (arg, _, _) in fields.items() if arg and key in cfg}
    if rows is not None:
        args["rows"] = rows
    return make(**extra, **args)


def _path_duration(path: dict) -> Optional[float]:
    """Explicit duration, else one drive period; None for a sampled path without one."""
    if "duration_time" in path:
        return path["duration_time"]
    omega = path.get("drive_omega_rad_per_time")
    return None if omega is None else 2 * math.pi / abs(omega)


def _build_coupling(data, problems):
    data = _mapping("coupling", data, ("matrix",), problems)
    if data is None:
        return None
    matrix = data.get("matrix")
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
    herm = _hermitian_residual(m)
    if herm > _HERMITIAN_TOL:  # ControlPath's own bound
        problems.append(f"coupling.matrix: not Hermitian (residual {herm:.3e})")
        return None
    return m


_PERIOD_OVERFLOWS = "path.drive_omega_rad_per_time: one drive period overflows; set path.duration_time"


def _build_solver(data, path, problems) -> tuple:
    """The solver section and the key that ends its window, or None for the section.

    Without ``t1_time`` the window is the duration of ``path``, and the key
    is the path's. ``path`` is None when the path section is invalid, which
    is reported there.
    """
    end = "solver.t1_time"
    cfg = _section("solver", data, "method", _SOLVERS, problems, default="rk45_adaptive")
    if cfg is None or path is None and "t1_time" not in cfg:
        return None, end
    t0 = cfg.setdefault("t0_time", 0.0)
    if "t1_time" not in cfg:
        duration = _path_duration(path)
        if duration is None:
            problems.append("solver.t1_time: required when the path has no path.duration_time")
            return None, end
        if not math.isfinite(duration):
            problems.append(_PERIOD_OVERFLOWS)
            return None, end
        cfg["t1_time"] = t0 + duration
        end = "path.duration_time" if "duration_time" in path else "path.drive_omega_rad_per_time"
    if not cfg["t1_time"] > t0:
        problems.append("solver.t1_time: must exceed solver.t0_time" if end == "solver.t1_time" else
                        f"{end}: sets the window end t1 = {cfg['t1_time']:g}, which does not exceed "
                        f"solver.t0_time = {t0:g}, as solver.t1_time is not given")
        return None, end
    try:
        return _construct(_SOLVERS, "method", cfg, method=cfg["method"]), end
    except ValueError as exc:
        problems.append(f"solver: {exc}")
        if end != "solver.t1_time":
            problems.append(f"{end}: sets that solver window, as solver.t1_time is not given")
        return None, end


def _mode_problems(mode, path, solver, optimal_phase, sweep_periods, berry_thetas) -> list:
    """The sweep and berry modes need their grid, a rotating_cone path and t0 = 0.

    Both modes integrate each loop or period from t = 0. Compare mode takes
    no optimal phase: its secular and non-steered variants carry no w, so
    they have none, and a summary over both bases would mix them.
    """
    problems = []
    if mode == "compare" and optimal_phase:
        problems.append("run.optimal_phase: not available in compare mode, whose secular and "
                        "nonsteered variants carry no steering generator")
    if mode == "sweep" and not sweep_periods:
        problems.append("run.sweep_periods_time: required non-empty list for sweep mode")
    if mode == "berry" and not berry_thetas:
        problems.append("run.berry_theta_grid_rad: required non-empty list for berry mode")
    if mode in ("sweep", "berry") and path is not None and path["kind"] != "rotating_cone":
        problems.append(f"run.mode: {mode} requires a rotating_cone path")
    if mode in ("sweep", "berry") and solver is not None and solver.t0 != 0.0:
        problems.append(f"solver.t0_time: must be 0 in {mode} mode")
    return problems


def _grid(run, key, entry_ok, expected, entries, problems) -> tuple:
    """A run grid as floats: () when absent, the entries that pass ``entry_ok`` otherwise."""
    raw = run.get(key)
    if raw is None:
        return ()
    if not isinstance(raw, list):
        problems.append(f"run.{key}: expected a list of {expected}")
        return ()
    ok = [v for v in raw if _is_real(v) and entry_ok(v)]
    if len(ok) != len(raw):
        problems.append(f"run.{key}: entries must {entries}")
    return tuple(float(v) for v in ok)


class _Loader(yaml.SafeLoader):
    """PyYAML's pure-Python safe loader, rejecting a key repeated in one mapping.

    A merge key (``<<``) is not checked: a key it merges and the mapping's
    own key of the same name are not a repetition.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)  # kept, not built twice
            try:
                repeated = key in seen
            except TypeError:  # an unhashable key, which the base class reports
                continue
            if repeated:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


_SECTIONS = ("path", "coupling", "bath", "initial", "solver", "run")
_RUN_KEYS = ("mode", "optimal_phase", "spectral_shift", "history_samples",
             "sweep_periods_time", "berry_theta_grid_rad")


def load_scenario(text, mode: Optional[str] = None) -> Scenario:
    """Parse and validate a YAML scenario, reporting every problem at once.

    ``text`` is the YAML as a string, or a text stream whose ``name`` a YAML
    error reports (a string's is "<unicode string>").
    A key repeated in one mapping, and YAML nested too deeply for the parser,
    raise ParseError like any other invalid YAML. A given ``mode`` (a CLI
    subcommand) replaces ``run.mode`` before the mode's own rules are checked.
    """
    try:
        data = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid YAML: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid YAML: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("scenario must be a mapping at top level")

    problems = [f"{key}: unknown section" for key in data if key not in _SECTIONS]
    path = _section("path", data.get("path"), "kind", _PATHS, problems)
    coupling = _build_coupling(data.get("coupling"), problems)
    bath_cfg = _section("bath", data.get("bath"), "model", _BATHS, problems)

    initial = _mapping("initial", data.get("initial"), ("rho_gg", "rho_ge"), problems) or {}
    rho_gg = initial.get("rho_gg", 1.0)
    if not _is_real(rho_gg) or not 0.0 <= rho_gg <= 1.0:
        problems.append("initial.rho_gg: must be in [0, 1]")
        rho_gg = 1.0
    rho_ge = _complex_entry(initial.get("rho_ge", 0.0), "initial.rho_ge", problems)
    ge2 = rho_ge.real * rho_ge.real + rho_ge.imag * rho_ge.imag  # abs() ** 2 can overflow
    if rho_gg * (1.0 - rho_gg) - ge2 < -1e-12:
        problems.append("initial: state not positive (|rho_ge|^2 > rho_gg rho_ee)")

    run = _mapping("run", data.get("run"), _RUN_KEYS, problems) or {}
    mode = mode or run.get("mode", "simulate")
    if mode not in ("simulate", "sweep", "compare", "berry"):
        problems.append("run.mode: must be simulate, sweep, compare or berry")
    optimal_phase = _flag(run, "optimal_phase", problems)
    # a deleted option: scenarios that spell out false still load
    if _flag(run, "spectral_shift", problems):
        problems.append("run.spectral_shift: no longer supported; omit it or set it to false")
    # ignored, but still checked and hashed so that existing scenario hashes hold
    history_samples = run.get("history_samples", 4097)
    if (isinstance(history_samples, bool) or not isinstance(history_samples, int)
            or not 3 <= history_samples <= 65537):
        problems.append("run.history_samples: must be an integer in [3, 65537]")
        history_samples = 4097

    # grids are parsed whenever present; only their own mode requires them
    sweep_periods = _grid(run, "sweep_periods_time", lambda p: 0 < p <= sys.float_info.max,
                          "positive numbers", "be finite positive numbers", problems)
    berry_thetas = _grid(run, "berry_theta_grid_rad", lambda v: 0 <= v <= math.pi,
                         "angles in [0, pi]", "lie in [0, pi]", problems)
    solver, window_end = _build_solver(data.get("solver"), path, problems)
    problems.extend(_mode_problems(mode, path, solver, optimal_phase, sweep_periods, berry_thetas))

    if problems:
        raise ValidationError(problems)
    scenario = Scenario(
        path=path,
        coupling=coupling,
        bath=bath_cfg,
        initial_rho_gg=float(rho_gg),
        initial_rho_ge=rho_ge,
        solver=solver,
        mode=mode,
        optimal_phase=optimal_phase,
        sweep_periods=sweep_periods,
        berry_thetas=berry_thetas,
        history_samples=history_samples,
        window_end=window_end,
    )
    problems = _member_problems(scenario)
    if problems:
        raise ValidationError(problems)
    return scenario


def _member_problems(scenario: Scenario) -> list:
    """One problem for each member run that the library rejects.

    A simulate or compare run builds the scenario's own cone, so a default
    duration, one drive period, that overflows is reported even where
    ``solver.t1_time`` sets the window. Each sweep member's solver and path
    are built as a sweep run builds them, so a scaled ``dt`` that underflows
    to 0 or a drive rate 2 pi / period that overflows is reported. A Berry
    loop integrates one drive period with the scenario's solver, so a period
    that overflows or needs too many steps is reported. Only the run's own
    mode is checked.
    """
    problems = []
    if scenario.mode in ("simulate", "compare") and _path_duration(scenario.path) == math.inf:
        problems.append(_PERIOD_OVERFLOWS)
    if scenario.mode == "berry":
        period = 2 * math.pi / abs(scenario.path["drive_omega_rad_per_time"])
        try:
            dataclasses.replace(scenario.solver, t0=0.0, t1=period)
        except ValueError as exc:
            problems.append(f"solver: {exc} over one Berry loop, t1 = 2 pi / |omega| = {period:g}")
    if scenario.mode != "sweep":
        return problems
    for p in scenario.sweep_periods:
        try:
            ((sub, *_),) = _members(dataclasses.replace(scenario, sweep_periods=(p,)))
            build_path(sub.path, sub.coupling)
        except ValueError as exc:
            problems.append(f"run.sweep_periods_time: period {p!r}: {exc}")
    return problems


def scenario_from_file(path, mode: Optional[str] = None) -> Scenario:
    """The scenario in a UTF-8 YAML file; ParseError if the file is not UTF-8 text.

    A YAML error names the file where :func:`load_scenario` names "<unicode string>".
    """
    try:
        stream = io.StringIO(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    stream.name = str(path)  # the stream name that the YAML parser's marks report
    return load_scenario(stream, mode)


# ----------------------------------------------------------------------
# materialization and execution
# ----------------------------------------------------------------------

def build_path(cfg: dict, coupling, rows=None) -> ControlPath:
    return _construct(_PATHS, "kind", cfg, rows, coupling_A=coupling)


def _check_spectrum_range(solver: SolverConfig, sd: SpectralDensity, path: ControlPath) -> None:
    """Raise OutOfRange if the run's tabulated spectrum sd misses [-w, w].

    Rates sample S at +-omega01 and 0, and w is the built path's largest gap
    over the solver window, the bound its constructor gives.
    """
    w = path._gap_bound(solver.t0, solver.t1)
    # the frames' |b| can exceed the bound by an ulp (a cone's gap reads 1 + 2.2e-16 at
    # field_energy 1), so a grid that ends exactly at the bound is not enough
    w *= 1.0 + 4.0 * sys.float_info.epsilon
    omegas = sd.params["omegas"]
    lo, hi = omegas[0], omegas[-1]
    if lo > -w or hi < w:
        raise OutOfRange(f"tabulated range [{lo:g}, {hi:g}] does not cover [{-w:g}, {w:g}], "
                         "the path's gap range")


def _read_data_files(scenario: Scenario) -> tuple:
    """The run's spectrum and a sampled path's rows, reading each data file once.

    ``validate`` and every run call this before any run directory exists. The
    spectrum is range-checked on the run's first member, whose path is built
    for it unless sampled (a sweep member sets its own drive rate); a Berry
    run has none. A sampled path is built once to check its rows (plain
    floats, so they pickle), from which each member builds its own; its
    fields are read at both window ends, so a window that leaves its samples
    is reported, under the key that set that end. A data file that cannot be
    read or holds no valid path or spectrum raises ValidationError naming
    its key.
    """
    path, bath, solver = scenario.path, scenario.bath, scenario.solver
    problems, sd, rows, built = [], None, None, None
    if path["kind"] == "sampled":
        try:
            rows = _read_csv(path["csv_file"], ("t", "b_x", "b_y", "b_z"))
            built = build_path(path, scenario.coupling, rows)
        except (OSError, ValueError, csv.Error) as exc:
            problems.append(f"path.csv_file {path['csv_file']}: {exc}")
        else:
            for key, t in (("solver.t0_time", solver.t0), (scenario.window_end, solver.t1)):
                try:
                    built.fields(t)
                except OutOfRange as exc:
                    problems.append(f"{key}: {exc} in path.csv_file {path['csv_file']}")
    if scenario.mode != "berry" and bath["model"] != "tabulated":
        sd = _construct(_BATHS, "model", bath)
    elif scenario.mode != "berry":
        try:
            sd = _construct(_BATHS, "model", bath, _read_csv(bath["csv_file"], ("omega", "S")))
            if path["kind"] != "sampled":
                first = _members(scenario)[0][0]
                built, solver = build_path(first.path, first.coupling), first.solver
            if built is not None:  # a sampled path whose rows failed is reported above
                _check_spectrum_range(solver, sd, built)
        except (OSError, ValueError, csv.Error, OutOfRange) as exc:
            problems.append(f"bath.csv_file {bath['csv_file']}: {exc}")
    if problems:
        raise ValidationError(problems)
    return sd, rows


# Each mode's summary table: its file (None for none) and columns, one row per member
_SUMMARIES = {
    "simulate": (None, ""),
    "compare": ("summary.csv",
                "variant,final_rho_gg,max_excited_population,max_positivity_violation"),
    "sweep": ("summary.csv",
              "period_time,final_rho_gg,max_excited_population,max_positivity_violation,file"),
    "berry": ("berry.csv", "theta_rad,delta_lambda_g,delta_lambda_e,"
              "delta_lambda_g_mod_2pi,delta_lambda_e_mod_2pi"),
}


def _members(scenario: Scenario) -> list:
    """(scenario, variant, name, own summary columns) for each member of a run.

    The name keys the member's solver work; it is also the trajectory file,
    except for a Berry loop (the variant "berry", named ``theta_<index>``),
    which writes none. A sweep member keeps the cone geometry but sets the
    drive period, integrates exactly one period, and scales the fixed step /
    step cap with the period so the per-period resolution is constant.
    """
    if scenario.mode == "compare":
        return [(scenario, v, f"{v}.csv", {"variant": v}) for v in ("full", "secular", "nonsteered")]
    if scenario.mode == "sweep":
        members = []
        base, base_t = scenario.solver, scenario.solver.t1 - scenario.solver.t0
        for i, p in enumerate(scenario.sweep_periods):
            scale = p / base_t
            solver = dataclasses.replace(base, t0=0.0, t1=p,
                                         dt=None if base.dt is None else base.dt * scale,
                                         dt_max=None if base.dt_max is None else base.dt_max * scale)
            path = {**scenario.path, "drive_omega_rad_per_time": 2 * math.pi / p, "duration_time": p}
            sub = dataclasses.replace(scenario, path=path, solver=solver, mode="simulate", sweep_periods=())
            members.append((sub, "full", f"period_{i:03d}.csv",
                            {"period_time": sub.solver.t1 - sub.solver.t0}))
        return members
    if scenario.mode == "berry":
        loop = {k: v for k, v in scenario.path.items() if k != "duration_time"}
        return [(dataclasses.replace(scenario, path={**loop, "theta_rad": theta}), "berry",
                 f"theta_{i:03d}", {"theta_rad": theta}) for i, theta in enumerate(scenario.berry_thetas)]
    return [(scenario, "full", "trajectory.csv", {})]


def _run_member(task):
    """Run one member in ``run_dir`` on the run's spectrum ``sd`` and path ``samples``.

    Returns its summary row, maxima, work, wall time and the wall times of
    its phases: build (the path), solve (the integration; for a Berry
    loop, the loop's) and write (the trajectory CSV). A Berry loop keeps its
    state fixed, so it reports no positivity; its alpha is the optimal
    basis's. ``max_quadrature_error`` is the phase quadrature error of a run
    that tracks phases with an error row. The non-steered member integrates
    ``rhs_nonsteered``'s constant affine map (four probes, not in ``rhs_evals``).
    """
    (sc, variant, name, labels), run_dir, sd, samples = task
    started = time.monotonic()
    path = build_path(sc.path, sc.coupling, samples)
    if variant == "berry":
        built = time.monotonic()
        ph = berry_phase(path, sc.solver)
        solved = time.monotonic()
        row = dict(labels, delta_lambda_g=ph.delta_lambda_g, delta_lambda_e=ph.delta_lambda_e,
                   delta_lambda_g_mod_2pi=ph.delta_lambda_g_mod,
                   delta_lambda_e_mod_2pi=ph.delta_lambda_e_mod)
        maxima = {"max_alpha": ph.max_alpha, "max_loop_gap": ph.loop_gap}
        if ph.quadrature_error is not None:
            maxima["max_quadrature_error"] = ph.quadrature_error
        return (row, maxima, dataclasses.asdict(ph.work), solved - started,
                (built - started, solved - built, 0.0))
    initial = DensityState(sc.initial_rho_gg, sc.initial_rho_ge)
    built = time.monotonic()
    if variant == "nonsteered":
        frame0 = frame_at(path, sc.solver.t0)
        r0 = rates(frame0.m1, frame0.m2, frame0.omega01, sd)
        nonsteered = from_pair(lambda s, f: rhs_nonsteered(s, r0, frame0.omega01))
        traj = integrate(_frozen_affine(nonsteered, frame0), initial, sc.solver,
                         frame_provider=lambda t: frame0)
    elif variant == "secular":
        traj = integrate(from_pair(lambda s, f: rhs_secular(s, _secular_rates(f, sd), f.omega01)),
                         initial, sc.solver, frame_provider=_frame_provider(path))
    else:
        # the optimal-phase run is the plain run seen in the rotated basis
        traj = integrate(partial(_rhs_full, sd), initial, sc.solver,
                         frame_provider=_frame_provider(path), track_phases=sc.optimal_phase)
    solved = time.monotonic()
    with open(run_dir / name, "w") as fh:
        traj.write_csv(fh)
    written = time.monotonic()
    row = dict(labels, file=name, final_rho_gg=traj.final.state.rho_gg,
               max_excited_population=traj.max_excited_population,
               max_positivity_violation=traj.max_positivity_violation)
    maxima = {"max_positivity_violation": traj.max_positivity_violation, "max_alpha": traj.max_alpha}
    if traj.phase_quadrature_error is not None:
        maxima["max_quadrature_error"] = traj.phase_quadrature_error
    phases = (built - started, solved - built, written - solved)
    return row, maxima, dataclasses.asdict(traj.work), written - started, phases


@dataclass
class RunArtifacts:
    run_dir: Path
    metadata: dict
    files: list


def run(scenario: Scenario, out_dir="runs", jobs: int = 1) -> RunArtifacts:
    """Execute a scenario and persist its artifacts under a fresh run directory.

    Every mode is a list of independent members (see ``_members``): one
    trajectory (simulate), the full, secular and non-steered variants
    (compare), one trajectory per period (sweep) or one Berry loop per angle
    (berry). Up to ``jobs`` members run at once, never more than the members
    or the CPUs. Each member adds one row to the mode's summary table, its
    maxima to the invariants and its wall time to ``member_wall_s``.
    ``phase_wall_s`` sums the members' build, solve and write times; build
    also holds the data-file step (``_read_data_files``, before the run
    directory exists; a data file it rejects raises ValidationError), and
    write the summary CSV. ``jobs`` below 1 raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    started = time.monotonic()
    sd, samples = _read_data_files(scenario)
    phases = {"build": time.monotonic() - started, "solve": 0.0, "write": 0.0}
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    scenario_hash = scenario.scenario_hash()
    run_dir = Path(out_dir) / f"{stamp}-{scenario_hash}"
    run_dir.mkdir(parents=True, exist_ok=False)
    metadata = {
        "tool": "qsteer",
        "version": __version__,
        "scenario": scenario.canonical_dict(),
        "scenario_hash": scenario_hash,
        "status": "running",
    }
    members = _members(scenario)
    summary, columns = _SUMMARIES[scenario.mode]
    files: list = []
    invariants: dict = {}
    work = {}  # member name -> its integration's SolverWork fields
    rows, walls = [], []  # one summary row and one wall time per member
    # fork starts every worker at once, so never more than the work or the CPUs
    workers = min(jobs, len(members), os.cpu_count() or 1)
    try:
        if workers > 1:  # a serial run loads no process pool
            from concurrent.futures import ProcessPoolExecutor

            pool_cm = ProcessPoolExecutor(max_workers=workers)
        else:
            pool_cm = nullcontext()
        with pool_cm as pool:
            results = (pool.map if pool else map)(_run_member, [(m, run_dir, sd, samples) for m in members])
            for (_, variant, name, _), (row, maxima, w, wall, phase) in zip(members, results):
                rows.append(row)
                walls.append(wall)
                for key, value in zip(phases, phase):
                    phases[key] += value
                for key, value in maxima.items():
                    invariants[key] = max(invariants.get(key, 0.0), value)
                work[name] = w
                if variant != "berry":
                    files.append(name)
        if summary:
            written = time.monotonic()
            with open(run_dir / summary, "w") as fh:
                fh.write(columns + "\n")
                for row in rows:
                    cells = (row[c] for c in columns.split(","))
                    fh.write(",".join(v if isinstance(v, str) else f"{v:.17g}" for v in cells) + "\n")
            files.append(summary)
            phases["write"] += time.monotonic() - written
        metadata["status"] = "ok"
    except Exception as exc:
        metadata["status"] = f"failed: {exc}"
        raise
    finally:
        metadata["wall_time_s"] = time.monotonic() - started
        metadata["member_wall_s"] = walls
        metadata["phase_wall_s"] = phases
        metadata["invariants"] = invariants
        metadata["solver_work"] = work
        metadata["files"] = files
        with open(run_dir / "metadata.json", "w") as fh:
            json.dump(metadata, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return RunArtifacts(run_dir=run_dir, metadata=metadata, files=[run_dir / f for f in files])


def _jobs(text: str) -> int:
    """``--jobs``: an integer of at least 1, else an argparse error naming the option."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


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
        p.add_argument("--jobs", type=_jobs, default=1, help="concurrent members (default: 1)")
    args = parser.parse_args(argv)

    scenario = None
    try:
        mode = None if args.command == "validate" else args.command
        scenario = scenario_from_file(args.config, mode)
        if args.command == "validate":
            _read_data_files(scenario)  # the data-file step that each run takes first
            print("scenario OK")
            return 0
        artifacts = run(scenario, out_dir=args.out, jobs=args.jobs)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print("scenario invalid:", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    except (QSteerError, OSError) as exc:
        if scenario is None:  # reading the config file failed
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 1
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    print(artifacts.run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
