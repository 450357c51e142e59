import cmath
import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import qsteer as q
from qsteer import cli
from qsteer.cli import build_path, load_scenario, main, run, scenario_from_file
from qsteer.dynamics import _METHODS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.yaml"))
# the scenario hash of each shipped config; it names every run directory
SHIPPED_HASHES = {"berry_sweep": "37d5fd5291c7", "cone_thermal_compare": "48c39e9157ff",
                  "cone_zero_temperature": "1531f4d79ced", "landau_zener": "eb163c236fc8",
                  "period_sweep": "f2ad1e11927a"}

MINIMAL_CONE = """
path:
  kind: rotating_cone
  field_energy: 1.0
  theta_rad: 1.0471975511965976
  drive_omega_rad_per_time: 0.2
coupling:
  matrix: [[0.0, 1.0], [1.0, 0.0]]
bath:
  model: flat
  s0_rate: 0.1
solver:
  method: rk4_fixed
  dt_time: 0.02
  record_stride: 50
"""

# neither path.duration_time nor solver.t1_time fixes the end of the run
SAMPLED_WITHOUT_DURATION = MINIMAL_CONE.replace(
    "kind: rotating_cone\n  field_energy: 1.0\n  theta_rad: 1.0471975511965976\n"
    "  drive_omega_rad_per_time: 0.2",
    "kind: sampled\n  csv_file: path.csv",
)


def data_file_scenario(section, data):
    """MINIMAL_CONE reading ``data`` as its sampled path (window [0, 3]) or tabulated spectrum."""
    if section == "path":
        text = SAMPLED_WITHOUT_DURATION.replace("csv_file: path.csv", f"csv_file: {data}")
        return text.replace("  dt_time: 0.02", "  dt_time: 0.02\n  t1_time: 3.0")
    return MINIMAL_CONE.replace("model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {data}")


# Names the benchmark reads: perfbench/reference.py calls the qsteer ones, and
# perfbench/tracing.py patches the ones bound in qsteer.cli (a missing one is
# silently traced as absent, so its layer metrics would read 0).
BENCHMARK_API = ("rates", "rhs_full", "rhs_secular", "rhs_nonsteered", "frame_at", "DensityState",
                 "rotating_cone", "linear_sweep", "ohmic_thermal", "zero_temperature_ohmic")
BENCHMARK_CLI = ("frame_at", "rates", "integrate", "rhs_full", "rhs_secular", "rhs_nonsteered",
                 "berry_phase", "phase_shifted_frame", "load_scenario", "run")


@pytest.mark.parametrize("module, name", [
    *(pytest.param(q, name, id=f"qsteer.{name}") for name in BENCHMARK_API),
    *(pytest.param(cli, name, id=f"qsteer.cli.{name}") for name in BENCHMARK_CLI),
])
def test_benchmark_reads_this_name(module, name):
    assert callable(getattr(module, name, None))


class TestLoadScenario:
    def test_minimal_cone_defaults(self):
        sc = load_scenario(MINIMAL_CONE)
        assert sc.mode == "simulate"
        assert sc.solver.t0 == 0.0
        assert sc.solver.t1 == pytest.approx(2 * math.pi / 0.2)
        assert sc.initial_rho_gg == 1.0
        assert sc.initial_rho_ge == 0j
        assert not sc.optimal_phase
        assert build_path(sc.path, sc.coupling).duration == pytest.approx(2 * math.pi / 0.2)

    def test_negative_temperature_names_field(self):
        text = MINIMAL_CONE.replace(
            "model: flat\n  s0_rate: 0.1",
            "model: ohmic_thermal\n  eta_coupling: 0.5\n  temperature_energy: -1.0",
        )
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert any("bath.temperature_energy" in p for p in exc.value.problems)

    def test_sweep_members_one_per_period(self):
        text = MINIMAL_CONE + (
            "run:\n  mode: sweep\n  sweep_periods_time: [10, 20, 30, 40, 50, 60, 70, 80]\n"
        )
        sc = load_scenario(text)
        subs = [m[0] for m in cli._members(sc)]
        assert len(subs) == 8
        for sub, period in zip(subs, (10, 20, 30, 40, 50, 60, 70, 80)):
            assert sub.mode == "simulate"
            assert sub.solver.t1 == pytest.approx(period)
            assert sub.path["drive_omega_rad_per_time"] == pytest.approx(2 * math.pi / period)

    def test_all_errors_reported_at_once(self):
        text = """
path:
  kind: rotating_cone
  field_energy: -1.0
  theta_rad: 9.0
  drive_omega_rad_per_time: 0.0
coupling:
  matrix: [[0.0, 1.0], [0.5, 0.0]]
bath:
  model: nonsense
initial:
  rho_gg: 2.0
solver:
  method: rk4_fixed
"""
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        joined = "\n".join(exc.value.problems)
        for needle in (
            "path.field_energy", "path.theta_rad", "path.drive_omega_rad_per_time",
            "coupling.matrix", "bath.model", "initial.rho_gg", "solver.dt_time",
        ):
            assert needle in joined

    def test_parse_error(self):
        with pytest.raises(q.ParseError):
            load_scenario("path: [unclosed")
        with pytest.raises(q.ParseError):
            load_scenario("- just\n- a\n- list\n")

    def test_non_hermitian_coupling_rejected(self):
        text = MINIMAL_CONE.replace("[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, [0.0, 1.0]], [[0.0, 1.0], 0.0]]")
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert any("coupling.matrix" in p for p in exc.value.problems)

    def test_complex_entries_accepted(self):
        text = MINIMAL_CONE.replace(
            "[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]]"
        )
        sc = load_scenario(text)
        assert sc.coupling[0][1] == -1j

    def test_sampled_path_without_duration_names_keys(self):
        text = SAMPLED_WITHOUT_DURATION
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert any("solver.t1_time" in p and "path.duration_time" in p for p in exc.value.problems)
        sc = load_scenario(text.replace("  method: rk4_fixed", "  method: rk4_fixed\n  t1_time: 5.0"))
        assert sc.solver.t1 == 5.0 and "duration_time" not in sc.path

    def test_invalid_path_reports_only_its_own_key(self):
        text = MINIMAL_CONE.replace("field_energy: 1.0", "field_energy: -1.0")
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert exc.value.problems == ["path.field_energy: must be positive"]

    def test_overflowing_drive_period_names_the_path(self):
        # 2 pi / 5e-324 is inf: no finite default window, and with solver.t1_time no
        # finite default duration for the cone that the run builds
        text = MINIMAL_CONE.replace("drive_omega_rad_per_time: 0.2", "drive_omega_rad_per_time: 5.0e-324")
        for config in (text, text.replace("dt_time: 0.02", "dt_time: 0.02\n  t1_time: 10.0")):
            with pytest.raises(q.ValidationError) as exc:
                load_scenario(config)
            assert exc.value.problems == [
                "path.drive_omega_rad_per_time: one drive period overflows; set path.duration_time"]
        assert load_scenario(text.replace("5.0e-324", "5.0e-324\n  duration_time: 10.0")).solver.t1 == 10.0

    def test_quoted_numbers_rejected(self):
        for old, new, key in (
            ("field_energy: 1.0", 'field_energy: "1.0"', "path.field_energy"),
            ("dt_time: 0.02", "dt_time: 2e-2", "solver.dt_time"),  # YAML 1.1 text, not a float
        ):
            with pytest.raises(q.ValidationError) as exc:
                load_scenario(MINIMAL_CONE.replace(old, new))
            assert exc.value.problems == [f"{key}: expected a number"]
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(MINIMAL_CONE + 'initial:\n  rho_ge: ["0", "0"]\n')
        assert exc.value.problems == ["initial.rho_ge: expected a finite number or [re, im] pair"]

    def test_invalid_cone_value_is_the_only_problem(self):
        # a cone's window defaults to one drive period, so no solver.t1_time is asked for
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(MINIMAL_CONE.replace("field_energy: 1.0", "field_energy: -1.0"))
        assert exc.value.problems == ["path.field_energy: must be positive"]

    @pytest.mark.parametrize("run_section", [
        "run:\n  mode: sweep\n  sweep_periods_time: [20, 40]\n",
        "run:\n  mode: berry\n  berry_theta_grid_rad: [0.5]\n",
    ], ids=["sweep", "berry"])
    def test_nonzero_t0_rejected_where_runs_start_at_zero(self, run_section):
        text = MINIMAL_CONE.replace("  dt_time: 0.02", "  dt_time: 0.02\n  t0_time: 1.0")
        assert load_scenario(text).solver.t0 == 1.0  # simulate honours it
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text + run_section)
        mode = run_section.split()[2]
        assert exc.value.problems == [f"solver.t0_time: must be 0 in {mode} mode"]

    def test_non_finite_numbers_rejected(self):
        text = (
            MINIMAL_CONE.replace("[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, 1.0], [1.0, .nan]]")
            .replace("model: flat\n  s0_rate: 0.1",
                     "model: zero_temperature_ohmic\n  eta_coupling: 0.1\n  cutoff_energy: .inf")
            .replace("  dt_time: 0.02", "  dt_time: 0.02\n  t1_time: .inf")
        )
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        joined = "\n".join(exc.value.problems)
        for needle in ("coupling.matrix[1][1]", "bath.cutoff_energy", "solver.t1_time"):
            assert needle in joined

    def test_unphysical_initial_state_rejected(self):
        text = MINIMAL_CONE + "initial:\n  rho_gg: 0.9\n  rho_ge: [0.5, 0.0]\n"
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert any("initial" in p for p in exc.value.problems)

    def test_huge_coherence_rejected_without_overflow(self):
        text = MINIMAL_CONE + "initial:\n  rho_ge: [1.0e308, 1.0e308]\n"
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert any(p.startswith("initial") for p in exc.value.problems)

    def test_flags_must_be_yaml_booleans(self):
        text = MINIMAL_CONE + "run:\n  optimal_phase: 'false'\n  spectral_shift: 1\n"
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        joined = "\n".join(exc.value.problems)
        assert "run.optimal_phase" in joined and "run.spectral_shift" in joined
        sc = load_scenario(MINIMAL_CONE + "run:\n  optimal_phase: true\n  spectral_shift: false\n")
        assert sc.optimal_phase is True

    @pytest.mark.parametrize("method", ["euler", "RK4_FIXED", "[rk4_fixed]", "{a: 1}", "null"])
    def test_unknown_method_lists_the_methods(self, method):
        text = MINIMAL_CONE.replace("method: rk4_fixed\n  dt_time: 0.02", f"method: {method}")
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert exc.value.problems == ["solver.method: must be rk4_fixed or rk45_adaptive"]
        assert all(name in exc.value.problems[0] for name in _METHODS)

    @pytest.mark.parametrize("method", sorted(_METHODS))
    def test_each_method_reads_the_keys_of_its_kind(self, method):
        # a fixed step (no error row) takes dt_time; an adaptive one rtol, atol and dt_max_time
        fixed = _METHODS[method].err is None
        keys = "  dt_time: 0.02\n  rtol: 1.0e-7\n  atol: 1.0e-10\n  dt_max_time: 0.5\n"
        sc = load_scenario(MINIMAL_CONE.replace(
            "  method: rk4_fixed\n  dt_time: 0.02\n", f"  method: {method}\n{keys}"))
        solver = (sc.solver.dt, sc.solver.rtol, sc.solver.atol, sc.solver.dt_max)
        assert solver == ((0.02, 1e-9, 1e-12, None) if fixed else (None, 1e-7, 1e-10, 0.5))
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(MINIMAL_CONE.replace(
                "  method: rk4_fixed\n  dt_time: 0.02\n",
                f"  method: {method}\n  dt_time: -1\n  rtol: -1\n  dt_max_time: -1\n"))
        assert exc.value.problems == (
            ["solver.dt_time: must be positive"] if fixed
            else ["solver.rtol: must be positive", "solver.dt_max_time: must be positive"])

    def test_null_optional_solver_key_is_absent(self):
        nulls = "  t0_time: null\n  t1_time: null\n  record_stride: null\n"
        fixed = load_scenario(MINIMAL_CONE.replace("  record_stride: 50\n", nulls))
        assert (fixed.solver.t0, fixed.solver.record_stride) == (0.0, 1)
        assert fixed.solver.t1 == load_scenario(MINIMAL_CONE).solver.t1
        adaptive = load_scenario(MINIMAL_CONE.replace(
            "  method: rk4_fixed\n  dt_time: 0.02\n",
            "  method: rk45_adaptive\n  rtol: null\n  atol: null\n  dt_max_time: null\n"))
        assert (adaptive.solver.rtol, adaptive.solver.atol, adaptive.solver.dt_max) == (1e-9, 1e-12, None)
        # an absent method is rk45_adaptive; a null one is not (test_unknown_method_lists_the_methods)
        absent = load_scenario(MINIMAL_CONE.replace("  method: rk4_fixed\n", ""))
        assert absent.solver.method == "rk45_adaptive"

    @pytest.mark.parametrize("section, text", [
        ("run", MINIMAL_CONE + "run: sweep\n"),
        ("solver", MINIMAL_CONE.replace(
            "solver:\n  method: rk4_fixed\n  dt_time: 0.02\n  record_stride: 50\n", "solver: 5\n")),
        ("initial", MINIMAL_CONE + "initial: [0.5]\n"),
    ], ids=["run", "solver", "initial"])
    def test_section_that_is_not_a_mapping_rejected(self, section, text):
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert exc.value.problems == [f"{section}: expected a mapping"]
        # an empty section means its defaults
        assert load_scenario(MINIMAL_CONE + "initial:\nrun: {}\n").mode == "simulate"

    @pytest.mark.parametrize("old, new, problem", [
        ("  dt_time: 0.02\n", "  dt_time: 0.02\n  rtool: 1.0e-3\n", "solver.rtool: unknown key"),
        ("model: flat\n", "model: flat\n  s0rate: 0.2\n", "bath.s0rate: unknown key"),
        ("solver:\n", "run:\n  optimal_phse: true\nsolver:\n", "run.optimal_phse: unknown key"),
        ("solver:\n", "solvr:\n  method: rk4_fixed\nsolver:\n", "solvr: unknown section"),
    ], ids=["solver", "bath", "run", "top-level"])
    def test_unknown_keys_and_sections_rejected(self, old, new, problem):
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(MINIMAL_CONE.replace(old, new))
        assert exc.value.problems == [problem]

    @pytest.mark.parametrize("old, new, problem", [
        ("  dt_time: 0.02\n", "  dt_time: 0.02\n  t0_time: 2.0\n  t1_time: 1.0\n",
         "solver.t1_time: must exceed solver.t0_time"),
        ("  dt_time: 0.02\n", "  dt_time: 0.02\n  t0_time: 2.0\n  t1_time: 2.0\n",
         "solver.t1_time: must exceed solver.t0_time"),
        ("record_stride: 50\n", "record_stride: 50\nrun:\n  sweep_periods_time: 20.0\n",
         "run.sweep_periods_time: expected a list of positive numbers"),
        ("record_stride: 50\n", "record_stride: 50\nrun:\n  berry_theta_grid_rad: {a: 1}\n",
         "run.berry_theta_grid_rad: expected a list of angles in [0, pi]"),
        ("[[0.0, 1.0], [1.0, 0.0]]", "[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]",
         "coupling.matrix: expected a 2x2 matrix"),
        ("[[0.0, 1.0], [1.0, 0.0]]", "[0.0, 1.0, 1.0, 0.0]", "coupling.matrix: expected a 2x2 matrix"),
        ("model: flat\n  s0_rate: 0.1", "model: tabulated\n  csv_file: 5",
         "bath.csv_file: expected a file name"),
        ("kind: rotating_cone\n  field_energy: 1.0\n  theta_rad: 1.0471975511965976\n"
         "  drive_omega_rad_per_time: 0.2", "kind: sampled\n  csv_file: [path.csv]\n  duration_time: 3.0",
         "path.csv_file: expected a file name"),
    ], ids=["t1-below-t0", "t1-at-t0", "period-grid-not-a-list", "angle-grid-not-a-list",
            "coupling-2x3", "coupling-flat", "spectrum-file-not-a-string", "path-file-not-a-string"])
    def test_malformed_key_is_the_only_problem(self, old, new, problem):
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(MINIMAL_CONE.replace(old, new))
        assert exc.value.problems == [problem]

    @pytest.mark.parametrize("mode, grid", [("sweep", "sweep_periods_time: [20.0]"),
                                            ("berry", "berry_theta_grid_rad: [0.5]")])
    def test_grid_modes_need_a_cone(self, mode, grid):
        text = MINIMAL_CONE.replace(
            "kind: rotating_cone\n  field_energy: 1.0\n  theta_rad: 1.0471975511965976\n"
            "  drive_omega_rad_per_time: 0.2",
            "kind: linear_sweep\n  slope_energy_per_time: 0.1\n  gap_energy: 1.0\n  duration_time: 20.0")
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text + f"run:\n  mode: {mode}\n  {grid}\n")
        assert exc.value.problems == [f"run.mode: {mode} requires a rotating_cone path"]

    def test_given_mode_replaces_the_files(self):
        berry = MINIMAL_CONE + "run:\n  mode: berry\n"  # no grid: invalid as a berry run
        with pytest.raises(q.ValidationError):
            load_scenario(berry)
        assert load_scenario(berry, mode="simulate").mode == "simulate"
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(MINIMAL_CONE, mode="sweep")
        assert exc.value.problems == ["run.sweep_periods_time: required non-empty list for sweep mode"]

    @pytest.mark.parametrize("solver, message", [
        ("  method: rk4_fixed\n  dt_time: 0.02\n", "rk4_fixed requires dt > 0"),
        ("  method: rk45_adaptive\n  dt_max_time: 0.5\n", "dt_max must be > 0"),
        ("  method: rk45_adaptive\n", "omega must be nonzero and finite"),
    ], ids=["rk4_dt", "rk45_dt_max", "rk45_drive"])
    def test_sweep_periods_checked_in_sweep_mode_only(self, solver, message):
        # the period 5e-324 scales dt (and dt_max) to 0.0 and 2 pi / period overflows,
        # but only a sweep run has a member with that period
        text = (CONFIG_DIR / "cone_zero_temperature.yaml").read_text().replace(
            "  method: rk45_adaptive\n  rtol: 1.0e-9\n  atol: 1.0e-12\n", solver)
        text += "  sweep_periods_time: [5.0e-324]\n"
        assert load_scenario(text, "simulate").sweep_periods == (5e-324,)
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text, "sweep")
        assert exc.value.problems == [f"run.sweep_periods_time: period 5e-324: {message}"]


    @pytest.mark.parametrize("solver, key, steps", [
        ("  method: rk45_adaptive\n  dt_max_time: 1.0e-300\n", "dt_max", "1.26e+302"),
        ("  method: rk4_fixed\n  dt_time: 1.0e-300\n", "dt", "1.26e+302"),
    ], ids=["rk45_dt_max", "rk4_dt"])
    def test_step_count_beyond_the_bound_names_solver_and_window(self, solver, key, steps):
        # one drive period of the shipped cone is 40 pi; the scenario is only loaded
        text = (CONFIG_DIR / "cone_zero_temperature.yaml").read_text().replace(
            "  method: rk45_adaptive\n  rtol: 1.0e-9\n  atol: 1.0e-12\n", solver)
        problem = f"solver: {key} = 1e-300 needs {steps} steps, more than 10000000"
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert exc.value.problems == [problem, "path.drive_omega_rad_per_time: sets that solver "
                                      "window, as solver.t1_time is not given"]
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text.replace("  record_stride: 10\n",
                                       "  record_stride: 10\n  t1_time: 125.66370614359172\n"))
        assert exc.value.problems == [problem]


class TestScenarioHash:
    def test_shipped_configs_keep_their_hashes(self):
        assert {c.stem: scenario_from_file(c).scenario_hash() for c in CONFIGS} == SHIPPED_HASHES

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
    def test_hash_is_the_sha256_of_the_canonical_json(self, config):
        sc = scenario_from_file(config)
        payload = json.dumps(sc.canonical_dict(), sort_keys=True, separators=(",", ":"))
        assert sc.scenario_hash() == hashlib.sha256(payload.encode()).hexdigest()[:12]

    def test_hashlib_fallback_gives_the_same_hashes(self):
        # without CPython's built-in SHA-256 modules the hash comes from hashlib
        src = str(Path(q.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import json, sys\nsys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\nimport qsteer.cli as c\n"
            "hashes = {a: c.scenario_from_file(a).scenario_hash() for a in sys.argv[1:]}\n"
            "print(json.dumps([c.sha256 is hashlib.sha256, hashes]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code, *map(str, CONFIGS)],
                             env=env, capture_output=True, text=True, check=True, timeout=60)
        from_hashlib, hashes = json.loads(out.stdout.splitlines()[-1])
        assert from_hashlib
        assert {Path(c).stem: h for c, h in hashes.items()} == SHIPPED_HASHES


class TestRun:
    def test_simulate_artifacts(self, tmp_path):
        sc = load_scenario(MINIMAL_CONE)
        art = run(sc, out_dir=tmp_path / "runs")
        assert (art.run_dir / "trajectory.csv").exists()
        meta = json.loads((art.run_dir / "metadata.json").read_text())
        assert meta["status"] == "ok"
        assert "seed" not in meta
        assert set(meta["invariants"]) == {"max_positivity_violation", "max_alpha"}
        assert meta["invariants"]["max_alpha"] > 0
        assert meta["scenario_hash"] == sc.scenario_hash()
        lines = (art.run_dir / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,rho_gg")
        assert len(lines) > 10

    def test_determinism_byte_identical(self, tmp_path):
        sc = load_scenario(MINIMAL_CONE)
        a = run(sc, out_dir=tmp_path / "a")
        b = run(sc, out_dir=tmp_path / "b")
        assert (a.run_dir / "trajectory.csv").read_bytes() == (
            b.run_dir / "trajectory.csv"
        ).read_bytes()
        assert a.run_dir.name.split("-")[1] == b.run_dir.name.split("-")[1]

    def test_compare_mode(self, tmp_path):
        text = MINIMAL_CONE + "run:\n  mode: compare\n"
        art = run(load_scenario(text), out_dir=tmp_path)
        for name in ("full.csv", "secular.csv", "nonsteered.csv", "summary.csv"):
            assert (art.run_dir / name).exists()
        lines = (art.run_dir / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("variant,")
        assert [ln.split(",")[0] for ln in lines[1:]] == ["full", "secular", "nonsteered"]

    def test_sweep_mode_summary(self, tmp_path):
        text = MINIMAL_CONE + "run:\n  mode: sweep\n  sweep_periods_time: [20, 40]\n"
        art = run(load_scenario(text), out_dir=tmp_path)
        lines = (art.run_dir / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        assert (art.run_dir / "period_000.csv").exists()
        assert (art.run_dir / "period_001.csv").exists()

    @pytest.mark.parametrize("run_block", [
        "run:\n  mode: simulate\n",
        "run:\n  mode: compare\n",
        "run:\n  mode: sweep\n  sweep_periods_time: [20, 40]\n",
        "run:\n  mode: berry\n  berry_theta_grid_rad: [0.5, 1.0, 2.0]\n  history_samples: 257\n",
    ], ids=["simulate", "compare", "sweep", "berry"])
    def test_sweep_parallel_matches_serial(self, tmp_path, run_block):
        sc = load_scenario(MINIMAL_CONE + run_block)
        a = run(sc, out_dir=tmp_path / "serial", jobs=1)
        b = run(sc, out_dir=tmp_path / "parallel", jobs=2)
        assert a.metadata["files"] == b.metadata["files"]
        for name in a.metadata["files"]:
            assert (a.run_dir / name).read_bytes() == (b.run_dir / name).read_bytes(), name

    @pytest.mark.parametrize("jobs, cpus, run_block, members, workers", [
        (5000, 8, "mode: sweep\n  sweep_periods_time: [20, 40]", 2, 2),
        (5000, 2, "mode: sweep\n  sweep_periods_time: [20, 30, 40]", 3, 2),
        (2, 8, "mode: sweep\n  sweep_periods_time: [20, 30, 40]", 3, 2),
        (5000, 1, "mode: sweep\n  sweep_periods_time: [20, 40]", 2, None),
        (5000, None, "mode: sweep\n  sweep_periods_time: [20, 40]", 2, None),
        (5000, 8, "mode: compare", 3, 3),
        (2, 8, "mode: berry\n  berry_theta_grid_rad: [0.5, 1.0, 2.0]\n  history_samples: 65", 3, 2),
        (5000, 8, "mode: simulate", 1, None),
    ], ids=["work-cap", "cpu-cap", "jobs-cap", "one-cpu", "cpus-unknown", "compare", "berry",
            "simulate"])
    def test_sweep_pool_sized_by_the_work(
        self, tmp_path, monkeypatch, jobs, cpus, run_block, members, workers
    ):
        sizes = []

        class SerialPool:
            """Records its size and maps in this process: the test starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        art = run(load_scenario(MINIMAL_CONE + f"run:\n  {run_block}\n"), out_dir=tmp_path, jobs=jobs)
        assert sizes == ([] if workers is None else [workers])
        walls = json.loads((art.run_dir / "metadata.json").read_text())["member_wall_s"]
        assert len(walls) == members and all(w > 0.0 for w in walls)
        if members > 1:  # the summary table is the last file, one row per member
            assert len(art.files[-1].read_text().splitlines()) == 1 + members

    def test_jobs_below_one_rejected(self, tmp_path):
        for jobs in (0, -2):
            with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
                run(load_scenario(MINIMAL_CONE), out_dir=tmp_path, jobs=jobs)
        assert not any(tmp_path.iterdir())

    def test_berry_mode(self, tmp_path):
        text = MINIMAL_CONE + (
            "run:\n  mode: berry\n  berry_theta_grid_rad: "
            "[0.5235987755982988, 0.7853981633974483, 1.0471975511965976, "
            "1.3089969389957472, 1.5707963267948966]\n  history_samples: 1025\n"
        )
        art = run(load_scenario(text), out_dir=tmp_path)
        lines = (art.run_dir / "berry.csv").read_text().splitlines()
        assert lines[0].startswith("theta_rad,delta_lambda_g")
        assert len(lines) == 6
        # analytic solid-angle reference, applied by the harness
        for ln in lines[1:]:
            theta, dg = (float(x) for x in ln.split(",")[:2])
            assert abs(dg) == pytest.approx(math.pi * (1 - math.cos(theta)), abs=1e-4)

    def test_berry_metadata_is_measured(self, tmp_path):
        # each loop is an integration with the scenario's solver: rk4_fixed, then DP5
        run_block = "run:\n  mode: berry\n  berry_theta_grid_rad: [0.5, 2.0]\n  history_samples: 257\n"
        dp5 = MINIMAL_CONE.replace("  method: rk4_fixed\n  dt_time: 0.02\n", "")
        for name, text in (("rk4", MINIMAL_CONE), ("dp5", dp5)):
            sc = load_scenario(text + run_block)
            art = run(sc, out_dir=tmp_path / name)
            meta = json.loads((art.run_dir / "metadata.json").read_text())
            invariants = meta["invariants"]
            loops = []
            for theta in sc.berry_thetas:
                path = build_path({**sc.path, "theta_rad": theta}, sc.coupling)
                loops.append(q.berry_phase(path, sc.solver))
                f = q.frame_at(path, 0.0)  # alpha in the optimal basis, constant on the cone
                assert loops[-1].max_alpha == pytest.approx(
                    math.sqrt(2.0) * abs(f.w_ge) / f.omega01, rel=1e-14)
            assert invariants["max_alpha"] == max(loop.max_alpha for loop in loops) > 0.0
            assert invariants["max_loop_gap"] == max(loop.loop_gap for loop in loops)
            assert "max_positivity_violation" not in invariants  # the state is not moved
            assert meta["solver_work"] == {
                f"theta_{i:03d}": dataclasses.asdict(loop.work) for i, loop in enumerate(loops)}
            assert meta["phase_wall_s"]["solve"] > 0.0
            if name == "rk4":  # no error row, so no estimate
                assert "max_quadrature_error" not in invariants
                assert all(w["accepted_steps"] == 1571 for w in meta["solver_work"].values())
            else:
                errors = [loop.quadrature_error for loop in loops]
                assert invariants["max_quadrature_error"] == max(errors) < 1e-14
                assert all((w["accepted_steps"], w["frame_evals"]) == (12, 61)
                           for w in meta["solver_work"].values())

    @pytest.mark.parametrize("mode, names", [
        ("simulate", ["trajectory.csv"]),
        ("compare", ["full.csv", "nonsteered.csv", "secular.csv"]),
        ("sweep", ["period_000.csv", "period_001.csv"]),
    ])
    def test_metadata_reports_solver_work(self, tmp_path, mode, names):
        text = MINIMAL_CONE.replace("  method: rk4_fixed\n  dt_time: 0.02\n", "")
        sc = load_scenario(text + f"run:\n  mode: {mode}\n  sweep_periods_time: [20, 40]\n")
        art = run(sc, out_dir=tmp_path)
        meta = json.loads((art.run_dir / "metadata.json").read_text())
        assert sorted(meta["solver_work"]) == names
        for work in meta["solver_work"].values():
            attempts = work["accepted_steps"] + work["rejected_steps"]
            assert work["rhs_evals"] == 6 * attempts + 1
            assert work["frame_evals"] == 5 * attempts + 1  # the last two stages share t + dt
            assert 0.0 < work["dt_min"] <= work["dt_max"]
            assert work["t_max_positivity_violation"] is None

    @pytest.mark.filterwarnings("ignore:purity exceeded")
    @pytest.mark.parametrize("config", ["cone_zero_temperature", "period_sweep"])
    def test_solver_work_counts_the_generator_and_frame_calls(self, tmp_path, monkeypatch, config):
        # perfbench's tracer and CI's 6 (F - n) == 5 (R - n) identity count calls of
        # cli.rhs_full and cli.frame_at: one generator call per stage, one frame per
        # distinct stage time, so the counts are the members' solver_work summed
        calls = dict.fromkeys(("rhs_full", "frame_at"), 0)
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(cli, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(cli, name, counted)
        art = run(scenario_from_file(CONFIG_DIR / f"{config}.yaml"), out_dir=tmp_path)
        work = art.metadata["solver_work"].values()
        assert calls == {"rhs_full": sum(w["rhs_evals"] for w in work),
                         "frame_at": sum(w["frame_evals"] for w in work)}
        for w in work:
            attempts = w["accepted_steps"] + w["rejected_steps"]
            assert (w["rhs_evals"], w["frame_evals"]) == (6 * attempts + 1, 5 * attempts + 1)

    @pytest.mark.parametrize("run_block", [
        "mode: simulate", "mode: compare", "mode: sweep\n  sweep_periods_time: [20, 40]",
        "mode: berry\n  berry_theta_grid_rad: [0.5, 1.0]\n  history_samples: 257",
    ])
    def test_metadata_reports_phase_wall_times(self, tmp_path, run_block):
        art = run(load_scenario(MINIMAL_CONE + f"run:\n  {run_block}\n"), out_dir=tmp_path)
        meta = json.loads((art.run_dir / "metadata.json").read_text())
        phases = meta["phase_wall_s"]
        assert sorted(phases) == ["build", "solve", "write"]
        assert all(v >= 0.0 for v in phases.values()) and phases["solve"] > 0.0
        # serial members: the phases are disjoint parts of the run
        assert sum(phases.values()) <= meta["wall_time_s"]

    def test_optimal_phase_run(self, tmp_path):
        text = MINIMAL_CONE + "run:\n  mode: simulate\n  optimal_phase: true\n  history_samples: 513\n"
        art = run(load_scenario(text), out_dir=tmp_path)
        lines = (art.run_dir / "trajectory.csv").read_text().splitlines()
        last = lines[-1].split(",")
        assert float(last[7]) != 0.0  # lambda_g accumulated

    @pytest.mark.parametrize("solver", [
        "  method: rk4_fixed\n  dt_time: 0.02\n  record_stride: 50\n",
        "  method: rk45_adaptive\n  rtol: 1.0e-9\n  record_stride: 10\n",
    ], ids=["rk4", "rk45"])
    def test_optimal_phase_is_plain_run_in_rotated_basis(self, tmp_path, solver):
        base = MINIMAL_CONE.replace(
            "[[0.0, 1.0], [1.0, 0.0]]", "[[0.3, 1.0], [1.0, -0.3]]"
        ).replace(
            "model: flat\n  s0_rate: 0.1",
            "model: ohmic_thermal\n  eta_coupling: 0.1\n  temperature_energy: 0.5\n"
            "  cutoff_energy: 20.0",
        )
        base = base[: base.index("solver:\n") + len("solver:\n")] + solver

        def trajectory(name, run_block):
            sc = load_scenario(base + run_block)
            art = run(sc, out_dir=tmp_path / name)
            text = (art.run_dir / "trajectory.csv").read_text()
            return sc, [line.split(",") for line in text.splitlines()[1:]]

        _, plain = trajectory("plain", "run:\n  optimal_phase: false\n")
        sc, opt = trajectory("opt", "run:\n  optimal_phase: true\n")

        assert [r[:2] for r in opt] == [r[:2] for r in plain]  # t, rho_gg byte-identical
        path = build_path(sc.path, sc.coupling)
        for p, o in zip(plain, opt):
            lam_g, lam_e = float(o[7]), float(o[8])
            expected = complex(float(p[2]), float(p[3])) * cmath.exp(1j * (lam_e - lam_g))
            assert abs(complex(float(o[2]), float(o[3])) - expected) <= 1e-14
            frame = q.frame_at(path, float(o[0]))
            assert float(o[5]) == pytest.approx(
                math.sqrt(2.0) * abs(frame.w_ge) / frame.omega01, rel=1e-12
            )

        loop = q.berry_phase(path)
        assert float(opt[-1][7]) == pytest.approx(loop.delta_lambda_g, abs=1e-8)
        assert float(opt[-1][8]) == pytest.approx(loop.delta_lambda_e, abs=1e-8)

    @pytest.mark.parametrize("solver, reported", [
        ("  method: rk4_fixed\n  dt_time: 0.02\n", False),
        ("  method: rk45_adaptive\n", True),
    ], ids=["rk4", "rk45"])
    def test_optimal_phase_run_reports_its_quadrature_error(self, tmp_path, solver, reported):
        text = MINIMAL_CONE.replace("  method: rk4_fixed\n  dt_time: 0.02\n", solver)
        for optimal in ("false", "true"):
            art = run(load_scenario(text + f"run:\n  optimal_phase: {optimal}\n"),
                      out_dir=tmp_path / optimal)
            invariants = json.loads((art.run_dir / "metadata.json").read_text())["invariants"]
            if optimal == "true" and reported:  # the cone's w diagonals are constant
                assert 0.0 <= invariants["max_quadrature_error"] < 1e-13
            else:
                assert "max_quadrature_error" not in invariants

    @pytest.mark.filterwarnings("ignore:purity exceeded")
    def test_metadata_is_strict_json(self, tmp_path):
        text = MINIMAL_CONE.replace(
            "model: flat\n  s0_rate: 0.1", "model: zero_temperature_ohmic\n  eta_coupling: 0.01"
        )
        art = run(load_scenario(text), out_dir=tmp_path)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        meta = json.loads((art.run_dir / "metadata.json").read_text(), parse_constant=reject)
        assert meta["scenario"]["bath"] == {"model": "zero_temperature_ohmic", "eta_coupling": 0.01}

    def test_failed_run_marked(self, tmp_path):
        # rtol = atol = 1e-300: a scaled error's square overflows, so every attempt is
        # rejected and the run fails mid-run, after its run directory exists
        text = MINIMAL_CONE.replace("method: rk4_fixed\n  dt_time: 0.02",
                                    "method: rk45_adaptive\n  rtol: 1.0e-300\n  atol: 1.0e-300")
        with pytest.raises(q.StepRejectionLimit):
            run(load_scenario(text), out_dir=tmp_path / "runs")
        run_dir = next((tmp_path / "runs").iterdir())
        meta = json.loads((run_dir / "metadata.json").read_text())
        assert meta["status"].startswith("failed")


def summary_rows(config, out_dir):
    """Run a shipped config in its own mode; its scenario and its summary table's rows."""
    sc = scenario_from_file(CONFIG_DIR / config)
    art = run(sc, out_dir=out_dir)
    with open(art.files[-1], newline="") as fh:
        return sc, list(csv.DictReader(fh))


class TestShippedFindings:
    """Each shipped experiment config reproduces its finding through cli.run."""

    def test_berry_sweep_grid_is_the_solid_angle_to_1e_12(self, tmp_path):
        # theta <= pi/2: the raw ground-branch increment is +pi (1 - cos theta) itself
        _, rows = summary_rows("berry_sweep.yaml", tmp_path)
        for row in rows:
            target = math.pi * (1.0 - math.cos(float(row["theta_rad"])))
            assert abs(float(row["delta_lambda_g"]) - target) <= 1e-12, row
            # the excited branch is its negative up to a winding (theta = pi/2 reads +pi)
            assert abs(math.remainder(float(row["delta_lambda_e"]) + target, 2 * math.pi)) <= 1e-12

    def test_berry_sweep_phases_are_the_solid_angle(self, tmp_path):
        _, rows = summary_rows("berry_sweep.yaml", tmp_path)
        assert len(rows) == 5
        for row in rows:
            target = math.pi * (1.0 - math.cos(float(row["theta_rad"])))
            got = float(row["delta_lambda_g_mod_2pi"])
            assert abs(math.remainder(got - target, 2 * math.pi)) <= 1e-4, row

    @pytest.mark.filterwarnings("ignore:purity exceeded")
    def test_period_sweep_excitation_falls_as_the_period_squared(self, tmp_path):
        _, rows = summary_rows("period_sweep.yaml", tmp_path)
        assert len(rows) == 3
        log_t = [math.log(float(row["period_time"])) for row in rows]
        log_p = [math.log(float(row["max_excited_population"])) for row in rows]
        slope = statistics.linear_regression(log_t, log_p).slope
        assert slope <= -1.8, slope

    def test_thermal_compare_secular_diverges_from_full(self, tmp_path):
        sc, rows = summary_rows("cone_thermal_compare.yaml", tmp_path)
        final = {row["variant"]: float(row["final_rho_gg"]) for row in rows}
        assert abs(final["full"] - final["secular"]) > 10 * sc.solver.rtol, final


class TestSampledPathEndToEnd:
    @pytest.mark.filterwarnings("ignore:purity exceeded")
    def test_sampled_cone_reproduces_the_analytic_run(self, tmp_path):
        # the shipped zero-temperature cone, tabulated at 401 samples over its one period
        analytic = scenario_from_file(CONFIG_DIR / "cone_zero_temperature.yaml")
        cone = analytic.path
        omega = cone["drive_omega_rad_per_time"]
        period = 2 * math.pi / omega
        path = q.rotating_cone(cone["field_energy"], cone["theta_rad"], omega, analytic.coupling)
        samples = tmp_path / "cone.csv"
        with open(samples, "w") as fh:
            fh.write("t,b_x,b_y,b_z\n")
            for i in range(401):
                t = period * i / 400
                fh.write(",".join(repr(x) for x in (t, *path.fields(t)[0])) + "\n")
        data = yaml.safe_load((CONFIG_DIR / "cone_zero_temperature.yaml").read_text())
        data["path"] = {"kind": "sampled", "csv_file": str(samples), "duration_time": period}
        sampled = load_scenario(yaml.safe_dump(data))

        def final_rho_gg(scenario, out_dir):
            art = run(scenario, out_dir=out_dir)
            assert json.loads((art.run_dir / "metadata.json").read_text())["status"] == "ok"
            with open(art.files[0], newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert float(rows[-1]["t"]) == period
            return float(rows[-1]["rho_gg"])

        want = final_rho_gg(analytic, tmp_path / "analytic")
        got = final_rho_gg(sampled, tmp_path / "sampled")
        assert abs(got - want) <= 1e-9, (got, want)


class TestMain:
    def write_config(self, tmp_path, text=MINIMAL_CONE):
        fn = tmp_path / "scenario.yaml"
        fn.write_text(text)
        return fn

    def test_validate_ok(self, tmp_path, capsys):
        fn = self.write_config(tmp_path)
        assert main(["validate", "--config", str(fn)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_exit_1(self, tmp_path, capsys):
        fn = self.write_config(
            tmp_path,
            MINIMAL_CONE.replace(
                "model: flat\n  s0_rate: 0.1",
                "model: ohmic_thermal\n  eta_coupling: 0.5\n  temperature_energy: -1.0",
            ),
        )
        assert main(["validate", "--config", str(fn)]) == 1
        assert "bath.temperature_energy" in capsys.readouterr().err

    def test_simulate_exit_0(self, tmp_path, capsys):
        fn = self.write_config(tmp_path)
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out.strip()
        assert (tmp_path / "runs") in [p.parent for p in [__import__("pathlib").Path(out)]]

    @pytest.mark.parametrize("value, code", [("true", 1), ("false", 0), (None, 0)],
                             ids=["true", "false", "absent"])
    def test_spectral_shift_runs_only_when_false(self, tmp_path, capsys, value, code):
        # the option is deleted; false is still accepted and never echoed
        text = MINIMAL_CONE + (f"run:\n  spectral_shift: {value}\n" if value else "")
        fn = self.write_config(tmp_path, text)
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == code
        out, err = capsys.readouterr()
        if code:
            assert "run.spectral_shift: no longer supported" in err
        else:
            meta = json.loads((Path(out.strip()) / "metadata.json").read_text())
            assert "spectral_shift" not in meta["scenario"]["run"]

    def test_sampled_path_without_duration_exit_1(self, tmp_path, capsys):
        fn = self.write_config(tmp_path, SAMPLED_WITHOUT_DURATION)
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        assert "solver.t1_time" in capsys.readouterr().err

    def test_validate_huge_coherence_exit_1(self, tmp_path, capsys):
        fn = self.write_config(tmp_path, MINIMAL_CONE + "initial:\n  rho_ge: [1.0e308, 1.0e308]\n")
        assert main(["validate", "--config", str(fn)]) == 1
        assert "initial" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    def test_config_that_is_not_utf8_exit_1(self, tmp_path, capsys, command):
        fn = tmp_path / "scenario.yaml"
        fn.write_bytes(b"path:\n  kind: rotating_cone\n  field_energy: 1.0 \xff\n")
        assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(
            f"parse error: {fn} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    def test_utf8_config_is_read_as_utf8(self, tmp_path, capsys):
        # a comment in UTF-8 whatever the locale's encoding
        fn = tmp_path / "scenario.yaml"
        fn.write_bytes(("# \u03b8 = \u03c0/3, \u03c9 = 0.2\n" + MINIMAL_CONE).encode("utf-8"))
        assert main(["validate", "--config", str(fn)]) == 0
        assert capsys.readouterr().out == "scenario OK\n"

    @pytest.mark.parametrize("section", ["run", "path", "coupling"])
    def test_config_nested_beyond_the_parser_exit_1(self, tmp_path, capsys, section):
        deep = "[" * 5000 + "]" * 5000
        fn = self.write_config(tmp_path, f"{section}: {deep}\n")
        assert main(["validate", "--config", str(fn)]) == 1
        assert capsys.readouterr().err == "parse error: invalid YAML: nested too deeply\n"

    def test_repeated_key_exit_1(self, tmp_path, capsys):
        # the later value used to win silently
        text = MINIMAL_CONE.replace("  field_energy: 1.0\n",
                                    "  field_energy: 1.0\n  field_energy: 2.0\n")
        fn = self.write_config(tmp_path, text)
        assert main(["validate", "--config", str(fn)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: invalid YAML: while constructing a mapping\n")
        assert f"found duplicate key 'field_energy'\n  in \"{fn}\", line 5, column 3" in err

    def test_yaml_error_in_a_config_names_the_file(self, tmp_path, capsys):
        # the shipped cone with field_energy repeated on its line 6, as CI writes it
        text = (CONFIG_DIR / "cone_zero_temperature.yaml").read_text()
        fn = self.write_config(tmp_path, text.replace("  field_energy: 1.0\n",
                                                      "  field_energy: 1.0\n  field_energy: 2.0\n"))
        assert main(["validate", "--config", str(fn)]) == 1
        err = capsys.readouterr().err
        assert f"found duplicate key 'field_energy'\n  in \"{fn}\", line 6, column 3" in err
        assert "<unicode string>" not in err

    @pytest.mark.parametrize("text, key, line", [
        (MINIMAL_CONE + "path:\n  kind: linear_sweep\n", "path", 16),
        (MINIMAL_CONE.replace("  s0_rate: 0.1\n", "  s0_rate: 0.1\n  model: flat\n"), "model", 12),
        (MINIMAL_CONE + "initial: {rho_gg: 1.0, rho_gg: 0.5}\n", "rho_gg", 16),
        (MINIMAL_CONE + "run: {mode: simulate}\nrun: {mode: sweep}\n", "run", 17),
        ("x: {1: a, 1.0: b}\n", 1.0, 1),
    ], ids=["section", "section_key", "flow_mapping", "flow_section", "equal_numbers"])
    def test_repeated_key_anywhere_is_named_with_its_line(self, text, key, line):
        with pytest.raises(q.ParseError) as exc:
            load_scenario(text)
        where = f"found duplicate key {key!r}\n  in \"<unicode string>\", line {line},"
        assert where in str(exc.value)

    def test_unhashable_key_is_reported_by_the_loader(self):
        with pytest.raises(q.ParseError, match="found unhashable key"):
            load_scenario("x: {[1]: a, [1]: b}\n")

    def test_merged_key_is_not_a_repetition(self):
        # a key merged by << and the mapping's own key of that name
        text = MINIMAL_CONE.replace("  method: rk4_fixed\n",
                                    "  <<: {method: rk45_adaptive}\n  method: rk4_fixed\n")
        assert load_scenario(text).solver == load_scenario(MINIMAL_CONE).solver

    def test_history_samples_bounded(self, tmp_path, capsys):
        berry = MINIMAL_CONE + "run:\n  mode: berry\n  berry_theta_grid_rad: [0.5]\n"
        assert load_scenario(berry + "  history_samples: 65537\n").history_samples == 65537
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(berry + "  history_samples: 65538\n")
        assert any("run.history_samples" in p for p in exc.value.problems)
        fn = self.write_config(tmp_path, berry + "  history_samples: 100000000000000000000000000\n")
        assert main(["berry", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        assert "run.history_samples" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_validates(self, config):
        assert main(["validate", "--config", str(config)]) == 0

    def test_berry_run_loads_no_scipy_quadrature(self, tmp_path):
        fn = self.write_config(
            tmp_path, MINIMAL_CONE + "run:\n  berry_theta_grid_rad: [0.5]\n  history_samples: 65\n"
        )
        src = str(Path(q.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys\nfrom qsteer.cli import main\n"
            "code = main(['berry', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, 'scipy.integrate' in sys.modules, 'scipy.interpolate' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(fn), str(tmp_path / "runs")],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        assert out.stdout.split()[-3:] == ["0", "False", "False"]

    def test_scalar_runs_load_no_numpy(self, tmp_path):
        # analytic paths and spectra in every mode, then the inputs that hold
        # arrays, which load numpy on demand; the scenario hash maps no OpenSSL
        thermal = MINIMAL_CONE.replace(
            "model: flat\n  s0_rate: 0.1",
            "model: ohmic_thermal\n  eta_coupling: 0.05\n  temperature_energy: 0.5",
        )
        sweep_zero_t = MINIMAL_CONE.replace(
            "kind: rotating_cone\n  field_energy: 1.0\n  theta_rad: 1.0471975511965976\n"
            "  drive_omega_rad_per_time: 0.2",
            "kind: linear_sweep\n  slope_energy_per_time: 0.5\n  gap_energy: 0.5\n"
            "  duration_time: 10.0",
        ).replace("model: flat\n  s0_rate: 0.1", "model: zero_temperature_ohmic\n  eta_coupling: 0.05")
        path_csv, bath_csv = tmp_path / "path.csv", tmp_path / "bath.csv"
        path_csv.write_text("t,bx,by,bz\n0,1,0,1\n1,1,0.1,1\n2,1,0.2,1\n3,1,0.3,1\n")
        bath_csv.write_text("omega,S\n-3,0.01\n0,0.1\n3,0.2\n")
        sampled = SAMPLED_WITHOUT_DURATION.replace("csv_file: path.csv", f"csv_file: {path_csv}")
        sampled = sampled.replace("  dt_time: 0.02", "  dt_time: 0.02\n  t1_time: 3.0")
        tabulated = MINIMAL_CONE.replace("model: flat\n  s0_rate: 0.1",
                                         f"model: tabulated\n  csv_file: {bath_csv}")
        scalar = [("simulate", MINIMAL_CONE), ("simulate", sweep_zero_t), ("compare", thermal),
                  ("sweep", MINIMAL_CONE + "run:\n  sweep_periods_time: [10, 20]\n"),
                  ("validate", MINIMAL_CONE),
                  ("berry", MINIMAL_CONE + "run:\n  berry_theta_grid_rad: [0.5]\n  history_samples: 65\n")]
        arrays = [("simulate", sampled), ("simulate", tabulated)]
        runs = []
        for i, (command, text) in enumerate(scalar + arrays):
            fn = tmp_path / f"scenario_{i}.yaml"
            fn.write_text(text)
            runs.append([command, "--config", str(fn), "--out", str(tmp_path / "runs")])
        src = str(Path(q.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import json, sys\nfrom qsteer.cli import main\n"
            "runs, n = json.loads(sys.argv[1]), int(sys.argv[2])\n"
            "scalar = [main(argv) for argv in runs[:n]]\n"
            "loaded = 'numpy' in sys.modules or '_hashlib' in sys.modules\n"
            "arrays = [main(argv) for argv in runs[n:]]\n"
            "print(json.dumps([scalar, loaded, arrays, 'numpy' in sys.modules]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(runs), str(len(scalar))],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        codes, loaded, array_codes, loaded_after = json.loads(out.stdout.splitlines()[-1])
        assert codes == [0] * len(scalar) and not loaded
        assert array_codes == [0] * len(arrays) and loaded_after

    def test_jobs_through_main_matches_the_serial_run(self, tmp_path, capsys):
        fn = self.write_config(tmp_path)
        dirs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs_{jobs}"
            assert main(["compare", "--config", str(fn), "--out", str(out), "--jobs", jobs]) == 0
            dirs.append(Path(capsys.readouterr().out.strip()))
        serial, parallel = ({p.name: p.read_bytes() for p in d.glob("*.csv")} for d in dirs)
        assert sorted(serial) == ["full.csv", "nonsteered.csv", "secular.csv", "summary.csv"]
        assert parallel == serial

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_invalid_jobs_exit_2(self, tmp_path, capsys, value):
        fn = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs"), "--jobs", value])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_subcommand_overrides_mode(self, tmp_path):
        fn = self.write_config(
            tmp_path, MINIMAL_CONE + "run:\n  mode: simulate\n  sweep_periods_time: [20, 40]\n"
        )
        assert main(["sweep", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "summary.csv").exists()

    @pytest.mark.parametrize("command, run_block", [
        ("compare", "run:\n  optimal_phase: true\n"),
        ("validate", "run:\n  mode: compare\n  optimal_phase: true\n"),
    ], ids=["compare", "validate"])
    def test_compare_mode_takes_no_optimal_phase(self, tmp_path, capsys, command, run_block):
        # the secular and non-steered variants carry no w, so they have no optimal phase
        fn = self.write_config(tmp_path, MINIMAL_CONE + run_block)
        args = ["--config", str(fn)] + ([] if command == "validate" else ["--out", str(tmp_path / "runs")])
        mode = "compare" if command == "compare" else None
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(fn.read_text(), mode)
        assert exc.value.problems == [
            "run.optimal_phase: not available in compare mode, whose secular and "
            "nonsteered variants carry no steering generator"]
        assert main([command] + args) == 1
        assert exc.value.problems[0] in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        assert load_scenario(fn.read_text(), "simulate").optimal_phase

    def test_subcommand_override_reports_like_validation(self, tmp_path, capsys):
        fn = self.write_config(tmp_path)
        assert main(["berry", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(MINIMAL_CONE + "run:\n  mode: berry\n")
        assert exc.value.problems and all(p in err for p in exc.value.problems)
        assert not (tmp_path / "runs").exists()

    def test_subcommand_skips_the_files_mode_rules(self, tmp_path, capsys):
        fn = self.write_config(tmp_path, MINIMAL_CONE + "run:\n  mode: berry\n")
        assert main(["validate", "--config", str(fn)]) == 1
        assert "run.berry_theta_grid_rad" in capsys.readouterr().err
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0

    def test_subcommand_problems_listed_with_the_scenarios(self, tmp_path, capsys):
        fn = self.write_config(tmp_path, MINIMAL_CONE.replace("s0_rate: 0.1", "s0_rate: -0.1"))
        assert main(["berry", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "bath.s0_rate: must be positive" in err
        assert "run.berry_theta_grid_rad: required non-empty list for berry mode" in err

    @pytest.mark.parametrize("path_keys, window, problem", [
        ("", "\n  t1_time: 30.0", "solver.t1_time: t = 30.0"),
        ("", "\n  t0_time: -5.0\n  t1_time: 3.0", "solver.t0_time: t = -5.0"),
        # without solver.t1_time the window ends at t0 + path.duration_time, the key named
        ("\n  duration_time: 30", "", "path.duration_time: t = 30.0"),
        # with it, solver.t1_time ends the window, even where t1 = t0 + duration_time
        ("\n  duration_time: 30", "\n  t1_time: 30", "solver.t1_time: t = 30.0"),
        ("\n  duration_time: 30", "\n  t0_time: 5\n  t1_time: 35", "solver.t1_time: t = 35.0"),
    ], ids=["past-the-last-sample", "before-the-first-sample", "duration-past-the-last-sample",
            "window-and-duration-past-the-last-sample", "shifted-window-and-duration"])
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_window_outside_a_sampled_path_exit_1(self, tmp_path, capsys, path_keys, window, problem,
                                                   command):
        # the path's own fields are read at both window ends before any run directory
        path_csv = tmp_path / "path.csv"
        path_csv.write_text("t,bx,by,bz\n0,1,0,1\n1,1,0.1,1\n2,1,0.2,1\n3,1,0.3,1\n")
        text = SAMPLED_WITHOUT_DURATION.replace("csv_file: path.csv", f"csv_file: {path_csv}{path_keys}")
        fn = self.write_config(tmp_path, text.replace("  dt_time: 0.02", f"  dt_time: 0.02{window}"))
        assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario invalid:")
        assert (f"  - {problem} is outside the path's samples [0.0, 3.0] in path.csv_file "
                f"{path_csv}\n") in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command, grid", [
        ("sweep", "sweep_periods_time: [20, 40]"),
        ("berry", "berry_theta_grid_rad: [0.5]"),
    ])
    def test_subcommand_override_rejects_nonzero_t0(self, tmp_path, capsys, command, grid):
        text = MINIMAL_CONE.replace("  dt_time: 0.02", "  dt_time: 0.02\n  t0_time: 1.0")
        fn = self.write_config(tmp_path, text + f"run:\n  mode: simulate\n  {grid}\n")
        assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        assert f"solver.t0_time: must be 0 in {command} mode" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("section, rows, message", [
        ("path", "0,0,0,1\n1,0,0,1\n2,0,0,1\n", "at least 4 time samples"),
        ("path", "0,1\n1,1\n2,1\n3,1\n4,1\n", "line 1 needs t, b_x, b_y and b_z, got '0,1'"),
        ("bath", "1.0,0.1\n", "at least 2 samples"),
        ("bath", "-2.0\n0.0\n2.0\n", "omega and S"),
        # only the first row may be a header: a later typo fails, it is not dropped
        ("path", "0,1,0,1\n1,1,0,x\n2,1,0,1\n3,1,0,1\n4,1,0,1\n", "line 2 does not parse"),
        ("bath", "omega,S\n-2,0.1\n0,abc\n2,0.1\n", "line 3 does not parse"),
        # a first row with a number among its fields is data with a typo, not a header
        ("path", "0,1,0,1.o\n1,1,0,1\n2,1,0,1\n3,1,0,1\n4,1,0,1\n", "line 1 does not parse: '0,1,0,1.o'"),
        ("bath", "-2,0.1x\n0,0.1\n2,0.1\n", "line 1 does not parse: '-2,0.1x'"),
        # one short row among full ones is named, not left to the array's shape check
        ("path", "t,bx,by,bz\n0,1,0,1\n1,1,0\n2,1,0,1\n3,1,0,1\n4,1,0,1\n",
         "line 3 needs t, b_x, b_y and b_z, got '1,1,0'"),
        ("bath", "omega,S\n-2,0.1\n0\n2,0.1\n", "line 3 needs omega and S, got '0'"),
        # a header repeated after line 1, as when two files are concatenated, is a bad row
        ("path", "t,bx,by,bz\n0,1,0,1\n1,1,0,1\nt,bx,by,bz\n2,1,0,1\n3,1,0,1\n",
         "line 4 does not parse: 't,bx,by,bz'"),
        ("bath", "omega,S\n-2,0.1\nomega,S\n0,0.1\n2,0.1\n", "line 3 does not parse: 'omega,S'"),
    ], ids=["path-3-rows", "path-2-columns", "spectrum-1-row", "spectrum-1-column",
            "path-bad-data-row", "spectrum-bad-data-row", "path-bad-first-row",
            "spectrum-bad-first-row", "path-short-row", "spectrum-short-row",
            "path-repeated-header", "spectrum-repeated-header"])
    def test_malformed_data_file_exit_2(self, tmp_path, capsys, section, rows, message):
        # a malformed data file is a scenario problem in every command: exit 1, no run directory
        data = tmp_path / "data.csv"
        data.write_text(rows)
        fn = self.write_config(tmp_path, data_file_scenario(section, data))
        for command in ("validate", "simulate"):
            assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"scenario invalid:\n  - {section}.csv_file {data}: ") and message in err
            assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("spectrum, bath_problem", [
        ("omega,S\n-3,0.1\n3,0.1\n", None),
        ("omega,S\n-3,0.1\n0,abc\n3,0.1\n", "line 3 does not parse"),
    ], ids=["good-spectrum", "bad-spectrum"])
    def test_malformed_sampled_path_with_a_tabulated_spectrum(self, tmp_path, capsys, spectrum,
                                                              bath_problem):
        # a path whose rows fail gives the spectrum no gap range to check; a spectrum
        # that fails on its own is reported with the path
        path_csv, bath_csv = tmp_path / "path.csv", tmp_path / "bath.csv"
        path_csv.write_text("t,bx,by,bz\n0,1,0,1\n1,1,0,x\n2,1,0,1\n3,1,0,1\n")
        bath_csv.write_text(spectrum)
        text = data_file_scenario("path", path_csv).replace(
            "model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {bath_csv}")
        fn = self.write_config(tmp_path, text)
        problems = [f"path.csv_file {path_csv}: line 3 does not parse: '1,1,0,x'"]
        if bath_problem:
            problems.append(f"bath.csv_file {bath_csv}: {bath_problem}: '0,abc'")
        for command in ("validate", "simulate"):
            assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
            err = capsys.readouterr().err
            assert err == "scenario invalid:\n" + "".join(f"  - {p}\n" for p in problems)
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("section", ["path", "bath"])
    @pytest.mark.parametrize("kind, error", [("missing", "[Errno 2] No such file or directory"),
                                             ("directory", "[Errno 21] Is a directory"),
                                             ("oversized-field", "field larger than field limit")],
                             ids=["missing", "directory", "oversized-field"])
    def test_unreadable_data_file_names_its_key(self, tmp_path, capsys, section, kind, error):
        data = tmp_path / "data.csv"
        if kind == "directory":
            data.mkdir()
        elif kind == "oversized-field":  # the csv module's own error, not a ValueError
            data.write_text("0," + "1" * 200_000 + "\n")
        fn = self.write_config(tmp_path, data_file_scenario(section, data))
        for command in ("validate", "simulate"):
            assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"scenario invalid:\n  - {section}.csv_file {data}: {error}"), err
            assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    def test_data_files_are_read_as_utf8(self, tmp_path):
        # a header outside ASCII parses whatever the locale's encoding, as the config does
        path_csv, bath_csv = tmp_path / "path.csv", tmp_path / "bath.csv"
        path_csv.write_text("τ,bˣ,bʸ,bᶻ\n0,1,0,1\n1,1,0.1,1\n2,1,0.2,1\n3,1,0.3,1\n", encoding="utf-8")
        bath_csv.write_text("ω,S\n-3,0.01\n0,0.1\n3,0.2\n", encoding="utf-8")
        text = data_file_scenario("path", path_csv).replace(
            "model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {bath_csv}")
        fn = self.write_config(tmp_path, text)
        src = str(Path(q.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
                   LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        for command in ("validate", "simulate"):
            out = subprocess.run(
                [sys.executable, "-m", "qsteer.cli", command, "--config", str(fn),
                 "--out", str(tmp_path / "runs")], env=env, capture_output=True, timeout=120)
            assert out.returncode == 0, out.stderr.decode(errors="replace")
        assert len(list((tmp_path / "runs").iterdir())) == 1

    # ``appended`` follows the config's last section, solver, so it can add solver keys
    @pytest.mark.parametrize("command, appended, path, grid, need", [
        ("simulate", "", None, "omega,S\n0,0.1\n3,0.2\n", "[-1, 1]"),
        # a cone's gap can read field_energy + 1 ulp, so a grid ending there is short
        ("simulate", "", None, "-1,0.1\n1,0.1\n", "[-1, 1]"),
        ("compare", "", None, "omega,S\n0,0.1\n3,0.2\n", "[-1, 1]"),
        ("sweep", "run:\n  sweep_periods_time: [10, 20]\n", None, "omega,S\n0,0.1\n3,0.2\n", "[-1, 1]"),
        # the sweep's gap reaches sqrt(0.5^2 + (0.5 * 5)^2) at the window's ends
        ("simulate", "", "kind: linear_sweep\n  slope_energy_per_time: 0.5\n  gap_energy: 0.5\n"
         "  duration_time: 10.0", "-2.5,0.1\n2.5,0.1\n", "[-2.54951, 2.54951]"),
        # over the window [4, 6] the gap reaches only sqrt(0.5^2 + (0.5 * 1)^2)
        ("simulate", "  t0_time: 4.0\n  t1_time: 6.0\n", "kind: linear_sweep\n  slope_energy_per_time: 0.5\n  gap_energy: 0.5\n"
         "  duration_time: 10.0", "-0.7,0.1\n0.7,0.1\n", "[-0.707107, 0.707107]"),
    ], ids=["cone", "cone-at-bound", "compare", "sweep-mode", "linear-sweep", "linear-sweep-window"])
    def test_spectrum_range_checked_before_any_member(self, tmp_path, capsys, command,
                                                       appended, path, grid, need):
        data = tmp_path / "spectrum.csv"
        data.write_text(grid)
        text = MINIMAL_CONE.replace("model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {data}")
        if path is not None:
            text = text.replace("kind: rotating_cone\n  field_energy: 1.0\n  theta_rad: 1.0471975511965976\n"
                                "  drive_omega_rad_per_time: 0.2", path)
        fn = self.write_config(tmp_path, text + appended)
        for argv in (["validate"], [command, "--out", str(tmp_path / "runs")]):
            assert main(argv + ["--config", str(fn)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"scenario invalid:\n  - bath.csv_file {data}: tabulated range")
            assert need in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()  # no member started, no run directory made

    def test_berry_scenario_with_malformed_spectrum_validates(self, tmp_path, capsys):
        # a Berry run reads no spectrum, so validate does not read it either
        data = tmp_path / "spectrum.csv"
        data.write_text("omega,S\n-2,0.1\n0,abc\n2,0.1\n")
        text = MINIMAL_CONE.replace("model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {data}")
        fn = self.write_config(tmp_path, text + "run:\n  mode: berry\n  berry_theta_grid_rad: [0.5]\n")
        assert main(["validate", "--config", str(fn)]) == 0
        assert main(["berry", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0

    def test_tabulated_spectrum_read_once_per_run(self, tmp_path, monkeypatch):
        # the run builds its bath once, checks its range and hands it to every member;
        # a Berry run reads no spectrum file
        import qsteer.cli as cli

        data = tmp_path / "spectrum.csv"
        data.write_text("omega,S\n-3,0.04\n-1,0.08\n0,0.1\n2,0.14\n3,0.16\n")
        tabulated = MINIMAL_CONE.replace("model: flat\n  s0_rate: 0.1",
                                         f"model: tabulated\n  csv_file: {data}")
        calls = []
        original = cli._read_csv
        monkeypatch.setattr(cli, "_read_csv", lambda *args: calls.append(args[0]) or original(*args))
        sweep = load_scenario(tabulated + "run:\n  mode: sweep\n  sweep_periods_time: [10, 20, 30]\n")
        serial = run(sweep, out_dir=tmp_path / "serial")
        assert calls == [str(data)] and len(serial.metadata["solver_work"]) == 3
        del calls[:]
        berry = "run:\n  mode: berry\n  berry_theta_grid_rad: [0.5, 1.0]\n  history_samples: 65\n"
        assert run(load_scenario(tabulated + berry), out_dir=tmp_path / "berry").metadata["status"] == "ok"
        assert calls == []
        # the members of a parallel run take the bath pickled, with the same CSVs
        parallel = run(sweep, out_dir=tmp_path / "parallel", jobs=2)
        assert calls == [str(data)]
        assert serial.metadata["files"] == parallel.metadata["files"]
        for name in serial.metadata["files"]:
            assert (serial.run_dir / name).read_bytes() == (parallel.run_dir / name).read_bytes(), name

    def test_each_data_file_read_once_by_the_parent(self, tmp_path, monkeypatch):
        # a compare run on a sampled path with a tabulated spectrum reads both files once,
        # before its members; no worker reads one, and --jobs leaves every CSV as it was
        path_csv, bath_csv = tmp_path / "path.csv", tmp_path / "bath.csv"
        path_csv.write_text("t,bx,by,bz\n0,1,0,1\n1,1,0.1,1\n2,1,0.2,1\n3,1,0.3,1\n")
        bath_csv.write_text("omega,S\n-3,0.01\n0,0.1\n3,0.2\n")
        text = data_file_scenario("path", path_csv).replace(
            "model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {bath_csv}")
        parent, calls, original = os.getpid(), [], cli._read_csv

        def counted(csv_path, names):
            if os.getpid() != parent:
                raise AssertionError(f"a member process read {csv_path}")
            calls.append(csv_path)
            return original(csv_path, names)

        monkeypatch.setattr(cli, "_read_csv", counted)
        sc = load_scenario(text, "compare")
        serial = run(sc, out_dir=tmp_path / "serial")
        assert calls == [str(path_csv), str(bath_csv)]
        del calls[:]
        parallel = run(sc, out_dir=tmp_path / "parallel", jobs=2)
        assert calls == [str(path_csv), str(bath_csv)]
        assert serial.metadata["files"] == parallel.metadata["files"] == [
            "full.csv", "secular.csv", "nonsteered.csv", "summary.csv"]
        for name in serial.metadata["files"]:
            assert (serial.run_dir / name).read_bytes() == (parallel.run_dir / name).read_bytes(), name

    def test_spectrum_range_backstop_for_sampled_paths(self, tmp_path, capsys):
        # a grid that covers the sweep passes the check, and the sampled path, whose
        # |b| runs from 2.83 to 2.84, fails it before any run directory is made
        data = tmp_path / "spectrum.csv"
        data.write_text("-2.6,0.1\n2.6,0.1\n")
        sweep = MINIMAL_CONE.replace(
            "kind: rotating_cone\n  field_energy: 1.0\n  theta_rad: 1.0471975511965976\n"
            "  drive_omega_rad_per_time: 0.2",
            "kind: linear_sweep\n  slope_energy_per_time: 0.5\n  gap_energy: 0.5\n  duration_time: 10.0",
        ).replace("model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {data}")
        assert main(["simulate", "--config", str(self.write_config(tmp_path, sweep)),
                     "--out", str(tmp_path / "runs")]) == 0
        path_csv = tmp_path / "path.csv"
        path_csv.write_text("t,bx,by,bz\n0,2,0,2\n1,2,0.1,2\n2,2,0.2,2\n3,2,0.3,2\n")
        sampled = SAMPLED_WITHOUT_DURATION.replace("csv_file: path.csv", f"csv_file: {path_csv}")
        sampled = sampled.replace("  dt_time: 0.02", "  dt_time: 0.02\n  t1_time: 3.0").replace(
            "model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {data}")
        capsys.readouterr()
        assert main(["simulate", "--config", str(self.write_config(tmp_path, sampled)),
                     "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"scenario invalid:\n  - bath.csv_file {data}: tabulated range [-2.6, 2.6]")
        assert "Traceback" not in err and len(list((tmp_path / "runs").iterdir())) == 1

    def test_sampled_path_range_is_its_splines_over_the_solver_window(self, tmp_path, capsys):
        # knots with |b| up to sqrt(5) = 2.236: the spline through the step from b_z = 1 to
        # b_z = 2 overshoots to |b| = 2.394 at t = 2.5, past a grid that covers every knot
        path_csv, data = tmp_path / "path.csv", tmp_path / "spectrum.csv"
        path_csv.write_text("t,bx,by,bz\n0,1,0,1\n1,1,0,1\n2,1,0,2\n3,1,0,2\n4,1,0,1\n5,1,0,1\n")
        data.write_text("omega,S\n-2.3,0.1\n0,0.1\n2.3,0.1\n")
        text = data_file_scenario("path", path_csv).replace(
            "model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {data}")
        fn = self.write_config(tmp_path, text.replace("t1_time: 3.0", "t1_time: 5.0"))
        for command in ("validate", "simulate", "compare"):
            assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"scenario invalid:\n  - bath.csv_file {data}: tabulated range "
                                  "[-2.3, 2.3] does not cover [-2.39387, 2.39387]"), err
            assert "Traceback" not in err
        assert not (tmp_path / "runs").exists()
        # a window that ends at the step's first knot never reaches the overshoot
        fn = self.write_config(tmp_path, text.replace("t1_time: 3.0", "t1_time: 2.0"))
        for command in ("validate", "simulate"):
            assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0

    def test_path_through_antipode_exit_2(self, tmp_path, capsys):
        # from +z through the xz plane to exactly -z at the last knot, where the
        # excited state's anchored component is 0
        data = tmp_path / "path.csv"
        h = math.sqrt(0.5)
        data.write_text(f"t,bx,by,bz\n0,0,0,1\n1,{h!r},0,{h!r}\n2,1,0,0\n3,{h!r},0,{-h!r}\n4,0,0,-1\n")
        text = SAMPLED_WITHOUT_DURATION.replace("csv_file: path.csv", f"csv_file: {data}")
        fn = self.write_config(tmp_path, text.replace("  dt_time: 0.02", "  dt_time: 0.02\n  t1_time: 4.0"))
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 2
        message = "an anchored eigenvector component vanishes at t = 4:"
        assert capsys.readouterr().err.startswith(f"run failed: {message}")
        meta = json.loads((next((tmp_path / "runs").iterdir()) / "metadata.json").read_text())
        assert meta["status"].startswith(f"failed: {message}")

    def test_sweep_without_periods_exit_1(self, tmp_path):
        fn = self.write_config(tmp_path)
        assert main(["sweep", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1

    def test_coupling_near_the_hermitian_bound_has_one_rule(self, tmp_path, capsys):
        # the diagonal residual of A - A^dag is 2 |Im a| = 1.6e-14, above the bound
        # for ControlPath and the CLI alike: no "scenario OK" and no run directory
        fn = self.write_config(tmp_path, MINIMAL_CONE.replace(
            "[[0.0, 1.0], [1.0, 0.0]]", "[[[0.0, 8.0e-15], 1.0], [1.0, 0.0]]"))
        assert main(["validate", "--config", str(fn)]) == 1
        assert "coupling.matrix: not Hermitian (residual 1.600e-14)" in capsys.readouterr().err
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        assert not (tmp_path / "runs").exists()
        # at the bound both accept it
        sc = load_scenario(MINIMAL_CONE.replace(
            "[[0.0, 1.0], [1.0, 0.0]]", "[[[0.0, 5.0e-15], 1.0], [1.0, 0.0]]"))
        assert build_path(sc.path, sc.coupling).coupling_A[0][0] == 5e-15j

    @pytest.mark.parametrize("solver, message", [
        ("  method: rk4_fixed\n  dt_time: 0.02\n", "rk4_fixed requires dt > 0"),
        ("  method: rk45_adaptive\n  dt_max_time: 0.5\n", "dt_max must be > 0"),
        ("  method: rk45_adaptive\n", "omega must be nonzero and finite"),
    ], ids=["rk4_dt", "rk45_dt_max", "rk45_drive"])
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_sweep_period_whose_member_fails_exit_1(self, tmp_path, capsys, solver, message,
                                                    command):
        # 5e-324 scales dt (and dt_max) to 0.0, and 2 pi / 5e-324 overflows; validate
        # checks the members in the file's sweep mode, the sweep command in its own
        text = MINIMAL_CONE.replace("  method: rk4_fixed\n  dt_time: 0.02\n", solver)
        mode = "  mode: sweep\n" if command == "validate" else ""
        fn = self.write_config(tmp_path, text + f"run:\n{mode}  sweep_periods_time: [10.0, 5.0e-324]\n")
        assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert f"run.sweep_periods_time: period 5e-324: {message}" in err
        assert "period 10.0" not in err
        assert not (tmp_path / "runs").exists()

    @staticmethod
    def assert_clean_run_directory(out):
        """Strict-JSON metadata and no inf or nan in any CSV; returns the metadata."""
        (run_dir,) = Path(out).iterdir()

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        meta = json.loads((run_dir / "metadata.json").read_text(), parse_constant=reject)
        for csv in run_dir.glob("*.csv"):
            cells = set(csv.read_text().replace("\n", ",").split(","))
            assert not cells & {"inf", "-inf", "nan"}, csv.name
        return meta

    @pytest.mark.parametrize("command, run_block", [
        ("simulate", ""),
        ("simulate", "  optimal_phase: true\n"),
        ("berry", "  berry_theta_grid_rad: [0.5, 1.0]\n  history_samples: 65\n"),
        ("sweep", "  sweep_periods_time: [1.0e-200]\n"),
    ], ids=["simulate", "optimal_phase", "berry", "sweep"])
    def test_huge_steering_rate_keeps_a_finite_alpha(self, tmp_path, capsys, command, run_block):
        # |w| ~ 1e200: the fast alpha's squares overflow, the fallback's do not
        text = MINIMAL_CONE.replace("  method: rk4_fixed\n  dt_time: 0.02\n", "")
        fn = self.write_config(tmp_path, text.replace(
            "drive_omega_rad_per_time: 0.2", "drive_omega_rad_per_time: 1.0e+200",
        ) + "run:\n" + run_block)
        assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0
        meta = self.assert_clean_run_directory(tmp_path / "runs")
        assert meta["status"] == "ok"
        assert 1e199 < meta["invariants"]["max_alpha"] < 1e201

    def test_berry_loop_at_a_huge_drive_rate_is_the_solid_angle(self, tmp_path, capsys):
        # |w_gg| ~ 1e307 at every stage: each step's dt * sum(b w_gg) is about 1, so the
        # loop's phase is the solid angle however fast the field turns
        text = MINIMAL_CONE.replace("  method: rk4_fixed\n  dt_time: 0.02\n", "").replace(
            "drive_omega_rad_per_time: 0.2", "drive_omega_rad_per_time: 1.0e+307")
        fn = self.write_config(tmp_path, text + (
            "run:\n  berry_theta_grid_rad: [1.0, 2.0]\n  history_samples: 2049\n"))
        assert main(["berry", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0
        meta = self.assert_clean_run_directory(tmp_path / "runs")
        assert meta["status"] == "ok"
        (run_dir,) = (tmp_path / "runs").iterdir()
        with open(run_dir / "berry.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            target = math.pi * (1.0 - math.cos(float(row["theta_rad"])))
            got = float(row["delta_lambda_g_mod_2pi"])
            assert abs(math.remainder(got - target, 2 * math.pi)) <= 1e-12, row

    def shipped_cone(self, tmp_path, old, new):
        """configs/cone_zero_temperature.yaml with one edit, written as the scenario."""
        text = (CONFIG_DIR / "cone_zero_temperature.yaml").read_text()
        assert old in text
        return self.write_config(tmp_path, text.replace(old, new))

    def test_tolerances_whose_scaled_error_overflows_exit_2(self, tmp_path, capsys):
        fn = self.shipped_cone(tmp_path, "rtol: 1.0e-9\n  atol: 1.0e-12",
                               "rtol: 1.0e-300\n  atol: 1.0e-300")
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 2
        message = "61 consecutive rejections at t = 0"
        assert capsys.readouterr().err == f"run failed: {message}\n"
        meta = self.assert_clean_run_directory(tmp_path / "runs")
        assert meta["status"] == f"failed: {message}"

    def test_field_beyond_the_float_range_exit_2(self, tmp_path, capsys):
        fn = self.shipped_cone(tmp_path, "field_energy: 1.0\n", "field_energy: 1.0e+300\n")
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 2
        message = "the field magnitude |b| = 1e+300 overflows the frame normalisation at t = 0"
        assert capsys.readouterr().err == f"run failed: {message}\n"
        meta = self.assert_clean_run_directory(tmp_path / "runs")
        assert meta["status"] == f"failed: {message}"

    def test_overflowing_drive_phase_exit_2(self, tmp_path, capsys):
        # omega t overflows at the first step's end, t = 2.5
        text = MINIMAL_CONE.replace(
            "drive_omega_rad_per_time: 0.2", "drive_omega_rad_per_time: 1.0e+308\n"
            "  duration_time: 10.0").replace("dt_time: 0.02", "dt_time: 2.5")
        fn = self.write_config(tmp_path, text)
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 2
        message = "the drive phase omega t = inf is not finite at t = 2.5"
        assert capsys.readouterr().err == f"run failed: {message}\n"
        meta = self.assert_clean_run_directory(tmp_path / "runs")
        assert meta["status"] == f"failed: {message}"

    @pytest.mark.parametrize("old, new", [
        ("  record_stride: 10\n", "  record_stride: 10\n  dt_max_time: 1.0e-300\n"),
        ("  method: rk45_adaptive\n  rtol: 1.0e-9\n  atol: 1.0e-12\n",
         "  method: rk4_fixed\n  dt_time: 1.0e-300\n"),
    ], ids=["rk45_dt_max", "rk4_dt"])
    def test_step_count_beyond_the_bound_exit_1(self, tmp_path, capsys, old, new):
        # about 1e302 steps: refused at load time, so validate exits 1 instead of OK
        fn = self.shipped_cone(tmp_path, old, new)
        assert main(["validate", "--config", str(fn)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario invalid:\n  - solver: dt") and "Traceback" not in err
        assert "steps, more than 10000000" in err

    @pytest.mark.parametrize("old, new, problem", [
        ("  record_stride: 10\n", "  record_stride: 10\n  t1_time: 1.0\n  dt_max_time: 1.0e-6\n",
         "solver: dt_max = 1e-06 needs 1.26e+08 steps, more than 10000000 over one Berry loop"),
        ("drive_omega_rad_per_time: 0.05\n", "drive_omega_rad_per_time: 1.0e-320\n"
         "  duration_time: 1.0\n", "solver: t1 must be finite over one Berry loop"),
    ], ids=["steps", "period"])
    def test_berry_loop_beyond_the_step_bound_exit_1(self, tmp_path, capsys, old, new, problem):
        # a loop always integrates one drive period, whatever the solver window says
        fn = self.shipped_cone(tmp_path, old, new)
        text = fn.read_text().replace("run:\n  mode: simulate\n", "run:\n  mode: simulate\n"
                                      "  berry_theta_grid_rad: [0.5]\n")
        fn.write_text(text)
        assert main(["validate", "--config", str(fn)]) == 0  # the simulate run is fine
        assert main(["berry", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert problem in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_overflowing_drive_period_with_a_window_exit_1(self, tmp_path, capsys, command):
        # solver.t1_time sets the window, but the run's cone still lasts one drive period
        fn = self.shipped_cone(tmp_path, "drive_omega_rad_per_time: 0.05\n",
                               "drive_omega_rad_per_time: 1.0e-310\n")
        text = fn.read_text().replace("  record_stride: 10\n", "  record_stride: 10\n  t1_time: 10.0\n")
        fn.write_text(text.replace("model: zero_temperature_ohmic\n  eta_coupling: 0.1\n"
                                   "  cutoff_energy: 20.0\n", "model: flat\n  s0_rate: 0.1\n"))
        assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert err == ("scenario invalid:\n  - path.drive_omega_rad_per_time: one drive period "
                       "overflows; set path.duration_time\n")
        assert not (tmp_path / "runs").exists()

    def test_window_beyond_the_float_range_exit_1(self, tmp_path, capsys):
        fn = self.shipped_cone(tmp_path, "  record_stride: 10\n",
                               "  record_stride: 10\n  t0_time: -1.7e+308\n  t1_time: 1.7e+308\n")
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "solver: t1 - t0 must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["simulate", "berry"])
    def test_alpha_beyond_the_float_range_exit_2(self, tmp_path, capsys, command):
        # alpha ~ omega / field_energy ~ 1e313
        text = MINIMAL_CONE.replace("  method: rk4_fixed\n  dt_time: 0.02\n", "").replace(
            "field_energy: 1.0", "field_energy: 1.0e-8").replace(
            "drive_omega_rad_per_time: 0.2", "drive_omega_rad_per_time: 1.0e+305")
        fn = self.write_config(tmp_path, text + "run:\n  berry_theta_grid_rad: [1.0]\n")
        assert main([command, "--config", str(fn), "--out", str(tmp_path / "runs")]) == 2
        message = "the local adiabatic parameter alpha overflows at t = 0"
        assert capsys.readouterr().err.startswith(f"run failed: {message}")
        meta = self.assert_clean_run_directory(tmp_path / "runs")
        assert meta["status"] == f"failed: {message}"
