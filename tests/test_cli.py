import cmath
import json
import math

import pytest

import qsteer as q
from qsteer.cli import build_path, load_scenario, main, run

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


class TestLoadScenario:
    def test_minimal_cone_defaults(self):
        sc = load_scenario(MINIMAL_CONE)
        assert sc.mode == "simulate"
        assert sc.solver.t0 == 0.0
        assert sc.solver.t1 == pytest.approx(2 * math.pi / 0.2)
        assert sc.initial_rho_gg == 1.0
        assert sc.initial_rho_ge == 0j
        assert not sc.optimal_phase
        assert sc.path.duration == pytest.approx(2 * math.pi / 0.2)

    def test_negative_temperature_names_field(self):
        text = MINIMAL_CONE.replace(
            "model: flat\n  s0_rate: 0.1",
            "model: ohmic_thermal\n  eta_coupling: 0.5\n  temperature_energy: -1.0",
        )
        with pytest.raises(q.ValidationError) as exc:
            load_scenario(text)
        assert any("bath.temperature_energy" in p for p in exc.value.problems)

    def test_sweep_derives_sub_scenarios(self):
        text = MINIMAL_CONE + (
            "run:\n  mode: sweep\n  sweep_periods_time: [10, 20, 30, 40, 50, 60, 70, 80]\n"
        )
        sc = load_scenario(text)
        subs = sc.sub_scenarios()
        assert len(subs) == 8
        for sub, period in zip(subs, (10, 20, 30, 40, 50, 60, 70, 80)):
            assert sub.mode == "simulate"
            assert sub.solver.t1 == pytest.approx(period)
            assert sub.path.drive_omega_rad_per_time == pytest.approx(2 * math.pi / period)

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
        assert sc.solver.t1 == 5.0 and sc.path.duration is None

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


class TestRun:
    def test_simulate_artifacts(self, tmp_path):
        sc = load_scenario(MINIMAL_CONE)
        art = run(sc, out_dir=tmp_path / "runs", seed=7)
        assert (art.run_dir / "trajectory.csv").exists()
        meta = json.loads((art.run_dir / "metadata.json").read_text())
        assert meta["status"] == "ok"
        assert meta["seed"] == 7
        assert meta["invariants"]["trace_residual"] == 0.0
        assert "max_positivity_violation" in meta["invariants"]
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

    def test_sweep_parallel_matches_serial(self, tmp_path):
        text = MINIMAL_CONE + "run:\n  mode: sweep\n  sweep_periods_time: [20, 40]\n"
        sc = load_scenario(text)
        a = run(sc, out_dir=tmp_path / "serial", jobs=1)
        b = run(sc, out_dir=tmp_path / "parallel", jobs=2)
        assert (a.run_dir / "summary.csv").read_bytes() == (b.run_dir / "summary.csv").read_bytes()
        assert (a.run_dir / "period_001.csv").read_bytes() == (
            b.run_dir / "period_001.csv"
        ).read_bytes()

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
            return sc, text, [line.split(",") for line in text.splitlines()[1:]]

        _, _, plain = trajectory("plain", "run:\n  optimal_phase: false\n")
        sc, opt_text, opt = trajectory("opt", "run:\n  optimal_phase: true\n")
        _, shifted_text, _ = trajectory(
            "opt_shift", "run:\n  optimal_phase: true\n  spectral_shift: true\n"
        )
        assert shifted_text == opt_text

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

        schedule = q.optimal_schedule(q.sample_history(path, 0.0, sc.solver.t1, 4097))
        assert float(opt[-1][7]) == pytest.approx(schedule.lambda_g_values[-1], abs=1e-8)
        assert float(opt[-1][8]) == pytest.approx(schedule.lambda_e_values[-1], abs=1e-8)

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
        # tabulated spectrum too narrow for the gap: OutOfRange mid-run
        spec = tmp_path / "spec.csv"
        spec.write_text("-0.5,0.1\n0.5,0.1\n")
        text = MINIMAL_CONE.replace(
            "model: flat\n  s0_rate: 0.1", f"model: tabulated\n  csv_file: {spec}"
        )
        with pytest.raises(q.OutOfRange):
            run(load_scenario(text), out_dir=tmp_path / "runs")
        run_dir = next((tmp_path / "runs").iterdir())
        meta = json.loads((run_dir / "metadata.json").read_text())
        assert meta["status"].startswith("failed")


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

    def test_sampled_path_without_duration_exit_1(self, tmp_path, capsys):
        fn = self.write_config(tmp_path, SAMPLED_WITHOUT_DURATION)
        assert main(["simulate", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
        assert "solver.t1_time" in capsys.readouterr().err

    def test_missing_config_exit_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.yaml")]) == 1

    def test_subcommand_overrides_mode(self, tmp_path):
        fn = self.write_config(
            tmp_path, MINIMAL_CONE + "run:\n  mode: simulate\n  sweep_periods_time: [20, 40]\n"
        )
        assert main(["sweep", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 0
        run_dir = next((tmp_path / "runs").iterdir())
        assert (run_dir / "summary.csv").exists()

    def test_sweep_without_periods_exit_1(self, tmp_path):
        fn = self.write_config(tmp_path)
        assert main(["sweep", "--config", str(fn), "--out", str(tmp_path / "runs")]) == 1
