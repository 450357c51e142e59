"""Self-tests of the benchmark itself: python3 -m pytest perfbench -q (from the repo root)."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

cli = run._import_program()

import reference  # noqa: E402  (imports qsteer, which _import_program put on the path)
import tracing  # noqa: E402

# positivity is reported, never clamped: purity warnings are expected output
pytestmark = pytest.mark.filterwarnings("ignore:purity exceeded:RuntimeWarning")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert first != workloads.generate(name, 8)
    for member in first:
        cli.load_scenario(member.text)


def test_seed_does_not_change_the_amount_of_integration():
    def simulated_time(members):
        return sum(sum(m.params.get("periods", [m.params.get("period", 0.0)])) for m in members)

    for name in ("cone_steer", "param_grid", "compare_thermal"):
        totals = {round(simulated_time(workloads.generate(name, s)), 9) for s in range(5)}
        assert len(totals) == 1, name


def _session(tmp_path, members):
    return run.Session(cli, members, tmp_path / "work")


def test_final_state_perturbed_by_1e_6_counts_as_failed(tmp_path):
    member = next(m for m in workloads.generate("cone_steer", 5) if m.name == "sweep0")
    session = _session(tmp_path, [member])
    session.run()
    session.run()
    files = session._first[0]
    assert reference.check(member.params, files) < reference.FINAL_TOL
    lines = files["trajectory.csv"].splitlines()
    last = lines[-1].split(",")
    last[1] = repr(float(last[1]) + 1e-6)
    files["trajectory.csv"] = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
    session.check()
    assert session.attempted == 1 and session.failed == 1
    assert "final-state error" in session.failures[member.name]


def test_span_counts_repeat_across_traced_runs(tmp_path):
    members = workloads.generate("compare_thermal", 3)[:1]
    counts = []
    for i in range(2):
        session = _session(tmp_path / str(i), members)
        metrics = run.per_layer(session, 0.0, tmp_path / f"spans{i}.npz")
        assert session.consistent and not session.failures
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["dynamics.rhs_secular.calls"] > 0
    assert counts[0]["dynamics.rhs_nonsteered.calls"] > 0
    assert counts[0]["bath.rates.calls"] > 0


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(cli, "phase_shifted_frame")
    tracer = tracing.Tracer()
    assert "qsteer.cli.phase_shifted_frame" in tracer.absent
    summary = tracer.summary()
    assert summary["gauge.phase_shifted_frame.calls"] == 0
    assert summary["gauge.phase_shifted_frame.us"] == 0.0


def test_berry_check_rejects_a_wrong_phase(tmp_path):
    member = workloads.generate("param_grid", 2)[1]
    session = _session(tmp_path, [member])
    session.run()
    files = session._first[0]
    assert reference.check(member.params, files) == 0.0
    rows = files["berry.csv"].splitlines()
    cells = rows[1].split(",")
    cells[3] = repr(float(cells[3]) + 1e-6)
    files["berry.csv"] = "\n".join([rows[0], ",".join(cells)] + rows[2:]) + "\n"
    with pytest.raises(reference.CheckFailed):
        reference.check(member.params, files)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "cone_steer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
