"""The experiment scripts run end to end with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("berry_sweep.py", ["--samples", "65"],
     "theta_rad,delta_lambda_g,delta_lambda_e,solid_angle_reference"),
    ("period_sweep.py", ["--base-period", "20", "--doublings", "2"],
     "period_time,alpha,max_excited_population,max_positivity_violation"),
    ("secular_comparison.py", ["--omega", "0.5"],
     "variant,final_rho_gg,max_excited_population"),
], ids=["berry_sweep", "period_sweep", "secular_comparison"])
def test_script_writes_its_csv(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--out", str(out)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1
