"""The experiment scripts and the README's library sketch run end to end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd):
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


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
    done = run_python([str(ROOT / "scripts" / script), *args, "--out", str(out)], tmp_path)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_readme_library_sketch_runs(tmp_path):
    # documented API cannot name a function the library no longer has
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    done = run_python(["-c", blocks[0]], tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 2
