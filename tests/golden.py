"""The golden output manifest: every output of a fixed set of runs, pinned in tests/golden.json.

Run from the repository root:

    python tests/golden.py            # compare a fresh run with tests/golden.json
    python tests/golden.py --write    # regenerate tests/golden.json

The set: the five shipped configs; the shipped cone with ``rk4_fixed`` at
``dt_time`` 0.05, as CI runs it, with and without ``optimal_phase``; the
shipped cone tabulated at 401 samples over its one period and run as a
sampled path, as CI runs it; a nodding cone, theta(t) = theta + 0.3
sin(2 omega t), sampled the same way and run with ``rk4_fixed`` at
``dt_time`` 0.05 and ``optimal_phase``, whose varying w diagonals pin the
order of RK4's phase sums (a cone's anchored w diagonals are constant, and
a linear sweep's are zero); the shipped Landau-Zener sweep in compare mode
with its spectrum tabulated, as CI writes a tabulated spectrum, on 801 knots
over [-4, 4], so every stage's gap is interpolated; and every member of the four perfbench
workloads at seed 101, generated by ``perfbench/workloads.py``, read-only.

For each run the manifest records its scenario hash, each CSV's SHA-256 and
the rows a cross-platform check reads (a trajectory's final row, every row of
a summary table), and the ``solver_work`` and ``invariants`` of its
``metadata.json``. It also records the platform the outputs were made on:
Python, machine, libc, and the numpy and scipy that sampled paths run on.

:func:`compare` checks a fresh run against it. On the recorded platform it
compares the hashes, ``solver_work`` and invariants exactly. On any other it
compares each compared row's numbers and each invariant to 1e-12 relative
(absolute below 1), and the rest as text; step counts are not compared
there. Scenario hashes and file names are compared in both modes.

A numerics change regenerates the manifest; its diff is the declared change.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # run as a script: use this checkout's source tree
    sys.path.insert(0, str(ROOT / "src"))

import qsteer as q  # noqa: E402
from qsteer import cli  # noqa: E402

MANIFEST = Path(__file__).with_name("golden.json")
CONFIGS = ("cone_zero_temperature", "cone_thermal_compare", "landau_zener", "period_sweep",
           "berry_sweep")
SEED = 101
TOL = 1e-12


def _workloads():
    """perfbench/workloads.py as a module, imported from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("_golden_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def _shipped(name) -> dict:
    return yaml.safe_load((ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8"))


def _sampled(d, fields, work_dir: Path, csv_name) -> str:
    """Scenario ``d`` on a sampled path: ``fields(t)`` at 401 points over one period of its cone."""
    period = 2 * math.pi / d["path"]["drive_omega_rad_per_time"]
    with open(work_dir / csv_name, "w") as fh:
        fh.write("t,b_x,b_y,b_z\n")
        for i in range(401):
            t = period * i / 400
            fh.write(",".join(repr(x) for x in (t, *fields(t))) + "\n")
    # a relative file name, read from work_dir, so the scenario hash holds no temporary path
    d["path"] = {"kind": "sampled", "csv_file": csv_name, "duration_time": period}
    return yaml.safe_dump(d)


def _texts(work_dir: Path) -> dict:
    """{run name: scenario YAML text} for the whole set; writes its data files to work_dir."""
    texts = {f"configs/{name}": (ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8")
             for name in CONFIGS}
    rk4 = _shipped("cone_zero_temperature")
    rk4["solver"] = {"method": "rk4_fixed", "dt_time": 0.05,
                     "record_stride": rk4["solver"]["record_stride"]}
    for name, optimal_phase in (("rk4_cone", False), ("rk4_cone_optimal_phase", True)):
        rk4["run"]["optimal_phase"] = optimal_phase
        texts[name] = yaml.safe_dump(rk4)
    d = _shipped("cone_zero_temperature")
    p = d["path"]
    field, theta, omega = p["field_energy"], p["theta_rad"], p["drive_omega_rad_per_time"]
    cone = q.rotating_cone(field, theta, omega, d["coupling"]["matrix"])
    texts["sampled_cone"] = _sampled(d, lambda t: cone.fields(t)[0], work_dir, "cone_samples.csv")

    def nodding(t):  # theta(t) = theta + 0.3 sin(2 omega t), so the w diagonals vary
        nod = theta + 0.3 * math.sin(2 * omega * t)
        return (field * math.sin(nod) * math.cos(omega * t), field * math.sin(nod) * math.sin(omega * t),
                field * math.cos(nod))

    rk4["run"]["optimal_phase"] = True
    texts["rk4_nodding_cone_optimal_phase"] = _sampled(rk4, nodding, work_dir, "nodding_samples.csv")
    lz = _shipped("landau_zener")
    b = lz["bath"]
    sd = q.zero_temperature_ohmic(b["eta_coupling"], b["cutoff_energy"])
    with open(work_dir / "lz_spectrum.csv", "w") as fh:
        fh.write("omega,S\n")
        for i in range(801):
            omega = -4.0 + i / 100
            fh.write(f"{omega!r},{sd._formula(omega)!r}\n")
    lz["bath"] = {"model": "tabulated", "csv_file": "lz_spectrum.csv"}
    lz["run"]["mode"] = "compare"
    texts["landau_zener_tabulated_compare"] = yaml.safe_dump(lz)
    workloads = _workloads()
    for workload in workloads.WORKLOADS:
        for member in workloads.generate(workload, SEED):
            texts[f"{workload}/{member.name}"] = member.text
    return texts


def platform_id() -> dict:
    """What the outputs' bits may depend on beyond the program itself."""
    libc, libc_version = platform.libc_ver()
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "libc": f"{libc} {libc_version}".strip(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def collect(work_dir) -> dict:
    """Run the whole set in ``work_dir`` and return its manifest."""
    work_dir = Path(work_dir).resolve()
    runs = {}
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        for name, text in _texts(work_dir).items():
            with warnings.catch_warnings():  # a purity excess is recorded in the invariants
                warnings.simplefilter("ignore", RuntimeWarning)
                art = cli.run(cli.load_scenario(text), out_dir=work_dir / "runs")
            meta = art.metadata
            files = {}
            for f in meta["files"]:
                data = (art.run_dir / f).read_bytes()
                lines = data.decode().splitlines()
                # a trajectory has solver work under its own name; a summary table has none
                rows = lines[-1:] if f in meta["solver_work"] else lines[1:]
                files[f] = {"sha256": hashlib.sha256(data).hexdigest(), "rows": rows}
            runs[name] = {"scenario_hash": meta["scenario_hash"], "files": files,
                          "solver_work": meta["solver_work"], "invariants": meta["invariants"]}
    finally:
        os.chdir(cwd)
    return {"platform": platform_id(), "runs": runs}


def _close(got, want) -> bool:
    """Equal numbers to TOL relative (absolute below 1), NaN equal to NaN."""
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=TOL, abs_tol=TOL)


def _cells_match(got_row: str, want_row: str) -> bool:
    got, want = got_row.split(","), want_row.split(",")
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        try:
            ok = _close(float(g), float(w))
        except ValueError:  # a text cell, such as a sweep member's file name
            ok = g == w
        if not ok:
            return False
    return True


def compare(manifest: dict, fresh: dict) -> tuple:
    """(mode, problems) of ``fresh`` against ``manifest``; mode is "hashes" or "values"."""
    mode = "hashes" if fresh["platform"] == manifest["platform"] else "values"
    want_runs, got_runs = manifest["runs"], fresh["runs"]
    problems = [f"{name}: missing from the fresh run" for name in want_runs if name not in got_runs]
    problems += [f"{name}: not in the manifest" for name in got_runs if name not in want_runs]
    for name in want_runs.keys() & got_runs.keys():
        want, got = want_runs[name], got_runs[name]
        if got["scenario_hash"] != want["scenario_hash"]:
            problems.append(f"{name}: scenario hash {got['scenario_hash']} != {want['scenario_hash']}")
        if sorted(got["files"]) != sorted(want["files"]):
            problems.append(f"{name}: files {sorted(got['files'])} != {sorted(want['files'])}")
            continue
        for f, w in want["files"].items():
            g = got["files"][f]
            if mode == "hashes":
                if g["sha256"] != w["sha256"]:
                    problems.append(f"{name}/{f}: SHA-256 differs")
            elif len(g["rows"]) != len(w["rows"]) or not all(
                    _cells_match(gr, wr) for gr, wr in zip(g["rows"], w["rows"])):
                problems.append(f"{name}/{f}: rows differ beyond {TOL:g} relative")
        if mode == "hashes":
            for key in ("solver_work", "invariants"):
                if got[key] != want[key]:
                    problems.append(f"{name}: {key} {got[key]} != {want[key]}")
        elif got["invariants"].keys() != want["invariants"].keys() or not all(
                _close(got["invariants"][k], v) for k, v in want["invariants"].items()):
            problems.append(f"{name}: invariants {got['invariants']} differ from {want['invariants']}")
    return mode, sorted(problems)


def describe(mode: str) -> str:
    if mode == "hashes":
        return "compared SHA-256 hashes, solver work and invariants exactly (the recorded platform)"
    return (f"compared final rows, summary values and invariants to {TOL:g} relative "
            "(another platform than the recorded one)")


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate tests/golden.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        fresh = collect(tmp)
    if args.write:
        MANIFEST.write_text(json.dumps(fresh, indent=1, sort_keys=True, allow_nan=False) + "\n",
                            encoding="utf-8")
        print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(fresh['runs'])} runs")
        return 0
    mode, problems = compare(load(), fresh)
    print(describe(mode))
    for problem in problems:
        print(f"  - {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
