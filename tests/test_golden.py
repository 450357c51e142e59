"""A fresh run of golden.py's set against the committed manifest, tests/golden.json."""

import copy

import pytest

import golden


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden.collect(tmp_path_factory.mktemp("golden"))


def test_fresh_run_matches_the_manifest(fresh):
    mode, problems = golden.compare(golden.load(), fresh)
    print(f"[golden] {golden.describe(mode)}")
    assert not problems, f"{golden.describe(mode)}; regenerate with python tests/golden.py --write " \
                         f"only for a declared numerics change:\n" + "\n".join(problems)


def test_another_platform_compares_values(fresh):
    manifest = copy.deepcopy(golden.load())
    manifest["platform"]["machine"] = "elsewhere"
    assert golden.compare(manifest, fresh)[0] == "values"
    assert golden.compare(fresh, fresh) == ("hashes", [])
    assert golden.compare({**fresh, "platform": manifest["platform"]}, fresh) == ("values", [])


def test_a_changed_output_fails_in_both_modes(fresh):
    changed = copy.deepcopy(fresh)
    files = changed["runs"]["configs/cone_zero_temperature"]["files"]["trajectory.csv"]
    files["sha256"] = "0" * 64
    t, rho_gg, *rest = files["rows"][-1].split(",")
    files["rows"][-1] = ",".join([t, repr(float(rho_gg) * (1 + 1e-11)), *rest])
    changed["runs"]["configs/berry_sweep"]["scenario_hash"] = "000000000000"
    del changed["runs"]["rk4_cone"]
    for platform in (fresh["platform"], {**fresh["platform"], "python": "0.0"}):
        mode, problems = golden.compare({**changed, "platform": platform}, fresh)
        assert problems[0].startswith("configs/berry_sweep: scenario hash")
        assert problems[1].startswith("configs/cone_zero_temperature/trajectory.csv: ")
        assert problems[2] == "rk4_cone: not in the manifest"
        assert len(problems) == 3, (mode, problems)
