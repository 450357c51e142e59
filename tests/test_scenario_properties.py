"""Property tests: a mutated scenario either loads or fails with a scenario error.

Each leaf value of a valid scenario is replaced by a value of the wrong type,
a non-finite or huge number, or a string spelling a boolean. ``load_scenario``
must then raise ParseError or ValidationError naming the mutated section, or
load a scenario; it never raises anything else. The run flags must stay
YAML booleans. A section replaced by a value that is not a mapping, and an
unknown key in any section or at top level, are named in the problems.
"""

import copy
import itertools
import math

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsteer as q
from qsteer.cli import load_scenario

VALID = {
    "path": {
        "kind": "rotating_cone",
        "field_energy": 1.0,
        "theta_rad": 1.0,
        "drive_omega_rad_per_time": 0.2,
    },
    "coupling": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
    "bath": {"model": "flat", "s0_rate": 0.1},
    "initial": {"rho_gg": 0.9, "rho_ge": [0.1, 0.0]},
    "solver": {"method": "rk4_fixed", "dt_time": 0.02, "record_stride": 50},
    "run": {"mode": "simulate", "optimal_phase": False, "spectral_shift": False},
}

# run.spectral_shift stays in VALID: the deleted option still accepts false
FLAGS = {("run", "optimal_phase")}

# Between them these carry every number field of the schema.
NUMERIC = {
    "cone": {
        "path": {
            "kind": "rotating_cone",
            "field_energy": 1.0,
            "theta_rad": 1.0,
            "drive_omega_rad_per_time": 0.2,
            "duration_time": 30.0,
        },
        "coupling": {"matrix": [[0.3, 1.0], [1.0, -0.3]]},
        "bath": {
            "model": "ohmic_thermal",
            "eta_coupling": 0.1,
            "temperature_energy": 0.5,
            "cutoff_energy": 20.0,
        },
        "initial": {"rho_gg": 0.9, "rho_ge": [0.1, 0.0]},
        "solver": {
            "method": "rk45_adaptive",
            "rtol": 1e-9,
            "atol": 1e-12,
            "dt_max_time": 1.0,
            "t0_time": 0.5,
            "t1_time": 30.0,
            "record_stride": 10,
        },
        "run": {
            "history_samples": 257,
            "sweep_periods_time": [20.0, 40.0],
            "berry_theta_grid_rad": [0.5, 1.0],
        },
    },
    "sweep": {
        "path": {
            "kind": "linear_sweep",
            "slope_energy_per_time": 0.5,
            "gap_energy": 0.4,
            "duration_time": 10.0,
        },
        "coupling": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "bath": {"model": "zero_temperature_ohmic", "eta_coupling": 0.1, "cutoff_energy": 20.0},
        "initial": {"rho_gg": 1, "rho_ge": 0.0},
        "solver": {"method": "rk4_fixed", "dt_time": 0.02},
    },
    "sampled": {
        "path": {"kind": "sampled", "csv_file": "path.csv", "duration_time": 5.0},
        "coupling": {"matrix": [[0.0, 1.0], [1.0, 0.0]]},
        "bath": {"model": "flat", "s0_rate": 0.1},
    },
}


def leaves(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def mutated(where, value, base=VALID):
    data = copy.deepcopy(base)
    node = data
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return yaml.safe_dump(data)


HUGE = [1.0e308, -1.0e308, 10**400, -(10**400), 5e-324]
BOOLEAN_WORDS = ["false", "true", "no", "yes", "off", "on", "0", "1"]

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(HUGE),
    st.sampled_from(BOOLEAN_WORDS),
    st.text(max_size=6),
    st.lists(st.one_of(st.floats(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def value_at(data, where):
    for key in where:
        data = data[key]
    return data


@pytest.mark.parametrize("section", list(VALID))
@pytest.mark.parametrize("value", ["text", [1.0, 2.0], 5], ids=["string", "list", "number"])
def test_section_that_is_not_a_mapping_names_it(section, value):
    with pytest.raises(q.ValidationError) as exc:
        load_scenario(mutated((section,), value))
    assert f"{section}: expected a mapping" in exc.value.problems, exc.value.problems


@pytest.mark.parametrize("where", [(section, "typo_key") for section in VALID] + [("typo_section",)],
                         ids=lambda w: ".".join(w))
def test_unknown_key_names_it(where):
    with pytest.raises(q.ValidationError) as exc:
        load_scenario(mutated(where, 1.0))
    unknown = "unknown key" if len(where) == 2 else "unknown section"
    assert f"{'.'.join(where)}: {unknown}" in exc.value.problems, exc.value.problems


def test_leaves_cover_the_scenario():
    assert len(list(leaves(VALID))) == 19
    for data in (VALID, *NUMERIC.values()):
        assert isinstance(load_scenario(yaml.safe_dump(data)), q.cli.Scenario)


NUMBER_LEAVES = [
    pytest.param(name, where, id=f"{name}-" + ".".join(map(str, where)))
    for name, data in NUMERIC.items()
    for where in leaves(data)
    if isinstance(value_at(data, where), (int, float))
]


@pytest.mark.parametrize("name, where", NUMBER_LEAVES)
def test_boolean_is_not_a_number(name, where):
    key = ".".join(itertools.takewhile(lambda k: isinstance(k, str), where))
    with pytest.raises(q.ValidationError) as exc:
        load_scenario(mutated(where, True, NUMERIC[name]))
    assert any(p.startswith(key) for p in exc.value.problems), exc.value.problems


@pytest.mark.parametrize("name, where", NUMBER_LEAVES)
def test_quoted_number_is_not_a_number(name, where):
    key = ".".join(itertools.takewhile(lambda k: isinstance(k, str), where))
    quoted = str(value_at(NUMERIC[name], where))
    with pytest.raises(q.ValidationError) as exc:
        load_scenario(mutated(where, quoted, NUMERIC[name]))
    assert any(p.startswith(key) for p in exc.value.problems), exc.value.problems


@pytest.mark.parametrize("where", list(leaves(VALID)), ids=lambda w: ".".join(map(str, w)))
@settings(max_examples=40, deadline=None)
@given(value=values)
@example(value=1.0e308)
@example(value=10**400)
@example(value=math.nan)
@example(value="false")
@example(value=[1.0e308, 1.0e308])
@example(value=[1.3e308, 1.3e308])
def test_mutated_value_loads_or_names_its_section(where, value):
    try:
        sc = load_scenario(mutated(where, value))
    except q.ParseError:
        return
    except q.ValidationError as exc:
        assert any(p.startswith(str(where[0])) for p in exc.problems), exc.problems
        return
    if where in FLAGS:
        assert getattr(sc, where[1]) is value
