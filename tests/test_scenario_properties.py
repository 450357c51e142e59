"""Property tests: a mutated scenario either loads or fails with a scenario error.

Each leaf value of a valid scenario is replaced by a value of the wrong type,
a non-finite or huge number, or a string spelling a boolean. ``load_scenario``
must then raise ParseError or ValidationError naming the mutated section, or
load a scenario; it never raises anything else. The run flags must stay
YAML booleans.
"""

import copy
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

FLAGS = {("run", "optimal_phase"), ("run", "spectral_shift")}


def leaves(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def mutated(where, value):
    data = copy.deepcopy(VALID)
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


def test_leaves_cover_the_scenario():
    assert len(list(leaves(VALID))) == 19
    assert isinstance(load_scenario(yaml.safe_dump(VALID)), q.cli.Scenario)


@pytest.mark.parametrize("where", list(leaves(VALID)), ids=lambda w: ".".join(map(str, w)))
@settings(max_examples=40, deadline=None)
@given(value=values)
@example(value=1.0e308)
@example(value=10**400)
@example(value=math.nan)
@example(value="false")
@example(value=[1.0e308, 1.0e308])
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
