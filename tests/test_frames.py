"""The linear-order superadiabatic density map, dynamics.to_superadiabatic."""

import numpy as np
import pytest

import qsteer as q

from conftest import random_frame, random_state


def make_frame(omega01=1.0, w_gg=0.0, w_ee=0.0, w_ge=0j, m1=0.0, m2=1.0):
    return q.AdiabaticFrame(
        t=0.0, omega01=omega01, w_gg=w_gg, w_ee=w_ee, w_ge=complex(w_ge),
        m1=m1, m2=complex(m2), alpha=q.hs_norm(w_gg, w_ee, w_ge) / omega01,
    )


def exact_basis_change_oracle(rho_gg, rho_ge, frame):
    """Density components in the exactly normalized corrected basis."""
    x = frame.w_ge / frame.omega01
    g2 = np.array([1.0, -np.conj(x)])
    e2 = np.array([x, 1.0])
    g2 = g2 / np.linalg.norm(g2)
    e2 = e2 / np.linalg.norm(e2)
    rho = np.array(
        [[rho_gg, rho_ge], [np.conj(rho_ge), 1.0 - rho_gg]], dtype=complex
    )
    return (g2.conj() @ rho @ g2).real, g2.conj() @ rho @ e2


class TestDensityMaps:
    def test_identity_at_zero_w(self):
        assert q.to_superadiabatic(0.7, 0.1 + 0.2j, make_frame()) == (0.7, 0.1 + 0.2j)

    def test_ground_state_acquires_coherence(self):
        gg2, ge2 = q.to_superadiabatic(1.0, 0j, make_frame(w_ge=0.05))
        assert gg2 == 1.0
        assert ge2 == pytest.approx(0.05)

    def test_imaginary_w_case(self):
        gg2, ge2 = q.to_superadiabatic(0.5, 0.1, make_frame(w_ge=0.05j))
        assert gg2 == pytest.approx(0.5)
        assert ge2 == pytest.approx(0.1)

    def test_matches_exact_change_of_basis_to_second_order(self, rng):
        for _ in range(100):
            f = random_frame(rng)
            s = random_state(rng)
            got = q.to_superadiabatic(s.rho_gg, s.rho_ge, f)
            ref = exact_basis_change_oracle(s.rho_gg, s.rho_ge, f)
            bound = 6 * f.alpha**2 + 1e-14
            assert abs(got[0] - ref[0]) < bound
            assert abs(got[1] - ref[1]) < bound

    def test_gap_collapse(self):
        bad = q.AdiabaticFrame(0.0, 0.0, 0.0, 0.0, 0j, 0.0, 1.0, 0.0)
        with pytest.raises(q.GapCollapse):
            q.to_superadiabatic(1.0, 0j, bad)
