"""Shared fixtures and independent oracle helpers.

The oracles here never call the code paths they check: cone eigenvectors are
written in closed form in the textbook gauge, w elements come from numerical
differentiation of those closed forms, and linear-algebra references use
numpy/scipy directly.
"""

import math

import numpy as np
import pytest

import qsteer as q

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def hamiltonian(b):
    """H = (1/2) b . sigma."""
    return 0.5 * (b[0] * SX + b[1] * SY + b[2] * SZ)


def cone_field(Omega, theta, omega, t):
    return np.array(
        [
            Omega * math.sin(theta) * math.cos(omega * t),
            Omega * math.sin(theta) * math.sin(omega * t),
            Omega * math.cos(theta),
        ]
    )


def cone_states(theta, omega, t):
    """Closed-form cone eigenvectors in the standard gauge.

    excited = (cos(theta/2), e^{i phi} sin(theta/2)),
    ground  = (-e^{-i phi} sin(theta/2), cos(theta/2)), phi = omega t.
    """
    phi = omega * t
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = np.array([c, s * np.exp(1j * phi)])
    g = np.array([-s * np.exp(-1j * phi), c])
    return g, e


def numdiff_w(statefun, t, h=1e-6):
    """w elements by central differences of an arbitrary smooth state family.

    ``statefun(t)`` returns (ground, excited); any gauge is allowed, the
    result describes that gauge.
    """
    gm, em = statefun(t - h)
    g0, e0 = statefun(t)
    gp, ep = statefun(t + h)
    dg = (gp - gm) / (2 * h)
    de = (ep - em) / (2 * h)
    w_gg = (-1j * (g0.conj() @ dg)).real
    w_ee = (-1j * (e0.conj() @ de)).real
    w_ge = -1j * (g0.conj() @ de)
    return w_gg, w_ee, w_ge


def steady_state_oracle(rates, omega01):
    """Fixed point of the non-steered generator by a direct 3x3 linear solve."""
    r = rates
    c = r.gamma_alpha + r.gamma_beta
    M = np.array(
        [
            [-(r.gamma_ge + r.gamma_eg), r.gamma_tilde0.real, -r.gamma_tilde0.imag],
            [
                -(r.gamma_tilde_plus + r.gamma_tilde_minus).real,
                -(r.gamma_eg + r.gamma_ge) / 2 - r.gamma_phi + c.real,
                -omega01 + c.imag,
            ],
            [
                -(r.gamma_tilde_plus + r.gamma_tilde_minus).imag,
                omega01 + c.imag,
                -(r.gamma_eg + r.gamma_ge) / 2 - r.gamma_phi - c.real,
            ],
        ]
    )
    rhs = -np.array([r.gamma_eg, r.gamma_tilde_plus.real, r.gamma_tilde_plus.imag])
    sol = np.linalg.solve(M, rhs)
    return sol[0], complex(sol[1], sol[2])


@pytest.fixture
def cone_path():
    """Reference steered scenario: cone at theta = pi/3, drive rate 0.05, A = sigma_x."""
    return q.rotating_cone(1.0, math.pi / 3, 0.05, SX)


@pytest.fixture
def rng():
    return np.random.default_rng(718281828)


def random_frame(rng, with_w=True, alpha_scale=0.05):
    omega01 = rng.uniform(0.5, 2.5)
    if with_w:
        w_gg = alpha_scale * omega01 * rng.uniform(-0.5, 0.5)
        w_ee = alpha_scale * omega01 * rng.uniform(-0.5, 0.5)
        w_ge = alpha_scale * omega01 * complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    else:
        w_gg = w_ee = 0.0
        w_ge = 0j
    m1 = rng.uniform(-1.5, 1.5)
    m2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
    return q.AdiabaticFrame(omega01=omega01, w_gg=w_gg, w_ee=w_ee, w_ge=w_ge, m1=m1, m2=m2)


def random_state(rng):
    rho_gg = rng.uniform(0.05, 0.95)
    cap = math.sqrt(rho_gg * (1 - rho_gg))
    mag = rng.uniform(0.0, cap)
    phase = rng.uniform(0, 2 * math.pi)
    return q.DensityState(rho_gg, mag * complex(math.cos(phase), math.sin(phase)))
