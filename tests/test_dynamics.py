import io
import itertools
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import qsteer as q
from qsteer.control import _closed_form
from qsteer.dynamics import (_MAX_STEPS, _METHODS, TOL_POSITIVITY, TrajectorySample, _frozen_affine,
                             _rhs_full, _tableau, integrate)
from qsteer.errors import GAP_FLOOR

import superadiabatic_reference as sa
from conftest import SX, SZ, clock_frame, random_frame, random_state, static_frame, steady_state_oracle
from stepper_reference import integrate_dp5, integrate_rk4
from test_control import eig, field_bits, kernel_path, static_path

ROOT = Path(__file__).resolve().parent.parent


def spectra_stub(s_plus, s_minus, s_zero, omega01):
    return q.tabulated(
        [-omega01, 0.0, omega01], [s_minus, s_zero, s_plus]
    )


def zero_w_frame(m1, m2, omega01):
    return q.AdiabaticFrame(omega01, 0.0, 0.0, 0j, m1, complex(m2))


class TestDensityState:
    @pytest.mark.parametrize(
        "state,expected",
        [
            (q.DensityState(1.0, 0j), 1.0),
            (q.DensityState(0.5, 0j), 0.5),
            (q.DensityState(0.5, 0.5), 1.0),
        ],
    )
    def test_purity(self, state, expected):
        # the purity integrate records at t0, here under a zero generator
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=1.0)
        traj = q.integrate(lambda g, r, i, f: (0.0, 0.0, 0.0), state, cfg, static_frame)
        assert traj.samples[0].purity == pytest.approx(expected)


class TestRhsNonsteered:
    def test_pure_precession(self):
        r = q.rates(0.0, 0.0, 1.0, q.flat(0.0))
        dgg, dge = q.rhs_nonsteered(q.DensityState(0.5, 1.0), r, 2.0)
        assert dgg == 0.0
        assert dge == 2.0j

    def test_population_drift_flat_bath(self):
        r = q.rates(0.0, 1.0, 1.0, q.flat(1.0))
        dgg, _ = q.rhs_nonsteered(q.DensityState(2 / 3, 0j), r, 1.0)
        assert dgg == pytest.approx(-1 / 3)

    def test_fixed_point_matches_linear_solve(self):
        r = q.rates(0.0, 1.0, 1.0, spectra_stub(2.0, 1.0, 0.7, 1.0))
        gg_star, ge_star = steady_state_oracle(r, 1.0)
        assert gg_star == pytest.approx(2 / 3, abs=1e-12)
        assert abs(ge_star) < 1e-12
        dgg, dge = q.rhs_nonsteered(q.DensityState(gg_star, ge_star), r, 1.0)
        assert abs(dgg) < 1e-12
        assert abs(dge) < 1e-12

    def test_real_population_derivative(self, rng):
        for _ in range(50):
            f = random_frame(rng, with_w=False)
            r = q.rates(f.m1, f.m2, f.omega01, q.ohmic_thermal(0.5, 1.0, 20.0))
            dgg, _ = q.rhs_nonsteered(random_state(rng), r, f.omega01)
            assert isinstance(dgg, float)


class TestRhsSecular:
    def test_population_sector(self):
        r = q.rates(0.0, 1.0, 1.0, q.flat(1.0))
        dgg, _ = q.rhs_secular(q.DensityState(1.0, 0j), r, 1.0)
        assert dgg == pytest.approx(-1.0)

    def test_coherence_decay_rate(self):
        r = q.rates(0.5, 0.8, 1.0, q.flat(1.0))
        _, dge = q.rhs_secular(q.DensityState(0.5, 1.0), r, 1.0)
        expected = 1j * 1.0 - (r.gamma_ge / 2 + r.gamma_eg / 2 + r.gamma_phi)
        assert dge == pytest.approx(expected)

    def test_drops_cross_terms(self):
        r = q.rates(0.5, 0.8 + 0.1j, 1.0, q.flat(1.0))
        _, dge = q.rhs_secular(q.DensityState(0.7, 0j), r, 1.0)
        assert dge == 0j  # no coherence, no source: tildes dropped


def rhs_full_written_out(state, frame, sd):
    """The generator's terms as the paper writes them, one sample per S call.

    Returns the d rho_gg/dt terms and the d rho_ge/dt terms, two lists whose
    sums are the generator. A term-for-term reference for
    :func:`qsteer.rhs_full`, which regroups them in real arithmetic.
    """
    w01 = frame.omega01
    s_plus, s_minus, s_zero = sd._formula(w01), sd._formula(-w01), sd._formula(0.0)
    m1 = frame.m1
    m2 = complex(frame.m2)
    wge = complex(frame.w_ge)
    rgg = state.rho_gg
    rge = complex(state.rho_ge)

    k1 = (2.0 * s_zero - s_minus - s_plus) / w01
    k2 = (s_zero - s_plus) / w01
    k3 = (s_minus - s_plus) / w01
    mod2 = m2.real * m2.real + m2.imag * m2.imag
    re_m2_w = m2.imag * wge.imag + m2.real * wge.real
    re_m2_r = m2.imag * rge.imag + m2.real * rge.real

    dgg = [
        -2.0 * (wge.conjugate() * rge).imag,
        s_plus * mod2,
        -(s_minus + s_plus) * mod2 * rgg,
        2.0 * re_m2_r * s_zero * m1,
        -2.0 * k1 * re_m2_w * re_m2_r,
        2.0 * k1 * re_m2_w * m1 * rgg,
        -2.0 * k2 * m1 * re_m2_w,
    ]
    dge = [
        1j * wge * (2.0 * rgg - 1.0),
        1j * (frame.w_ee - frame.w_gg) * rge,
        1j * w01 * rge,
        -s_plus * m1 * m2,
        (s_minus + s_plus) * m1 * m2 * rgg,
        -2.0 * s_zero * m1 * m1 * rge,
        -1j * (s_minus + s_plus) * m2 * (rge.imag * m2.real - m2.imag * rge.real),
        -2.0 * k1 * m1 * m1 * wge * rgg,
        2.0 * k2 * m1 * m1 * wge,
        -1j * m2 * k3 * (m2.imag * wge.real - wge.imag * m2.real),
        -2.0 * k1 * m1 * 1j * m2 * (wge.imag * rge.real - rge.imag * wge.real),
        2.0 * k1 * m1 * re_m2_w * rge,
    ]
    return dgg, dge


def bits(d):
    """(dgg, dge) as hex strings, so equal means the same floats down to the sign of zero."""
    dgg, dge = d
    return dgg.hex(), dge.real.hex(), dge.imag.hex()


# one bath per model; the table covers every gap random_frame gives
BATHS = [
    q.flat(0.3),
    q.ohmic_thermal(0.1, 0.5, 20.0),
    q.zero_temperature_ohmic(0.1, 20.0),
    q.tabulated(np.linspace(-4.0, 4.0, 33), np.linspace(0.0, 2.0, 33) ** 2),
]


class TestRhsFull:
    def test_reduces_to_nonsteered_at_zero_w(self, rng):
        worst = 0.0
        for _ in range(1000):
            f = random_frame(rng, with_w=False)
            s_plus, s_minus, s_zero = rng.uniform(0.0, 2.0, 3)
            sd = spectra_stub(s_plus, s_minus, s_zero, f.omega01)
            s = random_state(rng)
            d_full = q.rhs_full(s, f, sd)
            d_ref = q.rhs_nonsteered(s, q.rates(f.m1, f.m2, f.omega01, sd), f.omega01)
            worst = max(worst, abs(d_full[0] - d_ref[0]), abs(d_full[1] - d_ref[1]))
        assert worst < 1e-14

    @pytest.mark.parametrize("with_w", [False, True])
    @pytest.mark.parametrize("sd", BATHS, ids=lambda sd: sd.model)
    def test_equals_the_written_out_terms(self, rng, sd, with_w):
        # rhs_full regroups the terms in real arithmetic, so it meets their exact sum to a
        # few ulps of the largest term (4 measured), not of the sum, which may cancel
        for i in range(400):
            f = random_frame(rng, with_w=with_w)
            s = random_state(rng) if i % 5 else q.DensityState(rng.uniform(0.0, 1.0), 0j)
            dgg, dge = q.rhs_full(s, f, sd)
            terms_gg, terms_ge = rhs_full_written_out(s, f, sd)
            tol_gg = 8 * math.ulp(max(map(abs, terms_gg)))
            tol_ge = 8 * math.ulp(max(map(abs, terms_ge)))
            assert abs(dgg - math.fsum(terms_gg)) <= tol_gg
            assert abs(dge.real - math.fsum(t.real for t in terms_ge)) <= tol_ge
            assert abs(dge.imag - math.fsum(t.imag for t in terms_ge)) <= tol_ge

    def test_unitary_part_only(self):
        f = q.AdiabaticFrame(1.0, 0.0, 0.0, 0.05j, 0.0, 1.0)
        dgg, dge = q.rhs_full(q.DensityState(1.0, 0j), f, q.flat(0.0))
        assert dgg == 0.0
        assert dge == pytest.approx(-0.05)

    def test_gap_collapse(self):
        f = q.AdiabaticFrame(0.0, 0.0, 0.0, 0j, 0.0, 1.0)
        with pytest.raises(q.GapCollapse):
            q.rhs_full(q.DensityState(1.0, 0j), f, q.flat(1.0))


class TestFullBody:
    """rhs_full packs and unpacks the pair around _rhs_full, the float body the CLI's full member
    calls."""

    @pytest.mark.parametrize("sd", BATHS, ids=lambda sd: sd.model)
    def test_adapter_and_float_body_bit_for_bit(self, rng, sd):
        # an int, float or complex rho_ge, zero and signed zeros among them: rhs_full gives
        # the floats the body gives on complex(rho_ge)'s parts, the ones the stepper carries,
        # and from_pair(rhs_full) gives them back as three floats
        stepper_form = q.from_pair(lambda s, f: q.rhs_full(s, f, sd))
        for k in range(200):
            f = random_frame(rng, with_w=k % 4 != 0)
            s = random_state(rng)
            for rgg, rge in ((s.rho_gg, s.rho_ge), *((s.rho_gg if k % 2 else 1, x) for x in NUMBERS),
                             (s.rho_gg, complex(-0.0, 0.0)), (s.rho_gg, complex(0.0, -0.0))):
                ge = complex(rge)
                want = tuple(map(float.hex, _rhs_full(sd, rgg, ge.real, ge.imag, f)))
                dgg, dge = q.rhs_full(q.DensityState(rgg, rge), f, sd)
                assert type(dge) is complex
                assert (dgg.hex(), dge.real.hex(), dge.imag.hex()) == want
                assert tuple(map(float.hex, stepper_form(rgg, ge.real, ge.imag, f))) == want


def nonsteered_written_out(state, r, omega01):
    """The terms of rhs_nonsteered as its docstring writes them: (terms of dgg, terms of dge)."""
    rgg, rge = state
    g_ge, g_eg, g_t0, g_tp, g_tm, g_phi, g_alpha, g_beta = r
    return ([-(g_ge + g_eg) * rgg, (g_t0 * rge).real, g_eg],
            [1j * omega01 * rge, -(g_tp + g_tm) * rgg, -(g_eg / 2 + g_ge / 2 + g_phi) * rge,
             (g_alpha + g_beta) * rge.conjugate(), g_tp])


class TestFrozenAffine:
    """_frozen_affine: the compare mode's non-steered member as its constant map c0 + M0 y."""

    @pytest.mark.parametrize("sd", BATHS, ids=lambda sd: sd.model)
    def test_agrees_with_the_pair_generator(self, rng, sd):
        # the map's entries are differences of probes, so it meets rhs_nonsteered through
        # from_pair to a few ulps of the largest written-out term (4 measured), not of the sum
        tilted = q.rotating_cone(1.0, 1.0, 0.05, [[0.3, 1.0], [1.0, -0.3]])
        for k in range(100):
            f = random_frame(rng) if k % 2 else q.frame_at(tilted, rng.uniform(-60.0, 60.0))
            r0 = q.rates(f.m1, f.m2, f.omega01, sd)
            pair = q.from_pair(lambda s, frame: q.rhs_nonsteered(s, r0, f.omega01))
            frozen = _frozen_affine(pair, f)
            s = random_state(rng)
            for rgg, rge in ((s.rho_gg, s.rho_ge), (s.rho_gg, 0j), (s.rho_gg, complex(-0.0, 0.0)),
                             (s.rho_gg, complex(0.0, -0.0)), (-0.0, complex(-0.0, -0.0)),
                             (1.0, s.rho_ge), (0.0, 0j)):
                terms_gg, terms_ge = nonsteered_written_out((rgg, rge), r0, f.omega01)
                tol_gg = 8 * math.ulp(max(map(abs, terms_gg)))
                tol_ge = 8 * math.ulp(max(map(abs, terms_ge)))
                want = pair(rgg, rge.real, rge.imag, f)
                got = frozen(rgg, rge.real, rge.imag, f)
                assert all(type(x) is float for x in got)
                assert abs(got[0] - want[0]) <= tol_gg
                assert abs(got[1] - want[1]) <= tol_ge and abs(got[2] - want[2]) <= tol_ge

    def test_probes_four_times_when_built_and_never_after(self, rng):
        f = random_frame(rng)
        r0 = q.rates(f.m1, f.m2, f.omega01, BATHS[1])
        pair = q.from_pair(lambda s, frame: q.rhs_nonsteered(s, r0, f.omega01))
        calls = []
        frozen = _frozen_affine(lambda *args: calls.append(args) or pair(*args), f)
        assert calls == [(0.0, 0.0, 0.0, f), (1.0, 0.0, 0.0, f), (0.0, 1.0, 0.0, f), (0.0, 0.0, 1.0, f)]
        for _ in range(100):
            s = random_state(rng)
            frozen(s.rho_gg, s.rho_ge.real, s.rho_ge.imag, random_frame(rng))
        assert len(calls) == 4


# the functions that check a gap against GAP_FLOOR, each called at the gap omega01
GAP_CHECKED = {
    "rhs_full": lambda w: q.rhs_full(q.DensityState(1.0), zero_w_frame(0.2, 1.0, w), q.flat(1.0)),
    "rates": lambda w: q.rates(0.0, 1.0, w, q.flat(0.1)),
}


class TestGapFloor:
    @pytest.mark.parametrize("omega01, shown", [
        (math.nan, "nan"), (0.0, "0.000e+00"), (GAP_FLOOR, "1.000e-09")])
    @pytest.mark.parametrize("name", sorted(GAP_CHECKED))
    def test_collapsed_or_nan_gap_raises(self, name, omega01, shown):
        # a NaN gap fails every comparison, so the check must be "not above the floor"
        message = f"omega01 = {shown} <= gap floor 1e-09"
        with pytest.raises(q.GapCollapse, match=f"^{re.escape(message)}$"):
            GAP_CHECKED[name](omega01)

    @pytest.mark.parametrize("name", sorted(GAP_CHECKED))
    def test_just_above_the_floor_passes(self, name):
        GAP_CHECKED[name](math.nextafter(GAP_FLOOR, 1.0))


# the linear-order superadiabatic density map, superadiabatic_reference.to_superadiabatic

def make_frame(omega01=1.0, w_gg=0.0, w_ee=0.0, w_ge=0j, m1=0.0, m2=1.0):
    return q.AdiabaticFrame(
        omega01=omega01, w_gg=w_gg, w_ee=w_ee, w_ge=complex(w_ge), m1=m1, m2=complex(m2),
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
        assert sa.to_superadiabatic(0.7, 0.1 + 0.2j, make_frame()) == (0.7, 0.1 + 0.2j)

    def test_ground_state_acquires_coherence(self):
        gg2, ge2 = sa.to_superadiabatic(1.0, 0j, make_frame(w_ge=0.05))
        assert gg2 == 1.0
        assert ge2 == pytest.approx(0.05)

    def test_imaginary_w_case(self):
        gg2, ge2 = sa.to_superadiabatic(0.5, 0.1, make_frame(w_ge=0.05j))
        assert gg2 == pytest.approx(0.5)
        assert ge2 == pytest.approx(0.1)

    def test_matches_exact_change_of_basis_to_second_order(self, rng):
        for _ in range(100):
            f = random_frame(rng)
            s = random_state(rng)
            got = sa.to_superadiabatic(s.rho_gg, s.rho_ge, f)
            ref = exact_basis_change_oracle(s.rho_gg, s.rho_ge, f)
            bound = 6 * f.alpha**2 + 1e-14
            assert abs(got[0] - ref[0]) < bound
            assert abs(got[1] - ref[1]) < bound


class TestSuperadiabaticOracle:
    def test_equals_nonsteered_at_zero_w(self, rng):
        for _ in range(20):
            f = random_frame(rng, with_w=False)
            sd = q.ohmic_thermal(0.3, 1.0, 20.0)
            s = random_state(rng)
            d_o = sa.rhs_superadiabatic(s, f, sd)
            d_n = q.rhs_nonsteered(s, q.rates(f.m1, f.m2, f.omega01, sd), f.omega01)
            assert d_o == d_n

    def test_pure_precession_at_corrected_gap(self):
        f = q.AdiabaticFrame(1.0, 0.01, 0.03, 0.02j, 0.0, 1.0)
        _, dge = sa.rhs_superadiabatic(q.DensityState(0.5, 1.0), f, q.flat(0.0))
        assert dge == pytest.approx(1j * 1.02)

    def test_pullback_residual_scales_quadratically(self):
        sd = q.zero_temperature_ohmic(0.1, 20.0)
        states = [q.DensityState(1.0, 0j), q.DensityState(0.6, 0.15 - 0.2j)]
        residuals = []
        for omega in (0.08, 0.04):
            path = q.rotating_cone(1.0, math.pi / 3, omega, SX)
            worst = 0.0
            for t in np.linspace(0.0, path.duration, 13):
                f = q.frame_at(path, float(t))
                for s in states:
                    d_full = q.rhs_full(s, f, sd)
                    d_orc = sa.pullback(s, f, sd)
                    worst = max(worst, abs(d_full[0] - d_orc[0]), abs(d_full[1] - d_orc[1]))
            residuals.append(worst)
        assert math.log2(residuals[0] / residuals[1]) > 1.8


class TestIntegrate:
    def test_full_revolution_returns(self):
        r = q.rates(0.0, 0.0, 1.0, q.flat(0.0))
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1.0, record_stride=1000)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, 2 * math.pi)),
            q.DensityState(0.5, 0.5), cfg, static_frame,
        )
        assert abs(complex(traj.final.state.rho_ge) - 0.5) < 1e-8
        assert traj.final.state.rho_gg == pytest.approx(0.5, abs=1e-12)

    def test_zero_temperature_decay_closed_form(self):
        sd = q.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        r = q.rates(0.0, 1.0, 1.0, sd)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=5.0, record_stride=10)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, 1.0)), q.DensityState(0.0, 0j), cfg,
            static_frame,
        )
        for sample in traj.samples:
            assert sample.state.rho_gg == pytest.approx(1 - math.exp(-sample.t), abs=1e-8)

    def test_rk4_fourth_order_against_expm(self):
        sd = spectra_stub(1.0, 0.5, 0.3, 2.0)
        r = q.rates(0.5, complex(0.8, 0.3), 2.0, sd)
        # affine generator in (rho_gg, Re, Im, 1) built independently of the rhs
        c = r.gamma_alpha + r.gamma_beta
        G = np.zeros((4, 4))
        G[0] = [-(r.gamma_ge + r.gamma_eg), r.gamma_tilde0.real, -r.gamma_tilde0.imag, r.gamma_eg]
        G[1] = [
            -(r.gamma_tilde_plus + r.gamma_tilde_minus).real,
            -(r.gamma_eg + r.gamma_ge) / 2 - r.gamma_phi + c.real,
            -2.0 + c.imag,
            r.gamma_tilde_plus.real,
        ]
        G[2] = [
            -(r.gamma_tilde_plus + r.gamma_tilde_minus).imag,
            2.0 + c.imag,
            -(r.gamma_eg + r.gamma_ge) / 2 - r.gamma_phi - c.real,
            r.gamma_tilde_plus.imag,
        ]
        y_exact = expm(G * 2.0) @ np.array([0.3, 0.2, -0.1, 1.0])
        errs = []
        for n in (50, 100, 200):
            cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=2.0, dt=2.0 / n, record_stride=n)
            traj = integrate(
                q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, 2.0)),
                q.DensityState(0.3, complex(0.2, -0.1)), cfg, static_frame,
            )
            ge = complex(traj.final.state.rho_ge)
            errs.append(
                max(
                    abs(traj.final.state.rho_gg - y_exact[0]),
                    abs(ge.real - y_exact[1]),
                    abs(ge.imag - y_exact[2]),
                )
            )
        assert math.log2(errs[0] / errs[1]) == pytest.approx(4.0, abs=0.1)
        assert math.log2(errs[1] / errs[2]) == pytest.approx(4.0, abs=0.1)

    def test_unitary_purity_conserved(self, cone_path):
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=cone_path.duration / 2, record_stride=20)
        sd = q.flat(0.0)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_full(s, f, sd)),
            q.DensityState(1.0, 0j), cfg, frame_provider=lambda t: q.frame_at(cone_path, t),
        )
        assert max(abs(s.purity - 1.0) for s in traj.samples) < 1e-9

    def test_thermal_fixed_point_reached(self):
        sd = q.ohmic_thermal(0.4, 1.0, 30.0)
        w01 = 1.2
        r = q.rates(0.0, 1.0, w01, sd)
        tau = 1.0 / (r.gamma_ge + r.gamma_eg)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=20 * tau, record_stride=1000)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, w01)), q.DensityState(0.1, 0.2j), cfg,
            static_frame,
        )
        expected = sd._formula(w01) / (sd._formula(w01) + sd._formula(-w01))
        assert traj.final.state.rho_gg == pytest.approx(expected, abs=1e-6)

    def test_nonfinite_detected(self):
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(q.NonFiniteState):
            integrate(
                lambda g, r, i, f: (math.inf, 0.0, 0.0), q.DensityState(1.0, 0j), cfg, static_frame
            )

    def test_step_rejection_limit(self):
        # slopes alternate between +-1e300 from call to call: every error norm
        # is finite and far above 1, so every attempt is an ordinary rejection
        calls = itertools.count()
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1.0)
        with pytest.raises(q.StepRejectionLimit, match="61 consecutive rejections at t = 0$"):
            integrate(
                lambda g, r, i, f: (1e300 if next(calls) % 2 else -1e300, 0.0, 0.0),
                q.DensityState(1.0, 0j), cfg, static_frame,
            )

    def test_scaled_error_whose_square_overflows_is_a_rejection(self, cone_path):
        # rtol = atol = 1e-300: a scaled error's square overflows the float range,
        # which is an infinite norm, so every attempt is rejected
        sd = q.zero_temperature_ohmic(0.1, 20.0)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=5.0, rtol=1e-300, atol=1e-300)
        with pytest.raises(q.StepRejectionLimit, match="61 consecutive rejections at t = 0$"):
            integrate(
                q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), q.DensityState(1.0, 0j), cfg,
                frame_provider=lambda t: q.frame_at(cone_path, t),
            )

    def test_nan_error_estimate_is_non_finite(self):
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=2.0)
        with pytest.raises(q.NonFiniteState, match="error estimate at t = "):
            integrate(
                lambda g, r, i, f: (0.0, math.nan if f.m1 > 1.0 else 0.0, 0.0),
                q.DensityState(1.0, 0j), cfg, clock_frame,
            )

    def test_step_below_float_spacing_raises(self):
        # the jump at t = 0.5 is rejected until the step no longer moves t
        calls = itertools.count()

        def rhs(g, r, i, f):
            assert next(calls) < 10_000, "the stepper stalled"
            return 0.0, 0.0, (1e200 if f.m1 > 0.5 else 0.0)

        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=2.0)
        with pytest.raises(q.StepRejectionLimit, match="does not advance t = 0.5$"):
            integrate(rhs, q.DensityState(1.0, 0j), cfg, clock_frame)

    def test_positivity_monitor_warns_but_never_clamps(self):
        # an artificial generator that inflates purity past the threshold
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.01)
        with pytest.warns(RuntimeWarning, match="purity"):
            traj = integrate(
                lambda g, r, i, f: (0.0, 0.01 * r, 0.01 * i),
                q.DensityState(1.0, 0.01), cfg, static_frame,
            )
        assert traj.max_positivity_violation > TOL_POSITIVITY
        assert traj.work.t_max_positivity_violation == traj.final.t  # |rho_ge| only grows
        final = abs(complex(traj.final.state.rho_ge))
        assert final == pytest.approx(0.01 * math.exp(0.01), rel=1e-10)

    def test_no_warning_for_clean_runs(self):
        r = q.rates(0.0, 1.0, 1.0, q.flat(0.5))
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=5.0, record_stride=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = integrate(
                q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, 1.0)), q.DensityState(0.9, 0.1j),
                cfg, static_frame,
            )
        assert traj.max_positivity_violation == 0.0
        assert traj.work.t_max_positivity_violation is None

    def test_record_stride_and_monotone_times(self, cone_path):
        sd = q.flat(0.2)
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=5.0, dt=0.01, record_stride=17)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_full(s, f, sd)),
            q.DensityState(1.0, 0j), cfg, frame_provider=lambda t: q.frame_at(cone_path, t),
        )
        ts = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(5.0)
        assert traj.max_alpha > 0


class TestSweepLawEndToEnd:
    """A Landau-Zener sweep integrated on its frame law and on the general closed form."""

    @pytest.mark.filterwarnings("ignore:purity exceeded")
    @pytest.mark.parametrize("track_phases", [False, True], ids=["anchored", "optimal_phase"])
    @pytest.mark.parametrize("A", [SX, [[0.3, 1.0], [1.0, -0.3]]], ids=["sx", "tilted"])
    @pytest.mark.parametrize("slope", [0.06, -0.06])
    def test_same_steps_and_final_state(self, slope, A, track_phases):
        sd = q.zero_temperature_ohmic(0.1, 20.0)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=80.0, rtol=1e-9, atol=1e-12,
                             record_stride=10)
        sweep = q.linear_sweep(slope, 1.0, 80.0, A)
        assert sweep._law is not _closed_form
        law, kernel = (integrate(q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), q.DensityState(1.0),
                                 cfg, frame_provider=lambda t, p=path: q.frame_at(p, t),
                                 track_phases=track_phases)
                       for path in (sweep, kernel_path(sweep)))
        assert law.work.accepted_steps == kernel.work.accepted_steps
        assert law.work.rejected_steps == kernel.work.rejected_steps
        assert len(law.samples) == len(kernel.samples)
        a, b = law.final, kernel.final
        assert a.t == b.t == 80.0
        assert abs(a.state.rho_gg - b.state.rho_gg) <= 1e-12
        assert abs(complex(a.state.rho_ge) - complex(b.state.rho_ge)) <= 1e-12
        assert abs(a.lambda_g - b.lambda_g) <= 1e-12 and abs(a.lambda_e - b.lambda_e) <= 1e-12


class TestLandauZener:
    """Unitary linear sweeps through the avoided crossing against the Landau-Zener formula."""

    @pytest.mark.parametrize("rate", [1.0, 0.25])
    def test_final_excitation_is_the_landau_zener_probability(self, rate):
        # H = b.sigma / 2 with b = (gap, 0, rate (t - tau/2)), b_z from -10 to 10 gaps: the
        # adiabatic ground state ends excited with P = exp(-pi gap^2 / (2 rate)) for an
        # infinite sweep; this finite one's end effect is below 4e-3 relative
        gap, half_range = 1.0, 10.0
        duration = 2.0 * half_range / rate
        sweep = q.linear_sweep(rate, gap, duration, SX)
        sd = q.flat(0.0)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=duration, rtol=1e-11,
                             record_stride=sys.maxsize)
        traj = integrate(q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), q.DensityState(1.0), cfg,
                         frame_provider=lambda t: q.frame_at(sweep, t))
        p_lz = math.exp(-math.pi * gap**2 / (2.0 * rate))
        assert traj.final.t == duration
        assert 1.0 - traj.final.state.rho_gg == pytest.approx(p_lz, rel=1e-2)
        assert traj.final.purity == pytest.approx(1.0, abs=1e-8)  # unitary: the state stays pure


class TestStageContract:
    """What integrate hands the generator: the density state as three floats (rho_gg, Re rho_ge,
    Im rho_ge), and the provider's frame."""

    @pytest.mark.parametrize("method", sorted(_METHODS))
    @pytest.mark.parametrize("track_phases", [False, True])
    def test_every_rhs_call_gets_a_density_state_and_a_provided_frame(self, method, track_phases):
        path = q.rotating_cone(1.0, 1.0, 0.3, SX)
        sd = q.flat(0.05)
        provided, calls = [], []

        def provider(t):
            provided.append(q.frame_at(path, t))
            return provided[-1]

        def rhs(*args):
            assert len(args) == 4  # no stage time
            g, r, i, f = args
            assert type(g) is float and type(r) is float and type(i) is float
            calls.append(f)
            return _rhs_full(sd, g, r, i, f)

        cfg = q.SolverConfig(method=method, t0=0.0, t1=3.0, dt=0.05, record_stride=7)
        traj = integrate(rhs, q.DensityState(1.0, 0j), cfg, frame_provider=provider,
                         track_phases=track_phases)
        made = {id(f) for f in provided}
        assert len(calls) == traj.work.rhs_evals and len(provided) == traj.work.frame_evals
        assert all(id(f) in made for f in calls)
        assert {id(f) for f in calls} == made
        assert all(type(x.state) is q.DensityState for x in traj.samples)


def nodding_cone(theta0=0.9, omega=0.12, nod=0.35, nu=0.31):
    """A cone whose opening nods as it turns: w diagonals and |w_ge| that vary along it."""

    def fields(t):
        th, dth = theta0 + nod * math.sin(nu * t), nod * nu * math.cos(nu * t)
        phi = omega * t
        st, ct, sp, cp = math.sin(th), math.cos(th), math.sin(phi), math.cos(phi)
        return ((st * cp, st * sp, ct),
                (ct * cp * dth - st * sp * omega, ct * sp * dth + st * cp * omega, -st * dth))

    return q.ControlPath(fields=fields, coupling_A=SX, duration=40.0)


def sample_bits(s):
    """One sample's floats as hex strings, so equal means the same floats down to the sign of zero."""
    return tuple(float.hex(x) for x in (s.t, s.state.rho_gg, s.state.rho_ge.real, s.state.rho_ge.imag,
                                        s.alpha, s.omega01, s.lambda_g, s.lambda_e, s.purity))


class TestReferenceStepper:
    """integrate's DP5 bookkeeping against the plain loop of tests/stepper_reference.py."""

    CASES = {
        "cone": (lambda: q.rotating_cone(1.0, 0.9, 2 * math.pi / 75, SX), 75.0, 1e-9,
                 q.DensityState(1.0)),
        "sweep": (lambda: q.linear_sweep(0.06, 1.0, 80.0, SX), 80.0, 1e-9, q.DensityState(1.0)),
        "nodding": (nodding_cone, 40.0, 1e-9, q.DensityState(0.8, complex(0.1, -0.2))),
        # starting on the equator anchors both branches on the second component, a q-type one
        # for the excited state, so the excited branch's phase error is the larger (3.416e-14
        # against 3.406e-14), and phase_quadrature_error is read from the e row
        "equator": (lambda: nodding_cone(theta0=math.pi / 2), 40.0, 1e-9,
                    q.DensityState(0.8, complex(0.1, -0.2))),
        # the opening step is too long at this tolerance, so attempts are rejected
        "rejections": (lambda: q.rotating_cone(1.0, math.pi / 3, 0.05, SX), 31.4, 1e-11,
                       q.DensityState(0.9, 0.1j)),
    }

    @pytest.mark.filterwarnings("ignore:purity exceeded")
    @pytest.mark.parametrize("track_phases", [False, True], ids=["anchored", "optimal_phase"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_for_bit(self, case, track_phases):
        make_path, t1, rtol, initial = self.CASES[case]
        path = make_path()
        sd = q.zero_temperature_ohmic(0.1, 20.0)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=t1, rtol=rtol, atol=1e-12,
                             record_stride=3)
        got, want = (run(q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), initial, cfg,
                         lambda t: q.frame_at(path, t), track_phases)
                     for run in (integrate, integrate_dp5))
        assert got.work == want.work
        if case == "rejections":
            assert got.work.rejected_steps > 0
        assert [sample_bits(s) for s in got.samples] == [sample_bits(s) for s in want.samples]
        assert (got.final.lambda_g, got.final.lambda_e) == (want.final.lambda_g, want.final.lambda_e)
        assert got.phase_quadrature_error == want.phase_quadrature_error
        if track_phases and case in ("nodding", "equator"):  # varying w diagonals: quadratures differ
            assert got.phase_quadrature_error > 0.0
        for name in ("max_positivity_violation", "max_excited_population", "max_alpha"):
            assert getattr(got, name) == getattr(want, name), name

    @pytest.mark.filterwarnings("ignore:purity exceeded")
    @pytest.mark.parametrize("track_phases", [False, True], ids=["anchored", "optimal_phase"])
    @pytest.mark.parametrize("case", ["cone", "sweep", "nodding"])
    def test_rk4_bit_for_bit(self, case, track_phases):
        make_path, t1, _, initial = self.CASES[case]
        path = make_path()
        sd = q.zero_temperature_ohmic(0.1, 20.0)
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=t1, dt=0.07, record_stride=3)
        got, want = (run(q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), initial, cfg,
                         lambda t: q.frame_at(path, t), track_phases)
                     for run in (integrate, integrate_rk4))
        assert got.work == want.work
        assert got.work.accepted_steps == round(t1 / 0.07) and got.samples[-1].t == t1
        assert [sample_bits(s) for s in got.samples] == [sample_bits(s) for s in want.samples]
        assert (got.final.lambda_g, got.final.lambda_e) == (want.final.lambda_g, want.final.lambda_e)
        assert got.phase_quadrature_error is want.phase_quadrature_error is None
        for name in ("max_positivity_violation", "max_excited_population", "max_alpha"):
            assert getattr(got, name) == getattr(want, name), name


class TestNonFiniteStates:
    """An accepted state must have a finite purity sum: a non-finite component, or a finite
    one so large that the sum overflows, raises NonFiniteState naming t."""

    COMPONENTS = ("rho_gg", "re_rho_ge", "im_rho_ge")

    @staticmethod
    def state(component, x):
        return {"rho_gg": q.DensityState(x, 0j), "re_rho_ge": q.DensityState(1.0, complex(x, 0.0)),
                "im_rho_ge": q.DensityState(1.0, complex(0.0, x))}[component]

    @pytest.mark.parametrize("method", sorted(_METHODS))
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e200, -1e200],
                             ids=["nan", "inf", "-inf", "1e200", "-1e200"])
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_at_t0(self, component, x, method):
        cfg = q.SolverConfig(method=method, t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(q.NonFiniteState, match=r"^non-finite state at t = 0$"):
            integrate(lambda g, r, i, f: (0.0, 0.0, 0.0), self.state(component, x), cfg,
                      static_frame)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("component", COMPONENTS)
    def test_mid_run(self, component, x):
        # rk4 steps of 6 from t = 0, with slopes of magnitude 1e308 in one component after
        # t = 6: the second step's weights 1/3 make terms of 2e308, which overflow to inf of
        # the slope's sign in that component alone; for nan the slope turns negative once
        # the stage state has overflowed, so inf and -inf terms meet in one sum
        big = -1e308 if x < 0 else 1e308

        def rhs(s, f):
            if not f.m1 > 6.0:
                return 0.0, 0j
            overflowed = not all(map(math.isfinite, (s[0], s[1].real, s[1].imag)))
            v = -big if math.isnan(x) and overflowed else big
            return {"rho_gg": (v, 0j), "re_rho_ge": (0.0, complex(v, 0.0)),
                    "im_rho_ge": (0.0, complex(0.0, v))}[component]

        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=18.0, dt=6.0)
        seen = []
        with pytest.raises(q.NonFiniteState, match=r"^non-finite state at t = 12$"):
            integrate(q.from_pair(lambda s, f: seen.append(s) or rhs(s, f)), q.DensityState(1.0, 0j),
                      cfg, clock_frame)
        # the state that failed is non-finite in the chosen component alone: it is the stage
        # state of the step's last stage, evaluated at the step's solution
        failed_gg, failed_ge = seen[-1]
        values = {"rho_gg": failed_gg, "re_rho_ge": failed_ge.real, "im_rho_ge": failed_ge.imag}
        for name, value in values.items():
            if name == component:
                assert value == x or (math.isnan(x) and math.isnan(value)), name
            else:
                assert math.isfinite(value), name

    def test_finite_state_whose_purity_overflows_is_reported(self):
        # a slope of 1e200 in rho_gg leaves the finite state rho_gg = 5e199 after the first
        # step of 0.5: its purity sum overflows, so it fails there as a non-finite state,
        # with no purity-excess warning on the way
        seen = []

        def rhs(g, r, i, f):
            seen.append((g, r, i))
            return 1e200, 0.0, 0.0

        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(q.NonFiniteState, match=r"^non-finite state at t = 0.5$"):
                integrate(rhs, q.DensityState(1.0, 0j), cfg, static_frame)
        assert len(seen) == 5 and seen[-1] == (5e199, 0.0, 0.0)
        assert all(math.isfinite(x) for state in seen for x in state)


# int, float and complex values of every type the generators take, zeros of both signs
NUMBERS = (0, 1, -2, 0.0, -0.0, 0.3, -0.7, 0j, complex(-0.0, -0.0), 0.2 - 0.5j)


class TestNumberTypes:
    """An int or float rho_ge, m2 or w_ge gives the floats its complex equivalent gives."""

    @pytest.mark.parametrize("sd", BATHS[:3], ids=lambda sd: sd.model)
    def test_generators_and_rates_bit_for_bit(self, sd):
        w01 = 1.3
        for rge, m2, wge in itertools.product(NUMBERS, repeat=3):
            for rgg, m1 in ((0.4, -0.3), (1, 0.5), (0.0, 0)):
                s, s_c = q.DensityState(rgg, rge), q.DensityState(rgg, complex(rge))
                f = q.AdiabaticFrame(w01, 0.01, -0.02, wge, m1, m2)
                f_c = f._replace(w_ge=complex(wge), m2=complex(m2))
                assert bits(q.rhs_full(s, f, sd)) == bits(q.rhs_full(s_c, f_c, sd))
                r, r_c = q.rates(m1, m2, w01, sd), q.rates(m1, complex(m2), w01, sd)
                assert field_bits(r) == field_bits(r_c)
                for rhs in (q.rhs_secular, q.rhs_nonsteered):
                    assert bits(rhs(s, r, w01)) == bits(rhs(s_c, r_c, w01))


class TestSolverConfig:
    """Each invalid input raises a ValueError that names its field."""

    @pytest.mark.parametrize("field, value", [
        ("t0", -math.inf), ("t0", math.nan), ("t1", math.inf), ("t1", math.nan),
        ("rtol", math.inf), ("atol", math.nan),
        ("dt_max", math.nan), ("dt_max", math.inf), ("dt_max", 0.0), ("dt_max", -1.0),
    ])
    def test_rk45_field_rejected(self, field, value):
        kwargs = {"method": "rk45_adaptive", "t0": 0.0, "t1": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} must"):
            q.SolverConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"method": "euler"}, "unknown method 'euler'"),
        ({"method": "rk45_adaptive", "t0": 1.0}, "t1 must exceed t0"),
        ({"method": "rk4_fixed", "t0": 1.5, "dt": 0.1}, "t1 must exceed t0"),
        ({"method": "rk45_adaptive", "rtol": 0.0}, "rk45_adaptive requires rtol, atol > 0"),
        ({"method": "rk45_adaptive", "atol": -1e-12}, "rk45_adaptive requires rtol, atol > 0"),
    ], ids=["unknown-method", "empty-window", "reversed-window", "zero-rtol", "negative-atol"])
    def test_method_window_and_tolerances_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            q.SolverConfig(**{"t0": 0.0, "t1": 1.0, **kwargs})

    def test_window_beyond_the_float_range_rejected(self):
        # both ends are finite, their difference is not
        with pytest.raises(ValueError, match="^t1 - t0 must be finite"):
            q.SolverConfig(method="rk45_adaptive", t0=-1.7e308, t1=1.7e308)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_dt_rejected(self, value):
        with pytest.raises(ValueError, match="^dt must be finite"):
            q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=value)

    def test_fixed_step_count_bound_is_exact(self):
        # rk4_fixed takes round((t1 - t0) / dt) steps, and 10**7 + 0.5 rounds to even
        assert _MAX_STEPS == 10**7
        q.SolverConfig(method="rk4_fixed", t0=0.0, t1=_MAX_STEPS + 0.5, dt=1.0)
        message = "dt = 1 needs 1e+07 steps, more than 10000000"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            q.SolverConfig(method="rk4_fixed", t0=0.0, t1=math.nextafter(_MAX_STEPS + 0.5, math.inf),
                           dt=1.0)
        # a count beyond the float range is rejected, not passed to round()
        with pytest.raises(ValueError, match="^dt = 1e-300 needs inf steps"):
            q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1e10, dt=1e-300)

    def test_step_cap_bounds_the_adaptive_count(self):
        # (t1 - t0) / dt_max is a lower bound on an adaptive run's step count
        q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=float(_MAX_STEPS), dt_max=1.0)
        q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1e300)  # no cap, no bound
        message = "dt_max = 1 needs 1e+07 steps, more than 10000000"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=math.nextafter(_MAX_STEPS, math.inf),
                           dt_max=1.0)
        with pytest.raises(ValueError, match=re.escape("dt_max = 1e-300 needs 1e+300 steps")):
            q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1.0, dt_max=1e-300)
        # rk4_fixed steps by dt and ignores dt_max
        q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.1, dt_max=1e-300)

    @pytest.mark.parametrize("value", [1.5, True, 0, "2"])
    def test_record_stride_rejected(self, value):
        with pytest.raises(ValueError, match="^record_stride must be an integer >= 1"):
            q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.1, record_stride=value)


class TestTableaus:
    @pytest.mark.parametrize("method", sorted(_METHODS))
    def test_rows_sum_to_their_nodes(self, method):
        # stage s's row of A sums to its node; the last row is the b row, at
        # c = 1 (first same as last), and the error row b - b_hat sums to 0
        nodes, rows, err, _, _ = _METHODS[method]
        assert len(rows) == len(nodes) and nodes[0] == 0.0 and rows[0] == ()
        for s, (c, row) in enumerate(zip(nodes, rows)):
            assert len(row) == s  # explicit: A is strictly lower
            assert math.fsum(row) == pytest.approx(c, abs=1e-15)
        assert nodes[-1] == 1.0
        assert math.fsum(rows[-1]) == pytest.approx(1.0, abs=1e-15)
        if err is not None:
            assert len(err) == len(nodes)
            assert math.fsum(err) == pytest.approx(0.0, abs=1e-15)

    def test_entries_must_be_finite(self):
        nodes, rows, err, _, _ = _METHODS["rk45_adaptive"]
        with pytest.raises(ValueError, match="^tableau entries must be finite$"):
            _tableau(nodes, rows, err[:-1] + (math.inf,))

    @pytest.mark.parametrize("method", sorted(_METHODS))
    def test_attempt_is_the_rows_term_by_term(self, method):
        # one compiled attempt and its phases against the rows read term by term: each
        # stage's frame, provided at the stage's time, its state three floats each summed left
        # to right from (g, r, i), one provider call per distinct node, the error sums from
        # 0.0, and the phase sums from 0.0 over the stage frames; slopes and frames are
        # distinct per stage
        nodes, rows, err, attempt, phases = _METHODS[method]
        t, dt, y = 0.3, 0.07, (0.8, 0.1, -0.2)
        calls, provided = [], []

        def slope(s):
            return 0.1 * s - 0.5, 0.3 / s, -0.2 * s

        def rhs(*args):
            assert len(args) == 4  # no stage time
            calls.append(args)
            return slope(len(calls))

        def provider(ts):
            provided.append(ts)
            return ("frame", ts)

        k0, f0 = (-0.4, 0.25, 0.5), ("frame", t)
        *y_new, err_g, err_r, err_i, k_last, frames = attempt(rhs, provider, t, dt, *y, k0, f0)
        ks, want_frames = [k0], [f0]
        for s in range(1, len(nodes)):
            ts = t + nodes[s] * dt
            y_s = list(y)
            for j, a in enumerate(rows[s]):
                if a != 0.0:
                    for c in range(3):
                        y_s[c] += a * dt * ks[j][c]
            want_frames.append(want_frames[-1] if nodes[s] == nodes[s - 1] else ("frame", ts))
            assert calls[s - 1] == (*y_s, want_frames[-1])
            ks.append(slope(s))
        assert y_new == y_s and k_last == ks[-1]
        assert frames == tuple(want_frames)
        assert provided == sorted({t + c * dt for c in nodes[1:]})
        want_err = [0.0, 0.0, 0.0]
        for j, e in enumerate(err or ()):
            if e != 0.0:
                for c in range(3):
                    want_err[c] += e * dt * ks[j][c]
        assert [x.hex() for x in (err_g, err_r, err_i)] == [x.hex() for x in want_err]
        # (w_gg, w_ee) per stage, where summing RK4's b row in another order changes the floats
        w = [(math.sin(1.1 * s + 0.2), math.cos(1.1 * s - 0.2) / 3) for s in range(len(nodes))]
        stage_frames = tuple(make_frame(w_gg=w_gg, w_ee=w_ee) for w_gg, w_ee in w)
        want_phases = [0.0] * 4  # b row's w_gg and w_ee sums, then the error row's
        for row, at in ((rows[-1], 0), (err or (), 2)):
            for j, c in enumerate(row):
                if c != 0.0:
                    want_phases[at] += c * w[j][0]
                    want_phases[at + 1] += c * w[j][1]
        got = phases(stage_frames)
        assert [x.hex() for x in got] == [x.hex() for x in want_phases]
        assert err is not None or got[2:] == (0.0, 0.0)


class TestSolverWork:
    """Trajectory.work counts what the stepper evaluated, checked against counting callbacks."""

    @staticmethod
    def counted(cone_path):
        calls = {"rhs": 0, "frame": 0}
        sd = q.flat(0.2)

        def provider(t):
            calls["frame"] += 1
            return q.frame_at(cone_path, t)

        def rhs(s, f):
            calls["rhs"] += 1
            return q.rhs_full(s, f, sd)

        return calls, provider, q.from_pair(rhs)

    def test_rk45_evaluates_six_stages_per_attempt(self, cone_path):
        calls, provider, rhs = self.counted(cone_path)
        # the opening step (a hundredth of the window) is too long at this
        # tolerance, so the count also covers rejected attempts
        cfg = q.SolverConfig(
            method="rk45_adaptive", t0=0.0, t1=cone_path.duration / 4, rtol=1e-11,
            record_stride=7,
        )
        traj = integrate(rhs, q.DensityState(0.9, 0.1j), cfg, frame_provider=provider)
        w = traj.work
        assert w.accepted_steps > 10 and w.rejected_steps > 0
        assert w.rhs_evals == 6 * (w.accepted_steps + w.rejected_steps) + 1 == calls["rhs"]
        assert w.frame_evals == 5 * (w.accepted_steps + w.rejected_steps) + 1 == calls["frame"]
        assert 0.0 < w.dt_min <= w.dt_max <= cfg.t1 / 10  # the default step cap

    def test_rk45_attempt_evaluates_five_distinct_frame_times(self, cone_path):
        # the last two DP5 stages share the node c = 1: one frame, two RHS calls; a stage's
        # time is the one its frame was provided at
        frame_times, provided, rhs_frames = [], [], []
        sd = q.flat(0.2)

        def provider(t):
            frame_times.append(t)
            provided.append(q.frame_at(cone_path, t))
            return provided[-1]

        def rhs(s, f):
            rhs_frames.append(f)
            return q.rhs_full(s, f, sd)

        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=cone_path.duration / 4, rtol=1e-11)
        w = integrate(q.from_pair(rhs), q.DensityState(0.9, 0.1j), cfg, frame_provider=provider).work
        attempts = w.accepted_steps + w.rejected_steps
        assert w.rejected_steps > 0
        assert len(frame_times) == 5 * attempts + 1 and len(rhs_frames) == 6 * attempts + 1
        time_of = {id(f): t for t, f in zip(frame_times, provided)}  # every frame stays alive
        for k in range(attempts):
            times = frame_times[1 + 5 * k: 6 + 5 * k]
            assert len(set(times)) == 5
            stages = rhs_frames[1 + 6 * k: 7 + 6 * k]
            assert [time_of[id(f)] for f in stages[:5]] == times
            assert stages[5] is stages[4]

    def test_rk45_records_the_frame_at_the_record_time(self, cone_path):
        _, provider, rhs = self.counted(cone_path)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=1.0, t1=30.0, record_stride=3)
        traj = integrate(rhs, q.DensityState(1.0, 0j), cfg, frame_provider=provider)
        assert traj.samples[0].t == 1.0 and traj.final.t == 30.0
        for sample in traj.samples:
            f = q.frame_at(cone_path, sample.t)
            assert (sample.alpha, sample.omega01) == (f.alpha, f.omega01)

    def test_rk4_evaluates_four_stages_per_step(self, cone_path):
        calls, provider, rhs = self.counted(cone_path)
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.01, record_stride=7)
        traj = integrate(rhs, q.DensityState(1.0, 0j), cfg, frame_provider=provider)
        w = traj.work
        assert (w.accepted_steps, w.rejected_steps) == (100, 0)
        # each step's first stage is the last stage of the step before, at its solution
        assert w.rhs_evals == 4 * 100 + 1 == calls["rhs"]
        # the middle two stages share t + dt/2 and the last two t + dt
        assert w.frame_evals == 2 * 100 + 1 == calls["frame"]
        assert w.dt_min == w.dt_max == pytest.approx(0.01)

    def test_rk4_keeps_its_fixed_schedule_at_large_t0(self):
        # step i ends at t0 + i * dt: at t0 = 1e6 summing the steps would drift
        # by ulps of t, which could add or drop a step and move every record time
        t0, t1, stride = 1e6, 1e6 + 1e-3, 7
        cfg = q.SolverConfig(method="rk4_fixed", t0=t0, t1=t1, dt=1e-5, record_stride=stride)
        n = max(1, round((t1 - t0) / cfg.dt))
        dt = (t1 - t0) / n
        frame_times = []

        def provider(t):
            frame_times.append(t)
            return q.frame_at(q.rotating_cone(1.0, 0.9, 0.3, SX), t)

        traj = integrate(q.from_pair(lambda s, f: q.rhs_full(s, f, q.flat(0.1))),
                         q.DensityState(1.0, 0j), cfg, frame_provider=provider)
        assert n == 100 and traj.work.accepted_steps == n
        assert traj.work.frame_evals == 2 * n + 1 == len(frame_times)
        want = [t0] + [t0 + i * dt for i in range(1, n + 1) if i % stride == 0 or i == n]
        assert [s.t for s in traj.samples] == want
        # each step's frames are at its start time plus dt/2 and plus dt
        starts = [t0 + i * dt for i in range(n)]
        assert frame_times[1:] == [t + c * dt for t in starts for c in (0.5, 1.0)]
        summed = list(itertools.accumulate([t0] + [dt] * n))
        assert summed != [t0 + i * dt for i in range(n + 1)]  # the schedule matters here

    @pytest.mark.parametrize("method", ["rk4_fixed", "rk45_adaptive"])
    def test_positivity_is_checked_at_every_accepted_step(self, cone_path, method):
        sd = q.zero_temperature_ohmic(0.1, 20.0)
        max_alpha = []
        for track_phases in (False, True):
            worst = []
            for stride in (1, 7):
                cfg = q.SolverConfig(
                    method=method, t0=0.0, t1=cone_path.duration / 2, dt=0.25, record_stride=stride,
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    traj = integrate(
                        q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), q.DensityState(1.0, 0j), cfg,
                        frame_provider=lambda t: q.frame_at(cone_path, t), track_phases=track_phases,
                    )
                worst.append((
                    traj.max_positivity_violation, traj.work.t_max_positivity_violation,
                    traj.max_excited_population, traj.max_alpha,
                ))
                if stride == 1:  # every accepted point is recorded, with the alpha it was checked at
                    assert traj.max_alpha == max(s.alpha for s in traj.samples)
            assert worst[0] == worst[1]
            assert worst[0][0] > 0.0 and worst[0][2] > 0.0 and worst[0][3] > 0.0
            max_alpha.append(worst[0][3])
        # the optimal phase removes the w diagonals from the norm
        assert max_alpha[1] < max_alpha[0]

    @pytest.mark.parametrize("degree", [3, 4])
    def test_phase_quadrature_error_is_the_embedded_weights_difference(self, degree):
        # w_gg = t^degree: DP5's 5th-order weights integrate degree 4 exactly, its
        # embedded 4th-order ones degree 3, so the estimate is zero to rounding for
        # degree 3 and the 4th-order weights' true error for degree 4
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=2.0)
        traj = integrate(lambda g, r, i, f: (0.0, 0.0, 0.0), q.DensityState(1.0), cfg,
                         frame_provider=lambda t: make_frame(w_gg=t ** degree, w_ee=-2.0 * t),
                         track_phases=True)
        exact = 2.0 ** (degree + 1) / (degree + 1)
        assert traj.final.lambda_g == pytest.approx(-exact, rel=1e-14)
        assert traj.final.lambda_e == pytest.approx(4.0, rel=1e-14)
        if degree == 3:
            assert traj.phase_quadrature_error < 1e-14
        else:
            assert 1e-8 < traj.phase_quadrature_error < 1e-4

    def test_phase_quadrature_error_needs_phases_and_an_error_row(self, cone_path):
        for method, track_phases in (("rk45_adaptive", False), ("rk4_fixed", True)):
            cfg = q.SolverConfig(method=method, t0=0.0, t1=10.0, dt=0.5)
            traj = integrate(lambda g, r, i, f: (0.0, 0.0, 0.0), q.DensityState(1.0), cfg,
                             frame_provider=lambda t: q.frame_at(cone_path, t),
                             track_phases=track_phases)
            assert traj.phase_quadrature_error is None

    def test_phase_error_estimate_beyond_the_float_range_raises(self, monkeypatch):
        # an error row scaled by 1e308 against w_gg = 1e3: the state's error is 0 and
        # the phases are finite, but each phase error term overflows
        nodes, rows, err, _, _ = _METHODS["rk45_adaptive"]
        monkeypatch.setitem(_METHODS, "rk45_adaptive",
                            _tableau(nodes, rows, tuple(e * 1e308 for e in err)))
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1.0)
        with pytest.raises(q.NonFiniteState,
                           match="^the optimal phase's error estimate overflows the float range$"):
            integrate(lambda g, r, i, f: (0.0, 0.0, 0.0), q.DensityState(1.0), cfg,
                      frame_provider=lambda t: make_frame(w_gg=1e3), track_phases=True)

    @pytest.mark.parametrize("method, accepted, rejected, final", [
        ("rk45_adaptive", 752, 23,
         ("0x1.c17de4a5beb4ap-1", "-0x1.086687f67b68fp-8", "0x1.4a2ff8964dbe9p-6")),
        ("rk4_fixed", 800, 0,
         ("0x1.c17de4adf4ba6p-1", "-0x1.0865d9034478bp-8", "0x1.4a300dc035128p-6")),
    ])
    def test_stepper_arithmetic_is_pinned(self, method, accepted, rejected, final):
        # a static-frame thermal run with rho_ge != 0 (m1 != 0 couples it to rho_gg):
        # the step counts and the final state's bits pin the stepper's float
        # operations, the stage sums and the error norm, independently of any frame
        r = q.rates(0.3, complex(0.8, -0.4), 1.0, q.ohmic_thermal(0.1, 0.5, 20.0))
        cfg = q.SolverConfig(method=method, t0=0.0, t1=40.0, rtol=1e-9, atol=1e-12, dt=0.05)
        traj = integrate(q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, 1.0)),
                         q.DensityState(0.7, complex(0.2, -0.1)), cfg, static_frame)
        assert (traj.work.accepted_steps, traj.work.rejected_steps) == (accepted, rejected)
        fs = traj.final.state
        assert (fs.rho_gg.hex(), fs.rho_ge.real.hex(), fs.rho_ge.imag.hex()) == final


class TestTrajectoryCsv:
    def test_schema_and_precision(self, tmp_path, cone_path):
        sd = q.flat(0.1)
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.05, record_stride=5)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_full(s, f, sd)),
            q.DensityState(1.0, 0j), cfg, frame_provider=lambda t: q.frame_at(cone_path, t),
        )
        fn = tmp_path / "traj.csv"
        with open(fn, "w") as fh:
            traj.write_csv(fh)
        lines = fn.read_text().splitlines()
        assert lines[0] == "t,rho_gg,re_rho_ge,im_rho_ge,purity,alpha,omega01,lambda_g,lambda_e"
        assert len(lines) == 1 + len(traj.samples)
        row = lines[2].split(",")
        assert len(row) == 9
        assert float(row[1]) == traj.samples[1].state.rho_gg  # 17 digits round-trip

    def test_each_field_is_written_as_its_17_digit_format(self):
        # signed zeros, infinities, NaN, an integer time and a real coherence included
        samples = [
            TrajectorySample(0, q.DensityState(1.0), math.nan, math.nan, 0.0, -0.0, 1.0),
            TrajectorySample(0.1, q.DensityState(0.25, complex(-0.0, 1e-300)), math.inf,
                             1.0000000000000002, -math.inf, 5e-324, 0.9999999999999999),
            TrajectorySample(1e22, q.DensityState(0.5, -0.125), 1 / 3, 2 / 3, -1e-310, 7.0, 0.5),
        ]
        fh = io.StringIO()
        q.Trajectory(samples=samples).write_csv(fh)
        rows = fh.getvalue().split("\n")
        assert rows[-1] == "" and len(rows) == 2 + len(samples)
        for s, got in zip(samples, rows[1:]):
            ge = complex(s.state.rho_ge)
            fields = (s.t, s.state.rho_gg, ge.real, ge.imag, s.purity, s.alpha, s.omega01,
                      s.lambda_g, s.lambda_e)
            assert got == ",".join(f"{v:.17g}" for v in fields)


def exact_cone_rho_gg(theta, omega, sd):
    """Ground population after one loop of a sigma_z-coupled cone, from its static rotating frame.

    U(t) = exp(-i omega t sigma_z / 2) takes H(t) to H_r = (1/2)(b(0) - omega z).sigma
    and leaves sigma_z unchanged, so system and bath are static there and the
    non-steered equation for H_r makes no adiabatic error. Its generator is
    affine and constant: one 4x4 exponential. After one loop U = -1, so the
    lab state is rho_r, read out in the start ground state g(0).
    """
    cone = q.rotating_cone(1.0, theta, omega, SZ)
    bx, by, bz = cone.fields(0.0)[0]
    static = static_path((bx, by, bz - omega), A=SZ)
    f = q.frame_at(static, 0.0)
    g, e, _, _ = eig(static, 0.0)
    # rho_r is rebuilt in the anchored eigenbasis, the one frame_at's elements are taken in
    assert abs(g.conj() @ SZ @ g - f.m1) < 1e-15 and abs(g.conj() @ SZ @ e - f.m2) < 1e-15
    r = q.rates(f.m1, f.m2, f.omega01, sd)

    def slope(gg, ge):
        dgg, dge = q.rhs_nonsteered(q.DensityState(gg, ge), r, f.omega01)
        return np.array([dgg, dge.real, dge.imag])

    G = np.zeros((4, 4))
    G[:3, 3] = slope(0.0, 0j)
    for j, y in enumerate(((1.0, 0j), (0.0, 1 + 0j), (0.0, 1j))):
        G[:3, j] = slope(*y) - G[:3, 3]
    g0 = eig(cone, 0.0)[0]
    a, b = g.conj() @ g0, g0.conj() @ e  # rho_r(0) = |g0><g0| in H_r's eigenbasis
    gg, re_ge, im_ge, _ = expm(cone.duration * G) @ [abs(a) ** 2, (a * b).real, (a * b).imag, 1.0]
    ge = complex(re_ge, im_ge)
    rho = (gg * np.outer(g, g.conj()) + (1.0 - gg) * np.outer(e, e.conj())
           + ge * np.outer(g, e.conj()) + ge.conjugate() * np.outer(e, g.conj()))
    return (g0.conj() @ rho @ g0).real


def full_cone_rho_gg(theta, omega, sd):
    """The same loop by rhs_full in the adiabatic frame, from the ground state, at rtol 1e-12."""
    cone = q.rotating_cone(1.0, theta, omega, SZ)
    cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=cone.duration, rtol=1e-12, atol=1e-15)
    traj = integrate(q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), q.DensityState(1.0, 0j), cfg,
                     frame_provider=lambda t: q.frame_at(cone, t))
    return traj.final.state.rho_gg


class TestExactSigmaZCone:
    """rhs_full against the exact rotating-frame reference for cones with A = sigma_z."""

    @pytest.mark.parametrize("sd", [q.flat(0.0), q.flat(0.05)], ids=["unitary", "flat"])
    @pytest.mark.parametrize("theta", [0.3, math.pi / 3, 2.0], ids=["0.3", "pi/3", "2.0"])
    def test_exact_in_the_unitary_and_flat_limits(self, theta, sd):
        # no spectrum dependence on the gap, so rhs_full is exact at any drive rate
        assert abs(full_cone_rho_gg(theta, 0.2, sd) - exact_cone_rho_gg(theta, 0.2, sd)) < 1e-10

    def test_ohmic_error_is_second_order_in_omega(self):
        sd = q.zero_temperature_ohmic(0.05, 20.0)
        errors = [abs(full_cone_rho_gg(math.pi / 3, w, sd) - exact_cone_rho_gg(math.pi / 3, w, sd))
                  for w in (0.08, 0.04, 0.02)]
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert min(orders) >= 1.8, (errors, orders)


def run_python(args, cwd):
    src = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_readme_library_sketch_runs(tmp_path):
    # documented API cannot name a function the library no longer has
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    done = run_python(["-c", blocks[0]], tmp_path)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 2
