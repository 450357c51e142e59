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
from qsteer.dynamics import _MAX_STEPS, _METHODS, TOL_POSITIVITY, TrajectorySample, integrate
from qsteer.errors import GAP_FLOOR

from conftest import SX, SZ, random_frame, random_state, steady_state_oracle
from test_control import eig, field_bits, static_path

ROOT = Path(__file__).resolve().parent.parent


def spectra_stub(s_plus, s_minus, s_zero, omega01):
    return q.tabulated(
        [-omega01, 0.0, omega01], [s_minus, s_zero, s_plus]
    )


def zero_w_frame(m1, m2, omega01):
    return q.AdiabaticFrame(omega01, 0.0, 0.0, 0j, m1, complex(m2))


class TestDensityState:
    def test_derived_components(self):
        s = q.DensityState(0.3, 0.1 - 0.2j)
        assert s.rho_ee == pytest.approx(0.7)
        assert s.rho_eg == 0.1 + 0.2j

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
        traj = q.integrate(lambda t, s, f: (0.0, 0j), state, cfg)
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
    s_plus, s_minus, s_zero = sd(frame.omega01), sd(-frame.omega01), sd(0.0)
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


# the functions that check a gap against GAP_FLOOR, each called at the gap omega01
GAP_CHECKED = {
    "rhs_full": lambda w: q.rhs_full(q.DensityState(1.0), zero_w_frame(0.2, 1.0, w), q.flat(1.0)),
    "rates": lambda w: q.rates(0.0, 1.0, w, q.flat(0.1)),
    "superadiabatic_elements": lambda w: q.superadiabatic_elements(0.0, 1.0, 0j, w),
    "rhs_superadiabatic_oracle": lambda w: q.rhs_superadiabatic_oracle(
        q.DensityState(1.0), zero_w_frame(0.2, 1.0, w), q.flat(1.0)),
    "to_superadiabatic": lambda w: q.to_superadiabatic(1.0, 0j, zero_w_frame(0.2, 1.0, w)),
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


# the linear-order superadiabatic density map, dynamics.to_superadiabatic

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
        bad = q.AdiabaticFrame(0.0, 0.0, 0.0, 0j, 0.0, 1.0)
        with pytest.raises(q.GapCollapse):
            q.to_superadiabatic(1.0, 0j, bad)


class TestSuperadiabaticOracle:
    def test_equals_nonsteered_at_zero_w(self, rng):
        for _ in range(20):
            f = random_frame(rng, with_w=False)
            sd = q.ohmic_thermal(0.3, 1.0, 20.0)
            s = random_state(rng)
            d_o = q.rhs_superadiabatic_oracle(s, f, sd)
            d_n = q.rhs_nonsteered(s, q.rates(f.m1, f.m2, f.omega01, sd), f.omega01)
            assert d_o == d_n

    def test_pure_precession_at_corrected_gap(self):
        f = q.AdiabaticFrame(1.0, 0.01, 0.03, 0.02j, 0.0, 1.0)
        _, dge = q.rhs_superadiabatic_oracle(q.DensityState(0.5, 1.0), f, q.flat(0.0))
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
                    d_orc = q.superadiabatic_oracle_pullback(s, f, sd)
                    worst = max(worst, abs(d_full[0] - d_orc[0]), abs(d_full[1] - d_orc[1]))
            residuals.append(worst)
        assert math.log2(residuals[0] / residuals[1]) > 1.8


class TestIntegrate:
    def test_full_revolution_returns(self):
        r = q.rates(0.0, 0.0, 1.0, q.flat(0.0))
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1.0, record_stride=1000)
        traj = integrate(
            lambda t, s, f: q.rhs_nonsteered(s, r, 2 * math.pi),
            q.DensityState(0.5, 0.5), cfg,
        )
        assert abs(complex(traj.final.state.rho_ge) - 0.5) < 1e-8
        assert traj.final.state.rho_gg == pytest.approx(0.5, abs=1e-12)

    def test_zero_temperature_decay_closed_form(self):
        sd = q.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        r = q.rates(0.0, 1.0, 1.0, sd)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=5.0, record_stride=10)
        traj = integrate(
            lambda t, s, f: q.rhs_nonsteered(s, r, 1.0), q.DensityState(0.0, 0j), cfg
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
                lambda t, s, f: q.rhs_nonsteered(s, r, 2.0),
                q.DensityState(0.3, complex(0.2, -0.1)), cfg,
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
            lambda t, s, f: q.rhs_full(s, f, sd),
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
            lambda t, s, f: q.rhs_nonsteered(s, r, w01), q.DensityState(0.1, 0.2j), cfg
        )
        expected = sd(w01) / (sd(w01) + sd(-w01))
        assert traj.final.state.rho_gg == pytest.approx(expected, abs=1e-6)

    def test_nonfinite_detected(self):
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(q.NonFiniteState):
            integrate(
                lambda t, s, f: (math.inf, 0j), q.DensityState(1.0, 0j), cfg
            )

    def test_step_rejection_limit(self):
        # slopes alternate between +-1e300 from call to call: every error norm
        # is finite and far above 1, so every attempt is an ordinary rejection
        calls = itertools.count()
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1.0)
        with pytest.raises(q.StepRejectionLimit, match="61 consecutive rejections at t = 0$"):
            integrate(
                lambda t, s, f: (1e300 if next(calls) % 2 else -1e300, 0j),
                q.DensityState(1.0, 0j), cfg,
            )

    def test_scaled_error_whose_square_overflows_is_a_rejection(self, cone_path):
        # rtol = atol = 1e-300: a scaled error's square overflows the float range,
        # which is an infinite norm, so every attempt is rejected
        sd = q.zero_temperature_ohmic(0.1, 20.0)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=5.0, rtol=1e-300, atol=1e-300)
        with pytest.raises(q.StepRejectionLimit, match="61 consecutive rejections at t = 0$"):
            integrate(
                lambda t, s, f: q.rhs_full(s, f, sd), q.DensityState(1.0, 0j), cfg,
                frame_provider=lambda t: q.frame_at(cone_path, t),
            )

    def test_nan_error_estimate_is_non_finite(self):
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=2.0)
        with pytest.raises(q.NonFiniteState, match="error estimate at t = "):
            integrate(
                lambda t, s, f: (0.0, complex(math.nan, 0.0) if t > 1.0 else 0j),
                q.DensityState(1.0, 0j), cfg,
            )

    def test_step_below_float_spacing_raises(self):
        # the jump at t = 0.5 is rejected until the step no longer moves t
        calls = itertools.count()

        def rhs(t, s, f):
            assert next(calls) < 10_000, "the stepper stalled"
            return 0.0, (1e200j if t > 0.5 else 0j)

        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=2.0)
        with pytest.raises(q.StepRejectionLimit, match="does not advance t = 0.5$"):
            integrate(rhs, q.DensityState(1.0, 0j), cfg)

    def test_positivity_monitor_warns_but_never_clamps(self):
        # an artificial generator that inflates purity past the threshold
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.01)
        with pytest.warns(RuntimeWarning, match="purity"):
            traj = integrate(
                lambda t, s, f: (0.0, 0.01 * complex(s.rho_ge)),
                q.DensityState(1.0, 0.01), cfg,
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
                lambda t, s, f: q.rhs_nonsteered(s, r, 1.0), q.DensityState(0.9, 0.1j), cfg
            )
        assert traj.max_positivity_violation == 0.0
        assert traj.work.t_max_positivity_violation is None

    def test_record_stride_and_monotone_times(self, cone_path):
        sd = q.flat(0.2)
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=5.0, dt=0.01, record_stride=17)
        traj = integrate(
            lambda t, s, f: q.rhs_full(s, f, sd),
            q.DensityState(1.0, 0j), cfg, frame_provider=lambda t: q.frame_at(cone_path, t),
        )
        ts = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts[0] == 0.0
        assert ts[-1] == pytest.approx(5.0)
        assert traj.max_alpha > 0


class TestStageContract:
    """What integrate hands the generator: a real DensityState and the provider's own frame."""

    @pytest.mark.parametrize("method", sorted(_METHODS))
    @pytest.mark.parametrize("track_phases", [False, True])
    def test_every_rhs_call_gets_a_density_state_and_a_provided_frame(self, method, track_phases):
        path = q.rotating_cone(1.0, 1.0, 0.3, SX)
        sd = q.flat(0.05)
        provided, calls = [], []

        def provider(t):
            provided.append(q.frame_at(path, t))
            return provided[-1]

        def rhs(t, s, f):
            assert isinstance(s, q.DensityState) and type(s) is q.DensityState
            assert s.rho_ee == 1.0 - s.rho_gg and s.rho_eg == s.rho_ge.conjugate()
            assert s == (s.rho_gg, s.rho_ge) and s._asdict() == {"rho_gg": s[0], "rho_ge": s[1]}
            calls.append(f)
            return q.rhs_full(s, f, sd)

        cfg = q.SolverConfig(method=method, t0=0.0, t1=3.0, dt=0.05, record_stride=7)
        traj = integrate(rhs, q.DensityState(1.0, 0j), cfg, frame_provider=provider,
                         track_phases=track_phases)
        made = {id(f) for f in provided}
        assert len(calls) == traj.work.rhs_evals and len(provided) == traj.work.frame_evals
        assert all(id(f) in made for f in calls)
        assert {id(f) for f in calls} == made
        assert all(type(x.state) is q.DensityState for x in traj.samples)


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
        stages, err = _METHODS[method]
        assert [s for s, _, _, _ in stages] == list(range(1, len(stages) + 1))
        for s, c, terms, _ in stages:
            assert all(0 <= j < s for j, _ in terms)  # explicit: A is strictly lower
            assert math.fsum(a for _, a in terms) == pytest.approx(c, abs=1e-15)
        _, c_last, b_row, _ = stages[-1]
        assert c_last == 1.0
        assert math.fsum(b for _, b in b_row) == pytest.approx(1.0, abs=1e-15)
        if err is not None:
            assert all(0 <= j <= len(stages) for j, _ in err)
            assert math.fsum(e for _, e in err) == pytest.approx(0.0, abs=1e-15)


class TestSolverWork:
    """Trajectory.work counts what the stepper evaluated, checked against counting callbacks."""

    @staticmethod
    def counted(cone_path):
        calls = {"rhs": 0, "frame": 0}
        sd = q.flat(0.2)

        def provider(t):
            calls["frame"] += 1
            return q.frame_at(cone_path, t)

        def rhs(t, s, f):
            calls["rhs"] += 1
            return q.rhs_full(s, f, sd)

        return calls, provider, rhs

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
        # the last two DP5 stages share the node c = 1: one frame, two RHS calls
        frame_times, rhs_calls = [], []
        sd = q.flat(0.2)

        def provider(t):
            frame_times.append(t)
            return q.frame_at(cone_path, t)

        def rhs(t, s, f):
            rhs_calls.append((t, f))
            return q.rhs_full(s, f, sd)

        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=cone_path.duration / 4, rtol=1e-11)
        w = integrate(rhs, q.DensityState(0.9, 0.1j), cfg, frame_provider=provider).work
        attempts = w.accepted_steps + w.rejected_steps
        assert w.rejected_steps > 0
        assert len(frame_times) == 5 * attempts + 1 and len(rhs_calls) == 6 * attempts + 1
        for k in range(attempts):
            times = frame_times[1 + 5 * k: 6 + 5 * k]
            assert len(set(times)) == 5
            stages = rhs_calls[1 + 6 * k: 7 + 6 * k]
            assert [t for t, _ in stages[:5]] == times
            assert stages[5][0] == stages[4][0] and stages[5][1] is stages[4][1]

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

        traj = integrate(lambda t, s, f: q.rhs_full(s, f, q.flat(0.1)), q.DensityState(1.0, 0j),
                         cfg, frame_provider=provider)
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
                        lambda t, s, f: q.rhs_full(s, f, sd), q.DensityState(1.0, 0j), cfg,
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
        traj = integrate(lambda t, s, f: (0.0, 0j), q.DensityState(1.0), cfg,
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
            traj = integrate(lambda t, s, f: (0.0, 0j), q.DensityState(1.0), cfg,
                             frame_provider=lambda t: q.frame_at(cone_path, t),
                             track_phases=track_phases)
            assert traj.phase_quadrature_error is None

    def test_phase_error_estimate_beyond_the_float_range_raises(self, monkeypatch):
        # an error row scaled by 1e308 against w_gg = 1e3: the state's error is 0 and
        # the phases are finite, but each phase error term overflows
        stages, err_terms = _METHODS["rk45_adaptive"]
        monkeypatch.setitem(_METHODS, "rk45_adaptive",
                            (stages, tuple((j, e * 1e308) for j, e in err_terms)))
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=1.0)
        with pytest.raises(q.NonFiniteState,
                           match="^the optimal phase's error estimate overflows the float range$"):
            integrate(lambda t, s, f: (0.0, 0j), q.DensityState(1.0), cfg,
                      frame_provider=lambda t: make_frame(w_gg=1e3), track_phases=True)

    def test_frame_free_generator_evaluates_no_frame(self):
        r = q.rates(0.0, 1.0, 1.0, q.flat(0.5))
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=5.0)
        traj = integrate(lambda t, s, f: q.rhs_nonsteered(s, r, 1.0), q.DensityState(0.9), cfg)
        assert traj.work.frame_evals == 0
        assert traj.max_alpha == 0.0
        assert all(math.isnan(s.alpha) and math.isnan(s.omega01) for s in traj.samples)
        assert traj.work.rhs_evals == 6 * (traj.work.accepted_steps + traj.work.rejected_steps) + 1

    @pytest.mark.parametrize("method, accepted, rejected, final", [
        ("rk45_adaptive", 752, 23,
         ("0x1.c17de4a5beb4ap-1", "-0x1.086687f67b68fp-8", "0x1.4a2ff8964dbe9p-6")),
        ("rk4_fixed", 800, 0,
         ("0x1.c17de4adf4ba6p-1", "-0x1.0865d9034478bp-8", "0x1.4a300dc035128p-6")),
    ])
    def test_stepper_arithmetic_is_pinned(self, method, accepted, rejected, final):
        # a frame-free thermal run with rho_ge != 0 (m1 != 0 couples it to rho_gg):
        # the step counts and the final state's bits pin the stepper's float
        # operations, the stage sums and the error norm, independently of any frame
        r = q.rates(0.3, complex(0.8, -0.4), 1.0, q.ohmic_thermal(0.1, 0.5, 20.0))
        cfg = q.SolverConfig(method=method, t0=0.0, t1=40.0, rtol=1e-9, atol=1e-12, dt=0.05)
        traj = integrate(lambda t, s, f: q.rhs_nonsteered(s, r, 1.0),
                         q.DensityState(0.7, complex(0.2, -0.1)), cfg)
        assert (traj.work.accepted_steps, traj.work.rejected_steps) == (accepted, rejected)
        fs = traj.final.state
        assert (fs.rho_gg.hex(), fs.rho_ge.real.hex(), fs.rho_ge.imag.hex()) == final


class TestTrajectoryCsv:
    def test_schema_and_precision(self, tmp_path, cone_path):
        sd = q.flat(0.1)
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=1.0, dt=0.05, record_stride=5)
        traj = integrate(
            lambda t, s, f: q.rhs_full(s, f, sd),
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
    traj = integrate(lambda t, s, f: q.rhs_full(s, f, sd), q.DensityState(1.0, 0j), cfg,
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
