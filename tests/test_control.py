import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsteer as q
from qsteer.control import GAP_FLOOR

from conftest import SX, SZ, cone_field, cone_states, hamiltonian, numdiff_w


def static_path(b, A=SX, duration=10.0):
    return q.ControlPath(
        kind="custom", b=lambda t: tuple(b), b_dot=lambda t: (0.0, 0.0, 0.0),
        coupling_A=A, duration=duration,
    )


class TestEigensystem:
    def test_sigma_z_basis(self):
        f = q.eigensystem(static_path((0.0, 0.0, 1.0)), 0.0)
        np.testing.assert_allclose(f.ground, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(f.excited, [1.0, 0.0], atol=1e-15)
        assert f.E_g == pytest.approx(-0.5)
        assert f.E_e == pytest.approx(0.5)

    def test_sigma_x_basis(self):
        f = q.eigensystem(static_path((1.0, 0.0, 0.0)), 0.0)
        target = np.array([1.0, -1.0]) / math.sqrt(2)
        overlap = abs(target.conj() @ f.ground)
        assert overlap == pytest.approx(1.0, abs=1e-14)
        assert f.omega01 == pytest.approx(1.0)

    def test_cone_matches_closed_form(self):
        path = q.rotating_cone(1.0, math.pi / 3, 0.05, SX)
        f = q.eigensystem(path, 0.0)
        g_ref, e_ref = cone_states(math.pi / 3, 0.05, 0.0)
        assert abs(g_ref.conj() @ f.ground) == pytest.approx(1.0, abs=1e-14)
        assert abs(e_ref.conj() @ f.excited) == pytest.approx(1.0, abs=1e-14)
        assert f.omega01 == pytest.approx(1.0, abs=1e-14)

    @given(
        bx=st.floats(-2, 2), by=st.floats(-2, 2), bz=st.floats(-2, 2),
    )
    @settings(max_examples=200)
    def test_eigen_residual_and_orthonormality(self, bx, by, bz):
        b = (bx, by, bz)
        norm = math.sqrt(bx * bx + by * by + bz * bz)
        if norm <= 1e-6:
            return
        f = q.eigensystem(static_path(b), 0.0)
        H = hamiltonian(b)
        scale = np.linalg.norm(H)
        assert np.linalg.norm(H @ f.ground - f.E_g * f.ground) < 1e-12 * scale
        assert np.linalg.norm(H @ f.excited - f.E_e * f.excited) < 1e-12 * scale
        assert abs(f.ground.conj() @ f.ground - 1) < 1e-12
        assert abs(f.excited.conj() @ f.excited - 1) < 1e-12
        assert abs(f.ground.conj() @ f.excited) < 1e-12
        assert f.E_g <= f.E_e

    def test_gap_collapse(self):
        with pytest.raises(q.GapCollapse):
            q.eigensystem(static_path((0.0, 0.0, 0.0)), 0.0)
        with pytest.raises(q.GapCollapse):
            q.eigensystem(static_path((0.0, 0.0, GAP_FLOOR / 2)), 0.0)

    def test_prev_continuation_positive_overlap(self, cone_path):
        prev = q.eigensystem(cone_path, 0.0)
        for t in (0.3, 0.6, 0.9):
            f = q.eigensystem(cone_path, t, prev=prev)
            assert (prev.ground.conj() @ f.ground).real > 0
            assert (prev.excited.conj() @ f.excited).real > 0
            assert abs((prev.ground.conj() @ f.ground).imag) < 1e-12
            prev = f

    def test_pointwise_gauge_continuity(self, cone_path):
        # anchored gauge is smooth without any continuation
        f1 = q.eigensystem(cone_path, 1.0)
        f2 = q.eigensystem(cone_path, 1.0 + 1e-6)
        assert abs(f1.ground.conj() @ f2.ground - 1) < 1e-5


class TestComputeW:
    def test_static_path_zero(self):
        w_gg, w_ee, w_ge = q.compute_w(static_path((0.3, 0.2, 0.9)), 1.0)
        assert w_gg == w_ee == 0.0
        assert w_ge == 0j

    def test_cone_standard_gauge_oracle(self):
        # closed-form states in the standard gauge, differentiated numerically
        w_gg, w_ee, w_ge = numdiff_w(lambda t: cone_states(math.pi / 2, 0.1, t), 0.7)
        assert abs(w_ge) == pytest.approx(0.05, abs=1e-9)
        assert w_gg == pytest.approx(-0.05, abs=1e-9)
        assert w_ee == pytest.approx(0.05, abs=1e-9)

    @pytest.mark.parametrize(
        "theta,expected",
        [(math.pi / 2, 0.05), (math.pi / 3, 0.05 * math.sin(math.pi / 3))],
    )
    def test_cone_offdiagonal_magnitude(self, theta, expected):
        path = q.rotating_cone(1.0, theta, 0.1, SX)
        for method, tol in (("analytic", 1e-12), ("central_difference", 1e-8)):
            _, _, w_ge = q.compute_w(path, 0.4, method=method)
            assert abs(w_ge) == pytest.approx(expected, abs=tol)

    def test_cone_diagonals_ground_branch(self):
        # ground anchor is the phi-independent component: standard-gauge value
        path = q.rotating_cone(1.0, math.pi / 2, 0.1, SX)
        w_gg, _, _ = q.compute_w(path, 1.1)
        assert w_gg == pytest.approx(-0.1 * math.sin(math.pi / 4) ** 2, abs=1e-12)

    def test_analytic_matches_central_difference(self, cone_path):
        wa = q.compute_w(cone_path, 2.0, method="analytic")
        wc = q.compute_w(cone_path, 2.0, method="central_difference", h=1e-4)
        assert wa[0] == pytest.approx(wc[0], abs=1e-7)
        assert wa[1] == pytest.approx(wc[1], abs=1e-7)
        assert abs(wa[2] - wc[2]) < 1e-7

    def test_step_too_coarse(self):
        # needs an asymmetric path with complex eigenvectors; planar or pure
        # cone paths keep the discrete reconstruction Hermitian at any step
        def wobble(t):
            return (
                math.cos(t) + 0.3 * math.sin(2.7 * t),
                0.8 * math.sin(t),
                0.5 + 0.2 * math.cos(1.3 * t),
            )

        path = q.ControlPath(
            kind="custom", b=wobble, b_dot=None, coupling_A=SX, duration=10.0
        )
        with pytest.raises(q.StepTooCoarse):
            q.compute_w(path, 3.0, method="central_difference", h=0.1)
        q.compute_w(path, 3.0, method="central_difference", h=1e-4)

    def test_hermiticity_of_reconstruction(self, cone_path):
        # kernel returns the Hermitian average; feed it raw anchored frames
        h = 1e-5
        frames = [q.eigensystem(cone_path, t) for t in (1.0 - h, 1.0, 1.0 + h)]
        pairs = [(f.ground, f.excited) for f in frames]
        w_gg, w_ee, w_ge = q.w_from_eigenframes(*pairs, h)
        assert isinstance(w_gg, float) and isinstance(w_ee, float)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gauge_covariance_polynomial_shift(self, seed):
        # w under e^{i lam_g}, e^{i lam_e}: diagonals shift by lam', off-diag rotates
        rng = np.random.default_rng(seed)
        cg = rng.uniform(-0.5, 0.5, 3)
        ce = rng.uniform(-0.5, 0.5, 3)
        lam_g = lambda t: cg[0] * t + cg[1] * t**2 + cg[2] * t**3
        lam_e = lambda t: ce[0] * t + ce[1] * t**2 + ce[2] * t**3
        dlam_g = lambda t: cg[0] + 2 * cg[1] * t + 3 * cg[2] * t**2
        dlam_e = lambda t: ce[0] + 2 * ce[1] * t + 3 * ce[2] * t**2
        theta, omega, t0 = math.pi / 3, 0.1, 0.8

        def gauged(t):
            g, e = cone_states(theta, omega, t)
            return g * np.exp(1j * lam_g(t)), e * np.exp(1j * lam_e(t))

        w_plain = numdiff_w(lambda t: cone_states(theta, omega, t), t0)
        w_shift = numdiff_w(gauged, t0)
        expected = q.apply_phase(
            *w_plain, lam_g(t0), lam_e(t0), dlam_g(t0), dlam_e(t0)
        )
        assert w_shift[0] == pytest.approx(expected[0], abs=1e-8)
        assert w_shift[1] == pytest.approx(expected[1], abs=1e-8)
        assert abs(w_shift[2] - expected[2]) < 1e-8
        # |w_ge| is gauge invariant
        assert abs(w_shift[2]) == pytest.approx(abs(w_plain[2]), abs=1e-8)


class TestCouplingElements:
    def test_sigma_x_in_sigma_z_basis(self):
        frame = q.eigensystem(static_path((0.0, 0.0, 1.0)), 0.0)
        m1, m2 = q.coupling_elements(SX, frame)
        assert m1 == pytest.approx(0.0, abs=1e-15)
        assert m2 == pytest.approx(1.0, abs=1e-15)

    def test_sigma_z_in_sigma_z_basis(self):
        frame = q.eigensystem(static_path((0.0, 0.0, 1.0)), 0.0)
        m1, m2 = q.coupling_elements(SZ, frame)
        assert m1 == pytest.approx(-1.0)
        assert m2 == pytest.approx(0.0, abs=1e-15)

    def test_identity_part_removed(self):
        frame = q.eigensystem(static_path((0.0, 0.0, 1.0)), 0.0)
        ref = q.coupling_elements(SZ, frame)
        shifted = q.coupling_elements(SZ + np.eye(2), frame)
        assert shifted == ref

    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2), d=st.floats(-2, 2),
    )
    @settings(max_examples=100)
    def test_traceless_convention(self, a, b, c, d):
        A = np.array([[a, complex(b, c)], [complex(b, -c), d]])
        frame = q.eigensystem(static_path((0.4, -0.3, 0.8)), 0.0)
        m1, _ = q.coupling_elements(A, frame)
        A_prime = A - np.trace(A) / 2 * np.eye(2)
        gg = (frame.ground.conj() @ A_prime @ frame.ground).real
        ee = (frame.excited.conj() @ A_prime @ frame.excited).real
        assert m1 == pytest.approx(gg, abs=1e-12)
        assert gg == pytest.approx(-ee, abs=1e-12)

    def test_rejects_non_hermitian(self):
        frame = q.eigensystem(static_path((0.0, 0.0, 1.0)), 0.0)
        with pytest.raises(ValueError):
            q.coupling_elements(np.array([[0.0, 1.0], [0.5, 0.0]]), frame)


class TestLocalAlpha:
    def test_zero_w(self):
        assert q.local_alpha(0.0, 0.0, 0j, 1.0) == 0.0

    def test_direct_arithmetic(self):
        assert q.local_alpha(0.05, -0.05, 0.05, 1.0) == pytest.approx(0.1)

    def test_cone_alpha_constant(self):
        path = q.rotating_cone(1.0, math.pi / 2, 0.1, SX)
        alphas = [q.frame_at(path, t).alpha for t in (0.0, 7.3, 31.4)]
        np.testing.assert_allclose(alphas, 0.1, atol=1e-12)

    def test_gap_collapse(self):
        with pytest.raises(q.GapCollapse):
            q.local_alpha(0.1, 0.0, 0j, 0.0)

    def test_matches_hs_norm_exactly(self, cone_path):
        f = q.frame_at(cone_path, 3.0)
        assert f.alpha == q.hs_norm(f.w_gg, f.w_ee, f.w_ge) / f.omega01


class TestFrameAt:
    def test_composition_consistency(self, cone_path):
        t = 2.2
        f = q.frame_at(cone_path, t)
        w = q.compute_w(cone_path, t)
        ef = q.eigensystem(cone_path, t)
        m1, m2 = q.coupling_elements(cone_path.coupling_A, ef)
        assert (f.w_gg, f.w_ee) == (w[0], w[1])
        assert f.w_ge == w[2]
        assert f.m1 == pytest.approx(m1, abs=1e-15)
        assert abs(f.m2 - m2) < 1e-15
        assert f.omega01 == ef.omega01

    def test_alpha_scales_inversely_with_period_analytic(self):
        k = 3.0
        base = q.rotating_cone(1.0, math.pi / 3, 0.12, SX)
        slow = q.rotating_cone(1.0, math.pi / 3, 0.12 / k, SX)
        for t in (0.5, 2.0):
            a_base = q.frame_at(base, t).alpha
            a_slow = q.frame_at(slow, t * k).alpha
            assert a_slow * k == pytest.approx(a_base, rel=1e-13)

    def test_alpha_scales_inversely_with_period_central(self):
        k = 2.0
        base = q.rotating_cone(1.0, math.pi / 3, 0.12, SX)
        slow = q.rotating_cone(1.0, math.pi / 3, 0.12 / k, SX)
        a_base = q.frame_at(base, 0.5, method="central_difference").alpha
        a_slow = q.frame_at(slow, 1.0, method="central_difference").alpha
        assert a_slow * k == pytest.approx(a_base, abs=1e-8)

    def test_prev_chain_realizes_parallel_transport(self, cone_path):
        # chained continuation kills the diagonal w elements
        f = q.frame_at(cone_path, 1.0, prev=q.eigensystem(cone_path, 1.0 - 1e-4))
        assert abs(f.w_gg) < 1e-6
        assert abs(q.frame_at(cone_path, 1.0).w_gg) > 1e-3


class TestSampledPaths:
    def test_sampled_reproduces_cone(self):
        theta, omega = math.pi / 3, 0.1
        ts = np.linspace(0.0, 2 * math.pi / omega, 901)
        bs = np.array([cone_field(1.0, theta, omega, t) for t in ts])
        path = q.sampled_path(ts, bs, SX)
        ref = q.rotating_cone(1.0, theta, omega, SX)
        f1 = q.frame_at(path, 12.0)
        f2 = q.frame_at(ref, 12.0)
        assert f1.omega01 == pytest.approx(f2.omega01, rel=1e-9)
        assert abs(f1.w_ge - f2.w_ge) < 1e-6
        assert f1.alpha == pytest.approx(f2.alpha, abs=1e-6)

    def test_csv_round_trip(self, tmp_path):
        ts = np.linspace(0.0, 5.0, 21)
        bs = np.stack([np.cos(ts), np.sin(ts), np.full_like(ts, 0.5)], axis=1)
        fn = tmp_path / "path.csv"
        with open(fn, "w") as fh:
            fh.write("t,b_x,b_y,b_z\n")
            for t, b in zip(ts, bs):
                fh.write(f"{t},{b[0]},{b[1]},{b[2]}\n")
        path = q.path_from_csv(fn, SX)
        assert path.duration == pytest.approx(5.0)
        np.testing.assert_allclose(path.b(2.5), bs[10], atol=1e-9)

    def test_gauge_anchored_at_first_sample(self):
        # b(t) = (0.1 t, 0, 0) sampled on [5, 10]: extrapolating the spline
        # back to t = 0 would land on the gap collapse at b = 0
        ts = np.linspace(5.0, 10.0, 11)
        bs = np.stack([0.1 * ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
        path = q.sampled_path(ts, bs, SZ)
        assert path.anchors() == static_path((0.5, 0.0, 0.0)).anchors()
        f = q.frame_at(path, 5.0)
        assert f.omega01 == pytest.approx(0.5, rel=1e-12)
        assert f.w_gg == pytest.approx(0.0, abs=1e-12)
        assert abs(f.w_ge) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            q.sampled_path([0, 1, 2], np.zeros((3, 3)), SX)
        with pytest.raises(ValueError):
            q.ControlPath(
                kind="custom", b=lambda t: (0, 0, 1), b_dot=None,
                coupling_A=np.array([[0, 1], [0.5, 0]]), duration=1.0,
            )
