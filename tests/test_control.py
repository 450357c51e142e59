import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsteer as q
from qsteer.cli import _read_data_files, build_path, load_scenario
from qsteer.control import GAP_FLOOR, _closed_form

from conftest import SX, SZ, cone_field, cone_states, hamiltonian, numdiff_w
from frame_history import sample_history


def static_path(b, A=SX, duration=10.0):
    return q.ControlPath(
        fields=lambda t: (tuple(b), (0.0, 0.0, 0.0)),
        coupling_A=A, duration=duration,
    )


def kernel_path(path):
    """The path's fields and coupling as a hand-built path, which takes the general closed form."""
    return q.ControlPath(fields=path.fields, coupling_A=path.coupling_A, duration=path.duration)


# The eigenvector-and-anchor frame that the closed form replaced, kept as its
# reference: explicit eigenvectors, each divided by its anchored component's phase,
# and every matrix element a complex sandwich.

def eig_raw(bx, by, bz):
    """Eigenpair of (1/2) b.sigma with arbitrary phases: ((g0, g1), (e0, e1), E_g, E_e)."""
    r = math.sqrt(bx * bx + by * by + bz * bz)
    if r <= GAP_FLOOR:
        raise q.GapCollapse(f"|b| = {r:.3e} <= gap floor {GAP_FLOOR:.0e}")
    if bz >= 0.0:
        n = math.sqrt(2 * r * (r + bz))
        e = ((r + bz) / n, complex(bx, by) / n)
        g = (complex(-bx, by) / n, (r + bz) / n)
    else:
        n = math.sqrt(2 * r * (r - bz))
        e = (complex(bx, -by) / n, (r - bz) / n)
        g = (-(r - bz) / n, complex(bx, by) / n)
    return g, e, -r / 2, r / 2


def reference_anchors(path):
    """The dominant component of each eigenvector at the start; ties go to the second."""
    g, e, _, _ = eig_raw(*path.fields(path.t_start)[0])
    return (1 if abs(g[1]) >= abs(g[0]) else 0), (1 if abs(e[1]) >= abs(e[0]) else 0)


def anchor(vec, c, t):
    """vec with component c rotated to the positive real axis."""
    m = abs(vec[c])
    if m == 0.0:
        raise q.GaugeUndefined(
            f"an anchored eigenvector component vanishes at t = {t:g}: the path reached the "
            "antipode of its start orientation, where the anchored gauge is undefined"
        )
    ph = vec[c] / m
    return (vec[0] / ph, vec[1] / ph)


def eig(path, t):
    """The path's anchored eigenpair at t: (ground, excited, E_g, E_e), vectors as arrays."""
    cg, ce = reference_anchors(path)
    g, e, E_g, E_e = eig_raw(*path.fields(t)[0])
    g, e = anchor(g, cg, t), anchor(e, ce, t)
    return np.array(g, dtype=complex), np.array(e, dtype=complex), E_g, E_e


def reference_frame_at(path, t):
    """frame_at from the anchored eigenvectors, every matrix element a complex sandwich."""
    cg, ce = reference_anchors(path)
    b, (bdx, bdy, bdz) = path.fields(t)
    g, e, E_g, E_e = eig_raw(*b)
    g, e = anchor(g, cg, t), anchor(e, ce, t)
    omega01 = E_e - E_g
    (g0, g1), (e0, e1) = g, e
    gc0, gc1 = g0.conjugate(), g1.conjugate()
    H00, H01, H11 = 0.5 * bdz, 0.5 * complex(bdx, -bdy), -0.5 * bdz
    ge = gc0 * (H00 * e0 + H01 * e1) + gc1 * (H01.conjugate() * e0 + H11 * e1)
    w_ge = -1j * ge / omega01
    w_gg = -(-e[cg] * ge.conjugate() / omega01).imag / g[cg].real
    w_ee = -(g[ce] * ge / omega01).imag / e[ce].real
    A00, A01, A11 = path._A_traceless
    A10 = A01.conjugate()
    m1 = gc0 * (A00 * g0 + A01 * g1) + gc1 * (A10 * g0 + A11 * g1)
    m2 = gc0 * (A00 * e0 + A01 * e1) + gc1 * (A10 * e0 + A11 * e1)
    return q.AdiabaticFrame(omega01, w_gg, w_ee, w_ge, m1.real, m2)


def traceless_reference(A):
    """The coupling check and traceless part as computed on numpy arrays, kept as the oracle."""
    A = np.asarray(A, dtype=complex)
    assert A.shape == (2, 2) and np.max(np.abs(A - A.conj().T)) <= 1e-14
    half_trace = (A[0, 0] + A[1, 1]) / 2
    return complex(A[0, 0] - half_trace), complex(A[0, 1]), complex(A[1, 1] - half_trace)


def field_bits(values):
    """Floats and complex numbers by value and sign, so -0.0 differs from 0.0."""
    return [float.hex(v) if isinstance(v, float) else (float.hex(v.real), float.hex(v.imag))
            for v in values]


COUPLINGS = [
    [[0.0, 1.0], [1.0, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
    [[-0.0, complex(-0.0, -0.3)], [complex(-0.0, 0.3), 0.0]],
    [[0.7, complex(0.2, -1.1)], [complex(0.2, 1.1), -1.9]],
    [[2, 1], [1, 3]],  # integers
    [[complex(1e-300, 0.0), 5e-324], [5e-324, -1e-300]],
    [[0.1, complex(0.3, 4e-15)], [complex(0.3, 5e-15), 0.2 + 5e-15j]],  # within the bound
]


def antipode_path():
    """From +z through the xz plane to exactly -z at t = 1.

    The excited state is anchored on its first component, which dominates at
    +z and is exactly 0 at -z.
    """
    return q.ControlPath(
        fields=lambda t: ((t * (1.0 - t), 0.0, 1.0 - 2.0 * t), (1.0 - 2.0 * t, 0.0, -2.0)),
        coupling_A=SX, duration=1.0,
    )


def anchored_states(path):
    """(ground, excited) of the anchored eigenpair as a function of t, for numdiff_w."""
    return lambda t: eig(path, t)[:2]


class TestEigensystem:
    def test_sigma_z_basis(self):
        g, e, E_g, E_e = eig(static_path((0.0, 0.0, 1.0)), 0.0)
        np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(e, [1.0, 0.0], atol=1e-15)
        assert E_g == pytest.approx(-0.5)
        assert E_e == pytest.approx(0.5)

    def test_sigma_x_basis(self):
        g, _, E_g, E_e = eig(static_path((1.0, 0.0, 0.0)), 0.0)
        target = np.array([1.0, -1.0]) / math.sqrt(2)
        overlap = abs(target.conj() @ g)
        assert overlap == pytest.approx(1.0, abs=1e-14)
        assert E_e - E_g == pytest.approx(1.0)

    def test_cone_matches_closed_form(self):
        path = q.rotating_cone(1.0, math.pi / 3, 0.05, SX)
        g, e, E_g, E_e = eig(path, 0.0)
        g_ref, e_ref = cone_states(math.pi / 3, 0.05, 0.0)
        assert abs(g_ref.conj() @ g) == pytest.approx(1.0, abs=1e-14)
        assert abs(e_ref.conj() @ e) == pytest.approx(1.0, abs=1e-14)
        assert E_e - E_g == pytest.approx(1.0, abs=1e-14)

    @given(
        bx=st.floats(-2, 2), by=st.floats(-2, 2), bz=st.floats(-2, 2),
    )
    @settings(max_examples=200)
    def test_eigen_residual_and_orthonormality(self, bx, by, bz):
        b = (bx, by, bz)
        norm = math.sqrt(bx * bx + by * by + bz * bz)
        if norm <= 1e-6:
            return
        g, e, E_g, E_e = eig(static_path(b), 0.0)
        H = hamiltonian(b)
        scale = np.linalg.norm(H)
        assert np.linalg.norm(H @ g - E_g * g) < 1e-12 * scale
        assert np.linalg.norm(H @ e - E_e * e) < 1e-12 * scale
        assert abs(g.conj() @ g - 1) < 1e-12
        assert abs(e.conj() @ e - 1) < 1e-12
        assert abs(g.conj() @ e) < 1e-12
        assert E_g <= E_e

    def test_gap_collapse(self):
        with pytest.raises(q.GapCollapse):
            eig(static_path((0.0, 0.0, 0.0)), 0.0)
        with pytest.raises(q.GapCollapse):
            eig(static_path((0.0, 0.0, GAP_FLOOR / 2)), 0.0)

    def test_pointwise_gauge_continuity(self, cone_path):
        # anchored gauge is smooth without any continuation
        g1 = eig(cone_path, 1.0)[0]
        g2 = eig(cone_path, 1.0 + 1e-6)[0]
        assert abs(g1.conj() @ g2 - 1) < 1e-5


class TestComputeW:
    def test_static_path_zero(self):
        f = q.frame_at(static_path((0.3, 0.2, 0.9)), 1.0)
        assert f.w_gg == f.w_ee == 0.0
        assert f.w_ge == 0j

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
        assert abs(q.frame_at(path, 0.4).w_ge) == pytest.approx(expected, abs=1e-12)
        _, _, w_ge = numdiff_w(anchored_states(path), 0.4)
        assert abs(w_ge) == pytest.approx(expected, abs=1e-8)

    def test_cone_diagonals_ground_branch(self):
        # ground anchor is the phi-independent component: standard-gauge value
        path = q.rotating_cone(1.0, math.pi / 2, 0.1, SX)
        w_gg = q.frame_at(path, 1.1).w_gg
        assert w_gg == pytest.approx(-0.1 * math.sin(math.pi / 4) ** 2, abs=1e-12)

    def test_analytic_matches_central_difference(self, cone_path):
        f = q.frame_at(cone_path, 2.0)
        wc = numdiff_w(anchored_states(cone_path), 2.0)
        assert f.w_gg == pytest.approx(wc[0], abs=1e-7)
        assert f.w_ee == pytest.approx(wc[1], abs=1e-7)
        assert abs(f.w_ge - wc[2]) < 1e-7

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
        plain = q.AdiabaticFrame(1.0, *w_plain, 0.0, 0j)
        expected = q.phase_shifted_frame(plain, lam_g(t0), lam_e(t0), dlam_g(t0), dlam_e(t0))
        assert w_shift[0] == pytest.approx(expected.w_gg, abs=1e-8)
        assert w_shift[1] == pytest.approx(expected.w_ee, abs=1e-8)
        assert abs(w_shift[2] - expected.w_ge) < 1e-8
        # |w_ge| is gauge invariant
        assert abs(w_shift[2]) == pytest.approx(abs(w_plain[2]), abs=1e-8)


class TestCouplingElements:
    def test_sigma_x_in_sigma_z_basis(self):
        f = q.frame_at(static_path((0.0, 0.0, 1.0), SX), 0.0)
        assert f.m1 == pytest.approx(0.0, abs=1e-15)
        assert f.m2 == pytest.approx(1.0, abs=1e-15)

    def test_sigma_z_in_sigma_z_basis(self):
        f = q.frame_at(static_path((0.0, 0.0, 1.0), SZ), 0.0)
        assert f.m1 == pytest.approx(-1.0)
        assert f.m2 == pytest.approx(0.0, abs=1e-15)

    def test_identity_part_removed(self):
        ref = q.frame_at(static_path((0.0, 0.0, 1.0), SZ), 0.0)
        shifted = q.frame_at(static_path((0.0, 0.0, 1.0), SZ + np.eye(2)), 0.0)
        assert (shifted.m1, shifted.m2) == (ref.m1, ref.m2)

    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(-2, 2), d=st.floats(-2, 2),
    )
    @settings(max_examples=100)
    def test_traceless_convention(self, a, b, c, d):
        A = np.array([[a, complex(b, c)], [complex(b, -c), d]])
        path = static_path((0.4, -0.3, 0.8), A)
        g, e, _, _ = eig(path, 0.0)
        A_prime = A - np.trace(A) / 2 * np.eye(2)
        gg = (g.conj() @ A_prime @ g).real
        ee = (e.conj() @ A_prime @ e).real
        assert q.frame_at(path, 0.0).m1 == pytest.approx(gg, abs=1e-12)
        assert gg == pytest.approx(-ee, abs=1e-12)

    def test_rejects_non_hermitian(self):
        # every entry of A - A^dag is bounded by 1e-14, whatever sequence holds A
        for A in (
            np.array([[0.0, 1.0], [0.5, 0.0]]),
            [[0.0, 1.0], [0.5, 0.0]],
            ((0.0, 1.0), (1.0 + 2e-14j, 0.0)),
            [[6e-15j, 0.0], [0.0, 0.0]],  # residual 2 |Im A_00| = 1.2e-14
            [[0.0, 0.0], [0.0, -6e-15j]],
            [[0.0, complex(1e308, 1e308)], [complex(-1e308, 1e308), 0.0]],  # residual overflows
        ):
            with pytest.raises(ValueError, match="^coupling_A must be Hermitian to 1e-14$"):
                static_path((0.0, 0.0, 1.0), A)
        for A in ([[5e-15j, 1.0], [1.0 + 1e-14j, 0.0]], np.array([[5e-15j, 1.0], [1.0 + 1e-14j, 0.0]])):
            static_path((0.0, 0.0, 1.0), A)  # at the bound

    @pytest.mark.parametrize("A", COUPLINGS)
    def test_list_tuple_and_array_agree_bit_for_bit(self, A):
        ref = traceless_reference(A)
        paths = [static_path((0.3, -0.4, 0.8), M)
                 for M in (A, tuple(map(tuple, A)), np.array(A), np.array(A, dtype=complex))]
        for path in paths:
            assert isinstance(path.coupling_A, tuple)
            assert all(type(z) is complex for row in path.coupling_A for z in row)
            assert field_bits(path._A_traceless) == field_bits(ref)
            assert field_bits(q.frame_at(path, 0.0)) == field_bits(q.frame_at(paths[0], 0.0))


class TestLocalAlpha:
    def test_cone_alpha_constant(self):
        path = q.rotating_cone(1.0, math.pi / 2, 0.1, SX)
        alphas = [q.frame_at(path, t).alpha for t in (0.0, 7.3, 31.4)]
        np.testing.assert_allclose(alphas, 0.1, atol=1e-12)

    def test_gap_collapse(self):
        with pytest.raises(q.GapCollapse):
            q.frame_at(static_path((0.0, 0.0, GAP_FLOOR / 2)), 0.0)

    def test_matches_hs_norm_exactly(self, cone_path):
        # alpha is read from the frame's own w, by the sum of squares of hs_norm
        for t in (0.0, 3.0, 11.7):
            f = q.frame_at(cone_path, t)
            wr, wi = f.w_ge.real, f.w_ge.imag
            direct = math.sqrt(f.w_gg * f.w_gg + f.w_ee * f.w_ee + 2.0 * (wr * wr + wi * wi))
            assert f.alpha == q.hs_norm(f.w_gg, f.w_ee, f.w_ge) / f.omega01 == direct / f.omega01
            assert f._replace(w_gg=0.0, w_ee=0.0).alpha == q.hs_norm(0.0, 0.0, f.w_ge) / f.omega01
        assert q.AdiabaticFrame._fields == ("omega01", "w_gg", "w_ee", "w_ge", "m1", "m2")

    def test_huge_steering_rate_gives_a_finite_alpha(self):
        # |w| ~ 1e200 overflows the squares of the fast form, not alpha itself,
        # which grows linearly with the drive rate
        unit = q.frame_at(q.rotating_cone(1.0, 0.5, 1.0, SX), 0.0).alpha
        path = q.rotating_cone(1.0, 0.5, 1e200, SX)
        f = q.frame_at(path, 0.0)
        assert f.alpha == pytest.approx(1e200 * unit, rel=1e-14)
        assert f.alpha == pytest.approx(q.hs_norm(f.w_gg, f.w_ee, f.w_ge) / f.omega01, rel=1e-15)
        # a Berry loop reports the optimal basis's alpha, constant along the cone
        optimal = q.hs_norm(0.0, 0.0, f.w_ge) / f.omega01
        assert q.berry_phase(path).max_alpha == pytest.approx(optimal, rel=1e-14)
        assert sample_history(path, 0.0, path.duration, 5).alpha == pytest.approx((f.alpha,) * 5)

    def test_alpha_beyond_the_float_range_raises(self):
        # alpha ~ omega / field_energy ~ 1e313: the frame holds its finite w, and the
        # integrations that report alpha, a Berry loop's among them, and the history that
        # tabulates it raise
        path = q.rotating_cone(1e-8, 0.5, 1e305, SX)
        assert q.frame_at(path, 0.0).alpha == math.inf
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=path.duration, dt=path.duration / 2)
        for track_phases in (False, True):
            with pytest.raises(q.NonFiniteState, match="alpha overflows at t = 0$"):
                q.integrate(lambda s, f: q.rhs_full(s, f, q.flat(0.0)), q.DensityState(1.0),
                            cfg, frame_provider=lambda t: q.frame_at(path, t),
                            track_phases=track_phases)
        with pytest.raises(q.NonFiniteState, match="alpha overflows at t = 0$"):
            q.berry_phase(path)
        with pytest.raises(q.NonFiniteState, match="alpha overflows at t = 0$"):
            sample_history(path, 0.0, path.duration, 5)

    @pytest.mark.parametrize("path, magnitude", [
        (q.rotating_cone(1e154, 1.0, 0.05, SX), "1e+154"),
        (q.rotating_cone(1e300, 1.0, 0.05, SX), "1e+300"),
        (q.linear_sweep(1e300, 1.0, 10.0, SX), "5e+300"),
    ], ids=["cone_1e154", "cone_1e300", "sweep_1e300"])
    def test_field_beyond_the_float_range_raises(self, path, magnitude):
        # n = sqrt(2 r (r + |b_z|)) overflows and |q| reads 0: no antipode is reached
        message = re.escape(f"|b| = {magnitude} overflows the frame normalisation at t = 0") + "$"
        with pytest.raises(q.NonFiniteState, match=message):
            q.frame_at(path, 0.0)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=path.duration)
        with pytest.raises(q.NonFiniteState, match=message):
            q.integrate(lambda s, f: (0.0, 0j), q.DensityState(1.0), cfg,
                        frame_provider=lambda t: q.frame_at(path, t))
        with pytest.raises(q.NonFiniteState, match=message):
            sample_history(path, 0.0, path.duration, 5)

    def test_field_overflowing_after_its_start_raises(self):
        # anchored at (0, 0, 1), both anchors are on p, which reads NaN once |b| overflows:
        # no zero division, so the overflow itself is checked
        path = q.ControlPath(fields=lambda t: ((0.0, 0.0, 1.0 if t < 1.0 else 1e200), (0.0, 0.0, 0.0)),
                             coupling_A=SX, duration=3.0)
        assert path.anchors() == (1, 0)
        message = re.escape("|b| = 1e+200 overflows the frame normalisation at t = ")
        with pytest.raises(q.NonFiniteState, match=message + "2$"):
            q.frame_at(path, 2.0)
        with pytest.raises(q.NonFiniteState, match=message + "1.5$"):
            sample_history(path, 0.0, 3.0, 5)

    @pytest.mark.parametrize("path, t", [
        (q.linear_sweep(0.06, 1.0, 80.0, SX), math.nan),
        (q.rotating_cone(1.0, 1.0, 0.05, SX), math.nan),
        (q.ControlPath(fields=lambda t: ((0.3, 0.0, math.nan if t > 1.0 else 1.0), (0.0, 0.0, 0.0)),
                       coupling_A=SX, duration=3.0), 2.0),
    ], ids=["sweep", "cone", "hand_built"])
    def test_nan_field_is_not_finite(self, path, t):
        # a NaN |b| fails the gap check's comparisons but reaches no antipode
        message = re.escape(f"the field magnitude |b| is nan at t = {t:g}") + "$"
        with pytest.raises(q.NonFiniteState, match=message):
            q.frame_at(path, t)
        with pytest.raises(q.NonFiniteState, match=message):
            sample_history(path, t, t + 1.0, 3)

    @pytest.mark.parametrize("start, message", [
        ((math.nan, 0.0, 1.0), "the field magnitude |b| is nan at t = 0"),
        ((0.0, 0.0, 1e200), "the field magnitude |b| = 1e+200 overflows the frame normalisation at t = 0"),
    ], ids=["nan", "overflow"])
    def test_start_field_without_a_frame_gives_no_anchors(self, start, message):
        # the anchors are fixed at the start, so there the field fails as frame_at fails,
        # and no later frame is built in a gauge read off NaN comparisons
        path = q.ControlPath(fields=lambda t: (start if t == 0 else (0.3, 0.0, 1.0), (0.0, 0.0, 0.0)),
                             coupling_A=SX, duration=2.0)
        for get in (path.anchors, lambda: q.frame_at(path, 1.0), lambda: q.frame_at(path, 0.0)):
            with pytest.raises(q.NonFiniteState, match=f"^{re.escape(message)}$"):
                get()

    def test_field_below_the_overflow_has_a_frame(self):
        path = q.rotating_cone(5e153, 1.0, 0.05, SX)
        assert q.frame_at(path, 0.0).omega01 == pytest.approx(5e153, rel=1e-15)
        assert len(sample_history(path, 0.0, path.duration, 5).alpha) == 5


class TestFrameAt:
    def test_composition_consistency(self, cone_path):
        # the snapshot's gap and coupling elements are those of the anchored eigenpair
        t = 2.2
        f = q.frame_at(cone_path, t)
        g, e, E_g, E_e = eig(cone_path, t)
        A = cone_path.coupling_A
        A_prime = A - np.trace(A) / 2 * np.eye(2)
        assert f.m1 == pytest.approx((g.conj() @ A_prime @ g).real, abs=1e-15)
        assert abs(f.m2 - g.conj() @ A_prime @ e) < 1e-15
        assert f.omega01 == E_e - E_g

    def test_alpha_scales_inversely_with_period_analytic(self):
        k = 3.0
        base = q.rotating_cone(1.0, math.pi / 3, 0.12, SX)
        slow = q.rotating_cone(1.0, math.pi / 3, 0.12 / k, SX)
        for t in (0.5, 2.0):
            a_base = q.frame_at(base, t).alpha
            a_slow = q.frame_at(slow, t * k).alpha
            assert a_slow * k == pytest.approx(a_base, rel=1e-13)

    def test_antipode_raises_gauge_undefined(self):
        path = antipode_path()
        assert q.frame_at(path, 0.999).omega01 > 0.9
        with pytest.raises(q.GaugeUndefined, match="t = 1:") as info:
            q.frame_at(path, 1.0)
        assert isinstance(info.value, q.QSteerError)

    @pytest.mark.parametrize("A", COUPLINGS)
    def test_is_the_constructors_frame_of_the_kernel(self, A):
        # frame_at inlines the gap check and builds the tuple directly: every field
        # equals the constructor's on _gap and _fields, bit for bit
        from qsteer.control import _fields, _gap

        antipode = antipode_path()
        cones = [q.rotating_cone(1.3, 2.1, -0.4, A), q.rotating_cone(2, 1, 1, A)]
        paths = [*map(kernel_path, cones), kernel_path(q.linear_sweep(0.2, 0.5, 30.0, A)), antipode]
        for path in paths:
            for t in (0.0, 0.37, 1.0 - 2.0**-20, 7.5):
                if path is antipode and t > 1.0:
                    continue
                f = q.frame_at(path, t)
                b, bd = path.fields(t)
                r = _gap(t, b)
                w_gg, w_ee, wr, wi, m1, m2_r, m2_i = _fields(
                    b, bd, path._A_traceless, r, b[2] >= 0.0, *path.anchors())
                ref = q.AdiabaticFrame(omega01=r, w_gg=w_gg, w_ee=w_ee, w_ge=complex(wr, wi),
                                       m1=m1, m2=complex(m2_r, m2_i))
                assert type(f) is q.AdiabaticFrame
                assert f == ref and field_bits(f) == field_bits(ref)
                assert f._asdict() == ref._asdict()

    def test_gap_collapse_message_is_the_kernels(self):
        from qsteer.control import _gap

        path = q.linear_sweep(1.0, 1e-10, 10.0, SX)  # |b| = 1e-10 at mid-path
        with pytest.raises(q.GapCollapse) as got:
            q.frame_at(path, 5.0)
        with pytest.raises(q.GapCollapse) as want:
            _gap(5.0, path.fields(5.0)[0])
        assert str(got.value) == str(want.value) == "|b| = 1.000e-10 <= gap floor 1e-09"

    @staticmethod
    def cone_field(Omega, theta, omega, t):
        """The cone's b and b_dot at t, as written."""
        st, ct = math.sin(theta), math.cos(theta)
        return {"b": (Omega * st * math.cos(omega * t), Omega * st * math.sin(omega * t), Omega * ct),
                "b_dot": (-Omega * omega * st * math.sin(omega * t),
                          Omega * omega * st * math.cos(omega * t), 0.0)}

    @pytest.mark.parametrize("Omega, theta, omega", [(1.3, 2.1, -0.4), (2, 1, 3), (0.7, -0.3, 1e-3)])
    def test_cone_field_is_the_written_expression(self, Omega, theta, omega):
        path = q.rotating_cone(Omega, theta, omega, SX)
        for t in (0.0, 0.25, 3.0, 1e4):
            want = self.cone_field(Omega, theta, omega, t)
            b, bd = path.fields(t)
            assert field_bits(b) == field_bits(want["b"])
            assert field_bits(bd) == field_bits(want["b_dot"])

    @pytest.mark.parametrize("Omega, theta, omega", [(1.3, 2.1, -0.4), (2, 1, 3), (0.7, -0.3, 1e-3)])
    def test_cone_field_between_calls_at_other_times(self, Omega, theta, omega):
        # each call depends on its own t only, and the signed zeros stay apart
        path = q.rotating_cone(Omega, theta, omega, SX)
        ts = (0.25, 3.0, 0.0, -0.0, 1e4, 0, 0.25)
        calls = list(ts) + [c for t, u in zip(ts, ts[1:]) for c in (t, u, t)]
        calls += list(reversed(ts)) + [0.0, -0.0, -0.0, 0.0]
        for t in calls:
            want = self.cone_field(Omega, theta, omega, t)
            b, bd = path.fields(t)
            assert field_bits(b) == field_bits(want["b"]), t
            assert field_bits(bd) == field_bits(want["b_dot"]), t

    @pytest.mark.parametrize("make, message", [
        (lambda: q.rotating_cone(1, 1, 0.1, [[math.nan, 1], [1, 0]]), "coupling_A must be finite"),
        (lambda: q.rotating_cone(1, 1, 0.1, [[math.inf, 1], [1, 0]]), "coupling_A must be finite"),
        (lambda: q.rotating_cone(1, 1, 0.1, [[0, complex(1, math.nan)], [1, 0]]),
         "coupling_A must be finite"),
        (lambda: q.linear_sweep(0.1, 1.0, 10.0, [[0, 1], [-math.inf, 0]]), "coupling_A must be finite"),
        (lambda: q.rotating_cone(math.nan, 1, 0.1, SX), "Omega must be positive and finite"),
        (lambda: q.rotating_cone(math.inf, 1, 0.1, SX), "Omega must be positive and finite"),
        (lambda: q.rotating_cone(1, math.nan, 0.1, SX), "theta must be finite"),
        (lambda: q.rotating_cone(1, 1, math.nan, SX), "omega must be nonzero and finite"),
        (lambda: q.rotating_cone(1, 1, -math.inf, SX), "omega must be nonzero and finite"),
        (lambda: q.linear_sweep(math.nan, 1.0, 10.0, SX), "slope must be finite"),
        (lambda: q.linear_sweep(0.1, math.inf, 10.0, SX), "gap must be positive and finite"),
        (lambda: q.linear_sweep(0.1, 1.0, math.nan, SX), "duration must be positive and finite"),
        # scipy's spline rejects non-finite samples
        (lambda: q.sampled_path([0, 1, 2, math.nan], np.ones((4, 3)), SX),
         "`x` must contain only finite values."),
        (lambda: q.sampled_path([0, 1, 2, 3], [[1, 0, 0]] * 3 + [[1, math.inf, 0]], SX),
         "`y` must contain only finite values."),
    ])
    def test_non_finite_inputs_rejected(self, make, message):
        # a NaN Hermiticity residual passes no "> 1e-14" test, and NaN fields
        # would give NaN frames and rates
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()


REFERENCE_COUPLINGS = [SX, SZ, [[0.3, 1.0], [1.0, -0.3]],
                       [[0.2, complex(0.5, -0.7)], [complex(0.5, 0.7), -0.4]]]


def tie_then_down(A):
    """Starts at b_z = -0.0 (the upper branch, p == |q|: both anchors on component 1),
    then precesses on the lower branch."""
    return q.ControlPath(
        fields=lambda t: ((math.cos(0.3 * t), math.sin(0.3 * t), -0.05 * t),
                          (-0.3 * math.sin(0.3 * t), 0.3 * math.cos(0.3 * t), -0.05)),
        coupling_A=A, duration=20.0,
    )


def sampled_wave(A):
    ts = np.linspace(0.0, 20.0, 30)
    bs = np.stack([np.cos(ts), np.sin(ts), 0.5 * np.cos(0.3 * ts)], axis=1)
    return q.sampled_path(ts, bs, A)


REFERENCE_PATHS = {
    **{f"cone-{k}pi/4": (lambda A, k=k: q.rotating_cone(1.0, k * math.pi / 4, 0.1, A))
       for k in range(5)},
    "sweep-up": lambda A: q.linear_sweep(0.05, 1.0, 100.0, A),
    "sweep-down": lambda A: q.linear_sweep(-0.05, 1.0, 100.0, A),
    "tie-then-down": tie_then_down,
    "sampled": sampled_wave,
    "integer-b_dot": lambda A: q.ControlPath(
        fields=lambda t: ((0.3, 0.1 * t, 0.9 - 0.2 * t), (0, 1, 0)),
        coupling_A=A, duration=10.0),
}


class TestClosedFormAgainstReference:
    """frame_at's closed form equals the eigenvector-and-anchor frame to rounding."""

    @pytest.mark.parametrize("A", REFERENCE_COUPLINGS, ids=["sx", "sz", "real", "complex"])
    def test_every_field_within_1e_15(self, A):
        seen = set()
        for name, make in REFERENCE_PATHS.items():
            path = make(A)
            assert path.anchors() == reference_anchors(path), name
            t_start = path.t_start
            for i in range(201):
                t = t_start + path.duration * i / 200
                got, want = q.frame_at(path, t), reference_frame_at(path, t)
                assert got.omega01 == want.omega01, (name, t)
                for field in got._fields[1:] + ("alpha",):
                    x = getattr(got, field), getattr(want, field)
                    assert abs(x[0] - x[1]) <= 1e-15 * max(1.0, abs(x[1])), (name, t, field, x)
                seen.add((path.fields(t)[0][2] >= 0.0, path.anchors()))
        # each branch with each anchor pair that a start can give: both anchors
        # on p, both on q, and the b_z = 0 tie
        assert seen == {(up, pair) for up in (True, False) for pair in ((1, 0), (0, 1), (1, 1))}

    def test_antipode_message_is_the_reference_message(self):
        path = antipode_path()
        with pytest.raises(q.GaugeUndefined) as want:
            reference_frame_at(path, 1.0)
        with pytest.raises(q.GaugeUndefined) as got:
            q.frame_at(path, 1.0)
        assert str(got.value) == str(want.value)
        assert "t = 1:" in str(got.value)


def outcome(path, t):
    """frame_at's frame at t, or the type and message of what it raised."""
    try:
        return q.frame_at(path, t)
    except (q.QSteerError, ValueError) as exc:
        return type(exc), str(exc)


def assert_same_frame(got, want, where):
    """omega01 bit-equal and every other field, alpha too, within 1e-15 max(1, |x|)."""
    assert got.omega01 == want.omega01, where
    for field in got._fields[1:] + ("alpha",):
        x = getattr(got, field), getattr(want, field)
        assert abs(x[0] - x[1]) <= 1e-15 * max(1.0, abs(x[1])), (where, field, x)


# both branches, the b_z ~ 0 tie on each (45.55... gives b_z = -8e-19 at field 1.3), theta < 0
# and theta > pi
CONE_THETAS = (0.0, 0.3, 1.0, math.pi / 2, 2.0, 2.8, math.pi, -0.7, -2.5, 4.0, 5.5, 45.553093477052)


class TestConeLaw:
    """A rotating cone's frame law against the general closed form on the same fields."""

    @pytest.mark.parametrize("A", REFERENCE_COUPLINGS + [[[0.0, -1j], [1j, 0.0]]],
                             ids=["sx", "sz", "real", "complex", "sy"])
    def test_every_field_within_1e_15(self, A):
        from qsteer.control import _cone_law

        seen = set()
        for theta in CONE_THETAS:
            for omega in (0.1, -0.37):
                cone = q.rotating_cone(1.3, theta, omega, A)
                assert cone._law is not _closed_form
                paths = [(cone, kernel_path(cone))]
                # the start gives four (branch, anchor pair) combinations; presetting the
                # anchors gives the pairs with both anchors on q, which no start gives
                # (|q| <= p there), wherever q is well away from 0
                upper = cone.fields(0.0)[0][2] >= 0.0
                if abs(math.sin(theta)) > 0.5:
                    forced = q.rotating_cone(1.3, theta, omega, A)
                    forced._anchors = (0, 1) if upper else (1, 0)
                    forced._law = _cone_law(forced, omega)
                    bare = kernel_path(forced)
                    bare._anchors = forced._anchors
                    paths.append((forced, bare))
                for law, kernel in paths:
                    for i in range(50):
                        t = -3.0 + 0.731 * i
                        assert_same_frame(q.frame_at(law, t), q.frame_at(kernel, t), (theta, omega, t))
                    seen.add((upper, law.anchors()))
        assert seen == {(up, pair) for up in (True, False) for pair in ((1, 0), (0, 1), (1, 1))}

    @pytest.mark.parametrize("Omega, theta, ts, has_law", [
        (1e-300, 1.0, (0.0, 2.0), False),     # below the gap floor: GapCollapse
        (1e308, 1.0, (0.0, 2.0), False),      # |b| overflows: NonFiniteState
        (1e154, 1.0, (0.0, 2.0), False),      # the normalisation overflows: NonFiniteState
        # the normalisation overflows at some times only, as |b| drifts by ulps
        (7.966886661578431e153, 2.0, tuple(0.37 * i for i in range(60)), False),
        (1.0, 1.0, (math.nan, math.inf, -math.inf), True),
        # just above the floor: |b| rounds to the floor at one of the times
        (math.nextafter(GAP_FLOOR, 1.0), 2.0, tuple(0.17 * i for i in range(400)), True),
    ])
    def test_errors_are_the_kernels(self, Omega, theta, ts, has_law):
        cone = q.rotating_cone(Omega, theta, 0.1, SX)
        assert (cone._law is not _closed_form) == has_law
        kernel = kernel_path(cone)
        raised = 0
        for t in ts:
            got, want = outcome(cone, t), outcome(kernel, t)
            if isinstance(want, q.AdiabaticFrame):
                assert_same_frame(got, want, t)
            else:
                assert got == want, t
                raised += 1
        assert raised >= 1

    def test_infinite_drive_phase_is_non_finite(self):
        # omega t overflows from t = 1.8 on; the law, the kernel and the fields name t
        cone = q.rotating_cone(1.0, 1.0, 1e308, SX, duration=10.0)
        assert cone._law is not _closed_form
        assert q.frame_at(cone, 1.0).omega01 == 1.0
        for t, phase in ((5.0, "inf"), (math.inf, "inf"), (-math.inf, "-inf"), (-2.0, "-inf")):
            message = f"the drive phase omega t = {phase} is not finite at t = {t:g}"
            for call in (lambda: q.frame_at(cone, t), lambda: q.frame_at(kernel_path(cone), t),
                         lambda: cone.fields(t)):
                with pytest.raises(q.NonFiniteState, match=f"^{re.escape(message)}$"):
                    call()

    def test_replace_takes_the_general_closed_form(self):
        import dataclasses

        cone = q.rotating_cone(1.3, 2.1, -0.4, SX)
        B = [[0.2, complex(0.5, -0.7)], [complex(0.5, 0.7), -0.4]]
        other = dataclasses.replace(cone, coupling_A=B)
        assert cone._law is not _closed_form and other._law is _closed_form
        for t in (0.0, 0.37, 7.5):
            f, ref = q.frame_at(other, t), q.frame_at(kernel_path(other), t)
            assert field_bits(f) == field_bits(ref)
            assert f.m2 != q.frame_at(cone, t).m2


def assert_law_frame(got, want, where):
    """omega01, w_gg, w_ee and m1 bit for bit, signed zeros included; w_ge, m2 and alpha
    within 1e-15 max(1, |x|)."""
    assert type(got) is q.AdiabaticFrame, where
    assert field_bits((got.omega01, got.w_gg, got.w_ee, got.m1)) == field_bits(
        (want.omega01, want.w_gg, want.w_ee, want.m1)), where
    for field in ("w_ge", "m2", "alpha"):
        x = getattr(got, field), getattr(want, field)
        assert abs(x[0] - x[1]) <= 1e-15 * max(1.0, abs(x[1])), (where, field, x)


class TestSweepLaw:
    """A linear sweep's frame law against the general closed form on the same fields."""

    @pytest.mark.parametrize("A", COUPLINGS + [[[0.0, -1j], [1j, 0.0]]],
                             ids=[f"A{i}" for i in range(len(COUPLINGS))] + ["sy"])
    def test_every_field_against_the_closed_form(self, A):
        from qsteer.control import _sweep_law

        seen = set()
        for slope in (0.06, -0.06, 0.035, -0.035, 0.0, -0.0, 2):
            sweep = q.linear_sweep(slope, 1.0, 80.0, A)
            assert sweep._law is not _closed_form
            paths = [(sweep, kernel_path(sweep))]
            # the start gives (1, 0) on the upper branch, (0, 1) on the lower and (1, 1) at
            # b_z = -0.0 (slope 0); presetting the anchors gives every pair on both branches
            for anchors in ((0, 0), (0, 1), (1, 0), (1, 1)):
                forced = q.linear_sweep(slope, 1.0, 80.0, A)
                forced._anchors = anchors
                forced._law = _sweep_law(forced, slope, 1.0, 40.0)
                bare = kernel_path(forced)
                bare._anchors = anchors
                paths.append((forced, bare))
            # the crossing is at 40.0, where b_z is a zero with the slope's sign
            b_z = sweep.fields(40.0)[0][2]
            assert b_z == 0.0 and math.copysign(1.0, b_z) == math.copysign(1.0, slope)
            ts = [-3.0 + 0.731 * i for i in range(160)]
            ts += [40.0, math.nextafter(40.0, 0.0), math.nextafter(40.0, 80.0), 80.0]
            for law, kernel in paths:
                for t in ts:
                    assert_law_frame(q.frame_at(law, t), q.frame_at(kernel, t), (slope, t))
                    seen.add((law.fields(t)[0][2] >= 0.0, law.anchors()))
        assert seen == {(up, pair) for up in (True, False) for pair in ((0, 0), (1, 0), (0, 1), (1, 1))}

    @pytest.mark.parametrize("A", REFERENCE_COUPLINGS + [[[0.0, -1j], [1j, 0.0]]],
                             ids=["sx", "sz", "real", "complex", "sy"])
    def test_every_field_against_the_eigenvector_reference(self, A):
        for slope in (0.06, -0.06, 0.0, 2):
            sweep = q.linear_sweep(slope, 1.0, 80.0, A)
            for i in range(201):
                t = 0.4 * i
                assert_same_frame(q.frame_at(sweep, t), reference_frame_at(sweep, t), (slope, t))

    @pytest.mark.parametrize("slope, gap, duration, ts, has_law", [
        (0.06, 1.0, 80.0, (math.nan, math.inf, -math.inf), True),
        (0.0, 1.0, 80.0, (math.nan, math.inf, -math.inf), True),    # b_z = 0 * inf is NaN
        (1e300, 1.0, 10.0, (0.0, 5.0, 10.0), False),                 # the start overflows
        # starts in range, then |b| overflows the normalisation and then the float range
        (1e300, 1.0, 1e-300, (0.0, 1e-300, 1e-160, 1.0, 1e10, -1e10), True),
        # the gap collapses at mid-path, and 2e-9 past it the frame is the law's again
        (1.0, 1e-10, 10.0, (5.0, 5.0 + 2e-10, 5.0 + 2e-9, 0.0), True),
        # Delta/|b| is far below 2^-1000 at large |t|: |q| is subnormal, then 0 on the
        # upper branch, where both anchors are on q
        (1.0, 1e-300, 10.0, (4.0, 6.0, 1e10, -1e10, 1e24, -1e24), True),
        # below the slope floor: at |b| = 1e5 the closed form's steering product underflows
        # to a zero of the other sign, so the path keeps the closed form
        (1e-120, 1e-200, 1e112, (0.0, 5e111, 1e125, 1e126), False),
    ])
    def test_errors_and_edges_are_the_kernels(self, slope, gap, duration, ts, has_law):
        sweep = q.linear_sweep(slope, gap, duration, SX)
        assert (sweep._law is not _closed_form) == has_law
        kernel = kernel_path(sweep)
        raised = 0
        for t in ts:
            got, want = outcome(sweep, t), outcome(kernel, t)
            if isinstance(want, q.AdiabaticFrame):
                assert_law_frame(got, want, t)
            else:
                assert got == want, t
                raised += 1
        assert raised >= 1

    @pytest.mark.parametrize("slope, gap, duration, A", [
        # |b| = 1 at the start, far beyond the safe range |b| < gap / 2^-1000 ~ 1e-4
        (0.2, 1e-305, 10.0, SX),
        # a coupling near the float range: the law's m2 constants overflow
        (0.06, 1.0, 80.0, [[1e308, 1e308], [1e308, -1e308]]),
    ], ids=["start-beyond-the-safe-range", "non-finite-constants"])
    def test_sweep_without_a_law_is_the_closed_form(self, slope, gap, duration, A):
        sweep = q.linear_sweep(slope, gap, duration, A)
        assert sweep._law is _closed_form
        kernel = kernel_path(sweep)
        for t in (0.0, 0.3 * duration, 0.4 * duration, 0.6 * duration, duration):
            got, want = q.frame_at(sweep, t), q.frame_at(kernel, t)
            assert field_bits(got) == field_bits(want), t

    def test_numpy_times_give_the_same_frames(self):
        # a numpy scalar t, as scipy's solvers pass, makes numpy scalars of b_z and its sign test
        sweep = q.linear_sweep(0.06, 1.0, 80.0, SX)
        for t in (0.0, 21.3, 40.0, 62.5):
            assert field_bits(q.frame_at(sweep, np.float64(t))) == field_bits(q.frame_at(sweep, t))

    def test_frames_outside_the_safe_range_are_the_closed_forms(self):
        # |q| is subnormal at t = +-1e10: the kernel's frame, bit for bit
        sweep = q.linear_sweep(1.0, 1e-300, 10.0, SX)
        assert sweep._law is not _closed_form
        for t in (1e10, -1e10):
            assert field_bits(q.frame_at(sweep, t)) == field_bits(q.frame_at(kernel_path(sweep), t))
        with pytest.raises(q.GaugeUndefined, match=re.escape("vanishes at t = 1e+24:")):
            q.frame_at(sweep, 1e24)

    def test_replace_takes_the_general_closed_form(self):
        import dataclasses

        sweep = q.linear_sweep(0.06, 1.0, 80.0, SX)
        B = [[0.2, complex(0.5, -0.7)], [complex(0.5, 0.7), -0.4]]
        other = dataclasses.replace(sweep, coupling_A=B)
        assert sweep._law is not _closed_form and other._law is _closed_form
        for t in (0.0, 37.0, 40.0, 75.5):
            f, ref = q.frame_at(other, t), q.frame_at(kernel_path(other), t)
            assert field_bits(f) == field_bits(ref)
            assert f.m2 != q.frame_at(sweep, t).m2


class TestSampleHistory:
    """The history's columns are frame_at's fields at the sample times."""

    @staticmethod
    def assert_columns_match(path, t0, t1, num=257):
        hist = sample_history(path, t0, t1, num)
        frames = [q.frame_at(path, t) for t in hist.times]
        for name in ("w_gg", "w_ee", "alpha"):
            # bit for bit, signed zeros included
            want = [getattr(f, name).hex() for f in frames]
            assert [x.hex() for x in getattr(hist, name)] == want, name

    @pytest.mark.parametrize("t0, t1", [(0.0, 62.83185307179586), (-3.7, 41.3), (1e-3, 1.0)])
    @pytest.mark.parametrize("num", [3, 4, 513, 65537])
    def test_times_are_linspace(self, t0, t1, num):
        path = q.rotating_cone(1.0, math.pi / 3, 0.1, SX)
        times = sample_history(path, t0, t1, num).times
        assert type(times) is tuple and all(type(t) is float for t in times)
        want = np.linspace(t0, t1, num)
        np.testing.assert_array_equal(np.array(times).view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi])
    def test_cone(self, theta):
        # theta below and above pi/2: both _eig_raw branches (b_z >= 0, < 0) and both anchor pairs
        path = kernel_path(q.rotating_cone(1.0, theta, 0.1, SX))
        self.assert_columns_match(path, 0.0, path.duration)

    def test_sweep_crossing_bz_zero(self):
        # anchors fixed at b_z < 0 land on the complex components once b_z >= 0
        path = kernel_path(q.linear_sweep(0.05, 1.0, 100.0, SZ))
        assert path.fields(0.0)[0][2] < 0.0 < path.fields(100.0)[0][2]
        self.assert_columns_match(path, 0.0, 100.0)

    def test_sampled_path(self):
        ts = np.linspace(0.0, 20.0, 30)
        bs = np.stack([np.cos(ts), np.sin(ts), 0.5 * np.cos(0.3 * ts)], axis=1)
        self.assert_columns_match(q.sampled_path(ts, bs, SX), 0.0, 20.0)

    def test_static_path_integer_b_dot(self):
        path = q.ControlPath(
            fields=lambda t: ((0.3, 0.1, 0.9), (0, 0, 0)),
            coupling_A=SX, duration=10.0,
        )
        self.assert_columns_match(path, 0.0, 10.0, 101)

    def test_antipode_raises_gauge_undefined(self):
        path = antipode_path()
        self.assert_columns_match(path, 0.0, 0.9, 91)
        with pytest.raises(q.GaugeUndefined, match="t = 1:"):
            sample_history(path, 0.0, 1.0, 11)

    def test_gap_collapse(self):
        # b_z sweeps through 0 at a sample time, with no transverse field there
        path = q.ControlPath(
            fields=lambda t: ((0.0, 0.0, t - 5.0), (0.0, 0.0, 1.0)),
            coupling_A=SX, duration=10.0,
        )
        with pytest.raises(q.GapCollapse):
            sample_history(path, 0.0, 10.0, 11)


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
        sc = load_scenario(
            f"path:\n  kind: sampled\n  csv_file: {fn}\n  duration_time: 5.0\n"
            "coupling:\n  matrix: [[0.0, 1.0], [1.0, 0.0]]\nbath:\n  model: flat\n  s0_rate: 0.1\n")
        _, rows = _read_data_files(sc)
        path = build_path(sc.path, SX, rows)
        assert path.duration == pytest.approx(5.0)
        np.testing.assert_allclose(path.fields(2.5)[0], bs[10], atol=1e-9)

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

    def test_no_extrapolation_outside_the_samples(self):
        ts = np.linspace(2.0, 5.0, 4)
        bs = np.stack([np.ones_like(ts), 0.1 * ts, np.ones_like(ts)], axis=1)
        path = q.sampled_path(ts, bs, SX)
        # both ends, and an ulp beyond either (where a window's last stage can land), are inside
        for t in (2.0, 5.0, math.nextafter(5.0, math.inf), math.nextafter(2.0, -math.inf)):
            assert q.frame_at(path, t).omega01 > 0
        for t in (1.9, 5.1, -5.0, 30.0):
            with pytest.raises(q.OutOfRange, match=rf"t = {t!r} is outside the path's samples \[2.0, 5.0\]"):
                q.frame_at(path, t)
            with pytest.raises(q.OutOfRange):
                path.fields(t)

    @pytest.mark.parametrize("ts, bs, message", [
        ([0.0, 1.0, 1.0, 2.0], np.ones((4, 3)), "sampled path times must be strictly increasing"),
        ([0.0, 2.0, 1.0, 3.0], np.ones((4, 3)), "sampled path times must be strictly increasing"),
        ([0.0, 1.0, 2.0, 3.0], np.ones((4, 2)), "b_values must have shape (n_times, 3)"),
        ([0.0, 1.0, 2.0, 3.0], np.ones((3, 3)), "b_values must have shape (n_times, 3)"),
    ], ids=["repeated-time", "decreasing-time", "two-components", "too-few-fields"])
    def test_samples_rejected(self, ts, bs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            q.sampled_path(ts, bs, SX)

    def test_validation(self):
        with pytest.raises(ValueError):
            q.sampled_path([0, 1, 2], np.zeros((3, 3)), SX)
        with pytest.raises(ValueError):
            q.ControlPath(
                fields=lambda t: ((0, 0, 1), (0, 0, 0)),
                coupling_A=np.array([[0, 1], [0.5, 0]]), duration=1.0,
            )
        ts = np.linspace(0.0, 3.0, 4)
        bs = np.stack([np.ones_like(ts), np.zeros_like(ts), ts], axis=1)
        for A, message in [
            (np.eye(3), "^coupling_A must be a 2x2 matrix$"),
            ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], "^coupling_A must be a 2x2 matrix$"),
            ([[0.0, 1.0], [1.0]], "^coupling_A must be a 2x2 matrix$"),  # ragged
            ([[0.0, 1.0, 2.0], [1.0, 0.0]], "^coupling_A must be a 2x2 matrix$"),
            (np.array([0.0, 1.0]), "^coupling_A must be a 2x2 matrix$"),  # 1-D
            ([0.0, 1.0, 1.0, 0.0], "^coupling_A must be a 2x2 matrix$"),
            (1.0, "^coupling_A must be a 2x2 matrix$"),
            ([[[0.0], [1.0]], [[1.0], [0.0]]], "^coupling_A must be a 2x2 matrix$"),  # 2x2x1
            ([["x", 1.0], [1.0, 0.0]], "malformed string"),  # non-numeric entry
            ([[0.0, 1.0], [0.5, 0.0]], "^coupling_A must be Hermitian to 1e-14$"),
        ]:
            with pytest.raises(ValueError, match=message):
                q.sampled_path(ts, bs, A)


# knots with |b| up to sqrt(5): the spline through the step from b_z = 1 to 2 overshoots
STEP_KNOTS = [[1, 0, 1], [1, 0, 1], [1, 0, 2], [1, 0, 2], [1, 0, 1], [1, 0, 1]]


@pytest.mark.parametrize("make, t0, t1", [
    (lambda: q.rotating_cone(1.5, 1.0, 0.3, SX), 2.0, 7.0),
    (lambda: q.linear_sweep(0.5, 0.5, 10.0, SX), 0.0, 10.0),
    (lambda: q.linear_sweep(0.5, 0.5, 10.0, SX), 4.0, 6.0),  # leaves out both far ends
    (lambda: q.linear_sweep(-0.5, 0.5, 10.0, SX), 1.0, 4.0),
    (lambda: q.sampled_path(np.arange(6.0), STEP_KNOTS, SX), 0.0, 5.0),
    (lambda: q.sampled_path(np.arange(6.0), STEP_KNOTS, SX), 0.0, 2.0),
], ids=["cone", "sweep", "sweep-mid-window", "sweep-early-window", "sampled", "sampled-before-the-step"])
def test_each_path_bounds_its_gap_over_a_window(make, t0, t1):
    # the constructor's bound is the largest |b| over [t0, t1], to the 4 ulps that the
    # spectrum range check widens it by
    path = make()
    bound = path._gap_bound(t0, t1)
    peak = max(math.hypot(*path.fields(t)[0]) for t in np.linspace(t0, t1, 2001))
    assert peak <= bound * (1.0 + 4.0 * np.finfo(float).eps)
    assert peak == pytest.approx(bound, rel=1e-6)
