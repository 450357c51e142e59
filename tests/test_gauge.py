import cmath
import math

import numpy as np
import pytest

import qsteer as q
from qsteer.gauge import phase_factor

from conftest import SX, cone_field
from frame_history import (
    FrameHistory,
    NonUniformGridUnsupported,
    _simpson,
    history_berry_phase,
    sample_history,
)


def w_frame(w_gg, w_ee, w_ge):
    """A unit-gap frame with the given w and no coupling."""
    return q.AdiabaticFrame(omega01=1.0, w_gg=w_gg, w_ee=w_ee, w_ge=w_ge, m1=0.0, m2=0j)


class TestApplyPhase:
    def test_identity(self):
        f = w_frame(0.02, -0.01, 0.03 + 0.01j)
        assert q.phase_shifted_frame(f, 0.0, 0.0, 0.0, 0.0) == f

    def test_optimal_choice_kills_diagonals(self):
        f = q.phase_shifted_frame(w_frame(0.02, -0.01, 0.03j), 0.1, 0.2, -0.02, 0.01)
        assert f.w_gg == 0.0
        assert f.w_ee == 0.0

    def test_pi_phase_difference_flips_offdiagonal(self):
        f = q.phase_shifted_frame(w_frame(0.0, 0.0, 0.05), 0.0, math.pi, 0.0, 0.0)
        assert f.w_ge == pytest.approx(-0.05, abs=1e-15)


class TestHsNorm:
    def test_zero(self):
        assert q.hs_norm(0.0, 0.0, 0j) == 0.0

    def test_arithmetic(self):
        assert q.hs_norm(0.05, -0.05, 0.05) == pytest.approx(0.1)

    def test_offdiagonal_only(self):
        assert q.hs_norm(0.0, 0.0, 0.05) == pytest.approx(math.sqrt(2) * 0.05)

    def test_huge_entries_do_not_overflow(self):
        assert q.hs_norm(1e200, -1e200, 1e200j) == pytest.approx(2e200, rel=1e-15)
        assert q.hs_norm(0.0, 0.0, 1e300) == pytest.approx(math.sqrt(2) * 1e300, rel=1e-15)


def history_of(path, n=801, t0=0.0, t1=None):
    return sample_history(path, t0, path.duration if t1 is None else t1, n)


def tracked_phases(path, t1, dt, record_stride):
    """Samples of a plain flat-bath run whose stepper accumulates the optimal phase."""
    sd = q.flat(0.1)
    cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=t1, dt=dt, record_stride=record_stride)
    return q.integrate(
        lambda t, s, f: q.rhs_full(s, f, sd), q.DensityState(1.0, 0j), cfg,
        frame_provider=lambda t: q.frame_at(path, t), track_phases=True,
    ).samples


class TestOptimalSchedule:
    def test_constant_when_diagonals_vanish(self):
        # static path: w identically zero
        path = q.ControlPath(
            fields=lambda t: ((0.3, 0.1, 0.9), (0, 0, 0)),
            coupling_A=SX, duration=10.0,
        )
        samples = tracked_phases(path, 10.0, 0.1, 10)
        assert all(s.lambda_g == 0.0 and s.lambda_e == 0.0 for s in samples)

    def test_cone_ground_branch_linear_in_time(self):
        # w_gg = -omega sin^2(theta/2) = -0.05 on the ground branch
        path = q.rotating_cone(1.0, math.pi / 2, 0.1, SX)
        samples = tracked_phases(path, 50.0, 0.05, 100)
        assert len(samples) == 11
        for s in samples:
            assert s.lambda_g == pytest.approx(0.05 * s.t, abs=1e-10)

    def test_schedule_invariants(self, cone_path):
        bp = q.berry_phase(cone_path)
        assert bp.quadrature_error < 1e-8
        assert bp.loop_gap <= 1e-10

    def test_minimality_against_random_schedules(self, cone_path, rng):
        ts = np.linspace(0.0, cone_path.duration, 301)
        frames = [q.frame_at(cone_path, float(t)) for t in ts]
        hs_w = lambda f: q.hs_norm(f.w_gg, f.w_ee, f.w_ge)
        hs_opt = np.array(
            [
                hs_w(q.phase_shifted_frame(f, 0.0, 0.0, -f.w_gg, -f.w_ee))
                for f in frames
            ]
        )
        for _ in range(25):
            c = rng.uniform(-0.1, 0.1, 4)
            mu = lambda t: c[0] * t + c[1] * t**2 + c[2] * np.sin(c[3] * t)
            dmu = lambda t: c[0] + 2 * c[1] * t + c[2] * c[3] * np.cos(c[3] * t)
            hs_mu = np.array(
                [
                    hs_w(q.phase_shifted_frame(f, mu(t), 0.3 * mu(t), dmu(t), 0.3 * dmu(t)))
                    for f, t in zip(frames, ts)
                ]
            )
            assert np.all(hs_mu >= hs_opt - 1e-15)
            mismatch = np.abs([dmu(t) + f.w_gg for f, t in zip(frames, ts)])
            strict = mismatch > 1e-7
            assert np.all(hs_mu[strict] > hs_opt[strict])

    def test_offdiagonal_modulus_invariant_under_any_schedule(self, cone_path, rng):
        ts = np.linspace(0.0, cone_path.duration, 101)
        for f in (q.frame_at(cone_path, float(t)) for t in ts[:: 20]):
            lam = rng.uniform(-3, 3, 2)
            dlam = rng.uniform(-1, 1, 2)
            w_ge = q.phase_shifted_frame(f, *lam, *dlam).w_ge
            assert abs(w_ge) == pytest.approx(abs(f.w_ge), rel=1e-15)

    def test_grid_validation(self, cone_path):
        hist = history_of(cone_path, 301)
        bad = FrameHistory(
            times=hist.times[::-1], w_gg=hist.w_gg[::-1], w_ee=hist.w_ee[::-1],
            alpha=hist.alpha[::-1], b_start=hist.b_start, b_end=hist.b_end,
        )
        with pytest.raises(NonUniformGridUnsupported):
            history_berry_phase(bad)
        tiny = FrameHistory(
            times=hist.times[:2], w_gg=hist.w_gg[:2], w_ee=hist.w_ee[:2],
            alpha=hist.alpha[:2], b_start=hist.b_start, b_end=hist.b_end,
        )
        with pytest.raises(NonUniformGridUnsupported):
            history_berry_phase(tiny)

    def test_a_step_that_is_not_positive_is_named_first(self):
        # an uneven step before a repeated time: the repeated time is the reported fault
        flat = (0.0,) * 6
        hist = FrameHistory(times=(0.0, 1.0, 2.5, 3.0, 3.0, 4.0), w_gg=flat, w_ee=flat,
                            alpha=flat, b_start=(0.0, 0.0, 1.0), b_end=(0.0, 0.0, 1.0))
        with pytest.raises(NonUniformGridUnsupported, match="strictly increasing"):
            history_berry_phase(hist)

    def test_nonuniform_grid_rejected(self, cone_path):
        # a closed loop with one extra sample: rejected, not resampled
        t1 = cone_path.duration
        ts = np.sort(np.concatenate([np.linspace(0, t1, 900), [13.37]]))
        frames = [q.frame_at(cone_path, float(t)) for t in ts]
        hist = FrameHistory(
            times=ts, w_gg=np.array([f.w_gg for f in frames]), w_ee=np.array([f.w_ee for f in frames]),
            alpha=np.array([f.alpha for f in frames]),
            b_start=cone_path.fields(0)[0], b_end=cone_path.fields(t1)[0],
        )
        with pytest.raises(NonUniformGridUnsupported, match="uniformly spaced"):
            history_berry_phase(hist)


def retraced_loop(T=50.0, Omega=1.0, theta=math.pi / 3):
    """phi sweeps out and back: zero enclosed solid angle, w diagonals that vary."""

    def fields(t):
        phi = 2.0 * math.sin(math.pi * t / T) ** 2
        dphi = 2.0 * math.pi / T * math.sin(2 * math.pi * t / T)
        st = math.sin(theta)
        return ((Omega * st * math.cos(phi), Omega * st * math.sin(phi), Omega * math.cos(theta)),
                (-Omega * st * math.sin(phi) * dphi, Omega * st * math.cos(phi) * dphi, 0.0))

    return q.ControlPath(fields=fields, coupling_A=SX, duration=T)


def uneven_cone(theta=1.0, omega=0.1):
    """One cone loop at the azimuth omega t + sin(omega t) / 2: the solid angle, varying w."""
    st, ct = math.sin(theta), math.cos(theta)

    def fields(t):
        phi = omega * t + 0.5 * math.sin(omega * t)
        dphi = omega + 0.5 * omega * math.cos(omega * t)
        return ((st * math.cos(phi), st * math.sin(phi), ct),
                (-st * math.sin(phi) * dphi, st * math.cos(phi) * dphi, 0.0))

    return q.ControlPath(fields=fields, coupling_A=SX, duration=2 * math.pi / omega)


def dp5(path, dt_max=None):
    return q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=path.duration, dt_max=dt_max)


class TestBerryPhase:
    def test_static_loop_zero(self):
        path = q.ControlPath(
            fields=lambda t: ((0.3, 0.1, 0.9), (0, 0, 0)),
            coupling_A=SX, duration=10.0,
        )
        bp = q.berry_phase(path)
        assert bp.delta_lambda_g == 0.0
        assert bp.delta_lambda_e == 0.0

    @pytest.mark.parametrize("theta", [math.pi / 3, math.pi / 2])
    def test_cone_solid_angle(self, theta):
        path = q.rotating_cone(1.0, theta, 0.1, SX)
        bp = q.berry_phase(path)
        assert abs(bp.delta_lambda_g) == pytest.approx(math.pi * (1 - math.cos(theta)), abs=1e-12)

    def test_cone_solid_angle_at_a_huge_field(self):
        # a closed loop's end misses its start by rounding, about 2e-16 |b|, so the
        # closure bound scales with |b(0)|: over 1e-10 here, but well within 1e-10 |b|
        gaps = []
        for theta in (0.6, 1.3, 2.5):
            bp = q.berry_phase(q.rotating_cone(1e6, theta, 0.1, SX))
            solid = math.pi * (1 - math.cos(theta))
            assert abs(math.remainder(bp.delta_lambda_g_mod - solid, 2 * math.pi)) < 1e-9
            gaps.append(bp.loop_gap)
        assert 1e-10 < max(gaps) < 1e-8

    def test_open_arc_at_a_huge_field_rejected(self):
        path = q.rotating_cone(1e6, 1.0, 0.1, SX, duration=0.999 * 20 * math.pi)
        with pytest.raises(q.LoopNotClosed, match=r"^\|b\(t_b\) - b\(t_a\)\| = .* > 0.0001$"):
            q.berry_phase(path)

    def test_loop_starts_where_the_path_does(self):
        # one cone period sampled from t = 0 and the same samples from t = 5: the loop is
        # [t_start, t_start + duration], never evaluated before the first sample
        theta, omega = 1.0, 0.1
        ts = np.linspace(0.0, 2 * math.pi / omega, 201)
        bs = np.array([cone_field(1.0, theta, omega, t) for t in ts])
        at_zero = q.berry_phase(q.sampled_path(ts, bs, SX))
        shifted = q.sampled_path(ts + 5.0, bs, SX)
        assert shifted.t_start == 5.0
        at_five = q.berry_phase(shifted)
        for field in ("delta_lambda_g", "delta_lambda_e", "delta_lambda_g_mod", "delta_lambda_e_mod"):
            assert getattr(at_five, field) == pytest.approx(getattr(at_zero, field), abs=1e-12)
        assert at_zero.loop_gap < 1e-15 and at_five.loop_gap < 1e-15
        assert abs(at_zero.delta_lambda_g - math.pi * (1 - math.cos(theta))) < 1e-8

    def test_loop_additivity(self):
        single = q.berry_phase(q.rotating_cone(1.0, math.pi / 3, 0.1, SX))
        double = q.berry_phase(q.rotating_cone(1.0, math.pi / 3, 0.1, SX, duration=40 * math.pi))
        assert double.delta_lambda_g == pytest.approx(2 * single.delta_lambda_g, abs=1e-9)

    def test_retraced_loop_zero(self):
        path = retraced_loop()
        bp = q.berry_phase(path, dp5(path, dt_max=path.duration / 100))
        assert abs(bp.delta_lambda_g) < 1e-8
        assert abs(bp.delta_lambda_e) < 1e-8

    def test_mod_2pi_reporting(self):
        path = q.rotating_cone(1.0, 2.0, 0.1, SX)  # theta > pi/2: winding-rich branch
        bp = q.berry_phase(path)
        assert -math.pi < bp.delta_lambda_g_mod <= math.pi
        diff = bp.delta_lambda_g - bp.delta_lambda_g_mod
        assert diff == pytest.approx(2 * math.pi * round(diff / (2 * math.pi)), abs=1e-9)

    @pytest.mark.parametrize("n", [5, 6, 1024, 1025])
    def test_numpy_columns_give_the_same_phases(self, n):
        path = q.rotating_cone(1.0, 2.0, 0.1, SX)
        hist = history_of(path, n)
        arrays = FrameHistory(
            times=np.array(hist.times), w_gg=np.array(hist.w_gg), w_ee=np.array(hist.w_ee),
            alpha=np.array(hist.alpha), b_start=np.array(hist.b_start), b_end=np.array(hist.b_end),
        )
        assert history_berry_phase(arrays) == history_berry_phase(hist)

    @pytest.mark.parametrize("n", [5, 6, 1024, 1025])
    def test_quadrature_matches_scipy_simpson(self, cone_path, n):
        from scipy.integrate import cumulative_simpson

        hist = history_of(cone_path, n)
        h = hist.times[1] - hist.times[0]
        bp = history_berry_phase(hist)
        for got, w in ((bp.delta_lambda_g, "w_gg"), (bp.delta_lambda_e, "w_ee")):
            y = [-getattr(q.frame_at(cone_path, float(t)), w) for t in hist.times]
            assert got == pytest.approx(cumulative_simpson(y, dx=h)[-1], abs=1e-12)

    @pytest.mark.parametrize("n", [5, 6, 513, 514])
    def test_equals_simpson_of_the_negated_columns_bit_for_bit(self, rng, n):
        # history_berry_phase integrates the columns as they are and negates the totals; the
        # columns include zeros of both signs, for which a zero total must read +0
        times = tuple(k * 0.01 for k in range(n))
        columns = [tuple(rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3)) for _ in range(40)]
        columns += [(0.0,) * n, (-0.0,) * n, tuple((-0.0, 0.0)[k % 2] for k in range(n))]
        h = times[1] - times[0]
        for w_gg, w_ee in zip(columns, columns[1:] + columns[:1]):
            hist = FrameHistory(times=times, w_gg=w_gg, w_ee=w_ee, alpha=w_gg,
                                b_start=(0.0, 0.0, 1.0), b_end=(0.0, 0.0, 1.0))
            bp = history_berry_phase(hist)
            want_g, err_g = _simpson([-w for w in w_gg], h)
            want_e, err_e = _simpson([-w for w in w_ee], h)
            assert bp.delta_lambda_g.hex() == want_g.hex()
            assert bp.delta_lambda_e.hex() == want_e.hex()
            assert bp.quadrature_error == max(err_g, err_e)

    @pytest.mark.parametrize("column", [
        (1e307,) * 65,  # fsum's partial sums overflow
        (1e306,) * 64 + (1.7e308,),  # the sums stay finite, the Simpson weights do not
        (0.0,) * 32 + (math.nan,) + (0.0,) * 32,
    ], ids=["fsum", "weights", "nan"])
    def test_increment_beyond_the_float_range_raises(self, column):
        times = tuple(k * 0.5 for k in range(len(column)))
        finite = (0.0,) * len(column)
        for w_gg, w_ee in ((column, finite), (finite, column)):
            hist = FrameHistory(times=times, w_gg=w_gg, w_ee=w_ee, alpha=finite,
                                b_start=(0.0, 0.0, 1.0), b_end=(0.0, 0.0, 1.0))
            with pytest.raises(q.NonFiniteState, match="^the Berry phase quadrature overflows"):
                history_berry_phase(hist)

    def test_open_arc_rejected(self):
        path = q.rotating_cone(1.0, math.pi / 3, 0.1, SX, duration=0.7 * 20 * math.pi)
        with pytest.raises(q.LoopNotClosed):
            q.berry_phase(path)

    @pytest.mark.parametrize("periods", [0.999, 1.5])
    def test_cone_off_its_period_is_not_closed(self, periods):
        path = q.rotating_cone(1.0, math.pi / 3, 0.1, SX, duration=periods * 20 * math.pi)
        with pytest.raises(q.LoopNotClosed, match=r"^\|b\(t_b\) - b\(t_a\)\| = .* > 1e-10$"):
            q.berry_phase(path)

    def test_cone_loop_is_the_default_stepper_run(self, cone_path):
        # the state stays put, so the steps grow from duration / 100 to the cap duration / 10
        bp = q.berry_phase(cone_path)
        assert (bp.work.accepted_steps, bp.work.rejected_steps) == (12, 0)
        assert (bp.work.rhs_evals, bp.work.frame_evals) == (73, 61)
        f = q.frame_at(cone_path, 0.0)
        assert bp.max_alpha == pytest.approx(math.sqrt(2) * abs(f.w_ge) / f.omega01, rel=1e-14)
        # w_gg is constant on the cone, so the increment is -w_gg T to rounding
        assert bp.delta_lambda_g == pytest.approx(-f.w_gg * cone_path.duration, rel=1e-14)
        assert bp.quadrature_error < 1e-14

    @pytest.mark.parametrize("theta, Omega", [
        *(pytest.param(theta, 1.0, id=str(theta))
          for theta in (0.3, 0.6, math.pi / 3, 1.3, math.pi / 2, 2.0, 3.0)),
        # a loop gap of 2.06e-10: over 1e-10, but within 1e-10 |b(0)| for both quadratures
        pytest.param(1.0, 1e6, id="1.0-field-1e6"),
    ])
    def test_stepper_agrees_with_the_history_quadrature(self, theta, Omega):
        # two independent quadratures of -integral w dt over one cone loop
        path = q.rotating_cone(Omega, theta, 0.1, SX)
        bp, ref = q.berry_phase(path), history_berry_phase(history_of(path, 2049))
        for got, want in ((bp.delta_lambda_g, ref.delta_lambda_g),
                          (bp.delta_lambda_e, ref.delta_lambda_e),
                          (bp.delta_lambda_g_mod, ref.delta_lambda_g_mod),
                          (bp.delta_lambda_e_mod, ref.delta_lambda_e_mod)):
            assert got == pytest.approx(want, abs=1e-12)
        assert bp.loop_gap == ref.loop_gap
        assert ref.max_alpha is None and ref.work is None

    def test_stepper_agrees_with_the_history_quadrature_where_w_varies(self):
        path = uneven_cone()
        bp = q.berry_phase(path, dp5(path, dt_max=path.duration / 40))
        ref = history_berry_phase(history_of(path, 4097))
        tol = bp.quadrature_error + ref.quadrature_error
        assert abs(bp.delta_lambda_g - ref.delta_lambda_g) <= tol
        assert abs(bp.delta_lambda_e - ref.delta_lambda_e) <= tol

    def test_solver_window_is_the_loop(self, cone_path):
        other = q.SolverConfig(method="rk45_adaptive", t0=3.0, t1=4.0)
        assert q.berry_phase(cone_path, other) == q.berry_phase(cone_path)

    def test_fixed_step_reports_no_quadrature_error(self):
        path = retraced_loop()
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=path.duration, dt=path.duration / 500)
        bp = q.berry_phase(path, cfg)
        assert bp.quadrature_error is None
        assert bp.work.accepted_steps == 500 and bp.work.frame_evals == 2 * 500 + 1
        assert abs(bp.delta_lambda_g) < 1e-12

    def test_quadrature_error_bounds_the_error_and_falls_with_the_step(self):
        path = uneven_cone()
        target = math.pi * (1 - math.cos(1.0))
        estimates = []
        for n in (10, 20, 40):
            bp = q.berry_phase(path, dp5(path, dt_max=path.duration / n))
            assert abs(bp.delta_lambda_g - target) <= bp.quadrature_error
            estimates.append(bp.quadrature_error)
        # the 4th-order weights' error: each halving divides it by at least 2^4
        assert estimates[0] > 16 * estimates[1] > 256 * estimates[2] > 0.0

    def test_phase_beyond_the_float_range_raises(self):
        # a fixed field whose b_dot claims a huge azimuthal rate: |w_gg| ~ 1e300 over
        # a duration of 1e10, so -integral w_gg dt leaves the float range
        path = q.ControlPath(fields=lambda t: ((0.6, 0.0, 0.8), (0.0, 1e300, 0.0)),
                             coupling_A=SX, duration=1e10)
        assert abs(q.frame_at(path, 0.0).w_gg) > 1e299
        with pytest.raises(q.NonFiniteState,
                           match="^the optimal phase overflows the float range at t = "):
            q.berry_phase(path)


class TestPhaseShiftedFrame:
    def test_zero_diagonals_and_invariants(self, cone_path):
        f = q.frame_at(cone_path, 31.0)
        pf = q.phase_shifted_frame(f, -31.0 * f.w_gg, -31.0 * f.w_ee, -f.w_gg, -f.w_ee)
        assert pf.w_gg == 0.0 and pf.w_ee == 0.0
        assert abs(pf.w_ge) == pytest.approx(abs(f.w_ge), rel=1e-15)
        assert abs(pf.m2) == pytest.approx(abs(f.m2), rel=1e-15)
        assert pf.m1 == f.m1
        assert pf.omega01 == f.omega01
        assert pf.alpha == pytest.approx(math.sqrt(2) * abs(f.w_ge) / f.omega01, rel=1e-15)

    def test_trivial_schedule_constant_phase_only(self):
        # diagonals already vanish: only the phase e^{i(lambda_e - lambda_g)} acts
        path = q.ControlPath(
            fields=lambda t: ((0.5, 0.0, 0.8), (0, 0, 0)),
            coupling_A=SX, duration=10.0,
        )
        f = q.frame_at(path, 4.0)
        pf = q.phase_shifted_frame(f, 0.3, 0.9, -f.w_gg, -f.w_ee)
        rot = cmath.exp(1j * 0.6)
        assert abs(pf.m2 - f.m2 * rot) < 1e-12
        assert abs(pf.w_ge - f.w_ge * rot) < 1e-12

    def test_apply_phase_frame_consistency(self, cone_path):
        f = q.frame_at(cone_path, 5.0)
        g = q.phase_shifted_frame(f, 0.2, -0.1, -f.w_gg, -f.w_ee)
        assert g.w_gg == 0.0 and g.w_ee == 0.0
        assert abs(g.w_ge) == pytest.approx(abs(f.w_ge), rel=1e-15)
        assert g.alpha == pytest.approx(math.sqrt(2) * abs(f.w_ge) / f.omega01, rel=1e-12)
        assert type(g) is q.AdiabaticFrame

    @pytest.mark.parametrize("path", [
        q.rotating_cone(1.0, math.pi / 3, 0.1, SX),
        q.linear_sweep(0.05, 0.5, 40.0, SX),
    ], ids=["cone", "sweep"])
    def test_tracked_run_reports_the_phase_shifted_frame(self, path):
        # the stepper rotates each record point inline; it must report the frame
        # phase_shifted_frame gives at the accumulated phases and the optimal rates
        sd = q.flat(0.1)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=path.duration, record_stride=5)
        run = lambda track: q.integrate(
            lambda t, s, f: q.rhs_full(s, f, sd), q.DensityState(1.0, 0j), cfg,
            frame_provider=lambda t: q.frame_at(path, t), track_phases=track,
        ).samples
        plain, tracked = run(False), run(True)
        assert len(plain) == len(tracked) > 2
        for a, b in zip(plain, tracked):
            assert b.t == a.t and b.state.rho_gg == a.state.rho_gg
            assert b.state.rho_ge == a.state.rho_ge * phase_factor(b.lambda_g, b.lambda_e)
            f = q.frame_at(path, b.t)
            pf = q.phase_shifted_frame(f, b.lambda_g, b.lambda_e, -f.w_gg, -f.w_ee)
            assert b.alpha == pytest.approx(pf.alpha, rel=1e-15, abs=0.0)

    def test_observables_match_unshifted_run_flat_spectrum(self, cone_path):
        # same physics in two gauges: rho_gg(t) and |rho_ge(t)| must agree.
        # The cone's w diagonals are constant, so lambda = -w_diag t exactly.
        sd = q.flat(0.4)
        t1 = cone_path.duration
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=t1, dt=t1 / 8192, record_stride=32)
        rhs = lambda t, s, f: q.rhs_full(s, f, sd)

        def shifted_frame(t):
            f = q.frame_at(cone_path, t)
            return q.phase_shifted_frame(f, -f.w_gg * t, -f.w_ee * t, -f.w_gg, -f.w_ee)

        plain = q.integrate(
            rhs, q.DensityState(1.0, 0j), cfg,
            frame_provider=lambda t: q.frame_at(cone_path, t),
        )
        shifted = q.integrate(
            rhs, q.DensityState(1.0, 0j), cfg,
            frame_provider=shifted_frame,
        )
        diff = max(
            max(
                abs(a.state.rho_gg - b.state.rho_gg),
                abs(abs(complex(a.state.rho_ge)) - abs(complex(b.state.rho_ge))),
            )
            for a, b in zip(plain.samples, shifted.samples)
        )
        assert diff < 1e-10
