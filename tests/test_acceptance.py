"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
one machine-readable pass/fail line; run with ``pytest tests/test_acceptance.py -s``
to see the full report even on success.
"""

import math
import time

import numpy as np
import pytest

import qsteer as q
from qsteer.dynamics import integrate

import superadiabatic_reference as sa
from conftest import SX, static_frame


def report(num, label, ok, detail):
    print(f"[acceptance] criterion {num:2d} {'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def cone(theta, omega, Omega=1.0, A=SX):
    return q.rotating_cone(Omega, theta, omega, A)


def fit_slope(xs, ys):
    return np.polyfit(np.log(xs), np.log(ys), 1)[0]


def test_criterion_01_reduction_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(10_000):
        omega01 = rng.uniform(0.1, 3.0)
        m1 = rng.uniform(-1.5, 1.5)
        m2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        frame = q.AdiabaticFrame(omega01, 0.0, 0.0, 0j, m1, m2)
        s_minus, s_zero, s_plus = rng.uniform(0.0, 2.0, 3)
        sd = q.tabulated([-omega01, 0.0, omega01], [s_minus, s_zero, s_plus])
        rho_gg = rng.uniform(0.0, 1.0)
        rho_ge = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        state = q.DensityState(rho_gg, rho_ge)
        d_full = q.rhs_full(state, frame, sd)
        d_ref = q.rhs_nonsteered(state, q.rates(m1, m2, omega01, sd), omega01)
        worst = max(worst, abs(d_full[0] - d_ref[0]), abs(d_full[1] - d_ref[1]))
    elapsed = time.perf_counter() - started
    report(
        1, "reduction identity (w = 0)",
        worst < 1e-14 and elapsed < 5.0,
        f"max |rhs_full - rhs_nonsteered| = {worst:.3e} over 1e4 samples in {elapsed:.2f}s",
    )


def test_criterion_02_thermal_fixed_point():
    started = time.perf_counter()
    sd = q.tabulated([-1.0, 0.0, 1.0], [1.0, 1.5, 2.0])
    r = q.rates(0.0, 1.0, 1.0, sd)
    cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=30.0, record_stride=500)
    traj = integrate(q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, 1.0)),
                     q.DensityState(0.1, 0.2j), cfg,
                     static_frame)
    err = abs(traj.final.state.rho_gg - 2.0 / 3.0)
    elapsed = time.perf_counter() - started
    report(
        2, "thermal fixed point",
        err <= 1e-6 and elapsed < 1.0,
        f"|rho_gg - 2/3| = {err:.2e} after t = 30 in {elapsed:.2f}s",
    )


def test_criterion_03_detailed_balance():
    started = time.perf_counter()
    worst = 0.0
    for omega01 in (0.5, 1.0, 2.0):
        for T in (0.5, 1.0, 2.0):
            sd = q.ohmic_thermal(0.4, T, 50.0)
            r = q.rates(0.0, 1.0, omega01, sd)
            tau = 1.0 / (r.gamma_ge + r.gamma_eg)
            cfg = q.SolverConfig(
                method="rk45_adaptive", t0=0.0, t1=25 * tau, record_stride=10_000
            )
            traj = integrate(
                q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, omega01)),
                q.DensityState(0.3, 0.1 + 0.1j), cfg, static_frame,
            )
            gg = traj.final.state.rho_gg
            ratio = gg / (1.0 - gg)
            rel = abs(ratio - math.exp(omega01 / T)) / math.exp(omega01 / T)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    report(
        3, "detailed balance over (omega01, T) grid",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst relative Gibbs-ratio error = {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_04_superadiabatic_consistency():
    started = time.perf_counter()
    sd = q.zero_temperature_ohmic(0.1, 20.0)
    states = [
        q.DensityState(1.0, 0j),
        q.DensityState(0.7, 0.1 + 0.05j),
        q.DensityState(0.4, -0.2 + 0.3j),
    ]
    omegas = (0.04, 0.02, 0.01)
    residuals = []
    alpha_max = 0.0
    for omega in omegas:
        path = cone(math.pi / 3, omega)
        worst = 0.0
        for t in np.linspace(0.0, path.duration, 41):
            frame = q.frame_at(path, float(t))
            alpha_max = max(alpha_max, frame.alpha)
            for s in states:
                d_full = q.rhs_full(s, frame, sd)
                d_orc = sa.pullback(s, frame, sd)
                worst = max(worst, abs(d_full[0] - d_orc[0]), abs(d_full[1] - d_orc[1]))
        residuals.append(worst)
    exponents = [
        math.log2(residuals[i] / residuals[i + 1]) for i in range(len(residuals) - 1)
    ]
    elapsed = time.perf_counter() - started
    report(
        4, "O(alpha^2) full-vs-oracle consistency",
        all(e >= 1.8 for e in exponents) and alpha_max <= 0.05 and elapsed < 30.0,
        f"residuals {[f'{r:.2e}' for r in residuals]}, exponents "
        f"{[f'{e:.2f}' for e in exponents]}, alpha_max = {alpha_max:.3f}, {elapsed:.1f}s",
    )


@pytest.mark.filterwarnings("ignore:purity exceeded")
def test_criterion_05_zero_temperature_robustness():
    started = time.perf_counter()
    sd = q.zero_temperature_ohmic(0.1, 20.0)
    base_period = 2 * math.pi / 0.05
    periods = [base_period, 2 * base_period, 4 * base_period]
    peaks = []
    for period in periods:
        path = cone(math.pi / 3, 2 * math.pi / period)
        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=period, record_stride=1)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_full(s, f, sd)),
            q.DensityState(1.0, 0j), cfg, frame_provider=lambda t: q.frame_at(path, t),
        )
        peaks.append(max(1.0 - s.state.rho_gg for s in traj.samples))
    slope = fit_slope(periods, peaks)
    elapsed = time.perf_counter() - started
    report(
        5, "zero-temperature ground-state robustness",
        slope <= -1.8 and elapsed < 60.0,
        f"max excited populations {[f'{p:.2e}' for p in peaks]}, "
        f"fitted exponent = {slope:.2f}, {elapsed:.1f}s",
    )


def test_criterion_06_berry_phases():
    started = time.perf_counter()
    errs = []
    for theta, target in ((math.pi / 3, math.pi / 2), (math.pi / 2, math.pi)):
        path = cone(theta, 0.1)
        phases = q.berry_phase(path)
        errs.append(abs(abs(phases.delta_lambda_g) - target))
    elapsed = time.perf_counter() - started
    report(
        6, "Berry phases on cone loops",
        all(e <= 1e-4 for e in errs) and elapsed < 10.0,
        f"|dlambda_g| errors vs solid angle: {[f'{e:.1e}' for e in errs]}, {elapsed:.1f}s",
    )


def test_criterion_07_optimal_phase_minimality():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    path = cone(math.pi / 3, 0.05)
    ts = np.linspace(0.0, path.duration, 1001)
    frames = [q.frame_at(path, float(t)) for t in ts]
    hs_w = lambda f: q.hs_norm(f.w_gg, f.w_ee, f.w_ge)
    # the diagonals depend only on the phase rates, not on the phase values
    shifted = [q.phase_shifted_frame(f, 0.0, 0.0, -f.w_gg, -f.w_ee) for f in frames]
    diag_residual = max(max(abs(f.w_gg), abs(f.w_ee)) for f in shifted)
    hs_opt = np.array([hs_w(f) for f in shifted])
    minimal = True
    for _ in range(100):
        c = rng.uniform(-0.2, 0.2, 6)
        mu_g = lambda t: c[0] * t + c[1] * np.sin(c[2] * t)
        dmu_g = lambda t: c[0] + c[1] * c[2] * np.cos(c[2] * t)
        mu_e = lambda t: c[3] * t + c[4] * np.sin(c[5] * t)
        dmu_e = lambda t: c[3] + c[4] * c[5] * np.cos(c[5] * t)
        hs_mu = np.array(
            [
                hs_w(q.phase_shifted_frame(f, mu_g(t), mu_e(t), dmu_g(t), dmu_e(t)))
                for f, t in zip(frames, ts)
            ]
        )
        if not np.all(hs_mu >= hs_opt - 1e-15):
            minimal = False
            break
    elapsed = time.perf_counter() - started
    report(
        7, "optimal phase selection minimality",
        diag_residual < 1e-10 and minimal and elapsed < 10.0,
        f"max scheduled diagonal = {diag_residual:.1e}, "
        f"minimal against 100 random schedules: {minimal}, {elapsed:.1f}s",
    )


def test_criterion_08_local_gauge_invariance():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    path = cone(math.pi / 3, 0.05)
    sd = q.flat(0.4)
    t1 = path.duration

    # random smooth local gauge change on |g>: a quartic polynomial, whose
    # rate the stepper's phase quadrature (RK4 weights) integrates exactly,
    # so the comparison is clean
    coeff = rng.uniform(-0.5, 0.5, 4)

    def beta(t):
        s = t / t1
        return s * (coeff[0] + s * (coeff[1] + s * (coeff[2] + s * coeff[3])))

    def beta_dot(t):
        s = t / t1
        return (
            coeff[0] + s * (2 * coeff[1] + s * (3 * coeff[2] + s * 4 * coeff[3]))
        ) / t1

    def gauged_frame(t):
        return q.phase_shifted_frame(q.frame_at(path, t), beta(t), 0.0, beta_dot(t), 0.0)

    cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=t1, dt=t1 / 8192, record_stride=8)
    run = lambda provider: integrate(
        q.from_pair(lambda s, f: q.rhs_full(s, f, sd)), q.DensityState(1.0, 0j), cfg,
        frame_provider=provider, track_phases=True,
    )
    traj_plain = run(lambda t: q.frame_at(path, t))
    traj_gauged = run(gauged_frame)
    # in the optimally phase-shifted basis even the phase of rho_ge agrees
    diff = max(
        max(
            abs(a.state.rho_gg - b.state.rho_gg),
            abs(complex(a.state.rho_ge) - complex(b.state.rho_ge)),
        )
        for a, b in zip(traj_plain.samples, traj_gauged.samples)
    )
    elapsed = time.perf_counter() - started
    report(
        8, "local gauge invariance of observables",
        diff < 1e-10 and elapsed < 20.0,
        f"sup-norm observable change = {diff:.1e} in {elapsed:.1f}s",
    )


def test_criterion_09_unitary_purity():
    started = time.perf_counter()
    path = cone(math.pi / 3, 0.05)
    sd = q.flat(0.0)
    cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=path.duration, record_stride=1)
    traj = integrate(
        q.from_pair(lambda s, f: q.rhs_full(s, f, sd)),
        q.DensityState(1.0, 0j), cfg, frame_provider=lambda t: q.frame_at(path, t),
    )
    drift = max(abs(s.purity - 1.0) for s in traj.samples)
    elapsed = time.perf_counter() - started
    report(
        9, "unitary-limit purity conservation",
        drift < 1e-9 and elapsed < 5.0,
        f"max |purity - 1| = {drift:.1e} over one cycle in {elapsed:.1f}s",
    )


def test_criterion_10_rk4_convergence_order():
    started = time.perf_counter()
    from scipy.linalg import expm

    sd = q.tabulated([-2.0, 0.0, 2.0], [0.5, 0.3, 1.0])
    omega01 = 2.0
    r = q.rates(0.5, complex(0.8, 0.3), omega01, sd)
    c = r.gamma_alpha + r.gamma_beta
    G = np.zeros((4, 4))
    G[0] = [-(r.gamma_ge + r.gamma_eg), r.gamma_tilde0.real, -r.gamma_tilde0.imag, r.gamma_eg]
    G[1] = [
        -(r.gamma_tilde_plus + r.gamma_tilde_minus).real,
        -(r.gamma_eg + r.gamma_ge) / 2 - r.gamma_phi + c.real,
        -omega01 + c.imag,
        r.gamma_tilde_plus.real,
    ]
    G[2] = [
        -(r.gamma_tilde_plus + r.gamma_tilde_minus).imag,
        omega01 + c.imag,
        -(r.gamma_eg + r.gamma_ge) / 2 - r.gamma_phi - c.real,
        r.gamma_tilde_plus.imag,
    ]
    y_exact = expm(G * 2.0) @ np.array([0.3, 0.2, -0.1, 1.0])
    errs = []
    for n in (50, 100, 200, 400):
        cfg = q.SolverConfig(method="rk4_fixed", t0=0.0, t1=2.0, dt=2.0 / n, record_stride=n)
        traj = integrate(
            q.from_pair(lambda s, f: q.rhs_nonsteered(s, r, omega01)),
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
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    elapsed = time.perf_counter() - started
    report(
        10, "RK4 convergence order",
        all(abs(o - 4.0) <= 0.1 for o in orders) and elapsed < 5.0,
        f"orders under dt halving: {[f'{o:.3f}' for o in orders]}, {elapsed:.1f}s",
    )


@pytest.mark.filterwarnings("ignore:purity exceeded")
def test_criterion_11_secular_divergence():
    started = time.perf_counter()
    sd = q.zero_temperature_ohmic(0.1, 20.0)
    path = cone(math.pi / 3, 0.04)
    cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=path.duration, record_stride=100)
    provider = lambda t: q.frame_at(path, t)
    traj_full = integrate(
        q.from_pair(lambda s, f: q.rhs_full(s, f, sd)),
        q.DensityState(1.0, 0j), cfg, frame_provider=provider,
    )
    traj_sec = integrate(
        q.from_pair(lambda s, f: q.rhs_secular(s, q.rates(f.m1, f.m2, f.omega01, sd), f.omega01)),
        q.DensityState(1.0, 0j), cfg, frame_provider=provider,
    )
    gap = abs(traj_full.final.state.rho_gg - traj_sec.final.state.rho_gg)
    threshold = 10 * cfg.rtol
    elapsed = time.perf_counter() - started
    report(
        11, "secular approximation diverges",
        gap > threshold and elapsed < 10.0,
        f"|final rho_gg(full) - rho_gg(secular)| = {gap:.2e} > {threshold:.0e}, {elapsed:.1f}s",
    )
