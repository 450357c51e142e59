import cmath
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsteer as q
from qsteer.cli import _read_data_files, load_scenario

from conftest import SX


class TestSpectralDensity:
    def test_flat(self):
        sd = q.flat(2.0)
        for w in (-5.0, 0.0, 0.3, 100.0):
            assert sd(w) == 2.0

    def test_zero_temperature_one_sided(self):
        sd = q.zero_temperature_ohmic(1.0)
        assert sd(-1.0) == 0.0
        assert sd(0.0) == 0.0
        assert sd(1.0) == pytest.approx(1.0)

    def test_detailed_balance_ratio_at_unit_frequency(self):
        sd = q.ohmic_thermal(1.0, 1.0)
        assert sd(1.0) / sd(-1.0) == pytest.approx(math.e, rel=1e-12)

    def test_zero_frequency_continuous_extension(self):
        sd = q.ohmic_thermal(0.7, 1.3)
        assert sd(0.0) == pytest.approx(0.7 * 1.3)
        assert sd(1e-9) == pytest.approx(0.7 * 1.3, rel=1e-8)
        assert sd(-1e-9) == pytest.approx(0.7 * 1.3, rel=1e-8)

    @given(
        omega=st.floats(0.01, 20),
        T=st.floats(0.05, 10),
        eta=st.floats(0.0, 5),
        cutoff=st.floats(0.5, 100),
    )
    @settings(max_examples=200)
    def test_detailed_balance_property(self, omega, T, eta, cutoff):
        sd = q.ohmic_thermal(eta, T, cutoff)
        lhs = sd(-omega)
        rhs = math.exp(-omega / T) * sd(omega)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(omega=st.floats(-50, 50), T=st.floats(0.05, 10), eta=st.floats(0, 5))
    @settings(max_examples=200)
    def test_nonnegative(self, omega, T, eta):
        assert q.ohmic_thermal(eta, T)(omega) >= 0.0
        assert q.zero_temperature_ohmic(eta, 10.0)(omega) >= 0.0

    def test_tabulated_interpolation_and_range(self):
        sd = q.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 3.0])
        assert sd(-1.0) == 0.5
        assert sd(1.0) == pytest.approx(2.0)
        with pytest.raises(q.OutOfRange):
            sd(2.5)
        with pytest.raises(q.OutOfRange):
            sd(-1.0001)

    def test_tabulated_nan_frequency_is_out_of_range(self):
        sd = q.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 3.0])
        with pytest.raises(q.OutOfRange, match=r"^omega = nan outside tabulated range \[-1, 2\]$"):
            sd(math.nan)

    @pytest.mark.parametrize("knot_at_zero", [False, True], ids=["no-knot-at-0", "knot-at-0"])
    def test_tabulated_is_np_interp_bit_for_bit(self, knot_at_zero):
        # numpy's own interpolation is the reference, signs of zeros included
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(2, 401))
            omegas = np.unique(rng.uniform(-50.0, 50.0, n - knot_at_zero))
            if knot_at_zero:
                omegas = np.union1d(omegas, [0.0])
            values = rng.uniform(0.0, 1e3, omegas.size)
            values[rng.random(omegas.size) < 0.2] = 0.0
            values[rng.random(omegas.size) < 0.2] = -0.0
            sd = q.tabulated(omegas, values)
            queries = [*rng.uniform(omegas[0], omegas[-1], 20), *omegas]
            if omegas[0] <= 0.0 <= omegas[-1]:
                queries += [0.0, -0.0]
            for omega in map(float, queries):
                assert bits(sd(omega)) == bits(float(np.interp(omega, omegas, values)))

    @pytest.mark.parametrize("values", [[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    def test_tabulated_span_beyond_the_float_range_is_np_interp(self, values):
        # omega - omega_0 overflows near the right end, and the zero slope times inf is NaN
        omegas = [-1e308, 1e308]
        sd = q.tabulated(omegas, values)
        for omega in (-9e307, -1e300, 0.0, 1e300, 9e307):
            assert bits(sd(omega)) == bits(float(np.interp(omega, omegas, values)))

    def test_tabulated_csv(self, tmp_path):
        fn = tmp_path / "spec.csv"
        fn.write_text("omega,S\n-1.0,0.5\n0.0,1.0\n1.0,2.0\n")
        sd, _ = _read_data_files(load_scenario(
            "path:\n  kind: rotating_cone\n  field_energy: 0.5\n  theta_rad: 1.0\n"
            "  drive_omega_rad_per_time: 0.2\ncoupling:\n  matrix: [[0.0, 1.0], [1.0, 0.0]]\n"
            f"bath:\n  model: tabulated\n  csv_file: {fn}\n"))
        assert sd(0.5) == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            q.flat(-1.0)
        with pytest.raises(ValueError):
            q.ohmic_thermal(1.0, -2.0)
        with pytest.raises(ValueError):
            q.tabulated([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            q.tabulated([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="^tabulated spectrum needs one value per omega$"):
            q.tabulated([0.0, 1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="^tabulated spectrum needs one value per omega$"):
            q.tabulated([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("make, message", [
        (lambda: q.flat(math.nan), "s0 must be nonnegative and finite"),
        (lambda: q.flat(math.inf), "s0 must be nonnegative and finite"),
        (lambda: q.ohmic_thermal(math.nan, 1.0), "eta must be nonnegative and finite"),
        (lambda: q.ohmic_thermal(math.inf, 1.0), "eta must be nonnegative and finite"),
        (lambda: q.ohmic_thermal(0.1, math.nan), "temperature must be positive"),
        (lambda: q.ohmic_thermal(0.1, math.inf), "temperature must be finite"),
        (lambda: q.ohmic_thermal(0.1, 1.0, math.nan), "cutoff must be positive"),
        (lambda: q.zero_temperature_ohmic(math.nan), "eta must be nonnegative and finite"),
        (lambda: q.zero_temperature_ohmic(0.1, cutoff=math.nan), "cutoff must be positive"),
        (lambda: q.tabulated([0.0, math.nan], [1.0, 1.0]), "tabulated omegas and values must be finite"),
        (lambda: q.tabulated([0.0, 1.0], [1.0, math.inf]), "tabulated omegas and values must be finite"),
    ])
    def test_non_finite_parameters_rejected(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make()

    def test_infinite_cutoff_is_no_cutoff(self):
        # +inf is the default cutoff and stays valid
        assert q.ohmic_thermal(0.1, 1.0, math.inf)(2.0) == q.ohmic_thermal(0.1, 1.0)(2.0)
        assert q.zero_temperature_ohmic(0.1, cutoff=math.inf)(2.0) == pytest.approx(0.2)


# a fresh bath of each model, so no test sees another's memo; the table spans
# both signs of the gaps sampled below
BATHS = {
    "flat": lambda: q.flat(0.2),
    "ohmic_thermal": lambda: q.ohmic_thermal(0.1, 0.5, 20.0),
    "zero_temperature_ohmic": lambda: q.zero_temperature_ohmic(0.1, 20.0),
    "tabulated": lambda: q.tabulated([-3.0, -1.0, 0.0, 0.5, 3.0], [0.01, 0.2, 0.3, 0.5, 1.5]),
}


def bits(x):
    """A float or a tuple of floats by value and sign, so -0.0 differs from 0.0."""
    return tuple(map(float.hex, x)) if isinstance(x, tuple) else float.hex(x)


def gap_terms(sd, gap):
    """What at_gap returns, from scratch: S(gap), S(-gap), S(0), then the per-gap terms."""
    s_plus, s_minus, s_zero = sd(gap), sd(-gap), sd(0.0)
    s_sum = s_minus + s_plus
    if not gap:
        return s_plus, s_minus, s_zero, s_sum, math.nan, math.nan, math.nan
    k1 = (2.0 * s_zero - s_sum) / gap
    k2x2 = 2.0 * ((s_zero - s_plus) / gap)
    k3 = (s_minus - s_plus) / gap
    return s_plus, s_minus, s_zero, s_sum, k1, k2x2, k3


def count_samples(sd):
    """Record every omega at which sd's bound formula is called, in call order."""
    calls = []
    formula = sd._formula
    object.__setattr__(sd, "_formula", lambda w: calls.append(w) or formula(w))
    return calls


class TestAtGap:
    @pytest.mark.parametrize("model", BATHS)
    def test_alternating_gaps_return_their_own_samples(self, model):
        sd = BATHS[model]()
        for gap in (1.0, 1.0000000000000002, 1.0, 1.0, 2.5, 1.0000000000000002, 0.3, 0.3):
            assert bits(sd.at_gap(gap)) == bits(gap_terms(sd, gap))

    @pytest.mark.parametrize("model", BATHS)
    def test_signed_zero_gaps(self, model):
        sd = BATHS[model]()
        for gap in (0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 1.0):
            assert bits(sd.at_gap(gap)) == bits(gap_terms(sd, gap))

    def test_repeated_gap_is_not_sampled_again(self):
        sd = q.ohmic_thermal(0.1, 0.5, 20.0)
        calls = count_samples(sd)
        first = sd.at_gap(1.0)
        assert sd.at_gap(1.0) is first and len(calls) == 3
        sd.at_gap(2.0)
        assert sd.at_gap(1.0) is first
        # S(0) is sampled once, after the first gap's S(+-omega)
        assert calls == [1.0, -1.0, 0.0, 2.0, -2.0]
        # three gaps are kept, in any order; a fourth evicts the oldest, 1.0
        for gap in (3.0, 2.0, 1.0, 3.0, 4.0, 2.0, 3.0, 4.0, 1.0):
            sd.at_gap(gap)
        assert calls[5:] == [3.0, -3.0, 4.0, -4.0, 1.0, -1.0]
        # +0.0 == -0.0, so a zero gap is never kept: each sign gets its own samples
        del calls[:]
        sd.at_gap(0.0)
        sd.at_gap(-0.0)
        assert bits(tuple(calls)) == bits((0.0, -0.0, -0.0, 0.0))

    @pytest.mark.parametrize("Omega, theta, omega", [
        (1.0, math.pi / 3, 0.05), (1.0, 1.208, 0.1), (1.3, 2.5, -0.2), (0.7, math.pi / 2, 0.03),
    ])
    def test_cone_samples_each_distinct_gap_once(self, Omega, theta, omega):
        # a cone's gap |b| rounds to one to three neighbouring floats, all of them kept
        path = q.rotating_cone(Omega, theta, omega, SX)
        sd = q.ohmic_thermal(0.02, 2.0, 20.0)
        calls, gaps = count_samples(sd), set()

        def frames(t):
            f = q.frame_at(path, t)
            gaps.add(f.omega01)
            return f

        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=2 * path.duration, rtol=1e-10)
        traj = q.integrate(lambda t, s, f: q.rhs_full(s, f, sd), q.DensityState(1.0), cfg,
                           frame_provider=frames)
        assert traj.work.frame_evals > 500 and 1 <= len(gaps) <= 3
        assert len(calls) == 2 * len(gaps) + 1

    @pytest.mark.parametrize("slope, gap, duration", [(0.05, 1.0, 100.0), (-0.2, 0.5, 30.0)])
    def test_sweep_samples_two_per_new_gap_and_s0_once(self, slope, gap, duration):
        # a Landau-Zener sweep's gap changes at nearly every stage: each new gap costs
        # S(omega) and S(-omega), and S(0) is sampled once, after the first gap's
        path = q.linear_sweep(slope, gap, duration, SX)
        sd = q.ohmic_thermal(0.02, 2.0, 20.0)
        calls, gaps = count_samples(sd), set()

        def frames(t):
            f = q.frame_at(path, t)
            gaps.add(f.omega01)
            return f

        cfg = q.SolverConfig(method="rk45_adaptive", t0=0.0, t1=duration, rtol=1e-9)
        traj = q.integrate(lambda t, s, f: q.rhs_full(s, f, sd), q.DensityState(1.0), cfg,
                           frame_provider=frames)
        assert calls[2] == 0.0 and calls.count(0.0) == 1
        pairs = calls[:2] + calls[3:]
        assert all(w == -g for g, w in zip(pairs[::2], pairs[1::2]))
        # every distinct gap is sampled; a gap evicted from the memo and met again is a new one
        assert set(pairs[::2]) == gaps and len(gaps) > traj.work.frame_evals // 2
        assert len(calls) == 2 * len(pairs[::2]) + 1

    def test_tabulated_range_raises_and_is_not_kept(self):
        sd = q.tabulated([-1.0, 0.0, 2.0], [0.5, 1.0, 3.0])
        kept = sd.at_gap(1.0)
        for _ in range(2):  # a failed lookup leaves the memo as it was
            with pytest.raises(q.OutOfRange):
                sd.at_gap(1.5)  # S(-1.5) is off the grid
        assert sd.at_gap(1.0) == kept
        with pytest.raises(q.OutOfRange):
            sd.at_gap(1.5)

    def test_first_lookup_out_of_range_names_the_gap(self):
        # S(0) is sampled after S(+-omega), so a grid without 0 names -omega, not 0
        sd = q.tabulated([0.5, 3.0], [1.0, 2.0])
        with pytest.raises(q.OutOfRange, match=r"^omega = -1 outside tabulated range \[0.5, 3\]$"):
            sd.at_gap(1.0)
        assert sd._memo == q.tabulated([0.5, 3.0], [1.0, 2.0])._memo

    @pytest.mark.parametrize("model", BATHS)
    @pytest.mark.parametrize("gaps", [(), (1.0,), (1.0, 0.5), (0.0,)])
    def test_pickles_and_compares_equal_whatever_the_memo_holds(self, model, gaps):
        fresh = BATHS[model]()
        used = BATHS[model]()
        for gap in gaps:
            used.at_gap(gap)
        copy = pickle.loads(pickle.dumps(used))
        assert used == fresh and copy == fresh and copy == used
        for gap in (0.5, 1.0, 0.7):
            assert bits(copy.at_gap(gap)) == bits(fresh.at_gap(gap))

    def test_tabulated_pickles(self):
        sd = BATHS["tabulated"]()
        sd.at_gap(0.5)
        copy = pickle.loads(pickle.dumps(sd))
        assert copy.model == sd.model and copy.params == sd.params
        for gap in (0.5, 1.0, 0.7):
            assert bits(copy.at_gap(gap)) == bits(sd.at_gap(gap))

    def test_unknown_model_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown spectral model"):
            q.SpectralDensity(model="lorentzian")


def rhs_full_from_samples(state, frame, s_plus, s_minus, s_zero):
    """rhs_full's float operations on three given samples, every per-gap term recomputed."""
    w01, w_gg, w_ee, wge, m1, m2 = frame
    rgg, rge = state
    m2r, m2i = m2.real, m2.imag
    wr, wi = wge.real, wge.imag
    rr, ri = rge.real, rge.imag
    s_sum = s_minus + s_plus
    k1 = (2.0 * s_zero - s_sum) / w01
    k1x2 = 2.0 * k1
    k2x2 = 2.0 * ((s_zero - s_plus) / w01)
    k3 = (s_minus - s_plus) / w01
    re_m2_w = m2i * wi + m2r * wr
    re_m2_r = m2i * ri + m2r * rr
    x = s_sum * ri * m2r - s_sum * m2i * rr
    y = k3 * m2i * wr - k3 * wi * m2r
    z = 2.0 * wi * rr - 2.0 * ri * wr
    u = s_sum * rgg - s_plus
    v = 2.0 * s_zero * m1 - k1x2 * re_m2_w
    k_w = (k1x2 * rgg - k2x2) * m1
    dgg = v * re_m2_r + k_w * re_m2_w - u * (m2r * m2r + m2i * m2i) + z
    p = u * m1
    q_ = x + y + k1 * m1 * z
    c_w = k_w * m1
    e_w = 2.0 * rgg - 1.0
    c_r = v * m1
    e_r = w01 + (w_ee - w_gg)
    dge_r = p * m2r + q_ * m2i - c_w * wr - e_w * wi - c_r * rr - e_r * ri
    dge_i = p * m2i - q_ * m2r - c_w * wi + e_w * wr - c_r * ri + e_r * rr
    return dgg, complex(dge_r, dge_i)


def rates_from_samples(m1, m2, s_plus, s_minus, s_zero):
    """rates' float operations on three given samples."""
    m2 = complex(m2)
    mod2 = m2.real * m2.real + m2.imag * m2.imag
    cross = -m1 * m2
    m2_sq = m2 * m2
    return (mod2 * s_minus, mod2 * s_plus, m2.conjugate() * (2.0 * m1) * s_zero, cross * s_plus,
            cross * s_minus, 2.0 * m1 * m1 * s_zero, m2_sq * s_plus / 2.0, m2_sq * s_minus / 2.0)


def complex_bits(values):
    """Floats and complexes by the value and sign of each part."""
    return tuple(bits((complex(v).real, complex(v).imag)) for v in values)


class TestGapTermsKept:
    @pytest.mark.parametrize("model", BATHS)
    def test_rhs_full_and_rates_match_a_from_scratch_evaluation(self, model):
        # at_gap computes a gap's quotients once and keeps them with its samples; served
        # new or from the memo, rhs_full and rates give the floats of a from-scratch
        # evaluation on sd(+-omega) and sd(0)
        sd, ref = BATHS[model](), BATHS[model]()
        calls = count_samples(sd)
        rng = np.random.default_rng(7)
        frames = [q.AdiabaticFrame(gap, *rng.normal(size=2), complex(*rng.normal(size=2)),
                                   rng.normal(), complex(*rng.normal(size=2)))
                  for gap in (1.0, 0.3, 1.0000000000000002, 2.5, 0.7, 1.0, 0.3)]
        frames += [q.frame_at(q.linear_sweep(0.2, 0.5, 10.0, SX), t) for t in (0.0, 3.3, 7.1)]
        frames.append(q.frame_at(q.rotating_cone(1.3, 1.1, 0.2, SX), 4.0))
        for i, frame in enumerate(frames):
            gap = frame.omega01
            samples = ref(gap), ref(-gap), ref(0.0)
            # each frame's gap is new when first met: two formula calls, and S(0) once
            for new_samples in ([gap, -gap, 0.0] if i == 0 else [gap, -gap], []):
                state = q.DensityState(rng.uniform(), complex(*rng.normal(scale=0.3, size=2)))
                del calls[:]
                got = q.rhs_full(state, frame, sd)
                assert complex_bits(got) == complex_bits(rhs_full_from_samples(state, frame, *samples))
                got = q.rates(frame.m1, frame.m2, gap, sd)
                assert complex_bits(got) == complex_bits(rates_from_samples(frame.m1, frame.m2, *samples))
                assert calls == new_samples


class TestRates:
    def test_pure_offdiagonal_coupling_flat(self):
        r = q.rates(0.0, 1.0, 1.0, q.flat(1.0))
        assert r.gamma_ge == 1.0
        assert r.gamma_eg == 1.0
        assert r.gamma_tilde0 == 0j
        assert r.gamma_tilde_plus == 0j
        assert r.gamma_tilde_minus == 0j
        assert r.gamma_phi == 0.0
        assert r.gamma_alpha == pytest.approx(0.5)
        assert r.gamma_beta == pytest.approx(0.5)

    def test_pure_diagonal_coupling_flat(self):
        r = q.rates(1.0, 0.0, 1.0, q.flat(1.0))
        assert r.gamma_phi == 2.0
        assert r.gamma_ge == r.gamma_eg == 0.0
        assert r.gamma_tilde0 == r.gamma_tilde_plus == r.gamma_tilde_minus == 0j
        assert r.gamma_alpha == r.gamma_beta == 0j

    def test_one_sided_spectrum(self):
        sd = q.tabulated([-1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        r = q.rates(0.0, 1.0, 1.0, sd)
        assert r.gamma_eg == 1.0
        assert r.gamma_ge == 0.0
        assert r.gamma_beta == 0j

    def test_gap_collapse(self):
        with pytest.raises(q.GapCollapse):
            q.rates(0.0, 1.0, 0.0, q.flat(1.0))

    @given(
        m1=st.floats(-2, 2),
        m2r=st.floats(-2, 2),
        m2i=st.floats(-2, 2),
        omega01=st.floats(0.1, 5),
        T=st.floats(0.1, 5),
    )
    @settings(max_examples=200)
    def test_rate_ratios(self, m1, m2r, m2i, omega01, T):
        sd = q.ohmic_thermal(0.8, T, 30.0)
        r = q.rates(m1, complex(m2r, m2i), omega01, sd)
        s_plus, s_minus = sd(omega01), sd(-omega01)
        assert r.gamma_ge >= 0 and r.gamma_eg >= 0 and r.gamma_phi >= 0
        # cross-multiplied ratio identities, robust to tiny denominators
        assert r.gamma_tilde_plus * s_minus == pytest.approx(
            r.gamma_tilde_minus * s_plus, rel=1e-10, abs=1e-250
        )
        assert r.gamma_alpha * s_minus == pytest.approx(
            r.gamma_beta * s_plus, rel=1e-10, abs=1e-250
        )

    def test_detailed_balance_of_rates(self):
        for omega01 in (0.5, 1.0, 2.0):
            for T in (0.5, 1.0, 2.0):
                r = q.rates(0.3, 0.8 + 0.2j, omega01, q.ohmic_thermal(1.0, T))
                assert r.gamma_ge / r.gamma_eg == pytest.approx(
                    math.exp(-omega01 / T), rel=1e-10
                )

    def test_phase_rotation_covariance(self):
        sd = q.ohmic_thermal(0.5, 1.0, 20.0)
        m1, m2, w01 = 0.7, complex(0.6, -0.3), 1.3
        base = q.rates(m1, m2, w01, sd)
        chi = 0.7341
        rot = cmath.exp(1j * chi)
        r = q.rates(m1, m2 * rot, w01, sd)
        # moduli-dependent members invariant
        assert r.gamma_ge == pytest.approx(base.gamma_ge, rel=1e-14)
        assert r.gamma_eg == pytest.approx(base.gamma_eg, rel=1e-14)
        assert r.gamma_phi == base.gamma_phi
        # complex members rotate with their m2 content
        assert r.gamma_tilde0 == pytest.approx(base.gamma_tilde0 * rot.conjugate(), rel=1e-14)
        assert r.gamma_tilde_plus == pytest.approx(base.gamma_tilde_plus * rot, rel=1e-14)
        assert r.gamma_tilde_minus == pytest.approx(base.gamma_tilde_minus * rot, rel=1e-14)
        assert r.gamma_alpha == pytest.approx(base.gamma_alpha * rot * rot, rel=1e-14)
        assert r.gamma_beta == pytest.approx(base.gamma_beta * rot * rot, rel=1e-14)


def sandwich_elements_oracle(m1, m2, w_ge, omega01):
    """Explicit matrix sandwich with the corrected states, linear order kept.

    Builds A in the (g, e) basis, forms the corrected (unnormalized) states
    and drops the quadratic-in-w term by subtracting it explicitly.
    """
    A = np.array([[m1, m2], [np.conj(m2), -m1]])
    x = w_ge / omega01
    g2 = np.array([1.0, -np.conj(x)])
    e2 = np.array([x, 1.0])
    m1_full = (g2.conj() @ A @ g2).real
    e_full = (e2.conj() @ A @ e2).real
    m2_full = g2.conj() @ A @ e2
    # remove the quadratic residues of the sandwich:
    # (m1_full - e_full)/2 = m1 - 2 Re(m2 x*) - m1 |x|^2,
    # m2_full = m2 + 2 m1 x - conj(m2) x^2
    m1_lin = (m1_full - e_full) / 2 + m1 * abs(x) ** 2
    m2_lin = m2_full + np.conj(m2) * x**2
    return m1_lin, m2_lin


class TestSuperadiabaticElements:
    def test_identity_at_zero_w(self):
        assert q.superadiabatic_elements(0.4, 0.2 + 0.1j, 0j, 1.0) == (0.4, 0.2 + 0.1j)

    def test_offdiagonal_coupling_case(self):
        # m1=0, m2=1, w_ge=0.05: sandwich gives m1_2 = -0.1, m2_2 unchanged
        m1_2, m2_2 = q.superadiabatic_elements(0.0, 1.0, 0.05, 1.0)
        ref1, ref2 = sandwich_elements_oracle(0.0, 1.0, 0.05, 1.0)
        assert m1_2 == pytest.approx(-0.1, abs=1e-15)
        assert m1_2 == pytest.approx(ref1, abs=1e-15)
        assert m2_2 == pytest.approx(1.0, abs=1e-15)
        assert m2_2 == pytest.approx(ref2, abs=1e-15)

    def test_diagonal_coupling_case(self):
        # m1=1, m2=0, w_ge=0.05: sandwich gives m2_2 = +0.1, m1_2 unchanged
        m1_2, m2_2 = q.superadiabatic_elements(1.0, 0.0, 0.05, 1.0)
        ref1, ref2 = sandwich_elements_oracle(1.0, 0.0, 0.05, 1.0)
        assert m2_2 == pytest.approx(0.1, abs=1e-15)
        assert m2_2 == pytest.approx(ref2, abs=1e-15)
        assert m1_2 == pytest.approx(1.0, abs=1e-15)
        assert m1_2 == pytest.approx(ref1, abs=1e-15)

    @given(
        m1=st.floats(-2, 2),
        m2r=st.floats(-2, 2),
        m2i=st.floats(-2, 2),
        wr=st.floats(-0.05, 0.05),
        wi=st.floats(-0.05, 0.05),
        omega01=st.floats(0.5, 3),
    )
    @settings(max_examples=200)
    def test_matches_sandwich_oracle(self, m1, m2r, m2i, wr, wi, omega01):
        m2 = complex(m2r, m2i)
        w = complex(wr, wi)
        got = q.superadiabatic_elements(m1, m2, w, omega01)
        ref = sandwich_elements_oracle(m1, m2, w, omega01)
        assert got[0] == pytest.approx(ref[0], abs=1e-12)
        assert got[1] == pytest.approx(ref[1], abs=1e-12)

    def test_linearity_in_w(self):
        m1, m2 = 0.6, complex(0.3, -0.2)
        w = complex(0.01, 0.02)
        d1 = np.array(q.superadiabatic_elements(m1, m2, w, 1.0)) - np.array([m1, m2])
        d2 = np.array(q.superadiabatic_elements(m1, m2, 2 * w, 1.0)) - np.array([m1, m2])
        assert d2[0] == 2 * d1[0]
        assert d2[1] == 2 * d1[1]

    def test_gap_collapse(self):
        with pytest.raises(q.GapCollapse):
            q.superadiabatic_elements(0.0, 1.0, 0.01, 0.0)

