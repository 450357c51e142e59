"""The paper's own route: the non-steered equation in the first superadiabatic basis.

Berry's first superadiabatic basis (Proc. R. Soc. Lond. A 414, 31 (1987))
corrects the adiabatic states by the steering admixture x = w_ge / omega01,
|g2> = |g> - |e> conj(x) and |e2> = |e> + |g> x, unnormalized (normalization
enters only at quadratic order). In that basis the steered system obeys the
non-steered equation, with the coupling elements of the corrected states and
a coherence that precesses at the corrected gap omega01 + w_ee - w_gg, while
the spectrum stays sampled at +-omega01 (the adiabatic-rates assumption that
also underlies ``rhs_full``, where no spectrum derivatives appear).
:func:`pullback` maps a state there, evaluates that equation with
``qsteer.rates`` and ``qsteer.rhs_nonsteered``, and pulls the derivative
back with the linear part of the state map (frame quantities frozen): an
independent route to ``rhs_full``, which it matches to O(alpha^2). A gap at
or below the floor raises ``GapCollapse`` from ``rates``.
"""

import qsteer as q


def elements(m1, m2, w_ge, omega01):
    """(m1_2, m2_2): the coupling elements of the corrected states, to linear order in w_ge.

    m1_2 = m1 - 2 Re(m2 conj(w_ge)) / omega01 and m2_2 = m2 + 2 m1 w_ge / omega01,
    already traceless at this order.
    """
    m2, w_ge = complex(m2), complex(w_ge)
    m1_2 = m1 - 2.0 * (m2.real * w_ge.real + m2.imag * w_ge.imag) / omega01
    return m1_2, m2 + 2.0 * m1 * w_ge / omega01


def to_superadiabatic(rho_gg, rho_ge, frame):
    """rho_gg2 = rho_gg - 2 Re(conj(x) rho_ge) and rho_ge2 = rho_ge + x (2 rho_gg - 1)."""
    x, rho_ge = frame.w_ge / frame.omega01, complex(rho_ge)
    return rho_gg - 2.0 * (x.conjugate() * rho_ge).real, rho_ge + x * (2.0 * rho_gg - 1.0)


def rhs_superadiabatic(state2, frame, sd):
    """The non-steered equation for ``state2``, a state in the superadiabatic basis."""
    m1_2, m2_2 = elements(frame.m1, frame.m2, frame.w_ge, frame.omega01)
    r2 = q.rates(m1_2, m2_2, frame.omega01, sd)
    return q.rhs_nonsteered(state2, r2, frame.omega01 + (frame.w_ee - frame.w_gg))


def pullback(state, frame, sd):
    """The adiabatic-basis (d rho_gg/dt, d rho_ge/dt) that the superadiabatic route predicts."""
    state2 = q.DensityState(*to_superadiabatic(state.rho_gg, state.rho_ge, frame))
    dgg2, dge2 = rhs_superadiabatic(state2, frame, sd)
    x = frame.w_ge / frame.omega01
    return dgg2 + 2.0 * (x.conjugate() * dge2).real, dge2 - 2.0 * x * dgg2
