"""Frame-constrained rigid-body flow: multiplier and momentum forms."""

import numpy as np
import pytest

from conftest import field_blocks, random_spd_operator, rng_for
from nonholo import ball3d
from nonholo.elr import (
    ELRMultiplierState,
    MomentumChart,
    MultiplierChart,
    analytic_divergence,
    first_integrals,
    momentum_of,
    multipliers,
    omega_of,
    random_momentum_state,
    random_multiplier_state,
)
from nonholo.errors import ParameterError, SingularityError
from nonholo.liealg import (
    Frame,
    InertiaOperator,
    commutator,
    frame_gram,
    from_wedge,
    hat,
    inner_product,
    to_wedge,
    wedge_basis,
)
from nonholo.numerics import IntegratorConfig, divergence, integrate, liouville_residual_ambient


def test_from_omega_records_current_constraint_values():
    st = random_multiplier_state(4, 2, rng_for(0))
    assert np.allclose(st.constants, st.phi(), atol=1e-15)


def test_field_preserves_constraints_analytically():
    for n, k, eps in ((3, 1, 0.5), (4, 2, 2.0), (5, 2, -1.0)):
        st = random_multiplier_state(n, k, rng_for(n + k))
        op = random_spd_operator(n, rng_for(7 * n + k))
        dwc, dec = field_blocks(MultiplierChart(op, k, eps), st)
        dw, de = from_wedge(dwc, n), from_wedge(dec.reshape(k, -1), n)
        dphi = inner_product(dw, st.frames.elems) + inner_product(st.omega, de)
        assert np.max(np.abs(dphi)) < 1e-12


def test_constraints_hold_along_integrated_flow():
    # finite-difference d/dt <omega, e_i> along the flow stays at zero
    op = random_spd_operator(4, rng_for(41))
    chart = MultiplierChart(op, k=2, eps=0.5)
    st = random_multiplier_state(4, 2, rng_for(42))
    cfg = IntegratorConfig(t_end=2.0, samples=9)
    traj = integrate(chart.field, chart.flatten(st), cfg)
    phis = np.array([chart.unflatten(c).phi() for c in traj.states])
    assert np.max(np.abs(phis - phis[0])) < 1e-8


def test_multipliers_reproduce_momentum_equation():
    st = random_multiplier_state(4, 2, rng_for(3))
    op = random_spd_operator(4, rng_for(4))
    lam = multipliers(st, op)
    dwc, _ = field_blocks(MultiplierChart(op, 2, 1.3), st)
    dw = from_wedge(dwc, 4)
    m = op.apply(st.omega)
    residual = op.apply(dw) - commutator(m, st.omega)
    forced = np.tensordot(lam, st.frames.elems, axes=(0, 0))
    assert np.max(np.abs(residual - forced)) < 1e-11


def test_analytic_divergence_matches_finite_difference():
    for n, k in ((3, 1), (4, 2)):
        st = random_multiplier_state(n, k, rng_for(10 * n + k))
        op = random_spd_operator(n, rng_for(11 * n + k))
        chart = MultiplierChart(op, k=k, eps=1.0)
        fd = divergence(chart.field, chart.flatten(st))
        assert fd == pytest.approx(analytic_divergence(st, op), abs=1e-6)


def test_rubber_ball_is_the_k1_so3_case():
    # n = 3, k = 1 with inertia I + D reproduces the hand-coded rubber field
    ball = ball3d.random_ball_state(rng_for(8), inertia=[1.0, 2.0, 3.0], D=0.5, eps=0.7)
    lifted, op = ball3d.lift_to_so3(ball, "elr")
    dwc, dec = field_blocks(MultiplierChart(op, 1, ball.eps), lifted)
    dw, de = from_wedge(dwc, 3), from_wedge(dec.reshape(1, -1), 3)
    dm, dg = ball3d.vf_rubber(ball, form="multiplier")
    assert np.max(np.abs(dw - hat(dm / ball.total_inertia))) < 1e-12
    assert np.max(np.abs(de[0] - hat(ball.eps * np.cross(ball.gamma, ball.omega)))) < 1e-12


# ---------------------------------------------------------------------------
# densities


def density(st, op, eps):
    chart = MultiplierChart(op, st.k, eps)
    return np.exp(chart.log_density(chart.flatten(st)))


def test_multiplier_density_frozen_example():
    # single constraint e = E1^E2, products inertia a = (1, 2, 3):
    # det <e, I^{-1} e> = 1/(a1 a2) = 1/2, so the eps = 1 density is sqrt(1/2)
    op = InertiaOperator.wedge_products([1.0, 2.0, 3.0])
    frames = Frame(np.array([wedge_basis(3)[0]]), orthonormal=True)
    st = ELRMultiplierState.from_omega(from_wedge(np.array([0.2, -0.4, 0.9]), 3), frames)
    assert density(st, op, 1.0) == pytest.approx(0.5**0.5, rel=1e-14)
    assert density(st, op, 0.5) == pytest.approx(0.5, rel=1e-14)
    assert density(st, op, -1.0) == pytest.approx(0.5**-0.5, rel=1e-14)


def test_density_reduces_to_sqrt_gram_at_eps_one():
    rng = rng_for(12)
    for _ in range(5):
        st = random_multiplier_state(4, 2, rng)
        op = random_spd_operator(4, rng)
        expect = np.sqrt(np.linalg.det(frame_gram(st.frames, op, mode="inverse_inertia")))
        assert abs(density(st, op, 1.0) - expect) < 1e-12 * expect


def test_density_rejects_eps_zero():
    st = random_multiplier_state(3, 1, rng_for(1))
    op = InertiaOperator.identity(3)
    mult = MultiplierChart(op, 1, 0.0)
    with pytest.raises(ParameterError):
        mult.log_density(mult.flatten(st))
    mom = MomentumChart(op, 1, 0.0)
    with pytest.raises(ParameterError):
        mom.log_density(mom.flatten(random_momentum_state(3, 1, rng_for(2))))


def test_ambient_liouville_residual_vanishes():
    for eps in (-1.0, 0.5, 1.0, 2.0):
        op = random_spd_operator(4, rng_for(21))
        chart = MultiplierChart(op, k=1, eps=eps)
        st = random_multiplier_state(4, 1, rng_for(22))
        res = liouville_residual_ambient(chart.field, chart.log_density, chart.flatten(st))
        assert abs(res) < 1e-7


# ---------------------------------------------------------------------------
# momentum form


def test_momentum_round_trip():
    rng = rng_for(31)
    for n, k in ((3, 1), (4, 2), (5, 3)):
        st = random_multiplier_state(n, k, rng)
        op = random_spd_operator(n, rng)
        mst = momentum_of(st, op)
        assert np.max(np.abs(omega_of(mst, op) - st.omega)) < 1e-11


def test_momentum_field_preserves_frame_orthonormality():
    st = random_momentum_state(4, 2, rng_for(33))
    op = random_spd_operator(4, rng_for(34))
    _, dfc = field_blocks(MomentumChart(op, 2, 0.5), st)
    df = from_wedge(dfc.reshape(st.frames_d.k, -1), 4)
    g = inner_product(df[:, None], st.frames_d.elems[None, :])
    assert np.max(np.abs(g + g.T)) < 1e-12


def test_forms_trace_the_same_omega_trajectories():
    op = random_spd_operator(4, rng_for(35))
    st = random_multiplier_state(4, 2, rng_for(36))
    mst = momentum_of(st, op)
    cfg = IntegratorConfig(t_end=5.0, samples=11)
    eps = 0.5
    mult_chart = MultiplierChart(op, k=2, eps=eps)
    mom_chart = MomentumChart(op, k=2, eps=eps)
    tr1 = integrate(mult_chart.field, mult_chart.flatten(st), cfg)
    tr2 = integrate(mom_chart.field, mom_chart.flatten(mst), cfg)
    dev = [
        np.max(np.abs(mult_chart.unflatten(c1).omega - omega_of(mom_chart.unflatten(c2), op)))
        for c1, c2 in zip(tr1.states, tr2.states)
    ]
    assert max(dev) < 1e-8


# ---------------------------------------------------------------------------
# first integrals


def test_phi_conserved_for_all_eps():
    op = random_spd_operator(4, rng_for(51))
    st = random_multiplier_state(4, 2, rng_for(52))
    cfg = IntegratorConfig(t_end=10.0, samples=21)
    for eps in (-1.0, 0.5, 1.0, 2.0):
        chart = MultiplierChart(op, k=2, eps=eps)
        traj = integrate(chart.field, chart.flatten(st), cfg)
        phis = np.array([chart.unflatten(c).phi() for c in traj.states])
        assert np.max(np.abs(phis - phis[0])) < 1e-8


def test_energy_conserved_on_zero_constant_level():
    op = random_spd_operator(4, rng_for(53))
    st = random_multiplier_state(4, 2, rng_for(54), zero_constants=True)
    assert np.max(np.abs(st.constants)) < 1e-12
    chart = MultiplierChart(op, k=2, eps=2.0)
    traj = integrate(chart.field, chart.flatten(st), IntegratorConfig(t_end=10.0, samples=21))
    H = np.array([first_integrals(chart.unflatten(c), op).energy for c in traj.states])
    assert np.max(np.abs(H - H[0])) < 1e-8


def test_modified_energy_conserved_only_at_eps_one():
    op = random_spd_operator(4, rng_for(55))
    st = random_multiplier_state(4, 2, rng_for(56))
    cfg = IntegratorConfig(t_end=10.0, samples=21)

    def f_drift(eps):
        chart = MultiplierChart(op, k=2, eps=eps)
        traj = integrate(chart.field, chart.flatten(st), cfg)
        F = np.array(
            [first_integrals(chart.unflatten(c), op).modified_energy for c in traj.states]
        )
        return float(np.max(np.abs(F - F[0])))

    assert f_drift(1.0) < 1e-8
    assert f_drift(2.0) > 1e-3


def test_dependent_frame_rows_raise_singularity_error():
    # two equal frame rows: the k x k Gram solves are singular
    op = InertiaOperator.wedge_products([0.8, 1.1, 1.7, 2.3])
    chart = MultiplierChart(op, k=2, eps=0.5)
    coords = np.ones(chart.dim)
    with pytest.raises(SingularityError, match="singular"):
        chart.field(coords)
    with pytest.raises(SingularityError, match="singular"):
        chart.field(np.stack([coords, coords + 0.5]))
    e = from_wedge(np.ones(6), 4)
    state = ELRMultiplierState.from_omega(e, Frame(np.stack([e, e]), gram_tolerance=-1.0))
    with pytest.raises(SingularityError, match="singular"):
        first_integrals(state, op)


def test_integrals_frame_check_is_scale_free():
    # the Gram eigenvalue ratio decides, not the Gram determinant
    op = InertiaOperator.wedge_products([0.8, 1.1, 1.7, 2.3])
    chart = MultiplierChart(op, k=2, eps=0.5)
    x = chart.flatten(random_multiplier_state(4, 2, rng_for(8)))
    scaled = np.concatenate([x[: chart.N], 1e-4 * x[chart.N :]])  # Gram det ~1e-16
    out = chart.integrals(np.stack([x, scaled]))
    assert out["H"].shape == (2,)
    equal = np.concatenate([x[: 2 * chart.N], x[chart.N : 2 * chart.N]])
    with pytest.raises(SingularityError, match="numerically dependent"):
        chart.integrals(np.stack([x, equal]))
