"""Hand-coded sphere-rolling equations on R^3 x S^2 and their densities."""

import numpy as np
import pytest

from conftest import rng_for
from nonholo.ball3d import (
    _cross,
    _k_solve,
    _momentum_vector,
    BallState,
    ChaplyginChart,
    RubberChart,
    densities_3d,
    elpr_partner,
    epsilon_from_radii,
    random_ball_state,
)
from nonholo.elr import MultiplierChart
from nonholo.errors import ParameterError
from nonholo.liealg import InertiaOperator, from_wedge, unhat
from nonholo.numerics import IntegratorConfig, integrate, pointwise, tangent_volume_transport


def test_state_validation():
    with pytest.raises(ParameterError):
        BallState([0.1, 0, 0], [1.0, 1.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        BallState([0.1, 0, 0], [1.0, 0, 0], [1.0, -2.0, 3.0])
    with pytest.raises(ParameterError):
        BallState([0.1, 0, 0], [1.0, 0, 0], [1.0, 2.0, 3.0], D=-1.0)


def test_gather_cross_product_is_np_cross_bit_for_bit():
    rng = rng_for(26)
    a, b = rng.standard_normal((2, 10**5, 3))
    assert np.array_equal(_cross(a, b), np.cross(a, b))
    # broadcast shapes: a batch against one vector, either way round
    assert np.array_equal(_cross(a[:64], b[0]), np.cross(a[:64], b[0]))
    assert np.array_equal(_cross(a[0], b[:64]), np.cross(a[0], b[:64]))
    assert np.array_equal(_cross(a[0], b[0]), np.cross(a[0], b[0]))


# ---------------------------------------------------------------------------
# worked density values, reproduced by direct evaluation


def test_chaplygin_density_worked_value():
    st = BallState([0.3, -0.2, 0.5], [1.0, 0.0, 0.0], [1.0, 2.0, 3.0], D=1.0, eps=1.0)
    # det(I + D) = 2 * 3 * 4 = 24; 1 - D (g, (I+D)^{-1} g) = 1 - 1/2
    assert densities_3d(st, "chaplygin") == np.sqrt(12.0)


def test_rubber_density_worked_value():
    st = BallState([0.3, -0.2, 0.5], [1.0, 0.0, 0.0], [2.0, 3.0, 4.0], D=0.0, eps=1.0)
    # (I_tot^{-1} g, g)^(1/(2 eps)) = (1/2)^(1/2)
    assert densities_3d(st, "rubber") == 0.5**0.5


def test_log_density_consistency_and_eps_guard():
    st = random_ball_state(rng_for(1), inertia=[1.0, 2.0, 3.0], D=0.8, eps=0.5)
    for which, cls in (("chaplygin", ChaplyginChart), ("rubber", RubberChart)):
        chart = cls(st.inertia, st.D, st.eps)
        assert np.exp(chart.log_density(chart.flatten(st))) == pytest.approx(
            densities_3d(st, which), rel=1e-14
        )
    st0 = BallState(st.omega, st.gamma, st.inertia, st.D, eps=0.0)
    with pytest.raises(ParameterError):
        densities_3d(st0, "rubber")
    with pytest.raises(ParameterError):
        densities_3d(st, "bogus")


# ---------------------------------------------------------------------------
# momentum maps


def k_of(st):
    """The marble ball's k at a state: the leading block of the chart's row."""
    chart = ChaplyginChart(st.inertia, st.D, st.eps)
    return chart.row(chart.flatten(st))[:3]


def omega_of_momentum(m_bold, gamma, it):
    """Solve (diag(I_tot) + gamma gamma^T (E - diag(I_tot))) w = m_bold, the
    rubber ball's momentum-form map, by a dense solve; it holds I_tot."""
    M = it * np.eye(3) + np.outer(gamma, gamma) @ (np.eye(3) - it * np.eye(3))
    return np.linalg.solve(M, m_bold)


def test_momentum_maps_round_trip():
    st = random_ball_state(rng_for(2), inertia=[1.1, 1.9, 3.2], D=1.3, eps=0.7)
    w = _k_solve(k_of(st), st.gamma, st.total_inertia, st.D)[0]
    assert np.allclose(w, st.omega, atol=1e-12)
    mb = _momentum_vector(st.omega, st.gamma, st.total_inertia)
    assert np.allclose(omega_of_momentum(mb, st.gamma, st.total_inertia), st.omega, atol=1e-12)
    m = RubberChart(st.inertia, st.D, st.eps, variables="m").flatten(st)[:3]
    assert np.allclose(m, st.total_inertia * st.omega, atol=1e-15)


@pytest.mark.parametrize(
    "scale, D", [(1.0, 1.3), (1.05, 1.3), (1.0, 0.0)], ids=["unit", "off-sphere", "D0"]
)
def test_omega_from_k_is_a_dense_solve_of_k_gamma(scale, D):
    # _k_solve's Sherman-Morrison w from k against np.linalg.solve of
    # K(gamma) = diag(I + D) - D gamma gamma^T, on |gamma| = 1, off it, and at
    # D = 0, where K is diagonal
    rng = rng_for(5)
    inertia = np.array([1.1, 1.9, 3.2])
    g = rng.standard_normal((4, 3))
    g = scale * g / np.linalg.norm(g, axis=-1, keepdims=True)
    k = rng.standard_normal((4, 3))
    K = (inertia + D) * np.eye(3) - D * (g[:, :, None] * g[:, None, :])
    expect = np.linalg.solve(K, k[..., None])[..., 0]
    w = _k_solve(k, g, inertia + D, D)[0]
    assert w.shape == (4, 3)
    for i in range(4):
        for got in (w[i], _k_solve(k[i], g[i], inertia + D, D)[0]):
            assert np.max(np.abs(got - expect[i])) <= 1e-13 * np.max(np.abs(expect[i]))


def test_k_vector_formula():
    st = random_ball_state(rng_for(3), inertia=[1.0, 2.0, 3.0], D=0.9)
    w, g = st.omega, st.gamma
    expect = st.inertia * w + st.D * (w - np.dot(w, g) * g)
    assert np.allclose(k_of(st), expect, atol=1e-14)


# ---------------------------------------------------------------------------
# fields


def test_chaplygin_reduces_to_free_top_at_d_zero():
    st = random_ball_state(rng_for(4), inertia=[1.0, 2.0, 3.0], D=0.0, eps=2.0)
    f = ChaplyginChart(st.inertia, st.D, st.eps).field(np.concatenate([st.omega, st.gamma]))
    k = st.inertia * st.omega
    assert np.allclose(st.inertia * f[:3], np.cross(k, st.omega), atol=1e-14)
    assert np.allclose(f[3:], 2.0 * np.cross(st.gamma, st.omega), atol=1e-14)


def test_gamma_frozen_when_aligned_with_omega():
    g = np.array([0.0, 0.6, 0.8])
    x = np.concatenate([2.0 * g, g])
    for chart in (
        ChaplyginChart([1.0, 2.0, 3.0], 1.0, 0.5),
        RubberChart([1.0, 2.0, 3.0], 1.0, 0.5, variables="omega"),
    ):
        assert np.max(np.abs(chart.field(x)[3:])) == 0.0


def test_chaplygin_chart_pullback_consistent():
    # finite difference of k(w(t), gamma(t)) along the chart field returns dk
    st = random_ball_state(rng_for(5), inertia=[1.0, 2.0, 3.0], D=1.0, eps=0.5)
    chart = ChaplyginChart(st.inertia, st.D, st.eps)
    x = chart.flatten(st)
    f = chart.field(x)
    h = 1e-6

    def k_at(coords):
        return chart.row(coords)[:3]

    fd = (k_at(x + h * f) - k_at(x - h * f)) / (2.0 * h)
    # the marble ball's momentum equation dk/dt = k x w
    assert np.max(np.abs(fd - np.cross(k_at(x), st.omega))) < 1e-8


def test_rubber_multiplier_keeps_contact_constraint():
    for seed in range(5):
        st = random_ball_state(rng_for(10 + seed), inertia=[1.0, 2.3, 3.1], D=0.6, eps=1.5)
        chart = RubberChart(st.inertia, st.D, st.eps, variables="omega")
        f = chart.field(chart.flatten(st))
        dw, dg = f[:3], f[3:]
        assert abs(np.dot(dw, st.gamma) + np.dot(st.omega, dg)) < 1e-12


def test_rubber_multiplier_matches_direct_solve():
    # the reaction dm/dt - m x w is lam gamma, with lam solved from
    # d/dt (w, gamma) = 0
    st = random_ball_state(rng_for(16), inertia=[1.0, 2.0, 3.0], D=0.4, eps=0.5)
    chart = RubberChart(st.inertia, st.D, st.eps, variables="m")
    it = st.total_inertia
    m = it * st.omega
    reaction = chart.field(chart.flatten(st))[:3] - np.cross(m, st.omega)
    expect = -np.dot(st.gamma, np.cross(m, st.omega) / it) / np.dot(st.gamma, st.gamma / it)
    assert np.max(np.abs(reaction - expect * st.gamma)) <= 1e-14 * abs(expect)


def test_contact_projection_conserved_along_rubber_flow():
    st = random_ball_state(rng_for(17), inertia=[1.0, 2.0, 3.0], D=0.5, eps=-1.0)
    chart = RubberChart(st.inertia, st.D, st.eps, variables="omega")
    traj = integrate(chart.field, chart.flatten(st), IntegratorConfig(t_end=5.0, samples=11))
    phi = np.array([np.dot(c[:3], c[3:]) for c in traj.states])
    assert np.max(np.abs(phi - phi[0])) < 1e-9


# ---------------------------------------------------------------------------
# the two rubber forms agree


def momentum_form_field(inertia, D, eps):
    inertia = np.asarray(inertia, dtype=float)
    it = inertia + D

    def field(x):
        mb, g = x[:3], x[3:]
        w = omega_of_momentum(mb, g, it)
        v = it * w
        vw = np.cross(v, w)
        dmb = eps * np.cross(mb, w) + (1.0 - eps) * (vw - np.dot(vw, g) * g)
        return np.concatenate([dmb, eps * np.cross(g, w)])

    return field


def test_rubber_forms_trace_the_same_trajectories():
    inertia, D, eps = np.array([1.0, 2.0, 3.0]), 0.5, 0.5
    st = random_ball_state(rng_for(20), inertia=inertia, D=D, eps=eps)
    chart = RubberChart(inertia, D, eps, variables="m")
    cfg = IntegratorConfig(t_end=5.0, samples=11)
    tr_mult = integrate(chart.field, chart.flatten(st), cfg)
    x0 = np.concatenate([_momentum_vector(st.omega, st.gamma, st.total_inertia), st.gamma])
    tr_mom = integrate(pointwise(momentum_form_field(inertia, D, eps)), x0, cfg)
    dev = 0.0
    for c1, c2 in zip(tr_mult.states, tr_mom.states):
        w1, g1 = c1[:3] / (inertia + D), c1[3:]
        w2 = omega_of_momentum(c2[:3], c2[3:], inertia + D)
        dev = max(dev, float(np.max(np.abs(w1 - w2))), float(np.max(np.abs(g1 - c2[3:]))))
    assert dev < 1e-9


def test_rubber_chart_variable_choices_agree():
    inertia, D, eps = np.array([1.0, 2.0, 3.0]), 0.7, 2.0
    st = random_ball_state(rng_for(21), inertia=inertia, D=D, eps=eps)
    cm = RubberChart(inertia, D, eps, variables="m")
    cw = RubberChart(inertia, D, eps, variables="omega")
    cfg = IntegratorConfig(t_end=5.0, samples=11)
    t1 = integrate(cm.field, cm.flatten(st), cfg)
    t2 = integrate(cw.field, cw.flatten(st), cfg)
    for c1, c2 in zip(t1.states, t2.states):
        assert np.max(np.abs(c1[:3] / (inertia + D) - c2[:3])) < 1e-10
        assert np.max(np.abs(c1[3:] - c2[3:])) < 1e-10
    with pytest.raises(ParameterError, match="^variables: "):
        RubberChart(inertia, D, eps, variables="q")


def test_rubber_chart_builds_at_eps_zero_and_refuses_its_density_as_multiplier_chart_does():
    # the flow holds at eps = 0 with gamma frozen; its density (exponent
    # 1/(2 eps)) does not, so only check_density and log_density raise
    inertia, D = np.array([1.0, 2.0, 3.0]), 0.7
    rubber = RubberChart(inertia, D, 0.0)
    frame = MultiplierChart(InertiaOperator.so3_vector(inertia + D), 1, 0.0)
    x = rubber.random_coords(rng_for(23))
    assert np.array_equal(rubber.field(x)[3:], np.zeros(3))
    for chart, coords in ((rubber, x), (frame, frame.random_coords(rng_for(23)))):
        for refuse in (chart.check_density, lambda: chart.log_density(coords)):
            with pytest.raises(ParameterError, match="^density is undefined at eps = 0$"):
                refuse()


# ---------------------------------------------------------------------------
# densities certified by transport


def test_chaplygin_transport():
    st = random_ball_state(rng_for(22), inertia=[1.0, 2.0, 3.0], D=1.0, eps=0.5)
    chart = ChaplyginChart(st.inertia, st.D, st.eps)
    res = tangent_volume_transport(
        chart.field,
        chart.log_density,
        chart.flatten(st),
        chart.constraints,
        IntegratorConfig(t_end=5.0),
    )
    assert res.max_abs_residual < 1e-8


def test_rubber_transport_both_charts():
    st = random_ball_state(rng_for(23), inertia=[1.0, 2.0, 3.0], D=0.5, eps=-1.0)
    for variables in ("m", "omega"):
        chart = RubberChart(st.inertia, st.D, st.eps, variables=variables)
        res = tangent_volume_transport(
            chart.field,
            chart.log_density,
            chart.flatten(st),
            chart.constraints,
            IntegratorConfig(t_end=5.0),
        )
        assert res.max_abs_residual < 1e-8


# ---------------------------------------------------------------------------
# lifts to the general modules


def test_marble_lift_trajectories_match():
    st = random_ball_state(rng_for(24), inertia=[1.0, 2.0, 3.0], D=1.0, eps=0.5)
    ball_chart = ChaplyginChart(st.inertia, st.D, st.eps)
    x = ball_chart.flatten(st)
    gen_chart, y, _ = elpr_partner(ball_chart, x)
    cfg = IntegratorConfig(t_end=3.0, samples=7)
    tb = integrate(ball_chart.field, x, cfg)
    tg = integrate(gen_chart.field, y, cfg)
    for cb, cg in zip(tb.states, tg.states):
        w_gen = unhat(from_wedge(gen_chart.velocity(cg), 3))
        assert np.max(np.abs(cb[:3] - w_gen)) < 1e-9


# ---------------------------------------------------------------------------
# geometry of the modification parameter


def test_epsilon_from_radii():
    assert epsilon_from_radii(1.0, 1.0, "outer") == 0.5
    assert epsilon_from_radii(2.0, 1.0, "inner") == 2.0
    assert epsilon_from_radii(1e9, 1.0, "outer") == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ParameterError):
        epsilon_from_radii(1.0, 1.0, "inner")
    with pytest.raises(ParameterError):
        epsilon_from_radii(-1.0, 1.0)
    with pytest.raises(ParameterError):
        epsilon_from_radii(1.0, 1.0, "sideways")
