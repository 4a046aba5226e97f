"""Symmetric-operator flow on so(n) and its Stiefel-carried specialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from conftest import (
    chaplygin_params,
    commutator,
    double_bracket,
    field_blocks,
    gamma_projector,
    random_skew,
    random_spd_operator,
    rng_for,
    wedge_basis,
)
from nonholo import ball3d
from nonholo.elpr import (
    LPRChart,
    LPRStiefelChart,
    _k_coords,
    _stiefel_velocity,
    pi_variants,
    random_elpr_state,
    random_lpr_stiefel_state,
    stiefel_total_inertia,
)
from nonholo.errors import DefinitenessError, ParameterError
from nonholo.liealg import (
    InertiaOperator,
    ad_coords,
    dr_projector_matrix,
    from_wedge,
    hat,
    random_stiefel,
    to_wedge,
    unhat,
    wedge_dim,
    wedge_index_pairs,
)
from nonholo.numerics import (
    IntegratorConfig,
    integrate,
    liouville_residual_ambient,
    tangent_volume_transport,
)
from nonholo.veselova import pluecker, pluecker_indices


# ---------------------------------------------------------------------------
# the symmetric-operator flow


def state(k_bold, Pi):
    """Coordinates (k_bold, Pi upper triangle), as random_elpr_state draws them."""
    return np.concatenate([to_wedge(k_bold), Pi[np.triu_indices(len(Pi))]])


def log_density(st, op):
    """LPRChart.log_density at a state; it depends on Pi only, so the k_bold
    block stands in for w rather than w being solved from it."""
    return LPRChart(op, eps=1.0).log_density(st)


def omega_of(st, op):
    """w solved from k_bold = (I + Pi) w: the leading block of LPRChart.flatten."""
    return from_wedge(LPRChart(op, eps=1.0).flatten(st)[: op.N], op.n)


def rates(st, op, eps):
    """LPRChart's w and Pi at a state, then its field there as w' (wedge
    coordinates) and the symmetric Pi'."""
    chart = LPRChart(op, eps)
    x = chart.flatten(st)
    return chart._split(x) + chart._split(chart.field(x))


def k_rate(wc, Pi, dwc, dPi, op):
    """Wedge coordinates of d/dt k_bold = (I + Pi) w' + Pi' w, by the product
    rule on k_bold = (I + Pi) w."""
    return _k_coords(dwc, Pi, op) + dPi @ wc


def test_momentum_map_round_trip():
    rng = rng_for(1)
    for n in (3, 4):
        op = random_spd_operator(n, rng)
        st = random_elpr_state(n, rng)
        chart = LPRChart(op, eps=1.0)
        wc, Pi = chart._split(chart.flatten(st))
        assert np.max(np.abs(_k_coords(wc, Pi, op) - st[: op.N])) < 1e-11


def test_field_shape_and_pi_symmetry():
    st = random_elpr_state(4, rng_for(2))
    op = random_spd_operator(4, rng_for(3))
    wc, Pi, dwc, dPi = rates(st, op, 0.5)
    assert dwc.shape == (6,) and dPi.shape == (6, 6)
    # the packed Pi' is the symmetric eps [Pi, ad_w], and k_bold' = [k_bold, w]
    A = ad_coords(wc, 4)
    assert np.max(np.abs(dPi - 0.5 * (Pi @ A - A @ Pi))) < 1e-14 * np.max(np.abs(dPi))
    dk = from_wedge(k_rate(wc, Pi, dwc, dPi, op), 4)
    assert np.max(np.abs(dk - commutator(from_wedge(st[:6], 4), omega_of(st, op)))) < 1e-12


def test_eps_one_matches_unmodified_flow_exactly():
    # a batch of states against (I + Pi) w' = [I w, w], Pi' = Pi ad_w - ad_w Pi
    op = random_spd_operator(4, rng_for(5))
    chart = LPRChart(op, 1.0)
    x = np.stack([chart.flatten(random_elpr_state(4, rng_for(4 + 10 * i))) for i in range(3)])
    wc, Pi = chart._split(x)
    A = ad_coords(wc, 4)
    rhs = -np.einsum("...ij,...j->...i", A, op.apply_coords(wc))
    dw = np.linalg.solve(op.dense_matrix + Pi, rhs[..., None])[..., 0]
    assert np.array_equal(chart.field(x), chart._pack(dw, Pi @ A - A @ Pi))


def test_pi_zero_reduces_to_free_rotation():
    rng = rng_for(6)
    op = random_spd_operator(3, rng)
    w = random_skew(3, rng)
    st = state(op.apply(w), np.zeros((3, 3)))
    _, _, dwc, dPi = rates(st, op, 2.0)
    assert np.max(np.abs(op.apply(from_wedge(dwc, 3)) - commutator(op.apply(w), w))) < 1e-12
    assert np.max(np.abs(dPi)) == 0.0
    assert np.exp(log_density(st, op)) == pytest.approx(np.sqrt(np.exp(op.logdet())), rel=1e-12)


def test_constant_multiple_of_identity_is_frozen():
    rng = rng_for(7)
    op = random_spd_operator(4, rng)
    D = 1.7
    st = state(random_skew(4, rng), D * np.eye(6))
    dPi = rates(st, op, 0.5)[3]
    assert np.max(np.abs(dPi)) < 1e-14


def test_projector_density_closed_form():
    # Pi = D P with P a rank-q orthogonal projector and identity inertia:
    # det(I + Pi) = (1 + D)^q
    rng = rng_for(8)
    op = InertiaOperator.identity(4)
    c = np.linalg.qr(rng.standard_normal((6, 2)))[0]
    P = c @ c.T
    D = 2.5
    st = state(random_skew(4, rng), D * P)
    assert log_density(st, op) == pytest.approx(np.log(1.0 + D), rel=1e-12)


def test_indefinite_total_inertia_is_rejected():
    st = state(random_skew(3, rng_for(9)), -2.0 * np.eye(3))
    op = InertiaOperator.identity(3)
    with pytest.raises(DefinitenessError):
        omega_of(st, op)
    with pytest.raises(DefinitenessError):
        log_density(st, op)


def test_energy_and_spectrum_conserved_along_flow():
    op = random_spd_operator(4, rng_for(10))
    st = random_elpr_state(4, rng_for(11))
    cfg = IntegratorConfig(t_end=10.0, samples=21)
    for eps in (-1.0, 0.5, 1.0, 2.0):
        chart = LPRChart(op, eps)
        traj = integrate(chart.field, chart.flatten(st), cfg)
        H = chart.integrals(traj.states)["H"]
        eigs = np.linalg.eigvalsh(chart._split(traj.states)[1])
        assert np.max(np.abs(H - H[0])) < 1e-8 * max(1.0, abs(H[0]))
        assert np.max(np.abs(eigs - eigs[0])) < 1e-8


def test_ambient_liouville_residual_vanishes():
    for n in (3, 4):
        op = random_spd_operator(n, rng_for(20 + n))
        st = random_elpr_state(n, rng_for(30 + n))
        for eps in (-1.0, 0.5, 1.0, 2.0):
            chart = LPRChart(op, eps)
            res = liouville_residual_ambient(chart.field, chart.log_density, chart.flatten(st))
            assert abs(res) < 1e-7


# ---------------------------------------------------------------------------
# the two sphere-carried operator constructions


# pi_variants is D times the projector onto the complement of the isotropy
# subalgebra; the double bracket D ad_gamma^T ad_gamma of the tests' oracle
# equals it exactly when gamma is decomposable


def test_pi_variants_coincide_on_so3():
    rng = rng_for(40)
    for _ in range(5):
        g = random_skew(3, rng)
        g = g / np.linalg.norm(to_wedge(g))
        D = float(rng.uniform(0.5, 3.0))
        assert np.max(np.abs(pi_variants(g, D) - double_bracket(g, D))) < 1e-12


@settings(max_examples=15, deadline=None)
@given(strategies.integers(min_value=0, max_value=10**6))
def test_pi_variants_so3_is_the_axis_complement(seed):
    # for a unit g the isotropy of hat(g) is its own axis: D (Id - c c^T)
    rng = rng_for(seed)
    g = rng.standard_normal(3)
    g = g / np.linalg.norm(g)
    D = float(rng.uniform(0.5, 3.0))
    c = to_wedge(hat(g))
    assert np.max(np.abs(pi_variants(hat(g), D) - D * (np.eye(3) - np.outer(c, c)))) < 1e-12


def test_pi_variants_coincide_on_decomposable_so4():
    b = wedge_basis(4)
    D = 1.3
    assert np.max(np.abs(pi_variants(b[0], D) - double_bracket(b[0], D))) < 1e-12
    # a generic decomposable element keeps the agreement
    rng = rng_for(41)
    u, v = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    g = np.outer(u, v) - np.outer(v, u)
    assert np.max(np.abs(pi_variants(g, D) - double_bracket(g, D))) < 1e-12


def test_pi_variants_differ_on_non_decomposable_so4():
    b = wedge_basis(4)
    g = (b[0] + b[5]) / np.sqrt(2.0)  # E1^E2 + E3^E4, not a single wedge
    D = 1.0
    assert np.max(np.abs(pi_variants(g, D) - double_bracket(g, D))) > 0.1


def test_pi_variants_d_proj_eigenstructure():
    # the isotropy of E1^E2 in so(4) is span{E1^E2, E3^E4}
    b = wedge_basis(4)
    D = 2.0
    P = pi_variants(b[0], D)
    ev = np.sort(np.linalg.eigvalsh(P))
    assert np.allclose(ev, np.concatenate([np.zeros(2), D * np.ones(4)]), atol=1e-12)
    iso = to_wedge(np.array([b[0], b[5]]))
    assert np.allclose(P, D * (np.eye(6) - iso.T @ iso), atol=1e-13)
    with pytest.raises(ParameterError):
        pi_variants(b[0], -1.0)


def test_pi_variants_double_bracket_formula():
    # the oracle is the matrix of eta |-> D [[g, eta], g] = D ad_g^T ad_g
    rng = rng_for(42)
    g = random_skew(4, rng)
    g = g / np.linalg.norm(to_wedge(g))
    D = 1.4
    P = double_bracket(g, D)
    w = random_skew(4, rng)
    expect = D * commutator(commutator(g, w), g)
    assert np.max(np.abs(from_wedge(P @ to_wedge(w), 4) - expect)) < 1e-12
    A = ad_coords(to_wedge(g), 4)
    assert np.max(np.abs(P - D * A.T @ A)) < 1e-12


def test_d_projector_on_stiefel_frame():
    rng = rng_for(43)
    U = random_stiefel(5, 2, rng)
    D = 0.9
    P = D * dr_projector_matrix(U @ U.T)
    _, pr = gamma_projector(U)
    w = random_skew(5, rng)
    assert np.max(np.abs(from_wedge(P @ to_wedge(w), 5) - D * pr(w))) < 1e-12


# ---------------------------------------------------------------------------
# the Stiefel-carried flow and its density


def test_stiefel_total_inertia_identity():
    # E + D I^{-1} with the pair-ratio inertia acts by D/(a_i a_j)
    rng = rng_for(50)
    a, D = chaplygin_params(4, rng)
    tot = stiefel_total_inertia(a, D)
    op = InertiaOperator.wedge_products_chaplygin(a, D)
    pairs = wedge_index_pairs(4)
    expect = np.array([D / (a[i] * a[j]) for i, j in pairs])
    assert np.max(np.abs(tot.diag - expect)) < 1e-12
    assert np.max(np.abs(tot.dense_matrix - (np.eye(6) + D * np.linalg.inv(op.dense_matrix)))) < 1e-11


def test_stiefel_momentum_identity():
    # pr_D(I_tot I w) + pr_H(I w) equals k = I w + D pr_D(w)
    rng = rng_for(51)
    for n, r in ((4, 1), (4, 2), (5, 2)):
        a, D = chaplygin_params(n, rng)
        op = InertiaOperator.wedge_products_chaplygin(a, D)
        tot = stiefel_total_inertia(a, D)
        U = random_stiefel(n, r, rng)
        _, pr = gamma_projector(U)
        w = random_skew(n, rng)
        v = op.apply(w)
        lhs = pr(tot.apply(v)) + (v - pr(v))
        rhs = v + D * pr(w)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_stiefel_determinant_factorization():
    # det(I + D pr_D) = det(I_tot restricted to D_r) * det(I)
    rng = rng_for(52)
    for n, r in ((4, 1), (4, 2), (5, 2)):
        a, D = chaplygin_params(n, rng)
        op = InertiaOperator.wedge_products_chaplygin(a, D)
        tot = stiefel_total_inertia(a, D)
        U = random_stiefel(n, r, rng)
        N = wedge_dim(n)
        P = D * dr_projector_matrix(U @ U.T)
        lhs = np.linalg.det(op.dense_matrix + P)
        # orthonormal basis of D_r from the projector's range
        Pm = P / D
        vals, vecs = np.linalg.eigh(Pm)
        span = vecs[:, vals > 0.5].T
        rhs = np.linalg.det(span @ tot.apply_coords(span).T) * np.exp(op.logdet())
        assert abs(lhs - rhs) < 1e-10 * abs(rhs)


def test_stiefel_field_and_round_trip():
    rng = rng_for(53)
    n, r = 4, 2
    a, D = chaplygin_params(n, rng)
    op = InertiaOperator.wedge_products_chaplygin(a, D)
    chart = LPRStiefelChart(a, D, r, 0.5)
    x = random_lpr_stiefel_state(n, r, rng)
    kc, U = chart._split(x)
    k_bold = from_wedge(kc, n)
    w = from_wedge(_stiefel_velocity(kc, U, op, D)[0], n)
    _, pr = gamma_projector(U)
    assert np.max(np.abs(op.apply(w) + D * pr(w) - k_bold)) < 1e-11
    dkc, dU = field_blocks(chart, x)
    dk, dU = from_wedge(dkc, n), dU.reshape(n, r)
    assert np.max(np.abs(dk - commutator(k_bold, w))) < 1e-12
    assert np.max(np.abs(dU + 0.5 * (w @ U))) < 1e-12


def test_stiefel_density_manual_formula():
    rng = rng_for(54)
    n, r = 5, 2
    a, D = chaplygin_params(n, rng)
    chart = LPRStiefelChart(a, D, r, eps=0.5)
    x = random_lpr_stiefel_state(n, r, rng)
    P = pluecker(chart._split(x)[1])
    base = 0.0
    for idx, I in enumerate(pluecker_indices(n, r)):
        base += P[idx] ** 2 / np.prod(a[list(I)])
    expect = -0.5 * (n - r - 1) * np.log(base)
    got = chart.log_density(x)
    assert got == pytest.approx(expect, abs=1e-13)
    assert np.exp(got) == pytest.approx(np.exp(expect), rel=1e-13)


def test_stiefel_transport_certifies_density():
    rng = rng_for(55)
    n, r = 4, 2
    a, D = chaplygin_params(n, rng)
    chart = LPRStiefelChart(a, D, r, eps=0.5)
    st = random_lpr_stiefel_state(n, r, rng)
    res = tangent_volume_transport(
        chart.field,
        chart.log_density,
        chart.flatten(st),
        chart.constraints,
        IntegratorConfig(t_end=5.0),
    )
    assert res.max_abs_residual < 1e-8


def test_stiefel_energy_conserved():
    rng = rng_for(56)
    n, r = 4, 2
    a, D = chaplygin_params(n, rng)
    st = random_lpr_stiefel_state(n, r, rng)
    for eps in (-1.0, 0.5, 2.0):
        chart = LPRStiefelChart(a, D, r, eps=eps)
        traj = integrate(chart.field, chart.flatten(st), IntegratorConfig(t_end=5.0, samples=11))
        H = [chart.integrals(c)["H"] for c in traj.states]
        assert np.max(np.abs(np.array(H) - H[0])) < 1e-9 * max(1.0, abs(H[0]))


def test_chaplygin_ball_is_the_so3_case():
    ball = ball3d.random_ball_state(rng_for(57), inertia=[1.0, 2.0, 3.0], D=1.0, eps=0.5)
    ball_chart = ball3d.ChaplyginChart(ball.inertia, ball.D, ball.eps)
    x = ball_chart.flatten(ball)
    chart, y, _ = ball3d.elpr_partner(ball_chart, x)
    wc, Pi = chart._split(y)
    # the lift keeps k: row gives the ball's k, _k_coords the lifted k_bold
    k = ball_chart.row(x)[:3]
    assert np.max(np.abs(_k_coords(wc, Pi, chart.op) - to_wedge(hat(k)))) < 1e-12
    # the general flow's k_bold' is the ball's k' = k x w
    dwc, dPi = chart._split(chart.field(y))
    dk = from_wedge(k_rate(wc, Pi, dwc, dPi, chart.op), 3)
    assert np.max(np.abs(unhat(dk) - np.cross(k, ball.omega))) < 1e-12
    # density: sqrt(det(I + D)(1 - D (g, (I+D)^{-1} g))) in closed form
    expect = ball3d.densities_3d(ball, "chaplygin")
    assert np.exp(chart.log_density(y)) == pytest.approx(expect, rel=1e-12)
