"""Moving-frame flow on so(n) x V_{n,r} and its Pluecker-coordinate density."""

from itertools import combinations

import numpy as np
import pytest

from conftest import (
    ball_momentum_rate,
    complete_columns,
    field_blocks,
    gamma_projector,
    random_skew,
    random_spd_operator,
    rng_for,
)
from nonholo import ball3d
from nonholo.elr import MomentumChart
from nonholo.errors import ParameterError, UnsupportedSpecError
from nonholo.liealg import (
    InertiaOperator,
    dr_projector_matrix,
    from_wedge,
    hat,
    inner_product,
    random_stiefel,
    to_wedge,
    wedge_dim,
)
from nonholo.numerics import IntegratorConfig, integrate, pointwise, tangent_volume_transport
from nonholo.veselova import (
    VeselovaChart,
    _velocity,
    pluecker,
    pluecker_indices,
    random_veselova_state,
)


def m_from_omega(omega, U, op):
    """Transfer w -> w + pr(I w - w) applied directly."""
    _, pr = gamma_projector(U)
    return omega + pr(op.apply(omega) - omega)


def log_density(x, r, op, eps):
    return VeselovaChart(op, r, eps).log_density(x)


# ---------------------------------------------------------------------------
# the moving-subspace projector


def test_projector_idempotent_and_self_adjoint():
    rng = rng_for(1)
    U = random_stiefel(5, 2, rng)
    _, pr = gamma_projector(U)
    eta, xi = random_skew(5, rng), random_skew(5, rng)
    assert np.max(np.abs(pr(pr(eta)) - pr(eta))) < 1e-13
    assert inner_product(pr(eta), xi) == pytest.approx(inner_product(eta, pr(xi)), abs=1e-12)


def test_projector_full_frame_is_identity():
    rng = rng_for(2)
    U = complete_columns(random_stiefel(4, 4 - 1, rng))  # square orthogonal
    _, pr = gamma_projector(U)
    eta = random_skew(4, rng)
    assert np.max(np.abs(pr(eta) - eta)) < 1e-13


def test_projector_rank_counts_constraints():
    # dim D_r = N - C(n-r, 2): only the block fixing the complement drops out
    rng = rng_for(3)
    for n, r in ((4, 1), (4, 2), (5, 2)):
        U = random_stiefel(n, r, rng)
        _, pr = gamma_projector(U)
        basis = np.eye(wedge_dim(n))
        cols = np.array([to_wedge(pr(from_wedge(c, n))) for c in basis]).T
        expect = wedge_dim(n) - wedge_dim(n - r) if n - r >= 2 else wedge_dim(n)
        assert np.linalg.matrix_rank(cols, tol=1e-10) == expect


def test_momentum_transfer_round_trip():
    rng = rng_for(4)
    for n, r in ((3, 1), (4, 2), (5, 3)):
        op = random_spd_operator(n, rng)
        U = random_stiefel(n, r, rng)
        w = random_skew(n, rng)
        mc = to_wedge(m_from_omega(w, U, op))
        assert np.max(np.abs(from_wedge(_velocity(mc, U, op)[0], n) - w)) < 1e-11


def test_field_preserves_orthonormality_analytically():
    x = random_veselova_state(5, 2, rng_for(5))
    op = random_spd_operator(5, rng_for(6))
    chart = VeselovaChart(op, 2, 0.7)
    _, dU = field_blocks(chart, x)
    dU = dU.reshape(5, 2)
    U = chart._split(x)[1]
    sym = dU.T @ U + U.T @ dU
    assert np.max(np.abs(sym)) < 1e-13


def test_orthonormality_holds_along_flow():
    op = InertiaOperator.wedge_products([0.6, 1.0, 1.5, 2.1])
    chart = VeselovaChart(op, r=2, eps=2.0)
    st = random_veselova_state(4, 2, rng_for(7))
    traj = integrate(chart.field, chart.flatten(st), IntegratorConfig(t_end=5.0, samples=11))
    worst = 0.0
    for c in traj.states:
        U = chart._split(c)[1]
        worst = max(worst, float(np.max(np.abs(U.T @ U - np.eye(2)))))
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# Pluecker coordinates and the density


def test_pluecker_indices_and_unit_norm():
    assert pluecker_indices(4, 2) == list(combinations(range(4), 2))
    rng = rng_for(8)
    for n, r in ((4, 2), (5, 2), (5, 3)):
        P = pluecker(random_stiefel(n, r, rng))
        assert float(P @ P) == pytest.approx(1.0, abs=1e-12)  # Cauchy-Binet


def test_density_manual_formula():
    rng = rng_for(9)
    n, r, eps = 5, 2, 0.5
    a = rng.uniform(0.5, 2.0, size=n)
    x = random_veselova_state(n, r, rng)
    op = InertiaOperator.wedge_products(a)
    U = VeselovaChart(op, r, eps)._split(x)[1]
    base = 0.0
    for I in combinations(range(n), r):
        minor = np.linalg.det(U[list(I), :])
        base += np.prod(a[list(I)]) * minor**2
    expect = (1.0 / (2.0 * eps) - 1.0) * (n - r - 1) * np.log(base)
    assert log_density(x, r, op, eps) == pytest.approx(expect, abs=1e-13)


def test_density_trivial_cases():
    rng = rng_for(10)
    # all a_i equal: sum of squared minors is 1, density is constant
    x = random_veselova_state(5, 2, rng)
    ones = InertiaOperator.wedge_products(np.ones(5))
    assert np.exp(log_density(x, 2, ones, 2.0)) == pytest.approx(1.0, abs=1e-12)
    # r = n - 1 kills the exponent outright
    x2 = random_veselova_state(4, 3, rng)
    op = InertiaOperator.wedge_products(rng.uniform(0.5, 2.0, size=4))
    assert log_density(x2, 3, op, 2.0) == 0.0


def test_density_input_validation():
    x = random_veselova_state(4, 2, rng_for(11))
    with pytest.raises(UnsupportedSpecError):
        log_density(x, 2, random_spd_operator(4, rng_for(12)), 1.0)
    with pytest.raises(ParameterError):
        log_density(x, 2, InertiaOperator.wedge_products(np.ones(4)), 0.0)


def test_volume_transport_certifies_density():
    op = InertiaOperator.wedge_products([0.6, 1.0, 1.5, 2.1])
    chart = VeselovaChart(op, r=2, eps=0.5)
    st = random_veselova_state(4, 2, rng_for(13))
    res = tangent_volume_transport(
        chart.field,
        chart.log_density,
        chart.flatten(st),
        chart.constraints,
        IntegratorConfig(t_end=5.0),
    )
    assert res.max_abs_residual < 1e-8


# ---------------------------------------------------------------------------
# conserved quantities of the extended frame flow


def augmented_field(op, eps, n, r):
    """(m, U, V) with V a full orthogonal frame carried by dV = -eps w V.

    Uses the raw kernel: integrator trial stages sit slightly off the
    manifold, so no state validation may run inside the field.
    """
    N = wedge_dim(n)
    chart = VeselovaChart(op, r, eps)

    def field(y):
        rates, (_, _, wc, _) = chart._rates(y[: N + n * r])
        w = from_wedge(wc, n)
        V = y[N + n * r :].reshape(n, n)
        return np.concatenate([rates, (-eps * w @ V).ravel()])

    return field


def block_invariant(y, op, n, r):
    N = wedge_dim(n)
    w = from_wedge(_velocity(y[:N], y[N : N + n * r].reshape(n, r), op)[0], n)
    V = y[N + n * r :].reshape(n, n)
    return (V.T @ w @ V)[r:, r:]


def test_trailing_block_of_frame_velocity_is_conserved():
    n, r = 4, 2
    rng = rng_for(14)
    op = random_spd_operator(n, rng)
    x = random_veselova_state(n, r, rng)
    V = complete_columns(x[wedge_dim(n) :].reshape(n, r))
    y0 = np.concatenate([x, V.ravel()])
    for eps in (0.5, 2.0):
        traj = integrate(
            pointwise(augmented_field(op, eps, n, r)), y0,
            IntegratorConfig(t_end=5.0, samples=11),
        )
        blocks = np.array([block_invariant(y, op, n, r) for y in traj.states])
        assert np.max(np.abs(blocks - blocks[0])) < 1e-9


def test_energy_conserved_on_zero_block_level():
    # when the trailing block vanishes the kinetic energy is a first integral
    n, r, eps = 4, 2, 2.0
    rng = rng_for(15)
    op = random_spd_operator(n, rng)
    U = random_stiefel(n, r, rng)
    V = complete_columns(U)
    A = random_skew(n, rng)
    A[r:, r:] = 0.0
    w = V @ A @ V.T
    x = np.concatenate([to_wedge(m_from_omega(w, U, op)), U.ravel()])
    assert np.max(np.abs(block_invariant(np.concatenate([x, V.ravel()]), op, n, r))) < 1e-13
    chart = VeselovaChart(op, r=r, eps=eps)
    traj = integrate(chart.field, x, IntegratorConfig(t_end=5.0, samples=11))
    H = chart.integrals(traj.states)["H"]
    assert np.max(np.abs(H - H[0])) < 1e-9 * abs(H[0])


def test_rubber_ball_is_the_r1_so3_case():
    ball = ball3d.random_ball_state(rng_for(16), inertia=[1.0, 2.0, 3.0], D=0.5, eps=0.7)
    # (in the (m, gamma) variables; criterion 7 takes the (w, gamma) ones)
    rubber = ball3d.RubberChart(ball.inertia, ball.D, ball.eps)
    x = rubber.flatten(ball)
    chart, lifted, _ = ball3d.veselova_partner(rubber, x)
    f = chart.field(lifted)
    dm, dU = from_wedge(f[:3], 3), f[3:].reshape(3, 1)
    assert np.max(np.abs(dm - hat(ball_momentum_rate(rubber, x)))) < 1e-12
    assert np.max(np.abs(dU[:, 0] - rubber.field(x)[3:])) < 1e-12
    # the shifted so(3) operator falls outside the product-coefficient density
    with pytest.raises(UnsupportedSpecError):
        chart.log_density(lifted)


@pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_momentum_rate_is_the_elr_momentum_form_with_d_r(n, r):
    # a D-frame spanning D_r gives MomentumChart the same momentum rate
    rng = rng_for(70 + 10 * n + r)
    op = random_spd_operator(n, rng)
    x = random_veselova_state(n, r, rng)
    N = wedge_dim(n)
    mc, U = x[:N], x[N:].reshape(n, r)
    evals, evecs = np.linalg.eigh(dr_projector_matrix(U @ U.T))
    fc = evecs[:, evals > 0.5].T
    for eps in (-1.0, 0.5, 2.0):
        ves = VeselovaChart(op, r, eps).field(x)
        mom = MomentumChart(op, N - fc.shape[0], eps).field(np.concatenate([mc, fc.ravel()]))
        assert np.max(np.abs(ves[:N] - mom[:N])) <= 1e-12 * np.max(np.abs(mom[:N]))
