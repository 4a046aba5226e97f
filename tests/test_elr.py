"""Frame-constrained rigid-body flow: multiplier and momentum forms."""

import os

import numpy as np
import pytest

from conftest import commutator, fd_trace, field_blocks, random_spd_operator, rng_for, wedge_basis
from nonholo import ball3d
from nonholo.cli import load_config
from nonholo.elr import (
    MomentumChart,
    MultiplierChart,
    _first_integrals,
    _momentum_velocity,
    momentum_partner,
    random_momentum_state,
    random_multiplier_state,
)
from nonholo.errors import ParameterError, SingularityError
from nonholo.liealg import (
    InertiaOperator,
    from_wedge,
    hat,
    inner_product,
    to_wedge,
)
from nonholo.numerics import (
    IntegratorConfig,
    integrate,
    liouville_residual_ambient,
)


def test_field_preserves_constraints_analytically():
    for n, k, eps in ((3, 1, 0.5), (4, 2, 2.0), (5, 2, -1.0)):
        x = random_multiplier_state(n, k, rng_for(n + k))
        op = random_spd_operator(n, rng_for(7 * n + k))
        chart = MultiplierChart(op, k, eps)
        wc, ec = chart._split(x)
        dwc, dec = field_blocks(chart, x)
        dw, de = from_wedge(dwc, n), from_wedge(dec.reshape(k, -1), n)
        dphi = inner_product(dw, from_wedge(ec, n)) + inner_product(from_wedge(wc, n), de)
        assert np.max(np.abs(dphi)) < 1e-12


def test_constraints_hold_along_integrated_flow():
    # finite-difference d/dt <omega, e_i> along the flow stays at zero
    op = random_spd_operator(4, rng_for(41))
    chart = MultiplierChart(op, k=2, eps=0.5)
    st = random_multiplier_state(4, 2, rng_for(42))
    cfg = IntegratorConfig(t_end=2.0, samples=9)
    traj = integrate(chart.field, chart.flatten(st), cfg)
    obs = chart.integrals(traj.states)
    phis = np.stack([obs["phi1"], obs["phi2"]], axis=-1)
    assert np.max(np.abs(phis - phis[0])) < 1e-8


def test_multipliers_reproduce_momentum_equation():
    # I w' - [m, w] is a constraint force sum_i lam^i e_i, with the lam^i of
    # the module docstring
    x = random_multiplier_state(4, 2, rng_for(3))
    op = random_spd_operator(4, rng_for(4))
    chart = MultiplierChart(op, 2, 1.3)
    dwc, _ = field_blocks(chart, x)
    dw = from_wedge(dwc, 4)
    wc, ec = chart._split(x)
    omega, E = from_wedge(wc, 4), from_wedge(ec, 4)
    m = op.apply(omega)
    residual = op.apply(dw) - commutator(m, omega)
    es = np.stack([op.solve(e) for e in E])
    A = np.array([[inner_product(ei, fj) for fj in es] for ei in E])
    b = np.array([inner_product(e, op.solve(commutator(m, omega))) for e in E])
    lam = -np.linalg.solve(A, b)
    forced = np.tensordot(lam, E, axes=(0, 0))
    assert np.max(np.abs(residual - forced)) < 1e-11


def test_analytic_divergence_matches_finite_difference():
    for n, k in ((3, 1), (4, 2)):
        st = random_multiplier_state(n, k, rng_for(10 * n + k))
        op = random_spd_operator(n, rng_for(11 * n + k))
        chart = MultiplierChart(op, k=k, eps=1.0)
        x = chart.flatten(st)
        fd = fd_trace(chart.field, x)
        assert fd == pytest.approx(chart.divergence(x), abs=1e-6)


def test_rubber_ball_is_the_k1_so3_case():
    # n = 3, k = 1 with inertia I + D reproduces the hand-coded rubber field
    ball = ball3d.random_ball_state(rng_for(8), inertia=[1.0, 2.0, 3.0], D=0.5, eps=0.7)
    # (in the (m, gamma) variables; criterion 7 takes the (w, gamma) ones)
    rubber = ball3d.RubberChart(ball.inertia, ball.D, ball.eps)
    x = rubber.flatten(ball)
    chart, lifted, _ = ball3d.elr_partner(rubber, x)
    f, fb = chart.field(lifted), rubber.field(x)
    dw, de = from_wedge(f[:3], 3), from_wedge(f[3:].reshape(1, -1), 3)
    assert np.max(np.abs(dw - hat(fb[:3] / ball.total_inertia))) < 1e-12
    assert np.max(np.abs(de[0] - hat(fb[3:]))) < 1e-12


# ---------------------------------------------------------------------------
# densities


def density(x, k, op, eps):
    return np.exp(MultiplierChart(op, k, eps).log_density(x))


def test_multiplier_density_frozen_example():
    # single constraint e = E1^E2, products inertia a = (1, 2, 3):
    # det <e, I^{-1} e> = 1/(a1 a2) = 1/2, so the eps = 1 density is sqrt(1/2)
    op = InertiaOperator.wedge_products([1.0, 2.0, 3.0])
    x = np.concatenate([[0.2, -0.4, 0.9], to_wedge(wedge_basis(3)[0])])
    assert density(x, 1, op, 1.0) == pytest.approx(0.5**0.5, rel=1e-14)
    assert density(x, 1, op, 0.5) == pytest.approx(0.5, rel=1e-14)
    assert density(x, 1, op, -1.0) == pytest.approx(0.5**-0.5, rel=1e-14)


def test_density_reduces_to_sqrt_gram_at_eps_one():
    rng = rng_for(12)
    for _ in range(5):
        x = random_multiplier_state(4, 2, rng)
        op = random_spd_operator(4, rng)
        ec = MultiplierChart(op, 2, 1.0)._split(x)[1]
        expect = np.sqrt(np.linalg.det(ec @ op.solve_coords(ec).T))
        assert abs(density(x, 2, op, 1.0) - expect) < 1e-12 * expect


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
        x = random_multiplier_state(n, k, rng)
        op = random_spd_operator(n, rng)
        chart = MultiplierChart(op, k, 1.0)
        mom, y, _ = momentum_partner(chart, x)
        assert np.max(np.abs(mom.velocity(y) - chart._split(x)[0])) < 1e-11


def test_momentum_partner_completes_the_frame_and_projects_the_momentum():
    # the D rows are an orthonormal basis of the complement of the H rows,
    # and m_bold = pr_D I w + pr_H w, with each projector summed over its
    # frame's elements in matrix form
    rng = rng_for(37)
    for n, k in ((3, 1), (4, 2), (5, 3)):
        x = random_multiplier_state(n, k, rng)
        op = random_spd_operator(n, rng)
        chart = MultiplierChart(op, k, 0.5)
        mom, y, _ = momentum_partner(chart, x)
        wc, ec = chart._split(x)
        mc, fc = mom._split(y)
        assert fc.shape == (chart.N - k, chart.N)
        assert np.max(np.abs(fc @ fc.T - np.eye(chart.N - k))) <= 1e-12
        assert np.max(np.abs(fc @ ec.T)) <= 1e-12
        w, Iw = from_wedge(wc, n), op.apply(from_wedge(wc, n))

        def pr(rows, v):
            elems = from_wedge(rows, n)
            return sum(inner_product(e, v) * e for e in elems)

        assert np.max(np.abs(from_wedge(mc, n) - pr(fc, Iw) - pr(ec, w))) <= 1e-12


@pytest.mark.parametrize(
    "rows",
    [[[2.0, 0, 0, 0, 0, 0], [0, 2.0, 0, 0, 0, 0]],  # orthogonal, not unit
     [[1.0, 0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]],  # dependent
     [[1.0, 0, 0, 0, 0, 0], [1e-9, 1.0, 0, 0, 0, 0]]],  # off by 1e-9
    ids=["not_unit", "dependent", "skewed"],
)
def test_momentum_partner_refuses_a_frame_that_is_not_orthonormal(rows):
    chart = MultiplierChart(InertiaOperator.identity(4), 2, 0.5)
    with pytest.raises(ParameterError, match="orthonormal"):
        momentum_partner(chart, np.concatenate([np.full(6, 0.1), np.ravel(rows)]))


def test_momentum_field_preserves_frame_orthonormality():
    x = random_momentum_state(4, 2, rng_for(33))
    op = random_spd_operator(4, rng_for(34))
    chart = MomentumChart(op, 2, 0.5)
    _, dfc = field_blocks(chart, x)
    df = from_wedge(dfc.reshape(chart.p, -1), 4)
    g = inner_product(df[:, None], from_wedge(chart._split(x)[1], 4)[None, :])
    assert np.max(np.abs(g + g.T)) < 1e-12


def test_forms_trace_the_same_omega_trajectories():
    op = random_spd_operator(4, rng_for(35))
    st = random_multiplier_state(4, 2, rng_for(36))
    cfg = IntegratorConfig(t_end=5.0, samples=11)
    mult_chart = MultiplierChart(op, k=2, eps=0.5)
    x = mult_chart.flatten(st)
    mom_chart, y, _ = momentum_partner(mult_chart, x)
    tr1 = integrate(mult_chart.field, x, cfg)
    tr2 = integrate(mom_chart.field, y, cfg)
    dev = np.abs(mult_chart._split(tr1.states)[0] - mom_chart.velocity(tr2.states))
    assert np.max(dev) < 1e-8


# ---------------------------------------------------------------------------
# first integrals


def test_phi_conserved_for_all_eps():
    op = random_spd_operator(4, rng_for(51))
    st = random_multiplier_state(4, 2, rng_for(52))
    cfg = IntegratorConfig(t_end=10.0, samples=21)
    for eps in (-1.0, 0.5, 1.0, 2.0):
        chart = MultiplierChart(op, k=2, eps=eps)
        traj = integrate(chart.field, chart.flatten(st), cfg)
        obs = chart.integrals(traj.states)
        phis = np.stack([obs["phi1"], obs["phi2"]], axis=-1)
        assert np.max(np.abs(phis - phis[0])) < 1e-8


def test_energy_conserved_on_zero_constant_level():
    op = random_spd_operator(4, rng_for(53))
    x = random_multiplier_state(4, 2, rng_for(54), zero_constants=True)
    chart = MultiplierChart(op, k=2, eps=2.0)
    first = chart.integrals(x)
    assert max(abs(first["phi1"]), abs(first["phi2"])) < 1e-12
    traj = integrate(chart.field, x, IntegratorConfig(t_end=10.0, samples=21))
    H = chart.integrals(traj.states)["H"]
    assert np.max(np.abs(H - H[0])) < 1e-8


def test_modified_energy_conserved_only_at_eps_one():
    op = random_spd_operator(4, rng_for(55))
    st = random_multiplier_state(4, 2, rng_for(56))
    cfg = IntegratorConfig(t_end=10.0, samples=21)

    def f_drift(eps):
        chart = MultiplierChart(op, k=2, eps=eps)
        traj = integrate(chart.field, chart.flatten(st), cfg)
        F = chart.integrals(traj.states)["F"]
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
    # the first-integral kernel behind integrals, past its dependence check
    with pytest.raises(SingularityError, match="singular"):
        _first_integrals(*chart._split(coords), op)


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


def test_integrals_keep_their_bits_across_memory_layouts():
    # F sums its projection over the k frame rows in a fixed order; as a
    # small BLAS product it rounded differently for a Fortran-ordered copy
    rc = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "elr_multiplier.json"))
    chart = rc.chart
    x0 = chart.random_coords(rng_for(3))
    states = integrate(chart.field, x0, rc.integrator).states
    ref = chart.integrals(states)
    copies = [np.asfortranarray(states), np.repeat(states, 2, axis=0)[::2]]
    for offset in range(1, 8):
        copy = np.empty(states.size + 8)[offset : offset + states.size].reshape(states.shape)
        copy[...] = states
        copies.append(copy)
    for copy in copies:
        for name, value in chart.integrals(copy).items():
            assert np.array_equal(value, ref[name]), name


def test_a_singular_momentum_map_raises_singularity_error():
    # Jm = Id + P (I - Id) vanishes for I = 2 Id and P = -Id: no orthonormal
    # frame gives such a P, but a stage point far from one can make Jm singular
    op = InertiaOperator.wedge_diagonal(4, np.full(6, 2.0))
    P = np.stack([np.eye(6), -np.eye(6)])  # one row of the batch singular
    with pytest.raises(SingularityError, match="singular matrix"):
        _momentum_velocity(np.ones((2, 6)), P, op)
