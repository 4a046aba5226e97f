"""Integrators, finite-difference calculus, and tangent-volume transport."""

import glob
import os

import numpy as np
import pytest

from conftest import rng_for
from nonholo import numerics
from nonholo.ball3d import ChaplyginChart, random_ball_state
from nonholo.cli import SYSTEMS, load_config
from nonholo.errors import (
    ConstraintDriftError,
    DimensionError,
    IntegrationAbort,
    ParameterError,
    StiffnessError,
)
from nonholo.liealg import InertiaOperator, to_wedge
from nonholo.numerics import (
    IntegratorConfig,
    constraint_tangent_basis,
    divergence,
    fd_gradient,
    fd_jacobian,
    integrate,
    liouville_residual_ambient,
    polar_orthonormalize,
    rk4_step,
    skew_symmetrize,
    tangent_volume_transport,
)
from nonholo.veselova import VeselovaChart, random_veselova_state

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
CONFIG_IDS = [os.path.basename(p)[: -len(".json")] for p in CONFIGS]
CONSTRAINED_IDS = [i for i in CONFIG_IDS if SYSTEMS[i].constraints is not None]

# ---------------------------------------------------------------------------
# steppers


def test_rk4_frozen_polynomial_value():
    # one RK4 step of x' = x from 1 with dt = 0.1: the degree-4 Taylor value
    x = rk4_step(lambda x: x, np.array([1.0]), 0.1)
    assert float(x[0]) == 1.1051708333333333


def test_rk4_preserves_rotation_norm_per_step():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    x = np.array([1.0, 0.0])
    dt = 1e-2
    y = rk4_step(lambda v: A @ v, x, dt)
    assert abs(np.linalg.norm(y) - 1.0) < dt**5


def test_rk4_fixed_fourth_order_convergence():
    f = lambda x: np.array([np.sin(x[0]) + 0.5 * x[0]])
    x0 = np.array([0.3])

    def endpoint(dt):
        cfg = IntegratorConfig(method="rk4_fixed", dt=dt, t_end=1.0, samples=2)
        return integrate(f, x0, cfg).states[-1, 0]

    ref = endpoint(1e-4)
    e1, e2 = abs(endpoint(0.02) - ref), abs(endpoint(0.01) - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_adaptive_euler_top_conserves_energy_and_norm():
    op = InertiaOperator.wedge_products([1.0, 1.3, 2.1])
    M = op.matrix

    def f(kc):
        wc = np.linalg.solve(M, kc)
        # so(3) bracket in wedge coordinates via the cross-product model
        u = np.array([-kc[2], kc[1], -kc[0]])
        v = np.array([-wc[2], wc[1], -wc[0]])
        c = np.cross(u, v)
        return np.array([-c[2], c[1], -c[0]])

    k0 = np.array([0.4, -0.7, 1.1])
    cfg = IntegratorConfig(t_end=10.0, abs_tol=1e-10, rel_tol=1e-10, samples=41)
    traj = integrate(f, k0, cfg)
    H = np.array([0.5 * kc @ np.linalg.solve(M, kc) for kc in traj.states])
    nrm = np.linalg.norm(traj.states, axis=1)
    assert np.max(np.abs(H - H[0])) < 1e-9
    assert np.max(np.abs(nrm - nrm[0])) < 1e-9
    assert np.allclose(traj.times, np.linspace(0.0, 10.0, 41), atol=1e-12)


def test_adaptive_matches_analytic_exponential():
    cfg = IntegratorConfig(t_end=2.0, abs_tol=1e-12, rel_tol=1e-12, samples=5)
    traj = integrate(lambda x: -x, np.array([3.0]), cfg)
    assert np.allclose(traj.states[:, 0], 3.0 * np.exp(-traj.times), atol=1e-9)


def test_integrator_config_validation_and_sampling():
    with pytest.raises(ParameterError):
        IntegratorConfig(method="leapfrog")
    with pytest.raises(ParameterError):
        IntegratorConfig(method="rk4_fixed")  # dt required
    with pytest.raises(ParameterError):
        IntegratorConfig(t_end=-1.0)
    assert IntegratorConfig(t_end=0.0).sample_times().tolist() == [0.0]
    assert IntegratorConfig(samples=1).sample_times().tolist() == [0.0]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["t_end", "abs_tol", "rel_tol", "dt"])
def test_integrator_config_rejects_non_finite_values(name, value):
    kwargs = {"method": "rk4_fixed", "dt": 0.1} if name != "dt" else {"method": "rk4_fixed"}
    with pytest.raises(ParameterError, match=name):
        IntegratorConfig(**kwargs, **{name: value})


def test_rk4_fixed_aborts_on_non_finite_state():
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.5, t_end=10.0, samples=3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationAbort, match="non-finite state") as info:
            integrate(lambda x: x**2, np.array([1.0]), cfg)
    assert 0.0 < info.value.t < 10.0


def test_stiffness_abort_on_blowup():
    with pytest.raises(StiffnessError):
        integrate(
            lambda x: x**2,
            np.array([1.0]),
            IntegratorConfig(t_end=2.0, samples=3),
        )


def fsal_identity(stats):
    return stats.evaluations == 1 + 12 * (stats.accepted + stats.rejected) + stats.fsal_resets


def test_integrate_stats_satisfy_fsal_identity():
    cfg = IntegratorConfig(t_end=3.0, abs_tol=1e-10, rel_tol=1e-10, samples=7)
    calls = [0]

    def f(x):
        calls[0] += 1
        return np.array([-x[1], x[0] * (1.0 + x[0] ** 2)])

    stats = integrate(f, np.array([1.0, 0.0]), cfg).stats
    assert stats.evaluations == calls[0]
    assert stats.accepted > 0 and stats.fsal_resets == 0
    assert fsal_identity(stats)
    assert 0.0 < stats.h_min <= stats.h_max <= cfg.t_end
    assert stats.h_min < stats.h_max
    fixed = IntegratorConfig(method="rk4_fixed", dt=0.25, t_end=1.0, samples=3)
    stats = integrate(f, np.array([1.0, 0.0]), fixed).stats
    assert stats.h_min == stats.h_max == 0.25
    # renormalizing after every step drops the FSAL value each time
    cfg = IntegratorConfig(t_end=1.0, samples=5, renormalize_every=1)
    stats = integrate(
        lambda x: np.array([-x[1], x[0]]),
        np.array([1.0, 0.0]),
        cfg,
        renormalize_fn=lambda x: x / np.linalg.norm(x),
    ).stats
    assert stats.fsal_resets == stats.accepted - 1
    assert fsal_identity(stats)


def test_integrate_ensemble_of_members_matches_serial():
    cfg = IntegratorConfig(t_end=2.0, samples=5)
    for system in ("elr_multiplier", "ball_rubber"):
        run = load_config(CONFIGS[CONFIG_IDS.index(system)])
        x0 = np.array([run.initial_coords(seed) for seed in (1, 2, 3)])
        ens = integrate(run.chart.field, x0, cfg)
        assert ens.states.shape == (cfg.samples,) + x0.shape
        assert fsal_identity(ens.stats)
        for i, x in enumerate(x0):
            serial = integrate(run.chart.field, x, cfg).states
            # one shared step sequence: equal up to the integrator error
            scale = np.max(np.abs(serial))
            assert np.max(np.abs(ens.states[:, i] - serial)) <= 1e-8 * scale


def test_non_finite_field_aborts_at_first_step():
    calls = [0]

    def f(x):
        calls[0] += 1
        return np.full_like(x, np.nan)

    with pytest.raises(IntegrationAbort) as info:
        integrate(f, np.array([1.0, 2.0]), IntegratorConfig(t_end=1.0, samples=3))
    assert calls[0] == 1 and info.value.t == 0.0
    assert "non-finite" in str(info.value.cause)


def test_documented_method_name_is_accepted():
    cfg = IntegratorConfig(method="dp45", t_end=2.0, abs_tol=1e-12, rel_tol=1e-12, samples=5)
    ref = IntegratorConfig(t_end=2.0, abs_tol=1e-12, rel_tol=1e-12, samples=5)
    a = integrate(lambda x: -x, np.array([3.0]), cfg)
    b = integrate(lambda x: -x, np.array([3.0]), ref)
    assert np.array_equal(a.states, b.states)


# stage times c_i = sum_j a_ij, from Hairer's dop853.f
DOP853_C = [
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
]


def test_dop853_coefficient_identities():
    A, B = numerics._DOP853_A, numerics._DOP853_B
    assert len(A) == B.size == len(DOP853_C) == 13
    for i, row in enumerate(A):
        assert row.shape == (i,)
        assert abs(row.sum() - DOP853_C[i]) < 2e-15
    # the last stage is the field at the new point (FSAL)
    assert np.array_equal(A[-1], B[:-1]) and B[-1] == 0.0
    assert abs(B.sum() - 1.0) < 1e-15
    for weights in (numerics._DOP853_E5, numerics._DOP853_E3):
        assert weights.shape == B.shape and abs(weights.sum()) < 1e-15


def test_dop853_integrates_a_degree_seven_polynomial_exactly():
    # (t, x) with t' = 1, x' = t^p: x(1) = 1 / (p + 1).  An order-8 pair is
    # exact for p = 7 at any step size, not for p = 8.
    cfg = IntegratorConfig(t_end=1.0, samples=2, abs_tol=1e-6, rel_tol=1e-6)
    err = {}
    for p in (7, 8):
        field = lambda y: np.stack([np.ones_like(y[..., 0]), y[..., 0] ** p], axis=-1)
        end = integrate(field, np.zeros(2), cfg).states[-1]
        err[p] = np.max(np.abs(end - [1.0, 1.0 / (p + 1)]))
    assert err[7] < 1e-15
    assert err[8] > 1e-12


def test_observers_and_renormalization():
    cfg = IntegratorConfig(t_end=1.0, samples=5, renormalize_every=1)
    traj = integrate(
        lambda x: np.array([-x[1], x[0]]),
        np.array([1.0, 0.0]),
        cfg,
        renormalize_fn=lambda x: x / np.linalg.norm(x),
    )
    assert np.max(np.abs(np.linalg.norm(traj.states, axis=-1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# finite-difference calculus


def test_fd_jacobian_linear_exact():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    x = rng.standard_normal(5)
    J = fd_jacobian(numerics.pointwise(lambda v: A @ v), x)
    assert np.max(np.abs(J - A)) < 1e-9


def test_fd_jacobian_nonlinear_oracle():
    @numerics.pointwise
    def f(v):
        return np.array([np.sin(v[0]) * v[1], v[0] ** 2 + np.cos(v[1])])

    x = np.array([0.7, -0.4])
    J = fd_jacobian(f, x)
    expect = np.array(
        [
            [np.cos(x[0]) * x[1], np.sin(x[0])],
            [2 * x[0], -np.sin(x[1])],
        ]
    )
    assert np.max(np.abs(J - expect)) < 1e-8


def test_fd_jacobian_broadcasts_over_leading_dimensions():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 3))
    f = lambda v: np.sin(v) @ A.T
    xs = rng.standard_normal((2, 4, 3))
    J = fd_jacobian(f, xs)
    assert J.shape == (2, 4, 3, 3)
    for i in range(2):
        for j in range(4):
            assert np.array_equal(J[i, j], fd_jacobian(f, xs[i, j]))


def test_fd_gradient_quadratic_halving():
    f = numerics.pointwise(lambda v: float(v @ v) + np.sin(v[0]))
    x = np.array([0.3, -1.2, 0.8])
    expect = 2 * x + np.array([np.cos(x[0]), 0.0, 0.0])
    g1 = fd_gradient(f, x, h_scale=1e-4)
    g2 = fd_gradient(f, x, h_scale=5e-5)
    # central differences: error O(h^2), so halving h shrinks it ~4x
    e1, e2 = np.max(np.abs(g1 - expect)), np.max(np.abs(g2 - expect))
    assert e2 < e1
    assert e1 < 1e-6


def test_fd_gradient_falls_back_row_by_row_for_a_pointwise_function():
    x = np.array([0.3, -1.2, 0.8])
    batched = lambda v: np.sum(v**3, axis=-1)

    def pointwise(v):
        if np.ndim(v) != 1:
            raise ValueError("one point at a time")
        return float(np.sum(v**3))

    g = fd_gradient(batched, x)
    assert np.array_equal(fd_gradient(numerics.pointwise(pointwise), x), g)
    # a one-point function that would sum a whole stencil is adapted the same way
    assert np.array_equal(fd_gradient(numerics.pointwise(lambda v: np.sum(v**3)), x), g)


def test_fd_batched_call_errors_are_not_retried_row_by_row():
    calls = []

    def buggy(v):
        calls.append(np.shape(v))
        raise KeyError("a bug, not a pointwise function")

    with pytest.raises(KeyError):
        fd_jacobian(buggy, np.zeros(3))
    with pytest.raises(KeyError):
        fd_gradient(buggy, np.zeros(3))
    assert calls == [(6, 3), (6, 3)]


def test_a_wrongly_shaped_batched_result_raises_instead_of_a_row_by_row_retry():
    calls = []

    def one_point(v):
        calls.append(np.shape(v))
        return np.sum(v**3)  # one scalar for the whole stencil

    with pytest.raises(DimensionError, match="pointwise"):
        fd_gradient(one_point, np.zeros(3))
    assert calls == [(6, 3)]


def test_pointwise_adapter_maps_leading_axes_row_by_row():
    rows = []

    def f(v):
        rows.append(np.shape(v))
        return np.array([v[0], v[1] * v[2]])

    x = np.arange(24.0).reshape(2, 4, 3)
    out = numerics.pointwise(f)(x)
    assert out.shape == (2, 4, 2) and rows == [(3,)] * 8
    assert np.array_equal(out[1, 2], f(x[1, 2]))
    assert numerics.pointwise(lambda v: float(v @ v))(np.ones(3)).shape == (1,)


def test_divergence_of_linear_field_is_trace():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    x = rng.standard_normal(4)
    assert divergence(numerics.pointwise(lambda v: A @ v), x) == pytest.approx(
        np.trace(A), abs=1e-7
    )


def test_fd_gradient_and_divergence_broadcast_over_a_batch():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 4))
    w = rng.standard_normal(4)
    field = lambda v: np.sin(v) @ A.T
    logmu = lambda v: np.cos(v) @ w + np.sum(v**3, axis=-1)
    xs = rng.standard_normal((5, 4))
    grads, divs = fd_gradient(logmu, xs), divergence(field, xs)
    assert grads.shape == (5, 4) and divs.shape == (5,)
    for x, g, dv in zip(xs, grads, divs):
        assert np.array_equal(g, fd_gradient(logmu, x))
        assert dv == divergence(field, x)


@pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1, 3)])
def test_liouville_residual_takes_one_point(shape):
    field = lambda v: np.stack([-v[..., 1], v[..., 0], v[..., 2]], axis=-1)
    logmu = lambda v: np.sum(v * v, axis=-1)
    with pytest.raises(DimensionError, match="one point"):
        liouville_residual_ambient(field, logmu, np.ones(shape))


def test_max_steps_bounds_every_attempted_step():
    field = lambda x: np.ones_like(x)
    fixed = IntegratorConfig(method="rk4_fixed", dt=0.1, t_end=1.0, samples=2, max_steps=9)
    with pytest.raises(IntegrationAbort, match="max_steps"):
        integrate(field, np.zeros(1), fixed)
    assert integrate(field, np.zeros(1), IntegratorConfig(
        method="rk4_fixed", dt=0.1, t_end=1.0, samples=2, max_steps=10)).stats.accepted == 10
    traj = integrate(lambda x: -50.0 * x, np.ones(2), IntegratorConfig(t_end=1.0, samples=2))
    used = traj.stats.accepted + traj.stats.rejected
    assert traj.stats.rejected > 0
    with pytest.raises(IntegrationAbort, match="max_steps"):
        integrate(lambda x: -50.0 * x, np.ones(2),
                  IntegratorConfig(t_end=1.0, samples=2, max_steps=used - 1))


def test_liouville_residual_closed_forms():
    # rotation field with rotationally invariant density: residual vanishes
    rot = numerics.pointwise(lambda v: np.array([-v[1], v[0]]))
    logmu = numerics.pointwise(lambda v: 0.7 * float(v @ v))
    x = np.array([0.6, -1.1])
    assert abs(liouville_residual_ambient(rot, logmu, x)) < 1e-8
    # constant drift against a linear density: residual is the known slope
    drift = numerics.pointwise(lambda v: np.array([1.0, 0.0]))
    tilted = numerics.pointwise(lambda v: 2.5 * v[0])
    assert liouville_residual_ambient(drift, tilted, x) == pytest.approx(2.5, abs=1e-7)


# ---------------------------------------------------------------------------
# constrained tangent-volume transport


@numerics.pointwise
def sphere_constraints(x):
    return np.array([x @ x - 1.0])


def test_constraint_tangent_basis_on_sphere():
    x = np.array([0.0, 0.6, 0.8])
    V = constraint_tangent_basis(sphere_constraints, x)
    assert V.shape == (3, 2)
    assert np.max(np.abs(x @ V)) < 1e-7
    assert np.allclose(V.T @ V, np.eye(2), atol=1e-10)


def test_transport_rigid_rotation_constant_density():
    a = np.array([0.3, -0.5, 0.8])
    field = lambda x: np.cross(a, x)
    x0 = np.array([1.0, 0.0, 0.0])
    cfg = IntegratorConfig(t_end=5.0, abs_tol=1e-11, rel_tol=1e-11)
    res = tangent_volume_transport(
        field, numerics.pointwise(lambda x: 0.0), x0, sphere_constraints, cfg
    )
    assert res.max_abs_residual < 1e-9
    assert res.times[-1] == pytest.approx(5.0)


def test_transport_residual_invariant_under_density_rescale():
    a = np.array([0.3, -0.5, 0.8])
    field = lambda x: np.cross(a, x)
    x0 = np.array([0.0, 1.0, 0.0])
    cfg = IntegratorConfig(t_end=3.0)
    r1 = tangent_volume_transport(
        field, numerics.pointwise(lambda x: 0.0), x0, sphere_constraints, cfg
    )
    r2 = tangent_volume_transport(
        field, numerics.pointwise(lambda x: 7.0), x0, sphere_constraints, cfg
    )
    assert np.allclose(r1.residual, r2.residual, atol=1e-12)


def test_transport_flags_wrong_density():
    # contraction x' = -x on the plane with a constant density is not invariant
    cfg = IntegratorConfig(t_end=1.0)
    res = tangent_volume_transport(
        lambda x: -x, numerics.pointwise(lambda x: 0.0), np.array([1.0, 0.5]), None, cfg
    )
    assert res.max_abs_residual == pytest.approx(2.0, rel=1e-6)
    # log mu = -2 log|x| grows along the flow exactly as fast as the
    # tangent volume shrinks, restoring invariance
    good = tangent_volume_transport(
        lambda x: -x,
        numerics.pointwise(lambda x: -2.0 * np.log(np.linalg.norm(x))),
        np.array([1.0, 0.5]),
        None,
        cfg,
    )
    assert good.max_abs_residual < 1e-9


def test_transport_aborts_on_constraint_drift():
    # radial escape violates the sphere constraint immediately
    cfg = IntegratorConfig(t_end=1.0)
    with pytest.raises(ConstraintDriftError):
        tangent_volume_transport(
            lambda x: x,
            numerics.pointwise(lambda x: 0.0),
            np.array([1.0, 0.0, 0.0]),
            sphere_constraints,
            cfg,
        )


def test_transport_takes_the_constraint_jacobian_once():
    # the flow keeps V tangent: after the initial stencil, constraints only
    # see the drift check, one call on all members per sample after t = 0
    a = np.array([0.3, -0.5, 0.8])
    calls = []

    def sphere(x):
        calls.append(x.shape)
        return (np.sum(x * x, axis=-1) - 1.0)[..., None]

    x0 = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
    cfg = IntegratorConfig(t_end=1.0)
    results = tangent_volume_transport(
        lambda x: np.cross(a, x), numerics.pointwise(lambda x: 0.0), x0, sphere, cfg, n_samples=5
    )
    assert calls[0] == (3 * 2 * 3, 3)  # the central-difference stencil of every member
    assert len(calls) == 1 + 4
    assert max(r.max_abs_residual for r in results) < 1e-9


def test_pointwise_function_is_read_row_by_row_when_members_equal_dimension():
    # three members in R^3: a pointwise x[0] must not be read as the first row
    logmu = numerics.pointwise(lambda x: 0.1 * x[0])
    x0 = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.array_equal(numerics._eval_rows(logmu, x0), [[0.0], [0.1], [0.0]])
    # rotation about e_1 keeps x[0], so the density is invariant
    field = lambda x: np.cross([1.0, 0.0, 0.0], x)
    cfg = IntegratorConfig(t_end=2.0)
    results = tangent_volume_transport(field, logmu, x0, sphere_constraints, cfg)
    assert [r.log_density[0] for r in results] == [0.0, 0.1, 0.0]
    assert max(r.max_abs_residual for r in results) < 1e-9


def test_transport_stats_satisfy_fsal_identity():
    a = np.array([0.3, -0.5, 0.8])
    field = lambda x: np.cross(a, x)
    cfg = IntegratorConfig(t_end=2.0)
    res = tangent_volume_transport(
        field,
        numerics.pointwise(lambda x: 0.0),
        np.array([0.0, 0.6, 0.8]),
        sphere_constraints,
        cfg,
        n_samples=6,
    )
    assert res.stats.fsal_resets == 4  # after every sample but the last
    assert fsal_identity(res.stats)
    x0 = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
    results = tangent_volume_transport(
        field, numerics.pointwise(lambda x: 0.0), x0, sphere_constraints, cfg
    )
    assert len(results) == 3
    assert all(r.stats is results[0].stats for r in results)
    assert fsal_identity(results[0].stats)
    assert 0.0 < results[0].stats.h_min <= results[0].stats.h_max <= cfg.t_end


def test_transport_stage_is_one_field_call_on_one_plus_two_q_rows_per_member():
    # d = 3 on the sphere leaves q = 2 tangent directions: 5 rows a member, not 1 + 2d = 7
    a = np.array([0.3, -0.5, 0.8])
    rows = []

    def field(x):
        rows.append(x.shape)
        return np.cross(a, x)

    x0 = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
    cfg = IntegratorConfig(t_end=1.0)
    results = tangent_volume_transport(
        field, numerics.pointwise(lambda x: 0.0), x0, sphere_constraints, cfg
    )
    assert rows == [(3 * 5, 3)] * results[0].stats.evaluations


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_directional_jv_matches_the_fd_jacobian_times_v(path):
    chart = load_config(path).chart
    rng = np.random.default_rng(31)
    x = chart.flatten(chart.random_state(rng))
    if chart.constraints is None:
        V = np.linalg.qr(rng.standard_normal((chart.dim, chart.dim)))[0]
    else:
        V = constraint_tangent_basis(chart.constraints, x)
        V = V @ np.linalg.qr(rng.standard_normal((V.shape[1],) * 2))[0]
    fx, JVt = numerics._field_and_jv(chart.field, x[None], V.T[None])
    expect = fd_jacobian(chart.field, x) @ V
    assert np.allclose(fx[0], chart.field(x), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(JVt[0].T - expect)) <= 1e-6 * np.max(np.abs(expect))
    # a zero column of V has a zero derivative, not a 0/0
    zero = np.zeros((1, 1, chart.dim))
    assert np.array_equal(numerics._field_and_jv(chart.field, x[None], zero)[1], zero)


def test_ambient_linear_field_log_volume_is_t_trace():
    A = 0.4 * np.random.default_rng(6).standard_normal((4, 4))
    cfg = IntegratorConfig(t_end=2.0)
    res = tangent_volume_transport(
        lambda x: x @ A.T, numerics.pointwise(lambda x: 0.0), np.ones(4), None, cfg
    )
    assert np.max(np.abs(res.log_tangent_volume - res.times * np.trace(A))) <= 1e-8


def test_transport_single_member_ensemble_is_the_single_transport():
    a = np.array([0.3, -0.5, 0.8])
    field = lambda x: np.cross(a, x)
    logmu = numerics.pointwise(lambda x: 0.1 * x[0])
    x0 = np.array([0.0, 0.6, 0.8])
    cfg = IntegratorConfig(t_end=3.0)
    one = tangent_volume_transport(field, logmu, x0, sphere_constraints, cfg)
    (ens,) = tangent_volume_transport(field, logmu, x0[None], sphere_constraints, cfg)
    for name in ("times", "log_density", "log_tangent_volume", "residual"):
        assert np.array_equal(getattr(one, name), getattr(ens, name))
    assert one.stats == ens.stats


def swirl(x):
    """Planar rotation whose angular speed grows with |x|^2."""
    r2 = np.sum(x**2, axis=-1, keepdims=True)
    return r2 * np.stack([-x[..., 1], x[..., 0]], axis=-1)


def test_ensemble_steps_at_least_as_often_as_its_stiffest_member():
    cfg = IntegratorConfig(t_end=2.0, abs_tol=1e-9, rel_tol=1e-9)
    x0 = np.array([[1.0, 0.0], [0.0, 2.0]])  # the second turns four times faster
    logmu = numerics.pointwise(lambda x: 0.0)
    alone = [tangent_volume_transport(swirl, logmu, x, None, cfg).stats.accepted for x in x0]
    assert alone[1] > alone[0]
    ensemble = tangent_volume_transport(swirl, logmu, x0, None, cfg)
    assert ensemble[0].stats.accepted >= max(alone)


def test_ensemble_split_into_groups_matches_serial(monkeypatch):
    cfg = IntegratorConfig(t_end=1.0)
    x0 = np.array([[1.0, 0.0], [0.0, 2.0], [0.5, 0.5]])
    logmu = numerics.pointwise(lambda x: 0.0)
    serial = [tangent_volume_transport(swirl, logmu, x, None, cfg) for x in x0]
    # a batch bound below one member's stencil transports every seed alone
    monkeypatch.setattr(numerics, "_ENSEMBLE_BATCH_BYTES", 1)
    split = tangent_volume_transport(swirl, logmu, x0, None, cfg)
    for one, member in zip(serial, split):
        assert np.array_equal(one.residual, member.residual)
        assert one.stats == member.stats


def ensemble_cases():
    op = InertiaOperator.wedge_products([0.6, 1.0, 1.5, 2.1])
    ves = VeselovaChart(op, r=1, eps=-1.0)  # eps = 1/2 would make the density constant
    ves_x0 = np.array([ves.flatten(random_veselova_state(4, 1, rng_for(s))) for s in (13, 14, 15)])
    ball_states = [
        random_ball_state(rng_for(s), inertia=[1.0, 2.0, 3.0], D=1.0, eps=0.5) for s in (22, 23, 24)
    ]
    ball = ChaplyginChart(ball_states[0].inertia, 1.0, 0.5)
    ball_x0 = np.array([ball.flatten(st) for st in ball_states])
    return [(ves, ves_x0), (ball, ball_x0)]


@pytest.mark.parametrize("case", range(2), ids=["veselova", "ball_chaplygin"])
def test_ensemble_certifies_every_member_and_flags_wrong_exponent(case):
    chart, x0 = ensemble_cases()[case]
    cfg = IntegratorConfig(t_end=5.0)
    results = tangent_volume_transport(chart.field, chart.log_density, x0, chart.constraints, cfg)
    assert len(results) == 3
    assert max(r.max_abs_residual for r in results) <= 1e-8
    doubled = lambda c: 2.0 * chart.log_density(c)
    controls = tangent_volume_transport(chart.field, doubled, x0, chart.constraints, cfg)
    assert min(r.max_abs_residual for r in controls) > 1e-3


# ---------------------------------------------------------------------------
# renormalization helpers


@pytest.mark.parametrize("system", CONSTRAINED_IDS)
def test_chart_renormalize_restores_the_frame_and_keeps_the_lead_block(system):
    chart = load_config(CONFIGS[CONFIG_IDS.index(system)]).chart
    rng = np.random.default_rng(43)
    x = chart.flatten(chart.random_state(rng))
    frame = chart.frame_index.ravel()
    bent = x.copy()
    bent[frame] += 1e-6 * rng.standard_normal(frame.size)
    assert np.max(np.abs(chart.constraints(bent))) > 1e-8
    fixed = chart.renormalize(bent)
    assert np.max(np.abs(chart.constraints(fixed))) <= 1e-12
    lead = np.setdiff1d(np.arange(chart.dim), frame)
    assert np.array_equal(fixed[lead], bent[lead])
    assert np.max(np.abs(fixed - x)) <= 1e-5  # the nearest frame, not just any
    assert np.array_equal(chart.renormalize(np.stack([x, bent]))[1], fixed)


def test_polar_orthonormalize_nearest_frame():
    rng = np.random.default_rng(5)
    U, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    W = polar_orthonormalize(U + 1e-6 * rng.standard_normal((5, 3)))
    assert np.max(np.abs(W.T @ W - np.eye(3))) < 1e-14
    assert np.max(np.abs(W - U)) < 1e-5


def test_skew_symmetrize():
    M = np.arange(9.0).reshape(3, 3)
    S = skew_symmetrize(M)
    assert np.allclose(S, 0.5 * (M - M.T), atol=1e-15)
    assert np.allclose(S, -S.T, atol=1e-15)
