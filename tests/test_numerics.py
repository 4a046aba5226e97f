"""Integrators, finite-difference calculus, and tangent-volume transport."""

import glob
import os
from dataclasses import replace

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
    SingularityError,
    StiffnessError,
)
from nonholo.liealg import InertiaOperator
from nonholo.numerics import (
    IntegratorConfig,
    constraint_tangent_basis,
    fd_divergence,
    fd_gradient,
    fd_jacobian,
    integrate,
    liouville_residual_ambient,
    tangent_volume_transport,
)
from nonholo.veselova import VeselovaChart, random_veselova_state

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
CONFIG_IDS = [os.path.basename(p)[: -len(".json")] for p in CONFIGS]
CONSTRAINED_IDS = [i for i in CONFIG_IDS if SYSTEMS[i].constraints is not None]

# ---------------------------------------------------------------------------
# integration


def test_adaptive_euler_top_conserves_energy_and_norm():
    op = InertiaOperator.wedge_products([1.0, 1.3, 2.1])
    M = op.dense_matrix

    def f(kc):
        wc = np.linalg.solve(M, kc)
        # so(3) bracket in wedge coordinates via the cross-product model
        u = np.array([-kc[2], kc[1], -kc[0]])
        v = np.array([-wc[2], wc[1], -wc[0]])
        c = np.cross(u, v)
        return np.array([-c[2], c[1], -c[0]])

    k0 = np.array([0.4, -0.7, 1.1])
    cfg = IntegratorConfig(t_end=10.0, abs_tol=1e-10, rel_tol=1e-10, samples=41)
    traj = integrate(numerics.pointwise(f), k0, cfg)
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
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ParameterError, match="^abs_tol must be positive, got 0.0$"):
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ParameterError, match="^rel_tol must be nonnegative, got -1.0$"):
        IntegratorConfig(rel_tol=-1.0)
    assert IntegratorConfig(rel_tol=0.0).rel_tol == 0.0
    assert IntegratorConfig(t_end=0.0).sample_times().tolist() == [0.0]
    assert IntegratorConfig(t_end=0.0, samples=1).sample_times().tolist() == [0.0]
    # one sample at t_end > 0 would be the initial state alone, and a volume
    # transport sampled there alone would pass any density
    with pytest.raises(ParameterError, match="samples"):
        IntegratorConfig(samples=1)
    chart = ChaplyginChart([1.0, 2.0, 3.0], 1.0, 0.5)
    with pytest.raises(ParameterError, match="samples"):
        tangent_volume_transport(
            chart.field, chart.log_density, chart.random_coords(rng_for(1)), chart.constraints,
            n_samples=1, divergence_fn=chart.divergence,
        )


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["t_end", "abs_tol", "rel_tol"])
def test_integrator_config_rejects_non_finite_values(name, value):
    with pytest.raises(ParameterError, match=name):
        IntegratorConfig(**{name: value})


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
        return np.stack([-x[..., 1], x[..., 0] * (1.0 + x[..., 0] ** 2)], axis=-1)

    stats = integrate(f, np.array([1.0, 0.0]), cfg).stats
    assert stats.evaluations == calls[0]
    assert stats.accepted > 0 and stats.fsal_resets == 0
    assert fsal_identity(stats)
    assert 0.0 < stats.h_min <= stats.h_max <= cfg.t_end
    assert stats.h_min < stats.h_max
    # renormalizing after every step drops the FSAL value each time
    cfg = IntegratorConfig(t_end=1.0, samples=5)
    stats = integrate(
        numerics.pointwise(lambda x: np.array([-x[1], x[0]])),
        np.array([1.0, 0.0]),
        cfg,
        renormalize_fn=numerics.pointwise(lambda x: x / np.linalg.norm(x)),
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


def _sample_run(path, **integrator):
    """The field, initial coordinates and integrator of a sample config, the
    integrator with the given settings replaced."""
    run = load_config(path)
    cfg = replace(run.integrator, **integrator)
    return run.chart.field, run.initial_coords(run.seed), cfg


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_sample_times_do_not_set_the_step(path):
    # a sample time is reached by a branch of the step that covers it, so
    # the grid adds at most one step over a run sampled at its ends only
    field, x0, cfg = _sample_run(path, samples=33)
    dense = integrate(field, x0, cfg).stats
    ends = integrate(field, x0, replace(cfg, samples=2)).stats
    assert dense.accepted <= ends.accepted + 1
    assert fsal_identity(dense)


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_every_sample_is_within_the_tolerance_of_a_reference_run(path):
    # the reference ends a step on every sample time, at abs/rel 1e-13
    field, x0, cfg = _sample_run(path, samples=33)
    traj = integrate(field, x0, cfg)
    ref = [x0]
    for dt in np.diff(traj.times):
        step = replace(cfg, t_end=float(dt), samples=2, abs_tol=1e-13, rel_tol=1e-13)
        ref.append(integrate(field, ref[-1], step).states[-1])
    ref = np.array(ref)
    assert np.max(np.abs(traj.states - ref)) <= 1e-8 * np.max(np.abs(ref))


def _rows_counted(field, rows):
    """field, recording the leading rows of each call into rows."""

    def counted(x):
        rows.append(int(np.prod(np.shape(x)[:-1])))
        return field(x)

    return counted


def test_a_dense_sample_grid_keeps_each_field_call_under_the_batch_bound():
    path = CONFIGS[CONFIG_IDS.index("ball_chaplygin")]
    field, x0, cfg = _sample_run(path, samples=20001, t_end=1.0)
    rows = []
    traj = integrate(_rows_counted(field, rows), x0, cfg)
    assert traj.states.shape == (20001, x0.size) and np.all(np.isfinite(traj.states))
    bound = numerics._ENSEMBLE_BATCH_BYTES // (8 * numerics._STAGES * x0.size)
    assert 1 < max(rows) <= bound


def test_a_step_past_the_branch_cap_ends_on_a_sample(monkeypatch):
    path = CONFIGS[CONFIG_IDS.index("ball_chaplygin")]
    field, x0, cfg = _sample_run(path, samples=201, t_end=2.0)
    free = integrate(field, x0, cfg)
    # room for the main row and two branches
    monkeypatch.setattr(numerics, "_ENSEMBLE_BATCH_BYTES", 3 * 8 * numerics._STAGES * x0.size)
    rows = []
    capped = integrate(_rows_counted(field, rows), x0, cfg)
    assert max(rows) == 3
    assert capped.stats.accepted > free.stats.accepted
    assert fsal_identity(capped.stats)
    scale = np.max(np.abs(free.states))
    assert np.max(np.abs(capped.states - free.states)) <= 1e-8 * scale


def test_non_finite_field_aborts_at_first_step():
    calls = [0]

    def f(x):
        calls[0] += 1
        return np.full_like(x, np.nan)

    with pytest.raises(IntegrationAbort) as info:
        integrate(f, np.array([1.0, 2.0]), IntegratorConfig(t_end=1.0, samples=3))
    assert calls[0] == 1 and info.value.t == 0.0
    assert "non-finite" in str(info.value.cause)


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
    cfg = IntegratorConfig(t_end=1.0, samples=5)
    traj = integrate(
        numerics.pointwise(lambda x: np.array([-x[1], x[0]])),
        np.array([1.0, 0.0]),
        cfg,
        renormalize_fn=numerics.pointwise(lambda x: x / np.linalg.norm(x)),
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


def test_fd_gradient_quadratic_halving(monkeypatch):
    f = numerics.pointwise(lambda v: float(v @ v) + np.sin(v[0]))
    x = np.array([0.3, -1.2, 0.8])
    expect = 2 * x + np.array([np.cos(x[0]), 0.0, 0.0])
    monkeypatch.setattr(numerics, "_FD_H", 1e-4)
    g1 = fd_gradient(f, x)
    monkeypatch.setattr(numerics, "_FD_H", 5e-5)
    g2 = fd_gradient(f, x)
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


def test_fd_stencil_matches_its_formula_bit_for_bit(monkeypatch):
    # signed zeros included: x + h_i e_i turns -0.0 into +0.0 off the diagonal
    x = np.array([[-0.0, 1.5, -2.0], [0.0, -0.0, 3e5]])
    monkeypatch.setattr(numerics, "_FD_H", 1e-3)
    pts, h = numerics._fd_points(x)
    assert np.array_equal(h, 1e-3 * np.maximum(1.0, np.abs(x)))
    step = h[..., :, None] * np.eye(3)
    ref = np.concatenate([x[..., None, :] + step, x[..., None, :] - step], axis=-2)
    assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes()


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_fd_divergence_is_the_trace_of_fd_jacobian_bit_for_bit(path):
    # the one FD divergence: the diagonal of fd_jacobian's differences summed
    chart = load_config(path).chart
    rng = np.random.default_rng(31)
    xs = np.array([chart.random_coords(rng) for _ in range(2)])
    for x in (xs[0], xs):
        div = fd_divergence(chart.field, x)
        trace = np.trace(fd_jacobian(chart.field, x), axis1=-2, axis2=-1)
        assert div.shape == x.shape[:-1] and div.tobytes() == trace.tobytes()


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
    assert fd_divergence(numerics.pointwise(lambda v: A @ v), x) == pytest.approx(
        np.trace(A), abs=1e-7
    )


def test_fd_gradient_and_divergence_broadcast_over_a_batch():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 4))
    w = rng.standard_normal(4)
    field = lambda v: np.sin(v) @ A.T
    logmu = lambda v: np.cos(v) @ w + np.sum(v**3, axis=-1)
    xs = rng.standard_normal((5, 4))
    grads, divs = fd_gradient(logmu, xs), fd_divergence(field, xs)
    assert grads.shape == (5, 4) and divs.shape == (5,)
    for x, g, dv in zip(xs, grads, divs):
        assert np.array_equal(g, fd_gradient(logmu, x))
        assert dv == fd_divergence(field, x)


@pytest.mark.parametrize("shape", [(2, 3), (1, 3), (3, 1, 3)])
def test_liouville_residual_is_row_by_row(shape):
    field = lambda v: np.stack([-v[..., 1], v[..., 0], v[..., 2]], axis=-1)
    logmu = lambda v: np.sum(v * v, axis=-1)
    x = np.random.default_rng(8).standard_normal(shape)
    res = liouville_residual_ambient(field, logmu, x)
    assert res.shape == shape[:-1]
    for i in np.ndindex(shape[:-1]):
        assert res[i] == liouville_residual_ambient(field, logmu, x[i])


def _counted(fn, calls):
    def wrapped(x):
        calls.append(np.shape(x))
        return fn(x)

    return wrapped


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_is_refused_before_any_evaluation(where, bad):
    # veselova transport used to raise LinAlgError from the SVD of the
    # constraint Jacobian; the elpr residual returned nan (with a slogdet
    # RuntimeWarning for a non-finite Pi); integrate aborted on its first
    # field value
    for system in CONFIG_IDS:
        run = load_config(CONFIGS[CONFIG_IDS.index(system)])
        chart = run.chart
        x = run.initial_coords(run.seed).copy()
        x[0 if where == "first" else -1] = bad
        pair = np.stack([run.initial_coords(run.seed), x])
        calls = []
        field, logmu = _counted(chart.field, calls), _counted(chart.log_density, calls)
        div = _counted(chart.divergence, calls)
        with pytest.raises(ParameterError, match="x0: non-finite state"):
            tangent_volume_transport(field, logmu, x, constraints_fn=chart.constraints)
        with pytest.raises(ParameterError, match="x0: non-finite state"):
            tangent_volume_transport(
                field, logmu, pair, constraints_fn=chart.constraints, divergence_fn=div,
            )
        for x0 in (x, pair):
            with pytest.raises(ParameterError, match="x0: non-finite state"):
                integrate(field, x0, IntegratorConfig(t_end=1.0, samples=2))
        if chart.constraints is None:
            with pytest.raises(ParameterError, match="x: non-finite state"):
                liouville_residual_ambient(field, logmu, x)
            with pytest.raises(ParameterError, match="x: non-finite state"):
                liouville_residual_ambient(
                    field, logmu, x,
                    divergence_fn=div, grad_fn=chart.log_density_grad,
                )
        assert calls == []


def test_liouville_residual_takes_closed_form_terms():
    # each supplied term replaces its central difference; None keeps it
    rot = numerics.pointwise(lambda v: np.array([-v[1], v[0] + v[1]]))
    logmu = numerics.pointwise(lambda v: 0.7 * float(v @ v))
    x = np.array([0.6, -1.1])
    fd = liouville_residual_ambient(rot, logmu, x)
    div = fd_divergence(rot, x)
    grad = fd_gradient(logmu, x)
    closed = liouville_residual_ambient(rot, logmu, x, divergence_fn=lambda v: div)
    assert closed == fd
    assert liouville_residual_ambient(rot, logmu, x, grad_fn=lambda v: grad) == fd
    exact = liouville_residual_ambient(
        rot, logmu, x, divergence_fn=lambda v: 1.0, grad_fn=lambda v: 1.4 * v
    )
    assert exact == 1.0 + 1.4 * x @ rot(x)
    assert fd == pytest.approx(exact, abs=1e-8)


def test_max_steps_bounds_every_attempted_step():
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constraint_tangent_basis_refuses_non_finite_states(bad):
    # a NaN state used to raise numpy's LinAlgError ("SVD did not converge")
    calls = []

    def constraints(x):
        calls.append(x)
        return sphere_constraints(x)

    one = np.array([0.0, 0.6, bad])
    batch = np.array([[0.0, 0.6, 0.8], [0.0, bad, 0.8]])
    for x in (one, batch):
        with pytest.raises(ParameterError, match="x: non-finite state"):
            constraint_tangent_basis(constraints, x)
    assert not calls


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


@pytest.mark.parametrize("divergence", [False, True], ids=["basis", "divergence"])
def test_transport_names_a_bad_start_at_t0_before_any_step(divergence):
    # |x|^2 - 1 = 2e-3 from the start, kept by the rotation: the drift check
    # used to run only after the first interval, and named t=0.1
    a = np.array([0.3, -0.5, 0.8])
    calls = []

    def field(x):
        calls.append(x.shape)
        return np.cross(a, x)

    def divergence(x):
        return np.zeros(x.shape[:-1])

    with pytest.raises(ConstraintDriftError, match=r" at t=0$"):
        tangent_volume_transport(
            field,
            numerics.pointwise(lambda x: 0.0),
            1.001 * np.array([0.0, 0.6, 0.8]),
            sphere_constraints,
            IntegratorConfig(t_end=1.0),
            divergence_fn=divergence if divergence else None,
        )
    assert calls == []


def test_transport_takes_the_constraint_jacobian_once():
    # the flow keeps V tangent: after the initial stencil, constraints only
    # see the drift check, one call at t = 0 and one on every later sample
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
    assert calls[1:] == [(3, 3), (5 * 3, 3)]
    assert max(r.max_abs_residual for r in results) < 1e-9


def test_basis_transport_rescales_v_between_samples():
    # the saddle stretches V by e^t: left unscaled between two samples it
    # overflows the error norm near t = 355, while its volume stays 1
    res = tangent_volume_transport(
        lambda x: x * np.array([1.0, -1.0]),
        numerics.pointwise(lambda x: 0.0),
        np.zeros(2),
        None,
        IntegratorConfig(t_end=400.0),
        n_samples=2,
    )
    assert res.max_abs_residual <= 1e-8


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
    # V is rescaled after every accepted step, the last one's reset unused
    assert res.stats.fsal_resets == res.stats.accepted - 1
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
    # d = 3 on the sphere leaves q = 2 tangent directions: 5 rows a member, not 1 + 2d = 7;
    # sampled at the ends only, no call carries branch rows
    a = np.array([0.3, -0.5, 0.8])
    rows = []

    def field(x):
        rows.append(x.shape)
        return np.cross(a, x)

    x0 = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
    cfg = IntegratorConfig(t_end=1.0)
    results = tangent_volume_transport(
        field, numerics.pointwise(lambda x: 0.0), x0, sphere_constraints, cfg, n_samples=2
    )
    assert rows == [(3 * 5, 3)] * results[0].stats.evaluations


def _augmented_divergence_field(field_fn, divergence_fn):
    """The log volume as one more column of the field: divergence_fn at every
    stage, the reference that the quadrature is held to."""

    def field(y):
        x = y[..., :-1]
        div = np.reshape(divergence_fn(x), y.shape[:-1] + (1,))
        return np.concatenate([field_fn(x), div], axis=-1)

    return field


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_divergence_quadrature_matches_the_per_stage_augmented_field(path):
    # the divergence only on the stages that carry a weight, in one call per
    # step, gives every bit that it gives at every stage as a field column
    run = load_config(path)
    chart = run.chart
    xs = np.stack([run.initial_coords(run.seed + i) for i in range(2)])
    cfg = run.integrator
    results = tangent_volume_transport(
        chart.field, chart.log_density, xs, chart.constraints, cfg,
        divergence_fn=chart.divergence,
    )
    traj = integrate(
        _augmented_divergence_field(chart.field, chart.divergence),
        np.concatenate([xs, np.zeros((2, 1))], axis=1),
        replace(cfg, samples=11),
    )
    x, lv = traj.states[..., :-1], traj.states[..., -1]
    ld = chart.log_density(x.reshape(-1, chart.dim)).reshape(lv.shape)
    for i, r in enumerate(results):
        assert np.array_equal(r.log_tangent_volume, lv[:, i])
        assert np.array_equal(r.residual, ld[:, i] + lv[:, i] - ld[0, i])
    stats = results[0].stats
    assert (stats.accepted, stats.rejected, stats.evaluations) == (
        traj.stats.accepted, traj.stats.rejected, traj.stats.evaluations
    )


def _quadrature_test_flow(log, div=lambda x: 0.1 * x[..., 0]):
    """A rotation of R^3 and the divergence div, each call logged as (kind,
    rows)."""
    a = np.array([0.3, -0.5, 0.8])

    def field(x):
        log.append(("field", np.shape(x)[:-1]))
        return np.cross(a, x)

    def divergence(x):
        log.append(("div", np.shape(x)[:-1]))
        return div(x)

    return field, divergence


def test_divergence_quadrature_is_one_call_per_trial_step_on_its_weighted_stages():
    # the start and stages 6-12 carry a weight in B, E5 or E3; stages 2-5
    # and the FSAL stage 13 carry none
    assert numerics._WEIGHTED.tolist() == [0, 5, 6, 7, 8, 9, 10, 11]
    log = []
    field, divergence = _quadrature_test_flow(log)
    x0 = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
    results = tangent_volume_transport(
        field, numerics.pointwise(lambda x: 0.0), x0, None, IntegratorConfig(t_end=2.0),
        n_samples=6, divergence_fn=divergence,
    )
    stats = results[0].stats
    # the FSAL start, then the divergence at the start for the initial step
    assert log[:2] == [("field", (3,)), ("div", (3,))]
    steps = [log[k : k + 13] for k in range(2, len(log), 13)]
    assert len(steps) == stats.accepted + stats.rejected
    branched = 0
    for step in steps:
        rows = step[0][1]  # (R, 3): the main row and its branches, each on 3 members
        assert step == [("field", rows)] * 12 + [("div", (8 * rows[0] * 3,))]
        branched += rows[0] > 1
    assert branched > 0
    assert fsal_identity(stats)
    assert stats.quadrature_calls == 1 + stats.accepted + stats.rejected


def test_divergence_quadrature_sees_the_field_calls_stage_points_bit_for_bit():
    # the quadrature's 8 rows are the step's start and the points of the
    # field calls for stages 6-12, for the main row and every branch row
    run = load_config(CONFIGS[CONFIG_IDS.index("veselova")])
    chart = run.chart
    xs = np.stack([run.initial_coords(run.seed + i) for i in range(2)])
    log = []

    def logged(kind, fn):
        def wrapped(x):
            log.append((kind, np.array(x)))
            return fn(x)

        return wrapped

    (result, _) = tangent_volume_transport(
        logged("field", chart.field), chart.log_density, xs, chart.constraints,
        replace(run.integrator, t_end=2.0), n_samples=6,
        divergence_fn=logged("div", chart.divergence),
    )
    stats = result.stats
    assert [kind for kind, _ in log[:2]] == ["field", "div"]
    assert np.array_equal(log[0][1], xs) and np.array_equal(log[1][1], xs)
    steps = [log[k : k + 13] for k in range(2, len(log), 13)]
    assert len(steps) == stats.accepted + stats.rejected
    starts, branched = [xs], 0
    for step in steps:
        assert [kind for kind, _ in step] == ["field"] * 12 + ["div"]
        rows = step[0][1].shape[:-1]  # (R, 2): the main row and its branches
        branched += rows[0] > 1
        points = step[-1][1].reshape((8,) + rows + xs.shape[-1:])
        for r, stage in enumerate(numerics._WEIGHTED[1:], start=1):
            assert np.array_equal(points[r], step[stage - 1][1])
        assert all(np.array_equal(start, points[0, 0]) for start in points[0])
        starts.append(points[0, 0])
    assert branched > 0
    assert np.array_equal(starts[1], xs)
    # a rejected step's successor starts where it did; an accepted one moves on
    moved = [not np.array_equal(a, b) for a, b in zip(starts[1:], starts[2:])]
    assert sum(moved) == stats.accepted - 1 and moved.count(False) == stats.rejected


def test_volume_transport_stats_count_field_and_quadrature_calls():
    run = load_config(CONFIGS[CONFIG_IDS.index("veselova")])
    chart = run.chart
    xs = np.stack([run.initial_coords(run.seed + i) for i in range(3)])
    cfg = replace(run.integrator, t_end=1.0)
    fields, divs = [], []
    results = tangent_volume_transport(
        _counted(chart.field, fields), chart.log_density, xs, chart.constraints, cfg,
        divergence_fn=_counted(chart.divergence, divs),
    )
    stats = results[0].stats
    assert all(r.stats is stats for r in results)
    assert (stats.evaluations, stats.quadrature_calls) == (len(fields), len(divs))
    assert fsal_identity(stats)
    assert stats.quadrature_calls == 1 + stats.accepted + stats.rejected
    assert integrate(chart.field, xs, cfg).stats.quadrature_calls == 0


@pytest.mark.parametrize("failure", ["raises", "nan"])
def test_divergence_failure_at_a_weighted_stage_aborts(failure):
    def div(x):
        if len(x) == 3:  # the start's own call leaves the step to fail
            return 0.1 * x[..., 0]
        if failure == "raises":
            raise SingularityError("injected failure")
        return np.full(len(x), np.nan)

    field, divergence = _quadrature_test_flow([], div)
    x0 = np.array([[0.0, 0.6, 0.8], [1.0, 0.0, 0.0], [0.6, 0.0, -0.8]])
    cause = {"raises": "injected failure", "nan": "non-finite"}[failure]
    with pytest.raises(IntegrationAbort, match=cause) as info:
        tangent_volume_transport(
            field, numerics.pointwise(lambda x: 0.0), x0, None,
            IntegratorConfig(t_end=1.0), divergence_fn=divergence,
        )
    assert info.value.t == 0.0


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_directional_jv_matches_the_fd_jacobian_times_v(path):
    chart = load_config(path).chart
    rng = np.random.default_rng(31)
    x = chart.random_coords(rng)
    if chart.constraints is None:
        V = np.linalg.qr(rng.standard_normal((chart.dim, chart.dim)))[0]
    else:
        V = constraint_tangent_basis(chart.constraints, x)
        V = V @ np.linalg.qr(rng.standard_normal((V.shape[1],) * 2))[0]
    fx, JVt = numerics.fd_jvp(chart.field, x[None], V.T[None])
    expect = fd_jacobian(chart.field, x) @ V
    assert np.allclose(fx[0], chart.field(x), rtol=0.0, atol=1e-12)
    assert np.max(np.abs(JVt[0].T - expect)) <= 1e-6 * np.max(np.abs(expect))
    # a zero column of V has a zero derivative, not a 0/0
    zero = np.zeros((1, 1, chart.dim))
    assert np.array_equal(numerics.fd_jvp(chart.field, x[None], zero)[1], zero)


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
    # a batch bound below one member's stencil transports every seed alone;
    # it also leaves the driver no branches, so the serial runs share it
    monkeypatch.setattr(numerics, "_ENSEMBLE_BATCH_BYTES", 1)
    serial = [tangent_volume_transport(swirl, logmu, x, None, cfg) for x in x0]
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
