"""The chart interface answers for a whole trajectory as it does sample by
sample, every chart's divergence and the closed-form Liouville terms
agree with central differences, on every constrained chart the trace of
the field's Jacobian over the chart is its trace on the manifold, and every
density is the chart's exponent times its log base, with the exponent the
flow preserves."""

import copy
import glob
import os

import numpy as np
import pytest

from conftest import random_spd_operator
from test_cli import ZERO_EPSILON_REFUSED
from nonholo import ball3d, elpr, elr, veselova
from nonholo.ball3d import ChaplyginChart, RubberChart
from nonholo.chart import Chart
from nonholo.cli import PAIRS, SYSTEMS, load_config
from nonholo.elpr import LPRChart, LPRStiefelChart
from nonholo.elr import MomentumChart, MultiplierChart
from nonholo.errors import ParameterError
from nonholo.liealg import InertiaOperator, wedge_dim
from nonholo.numerics import (
    IntegratorConfig,
    constraint_tangent_basis,
    fd_divergence,
    fd_gradient,
    fd_jacobian,
    integrate,
    tangent_volume_transport,
)
from nonholo.veselova import VeselovaChart

CONFIGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.json")))
CONFIG_IDS = [os.path.basename(p)[: -len(".json")] for p in CONFIGS]
SHORT = IntegratorConfig(t_end=1.0, samples=9)


def trajectory(chart, x0):
    return integrate(chart.field, x0, SHORT).states


def rel_diff(batched, single):
    """Largest |batched - single| over the scale of the batched values."""
    batched, single = np.asarray(batched), np.asarray(single)
    scale = max(float(np.max(np.abs(batched))), 1e-300)
    return float(np.max(np.abs(batched - single))) / scale


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_integrals_and_row_of_a_trajectory_match_each_sample(path):
    run = load_config(path)
    chart = run.chart
    states = trajectory(chart, run.initial_coords(run.seed))
    integrals = chart.integrals(states)
    rows = chart.row(states)
    assert rows.shape == (len(states), len(chart.columns()))
    for i, x in enumerate(states):
        one = chart.integrals(x)
        assert list(one) == list(integrals)
        for name, col in integrals.items():
            assert col.shape == (len(states),)
            assert rel_diff(col[i], one[name]) <= 1e-13, name
        assert rel_diff(rows[i], chart.row(x)) <= 1e-13


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_extra_drifts_of_stacked_trajectories_match_each_trajectory(path):
    run = load_config(path)
    chart = run.chart
    trajs = np.stack([trajectory(chart, run.initial_coords(s)) for s in (run.seed, run.seed + 1)])
    stacked = chart.extra_drifts(trajs)
    for i, states in enumerate(trajs):
        one = chart.extra_drifts(states)
        assert list(one) == list(stacked)
        for name, drift in stacked.items():
            assert drift.shape == (2,)
            assert rel_diff(drift[i], one[name]) <= 1e-13, name


@pytest.mark.parametrize("pair", list(PAIRS), ids=[":".join(p) for p in PAIRS])
def test_deviation_of_a_trajectory_pair_matches_each_sample(pair):
    run = load_config(CONFIGS[CONFIG_IDS.index(pair[0])])
    chart = run.chart
    x0 = chart.random_coords(np.random.default_rng(run.seed))
    other, y0, deviation = PAIRS[pair](chart, x0)
    ta, tb = trajectory(chart, x0), trajectory(other, y0)
    devs = deviation(ta, tb)
    assert devs.shape == (len(ta),)
    # the deviation is a difference of velocities of order one, so compare it
    # on that scale: a rounding change in a velocity moves it by about 1e-16
    scale = max(1.0, float(np.max(np.abs(ta))))
    for i in range(len(ta)):
        assert abs(devs[i] - deviation(ta[i], tb[i])) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# divergence of every chart, at n = 3..5, every valid rank and three values
# of eps: each chart's own closed form, held to the central differences of
# fd_divergence


def _a(n):
    return np.linspace(0.9, 1.3, n)


def _divergence_charts():
    for n in (3, 4, 5):
        op = InertiaOperator.wedge_products(_a(n))
        for eps in (-1.0, 0.5, 2.0):
            for k in range(1, wedge_dim(n)):
                yield f"elr_momentum-n{n}-k{k}-eps{eps}", MomentumChart(op, k, eps)
                yield f"elr_multiplier-n{n}-k{k}-eps{eps}", MultiplierChart(op, k, eps)
            for r in range(1, n):  # r = n - 1: pr_{D_r} is the identity
                yield f"veselova-n{n}-r{r}-eps{eps}", VeselovaChart(op, r, eps)
            for r in range(1, n + 1):
                yield f"lpr_stiefel-n{n}-r{r}-eps{eps}", LPRStiefelChart(_a(n), 2.5, r, eps)
            yield f"elpr-n{n}-eps{eps}", LPRChart(op, eps)
    for eps in (-1.0, 0.5, 2.0):
        yield f"ball_chaplygin-eps{eps}", ChaplyginChart([1.0, 2.0, 3.0], 0.5, eps)
        for variables in ("m", "omega"):
            chart = RubberChart([1.0, 2.0, 3.0], 0.5, eps, variables)
            yield f"ball_rubber-{variables}-eps{eps}", chart


DIVERGENCE_CHARTS = list(_divergence_charts())


def _divergence_points(chart, seed):
    """Three seeded states, then three points off the constraint manifold."""
    rng = np.random.default_rng(seed)
    xs = np.array([chart.random_coords(rng) for _ in range(3)])
    return [xs, xs + 0.05 * rng.standard_normal(xs.shape)]


@pytest.mark.parametrize(
    "chart", [c for _, c in DIVERGENCE_CHARTS], ids=[i for i, _ in DIVERGENCE_CHARTS]
)
def test_divergence_matches_central_differences(chart):
    for x in _divergence_points(chart, 41):
        div = chart.divergence(x)
        assert div.shape == (len(x),)
        assert fd_close(div, fd_divergence(chart.field, x), 1e-7)


@pytest.mark.parametrize(
    "chart", [c for _, c in DIVERGENCE_CHARTS], ids=[i for i, _ in DIVERGENCE_CHARTS]
)
def test_field_and_divergence_are_member_by_member(chart):
    # equal up to rounding: a small BLAS product may round differently with
    # the layout of its operands.  A divergence is a trace whose terms are
    # of order one and can cancel, so its rounding is absolute.
    for x in _divergence_points(chart, 43):
        f_all, div_all = chart.field(x), chart.divergence(x)
        for i in range(len(x)):
            f_one, div_one = chart.field(x[i]), chart.divergence(x[i])
            assert div_one.shape == ()
            assert rel_diff(f_all[i], f_one) <= 1e-14
            assert abs(div_all[i] - div_one) <= 1e-13 * max(1.0, abs(div_one))


def test_every_system_chart_gives_its_own_flow_kernels():
    # Chart builds field and divergence from each chart's _rates and
    # _divergence, and has no finite-difference default for either: central
    # differences are the tests' oracle, not a production path
    assert not hasattr(Chart, "_rates") and not hasattr(Chart, "_divergence")
    for system, cls in SYSTEMS.items():
        below = cls.__mro__[: cls.__mro__.index(Chart)]
        for kernel in ("_rates", "_divergence"):
            assert any(kernel in vars(c) for c in below), (system, kernel)
        for method in ("field", "divergence"):
            assert not any(method in vars(c) for c in below), (system, method)


# The benchmark's layer probes (perfbench/probes.py) draw each state with one
# of these sampler calls, written as the probes write them, and hand it to
# chart.flatten: (chart, draw(rng)) per system at size n, rank 1, eps = 1/2.
def _probe_draws(system, n):
    eps = 0.5
    if system in ("ball_chaplygin", "ball_rubber"):
        inertia, D = np.array([1.0, 2.0, 3.0]), 0.5
        cls = ChaplyginChart if system == "ball_chaplygin" else RubberChart
        return cls(inertia, D, eps), lambda rng: ball3d.random_ball_state(
            rng, inertia=inertia, D=D, eps=eps)
    a = np.linspace(0.8, 1.6, n)
    if system == "lpr_stiefel":
        chart = LPRStiefelChart(a, 2.0 * a[-1] ** 2, 1, eps)
        return chart, lambda rng: elpr.random_lpr_stiefel_state(n, 1, rng)
    op = InertiaOperator.wedge_products(a)
    if system == "elr_multiplier":
        return MultiplierChart(op, 1, eps), lambda rng: elr.random_multiplier_state(n, 1, rng)
    if system == "elr_momentum":
        return MomentumChart(op, 1, eps), lambda rng: elr.random_momentum_state(n, 1, rng)
    if system == "veselova":
        return VeselovaChart(op, 1, eps), lambda rng: veselova.random_veselova_state(n, 1, rng)
    return LPRChart(op, eps), lambda rng: elpr.random_elpr_state(n, rng)


PROBE_CASES = [
    (s, n) for s in ("elr_multiplier", "elr_momentum", "veselova", "elpr", "lpr_stiefel")
    for n in (3, 5, 8)
] + [("ball_chaplygin", 3), ("ball_rubber", 3)]


@pytest.mark.parametrize("system, n", PROBE_CASES, ids=[f"{s}-n{n}" for s, n in PROBE_CASES])
def test_flatten_of_each_probe_draw_is_the_charts_random_coords(system, n):
    chart, draw = _probe_draws(system, n)
    for seed in range(3):
        x = chart.flatten(draw(np.random.default_rng(seed)))
        assert x.shape == (chart.dim,)
        assert np.array_equal(x, chart.random_coords(np.random.default_rng(seed)))


# the normal-trace lemma behind transport by divergence: a flow that moves
# its frame F by F' = F Omega with Omega skew has no Jacobian trace on the
# normal space {S F : S symmetric}, so the trace over the whole chart is the
# trace over the tangent space of the constraint manifold

CONSTRAINED = [
    (name, path) for name, path in zip(CONFIG_IDS, CONFIGS)
    if load_config(path).chart.constraints is not None
]


def _traces(chart, field, xs):
    """Traces of the field's central-difference Jacobian over the normal
    space (the row space of the constraint Jacobian) and over the tangent
    space, at each of the states xs."""
    J = fd_jacobian(field, xs)
    normal, _ = np.linalg.qr(np.swapaxes(fd_jacobian(chart.constraints, xs), -1, -2))
    tangent = constraint_tangent_basis(chart.constraints, xs)

    def trace(B):
        return np.trace(np.swapaxes(B, -1, -2) @ J @ B, axis1=-2, axis2=-1)

    return trace(normal), trace(tangent)


def test_every_system_with_constraints_has_a_sample_config():
    assert sorted(n for n, _ in CONSTRAINED) == sorted(
        name for name, cls in SYSTEMS.items() if cls.constraints is not None
    )


@pytest.mark.parametrize("path", [p for _, p in CONSTRAINED], ids=[n for n, _ in CONSTRAINED])
def test_frame_block_has_no_trace_on_the_normal_space(path):
    chart = load_config(path).chart
    rng = np.random.default_rng(53)
    xs = np.array([chart.random_coords(rng) for _ in range(5)])
    normal, tangent = _traces(chart, chart.field, xs)
    assert fd_close(normal, np.zeros_like(normal), 1e-7)
    assert fd_close(chart.divergence(xs), tangent, 1e-7)

    # control: a frame that also moves by F' = F, a symmetric Omega, has
    # trace 1 along each of the normal directions
    def dilated(x):
        f = chart.field(x)
        f[..., chart.frame_index] += np.asarray(x)[..., chart.frame_index]
        return f

    normal, tangent = _traces(chart, dilated, xs)
    count = fd_jacobian(chart.constraints, xs).shape[-2]
    assert np.allclose(normal, count, atol=1e-6)
    assert not fd_close(fd_divergence(dilated, xs), tangent, 1e-3)


# ---------------------------------------------------------------------------
# closed-form Liouville terms of the two ambient charts: every ambient sample
# config, then n = 3..8 with a wedge_products and a general inertia, the eps
# grid and frame ranks k <= 3


def _liouville_charts():
    for path, name in zip(CONFIGS, CONFIG_IDS):
        chart = load_config(path).chart
        if chart.constraints is None:
            yield f"config-{name}", chart
    for n in range(3, 9):
        ops = {
            "products": InertiaOperator.wedge_products(_a(n)),
            "general": random_spd_operator(n, np.random.default_rng(n)),
        }
        for kind, op in ops.items():
            for eps in (-1.0, 0.5, 1.0, 2.0):
                yield f"elpr-n{n}-{kind}-eps{eps}", LPRChart(op, eps)
                for k in range(1, min(3, wedge_dim(n) - 1) + 1):
                    yield f"elr_multiplier-n{n}-k{k}-{kind}-eps{eps}", MultiplierChart(op, k, eps)


LIOUVILLE_CHARTS = list(_liouville_charts())


def fd_close(exact, fd, tol):
    """|exact - fd| within tol on the scale of the values, at least 1: the
    central-difference floor is absolute where the values are small."""
    exact, fd = np.asarray(exact), np.asarray(fd)
    return float(np.max(np.abs(exact - fd))) <= tol * max(1.0, float(np.max(np.abs(fd))))


@pytest.mark.parametrize(
    "chart", [c for _, c in LIOUVILLE_CHARTS], ids=[i for i, _ in LIOUVILLE_CHARTS]
)
def test_closed_form_liouville_terms_match_central_differences(chart):
    rng = np.random.default_rng(47)
    xs = np.array([chart.random_coords(rng) for _ in range(2)])
    div, grad = chart.divergence(xs), chart.log_density_grad(xs)
    assert div.shape == (2,) and grad.shape == xs.shape
    assert fd_close(div, fd_divergence(chart.field, xs), 1e-7)
    assert fd_close(grad, fd_gradient(chart.log_density, xs), 1e-7)
    # batched against one point at a time, up to rounding
    for i, x in enumerate(xs):
        assert chart.divergence(x).shape == ()
        assert rel_diff(div[i], chart.divergence(x)) <= 1e-14
        assert rel_diff(grad[i], chart.log_density_grad(x)) <= 1e-14


@pytest.mark.parametrize("system", ["elpr", "elr_multiplier"])
def test_closed_form_liouville_terms_refuse_non_finite_states(system):
    run = load_config(CONFIGS[CONFIG_IDS.index(system)])
    chart = run.chart
    x = run.initial_coords(run.seed)
    for i in (0, chart.dim - 1):  # the so(n) block, then Pi or the frame
        for bad in (np.nan, np.inf):
            y = np.stack([x, x])
            y[1, i] = bad
            for term in (chart.divergence, chart.log_density_grad):
                with pytest.raises(ParameterError, match="non-finite state"):
                    term(y)


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_log_density_and_divergence_refuse_non_finite_states(path):
    # log_density used to return nan, with a RuntimeWarning from det or
    # slogdet on every chart but the balls
    run = load_config(path)
    chart = run.chart
    x = run.initial_coords(run.seed)
    for i in (0, chart.dim - 1):  # the leading block, then the last coordinate
        for bad in (np.nan, np.inf, -np.inf):
            y = np.stack([x, x])
            y[1, i] = bad
            for term in (chart.log_density, chart.divergence):
                for coords in (y, y[1]):
                    with pytest.raises(ParameterError, match="coords: non-finite state"):
                        term(coords)


# ---------------------------------------------------------------------------
# one density law per chart: log_density = density_exponent * log_base, with
# the exponents of the README table

EXPONENT_LAW = {
    MultiplierChart: lambda c: 1.0 / (2.0 * c.eps),
    MomentumChart: lambda c: 1.0 / (2.0 * c.eps) - 1.0,
    VeselovaChart: lambda c: (1.0 / (2.0 * c.eps) - 1.0) * (c.n - c.r - 1),
    LPRStiefelChart: lambda c: -(c.n - c.r - 1) / 2.0,
    LPRChart: lambda c: 0.5,
    ChaplyginChart: lambda c: 0.5,
    RubberChart: lambda c: 1.0 / (2.0 * c.eps),
}
LAW_CHARTS = DIVERGENCE_CHARTS + [
    (f"config-{name}", load_config(path).chart) for name, path in zip(CONFIG_IDS, CONFIGS)
]


@pytest.mark.parametrize("chart", [c for _, c in LAW_CHARTS], ids=[i for i, _ in LAW_CHARTS])
def test_log_density_is_the_exponent_times_the_log_base(chart):
    assert chart.density_exponent == EXPONENT_LAW[type(chart)](chart)
    assert chart.check_density() == chart.density_exponent
    for x in _divergence_points(chart, 59):
        for coords in (x, x[0]):
            got = chart.log_density(coords)
            assert np.shape(got) == np.shape(coords)[:-1]
            assert np.array_equal(got, chart.density_exponent * chart.log_base(coords))


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_check_density_refuses_eps_zero_where_the_exponent_divides_by_it(path):
    run = load_config(path)
    chart = copy.copy(run.chart)  # the ball_rubber chart refuses to be built at eps = 0
    chart.eps = 0.0
    if ZERO_EPSILON_REFUSED[run.system] is None:
        assert chart.check_density() == EXPONENT_LAW[type(chart)](chart)
    else:
        with pytest.raises(ParameterError, match="density is undefined at eps = 0"):
            chart.check_density()
        with pytest.raises(ParameterError, match="density is undefined at eps = 0"):
            chart.log_density(run.initial_coords(run.seed))


def _ambient_fit_charts():
    for n in (3, 4, 5):
        op = InertiaOperator.wedge_products(_a(n))
        for eps in (-1.0, 0.5, 1.0, 2.0):
            yield f"elpr-n{n}-eps{eps}", LPRChart(op, eps)
            for k in (1, 2):
                yield f"elr_multiplier-n{n}-k{k}-eps{eps}", MultiplierChart(op, k, eps)


AMBIENT_FIT_CHARTS = list(_ambient_fit_charts())


@pytest.mark.parametrize(
    "chart", [c for _, c in AMBIENT_FIT_CHARTS], ids=[i for i, _ in AMBIENT_FIT_CHARTS]
)
def test_exponent_fitted_from_central_differences_is_the_chart_exponent(chart):
    # the Liouville identity div X + alpha X . grad log b = 0 is linear in
    # alpha, so the least-squares alpha over 20 states, from the
    # central-difference divergence and log-base gradient alone, recovers
    # the exponent the flow preserves
    rng = np.random.default_rng(61)
    xs = np.array([chart.random_coords(rng) for _ in range(20)])
    div = fd_divergence(chart.field, xs)
    rate = np.einsum("...i,...i->...", chart.field(xs), fd_gradient(chart.log_base, xs))
    alpha = -np.sum(div * rate) / np.sum(rate**2)
    assert abs(alpha - chart.density_exponent) <= 1e-6 * abs(chart.density_exponent)


@pytest.mark.parametrize("path", CONFIGS, ids=CONFIG_IDS)
def test_divergence_transport_fails_with_the_exponent_off_by_one_half(path):
    # a control built from the chart: the true law passes, and the same base
    # to the exponent + 1/2 fails.  At the veselova config's eps = 1/2 the
    # exponent is 0, where a doubled density would be no control at all.
    run = load_config(path)
    chart = run.chart
    x0 = run.initial_coords(run.seed)

    def residual(log_density):
        return tangent_volume_transport(
            chart.field, log_density, x0, constraints_fn=chart.constraints,
            cfg=run.integrator, divergence_fn=chart.divergence,
        ).max_abs_residual

    assert residual(chart.log_density) <= 1e-6
    wrong = chart.density_exponent + 0.5
    assert residual(lambda c: wrong * chart.log_base(c)) > 1e-3
