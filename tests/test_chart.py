"""The chart interface answers for a whole trajectory as it does sample by
sample, and the exact tangent kernels and closed-form Liouville terms agree
with central differences."""

import glob
import os

import numpy as np
import pytest

from conftest import random_spd_operator
from nonholo.cli import PAIRS, load_config
from nonholo.elpr import LPRChart, LPRStiefelChart
from nonholo.elr import MomentumChart, MultiplierChart
from nonholo.errors import ParameterError
from nonholo.liealg import InertiaOperator, wedge_dim
from nonholo.numerics import (
    IntegratorConfig,
    constraint_tangent_basis,
    divergence,
    fd_gradient,
    fd_jvp,
    integrate,
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
    state = chart.random_state(np.random.default_rng(run.seed))
    other, y0, deviation = PAIRS[pair](chart, state)
    ta, tb = trajectory(chart, chart.flatten(state)), trajectory(other, y0)
    devs = deviation(ta, tb)
    assert devs.shape == (len(ta),)
    # the deviation is a difference of velocities of order one, so compare it
    # on that scale: a rounding change in a velocity moves it by about 1e-16
    scale = max(1.0, float(np.max(np.abs(ta))))
    for i in range(len(ta)):
        assert abs(devs[i] - deviation(ta[i], tb[i])) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# exact tangent kernels: every chart that overrides field_jvp, at n = 3..5,
# every valid rank and three values of eps


def _a(n):
    return np.linspace(0.9, 1.3, n)


def _jvp_charts():
    for n in (3, 4, 5):
        op = InertiaOperator.wedge_products(_a(n))
        for eps in (-1.0, 0.5, 2.0):
            for k in range(1, wedge_dim(n)):
                yield f"elr_momentum-n{n}-k{k}-eps{eps}", MomentumChart(op, k, eps)
            for r in range(1, n):  # r = n - 1: pr_{D_r} is the identity
                yield f"veselova-n{n}-r{r}-eps{eps}", VeselovaChart(op, r, eps)
            for r in range(1, n + 1):
                yield f"lpr_stiefel-n{n}-r{r}-eps{eps}", LPRStiefelChart(_a(n), 2.5, r, eps)


JVP_CHARTS = list(_jvp_charts())


def _jvp_points(chart, seed):
    """(states, tangent directions) at three seeded states, and (points,
    directions) off the manifold with directions that are not tangent."""
    rng = np.random.default_rng(seed)
    xs = np.array([chart.flatten(chart.random_state(rng)) for _ in range(3)])
    V = constraint_tangent_basis(chart.constraints, xs)
    on = np.swapaxes(V, -1, -2)
    off = xs + 0.1 * rng.standard_normal(xs.shape)
    return [(xs, on), (off, rng.standard_normal((3, 4, chart.dim)))]


@pytest.mark.parametrize("chart", [c for _, c in JVP_CHARTS], ids=[i for i, _ in JVP_CHARTS])
def test_exact_jvp_matches_central_differences_and_the_field(chart):
    for x, dirs in _jvp_points(chart, 41):
        f, jv = chart.field_jvp(x, dirs)
        f_fd, jv_fd = fd_jvp(chart.field, x, dirs)
        assert jv.shape == dirs.shape and f.shape == x.shape
        assert rel_diff(jv_fd, jv) <= 1e-7
        assert rel_diff(chart.field(x), f) <= 1e-14


@pytest.mark.parametrize("chart", [c for _, c in JVP_CHARTS], ids=[i for i, _ in JVP_CHARTS])
def test_exact_jvp_is_linear_and_member_by_member(chart):
    for x, dirs in _jvp_points(chart, 43):
        a, b = dirs[:, :1], dirs[:, 1:2]
        stacked = np.concatenate([a, b, 2.0 * a - 3.0 * b, np.zeros_like(a)], axis=1)
        f, jv = chart.field_jvp(x, stacked)
        assert rel_diff(jv[:, 2], 2.0 * jv[:, 0] - 3.0 * jv[:, 1]) <= 1e-13
        assert np.array_equal(jv[:, 3], np.zeros_like(jv[:, 3]))
        # equal up to rounding: a small BLAS product may round differently
        # with the layout of its operands
        f_all, jv_all = chart.field_jvp(x, dirs)
        for i in range(len(x)):
            f_one, jv_one = chart.field_jvp(x[i : i + 1], dirs[i : i + 1])
            assert rel_diff(f_all[i], f_one[0]) <= 1e-14
            assert rel_diff(jv_all[i], jv_one[0]) <= 1e-14


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
    xs = np.array([chart.flatten(chart.random_state(rng)) for _ in range(2)])
    div, grad = chart.divergence(xs), chart.log_density_grad(xs)
    assert div.shape == (2,) and grad.shape == xs.shape
    assert fd_close(div, divergence(chart.field, xs), 1e-7)
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
