"""The chart interface answers for a whole trajectory as it does sample by sample."""

import glob
import os

import numpy as np
import pytest

from nonholo.cli import PAIRS, load_config
from nonholo.numerics import IntegratorConfig, integrate

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
