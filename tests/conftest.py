"""Shared helpers for the test suite."""

import numpy as np

from nonholo.liealg import InertiaOperator, wedge_dim


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_spd_operator(n: int, rng: np.random.Generator) -> InertiaOperator:
    """A generic symmetric positive-definite operator on wedge coordinates."""
    N = wedge_dim(n)
    B = rng.standard_normal((N, N))
    return InertiaOperator.general(n, B @ B.T + N * np.eye(N))


def random_products_operator(n: int, rng: np.random.Generator) -> InertiaOperator:
    return InertiaOperator.wedge_products(rng.uniform(0.5, 2.5, size=n))


def chaplygin_params(n: int, rng: np.random.Generator):
    """(a, D) with 0 < a_i a_j < D for every pair."""
    a = rng.uniform(0.5, 1.5, size=n)
    D = float(np.max(np.outer(a, a))) * float(rng.uniform(1.5, 3.0))
    return a, D


def field_blocks(chart, state):
    """The chart's field at a state: its leading so(n) block (wedge
    coordinates) and the rest of the flat coordinates."""
    f = chart.field(chart.flatten(state))
    return f[: chart.N], f[chart.N :]


def ball_momentum_rate(chart, coords):
    """d/dt of the rubber ball's m_bold = I_tot w + (gamma, w - I_tot w) gamma
    (``ball3d._momentum_vector``) along ``RubberChart.field`` at coords (6,),
    by the product rule."""
    f = chart.field(coords)
    w, g = chart._split(coords)
    dw, dg = chart._omega(f[:3]), f[3:]
    v, dv = chart.it * w, chart.it * dw
    return dv + (np.dot(dg, w - v) + np.dot(g, dw - dv)) * g + np.dot(g, w - v) * dg
