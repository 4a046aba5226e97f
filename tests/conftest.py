"""Shared helpers for the test suite, and matrix-form oracles that build
so(n) elements without the package's wedge-coordinate kernels."""

from itertools import combinations

import numpy as np

from nonholo.liealg import InertiaOperator, from_wedge, wedge_dim


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def wedge_basis(n: int) -> list[np.ndarray]:
    """Ordered orthonormal basis [Ei ^ Ej for i < j, lexicographic]."""
    basis = []
    for i, j in zip(*np.triu_indices(n, 1)):
        e = np.zeros((n, n))
        e[i, j], e[j, i] = 1.0, -1.0
        basis.append(e)
    return basis


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] = x y - y x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x @ y - y @ x


def random_skew(n: int, rng: np.random.Generator, unit: bool = False) -> np.ndarray:
    """Random element of so(n) with standard normal wedge coordinates."""
    c = rng.standard_normal(wedge_dim(n))
    if unit:
        c = c / np.linalg.norm(c)
    return from_wedge(c, n)


def complete_columns(U) -> np.ndarray:
    """Extend orthonormal columns U (n x r) to a full orthonormal n x n basis."""
    U = np.asarray(U, dtype=float)
    n, r = U.shape
    q, _ = np.linalg.qr(U, mode="complete")
    q[:, :r] = U
    return q


def pluecker(U) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Pluecker coordinates of the column span of U (n, r): its r x r
    minors, and the row tuples I they are taken over, in order."""
    U = np.asarray(U, dtype=float)
    rows = list(combinations(range(U.shape[0]), U.shape[1]))
    return np.array([np.linalg.det(U[list(I), :]) for I in rows]), rows


def pluecker_base(U, c) -> float:
    """sum_I c_I P_I(U)^2 over the minors P_I of U (n, r), c_I the product
    of c (n,) over I: a Stiefel chart's density base as the paper writes
    it, which the package takes as det(U^T diag(c) U) by Cauchy-Binet."""
    minors, rows = pluecker(U)
    c = np.asarray(c, dtype=float)
    return float(sum(np.prod(c[list(I)]) * p**2 for p, I in zip(minors, rows)))


def gamma_projector(U):
    """(Gamma, pr) for Gamma = U U^T; pr is the projector onto
    D_r = span{e_i ^ x : i <= r} in matrix form,

        pr(eta) = Gamma eta + eta Gamma - Gamma eta Gamma,

    acting on skew matrices and broadcasting over batches."""
    U = np.asarray(U, dtype=float)
    Gamma = U @ U.T

    def pr(eta):
        eta = np.asarray(eta, dtype=float)
        return Gamma @ eta + eta @ Gamma - Gamma @ eta @ Gamma

    return Gamma, pr


def double_bracket(gamma, D):
    """D ad_gamma^T ad_gamma in wedge coordinates, the matrix of
    eta |-> D [[gamma, eta], gamma], built column by column from commutators
    with the wedge basis.  It is D times the projector onto the complement of
    the isotropy subalgebra of a unit gamma when gamma is decomposable (in
    particular on so(3)), and differs from it otherwise."""
    n = np.shape(gamma)[-1]
    cols = [commutator(commutator(gamma, e), gamma) for e in wedge_basis(n)]
    iu = np.triu_indices(n, 1)
    return D * np.array([c[iu] for c in cols]).T


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
