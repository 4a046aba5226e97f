"""Veselova-type constrained flow on so(n) x V_{n,r}.

The constraint subspace is carried by an orthonormal r-frame
U = (e_1, ..., e_r) of R^n.  With Gamma = U U^T, the orthogonal projection
of so(n) onto D_r = span{e_i ^ x : i <= r} is

    pr(eta) = Gamma eta + eta Gamma - Gamma eta Gamma,

and the momentum is m_bold = w + pr(I w - w).  The equations of motion are

    d(m_bold)/dt = eps [m_bold, w] + (1 - eps) pr([I w, w]),
    de_i/dt      = -eps w e_i      (so dU/dt = -eps w U).

For the wedge-products inertia I(Ei ^ Ej) = a_i a_j Ei ^ Ej and eps != 0
the flow preserves

    ( sum_I a_{i_1} ... a_{i_r} P_I(U)^2 )^[(1/(2 eps) - 1)(n - r - 1)]
        d(m_bold) dU |_{so(n) x V_{n,r}},

where P_I are the r x r minors of U over row tuples I (for r = 1 the base
is just (e_1, A e_1) with A = diag(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import liealg
from .chart import Chart, pair_labels
from .errors import DimensionError, ParameterError, UnsupportedSpecError
from .liealg import (
    InertiaOperator,
    StiefelPoint,
    as_stiefel_matrix,
    commutator,
    from_wedge,
    inner_product,
    to_wedge,
    wedge_dim,
    _windex,
)
from .numerics import polar_orthonormalize

__all__ = [
    "VeselovaState",
    "gamma_projector",
    "vf_veselova",
    "pluecker",
    "pluecker_indices",
    "log_density_veselova",
    "density_veselova",
    "VeselovaChart",
    "random_veselova_state",
]


@dataclass(frozen=True, eq=False)
class VeselovaState:
    """State: momentum m_bold in so(n) and a Stiefel point U (n x r, r <= n-1)."""

    m_bold: np.ndarray
    U: StiefelPoint

    def __post_init__(self):
        m = np.asarray(self.m_bold, dtype=float)
        liealg.check_skew(m)
        U = self.U if isinstance(self.U, StiefelPoint) else StiefelPoint(self.U)
        if m.shape[-1] != U.n:
            raise DimensionError("m_bold size and Stiefel rows differ")
        if U.r > U.n - 1:
            raise ParameterError("needs r <= n - 1 (r = n leaves no constraint)")
        object.__setattr__(self, "m_bold", m)
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.U.n

    @property
    def r(self) -> int:
        return self.U.r


def gamma_projector(U):
    """(Gamma, pr) for Gamma = U U^T; pr is the projector onto D_r.

    pr acts on skew matrices and broadcasts over batches.
    """
    Um = as_stiefel_matrix(U)
    Gamma = Um @ Um.T

    def pr(eta):
        eta = np.asarray(eta, dtype=float)
        return Gamma @ eta + eta @ Gamma - Gamma @ eta @ Gamma

    return Gamma, pr


def _pr_batched(G, eta):
    return G @ eta + eta @ G - G @ eta @ G


def _assemble_transfer(G, op):
    """Matrix of w -> w + pr(I w - w) in wedge coordinates, batched over G."""
    w = _windex(op.n)
    X = op.basis_images - w.basis  # (N, n, n), constant
    PX = _pr_batched(G[..., None, :, :], X)
    cols = to_wedge(w.basis + PX)  # (..., a, c)
    return np.swapaxes(cols, -1, -2)


def _veselova_rhs(mc, Uflat, op, eps, n, r):
    shape = np.asarray(mc).shape[:-1]
    U = np.asarray(Uflat, dtype=float).reshape(shape + (n, r))
    G = U @ np.swapaxes(U, -1, -2)
    T = _assemble_transfer(G, op)
    wc = np.linalg.solve(T, mc[..., None])[..., 0]
    W = from_wedge(wc, n)
    M = from_wedge(mc, n)
    br = commutator(op.apply(W), W)
    dmc = eps * to_wedge(commutator(M, W)) + (1.0 - eps) * to_wedge(_pr_batched(G, br))
    dU = -eps * (W @ U)
    return dmc, dU.reshape(shape + (n * r,)), wc


def vf_veselova(state: VeselovaState, op: InertiaOperator, eps: float):
    """Vector field; returns (dm_bold, dU)."""
    dmc, dU, _ = _veselova_rhs(
        to_wedge(state.m_bold), state.U.U.ravel(), op, eps, state.n, state.r
    )
    return from_wedge(dmc, state.n), dU.reshape(state.n, state.r)


def omega_of_veselova(state: VeselovaState, op: InertiaOperator) -> np.ndarray:
    """Angular velocity solving m_bold = w + pr(I w - w)."""
    G, _ = gamma_projector(state.U)
    T = _assemble_transfer(G, op)
    return from_wedge(np.linalg.solve(T, to_wedge(state.m_bold)), state.n)


def pluecker_indices(n: int, r: int) -> list[tuple[int, ...]]:
    """Row tuples I in the order used by ``pluecker``."""
    return list(combinations(range(n), r))


def pluecker(U) -> np.ndarray:
    """Pluecker coordinates of the column span: r x r minors over row tuples."""
    Um = as_stiefel_matrix(U)
    n, r = Um.shape[-2], Um.shape[-1]
    idx = np.array(pluecker_indices(n, r))
    sub = Um[..., idx, :]  # (..., C, r, r)
    return np.linalg.det(sub)


def _wedge_products_vector(op_or_a):
    if isinstance(op_or_a, InertiaOperator):
        if op_or_a.kind != "wedge_products":
            raise UnsupportedSpecError(
                "this density is only valid for the wedge_products inertia"
            )
        return op_or_a.a
    a = np.asarray(op_or_a, dtype=float)
    if a.ndim != 1:
        raise DimensionError("expected a vector of coefficients a")
    return a


def _log_base(Uflat, a, n, r, shape):
    U = np.asarray(Uflat, dtype=float).reshape(shape + (n, r))
    idx = np.array(pluecker_indices(n, r))
    sub = U[..., idx, :]
    mins = np.linalg.det(sub)
    aprod = np.prod(np.asarray(a, dtype=float)[idx], axis=-1)
    return np.log(np.einsum("...c,c->...", mins**2, aprod))


def _log_density(Uflat, op_or_a, eps, n, r, shape):
    if eps == 0.0:
        raise ParameterError("density is undefined at eps = 0")
    base = _log_base(Uflat, _wedge_products_vector(op_or_a), n, r, shape)
    return (1.0 / (2.0 * eps) - 1.0) * (n - r - 1) * base


def log_density_veselova(state: VeselovaState, op_or_a, eps: float) -> float:
    """log of (sum_I a_I P_I^2)^[(1/(2 eps) - 1)(n - r - 1)]."""
    return float(_log_density(state.U.U.ravel(), op_or_a, eps, state.n, state.r, ()))


def density_veselova(state, op_or_a, eps) -> float:
    return float(np.exp(log_density_veselova(state, op_or_a, eps)))


class _StiefelChart(Chart):
    """Momentum wedge coordinates, then the raw entries of an n x r Stiefel
    point U; shared by VeselovaChart and LPRStiefelChart."""

    _lead = "m"  # column prefix of the momentum block
    _state = VeselovaState

    @property
    def dim(self):
        return self.N + self.n * self.r

    def constraints(self, coords):
        coords = np.asarray(coords, dtype=float)
        U = coords[..., self.N :].reshape(coords.shape[:-1] + (self.n, self.r))
        g = np.swapaxes(U, -1, -2) @ U - np.eye(self.r)
        iu = np.triu_indices(self.r)
        return g[..., iu[0], iu[1]]

    def unflatten(self, coords):
        # loose Stiefel tolerance: trajectory samples carry integration drift
        coords = np.asarray(coords, dtype=float)
        m = from_wedge(coords[: self.N], self.n)
        U = coords[self.N :].reshape(self.n, self.r)
        return self._state(m, StiefelPoint(U, tolerance=1e-6))

    def renormalize(self, coords):
        coords = np.asarray(coords, dtype=float)
        U = coords[self.N :].reshape(self.n, self.r)
        return np.concatenate([coords[: self.N], polar_orthonormalize(U).ravel()])

    def columns(self):
        U = [f"U{i + 1}{j + 1}" for i in range(self.n) for j in range(self.r)]
        return pair_labels(self.n, self._lead) + U


class VeselovaChart(_StiefelChart):
    """Flat chart (m_bold wedge coords, raw entries of U)."""

    config_keys = ("n", "r", "inertia")

    def __init__(self, op: InertiaOperator, r: int, eps: float):
        self.op = op
        self.n = op.n
        self.N = op.N
        self.r = int(r)
        if not 1 <= self.r <= self.n - 1:
            raise DimensionError(f"need 1 <= r <= n-1, got r={r}")
        self.eps = float(eps)

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.inertia_operator(), cfg.get("r", int, required=True), cfg.epsilon)

    def field(self, coords):
        coords = np.asarray(coords, dtype=float)
        mc = coords[..., : self.N]
        dmc, dU, _ = _veselova_rhs(mc, coords[..., self.N :], self.op, self.eps, self.n, self.r)
        return np.concatenate([dmc, dU], axis=-1)

    def log_density(self, coords):
        coords = np.asarray(coords, dtype=float)
        U = coords[..., self.N :]
        return _log_density(U, self.op, self.eps, self.n, self.r, coords.shape[:-1])

    def flatten(self, state: VeselovaState) -> np.ndarray:
        return np.concatenate([to_wedge(state.m_bold), state.U.U.ravel()])

    def random_state(self, rng, zero_constants=False):
        return random_veselova_state(self.n, self.r, rng)

    def integrals(self, coords):
        w = omega_of_veselova(self.unflatten(coords), self.op)
        return {"H": 0.5 * float(inner_product(self.op.apply(w), w))}


def random_veselova_state(n: int, r: int, rng: np.random.Generator) -> VeselovaState:
    """Seeded random state: unit-speed momentum, uniform-ish Stiefel point."""
    mc = rng.standard_normal(wedge_dim(n))
    mc = mc / np.linalg.norm(mc)
    U = liealg.random_stiefel(n, r, rng)
    return VeselovaState(from_wedge(mc, n), StiefelPoint(U))
