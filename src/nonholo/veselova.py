"""Veselova-type constrained flow on so(n) x V_{n,r}.

The constraint subspace is carried by an orthonormal r-frame
U = (e_1, ..., e_r) of R^n.  With Gamma = U U^T, the orthogonal projection
of so(n) onto D_r = span{e_i ^ x : i <= r} is

    pr(eta) = Gamma eta + eta Gamma - Gamma eta Gamma,

and the momentum is m_bold = w + pr(I w - w).  The equations of motion are

    d(m_bold)/dt = eps [m_bold, w] + (1 - eps) pr([I w, w]),
    de_i/dt      = -eps w e_i      (so dU/dt = -eps w U).

The momentum equation is the elr momentum form with D = D_r: the field
hands the wedge matrix of pr to that kernel (nonholo.elr) and adds dU.

For the wedge-products inertia I(Ei ^ Ej) = a_i a_j Ei ^ Ej and eps != 0
the flow preserves

    ( sum_I a_{i_1} ... a_{i_r} P_I(U)^2 )^[(1/(2 eps) - 1)(n - r - 1)]
        d(m_bold) dU |_{so(n) x V_{n,r}},

where P_I are the r x r minors of U over row tuples I (for r = 1 the base
is just (e_1, A e_1) with A = diag(a)).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import liealg
from .chart import Chart, pair_labels
from .elr import MomentumChart, _energy, _momentum_rhs, _momentum_velocity
from .errors import ConfigError, DimensionError, UnsupportedSpecError
from .liealg import InertiaOperator, dr_projector_matrix, from_wedge, wedge_dim

__all__ = [
    "pluecker",
    "pluecker_indices",
    "VeselovaChart",
    "random_veselova_state",
]


def _velocity(mc, U, op):
    """Wedge coordinates of w solving m_bold = w + pr(I w - w), and the
    matrix of pr; batched."""
    P = dr_projector_matrix(U @ np.swapaxes(U, -1, -2))
    return _momentum_velocity(mc, P, op), P


def pluecker_indices(n: int, r: int) -> list[tuple[int, ...]]:
    """Row tuples I in the order used by ``pluecker``."""
    return list(combinations(range(n), r))


def pluecker(U) -> np.ndarray:
    """Pluecker coordinates of the column span: r x r minors over row tuples."""
    U = np.asarray(U, dtype=float)
    idx = np.array(pluecker_indices(*U.shape[-2:]))
    # take keeps each point's minors contiguous, so a batch sums them in
    # _log_base in the order of a single point (U[..., idx, :] would not)
    return np.linalg.det(np.take(U, idx, axis=-2))


def _log_base(Uflat, a, n, r, shape):
    mins = pluecker(np.reshape(Uflat, shape + (n, r)))
    aprod = np.prod(np.asarray(a, dtype=float)[np.array(pluecker_indices(n, r))], axis=-1)
    return np.log(np.einsum("...c,c->...", mins**2, aprod))


_WEDGE_ONLY = "the veselova density is only valid for the wedge_products inertia"


class _StiefelChart(Chart):
    """Momentum wedge coordinates, then the raw entries of an n x r Stiefel
    point U; shared by VeselovaChart and LPRStiefelChart."""

    _lead = "m"  # column prefix of the momentum block

    def __init__(self, op: InertiaOperator, r: int, eps: float, r_max: int):
        self.op, self.n, self.N = op, op.n, op.N
        self.r = int(r)
        if not 1 <= self.r <= r_max:
            raise DimensionError(f"need 1 <= r <= {r_max} at n = {self.n}, got r={r}")
        self.eps = float(eps)
        self.dim = self.N + self.n * self.r
        # the frame: the columns of U, as the rows of U^T
        self.frame_index = self.N + np.arange(self.n * self.r).reshape(self.n, self.r).T

    def _split(self, coords):
        """The momentum block (..., N) and U (..., n, r) of coords (..., d)."""
        coords = np.asarray(coords, dtype=float)
        U = coords[..., self.N :].reshape(coords.shape[:-1] + (self.n, self.r))
        return coords[..., : self.N], U

    def columns(self):
        U = [f"U{i + 1}{j + 1}" for i in range(self.n) for j in range(self.r)]
        return pair_labels(self.n, self._lead) + U


class VeselovaChart(_StiefelChart):
    """Flat chart (m_bold wedge coords, raw entries of U)."""

    config_keys = ("n", "r", "inertia")

    def __init__(self, op: InertiaOperator, r: int, eps: float):
        super().__init__(op, r, eps, op.n - 1)

    @classmethod
    def from_config(cls, cfg):
        op = cfg.inertia_operator()
        if op.kind != "wedge_products":  # every command records log_density
            raise ConfigError(f"inertia: {_WEDGE_ONLY}, got kind {op.kind!r}")
        return cls(op, cfg.get("r", int, required=True), cfg.epsilon)

    @property
    def density_exponent(self):
        if self.op.kind != "wedge_products":
            raise UnsupportedSpecError(_WEDGE_ONLY)
        return (self._half_inverse_eps() - 1.0) * (self.n - self.r - 1)

    def _rates(self, coords):
        """The field at coords (..., d): the elr momentum form with D = D_r,
        and dU = -eps w U; then m_bold, the matrix P of pr_{D_r} and the w
        and ad_w of _momentum_rhs."""
        mc, U = self._split(coords)
        P = dr_projector_matrix(U @ np.swapaxes(U, -1, -2))
        dmc, wc, ad_w = _momentum_rhs(mc, P, self.op, self.eps)
        dU = -self.eps * (from_wedge(wc, self.n) @ U)
        rates = np.concatenate([dmc, dU.reshape(mc.shape[:-1] + (-1,))], axis=-1)
        return rates, (mc, P, wc, ad_w)

    _divergence = MomentumChart._divergence  # the elr momentum form's, P = pr_{D_r}

    def log_base(self, coords):
        """log sum_I a_I P_I^2 over the r-minors P_I of U."""
        return _log_base(coords[..., self.N :], self.op.a, self.n, self.r, coords.shape[:-1])

    def random_coords(self, rng, zero_constants=False):
        return random_veselova_state(self.n, self.r, rng)

    def integrals(self, coords):
        wc = _velocity(*self._split(coords), self.op)[0]
        return {"H": _energy(self.op.apply_coords(wc), wc, self.n)}


def random_veselova_state(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random chart coordinates (m_bold, U): unit-speed momentum,
    uniform-ish Stiefel point."""
    mc = rng.standard_normal(wedge_dim(n))
    mc = mc / np.linalg.norm(mc)
    U = liealg.random_stiefel(n, r, rng)
    return np.concatenate([mc, U.ravel()])
