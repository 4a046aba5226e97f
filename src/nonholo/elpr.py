"""L+R-type flow on so(n) x Sym(so(n)) and its Stiefel specialization.

State: momentum k_bold = (I + Pi) w and a symmetric operator Pi on so(n),
written as an N x N symmetric matrix in wedge coordinates.  Equations:

    d(k_bold)/dt = [k_bold, w],
    dPi/dt       = eps [Pi, ad_w] = eps (Pi ad_w - ad_w Pi),

which keeps Pi symmetric and isospectral.  Eliminating k_bold gives the
equivalent velocity form

    dw/dt = (I + Pi)^{-1} ( [I w, w] + (1 - eps) [Pi w, w] ).

For every eps != 0 the flow preserves sqrt(det(I + Pi)) dw dPi
(equivalently det(I + Pi)^{-1/2} d(k_bold) dPi), with dPi the Lebesgue
measure in the entries Pi_ij, i <= j.  The energy <k_bold, w>/2 is
conserved for every eps.

Stiefel specialization: Pi = D pr_{D_r} with the projector carried by a
moving orthonormal r-frame U, together with the rational inertia
I(Ei ^ Ej) = D a_i a_j / (D - a_i a_j) Ei ^ Ej.  Then k_bold = I w +
D pr_{D_r}(w) obeys

    d(k_bold)/dt = [k_bold, w],    dU/dt = -eps w U,

and the flow preserves

    ( sum_I P_I(U)^2 / (a_{i_1} ... a_{i_r}) )^(-(n - r - 1)/2) d(k_bold) dU,

where P_I are the r x r minors of U; by Cauchy-Binet the base is
det(U^T diag(1/a) U).
"""

from __future__ import annotations

import numpy as np

from .chart import Chart, pair_labels
from .elr import _energy, _frame_divergence, _solve
from .errors import DefinitenessError, ParameterError
from .liealg import (
    InertiaOperator,
    ad_coords,
    dr_projector_matrix,
    from_wedge,
    to_wedge,
    wedge_dim,
)
from .veselova import _StiefelChart, random_veselova_state

__all__ = [
    "pi_variants",
    "stiefel_total_inertia",
    "LPRChart",
    "LPRStiefelChart",
    "random_elpr_state",
    "random_lpr_stiefel_state",
]


# ---------------------------------------------------------------------------
# generic L+R flow


def _check_pd(K):
    """Raise DefinitenessError unless K (batched) is positive definite."""
    try:
        np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise DefinitenessError("I + Pi lost positive definiteness") from exc


def _solve_pd(K, rhs):
    """Solve K x = rhs requiring K positive definite (batched)."""
    _check_pd(K)
    return np.linalg.solve(K, rhs[..., None])[..., 0]


def _k_coords(wc, Pi, op):
    """Wedge coordinates of k_bold = I w + Pi w, batched over wc (..., N)
    and Pi (..., N, N)."""
    return op.apply_coords(wc) + (wc[..., None, :] @ np.swapaxes(Pi, -1, -2))[..., 0, :]


def _velocity(kc, Pi, op):
    """Wedge coordinates of w solving (I + Pi) w = k_bold, batched; raises
    DefinitenessError unless I + Pi is positive definite."""
    return _solve_pd(op.dense_matrix + Pi, kc)


def pi_variants(gamma, D: float) -> np.ndarray:
    """Symmetric N x N operator Pi = D * (projector onto the orthogonal
    complement of the isotropy subalgebra {x : [x, gamma] = 0}) of a unit
    gamma in so(n).  The isotropy rows are the right singular vectors of
    ad_gamma whose singular values are at most 1e-9 times the largest.  On
    so(3), and for decomposable gamma, Pi equals D ad_gamma^T ad_gamma.  The
    Stiefel counterpart, D * pr_{D_r}, is D * dr_projector_matrix(U @ U.T).
    """
    D = float(D)
    if D < 0.0:
        raise ParameterError("D must be nonnegative")
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[-1]
    _, s, vt = np.linalg.svd(ad_coords(to_wedge(gamma), n))
    V = vt[s <= 1e-9 * max(s[0], 1e-300)]
    return D * (np.eye(wedge_dim(n)) - V.T @ V)


# ---------------------------------------------------------------------------
# Stiefel specialization


def stiefel_total_inertia(a, D: float) -> InertiaOperator:
    """The operator E + D I^{-1} built on the rational inertia.

    Acts on Ei ^ Ej by multiplication with D / (a_i a_j); writing v = I w,
    the momentum splits as k_bold = pr_{D_r}(I_tot v) + pr_{H_r}(v).
    """
    op = InertiaOperator.wedge_products_chaplygin(a, D)
    return InertiaOperator.wedge_diagonal(op.n, 1.0 + float(D) / op.diag)


def _stiefel_velocity(kc, U, op, D):
    """Wedge coordinates of w solving I w + D pr_{D_r}(w) = k_bold, and the
    matrix of pr_{D_r}; batched."""
    P = dr_projector_matrix(U @ np.swapaxes(U, -1, -2))
    return _solve(op.dense_matrix + D * P, kc[..., None])[..., 0], P


# ---------------------------------------------------------------------------
# flat charts


class LPRChart(Chart):
    """Flat chart (w, Pi upper triangle); the ambient measure chart."""

    config_keys = ("n", "inertia")
    constraints = None

    def __init__(self, op: InertiaOperator, eps: float):
        self.op = op
        self.n = op.n
        self.N = op.N
        self.eps = float(eps)
        self.iu = np.triu_indices(self.N)
        self.dim = self.N + self.iu[0].size
        # coordinate of Pi[i, j]: the upper-triangle entry (min(i, j), max(i, j))
        upper = np.zeros((self.N, self.N), dtype=int)
        upper[self.iu] = np.arange(self.N, self.dim)
        self.pi_index = np.maximum(upper, upper.T)

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.inertia_operator(), cfg.epsilon)

    def _split(self, coords):
        coords = np.asarray(coords, dtype=float)
        return coords[..., : self.N], np.take(coords, self.pi_index, axis=-1)

    def _pack(self, wc, Pi):
        return np.concatenate([wc, Pi[..., self.iu[0], self.iu[1]]], axis=-1)

    def _rates(self, coords):
        """The field at coords (..., d), then Pi, ad_w and K = I + Pi."""
        wc, Pi = self._split(coords)
        A = ad_coords(wc, self.n)
        # [I w, w] + (1 - eps) [Pi w, w] = -ad_w (I w + (1 - eps) Pi w)
        Iw = self.op.apply_coords(wc)
        Pw = np.einsum("...ij,...j->...i", Pi, wc)
        rhs = -np.einsum("...ij,...j->...i", A, Iw + (1.0 - self.eps) * Pw)
        K = self.op.dense_matrix + Pi
        dwc = _solve_pd(K, rhs)
        # dPi = eps (Pi A - A Pi) = eps (Pi A + (Pi A)^T), as A is skew and Pi
        # symmetric; only its upper triangle is packed
        PA = Pi @ A
        i, j = self.iu
        rates = np.concatenate([dwc, self.eps * (PA[..., i, j] + PA[..., j, i])], axis=-1)
        return rates, (Pi, A, K)

    def _divergence(self, Pi, ad_w, K):
        """-tr(K^-1 ad_w B) with B = I + (1 - eps) Pi.  The w block of the
        Jacobian is K^-1 (ad_{Bw} - ad_w B), and tr(K^-1 ad_{Bw}) vanishes,
        K^-1 being symmetric and ad_{Bw} skew.  The Pi block adds nothing:
        its diagonal entries are those of eps (dPi ad_w - ad_w dPi) for unit
        dPi, diagonal entries of the skew ad_w."""
        B = self.op.dense_matrix + (1.0 - self.eps) * Pi
        return -np.trace(np.linalg.solve(K, ad_w @ B), axis1=-2, axis2=-1)

    density_exponent = 0.5

    def log_base(self, coords):
        """log det(I + Pi); DefinitenessError unless the determinant is positive."""
        sign, logdet = np.linalg.slogdet(self.op.dense_matrix + self._split(coords)[1])
        if np.any(sign <= 0):
            raise DefinitenessError("I + Pi must have positive determinant")
        return logdet

    def log_base_grad(self, coords):
        """Gradient (..., d) of log_base at coords (..., d): 0 on w; on the
        packed Pi, K^-1 on the diagonal and 2 K^-1 above it, where one
        coordinate moves both Pi_ij and Pi_ji (K = I + Pi)."""
        wc, Pi = self._split(coords)
        K = self.op.dense_matrix + Pi
        _check_pd(K)
        i, j = self.iu
        grad_pi = np.linalg.inv(K)[..., i, j] * np.where(i == j, 1.0, 2.0)
        return np.concatenate([np.zeros_like(wc), grad_pi], axis=-1)

    def flatten(self, coords):
        """Chart coordinates (w, Pi) of coordinates (k_bold, Pi) (..., d), as
        ``random_elpr_state`` draws them: w solves (I + Pi) w = k_bold."""
        kc, Pi = self._split(coords)
        return self._pack(_velocity(kc, Pi, self.op), Pi)

    def random_coords(self, rng, zero_constants=False):
        return self.flatten(random_elpr_state(self.n, rng))

    def columns(self):
        names = pair_labels(self.n, "w")
        return names + [f"Pi{i + 1}_{j + 1}" for i, j in zip(*self.iu)]

    def velocity(self, coords):
        """Wedge coordinates of w at coords (..., d), solved back from
        k_bold = (I + Pi) w, as ``flatten`` solves a sampled k_bold."""
        wc, Pi = self._split(coords)
        return _velocity(_k_coords(wc, Pi, self.op), Pi, self.op)

    def integrals(self, coords):
        wc, Pi = self._split(coords)
        kc = _k_coords(wc, Pi, self.op)
        return {"H": _energy(kc, _velocity(kc, Pi, self.op))}

    def extra_drifts(self, states):
        eigs = np.linalg.eigvalsh(self._split(states)[1])
        return {"spectrum_drift": np.max(np.abs(eigs - eigs[..., :1, :]), axis=(-2, -1))}

    def gated(self, first):
        return {"H_drift", "spectrum_drift"}


class LPRStiefelChart(_StiefelChart):
    """Flat chart (k_bold wedge coords, raw entries of U)."""

    config_keys = ("a", "D", "r")
    _lead = "k"

    def __init__(self, a, D: float, r: int, eps: float):
        self.a = np.asarray(a, dtype=float)
        if self.a.size < 2 or np.any(self.a <= 0.0):
            raise ParameterError("a: expected two or more positive numbers")
        self.D = float(D)
        if self.D <= np.max(self.a) ** 2:
            raise ParameterError(f"D: must exceed every product a_i a_j, got {D!r}")
        op = InertiaOperator.wedge_products_chaplygin(self.a, self.D)
        super().__init__(op, r, eps, op.n, 1.0 / self.a)
        self.density_exponent = -(self.n - self.r - 1) / 2.0  # independent of eps

    @classmethod
    def from_config(cls, cfg):
        a, D = cfg.vector("a"), cfg.get("D", float, required=True)
        return cls(a, D, cfg.get("r", int, required=True), cfg.epsilon)

    def _rates(self, coords):
        """The field at coords (..., d), then k_bold, P = pr_{D_r} and w."""
        kc, U = self._split(coords)
        wc, P = _stiefel_velocity(kc, U, self.op, self.D)
        dkc = -np.einsum("...ij,...j->...i", ad_coords(wc, self.n), kc)  # [k_bold, w]
        dU = -self.eps * (from_wedge(wc, self.n) @ U)
        return np.concatenate([dkc, dU.reshape(kc.shape[:-1] + (-1,))], axis=-1), (kc, P, wc)

    def _divergence(self, kc, P, wc):
        """With T = I + D P and T w = k_bold, d[k, w] = ad_k dw - ad_w dk, so
        the momentum block is tr(T^-1 ad_k), and the frame term is
        elr._frame_divergence with u = D w."""
        T = self.op.dense_matrix + self.D * P
        return _frame_divergence(T, ad_coords(kc, self.n), P, self.D * wc, self.eps, self.n)

    def random_coords(self, rng, zero_constants=False):
        return random_lpr_stiefel_state(self.n, self.r, rng)

    def integrals(self, coords):
        kc, U = self._split(coords)
        return {"H": _energy(kc, _stiefel_velocity(kc, U, self.op, self.D)[0])}

    def gated(self, first):
        return {"H_drift"}


# ---------------------------------------------------------------------------
# random states


def random_elpr_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random (k_bold, Pi): unit k_bold's wedge coordinates, then the
    upper triangle of a random positive semidefinite Pi with eigenvalues
    uniform on [0, 0.5), in the layout of LPRChart, whose ``flatten`` solves
    w from k_bold."""
    N = wedge_dim(n)
    kc = rng.standard_normal(N)
    kc = kc / np.linalg.norm(kc)
    B = rng.standard_normal((N, N))
    q, _ = np.linalg.qr(B)
    Pi = q @ np.diag(rng.uniform(0.0, 0.5, size=N)) @ q.T
    Pi = 0.5 * (Pi + Pi.T)
    return np.concatenate([kc, Pi[np.triu_indices(N)]])


# Seeded random chart coordinates (k_bold, U), unit k_bold and a random
# Stiefel point: the veselova draw, whose momentum block has the same layout.
random_lpr_stiefel_state = random_veselova_state
