"""LR-type constrained rigid-body flow on so(n) with a twisted frame.

State (multiplier form): angular velocity w in so(n) and a frame
e_1, ..., e_k spanning the constraint subspace H.  With m = I w the
equations are

    dm/dt   = [m, w] + sum_i lam^i e_i,
    de_i/dt = eps [e_i, w],

where the multipliers enforce d/dt <w, e_i> = 0:

    lam^i = - sum_j A^{ij} <e_j, I^{-1}[m, w]>,   A_ij = <e_i, I^{-1} e_j>.

The twist parameter eps rotates the constraint subspace along the flow;
eps = 1 is the classical left-invariant case.  For eps != 0 the flow on the
full linear chart (w, e_1..e_k) preserves the measure

    det(A)^(1/(2 eps)) dw de_1 ... de_k,

and this holds for any linearly independent (not necessarily orthonormal)
frame configuration.

Momentum form: with an orthonormal frame e_{k+1}, ..., e_N of the
complementary subspace D and

    m_bold = pr_D I w + pr_H w = J w,   J = Id + pr_D (I - Id),

the equivalent equations are

    d(m_bold)/dt = eps [m_bold, w] + (1 - eps) pr_D [I w, w],
    de_i/dt      = eps [e_i, w],   i = k+1..N,

and on the manifold of orthonormal D-frames the invariant density is

    det(<I e_i, e_j>)_{i,j>k} ^ (1/(2 eps) - 1).

The momentum kernel takes the matrix of pr_D, not the frame, and the
Veselova flow (nonholo.veselova) runs it with D = D_r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import liealg
from .chart import Chart, pair_labels
from .errors import DimensionError, ParameterError, SingularityError
from .liealg import (
    Frame,
    InertiaOperator,
    ad_coords,
    commutator,
    from_wedge,
    inner_product,
    to_wedge,
    wedge_dim,
)

__all__ = [
    "ELRMultiplierState",
    "ELRMomentumState",
    "multipliers",
    "analytic_divergence",
    "momentum_of",
    "omega_of",
    "first_integrals",
    "FirstIntegrals",
    "MultiplierChart",
    "MomentumChart",
    "random_multiplier_state",
    "random_momentum_state",
    "momentum_partner",
]


@dataclass(frozen=True, eq=False)
class ELRMultiplierState:
    """Multiplier-form state: omega in so(n), H-frame, constraint constants."""

    omega: np.ndarray
    frames: Frame
    constants: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        liealg.check_skew(omega)
        if omega.shape[-1] != self.frames.n:
            raise DimensionError("omega and frame sizes differ")
        constants = np.asarray(self.constants, dtype=float)
        if constants.shape != (self.frames.k,):
            raise DimensionError("one constraint constant per frame element")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "constants", constants)

    @classmethod
    def from_omega(cls, omega, frames: Frame) -> "ELRMultiplierState":
        """Take the constraint constants c_i = <omega, e_i> from the data."""
        c = inner_product(np.asarray(omega, dtype=float), frames.elems)
        return cls(omega, frames, c)

    @property
    def n(self) -> int:
        return self.frames.n

    @property
    def k(self) -> int:
        return self.frames.k

    def phi(self) -> np.ndarray:
        """Current constraint values <omega, e_i>."""
        return inner_product(self.omega, self.frames.elems)


@dataclass(frozen=True, eq=False)
class ELRMomentumState:
    """Momentum-form state: m_bold in so(n) and an orthonormal D-frame.

    tolerance bounds the accepted Gram deviation; trajectory samples
    carrying integration drift may pass a looser value than the default.
    """

    m_bold: np.ndarray
    frames_d: Frame
    tolerance: float = 1e-10

    def __post_init__(self):
        m = np.asarray(self.m_bold, dtype=float)
        liealg.check_skew(m)
        if m.shape[-1] != self.frames_d.n:
            raise DimensionError("m_bold and frame sizes differ")
        g = self.frames_d.gram()
        if np.max(np.abs(g - np.eye(self.frames_d.k))) > self.tolerance:
            raise ParameterError("momentum form requires an orthonormal D-frame")
        object.__setattr__(self, "m_bold", m)

    @property
    def n(self) -> int:
        return self.frames_d.n

    @property
    def k(self) -> int:
        """Number of constraints (codimension of the D-frame)."""
        return wedge_dim(self.n) - self.frames_d.k


# ---------------------------------------------------------------------------
# batched kernels on wedge coordinates


def _frame_solve(A, b):
    """Solve with a k x k frame Gram matrix A; a singular A (linearly
    dependent frame rows) raises SingularityError."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("frame Gram matrix is singular") from exc


def _multiplier_rhs(wc, ec, op, eps):
    """Batched field. wc: (..., N), ec: (..., k, N). Returns (dwc, dec, lam)."""
    ad_w = ad_coords(wc, op.n)
    br = -np.einsum("...ij,...j->...i", ad_w, op.apply_coords(wc))  # [I w, w]
    s = op.solve_coords(br)
    es = op.solve_coords(ec)
    A = ec @ np.swapaxes(es, -1, -2)
    b = np.einsum("...kN,...N->...k", ec, s)
    lam = -_frame_solve(A, b[..., None])[..., 0]
    dmc = br + np.einsum("...k,...kN->...N", lam, ec)
    dwc = op.solve_coords(dmc)
    dec = -eps * (ec @ np.swapaxes(ad_w, -1, -2))  # eps [e_i, w]
    return dwc, dec, lam


def _momentum_velocity(mc, P, op):
    """Wedge coordinates of w solving m_bold = w + pr_D(I w - w), batched;
    P (..., N, N) is the wedge-coordinate matrix of pr_D."""
    eye, shift = op.identity_and_shift
    Jm = eye + P @ shift
    return np.linalg.solve(Jm, mc[..., None])[..., 0]


def _momentum_rhs(mc, P, op, eps):
    """d(m_bold)/dt = eps [m_bold, w] + (1 - eps) pr_D [I w, w], the wedge
    coordinates of w and the matrix ad_w, batched, P as above; the frame
    equation is the caller's."""
    wc = _momentum_velocity(mc, P, op)
    ad_w = ad_coords(wc, op.n)
    br1 = -np.einsum("...ij,...j->...i", ad_w, mc)
    br2 = -np.einsum("...ij,...j->...i", ad_w, op.apply_coords(wc))
    dmc = eps * br1 + (1.0 - eps) * np.einsum("...ij,...j->...i", P, br2)
    return dmc, wc, ad_w


def _energy(mc, wc, n):
    """<m, w>/2 from the wedge coordinates mc, wc (..., N), batched: the
    energy of every flow here, with m the momentum its w pairs with."""
    return 0.5 * inner_product(from_wedge(mc, n), from_wedge(wc, n))


def _first_integrals(wc, ec, op):
    """(phi (..., k), H, F) of the multiplier form at w, e_1..e_k given by
    wc (..., N) and ec (..., k, N), batched; see first_integrals."""
    n = op.n
    elems = from_wedge(ec, n)
    # w once per frame element, as a copy: einsum would sum a stride-0
    # broadcast in another order, and a batch would round unlike one sample
    w = np.repeat(from_wedge(wc, n)[..., None, :, :], elems.shape[-3], axis=-3)
    mc = op.apply_coords(wc)
    H = _energy(mc, wc, n)
    coeff = _frame_solve(ec @ np.swapaxes(ec, -1, -2), inner_product(elems, w)[..., None])
    pr_h_w = from_wedge((np.swapaxes(coeff, -1, -2) @ ec)[..., 0, :], n)
    F = H - inner_product(pr_h_w, from_wedge(mc, n))
    return inner_product(w, elems), H, F


def _log_gram_det(ec, op, mode):
    if mode == "inverse_inertia":
        es = op.solve_coords(ec)
    else:
        es = op.apply_coords(ec)
    A = np.einsum("...iN,...jN->...ij", ec, es)
    sign, logdet = np.linalg.slogdet(A)
    if np.any(sign <= 0):
        raise SingularityError("frame Gram determinant is not positive")
    return logdet


# ---------------------------------------------------------------------------
# state-level operations


def multipliers(state: ELRMultiplierState, op: InertiaOperator) -> np.ndarray:
    """Constraint multipliers lam^i at the given state."""
    _, _, lam = _multiplier_rhs(to_wedge(state.omega), state.frames.coords, op, 1.0)
    return lam


def analytic_divergence(state: ELRMultiplierState, op: InertiaOperator) -> float:
    """Closed-form divergence of the momentum block of the multiplier field.

    Only the constraint-force term contributes:

        div = sum_{ij} A^{ij} <[I^{-1} e_i, I^{-1} m], e_j>.
    """
    ec = state.frames.coords
    es = op.solve_coords(ec)
    A = ec @ es.T
    Ainv = np.linalg.inv(A)
    m = op.apply(state.omega)
    ei_inv = from_wedge(es, state.n)
    br = commutator(ei_inv, op.solve(m))
    inner = np.einsum("iN,jN->ij", to_wedge(br), ec)
    return float(np.sum(Ainv * inner))


def momentum_of(
    state: ELRMultiplierState, op: InertiaOperator, frames_d: Frame | None = None
) -> ELRMomentumState:
    """Momentum-form state from an orthonormal multiplier-form state.

    The D-frame defaults to an orthonormal completion of the H-frame.
    """
    g = state.frames.gram()
    if np.max(np.abs(g - np.eye(state.k))) > 1e-10:
        raise ParameterError("momentum_of requires an orthonormal H-frame")
    if frames_d is None:
        frames_d = liealg.orthonormal_complement(state.frames)
    pr_h, _ = liealg.subspace_projectors(state.frames)
    pr_d, _ = liealg.subspace_projectors(frames_d)
    m_bold = pr_d(op.apply(state.omega)) + pr_h(state.omega)
    return ELRMomentumState(m_bold, frames_d)


def momentum_partner(chart, state: ELRMultiplierState):
    """Multiplier form against its momentum form (crosscheck pair); the
    deviation of samples (..., d) is the largest velocity difference."""
    other = MomentumChart(chart.op, chart.k, chart.eps)

    def deviation(ra, rb):
        return np.max(np.abs(chart._split(ra)[0] - other.velocity(rb)), axis=-1)

    return other, other.flatten(momentum_of(state, chart.op)), deviation


def omega_of(state: ELRMomentumState, op: InertiaOperator) -> np.ndarray:
    """Angular velocity from a momentum-form state: solve J w = m_bold."""
    fc = state.frames_d.coords
    return from_wedge(_momentum_velocity(to_wedge(state.m_bold), fc.T @ fc, op), state.n)


@dataclass(frozen=True)
class FirstIntegrals:
    phi: np.ndarray
    energy: float
    modified_energy: float


def first_integrals(state: ELRMultiplierState, op: InertiaOperator) -> FirstIntegrals:
    """Constraint values phi_i, energy H = <I w, w>/2, and F = H - <pr_H w, I w>.

    phi_i is conserved for every eps; H is conserved when all constants
    vanish; F is conserved exactly at eps = 1.
    """
    phi, H, F = _first_integrals(to_wedge(state.omega), state.frames.coords, op)
    return FirstIntegrals(phi=phi, energy=float(H), modified_energy=float(F))


# ---------------------------------------------------------------------------
# flat charts


class _FrameChart(Chart):
    """Shared by the two elr charts: an so(n) block, then frame rows."""

    config_keys = ("n", "k", "inertia")
    eps_in_density = True

    def __init__(self, op: InertiaOperator, k: int, eps: float):
        self.op = op
        self.n = op.n
        self.N = op.N
        self.k = int(k)
        if not 1 <= self.k < self.N:
            raise DimensionError(f"need 1 <= k < N = {self.N}, got k={k}")
        self.eps = float(eps)
        self.dim = (self.k + 1) * self.N

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg.inertia_operator(), cfg.get("k", int, required=True), cfg.epsilon)

    def _split(self, coords):
        coords = np.asarray(coords, dtype=float)
        rows = coords[..., self.N :].reshape(coords.shape[:-1] + (-1, self.N))
        return coords[..., : self.N], rows

    def columns(self):
        labels = pair_labels(self.n, self._lead)
        rows = self.dim // self.N - 1
        return labels + [f"{self._row}{s + 1}_{lab[1:]}" for s in range(rows) for lab in labels]


class MultiplierChart(_FrameChart):
    """Flat chart (w, e_1..e_k) by wedge coordinates; full linear space."""

    _lead, _row = "w", "e"
    constraints = None

    def field(self, coords):
        wc, ec = self._split(coords)
        dwc, dec, _ = _multiplier_rhs(wc, ec, self.op, self.eps)
        return np.concatenate(
            [dwc, dec.reshape(wc.shape[:-1] + (self.k * self.N,))], axis=-1
        )

    def log_density(self, coords):
        self.check_density()
        _, ec = self._split(coords)
        return _log_gram_det(ec, self.op, "inverse_inertia") / (2.0 * self.eps)

    def flatten(self, state: ELRMultiplierState) -> np.ndarray:
        return np.concatenate([to_wedge(state.omega), state.frames.coords.ravel()])

    def unflatten(self, coords) -> ELRMultiplierState:
        wc, ec = self._split(coords)
        omega = from_wedge(wc, self.n)
        return ELRMultiplierState.from_omega(omega, Frame(from_wedge(ec, self.n)))

    def random_state(self, rng, zero_constants=False):
        return random_multiplier_state(self.n, self.k, rng, zero_constants=zero_constants)

    def integrals(self, coords):
        wc, ec = self._split(coords)
        # scale-free, as in liealg.frame_gram: smallest Gram eigenvalue against the largest
        ev = np.linalg.eigvalsh(ec @ np.swapaxes(ec, -1, -2))
        if np.any(ev[..., 0] <= 1e-12 * np.maximum(ev[..., -1], 0.0)):
            raise SingularityError("frame is numerically dependent (Gram eigenvalue ratio <= 1e-12)")
        phi, H, F = _first_integrals(wc, ec, self.op)
        return {"H": H, "F": F} | {f"phi{i + 1}": phi[..., i] for i in range(self.k)}

    def gated(self, first):
        gated = {f"phi{i + 1}_drift" for i in range(self.k)}
        if max(abs(first[f"phi{i + 1}"]) for i in range(self.k)) <= 1e-12:
            gated.add("H_drift")
        if self.eps == 1.0:
            gated.add("F_drift")
        return gated


class MomentumChart(_FrameChart):
    """Flat chart (m_bold, e_{k+1}..e_N); frames constrained orthonormal."""

    _lead, _row = "m", "f"

    def __init__(self, op: InertiaOperator, k: int, eps: float):
        super().__init__(op, k, eps)
        self.p = self.N - self.k
        self.dim = (self.p + 1) * self.N
        self.frame_index = self.N + np.arange(self.p * self.N).reshape(self.p, self.N)

    def field(self, coords):
        mc, fc = self._split(coords)
        PD = np.swapaxes(fc, -1, -2) @ fc
        dmc, _, ad_w = _momentum_rhs(mc, PD, self.op, self.eps)
        dfc = -self.eps * (fc @ np.swapaxes(ad_w, -1, -2))  # eps [f_i, w]
        return np.concatenate(
            [dmc, dfc.reshape(mc.shape[:-1] + (self.p * self.N,))],
            axis=-1,
        )

    def log_density(self, coords):
        self.check_density()
        _, fc = self._split(coords)
        return (1.0 / (2.0 * self.eps) - 1.0) * _log_gram_det(fc, self.op, "inertia")

    def flatten(self, state: ELRMomentumState) -> np.ndarray:
        return np.concatenate([to_wedge(state.m_bold), state.frames_d.coords.ravel()])

    def unflatten(self, coords) -> ELRMomentumState:
        # loose Gram tolerance: trajectory samples carry integration drift
        mc, fc = self._split(coords)
        return ELRMomentumState(
            from_wedge(mc, self.n), Frame(from_wedge(fc, self.n)), tolerance=1e-6
        )

    def random_state(self, rng, zero_constants=False):
        return random_momentum_state(self.n, self.k, rng)

    def velocity(self, coords):
        """Wedge coordinates of w at coords (..., d)."""
        mc, fc = self._split(coords)
        return _momentum_velocity(mc, np.swapaxes(fc, -1, -2) @ fc, self.op)

    def integrals(self, coords):
        wc = self.velocity(coords)
        return {"H": _energy(self.op.apply_coords(wc), wc, self.n)}


# ---------------------------------------------------------------------------
# random states


def random_multiplier_state(
    n: int,
    k: int,
    rng: np.random.Generator,
    orthonormal_frames: bool = True,
    zero_constants: bool = False,
) -> ELRMultiplierState:
    """Seeded random state: unit-speed omega, generic k-element frame."""
    N = wedge_dim(n)
    if not 1 <= k <= N - 1:
        raise DimensionError(f"need 1 <= k <= N-1 = {N - 1}, got k={k}")
    ec = rng.standard_normal((k, N))
    if orthonormal_frames:
        ec = liealg.orthonormalize_rows(ec)
    wc = rng.standard_normal(N)
    if zero_constants:
        g = ec @ ec.T
        wc = wc - ec.T @ np.linalg.solve(g, ec @ wc)
    wc = wc / np.linalg.norm(wc)
    frames = Frame(from_wedge(ec, n), orthonormal=orthonormal_frames)
    return ELRMultiplierState.from_omega(from_wedge(wc, n), frames)


def random_momentum_state(n: int, k: int, rng: np.random.Generator) -> ELRMomentumState:
    """Seeded random momentum-form state with an orthonormal D-frame."""
    N = wedge_dim(n)
    if not 1 <= k <= N - 1:
        raise DimensionError(f"need 1 <= k <= N-1 = {N - 1}, got k={k}")
    p = N - k
    fc = liealg.orthonormalize_rows(rng.standard_normal((p, N)))
    mc = rng.standard_normal(N)
    mc = mc / np.linalg.norm(mc)
    return ELRMomentumState(from_wedge(mc, n), Frame(from_wedge(fc, n), orthonormal=True))
