"""LR-type constrained rigid-body flow on so(n) with a twisted frame.

State (multiplier form): angular velocity w in so(n) and a frame
e_1, ..., e_k spanning the constraint subspace H.  With m = I w the
equations are

    dm/dt   = [m, w] + sum_i lam^i e_i,
    de_i/dt = eps [e_i, w],

where the lam^i enforce d/dt <w, e_i> = 0:

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

import numpy as np

from . import liealg
from .chart import Chart, pair_labels
from .errors import DimensionError, ParameterError, SingularityError
from .liealg import (
    InertiaOperator,
    ad_coords,
    from_wedge,
    inner_product,
    wedge_dim,
)

__all__ = [
    "MultiplierChart",
    "MomentumChart",
    "random_multiplier_state",
    "random_momentum_state",
    "momentum_partner",
]


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
    """Batched field. wc: (..., N), ec: (..., k, N). Returns (dwc, dec) and
    the I^-1 e_i, A and ad_w it was built from."""
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
    return dwc, dec, (es, A, ad_w)


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


def _frame_divergence(J, M, P, u, eps, n):
    """tr(J^-1 (M - eps (ad_{Pu} - P ad_u))), batched: the divergence of a
    momentum field whose velocity solves J w = m with J = J_0 + P S, u = S w.

    M J^-1 is the derivative of the momentum rate along m at a fixed frame,
    so tr(J^-1 M) is the momentum block of the trace.  The frame F moves by
    F' = F Omega(w), Omega(w) = eps ad_w (or eps w acting on R^n), and P is
    Ad-equivariant in F.  The frame block is the trace of dF |-> dF Omega,
    which is zero as Omega is skew, plus the trace of dF |-> F Omega(dw)
    with dw = -J^-1 dP u.  That map factors through so(n), so by
    tr(A B) = tr(B A) its trace is that of v |-> dw for dF = F Omega(v):
    there dP = -eps [ad_v, P], and dw = eps J^-1 [ad_v, P] u
    = -eps J^-1 (ad_{Pu} - P ad_u) v.
    """
    Pu = np.einsum("...ij,...j->...i", P, u)
    ad = ad_coords(np.stack([Pu, u], axis=-2), n)
    A = M - eps * (ad[..., 0, :, :] - P @ ad[..., 1, :, :])
    return np.trace(np.linalg.solve(J, A), axis1=-2, axis2=-1)


def _energy(mc, wc, n):
    """<m, w>/2 from the wedge coordinates mc, wc (..., N), batched: the
    energy of every flow here, with m the momentum its w pairs with."""
    return 0.5 * inner_product(from_wedge(mc, n), from_wedge(wc, n))


def _first_integrals(wc, ec, op):
    """(phi (..., k), H, F) of the multiplier form at w, e_1..e_k given by
    wc (..., N) and ec (..., k, N), batched: the constraint values
    phi_i = <w, e_i>, the energy H = <I w, w>/2 and F = H - <pr_H w, I w>.

    phi_i is conserved for every eps; H is conserved when all constants
    vanish; F is conserved exactly at eps = 1."""
    n = op.n
    elems = from_wedge(ec, n)
    # w once per frame element, as a copy: einsum would sum a stride-0
    # broadcast in another order, and a batch would round unlike one sample
    w = np.repeat(from_wedge(wc, n)[..., None, :, :], elems.shape[-3], axis=-3)
    mc = op.apply_coords(wc)
    H = _energy(mc, wc, n)
    coeff = _frame_solve(ec @ np.swapaxes(ec, -1, -2), inner_product(elems, w)[..., None])
    # sum_i coeff_i e_i in a fixed order over the k frame rows: a small BLAS
    # product's last bits would depend on the operands' memory layout
    pr_h = coeff[..., 0, :] * ec[..., 0, :]
    for i in range(1, ec.shape[-2]):
        pr_h = pr_h + coeff[..., i, :] * ec[..., i, :]
    pr_h_w = from_wedge(pr_h, n)
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
# crosscheck partner


def momentum_partner(chart, coords):
    """Multiplier form against its momentum form (crosscheck pair): the
    momentum chart, the coordinates (m_bold, D-frame) of the multiplier
    coordinates (d,), and the largest velocity difference of samples
    (..., d).  The H-frame rows E must be orthonormal within 1e-10; the
    D-frame rows complete them to an orthonormal basis, and
    m_bold = pr_D I w + pr_H w."""
    other = MomentumChart(chart.op, chart.k, chart.eps)
    wc, ec = chart._split(coords)
    if np.max(np.abs(ec @ ec.T - np.eye(chart.k))) > 1e-10:
        raise ParameterError("the frame rows are not orthonormal within 1e-10")
    # the einsums' summation order follows the rows' memory layout; Fortran
    # order keeps the lifted coordinates' bits
    ec = np.asfortranarray(ec)
    fc = np.asfortranarray(np.linalg.svd(ec)[2][chart.k :])

    def pr(rows, c):
        return np.einsum("kN,...k->...N", rows, np.einsum("kN,...N->...k", rows, c))

    mc = pr(fc, chart.op.apply_coords(wc)) + pr(ec, wc)

    def deviation(ra, rb):
        return np.max(np.abs(chart._split(ra)[0] - other.velocity(rb)), axis=-1)

    return other, np.concatenate([mc, fc.ravel()]), deviation


# ---------------------------------------------------------------------------
# flat charts


class _FrameChart(Chart):
    """Shared by the two elr charts: an so(n) block, then frame rows."""

    config_keys = ("n", "k", "inertia")

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

    def _rates(self, coords):
        """The field at coords (..., d), then the frame rows E and the
        I^-1 E, A and ad_w of _multiplier_rhs."""
        wc, ec = self._split(coords)
        dwc, dec, (es, A, ad_w) = _multiplier_rhs(wc, ec, self.op, self.eps)
        rates = np.concatenate([dwc, dec.reshape(wc.shape[:-1] + (self.k * self.N,))], axis=-1)
        return rates, (ec, es, A, ad_w)

    def _divergence(self, ec, es, A, ad_w):
        """Only the constraint force contributes:

            div = sum_{ij} A^{ij} <[I^{-1} e_i, w], e_j>,   A_ij = <e_i, I^{-1} e_j>.

        The frame block adds the trace of eps ad_w, which is skew."""
        br = -es @ np.swapaxes(ad_w, -1, -2)  # rows [I^{-1} e_i, w]
        return np.trace(_frame_solve(A, br @ np.swapaxes(ec, -1, -2)), axis1=-2, axis2=-1)

    density_exponent = property(Chart._half_inverse_eps)

    def log_base(self, coords):
        """log det(E I^-1 E^T) of the frame rows E."""
        return _log_gram_det(self._split(coords)[1], self.op, "inverse_inertia")

    def log_base_grad(self, coords):
        """Gradient (..., d) of log_base at coords (..., d): 0 on w and
        2 A^-1 E I^-1 on the frame rows E, A = E I^-1 E^T."""
        wc, ec = self._split(coords)
        es = self.op.solve_coords(ec)
        rows = 2.0 * _frame_solve(ec @ np.swapaxes(es, -1, -2), es)
        return np.concatenate([np.zeros_like(wc), rows.reshape(wc.shape[:-1] + (-1,))], axis=-1)

    def random_coords(self, rng, zero_constants=False):
        return random_multiplier_state(self.n, self.k, rng, zero_constants=zero_constants)

    def integrals(self, coords):
        wc, ec = self._split(coords)
        # scale-free: smallest Gram eigenvalue against the largest
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

    def _rates(self, coords):
        """The field at coords (..., d), then m_bold, P = F^T F and the w
        and ad_w of _momentum_rhs."""
        mc, fc = self._split(coords)
        PD = np.swapaxes(fc, -1, -2) @ fc
        dmc, wc, ad_w = _momentum_rhs(mc, PD, self.op, self.eps)
        dfc = -self.eps * (fc @ np.swapaxes(ad_w, -1, -2))  # eps [f_i, w]
        rates = np.concatenate(
            [dmc, dfc.reshape(mc.shape[:-1] + (self.p * self.N,))],
            axis=-1,
        )
        return rates, (mc, PD, wc, ad_w)

    def _divergence(self, mc, P, wc, ad_w):
        """Also veselova's, with P = pr_{D_r}.  With Jm = Id + P shift
        (shift = I - Id), d[m, w] = ad_m dw - ad_w dm and d[Iw, w] =
        (ad_{Iw} - ad_w I) dw, where dw = Jm^-1 dm and every ad is skew; the
        frame term is _frame_divergence with u = shift w."""
        op, eps = self.op, self.eps
        eye, shift = op.identity_and_shift
        ad = ad_coords(np.stack([mc, op.apply_coords(wc)], axis=-2), op.n)
        M = eps * ad[..., 0, :, :] + (1.0 - eps) * (
            P @ (ad[..., 1, :, :] - op.apply_coords(ad_w))
        )
        u = wc @ shift  # shift is symmetric
        return _frame_divergence(eye + P @ shift, M, P, u, eps, op.n)

    @property
    def density_exponent(self):
        return self._half_inverse_eps() - 1.0

    def log_base(self, coords):
        """log det(F I F^T) of the D-frame rows F."""
        return _log_gram_det(self._split(coords)[1], self.op, "inertia")

    def random_coords(self, rng, zero_constants=False):
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
    zero_constants: bool = False,
) -> np.ndarray:
    """Seeded random chart coordinates (w, e_1..e_k): unit-speed w,
    orthonormal k-element frame."""
    N = wedge_dim(n)
    if not 1 <= k <= N - 1:
        raise DimensionError(f"need 1 <= k <= N-1 = {N - 1}, got k={k}")
    ec = liealg.orthonormalize_rows(rng.standard_normal((k, N)))
    wc = rng.standard_normal(N)
    if zero_constants:
        g = ec @ ec.T
        wc = wc - ec.T @ np.linalg.solve(g, ec @ wc)
    wc = wc / np.linalg.norm(wc)
    return np.concatenate([wc, ec.ravel()])


def random_momentum_state(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded random chart coordinates (m_bold, e_{k+1}..e_N) with an
    orthonormal D-frame."""
    N = wedge_dim(n)
    if not 1 <= k <= N - 1:
        raise DimensionError(f"need 1 <= k <= N-1 = {N - 1}, got k={k}")
    fc = liealg.orthonormalize_rows(rng.standard_normal((N - k, N)))
    mc = rng.standard_normal(N)
    mc = mc / np.linalg.norm(mc)
    return np.concatenate([mc, fc.ravel()])
