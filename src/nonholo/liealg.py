"""Linear algebra on so(n): wedge basis, inertia operators, frames, projectors.

Elements of so(n) are plain skew-symmetric (n, n) numpy arrays.  Every
function broadcasts over leading batch dimensions unless stated otherwise.

The inner product used throughout is

    <x, y> = -trace(x @ y) / 2.

With this normalization the wedge basis

    Ei ^ Ej = Ei Ej^T - Ej Ei^T,   1 <= i < j <= n,

ordered lexicographically in (i, j), is orthonormal, and the standard
identification of R^3 with so(3) is an isometry that carries the cross
product to the commutator.

Wedge coordinates of x are the coefficients of x in this basis; for skew x
they are simply the strictly upper-triangular entries x[i, j], i < j.

The flow kernels stay in wedge coordinates.  Brackets go through the
structure constants of so(n), held as one (N, N * N) table per n:
row a is the matrix of ad_{E_a} = [E_a, .], flattened, so that for
coordinates w the matrix of ad_w is (w @ table).reshape(N, N)
(``ad_coords``).  The table holds N^3 floats, 176 kB at n = 8 and
2.3 MB at n = 12, and is built on the first bracket at that n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DefinitenessError,
    DimensionError,
    ParameterError,
    SingularityError,
)

__all__ = [
    "wedge_basis",
    "wedge_index_pairs",
    "wedge_dim",
    "to_wedge",
    "from_wedge",
    "inner_product",
    "commutator",
    "hat",
    "unhat",
    "ad_matrix",
    "ad_coords",
    "check_skew",
    "random_skew",
    "InertiaOperator",
    "Frame",
    "StiefelPoint",
    "frame_gram",
    "subspace_projectors",
    "projector_matrix",
    "dr_projector_matrix",
    "restricted_det",
    "isotropy_frame",
    "orthonormal_complement",
    "orthonormalize_rows",
    "complete_columns",
    "random_stiefel",
]


class _WedgeIndex:
    """Cached index bookkeeping for the wedge basis of so(n)."""

    def __init__(self, n):
        rows, cols = np.triu_indices(n, 1)
        self.n = n
        self.N = rows.size
        self.rows = rows
        self.cols = cols
        self.pairs = list(zip(rows.tolist(), cols.tolist()))
        basis = np.zeros((self.N, n, n))
        basis[np.arange(self.N), rows, cols] = 1.0
        basis[np.arange(self.N), cols, rows] = -1.0
        self.basis = basis

    @cached_property
    def structure(self):
        """(N, N * N) table: row a is the matrix of ad_{E_a}, entry (c, b)
        the c-th coordinate of [E_a, E_b]."""
        b = self.basis
        br = b[:, None] @ b[None] - b[None] @ b[:, None]
        table = np.swapaxes(br[..., self.rows, self.cols], -1, -2).reshape(self.N, -1)
        table.flags.writeable = False
        return table

    @cached_property
    def complement_gather(self):
        """Flat indices into an n x n matrix Q of Q_ai, Q_jb, Q_aj and Q_ib,
        each (N * N,), over row (a, b) and column (i, j) of an N x N
        wedge-coordinate matrix."""
        a, b = self.rows[:, None], self.cols[:, None]
        i, j = self.rows[None, :], self.cols[None, :]
        return tuple((p * self.n + q).ravel() for p, q in ((a, i), (j, b), (a, j), (i, b)))


@lru_cache(maxsize=None)
def _windex(n: int) -> _WedgeIndex:
    if n < 2:
        raise DimensionError(f"so(n) needs n >= 2, got n={n}")
    return _WedgeIndex(n)


def wedge_dim(n: int) -> int:
    """Dimension N = n(n-1)/2 of so(n)."""
    return _windex(n).N


def wedge_basis(n: int) -> list[np.ndarray]:
    """Ordered orthonormal basis [Ei ^ Ej for i < j, lexicographic]."""
    return [b.copy() for b in _windex(n).basis]


def wedge_index_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, in the order used by the wedge basis."""
    return list(_windex(n).pairs)


def to_wedge(x: np.ndarray) -> np.ndarray:
    """Wedge coordinates of a skew matrix, shape (..., n, n) -> (..., N)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if x.ndim < 2 or x.shape[-2] != n:
        raise DimensionError(f"expected square matrices, got shape {x.shape}")
    w = _windex(n)
    return x[..., w.rows, w.cols]


def from_wedge(c: np.ndarray, n: int | None = None) -> np.ndarray:
    """Skew matrix from wedge coordinates, shape (..., N) -> (..., n, n)."""
    c = np.asarray(c, dtype=float)
    N = c.shape[-1]
    if n is None:
        n = int(round((1.0 + np.sqrt(1.0 + 8.0 * N)) / 2.0))
    if n * (n - 1) // 2 != N:
        raise DimensionError(f"coordinate length {N} is not n(n-1)/2 for any n")
    w = _windex(n)
    x = np.zeros(c.shape[:-1] + (n, n))
    x[..., w.rows, w.cols] = c
    x[..., w.cols, w.rows] = -c
    return x


def inner_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = -trace(x y)/2; equals the dot product of wedge coordinates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionError(f"mixed so(n) sizes: {x.shape} vs {y.shape}")
    return -0.5 * np.einsum("...ij,...ji->...", x, y)


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] = x y - y x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise DimensionError(f"mixed so(n) sizes: {x.shape} vs {y.shape}")
    return x @ y - y @ x


def hat(v: np.ndarray) -> np.ndarray:
    """R^3 -> so(3), (v1, v2, v3) |-> [[0, -v3, v2], [v3, 0, -v1], [-v2, v1, 0]].

    hat(u) w = u x w, <hat u, hat v> = u . v and [hat u, hat v] = hat(u x v).
    """
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != 3:
        raise DimensionError(f"hat expects 3-vectors, got shape {v.shape}")
    x = np.zeros(v.shape[:-1] + (3, 3))
    x[..., 0, 1] = -v[..., 2]
    x[..., 1, 0] = v[..., 2]
    x[..., 0, 2] = v[..., 1]
    x[..., 2, 0] = -v[..., 1]
    x[..., 1, 2] = -v[..., 0]
    x[..., 2, 1] = v[..., 0]
    return x


def unhat(x: np.ndarray) -> np.ndarray:
    """so(3) -> R^3, inverse of hat."""
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (3, 3):
        raise DimensionError(f"unhat expects (3, 3) matrices, got shape {x.shape}")
    return np.stack([x[..., 2, 1], x[..., 0, 2], x[..., 1, 0]], axis=-1)


def ad_coords(wc: np.ndarray, n: int) -> np.ndarray:
    """Matrix (..., N, N) of ad_w = [w, .] in wedge coordinates, from the
    wedge coordinates wc (..., N) of w; [w, y] has coordinates ad_w @ y."""
    w = _windex(n)
    return (np.asarray(wc) @ w.structure).reshape(np.shape(wc)[:-1] + (w.N, w.N))


def ad_matrix(omega: np.ndarray) -> np.ndarray:
    """Matrix of ad_omega = [omega, .] in wedge coordinates, shape (..., N, N)."""
    omega = np.asarray(omega, dtype=float)
    return ad_coords(to_wedge(omega), omega.shape[-1])


def check_skew(x: np.ndarray, tol: float = 1e-13) -> None:
    """Raise if x is not skew-symmetric within tol * scale."""
    x = np.asarray(x, dtype=float)
    scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
    defect = float(np.max(np.abs(x + np.swapaxes(x, -1, -2)), initial=0.0))
    if defect > tol * scale:
        raise ParameterError(f"matrix is not skew-symmetric (defect {defect:.3e})")


def random_skew(n: int, rng: np.random.Generator, unit: bool = False) -> np.ndarray:
    """Random element of so(n) with standard normal wedge coordinates."""
    c = rng.standard_normal(wedge_dim(n))
    if unit:
        c = c / np.linalg.norm(c)
    return from_wedge(c, n)


# ---------------------------------------------------------------------------
# inertia operators


class InertiaOperator:
    """Symmetric positive definite operator on so(n) in wedge coordinates.

    Kinds:
      * ``wedge_products``: I(Ei ^ Ej) = a_i a_j Ei ^ Ej for a positive
        vector a of length n.
      * ``wedge_products_chaplygin``: I(Ei ^ Ej) = D a_i a_j / (D - a_i a_j)
        Ei ^ Ej, valid when 0 < a_i a_j < D for all i, j.
      * ``wedge_diagonal``: arbitrary positive diagonal in the wedge basis.
      * ``shifted``: base + D * Id.
      * ``general``: arbitrary symmetric positive definite N x N matrix.

    Positive definiteness is verified at construction (sign checks for
    diagonal kinds, Cholesky factorization for the general kind).
    """

    def __init__(self, n, kind, diag=None, mat=None, a=None, D=None):
        self.n = int(n)
        self.N = wedge_dim(self.n)
        self.kind = kind
        self.a = None if a is None else np.asarray(a, dtype=float)
        self.D = None if D is None else float(D)
        if diag is not None:
            diag = np.asarray(diag, dtype=float)
            if diag.shape != (self.N,):
                raise DimensionError(
                    f"diagonal length {diag.shape} does not match N={self.N}"
                )
            if np.any(diag <= 0.0):
                raise DefinitenessError("inertia diagonal must be positive")
            self._diag = diag
            self._mat = None
        else:
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (self.N, self.N):
                raise DimensionError(
                    f"matrix shape {mat.shape} does not match N={self.N}"
                )
            if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
                raise ParameterError("inertia matrix must be symmetric")
            mat = 0.5 * (mat + mat.T)
            try:
                np.linalg.cholesky(mat)
            except np.linalg.LinAlgError as exc:
                raise DefinitenessError("inertia matrix is not positive definite") from exc
            self._diag = None
            self._mat = mat

    # constructors ---------------------------------------------------------

    @classmethod
    def wedge_products(cls, a) -> "InertiaOperator":
        a = np.asarray(a, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise DimensionError("wedge_products needs a vector of length n >= 2")
        if np.any(a <= 0.0):
            raise DefinitenessError("wedge_products requires positive a_i")
        n = a.size
        w = _windex(n)
        return cls(n, "wedge_products", diag=a[w.rows] * a[w.cols], a=a)

    @classmethod
    def wedge_products_chaplygin(cls, a, D) -> "InertiaOperator":
        a = np.asarray(a, dtype=float)
        D = float(D)
        if a.ndim != 1 or a.size < 2:
            raise DimensionError("wedge_products_chaplygin needs a vector of length n >= 2")
        prods = np.outer(a, a)
        if np.any(prods <= 0.0) or np.any(prods >= D):
            raise ParameterError(
                "wedge_products_chaplygin requires 0 < a_i a_j < D for all i, j"
            )
        n = a.size
        w = _windex(n)
        p = a[w.rows] * a[w.cols]
        return cls(n, "wedge_products_chaplygin", diag=D * p / (D - p), a=a, D=D)

    @classmethod
    def wedge_diagonal(cls, n, diag) -> "InertiaOperator":
        return cls(n, "wedge_diagonal", diag=diag)

    @classmethod
    def shifted(cls, base: "InertiaOperator", D) -> "InertiaOperator":
        D = float(D)
        if base._diag is not None:
            return cls(base.n, "shifted", diag=base._diag + D, D=D)
        return cls(base.n, "shifted", mat=base._mat + D * np.eye(base.N), D=D)

    @classmethod
    def general(cls, n, mat) -> "InertiaOperator":
        return cls(n, "general", mat=mat)

    @classmethod
    def identity(cls, n) -> "InertiaOperator":
        return cls(n, "wedge_diagonal", diag=np.ones(wedge_dim(n)))

    @classmethod
    def so3_vector(cls, principal) -> "InertiaOperator":
        """Operator on so(3) with hat(v) |-> hat(diag(principal) v).

        In wedge order (12, 13, 23) the diagonal is (I3, I2, I1).
        """
        principal = np.asarray(principal, dtype=float)
        if principal.shape != (3,):
            raise DimensionError("so3_vector needs three principal values")
        return cls(3, "wedge_diagonal", diag=principal[::-1].copy())

    # application ----------------------------------------------------------

    @property
    def diag(self):
        return None if self._diag is None else self._diag.copy()

    @property
    def matrix(self) -> np.ndarray:
        return self.dense_matrix.copy()

    @cached_property
    def dense_matrix(self) -> np.ndarray:
        """The N x N matrix as a read-only array, built once."""
        mat = np.diag(self._diag) if self._diag is not None else self._mat.copy()
        mat.flags.writeable = False
        return mat

    @cached_property
    def identity_and_shift(self):
        """(Id, matrix - Id) as read-only arrays, built once."""
        eye = np.eye(self.N)
        shift = self.dense_matrix - eye
        eye.flags.writeable = shift.flags.writeable = False
        return eye, shift

    def apply_coords(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if self._diag is not None:
            return c * self._diag
        return c @ self._mat.T

    def solve_coords(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if self._diag is not None:
            return c / self._diag
        return np.linalg.solve(self._mat, np.asarray(c)[..., None])[..., 0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        self._check_n(x)
        return from_wedge(self.apply_coords(to_wedge(x)), self.n)

    def solve(self, y: np.ndarray) -> np.ndarray:
        self._check_n(y)
        return from_wedge(self.solve_coords(to_wedge(y)), self.n)

    def logdet(self) -> float:
        if self._diag is not None:
            return float(np.sum(np.log(self._diag)))
        return float(np.linalg.slogdet(self._mat)[1])

    def det(self) -> float:
        return float(np.exp(self.logdet()))

    def _check_n(self, x):
        if np.asarray(x).shape[-1] != self.n:
            raise DimensionError(
                f"operator on so({self.n}) applied to shape {np.asarray(x).shape}"
            )

    def __repr__(self):
        return f"InertiaOperator(n={self.n}, kind={self.kind!r})"


# ---------------------------------------------------------------------------
# frames and projectors


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered tuple of linearly independent so(n) elements.

    ``orthonormal=True`` additionally validates <e_i, e_j> = delta_ij
    within 1e-10.
    """

    elems: np.ndarray
    gram_tolerance: float = 1e-12
    orthonormal: bool = False

    def __post_init__(self):
        elems = np.asarray(self.elems, dtype=float)
        if elems.ndim == 2:
            elems = elems[None]
        if elems.ndim != 3 or elems.shape[-1] != elems.shape[-2]:
            raise DimensionError(f"frame elements must be (k, n, n), got {elems.shape}")
        check_skew(elems)
        object.__setattr__(self, "elems", elems)
        g = self.gram()
        if self.orthonormal:
            if np.max(np.abs(g - np.eye(self.k))) > 1e-10:
                raise ParameterError("frame flagged orthonormal is not")
        det = float(np.linalg.det(g))
        if det <= self.gram_tolerance:
            raise SingularityError(
                f"frame is numerically dependent (Gram det {det:.3e})"
            )

    @property
    def k(self) -> int:
        return self.elems.shape[0]

    @property
    def n(self) -> int:
        return self.elems.shape[-1]

    @property
    def coords(self) -> np.ndarray:
        """Wedge coordinates of the elements, shape (k, N)."""
        return to_wedge(self.elems)

    def gram(self) -> np.ndarray:
        c = self.coords
        return c @ c.T

    def __iter__(self):
        return iter(self.elems)


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """An n x r matrix with orthonormal columns (a point of V_{n,r}).

    tolerance is the accepted deviation of U^T U from the identity; the
    default suits freshly constructed frames, while trajectory samples
    carrying integration drift may pass a looser value.
    """

    U: np.ndarray
    tolerance: float = 1e-10

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        if U.ndim != 2 or U.shape[0] < U.shape[1] or U.shape[1] < 1:
            raise DimensionError(f"Stiefel point must be n x r with n >= r >= 1, got {U.shape}")
        if np.max(np.abs(U.T @ U - np.eye(U.shape[1]))) > self.tolerance:
            raise ParameterError("columns are not orthonormal")
        object.__setattr__(self, "U", U)

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return self.U.shape[1]


def as_stiefel_matrix(U) -> np.ndarray:
    """Accept a StiefelPoint or a plain array and return the matrix."""
    return np.asarray(getattr(U, "U", U), dtype=float)


def frame_gram(frame: Frame, op: InertiaOperator, mode: str = "inverse_inertia") -> np.ndarray:
    """Gram matrix of the frame under the inertia operator.

    mode "inverse_inertia" gives G_ij = <e_i, I^{-1} e_j>; mode "inertia"
    gives G_ij = <I e_i, e_j>.  The result is symmetric positive definite;
    an eigenvalue ratio at or below the frame tolerance (a scale-free
    degeneracy signal) raises SingularityError.
    """
    c = frame.coords
    if mode == "inverse_inertia":
        s = op.solve_coords(c)
    elif mode == "inertia":
        s = op.apply_coords(c)
    else:
        raise ParameterError(f"unknown frame_gram mode {mode!r}")
    g = c @ s.T
    g = 0.5 * (g + g.T)
    ev = np.linalg.eigvalsh(g)
    if ev[0] <= frame.gram_tolerance * max(ev[-1], 0.0):
        raise SingularityError("frame Gram matrix under the operator is degenerate")
    return g


def _require_orthonormal(frame: Frame):
    g = frame.gram()
    if np.max(np.abs(g - np.eye(frame.k))) > 1e-10:
        raise ParameterError("operation requires an orthonormal frame")


def projector_matrix(frame: Frame) -> np.ndarray:
    """Wedge-coordinate matrix of the orthogonal projector onto span(frame)."""
    _require_orthonormal(frame)
    c = frame.coords
    return c.T @ c


def dr_projector_matrix(G: np.ndarray) -> np.ndarray:
    """Wedge-coordinate matrix (..., N, N) of pr_{D_r}(eta) = G eta + eta G - G eta G,
    the orthogonal projector onto D_r = span{e_i ^ x : i <= r}, batched over
    G = U U^T (..., n, n) for orthonormal r-frames U.

    Id - pr_{D_r} is eta |-> Q eta Q with Q = Id - G, so with Q symmetric

        P[(a, b), (i, j)] = delta - (Q_ai Q_jb - Q_aj Q_ib),

    gathered from Q without forming any n x n product."""
    G = np.asarray(G)
    n = G.shape[-1]
    w = _windex(n)
    ai, jb, aj, ib = w.complement_gather
    Q = (np.eye(n) - G).reshape(G.shape[:-2] + (n * n,))
    QEQ = Q[..., ai] * Q[..., jb] - Q[..., aj] * Q[..., ib]
    return np.eye(w.N) - QEQ.reshape(G.shape[:-2] + (w.N, w.N))


def subspace_projectors(frame: Frame):
    """Orthogonal projectors (pr_span, pr_complement) for an orthonormal frame.

    Both act on skew matrices of matching size and broadcast over batches.
    """
    _require_orthonormal(frame)
    c = frame.coords
    n = frame.n

    def pr_span(x):
        cx = to_wedge(x)
        return from_wedge(np.einsum("kN,...k->...N", c, np.einsum("kN,...N->...k", c, cx)), n)

    def pr_complement(x):
        return np.asarray(x, dtype=float) - pr_span(x)

    return pr_span, pr_complement


def restricted_det(op: InertiaOperator, frame: Frame, mode: str = "inertia") -> float:
    """det of the operator restricted to span(frame), in an orthonormal frame."""
    _require_orthonormal(frame)
    d = float(np.linalg.det(frame_gram(frame, op, mode)))
    if d <= 0.0:
        raise DefinitenessError("restricted determinant is not positive")
    return d


# Relative singular-value cut of ad_gamma's null space in isotropy_frame.
_ISOTROPY_RTOL = 1e-9


def isotropy_frame(gamma: np.ndarray) -> Frame:
    """Orthonormal frame of the isotropy subalgebra {x : [x, gamma] = 0}; singular
    values of ad_gamma at or below _ISOTROPY_RTOL times the largest count as zero."""
    gamma = np.asarray(gamma, dtype=float)
    check_skew(gamma)
    A = ad_matrix(gamma)
    _, s, vt = np.linalg.svd(A)
    cut = _ISOTROPY_RTOL * max(s[0], 1e-300)
    null_rows = vt[s <= cut] if np.any(s <= cut) else vt[:0]
    if null_rows.shape[0] == 0:
        raise SingularityError("isotropy subalgebra is trivial at this tolerance")
    return Frame(from_wedge(null_rows, gamma.shape[-1]), orthonormal=True)


def orthonormal_complement(frame: Frame) -> Frame:
    """Orthonormal frame spanning the orthogonal complement of span(frame)."""
    c = frame.coords
    _, s, vt = np.linalg.svd(c)
    k = frame.k
    if s[-1] <= 1e-12 * s[0]:
        raise SingularityError("frame is too close to dependent to complement")
    comp = vt[k:]
    if comp.shape[0] == 0:
        raise DimensionError("frame already spans the whole algebra")
    return Frame(from_wedge(comp, frame.n), orthonormal=True)


def orthonormalize_rows(c: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of c by QR with a deterministic sign fix."""
    c = np.asarray(c, dtype=float)
    q, r = np.linalg.qr(c.T)
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    return (q * sign).T


def complete_columns(U) -> np.ndarray:
    """Extend orthonormal columns U (n x r) to a full orthonormal n x n basis."""
    U = as_stiefel_matrix(U)
    n, r = U.shape
    q, _ = np.linalg.qr(U, mode="complete")
    q[:, :r] = U
    return q


def random_stiefel(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x r orthonormal columns from a normal matrix (QR, sign-fixed)."""
    if not 1 <= r <= n:
        raise DimensionError(f"need 1 <= r <= n, got r={r}, n={n}")
    return orthonormalize_rows(rng.standard_normal((n, r)).T).T
