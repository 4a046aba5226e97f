"""Linear algebra on so(n): wedge coordinates, brackets, inertia operators.

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

from functools import cached_property, lru_cache

import numpy as np

from .errors import DefinitenessError, DimensionError, ParameterError

__all__ = [
    "wedge_index_pairs",
    "wedge_dim",
    "to_wedge",
    "from_wedge",
    "inner_product",
    "hat",
    "unhat",
    "ad_coords",
    "InertiaOperator",
    "dr_projector_matrix",
    "orthonormalize_rows",
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

    def _check_n(self, x):
        if np.asarray(x).shape[-1] != self.n:
            raise DimensionError(
                f"operator on so({self.n}) applied to shape {np.asarray(x).shape}"
            )

    def __repr__(self):
        return f"InertiaOperator(n={self.n}, kind={self.kind!r})"


# ---------------------------------------------------------------------------
# projectors and Stiefel frames


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


def orthonormalize_rows(c: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of c by QR with a deterministic sign fix."""
    c = np.asarray(c, dtype=float)
    q, r = np.linalg.qr(c.T)
    sign = np.sign(np.diag(r))
    sign[sign == 0.0] = 1.0
    return (q * sign).T


def random_stiefel(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x r orthonormal columns from a normal matrix (QR, sign-fixed)."""
    if not 1 <= r <= n:
        raise DimensionError(f"need 1 <= r <= n, got r={r}, n={n}")
    return orthonormalize_rows(rng.standard_normal((n, r)).T).T
