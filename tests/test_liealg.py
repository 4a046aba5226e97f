"""Wedge-basis algebra, inertia operators, Stiefel frames and the pr_{D_r} matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    chaplygin_params,
    commutator,
    complete_columns,
    gamma_projector,
    random_skew,
    random_spd_operator,
    rng_for,
    wedge_basis,
)
from nonholo.errors import DefinitenessError, DimensionError, ParameterError
from nonholo.liealg import (
    InertiaOperator,
    ad_coords,
    dr_projector_matrix,
    from_wedge,
    hat,
    inner_product,
    orthonormalize_rows,
    random_stiefel,
    to_wedge,
    unhat,
    wedge_dim,
    wedge_index_pairs,
)

seeds = st.integers(min_value=0, max_value=10**6)
dims = st.integers(min_value=3, max_value=5)


# ---------------------------------------------------------------------------
# wedge coordinates and the invariant inner product


def test_wedge_dim_and_pairs():
    assert [wedge_dim(n) for n in (2, 3, 4, 5)] == [1, 3, 6, 10]
    assert wedge_index_pairs(3) == [(0, 1), (0, 2), (1, 2)]


def test_wedge_basis_orthonormal():
    for n in (3, 4, 5):
        elems = np.array(wedge_basis(n))
        g = inner_product(elems[:, None], elems[None, :])
        assert np.allclose(g, np.eye(wedge_dim(n)), atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(dims, seeds)
def test_wedge_round_trip(n, seed):
    x = random_skew(n, rng_for(seed))
    assert np.allclose(from_wedge(to_wedge(x), n), x, atol=1e-14)
    c = rng_for(seed + 1).standard_normal(wedge_dim(n))
    y = from_wedge(c, n)
    assert np.allclose(y, -y.T, atol=1e-15)
    assert np.allclose(to_wedge(y), c, atol=1e-15)


def test_inner_product_matches_trace_form():
    # <E1^E2, E1^E2> = 1 on matrix units
    e12 = wedge_basis(4)[0]
    assert inner_product(e12, e12) == pytest.approx(1.0, abs=1e-15)
    rng = rng_for(3)
    for n in (3, 4, 5):
        x, y = random_skew(n, rng), random_skew(n, rng)
        assert inner_product(x, y) == pytest.approx(-0.5 * np.trace(x @ y), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(dims, seeds)
def test_commutator_is_skew_and_ad_invariant(n, seed):
    rng = rng_for(seed)
    x, y, z = (random_skew(n, rng) for _ in range(3))
    b = commutator(x, y)
    assert np.allclose(b, -b.T, atol=1e-12)
    assert np.allclose(b, -commutator(y, x), atol=1e-13)
    jac = commutator(x, commutator(y, z)) + commutator(y, commutator(z, x)) + commutator(
        z, commutator(x, y)
    )
    assert np.max(np.abs(jac)) < 1e-12
    # <[x,y],z> = <x,[y,z]>
    assert inner_product(commutator(x, y), z) == pytest.approx(
        inner_product(x, commutator(y, z)), abs=1e-12
    )


def test_commutator_matrix_unit_example():
    # [E1^E2, E2^E3] = E1^E3
    b = wedge_basis(4)
    assert np.allclose(commutator(b[0], b[3]), b[1], atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(dims, seeds)
def test_ad_matrix_represents_bracket_and_is_skew(n, seed):
    rng = rng_for(seed)
    x, y = random_skew(n, rng), random_skew(n, rng)
    A = ad_coords(to_wedge(x), n)
    assert np.allclose(A @ to_wedge(y), to_wedge(commutator(x, y)), atol=1e-12)
    assert np.allclose(A, -A.T, atol=1e-12)


# ---------------------------------------------------------------------------
# the so(3) <-> R^3 isometry


def test_hat_oracle_matrix():
    v = np.array([1.0, 2.0, 3.0])
    expect = np.array([[0.0, -3.0, 2.0], [3.0, 0.0, -1.0], [-2.0, 1.0, 0.0]])
    assert np.array_equal(hat(v), expect)
    assert np.array_equal(unhat(hat(v)), v)


def test_hat_isometry_and_cross_product():
    u = np.array([1.0, 2.0, 3.0])
    v = np.array([4.0, 5.0, 6.0])
    assert inner_product(hat(u), hat(v)) == pytest.approx(32.0, abs=1e-14)
    assert np.allclose(commutator(hat(u), hat(v)), hat(np.cross(u, v)), atol=1e-13)
    assert np.allclose(hat(np.array([1.0, 0, 0])) @ np.array([0.0, 1, 0]), [0, 0, 1])
    # hat(e1) x e2 = e1 x e2 and [hat u, hat v] = hat(u x v) for the axes
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    assert np.allclose(commutator(hat(e1), hat(e2)), hat(np.array([0.0, 0, 1])))


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_hat_wedge_coordinates(seed):
    v = rng_for(seed).standard_normal(3)
    assert np.allclose(to_wedge(hat(v)), [-v[2], v[1], -v[0]], atol=1e-15)


# ---------------------------------------------------------------------------
# inertia operators


def test_wedge_products_operator_diagonal():
    a = np.array([0.7, 1.2, 1.9, 2.4])
    op = InertiaOperator.wedge_products(a)
    pairs = wedge_index_pairs(4)
    assert np.allclose(op.diag, [a[i] * a[j] for i, j in pairs], atol=1e-15)
    for idx, elem in enumerate(wedge_basis(4)):
        assert np.allclose(op.apply(elem), op.diag[idx] * elem, atol=1e-15)


def test_chaplygin_operator_diagonal_and_validation():
    rng = rng_for(11)
    a, D = chaplygin_params(4, rng)
    op = InertiaOperator.wedge_products_chaplygin(a, D)
    pairs = wedge_index_pairs(4)
    expect = [D * a[i] * a[j] / (D - a[i] * a[j]) for i, j in pairs]
    assert np.allclose(op.diag, expect, atol=1e-13)
    assert np.all(np.asarray(op.diag) > 0)
    with pytest.raises(ParameterError):
        InertiaOperator.wedge_products_chaplygin([1.0, 2.0, 3.0], 2.0)


def test_shifted_operator():
    base = InertiaOperator.wedge_products([0.8, 1.1, 1.7])
    op = InertiaOperator.shifted(base, 2.5)
    assert np.allclose(op.dense_matrix, base.dense_matrix + 2.5 * np.eye(3), atol=1e-15)


def test_so3_vector_operator():
    principal = np.array([1.5, 2.0, 3.5])
    op = InertiaOperator.so3_vector(principal)
    # wedge diagonal carries the principal values in reversed order
    assert np.allclose(op.diag, principal[::-1], atol=1e-15)
    rng = rng_for(5)
    for _ in range(5):
        v = rng.standard_normal(3)
        assert np.allclose(op.apply(hat(v)), hat(principal * v), atol=1e-13)


def test_general_operator_validation_and_identity():
    assert np.array_equal(InertiaOperator.identity(4).dense_matrix, np.eye(6))
    with pytest.raises(ParameterError):
        InertiaOperator.general(3, np.triu(np.ones((3, 3))))
    with pytest.raises(DefinitenessError):
        InertiaOperator.general(3, -np.eye(3))
    with pytest.raises(DefinitenessError):
        InertiaOperator.wedge_diagonal(3, [1.0, -1.0, 2.0])


@settings(max_examples=20, deadline=None)
@given(dims, seeds)
def test_operator_apply_solve_round_trip_and_det(n, seed):
    rng = rng_for(seed)
    op = random_spd_operator(n, rng)
    x = random_skew(n, rng)
    assert np.allclose(op.solve(op.apply(x)), x, atol=1e-10)
    assert np.exp(op.logdet()) == pytest.approx(np.linalg.det(op.dense_matrix), rel=1e-9)


def test_operator_is_self_adjoint_for_inner_product():
    rng = rng_for(17)
    op = random_spd_operator(4, rng)
    x, y = random_skew(4, rng), random_skew(4, rng)
    assert inner_product(op.apply(x), y) == pytest.approx(
        inner_product(x, op.apply(y)), rel=1e-11
    )


# ---------------------------------------------------------------------------
# Stiefel points


def test_stiefel_point_and_completion():
    rng = rng_for(31)
    U = random_stiefel(5, 2, rng)
    assert U.shape == (5, 2)
    assert np.allclose(U.T @ U, np.eye(2), atol=1e-12)
    V = complete_columns(U)
    assert np.allclose(V[:, :2], U, atol=1e-13)
    assert np.allclose(V.T @ V, np.eye(5), atol=1e-12)
    with pytest.raises(DimensionError):
        random_stiefel(3, 4, rng)


# ---------------------------------------------------------------------------
# the determinant factorization and the pr_{D_r} matrix


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=6), seeds)
def test_det_factorization(n, seed):
    # det(I) * det<e_i, I^{-1} e_j> = det(I restricted to the complement)
    rng = rng_for(seed)
    op = random_spd_operator(n, rng)
    N = wedge_dim(n)
    k = int(rng.integers(1, N))
    ec = orthonormalize_rows(rng.standard_normal((k, N)))
    fc = np.linalg.svd(ec)[2][k:]  # orthonormal rows of the complement
    lhs = np.exp(op.logdet()) * np.linalg.det(ec @ op.solve_coords(ec).T)
    rhs = np.linalg.det(fc @ op.apply_coords(fc).T)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3), (6, 2)])
def test_dr_projector_matrix_is_the_d_r_projector(n, r):
    rng = rng_for(60 + 10 * n + r)
    U = random_stiefel(n, r, rng)
    P = dr_projector_matrix(U @ U.T)
    _, pr = gamma_projector(U)
    eta = np.array([random_skew(n, rng) for _ in range(5)])
    assert np.max(np.abs(to_wedge(eta) @ P.T - to_wedge(pr(eta)))) <= 1e-14
    assert np.max(np.abs(P - P.T)) <= 1e-15
    assert np.max(np.abs(P @ P - P)) <= 1e-14
    assert np.linalg.matrix_rank(P) == r * (n - r) + r * (r - 1) // 2
    # batched over frames, each slice is its own frame's matrix
    V = random_stiefel(n, r, rng)
    G = np.stack([U @ U.T, V @ V.T])
    assert np.array_equal(dr_projector_matrix(G), np.stack([P, dr_projector_matrix(V @ V.T)]))


# ---------------------------------------------------------------------------
# structure constants and the gather-form pr_{D_r}


def _ad_oracle(x):
    """Matrix of [x, .] from basis products: column a holds [x, E_a]."""
    E = np.array(wedge_basis(x.shape[-1]))
    m = x[..., None, :, :] @ E - E @ x[..., None, :, :]
    return np.swapaxes(to_wedge(m), -1, -2)


def _dr_oracle(G):
    """Matrix of eta |-> G eta + eta G - G eta G from basis products."""
    E = np.array(wedge_basis(G.shape[-1]))
    G = G[..., None, :, :]
    return np.swapaxes(to_wedge(G @ E + E @ G - G @ E @ G), -1, -2)


@pytest.mark.parametrize("n", range(2, 9))
def test_ad_coords_matches_basis_product_formula(n):
    rng = rng_for(900 + n)
    wc = rng.standard_normal((4, wedge_dim(n)))
    A = ad_coords(wc, n)
    assert A.shape == (4, wedge_dim(n), wedge_dim(n))
    assert np.max(np.abs(A - _ad_oracle(from_wedge(wc, n)))) <= 1e-15
    assert np.max(np.abs(ad_coords(wc[0], n) - A[0])) == 0.0


@pytest.mark.parametrize("n", range(3, 9))
def test_ad_coords_brackets_are_antisymmetric_and_satisfy_jacobi(n):
    rng = rng_for(950 + n)
    x, y, z = rng.standard_normal((3, 5, wedge_dim(n)))

    def br(u, v):
        return np.einsum("...ij,...j->...i", ad_coords(u, n), v)

    assert np.max(np.abs(br(x, y) + br(y, x))) <= 1e-13
    jac = br(x, br(y, z)) + br(y, br(z, x)) + br(z, br(x, y))
    assert np.max(np.abs(jac)) <= 1e-13
    assert np.max(np.abs(br(x, y) - to_wedge(commutator(from_wedge(x, n), from_wedge(y, n))))) <= 1e-13


def test_ad_coords_keeps_complex_dtype():
    rng = rng_for(999)
    wc = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    A = ad_coords(wc, 5)
    assert A.dtype == np.complex128
    assert np.max(np.abs(A - (ad_coords(wc.real, 5) + 1j * ad_coords(wc.imag, 5)))) == 0.0


@pytest.mark.parametrize("n, r", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (6, 3), (8, 3)])
def test_gather_dr_projector_matches_product_oracle(n, r):
    rng = rng_for(970 + 10 * n + r)
    U = np.stack([random_stiefel(n, r, rng) for _ in range(6)])
    G = U @ np.swapaxes(U, -1, -2)
    P = dr_projector_matrix(G)
    assert np.max(np.abs(P - _dr_oracle(G))) <= 1e-15
    for g, p in zip(G, P):
        assert np.max(np.abs(dr_projector_matrix(g) - _dr_oracle(g))) <= 1e-15
        assert np.array_equal(dr_projector_matrix(g), p)
    assert np.max(np.abs(P - np.swapaxes(P, -1, -2))) <= 1e-15
    assert np.max(np.abs(P @ P - P)) <= 1e-14
    N = wedge_dim(n)
    assert np.allclose(np.trace(P, axis1=-2, axis2=-1), N - (n - r) * (n - r - 1) / 2, atol=1e-13)
