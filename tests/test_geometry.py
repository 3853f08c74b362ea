"""Frames, projectors, slotwise projection against the paper's recursive
construction, and the in-plane rotation and its derivative."""

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tensorcalc.builtins import get_case
from tensorcalc.geometry import (
    GeometryError,
    GeometryFrame,
    LevelSet,
    LevelSetGeometry,
    _perp_matrix_derivative,
    _project_array,
    frame_from_normals,
    is_tangent,
    perp,
    perp_matrix,
    project,
    tangent_basis,
)
from tensorcalc.tensor import Tensor, frobenius, outer, random_tensor


def random_frame(rng, n, m):
    """Orthonormalize m random directions into a synthetic frame."""
    normals = np.linalg.qr(rng.normal(size=(n, m)))[0].T
    return frame_from_normals(normals, x=rng.normal(size=n))


def project_oracle(arr, P):
    """Slot-by-slot projection written as an explicit loop over leaves."""
    out = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        acc = 0.0
        for src in np.ndindex(arr.shape):
            weight = 1.0
            for a, b in zip(idx, src):
                weight *= P[a, b]
            acc += weight * arr[src]
        out[idx] = acc
    return out


def recursive_project(data, normals):
    """The paper's construction over the complete n-ary component tree:
    project every component, then remove the part of the first slot that
    the normals still see.  ``data`` is (...) + (n,)*q, normals (..., m, n);
    it makes n^(q-1) calls."""
    lead = normals.ndim - 2
    if data.ndim == lead:
        return data
    n = normals.shape[-1]
    pick = (slice(None),) * lead
    tilde = np.stack([recursive_project(data[pick + (k,)], normals) for k in range(n)], axis=lead)
    rows = tilde.reshape(tilde.shape[: lead + 1] + (math.prod(tilde.shape[lead + 1:]),))
    for i in range(normals.shape[-2]):
        rows = rows - normals[..., i, :, None] @ (normals[..., i : i + 1, :] @ rows)
    return rows.reshape(tilde.shape)


def tensordot_project(arr, P):
    """P fed into each slot of arr with tensordot, at a single point."""
    for slot in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(P, arr, axes=([1], [slot])), 0, slot)
    return arr


def test_sphere_frame():
    geom = get_case("sphere").geometry
    x = np.array([0.6, 0.0, 0.8])
    fr = geom.frame_at(x, 0.0)
    np.testing.assert_allclose(fr.normals[0], x, atol=1e-14)
    np.testing.assert_allclose(fr.P, np.eye(3) - np.outer(x, x), atol=1e-14)
    np.testing.assert_allclose(fr.N + fr.P, np.eye(3), atol=1e-14)


def test_projectors_idempotent_and_orthogonal(rng):
    for m in (1, 2, 3):
        fr = random_frame(rng, 4, m)
        np.testing.assert_allclose(fr.P @ fr.P, fr.P, atol=1e-13)
        np.testing.assert_allclose(fr.N @ fr.N, fr.N, atol=1e-13)
        np.testing.assert_allclose(fr.P @ fr.N, np.zeros((4, 4)), atol=1e-13)
        for nv in fr.normals:
            np.testing.assert_allclose(fr.P @ nv, np.zeros(4), atol=1e-13)


def test_helix_normals_are_orthonormal():
    """The second helix level gradient is not unit length, so this exercises
    the Gram-Schmidt pass inside the frame construction."""
    geom = get_case("helix").geometry
    x = np.array([1.0, 0.0, 0.0])
    fr = geom.frame_at(x, 0.0)
    np.testing.assert_allclose(fr.normals @ fr.normals.T, np.eye(2), atol=1e-12)


def test_projection_matches_brute_force_oracle(rng):
    for q in (1, 2, 3):
        fr = random_frame(rng, 3, 1)
        t = random_tensor(3, q, rng)
        proj = project(fr, t)
        np.testing.assert_allclose(proj.array, project_oracle(t.array, fr.P), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 8),
    q=st.integers(0, 8),
    batch=st.sampled_from([(), (1,), (3,)]),
    seed=st.integers(0, 2**16),
)
def test_projection_matches_the_recursive_and_tensordot_oracles(n, q, batch, seed):
    assume(n**q <= 4096)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    normals = np.linalg.qr(rng.standard_normal(batch + (n, m)))[0].swapaxes(-1, -2)
    P = np.eye(n) - normals.swapaxes(-1, -2) @ normals
    data = rng.standard_normal(batch + (n,) * q)
    got = _project_array(data, P)
    want = recursive_project(data, normals)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(data))))
    assert got.shape == data.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol
    for b in np.ndindex(batch):
        assert np.max(np.abs(got[b] - tensordot_project(data[b], P[b])), initial=0.0) <= tol
    if not batch:
        frame = frame_from_normals(normals)
        assert np.max(np.abs(project(frame, Tensor(n, data)).array - want), initial=0.0) <= tol


@pytest.mark.parametrize("n,q", [(4, 8), (3, 8), (8, 4)])
def test_projection_at_the_advertised_limits(rng, n, q):
    for m in (1, n - 1):
        fr = random_frame(rng, n, m)
        t, s = random_tensor(n, q, rng), random_tensor(n, q, rng)
        pt = project(fr, t)
        assert np.max(np.abs(project(fr, pt).array - pt.array)) <= 1e-12
        for nv in fr.normals:
            for slot in range(q):
                assert np.max(np.abs(np.tensordot(pt.array, nv, axes=([slot], [0])))) <= 1e-12
        gap = frobenius(project(fr, s), t) - frobenius(s, pt)
        assert abs(gap) <= 1e-12 * t.norm() * s.norm()


def test_projection_idempotent_and_tangent(rng):
    fr = random_frame(rng, 3, 2)
    t = random_tensor(3, 3, rng)
    once = project(fr, t)
    np.testing.assert_allclose(project(fr, once).array, once.array, atol=1e-12)
    assert is_tangent(fr, once)
    assert not is_tangent(fr, outer(Tensor(3, fr.normals[0]), t))


def test_projection_annihilates_normal_factors(rng):
    fr = random_frame(rng, 3, 1)
    nvec = Tensor(3, fr.normals[0])
    t = outer(random_tensor(3, 2, rng), nvec)
    np.testing.assert_allclose(project(fr, t).array, np.zeros((3, 3, 3)), atol=1e-13)


def test_tangential_pairing(rng):
    """frobenius(S, T) = frobenius(S, proj T) whenever S is tangential."""
    fr = random_frame(rng, 4, 2)
    s = project(fr, random_tensor(4, 3, rng))
    t = random_tensor(4, 3, rng)
    np.testing.assert_allclose(frobenius(s, t), frobenius(s, project(fr, t)), atol=1e-12)


def test_tangent_basis_at_sphere_pole():
    geom = get_case("sphere").geometry
    fr = geom.frame_at(np.array([0.0, 0.0, 1.0]), 0.0)
    b1, b2 = tangent_basis(fr)
    np.testing.assert_allclose(b1, np.array([1.0, 0.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(b2, np.array([0.0, 1.0, 0.0]), atol=1e-12)


def test_tangent_basis_orientation(rng):
    """det [n, b1, b2] > 0 so that (b1, b2, n) is never mirrored."""
    for name in ("sphere", "torus"):
        case = get_case(name)
        for x in case.sample_points(6, seed=11):
            fr = case.geometry.frame_at(x, 0.0)
            b1, b2 = tangent_basis(fr)
            det = np.linalg.det(np.column_stack([fr.normals[0], b1, b2]))
            assert det > 0.5
            np.testing.assert_allclose(b1 @ b2, 0.0, atol=1e-12)
            np.testing.assert_allclose(fr.P @ b1, b1, atol=1e-12)


def test_tangent_basis_needs_two_tangent_dims():
    geom = get_case("circle3d").geometry
    fr = geom.frame_at(np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(GeometryError):
        tangent_basis(fr)


def test_perp_is_quarter_turn():
    geom = get_case("sphere").geometry
    fr = geom.frame_at(np.array([0.0, 0.0, 1.0]), 0.0)
    np.testing.assert_allclose(perp(fr, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(perp(fr, [0.0, 1.0, 0.0]), [-1.0, 0.0, 0.0], atol=1e-12)


def test_perp_properties(rng):
    case = get_case("torus")
    for x in case.sample_points(5, seed=3):
        fr = case.geometry.frame_at(x, 0.0)
        u = rng.normal(size=3)
        once = perp(fr, u)
        np.testing.assert_allclose(once @ fr.normals[0], 0.0, atol=1e-12)
        np.testing.assert_allclose(once @ (fr.P @ u), 0.0, atol=1e-12)
        np.testing.assert_allclose(perp(fr, once), -fr.P @ u, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(once), np.linalg.norm(fr.P @ u), atol=1e-12)


def test_perp_matrix_agrees_with_perp(rng):
    case = get_case("sphere", radius=1.4)
    for x in case.sample_points(5, seed=5):
        fr = case.geometry.frame_at(x, 0.0)
        Q = perp_matrix(fr)
        u = rng.normal(size=3)
        np.testing.assert_allclose(Q @ u, perp(fr, u), atol=1e-12)
        np.testing.assert_allclose(Q @ Q, -fr.P, atol=1e-12)
        np.testing.assert_allclose(Q.T, -Q, atol=1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_the_quarter_turn_is_the_cofactor_matrix_of_the_normals(n, rng):
    """Q_ab = det[e_b, e_a, n_1, ..., n_m] at a batch of random frames of
    codimension n - 2, and (t1, t2, n_1, ..., n_m) is positively oriented."""
    normals = np.stack([np.linalg.qr(rng.normal(size=(n, n - 2)))[0].T for _ in range(4)])
    fr = frame_from_normals(normals)
    e = np.eye(n)
    want = [[[np.linalg.det(np.vstack([e[b], e[a], nn])) for b in range(n)] for a in range(n)]
            for nn in normals]
    assert np.max(np.abs(perp_matrix(fr) - np.array(want))) <= 1e-14
    t1, t2 = tangent_basis(fr)
    rows = np.concatenate([t1[:, None], t2[:, None], normals], axis=1)
    np.testing.assert_allclose(np.linalg.det(rows), 1.0, atol=1e-12)


def test_tangent_basis_with_parallel_projector_columns():
    """span{e0 + e1, e2 + e3}: the two longest columns of P are parallel."""
    s = 1 / math.sqrt(2)
    fr = frame_from_normals([[s, -s, 0.0, 0.0], [0.0, 0.0, s, -s]])
    t1, t2 = tangent_basis(fr)
    basis = np.stack([t1, t2])
    np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(basis @ fr.P, basis, atol=1e-12)
    Q = perp_matrix(fr)
    np.testing.assert_allclose(fr.P @ Q @ fr.P, Q, atol=1e-12)
    np.testing.assert_allclose(Q @ Q, -fr.P, atol=1e-12)


def test_tangent_basis_rejects_a_non_finite_frame():
    fr = GeometryFrame(np.zeros(3), 0.0, np.array([[np.nan, 0.0, 0.0]]))
    with pytest.raises(GeometryError, match="degenerate"):
        tangent_basis(fr)


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def levi_civita_perp_derivative(normals, normals_d):
    """d Q_ab / d x_k from the n!-term Levi-Civita contraction
    Q_ab = eps_{b a k1..km} (n_1)_k1 ... (n_m)_km, differentiated term by term."""
    m, n = normals.shape[-2:]
    DQ = np.zeros(normals.shape[:-2] + (n, n, n))
    for p in permutations(range(n)):
        sign = _perm_sign(p)
        b, a, ks = p[0], p[1], p[2:]
        vals = [normals[..., i, ks[i]] for i in range(m)]
        for i in range(m):
            coeff = np.full(normals.shape[:-2], float(sign))
            for j in range(m):
                if j != i:
                    coeff = coeff * vals[j]
            DQ[..., a, b, :] += coeff[..., None] * normals_d[..., i, ks[i], :]
    return DQ


def _quadric_level(a, H, x0):
    """Batch-native level function a . y + y^T H y / 2 with y = x - x0."""
    return LevelSet._batched(
        lambda X, t: (X - x0) @ a + 0.5 * np.einsum("...a,ab,...b->...", X - x0, H, X - x0),
        lambda X, t: a + (X - x0) @ H,
        lambda X, t: np.broadcast_to(H, X.shape + X.shape[-1:]),
    )


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 2**16))
@example(n=6, seed=18)  # strongly curved: plain fd4 at h = 1e-3 is off by 1.8e-6 relative
def test_quarter_turn_derivative_matches_the_loop_and_fd4(n, seed):
    """A curved surface of codimension n - 2 through x0, cut out by quadrics.

    The difference oracle is the Richardson pair (16 fd4(h/2) - fd4(h)) / 15,
    which cancels fd4's h^4 term, so its own error stays far below the bound
    on strongly curved quadrics too.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    levels = []
    for _ in range(n - 2):
        H = rng.standard_normal((n, n))
        levels.append(_quadric_level(rng.standard_normal(n), 0.5 * (H + H.T), x0))
    geom = LevelSetGeometry(n, levels, tube_halfwidth=1.0)
    frame = geom.frame_derivative_at(x0)
    Q = perp_matrix(frame)
    DQ = _perp_matrix_derivative(Q, frame.P_d)

    def fd4(k, h):
        e = np.zeros(n)
        e[k] = h
        Qs = [perp_matrix(geom.frame_at(x0 + j * e)) for j in (-2, -1, 1, 2)]
        return (Qs[0] - 8 * Qs[1] + 8 * Qs[2] - Qs[3]) / (12 * h)

    h = 1e-3
    scale = max(1.0, float(np.max(np.abs(DQ))))
    for k in range(n):
        approx = (16 * fd4(k, h / 2) - fd4(k, h)) / 15
        assert np.max(np.abs(DQ[:, :, k] - approx)) <= 1e-6 * scale
    if n <= 6:
        oracle = levi_civita_perp_derivative(frame.normals, frame.normals_d)
        assert np.max(np.abs(DQ - oracle)) <= 1e-12 * max(1.0, float(np.max(np.abs(oracle))))


def test_quarter_turn_derivative_on_batches_of_builtin_frames():
    for name in ("sphere", "torus"):
        case = get_case(name)
        X = np.stack(case.sample_points(4, seed=2))
        frame = case.geometry.frame_derivative_at(X)
        DQ = _perp_matrix_derivative(perp_matrix(frame), frame.P_d)
        assert DQ.shape == (4, 3, 3, 3)
        oracle = levi_civita_perp_derivative(frame.normals, frame.normals_d)
        np.testing.assert_allclose(DQ, oracle, rtol=0, atol=1e-13)


def test_frame_derivative_matches_finite_differences():
    geom = get_case("sphere").geometry
    x = np.array([0.6, 0.0, 0.8])
    fd = geom.frame_derivative_at(x, 0.0)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        approx = (geom.frame_at(x + e, 0.0).P - geom.frame_at(x - e, 0.0).P) / (2 * h)
        np.testing.assert_allclose(fd.P_d[:, :, k], approx, atol=1e-8)


def _affine_level(a, c):
    """Batch-native level function a . x - c."""
    return LevelSet._batched(
        lambda X, t: X @ a - c,
        lambda X, t: np.broadcast_to(a, X.shape),
        lambda X, t: np.zeros(X.shape + X.shape[-1:]),
    )


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), k=st.integers(1, 4), seed=st.integers(0, 2**16))
def test_frames_at_random_codimension(n, k, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    A, c = rng.standard_normal((m, n)), rng.standard_normal(m)
    geom = LevelSetGeometry(n, [_affine_level(a, ci) for a, ci in zip(A, c)])
    _, _, vt = np.linalg.svd(A)
    X = np.linalg.lstsq(A, c, rcond=None)[0] + rng.standard_normal((k, n - m)) @ vt[m:]
    frame = geom.frame_at(X)
    assert frame.normals.shape == (k, m, n) and frame.P.shape == (k, n, n)
    P = frame.P
    gram = frame.normals @ frame.normals.swapaxes(1, 2)
    assert np.max(np.abs(gram - np.eye(m))) <= 1e-12
    assert np.max(np.abs(P - P.swapaxes(1, 2))) <= 1e-12
    assert np.max(np.abs(P @ P - P)) <= 1e-12
    assert np.max(np.abs(P @ A.T)) <= 1e-12 * np.max(np.abs(A))
    np.testing.assert_allclose(np.trace(P, axis1=1, axis2=2), n - m, atol=1e-12)
    for x, normals, proj in zip(X, frame.normals, P):
        single = geom.frame_at(x)
        np.testing.assert_allclose(single.normals, normals, rtol=0, atol=1e-14)
        np.testing.assert_allclose(single.P, proj, rtol=0, atol=1e-14)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN/inf arithmetic before the check
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["gradient", "hessian"])
def test_non_finite_level_derivatives_raise(bad, which):
    """A NaN or inf gradient or Hessian of the second level function, at one
    point of a batch or at a single point, raises and names that function;
    a NaN frame never comes back."""

    def gradient(x, t):
        return np.array([bad if which == "gradient" and x[0] > 0.5 else 0.0, 1.0, 0.0])

    def hessian(x, t):
        H = np.zeros((3, 3))
        H[0, 0] = bad if which == "hessian" and x[0] > 0.5 else 0.0
        return H

    plane = LevelSet(lambda x, t: x[2], lambda x, t: np.array([0.0, 0.0, 1.0]),
                     lambda x, t: np.zeros((3, 3)))
    geom = LevelSetGeometry(3, [plane, LevelSet(lambda x, t: x[1], gradient, hessian)])
    for X in (np.array([0.9, 0.0, 0.0]), np.array([[0.0, 0.0, 0.0], [0.9, 0.0, 0.0]])):
        if which == "gradient":
            with pytest.raises(GeometryError, match="level function 1"):
                geom.frame_at(X)
        else:
            assert np.isfinite(geom.frame_at(X).P).all()
        with pytest.raises(GeometryError, match="level function 1"):
            geom.frame_derivative_at(X)
    frame = geom.frame_derivative_at(np.array([0.1, 0.0, 0.0]))
    assert np.isfinite(frame.P).all() and np.isfinite(frame.P_d).all()


def test_frame_outside_tube_raises():
    geom = get_case("sphere").geometry
    with pytest.raises(GeometryError):
        geom.frame_at(np.array([2.0, 0.0, 0.0]), 0.0)


def test_frame_from_normals_rejects_skewed_input():
    skew = np.array([[1.0, 0.0, 0.0], [0.7, 0.7, 0.0]])
    with pytest.raises(GeometryError):
        frame_from_normals(skew)


def test_frame_from_normals_rejects_non_finite_normals():
    # a NaN entry must fail the orthonormality test, not pass it
    with pytest.raises(GeometryError, match="not orthonormal"):
        frame_from_normals([[np.nan, 0.0, 0.0]])
    with pytest.raises(GeometryError, match=r"batch index \(1,\)"):
        frame_from_normals([[[1.0, 0.0, 0.0]], [[np.inf, 0.0, 0.0]]])


def test_frame_from_normals_takes_a_batch_of_points():
    rng = np.random.default_rng(5)
    normals = np.stack([np.linalg.qr(rng.normal(size=(4, 2)))[0].T for _ in range(3)])
    batch = frame_from_normals(normals)
    assert batch.x.shape == (3, 4) and batch.P.shape == (3, 4, 4)
    for i in range(3):
        one = frame_from_normals(normals[i])
        for name in ("normals", "N", "P"):
            np.testing.assert_allclose(getattr(batch, name)[i], getattr(one, name),
                                       rtol=0.0, atol=1e-15)
    skewed = normals.copy()
    skewed[1, 1] = 0.8 * skewed[1, 1] + 0.6 * skewed[1, 0]  # unit length, not orthogonal
    with pytest.raises(GeometryError, match=r"batch index \(1,\)"):
        frame_from_normals(skewed)


def test_hessian_of_a_differenced_gradient_takes_the_nested_step():
    # with neither derivative given, the Hessian differences the fd4 gradient;
    # at the gradient's own step the projector derivative is off by 4e-7 here
    bare = LevelSetGeometry(3, [LevelSet(lambda x, t: float(np.linalg.norm(x)) - 1.0)])
    for x in (np.array([0.36, 0.48, 0.8]), np.array([0.6, 0.0, 0.8])):
        fd = bare.frame_derivative_at(x)
        dn = np.eye(3) - np.outer(x, x)  # d n_a / d x_k on the unit sphere, n = x
        exact = -(np.einsum("ak,b->abk", dn, x) + np.einsum("a,bk->abk", x, dn))
        assert np.max(np.abs(fd.P_d - exact)) <= 5e-8
