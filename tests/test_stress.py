"""Surface stresses: force and torque identities, equilibrium diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc.builtins import get_case
from tensorcalc.fields import random_polynomial
from tensorcalc.geometry import GeometryFrame, frame_from_normals
from tensorcalc.operators import DiffConfig, divergence, mean_curvature, projector_field
from tensorcalc.quadrature import integrate, integrate_boundary
from tensorcalc.stress import (
    cross_stress,
    force_residual,
    generator_identity,
    normal_at_tangential,
    omega_field,
    omega_pairings,
    rotation_generator,
    stress_torque,
    torque_equivalence,
    equilibrium_diagnostics,
    transpose_field,
)
from tensorcalc.tensor import Tensor, _dot, _frobenius

AN = DiffConfig(mode="analytic")
FD2 = DiffConfig(mode="fd2")
PLANES = [(0, 1), (0, 2), (1, 2)]


def _plane_rel(res, plane):
    """|L_K - R_K| / max(|L_K|, |R_K|, 1) of the torque matrices' plane K."""
    lhs, rhs = res.lhs[plane], res.rhs[plane]
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0)


def test_rotation_generator_values():
    l01 = rotation_generator(3, 0, 1)
    x = np.array([2.0, 3.0, 5.0])
    np.testing.assert_allclose(l01.values(x, 0.0), [-3.0, 2.0, 0.0], atol=1e-14)
    with pytest.raises(ValueError):
        rotation_generator(3, 1, 1)


def test_transpose_field_insertion_invariant(rng):
    """insert_right of the transpose equals insert_left of the original."""
    sigma = random_polynomial(3, 2, rng, degree=2)
    bar = transpose_field(sigma)
    x = rng.normal(size=3)
    v = rng.normal(size=3)
    lhs = Tensor(3, bar.values(x, 0.0)).insert_right(v)
    rhs = Tensor(3, sigma.values(x, 0.0)).insert_left(v)
    np.testing.assert_allclose(lhs.array, rhs.array, atol=1e-12)


def test_omega_field_is_antisymmetric_projector_pairing():
    case = get_case("sphere")
    om = omega_field(case.geometry, 0, 1)
    for x in case.sample_points(3):
        P = case.geometry.frame_at(x, 0.0).P
        vals = om.values(x, 0.0)
        np.testing.assert_allclose(vals[0], P[1], atol=1e-13)
        np.testing.assert_allclose(vals[1], -P[0], atol=1e-13)


def test_force_residual(rng):
    atlas = get_case("hemisphere").atlas(order=12, panels=2)
    sigma = random_polynomial(3, 2, rng, degree=2)
    assert force_residual(atlas, sigma, AN).rel_residual <= 1e-8
    assert force_residual(atlas, sigma, FD2).rel_residual <= 1e-6


def test_torque_equivalence_per_plane(rng):
    atlas = get_case("hemisphere").atlas(order=12, panels=2)
    sigma = random_polynomial(3, 2, rng, degree=2)
    res = torque_equivalence(atlas, sigma, AN)
    for plane in PLANES:
        assert _plane_rel(res, plane) <= 1e-8


def test_generator_identity_per_plane(rng):
    atlas = get_case("torus").atlas(order=12, panels=2)
    a = random_polynomial(3, 2, rng, degree=2)
    res = generator_identity(atlas, a, AN)
    for plane in PLANES:
        assert _plane_rel(res, plane) <= 1e-8


def _plane_integrals(atlas, sigma, plane, cfg):
    """For the plane K, each integral from its own integrands built with l_K
    and omega_K: the torque m_K of sigma, both sides of the torque
    equivalence, and both sides of the generator identity for A = sigma."""
    geom = atlas.geometry
    l_k, om = rotation_generator(geom.n, *plane), omega_field(geom, *plane)
    kap = mean_curvature(geom, cfg)
    bar = transpose_field(sigma)
    div_bar, div_a = divergence(bar, geom, cfg), divergence(sigma, geom, cfg)

    def stokes(pair):
        curv = integrate(atlas, lambda X, t: pair(X, t, kap.values(X, t)))
        return float(curv) + float(integrate_boundary(atlas, lambda B, t: pair(B.x, t, B.conormal)))

    def l_dot(f):
        return float(integrate(atlas, lambda X, t: _dot(l_k.values(X, t), f.values(X, t), 1)))

    def omega_with(f):
        return float(integrate(atlas, lambda X, t: _frobenius(om.values(X, t), f.values(X, t), 1)))

    torque = stokes(lambda X, t, v: _dot(l_k.values(X, t), _dot(v, sigma.values(X, t), 1), 1))
    moment = stokes(lambda X, t, v: _dot(_dot(l_k.values(X, t), sigma.values(X, t), 1), v, 1))
    return [torque, torque, l_dot(div_bar) - omega_with(bar), moment,
            l_dot(div_a) - omega_with(sigma)]


@pytest.mark.parametrize("geometry", ["hemisphere", "torus"])
@pytest.mark.parametrize("cfg", [FD2, AN], ids=["fd2", "analytic"])
def test_torque_matrices_hold_every_plane(geometry, cfg, rng):
    """Entry (i, j) of each antisymmetric torque matrix is the integral of
    plane (i, j) built from rotation_generator and omega_field."""
    atlas = get_case(geometry).atlas(order=8, panels=2)
    sigma = random_polynomial(3, 2, rng, degree=2)
    torque = stress_torque(atlas, sigma, cfg)
    equivalence = torque_equivalence(atlas, sigma, cfg)
    generator = generator_identity(atlas, sigma, cfg)
    matrices = [torque, equivalence.lhs, equivalence.rhs, generator.lhs, generator.rhs]
    for mat in matrices:
        assert mat.shape == (3, 3)
        np.testing.assert_array_equal(mat, -mat.T)
    for plane in PLANES:
        got = [m[plane] for m in matrices]
        want = _plane_integrals(atlas, sigma, plane, cfg)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_cross_stress_is_equilibrated():
    """sigma = eps . n carries no force or torque and is divergence free."""
    case = get_case("sphere")
    atlas = case.atlas(order=12, panels=2)
    sigma = cross_stress(case.geometry)
    div_bar = divergence(transpose_field(sigma), case.geometry, AN)
    for x in case.sample_points(4):
        assert np.linalg.norm(div_bar.values(x, 0.0)) <= 1e-10
    res = force_residual(atlas, sigma, AN)
    assert np.linalg.norm(np.asarray(res.rhs)) <= 1e-10
    torque = stress_torque(atlas, sigma, AN)
    for plane in PLANES:
        assert abs(torque[plane]) <= 1e-10


def test_cross_stress_is_tangential_but_asymmetric():
    case = get_case("sphere")
    sigma = cross_stress(case.geometry)
    north = np.array([0.0, 0.0, 1.0])
    fr = case.geometry.frame_at(north, 0.0)
    sig = sigma.values(north, 0.0)
    assert normal_at_tangential(sig, fr) <= 1e-13
    np.testing.assert_allclose(omega_pairings(sig, fr)[(0, 1)], -2.0, atol=1e-13)


def test_contrapositive_stress_has_normal_response(rng):
    """sigma = (P w) (x) n responds normally to tangential cuts with norm |P w|."""
    case = get_case("sphere")
    x = case.sample_points(1, seed=4)[0]
    fr = case.geometry.frame_at(x, 0.0)
    w = rng.normal(size=3)
    sig = np.outer(fr.P @ w, fr.normals[0])
    nat = normal_at_tangential(sig, fr)
    np.testing.assert_allclose(nat, np.linalg.norm(fr.P @ w), atol=1e-12)
    assert max(abs(v) for v in omega_pairings(sig, fr).values()) > 1e-2


def test_constrained_family_stays_tangential(rng):
    """a P + sum_k n_k (x) v_k + P A P never maps tangential cuts off-surface."""
    for _ in range(200):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, n - 1))
        normals = np.linalg.qr(rng.normal(size=(n, m)))[0].T
        fr = frame_from_normals(normals)
        sig = float(rng.normal()) * fr.P
        for k in range(m):
            sig += np.outer(normals[k], rng.normal(size=n))
        sig += fr.P @ rng.normal(size=(n, n)) @ fr.P
        assert normal_at_tangential(sig, fr) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 8))
def test_normal_at_tangential_is_the_operator_two_norm(data, n):
    """The Gram-matrix norm agrees with the SVD 2-norm of N sigma^T P to
    1e-14 max(1, |sigma|) at every point, for every codimension 1 <= m < n,
    on random stresses over six decades of scale and on stresses with zero
    response (P W P); a single point gives a number."""
    m = data.draw(st.integers(1, n - 1), label="m")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    normals = np.swapaxes(np.linalg.qr(gen.standard_normal((6, n, m)))[0], -1, -2)
    fr = frame_from_normals(normals)
    sig = 10.0 ** gen.uniform(-3, 3, (6, 1, 1)) * gen.standard_normal((6, n, n))
    for s in (sig, fr.P @ sig @ fr.P):
        got = normal_at_tangential(s, fr)
        want = np.linalg.norm(fr.N @ np.swapaxes(s, -1, -2) @ fr.P, ord=2, axis=(-2, -1))
        bound = 1e-14 * np.maximum(1.0, np.linalg.norm(s, axis=(-2, -1)))
        assert got.shape == (6,) and np.all(np.abs(got - want) <= bound)
    assert np.shape(normal_at_tangential(sig[0], frame_from_normals(normals[0]))) == ()


@pytest.mark.parametrize("n,m", [(4, 1), (5, 3)])
def test_normal_at_tangential_is_nan_only_where_its_input_is_not_finite(n, m, rng):
    """A NaN or inf in the stress at one point, even in an entry that the
    normals multiply by zero, a NaN in the frame at one point, or a stress
    whose Gram matrix overflows, gives NaN there, raises nothing (at m >= 3
    eigvalsh raises on an all-NaN matrix), and leaves every other point's
    value as it was."""
    fr = frame_from_normals(np.tile(np.eye(n)[n - m:], (5, 1, 1)))
    sig = rng.normal(size=(5, n, n))
    clean = normal_at_tangential(sig, fr)
    assert np.all(np.isfinite(clean))

    def only_at_2(got):
        assert np.isnan(got[2])
        np.testing.assert_array_equal(np.delete(got, 2), np.delete(clean, 2))

    for bad in (np.nan, np.inf, -np.inf):
        for at in ((2, 1, 0), (2, 0, 3)):
            s = sig.copy()
            s[at] = bad
            only_at_2(normal_at_tangential(s, fr))
    s = sig.copy()
    s[2] *= 1e200
    only_at_2(normal_at_tangential(s, fr))
    normals = fr.normals.copy()
    normals[2, 0, 1] = np.nan
    only_at_2(normal_at_tangential(sig, GeometryFrame(fr.x, 0.0, normals)))


def test_equilibrium_diagnostics_on_projector():
    """P is symmetric and tangential, so only the divergence stays nonzero."""
    case = get_case("sphere")
    diag = equilibrium_diagnostics(
        projector_field(case.geometry), case.geometry, AN, case.sample_points(4)
    )
    assert np.max(diag["normal_at_tangential"]) <= 1e-10
    assert max(np.max(np.abs(v)) for v in diag["omega_pairings"].values()) <= 1e-10
    assert np.min(np.linalg.norm(diag["div_transpose"], axis=-1)) > 0.1


@pytest.mark.parametrize("plane", PLANES)
def test_omega_field_gradient_matches_fd4_of_its_values(plane):
    """The analytic gradient of omega_ij on the torus against fourth-order
    differences of its values, derivative slot last."""
    case = get_case("torus")
    om = omega_field(case.geometry, *plane)
    assert om.has_gradient
    X = case.sample_points(4, seed=2)
    h = 1e-3
    want = np.stack(
        [(om.values(X - 2 * e) - 8 * om.values(X - e) + 8 * om.values(X + e)
          - om.values(X + 2 * e)) / (12 * h) for e in h * np.eye(3)],
        axis=-1,
    )
    got = om.gradient_values(X, 0.0)
    assert got.shape == (4, 3, 3, 3)
    assert np.max(np.abs(got - want)) <= 1e-8
