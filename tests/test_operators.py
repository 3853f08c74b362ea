"""Differential operators against closed forms on the builtin geometries."""

import gc
import math

import numpy as np
import pytest

from tensorcalc.builtins import available, get_case
from tensorcalc.fields import (
    constant,
    coordinate,
    polynomial,
    position,
    random_polynomial,
    scalar_field,
    vector_field,
)
from tensorcalc.operators import (
    DepthError,
    DiffConfig,
    cartesian_gradient,
    covariant_gradient,
    covariant_laplacian,
    divergence,
    laplacian,
    material_derivative,
    mean_curvature,
    normal_field,
    perp_field,
    project_field,
    projector_field,
    projector_rate,
    rotated_gradient,
    shape_operator,
    submanifold_gradient,
    surface_curl,
    time_partial,
)
from tensorcalc.tensor import ShapeError, scalar

FD2 = DiffConfig(mode="fd2")
FD4 = DiffConfig(mode="fd4")
AN = DiffConfig(mode="analytic")


def killing_field(n=3):
    spin = np.zeros((3, 3))
    spin[1, 0], spin[0, 1] = 1.0, -1.0
    return vector_field(
        3,
        lambda x, t: np.array([-x[1], x[0], 0.0]),
        jacobian=lambda x, t: spin,
        name="e_z cross x",
    )


def test_every_values_call_is_shape_checked():
    calls = []

    def evaluator(x, t):
        calls.append(t)
        return np.zeros(3) if len(calls) < 3 else np.zeros(2)

    u = vector_field(3, evaluator, name="goes-bad")
    u.values(np.zeros(3))
    u.values(np.zeros(3))
    with pytest.raises(ShapeError):
        u.values(np.zeros(3))


def test_cartesian_gradient_on_polynomial(rng):
    f = random_polynomial(3, 1, rng, degree=2)
    x = rng.normal(size=3)
    exact = f.gradient_values(x, 0.0)
    for cfg, tol in ((FD2, 1e-8), (FD4, 1e-10)):
        approx = cartesian_gradient(f, cfg).values(x, 0.0)
        np.testing.assert_allclose(approx, exact, atol=tol)


def test_gradient_layout_derivative_axis_last():
    """grad u has components (grad u)[a, k] = d_k u_a."""
    f = vector_field(3, lambda x, t: np.array([x[1] ** 2, 0.0, 0.0]))
    g = cartesian_gradient(f, FD2).values(np.array([0.0, 2.0, 0.0]), 0.0)
    np.testing.assert_allclose(g[0, 1], 4.0, atol=1e-7)
    np.testing.assert_allclose(g[1, 0], 0.0, atol=1e-7)


@pytest.mark.parametrize("mode", ["fd2", "analytic"])
@pytest.mark.parametrize("op", [
    lambda f, geom, cfg: project_field(f, geom),
    submanifold_gradient, covariant_gradient, divergence, laplacian, covariant_laplacian,
    perp_field, surface_curl, rotated_gradient,
], ids=["project_field", "submanifold_gradient", "covariant_gradient", "divergence", "laplacian",
        "covariant_laplacian", "perp_field", "surface_curl", "rotated_gradient"])
def test_a_field_of_another_dimension_is_refused_at_construction(op, mode, rng):
    sphere = get_case("sphere").geometry
    with pytest.raises(ShapeError, match=r"R\^4, the geometry in R\^3"):
        op(random_polynomial(4, 1, rng), sphere, DiffConfig(mode=mode))


def test_operator_fields_hold_no_reference_cycles(rng):
    # a cycle keeps a dropped field, and all it closes over, alive until the
    # cyclic collector runs, which raises the peak memory of repeated stacks
    gc.collect()
    gc.disable()
    try:
        for name in ("sphere", "torus"):
            geom = get_case(name).geometry
            x = get_case(name).sample_points(2)
            for mode in ("fd2", "analytic"):
                cfg = DiffConfig(mode=mode)
                u = random_polynomial(3, 1, rng, degree=2)
                for field in (covariant_laplacian(u, geom, cfg), surface_curl(u, geom, cfg),
                              cartesian_gradient(submanifold_gradient(u, geom, cfg), cfg)):
                    field.values(x)
        del field
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_submanifold_gradient_of_height():
    case = get_case("sphere")
    f = coordinate(3, 2)
    g = submanifold_gradient(f, case.geometry, AN)
    for x in case.sample_points(5):
        fr = case.geometry.frame_at(x, 0.0)
        np.testing.assert_allclose(g.values(x, 0.0), fr.P @ np.array([0, 0, 1.0]), atol=1e-12)


def test_divergence_of_position_is_manifold_dim():
    for name, dim in (("sphere", 2), ("torus", 2), ("circle3d", 1)):
        case = get_case(name)
        div = divergence(position(3), case.geometry, AN)
        for x in case.sample_points(4):
            np.testing.assert_allclose(float(div.values(x, 0.0)), dim, atol=1e-12)


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_mean_curvature_sphere(radius):
    case = get_case("sphere", radius=radius)
    pts = case.sample_points(6)
    for cfg, tol in ((FD2, 1e-5), (AN, 1e-9)):
        kap = mean_curvature(case.geometry, cfg)
        worst = max(
            np.linalg.norm(kap.values(x, 0.0) - 2.0 * np.asarray(x) / radius**2)
            for x in pts
        )
        assert worst <= tol


def test_mean_curvature_codim2_circle():
    case = get_case("circle3d", radius=1.5)
    pts = case.sample_points(6)
    for cfg, tol in ((FD2, 1e-5), (AN, 1e-9)):
        kap = mean_curvature(case.geometry, cfg)
        for x in pts:
            radial = np.array([x[0], x[1], 0.0]) / 1.5**2
            np.testing.assert_allclose(kap.values(x, 0.0), radial, atol=tol)


def test_mean_curvature_torus():
    major, minor = 2.0, 0.5
    case = get_case("torus", major=major, minor=minor)
    kap = mean_curvature(case.geometry, AN)
    for x in case.sample_points(6):
        s = math.hypot(x[0], x[1])
        a = s - major
        nhat = np.array([a * x[0] / s, a * x[1] / s, x[2]]) / minor
        expected = (1.0 / minor + a / (minor * s)) * nhat
        np.testing.assert_allclose(kap.values(x, 0.0), expected, atol=1e-9)


@pytest.mark.parametrize("name,params", [
    ("sphere", {"radius": 2.0}),
    ("circle3d", {"radius": 1.5}),
    ("torus", {"major": 3.0, "minor": 0.75}),
])
def test_case_curvature_is_the_mean_curvature_vector(name, params):
    """The closed form a case carries, at parameters other than its
    defaults, against the analytic mean curvature operator."""
    case = get_case(name, **params)
    pts = case.sample_points(6)
    want = mean_curvature(case.geometry, AN).values(pts)
    np.testing.assert_allclose(case.curvature(pts), want, rtol=1e-12, atol=1e-12)


def test_case_curvature_is_none_without_a_closed_form():
    with_form = {name for name in available() if get_case(name).curvature is not None}
    assert with_form == {"sphere", "circle3d", "torus"}


def test_shape_operator_sphere_is_scaled_projector():
    case = get_case("sphere", radius=2.0)
    B = shape_operator(case.geometry, 0, AN)
    for x in case.sample_points(4):
        fr = case.geometry.frame_at(x, 0.0)
        np.testing.assert_allclose(B.values(x, 0.0), fr.P / 2.0, atol=1e-10)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_laplacian_of_coordinate(j):
    """Delta_M x_j = -(2 / R^2) x_j on the sphere, the nested fd2 workhorse."""
    case = get_case("sphere", radius=1.3)
    lap = laplacian(coordinate(3, j), case.geometry, FD2)
    lap_an = laplacian(coordinate(3, j), case.geometry, AN)
    for x in case.sample_points(4):
        want = -(2.0 / 1.3**2) * x[j]
        assert abs(float(lap.values(x, 0.0)) - want) <= 1e-4
        assert abs(float(lap_an.values(x, 0.0)) - want) <= 1e-9


def test_laplacians_agree_on_scalars():
    case = get_case("torus")
    f = scalar_field(3, lambda x, t: x[0] * x[2], grad=lambda x, t: np.array([x[2], 0.0, x[0]]))
    a = laplacian(f, case.geometry, AN)
    b = covariant_laplacian(f, case.geometry, AN)
    for x in case.sample_points(4):
        np.testing.assert_allclose(float(a.values(x, 0.0)), float(b.values(x, 0.0)), atol=1e-10)


def test_covariant_laplacian_of_killing_field():
    case = get_case("sphere")
    u = killing_field()
    lap = covariant_laplacian(u, case.geometry, FD2)
    lap_an = covariant_laplacian(u, case.geometry, AN)
    for x in case.sample_points(4):
        want = -u.values(x, 0.0)
        assert np.linalg.norm(lap.values(x, 0.0) - want) <= 1e-3
        assert np.linalg.norm(lap_an.values(x, 0.0) - want) <= 1e-6


def test_surface_curl_of_plane_rotation():
    case = get_case("plane_disk")
    u = killing_field()
    for cfg, tol in ((FD2, 1e-8), (AN, 1e-12)):
        curl = surface_curl(u, case.geometry, cfg)
        for x in case.sample_points(4):
            np.testing.assert_allclose(float(curl.values(x, 0.0)), 2.0, atol=tol)


def test_surface_curl_of_gradient_vanishes(rng):
    case = get_case("sphere")
    f = random_polynomial(3, 0, rng, degree=2)
    curl = surface_curl(submanifold_gradient(f, case.geometry, AN), case.geometry, AN)
    for x in case.sample_points(4):
        assert abs(float(curl.values(x, 0.0))) <= 1e-8


def test_rotated_gradient_is_orthogonal_isometry(rng):
    case = get_case("sphere")
    f = random_polynomial(3, 0, rng, degree=2)
    g = submanifold_gradient(f, case.geometry, AN)
    rg = rotated_gradient(f, case.geometry, AN)
    for x in case.sample_points(4):
        gv, rv = g.values(x, 0.0), rg.values(x, 0.0)
        np.testing.assert_allclose(gv @ rv, 0.0, atol=1e-10)
        np.testing.assert_allclose(np.linalg.norm(rv), np.linalg.norm(gv), atol=1e-10)


def test_projector_rate_identities():
    """D_w P = -2 C[w] with tangential part of C[w] equal to zero."""
    case = get_case("expanding_sphere", radius=1.0, speed=0.2)
    geom, w = case.geometry, case.velocity
    c = projector_rate(geom, w, AN)
    rate = material_derivative(projector_field(geom), w, AN)
    proj_c = project_field(c, geom)
    for x in case.sample_points(4):
        np.testing.assert_allclose(rate.values(x, 0.0), -2.0 * c.values(x, 0.0), atol=1e-7)
        np.testing.assert_allclose(proj_c.values(x, 0.0), np.zeros((3, 3)), atol=1e-10)


def test_material_rate_of_normal():
    case = get_case("expanding_sphere", radius=1.0, speed=0.2)
    geom, w = case.geometry, case.velocity
    dn = material_derivative(normal_field(geom), w, AN)
    gw = cartesian_gradient(w, AN)
    for x in case.sample_points(4):
        nvec = geom.frame_at(x, 0.0).normals[0]
        np.testing.assert_allclose(dn.values(x, 0.0), -nvec @ gw.values(x, 0.0), atol=1e-9)


def test_time_partial():
    f = scalar_field(3, lambda x, t: t**2 * x[0], dt=None)
    ft = time_partial(f, DiffConfig(mode="fd2", ht=1e-5))
    np.testing.assert_allclose(float(ft.values(np.array([2.0, 0, 0]), 1.5)), 6.0, atol=1e-7)


def test_nested_depth_guard():
    f = position(3)
    g = cartesian_gradient(f, FD2)
    gg = cartesian_gradient(g, FD2)
    ggg = cartesian_gradient(gg, FD2)
    with pytest.raises(DepthError):
        cartesian_gradient(ggg, FD2).values(np.zeros(3), 0.0)


def test_polynomial_field_evaluates_exponent_table():
    f = polynomial(3, 0, exponents=[(1, 1, 0), (0, 0, 2)], coeffs=[2.0, -1.0])
    x = np.array([1.0, 3.0, 2.0])
    np.testing.assert_allclose(float(f.values(x, 0.0)), 2.0 * 3.0 - 4.0, atol=1e-14)
    np.testing.assert_allclose(f.gradient_values(x, 0.0), [6.0, 2.0, -4.0], atol=1e-14)


def test_constant_field_has_zero_derivatives():
    f = constant(3, scalar(4.0, 3))
    np.testing.assert_allclose(f.gradient_values(np.ones(3), 0.0), np.zeros(3), atol=0)
    np.testing.assert_allclose(float(f.dt_values(np.ones(3), 0.0)), 0.0, atol=0)
