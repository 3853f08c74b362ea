"""Atlases, surface and boundary quadrature, and the integral identities."""

import math

import numpy as np
import pytest

from tensorcalc.builtins import get_case
from tensorcalc.fields import coordinate, random_polynomial, scalar_field, vector_field
from tensorcalc.operators import DiffConfig, normal_field, submanifold_gradient
from tensorcalc.quadrature import (
    Atlas,
    Chart,
    boundary_points,
    circulation_residual,
    gradient_residual,
    integrate,
    integrate_boundary,
    integration_by_parts,
    path_ftc_residual,
    rk4_step,
    stokes_residual,
    advected_atlas,
    weak_form,
)
from tensorcalc.tensor import _contract_left, _contract_right, _frobenius

AN = DiffConfig(mode="analytic")
FD2 = DiffConfig(mode="fd2")
ONE = lambda x, t: 1.0


def test_closed_areas_match_closed_forms():
    sphere = get_case("sphere", radius=1.5).atlas(order=12, panels=2)
    assert abs(integrate(sphere, ONE) - 4 * math.pi * 1.5**2) <= 1e-10 * 4 * math.pi

    torus = get_case("torus", major=2.0, minor=0.5).atlas(order=16, panels=2)
    assert abs(integrate(torus, ONE) - 4 * math.pi**2) <= 1e-9

    circle = get_case("circle3d", radius=2.0).atlas(order=12, panels=2)
    assert abs(integrate(circle, ONE) - 4 * math.pi) <= 1e-12


def test_open_patches_and_curve_lengths():
    hemi = get_case("hemisphere").atlas(order=12, panels=2)
    assert abs(integrate(hemi, ONE) - 2 * math.pi) <= 1e-10

    disk = get_case("plane_disk").atlas(order=12, panels=2)
    assert abs(integrate(disk, ONE) - math.pi) <= 1e-12

    radius, pitch, turns = 1.0, 0.25, 1.5
    helix = get_case("helix", radius=radius, pitch=pitch, turns=turns).atlas(order=12, panels=2)
    expected = 2 * math.pi * turns * math.hypot(radius, pitch)
    assert abs(integrate(helix, ONE) - expected) <= 1e-12


def test_normal_integral_vanishes_on_closed_surfaces():
    for name in ("sphere", "torus"):
        case = get_case(name)
        atlas = case.atlas(order=16, panels=2)
        total = integrate(atlas, normal_field(case.geometry))
        np.testing.assert_allclose(np.asarray(total), np.zeros(3), atol=1e-10)


def test_quadrature_nodes_sit_on_the_level_set():
    for name in ("sphere", "torus", "helix", "hemisphere"):
        case = get_case(name)
        atlas = case.atlas(order=8, panels=1)
        worst = 0.0
        for chart in atlas.charts:
            X, _ = chart.points(0.0)
            for x in X:
                worst = max(worst, float(np.max(np.abs(case.geometry.level_values(x, 0.0)))))
        assert worst <= 1e-12


def test_chart_points_are_computed_once_per_time_and_read_only():
    times = []

    def mapping(u, t):
        times.append(t)
        return np.array([u[0], t, 0.0])

    chart = Chart([0.0], [1.0], mapping, order=3, panels=1)
    X, meas = chart.points(0.0)
    made = len(times)
    again = chart.points(0.0)
    assert again[0] is X and again[1] is meas
    assert len(times) == made
    with pytest.raises(ValueError):
        X[0, 0] = 1.0
    with pytest.raises(ValueError):
        meas[0] = 1.0
    later, _ = chart.points(0.5)
    assert len(times) > made
    np.testing.assert_array_equal(later[:, 1], 0.5)


def test_area_error_decreases_with_order():
    case = get_case("sphere")
    errs = [
        abs(integrate(case.atlas(order=k, panels=1), ONE) - 4 * math.pi)
        for k in (2, 3, 4, 5)
    ]
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_boundary_is_absent_on_closed_atlases():
    atlas = get_case("sphere").atlas(order=8, panels=1)
    assert atlas.closed
    B = boundary_points(atlas)
    assert B.x.shape == B.conormal.shape == B.tangent.shape == (0, 3)
    assert B.weight.shape == (0,) and B.end_sign is None
    np.testing.assert_array_equal(integrate_boundary(atlas, lambda B, t: 1.0), 0.0)
    total = integrate_boundary(atlas, lambda B, t: B.x[:, :, None] * B.conormal[:, None, :])
    np.testing.assert_array_equal(total, np.zeros((3, 3)))
    circle = boundary_points(get_case("circle3d").atlas(order=8, panels=1))
    assert circle.end_sign.shape == (0,) and circle.tangent is None


def test_hemisphere_boundary_geometry():
    """Co-normal on the equator points straight down and tau runs eastward."""
    B = boundary_points(get_case("hemisphere", radius=1.5).atlas(order=10, panels=1))
    assert B.x.shape == B.conormal.shape == B.tangent.shape == (10, 3)
    assert B.end_sign is None
    assert abs(B.weight.sum() - 3 * math.pi) <= 1e-12
    np.testing.assert_allclose(B.x[:, 2], 0.0, atol=1e-14)
    np.testing.assert_allclose(B.conormal, np.tile([0.0, 0.0, -1.0], (10, 1)), atol=1e-12)
    east = np.column_stack([-B.x[:, 1], B.x[:, 0], np.zeros(10)])
    np.testing.assert_allclose(B.tangent, east / np.linalg.norm(east, axis=1)[:, None], atol=1e-12)


def test_lower_hemisphere_boundary_runs_westward():
    """On the lower side of a chart the parameter tangent runs east, and the
    orientation det[conormal, tangent, normal] > 0 turns it west."""

    def mapping(u, t):  # a pointwise chart with difference Jacobians
        return np.array([np.sin(u[0]) * np.cos(u[1]), np.sin(u[0]) * np.sin(u[1]), np.cos(u[0])])

    chart = Chart([0.5 * math.pi, 0.0], [math.pi, 2 * math.pi], mapping, periodic=(False, True),
                  order=8, panels=1, boundary_sides=((0, 0),), name="south")
    B = boundary_points(Atlas(get_case("sphere").geometry, [chart], name="south"))
    np.testing.assert_allclose(B.conormal, np.tile([0.0, 0.0, 1.0], (8, 1)), atol=1e-8)
    west = np.column_stack([B.x[:, 1], -B.x[:, 0], np.zeros(8)])
    np.testing.assert_allclose(B.tangent, west / np.linalg.norm(west, axis=1)[:, None], atol=1e-8)
    assert abs(B.weight.sum() - 2 * math.pi) <= 1e-8


def test_disk_boundary_geometry():
    B = boundary_points(get_case("plane_disk").atlas(order=10, panels=1))
    assert B.x.shape == (10, 3)
    rad = B.x * [1.0, 1.0, 0.0]
    np.testing.assert_allclose(B.conormal, rad / np.linalg.norm(rad, axis=1)[:, None], atol=1e-12)
    np.testing.assert_allclose(np.sum(B.tangent * B.conormal, axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(B.tangent, axis=1), 1.0, atol=1e-12)


def test_helix_endpoint_signs():
    case = get_case("helix")
    B = boundary_points(case.atlas(order=8, panels=1))
    np.testing.assert_array_equal(B.end_sign, [-1.0, 1.0])
    np.testing.assert_array_equal(B.weight, [1.0, 1.0])
    assert B.tangent is None
    # the co-normal is the unit path tangent, pointing out of the arc at each end
    w = case.velocity.values(B.x, 0.0)
    along = w / np.linalg.norm(w, axis=1)[:, None]
    np.testing.assert_allclose(B.conormal, B.end_sign[:, None] * along, atol=1e-12)


def _counting_frames(atlas):
    """Wrap the atlas geometry's frame_at so that it counts its calls."""
    calls = []
    frame_at = atlas.geometry.frame_at

    def counted(x, t=0.0):
        calls.append(np.shape(x))
        return frame_at(x, t)

    atlas.geometry.frame_at = counted
    return calls


@pytest.mark.parametrize("name", ["hemisphere", "plane_disk", "helix", "sphere"])
def test_boundary_makes_one_frame_and_one_integrand_call_per_atlas(name):
    atlas = get_case(name).atlas(order=6, panels=2)
    frames = _counting_frames(atlas)
    seen = []

    def integrand(B, t):
        seen.append(B.x.shape)
        return np.ones(len(B.x))

    total = integrate_boundary(atlas, integrand)
    nodes = 0 if atlas.closed else (2 if name == "helix" else 12)
    assert seen == [(nodes, 3)]
    assert frames == [(nodes, 3)]
    np.testing.assert_allclose(total, boundary_points(atlas).weight.sum())


def test_boundary_rejects_bad_values_naming_the_atlas():
    atlas = get_case("hemisphere").atlas(order=6, panels=1)
    with pytest.raises(ValueError, match="not finite on the boundary of atlas 'hemisphere'"):
        integrate_boundary(atlas, lambda B, t: np.where(B.x[:, 0] > 0.5, np.nan, 1.0))
    with pytest.raises(ValueError, match="boundary of atlas 'hemisphere'"):
        integrate_boundary(atlas, lambda B, t: np.ones(4))
    with pytest.raises(ValueError, match="boundary of atlas 'sphere'"):
        integrate_boundary(get_case("sphere").atlas(order=6, panels=1), lambda B, t: np.ones(3))


def test_weak_form_flux_term_is_the_boundary_integral(rng):
    atlas = get_case("hemisphere").atlas(order=10, panels=1)
    test = random_polynomial(3, 1, rng, degree=2)
    g = random_polynomial(3, 1, rng, degree=1)
    flux = lambda B, t: g.values(B.x, t) * B.conormal[:, 2:]
    _, ell = weak_form(atlas, test, test, None, flux, AN)
    want = integrate_boundary(atlas, lambda B, t: np.sum(test.values(B.x, t) * flux(B, t), axis=1))
    np.testing.assert_allclose(ell, want, rtol=1e-13, atol=0)
    assert abs(ell) > 1e-3
    _, closed = weak_form(get_case("sphere").atlas(order=6, panels=1), test, test, None, flux, AN)
    assert closed == 0.0


def test_node_contractions_take_sizes_from_shapes(rng):
    for N in (0, 3):
        s, f = rng.normal(size=(N, 3)), rng.normal(size=(N, 3, 3))
        np.testing.assert_allclose(_contract_left(s, f, 1), np.einsum("ia,iab->ib", s, f))
        np.testing.assert_allclose(_contract_right(f, s, 1), np.einsum("iab,ib->ia", f, s))
        np.testing.assert_allclose(_frobenius(f, f, 1), np.einsum("iab,iab->i", f, f))
        assert _contract_left(s, f, 1).shape == _contract_right(f, s, 1).shape == (N, 3)


def test_stokes_identity_rank1_and_rank2(rng):
    atlas = get_case("hemisphere").atlas(order=12, panels=2)
    for q in (1, 2):
        f = random_polynomial(3, q, rng, degree=2)
        res = stokes_residual(atlas, f, AN)
        assert res.rel_residual <= 1e-8


def test_stokes_hemisphere_height_pieces():
    """For f = e_z the equator circulation is -2 pi, the curvature term +2 pi."""
    atlas = get_case("hemisphere").atlas(order=12, panels=2)
    height = vector_field(
        3,
        lambda x, t: np.array([0.0, 0.0, 1.0]),
        jacobian=lambda x, t: np.zeros((3, 3)),
        name="e_z",
    )
    res = stokes_residual(atlas, height, AN)
    assert res.rel_residual <= 1e-10
    np.testing.assert_allclose(float(res.pieces["boundary"]), -2 * math.pi, atol=1e-9)
    np.testing.assert_allclose(float(res.pieces["curvature"]), 2 * math.pi, atol=1e-9)


def test_disk_circulation_value():
    atlas = get_case("plane_disk").atlas(order=12, panels=2)
    u = vector_field(
        3,
        lambda x, t: np.array([-x[1], x[0], 0.0]),
        jacobian=lambda x, t: np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    )
    res = circulation_residual(atlas, u, AN)
    assert res.rel_residual <= 1e-10
    np.testing.assert_allclose(float(res.lhs), 2 * math.pi, atol=1e-10)


def test_gradient_corollary(rng):
    for name in ("hemisphere", "sphere"):
        atlas = get_case(name).atlas(order=12, panels=2)
        res = gradient_residual(atlas, random_polynomial(3, 0, rng, degree=2), AN)
        assert res.rel_residual <= 1e-8


def test_gradient_corollary_height_value():
    """int_M P e_z = (0, 0, 8 pi / 3) on the unit sphere, from int (1 - z^2)."""
    atlas = get_case("sphere").atlas(order=12, panels=2)
    lhs = integrate(atlas, submanifold_gradient(coordinate(3, 2), atlas.geometry, AN))
    np.testing.assert_allclose(np.asarray(lhs), [0.0, 0.0, 8 * math.pi / 3], atol=1e-10)


def test_integration_by_parts(rng):
    atlas = get_case("sphere").atlas(order=12, panels=2)
    s = random_polynomial(3, 1, rng, degree=2)
    f = random_polynomial(3, 2, rng, degree=2)
    res = integration_by_parts(atlas, s, f, AN)
    assert res.rel_residual <= 1e-8


def test_path_gradient_theorem(rng):
    case = get_case("helix")
    atlas = case.atlas(order=12, panels=2)
    f = random_polynomial(3, 1, rng, degree=2)
    res = path_ftc_residual(atlas, f, case.velocity, AN)
    assert res.rel_residual <= 1e-8


def test_weak_form_is_symmetric(rng):
    atlas = get_case("sphere").atlas(order=10, panels=1)
    u = random_polynomial(3, 1, rng, degree=2)
    v = random_polynomial(3, 1, rng, degree=2)
    a_uv, _ = weak_form(atlas, u, v, None, None, AN)
    a_vu, _ = weak_form(atlas, v, u, None, None, AN)
    np.testing.assert_allclose(a_uv, a_vu, atol=1e-10)


def test_rk4_step_tracks_radial_expansion():
    case = get_case("expanding_sphere", radius=1.0, speed=0.25)
    x0 = np.array([1.0, 0.0, 0.0])
    x1 = rk4_step(x0, 0.0, 0.2, case.velocity)
    np.testing.assert_allclose(x1, [1.05, 0.0, 0.0], atol=1e-12)


def test_advected_atlas_follows_moving_level_set():
    case = get_case("expanding_sphere", radius=1.0, speed=0.25)
    atlas = case.atlas(order=8, panels=1)
    dt = 0.1
    moved = advected_atlas(atlas, case.velocity, 0.0, dt)
    X, _ = moved.charts[0].points(dt)
    worst = max(float(np.max(np.abs(case.geometry.level_values(x, dt)))) for x in X)
    assert worst <= 1e-10
    area = integrate(moved, ONE, t=dt)
    np.testing.assert_allclose(area, 4 * math.pi * (1.0 + 0.25 * dt) ** 2, atol=1e-8)


def test_scalar_field_weighting_in_integrals():
    atlas = get_case("sphere").atlas(order=12, panels=2)
    z2 = scalar_field(3, lambda x, t: x[2] ** 2)
    np.testing.assert_allclose(float(integrate(atlas, z2)), 4 * math.pi / 3, atol=1e-10)


def test_integrate_evaluates_each_chart_once():
    atlas = get_case("torus").atlas(order=6, panels=2)
    seen = []

    def integrand(X, t):
        seen.append(X.shape)
        return X[:, 2] ** 2

    integrate(atlas, integrand)
    assert seen == [(144, 3)]


def test_integrate_rejects_non_finite_values_naming_the_chart():
    atlas = get_case("sphere").atlas(order=6, panels=1)
    with pytest.raises(ValueError, match="not finite on chart 'polar'"):
        integrate(atlas, lambda X, t: np.where(X[:, 2] > 0.5, np.nan, 1.0))


def test_integrate_rejects_a_value_without_a_node_axis_naming_the_chart():
    atlas = get_case("sphere").atlas(order=6, panels=1)
    with pytest.raises(ValueError, match="chart 'polar'"):
        integrate(atlas, lambda X, t: np.ones(3))
    np.testing.assert_allclose(integrate(atlas, lambda X, t: 2.0), 8 * math.pi, atol=1e-3)
