"""Atlases, surface and boundary quadrature, and the integral identities."""

import math

import numpy as np
import pytest

from tensorcalc.builtins import _norm_level, get_case
from tensorcalc.evolving import transport_rate_fd
from tensorcalc.fields import (
    constant, coordinate, position, random_polynomial, scalar_field, tf_scale, vector_field,
)
from tensorcalc.geometry import LevelSet, LevelSetGeometry
from tensorcalc.operators import DiffConfig, normal_field, submanifold_gradient
from tensorcalc import quadrature
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
    _stokes_terms,
)
from tensorcalc.tensor import (
    ShapeError, _contract_left, _contract_right, _frobenius, _partials, covector,
)

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

    planar = get_case("circle2d", radius=1.5).atlas(order=12, panels=2)
    assert abs(integrate(planar, ONE) - 2 * math.pi * 1.5) <= 1e-12

    # the expanding sphere's chart maps onto radius R + c t at time t
    grown = get_case("expanding_sphere", radius=1.0, speed=0.25).atlas(order=12, panels=2)
    want = 4 * math.pi * (1.0 + 0.25 * 0.3) ** 2
    assert abs(integrate(grown, ONE, t=0.3) - want) <= 1e-10 * want


def test_atlases_of_one_case_share_its_charts_and_keep_their_own_nodes():
    case = get_case("hemisphere")
    coarse, fine = case.atlas(order=4, panels=1), case.atlas(order=6, panels=2)
    assert coarse.charts[0] is fine.charts[0] is case.charts[0]
    assert (coarse.order, coarse.panels, fine.order, fine.panels) == (4, 1, 6, 2)
    [(X4, _)], [(X12, _)] = coarse.points(0.0), fine.points(0.0)
    assert X4.shape == (16, 3) and X12.shape == (144, 3)
    assert coarse.points(0.0)[0][0] is X4 and fine.points(0.0)[0][0] is X12
    assert boundary_points(coarse).x.shape == (4, 3)
    assert boundary_points(fine).x.shape == (12, 3)
    assert abs(integrate(fine, ONE) - 2 * math.pi) <= 1e-8
    for order, panels in ((0, 1), (4, 0)):
        with pytest.raises(ShapeError, match="order and panels must be positive"):
            Atlas(case.geometry, case.charts, order, panels)


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
        for X, _ in atlas.points(0.0):
            for x in X:
                worst = max(worst, float(np.max(np.abs(case.geometry.level_values(x, 0.0)))))
        assert worst <= 1e-12


def test_chart_points_are_computed_once_per_time_and_read_only():
    times = []

    def mapping(u, t):
        times.append(t)
        return np.array([u[0], t, 0.0])

    atlas = Atlas(get_case("circle3d").geometry, [Chart([0.0], [1.0], mapping)], order=3, panels=1)
    [(X, meas)] = atlas.points(0.0)
    made = len(times)
    [again] = atlas.points(0.0)
    assert again[0] is X and again[1] is meas
    assert len(times) == made
    with pytest.raises(ValueError):
        X[0, 0] = 1.0
    with pytest.raises(ValueError):
        meas[0] = 1.0
    [(later, _)] = atlas.points(0.5)
    assert len(times) > made
    np.testing.assert_array_equal(later[:, 1], 0.5)


def test_a_pointwise_chart_gives_the_nodes_of_its_batched_twin():
    """A public Chart takes a pointwise map and Jacobian and runs them
    over the nodes one by one: the sphere's chart wrapped so gives the same
    nodes and weights bit for bit."""
    [polar] = get_case("sphere").charts
    chart = Chart(polar.lo, polar.hi, lambda u, t: polar.mapping(u, t),
                  lambda u, t: polar._jacobian(u, t), name="pointwise")
    for got, want in zip(chart.points(6, 2, 0.0), polar.points(6, 2, 0.0)):
        np.testing.assert_array_equal(got, want)


def test_boundary_points_are_made_once_per_time_and_read_only():
    atlas = get_case("hemisphere").atlas(order=6, panels=1)
    frames = _counting_frames(atlas)
    B = boundary_points(atlas)
    assert boundary_points(atlas, 0.0) is B
    assert len(frames) == 1
    for arr in (B.x, B.conormal, B.weight, B.tangent):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    later = boundary_points(atlas, 0.5)
    assert later is not B and len(frames) == 2
    np.testing.assert_array_equal(later.x, B.x)
    # the batch lives on the atlas: a new atlas of the same case makes its own
    assert boundary_points(get_case("hemisphere").atlas(order=6, panels=1)) is not B


def test_stokes_terms_evaluate_the_curvature_once_per_config_and_time(monkeypatch):
    evaluated = []
    real = quadrature.mean_curvature

    def counting(geom, cfg):
        kap = real(geom, cfg)

        class Counted:
            def values(self, X, t):
                evaluated.append((cfg.mode, t, len(X)))
                return kap.values(X, t)

        return Counted()

    monkeypatch.setattr(quadrature, "mean_curvature", counting)
    atlas = get_case("torus").atlas(order=6, panels=1)
    per_pass = len(atlas.charts)
    first = _stokes_terms(atlas, lambda X, t, v: v, FD2)[1]
    for pair in (lambda X, t, v: v, lambda X, t, v: 2.0 * v):
        _stokes_terms(atlas, pair, FD2)
    assert len(evaluated) == per_pass
    np.testing.assert_array_equal(_stokes_terms(atlas, lambda X, t, v: v, FD2)[1], first)
    _stokes_terms(atlas, lambda X, t, v: v, AN)
    assert len(evaluated) == 2 * per_pass
    _stokes_terms(atlas, lambda X, t, v: v, FD2, t=0.5)
    _stokes_terms(atlas, lambda X, t, v: v, FD2, t=0.5)
    assert len(evaluated) == 3 * per_pass
    assert [e[:2] for e in evaluated[::per_pass]] == [("fd2", 0.0), ("analytic", 0.0), ("fd2", 0.5)]
    for kappa in atlas._curvature(FD2, 0.0):
        with pytest.raises(ValueError):
            kappa[0, 0] = 0.0


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

    chart = Chart([0.5 * math.pi, 0.0], [math.pi, 2 * math.pi], mapping,
                  boundary_sides=((0, 0),), name="south")
    B = boundary_points(Atlas(get_case("sphere").geometry, [chart], order=8, panels=1,
                              name="south"))
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


def test_weak_form_rejects_a_flux_of_the_wrong_shape_naming_the_atlas(rng):
    atlas = get_case("hemisphere").atlas(order=3, panels=1)
    test = random_polynomial(3, 1, rng, degree=1)
    flux = lambda B, t: B.conormal[:, :1]  # (N, 1) for a vector test field
    with pytest.raises(ShapeError, match=r"flux .* shape \(3, 1\) .* atlas 'hemisphere'"):
        weak_form(atlas, test, test, None, flux, DiffConfig(mode="analytic"))


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


def test_weak_form_of_a_field_with_itself_takes_one_covariant_gradient(rng, monkeypatch):
    atlas = get_case("sphere").atlas(order=10, panels=1)
    u = random_polynomial(3, 1, rng, degree=2)
    want = weak_form(atlas, u, tf_scale(u, 1.0), None, None, AN)[0]  # two gradients
    built = []
    covariant_gradient = quadrature.covariant_gradient

    def counting(field, *args):
        built.append(field)
        return covariant_gradient(field, *args)

    monkeypatch.setattr(quadrature, "covariant_gradient", counting)
    np.testing.assert_allclose(weak_form(atlas, u, u, None, None, AN)[0], want, rtol=1e-14)
    assert built == [u]


def _three_sphere(a_hi=math.pi, sides=(), exact=True):
    """The unit 3-sphere in R^4 under the hyperspherical chart (a, b, c) ->
    (sin a sin b cos c, sin a sin b sin c, sin a cos b, cos a), with
    a <= a_hi; the Jacobian is exact or a difference."""

    def mapping(U, t):
        sa, ca, sb, cb = np.sin(U[:, 0]), np.cos(U[:, 0]), np.sin(U[:, 1]), np.cos(U[:, 1])
        sc, cc = np.sin(U[:, 2]), np.cos(U[:, 2])
        return np.stack([sa * sb * cc, sa * sb * sc, sa * cb, ca], axis=-1)

    def jacobian(U, t):
        sa, ca, sb, cb = np.sin(U[:, 0]), np.cos(U[:, 0]), np.sin(U[:, 1]), np.cos(U[:, 1])
        sc, cc, zero = np.sin(U[:, 2]), np.cos(U[:, 2]), np.zeros(len(U))
        rows = [[ca * sb * cc, sa * cb * cc, -sa * sb * sc],
                [ca * sb * sc, sa * cb * sc, sa * sb * cc],
                [ca * cb, -sa * sb, zero],
                [-sa, zero, zero]]
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=1)

    chart = Chart._batched([0.0, 0.0, 0.0], [a_hi, math.pi, 2 * math.pi], mapping,
                           jacobian if exact else None, boundary_sides=sides,
                           name="hyperspherical")
    return Atlas(LevelSetGeometry(4, [_norm_level(4, 1.0)]), [chart], order=8, panels=1, name="S3")


@pytest.mark.parametrize("exact", [True, False])
def test_three_sphere_volumes(exact):
    """A chart of three parameters: vol S^3 = 2 pi^2, and half of it above x_4 = 0."""
    np.testing.assert_allclose(integrate(_three_sphere(exact=exact), ONE), 2 * math.pi**2,
                               rtol=2e-10)
    half = _three_sphere(0.5 * math.pi, sides=((0, 1),), exact=exact)
    np.testing.assert_allclose(integrate(half, ONE), math.pi**2, rtol=2e-10)


def test_three_sphere_hemisphere_boundary_is_the_equatorial_two_sphere():
    B = boundary_points(_three_sphere(0.5 * math.pi, sides=((0, 1),)))
    assert B.x.shape == B.conormal.shape == (64, 4)
    assert B.tangent is None and B.end_sign is None
    np.testing.assert_allclose(np.linalg.norm(B.x, axis=1), 1.0, atol=1e-14)
    np.testing.assert_allclose(B.x[:, 3], 0.0, atol=1e-14)
    np.testing.assert_allclose(B.conormal, np.tile([0.0, 0.0, 0.0, -1.0], (64, 1)), atol=1e-12)
    assert abs(B.weight.sum() - 4 * math.pi) <= 1e-10 * 4 * math.pi


@pytest.mark.parametrize("mode", ["fd2", "analytic"])
def test_three_sphere_stokes_pieces(mode):
    """For the constant field e_4 on the upper half of S^3 the boundary term is
    -4 pi and the curvature term +4 pi: int 3 x_4 over the half."""
    half = _three_sphere(0.5 * math.pi, sides=((0, 1),))
    res = stokes_residual(half, constant(4, covector([0.0, 0.0, 0.0, 1.0])), DiffConfig(mode=mode))
    assert abs(float(res.lhs)) <= 1e-12
    np.testing.assert_allclose(float(res.pieces["boundary"]), -4 * math.pi, rtol=1e-10)
    np.testing.assert_allclose(float(res.pieces["curvature"]), 4 * math.pi, rtol=1e-10)
    assert res.abs_residual <= 1e-9


def test_sheared_box_faces_take_their_conormals_off_the_face():
    """A sheared unit box in the 3-plane x_4 = 0 of R^4, with all six sides
    as boundary.  No outward parameter direction is normal to its face, so
    each co-normal must be projected off the face's tangents."""
    shear = np.array([[1.0, 0.5, 0.25], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    chart = Chart._batched([0.0] * 3, [1.0] * 3, lambda U, t: U @ shear.T,
                           lambda U, t: np.broadcast_to(shear, U.shape[:-1] + shear.shape),
                           name="box",
                           boundary_sides=[(a, e) for a in range(3) for e in (0, 1)])
    plane = LevelSet(lambda x, t: x[3], lambda x, t: np.array([0.0, 0.0, 0.0, 1.0]),
                     lambda x, t: np.zeros((4, 4)))
    atlas = Atlas(LevelSetGeometry(4, [plane]), [chart], order=2, panels=1, name="box")
    assert abs(integrate(atlas, ONE) - 1.0) <= 1e-14
    U, _ = chart.rule(2, 1)
    assert U.shape == (8, 3) and (np.diff(U[:, 0]) >= 0).all()  # axis 0 slowest
    B = boundary_points(atlas)
    assert B.x.shape == (24, 4)
    # the unit normal of each face, in the plane, out of the box
    grads = np.linalg.inv(shear[:3])  # row a is grad u_a, normal to the faces of side a
    for a in range(3):
        for e, sign in ((0, -1.0), (1, 1.0)):
            on = slice(8 * a + 4 * e, 8 * a + 4 * e + 4)
            want = np.append(sign * grads[a] / np.linalg.norm(grads[a]), 0.0)
            np.testing.assert_allclose(B.conormal[on], np.tile(want, (4, 1)), atol=1e-14)
            area = np.linalg.norm(np.cross(*np.delete(shear[:3].T, a, axis=0)))
            np.testing.assert_allclose(B.weight[on].sum(), area, rtol=1e-14)
    res = stokes_residual(atlas, position(4), AN)  # int div_M x = 3 vol
    np.testing.assert_allclose(float(res.lhs), 3.0, rtol=1e-14)
    assert res.abs_residual <= 1e-13


def test_atlas_rejects_a_chart_of_the_wrong_dimension_naming_it():
    path = Chart([0.0], [math.pi], lambda u, t: np.array([np.sin(u[0]), 0.0, np.cos(u[0])]),
                 name="meridian")
    with pytest.raises(ShapeError, match=r"chart 'meridian' has 1 parameters.* 2-dimensional"):
        Atlas(get_case("sphere").geometry, [path], name="wrong")


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
    [(X, _)] = moved.points(dt)
    worst = max(float(np.max(np.abs(case.geometry.level_values(x, dt)))) for x in X)
    assert worst <= 1e-10
    area = integrate(moved, ONE, t=dt)
    np.testing.assert_allclose(area, 4 * math.pi * (1.0 + 0.25 * dt) ** 2, atol=1e-8)


def test_advected_charts_carry_the_exact_jacobian_of_the_rk4_map():
    # a velocity that depends on t, so each stage's gradient is taken at its
    # own time; the Jacobian is the derivative of the discrete map, which a
    # fourth-order difference of that map matches to its h^4 error
    A = np.array([[0.2, -1.0, 0.1], [1.0, 0.3, 0.0], [-0.2, 0.4, -0.1]])
    b = np.array([0.5, -0.3, 0.8])

    def velocity(x, t):
        return (1 + t) * (A @ x) + b * x[0] * x[1]

    w = vector_field(3, velocity,
                     jacobian=lambda x, t: (1 + t) * A + np.outer(b, [x[1], x[0], 0.0]))
    bare = vector_field(3, velocity)
    t0, dt = 0.3, 0.1
    for name in ("sphere", "hemisphere", "torus"):
        atlas = get_case(name).atlas(order=4, panels=1)
        exact = advected_atlas(atlas, w, t0, dt).charts[0]
        differenced = advected_atlas(atlas, bare, t0, dt).charts[0]
        assert exact._jacobian is not None and differenced._jacobian is None
        U, _ = exact.rule(4, 1)
        J = exact._jacobians(U, t0 + dt)
        want = _partials(lambda V: exact._map(V, t0 + dt), U, 1e-3 * (exact.hi - exact.lo), 4)
        scale = np.abs(J).max()
        np.testing.assert_allclose(J, want, rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(differenced._jacobians(U, t0 + dt), J, rtol=0, atol=1e-9 * scale)


def test_an_advected_chart_without_a_base_jacobian_differences_its_map():
    case = get_case("expanding_sphere", radius=1.0, speed=0.25)
    base = case.atlas(order=4, panels=1)
    bare = Atlas(base.geometry, [Chart(c.lo, c.hi, c._map) for c in base.charts],
                 order=4, panels=1)
    exact = advected_atlas(base, case.velocity, 0.0, 0.1).charts[0]
    differenced = advected_atlas(bare, case.velocity, 0.0, 0.1).charts[0]
    assert case.velocity.has_gradient and exact._jacobian is not None
    assert differenced._jacobian is None
    U, _ = exact.rule(4, 1)
    np.testing.assert_allclose(differenced._jacobians(U, 0.1), exact._jacobians(U, 0.1),
                               rtol=0, atol=1e-8)


def test_advected_atlas_is_made_once_per_field_and_step():
    case = get_case("expanding_sphere", radius=1.0, speed=0.25)
    atlas = case.atlas(order=6, panels=1)
    moved = advected_atlas(atlas, case.velocity, 0.0, 1e-3)
    assert advected_atlas(atlas, case.velocity, 0.0, 1e-3) is moved
    same_field = get_case("expanding_sphere", radius=1.0, speed=0.25).velocity
    assert advected_atlas(atlas, same_field, 0.0, 1e-3) is not moved
    assert advected_atlas(atlas, case.velocity, 0.0, -1e-3) is not moved
    assert advected_atlas(atlas, case.velocity, 0.5, 1e-3) is not moved
    assert advected_atlas(case.atlas(order=6, panels=1), case.velocity, 0.0, 1e-3) is not moved


def test_advected_atlas_keeps_only_the_latest_start_time():
    # a time loop keeps the two moved atlases of its current step, not all of them
    case = get_case("expanding_sphere", radius=1.0, speed=0.1)
    atlas = case.atlas(order=4, panels=1)
    for i in range(50):
        transport_rate_fd(atlas, ONE, case.velocity, t=0.01 * i)
    assert len(atlas._advected) == 2
    assert {t0 for _, t0, _ in atlas._advected} == {0.49}


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


def test_a_value_with_the_node_count_as_first_axis_is_read_as_per_node_values():
    """A callable's value is read by its shape alone: no shape check can tell
    (N,) per-node scalars from a constant vector of length N, so on the
    hemisphere's three boundary nodes [1, 0, 0] integrates to the first
    node's weight, and on a three-node helix chart [1, 2, 3] to the nodes'
    weighted sum."""
    atlas = get_case("hemisphere").atlas(order=3, panels=1)
    weight = boundary_points(atlas).weight
    assert weight.shape == (3,)
    got = integrate_boundary(atlas, lambda B, t: np.array([1.0, 0.0, 0.0]))
    assert np.shape(got) == () and got == weight[0]
    np.testing.assert_allclose(got, math.pi * 5 / 9, rtol=1e-12)  # the ends' Gauss weight 5/9 of pi
    helix = get_case("helix").atlas(order=3, panels=1)
    [(_, meas)] = helix.points(0.0)
    assert meas.shape == (3,)
    got = integrate(helix, lambda X, t: np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(got, meas @ [1.0, 2.0, 3.0], rtol=1e-15)


@pytest.mark.parametrize("value", [2.5, -1.0])
def test_a_constant_given_as_a_number_integrates_to_number_times_measure(value):
    sphere = get_case("sphere").atlas(order=12, panels=2)
    np.testing.assert_allclose(integrate(sphere, lambda X, t: value), value * 4 * math.pi,
                               rtol=1e-13)
    hemi = get_case("hemisphere").atlas(order=12, panels=2)
    np.testing.assert_allclose(integrate_boundary(hemi, lambda B, t: value), value * 2 * math.pi,
                               rtol=1e-13)
