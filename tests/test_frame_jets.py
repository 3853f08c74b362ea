"""Frame derivatives: the first and second orders differentiated from the
normals, the exact time partials of frame-built fields on geometries whose
frames do not depend on t, the second derivatives that operators build
from frames of order 2, and the evaluation scope that builds each frame
once per point array and gives a held frame the derivatives of a higher
order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc.builtins import get_case
from tensorcalc.fields import (
    TensorField,
    _field,
    _Lazy,
    constant,
    random_polynomial,
    tf_scale,
)
from tensorcalc.geometry import GeometryError, LevelSet, LevelSetGeometry, _frame_scope
from tensorcalc.operators import (
    DiffConfig,
    cartesian_gradient,
    covariant_gradient,
    covariant_laplacian,
    divergence,
    laplacian,
    material_derivative,
    normal_field,
    perp_field,
    project_field,
    projector_field,
    rotated_gradient,
    submanifold_gradient,
    surface_curl,
    time_partial,
)
from tensorcalc.stress import cross_stress, rotation_generator
from tensorcalc.tensor import Tensor, _central, _partials

AN = DiffConfig(mode="analytic")
FD4 = DiffConfig(mode="fd4")
X = np.array([[0.5, 0.3, 0.2], [0.1, -0.6, 0.3]])
T0 = 0.7


def _curve(rate=0.0, turn=0.0):
    """A curve of codimension two: the quadric 0.5 x.A x - 0.5 and the
    surface b.x + 0.05 |x|^4, each shifted by ``rate`` t, so the curve moves
    but its gradients do not depend on t, or with ``turn`` != 0 the quadric
    0.5 x.(A + turn t c c^T)x, whose normals do.  Every provider is given,
    pointwise."""
    A = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.3], [0.0, 0.3, 1.5]])
    b, c = np.array([0.3, -0.2, 1.0]), np.array([0.1, 0.4, -0.2])
    cc, eye = np.outer(c, c), np.eye(3)

    def A_t(t):
        return A + turn * t * cc

    def sym3(x):  # e_ab x_k + e_ak x_b + e_bk x_a
        return (np.einsum("ab,k->abk", eye, x) + np.einsum("ak,b->abk", eye, x)
                + np.einsum("bk,a->abk", eye, x))

    static = turn == 0.0
    quadric = LevelSet(
        lambda x, t: 0.5 * x @ A_t(t) @ x - 0.5 - rate * t,
        lambda x, t: A_t(t) @ x,
        lambda x, t: A_t(t),
        third=lambda x, t: np.zeros((3, 3, 3)),
        static_gradient=static,
    )
    surface = LevelSet(
        lambda x, t: b @ x + 0.05 * (x @ x) ** 2 - rate * t,
        lambda x, t: b + 0.2 * (x @ x) * x,
        lambda x, t: 0.2 * ((x @ x) * eye + 2.0 * np.outer(x, x)),
        third=lambda x, t: 0.4 * sym3(x),
        static_gradient=True,
    )
    return LevelSetGeometry(3, [quadric, surface], tube_halfwidth=10.0, name="curve")


def _timed(p: TensorField, r: TensorField) -> TensorField:
    """(1 + t) p + t^2 r for polynomials p and r, with its time partial and
    gradients of every order, each with its own time partial."""
    return _field(
        p.n, p.q, lambda X, t: (1.0 + t) * p.values(X, t) + t * t * r.values(X, t),
        grad=_Lazy(lambda: _timed(p.gradient, r.gradient)),
        dt=lambda X, t: p.values(X, t) + 2.0 * t * r.values(X, t), name=f"timed({p.name})",
    )


def _random_timed(q: int, rng) -> TensorField:
    return _timed(random_polynomial(3, q, rng, degree=2), random_polynomial(3, q, rng, degree=2))


def _dt4(values, h=1e-4):
    """Fourth-order difference in t of ``values(t)`` at T0."""
    return _central(lambda s: values(T0 + s * h), h, 4)


def _dx4(values, h=1e-5):
    """Fourth-order differences of ``values(Y)`` along every axis at X."""
    return _partials(values, X, np.full(3, h), 4)


def _close(got, want, tol):
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= tol * scale


# -- frames of order 1 and 2 -------------------------------------------------------


def test_second_order_jet_matches_differences_of_the_first():
    geom = _curve()
    second = geom.frame_derivative_at(X, T0, order=2)
    assert second.order == 2

    def first(Y):
        return geom.frame_derivative_at(Y, T0)

    _close(second.P_dd, _dx4(lambda Y: first(Y).P_d), 1e-8)
    _close(second.normals_dd, _dx4(lambda Y: first(Y).normals_d), 1e-8)
    assert np.max(np.abs(second.P_dd)) > 1e-2
    # second derivatives commute
    np.testing.assert_allclose(second.P_dd, np.swapaxes(second.P_dd, -1, -2), atol=1e-12)


def test_the_second_order_leaves_the_frame_and_first_order_unchanged():
    geom = _curve()
    plain = geom.frame_at(X, T0)
    assert plain.order == 0 and plain.P_d is None and plain.normals_d is None
    first = geom.frame_derivative_at(X, T0)
    assert first.order == 1 and first.P_dd is None and first.normals_dd is None
    second = geom.frame_derivative_at(X, T0, order=2)
    for f in (first, second):
        assert np.array_equal(f.normals, plain.normals)
        assert np.array_equal(f.P, plain.P)
    assert np.array_equal(second.P_d, first.P_d)
    assert np.array_equal(second.normals_d, first.normals_d)


def _quadric(rng, n, x0):
    """A batch-native quadric level function through x0, with every provider."""
    a, H = rng.standard_normal(n), rng.standard_normal((n, n))
    H = 0.5 * (H + H.T)
    return LevelSet._batched(
        lambda X, t: (X - x0) @ a + 0.5 * np.einsum("...a,ab,...b->...", X - x0, H, X - x0),
        lambda X, t: a + (X - x0) @ H,
        lambda X, t: np.broadcast_to(H, X.shape + X.shape[-1:]),
        third=lambda X, t: np.zeros(X.shape + X.shape[-1:] * 2),
    )


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**16))
def test_frames_and_jets_share_their_normals_bit_for_bit(n, data, seed):
    m = data.draw(st.integers(1, n - 1), label="m")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    geom = LevelSetGeometry(n, [_quadric(rng, n, x0) for _ in range(m)], tube_halfwidth=10.0)
    points = x0 + 0.05 * rng.standard_normal((3, n))
    normals = geom.frame_at(points, T0).normals
    for order in (1, 2):
        assert np.array_equal(geom.frame_derivative_at(points, T0, order).normals, normals)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**16))
def test_frame_derivatives_match_differences_over_the_advertised_range(n, data, seed):
    """Orders 1 and 2 against differences of the orders below, for every
    n <= 8 and codimension m < n; a held frame raised to order 1 and then 2
    in a scope is the fresh frame of that order, bit for bit.  The
    differences are the Richardson pair (16 fd4(h/2) - fd4(h)) / 15, which
    cancels fd4's h^4 term where near-dependent gradients curve the frame
    strongly."""
    m = data.draw(st.integers(1, n - 1), label="m")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    geom = LevelSetGeometry(n, [_quadric(rng, n, x0) for _ in range(m)], tube_halfwidth=10.0)
    points = x0 + 0.05 * rng.standard_normal((3, n))
    second = geom.frame_derivative_at(points, T0, 2)

    def fd(read, h=1e-4):
        return (16 * _partials(read, points, np.full(n, h / 2), 4)
                - _partials(read, points, np.full(n, h), 4)) / 15

    _close(second.normals_d, fd(lambda Y: geom.frame_at(Y, T0).normals), 1e-7)
    _close(second.P_d, fd(lambda Y: geom.frame_at(Y, T0).P), 1e-7)
    _close(second.normals_dd, fd(lambda Y: geom.frame_derivative_at(Y, T0).normals_d), 1e-7)
    _close(second.P_dd, fd(lambda Y: geom.frame_derivative_at(Y, T0).P_d), 1e-7)
    with _frame_scope():
        geom._frame(points, T0)
        for order in (1, 2):
            raised = geom._frame(points, T0, order)
            fresh = geom.frame_derivative_at(points, T0, order)
            for attr in ("normals", "N", "P", "order", "normals_d", "P_d", "normals_dd", "P_dd"):
                got, want = getattr(raised, attr), getattr(fresh, attr)
                assert got is want is None or np.array_equal(got, want), attr


@pytest.mark.parametrize("name", ["circle2d", "circle3d", "helix"])
def test_builtin_curves_frames_and_jets_share_their_normals(name):
    case = get_case(name)
    geom, points = case.geometry, case.sample_points(5)
    normals = geom.frame_at(points).normals
    for order in (1, 2) if geom.has_jet(2) else (1,):
        assert np.array_equal(geom.frame_derivative_at(points, 0.0, order).normals, normals)


@pytest.mark.parametrize("name", ["sphere", "circle3d"])
def test_sphere_family_supplies_exact_third_derivatives(name):
    """The norm level's third derivatives, over every axis (the sphere)
    and over the xy axes (the cylinder of circle3d)."""
    level = get_case(name, radius=1.3).geometry.levels[0]
    x = np.array([0.3, -0.5, 0.8])
    third = level._third(x, 0.0)
    want = _partials(lambda Y: level.hessian(Y, 0.0), x, np.full(3, 1e-5), 4)
    _close(third, want, 1e-9)
    batch = level._third(np.stack([x, 2 * x]), 0.0)
    np.testing.assert_array_equal(batch[0], third)


def test_which_geometries_have_jets_and_static_frames():
    for name in ("sphere", "hemisphere", "circle2d", "expanding_sphere"):
        geom = get_case(name).geometry
        assert geom.has_jet(1) and geom.has_jet(2) and geom.has_static_frames, name
    torus = get_case("torus").geometry
    assert torus.has_jet(1) and not torus.has_jet(2) and torus.has_static_frames
    for name in ("circle3d", "plane_disk", "helix"):
        assert get_case(name).geometry.has_static_frames, name
    # the cylinder level has a third, but the plane and helix-angle levels do not
    for name in ("circle3d", "helix"):
        geom = get_case(name).geometry
        assert geom.has_jet(1) and not geom.has_jet(2), name
    assert _curve().has_static_frames and not _curve(turn=1.0).has_static_frames
    with pytest.raises(GeometryError, match="third"):
        torus.frame_derivative_at(np.array([2.5, 0.0, 0.0]), 0.0, 2)


# -- exact time partials and second derivatives of frame-built fields ---------------


def test_exact_time_partials_on_a_moving_curve_with_static_frames(rng):
    geom = _curve(rate=0.3)
    f, u = _random_timed(2, rng), _random_timed(1, rng)
    for field in (project_field(f, geom), project_field(u, geom),
                  submanifold_gradient(u, geom, AN)):
        assert field.has_time_derivative, field.name
        got = time_partial(field, FD4).values(X, T0)
        _close(got, _dt4(lambda t: field.values(X, t)), 1e-8)
        assert np.max(np.abs(got)) > 1e-3, field.name
    for field in (normal_field(geom, 0), normal_field(geom, 1), projector_field(geom)):
        assert field.has_time_derivative, field.name
        assert not np.any(time_partial(field, FD4).values(X, T0))
        _close(0.0, _dt4(lambda t: field.values(X, t)), 1e-10)


def test_moving_frames_keep_differenced_time_partials(rng):
    geom = _curve(turn=1.0)
    f = _random_timed(1, rng)
    fields = [project_field(f, geom), normal_field(geom, 0), projector_field(geom),
              submanifold_gradient(f, geom, AN), project_field(f, geom).gradient]
    assert not any(field.has_time_derivative for field in fields)
    # the fallback difference sees the frame turn
    _close(time_partial(normal_field(geom, 0), FD4).values(X, T0),
           _dt4(lambda t: normal_field(geom, 0).values(X, t)), 1e-7)


def test_frame_field_gradients_carry_exact_second_derivatives(rng):
    geom = _curve(rate=0.3)
    f = _random_timed(2, rng)
    for field in (project_field(f, geom), normal_field(geom, 1), projector_field(geom)):
        grad = field.gradient
        assert grad.has_gradient and grad.has_time_derivative, field.name
        _close(grad.gradient_values(X, T0), _dx4(lambda Y: grad.values(Y, T0)), 1e-7)
        _close(grad.dt_values(X, T0), _dt4(lambda t: grad.values(X, t)), 1e-7)
    assert np.max(np.abs(project_field(f, geom).gradient.dt_values(X, T0))) > 1e-3


def test_material_derivative_gradient_is_exact(rng):
    geom = _curve(rate=0.3)
    w = random_polynomial(3, 1, rng, degree=1)
    for T in (_random_timed(1, rng), project_field(_random_timed(1, rng), geom),
              normal_field(geom, 0)):
        mat = material_derivative(T, w, AN)
        assert mat.has_gradient, T.name
        got = cartesian_gradient(mat, AN).values(X, T0)
        _close(got, cartesian_gradient(mat, FD4).values(X, T0), 1e-7)
    assert not material_derivative(T, w, FD4).has_gradient
    assert not material_derivative(project_field(T, _curve(turn=1.0)), w, AN).has_gradient


def test_expanding_sphere_frame_fields_have_zero_time_partials():
    case = get_case("expanding_sphere", radius=1.0, speed=0.1)
    geom = case.geometry
    points = case.sample_points(3)
    for field in (normal_field(geom), projector_field(geom), project_field(
            constant(3, Tensor(3, np.eye(3))), geom)):
        assert field.has_time_derivative
        assert not np.any(time_partial(field, FD4).values(points, 0.0))


# the providers of each operator's field on each geometry, by path: "dt" is
# the field's time partial, "g" its gradient, "g.dt" the gradient's time
# partial, and so on.  The sphere has jets of order 2 and static frames, the
# torus and the helix (codimension 2) jets of order 1 and static frames, and
# the turning curve jets of order 2 and moving frames.  P supplies a second
# order, the quarter turn Q none.
PROVIDER_TABLE = {
    "project_field": {
        "sphere": {"dt", "g", "g.dt", "g.g", "g.g.dt"},
        "torus": {"dt", "g", "g.dt"},
        "helix": {"dt", "g", "g.dt"},
        "turning curve": {"g", "g.g"},
    },
    "submanifold_gradient": {
        "sphere": {"dt", "g", "g.dt", "g.g", "g.g.dt"},
        "torus": {"dt", "g", "g.dt"},
        "helix": {"dt", "g", "g.dt"},
        "turning curve": {"g", "g.g"},
    },
    "perp_field": {"sphere": {"dt", "g", "g.dt"}, "torus": {"dt", "g", "g.dt"}},
}
FED = {
    "project_field": lambda f, geom: project_field(f, geom),
    "submanifold_gradient": lambda f, geom: submanifold_gradient(f, geom, AN),
    "perp_field": lambda f, geom: perp_field(f, geom, AN),
}


def _provider_geometry(name):
    if name == "turning curve":
        return _curve(turn=1.0), X
    case = get_case(name)
    return case.geometry, case.sample_points(2)


def _providers(field):
    """The paths of every provider of the field and of its gradients."""
    found, path = set(), ""
    while True:
        if field.has_time_derivative:
            found.add(path + "dt")
        if not field.has_gradient:
            return found
        field, path = field.gradient, path + "g."
        found.add(path[:-1])


@pytest.mark.parametrize("op,geometry", [(op, name) for op, row in PROVIDER_TABLE.items()
                                         for name in row])
def test_frame_fed_fields_carry_the_providers_of_the_product_rule(op, geometry, rng):
    geom, points = _provider_geometry(geometry)
    field = FED[op](_random_timed(2, rng), geom)
    found = _providers(field)
    assert found == PROVIDER_TABLE[op][geometry]
    for path in found:
        *steps, last = path.split(".")
        part = field
        for _ in steps:
            part = part.gradient
        if last == "dt":
            got, want = part.dt_values(points, T0), _dt4(lambda t: part.values(points, t))
        else:
            got = part.gradient_values(points, T0)
            want = _partials(lambda Y: part.values(Y, T0), points, np.full(3, 1e-5), 4)
        assert np.max(np.abs(want)) > 1e-3, path
        _close(got, want, 1e-7)


def test_the_quarter_turn_needs_codimension_n_minus_2(rng):
    for geometry in ("helix", "turning curve"):
        geom = _provider_geometry(geometry)[0]
        with pytest.raises(GeometryError, match="codimension"):
            perp_field(_random_timed(1, rng), geom, AN)
        with pytest.raises(GeometryError, match="codimension"):
            cross_stress(geom)


# -- the evaluation scope ------------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """Count the frames each geometry builds (``_built``, one Gram-Schmidt
    each, behind ``frame_at`` and ``frame_derivative_at``) and the
    derivative passes it runs over their normals."""
    counts = {"_built": 0, "_differentiated": 0}
    for name in counts:
        method = getattr(LevelSetGeometry, name)

        def counting(self, *args, _method=method, _name=name, **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(LevelSetGeometry, name, counting)
    return counts


def test_an_analytic_covariant_laplacian_builds_one_jet(builds):
    geom = get_case("sphere").geometry
    x = np.array([0.6, 0.0, 0.8])
    l01 = rotation_generator(3, 0, 1)
    got = covariant_laplacian(l01, geom, AN).values(x)
    np.testing.assert_allclose(got, -l01.values(x), atol=1e-12)
    assert builds == {"_built": 1, "_differentiated": 1}


def test_a_frame_only_evaluation_builds_no_derivatives(builds, rng):
    geom = get_case("torus").geometry
    field = project_field(random_polynomial(3, 2, rng), geom)
    field.values(get_case("torus").sample_points(4))
    assert builds == {"_built": 1, "_differentiated": 0}


def test_frames_last_one_outermost_evaluation(builds):
    geom = get_case("sphere").geometry
    field = projector_field(geom)
    points = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
    before = field.values(points)
    points[...] = points[:, ::-1].copy()  # written between two evaluations
    after = field.values(points)
    assert builds["_built"] == 2
    np.testing.assert_array_equal(after, geom.frame_at(points).P)
    assert not np.array_equal(before, after)


def test_a_run_scope_keeps_the_frames_of_read_only_points(builds, rng):
    geom = get_case("sphere").geometry
    field = project_field(random_polynomial(3, 1, rng), geom)
    points = get_case("sphere").sample_points(4)
    assert not points.flags.writeable and points.base is None
    with _frame_scope(keep=True) as scope:
        for _ in range(3):
            field.values(points)
        assert builds["_built"] == 1
        assert len(scope.kept) == 1
        writable = np.array(points)
        for _ in range(2):
            field.values(writable)  # one outermost evaluation's worth each
        assert builds["_built"] == 3 and len(scope.kept) == 1
    assert not scope.kept  # emptied on close
    field.values(points)  # no run scope: one outermost evaluation's worth
    assert builds["_built"] == 4


def test_a_run_scope_does_not_keep_read_only_views(builds):
    geom = get_case("sphere").geometry
    field = projector_field(geom)
    base = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
    for view in (base[:], np.broadcast_to(base, base.shape)):
        view.flags.writeable = False
        with _frame_scope(keep=True) as scope:
            before = field.values(view)
            base[...] = base[:, ::-1].copy()  # the view changes with its base
            after = field.values(view)
            assert not scope.kept and builds["_built"] == 2
            want = geom.frame_at(view).P
            base[...] = base[:, ::-1].copy()
        np.testing.assert_array_equal(after, want)
        assert not np.array_equal(before, after)
        builds["_built"] = 0


def test_an_evaluation_keeps_the_frames_of_its_last_array(builds):
    geom = get_case("sphere").geometry
    with _frame_scope() as scope:
        points = np.array([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])
        first = geom._frame(points)
        assert geom._frame(points) is first
        held = geom._frame(points, 0.0, 1)  # a held frame of order 0 gains order 1
        assert held is not first and held.order == 1 and held.normals is first.normals
        assert geom._frame(points) is held and geom._frame(points, 0.0, 1) is held
        assert builds == {"_built": 1, "_differentiated": 1}
        again = points + 0.0
        top = geom._frame(again, 0.0, 2)  # a frame of order 2 serves every lower order
        assert top.order == 2
        assert all(geom._frame(again, 0.0, order) is top for order in (1, 0, 2))
        assert builds == {"_built": 2, "_differentiated": 2}
        assert scope.recent[0] is again  # the second array evicted the first
        geom._frame(points)  # asked about before the last array: built again
        assert scope.recent[0] is points and builds["_built"] == 3
    assert not scope.recent


def test_outside_a_scope_every_request_builds(builds):
    geom = get_case("sphere").geometry
    x = np.array([0.0, 0.6, 0.8])
    for order in (0, 0, 2, 1, 0, 1):
        assert geom._frame(x, 0.0, order).order == order
    assert builds == {"_built": 6, "_differentiated": 3}


def test_a_fresh_frame_of_order_one_evaluates_each_gradient_once():
    """Gram-Schmidt and the derivative pass share one evaluation of the
    gradients: k calls of a pointwise gradient for k points, through the
    public builder and through the evaluation scope."""
    calls = [0]

    def gradient(x, t):
        calls[0] += 1
        return x / np.linalg.norm(x)

    def hessian(x, t):
        r = np.linalg.norm(x)
        return (np.eye(3) - np.outer(x, x) / r**2) / r

    geom = LevelSetGeometry(3, [LevelSet(lambda x, t: np.linalg.norm(x) - 1.0, gradient,
                                         hessian)])
    points = get_case("sphere").sample_points(5)
    assert geom.frame_derivative_at(points).order == 1 and calls == [5]
    with _frame_scope():
        assert geom._frame(points + 0.0, 0.0, 1).order == 1
    assert calls == [10]


@pytest.mark.parametrize("mode, batch, deep_batch", [("fd2", 4, 8), ("fd4", 16, 64)])
def test_nested_stencils_at_one_point_pin_their_calls_and_batches(builds, monkeypatch, mode,
                                                                  batch, deep_batch, rng):
    """The cost and memory of nested differences at one point on the sphere.
    Each stencil calls its field once per axis, on all of that axis's
    offsets at once: 2 (fd2) or 4 (fd4) points per point, so the batch grows
    2 or 4 times at each level.  A depth-2 Laplacian makes 18 ``values``
    calls and builds 4 frames in both orders, and its leaf field sees at
    most 4 (fd2) or 16 (fd4) points; a depth-3 stack sees at most 8 or 64,
    so the leaf's values take 4^3 = 64 times the memory of one point's in
    fd4.  A stencil that stacks more offsets in one call changes these
    numbers, and has to say what its batches cost in memory."""
    geom = get_case("sphere").geometry
    leaf = random_polynomial(3, 0, rng)
    x = np.array([0.36, 0.48, 0.8])
    seen = {"calls": 0, "batch": 0}
    values = TensorField.values

    def counting(self, X, t=0.0):
        seen["calls"] += 1
        if self is leaf:
            seen["batch"] = max(seen["batch"], int(np.prod(np.shape(X)[:-1])))
        return values(self, X, t)

    monkeypatch.setattr(TensorField, "values", counting)
    cfg = DiffConfig(mode=mode)
    got = laplacian(leaf, geom, cfg).values(x)
    assert seen == {"calls": 18, "batch": batch}
    assert builds == {"_built": 4, "_differentiated": 0}
    np.testing.assert_allclose(got, laplacian(leaf, geom, AN).values(x), atol=1e-6)

    deep = divergence(submanifold_gradient(submanifold_gradient(leaf, geom, cfg), geom, cfg),
                      geom, cfg)
    assert deep.depth == 3
    seen["batch"] = 0
    deep.values(x)
    assert seen["batch"] == deep_batch


# -- non-finite values raise ---------------------------------------------------------


def _operators(case, f):
    """(name, field) for every operator over f, and the time partials and
    gradients that the frame jets make exact."""
    geom = case.geometry
    w = case.velocity or rotation_generator(3, 0, 1)
    yield "project_field.dt", lambda d: time_partial(project_field(f, geom), d)
    yield "material_derivative", lambda d: material_derivative(project_field(f, geom), w, d)
    yield "material_derivative.grad", lambda d: cartesian_gradient(
        material_derivative(project_field(f, geom), w, d), d)
    yield "cartesian_gradient", lambda d: cartesian_gradient(f, d)
    yield "submanifold_gradient", lambda d: submanifold_gradient(f, geom, d)
    yield "submanifold_gradient.dt", lambda d: time_partial(submanifold_gradient(f, geom, d), d)
    yield "divergence", lambda d: divergence(f, geom, d)
    yield "covariant_gradient", lambda d: covariant_gradient(f, geom, d)
    yield "laplacian", lambda d: laplacian(f, geom, d)
    yield "covariant_laplacian", lambda d: covariant_laplacian(f, geom, d)
    yield "perp_field", lambda d: perp_field(f, geom, d)
    yield "surface_curl", lambda d: surface_curl(f, geom, d)
    yield "rotated_gradient", lambda d: rotated_gradient(f, geom, d)


@settings(max_examples=25, deadline=None)
@given(
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    mode=st.sampled_from(["fd2", "fd4", "analytic"]),
    which=st.integers(0, 12),
    seed=st.integers(0, 2**16),
)
def test_non_finite_field_values_raise_through_every_operator(bad, mode, which, seed):
    case = get_case("expanding_sphere", radius=1.0, speed=0.1)
    poison = tf_scale(random_polynomial(3, 1, np.random.default_rng(seed), degree=2), bad)
    _, build = list(_operators(case, poison))[which]
    field = build(DiffConfig(mode=mode))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        field.values(case.sample_points(3), 0.0)


def test_frame_field_gradients_raise_on_non_finite_third_derivatives():
    base = get_case("sphere").geometry.levels[0]
    level = LevelSet._batched(base._value, base._gradient, base._hessian,
                              third=lambda X, t: np.full(X.shape + X.shape[-1:] * 2, np.nan),
                              static_gradient=True)
    geom = LevelSetGeometry(3, [level])
    for field in (normal_field(geom), projector_field(geom)):
        with np.errstate(all="ignore"), pytest.raises(GeometryError, match="second derivative"):
            field.gradient.gradient_values(np.array([0.6, 0.0, 0.8]))


def test_a_field_with_non_finite_values_raises_naming_the_point():
    field = TensorField(3, 0, lambda x, t: np.nan if x[2] > 0.5 else 1.0, name="half")
    with pytest.raises(ValueError, match=r"field 'half' is not finite at point \(1,\)"):
        field.values(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
