"""Batched evaluation: values on a batch of points equal the pointwise values
stacked, on built-in geometries and on one built from pointwise callables."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorcalc.builtins import GeometryCase, available, get_case
from tensorcalc.euler import (
    convective_identity_residual,
    divergence_form_residual,
    incompressibility,
    momentum_residual,
    rigid_rotation_state,
    tangency,
)
from tensorcalc.evolving import material_consistency
from tensorcalc.fields import random_polynomial, vector_field
from tensorcalc.geometry import GeometryError, LevelSet, LevelSetGeometry, _project_array
from tensorcalc.operators import (
    DiffConfig,
    covariant_gradient,
    covariant_laplacian,
    laplacian,
    material_derivative,
    mean_curvature,
    project_field,
    shape_operator,
    submanifold_gradient,
    surface_curl,
)
from tensorcalc.quadrature import Chart
from tensorcalc.stress import equilibrium_diagnostics, normal_at_tangential, omega_pairings
from tensorcalc.tensor import ShapeError

AXES = np.array([1.0, 1.3, 0.8])  # semi-axes of the ellipsoid


def _ellipsoid() -> LevelSetGeometry:
    """An ellipsoid whose level function is given by public pointwise
    callables, so every batch runs through the looping adapter."""
    inv = 1.0 / AXES**2

    def value(x, t):
        return math.sqrt(float(np.sum(inv * x * x))) - 1.0

    def gradient(x, t):
        return inv * x / math.sqrt(float(np.sum(inv * x * x)))

    def hessian(x, t):
        s = math.sqrt(float(np.sum(inv * x * x)))
        y = inv * x
        return np.diag(inv) / s - np.outer(y, y) / s**3

    return LevelSetGeometry(3, [LevelSet(value, gradient, hessian)], name="ellipsoid")


def _ellipsoid_points(count: int, rng) -> np.ndarray:
    g = rng.standard_normal((count, 3))
    return AXES * g / np.linalg.norm(g, axis=1, keepdims=True)


GEOMETRIES = ("sphere", "torus", "circle3d", "helix", "ellipsoid")
OPERATORS = ("laplacian", "covariant_gradient", "covariant_laplacian", "mean_curvature",
             "shape_operator", "surface_curl", "material_derivative", "project_field")
BATCHES = ((), (3,), (2, 2))


def _geometry(name):
    if name == "ellipsoid":
        return _ellipsoid(), _ellipsoid_points
    case = get_case(name)

    def points(count, rng):
        return case.sample_points(count, seed=int(rng.integers(2**16)))

    return case.geometry, points


def _operator(name, geom, cfg, rng):
    f = random_polynomial(3, int(rng.integers(0, 2)), rng, degree=2)
    if name == "laplacian":
        return laplacian(f, geom, cfg)
    if name == "covariant_gradient":
        return covariant_gradient(f, geom, cfg)
    if name == "covariant_laplacian":
        return covariant_laplacian(random_polynomial(3, 1, rng, degree=2), geom, cfg)
    if name == "mean_curvature":
        return mean_curvature(geom, cfg)
    if name == "shape_operator":
        return shape_operator(geom, geom.m - 1, cfg)
    if name == "surface_curl":
        phi = random_polynomial(3, 0, rng, degree=2)
        return surface_curl(submanifold_gradient(phi, geom, cfg), geom, cfg)
    if name == "material_derivative":
        w = random_polynomial(3, 1, rng, degree=1)
        return material_derivative(project_field(f, geom), w, cfg)
    return project_field(random_polynomial(3, 2, rng, degree=2), geom)


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.sampled_from(GEOMETRIES),
    operator=st.sampled_from(OPERATORS),
    mode=st.sampled_from(("fd2", "fd4", "analytic")),
    batch=st.sampled_from(BATCHES),
    seed=st.integers(0, 2**16),
)
def test_batched_values_equal_stacked_pointwise_values(geometry, operator, mode, batch, seed):
    geom, points = _geometry(geometry)
    assume(operator != "surface_curl" or geom.n - geom.m == 2)
    rng = np.random.default_rng(seed)
    field = _operator(operator, geom, DiffConfig(mode=mode), rng)
    X = points(max(1, math.prod(batch)), rng).reshape(batch + (3,))
    got = field.values(X, 0.0)
    assert got.shape == batch + (3,) * field.q
    want = np.array([field.values(x, 0.0) for x in X.reshape(-1, 3)]).reshape(got.shape)
    tol = 1e-12 if mode == "analytic" else 1e-6
    assert np.max(np.abs(got - want), initial=0.0) <= tol * max(1.0, np.max(np.abs(want)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    q=st.integers(0, 8),
    batch=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_batched_projection_matches_the_slotwise_oracle(n, q, batch, seed):
    assume(n**q <= 4096)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, n))
    normals = np.linalg.qr(rng.standard_normal((batch, n, m)))[0].swapaxes(1, 2)
    data = rng.standard_normal((batch,) + (n,) * q)
    P = np.eye(n) - normals.swapaxes(1, 2) @ normals
    got = _project_array(data, P)
    for b in range(batch):
        want = data[b]
        for slot in range(q):  # feed P into each slot with tensordot, one point at a time
            want = np.moveaxis(np.tensordot(P[b], want, axes=([1], [slot])), 0, slot)
        assert np.max(np.abs(got[b] - want), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_frames_reject_non_finite_points():
    geom = get_case("sphere").geometry
    for bad in (np.nan, np.inf):
        with pytest.raises(GeometryError):
            geom.frame_at([bad, 0.0, 0.0])
    X = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(GeometryError):
        geom.frame_at(X)
    with pytest.raises(GeometryError):
        geom.frame_derivative_at(X)


def test_a_batch_frame_checks_every_point_against_the_tube():
    geom = get_case("sphere").geometry
    X = np.array([[1.0, 0.0, 0.0], [1.5, 0.0, 0.0]])
    with pytest.raises(GeometryError, match="outside the tube"):
        geom.frame_at(X)
    assert geom.frame_at(X[:1]).P.shape == (1, 3, 3)


def test_pointwise_adapter_shape_checks_each_point():
    calls = []

    def evaluator(x, t):
        calls.append(1)
        return np.zeros(3) if len(calls) < 2 else np.zeros(2)

    u = vector_field(3, evaluator, name="goes-bad")
    with pytest.raises(ShapeError):
        u.values(np.ones((3, 3)))


def test_values_reject_points_of_the_wrong_dimension():
    f = random_polynomial(3, 1, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        f.values(np.ones((4, 2)))


def _drawn_one_by_one(case, count, t, seed):
    """The sample points of ``case``, each drawn and mapped alone: point i
    lies on chart i % len(charts)."""
    rng = np.random.default_rng(seed)
    charts = case.atlas().charts
    points = []
    for i in range(count):
        c = charts[i % len(charts)]
        u = c.lo + (c.hi - c.lo) * (0.1 + 0.8 * rng.random(c.p))
        points.append(np.asarray(c.mapping(u, t), dtype=float))
    return np.array(points).reshape(count, case.geometry.n)


def _two_chart_sphere() -> GeometryCase:
    """The unit sphere covered by two pointwise charts, north and south."""
    case = get_case("sphere")

    def mapping(u, t):
        return np.array([np.sin(u[0]) * np.cos(u[1]), np.sin(u[0]) * np.sin(u[1]), np.cos(u[0])])

    charts = [Chart([lo, 0.0], [lo + 0.5 * math.pi, 2 * math.pi], mapping)
              for lo in (0.0, 0.5 * math.pi)]
    return GeometryCase("two-chart-sphere", case.geometry, charts)


@pytest.mark.parametrize("name", available() + ["two-chart-sphere"])
def test_sample_points_are_one_array_equal_to_mapping_each_draw(name):
    case = _two_chart_sphere() if name == "two-chart-sphere" else get_case(name)
    for count, t, seed in ((1, 0.0, 0), (5, 0.0, 3), (4, 0.3, 7)):
        got = case.sample_points(count, t=t, seed=seed)
        assert isinstance(got, np.ndarray) and got.shape == (count, case.geometry.n)
        np.testing.assert_array_equal(got, _drawn_one_by_one(case, count, t, seed))
    assert case.sample_points(0).shape == (0, case.geometry.n)


def _helper(name, cfg, rng):
    """A batch-native application helper as a function of points X."""
    geom = get_case("sphere").geometry
    state = rigid_rotation_state(geom, omega=1.3)
    sigma = random_polynomial(3, 2, rng, degree=2)
    if name == "tangency":
        return lambda X: tangency(state, X)
    if name == "normal_at_tangential":
        return lambda X: normal_at_tangential(sigma.values(X), geom.frame_at(X))
    if name == "omega_pairings":
        return lambda X: omega_pairings(sigma.values(X), geom.frame_at(X))
    if name == "equilibrium_diagnostics":
        return lambda X: equilibrium_diagnostics(sigma, geom, cfg, X)
    if name == "material_consistency":
        f = random_polynomial(3, 1, rng, degree=2)
        return lambda X: material_consistency(f, get_case("expanding_sphere").velocity, X, 0.0, cfg)
    residual = {
        "incompressibility": incompressibility,
        "momentum_residual": momentum_residual,
        "divergence_form_residual": divergence_form_residual,
        "convective_identity_residual": convective_identity_residual,
    }[name]
    return lambda X: residual(state, X, 0.0, cfg)


def _leaves(value, key=()):
    """The arrays of a result, keyed by their path through nested dicts."""
    if not isinstance(value, dict):
        return {key: value}
    return {k: v for name, item in value.items() for k, v in _leaves(item, key + (name,)).items()}


HELPERS = ("tangency", "incompressibility", "momentum_residual", "divergence_form_residual",
           "convective_identity_residual", "normal_at_tangential", "omega_pairings",
           "equilibrium_diagnostics", "material_consistency")


@pytest.mark.parametrize("mode", ("fd2", "analytic"))
@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("name", HELPERS)
def test_helpers_on_a_batch_equal_their_stacked_pointwise_values(name, batch, mode):
    helper = _helper(name, DiffConfig(mode=mode), np.random.default_rng(5))
    X = get_case("sphere").sample_points(max(1, math.prod(batch)), seed=2).reshape(batch + (3,))
    got = _leaves(helper(X))
    each = [_leaves(helper(x)) for x in X.reshape(-1, 3)]
    tol = 1e-12 if mode == "analytic" else 1e-6
    for key, value in got.items():
        want = np.array([np.asarray(point[key]) for point in each])
        assert np.shape(value) == batch + want.shape[1:]
        if batch == () and np.ndim(value) == 0:
            assert isinstance(value, float)
        want = want.reshape(np.shape(value))
        assert np.max(np.abs(value - want), initial=0.0) <= tol * max(1.0, np.max(np.abs(want)))
