"""Batched evaluation: values on a batch of points equal the pointwise values
stacked, on built-in geometries and on one built from pointwise callables."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorcalc.builtins import get_case
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
        return np.array(case.sample_points(count, seed=int(rng.integers(2**16))))

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
