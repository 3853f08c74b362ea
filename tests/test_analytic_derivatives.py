"""Exact derivatives of derived fields in analytic mode.

Every analytic gradient is checked against fourth-order differences of the
same field, and the analytic Laplacian and curl stacks are checked to
evaluate their ingredients at the requested point only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc.builtins import available, get_case
from tensorcalc.fields import (
    TensorField,
    coordinate,
    random_polynomial,
    tf_add,
    tf_outer,
    tf_scale,
)
from tensorcalc.geometry import LevelSet, LevelSetGeometry
from tensorcalc.operators import (
    DiffConfig,
    cartesian_gradient,
    covariant_laplacian,
    divergence,
    laplacian,
    perp_field,
    project_field,
    submanifold_gradient,
    surface_curl,
)
from tensorcalc.stress import rotation_generator
from tensorcalc.tensor import _partials

AN = DiffConfig(mode="analytic")
FD4 = DiffConfig(mode="fd4")
GEOMETRIES = ("sphere", "torus", "circle3d", "helix")  # helix has codimension 2

# fd4 with the default step leaves rounding noise near 1e-10 on these fields
FD4_AGREEMENT = 1e-7


def _assert_exact_gradient(field, points):
    assert field.has_gradient, field.name
    exact = cartesian_gradient(field, AN)
    approx = cartesian_gradient(field, FD4)
    assert exact.depth == 0
    for x in points:
        want = approx.values(x, 0.0)
        got = exact.values(x, 0.0)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= FD4_AGREEMENT * scale, field.name


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    q=st.integers(0, 3),
    name=st.sampled_from(GEOMETRIES),
)
def test_derived_field_gradients_match_fd4(seed, q, name):
    case = get_case(name)
    geom = case.geometry
    rng = np.random.default_rng(seed)
    points = case.sample_points(2, seed=seed)
    f = random_polynomial(3, q, rng, degree=3)
    fields = [
        project_field(f, geom),
        submanifold_gradient(f, geom, AN),
        cartesian_gradient(f, AN),  # its gradient is the polynomial's second derivative
    ]
    if q >= 1:
        fields.append(divergence(f, geom, AN))
    if q >= 1 and geom.n - geom.m == 2:  # the quarter turn of the last slot, at every rank
        fields.append(perp_field(f, geom, AN))
    for field in fields:
        _assert_exact_gradient(field, points)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), a=st.integers(0, 2), b=st.integers(0, 2))
def test_combinator_second_derivatives_match_fd4(seed, a, b):
    rng = np.random.default_rng(seed)
    f = random_polynomial(3, a, rng, degree=3)
    g = random_polynomial(3, b, rng, degree=3)
    h = tf_add(tf_scale(tf_outer(f, g), 0.5), tf_outer(g, f))
    points = [rng.standard_normal(3) for _ in range(2)]
    _assert_exact_gradient(h, points)
    _assert_exact_gradient(cartesian_gradient(h, AN), points)


@pytest.mark.parametrize("name", [name for name in available()
                                  if get_case(name).velocity is not None])
def test_builtin_velocity_jacobians_match_fd4(name):
    case = get_case(name)
    _assert_exact_gradient(case.velocity, case.sample_points(3))


# one parameter set of each builder away from its defaults
OFF_DEFAULTS = {
    "sphere": {"radius": 1.3},
    "hemisphere": {"radius": 1.7},
    "circle2d": {"radius": 0.8},
    "circle3d": {"radius": 1.4},
    "plane_disk": {"radius": 2.5},
    "torus": {"major": 3.0, "minor": 0.7},
    "helix": {"radius": 1.2, "pitch": 0.4, "turns": 2.0},
    "expanding_sphere": {"radius": 1.5, "speed": 0.2},
}


@pytest.mark.parametrize("t", [0.0, 0.3])
@pytest.mark.parametrize("name", available())
def test_builtin_chart_jacobians_match_fd4_and_map_onto_the_levels(name, t):
    """Every chart's exact Jacobian is the derivative of its map, and the
    map lands on the case's level sets, at the defaults and off them."""
    for case in (get_case(name), get_case(name, **OFF_DEFAULTS[name])):
        for chart in case.charts:
            draws = np.random.default_rng(0).uniform(0.1, 0.9, (5, chart.p))
            U = chart.lo + (chart.hi - chart.lo) * draws
            want = _partials(lambda V: chart._map(V, t), U, np.full(chart.p, 1e-3), 4)
            assert np.max(np.abs(chart._jacobians(U, t) - want)) <= 1e-9, (case.params, chart.name)
            levels = case.geometry.level_values(chart._map(U, t), t)
            assert np.max(np.abs(levels)) <= 1e-12, (case.params, chart.name)


def test_the_gradient_of_an_outer_product_has_a_time_partial(rng):
    """grad(f (x) g) moves grad f's derivative slot last by a transpose,
    which carries the time partial: zero for polynomials."""
    f, g = random_polynomial(3, 1, rng), random_polynomial(3, 2, rng)
    grad = cartesian_gradient(tf_outer(f, g), AN)
    assert grad.has_time_derivative
    X = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(grad.dt_values(X, 0.5), np.zeros((4,) + (3,) * 4))

def _logged_field(f, seen, depth=3):
    """f, with every evaluation of it and of its first gradients logged."""
    grad = _logged_field(f.gradient, seen, depth - 1) if depth and f.has_gradient else None

    def func(x, t):
        seen.append(np.array(x, dtype=float))
        return f.values(x, t)

    return TensorField(f.n, f.q, func, grad=grad, name=f.name)


def _logged_geometry(geom, seen):
    """geom, with every point its level functions are evaluated at logged."""

    def logged(fn):
        def call(x, t):
            seen.append(np.array(x, dtype=float))
            return fn(x, t)

        return call

    levels = [LevelSet(logged(l.value), logged(l.gradient), logged(l.hessian))
              for l in geom.levels]
    return LevelSetGeometry(geom.n, levels, tube_halfwidth=geom.tube_halfwidth, name=geom.name)


@pytest.mark.parametrize("stack", ["laplacian-coordinate", "laplacian-polynomial",
                                   "curl-of-gradient", "covariant-laplacian-killing"])
def test_analytic_stacks_evaluate_only_at_the_point(stack, rng):
    case = get_case("sphere")
    seen = []
    geom = _logged_geometry(case.geometry, seen)
    x = case.sample_points(3, seed=4)[2]
    if stack == "laplacian-coordinate":
        field = laplacian(_logged_field(coordinate(3, 2), seen), geom, AN)
        want, tol = -2.0 * x[2], 1e-12
    elif stack == "laplacian-polynomial":
        f = random_polynomial(3, 0, rng, degree=3)
        field = laplacian(_logged_field(f, seen), geom, AN)
        want, tol = float(laplacian(f, case.geometry, FD4).values(x, 0.0)), 1e-6
    elif stack == "curl-of-gradient":
        f = random_polynomial(3, 0, rng, degree=2)
        field = surface_curl(submanifold_gradient(_logged_field(f, seen), geom, AN), geom, AN)
        want, tol = 0.0, 1e-12
    else:  # a Killing field of the unit sphere: lap-cov l = -l
        l01 = rotation_generator(3, 0, 1)
        field = covariant_laplacian(_logged_field(l01, seen), geom, AN)
        want, tol = -l01.values(x, 0.0), 1e-12
    got = field.values(x, 0.0)
    assert seen
    assert all(np.array_equal(p, x) for p in seen)
    assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))
