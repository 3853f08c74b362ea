"""Transport theorems and the Dirichlet energy rate on a moving sphere."""

import math

import numpy as np
import pytest

from tensorcalc.builtins import get_case
from tensorcalc.fields import (
    constant,
    coordinate,
    random_polynomial,
    tf_add,
    vector_field,
)
from tensorcalc.operators import (
    DiffConfig,
    covariant_gradient,
    divergence,
    material_derivative,
    project_field,
    submanifold_gradient,
)
from tensorcalc.evolving import (
    dirichlet_energy,
    dirichlet_rate_fd,
    dirichlet_rate_terms,
    material_consistency,
    reynolds_residual,
    transport_rate_fd,
)
from tensorcalc.quadrature import integrate
from tensorcalc.tensor import Tensor, _partials, scalar

AN = DiffConfig(mode="analytic")
FD2 = DiffConfig(mode="fd2")
RADIUS, SPEED = 1.0, 0.2


def expanding_case():
    return get_case("expanding_sphere", radius=RADIUS, speed=SPEED)


def swirl_velocity(case):
    """Radial expansion plus a rigid swirl, with an exact Jacobian."""
    w = case.velocity
    spin = np.zeros((3, 3))
    spin[1, 0], spin[0, 1] = 0.7, -0.7

    def func(x, t):
        return w.values(x, t) + spin @ x

    return vector_field(
        3,
        func,
        jacobian=lambda x, t: w.gradient_values(x, t) + spin,
        dt=lambda x, t: np.zeros(3),
        name="swirl",
    )


@pytest.mark.parametrize("t", [0.0, 0.3])
def test_the_radial_velocity_is_the_speed_along_the_normal(t):
    case = expanding_case()
    w, points = case.velocity, case.sample_points(5, t=t)
    radius = np.linalg.norm(points, axis=-1, keepdims=True)
    np.testing.assert_allclose(w.values(points, t), SPEED * points / radius, rtol=0, atol=1e-15)
    want = _partials(lambda Y: w.values(Y, t), points, np.full(3, 1e-3), 4)
    np.testing.assert_allclose(w.gradient_values(points, t), want, rtol=0, atol=1e-9)


def test_area_rate_matches_closed_form():
    case = expanding_case()
    atlas = case.atlas(order=10, panels=1)
    rate = float(integrate(atlas, divergence(case.velocity, case.geometry, AN)))
    np.testing.assert_allclose(rate, 8 * math.pi * RADIUS * SPEED, atol=1e-10)


def test_reynolds_transport_scalar_and_vector(rng):
    case = expanding_case()
    atlas = case.atlas(order=10, panels=1)
    one = constant(3, scalar(1.0, 3))
    res = reynolds_residual(atlas, one, case.velocity, AN)
    assert res.rel_residual <= 1e-7

    f = random_polynomial(3, 1, rng, degree=2)
    res1 = reynolds_residual(atlas, f, swirl_velocity(case), AN)
    assert res1.rel_residual <= 1e-5


def test_transport_rate_fd_matches_area_growth():
    case = expanding_case()
    atlas = case.atlas(order=10, panels=1)
    one = constant(3, scalar(1.0, 3))
    fd = float(transport_rate_fd(atlas, one, case.velocity))
    np.testing.assert_allclose(fd, 8 * math.pi * RADIUS * SPEED, atol=1e-7)


def test_dirichlet_energy_of_height():
    """E = (4 pi / 3) R^2 for the height coordinate on a sphere of radius R."""
    case = get_case("expanding_sphere", radius=1.0, speed=0.25)
    atlas = case.atlas(order=12, panels=2)
    E = dirichlet_energy(atlas, coordinate(3, 2), AN)
    np.testing.assert_allclose(E, 4 * math.pi / 3, atol=1e-10)


def test_dirichlet_rate_rank0_against_fd_and_closed_form():
    case = expanding_case()
    atlas = case.atlas(order=10, panels=1)
    z = coordinate(3, 2)
    terms = dirichlet_rate_terms(atlas, z, case.velocity, AN)
    fd = dirichlet_rate_fd(atlas, z, case.velocity, AN)
    scale = max(1.0, abs(fd))
    assert abs(terms["total"] - fd) / scale <= 1e-4
    np.testing.assert_allclose(
        terms["total"], 8 * math.pi * RADIUS * SPEED / 3, atol=1e-7
    )


def test_dirichlet_rate_rank0_with_swirl():
    """The swirl is an isometry of the sphere, so it must not change dE/dt."""
    case = expanding_case()
    atlas = case.atlas(order=10, panels=1)
    z = coordinate(3, 2)
    w2 = swirl_velocity(case)
    terms = dirichlet_rate_terms(atlas, z, w2, AN)
    fd = dirichlet_rate_fd(atlas, z, w2, AN)
    assert abs(terms["total"] - fd) / max(1.0, abs(fd)) <= 1e-4


def test_dirichlet_rate_rank2(rng):
    case = expanding_case()
    atlas = case.atlas(order=10, panels=1)
    ez = np.array([0.0, 0.0, 1.0])
    t2 = project_field(
        constant(3, Tensor(3, np.outer(ez, ez)), name="ezez"), case.geometry
    )
    terms = dirichlet_rate_terms(atlas, t2, case.velocity, AN)
    fd = dirichlet_rate_fd(atlas, t2, case.velocity, AN)
    assert abs(terms["total"] - fd) / max(1.0, abs(fd)) <= 1e-3


def _full_contraction(a, b):
    return np.sum((a * b).reshape(len(a), -1), axis=1)


@pytest.mark.parametrize("mode", ["fd2", "analytic"])
@pytest.mark.parametrize("rank", [0, 2])
def test_each_rate_term_equals_its_own_integral(rank, mode):
    """The three terms come from one stacked integrand; each must equal its
    own integral, taken apart, to 1e-13 of the largest term."""
    case = expanding_case()
    geom, w = case.geometry, case.velocity
    atlas = case.atlas(order=8, panels=1)
    cfg = DiffConfig(mode=mode)
    if rank == 0:
        f = coordinate(3, 2)
    else:
        ez = np.array([0.0, 0.0, 1.0])
        f = project_field(constant(3, Tensor(3, np.outer(ez, ez)), name="ezez"), geom)
    g = submanifold_gradient(f, geom, cfg)
    g_rate = submanifold_gradient(material_derivative(f, w, cfg), geom, cfg)
    div_w = divergence(w, geom, cfg)
    cov_w = covariant_gradient(w, geom, cfg)

    def chained(X, t):
        garr = g.values(X, t)
        return _full_contraction(np.einsum("n...i,nij->n...j", garr, cov_w.values(X, t)), garr)

    want = {
        "advection": float(integrate(
            atlas, lambda X, t: _full_contraction(g.values(X, t), g_rate.values(X, t)))),
        "dilation": 0.5 * float(integrate(
            atlas, lambda X, t: _full_contraction(g.values(X, t), g.values(X, t))
            * div_w.values(X, t))),
        "chain": -float(integrate(atlas, chained)),
    }
    got = dirichlet_rate_terms(atlas, f, w, cfg)
    scale = max(abs(v) for v in want.values())
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-13 * scale, name


def test_material_consistency_along_paths(rng):
    case = expanding_case()
    f = random_polynomial(3, 1, rng, degree=2)
    w2 = swirl_velocity(case)
    for x in case.sample_points(3):
        assert material_consistency(f, w2, x, 0.0, AN) <= 1e-8


def test_rate_terms_sum_to_total(rng):
    case = expanding_case()
    atlas = case.atlas(order=8, panels=1)
    f = tf_add(coordinate(3, 2), coordinate(3, 0))
    terms = dirichlet_rate_terms(atlas, f, case.velocity, AN)
    np.testing.assert_allclose(
        terms["advection"] + terms["dilation"] + terms["chain"],
        terms["total"],
        atol=1e-14,
    )
