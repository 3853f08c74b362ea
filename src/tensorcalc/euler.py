"""Incompressible Euler flow on a fixed submanifold, in extrinsic form.

The velocity is a tangential vector field u with scalar pressure p,

    du/dt + (gradcov u) . u = -grad_M p,   div_M u = 0,   u . t = 0 on the boundary.

Everything here is a residual or an integral identity built from those
ingredients; nothing solves the system.  The pointwise residuals take
points x of shape (..., n) and return one value per point, of batch shape
(...) plus the value's own shape; a single point is a batch of shape ().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import TensorField, _field, _zeros, polynomial, tf_add, tf_outer
from .geometry import LevelSetGeometry
from .operators import (
    DiffConfig,
    covariant_gradient,
    divergence,
    mean_curvature,
    project_field,
    projector_field,
    shape_operator,
    submanifold_gradient,
    time_partial,
)
from .quadrature import Atlas, IdentityResult, _dot_last, integrate, integrate_boundary

__all__ = [
    "EulerState",
    "rigid_rotation_state",
    "extrinsic_momentum",
    "tangent_velocity_identity",
    "momentum_residual",
    "divergence_form_residual",
    "convective_identity_residual",
    "incompressibility",
    "tangency",
    "force_balance",
]


@dataclass
class EulerState:
    geometry: LevelSetGeometry
    velocity: TensorField
    pressure: TensorField


def rigid_rotation_state(geometry: LevelSetGeometry, omega: float = 1.0) -> EulerState:
    """Steady rotation about the z axis on a sphere centered at the origin.

    u = omega e_z x x with p = omega^2 (x^2 + y^2) / 2; a classical steady
    solution, tangential to any origin-centered sphere and to the equator.
    """
    spin = omega * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    u = _field(
        3,
        1,
        lambda X, t: X @ spin.T,
        grad=lambda X, t: np.broadcast_to(spin, X.shape + (3,)),
        dt=_zeros((3,)),
        name="rigid-rotation",
    )
    p = polynomial(
        3,
        0,
        exponents=[(2, 0, 0), (0, 2, 0)],
        coeffs=[0.5 * omega**2, 0.5 * omega**2],
        name="rotation-pressure",
    )
    return EulerState(geometry=geometry, velocity=u, pressure=p)


def extrinsic_momentum(atlas: Atlas, u: TensorField, t: float = 0.0, rho: float = 1.0):
    """J[u] = rho * componentwise integral of u over the submanifold."""
    return rho * np.asarray(integrate(atlas, u, t))


def tangent_velocity_identity(
    atlas: Atlas, u: TensorField, cfg: DiffConfig, t: float = 0.0
) -> IdentityResult:
    """int P u = -int div_M(P u) x + int_boundary (u.t) x, for any vector field."""
    geom = atlas.geometry
    pu = project_field(u, geom, name="Pu")
    div_pu = divergence(pu, geom, cfg)
    lhs = integrate(atlas, pu, t)
    bulk = integrate(atlas, lambda X, s: -div_pu.values(X, s)[:, None] * X, t)
    bnd = integrate_boundary(
        atlas, lambda B, s: _dot_last(u.values(B.x, s), B.conormal)[:, None] * B.x, t
    )
    return IdentityResult(lhs=np.asarray(lhs), rhs=np.asarray(bulk + bnd))


def momentum_residual(state: EulerState, x, t: float, cfg: DiffConfig) -> np.ndarray:
    """Pointwise residual of the non-divergence form, at points x of shape (..., n)."""
    geom = state.geometry
    dtu = time_partial(state.velocity, cfg).values(x, t)
    conv = _apply(covariant_gradient(state.velocity, geom, cfg).values(x, t),
                  state.velocity.values(x, t))
    gp = submanifold_gradient(state.pressure, geom, cfg).values(x, t)
    return dtu + conv + gp


def _apply(matrix: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix times vector at each point of a batch."""
    return np.einsum("...ab,...b->...a", matrix, v)


def _flux_field(state: EulerState) -> TensorField:
    u, p = state.velocity, state.pressure
    pP = tf_outer(p, projector_field(state.geometry), name="pP")
    return tf_add(tf_outer(u, u), pP, name="euler-flux")


def divergence_form_residual(state: EulerState, x, t: float, cfg: DiffConfig) -> np.ndarray:
    """Pointwise residual of du/dt + Proj Div_M (u (x) u + p P) = 0."""
    geom = state.geometry
    dtu = time_partial(state.velocity, cfg).values(x, t)
    divq = divergence(_flux_field(state), geom, cfg).values(x, t)
    return dtu + _apply(geom.frame_at(x, t).P, divq)


def convective_identity_residual(state: EulerState, x, t: float, cfg: DiffConfig) -> np.ndarray:
    """(gradcov u).u - Proj Div_M(u (x) u); zero whenever div_M u = 0."""
    geom = state.geometry
    u = state.velocity
    conv = _apply(covariant_gradient(u, geom, cfg).values(x, t), u.values(x, t))
    divuu = divergence(tf_outer(u, u), geom, cfg).values(x, t)
    return conv - _apply(geom.frame_at(x, t).P, divuu)


def incompressibility(state: EulerState, x, t: float, cfg: DiffConfig):
    """div_M u at points x of shape (..., n)."""
    return divergence(state.velocity, state.geometry, cfg).values(x, t)[()]


def tangency(state: EulerState, x, t: float = 0.0):
    """|N u|, the size of the normal part of u, at points x of shape (..., n)."""
    normal = _apply(state.geometry.frame_at(x, t).N, state.velocity.values(x, t))
    return np.linalg.norm(normal, axis=-1)[()]


def force_balance(atlas: Atlas, state: EulerState, cfg: DiffConfig, t: float = 0.0) -> IdentityResult:
    """Young-Laplace force + boundary reaction + centripetal force = 0.

    int p kappa + int_boundary p t + sum_i int (B_i(u).u) n_i = 0 for a flow
    satisfying the momentum equation with u tangential to the boundary.
    """
    geom = state.geometry
    u, p = state.velocity, state.pressure
    kap = mean_curvature(geom, cfg)
    young = integrate(atlas, lambda X, s: p.values(X, s)[:, None] * kap.values(X, s), t)
    reaction = integrate_boundary(atlas, lambda B, s: p.values(B.x, s)[:, None] * B.conormal, t)
    centripetal = np.zeros(geom.n)
    for i in range(geom.m):
        b_i = shape_operator(geom, i, cfg)

        def integrand(X, s, b_i=b_i, i=i):
            uval = u.values(X, s)
            bu = np.einsum("na,nab,nb->n", uval, b_i.values(X, s), uval)
            return bu[:, None] * geom.frame_at(X, s).normals[:, i, :]

        centripetal = centripetal + integrate(atlas, integrand, t)
    return IdentityResult(
        lhs=np.asarray(young) + reaction + centripetal,
        rhs=np.zeros(geom.n),
        pieces={"young_laplace": np.asarray(young), "reaction": reaction, "centripetal": centripetal},
    )
