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

from .fields import TensorField, polynomial, tf_add, tf_outer, tf_scale
from .geometry import LevelSetGeometry
from .operators import (
    DiffConfig,
    covariant_gradient,
    divergence,
    normal_field,
    project_field,
    projector_field,
    shape_operator,
    submanifold_gradient,
    time_partial,
)
from .quadrature import Atlas, IdentityResult, _stokes_terms, integrate, integrate_boundary
from .stress import rotation_generator
from .tensor import _dot

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
    u = tf_scale(rotation_generator(3, 0, 1), omega, name="rigid-rotation")
    p = polynomial(
        3,
        0,
        exponents=[(2, 0, 0), (0, 2, 0)],
        coeffs=[0.5 * omega**2, 0.5 * omega**2],
        name="rotation-pressure",
    )
    return EulerState(geometry=geometry, velocity=u, pressure=p)


def extrinsic_momentum(atlas: Atlas, u: TensorField, t: float = 0.0):
    """J[u], the componentwise integral of u over the submanifold."""
    return np.asarray(integrate(atlas, u, t))


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
        atlas, lambda B, s: _dot(u.values(B.x, s), B.conormal, 1)[:, None] * B.x, t
    )
    return IdentityResult(lhs=np.asarray(lhs), rhs=np.asarray(bulk + bnd))


def momentum_residual(state: EulerState, x, t: float, cfg: DiffConfig) -> np.ndarray:
    """Pointwise residual of the non-divergence form, at points x of shape (..., n)."""
    geom = state.geometry
    dtu = time_partial(state.velocity, cfg).values(x, t)
    conv = _dot(covariant_gradient(state.velocity, geom, cfg).values(x, t),
                state.velocity.values(x, t), np.ndim(x) - 1)
    gp = submanifold_gradient(state.pressure, geom, cfg).values(x, t)
    return dtu + conv + gp


def _flux_field(state: EulerState) -> TensorField:
    u, p = state.velocity, state.pressure
    pP = tf_outer(p, projector_field(state.geometry), name="pP")
    return tf_add(tf_outer(u, u), pP, name="euler-flux")


def divergence_form_residual(state: EulerState, x, t: float, cfg: DiffConfig) -> np.ndarray:
    """Pointwise residual of du/dt + Proj Div_M (u (x) u + p P) = 0."""
    geom = state.geometry
    dtu = time_partial(state.velocity, cfg).values(x, t)
    return dtu + project_field(divergence(_flux_field(state), geom, cfg), geom).values(x, t)


def convective_identity_residual(state: EulerState, x, t: float, cfg: DiffConfig) -> np.ndarray:
    """(gradcov u).u - Proj Div_M(u (x) u); zero whenever div_M u = 0."""
    geom = state.geometry
    u = state.velocity
    conv = _dot(covariant_gradient(u, geom, cfg).values(x, t), u.values(x, t), np.ndim(x) - 1)
    return conv - project_field(divergence(tf_outer(u, u), geom, cfg), geom).values(x, t)


def incompressibility(state: EulerState, x, t: float, cfg: DiffConfig):
    """div_M u at points x of shape (..., n)."""
    return divergence(state.velocity, state.geometry, cfg).values(x, t)[()]


def tangency(state: EulerState, x, t: float = 0.0):
    """|N u|, the size of the normal part of u, at points x of shape (..., n)."""
    normal = _dot(state.geometry.frame_at(x, t).N, state.velocity.values(x, t), np.ndim(x) - 1)
    return np.linalg.norm(normal, axis=-1)[()]


def force_balance(atlas: Atlas, state: EulerState, cfg: DiffConfig, t: float = 0.0) -> IdentityResult:
    """Young-Laplace force + boundary reaction + centripetal force = 0.

    int p kappa + int_boundary p t + sum_i int (B_i(u).u) n_i = 0 for a flow
    satisfying the momentum equation with u tangential to the boundary.
    """
    geom = state.geometry
    u, p = state.velocity, state.pressure
    reaction, young = _stokes_terms(atlas, lambda X, s, v: p.values(X, s)[:, None] * v, cfg, t)
    centripetal = np.zeros(geom.n)
    for i in range(geom.m):
        b_i, n_i = shape_operator(geom, i, cfg), normal_field(geom, i)

        def integrand(X, s, b_i=b_i, n_i=n_i):
            uval = u.values(X, s)
            bu = _dot(_dot(uval, b_i.values(X, s), 1), uval, 1)
            return bu[:, None] * n_i.values(X, s)

        centripetal = centripetal + integrate(atlas, integrand, t)
    return IdentityResult(
        lhs=np.asarray(young) + reaction + centripetal,
        rhs=np.zeros(geom.n),
        pieces={"young_laplace": np.asarray(young), "reaction": reaction, "centripetal": centripetal},
    )
