"""Evolving submanifolds: material derivatives, transport, Dirichlet energy rate.

The moving geometry is described by time-dependent level sets plus a
material velocity field w.  Time derivatives of domain integrals are
checked against finite differences computed on atlases advected with a
single RK4 step of w, so no reference solution is ever parametrized by
hand.  ``material_consistency`` takes points x of shape (..., n) and
returns one error per point; a single point is a batch of shape ().
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .fields import TensorField
from .operators import (
    DiffConfig,
    covariant_gradient,
    divergence,
    material_derivative,
    submanifold_gradient,
)
from .quadrature import Atlas, IdentityResult, advected_atlas, integrate, rk4_step
from .tensor import _dot, _frobenius, _outer

__all__ = [
    "dirichlet_energy",
    "dirichlet_rate_terms",
    "dirichlet_rate_fd",
    "reynolds_residual",
    "transport_rate_fd",
    "material_consistency",
]


def dirichlet_energy(atlas: Atlas, f: TensorField, cfg: DiffConfig, t: float = 0.0) -> float:
    """E = 1/2 int |grad_M T|^2 over the current submanifold."""
    g = submanifold_gradient(f, atlas.geometry, cfg)

    def density(X, s):
        garr = g.values(X, s)
        return _frobenius(garr, garr, 1)

    return 0.5 * float(integrate(atlas, density, t))


def dirichlet_rate_terms(
    atlas: Atlas, f: TensorField, w: TensorField, cfg: DiffConfig, t: float = 0.0
) -> Dict[str, float]:
    """Instantaneous three-term expression for dE/dt on the moving domain.

    dE/dt = int grad_M T : grad_M(D_w T) + 1/2 int |grad_M T|^2 div_M w
            - int (grad_M T o gradcov w) : grad_M T
    """
    geom = atlas.geometry
    g = submanifold_gradient(f, geom, cfg)
    g_rate = submanifold_gradient(material_derivative(f, w, cfg), geom, cfg)
    div_w = divergence(w, geom, cfg)
    cov_w = covariant_gradient(w, geom, cfg)

    term1 = float(
        integrate(atlas, lambda X, s: _frobenius(g.values(X, s), g_rate.values(X, s), 1), t)
    )

    def dilation(X, s):
        garr = g.values(X, s)
        return _frobenius(garr, garr, 1) * div_w.values(X, s)

    term2 = 0.5 * float(integrate(atlas, dilation, t))

    def chained(X, s):
        garr = g.values(X, s)  # derivative slot last
        return _frobenius(_dot(garr, cov_w.values(X, s), 1), garr, 1)

    term3 = -float(integrate(atlas, chained, t))
    return {"advection": term1, "dilation": term2, "chain": term3, "total": term1 + term2 + term3}


def dirichlet_rate_fd(
    atlas: Atlas, f: TensorField, w: TensorField, cfg: DiffConfig, t: float = 0.0, dt: float = 1e-3
) -> float:
    """Centered difference of the energy on RK4-advected atlases."""
    plus = dirichlet_energy(advected_atlas(atlas, w, t, dt), f, cfg, t + dt)
    minus = dirichlet_energy(advected_atlas(atlas, w, t, -dt), f, cfg, t - dt)
    return (plus - minus) / (2.0 * dt)


def transport_rate_fd(
    atlas: Atlas, f: TensorField, w: TensorField, t: float = 0.0, dt: float = 1e-3
):
    """Centered difference of int_M T on advected atlases, leafwise."""
    plus = integrate(advected_atlas(atlas, w, t, dt), f, t + dt)
    minus = integrate(advected_atlas(atlas, w, t, -dt), f, t - dt)
    return (np.asarray(plus) - np.asarray(minus)) / (2.0 * dt)


def reynolds_residual(
    atlas: Atlas, f: TensorField, w: TensorField, cfg: DiffConfig, t: float = 0.0, dt: float = 1e-3
) -> IdentityResult:
    """d/dt int T = int D_w T + int (div_M w) T, the transport formula."""
    geom = atlas.geometry
    mat = material_derivative(f, w, cfg)
    div_w = divergence(w, geom, cfg)
    rhs = integrate(
        atlas,
        lambda X, s: mat.values(X, s) + _outer(div_w.values(X, s), f.values(X, s), 1),
        t,
    )
    lhs = transport_rate_fd(atlas, f, w, t, dt)
    return IdentityResult(lhs=np.asarray(lhs), rhs=np.asarray(rhs))


def material_consistency(
    f: TensorField, w: TensorField, x, t: float, cfg: DiffConfig, dt: float = 1e-4
):
    """Compare D_w T with a centered difference along the RK4 material path,
    at points x of shape (..., n): one relative error per point."""
    x = np.asarray(x, dtype=float)
    ahead = f.values(rk4_step(x, t, dt, w), t + dt)
    behind = f.values(rk4_step(x, t, -dt, w), t - dt)
    fd = (ahead - behind) / (2.0 * dt)
    exact = material_derivative(f, w, cfg).values(x, t)
    per_point = x.shape[:-1] + (-1,)
    scale = np.maximum(1.0, np.linalg.norm(exact.reshape(per_point), axis=-1))
    return (np.linalg.norm((fd - exact).reshape(per_point), axis=-1) / scale)[()]
