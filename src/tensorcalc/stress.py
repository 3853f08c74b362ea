"""Cauchy stress on submanifolds: forces, torques, and equilibrium diagnostics.

The stress sigma is a rank-2 tensor field whose first-slot insertion
sigma(v) gives the stress vector on a cut with orientation v.  Total force
and torque of a patch combine a boundary term (co-normal insertion) with
a curvature term, and equilibrium is characterized by Div_M of the
transpose.  Torques are indexed by the rotation planes {e_i, e_j}.

The pointwise diagnostics take batches: stress values (..., n, n) with a
frame at the same points, or points (..., n), give per-point results of
batch shape (...), and a single point (batch shape ()) gives numbers.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .fields import TensorField, _constant_array, _field, _zeros
from .geometry import GeometryFrame, LevelSetGeometry
from .operators import DiffConfig, divergence
from .quadrature import Atlas, IdentityResult, _stokes_terms, integrate
from .tensor import _dot, _frobenius

__all__ = [
    "rotation_generator",
    "omega_field",
    "transpose_field",
    "cross_stress",
    "stress_force",
    "stress_torque",
    "force_residual",
    "torque_equivalence",
    "generator_identity",
    "normal_at_tangential",
    "omega_pairings",
    "equilibrium_diagnostics",
]


def rotation_generator(n: int, i: int, j: int) -> TensorField:
    """l_ij = x_i e_j - x_j e_i, the generator of rotations of the (i, j) plane.

    Its gradient is a constant field, so analytic mode takes its second
    derivatives (zero) without differences."""
    if not (0 <= i < j < n):
        raise ValueError(f"need 0 <= i < j < n, got ({i}, {j})")
    jac = np.zeros((n, n))
    jac[j, i] = 1.0
    jac[i, j] = -1.0

    def func(X, t):
        out = np.zeros(X.shape)
        out[..., j] = X[..., i]
        out[..., i] = -X[..., j]
        return out

    name = f"l_{i}{j}"
    return _field(
        n, 1, func, grad=_constant_array(n, jac, f"grad({name})"), dt=_zeros((n,)), name=name
    )


def omega_field(geom: LevelSetGeometry, i: int, j: int) -> TensorField:
    """omega_ij = e_i (x) P_j - e_j (x) P_i built from rows of the projector."""
    n = geom.n

    def func(X, t):
        P = geom.frame_at(X, t).P
        out = np.zeros(P.shape)
        out[..., i, :] = P[..., j, :]
        out[..., j, :] = -P[..., i, :]
        return out

    grad = None
    if geom.has_analytic_hessians:

        def grad(X, t):
            Pd = geom.frame_derivative_at(X, t)[1].P_d
            out = np.zeros(Pd.shape)
            out[..., i, :, :] = Pd[..., j, :, :]
            out[..., j, :, :] = -Pd[..., i, :, :]
            return out

    return _field(n, 2, func, grad=grad, name=f"omega_{i}{j}")


def transpose_field(f: TensorField) -> TensorField:
    if f.q != 2:
        raise ValueError("transpose_field needs a rank-2 field")
    grad = None
    if f.has_gradient:
        grad = lambda X, t: np.swapaxes(f.gradient_values(X, t), -3, -2)
    dt = None
    if f.has_time_derivative:
        dt = lambda X, t: np.swapaxes(f.dt_values(X, t), -2, -1)
    return _field(
        f.n, 2, lambda X, t: np.swapaxes(f.values(X, t), -2, -1), grad=grad, dt=dt,
        depth=f.depth, name=f"{f.name}^T",
    )


def cross_stress(geom: LevelSetGeometry) -> TensorField:
    """sigma_ab = eps_abk n_k on a surface in R^3.

    Divergence-free and tangential-on-tangential, with zero net force and
    torque on a closed surface; a handy non-symmetric test stress.
    """
    if geom.n != 3 or geom.m != 1:
        raise ValueError("cross_stress is specific to surfaces in R^3")
    eps = np.zeros((3, 3, 3))
    for a, b, c, s in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (0, 2, 1, -1), (2, 1, 0, -1), (1, 0, 2, -1)):
        eps[a, b, c] = s

    def func(X, t):
        return np.einsum("abc,...c->...ab", eps, geom.frame_at(X, t).normals[..., 0, :])

    grad = None
    if geom.has_analytic_hessians:

        def grad(X, t):
            _, fd = geom.frame_derivative_at(X, t)
            return np.einsum("abc,...ck->...abk", eps, fd.normals_d[..., 0, :, :])

    return _field(3, 2, func, grad=grad, name="cross-stress")


def stress_force(atlas: Atlas, sigma: TensorField, cfg: DiffConfig, t: float = 0.0) -> np.ndarray:
    """F = int_boundary sigma(t) + int sigma(kappa)."""
    # sigma(v): v fed into the first slot
    bnd, bulk = _stokes_terms(atlas, lambda X, s, v: _dot(v, sigma.values(X, s), 1), cfg, t)
    return np.asarray(bulk) + np.asarray(bnd)


def stress_torque(
    atlas: Atlas, sigma: TensorField, plane: Tuple[int, int], cfg: DiffConfig, t: float = 0.0
) -> float:
    """m_K = int_boundary l_K . sigma(t) + int l_K . sigma(kappa)."""
    l_k = rotation_generator(atlas.geometry.n, *plane)
    bnd, bulk = _stokes_terms(
        atlas, lambda X, s, v: _dot(l_k.values(X, s), _dot(v, sigma.values(X, s), 1), 1), cfg, t
    )
    return float(bulk) + float(bnd)


def force_residual(atlas: Atlas, sigma: TensorField, cfg: DiffConfig, t: float = 0.0) -> IdentityResult:
    """F equals the integral of Div_M of the transpose."""
    geom = atlas.geometry
    div_bar = divergence(transpose_field(sigma), geom, cfg)
    return IdentityResult(
        lhs=np.asarray(integrate(atlas, div_bar, t)),
        rhs=stress_force(atlas, sigma, cfg, t),
    )


def torque_equivalence(
    atlas: Atlas, sigma: TensorField, plane: Tuple[int, int], cfg: DiffConfig, t: float = 0.0
) -> IdentityResult:
    """m_K = int l_K . Div_M sigma-bar - int omega_K : sigma-bar."""
    geom = atlas.geometry
    i, j = plane
    l_k = rotation_generator(geom.n, i, j)
    om = omega_field(geom, i, j)
    bar = transpose_field(sigma)
    div_bar = divergence(bar, geom, cfg)
    first = integrate(atlas, lambda X, s: _dot(l_k.values(X, s), div_bar.values(X, s), 1), t)
    second = integrate(atlas, lambda X, s: _frobenius(om.values(X, s), bar.values(X, s), 1), t)
    return IdentityResult(
        lhs=np.asarray(stress_torque(atlas, sigma, plane, cfg, t)),
        rhs=np.asarray(float(first) - float(second)),
    )


def generator_identity(
    atlas: Atlas, a_field: TensorField, plane: Tuple[int, int], cfg: DiffConfig, t: float = 0.0
) -> IdentityResult:
    """Product-rule identity behind the torque formula, for any rank-2 A:

    int_bnd (l:A).t + int (l:A).kappa = int l . Div_M A - int A : omega.
    """
    geom = atlas.geometry
    i, j = plane
    l_k = rotation_generator(geom.n, i, j)
    om = omega_field(geom, i, j)
    div_a = divergence(a_field, geom, cfg)
    lhs_bnd, lhs_bulk = _stokes_terms(
        atlas, lambda X, s, v: _dot(_dot(l_k.values(X, s), a_field.values(X, s), 1), v, 1), cfg, t
    )
    lhs = float(lhs_bulk) + float(lhs_bnd)
    rhs_first = integrate(atlas, lambda X, s: _dot(l_k.values(X, s), div_a.values(X, s), 1), t)
    rhs_second = integrate(
        atlas, lambda X, s: _frobenius(a_field.values(X, s), om.values(X, s), 1), t
    )
    return IdentityResult(lhs=np.asarray(lhs), rhs=np.asarray(float(rhs_first) - float(rhs_second)))


def normal_at_tangential(sigma_value: np.ndarray, frame: GeometryFrame):
    """Largest normal response of the stress vector over unit tangential cuts.

    Operator 2-norm of v -> N sigma(P v) at each point of a batch of values
    (..., n, n) with a frame at the same points; zero exactly when every
    tangential orientation produces a tangential stress vector.
    """
    response = frame.N @ np.swapaxes(sigma_value, -1, -2) @ frame.P
    return np.linalg.norm(response, ord=2, axis=(-2, -1))[()]


def omega_pairings(sigma_value: np.ndarray, frame: GeometryFrame) -> Dict[Tuple[int, int], object]:
    """omega_K : sigma-bar for each rotation plane K = (i, j), at each point
    of a batch of values (..., n, n) with a frame at the same points.

    Equals the antisymmetric part of sigma-bar P; all pairings vanish iff
    the torque balance imposes no pointwise constraint on sigma.
    """
    barP = np.swapaxes(sigma_value, -1, -2) @ frame.P
    n = frame.n
    return {(i, j): barP[..., i, j] - barP[..., j, i] for i in range(n) for j in range(i + 1, n)}


def equilibrium_diagnostics(
    sigma: TensorField,
    geom: LevelSetGeometry,
    cfg: DiffConfig,
    x,
    t: float = 0.0,
) -> Dict[str, object]:
    """Pointwise equilibrium measures at points x of shape (..., n): Div of
    the transpose, the omega pairings per rotation plane, and the
    normal-at-tangential norm."""
    frame = geom.frame_at(x, t)
    sig = sigma.values(x, t)
    div_bar = divergence(transpose_field(sigma), geom, cfg).values(x, t)
    return {
        "div_transpose": div_bar,
        "omega_pairings": omega_pairings(sig, frame),
        "normal_at_tangential": normal_at_tangential(sig, frame),
    }

