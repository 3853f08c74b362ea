"""Cauchy stress on submanifolds: forces, torques, and equilibrium diagnostics.

The stress sigma is a rank-2 tensor field whose first-slot insertion
sigma(v) gives the stress vector on a cut with orientation v.  Total force
and torque of a patch combine a boundary term (co-normal insertion) with
a curvature term, and equilibrium is characterized by Div_M of the
transpose.  The torques of all rotation planes {e_i, e_j} form one
antisymmetric matrix, whose entry (i, j) is the torque of the plane (i, j).

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
from .tensor import _dot, _outer

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
        P = geom._frame(X, t).P
        out = np.zeros(P.shape)
        out[..., i, :] = P[..., j, :]
        out[..., j, :] = -P[..., i, :]
        return out

    grad = None
    if geom.has_jet():

        def grad(X, t):
            Pd = geom._jet(X, t).P_d
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
        return np.einsum("abc,...c->...ab", eps, geom._frame(X, t).normals[..., 0, :])

    grad = None
    if geom.has_jet():

        def grad(X, t):
            return np.einsum("abc,...ck->...abk", eps, geom._jet(X, t).normals_d[..., 0, :, :])

    return _field(3, 2, func, grad=grad, name="cross-stress")


def stress_force(atlas: Atlas, sigma: TensorField, cfg: DiffConfig, t: float = 0.0) -> np.ndarray:
    """F = int_boundary sigma(t) + int sigma(kappa)."""
    # sigma(v): v fed into the first slot
    bnd, bulk = _stokes_terms(atlas, lambda X, s, v: _dot(v, sigma.values(X, s), 1), cfg, t)
    return np.asarray(bulk) + np.asarray(bnd)


def _antisymmetric(a: np.ndarray) -> np.ndarray:
    return a - np.swapaxes(a, -1, -2)


def _wedge(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x (x) v - v (x) x at each point of a batch (N, n): entry (i, j) is
    l_ij . v, the moment of v in the rotation plane (i, j)."""
    return _antisymmetric(_outer(x, v, 1))


def stress_torque(atlas: Atlas, sigma: TensorField, cfg: DiffConfig, t: float = 0.0) -> np.ndarray:
    """The torques of every rotation plane as one antisymmetric (n, n)
    matrix, m = int_boundary x ^ sigma(nu) + int x ^ sigma(kappa), where
    x ^ v = x (x) v - v (x) x.  Entry (i, j) is the torque m_K of the plane
    K = (i, j), whose generator is l_K = rotation_generator(n, i, j)."""
    bnd, bulk = _stokes_terms(
        atlas, lambda X, s, v: _wedge(X, _dot(v, sigma.values(X, s), 1)), cfg, t
    )
    return np.asarray(bulk) + np.asarray(bnd)


def force_residual(atlas: Atlas, sigma: TensorField, cfg: DiffConfig, t: float = 0.0) -> IdentityResult:
    """F equals the integral of Div_M of the transpose."""
    geom = atlas.geometry
    div_bar = divergence(transpose_field(sigma), geom, cfg)
    return IdentityResult(
        lhs=np.asarray(integrate(atlas, div_bar, t)),
        rhs=stress_force(atlas, sigma, cfg, t),
    )


def _torque_density(atlas: Atlas, a_field: TensorField, cfg: DiffConfig, t: float):
    """int x ^ Div_M A - int omega : A for every rotation plane, as one
    (n, n) matrix; omega_K : A of the plane K = (i, j) is entry (i, j) of
    the antisymmetric part of A P, as in ``omega_pairings``."""
    geom = atlas.geometry
    div_a = divergence(a_field, geom, cfg)

    def density(X, s):
        return _wedge(X, div_a.values(X, s)) - _antisymmetric(
            a_field.values(X, s) @ geom._frame(X, s).P)

    return np.asarray(integrate(atlas, density, t))


def torque_equivalence(
    atlas: Atlas, sigma: TensorField, cfg: DiffConfig, t: float = 0.0
) -> IdentityResult:
    """m_K = int l_K . Div_M sigma-bar - int omega_K : sigma-bar in every
    rotation plane K at once: ``lhs`` and ``rhs`` are antisymmetric (n, n)
    matrices whose entry (i, j) belongs to the plane (i, j)."""
    return IdentityResult(
        lhs=stress_torque(atlas, sigma, cfg, t),
        rhs=_torque_density(atlas, transpose_field(sigma), cfg, t),
    )


def generator_identity(
    atlas: Atlas, a_field: TensorField, cfg: DiffConfig, t: float = 0.0
) -> IdentityResult:
    """Product-rule identity behind the torque formula, for any rank-2 A:

    int_bnd (l_K.A).nu + int (l_K.A).kappa = int l_K . Div_M A - int A : omega_K,

    in every rotation plane K at once: ``lhs`` and ``rhs`` are antisymmetric
    (n, n) matrices whose entry (i, j) belongs to the plane (i, j).
    """
    bnd, bulk = _stokes_terms(
        atlas, lambda X, s, v: _wedge(X, _dot(a_field.values(X, s), v, 1)), cfg, t
    )
    return IdentityResult(
        lhs=np.asarray(bulk) + np.asarray(bnd), rhs=_torque_density(atlas, a_field, cfg, t)
    )


def normal_at_tangential(sigma_value: np.ndarray, frame: GeometryFrame):
    """Largest normal response of the stress vector over unit tangential cuts.

    Operator 2-norm of v -> N sigma(P v) at each point of a batch of values
    (..., n, n) with a frame at the same points; zero exactly when every
    tangential orientation produces a tangential stress vector.  It is
    sqrt(lambda_max(A A^T)) for A = normals sigma^T P of shape (..., m, n),
    from an m x m Gram matrix.  A point whose stress or frame is not finite
    (which IEEE arithmetic carries into its Gram matrix), or whose Gram
    matrix overflows, gives NaN.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # such points give NaN below
        A = frame.normals @ np.swapaxes(sigma_value, -1, -2) @ frame.P
        gram = A @ np.swapaxes(A, -1, -2)
    finite = np.isfinite(gram).all((-2, -1))
    top = np.linalg.eigvalsh(np.where(finite[..., None, None], gram, 0.0))[..., -1]
    return np.where(finite, np.sqrt(np.maximum(top, 0.0)), np.nan)[()]


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

