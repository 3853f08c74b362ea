"""Level-set geometry: frames, projectors, tangential projection, quarter turns.

A submanifold of codimension m is the joint zero set of m scalar level
functions.  All frame data at a point comes from the level function
gradients: normals are their modified Gram-Schmidt orthonormalization in
the listed order, N is the normal projector, P = I - N the tangential one.
Nothing is parametrized; charts live in the quadrature layer only.
"""

from __future__ import annotations

from itertools import permutations
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import MAX_AMBIENT_DIM, ShapeError, Tensor

__all__ = [
    "GeometryError",
    "LevelSet",
    "LevelSetGeometry",
    "GeometryFrame",
    "frame_from_normals",
    "project",
    "is_tangent",
    "tangent_basis",
    "perp",
    "perp_matrix",
]

_LEVEL_FD_STEP = 1e-5


class GeometryError(ValueError):
    """Degenerate frame data or a point outside the geometry's tube."""


class LevelSet:
    """One scalar constraint d(x, t) with optional analytic derivatives.

    ``value`` is required.  ``gradient`` and ``hessian`` are used when given;
    otherwise fourth-order central differences fill in.  All callables take
    (x, t) even when the constraint is static.
    """

    def __init__(
        self,
        value: Callable[[np.ndarray, float], float],
        gradient: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        hessian: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
    ) -> None:
        self.value = value
        self._gradient = gradient
        self._hessian = hessian

    @property
    def has_analytic_gradient(self) -> bool:
        return self._gradient is not None

    @property
    def has_analytic_hessian(self) -> bool:
        return self._hessian is not None

    def gradient(self, x: np.ndarray, t: float) -> np.ndarray:
        if self._gradient is not None:
            return np.asarray(self._gradient(x, t), dtype=float)
        n = x.shape[0]
        h = _LEVEL_FD_STEP * max(1.0, float(np.linalg.norm(x)))
        g = np.empty(n)
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            g[k] = (
                -self.value(x + 2 * e, t)
                + 8 * self.value(x + e, t)
                - 8 * self.value(x - e, t)
                + self.value(x - 2 * e, t)
            ) / (12 * h)
        return g

    def hessian(self, x: np.ndarray, t: float) -> np.ndarray:
        if self._hessian is not None:
            return np.asarray(self._hessian(x, t), dtype=float)
        n = x.shape[0]
        h = _LEVEL_FD_STEP * max(1.0, float(np.linalg.norm(x)))
        H = np.empty((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            H[:, k] = (self.gradient(x + e, t) - self.gradient(x - e, t)) / (2 * h)
        return 0.5 * (H + H.T)


class GeometryFrame:
    """Pointwise frame: orthonormal normals and the two projectors.

    ``normals`` has shape (m, n); ``N`` and ``P`` are (n, n) arrays with
    N = sum_i n_i n_i^T and P = I - N.  Tensor views are available through
    ``normal_projector`` and ``tangent_projector``.
    """

    __slots__ = ("x", "t", "normals", "N", "P")

    def __init__(self, x: np.ndarray, t: float, normals: np.ndarray) -> None:
        self.x = np.asarray(x, dtype=float)
        self.t = float(t)
        self.normals = np.asarray(normals, dtype=float)
        self.N = self.normals.T @ self.normals
        self.P = np.eye(self.x.shape[0]) - self.N

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.normals.shape[0]

    @property
    def normal_projector(self) -> Tensor:
        return Tensor(self.n, self.N)

    @property
    def tangent_projector(self) -> Tensor:
        return Tensor(self.n, self.P)


def frame_from_normals(normals, x=None, t: float = 0.0) -> GeometryFrame:
    """Frame built directly from an orthonormal set of normals (for tests
    and frame-only computations that need no level functions)."""
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    m, n = normals.shape
    if not 1 <= m < n:
        raise GeometryError(f"need 1 <= m < n, got m={m}, n={n}")
    if np.max(np.abs(normals @ normals.T - np.eye(m))) > 1e-10:
        raise GeometryError("normals are not orthonormal")
    if x is None:
        x = np.zeros(n)
    return GeometryFrame(x, t, normals)


class FrameDerivative:
    """Spatial derivatives of the frame fields at a point.

    ``normals_d[i][a, k]`` is d(n_i)_a / dx_k; ``N_d`` and ``P_d`` hold the
    projector derivatives indexed [a, b, k].
    """

    __slots__ = ("normals_d", "N_d", "P_d")

    def __init__(self, normals: np.ndarray, normals_d: np.ndarray) -> None:
        self.normals_d = normals_d
        m, n = normals.shape
        N_d = np.zeros((n, n, n))
        for i in range(m):
            N_d += np.einsum("ak,b->abk", normals_d[i], normals[i])
            N_d += np.einsum("a,bk->abk", normals[i], normals_d[i])
        self.N_d = N_d
        self.P_d = -N_d


def _gram_schmidt(grads: Sequence[np.ndarray], floor: float) -> np.ndarray:
    out = []
    for g in grads:
        v = g.astype(float, copy=True)
        for _ in range(2):  # second pass for orthogonality to ~1e-15
            for nh in out:
                v = v - (nh @ v) * nh
        r = float(np.linalg.norm(v))
        if r < floor:
            raise GeometryError(
                "level-set gradients are linearly dependent "
                f"(Gram-Schmidt residual {r:.3e} below floor {floor:.1e})"
            )
        out.append(v / r)
    return np.array(out)


def _gram_schmidt_with_derivative(grads, hessians, floor: float):
    """Forward-propagate x-derivatives through modified Gram-Schmidt."""
    ns, dns = [], []
    for g, G in zip(grads, hessians):
        v = g.astype(float, copy=True)
        Dv = G.astype(float, copy=True)  # Dv[a, k] = d v_a / d x_k
        for _ in range(2):
            for nh, Dnh in zip(ns, dns):
                c = float(nh @ v)
                Dc = v @ Dnh + nh @ Dv
                Dv = Dv - np.outer(nh, Dc) - c * Dnh
                v = v - c * nh
        r = float(np.linalg.norm(v))
        if r < floor:
            raise GeometryError(
                f"level-set gradients are linearly dependent (residual {r:.3e})"
            )
        Dr = (v / r) @ Dv
        ns.append(v / r)
        dns.append(Dv / r - np.outer(v, Dr) / r**2)
    return np.array(ns), np.array(dns)


class LevelSetGeometry:
    """Submanifold of R^n cut out by m level functions.

    Frames exist inside the tube sum_i |d_i(x, t)| < tube_halfwidth; outside
    it frame_at raises.  grad_floor guards against vanishing or linearly
    dependent gradients.
    """

    def __init__(
        self,
        n: int,
        levels: Sequence[LevelSet],
        tube_halfwidth: float = 0.1,
        grad_floor: float = 1e-8,
        time_dependent: bool = False,
        name: str = "",
    ) -> None:
        if not 2 <= n <= MAX_AMBIENT_DIM:
            raise ShapeError(f"ambient dimension must be in [2, {MAX_AMBIENT_DIM}], got {n}")
        if not 1 <= len(levels) < n:
            raise ShapeError(f"need 1 <= m < n level functions, got {len(levels)}")
        self.n = n
        self.levels = list(levels)
        self.tube_halfwidth = float(tube_halfwidth)
        self.grad_floor = float(grad_floor)
        self.time_dependent = bool(time_dependent)
        self.name = name

    @property
    def m(self) -> int:
        return len(self.levels)

    @property
    def has_analytic_gradients(self) -> bool:
        return all(l.has_analytic_gradient for l in self.levels)

    @property
    def has_analytic_hessians(self) -> bool:
        return self.has_analytic_gradients and all(l.has_analytic_hessian for l in self.levels)

    def level_values(self, x, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.array([l.value(x, t) for l in self.levels])

    def _check_point(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ShapeError(f"point of shape {x.shape} does not live in R^{self.n}")
        residual = float(np.sum(np.abs(self.level_values(x, t))))
        if residual >= self.tube_halfwidth:
            raise GeometryError(
                f"point {x} is outside the tube (sum |d_i| = {residual:.3e} "
                f">= {self.tube_halfwidth:.3e})"
            )
        return x

    def _gradients(self, x: np.ndarray, t: float):
        grads = []
        for i, lvl in enumerate(self.levels):
            g = lvl.gradient(x, t)
            if float(np.linalg.norm(g)) < self.grad_floor:
                raise GeometryError(f"gradient of level function {i} vanishes at {x}")
            grads.append(g)
        return grads

    def frame_at(self, x, t: float = 0.0) -> GeometryFrame:
        x = self._check_point(x, t)
        normals = _gram_schmidt(self._gradients(x, t), self.grad_floor)
        return GeometryFrame(x, t, normals)

    def frame_derivative_at(self, x, t: float = 0.0):
        """Frame plus its spatial derivative, propagated through Gram-Schmidt."""
        x = self._check_point(x, t)
        grads = self._gradients(x, t)
        hessians = [lvl.hessian(x, t) for lvl in self.levels]
        normals, normals_d = _gram_schmidt_with_derivative(grads, hessians, self.grad_floor)
        return GeometryFrame(x, t, normals), FrameDerivative(normals, normals_d)

    def perp_pack(self, x, t: float = 0.0):
        """Quarter-turn matrix and its spatial derivative (codimension n-2 only)."""
        frame, fd = self.frame_derivative_at(x, t)
        Q = perp_matrix(frame)
        DQ = _perp_matrix_derivative(frame.normals, fd.normals_d)
        return Q, DQ


# -- tangential projection ---------------------------------------------------


def _project_array(data: np.ndarray, normals: np.ndarray) -> np.ndarray:
    # Two steps: project every component of the tree, then remove the part
    # of the first slot that the normals still see.
    if data.ndim == 0:
        return data
    tilde = np.stack([_project_array(data[k], normals) for k in range(data.shape[0])])
    for nu in normals:
        tilde = tilde - np.multiply.outer(nu, np.tensordot(nu, tilde, axes=([0], [0])))
    return tilde


def project(frame: GeometryFrame, t: Tensor) -> Tensor:
    """Tangential projection: feed P into every argument slot of t."""
    if t.n != frame.n:
        raise ShapeError(f"tensor lives in R^{t.n}, frame in R^{frame.n}")
    return Tensor._wrap(t.n, _project_array(t.array, frame.normals))


def is_tangent(frame: GeometryFrame, t: Tensor, tol: float = 1e-10) -> bool:
    residual = (project(frame, t) - t).norm()
    return residual <= tol * max(1.0, t.norm())


# -- oriented tangent plane (codimension n-2) --------------------------------


def tangent_basis(frame: GeometryFrame):
    """Deterministic positively oriented orthonormal basis (t1, t2) of the
    tangent plane.  Requires n - m == 2.

    Seeds with the two ambient axes carrying the largest tangential part,
    orthonormalizes, then flips t2 if det[t1, t2, n_1, ..., n_m] < 0.
    """
    n, m = frame.n, frame.m
    if n - m != 2:
        raise GeometryError(f"tangent plane needs n - m == 2, got n={n}, m={m}")
    scores = np.linalg.norm(frame.P, axis=0)  # |P e_j| column norms
    order = sorted(range(n), key=lambda j: (-scores[j], j))
    a, b = order[0], order[1]
    if scores[b] < 1e-8:
        raise GeometryError("tangent plane is numerically degenerate")
    t1 = frame.P[:, a] / scores[a]
    t2 = frame.P[:, b] - (t1 @ frame.P[:, b]) * t1
    t2 = t2 / np.linalg.norm(t2)
    if np.linalg.det(np.column_stack([t1, t2, *frame.normals])) < 0:
        t2 = -t2
    return t1, t2


def perp(frame: GeometryFrame, u) -> np.ndarray:
    """Quarter turn of the tangential part of u, in the oriented tangent plane."""
    t1, t2 = tangent_basis(frame)
    u = np.asarray(u, dtype=float)
    return -(u @ t2) * t1 + (u @ t1) * t2


def perp_matrix(frame: GeometryFrame) -> np.ndarray:
    """Matrix Q with Q u = perp(u); Q = t2 t1^T - t1 t2^T."""
    t1, t2 = tangent_basis(frame)
    return np.outer(t2, t1) - np.outer(t1, t2)


def _perm_sign(p) -> int:
    sign = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _perp_matrix_derivative(normals: np.ndarray, normals_d: np.ndarray) -> np.ndarray:
    """d Q_{ab} / d x_k via the Levi-Civita contraction
    Q_{ab} = eps_{b a k1..km} (n_1)_{k1} ... (n_m)_{km}."""
    m, n = normals.shape
    if n > 6:
        raise GeometryError("analytic quarter-turn derivative supports n <= 6")
    DQ = np.zeros((n, n, n))
    for p in permutations(range(n)):
        s = _perm_sign(p)
        b, a, ks = p[0], p[1], p[2:]
        vals = [normals[i][ks[i]] for i in range(m)]
        for i in range(m):
            coeff = s
            for j in range(m):
                if j != i:
                    coeff *= vals[j]
            DQ[a, b, :] += coeff * normals_d[i][ks[i], :]
    return DQ
