"""Level-set geometry: frames, projectors, tangential projection, quarter turns.

A submanifold of codimension m is the joint zero set of m scalar level
functions.  All frame data at a point comes from the level function
gradients: normals are their modified Gram-Schmidt orthonormalization in
the listed order, N is the normal projector, P = I - N the tangential one.
Nothing is parametrized; charts live in the quadrature layer only.

Frames are built for batches of points: ``frame_at(X)`` with X of shape
(..., n) checks every point against the tube and the gradient floor and
returns normals of shape (..., m, n) and projectors of shape (..., n, n);
a single point is a batch of shape ().  The callables of a public
``LevelSet`` are pointwise and run behind a looping adapter; the built-in
geometries use batch-native level functions (``LevelSet._batched``).

Tangential projection feeds P into one tensor slot per pass with the
batched primitive ``tensor._apply_to_slot``, over any leading batch axes:
q matrix products and O(q n^(q+1)) work for a rank-q tensor.  The paper
writes the same map as a recursion over the complete n-ary component tree,
which takes n^(q-1) calls; the tests keep that construction as an oracle.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import (
    MAX_AMBIENT_DIM, ShapeError, Tensor, _apply_to_slot, _dot, _identity, _looped, _outer, _partials,
)

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
# step for differentiating a value that already carries difference noise: the
# operators' nested layers, and a Hessian taken from a differenced gradient
_NESTED_HX = 3e-4


class GeometryError(ValueError):
    """Degenerate frame data or a point outside the geometry's tube."""


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise inner product of vectors, kept as a length-1 axis."""
    return (a * b).sum(axis=-1, keepdims=True)


def _norm(a: np.ndarray) -> np.ndarray:
    """Pointwise Euclidean norm over the last axis."""
    return np.sqrt((a * a).sum(axis=-1))


class LevelSet:
    """One scalar constraint d(x, t) with optional analytic derivatives.

    ``value`` is required.  ``gradient`` and ``hessian`` are used when given;
    otherwise the gradient is a fourth-order central difference of the value
    and the Hessian a second-order one of the gradient, at the nested step
    when that gradient is itself a difference.  All callables are
    pointwise, take (x, t) even when the constraint is static, and return a
    number, an (n,) array and an (n, n) array.  The methods ``value``,
    ``gradient`` and ``hessian`` take batches of points (..., n).
    """

    def __init__(
        self,
        value: Callable[[np.ndarray, float], float],
        gradient: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        hessian: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
    ) -> None:
        self._value = _looped(value, lambda n: (), "level-set value")
        self._gradient = (
            None if gradient is None else _looped(gradient, lambda n: (n,), "level-set gradient")
        )
        self._hessian = (
            None if hessian is None else _looped(hessian, lambda n: (n, n), "level-set hessian")
        )

    @classmethod
    def _batched(cls, value, gradient=None, hessian=None) -> "LevelSet":
        """A level set whose callables take points (..., n) and return
        (...), (..., n) and (..., n, n)."""
        level = cls.__new__(cls)
        level._value, level._gradient, level._hessian = value, gradient, hessian
        return level

    @property
    def has_analytic_gradient(self) -> bool:
        return self._gradient is not None

    @property
    def has_analytic_hessian(self) -> bool:
        return self._hessian is not None

    def value(self, x, t: float = 0.0) -> np.ndarray:
        return np.asarray(self._value(np.asarray(x, dtype=float), t), dtype=float)

    def gradient(self, x, t: float = 0.0) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(X, t), dtype=float)
        h = _LEVEL_FD_STEP * np.maximum(1.0, _norm(X))
        return _partials(lambda Y: self.value(Y, t), X, h[..., None], order=4)

    def hessian(self, x, t: float = 0.0) -> np.ndarray:
        X = np.asarray(x, dtype=float)
        if self._hessian is not None:
            return np.asarray(self._hessian(X, t), dtype=float)
        step = _LEVEL_FD_STEP if self.has_analytic_gradient else _NESTED_HX
        h = step * np.maximum(1.0, _norm(X))
        H = _partials(lambda Y: self.gradient(Y, t), X, h[..., None])
        return 0.5 * (H + np.swapaxes(H, -1, -2))


class GeometryFrame:
    """Frame at a batch of points: orthonormal normals and the two projectors.

    ``x`` has shape (..., n) and ``normals`` (..., m, n); ``N`` and ``P``
    are (..., n, n) arrays with N = sum_i n_i n_i^T and P = I - N.
    """

    __slots__ = ("x", "t", "normals", "N", "P")

    def __init__(self, x: np.ndarray, t: float, normals: np.ndarray) -> None:
        self.x = np.asarray(x, dtype=float)
        self.t = float(t)
        self.normals = np.asarray(normals, dtype=float)
        self.N = self.normals.swapaxes(-1, -2) @ self.normals
        self.P = _identity(self.n) - self.N

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def m(self) -> int:
        return self.normals.shape[-2]


def frame_from_normals(normals, x=None, t: float = 0.0) -> GeometryFrame:
    """Frame built directly from orthonormal normals (for tests and
    frame-only computations that need no level functions).

    ``normals`` has shape (m, n) at one point, or (..., m, n) at a batch of
    points, and must be orthonormal at every point; a single normal may be
    given as an (n,) vector.  ``x`` defaults to the origin at every point.
    The frame's ``N`` and ``P`` then have shape (..., n, n).
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    m, n = normals.shape[-2:]
    if not 1 <= m < n:
        raise GeometryError(f"need 1 <= m < n, got m={m}, n={n}")
    skew = ~(np.abs(normals @ np.swapaxes(normals, -1, -2) - _identity(m)) <= 1e-10)  # NaN fails
    if skew.any():
        at = ""
        if normals.ndim > 2:
            at = f" at batch index {tuple(map(int, np.argwhere(skew)[0][:-2]))}"
        raise GeometryError(f"normals are not orthonormal{at}")
    if x is None:
        x = np.zeros(normals.shape[:-2] + (n,))
    return GeometryFrame(x, t, normals)


class FrameDerivative:
    """Spatial derivatives of the frame fields at a batch of points.

    ``normals_d[..., i, a, k]`` is d(n_i)_a / dx_k; ``N_d`` and ``P_d``
    hold the projector derivatives indexed [..., a, b, k].
    """

    __slots__ = ("normals_d", "N_d", "P_d")

    def __init__(self, normals: np.ndarray, normals_d: np.ndarray) -> None:
        self.normals_d = normals_d
        # sum_i d(n_i)_a/dx_k (n_i)_b, then the same with a and b swapped
        half = np.einsum("...iak,...ib->...abk", normals_d, normals)
        self.N_d = half + np.swapaxes(half, -3, -2)
        self.P_d = -self.N_d


def _residual_floor(i: int, r: np.ndarray, floor: float) -> None:
    # a NaN residual fails both tests; an empty batch passes
    if r.size and not (r.min() >= floor and r.max() < np.inf):
        bad = ~((r >= floor) & (r < np.inf))
        raise GeometryError(
            f"gradient of level function {i} is not finite, vanishes or depends on the "
            f"earlier ones (Gram-Schmidt residual {float(r[bad][0]):.3e}, floor {floor:.1e})"
        )


def _gram_schmidt(grads: Sequence[np.ndarray], floor: float) -> np.ndarray:
    """Orthonormal normals (..., m, n) from m gradients of shape (..., n)."""
    first = np.asarray(grads[0], dtype=float)
    out = np.empty(first.shape[:-1] + (len(grads),) + first.shape[-1:])
    for i, g in enumerate(grads):
        v = np.asarray(g, dtype=float)
        for _ in range(2):  # second pass for orthogonality to ~1e-15
            for j in range(i):
                nh = out[..., j, :]
                v = v - _inner(nh, v) * nh
        r = np.sqrt(_inner(v, v))
        _residual_floor(i, r, floor)
        out[..., i, :] = v / r
    return out


def _gram_schmidt_with_derivative(grads, hessians, floor: float):
    """Forward-propagate x-derivatives through modified Gram-Schmidt (in
    elementwise products: the tensor primitives' per-call cost would
    dominate this hot path at a single point)."""
    ns, dns = [], []
    for i, (g, G) in enumerate(zip(grads, hessians)):
        v = np.asarray(g, dtype=float)
        Dv = np.asarray(G, dtype=float)  # Dv[..., a, k] = d v_a / d x_k
        for _ in range(2):
            for nh, Dnh in zip(ns, dns):
                c = _inner(nh, v)
                Dc = (v[..., None, :] @ Dnh + nh[..., None, :] @ Dv)[..., 0, :]
                Dv = Dv - nh[..., :, None] * Dc[..., None, :] - c[..., None] * Dnh
                v = v - c * nh
        r = np.sqrt(_inner(v, v))
        _residual_floor(i, r, floor)
        Dr = ((v / r)[..., None, :] @ Dv)[..., 0, :]
        ns.append(v / r)
        dns.append(Dv / r[..., None] - v[..., :, None] * Dr[..., None, :] / (r**2)[..., None])
    normals_d = np.stack(dns, axis=-3)
    if not np.isfinite(normals_d).all():
        i = next(i for i, dn in enumerate(dns) if not np.isfinite(dn).all())
        raise GeometryError(
            f"derivative of the normal of level function {i} is not finite "
            "(check the Hessians of the level functions)"
        )
    return np.stack(ns, axis=-2), normals_d


class LevelSetGeometry:
    """Submanifold of R^n cut out by m level functions.

    Frames exist inside the tube sum_i |d_i(x, t)| < tube_halfwidth; outside
    it, or at a point where that sum is not a number, frame_at raises.
    grad_floor bounds the Gram-Schmidt residual of each gradient, which
    guards against vanishing or linearly dependent gradients.
    Every check applies to each point of a batch.
    """

    def __init__(
        self,
        n: int,
        levels: Sequence[LevelSet],
        tube_halfwidth: float = 0.1,
        grad_floor: float = 1e-8,
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
        """Level function values (..., m) at points (..., n)."""
        x = np.asarray(x, dtype=float)
        return np.stack([l.value(x, t) for l in self.levels], axis=-1)

    def _check_point(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ShapeError(f"point of shape {x.shape} does not live in R^{self.n}")
        residual = 0.0
        for lvl in self.levels:
            residual = residual + np.abs(lvl.value(x, t))
        outside = ~(residual < self.tube_halfwidth)  # a NaN residual is outside too
        if outside.any():
            bad = np.argwhere(outside)[0] if x.ndim > 1 else ()
            raise GeometryError(
                f"point {x[tuple(bad)]} is outside the tube (sum |d_i| = "
                f"{float(residual[tuple(bad)]):.3e}, not < {self.tube_halfwidth:.3e})"
            )
        return x

    def _gradients(self, x: np.ndarray, t: float):
        return [lvl.gradient(x, t) for lvl in self.levels]

    def frame_at(self, x, t: float = 0.0) -> GeometryFrame:
        """Frame at points x of shape (..., n)."""
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


# -- tangential projection ---------------------------------------------------


def _project_array(data: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Tangential projection of ``data`` of shape (...) + (n,)*q, with
    projectors P of shape (..., n, n)."""
    # P fed into one slot per pass: q matrix products of n^(q+1) work each
    nl = P.ndim - 2
    for slot in range(data.ndim - nl):
        data = _apply_to_slot(P, data, slot, nl)
    return data


def project(frame: GeometryFrame, t: Tensor) -> Tensor:
    """Tangential projection: feed P into every argument slot of t."""
    if t.n != frame.n:
        raise ShapeError(f"tensor lives in R^{t.n}, frame in R^{frame.n}")
    if frame.normals.ndim != 2:
        raise ShapeError("project takes the frame at a single point")
    return Tensor._wrap(t.n, _project_array(t.array, frame.P))


def is_tangent(frame: GeometryFrame, t: Tensor, tol: float = 1e-10) -> bool:
    residual = (project(frame, t) - t).norm()
    return residual <= tol * max(1.0, t.norm())


# -- oriented tangent plane (codimension n-2) --------------------------------


def tangent_basis(frame: GeometryFrame):
    """Deterministic positively oriented orthonormal basis (t1, t2) of the
    tangent plane at each point of the frame.  Requires n - m == 2.

    t1 is the longest projector column P e_j, normalized.  t2 comes from
    the column with the largest part orthogonal to t1 (two columns can be
    parallel), and flips if det[t1, t2, n_1, ..., n_m] < 0.  Ties keep the
    lower axis.
    """
    n, m = frame.n, frame.m
    if n - m != 2:
        raise GeometryError(f"tangent plane needs n - m == 2, got n={n}, m={m}")
    columns = frame.P.swapaxes(-1, -2)  # columns[..., j, :] = P e_j

    def longest(vectors):  # exact: a one-hot row picks the longest vector
        pick = np.argmax(_norm(vectors), axis=-1)[..., None, None] == np.arange(n)
        return (pick @ vectors)[..., 0, :]

    t1 = longest(columns)
    t1 = t1 / _norm(t1)[..., None]
    t2 = longest(frame.P - _outer(t1, t1, t1.ndim - 1))  # the columns' parts orthogonal to t1
    size = _norm(t2)[..., None]
    if not (size >= 1e-8).all():  # a NaN frame fails here too
        raise GeometryError("tangent plane is numerically degenerate")
    t2 = t2 / size
    rows = np.concatenate([t1[..., None, :], t2[..., None, :], frame.normals], axis=-2)
    t2 = np.where((np.linalg.det(rows) < 0)[..., None], -t2, t2)
    return t1, t2


def perp(frame: GeometryFrame, u) -> np.ndarray:
    """Quarter turn of the tangential part of u, in the oriented tangent plane."""
    t1, t2 = tangent_basis(frame)
    u = np.asarray(u, dtype=float)
    return -_inner(u, t2) * t1 + _inner(u, t1) * t2


def perp_matrix(frame: GeometryFrame) -> np.ndarray:
    """Matrix Q with Q u = perp(u); Q = t2 t1^T - t1 t2^T."""
    t1, t2 = tangent_basis(frame)
    nl = t1.ndim - 1
    return _outer(t2, t1, nl) - _outer(t1, t2, nl)


def _perp_matrix_derivative(Q: np.ndarray, P_d: np.ndarray) -> np.ndarray:
    """d Q_ab / d x_k from the quarter turn Q (..., n, n) and the projector
    derivative P_d (..., n, n, n).

    Differentiating Q = P Q P gives dQ = dP Q + P dQ P + Q dP, and the
    middle term vanishes: the in-plane part of d(t2 t1^T - t1 t2^T) cancels
    because t1 . dt2 = -t2 . dt1.
    """
    nl = Q.ndim - 2
    return _apply_to_slot(np.swapaxes(Q, -1, -2), P_d, 1, nl) + _dot(Q, P_d, nl)
