"""Level-set geometry: frames, projectors, tangential projection, quarter turns.

A submanifold of codimension m is the joint zero set of m scalar level
functions.  Every piece of a frame is a function of its normals, which come
from the level function gradients: the normals are their modified
Gram-Schmidt orthonormalization in the listed order, N is the normal
projector, P = I - N the tangential one, and in codimension n - 2 the
quarter turn Q (``perp_matrix``) is the cofactor matrix of the normals.
Nothing is parametrized; charts live in the quadrature layer only.

Frames are built for batches of points: ``frame_at(X)`` with X of shape
(..., n) checks every point against the tube and the gradient floor and
returns normals of shape (..., m, n) and projectors of shape (..., n, n);
a single point is a batch of shape ().  The callables of a public
``LevelSet`` are pointwise and run behind a looping adapter; the built-in
geometries use batch-native level functions (``LevelSet._batched``).

``frame_derivative_at`` builds a frame of order 1 or 2, which also holds
the exact derivatives of its normals and projectors (``P_d``, ``P_dd``),
differentiated from the normals in one pass, given the level functions'
derivatives.  The first order needs their Hessians, the second their
third derivatives (``third``).  A geometry whose level functions all
state ``static_gradient`` has frames that do not depend on t
(``has_static_frames``): the time partials of its frame fields are zero.

Inside one evaluation scope (``_frame_scope``, opened by the outermost
evaluation of a field and by a suite run) a frame is built once per
(geometry, point array, t): ``LevelSetGeometry._frame`` looks it up before
building, and a held frame asked for at a higher order gains its
derivatives instead of being rebuilt.  The library's evaluators go through
it; the public ``frame_at`` and ``frame_derivative_at`` always build.

Tangential projection feeds P into one tensor slot per pass with the
batched primitive ``tensor._apply_to_slot``, over any leading batch axes:
q matrix products and O(q n^(q+1)) work for a rank-q tensor, in
``_feed``, which also feeds the operators' matrices and their derivatives.
The paper writes the same map as a recursion over the complete n-ary
component tree, which takes n^(q-1) calls; the tests keep that
construction as an oracle.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import cache
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import (
    MAX_AMBIENT_DIM, ShapeError, Tensor, _apply_to_slot, _dot, _identity, _looped, _partials,
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
# least Gram-Schmidt residual of a level-set gradient, below which the
# gradients vanish or are linearly dependent and a frame is refused
_GRAD_FLOOR = 1e-8
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
    when that gradient is itself a difference.  ``third[a, b, k]``, the
    derivative of the Hessian entry (a, b) along x_k, is the optional
    provider of the second order of frame derivatives, which has no
    difference fallback.  ``static_gradient`` states that the gradient
    does not depend on t (a geometry that moves along its normals, such as
    a sphere whose radius changes), so neither do the normals: their time
    partials are exactly zero.  All callables are pointwise, take (x, t)
    even when the constraint is static, and return a number, an (n,) array,
    an (n, n) array and an (n, n, n) array.  The methods ``value``,
    ``gradient`` and ``hessian`` take batches of points (..., n).
    """

    def __init__(
        self,
        value: Callable[[np.ndarray, float], float],
        gradient: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        hessian: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        third: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        static_gradient: bool = False,
    ) -> None:
        def looped(func, shape, what):
            return None if func is None else _looped(func, shape, f"level-set {what}")

        self._value = _looped(value, lambda n: (), "level-set value")
        self._gradient = looped(gradient, lambda n: (n,), "gradient")
        self._hessian = looped(hessian, lambda n: (n, n), "hessian")
        self._third = looped(third, lambda n: (n, n, n), "third")
        self.static_gradient = static_gradient

    @classmethod
    def _batched(cls, value, gradient=None, hessian=None, third=None,
                 static_gradient: bool = False) -> "LevelSet":
        """A level set whose callables take points (..., n) and return
        (...), (..., n), (..., n, n) and (..., n, n, n)."""
        level = cls.__new__(cls)
        level._value, level._gradient, level._hessian = value, gradient, hessian
        level._third, level.static_gradient = third, static_gradient
        return level

    @property
    def has_analytic_gradient(self) -> bool:
        return self._gradient is not None

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
    """Frame at a batch of points: orthonormal normals, the two projectors
    and, up to the frame's ``order``, their exact spatial derivatives.

    ``x`` has shape (..., n) and ``normals`` (..., m, n); ``N`` and ``P``
    are (..., n, n) arrays with N = sum_i n_i n_i^T and P = I - N.  A frame
    of order 1 also holds ``normals_d[..., i, a, k]``, d(n_i)_a / dx_k, and
    the projector derivative ``P_d`` indexed [..., a, b, k]; one of order 2
    adds ``normals_dd`` and ``P_dd``, indexed [..., a, b, k, l] for the
    projector.  The derivatives above the order are None.
    """

    __slots__ = ("x", "t", "normals", "N", "P", "order", "normals_d", "P_d", "normals_dd",
                 "P_dd")

    def __init__(self, x: np.ndarray, t: float, normals: np.ndarray, normals_d=None,
                 normals_dd=None) -> None:
        self.x = np.asarray(x, dtype=float)
        self.t = float(t)
        n = self.normals = np.asarray(normals, dtype=float)
        self.N = n.swapaxes(-1, -2) @ n
        self.P = _identity(self.x.shape[-1]) - self.N
        self.order = 0 if normals_d is None else 1 if normals_dd is None else 2
        self.normals_d, self.normals_dd = normals_d, normals_dd
        self.P_d = self.P_dd = None
        if normals_d is not None:
            # each part of N is sum_i of products of n_i and its derivatives, plus
            # the same with a and b swapped; the part of P = I - N is its negative
            half = np.einsum("...iak,...ib->...abk", normals_d, n)
            self.P_d = -(half + np.swapaxes(half, -3, -2))
        if normals_dd is not None:
            half = np.einsum("...iakl,...ib->...abkl", normals_dd, n) + np.einsum(
                "...iak,...ibl->...abkl", normals_d, normals_d)
            self.P_dd = -(half + np.swapaxes(half, -4, -3))

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


def _residual_floor(i: int, r: np.ndarray, floor: float) -> None:
    # a NaN residual fails both tests; an empty batch passes
    if r.size and not (r.min() >= floor and r.max() < np.inf):
        bad = ~((r >= floor) & (r < np.inf))
        raise GeometryError(
            f"gradient of level function {i} is not finite, vanishes or depends on the "
            f"earlier ones (Gram-Schmidt residual {float(r[bad][0]):.3e}, floor {floor:.1e})"
        )


def _sym(a: np.ndarray) -> np.ndarray:
    """a plus a with its last two axes swapped."""
    return a + np.swapaxes(a, -1, -2)


def _gram_schmidt(grads: Sequence[np.ndarray], floor: float) -> np.ndarray:
    """Orthonormal normals (..., m, n) from m gradients (..., n), by modified
    Gram-Schmidt with a second pass for orthogonality to about 1e-15."""
    v = np.asarray(grads[0], dtype=float)
    normals = np.empty(v.shape[:-1] + (len(grads),) + v.shape[-1:])
    for i in range(len(grads)):
        v = np.asarray(grads[i], dtype=float)
        for _ in range(2):
            for j in range(i):
                nh = normals[..., j, :]
                v = v - _inner(nh, v) * nh
        r = np.sqrt(_inner(v, v))
        _residual_floor(i, r, floor)
        normals[..., i, :] = v / r
    return normals


def _normal_derivatives(normals: np.ndarray, grads, hessians, thirds=None):
    """The derivatives of the normals (..., m, n) that Gram-Schmidt made
    from the gradients g_i (..., n), from their Hessians [..., a, k] and,
    for the second order, their third derivatives [..., a, k, l].

    The normals are orthonormal, so n_i r_i = g_i - sum_{j<i} c_ij n_j
    holds exactly with c_ij = n_j . g_i and r_i = n_i . g_i; it is
    differentiated once along x_k, and along x_l for the second order, one
    normal at a time.  Returns d/dx (..., m, n, n) and d2/dx2
    (..., m, n, n, n), the last None without ``thirds``.  The products are
    elementwise: the tensor primitives' per-call cost would dominate this
    hot path at a single point.
    """
    second = thirds is not None
    dns, ddns = [], []
    for i, g in enumerate(grads):
        n, Dg = normals[..., i, :], hessians[i]
        Dv, DDv = Dg, thirds[i] if second else None  # of v = n_i r_i
        for j in range(i):
            nj, Dnj = normals[..., j, :], dns[j]
            c = _inner(nj, g)
            Dc = (g[..., None, :] @ Dnj + nj[..., None, :] @ Dg)[..., 0, :]
            if second:
                DDnj = ddns[j]
                DDc = (np.einsum("...akl,...a->...kl", DDnj, g)
                       + _sym(np.einsum("...ak,...al->...kl", Dnj, Dg))
                       + np.einsum("...a,...akl->...kl", nj, thirds[i]))
                DDv = (DDv - nj[..., :, None, None] * DDc[..., None, :, :]
                       - Dnj[..., :, :, None] * Dc[..., None, None, :]
                       - Dnj[..., :, None, :] * Dc[..., None, :, None]
                       - c[..., None, None] * DDnj)
            Dv = Dv - nj[..., :, None] * Dc[..., None, :] - c[..., None] * Dnj
        r = _inner(n, g)
        Dr = (n[..., None, :] @ Dv)[..., 0, :]
        Dn = (Dv - n[..., :, None] * Dr[..., None, :]) / r[..., None]
        dns.append(Dn)
        if second:  # n r = v, differentiated along x_k and x_l
            DDr = ((np.einsum("...ak,...al->...kl", Dv, Dv) - Dr[..., :, None] * Dr[..., None, :])
                   / r[..., None] + np.einsum("...a,...akl->...kl", n, DDv))
            ddns.append((DDv - Dn[..., :, :, None] * Dr[..., None, None, :]
                         - Dn[..., :, None, :] * Dr[..., None, :, None]
                         - n[..., :, None, None] * DDr[..., None, :, :]) / r[..., None, None])
    out = []
    for what, parts, axis in (("derivative", dns, -3), ("second derivative", ddns, -4)):
        for i, part in enumerate(parts):
            if not np.isfinite(part).all():
                raise GeometryError(
                    f"{what} of the normal of level function {i} is not finite "
                    "(check the derivatives of the level functions)"
                )
        out.append(np.stack(parts, axis=axis) if parts else None)
    return out


# -- the evaluation scope --------------------------------------------------------


class _frame_scope:
    """An evaluation scope, in which each frame is built once per
    (geometry, point array, t), at the highest order asked for.

    ``TensorField`` evaluation opens one around each outermost evaluation,
    which does not write its point arrays.  Its ``recent`` store keeps the
    frames of the point array asked about last: the nested layers of an
    operator ask at the same array, or at the array of the stencil axis
    they are part of (all of that axis's offsets), so an older array (an
    axis done with) is not asked about again.
    A run opens a scope with ``keep=True``, whose ``kept`` store keeps, for
    every evaluation inside it, the frames of the point arrays that are
    read-only and own their data (chart nodes, boundary batches): nothing
    can write them.  A read-only view goes to ``recent``, as its base may
    be written.  Each entry maps (geometry, t) to a frame and holds its
    point array, so no entry outlives its array, and the stores empty when
    their scope closes.
    """

    __slots__ = ("keep", "kept", "recent", "_token")

    def __init__(self, keep: bool = False) -> None:
        self.keep = keep

    def __enter__(self) -> "_frame_scope":
        outer = _SCOPE.get()
        self.kept = {} if self.keep else (None if outer is None else outer.kept)
        self.recent = None if self.keep else []
        self._token = _SCOPE.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _SCOPE.reset(self._token)
        if self.keep:
            self.kept.clear()
        else:
            self.recent.clear()

    def entry(self, x: np.ndarray) -> Optional[dict]:
        """The frames at the point array x by (geometry, t), or None where no
        store of this scope takes x."""
        if self.kept is None or x.flags.writeable or x.base is not None:
            recent = self.recent
            if recent is None:
                return None
            if not recent or recent[0] is not x:
                recent[:] = (x, {})
            return recent[1]
        held = self.kept.get(id(x))
        if held is None:
            held = self.kept[id(x)] = (x, {})
        return held[1]


_SCOPE: ContextVar[Optional[_frame_scope]] = ContextVar("tensorcalc frame scope", default=None)


class LevelSetGeometry:
    """Submanifold of R^n cut out by m level functions.

    Frames exist inside the tube sum_i |d_i(x, t)| < tube_halfwidth; outside
    it, or at a point where that sum is not a number, frame_at raises.
    ``_GRAD_FLOOR`` bounds the Gram-Schmidt residual of each gradient, which
    guards against vanishing or linearly dependent gradients.
    Every check applies to each point of a batch.
    """

    def __init__(
        self,
        n: int,
        levels: Sequence[LevelSet],
        tube_halfwidth: float = 0.1,
        name: str = "",
    ) -> None:
        if not 2 <= n <= MAX_AMBIENT_DIM:
            raise ShapeError(f"ambient dimension must be in [2, {MAX_AMBIENT_DIM}], got {n}")
        if not 1 <= len(levels) < n:
            raise ShapeError(f"need 1 <= m < n level functions, got {len(levels)}")
        self.n = n
        self.levels = list(levels)
        self.tube_halfwidth = float(tube_halfwidth)
        self.name = name

    @property
    def m(self) -> int:
        return len(self.levels)

    @property
    def has_analytic_gradients(self) -> bool:
        return all(l.has_analytic_gradient for l in self.levels)

    def has_jet(self, order: int = 1) -> bool:
        """Whether the level functions supply every derivative that a frame
        of this order (1 or 2) needs, so that its derivatives are exact."""
        return self.has_analytic_gradients and all(
            l._hessian is not None and (order < 2 or l._third is not None) for l in self.levels)

    @property
    def has_static_frames(self) -> bool:
        """Whether the frames do not depend on t: every level function has
        an analytic gradient that does not."""
        return self.has_analytic_gradients and all(l.static_gradient for l in self.levels)

    def level_values(self, x, t: float = 0.0) -> np.ndarray:
        """Level function values (..., m) at points (..., n)."""
        x = np.asarray(x, dtype=float)
        return np.stack([l.value(x, t) for l in self.levels], axis=-1)

    def _check_point(self, x, t: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            raise ShapeError(f"point of shape {x.shape} does not live in R^{self.n}")
        residual = None
        for lvl in self.levels:
            d = np.abs(lvl.value(x, t))
            residual = d if residual is None else residual + d
        inside = residual < self.tube_halfwidth  # a NaN residual is outside
        if not inside.all():
            bad = np.argwhere(~inside)[0] if x.ndim > 1 else ()
            raise GeometryError(
                f"point {x[tuple(bad)]} is outside the tube (sum |d_i| = "
                f"{float(residual[tuple(bad)]):.3e}, not < {self.tube_halfwidth:.3e})"
            )
        return x

    def _gradients(self, x: np.ndarray, t: float):
        return [lvl.gradient(x, t) for lvl in self.levels]

    def frame_at(self, x, t: float = 0.0) -> GeometryFrame:
        """Frame at points x of shape (..., n)."""
        return self._built(x, t)

    def frame_derivative_at(self, x, t: float = 0.0, order: int = 1) -> GeometryFrame:
        """Frame at points x with the derivatives of its normals up to the
        given order (1 or 2).  The level functions' Hessians are differenced
        where they are not given; the second order needs their third
        derivatives (``third``)."""
        return self._built(x, t, order)

    def _built(self, x, t: float, order: int = 0) -> GeometryFrame:
        """A fresh frame at points x of the given order: the level
        functions' gradients, evaluated once, feed Gram-Schmidt and the
        derivative pass."""
        x = self._check_point(x, t)
        grads = self._gradients(x, t)
        frame = GeometryFrame(x, t, _gram_schmidt(grads, _GRAD_FLOOR))
        return self._differentiated(frame, order, grads) if order else frame

    def _differentiated(self, frame: GeometryFrame, order: int, grads) -> GeometryFrame:
        """``frame`` with the derivatives of its normals up to the given
        order, from the level functions' gradients ``grads`` and further
        derivatives at its points: one pass over its normals, with no
        second Gram-Schmidt."""
        if order > 1 and any(lvl._third is None for lvl in self.levels):
            raise GeometryError("a frame of order 2 needs the level-set provider third")
        x, t = frame.x, frame.t
        parts = _normal_derivatives(
            frame.normals, grads, [lvl.hessian(x, t) for lvl in self.levels],
            [np.asarray(lvl._third(x, t), dtype=float) for lvl in self.levels] if order > 1
            else None)
        return GeometryFrame(x, t, frame.normals, *parts)

    # -- the evaluation scope's frames ------------------------------------------

    def _frame(self, x, t: float = 0.0, order: int = 0) -> GeometryFrame:
        """The frame at points x of at least the given order, built once per
        point array in the evaluation scope.  A frame held there of a lower
        order gains its derivatives (``_differentiated``) instead of being
        rebuilt."""
        scope = _SCOPE.get()
        entry = None if scope is None or type(x) is not np.ndarray else scope.entry(x)
        frame = None if entry is None else entry.get((self, t))
        if frame is None:  # through the public builders, which profilers wrap by name
            frame = self.frame_derivative_at(x, t, order) if order else self.frame_at(x, t)
        elif frame.order < order:
            frame = self._differentiated(frame, order, self._gradients(frame.x, t))
        if entry is not None:
            entry[(self, t)] = frame
        return frame


# -- tangential projection ---------------------------------------------------


def _feed(M, parts, slots, nl: int) -> np.ndarray:
    """The k-th derivative of a field with a matrix field fed into each of
    its ``slots``, by the product rule one slot at a time: ``parts`` are the
    field's values (...) + (n,)*q and its first k <= 2 gradients, over nl
    leading axes, and ``M`` the matrix (..., n, n) and its derivatives
    [..., a, b, k] and [..., a, b, k, l].  Each slot takes 1, 3 or 6 matrix
    products at k = 0, 1 or 2."""
    V, A, order = parts, _apply_to_slot, len(parts) - 1
    for s in slots:
        new = [A(M[0], V[0], s, nl)]
        if order > 0:
            new.append(A(M[0], V[1], s, nl) + A(M[1], V[0], s, nl))
        if order > 1:  # dM_l in slot s of grad_k gives [..., k, l]; _sym adds k <-> l
            new.append(A(M[0], V[2], s, nl) + _sym(A(M[1], V[1], s, nl)) + A(M[2], V[0], s, nl))
        V = new
    return V[-1]


def _project_array(data: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Tangential projection of ``data`` of shape (...) + (n,)*q, with
    projectors P of shape (..., n, n): P fed into every slot, q matrix
    products of n^(q+1) work each."""
    nl = P.ndim - 2
    return _feed((P,), (data,), range(data.ndim - nl), nl)


def project(frame: GeometryFrame, t: Tensor) -> Tensor:
    """Tangential projection: feed P into every argument slot of t, for a
    single tensor with a frame at one point, or a batch with a frame over
    its leading shape."""
    if t.n != frame.n:
        raise ShapeError(f"tensor lives in R^{t.n}, frame in R^{frame.n}")
    if frame.normals.shape[:-2] != t.batch:
        raise ShapeError(f"frame over the batch {frame.normals.shape[:-2]}, tensor over {t.batch}")
    return Tensor._wrap(t.n, _project_array(t.array, frame.P), t.lead)


def is_tangent(frame: GeometryFrame, t: Tensor, tol: float = 1e-10) -> bool:
    residual = (project(frame, t) - t).norm()
    return residual <= tol * max(1.0, t.norm())


# -- oriented tangent plane (codimension n-2) --------------------------------


def tangent_basis(frame: GeometryFrame):
    """Deterministic positively oriented orthonormal basis (t1, t2) of the
    tangent plane at each point of the frame.  Requires n - m == 2.

    t1 is the longest projector column P e_j, normalized (ties keep the
    lower axis), and t2 = Q t1 with Q the quarter turn (``perp_matrix``),
    so det[t1, t2, n_1, ..., n_m] > 0.
    """
    Q = perp_matrix(frame)
    columns = frame.P.swapaxes(-1, -2)  # columns[..., j, :] = P e_j
    # exact: a one-hot row picks the longest column
    pick = np.argmax(_norm(columns), axis=-1)[..., None, None] == np.arange(frame.n)
    t1 = (pick @ columns)[..., 0, :]
    t1 = t1 / _norm(t1)[..., None]
    return t1, (Q @ t1[..., None])[..., 0]


def perp(frame: GeometryFrame, u) -> np.ndarray:
    """Quarter turn Q u of the tangential part of u, in the oriented tangent plane."""
    return np.einsum("...ab,...b->...a", perp_matrix(frame), np.asarray(u, dtype=float))


def perp_matrix(frame: GeometryFrame) -> np.ndarray:
    """The quarter turn Q (..., n, n) of a frame of codimension n - 2: the
    cofactor matrix of its normals, Q_ab = det[e_b, e_a, n_1, ..., n_m].

    Q u is the generalized cross product of u with the normals, the quarter
    turn of the tangential part of u, and det[u, Q u, n_1, ..., n_m] > 0.
    For a < b, Q_ab is (-1)^(a+b) times the minor of the normals on the
    columns other than a and b, and Q_ba = -Q_ab: one batched determinant
    over the n(n-1)/2 pairs.
    """
    n, m = frame.n, frame.m
    if n - m != 2:
        raise GeometryError(f"tangent plane needs n - m == 2, got n={n}, m={m}")
    if not np.isfinite(frame.normals).all():  # the determinant would only warn
        raise GeometryError("tangent plane is numerically degenerate")
    a, b, rest, sign = _cofactor_axes(n)
    minors = np.linalg.det(np.moveaxis(frame.normals[..., rest], -3, -2))
    Q = np.zeros(frame.normals.shape[:-2] + (n, n))
    Q[..., a, b] = sign * minors
    Q[..., b, a] = -Q[..., a, b]
    return Q


@cache
def _cofactor_axes(n: int):
    """Pairs of axes a < b, the other axes of each in order, and (-1)^(a+b)."""
    a, b = np.triu_indices(n, 1)
    rest = np.array([[c for c in range(n) if c != i and c != j] for i, j in zip(a, b)])
    return a, b, rest, (-1.0) ** (a + b)


def _perp_matrix_derivative(Q: np.ndarray, P_d: np.ndarray) -> np.ndarray:
    """d Q_ab / d x_k from the quarter turn Q (..., n, n) and the projector
    derivative P_d (..., n, n, n).

    Differentiating Q = P Q P gives dQ = dP Q + P dQ P + Q dP, and the
    middle term vanishes: the in-plane part of d(t2 t1^T - t1 t2^T) cancels
    because t1 . dt2 = -t2 . dt1.
    """
    nl = Q.ndim - 2
    return _apply_to_slot(np.swapaxes(Q, -1, -2), P_d, 1, nl) + _dot(Q, P_d, nl)
