"""Chart-based Gauss-Legendre quadrature over submanifolds and boundaries.

Charts are rectangles in parameter space mapped into the ambient space;
the induced measure is sqrt(det(J^T J)) from the chart Jacobian.  Each
axis is split into equal panels carrying a tensor-product Gauss-Legendre
rule, so nodes never touch the rectangle edges (poles and seams are safe).
Boundary components are declared sides of the rectangle; co-normals are
computed from the outward parameter direction pushed through the Jacobian
and projected tangentially.

Integrands see batches: ``integrate`` calls its integrand once per chart
on that chart's nodes, and ``integrate_boundary`` once per atlas on one
``BoundaryPoint`` batch holding every boundary node, framed with one
``frame_at`` call.  Both share one weighted sum, which checks the node axis
and finiteness of the values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import geometry as geo
from .geometry import GeometryError, LevelSetGeometry
from .operators import DiffConfig, divergence, mean_curvature, submanifold_gradient, surface_curl
from .fields import TensorField
from .tensor import ShapeError, _contract_left, _contract_right, _dot, _frobenius, _looped, _outer

__all__ = [
    "Chart",
    "Atlas",
    "BoundaryPoint",
    "integrate",
    "integrate_boundary",
    "boundary_points",
    "stokes_residual",
    "circulation_residual",
    "gradient_residual",
    "integration_by_parts",
    "path_ftc_residual",
    "weak_form",
    "advected_atlas",
    "rk4_step",
]

_MIN_GRAM_DET = 1e-14


class Chart:
    """Rectangle [lo, hi] in 1 or 2 parameters mapped into R^n.

    ``mapping(u, t) -> x``; ``jacobian(u, t) -> (n, p)`` optional (finite
    differences otherwise).  Both are pointwise, and a looping adapter runs
    them over batches of parameter points (..., p); those of a chart built
    with ``Chart._batched`` take the batches themselves and return (..., n)
    and (..., n, p).  ``boundary_sides`` lists
    (axis, end) pairs that are genuine boundary pieces of the manifold;
    periodic axes and coordinate degeneracies (poles, seams) are simply not
    listed.
    """

    def __init__(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        mapping: Callable[[np.ndarray, float], np.ndarray],
        jacobian: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        periodic: Optional[Sequence[bool]] = None,
        order: int = 16,
        panels: int = 2,
        boundary_sides: Sequence[Tuple[int, int]] = (),
        name: str = "chart",
    ) -> None:
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ShapeError("lo and hi must be 1-d arrays of equal length")
        self.p = self.lo.shape[0]
        if self.p not in (1, 2):
            raise ShapeError(f"charts support 1 or 2 parameters, got {self.p}")
        if np.any(self.hi <= self.lo):
            raise ShapeError("chart domain is empty")
        self.mapping = _looped(mapping, None, f"mapping of chart '{name}'")
        self._jacobian = None if jacobian is None else _looped(
            jacobian, None, f"jacobian of chart '{name}'")
        self.periodic = tuple(periodic) if periodic is not None else (False,) * self.p
        if order < 1 or panels < 1:
            raise ShapeError("order and panels must be positive")
        self.order = int(order)
        self.panels = int(panels)
        self.boundary_sides = tuple((int(a), int(e)) for a, e in boundary_sides)
        for a, e in self.boundary_sides:
            if not (0 <= a < self.p and e in (0, 1)):
                raise ShapeError(f"invalid boundary side ({a}, {e})")
            if self.periodic[a]:
                raise ShapeError("a periodic axis cannot carry a boundary")
        self.name = name
        self._rule: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._points: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def _batched(cls, lo, hi, mapping, jacobian=None, **kwargs) -> "Chart":
        """A chart whose mapping and Jacobian take parameter points of shape
        (..., p)."""
        chart = cls(lo, hi, mapping, **kwargs)
        chart.mapping, chart._jacobian = mapping, jacobian
        return chart

    def _map(self, U: np.ndarray, t: float) -> np.ndarray:
        """Ambient points (..., n) at parameter points U of shape (..., p)."""
        return np.asarray(self.mapping(np.asarray(U, dtype=float), t), dtype=float)

    def _axis_rule(self, axis: int) -> Tuple[np.ndarray, np.ndarray]:
        x, w = np.polynomial.legendre.leggauss(self.order)
        edges = np.linspace(self.lo[axis], self.hi[axis], self.panels + 1)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * w)
        return np.concatenate(nodes), np.concatenate(weights)

    def param_rule(self) -> Tuple[np.ndarray, np.ndarray]:
        """All parameter nodes (N, p) and bare weights (N,)."""
        if self._rule is None:
            per_axis = [self._axis_rule(a) for a in range(self.p)]
            if self.p == 1:
                U = per_axis[0][0][:, None]
                W = per_axis[0][1]
            else:
                (u0, w0), (u1, w1) = per_axis
                A, B = np.meshgrid(u0, u1, indexing="ij")
                U = np.column_stack([A.ravel(), B.ravel()])
                W = np.outer(w0, w1).ravel()
            self._rule = (U, W)
        return self._rule

    def _jacobians(self, U: np.ndarray, t: float) -> np.ndarray:
        """Jacobians (N, n, p) at parameter points U of shape (N, p)."""
        if self._jacobian is not None:
            return np.asarray(self._jacobian(U, t), dtype=float)
        cols = []
        for a in range(self.p):
            h = 1e-6 * (self.hi[a] - self.lo[a])
            e = np.zeros(self.p)
            e[a] = h
            cols.append((self._map(U + e, t) - self._map(U - e, t)) / (2 * h))
        return np.stack(cols, axis=-1)

    def points(self, t: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Quadrature points in ambient space and their measure weights.

        Computed once per time t and returned as read-only arrays.
        """
        key = float(t)
        if key not in self._points:
            self._points[key] = self._compute_points(key)
        return self._points[key]

    def _compute_points(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        U, W = self.param_rule()
        X = self._map(U, t)
        J = self._jacobians(U, t)
        G = np.swapaxes(J, 1, 2) @ J
        if self.p == 1:
            g = G[:, 0, 0]
        else:
            g = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        bad = np.flatnonzero(~(g >= _MIN_GRAM_DET))
        if bad.size:
            i = bad[0]
            raise GeometryError(f"degenerate chart metric at u={U[i]} (det={g[i]:.3e})")
        meas = np.sqrt(g) * W
        X.flags.writeable = False
        meas.flags.writeable = False
        return X, meas


@dataclass
class Atlas:
    """Charts covering a submanifold, together with its geometry."""

    geometry: LevelSetGeometry
    charts: List[Chart]
    name: str = "atlas"

    @property
    def closed(self) -> bool:
        return all(not c.boundary_sides for c in self.charts)


@dataclass
class BoundaryPoint:
    """The boundary quadrature nodes of an atlas, as one batch of N nodes.

    ``x`` and ``conormal`` are (N, n): node positions and outward unit
    co-normals.  ``weight`` (N,) holds the 1-d measure on surface boundaries
    and counting measure (1) at path endpoints.  ``tangent`` (N, n) is the
    positively oriented unit boundary tangent on 2-d manifolds, None
    otherwise; ``end_sign`` (N,) is +1 at the upper end of a path and -1 at
    the lower, on 1-d manifolds, None otherwise.  A closed atlas gives N = 0.
    """

    x: np.ndarray
    conormal: np.ndarray
    weight: np.ndarray
    tangent: Optional[np.ndarray] = None
    end_sign: Optional[np.ndarray] = None


def boundary_points(atlas: Atlas, t: float = 0.0) -> BoundaryPoint:
    """Every boundary node of the atlas, with one frame evaluation."""
    geom = atlas.geometry
    n, dim = geom.n, geom.n - geom.m
    # empty first parts keep every concatenation defined on a closed atlas
    xs, outward, along = [np.empty((0, n))], [np.empty((0, n))], [np.empty((0, n))]
    weights, signs = [np.empty(0)], [np.empty(0)]
    for chart in atlas.charts:
        for axis, end in chart.boundary_sides:
            sign = 1.0 if end == 1 else -1.0
            fixed = chart.hi[axis] if end == 1 else chart.lo[axis]
            if chart.p == 1:  # a path endpoint: counting measure, no boundary tangent
                U = np.array([[fixed]])
                J = chart._jacobians(U, t)
                tangent, weight = np.zeros((1, n)), np.ones(1)
            else:
                other = 1 - axis
                nodes, w = chart._axis_rule(other)
                U = np.empty((len(nodes), 2))
                U[:, axis] = fixed
                U[:, other] = nodes
                J = chart._jacobians(U, t)
                arc = geo._norm(J[:, :, other])
                tangent, weight = J[:, :, other] / arc[:, None], arc * w
            xs.append(chart._map(U, t))
            outward.append(sign * J[:, :, axis])
            along.append(tangent)
            weights.append(weight)
            signs.append(np.full(len(U), sign))
    X, along = np.concatenate(xs), np.concatenate(along)
    frame = geom.frame_at(X, t)
    # outward parameter direction, projected tangentially and off the boundary tangent
    v = _dot(frame.P, np.concatenate(outward), 1)
    v = v - _frobenius(v, along, 1)[:, None] * along
    size = geo._norm(v)
    if (size < 1e-10).any():
        raise GeometryError(
            f"outward direction degenerates under projection on atlas '{atlas.name}'"
        )
    conormal = v / size[:, None]
    tangent = end_sign = None
    if dim == 2:  # orient the tangent so that det[conormal, tangent, normals] > 0
        rows = np.concatenate([conormal[:, None], along[:, None], frame.normals], axis=1)
        tangent = np.where((np.linalg.det(rows) < 0)[:, None], -along, along)
    if dim == 1:
        end_sign = np.concatenate(signs)
    return BoundaryPoint(X, conormal, np.concatenate(weights), tangent, end_sign)


# -- integration ----------------------------------------------------------------


def _weighted_sum(vals, weights: np.ndarray, where: str):
    """sum_i weights[i] vals[i] for values of shape (N, ...) or a constant.

    A value of any other shape, or one that is not finite, raises an error
    that names ``where``.
    """
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 0:
        vals = np.broadcast_to(vals, weights.shape)
    elif vals.shape[0] != len(weights):
        raise ShapeError(
            f"integrand returned shape {vals.shape} on {where}, "
            f"expected ({len(weights)}, ...) or a constant"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"integrand is not finite on {where}")
    return np.tensordot(weights, vals, axes=([0], [0]))


def integrate(atlas: Atlas, integrand, t: float = 0.0):
    """Integrate a field over the atlas, leafwise for tensors.

    Each chart's quadrature nodes X, of shape (N, n), are evaluated in one
    call.  The integrand is a TensorField or a callable ``(X, t)`` that
    returns values of shape (N, ...) or a constant (a number).  A value
    that is not finite, or of any other shape, raises an error that names
    the chart.
    """
    total = None
    for chart in atlas.charts:
        X, meas = chart.points(t)
        vals = integrand.values(X, t) if isinstance(integrand, TensorField) else integrand(X, t)
        part = _weighted_sum(vals, meas, f"chart '{chart.name}'")
        total = part if total is None else total + part
    return total


def integrate_boundary(atlas: Atlas, integrand, t: float = 0.0):
    """Integrate over the boundary of the atlas.

    The integrand is a callable ``(B, t)`` on the BoundaryPoint batch B of
    every boundary node, called once; it returns values of shape (N, ...)
    or a constant, under the checks of ``integrate``.  A closed atlas has
    N = 0 and gives a zero of the value shape.
    """
    B = boundary_points(atlas, t)
    return _weighted_sum(integrand(B, t), B.weight, f"the boundary of atlas '{atlas.name}'")


# -- identity residuals -----------------------------------------------------------


@dataclass
class IdentityResult:
    lhs: np.ndarray
    rhs: np.ndarray
    pieces: dict = field(default_factory=dict)

    @property
    def abs_residual(self) -> float:
        return float(np.linalg.norm(np.ravel(self.lhs - self.rhs)))

    @property
    def rel_residual(self) -> float:
        scale = max(
            float(np.linalg.norm(np.ravel(self.lhs))),
            float(np.linalg.norm(np.ravel(self.rhs))),
            1.0,
        )
        return self.abs_residual / scale


def stokes_residual(atlas: Atlas, f: TensorField, cfg: DiffConfig) -> IdentityResult:
    """int div_M T  vs  int_boundary T.t + int T.kappa."""
    if f.q < 1:
        raise ShapeError("the divergence identity needs rank >= 1")
    geom = atlas.geometry
    div = divergence(f, geom, cfg)
    kap = mean_curvature(geom, cfg)
    lhs = integrate(atlas, div)
    curv = integrate(atlas, lambda X, t: _dot(f.values(X, t), kap.values(X, t), 1))
    bnd = integrate_boundary(atlas, lambda B, t: _dot(f.values(B.x, t), B.conormal, 1))
    return IdentityResult(
        lhs=np.asarray(lhs),
        rhs=bnd + curv,
        pieces={"boundary": bnd, "curvature": curv},
    )


def circulation_residual(atlas: Atlas, f: TensorField, cfg: DiffConfig) -> IdentityResult:
    """int curl T  vs  the boundary circulation of T."""
    geom = atlas.geometry
    curl = surface_curl(f, geom, cfg)
    lhs = integrate(atlas, curl)
    bnd = integrate_boundary(atlas, lambda B, t: _dot(f.values(B.x, t), B.tangent, 1))
    return IdentityResult(lhs=np.asarray(lhs), rhs=np.asarray(bnd))


def gradient_residual(atlas: Atlas, f: TensorField, cfg: DiffConfig) -> IdentityResult:
    """int grad_M f  vs  int_boundary f t + int f kappa, for scalar f."""
    if f.q != 0:
        raise ShapeError("the gradient identity is for scalar fields")
    geom = atlas.geometry
    g = submanifold_gradient(f, geom, cfg)
    kap = mean_curvature(geom, cfg)
    lhs = integrate(atlas, g)
    curv = integrate(atlas, lambda X, t: f.values(X, t)[:, None] * kap.values(X, t))
    bnd = integrate_boundary(atlas, lambda B, t: f.values(B.x, t)[:, None] * B.conormal)
    return IdentityResult(
        lhs=np.asarray(lhs), rhs=bnd + curv, pieces={"boundary": bnd, "curvature": curv}
    )


def integration_by_parts(
    atlas: Atlas, s: TensorField, f: TensorField, cfg: DiffConfig
) -> IdentityResult:
    """int S : div_M T + int T : grad_M S  vs  boundary + curvature terms of S:T."""
    if not s.q < f.q:
        raise ShapeError("need rank(S) < rank(T)")
    geom = atlas.geometry
    div = divergence(f, geom, cfg)
    gs = submanifold_gradient(s, geom, cfg)
    kap = mean_curvature(geom, cfg)
    term1 = integrate(atlas, lambda X, t: _contract_left(s.values(X, t), div.values(X, t), 1))
    term2 = integrate(atlas, lambda X, t: _contract_right(f.values(X, t), gs.values(X, t), 1))
    curv = integrate(
        atlas,
        lambda X, t: _dot(_contract_left(s.values(X, t), f.values(X, t), 1), kap.values(X, t), 1),
    )
    bnd = integrate_boundary(
        atlas,
        lambda B, t: _dot(_contract_left(s.values(B.x, t), f.values(B.x, t), 1), B.conormal, 1),
    )
    return IdentityResult(
        lhs=np.asarray(term1) + np.asarray(term2),
        rhs=np.asarray(bnd) + np.asarray(curv),
        pieces={"boundary": bnd, "curvature": curv},
    )


def path_ftc_residual(
    atlas: Atlas, f: TensorField, w: TensorField, cfg: DiffConfig
) -> IdentityResult:
    """int_path (grad_M T).w  vs  endpoint difference of T along the path."""
    geom = atlas.geometry
    if geom.n - geom.m != 1:
        raise GeometryError("the path rule needs a 1-d manifold")
    sg = submanifold_gradient(f, geom, cfg)
    lhs = integrate(atlas, lambda X, t: _dot(sg.values(X, t), w.values(X, t), 1))
    rhs = integrate_boundary(atlas, lambda B, t: _outer(B.end_sign, f.values(B.x, t), 1))
    return IdentityResult(lhs=np.asarray(lhs), rhs=np.asarray(rhs))


def weak_form(
    atlas: Atlas,
    trial: TensorField,
    test: TensorField,
    forcing: Optional[TensorField],
    flux,
    cfg: DiffConfig,
) -> Tuple[float, float]:
    """Covariant Dirichlet pairing a(T, S) and load ell(S).

    a = int gradcov T . gradcov S;  ell = int_boundary S.flux + int S.forcing.
    ``flux`` is None or a callable ``(B, t)`` on the boundary batch B that
    returns values of the test field's shape, (N,) + (n,)*q.
    """
    from .operators import covariant_gradient

    geom = atlas.geometry
    gt = covariant_gradient(trial, geom, cfg)
    gs = covariant_gradient(test, geom, cfg)
    a = float(integrate(atlas, lambda X, t: _frobenius(gt.values(X, t), gs.values(X, t), 1)))
    ell = 0.0
    if forcing is not None:
        ell += float(
            integrate(atlas, lambda X, t: _frobenius(test.values(X, t), forcing.values(X, t), 1))
        )
    if flux is not None:
        ell += float(
            integrate_boundary(atlas, lambda B, t: _frobenius(test.values(B.x, t), flux(B, t), 1))
        )
    return a, ell


# -- moving domains ---------------------------------------------------------------


def rk4_step(x: np.ndarray, t0: float, dt: float, w: TensorField) -> np.ndarray:
    k1 = w.values(x, t0)
    k2 = w.values(x + 0.5 * dt * k1, t0 + 0.5 * dt)
    k3 = w.values(x + 0.5 * dt * k2, t0 + 0.5 * dt)
    k4 = w.values(x + dt * k3, t0 + dt)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def advected_atlas(atlas: Atlas, w: TensorField, t0: float, dt: float) -> Atlas:
    """Push every chart point one RK4 step along the velocity field.

    The moved charts parametrize the manifold at time t0 + dt; evaluate
    integrals there with t = t0 + dt.  A moved chart maps a batch of
    parameter points with one RK4 step, so its quadrature nodes move
    together.
    """
    moved = []
    for chart in atlas.charts:
        def make_mapping(c):
            return lambda U, t: rk4_step(c._map(U, t0), t0, dt, w)

        moved.append(
            Chart._batched(
                chart.lo,
                chart.hi,
                make_mapping(chart),
                jacobian=None,
                periodic=chart.periodic,
                order=chart.order,
                panels=chart.panels,
                boundary_sides=chart.boundary_sides,
                name=f"{chart.name}@+{dt}",
            )
        )
    return Atlas(atlas.geometry, moved, name=f"{atlas.name}@+{dt}")
