"""Chart-based Gauss-Legendre quadrature over submanifolds and boundaries.

Charts are rectangles in parameter space mapped into the ambient space;
the induced measure is sqrt(det(J^T J)) from the chart Jacobian.  Each
axis is split into equal panels carrying a tensor-product Gauss-Legendre
rule, so nodes never touch the rectangle edges (poles and seams are safe).
Boundary components are declared sides of the rectangle; co-normals are
computed from the outward parameter direction pushed through the Jacobian
and projected tangentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import GeometryError, LevelSetGeometry
from .operators import DiffConfig, divergence, mean_curvature, submanifold_gradient, surface_curl
from .fields import TensorField
from .tensor import ShapeError

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
    differences otherwise).  Both are pointwise; those of a chart built with
    ``Chart._batched`` take parameter points of shape (..., p) and return
    (..., n) and (..., n, p).  ``boundary_sides`` lists
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
        self.mapping = mapping
        self._jacobian = jacobian
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
        self._batch = False

    @classmethod
    def _batched(cls, *args, **kwargs) -> "Chart":
        """A chart whose mapping and Jacobian take parameter points of shape
        (..., p)."""
        chart = cls(*args, **kwargs)
        chart._batch = True
        return chart

    def _map(self, U: np.ndarray, t: float) -> np.ndarray:
        """Ambient points (..., n) at parameter points U of shape (..., p)."""
        U = np.asarray(U, dtype=float)
        if self._batch:
            return np.asarray(self.mapping(U, t), dtype=float)
        flat = U.reshape(-1, self.p)
        X = np.array([self.mapping(u, t) for u in flat], dtype=float)
        return X.reshape(U.shape[:-1] + X.shape[1:])

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
            if self._batch:
                return np.asarray(self._jacobian(U, t), dtype=float)
            return np.array([self._jacobian(u, t) for u in U], dtype=float)
        cols = []
        for a in range(self.p):
            h = 1e-6 * (self.hi[a] - self.lo[a])
            e = np.zeros(self.p)
            e[a] = h
            cols.append((self._map(U + e, t) - self._map(U - e, t)) / (2 * h))
        return np.stack(cols, axis=-1)

    def jacobian_at(self, u: np.ndarray, t: float) -> np.ndarray:
        return self._jacobians(np.asarray(u, dtype=float)[None], t)[0]

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
    """One boundary quadrature node with its outward co-normal.

    For surface boundaries ``tangent`` is the positively oriented unit
    boundary tangent and ``weight`` includes the 1-d measure.  For path
    endpoints the measure is counting measure (weight 1) and ``end_sign``
    is +1 at the upper end, -1 at the lower.
    """

    x: np.ndarray
    conormal: np.ndarray
    weight: float
    tangent: Optional[np.ndarray] = None
    end_sign: Optional[int] = None


def _co_normal(frame, outward: np.ndarray, btangent: Optional[np.ndarray]) -> np.ndarray:
    v = frame.P @ outward
    if btangent is not None:
        v = v - (v @ btangent) * btangent
    nv = float(np.linalg.norm(v))
    if nv < 1e-10:
        raise GeometryError("outward direction degenerates under projection")
    v = v / nv
    if v @ (frame.P @ outward) < 0:
        v = -v
    return v


def boundary_points(atlas: Atlas, t: float = 0.0) -> List[BoundaryPoint]:
    geom = atlas.geometry
    out: List[BoundaryPoint] = []
    for chart in atlas.charts:
        for axis, end in chart.boundary_sides:
            if chart.p == 1:
                u = np.array([chart.hi[0] if end == 1 else chart.lo[0]])
                x = np.asarray(chart.mapping(u, t), dtype=float)
                J = chart.jacobian_at(u, t)
                sign = 1 if end == 1 else -1
                frame = geom.frame_at(x, t)
                co = _co_normal(frame, sign * J[:, 0], None)
                out.append(BoundaryPoint(x=x, conormal=co, weight=1.0, end_sign=sign))
                continue
            other = 1 - axis
            nodes, weights = chart._axis_rule(other)
            fixed = chart.hi[axis] if end == 1 else chart.lo[axis]
            osign = 1.0 if end == 1 else -1.0
            U = np.empty((len(nodes), 2))
            U[:, axis] = fixed
            U[:, other] = nodes
            for x, J, w in zip(chart._map(U, t), chart._jacobians(U, t), weights):
                tan_raw = J[:, other]
                arc = float(np.linalg.norm(tan_raw))
                frame = geom.frame_at(x, t)
                that = tan_raw / arc
                co = _co_normal(frame, osign * J[:, axis], that)
                tau = None
                if geom.n - geom.m == 2:
                    tau = that
                    if np.linalg.det(np.column_stack([co, tau, *frame.normals])) < 0:
                        tau = -tau
                out.append(BoundaryPoint(x=x, conormal=co, weight=arc * w, tangent=tau))
    return out


# -- integration ----------------------------------------------------------------


def integrate(atlas: Atlas, integrand, t: float = 0.0):
    """Integrate a field over the atlas, leafwise for tensors.

    Each chart's quadrature nodes X, of shape (N, n), are evaluated in one
    call.  The integrand is a TensorField or a callable ``(X, t)`` that
    returns values of shape (N, ...) or a constant (a number).  A value
    that is not finite, or a callable's value of any other shape, raises
    an error that names the chart.
    """
    total = None
    for chart in atlas.charts:
        X, meas = chart.points(t)
        if isinstance(integrand, TensorField):
            vals = integrand.values(X, t)
        else:
            vals = np.asarray(integrand(X, t), dtype=float)
            if vals.ndim == 0:
                vals = np.broadcast_to(vals, meas.shape)
            elif vals.shape[0] != len(X):
                raise ShapeError(
                    f"integrand returned shape {vals.shape} on chart '{chart.name}', "
                    f"expected ({len(X)}, ...) or a constant"
                )
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"integrand is not finite on chart '{chart.name}'")
        part = np.tensordot(meas, vals, axes=([0], [0]))
        total = part if total is None else total + part
    return total


# Per-node contractions for integrands: every array has the node axis first.


def _dot_last(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Contract the last slot of a (N, ..., n) with v (N, n)."""
    return np.einsum("i...a,ia->i...", a, v)


def _contract_leading(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract every slot of a with the leading slots of b."""
    size = a[0].size
    out = a.reshape(len(a), 1, size) @ b.reshape(len(b), size, -1)
    return out.reshape(b.shape[:1] + b.shape[a.ndim:])


def _contract_trailing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Contract the trailing slots of a with every slot of b."""
    size = b[0].size
    out = a.reshape(len(a), -1, size) @ b.reshape(len(b), size, 1)
    return out.reshape(a.shape[: a.ndim - b.ndim + 1])


def _frobenius(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full contraction of a and b at each node."""
    return (a * b).reshape(len(a), -1).sum(axis=1)


def integrate_boundary(atlas: Atlas, integrand, t: float = 0.0):
    """Integrate over the boundary; the integrand sees each BoundaryPoint."""
    pts = boundary_points(atlas, t)
    total = None
    for bp in pts:
        val = np.asarray(integrand(bp, t), dtype=float) * bp.weight
        total = val if total is None else total + val
    return total


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
    curv = integrate(atlas, lambda X, t: _dot_last(f.values(X, t), kap.values(X, t)))
    bnd = integrate_boundary(atlas, lambda bp, t: f.values(bp.x, t) @ bp.conormal)
    if bnd is None:
        bnd = np.zeros_like(curv)
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
    bnd = integrate_boundary(atlas, lambda bp, t: f.values(bp.x, t) @ bp.tangent)
    if bnd is None:
        bnd = np.zeros_like(np.asarray(lhs))
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
    bnd = integrate_boundary(atlas, lambda bp, t: float(f.values(bp.x, t)) * bp.conormal)
    if bnd is None:
        bnd = np.zeros_like(curv)
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
    sq = s.q

    def contract(a, b, k):  # leading k axes of b against all of a
        return np.tensordot(a, b, axes=(list(range(k)), list(range(k))))

    term1 = integrate(atlas, lambda X, t: _contract_leading(s.values(X, t), div.values(X, t)))
    term2 = integrate(atlas, lambda X, t: _contract_trailing(f.values(X, t), gs.values(X, t)))
    curv = integrate(
        atlas,
        lambda X, t: _dot_last(_contract_leading(s.values(X, t), f.values(X, t)),
                               kap.values(X, t)),
    )
    bnd = integrate_boundary(
        atlas,
        lambda bp, t: contract(s.values(bp.x, t), f.values(bp.x, t), sq) @ bp.conormal,
    )
    if bnd is None:
        bnd = np.zeros_like(curv)
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
    lhs = integrate(atlas, lambda X, t: _dot_last(sg.values(X, t), w.values(X, t)))
    ends = boundary_points(atlas)
    rhs = None
    for bp in ends:
        val = bp.end_sign * f.values(bp.x, 0.0)
        rhs = val if rhs is None else rhs + val
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
    ``flux`` is a callable (bp, t) -> array or None.
    """
    from .operators import covariant_gradient

    geom = atlas.geometry
    gt = covariant_gradient(trial, geom, cfg)
    gs = covariant_gradient(test, geom, cfg)
    a = float(integrate(atlas, lambda X, t: _frobenius(gt.values(X, t), gs.values(X, t))))
    ell = 0.0
    if forcing is not None:
        ell += float(
            integrate(atlas, lambda X, t: _frobenius(test.values(X, t), forcing.values(X, t)))
        )
    if flux is not None and not atlas.closed:
        b = integrate_boundary(
            atlas, lambda bp, t: np.sum(test.values(bp.x, t) * np.asarray(flux(bp, t)))
        )
        if b is not None:
            ell += float(b)
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
