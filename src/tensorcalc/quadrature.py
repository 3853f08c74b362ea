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
    differences otherwise).  ``boundary_sides`` lists (axis, end) pairs that
    are genuine boundary pieces of the manifold; periodic axes and
    coordinate degeneracies (poles, seams) are simply not listed.
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

    def jacobian_at(self, u: np.ndarray, t: float) -> np.ndarray:
        if self._jacobian is not None:
            return np.asarray(self._jacobian(u, t), dtype=float)
        cols = []
        for a in range(self.p):
            h = 1e-6 * (self.hi[a] - self.lo[a])
            e = np.zeros(self.p)
            e[a] = h
            cols.append(
                (np.asarray(self.mapping(u + e, t)) - np.asarray(self.mapping(u - e, t)))
                / (2 * h)
            )
        return np.column_stack(cols)

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
        X = np.array([self.mapping(u, t) for u in U], dtype=float)
        meas = np.empty(len(U))
        for i, u in enumerate(U):
            J = self.jacobian_at(u, t)
            if self.p == 1:
                g = float(J[:, 0] @ J[:, 0])
            else:
                G = J.T @ J
                g = float(G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0])
            if g < _MIN_GRAM_DET:
                raise GeometryError(f"degenerate chart metric at u={u} (det={g:.3e})")
            meas[i] = np.sqrt(g) * W[i]
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
            for s, w in zip(nodes, weights):
                u = np.empty(2)
                u[axis] = fixed
                u[other] = s
                x = np.asarray(chart.mapping(u, t), dtype=float)
                J = chart.jacobian_at(u, t)
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


def _as_integrand(f):
    if isinstance(f, TensorField):
        return f.values
    return f


def integrate(atlas: Atlas, integrand, t: float = 0.0):
    """Integrate a pointwise quantity over the atlas; leafwise for tensors."""
    fn = _as_integrand(integrand)
    total = None
    for chart in atlas.charts:
        X, meas = chart.points(t)
        vals = np.array([np.asarray(fn(x, t), dtype=float) for x in X])
        part = np.tensordot(meas, vals, axes=([0], [0]))
        total = part if total is None else total + part
    return total


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
    curv = integrate(atlas, lambda x, t: f.values(x, t) @ kap.values(x, t))
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
    curv = integrate(atlas, lambda x, t: float(f.values(x, t)) * kap.values(x, t))
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

    term1 = integrate(atlas, lambda x, t: contract(s.values(x, t), div.values(x, t), sq))
    term2 = integrate(
        atlas,
        lambda x, t: np.tensordot(
            f.values(x, t), gs.values(x, t),
            axes=(list(range(f.q - sq - 1, f.q)), list(range(sq + 1))),
        ),
    )
    curv = integrate(
        atlas,
        lambda x, t: contract(s.values(x, t), f.values(x, t), sq) @ kap.values(x, t),
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
    lhs = integrate(atlas, lambda x, t: sg.values(x, t) @ w.values(x, t))
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
    a = float(integrate(atlas, lambda x, t: np.sum(gt.values(x, t) * gs.values(x, t))))
    ell = 0.0
    if forcing is not None:
        ell += float(
            integrate(atlas, lambda x, t: np.sum(test.values(x, t) * forcing.values(x, t)))
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
    integrals there with t = t0 + dt.
    """
    moved = []
    for chart in atlas.charts:
        def make_mapping(c):
            return lambda u, t: rk4_step(np.asarray(c.mapping(u, t0), dtype=float), t0, dt, w)

        moved.append(
            Chart(
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
