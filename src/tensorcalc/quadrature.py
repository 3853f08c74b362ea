"""Chart-based Gauss-Legendre quadrature over submanifolds and boundaries.

Charts are boxes in p >= 1 parameters mapped into the ambient space; the
induced measure is sqrt(det(J^T J)) from the chart Jacobian.  A chart is
only a map: the quadrature rule, ``order`` and ``panels``, is the atlas's,
one rule for all of its charts.  Each chart axis is split into ``panels``
equal panels carrying an ``order``-point Gauss-Legendre rule, and the
nodes are their tensor product, so they never touch the box faces (poles
and seams are safe).  Boundary components are declared sides of the box:
each is a face of dimension p - 1, the side's axis pinned to its end,
with measure sqrt(det(F^T F)) from the face Jacobian F, J without the
side's column.  Its co-normal is the outward column of J, projected
tangentially and off the span of F.

Integrands see batches: ``integrate`` calls its integrand once per chart
on that chart's nodes, and ``integrate_boundary`` once per atlas on one
``BoundaryPoint`` batch holding every boundary node, framed with one
``frame_at`` call.  Both share one weighted sum, which checks the node axis
and finiteness of the values.

The extrinsic Stokes split int div_M T = int_boundary T.nu + int T.kappa is
made in one place, ``_stokes_terms``, for the residuals here and for the
force, torque and force-balance functions of ``stress`` and ``euler``.  It
reads nu and kappa from the atlas, which makes its boundary batch once per
time and the curvature vector on its nodes once per DiffConfig and time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import geometry as geo
from .geometry import GeometryError, LevelSetGeometry
from .operators import (
    DiffConfig, covariant_gradient, divergence, mean_curvature, submanifold_gradient, surface_curl,
)
from .fields import TensorField
from .report import IdentityResult
from .tensor import (
    ShapeError, _contract_left, _contract_right, _dot, _frobenius, _looped, _outer, _partials,
)

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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], made once per order and
    read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


class Chart:
    """Box [lo, hi] in p >= 1 parameters mapped into R^n.

    ``mapping(u, t) -> x``; ``jacobian(u, t) -> (n, p)`` optional (finite
    differences otherwise).  Both are pointwise, and a looping adapter runs
    them over batches of parameter points (..., p); those of a chart built
    with ``Chart._batched`` take the batches themselves and return (..., n)
    and (..., n, p).  ``boundary_sides`` lists
    (axis, end) pairs that are genuine boundary pieces of the manifold;
    periodic axes and coordinate degeneracies (poles, seams) are simply not
    listed.  A chart is only a map: the quadrature rule belongs to the
    atlas, and one chart may serve atlases of several rules.
    """

    def __init__(
        self,
        lo: Sequence[float],
        hi: Sequence[float],
        mapping: Callable[[np.ndarray, float], np.ndarray],
        jacobian: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        boundary_sides: Sequence[Tuple[int, int]] = (),
        name: str = "chart",
    ) -> None:
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1 or self.lo.size < 1:
            raise ShapeError("lo and hi must be non-empty 1-d arrays of equal length")
        self.p = self.lo.shape[0]
        if np.any(self.hi <= self.lo):
            raise ShapeError("chart domain is empty")
        self.mapping = _looped(mapping, None, f"mapping of chart '{name}'")
        self._jacobian = None if jacobian is None else _looped(
            jacobian, None, f"jacobian of chart '{name}'")
        self.boundary_sides = tuple((int(a), int(e)) for a, e in boundary_sides)
        for a, e in self.boundary_sides:
            if not (0 <= a < self.p and e in (0, 1)):
                raise ShapeError(f"invalid boundary side ({a}, {e})")
        self.name = name

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

    def rule(self, order: int, panels: int, side: Optional[Tuple[int, int]] = None
             ) -> Tuple[np.ndarray, np.ndarray]:
        """Parameter nodes (N, p) and bare weights (N,) of the tensor-product
        rule with ``order`` Gauss-Legendre nodes on each of ``panels`` equal
        panels per axis, axis 0 slowest; a side (axis, end) pins its axis to
        lo or hi with weight 1, which gives that side's face."""
        x, w = _gauss_legendre(order)
        rules = []
        for axis in range(self.p):
            if side is not None and axis == side[0]:
                rules.append((np.array([(self.lo, self.hi)[side[1]][axis]]), np.ones(1)))
                continue
            edges = np.linspace(self.lo[axis], self.hi[axis], panels + 1)
            half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[:-1] + edges[1:])[:, None]
            rules.append(((half * x + mid).ravel(), (half * w).ravel()))
        nodes = np.meshgrid(*(u for u, _ in rules), indexing="ij")
        weights = reduce(np.multiply.outer, (w for _, w in rules))
        return np.stack([u.ravel() for u in nodes], axis=-1), weights.ravel()

    def _jacobians(self, U: np.ndarray, t: float) -> np.ndarray:
        """Jacobians (N, n, p) at parameter points U of shape (N, p)."""
        if self._jacobian is not None:
            return np.asarray(self._jacobian(U, t), dtype=float)
        return _partials(lambda V: self._map(V, t), U, 1e-6 * (self.hi - self.lo))

    def points(self, order: int, panels: int, t: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Quadrature points (N, n) in ambient space and their measure
        weights (N,) under ``rule(order, panels)`` at time t, as read-only
        arrays; an atlas keeps them once per t."""
        U, W = self.rule(order, panels)
        X = self._map(U, t)
        J = self._jacobians(U, t)
        g = np.linalg.det(np.swapaxes(J, 1, 2) @ J)
        bad = np.flatnonzero(~(g >= _MIN_GRAM_DET))
        if bad.size:
            i = bad[0]
            raise GeometryError(f"degenerate chart metric at u={U[i]} (det={g[i]:.3e})")
        return _read_only(X), _read_only(np.sqrt(g) * W)


@dataclass
class Atlas:
    """Charts covering a submanifold, together with its geometry and the
    quadrature rule of every chart: ``order`` Gauss-Legendre nodes on each
    of ``panels`` equal panels per chart axis.

    An atlas keeps the node data that every integral over it shares, made
    on first use and read-only: each chart's nodes and measure weights,
    once per t; the mean curvature vector on those nodes, once per
    (DiffConfig, t); and its ``BoundaryPoint`` batch, once per t.  It also
    keeps the atlases ``advected_atlas`` moves it to, once per
    (velocity field, t0, dt), for the latest t0 only.
    """

    geometry: LevelSetGeometry
    charts: List[Chart]
    order: int = 16
    panels: int = 2
    name: str = "atlas"
    _points: Dict[float, List[Tuple[np.ndarray, np.ndarray]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _kappa: Dict[Tuple[DiffConfig, float], List[np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _boundary: Dict[float, "BoundaryPoint"] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _advected: Dict[Tuple[TensorField, float, float], "Atlas"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.charts:
            raise ShapeError(f"atlas '{self.name}' has no charts")
        for key in ("order", "panels"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ShapeError(f"atlas '{self.name}': order and panels must be positive "
                                 f"integers, got {key} = {value!r}")
            setattr(self, key, int(value))
        dim = self.geometry.n - self.geometry.m
        for chart in self.charts:
            if chart.p != dim:
                raise ShapeError(f"chart '{chart.name}' has {chart.p} parameters, but atlas "
                                 f"'{self.name}' covers a {dim}-dimensional manifold")

    @property
    def closed(self) -> bool:
        return all(not c.boundary_sides for c in self.charts)

    def points(self, t: float = 0.0) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The quadrature points and measure weights of each chart at time
        t, in chart order (``Chart.points`` under the atlas's rule)."""
        key = float(t)
        if key not in self._points:
            self._points[key] = [c.points(self.order, self.panels, key) for c in self.charts]
        return self._points[key]

    def _curvature(self, cfg: DiffConfig, t: float) -> List[np.ndarray]:
        """The mean curvature vector (N, n) on the nodes of each chart at
        time t, in chart order."""
        key = (cfg, float(t))
        if key not in self._kappa:
            kap = mean_curvature(self.geometry, cfg)
            self._kappa[key] = [_read_only(kap.values(X, t)) for X, _ in self.points(t)]
        return self._kappa[key]


@dataclass
class BoundaryPoint:
    """The boundary quadrature nodes of an atlas, as one batch of N nodes.

    ``x`` and ``conormal`` are (N, n): node positions and outward unit
    co-normals.  ``weight`` (N,) holds the measure of the boundary faces,
    of dimension p - 1: arc length on surface boundaries, and 1 at path
    endpoints.  ``tangent`` (N, n) is the
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
    """Every boundary node of the atlas, with one frame evaluation.

    Made once per time t and kept on the atlas, with read-only arrays."""
    key = float(t)
    if key not in atlas._boundary:
        atlas._boundary[key] = _boundary_batch(atlas, key)
    return atlas._boundary[key]


def _boundary_batch(atlas: Atlas, t: float) -> BoundaryPoint:
    geom = atlas.geometry
    n, dim = geom.n, geom.n - geom.m
    # an empty first face keeps every concatenation defined on a closed atlas
    faces = [(np.empty((0, n)), np.empty((0, n)), np.empty((0, n, dim - 1)), np.empty(0),
              np.empty(0))]
    for chart in atlas.charts:
        for axis, end in chart.boundary_sides:
            U, w = chart.rule(atlas.order, atlas.panels, (axis, end))
            J = chart._jacobians(U, t)
            sign = 1.0 if end == 1 else -1.0
            faces.append((chart._map(U, t), sign * J[:, :, axis], np.delete(J, axis, axis=2), w,
                          np.full(len(w), sign)))
    X, outward, F, w, signs = (np.concatenate(part) for part in zip(*faces))
    weight = np.sqrt(np.linalg.det(np.swapaxes(F, 1, 2) @ F)) * w
    along = np.linalg.qr(F)[0]  # orthonormal face tangents (N, n, dim - 1)
    frame = geom.frame_at(X, t)
    v = _dot(frame.P, outward, 1)
    v = v - _dot(along, _dot(v, along, 1), 1)
    size = geo._norm(v)
    if (size < 1e-10).any():
        raise GeometryError(f"outward direction vanishes under projection on atlas '{atlas.name}'")
    conormal = v / size[:, None]
    tangent = end_sign = None
    if dim == 2:  # orient the tangent so that det[conormal, tangent, normals] > 0
        first = along[:, :, 0]
        rows = np.concatenate([conormal[:, None], first[:, None], frame.normals], axis=1)
        tangent = np.where((np.linalg.det(rows) < 0)[:, None], -first, first)
    if dim == 1:
        end_sign = signs
    return BoundaryPoint(*(None if a is None else _read_only(a)
                           for a in (X, conormal, weight, tangent, end_sign)))


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


def _chart_sum(atlas: Atlas, values, t: float):
    """sum over the charts k of the weighted sum of ``values(k, X)`` on the
    nodes X of chart k."""
    total = None
    for k, (chart, (X, meas)) in enumerate(zip(atlas.charts, atlas.points(t))):
        part = _weighted_sum(values(k, X), meas, f"chart '{chart.name}'")
        total = part if total is None else total + part
    return total


def integrate(atlas: Atlas, integrand, t: float = 0.0):
    """Integrate a field over the atlas, leafwise for tensors.

    Each chart's quadrature nodes X, of shape (N, n), are evaluated in one
    call.  The integrand is a TensorField or a callable ``(X, t)`` that
    returns values of shape (N, ...) or a constant (a number).  A value
    that is not finite, or of any other shape, raises an error that names
    the chart.  A value is read by its shape alone: an array whose first
    axis has length N is N per-node values, even one meant as a constant
    vector (no shape check can tell the two apart), so a constant that is
    not a number must be broadcast to (N, ...).
    """
    f = integrand.values if isinstance(integrand, TensorField) else integrand
    return _chart_sum(atlas, lambda k, X: f(X, t), t)


def integrate_boundary(atlas: Atlas, integrand, t: float = 0.0):
    """Integrate over the boundary of the atlas.

    The integrand is a callable ``(B, t)`` on the BoundaryPoint batch B of
    every boundary node, called once; it returns values of shape (N, ...)
    or a constant (a number), under the checks and the reading of
    ``integrate``: an array whose first axis has length N is per-node
    values.  A closed atlas has N = 0 and gives a zero of the value shape.
    """
    B = boundary_points(atlas, t)
    return _weighted_sum(integrand(B, t), B.weight, f"the boundary of atlas '{atlas.name}'")


# -- identity residuals -----------------------------------------------------------


def _stokes_terms(atlas: Atlas, pair, cfg: DiffConfig, t: float = 0.0):
    """The right side of the extrinsic Stokes formula
    int div_M T = int_boundary T.nu + int T.kappa, as the pair
    (int_boundary T.nu, int T.kappa): nu is the outward co-normal and kappa
    the mean curvature vector, both read from the atlas's node data.
    ``pair(X, t, v)`` gives T at points X with the vectors v fed into its
    divergence slot."""
    kappa = atlas._curvature(cfg, t)
    curv = _chart_sum(atlas, lambda k, X: pair(X, t, kappa[k]), t)
    bnd = integrate_boundary(atlas, lambda B, s: pair(B.x, s, B.conormal), t)
    return bnd, curv


def stokes_residual(atlas: Atlas, f: TensorField, cfg: DiffConfig) -> IdentityResult:
    """int div_M T  vs  int_boundary T.t + int T.kappa."""
    if f.q < 1:
        raise ShapeError("the divergence identity needs rank >= 1")
    lhs = integrate(atlas, divergence(f, atlas.geometry, cfg))
    bnd, curv = _stokes_terms(atlas, lambda X, t, v: _dot(f.values(X, t), v, 1), cfg)
    return IdentityResult(
        lhs=np.asarray(lhs), rhs=bnd + curv, pieces={"boundary": bnd, "curvature": curv}
    )


def circulation_residual(atlas: Atlas, f: TensorField, cfg: DiffConfig) -> IdentityResult:
    """int curl T  vs  the boundary circulation of T."""
    lhs = integrate(atlas, surface_curl(f, atlas.geometry, cfg))
    bnd = integrate_boundary(atlas, lambda B, t: _dot(f.values(B.x, t), B.tangent, 1))
    return IdentityResult(lhs=np.asarray(lhs), rhs=np.asarray(bnd))


def gradient_residual(atlas: Atlas, f: TensorField, cfg: DiffConfig) -> IdentityResult:
    """int grad_M f  vs  int_boundary f t + int f kappa, for scalar f."""
    if f.q != 0:
        raise ShapeError("the gradient identity is for scalar fields")
    lhs = integrate(atlas, submanifold_gradient(f, atlas.geometry, cfg))
    bnd, curv = _stokes_terms(atlas, lambda X, t, v: f.values(X, t)[:, None] * v, cfg)
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
    term1 = integrate(atlas, lambda X, t: _contract_left(s.values(X, t), div.values(X, t), 1))
    term2 = integrate(atlas, lambda X, t: _contract_right(f.values(X, t), gs.values(X, t), 1))
    bnd, curv = _stokes_terms(
        atlas, lambda X, t, v: _dot(_contract_left(s.values(X, t), f.values(X, t), 1), v, 1), cfg
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
    returns values of the test field's shape, (N,) + (n,)*q; any other
    shape raises ShapeError.  With ``test is trial`` one covariant gradient
    serves both sides of the pairing.
    """
    geom = atlas.geometry
    gt = covariant_gradient(trial, geom, cfg)
    gs = gt if test is trial else covariant_gradient(test, geom, cfg)

    def energy(X, t):
        vt = gt.values(X, t)
        return _frobenius(vt, vt if gs is gt else gs.values(X, t), 1)

    a = float(integrate(atlas, energy))
    ell = 0.0
    if forcing is not None:
        ell += float(
            integrate(atlas, lambda X, t: _frobenius(test.values(X, t), forcing.values(X, t), 1))
        )
    if flux is not None:

        def pairing(B, t):
            want, got = test.values(B.x, t), np.asarray(flux(B, t), dtype=float)
            if got.shape != want.shape:
                raise ShapeError(
                    f"flux {getattr(flux, '__qualname__', flux)} returned shape {got.shape} on the "
                    f"boundary of atlas '{atlas.name}', expected {want.shape} as the test field"
                )
            return _frobenius(want, got, 1)

        ell += float(integrate_boundary(atlas, pairing))
    return a, ell


# -- moving domains ---------------------------------------------------------------


def rk4_step(x: np.ndarray, t0: float, dt: float, w: TensorField) -> np.ndarray:
    """One classical RK4 step of the points x (..., n) along the velocity w,
    from t0 to t0 + dt."""
    return _rk4(x, t0, dt, w)[0]


def _rk4(x: np.ndarray, t0: float, dt: float, w: TensorField, J=None):
    """``rk4_step`` and, given the Jacobians J (..., n, p) of the points x in
    some parameters, the Jacobians of the moved points: the derivative of
    the discrete RK4 map, J + dt/6 (K1 + 2 K2 + 2 K3 + K4) with
    K_i = grad w(x_i) J_i at each stage point x_i and its Jacobian J_i (the
    variational equation; Hairer, Norsett & Wanner, Solving ODEs I, sec. I.14).
    The second value is None without J; with J, w needs a gradient."""
    k1 = w.values(x, t0)
    x2 = x + 0.5 * dt * k1
    k2 = w.values(x2, t0 + 0.5 * dt)
    x3 = x + 0.5 * dt * k2
    k3 = w.values(x3, t0 + 0.5 * dt)
    x4 = x + dt * k3
    k4 = w.values(x4, t0 + dt)
    moved = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if J is None:
        return moved, None
    grad, nl = w.gradient, x.ndim - 1
    K1 = _dot(grad.values(x, t0), J, nl)
    K2 = _dot(grad.values(x2, t0 + 0.5 * dt), J + 0.5 * dt * K1, nl)
    K3 = _dot(grad.values(x3, t0 + 0.5 * dt), J + 0.5 * dt * K2, nl)
    K4 = _dot(grad.values(x4, t0 + dt), J + dt * K3, nl)
    return moved, J + (dt / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)


def advected_atlas(atlas: Atlas, w: TensorField, t0: float, dt: float) -> Atlas:
    """Push every chart point one RK4 step along the velocity field.

    The moved charts parametrize the manifold at time t0 + dt; evaluate
    integrals there with t = t0 + dt.  A moved chart maps a batch of
    parameter points with one RK4 step, so its quadrature nodes move
    together.  Where w has a gradient and a chart a Jacobian, the moved
    chart's Jacobian is the exact derivative of that step (``_rk4``);
    otherwise it is a difference of the moved map.  The moved atlas has
    the rule of ``atlas``; it is made once per (w, t0, dt), the field
    object itself, and kept on ``atlas`` with the nodes it computes.  A new
    t0 drops the moved atlases of the others, so a caller stepping through
    time keeps only those of its current step.
    """
    key = (w, float(t0), float(dt))
    if key in atlas._advected:
        return atlas._advected[key]
    for stale in [k for k in atlas._advected if k[1] != key[1]]:
        del atlas._advected[stale]
    moved = []
    for chart in atlas.charts:
        def make_mapping(c):
            return lambda U, t: rk4_step(c._map(U, t0), t0, dt, w)

        def make_jacobian(c):
            if not (w.has_gradient and c._jacobian is not None):
                return None  # the moved chart differences its map
            return lambda U, t: _rk4(c._map(U, t0), t0, dt, w, c._jacobians(U, t0))[1]

        moved.append(
            Chart._batched(
                chart.lo,
                chart.hi,
                make_mapping(chart),
                jacobian=make_jacobian(chart),
                boundary_sides=chart.boundary_sides,
                name=f"{chart.name}@+{dt}",
            )
        )
    atlas._advected[key] = Atlas(atlas.geometry, moved, atlas.order, atlas.panels,
                                 name=f"{atlas.name}@+{dt}")
    return atlas._advected[key]
