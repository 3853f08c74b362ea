"""Differential operators on tensor fields over level-set geometries.

Every operator returns a new TensorField whose evaluator closes over the
ingredients, so operators compose (a Laplacian is the divergence of a
gradient field, evaluated wherever the outer stencil lands).  DiffConfig
picks the derivative strategy: centered differences of order 2 or 4, or
analytic providers where both the field and the geometry supply them.

The derivative slot of a gradient is always the deepest (last) axis, so
``grad(F) . v`` is the directional derivative along v.

Every evaluator takes a batch of points X of shape (..., n).  The
finite-difference step is chosen per point, and a stencil is a loop over
its offsets with one batched evaluation per offset.

In analytic mode, derived fields carry exact gradients wherever their
ingredients have them (geometry providers need analytic level-set
Hessians): ``cartesian_gradient`` keeps the field's second derivative;
``submanifold_gradient`` (grad^2 f . P + grad f . P_d), ``project_field``
(P_d in one slot at a time) and ``divergence`` (a trace) build theirs from
one ``frame_derivative_at`` call, and so does ``perp_field`` (Q in one
slot and its closed-form derivative dQ = dP Q + Q dP).  So the
Laplacians, covariant gradients and surface curls of polynomials,
constants, coordinates and positions need no differences.
Fourth-order differences remain for the gradient of
``material_derivative``, for time partials of fields with no ``dt``
provider (projections and frame fields on moving geometries among them),
for second derivatives of fields that have only a callable Jacobian or
only frame derivatives (``projector_field``, ``normal_field``), and for
fields with no gradient at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .fields import TensorField, _field, tf_scale
from .geometry import GeometryError, LevelSetGeometry, _identity
from .tensor import ShapeError, _apply_to_slot, _dot, _outer

__all__ = [
    "DiffConfig",
    "DepthError",
    "cartesian_gradient",
    "time_partial",
    "material_derivative",
    "submanifold_gradient",
    "divergence",
    "covariant_gradient",
    "laplacian",
    "covariant_laplacian",
    "surface_curl",
    "rotated_gradient",
    "mean_curvature",
    "shape_operator",
    "projector_field",
    "normal_projector_field",
    "normal_field",
    "project_field",
    "perp_field",
    "projector_rate",
]

_MODES = ("fd2", "fd4", "analytic")
# steps for differentiating a field that already carries difference noise,
# and the deepest nesting of difference layers allowed
_NESTED_HX = 3e-4
_NESTED_HT = 3e-4
_MAX_DEPTH = 3


class DepthError(RuntimeError):
    """More nested finite-difference layers than the library allows."""


@dataclass(frozen=True)
class DiffConfig:
    """Derivative strategy and step sizes.

    ``hx`` scales with max(1, |x|); fixed nested steps are used whenever the
    field being differentiated already contains finite-difference noise.
    """

    mode: str = "fd2"
    hx: float = 5e-6
    ht: float = 1e-5

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for attr in ("hx", "ht"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    def spatial_step(self, x: np.ndarray, depth: int):
        """Step for points x of shape (..., n): an array of shape (...) at
        depth 0, the nested step otherwise."""
        if depth <= 0:
            return self.hx * np.maximum(1.0, geo._norm(x))
        return _NESTED_HX

    def temporal_step(self, depth: int) -> float:
        return self.ht if depth <= 0 else _NESTED_HT


def _fd_order(cfg: DiffConfig) -> int:
    return 2 if cfg.mode == "fd2" else 4


def _bump_depth(f: TensorField) -> int:
    if f.depth + 1 > _MAX_DEPTH:
        raise DepthError(
            f"differentiating '{f.name}' would exceed max nesting depth {_MAX_DEPTH}"
        )
    return f.depth + 1


# -- ambient derivatives ------------------------------------------------------


def cartesian_gradient(f: TensorField, cfg: DiffConfig) -> TensorField:
    """Ambient gradient; the new derivative slot is the deepest axis."""
    n = f.n
    if cfg.mode == "analytic" and f.has_gradient:
        g = f.gradient  # a fresh field over the same evaluators, so it keeps its gradient
        return _field(
            n, f.q + 1, g._func, grad=g._grad, dt=g._dt, depth=f.depth, name=f"grad({f.name})"
        )
    depth = _bump_depth(f)
    order = _fd_order(cfg)

    def func(X, t):
        h = np.asarray(cfg.spatial_step(X, f.depth))
        steps = h[..., None, None] * _identity(n)  # steps[..., k, :] = h e_k
        hv = h.reshape(h.shape + (1,) * f.q)  # against values (...) + (n,)*q
        out = np.empty(X.shape[:-1] + (n,) * f.q + (n,))
        for k in range(n):
            e = steps[..., k, :]
            if order == 2:
                d = (f.values(X + e, t) - f.values(X - e, t)) / (2 * hv)
            else:
                d = (
                    -f.values(X + 2 * e, t)
                    + 8 * f.values(X + e, t)
                    - 8 * f.values(X - e, t)
                    + f.values(X - 2 * e, t)
                ) / (12 * hv)
            out[..., k] = d
        return out

    return _field(n, f.q + 1, func, depth=depth, name=f"grad({f.name})")


def time_partial(f: TensorField, cfg: DiffConfig) -> TensorField:
    if f.has_time_derivative:
        # exact providers are cheap and introduce no noise; use them in FD
        # modes as well (constructors only attach them when exact)
        return _field(
            f.n, f.q, lambda X, t: f.dt_values(X, t), depth=f.depth, name=f"dt({f.name})"
        )
    depth = _bump_depth(f)

    def func(X, t):
        h = cfg.temporal_step(f.depth)
        return (f.values(X, t + h) - f.values(X, t - h)) / (2 * h)

    return _field(f.n, f.q, func, depth=depth, name=f"dt({f.name})")


def material_derivative(f: TensorField, w: TensorField, cfg: DiffConfig) -> TensorField:
    """d/dt following the velocity w: time partial plus grad(F) . w."""
    if w.q != 1 or w.n != f.n:
        raise ShapeError("material velocity must be a rank-1 field in the same space")
    g = cartesian_gradient(f, cfg)
    ft = time_partial(f, cfg)

    def func(X, t):
        return ft.values(X, t) + _dot(g.values(X, t), w.values(X, t), X.ndim - 1)

    return _field(
        f.n, f.q, func, depth=max(g.depth, ft.depth), name=f"D({f.name};{w.name})"
    )


# -- geometry-aware first-order operators -------------------------------------


def submanifold_gradient(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Ambient gradient composed with the tangential projector in the
    derivative slot."""
    g = cartesian_gradient(f, cfg)

    def func(X, t):
        return _dot(g.values(X, t), geom.frame_at(X, t).P, X.ndim - 1)

    grad = None
    if g.has_gradient and geom.has_analytic_hessians:

        def grad(X, t):
            # grad(grad f . P) = grad^2 f . P + grad f . P_d
            nl = X.ndim - 1
            frame, fd = geom.frame_derivative_at(X, t)
            return _apply_to_slot(frame.P, g.gradient_values(X, t), f.q, nl) + _dot(
                g.values(X, t), fd.P_d, nl
            )

    return _field(f.n, f.q + 1, func, grad=grad, depth=g.depth, name=f"gradM({f.name})")


def divergence(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Trace of the submanifold gradient over the two deepest slots."""
    if f.q < 1:
        raise ShapeError("divergence needs rank >= 1")
    sg = submanifold_gradient(f, geom, cfg)

    def func(X, t):
        return np.trace(sg.values(X, t), axis1=-2, axis2=-1)

    grad = None
    if sg.has_gradient:
        grad = lambda X, t: np.trace(sg.gradient_values(X, t), axis1=-3, axis2=-2)
    return _field(f.n, f.q - 1, func, grad=grad, depth=sg.depth, name=f"divM({f.name})")


def project_field(f: TensorField, geom: LevelSetGeometry, name: str = "") -> TensorField:
    def func(X, t):
        return geo._project_array(f.values(X, t), geom.frame_at(X, t).P)

    grad = None
    if f.has_gradient and geom.has_analytic_hessians:

        def grad(X, t):
            # product rule over the q slots that P fills: P_d in one slot at a
            # time and P in the others, plus P in every slot of grad f
            nl = X.ndim - 1
            frame, fd = geom.frame_derivative_at(X, t)
            arr = f.values(X, t)
            out = f.gradient_values(X, t)
            for s in range(f.q):
                out = _apply_to_slot(frame.P, out, s, nl)
            for s in range(f.q):
                term = _apply_to_slot(fd.P_d, arr, s, nl)
                for r in range(f.q):
                    if r != s:
                        term = _apply_to_slot(frame.P, term, r, nl)
                out = out + term
            return out

    return _field(f.n, f.q, func, grad=grad, depth=f.depth, name=name or f"proj({f.name})")


def covariant_gradient(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    return project_field(submanifold_gradient(f, geom, cfg), geom, name=f"gradcov({f.name})")


def laplacian(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Componentwise Laplace-Beltrami: div_M of grad_M."""
    return divergence(submanifold_gradient(f, geom, cfg), geom, cfg)


def covariant_laplacian(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Projected divergence of the covariant gradient (Bochner-type)."""
    out = project_field(
        divergence(covariant_gradient(f, geom, cfg), geom, cfg), geom
    )
    out.name = f"lapcov({f.name})"
    return out


# -- frame-derived fields ------------------------------------------------------


def projector_field(geom: LevelSetGeometry) -> TensorField:
    grad = None
    if geom.has_analytic_hessians:
        grad = lambda X, t: geom.frame_derivative_at(X, t)[1].P_d
    return _field(geom.n, 2, lambda X, t: geom.frame_at(X, t).P, grad=grad, name="P")


def normal_projector_field(geom: LevelSetGeometry) -> TensorField:
    grad = None
    if geom.has_analytic_hessians:
        grad = lambda X, t: geom.frame_derivative_at(X, t)[1].N_d
    return _field(geom.n, 2, lambda X, t: geom.frame_at(X, t).N, grad=grad, name="N")


def normal_field(geom: LevelSetGeometry, i: int = 0) -> TensorField:
    if not 0 <= i < geom.m:
        raise ShapeError(f"normal index {i} out of range for m={geom.m}")
    grad = None
    if geom.has_analytic_hessians:
        grad = lambda X, t: geom.frame_derivative_at(X, t)[1].normals_d[..., i, :, :]
    return _field(
        geom.n, 1, lambda X, t: geom.frame_at(X, t).normals[..., i, :], grad=grad,
        name=f"n_{i}",
    )


def mean_curvature(geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Curvature vector: minus the divergence of the tangential projector
    field, one component per ambient axis.  Purely normal."""
    out = tf_scale(divergence(projector_field(geom), geom, cfg), -1.0, name="kappa")
    return out


def shape_operator(geom: LevelSetGeometry, i: int, cfg: DiffConfig) -> TensorField:
    """Submanifold gradient of the i-th unit normal."""
    out = submanifold_gradient(normal_field(geom, i), geom, cfg)
    out.name = f"B_{i}"
    return out


# -- oriented-plane operators (n - m == 2) -------------------------------------


def perp_field(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Quarter-turn every deepest rank-1 leaf of the field."""
    if geom.n - geom.m != 2:
        raise GeometryError("quarter turn needs codimension n - 2")
    if f.q < 1:
        raise ShapeError("perp needs rank >= 1")

    def func(X, t):
        Q = geo.perp_matrix(geom.frame_at(X, t))
        return _dot(f.values(X, t), np.swapaxes(Q, -1, -2), X.ndim - 1)

    grad = None
    if f.has_gradient and geom.has_analytic_hessians:

        def grad(X, t):
            # Q in the last slot of grad f, plus the last slot of f against dQ
            nl, last = X.ndim - 1, f.q - 1
            frame, fd = geom.frame_derivative_at(X, t)
            Q = geo.perp_matrix(frame)
            DQ = geo._perp_matrix_derivative(Q, fd.P_d)
            return _apply_to_slot(Q, f.gradient_values(X, t), last, nl) + _apply_to_slot(
                DQ, f.values(X, t), last, nl
            )

    return _field(f.n, f.q, func, grad=grad, depth=f.depth, name=f"perp({f.name})")


def surface_curl(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Rank-lowering curl: minus the divergence of the quarter-turned field."""
    out = tf_scale(divergence(perp_field(f, geom, cfg), geom, cfg), -1.0)
    out.name = f"curl({f.name})"
    return out


def rotated_gradient(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Rank-raising curl: quarter-turn the derivative slot of grad_M."""
    out = perp_field(submanifold_gradient(f, geom, cfg), geom, cfg)
    out.name = f"rotgrad({f.name})"
    return out


# -- evolving-geometry operators ------------------------------------------------


def projector_rate(geom: LevelSetGeometry, w: TensorField, cfg: DiffConfig) -> TensorField:
    """Symmetrized material rate of the normal bundle.

    C[w] = 1/2 sum_i (Dn_i (x) n_i + n_i (x) Dn_i) with D the material
    derivative along w.  Requires unit-gradient (signed-distance) level
    functions; the hypothesis is checked at evaluation points.
    """
    rates = [material_derivative(normal_field(geom, i), w, cfg) for i in range(geom.m)]

    def func(X, t):
        for i, lvl in enumerate(geom.levels):
            off = np.abs(np.linalg.norm(lvl.gradient(X, t), axis=-1) - 1.0)
            if np.any(off > 1e-6):
                raise GeometryError(
                    f"projector_rate needs unit level-set gradients; "
                    f"|grad d_{i}| is off 1 by {float(np.max(off)):.3e}"
                )
        normals = geom.frame_at(X, t).normals
        out = np.zeros(X.shape[:-1] + (geom.n, geom.n))
        for i in range(geom.m):
            half = _outer(rates[i].values(X, t), normals[..., i, :], X.ndim - 1)
            out += 0.5 * (half + np.swapaxes(half, -1, -2))
        return out

    depth = max(r.depth for r in rates)
    return _field(geom.n, 2, func, depth=depth, name="C[w]")
