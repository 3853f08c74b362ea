"""Differential operators on tensor fields over level-set geometries.

Every operator returns a new TensorField whose evaluator closes over the
ingredients, so operators compose (a Laplacian is the divergence of a
gradient field, evaluated wherever the outer stencil lands).  DiffConfig
picks the derivative strategy: centered differences of order 2 or 4, or
analytic providers where both the field and the geometry supply them.

The derivative slot of a gradient is always the deepest (last) axis, so
``grad(F) . v`` is the directional derivative along v.

Every evaluator takes a batch of points X of shape (..., n).  The
finite-difference step is chosen per point, and a gradient differences
along every axis with ``tensor._partials``, one batched evaluation per
offset.

In analytic mode, derived fields carry exact gradients wherever their
ingredients have them (geometry providers need analytic level-set
Hessians): ``cartesian_gradient`` keeps the field's second derivative;
``submanifold_gradient`` (grad^2 f . P + grad f . P_d), ``project_field``
(P_d in one slot at a time) and ``divergence`` (a trace) build theirs from
one frame jet, and so does ``perp_field`` (Q in one slot and its
closed-form derivative dQ = dP Q + Q dP).  So the Laplacians, covariant
gradients and surface curls of polynomials, constants, coordinates and
positions need no differences.  On geometries whose level functions
supply third derivatives (the sphere family), the gradients of
``project_field``, ``normal_field`` and ``projector_field`` carry their
own gradients.  On geometries whose frames do not depend on t
(``has_static_frames``, the sphere family too), these fields, their
gradients and ``submanifold_gradient`` carry exact time partials (zero
for the frame fields), used in every mode as exact providers are.
``material_derivative`` carries the exact gradient
d/dt grad T + grad^2 T . w + grad T . grad w wherever its ingredients
have those derivatives.  Fourth-order differences remain for time
partials of fields with no ``dt`` provider (projections and frame fields
of geometries whose frames move among them), for second derivatives of
fields that have only a callable Jacobian, and for fields with no
gradient at all.

Every frame and jet comes from the evaluation scope
(``geometry._frame_scope``), so one outermost evaluation builds each once
per point array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter

import numpy as np

from . import geometry as geo
from .fields import TensorField, _field, _Lazy, tf_scale
from .geometry import _NESTED_HX, GeometryError, LevelSetGeometry, _sym
from .tensor import ShapeError, _apply_to_slot, _central, _dot, _outer, _partials

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
    "normal_field",
    "project_field",
    "perp_field",
    "projector_rate",
]

_MODES = ("fd2", "fd4", "analytic")
# steps for differentiating a field that already carries difference noise
# (the spatial one is geometry._NESTED_HX), and the deepest nesting of
# difference layers allowed
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
        h = np.asarray(cfg.spatial_step(X, f.depth))[..., None]
        return _partials(lambda Y: f.values(Y, t), X, h, order)

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
        return _central(lambda s: f.values(X, t + s * h), h)

    return _field(f.n, f.q, func, depth=depth, name=f"dt({f.name})")


def material_derivative(f: TensorField, w: TensorField, cfg: DiffConfig) -> TensorField:
    """d/dt following the velocity w: time partial plus grad(F) . w."""
    if w.q != 1 or w.n != f.n:
        raise ShapeError("material velocity must be a rank-1 field in the same space")
    g = cartesian_gradient(f, cfg)
    ft = time_partial(f, cfg)

    def func(X, t):
        return ft.values(X, t) + _dot(g.values(X, t), w.values(X, t), X.ndim - 1)

    grad = None
    # g has a gradient only in analytic mode, where it is grad T itself
    if g.has_gradient and g.has_time_derivative and w.has_gradient:
        gw = w.gradient

        def grad(X, t):
            # d/dt grad T + grad^2 T . w + grad T . grad w
            nl = X.ndim - 1
            return (g.dt_values(X, t)
                    + _dot(np.swapaxes(g.gradient_values(X, t), -1, -2), w.values(X, t), nl)
                    + _dot(g.values(X, t), gw.values(X, t), nl))

    return _field(
        f.n, f.q, func, grad=grad, depth=max(g.depth, ft.depth), name=f"D({f.name};{w.name})"
    )


# -- geometry-aware first-order operators -------------------------------------


def submanifold_gradient(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Ambient gradient composed with the tangential projector in the
    derivative slot."""
    g = cartesian_gradient(f, cfg)

    def func(X, t):
        return _dot(g.values(X, t), geom._frame(X, t).P, X.ndim - 1)

    grad = dt = None
    if g.has_gradient and geom.has_jet():

        def grad(X, t):
            # grad(grad f . P) = grad^2 f . P + grad f . P_d
            nl = X.ndim - 1
            jet = geom._jet(X, t)
            return _apply_to_slot(jet.frame.P, g.gradient_values(X, t), f.q, nl) + _dot(
                g.values(X, t), jet.P_d, nl
            )

    if g.has_time_derivative and geom.has_static_frames:
        dt = lambda X, t: _dot(g.dt_values(X, t), geom._frame(X, t).P, X.ndim - 1)

    return _field(f.n, f.q + 1, func, grad=grad, dt=dt, depth=g.depth, name=f"gradM({f.name})")


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


def _projected(jet, parts, nl: int) -> np.ndarray:
    """The last derivative of the projection of a rank-q field, P in each
    of its q slots, by the product rule one slot at a time.  ``parts`` are
    the field's values (..., (n,)*q) and gradient, and for the second
    derivatives (..., k, l) also the gradient's own gradient."""
    V = list(parts)
    for s in range(V[0].ndim - nl):

        def A(M, v, s=s):  # M in slot s of v
            return _apply_to_slot(M, v, s, nl)

        new = [A(jet.frame.P, V[0]), A(jet.frame.P, V[1]) + A(jet.P_d, V[0])]
        if len(V) > 2:  # dP_l in slot s of grad_k f gives [..., k, l]; _sym adds k <-> l
            new.append(A(jet.frame.P, V[2]) + _sym(A(jet.P_d, V[1])) + A(jet.P_dd, V[0]))
        V = new
    return V[-1]


def project_field(f: TensorField, geom: LevelSetGeometry, name: str = "") -> TensorField:
    name = name or f"proj({f.name})"

    def func(X, t):
        return geo._project_array(f.values(X, t), geom._frame(X, t).P)

    def first(X, t):
        # product rule over the q slots that P fills: P_d in one slot at a
        # time and P in the others, plus P in every slot of grad f
        nl = X.ndim - 1
        jet = geom._jet(X, t)
        arr = f.values(X, t)
        out = f.gradient_values(X, t)
        for s in range(f.q):
            out = _apply_to_slot(jet.frame.P, out, s, nl)
        for s in range(f.q):
            term = _apply_to_slot(jet.P_d, arr, s, nl)
            for r in range(f.q):
                if r != s:
                    term = _apply_to_slot(jet.frame.P, term, r, nl)
            out = out + term
        return out

    # on static frames, d/dt of the projection is the projection of d/dt
    static = f.has_time_derivative and geom.has_static_frames

    def gradient():
        g = f.gradient
        grad = dt = None
        if g.has_gradient and geom.has_jet(2):
            grad = lambda X, t: _projected(
                geom._jet(X, t, 2), (f.values(X, t), f.gradient_values(X, t), g.gradient_values(X, t)),
                X.ndim - 1)
        if static and g.has_time_derivative:
            dt = lambda X, t: _projected(
                geom._jet(X, t), (f.dt_values(X, t), g.dt_values(X, t)), X.ndim - 1)
        return _field(f.n, f.q + 1, first, grad=grad, dt=dt, depth=f.depth, name=f"grad({name})")

    dt = None
    if static:
        dt = lambda X, t: geo._project_array(f.dt_values(X, t), geom._frame(X, t).P)
    grad = _Lazy(gradient) if f.has_gradient and geom.has_jet() else None
    return _field(f.n, f.q, func, grad=grad, dt=dt, depth=f.depth, name=name)


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


def _frame_field(geom: LevelSetGeometry, q: int, attr: str, name: str, i=None) -> TensorField:
    """The rank-q field read off the frame attribute ``attr`` ('P', or
    'normals' at normal ``i``), with the jet's parts of it: its gradient
    ('_d') and the gradient's own gradient ('_dd'), each attached where the
    geometry's jets are exact.  On static frames the field and its gradient
    have a zero time partial."""

    def reader(part, order=1):
        source = geom._frame if not part else partial(geom._jet, order=order)
        get = attrgetter(attr + part)
        if i is None:
            return lambda X, t: get(source(X, t))
        pick = (Ellipsis, i) + (slice(None),) * (1 + part.count("d"))
        return lambda X, t: get(source(X, t))[pick]

    def zero(rank):
        if not geom.has_static_frames:
            return None
        return lambda X, t: np.zeros(X.shape[:-1] + (geom.n,) * rank)

    def gradient():
        return _field(geom.n, q + 1, reader("_d"),
                      grad=reader("_dd", 2) if geom.has_jet(2) else None, dt=zero(q + 1),
                      name=f"grad({name})")

    return _field(geom.n, q, reader(""), grad=_Lazy(gradient) if geom.has_jet() else None,
                  dt=zero(q), name=name)


def projector_field(geom: LevelSetGeometry) -> TensorField:
    return _frame_field(geom, 2, "P", "P")


def normal_field(geom: LevelSetGeometry, i: int = 0) -> TensorField:
    if not 0 <= i < geom.m:
        raise ShapeError(f"normal index {i} out of range for m={geom.m}")
    return _frame_field(geom, 1, "normals", f"n_{i}", i)


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
        Q = geo.perp_matrix(geom._frame(X, t))
        return _dot(f.values(X, t), np.swapaxes(Q, -1, -2), X.ndim - 1)

    grad = None
    if f.has_gradient and geom.has_jet():

        def grad(X, t):
            # Q in the last slot of grad f, plus the last slot of f against dQ
            nl, last = X.ndim - 1, f.q - 1
            jet = geom._jet(X, t)
            Q = geo.perp_matrix(jet.frame)
            DQ = geo._perp_matrix_derivative(Q, jet.P_d)
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
        normals = geom._frame(X, t).normals
        out = np.zeros(X.shape[:-1] + (geom.n, geom.n))
        for i in range(geom.m):
            half = _outer(rates[i].values(X, t), normals[..., i, :], X.ndim - 1)
            out += 0.5 * (half + np.swapaxes(half, -1, -2))
        return out

    depth = max(r.depth for r in rates)
    return _field(geom.n, 2, func, depth=depth, name="C[w]")
