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
along every axis with ``tensor._partials``, one batched call per axis on
all of its offsets, so each nested level multiplies the batch by 2 (fd2)
or 4 (fd4).

In analytic mode, derived fields carry exact gradients wherever their
ingredients have them (geometry providers need analytic level-set
Hessians): ``cartesian_gradient`` keeps the field's second derivative and
``divergence`` traces its argument's.  ``project_field`` (P in every
slot), ``submanifold_gradient`` (P in the derivative slot of grad f),
``covariant_gradient`` (P in every slot of grad T), ``perp_field`` (the
quarter turn Q in the last slot) and ``rotated_gradient`` (Q in the
derivative slot of grad f) are one construction, ``_fed``: a matrix field
of the frame fed into slots by the product rule (``geometry._feed``), each
slot once (P P = P and Q P = Q), whose k-th gradient reads a frame of
order k and its derivatives ``P_d`` and ``P_dd``.  Its one rule attaches
the providers: the k-th gradient of the result has a gradient wherever the
field's k-th gradient has one and the geometry exact frame derivatives of
order k + 1 (P supplies the second order where the level functions give
third derivatives, Q never does); and on frames that do not depend on t
(``has_static_frames``) a time partial wherever the field and its first k
gradients have them, used in every mode as exact providers are.  So the
Laplacians, covariant gradients and surface curls of polynomials,
constants, coordinates and positions need no differences.  The frame
fields (``normal_field``, ``projector_field``) read the frame's
derivatives, and have zero time partials on static frames.
``material_derivative`` carries the exact gradient
d/dt grad T + grad^2 T . w + grad T . grad w wherever its ingredients have
those derivatives.  Fourth-order differences remain for second
derivatives of fields that have only a callable Jacobian or are built from
Q or from frames of order 1, and for fields with no gradient at all.  A
time partial of a field with no ``dt`` provider (projections and frame
fields of geometries whose frames move) is a second-order central
difference in t, in every mode.

Only ``_fed`` and the frame fields read frames; the stress fields are
``_fed`` fields too.  Every frame comes from the evaluation scope
(``geometry._frame_scope``), so one outermost evaluation builds each once
per point array, and a frame held there gains its derivatives when a
higher order is asked for.  A fed field evaluates its parts first and then
asks once for the frame of the order it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import attrgetter

import numpy as np

from . import geometry as geo
from .fields import TensorField, _field, _Lazy, tf_add, tf_outer, tf_scale
from .geometry import _NESTED_HX, GeometryError, LevelSetGeometry, _feed
from .tensor import ShapeError, _central, _dot, _partials, _real

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
            value = getattr(self, attr)
            if not (_real(value) and 0 < value < np.inf):  # NaN fails too
                raise ValueError(f"{attr} must be positive and finite, got {value}")

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


def _fed(f: TensorField, geom: LevelSetGeometry, slots, name: str, turn: bool = False
         ) -> TensorField:
    """f with the tangential projector P, or with ``turn`` the quarter turn
    Q, fed into its ``slots``, with every provider that the product rule
    (``geometry._feed``) gives."""
    if f.n != geom.n:
        raise ShapeError(f"field '{f.name}' lives in R^{f.n}, the geometry in R^{geom.n}")
    if turn and geom.n - geom.m != 2:
        raise GeometryError("quarter turn needs codimension n - 2")
    return _fed_gradient(geom, slots, turn, [f], name)


def _fed_gradient(geom, slots, turn: bool, chain, name: str) -> TensorField:
    """The k-th gradient of a fed field, from f and its first k gradients
    (``chain``).  It has a gradient wherever the k-th gradient of f has one
    and the geometry exact frame derivatives of order k + 1, for k < 2 with
    P and k < 1 with Q (which supplies no second order); and on static
    frames a time partial wherever every field of the chain has one.
    (Module-level, so that a field holds no reference cycle and is freed
    when dropped.)"""
    k, last = len(chain) - 1, chain[-1]
    grad = dt = None
    if last.has_gradient and k < (1 if turn else 2) and geom.has_jet(k + 1):
        grad = _Lazy(lambda: _fed_gradient(geom, slots, turn, chain + [last.gradient],
                                           f"grad({name})"))
    if all(c.has_time_derivative for c in chain) and geom.has_static_frames:
        dt = _fed_evaluator(geom, slots, turn, chain, "dt_values")
    return _field(last.n, chain[0].q + k, _fed_evaluator(geom, slots, turn, chain, "values"),
                  grad=grad, dt=dt, depth=chain[0].depth, name=name)


def _fed_evaluator(geom, slots, turn: bool, chain, read: str):
    k, readers = len(chain) - 1, [getattr(c, read) for c in chain]

    def ev(X, t):
        parts = [r(X, t) for r in readers]
        frame = geom._frame(X, t, k)
        if turn:
            Q = geo.perp_matrix(frame)
            M = (Q,) if k == 0 else (Q, geo._perp_matrix_derivative(Q, frame.P_d))
        else:
            M = (frame.P, frame.P_d, frame.P_dd)[:k + 1]
        return _feed(M, parts, slots, X.ndim - 1)

    return ev


def submanifold_gradient(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Ambient gradient composed with the tangential projector in the
    derivative slot."""
    return _fed(cartesian_gradient(f, cfg), geom, (f.q,), f"gradM({f.name})")


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
    """P fed into every slot of f."""
    return _fed(f, geom, range(f.q), name or f"proj({f.name})")


def covariant_gradient(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """P fed into every slot of the ambient gradient, the derivative slot
    among them."""
    return _fed(cartesian_gradient(f, cfg), geom, range(f.q + 1), f"gradcov({f.name})")


def laplacian(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Componentwise Laplace-Beltrami: div_M of grad_M."""
    return divergence(submanifold_gradient(f, geom, cfg), geom, cfg)


def covariant_laplacian(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Projected divergence of the covariant gradient (Bochner-type)."""
    return project_field(divergence(covariant_gradient(f, geom, cfg), geom, cfg), geom,
                         name=f"lapcov({f.name})")


# -- frame-derived fields ------------------------------------------------------


def _frame_field(geom: LevelSetGeometry, q: int, attr: str, name: str, i=None) -> TensorField:
    """The rank-q field read off the frame attribute ``attr`` ('P', or
    'normals' at normal ``i``), with its gradient (``attr`` + '_d') and the
    gradient's own gradient ('_dd'), each read off a frame of that order and
    attached where the geometry's frame derivatives of that order are exact.
    On static frames the field and its gradient have a zero time partial."""

    def reader(order):
        get = attrgetter(attr + ("", "_d", "_dd")[order])
        if i is None:
            return lambda X, t: get(geom._frame(X, t, order))
        pick = (Ellipsis, i) + (slice(None),) * (1 + order)
        return lambda X, t: get(geom._frame(X, t, order))[pick]

    def zero(rank):
        if not geom.has_static_frames:
            return None
        return lambda X, t: np.zeros(X.shape[:-1] + (geom.n,) * rank)

    def gradient():
        return _field(geom.n, q + 1, reader(1),
                      grad=reader(2) if geom.has_jet(2) else None, dt=zero(q + 1),
                      name=f"grad({name})")

    return _field(geom.n, q, reader(0), grad=_Lazy(gradient) if geom.has_jet() else None,
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
    if f.q < 1:
        raise ShapeError("perp needs rank >= 1")
    return _fed(f, geom, (f.q - 1,), f"perp({f.name})", turn=True)


def surface_curl(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Rank-lowering curl: minus the divergence of the quarter-turned field."""
    out = tf_scale(divergence(perp_field(f, geom, cfg), geom, cfg), -1.0)
    out.name = f"curl({f.name})"
    return out


def rotated_gradient(f: TensorField, geom: LevelSetGeometry, cfg: DiffConfig) -> TensorField:
    """Rank-raising curl: the quarter turn fed into the derivative slot of
    the ambient gradient."""
    return _fed(cartesian_gradient(f, cfg), geom, (f.q,), f"rotgrad({f.name})", turn=True)


# -- evolving-geometry operators ------------------------------------------------


def projector_rate(geom: LevelSetGeometry, w: TensorField, cfg: DiffConfig) -> TensorField:
    """Symmetrized material rate of the normal bundle.

    C[w] = 1/2 sum_i (Dn_i (x) n_i + n_i (x) Dn_i) with D the material
    derivative along w.  Requires unit-gradient (signed-distance) level
    functions; the hypothesis is checked at evaluation points.
    """
    normals = [normal_field(geom, i) for i in range(geom.m)]
    half = reduce(tf_add, [tf_outer(material_derivative(n_i, w, cfg), n_i) for n_i in normals])

    def func(X, t):
        for i, lvl in enumerate(geom.levels):
            off = np.abs(np.linalg.norm(lvl.gradient(X, t), axis=-1) - 1.0)
            if np.any(off > 1e-6):
                raise GeometryError(
                    f"projector_rate needs unit level-set gradients; "
                    f"|grad d_{i}| is off 1 by {float(np.max(off)):.3e}"
                )
        h = half.values(X, t)  # once: each material rate differences its normal
        return 0.5 * (h + np.swapaxes(h, -1, -2))

    return _field(geom.n, 2, func, depth=half.depth, name="C[w]")
