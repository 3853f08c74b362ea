"""Ready-made geometries with analytic level sets and quadrature charts.

Every case bundles a LevelSetGeometry (with exact gradients and Hessians),
the charts that cover it, and where meaningful a distinguished velocity
field.  A chart is only a map; ``case.atlas(order, panels)`` sets the
quadrature rule, so a new case is its level sets plus a chart list.  A
builtin states its shape, not its derivatives: a surface of revolution
gives only its profile to ``_revolution_chart``, which makes the map and
its exact Jacobian, and the round levels (the spheres and the cylinder)
are one ``_norm_level``, the distance |y| over some coordinates.
Level functions are signed distances wherever that is cheap to write down,
so the unit-gradient hypothesis of the projector-rate machinery holds.
Level functions, velocity fields and chart mappings are batch-native: they
take points of shape (..., n), or parameter points of shape (..., p), and a
single point is a batch of shape ().  ``GeometryCase.sample_points`` gives
the suites their points as one (count, n) array, mapped with one call per
chart.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .fields import TensorField, _field, _zeros
from .geometry import LevelSet, LevelSetGeometry, _norm
from .quadrature import Atlas, Chart
from .tensor import _outer, _real

__all__ = [
    "GeometryCase",
    "ParameterError",
    "sphere",
    "hemisphere",
    "circle2d",
    "circle3d",
    "plane_disk",
    "torus",
    "helix",
    "expanding_sphere",
    "REGISTRY",
    "get_case",
    "available",
]

TWO_PI = 2.0 * math.pi


@dataclass
class GeometryCase:
    """A named geometry plus everything the verification suites need.

    ``curvature`` is the closed form of the mean curvature vector, points
    (..., n) to (..., n), on the cases that have a caller for it: sphere,
    circle3d and torus.  It is None on the others.  ``closed_forms`` maps
    names to the numbers the suites check on this case, each computed
    from the case's own parameters.  Every atlas of the case shares its
    ``charts``, and ``sample_points`` maps its points with them.
    """

    name: str
    geometry: LevelSetGeometry
    charts: List[Chart]
    params: Dict[str, float] = field(default_factory=dict)
    velocity: Optional[TensorField] = None
    curvature: Optional[Callable[[np.ndarray], np.ndarray]] = None
    closed_forms: Dict[str, float] = field(default_factory=dict)
    blurb: str = ""

    def atlas(self, order: int = Atlas.order, panels: int = Atlas.panels) -> Atlas:
        """A fresh atlas of the case's charts under the rule (order, panels)."""
        return Atlas(self.geometry, self.charts, order, panels, name=self.name)

    def sample_points(self, count: int, t: float = 0.0, seed: int = 0) -> np.ndarray:
        """Deterministic points (count, n) spread over the charts, kept off
        chart edges: point i lies on chart i % len(charts)."""
        rng = np.random.default_rng(seed)
        charts = self.charts
        draws = 0.1 + 0.8 * rng.random((count, charts[0].p))
        pts = np.empty((count, self.geometry.n))
        for i, c in enumerate(charts[:count]):
            pts[i :: len(charts)] = c._map(c.lo + (c.hi - c.lo) * draws[i :: len(charts)], t)
        pts.flags.writeable = False
        return pts


class ParameterError(ValueError):
    """A geometry builder's parameter is out of its range."""


def _positive(**params: float) -> None:
    """Raise ParameterError unless every named parameter is a positive
    finite number."""
    for key, value in params.items():
        if not (_real(value) and 0 < value < math.inf):  # NaN fails too
            raise ParameterError(f"{key} must be positive and finite, got {value}")


def _norm_level(n: int, radius: float, axes: Optional[Sequence[int]] = None,
                speed: float = 0.0) -> LevelSet:
    """|y| - (R + c t), where y is the point with its coordinates outside
    ``axes`` zeroed (none by default): the sphere |x| = R + c t, or over the
    axes (0, 1) of R^3 the cylinder about the z axis.  With E the identity,
    or the diagonal mask of ``axes``, and yh = y / |y|, the derivatives are
    yh, (E - yh yh) / |y| and the third below.  The gradient does not depend
    on t: the level moves along its normals."""
    mask = None if axes is None else np.isin(np.arange(n), axes).astype(float)
    eye = np.eye(n) if mask is None else np.diag(mask)

    def coords(X):
        return X if mask is None else X * mask

    def unit(X):
        y = coords(X)
        r = _norm(y)[..., None]
        return y / r, r

    def value(X, t):
        return _norm(coords(X)) - (radius + speed * t)

    def gradient(X, t):
        return unit(X)[0]

    def hessian(X, t):
        yh, r = unit(X)
        return (eye - _outer(yh, yh, X.ndim - 1)) / r[..., None]

    def third(X, t):
        # d_k of (E - yh yh^T) / r: 3 yh yh yh minus the three placements of E yh, over r^2
        yh, r = unit(X)
        eye_yh = np.einsum("ab,...k->...abk", eye, yh)
        sym = eye_yh + np.moveaxis(eye_yh, -1, -3) + np.moveaxis(eye_yh, -1, -2)
        return (3.0 * np.einsum("...a,...b,...k->...abk", yh, yh, yh) - sym) / (r**2)[..., None, None]

    return LevelSet._batched(value, gradient, hessian, third=third, static_gradient=True)


def _vec(U, *entries):
    """Points (..., len(entries)) from entries that are arrays over the
    batch of parameter points U (..., p) or numbers."""
    out = np.empty(U.shape[:-1] + (len(entries),))
    for i, e in enumerate(entries):
        out[..., i] = e
    return out


def _mat(U, *rows):
    """Jacobians (..., len(rows), p) from rows of entries, as in ``_vec``."""
    out = np.empty(U.shape[:-1] + (len(rows), len(rows[0])))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            out[..., i, j] = e
    return out


def _revolution_chart(profile, hi: float, sides: Sequence[Tuple[int, int]] = (), *,
                      name: str) -> Chart:
    """The surface of revolution (u, phi) -> (rho cos phi, rho sin phi, z)
    about the z axis, for u in [0, hi] and phi in [0, 2 pi].  The builtin
    states only its profile: ``profile(u, t)`` gives rho, d rho/du, z and
    dz/du over a batch of u."""

    def mapping(U, t):
        rho, _, z, _ = profile(U[..., 0], t)
        ph = U[..., 1]
        return _vec(U, rho * np.cos(ph), rho * np.sin(ph), z)

    def jacobian(U, t):
        rho, drho, _, dz = profile(U[..., 0], t)
        cp, sp = np.cos(U[..., 1]), np.sin(U[..., 1])
        return _mat(U, (drho * cp, -rho * sp), (drho * sp, rho * cp), (dz, 0.0))

    return Chart._batched([0.0, 0.0], [hi, TWO_PI], mapping, jacobian,
                          boundary_sides=sides, name=name)


def _sphere_chart(radius, theta_hi=math.pi, sides=(), rate=0.0):
    """The polar chart of the sphere of radius R + rate t, down to the
    polar angle theta_hi."""

    def profile(th, t):
        r = radius + rate * t
        st, ct = np.sin(th), np.cos(th)
        return r * st, r * ct, r * ct, -r * st

    return _revolution_chart(profile, theta_hi, sides, name="polar")


def _arc_chart(radius: float, *lift: float, hi: float = TWO_PI,
               sides: Sequence[Tuple[int, int]] = (), name: str = "angle") -> Chart:
    """The arc u -> (R cos u, R sin u, s_1 u, s_2 u, ...) for u in [0, hi],
    one ambient coordinate s_i u for each lift slope s_i."""

    def mapping(U, t):
        u = U[..., 0]
        return _vec(U, radius * np.cos(u), radius * np.sin(u), *(s * u for s in lift))

    def jacobian(U, t):
        u = U[..., 0]
        return _mat(U, (-radius * np.sin(u),), (radius * np.cos(u),), *((s,) for s in lift))

    return Chart._batched([0.0], [hi], mapping, jacobian, boundary_sides=sides, name=name)


def sphere(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    return GeometryCase(
        name="sphere",
        geometry=LevelSetGeometry(3, [_norm_level(3, radius)], name="sphere"),
        charts=[_sphere_chart(radius)],
        params={"radius": radius},
        curvature=lambda X: 2.0 * X / radius**2,
        # for the rotation field l = x e_y - y e_x: lap-cov l = -ricci l, and
        # the energy int |grad-cov l|^2; and the area int 1
        closed_forms={"ricci": 1.0 / radius**2,
                      "rotation_energy": 8.0 * math.pi * radius**2 / 3.0,
                      "area": 4.0 * math.pi * radius**2},
        blurb="round sphere |x| = R in R^3",
    )


def hemisphere(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    return GeometryCase(
        name="hemisphere",
        geometry=LevelSetGeometry(3, [_norm_level(3, radius)], name="hemisphere"),
        charts=[_sphere_chart(radius, theta_hi=0.5 * math.pi, sides=((0, 1),))],
        params={"radius": radius},
        # the boundary and curvature terms of int div_M e_z; then, along e_z,
        # int grad_M z, the force of the stress n (x) n and the Young-Laplace
        # force of the rigid rotation per omega^2
        closed_forms={"ez_boundary": -2.0 * math.pi * radius,
                      "ez_curvature": 2.0 * math.pi * radius,
                      "gradient_z": 4.0 * math.pi * radius**2 / 3.0,
                      "normal_pressure_force": 2.0 * math.pi * radius,
                      "rotation_pressure": math.pi * radius**3 / 2.0},
        blurb="upper half of the sphere, boundary at the equator",
    )


def circle2d(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    return GeometryCase(
        name="circle2d",
        geometry=LevelSetGeometry(2, [_norm_level(2, radius)], name="circle2d"),
        charts=[_arc_chart(radius)],
        params={"radius": radius},
        blurb="circle |x| = R in the plane",
    )


def _radial_xy(X):
    """Distance from the z axis and the unit radial direction in the xy plane."""
    rho = np.hypot(X[..., 0], X[..., 1])
    rh = X / rho[..., None]
    rh[..., 2] = 0.0
    return rho, rh


def _coordinate_plane_level(axis: int = 2) -> LevelSet:
    e = np.zeros(3)
    e[axis] = 1.0
    return LevelSet._batched(
        lambda X, t: X[..., axis],
        lambda X, t: np.broadcast_to(e, X.shape),
        _zeros((3, 3)),
        static_gradient=True,
    )


def circle3d(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    return GeometryCase(
        name="circle3d",
        geometry=LevelSetGeometry(
            3, [_norm_level(3, radius, axes=(0, 1)), _coordinate_plane_level(2)], name="circle3d"),
        charts=[_arc_chart(radius, 0.0)],
        params={"radius": radius},
        curvature=lambda X: X * [1.0, 1.0, 0.0] / radius**2,
        blurb="circle of codimension two: cylinder rho = R meets the plane z = 0",
    )


def plane_disk(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    return GeometryCase(
        name="plane_disk",
        geometry=LevelSetGeometry(3, [_coordinate_plane_level(2)], name="plane_disk"),
        charts=[_revolution_chart(lambda r, t: (r, 1.0, 0.0, 0.0), radius,
                                  sides=((0, 1),), name="disk")],
        params={"radius": radius},
        # the boundary circulation of the rotation field l = x e_y - y e_x
        closed_forms={"circulation": 2.0 * math.pi * radius**2},
        blurb="flat disk of radius R in the plane z = 0",
    )


def torus(major: float = 2.0, minor: float = 0.5) -> GeometryCase:
    if not (_real(major) and _real(minor) and 0 < minor < major < math.inf):
        raise ParameterError(
            f"need 0 < minor < major < inf for a torus, got major={major}, minor={minor}")

    ez = np.array([0.0, 0.0, 1.0])

    def value(X, t):
        s = np.hypot(X[..., 0], X[..., 1])
        return np.hypot(s - major, X[..., 2]) - minor

    def gradient(X, t):
        s, sh = _radial_xy(X)
        a = (s - major)[..., None]
        z = X[..., 2:]
        return (a * sh + z * ez) / np.hypot(a, z)

    def hessian(X, t):
        # distance to the core circle; curvature splits into the azimuthal
        # direction (radius s from the axis) and the in-plane quarter-turn
        s, sh = _radial_xy(X)
        a = (s - major)[..., None]
        z = X[..., 2:]
        w = np.hypot(a, z)
        th = np.stack([-sh[..., 1], sh[..., 0], sh[..., 2]], axis=-1)
        v = (-z * sh + a * ez) / w
        nl = X.ndim - 1
        azimuthal = (a / s[..., None])[..., None] * _outer(th, th, nl)
        return (_outer(v, v, nl) + azimuthal) / w[..., None]

    geom = LevelSetGeometry(
        3, [LevelSet._batched(value, gradient, hessian, static_gradient=True)], name="torus"
    )

    def curvature(X):
        # both principal curvatures along the unit normal: 1/r about the
        # tube, (s - R)/(r s) about the axis
        s, sh = _radial_xy(X)
        a = (s - major)[..., None]
        nhat = (a * sh + X * ez) / minor
        return (1.0 / minor + a / (minor * s[..., None])) * nhat

    def profile(psi, t):
        cs, sn = np.cos(psi), np.sin(psi)
        return major + minor * cs, -minor * sn, minor * sn, minor * cs

    return GeometryCase(
        name="torus",
        geometry=geom,
        charts=[_revolution_chart(profile, TWO_PI, name="torus-angles")],
        params={"major": major, "minor": minor},
        curvature=curvature,
        blurb="torus of revolution around the z axis",
    )


def helix(radius: float = 1.0, pitch: float = 0.25, turns: float = 1.5) -> GeometryCase:
    """Helical arc of codimension two: cylinder rho = a meets b*theta = z.

    The angle is unwrapped near the curve so the second level function is
    smooth inside the tube; its gradient is not unit, which exercises the
    normalization built into the frame construction.
    """
    _positive(radius=radius, pitch=pitch, turns=turns)
    a, b = radius, pitch

    def value(X, t):
        phi = np.arctan2(X[..., 1], X[..., 0])
        theta = phi + TWO_PI * np.round((X[..., 2] / b - phi) / TWO_PI)  # unwrapped angle
        return b * theta - X[..., 2]

    def gradient(X, t):
        rho2 = X[..., 0] ** 2 + X[..., 1] ** 2
        return np.stack([-b * X[..., 1] / rho2, b * X[..., 0] / rho2, -np.ones_like(rho2)],
                        axis=-1)

    def hessian(X, t):
        x0, x1 = X[..., 0], X[..., 1]
        rho4 = (x0**2 + x1**2) ** 2
        hxx = 2 * x0 * x1
        hxy = x1**2 - x0**2
        H = np.zeros(X.shape + (3,))
        H[..., 0, 0], H[..., 0, 1], H[..., 1, 0], H[..., 1, 1] = hxx, hxy, hxy, -hxx
        return b * H / rho4[..., None, None]

    angle = LevelSet._batched(value, gradient, hessian, static_gradient=True)
    geom = LevelSetGeometry(3, [_norm_level(3, a, axes=(0, 1)), angle], name="helix")
    turn = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def along(X):
        v = X @ turn.T
        v[..., 2] = b
        return v, np.linalg.norm(v, axis=-1, keepdims=True)

    def tangent(X, t):
        v, g = along(X)
        return v / g

    def tangent_jac(X, t):
        v, g = along(X)
        dg = X * np.array([1.0, 1.0, 0.0]) / g
        return turn / g[..., None] - _outer(v, dg, X.ndim - 1) / (g**2)[..., None]

    w = _field(3, 1, tangent, grad=tangent_jac, dt=_zeros((3,)), name="helix-tangent")

    return GeometryCase(
        name="helix",
        geometry=geom,
        charts=[_arc_chart(a, b, hi=TWO_PI * turns, sides=((0, 0), (0, 1)), name="arc")],
        params={"radius": radius, "pitch": pitch, "turns": turns},
        velocity=w,
        blurb="open helical arc with endpoint boundary",
    )


def expanding_sphere(radius: float = 1.0, speed: float = 0.1) -> GeometryCase:
    _positive(radius=radius)
    if not (_real(speed) and np.isfinite(speed)):
        raise ParameterError(f"speed must be a finite number, got {speed}")
    level = _norm_level(3, radius, speed=speed)
    geom = LevelSetGeometry(3, [level], name="expanding_sphere")
    # the level's gradient is the outward unit normal
    w = _field(3, 1, lambda X, t: speed * level.gradient(X, t),
               grad=lambda X, t: speed * level.hessian(X, t), dt=_zeros((3,)), name="radial")

    return GeometryCase(
        name="expanding_sphere",
        geometry=geom,
        charts=[_sphere_chart(radius, rate=speed)],
        params={"radius": radius, "speed": speed},
        velocity=w,
        # the rates of the area and of int |grad_M z|^2 at t = 0
        closed_forms={"area_rate": 8.0 * math.pi * radius * speed,
                      "dirichlet_rate_z": 8.0 * math.pi * radius * speed / 3.0},
        blurb="sphere with radius R + c t, material velocity c along the outward normal",
    )


REGISTRY: Dict[str, Callable[..., GeometryCase]] = {
    "sphere": sphere,
    "hemisphere": hemisphere,
    "circle2d": circle2d,
    "circle3d": circle3d,
    "plane_disk": plane_disk,
    "torus": torus,
    "helix": helix,
    "expanding_sphere": expanding_sphere,
}


def get_case(name: str, **params: float) -> GeometryCase:
    """The named case built with ``params``.  A parameter its builder does
    not take, or a value the builder rejects, is a ``ParameterError`` that
    names the geometry."""
    try:
        factory = REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown geometry '{name}' (known: {known})") from None
    takes = inspect.signature(factory).parameters
    unknown = sorted(set(params) - set(takes))
    if unknown:
        raise ParameterError(f"geometry '{name}' has no parameter {', '.join(unknown)} "
                             f"(it takes: {', '.join(takes) or 'none'})")
    try:
        return factory(**params)
    except ParameterError as exc:
        raise ParameterError(f"geometry '{name}': {exc}") from None


def available() -> List[str]:
    return sorted(REGISTRY)
