"""Ready-made geometries with analytic level sets and quadrature atlases.

Every case bundles a LevelSetGeometry (with exact gradients and Hessians),
a chart atlas factory, and where meaningful a distinguished velocity field.
Level functions are signed distances wherever that is cheap to write down,
so the unit-gradient hypothesis of the projector-rate machinery holds.
Level functions, velocity fields and chart mappings are batch-native: they
take points of shape (..., n), or parameter points of shape (..., p), and a
single point is a batch of shape ().  ``GeometryCase.sample_points`` gives
the suites their points as one (count, n) array, mapped with one call per
chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .fields import TensorField, _field, _zeros
from .geometry import LevelSet, LevelSetGeometry, _norm
from .quadrature import Atlas, Chart
from .tensor import _outer

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
    circle3d and torus.  It is None on the others.  ``charts``, the charts
    of the case's atlas, is made once with the case; ``sample_points``
    maps its points with them.
    """

    name: str
    geometry: LevelSetGeometry
    atlas_factory: Callable[[int, int], Atlas]
    params: Dict[str, float] = field(default_factory=dict)
    velocity: Optional[TensorField] = None
    curvature: Optional[Callable[[np.ndarray], np.ndarray]] = None
    blurb: str = ""
    charts: List[Chart] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.charts = self.atlas().charts

    def atlas(self, order: int = 16, panels: int = 2) -> Atlas:
        return self.atlas_factory(order, panels)

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
    """Raise ParameterError unless every named parameter is a positive number."""
    for key, value in params.items():
        if not value > 0:  # NaN fails too
            raise ParameterError(f"{key} must be positive, got {value}")


def _sphere_level(radius: float, speed: float = 0.0) -> LevelSet:
    def value(X, t):
        return _norm(X) - (radius + speed * t)

    def gradient(X, t):
        return X / _norm(X)[..., None]

    def hessian(X, t):
        r = _norm(X)[..., None]
        xh = X / r
        return (np.eye(X.shape[-1]) - _outer(xh, xh, X.ndim - 1)) / r[..., None]

    def third(X, t):
        # d_k of (I - xh xh^T) / r: 3 xh xh xh minus the three placements of I xh, over r^2
        r = _norm(X)[..., None]
        xh = X / r
        eye_xh = np.einsum("ab,...k->...abk", np.eye(X.shape[-1]), xh)
        sym = eye_xh + np.moveaxis(eye_xh, -1, -3) + np.moveaxis(eye_xh, -1, -2)
        return (3.0 * np.einsum("...a,...b,...k->...abk", xh, xh, xh) - sym) / (r**2)[..., None, None]

    # the gradient does not depend on t: the sphere moves along its normals
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


def _sphere_chart(radius, order, panels, theta_hi=math.pi, sides=(), rate=0.0):
    def mapping(U, t):
        r = radius + rate * t
        th, ph = U[..., 0], U[..., 1]
        return _vec(
            U, r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph), r * np.cos(th)
        )

    def jacobian(U, t):
        r = radius + rate * t
        th, ph = U[..., 0], U[..., 1]
        st, ct = np.sin(th), np.cos(th)
        sp, cp = np.sin(ph), np.cos(ph)
        return _mat(U, (r * ct * cp, -r * st * sp), (r * ct * sp, r * st * cp), (-r * st, 0.0))

    return Chart._batched(
        lo=[0.0, 0.0],
        hi=[theta_hi, TWO_PI],
        mapping=mapping,
        jacobian=jacobian,
        periodic=(False, True),
        order=order,
        panels=panels,
        boundary_sides=sides,
        name="polar",
    )


def sphere(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    geom = LevelSetGeometry(3, [_sphere_level(radius)], name="sphere")
    return GeometryCase(
        name="sphere",
        geometry=geom,
        atlas_factory=lambda order=16, panels=2: Atlas(
            geom, [_sphere_chart(radius, order, panels)], name="sphere"
        ),
        params={"radius": radius},
        curvature=lambda X: 2.0 * X / radius**2,
        blurb="round sphere |x| = R in R^3",
    )


def hemisphere(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    geom = LevelSetGeometry(3, [_sphere_level(radius)], name="hemisphere")
    return GeometryCase(
        name="hemisphere",
        geometry=geom,
        atlas_factory=lambda order=16, panels=2: Atlas(
            geom,
            [_sphere_chart(radius, order, panels, theta_hi=0.5 * math.pi, sides=((0, 1),))],
            name="hemisphere",
        ),
        params={"radius": radius},
        blurb="upper half of the sphere, boundary at the equator",
    )


def circle2d(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    geom = LevelSetGeometry(2, [_sphere_level(radius)], name="circle2d")

    def factory(order=16, panels=2):
        chart = Chart._batched(
            lo=[0.0],
            hi=[TWO_PI],
            mapping=lambda U, t: radius * _vec(U, np.cos(U[..., 0]), np.sin(U[..., 0])),
            jacobian=lambda U, t: radius * _mat(U, (-np.sin(U[..., 0]),), (np.cos(U[..., 0]),)),
            periodic=(True,),
            order=order,
            panels=panels,
            name="angle",
        )
        return Atlas(geom, [chart], name="circle2d")

    return GeometryCase(
        name="circle2d",
        geometry=geom,
        atlas_factory=factory,
        params={"radius": radius},
        blurb="circle |x| = R in the plane",
    )


def _radial_xy(X):
    """Distance from the z axis and the unit radial direction in the xy plane."""
    rho = np.hypot(X[..., 0], X[..., 1])
    rh = X / rho[..., None]
    rh[..., 2] = 0.0
    return rho, rh


def _cylinder_level(radius: float) -> LevelSet:
    pxy = np.diag([1.0, 1.0, 0.0])

    def value(X, t):
        return np.hypot(X[..., 0], X[..., 1]) - radius

    def gradient(X, t):
        return _radial_xy(X)[1]

    def hessian(X, t):
        rho, rh = _radial_xy(X)
        return (pxy - _outer(rh, rh, X.ndim - 1)) / rho[..., None, None]

    return LevelSet._batched(value, gradient, hessian, static_gradient=True)


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
    geom = LevelSetGeometry(
        3, [_cylinder_level(radius), _coordinate_plane_level(2)], name="circle3d"
    )

    def factory(order=16, panels=2):
        chart = Chart._batched(
            lo=[0.0],
            hi=[TWO_PI],
            mapping=lambda U, t: radius * _vec(U, np.cos(U[..., 0]), np.sin(U[..., 0]), 0.0),
            jacobian=lambda U, t: radius * _mat(
                U, (-np.sin(U[..., 0]),), (np.cos(U[..., 0]),), (0.0,)
            ),
            periodic=(True,),
            order=order,
            panels=panels,
            name="angle",
        )
        return Atlas(geom, [chart], name="circle3d")

    return GeometryCase(
        name="circle3d",
        geometry=geom,
        atlas_factory=factory,
        params={"radius": radius},
        curvature=lambda X: X * [1.0, 1.0, 0.0] / radius**2,
        blurb="circle of codimension two: cylinder rho = R meets the plane z = 0",
    )


def plane_disk(radius: float = 1.0) -> GeometryCase:
    _positive(radius=radius)
    geom = LevelSetGeometry(3, [_coordinate_plane_level(2)], name="plane_disk")

    def factory(order=16, panels=2):
        def mapping(U, t):
            r, ph = U[..., 0], U[..., 1]
            return _vec(U, r * np.cos(ph), r * np.sin(ph), 0.0)

        def jacobian(U, t):
            r, ph = U[..., 0], U[..., 1]
            return _mat(
                U, (np.cos(ph), -r * np.sin(ph)), (np.sin(ph), r * np.cos(ph)), (0.0, 0.0)
            )

        chart = Chart._batched(
            lo=[0.0, 0.0],
            hi=[radius, TWO_PI],
            mapping=mapping,
            jacobian=jacobian,
            periodic=(False, True),
            order=order,
            panels=panels,
            boundary_sides=((0, 1),),
            name="disk",
        )
        return Atlas(geom, [chart], name="plane_disk")

    return GeometryCase(
        name="plane_disk",
        geometry=geom,
        atlas_factory=factory,
        params={"radius": radius},
        blurb="flat disk of radius R in the plane z = 0",
    )


def torus(major: float = 2.0, minor: float = 0.5) -> GeometryCase:
    if not 0 < minor < major:
        raise ParameterError(f"need 0 < minor < major for a torus, got major={major}, minor={minor}")

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

    def factory(order=16, panels=2):
        def mapping(U, t):
            psi, phi = U[..., 0], U[..., 1]
            s = major + minor * np.cos(psi)
            return _vec(U, s * np.cos(phi), s * np.sin(phi), minor * np.sin(psi))

        def jacobian(U, t):
            psi, phi = U[..., 0], U[..., 1]
            s = major + minor * np.cos(psi)
            return _mat(
                U,
                (-minor * np.sin(psi) * np.cos(phi), -s * np.sin(phi)),
                (-minor * np.sin(psi) * np.sin(phi), s * np.cos(phi)),
                (minor * np.cos(psi), 0.0),
            )

        chart = Chart._batched(
            lo=[0.0, 0.0],
            hi=[TWO_PI, TWO_PI],
            mapping=mapping,
            jacobian=jacobian,
            periodic=(True, True),
            order=order,
            panels=panels,
            name="torus-angles",
        )
        return Atlas(geom, [chart], name="torus")

    return GeometryCase(
        name="torus",
        geometry=geom,
        atlas_factory=factory,
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

    geom = LevelSetGeometry(
        3, [_cylinder_level(a), LevelSet._batched(value, gradient, hessian, static_gradient=True)],
        name="helix",
    )
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

    theta_max = TWO_PI * turns

    def factory(order=16, panels=2):
        chart = Chart._batched(
            lo=[0.0],
            hi=[theta_max],
            mapping=lambda U, t: _vec(
                U, a * np.cos(U[..., 0]), a * np.sin(U[..., 0]), b * U[..., 0]
            ),
            jacobian=lambda U, t: _mat(
                U, (-a * np.sin(U[..., 0]),), (a * np.cos(U[..., 0]),), (b,)
            ),
            order=order,
            panels=panels,
            boundary_sides=((0, 0), (0, 1)),
            name="arc",
        )
        return Atlas(geom, [chart], name="helix")

    return GeometryCase(
        name="helix",
        geometry=geom,
        atlas_factory=factory,
        params={"radius": radius, "pitch": pitch, "turns": turns},
        velocity=w,
        blurb="open helical arc with endpoint boundary",
    )


def expanding_sphere(radius: float = 1.0, speed: float = 0.25) -> GeometryCase:
    _positive(radius=radius)
    if not np.isfinite(speed):
        raise ParameterError(f"speed must be a finite number, got {speed}")
    geom = LevelSetGeometry(3, [_sphere_level(radius, speed)], name="expanding_sphere")

    def vel(X, t):
        return speed * X / np.linalg.norm(X, axis=-1, keepdims=True)

    def vel_jac(X, t):
        r = np.linalg.norm(X, axis=-1, keepdims=True)
        xh = X / r
        return speed * (np.eye(3) - _outer(xh, xh, X.ndim - 1)) / r[..., None]

    w = _field(3, 1, vel, grad=vel_jac, dt=_zeros((3,)), name="radial")

    return GeometryCase(
        name="expanding_sphere",
        geometry=geom,
        atlas_factory=lambda order=16, panels=2: Atlas(
            geom, [_sphere_chart(radius, order, panels, rate=speed)], name="expanding_sphere"
        ),
        params={"radius": radius, "speed": speed},
        velocity=w,
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
    try:
        factory = REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown geometry '{name}' (known: {known})") from None
    return factory(**params)


def available() -> List[str]:
    return sorted(REGISTRY)
