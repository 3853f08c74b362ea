"""Named verification suites: each one turns a family of identities into
check records with pinned tolerances.

A suite is data: a setup that builds its seeded inputs (cases, atlases,
fields) and returns an ordered table of ``Check`` rows.  One runner,
``Suite.__call__``, owns the policies every suite shares:

- Rows that exercise derivative machinery are per-mode: they run once in
  the configured finite-difference mode and once with analytic frames and
  field gradients, so a report shows both the discretization floor and the
  exact algebra.  Their ids end in ``.<mode>``.  Under ``--fd analytic``
  they run once.  Every other row runs once, in the configured mode.
- A row's tolerance is one value or an (fd, analytic) pair; a ``--tol``
  entry for the full check id replaces it.
- A suite runs on its default geometry unless ``--geometry`` names one it
  accepts.  A single suite rejects any other geometry with ``SuiteError``;
  under ``all`` such a suite falls back to its default geometry.  Suites
  built on synthetic frames ignore ``--geometry``.
- Every record of a suite that has a geometry names the case it ran on:
  the suite's geometry, or the case a row pins (``on``), or ``synthetic``
  for rows on random frames.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import groupby, product
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .builtins import GeometryCase, _radial_xy, get_case
from .euler import (
    _flux_field,
    convective_identity_residual,
    divergence_form_residual,
    extrinsic_momentum,
    force_balance,
    incompressibility,
    momentum_residual,
    rigid_rotation_state,
    tangency,
    tangent_velocity_identity,
)
from .evolving import (
    dirichlet_rate_fd,
    dirichlet_rate_terms,
    material_consistency,
    reynolds_residual,
)
from .fields import (
    TensorField,
    _field,
    _zeros,
    constant,
    coordinate,
    random_polynomial,
    tf_outer,
    tf_scale,
)
from .geometry import _gram_schmidt, _norm, frame_from_normals, project
from .operators import (
    DiffConfig,
    cartesian_gradient,
    covariant_laplacian,
    divergence,
    laplacian,
    material_derivative,
    mean_curvature,
    normal_field,
    perp_field,
    project_field,
    projector_field,
    projector_rate,
    rotated_gradient,
    shape_operator,
    submanifold_gradient,
    surface_curl,
)
from .quadrature import (
    IdentityResult,
    advected_atlas,
    circulation_residual,
    gradient_residual,
    integrate,
    integrate_boundary,
    integration_by_parts,
    path_ftc_residual,
    stokes_residual,
    weak_form,
)
from .report import CheckRecord, VerificationReport, make_bound_check, make_check, make_floor_check
from .stress import (
    cross_stress,
    force_residual,
    generator_identity,
    normal_at_tangential,
    omega_pairings,
    stress_force,
    stress_torque,
    torque_equivalence,
    transpose_field,
)
from .tensor import Tensor, _dot, _outer, dot, frobenius, outer, random_tensor, scalar

__all__ = [
    "SuiteConfig",
    "SuiteError",
    "SUITE_NAMES",
    "run_suite",
    "suite_names",
]


class SuiteError(ValueError):
    """Raised for an unknown suite or an unsupported suite/geometry pair."""


@dataclass
class SuiteConfig:
    suite: str = "all"
    geometry: Optional[str] = None
    geom_params: Dict[str, float] = field(default_factory=dict)
    order: int = 12
    panels: int = 2
    fd: str = "fd2"
    hx: float = 5e-6
    ht: float = 1e-5
    seed: int = 0
    tol: Dict[str, float] = field(default_factory=dict)

    def diff(self, mode: Optional[str] = None) -> DiffConfig:
        return DiffConfig(mode=mode or self.fd, hx=self.hx, ht=self.ht)

    def tolerance(self, check_id: str, default: float) -> float:
        return float(self.tol.get(check_id, default))

    def echo(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "geometry": self.geometry,
            "geom_params": dict(self.geom_params),
            "order": self.order,
            "panels": self.panels,
            "fd": self.fd,
            "hx": self.hx,
            "ht": self.ht,
            "seed": self.seed,
            "tol": {k: float(v) for k, v in self.tol.items()},
        }


# -- the runner -------------------------------------------------------------------


@dataclass
class Mode:
    """The derivative mode a row runs in, and the results its rows share."""

    name: str
    d: DiffConfig
    shared: Dict[Callable, object] = field(default_factory=dict)


def _shared(fn: Callable[[Mode], object]) -> Callable[[Mode], object]:
    """``fn(mode)``, computed once per mode for every row that asks for it."""

    def get(mode: Mode):
        if fn not in mode.shared:
            mode.shared[fn] = fn(mode)
        return mode.shared[fn]

    return get


@dataclass(frozen=True)
class Check:
    """One row of a suite table.

    ``value(mode)`` returns a number for a ``bound`` (it must not exceed the
    tolerance) or a ``floor`` (it must not fall below it), and an
    ``IdentityResult`` or an ``(lhs, rhs[, pieces])`` tuple for an identity
    judged by its ``rel`` or ``abs`` residual.  Rows with ``when`` false
    are left out of the run.  ``on`` names the case a row runs on when it
    is not the suite's geometry.
    """

    stem: str
    identity: str
    tol: Union[float, Tuple[float, float]]
    value: Callable[[Mode], object]
    kind: str = "bound"
    per_mode: bool = False
    when: bool = True
    on: Optional[str] = None


def _record(cfg: SuiteConfig, row: Check, mode: Mode) -> CheckRecord:
    check_id = row.stem + (f".{mode.name}" if row.per_mode else "")
    tol = row.tol[mode.name == "analytic"] if isinstance(row.tol, tuple) else row.tol
    tol = cfg.tolerance(check_id, tol)
    value = row.value(mode)
    if row.kind == "bound":
        return make_bound_check(check_id, row.identity, value, tol)
    if row.kind == "floor":
        return make_floor_check(check_id, row.identity, value, tol)
    res = value if isinstance(value, IdentityResult) else IdentityResult(*value)
    details = {k: (float(np.linalg.norm(v)) if np.ndim(v) else float(v))
               for k, v in res.pieces.items()}
    return make_check(check_id, row.identity, res.lhs, res.rhs, tol,
                      measure=row.kind, details=details)


@dataclass
class Suite:
    """A suite's setup and the geometries it runs on.

    ``setup(cfg, case)`` builds the seeded inputs and returns the table;
    ``case`` is None for a suite without a geometry.  ``params`` are the
    suite's own parameters for its default geometry.
    """

    setup: Callable[[SuiteConfig, Optional[GeometryCase]], List[Check]]
    geometry: Optional[str] = None
    accepts: Tuple[str, ...] = ()
    params: Dict[str, float] = field(default_factory=dict)

    def case(self, cfg: SuiteConfig) -> Optional[GeometryCase]:
        if self.geometry is None:
            return None
        override = cfg.geometry is not None and (
            cfg.geometry != self.geometry or bool(cfg.geom_params)
        )
        if override and cfg.geometry in self.accepts:
            return get_case(cfg.geometry, **cfg.geom_params)
        if override and cfg.suite != "all":
            raise SuiteError(
                f"geometry '{cfg.geometry}' is not supported here "
                f"(supported: {', '.join(sorted(self.accepts))})"
            )
        return get_case(self.geometry, **self.params)

    def __call__(self, cfg: SuiteConfig) -> List[CheckRecord]:
        case = self.case(cfg)
        rows = self.setup(cfg, case)
        names = [cfg.fd] if cfg.fd == "analytic" else [cfg.fd, "analytic"]
        modes = [Mode(name, cfg.diff(name)) for name in names]
        # rows that run once share results only among themselves
        once = [Mode(cfg.fd, cfg.diff())]
        records: List[CheckRecord] = []
        for per_mode, block in groupby(rows, key=lambda row: row.per_mode):
            block = [row for row in block if row.when]
            for mode in modes if per_mode else once:
                for row in block:
                    record = _record(cfg, row, mode)
                    if case is not None:
                        record.geometry = row.on or case.name
                    records.append(record)
        return records


def _max_norm(values: np.ndarray) -> float:
    """Largest Frobenius norm over the points of a batch of values (k, ...)."""
    return float(np.max(np.linalg.norm(values.reshape(len(values), -1), axis=-1)))


def _synthetic_frame(rng: np.random.Generator, n: int, m: int):
    raw = rng.standard_normal((m, n))
    normals = _gram_schmidt(list(raw), 1e-8)
    return frame_from_normals(normals)


_SPIN = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def _rotation_field(scale: float = 1.0, name: str = "spin") -> TensorField:
    mat = scale * _SPIN
    return _field(
        3,
        1,
        lambda X, t: X @ mat.T,
        grad=constant(3, Tensor(3, mat), name=f"grad({name})"),
        dt=_zeros((3,)),
        name=name,
    )


# -- tensor algebra ---------------------------------------------------------------


def _tensor_algebra(cfg: SuiteConfig, _case) -> List[Check]:
    rng = np.random.default_rng(cfg.seed)
    worst = dict.fromkeys(("insert", "mixed", "assoc", "pairing", "roundtrip"), 0.0)
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(2, 5))
        t = random_tensor(n, q, rng)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)

        left = t.insert_left(u).insert_right(v)
        right = t.insert_right(v).insert_left(u)
        worst["insert"] = max(worst["insert"], float(np.max(np.abs(left.array - right.array))))

        s = random_tensor(n, q - 1, rng)
        big = random_tensor(n, q, rng)
        contracted = np.tensordot(s.array, big.array, axes=(range(q - 1), range(q - 1)))
        worst["mixed"] = max(
            worst["mixed"], abs(float(contracted @ v) - frobenius(s, big.insert_right(v)))
        )

        # associativity of the contraction product needs a rank >= 2 middle
        mid = random_tensor(n, int(rng.integers(2, 4)), rng)
        r = random_tensor(n, int(rng.integers(1, 4)), rng)
        worst["assoc"] = max(
            worst["assoc"],
            float(np.max(np.abs(dot(dot(t, mid), r).array - dot(t, dot(mid, r)).array))),
        )

        m = int(rng.integers(1, n))
        frame = _synthetic_frame(rng, n, m)
        tang = project(frame, random_tensor(n, q, rng))
        worst["pairing"] = max(
            worst["pairing"], abs(frobenius(tang, big) - frobenius(tang, project(frame, big)))
        )

        rebuilt = np.stack([c.array for c in t.components()])
        worst["roundtrip"] = max(worst["roundtrip"], float(np.max(np.abs(rebuilt - t.array))))

    return [
        Check("algebra.insertion-commute", "left and right insertion commute",
              1e-12, lambda m: worst["insert"]),
        Check("algebra.mixed-contraction", "(S:T).v = S:(T.v)",
              1e-12, lambda m: worst["mixed"]),
        Check("algebra.dot-associative", "(T o S) o R = T o (S o R)",
              1e-12, lambda m: worst["assoc"]),
        Check("algebra.tangential-pairing", "<S,T> = <S, proj T> for tangential S",
              1e-12, lambda m: worst["pairing"]),
        Check("algebra.component-roundtrip", "stacking components rebuilds the tensor",
              1e-12, lambda m: worst["roundtrip"]),
    ]


# -- projection -------------------------------------------------------------------


def _project_oracle(arr: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Definition of the tangential projection, P in every slot, written as
    the raw sum over all index tuples (independent of the slot passes)."""
    n = P.shape[0]
    q = arr.ndim
    out = np.zeros_like(arr)
    for idx in product(range(n), repeat=q):
        acc = 0.0
        for jdx in product(range(n), repeat=q):
            w = arr[jdx]
            for a in range(q):
                w *= P[idx[a], jdx[a]]
            acc += w
        out[idx] = acc
    return out


def _projection(cfg: SuiteConfig, _case) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 1)
    worst_oracle = worst_idem = worst_slot = worst_kill = worst_grow = 0.0
    for _ in range(60):
        n, m = 3, int(rng.integers(1, 3))
        q = int(rng.integers(1, 4))
        frame = _synthetic_frame(rng, n, m)
        t = random_tensor(n, q, rng)
        pt = project(frame, t)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(pt.array - _project_oracle(t.array, frame.P))))
        )
        worst_idem = max(worst_idem, float(np.max(np.abs(project(frame, pt).array - pt.array))))
        for axis in range(q):
            slot = np.tensordot(pt.array, frame.normals[0], axes=([axis], [0]))
            worst_slot = max(worst_slot, float(np.max(np.abs(slot))))
        worst_grow = max(worst_grow, pt.norm() - t.norm())

        pos = int(rng.integers(0, 3))
        factors = [Tensor(n, rng.standard_normal(n)) for _ in range(3)]
        factors[pos] = Tensor(n, frame.normals[int(rng.integers(0, m))])
        chain = outer(outer(factors[0], factors[1]), factors[2])
        worst_kill = max(worst_kill, project(frame, chain).norm())

    sphere = get_case("sphere", radius=1.3)
    for x in sphere.sample_points(4, seed=cfg.seed):
        frame = sphere.geometry.frame_at(x)
        t = random_tensor(3, 3, rng)
        pt = project(frame, t)
        worst_oracle = max(
            worst_oracle, float(np.max(np.abs(pt.array - _project_oracle(t.array, frame.P))))
        )

    return [
        Check("projection.oracle", "slotwise projection matches the raw index sum",
              1e-12, lambda m: worst_oracle),
        Check("projection.idempotent", "projecting twice changes nothing",
              1e-12, lambda m: worst_idem),
        Check("projection.kills-normal-slots", "any normal slot contracts to zero",
              1e-12, lambda m: worst_slot),
        Check("projection.annihilates-normal-factors",
              "outer chains with a normal factor project to zero", 1e-12, lambda m: worst_kill),
        Check("projection.non-expansive", "projection never grows the Frobenius norm",
              1e-15, lambda m: worst_grow),
    ]


# -- differential identities ------------------------------------------------------


def _sphere_curvature(case: GeometryCase):
    r2 = case.params["radius"] ** 2
    return lambda X: 2.0 * X / r2


def _circle_curvature(case: GeometryCase):
    r2 = case.params["radius"] ** 2
    return lambda X: X * [1.0, 1.0, 0.0] / r2


def _torus_curvature(case: GeometryCase):
    major, minor = case.params["major"], case.params["minor"]

    def kappa(X):
        s, shat = _radial_xy(X)
        a = (s - major)[..., None]
        nhat = (a * shat + X * [0.0, 0.0, 1.0]) / minor
        return (1.0 / minor + a / (minor * s[..., None])) * nhat

    return kappa


_CURVATURE_FORMS = {
    "sphere": _sphere_curvature,
    "circle3d": _circle_curvature,
    "torus": _torus_curvature,
}


def _curvature_error(name: str, d: DiffConfig, seed: int) -> float:
    """Worst relative error of the mean curvature vector on a pinned case."""
    pinned = get_case(name)
    points = pinned.sample_points(4, seed=seed)
    want = _CURVATURE_FORMS[name](pinned)(points)
    got = mean_curvature(pinned.geometry, d).values(points)
    rel = np.linalg.norm(got - want, axis=-1) / np.maximum(1.0, np.linalg.norm(want, axis=-1))
    return float(np.max(rel))


def _differential(cfg: SuiteConfig, case: GeometryCase) -> List[Check]:
    geom = case.geometry
    rng = np.random.default_rng(cfg.seed + 2)
    points = case.sample_points(5, seed=cfg.seed)
    f = random_polynomial(3, 0, rng, degree=2)
    g = random_polynomial(3, 0, rng, degree=2)
    u0 = random_polynomial(3, 1, rng, degree=2)

    gf = _shared(lambda m: submanifold_gradient(f, geom, m.d))
    ut = _shared(lambda m: project_field(u0, geom, name="Pu"))
    pf_u = _shared(lambda m: perp_field(ut(m), geom, m.d))

    def product_rule(m):
        fg = _field(
            3,
            0,
            lambda X, t: f.values(X, t) * g.values(X, t),
            grad=lambda X, t: (
                f.values(X, t)[..., None] * g.gradient_values(X, t)
                + g.values(X, t)[..., None] * f.gradient_values(X, t)
            ),
            name="fg",
        )
        gfg = submanifold_gradient(fg, geom, m.d)
        gg = submanifold_gradient(g, geom, m.d)
        return _max_norm(
            gfg.values(points)
            - f.values(points)[:, None] * gg.values(points)
            - g.values(points)[:, None] * gf(m).values(points)
        )

    def divergence_product(m):
        fu = _field(
            3,
            1,
            lambda X, t: f.values(X, t)[..., None] * u0.values(X, t),
            grad=lambda X, t: (
                f.values(X, t)[..., None, None] * u0.gradient_values(X, t)
                + _outer(u0.values(X, t), f.gradient_values(X, t), X.ndim - 1)
            ),
            name="fu",
        )
        divfu = divergence(fu, geom, m.d)
        divu = divergence(u0, geom, m.d)
        return _max_norm(
            divfu.values(points)
            - f.values(points) * divu.values(points)
            - _dot(gf(m).values(points), u0.values(points), 1)
        )

    def gauss_split(m):
        frame = geom.frame_at(points)
        full = submanifold_gradient(ut(m), geom, m.d).values(points)
        u = ut(m).values(points)
        normal_part = sum(
            _outer(frame.normals[:, i], _dot(u, shape_operator(geom, i, m.d).values(points), 1), 1)
            for i in range(geom.m)
        )
        return _max_norm(full - (frame.P @ full @ frame.P - normal_part))

    def perp_involution(m):
        pf_uu = perp_field(pf_u(m), geom, m.d)
        return _max_norm(pf_uu.values(points) + ut(m).values(points))

    def perp_antisymmetry(m):
        vt = project_field(random_polynomial(3, 1, rng, degree=1), geom, name="Pv")
        pf_v = perp_field(vt, geom, m.d)
        return _max_norm(
            _dot(pf_u(m).values(points), vt.values(points), 1)
            + _dot(ut(m).values(points), pf_v.values(points), 1)
        )

    def rotated_orthogonal(m):
        rg = rotated_gradient(f, geom, m.d)
        return _max_norm(_dot(rg.values(points), gf(m).values(points), 1))

    def laplacians_agree(m):
        lap = laplacian(f, geom, m.d)
        clap = covariant_laplacian(f, geom, m.d)
        return _max_norm(lap.values(points) - clap.values(points))

    surface = geom.n - geom.m == 2
    return [
        Check("diff.product-rule", "grad_M(fg) = f grad_M g + g grad_M f",
              (1e-8, 1e-12), product_rule, per_mode=True),
        Check("diff.divergence-product", "div_M(f u) = f div_M u + grad_M f . u",
              (1e-8, 1e-12), divergence_product, per_mode=True),
        Check("diff.gauss-split", "grad_M u = cov grad u - sum_i n_i (x) B_i(u) for tangential u",
              (1e-5, 1e-8), gauss_split, per_mode=True),
        Check("diff.perp-involution", "applying the quarter turn twice negates a tangent vector",
              1e-10, perp_involution, per_mode=True, when=surface),
        Check("diff.perp-antisymmetry", "u-perp . v = -u . v-perp on the tangent plane",
              1e-10, perp_antisymmetry, per_mode=True, when=surface),
        Check("diff.rotated-gradient-orthogonal",
              "the rotated gradient is orthogonal to the gradient",
              (1e-8, 1e-10), rotated_orthogonal, per_mode=True, when=surface),
        Check("diff.laplacian-scalar-agree", "both Laplacians coincide on scalars",
              1e-10, laplacians_agree, per_mode=True),
        *(
            Check(f"diff.curvature-{name}", "mean curvature vector matches the closed form",
                  (1e-5, 1e-9), lambda m, name=name: _curvature_error(name, m.d, cfg.seed),
                  per_mode=True, on=name)
            for name in _CURVATURE_FORMS
        ),
    ]


# -- integral identities ----------------------------------------------------------


def _stokes(cfg: SuiteConfig, case: GeometryCase) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 3)
    hemi = get_case("hemisphere").atlas(cfg.order, cfg.panels)
    sphere = get_case("sphere").atlas(cfg.order, cfg.panels)
    generic = case.atlas(cfg.order, cfg.panels)
    helix = get_case("helix")
    arc = helix.atlas(cfg.order, cfg.panels)
    ez = constant(3, Tensor(3, np.array([0.0, 0.0, 1.0])), name="e_z")

    ez_res = _shared(lambda m: stokes_residual(hemi, ez, m.d))
    z_res = _shared(lambda m: gradient_residual(hemi, coordinate(3, 2), m.d))

    def path_theorem(m):
        return max(
            path_ftc_residual(arc, random_polynomial(3, q, rng, degree=2), helix.velocity,
                              m.d).rel_residual
            for q in (0, 1, 2)
        )

    return [
        Check("stokes.hemisphere-ez",
              "int div_M e_z = boundary + curvature terms on the upper hemisphere",
              1e-6, ez_res, kind="rel", on="hemisphere"),
        Check("stokes.hemisphere-ez-boundary", "the equator circulation term of e_z is -2 pi",
              1e-6, lambda m: (float(ez_res(m).pieces["boundary"]), -2.0 * math.pi),
              kind="rel", on="hemisphere"),
        Check("stokes.hemisphere-ez-curvature", "the curvature term of e_z is +2 pi",
              1e-6, lambda m: (float(ez_res(m).pieces["curvature"]), 2.0 * math.pi),
              kind="rel", on="hemisphere"),
        Check("stokes.closed-sphere",
              "every term of the divergence identity vanishes on a closed sphere",
              1e-8, lambda m: stokes_residual(sphere, _rotation_field(), m.d).abs_residual,
              on="sphere"),
        Check("stokes.rank1-generic", "divergence identity for a random covector field",
              1e-6, lambda m: stokes_residual(generic, random_polynomial(3, 1, rng, degree=2),
                                              m.d),
              kind="rel"),
        Check("stokes.rank2", "divergence identity for a random rank-2 field",
              1e-6, lambda m: stokes_residual(hemi, random_polynomial(3, 2, rng, degree=2), m.d),
              kind="rel", on="hemisphere"),
        Check("stokes.gradient-corollary", "int grad_M f = boundary + curvature terms, f = z",
              1e-6, z_res, kind="rel", on="hemisphere"),
        Check("stokes.gradient-corollary-value",
              "int grad_M z over the hemisphere is 4 pi / 3 vertically",
              1e-6, lambda m: (float(np.asarray(z_res(m).lhs)[2]), 4.0 * math.pi / 3.0),
              kind="rel", on="hemisphere"),
        Check("stokes.integration-by-parts",
              "int S : div_M T + int T : grad_M S balances the boundary terms",
              1e-5, lambda m: integration_by_parts(
                  hemi,
                  random_polynomial(3, 1, rng, degree=1),
                  random_polynomial(3, 2, rng, degree=2),
                  m.d,
              ),
              kind="rel", on="hemisphere"),
        Check("stokes.path-gradient-theorem",
              "line integral of the tangential derivative matches endpoint values",
              1e-6, path_theorem, on="helix"),
    ]


def _curl(cfg: SuiteConfig, case: GeometryCase) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 4)
    spin = _rotation_field()
    disk = get_case("plane_disk")
    disk_atlas = disk.atlas(cfg.order, cfg.panels)
    sph = get_case("sphere")
    f = random_polynomial(3, 0, rng, degree=2)

    def plane_uniform(m):
        curl = surface_curl(spin, disk.geometry, m.d)
        return _max_norm(curl.values(disk.sample_points(4, seed=cfg.seed)) - 2.0)

    def curl_of_gradient(m):
        cg = surface_curl(submanifold_gradient(f, sph.geometry, m.d), sph.geometry, m.d)
        return _max_norm(cg.values(sph.sample_points(4, seed=cfg.seed)))

    disk_res = _shared(lambda m: circulation_residual(disk_atlas, spin, m.d))

    def gradient_circulation(m):
        sg_disk = submanifold_gradient(f, disk.geometry, m.d)
        circ = integrate_boundary(
            disk_atlas, lambda B, t: _dot(sg_disk.values(B.x, t), B.tangent, 1)
        )
        return abs(float(circ))

    return [
        Check("curl.plane-uniform", "the planar rotation field has constant scalar curl 2",
              1e-8, plane_uniform, per_mode=True, on="plane_disk"),
        Check("curl.curl-of-gradient", "the surface curl of a tangential gradient vanishes",
              (1e-5, 1e-8), curl_of_gradient, per_mode=True, on="sphere"),
        Check("curl.circulation-disk", "int curl u over the disk equals the boundary circulation",
              1e-8, disk_res, kind="rel", on="plane_disk"),
        Check("curl.circulation-disk-value",
              "the unit-disk circulation of the rotation field is 2 pi",
              1e-8, lambda m: (float(np.asarray(disk_res(m).rhs)), 2.0 * math.pi), kind="rel",
              on="plane_disk"),
        Check("curl.circulation-hemisphere",
              "int curl u over the hemisphere equals the equator circulation",
              1e-6, lambda m: circulation_residual(
                  get_case("hemisphere").atlas(cfg.order, cfg.panels), spin, m.d),
              kind="rel", on="hemisphere"),
        Check("curl.gradient-circulation", "a tangential gradient has zero boundary circulation",
              1e-8, gradient_circulation, on="plane_disk"),
        Check("curl.circulation-generic", "curl identity on the requested geometry",
              1e-6, lambda m: circulation_residual(case.atlas(cfg.order, cfg.panels), spin, m.d),
              kind="rel", when=case.name != "plane_disk"),
    ]


def _laplacian(cfg: SuiteConfig, case: GeometryCase) -> List[Check]:
    geom = case.geometry
    radius = case.params.get("radius", 1.0)
    unit = abs(radius - 1.0) < 1e-12
    atlas = case.atlas(cfg.order, cfg.panels)
    points = case.sample_points(4, seed=cfg.seed)
    killing_z = _rotation_field(name="killing-z")

    def coordinate_error(m):
        got = np.stack(
            [laplacian(coordinate(3, j), geom, m.d).values(points) for j in range(3)], axis=-1
        )
        want = -2.0 * points / radius**2
        return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))

    def killing(m):
        clap = covariant_laplacian(killing_z, geom, m.d)
        return _max_norm(clap.values(points) + killing_z.values(points))

    @_shared
    def weak(m):
        forcing = tf_scale(covariant_laplacian(killing_z, geom, m.d), -1.0, name="-lap u")
        return weak_form(atlas, killing_z, killing_z, forcing, None, m.d)

    def symmetric(m):
        turn = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        killing_x = _field(
            3,
            1,
            lambda X, t: X @ turn.T,
            grad=lambda X, t: np.broadcast_to(turn, X.shape + (3,)),
            name="killing-x",
        )
        a_uv, _ = weak_form(atlas, killing_z, killing_x, None, None, m.d)
        a_vu, _ = weak_form(atlas, killing_x, killing_z, None, None, m.d)
        return a_uv, a_vu

    return [
        Check("laplacian.coordinate",
              "coordinates are eigenfunctions: lap_M x_j = -(2/R^2) x_j",
              (1e-4, 1e-8), coordinate_error, per_mode=True),
        Check("laplacian.killing", "the rotation field satisfies lap-cov u = -u on the unit sphere",
              (1e-3, 1e-6), killing, per_mode=True, when=unit),
        Check("laplacian.weak-form", "the Dirichlet pairing balances the manufactured load",
              1e-4, weak, kind="abs", per_mode=True, when=unit),
        Check("laplacian.weak-form-energy",
              "int |grad-cov u|^2 = 8 pi / 3 for the unit rotation field",
              (1e-4, 1e-6), lambda m: (weak(m)[0], 8.0 * math.pi / 3.0),
              kind="rel", per_mode=True, when=unit),
        Check("laplacian.weak-symmetric", "the Dirichlet pairing is symmetric",
              1e-10, symmetric, kind="abs", when=unit),
        Check("laplacian.weak-coercive", "the Dirichlet pairing is nonnegative on the diagonal",
              -1e-12, lambda m: weak_form(atlas, killing_z, killing_z, None, None, m.d)[0],
              kind="floor", when=unit),
    ]


# -- applications -----------------------------------------------------------------


def _euler(cfg: SuiteConfig, case: GeometryCase) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 5)
    geom = case.geometry
    atlas = case.atlas(cfg.order, cfg.panels)
    points = case.sample_points(4, seed=cfg.seed)
    state = rigid_rotation_state(geom, omega=1.3)
    hemi = get_case("hemisphere")
    hemi_atlas = hemi.atlas(cfg.order, cfg.panels)
    hemi_state = rigid_rotation_state(hemi.geometry, omega=1.3)

    def flux_total(m):
        divq = divergence(_flux_field(state), geom, m.d)
        total = integrate(atlas, lambda X, t: _dot(geom.frame_at(X, t).P, divq.values(X, t), 1))
        return float(np.linalg.norm(np.asarray(total)))

    balance = _shared(lambda m: force_balance(hemi_atlas, hemi_state, m.d))

    def scaled_balance(m):
        fb = balance(m)
        piece_scale = max(float(np.linalg.norm(np.asarray(v))) for v in fb.pieces.values())
        return np.asarray(fb.lhs) / piece_scale, np.zeros(3), fb.pieces

    return [
        Check("euler.tangency", "the rotation field is tangential to the surface",
              1e-12, lambda m: _max_norm(tangency(state, points))),
        Check("euler.momentum", "steady state: du/dt + (grad-cov u).u + grad_M p = 0",
              (1e-5, 1e-8), lambda m: _max_norm(momentum_residual(state, points, 0.0, m.d)),
              per_mode=True),
        Check("euler.divergence-form", "steady state: du/dt + proj div_M(u (x) u + p P) = 0",
              (1e-5, 1e-8),
              lambda m: _max_norm(divergence_form_residual(state, points, 0.0, m.d)),
              per_mode=True),
        Check("euler.convective-identity",
              "(grad-cov u).u = proj div_M(u (x) u) for divergence-free u",
              (1e-5, 1e-8),
              lambda m: _max_norm(convective_identity_residual(state, points, 0.0, m.d)),
              per_mode=True),
        Check("euler.incompressible", "the rotation field is surface divergence free",
              (1e-8, 1e-10), lambda m: _max_norm(incompressibility(state, points, 0.0, m.d)),
              per_mode=True),
        Check("euler.flux-conservation",
              "the projected momentum flux integrates to zero on a closed surface",
              1e-6, flux_total, per_mode=True),
        Check("euler.momentum-integral",
              "the extrinsic momentum of the rotation field vanishes by symmetry",
              1e-8, lambda m: float(np.linalg.norm(extrinsic_momentum(atlas, state.velocity))),
              per_mode=True),
        Check("euler.tangent-velocity", "int P u = -int div_M(P u) x + boundary flux of positions",
              (1e-6, 1e-8), lambda m: tangent_velocity_identity(
                  hemi_atlas, random_polynomial(3, 1, rng, degree=2), m.d),
              kind="rel", per_mode=True, on="hemisphere"),
        Check("euler.force-balance", "pressure, boundary reaction and centripetal forces cancel",
              1e-6, scaled_balance, kind="abs", per_mode=True, on="hemisphere"),
        Check("euler.force-balance-pressure",
              "the Young-Laplace force on the rotating hemisphere is w^2 pi / 2",
              1e-6, lambda m: (float(np.asarray(balance(m).pieces["young_laplace"])[2]),
                               1.3**2 * math.pi / 2.0),
              kind="rel", per_mode=True, on="hemisphere"),
    ]


def _stress(cfg: SuiteConfig, case: GeometryCase) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 6)
    atlas = case.atlas(cfg.order, cfg.panels)
    sphere = get_case("sphere")
    sph_atlas = sphere.atlas(cfg.order, cfg.panels)
    sigma = random_polynomial(3, 2, rng, degree=2)
    planes = [(0, 1), (0, 2), (1, 2)]
    pts = sphere.sample_points(5, seed=cfg.seed)
    frame = sphere.geometry.frame_at(pts)

    xs = _shared(lambda m: cross_stress(sphere.geometry))

    def normal_pressure_force(m):
        hemi = get_case("hemisphere")
        nn = tf_outer(normal_field(hemi.geometry), normal_field(hemi.geometry), name="nn")
        force = stress_force(hemi.atlas(cfg.order, cfg.panels), nn, m.d)
        return force, np.array([0.0, 0.0, 2.0 * math.pi])

    def divfree(m):
        div_bar = divergence(transpose_field(xs(m)), sphere.geometry, m.d)
        return _max_norm(div_bar.values(sphere.sample_points(4, seed=cfg.seed)))

    @_shared
    def cut_response(m):
        sig = xs(m).values(pts)
        pairings = np.abs(list(omega_pairings(sig, frame).values()))
        return float(np.max(normal_at_tangential(sig, frame))), float(np.max(pairings))

    def contrapositive(m):
        pw = _dot(frame.P, rng.standard_normal((len(pts), 3)), 1)
        sig = _outer(pw, frame.normals[:, 0], 1)
        return float(np.max(np.abs(normal_at_tangential(sig, frame) - _norm(pw))))

    def constrained_family(m):
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, n))
            frame = _synthetic_frame(rng, n, k)
            sig = float(rng.standard_normal()) * frame.P
            for i in range(k):
                sig = sig + np.outer(frame.normals[i], rng.standard_normal(n))
            sig = sig + frame.P @ rng.standard_normal((n, n)) @ frame.P
            worst = max(worst, normal_at_tangential(sig, frame))
        return worst

    return [
        Check("stress.force-residual",
              "int div_M sigma-bar equals the boundary-plus-curvature force",
              (1e-6, 1e-8), lambda m: force_residual(atlas, sigma, m.d),
              kind="rel", per_mode=True),
        Check("stress.generator-identity",
              "rotation generators satisfy the product-rule torque identity",
              (1e-6, 1e-8),
              lambda m: max(generator_identity(atlas, sigma, k, m.d).rel_residual for k in planes),
              per_mode=True),
        Check("stress.torque-equivalence",
              "m_K = int l_K . div_M sigma-bar - int omega_K : sigma-bar",
              (1e-5, 1e-8),
              lambda m: max(torque_equivalence(atlas, sigma, k, m.d).rel_residual for k in planes),
              per_mode=True),
        Check("stress.normal-pressure-force",
              "sigma = n (x) n pushes the hemisphere up with force 2 pi",
              1e-8, normal_pressure_force, kind="rel", per_mode=True, on="hemisphere"),
        Check("stress.cross-stress-divfree",
              "the cross stress is pointwise equilibrated in the bulk",
              (1e-6, 1e-8), divfree, per_mode=True, on="sphere"),
        Check("stress.cross-stress-force",
              "the cross stress exerts no net force on the closed sphere",
              1e-10, lambda m: float(np.linalg.norm(stress_force(sph_atlas, xs(m), m.d))),
              per_mode=True, on="sphere"),
        Check("stress.cross-stress-torque",
              "the cross stress exerts no net torque on the closed sphere",
              1e-10, lambda m: max(abs(stress_torque(sph_atlas, xs(m), k, m.d)) for k in planes),
              per_mode=True, on="sphere"),
        Check("stress.cross-stress-tangential",
              "the cross stress sends tangential cuts to tangential tractions",
              1e-12, lambda m: cut_response(m)[0], on="sphere"),
        Check("stress.cross-stress-asymmetric",
              "the cross stress keeps a genuinely antisymmetric tangential part",
              0.5, lambda m: cut_response(m)[1], kind="floor", on="sphere"),
        Check("stress.contrapositive",
              "sigma = (P w) (x) n has normal-at-tangential response |P w|",
              1e-12, contrapositive, on="sphere"),
        Check("stress.constrained-family",
              "pressure-plus-normal-row-plus-tangential stresses stay tangential",
              1e-10, constrained_family, on="synthetic"),
    ]


def _evolving(cfg: SuiteConfig, case: GeometryCase) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 7)
    geom = case.geometry
    radius = case.params["radius"]
    speed = case.params["speed"]
    atlas = case.atlas(max(8, cfg.order - 4), cfg.panels)
    points = case.sample_points(3, seed=cfg.seed)
    w = case.velocity
    spin = 0.7 * _SPIN
    w2 = _field(
        3,
        1,
        lambda X, t: w.values(X, t) + X @ spin.T,
        grad=lambda X, t: w.gradient_values(X, t) + spin,
        dt=_zeros((3,)),
        name="radial+spin",
    )

    def material_path(m):
        advected = advected_atlas(atlas, w2, 0.0, 0.05)
        xs, _ = advected.charts[0].points(0.05)
        return float(np.max(np.abs(geom.level_values(xs[:: max(1, len(xs) // 64)], 0.05))))

    gw2 = _shared(lambda m: cartesian_gradient(w2, m.d))
    cw = _shared(lambda m: projector_rate(geom, w2, m.d))
    f1 = _shared(lambda m: random_polynomial(3, 1, rng, degree=2))
    gf = _shared(lambda m: cartesian_gradient(f1(m), m.d))

    @_shared
    def rank0(m):
        zfield = coordinate(3, 2)
        return dirichlet_rate_terms(atlas, zfield, w, m.d), dirichlet_rate_fd(atlas, zfield, w, m.d)

    def material_normal(m):
        nfield = normal_field(geom)
        dn = material_derivative(nfield, w2, m.d)
        n_gw = _dot(nfield.values(points), gw2(m).values(points), 1)
        return _max_norm(dn.values(points) + n_gw)

    def projector_rate_error(m):
        dp = material_derivative(projector_field(geom), w2, m.d)
        return _max_norm(dp.values(points) + 2.0 * cw(m).values(points))

    def tangential_rate(m):
        return _max_norm(project_field(cw(m), geom).values(points))

    def cartesian_commutator(m):
        lhs = cartesian_gradient(material_derivative(f1(m), w2, m.d), m.d)
        rhs = material_derivative(gf(m), w2, m.d)
        chain = gf(m).values(points) @ gw2(m).values(points)
        return _max_norm(lhs.values(points) - rhs.values(points) - chain)

    def submanifold_commutator(m):
        slhs = submanifold_gradient(material_derivative(f1(m), w2, m.d), geom, m.d)
        srhs = material_derivative(submanifold_gradient(f1(m), geom, m.d), w2, m.d)
        mix = submanifold_gradient(w2, geom, m.d).values(points) + 2.0 * cw(m).values(points)
        chain = gf(m).values(points) @ mix
        return _max_norm(slhs.values(points) - srhs.values(points) - chain)

    def rank0_rate(m):
        terms, fd_rate = rank0(m)
        return terms["total"], fd_rate, {k: v for k, v in terms.items() if k != "total"}

    def rank2_rate(m):
        t2 = project_field(
            constant(3, Tensor(3, np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])), name="ezez"),
            geom, name="P ezez P",
        )
        terms = dirichlet_rate_terms(atlas, t2, w, m.d)
        return terms["total"], dirichlet_rate_fd(atlas, t2, w, m.d)

    return [
        Check("evolve.material-path", "advected chart points stay on the moving surface",
              1e-6, material_path),
        Check("evolve.area-rate",
              "int div_M w equals the growth rate 8 pi R c of the sphere area",
              1e-6, lambda m: (float(integrate(atlas, divergence(w, geom, m.d))),
                               8.0 * math.pi * radius * speed),
              kind="rel", per_mode=True),
        Check("evolve.reynolds-scalar", "transport theorem for the area of the expanding sphere",
              1e-7, lambda m: reynolds_residual(atlas, constant(3, scalar(1.0, 3), name="one"),
                                                w, m.d),
              kind="rel", per_mode=True),
        Check("evolve.reynolds-rank1",
              "transport theorem for a random vector field on the moving sphere",
              1e-5, lambda m: reynolds_residual(atlas, random_polynomial(3, 1, rng, degree=2),
                                                w2, m.d),
              kind="rel", per_mode=True),
        Check("evolve.material-normal", "D n = -n . grad w for advected unit-gradient level sets",
              (1e-6, 1e-8), material_normal, per_mode=True),
        Check("evolve.projector-rate", "D P = -2 C[w] along the flow",
              (1e-5, 1e-7), projector_rate_error, per_mode=True),
        Check("evolve.projector-rate-tangential", "C[w] has no fully tangential part",
              (1e-6, 1e-8), tangential_rate, per_mode=True),
        Check("evolve.commutator-cartesian", "grad(D T) - D(grad T) = grad T o grad w",
              (1e-4, 1e-6), cartesian_commutator, per_mode=True),
        Check("evolve.commutator-submanifold",
              "grad_M(D T) - D(grad_M T) = grad T o (2 C[w] + grad_M w)",
              (1e-4, 1e-6), submanifold_commutator, per_mode=True),
        Check("evolve.dirichlet-rank0",
              "three-term Dirichlet energy rate matches the advected difference",
              1e-4, rank0_rate, kind="rel", per_mode=True),
        Check("evolve.dirichlet-rank0-value",
              "dE/dt = (8 pi / 3) R c for the vertical coordinate",
              1e-5, lambda m: (rank0(m)[0]["total"], 8.0 * math.pi * radius * speed / 3.0),
              kind="rel", per_mode=True),
        Check("evolve.dirichlet-rank2",
              "three-term rate matches the advected difference at rank 2",
              1e-3, rank2_rate, kind="rel", per_mode=True),
        Check("evolve.material-consistency",
              "D T matches a centered difference along RK4 particle paths",
              (1e-5, 1e-8),
              lambda m: float(np.max(material_consistency(f1(m), w2, points, 0.0, m.d))),
              per_mode=True),
    ]


# -- registry and runner ----------------------------------------------------------


_N3_GEOMETRIES = ("sphere", "hemisphere", "torus", "plane_disk", "circle3d", "helix")

SUITES: Dict[str, Callable[[SuiteConfig], List[CheckRecord]]] = {
    "tensor-algebra": Suite(_tensor_algebra),
    "projection": Suite(_projection),
    "differential-identities": Suite(_differential, "sphere", _N3_GEOMETRIES),
    "stokes": Suite(_stokes, "torus", _N3_GEOMETRIES),
    "curl": Suite(_curl, "plane_disk", ("plane_disk", "hemisphere", "sphere", "torus")),
    "laplacian": Suite(_laplacian, "sphere", ("sphere",)),
    "euler": Suite(_euler, "sphere", ("sphere", "torus")),
    "stress": Suite(_stress, "hemisphere", ("hemisphere", "sphere", "torus")),
    "evolving": Suite(_evolving, "expanding_sphere", ("expanding_sphere",),
                      {"radius": 1.0, "speed": 0.1}),
}

SUITE_NAMES = list(SUITES) + ["all"]


def suite_names() -> List[str]:
    return list(SUITE_NAMES)


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    if cfg.suite != "all" and cfg.suite not in SUITES:
        raise SuiteError(f"unknown suite '{cfg.suite}' (known: {', '.join(SUITE_NAMES)})")
    start = time.perf_counter()
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    checks = [record for name in names for record in SUITES[name](cfg)]
    unknown = sorted(set(cfg.tol) - {record.id for record in checks})
    if unknown:
        raise SuiteError(f"tolerance override for unknown check id: {', '.join(unknown)}")
    return VerificationReport(
        suite=cfg.suite,
        config=cfg.echo(),
        checks=checks,
        wall_time_s=round(time.perf_counter() - start, 3),
    )
