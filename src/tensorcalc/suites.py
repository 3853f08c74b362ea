"""Named verification suites: each one turns a family of identities into
check records with pinned tolerances.

A suite is data: a setup that builds its inputs (cases, atlases, fields)
and draws every seeded one, and returns an ordered table of ``Check``
rows.  A row is a pure function of its ``DiffConfig``, so the two mode
records of one id check the same input, whatever rows run before it.
``run_suite`` makes one ``Session`` per call, and every suite of the run
takes its geometry cases and atlases from it, so a run builds each of
them once.
One runner, ``Suite.__call__``, owns the policies every suite shares:

- Rows that exercise derivative machinery are per-mode: they run once in
  the configured finite-difference mode and once with analytic frames and
  field gradients, so a report shows both the discretization floor and the
  exact algebra.  Their ids end in ``.<mode>``.  Under ``--fd analytic``
  they run once.  Every other row runs once, in the configured mode.
- A row's tolerance is one value or an (fd, analytic) pair; a ``--tol``
  entry for the full check id replaces it.
- A suite runs on its default geometry unless ``--geometry`` names one it
  accepts.  A name that is no geometry is a ``SuiteError`` of the
  configuration, and so are parameters its builder rejects: ``run_suite``
  builds the configured case before any suite runs.  A single suite
  rejects any other geometry with ``SuiteError``; under ``all`` such a
  suite falls back to its default geometry.  Suites built on synthetic
  frames ignore ``--geometry``.
- Every record of a suite that has a geometry names the case it ran on:
  the suite's geometry, or the case a row pins (``on``), or ``synthetic``
  for rows on random frames.  A row pinned to the configured geometry
  runs on the configured case, with its parameters.
- A row compares with a closed form of the case it runs on
  (``GeometryCase.closed_forms``), never with a literal of its own.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import groupby
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .builtins import REGISTRY, GeometryCase, ParameterError, get_case
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
    constant,
    coordinate,
    random_polynomial,
    tf_add,
    tf_outer,
    tf_scale,
)
from .geometry import (
    _GRAD_FLOOR, _frame_scope, _gram_schmidt, _norm, _project_array, frame_from_normals,
)
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
    Atlas,
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
from .report import CheckRecord, VerificationReport, make_check
from .stress import (
    cross_stress,
    force_residual,
    generator_identity,
    normal_at_tangential,
    omega_pairings,
    rotation_generator,
    stress_force,
    stress_torque,
    torque_equivalence,
    transpose_field,
)
from .tensor import Tensor, _apply_to_slot, _dot, _frobenius, _outer, scalar

__all__ = [
    "SuiteConfig",
    "SuiteError",
    "SUITE_NAMES",
    "run_suite",
]


class SuiteError(ValueError):
    """Raised for an unknown suite, an unsupported suite/geometry pair or a
    configuration value out of range."""


@dataclass
class SuiteConfig:
    """The settings of a run, each checked here when the config is made, so
    command-line and library callers meet the same checks (``SuiteError``)."""

    suite: str = "all"
    geometry: Optional[str] = None
    geom_params: Dict[str, float] = field(default_factory=dict)
    order: int = 12
    panels: int = Atlas.panels
    fd: str = "fd2"
    hx: float = DiffConfig.hx
    ht: float = DiffConfig.ht
    seed: int = 0
    tol: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise SuiteError(f"unknown suite '{self.suite}' (known: {', '.join(SUITE_NAMES)})")
        for key, least in (("order", 1), ("panels", 1), ("seed", 0)):
            value = getattr(self, key)
            if not isinstance(value, (int, np.integer)):
                raise SuiteError(f"{key} must be an integer, got {value!r}")
            if value < least:
                raise SuiteError(f"{key} must be at least {least}, got {value}")
            setattr(self, key, int(value))
        if self.geometry is not None and self.geometry not in REGISTRY:
            raise SuiteError(
                f"unknown geometry '{self.geometry}' (known: {', '.join(sorted(REGISTRY))})")
        if self.geom_params and self.geometry is None:
            raise SuiteError("geometry parameters need a geometry (--geometry)")
        self.tol = {check_id: float(tol) for check_id, tol in self.tol.items()}
        for check_id, tol in self.tol.items():
            if not math.isfinite(tol):
                raise SuiteError(f"tolerance of '{check_id}' must be finite, got {tol}")
        try:
            self.diff()
        except ValueError as exc:
            raise SuiteError(exc.args[0]) from None

    def diff(self, mode: Optional[str] = None) -> DiffConfig:
        return DiffConfig(mode=mode or self.fd, hx=self.hx, ht=self.ht)

    def tolerance(self, check_id: str, default: float) -> float:
        return float(self.tol.get(check_id, default))


# -- the runner -------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One row of a suite table.

    ``value(d)``, a pure function of the row's ``DiffConfig``, returns a
    number for a ``bound`` (it must not exceed the tolerance) or a
    ``floor`` (it must not fall below it), and an
    ``IdentityResult`` or an ``(lhs, rhs[, pieces])`` tuple for an identity
    judged by its ``rel`` or ``abs`` residual.  Rows with ``when`` false
    are left out of the run.  ``on`` names the case a row runs on when it
    is not the suite's geometry.
    """

    stem: str
    identity: str
    tol: Union[float, Tuple[float, float]]
    value: Callable[[DiffConfig], object]
    kind: str = "bound"
    per_mode: bool = False
    when: bool = True
    on: Optional[str] = None


class Session:
    """What one run builds once and every suite of the run shares.

    It holds the geometry cases by (name, params) and their atlases by
    (case, order, panels); an atlas keeps its own nodes, curvature,
    boundary and advected atlases.  ``run_suite`` makes one session per
    call and drops it at the end, so no run reuses another run's work.
    """

    def __init__(self, cfg: SuiteConfig) -> None:
        self.cfg = cfg
        self._cases: Dict[tuple, GeometryCase] = {}
        self._atlases: Dict[tuple, Atlas] = {}

    def case(self, name: str, **params: float) -> GeometryCase:
        """The named case, built once per run; without parameters, the
        configured geometry is the configured case.  A parameter the
        builder does not take or a value it rejects (``ParameterError``) is
        a ``SuiteError``."""
        if not params and name == self.cfg.geometry:
            params = self.cfg.geom_params
        key = (name, tuple(sorted(params.items())))
        if key not in self._cases:
            try:
                self._cases[key] = get_case(name, **params)
            except ParameterError as exc:
                raise SuiteError(*exc.args) from None
        return self._cases[key]

    def atlas(self, case: Union[str, GeometryCase], order: Optional[int] = None) -> Atlas:
        """The atlas of a case, or of the named case at its default
        parameters, at ``order`` (the configured one by default) and the
        configured panels."""
        if isinstance(case, str):
            case = self.case(case)
        key = (case.geometry, self.cfg.order if order is None else order, self.cfg.panels)
        if key not in self._atlases:
            self._atlases[key] = case.atlas(*key[1:])
        return self._atlases[key]


def _record(cfg: SuiteConfig, row: Check, d: DiffConfig) -> CheckRecord:
    check_id = row.stem + (f".{d.mode}" if row.per_mode else "")
    tol = row.tol[d.mode == "analytic"] if isinstance(row.tol, tuple) else row.tol
    tol = cfg.tolerance(check_id, tol)
    value = row.value(d)
    if row.kind in ("bound", "floor"):
        value = (value, None)
    res = value if isinstance(value, IdentityResult) else IdentityResult(*value)
    details = {k: (float(np.linalg.norm(v)) if np.ndim(v) else float(v))
               for k, v in res.pieces.items()}
    return make_check(check_id, row.identity, res.lhs, res.rhs, tol,
                      measure=row.kind, details=details)


@dataclass
class Suite:
    """A suite's setup and the geometries it runs on.

    ``setup(cfg, case, session)`` draws every seeded input and returns the
    table; ``case`` is None for a suite without a geometry.
    """

    setup: Callable[[SuiteConfig, Optional[GeometryCase], Session], List[Check]]
    geometry: Optional[str] = None
    accepts: Tuple[str, ...] = ()

    def case(self, session: Session) -> Optional[GeometryCase]:
        cfg = session.cfg
        if self.geometry is None:
            return None
        if cfg.geometry in self.accepts:
            return session.case(cfg.geometry)
        if cfg.geometry is not None and cfg.suite != "all":
            raise SuiteError(
                f"geometry '{cfg.geometry}' is not supported here "
                f"(supported: {', '.join(sorted(self.accepts))})"
            )
        return session.case(self.geometry)

    def __call__(self, session: Session) -> List[CheckRecord]:
        cfg = session.cfg
        case = self.case(session)
        rows = self.setup(cfg, case, session)
        modes = [cfg.fd] if cfg.fd == "analytic" else [cfg.fd, "analytic"]
        records: List[CheckRecord] = []
        for per_mode, block in groupby(rows, key=lambda row: row.per_mode):
            block = [row for row in block if row.when]
            for mode in modes if per_mode else [cfg.fd]:
                for row in block:
                    record = _record(cfg, row, cfg.diff(mode))
                    if case is not None:
                        record.geometry = row.on or case.name
                    records.append(record)
        return records


def _max_norm(values: np.ndarray) -> float:
    """Largest Frobenius norm over the points of a batch of values (k, ...)."""
    return float(np.max(np.linalg.norm(values.reshape(len(values), -1), axis=-1)))


# The draw suites draw each integer quantity of all their draws in one
# ``integers`` call, then group the draws by shape over the whole suite.  A
# group draws the normals of all its draws in one ``standard_normal((L,
# size))`` call, in ``np.unique`` order of the shapes, and is checked in one
# batched call.


def _shape_groups(*keys: np.ndarray):
    """(shape, indices) pairs: the draws grouped by their nonnegative integer
    keys, each an array over the draws, with the shapes in sorted order and a
    group's draws in order.  The keys pack into one int64 code, in mixed
    radix with the first key most significant, so one 1-D ``np.unique``
    sorts the shapes."""
    code = np.zeros(len(keys[0]), dtype=np.int64)
    for key in keys:
        code = code * (int(key.max(initial=0)) + 1) + key
    _, first, inverse, counts = np.unique(
        code, return_index=True, return_inverse=True, return_counts=True)
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])
    for i, at in zip(first, groups):
        yield tuple(int(key[i]) for key in keys), at


def _draw(normal, count: int, *shapes: Tuple[int, ...]) -> List[np.ndarray]:
    """Arrays (count, *shape) for ``count`` draws of the given per-draw
    shapes, each contiguous, made by one ``standard_normal((count, size))``
    call: a draw's numbers come in one run, cut in the order of ``shapes``."""
    flat = normal((count, sum(math.prod(shape) for shape in shapes)))
    out, at = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(np.ascontiguousarray(flat[:, at:at + size]).reshape(count, *shape))
        at += size
    return out


def _random_frames(raw: np.ndarray):
    """Frames at a batch of draws from random directions ``raw`` (L, m, n),
    orthonormalized in order."""
    return frame_from_normals(_gram_schmidt(np.moveaxis(raw, -2, 0), _GRAD_FLOOR))


class _Worst(dict):
    """Running maxima of named residuals over every group of draws, each
    starting at -inf.  A NaN in any group makes its record NaN, which fails
    the check."""

    def __init__(self, *names: str):
        super().__init__(dict.fromkeys(names, -math.inf))

    def note(self, name: str, values) -> None:
        # np.maximum keeps a NaN, where max(-inf, nan) would drop it
        self[name] = float(np.maximum(self[name], np.max(values)))


# -- tensor algebra ---------------------------------------------------------------


def _tensor_algebra(cfg: SuiteConfig, _case, _session) -> List[Check]:
    rng = np.random.default_rng(cfg.seed)
    normal = rng.standard_normal
    worst = _Worst("insert", "mixed", "assoc", "pairing", "roundtrip")
    ns = rng.integers(2, 5, 1000)
    qs = rng.integers(2, 5, 1000)
    # associativity of the contraction product needs a rank >= 2 middle
    mid_ranks = rng.integers(2, 4, 1000)
    r_ranks = rng.integers(1, 4, 1000)
    ms = rng.integers(1, ns)  # m random directions

    for (n, q, m), at in _shape_groups(ns, qs, ms):
        t, u, v, s, big, raw, tang = _draw(normal, len(at), (n,) * q, (n,), (n,), (n,) * (q - 1),
                                           (n,) * q, (m, n), (n,) * q)
        # the public row representation, on one batched Tensor per group
        rebuilt = np.stack([c.array for c in Tensor(n, t, lead=1).components()], axis=1)
        worst.note("roundtrip", np.abs(rebuilt - t))
        worst.note("insert", np.abs(_dot(_dot(u, t, 1), v, 1) - _dot(u, _dot(t, v, 1), 1)))
        # (S:T).v summed index by index, apart from the contraction primitives
        contracted = np.einsum("li,lij->lj", s.reshape(len(s), -1),
                               big.reshape(len(s), s[0].size, -1))
        lhs = np.einsum("lj,lj->l", contracted, v)
        worst.note("mixed", np.abs(lhs - _frobenius(s, _dot(big, v, 1), 1)))
        P = _random_frames(raw).P
        tang = _project_array(tang, P)
        worst.note("pairing", np.abs(
            _frobenius(tang, big, 1) - _frobenius(tang, _project_array(big, P), 1)))
    for (n, q, a, b), at in _shape_groups(ns, qs, mid_ranks, r_ranks):
        t, mid, r = _draw(normal, len(at), (n,) * q, (n,) * a, (n,) * b)
        # in place: at rank 6 these are the largest arrays of the suite
        diff = _dot(_dot(t, mid, 1), r, 1)
        diff -= _dot(t, _dot(mid, r, 1), 1)
        worst.note("assoc", np.abs(diff, out=diff))

    return [
        Check("algebra.insertion-commute", "left and right insertion commute",
              1e-12, lambda d: worst["insert"]),
        Check("algebra.mixed-contraction", "(S:T).v = S:(T.v)",
              1e-12, lambda d: worst["mixed"]),
        Check("algebra.dot-associative", "(T o S) o R = T o (S o R)",
              1e-12, lambda d: worst["assoc"]),
        Check("algebra.tangential-pairing", "<S,T> = <S, proj T> for tangential S",
              1e-12, lambda d: worst["pairing"]),
        Check("algebra.component-roundtrip", "stacking components rebuilds the tensor",
              1e-12, lambda d: worst["roundtrip"]),
    ]


# -- projection -------------------------------------------------------------------


def _project_oracle(arr: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Definition of the tangential projection, P in every slot, written as
    the raw sum over all index tuples (independent of the slot passes), at
    tensors arr (..., n, ..., n) and projectors P (..., n, n) of the same
    leading shape."""
    q = arr.ndim - P.ndim + 2
    out, inner = "ijklmnop"[:q], "abcdefgh"[:q]
    slots = ",".join(f"...{i}{a}" for i, a in zip(out, inner))
    return np.einsum(f"{slots},...{inner}->...{out}", *[P] * q, arr, optimize=False)


def _projection(cfg: SuiteConfig, _case, session: Session) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 1)
    normal = rng.standard_normal
    worst = _Worst("oracle", "idem", "slot", "kill", "grow")
    n = 3
    ms = rng.integers(1, 3, 60)
    qs = rng.integers(1, 4, 60)
    positions = rng.integers(0, 3, 60)
    whiches = rng.integers(0, ms)  # the normal that replaces factor pos

    def note_oracle(t, P, pt):
        worst.note("oracle", np.abs(pt - _project_oracle(t, P)))

    for (m, q), at in _shape_groups(ms, qs):
        raw, t, factors = _draw(normal, len(at), (m, n), (n,) * q, (3, n))
        frame = _random_frames(raw)
        P = frame.P
        pt = _project_array(t, P)
        note_oracle(t, P, pt)
        worst.note("idem", np.abs(_project_array(pt, P) - pt))
        for slot in range(q):
            worst.note("slot", np.abs(_apply_to_slot(frame.normals[:, :1], pt, slot, 1)))
        flat = len(at), -1
        worst.note("grow", _norm(pt.reshape(flat)) - _norm(t.reshape(flat)))
        each = np.arange(len(at))
        factors[each, positions[at]] = frame.normals[each, whiches[at]]
        chain = _outer(_outer(factors[:, 0], factors[:, 1], 1), factors[:, 2], 1)
        worst.note("kill", _norm(_project_array(chain, P).reshape(len(at), -1)))

    sphere = session.case("sphere", radius=1.3)
    points = sphere.sample_points(4, seed=cfg.seed)
    P = sphere.geometry.frame_at(points).P
    t = normal((len(points),) + (n,) * 3)
    note_oracle(t, P, _project_array(t, P))

    return [
        Check("projection.oracle", "slotwise projection matches the raw index sum",
              1e-12, lambda d: worst["oracle"]),
        Check("projection.idempotent", "projecting twice changes nothing",
              1e-12, lambda d: worst["idem"]),
        Check("projection.kills-normal-slots", "any normal slot contracts to zero",
              1e-12, lambda d: worst["slot"]),
        Check("projection.annihilates-normal-factors",
              "outer chains with a normal factor project to zero", 1e-12, lambda d: worst["kill"]),
        Check("projection.non-expansive", "projection never grows the Frobenius norm",
              1e-15, lambda d: worst["grow"]),
    ]


# -- differential identities ------------------------------------------------------


def _curvature_error(pinned: GeometryCase, d: DiffConfig, seed: int) -> float:
    """Worst relative error of the mean curvature vector on a pinned case."""
    points = pinned.sample_points(4, seed=seed)
    want = pinned.curvature(points)
    got = mean_curvature(pinned.geometry, d).values(points)
    rel = np.linalg.norm(got - want, axis=-1) / np.maximum(1.0, np.linalg.norm(want, axis=-1))
    return float(np.max(rel))


def _differential(cfg: SuiteConfig, case: GeometryCase, session: Session) -> List[Check]:
    geom = case.geometry
    rng = np.random.default_rng(cfg.seed + 2)
    points = case.sample_points(5, seed=cfg.seed)
    f = random_polynomial(3, 0, rng, degree=2)
    g = random_polynomial(3, 0, rng, degree=2)
    u0 = random_polynomial(3, 1, rng, degree=2)
    vt = project_field(random_polynomial(3, 1, rng, degree=1), geom, name="Pv")
    ut = project_field(u0, geom, name="Pu")

    gf = cache(lambda d: submanifold_gradient(f, geom, d))
    pf_u = cache(lambda d: perp_field(ut, geom, d))

    def product_rule(d):
        gfg = submanifold_gradient(tf_outer(f, g), geom, d)
        gg = submanifold_gradient(g, geom, d)
        return _max_norm(
            gfg.values(points)
            - f.values(points)[:, None] * gg.values(points)
            - g.values(points)[:, None] * gf(d).values(points)
        )

    def divergence_product(d):
        divfu = divergence(tf_outer(f, u0), geom, d)
        divu = divergence(u0, geom, d)
        return _max_norm(
            divfu.values(points)
            - f.values(points) * divu.values(points)
            - _dot(gf(d).values(points), u0.values(points), 1)
        )

    def gauss_split(d):
        frame = geom.frame_at(points)
        full = submanifold_gradient(ut, geom, d).values(points)
        u = ut.values(points)
        normal_part = sum(
            _outer(frame.normals[:, i], _dot(u, shape_operator(geom, i, d).values(points), 1), 1)
            for i in range(geom.m)
        )
        return _max_norm(full - (frame.P @ full @ frame.P - normal_part))

    def perp_involution(d):
        pf_uu = perp_field(pf_u(d), geom, d)
        return _max_norm(pf_uu.values(points) + ut.values(points))

    def perp_antisymmetry(d):
        pf_v = perp_field(vt, geom, d)
        return _max_norm(
            _dot(pf_u(d).values(points), vt.values(points), 1)
            + _dot(ut.values(points), pf_v.values(points), 1)
        )

    def rotated_orthogonal(d):
        rg = rotated_gradient(f, geom, d)
        return _max_norm(_dot(rg.values(points), gf(d).values(points), 1))

    def laplacians_agree(d):
        lap = laplacian(f, geom, d)
        clap = covariant_laplacian(f, geom, d)
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
                  (1e-5, 1e-9),
                  lambda d, name=name: _curvature_error(session.case(name), d, cfg.seed),
                  per_mode=True, on=name)
            for name in ("sphere", "circle3d", "torus")
        ),
    ]


# -- integral identities ----------------------------------------------------------


def _stokes(cfg: SuiteConfig, case: GeometryCase, session: Session) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 3)
    hemi = session.atlas("hemisphere")
    closed = session.case("hemisphere").closed_forms
    sphere = session.atlas("sphere")
    generic = session.atlas(case)
    helix = session.case("helix")
    arc = session.atlas(helix)
    ez = constant(3, Tensor(3, np.array([0.0, 0.0, 1.0])), name="e_z")
    rank1 = random_polynomial(3, 1, rng, degree=2)
    rank2 = random_polynomial(3, 2, rng, degree=2)
    s_field = random_polynomial(3, 1, rng, degree=1)
    t_field = random_polynomial(3, 2, rng, degree=2)
    paths = [random_polynomial(3, q, rng, degree=2) for q in (0, 1, 2)]

    ez_res = cache(lambda d: stokes_residual(hemi, ez, d))
    z_res = cache(lambda d: gradient_residual(hemi, coordinate(3, 2), d))

    def path_theorem(d):
        return max(path_ftc_residual(arc, f, helix.velocity, d).rel_residual for f in paths)

    return [
        Check("stokes.hemisphere-ez",
              "int div_M e_z = boundary + curvature terms on the upper hemisphere",
              1e-6, ez_res, kind="rel", on="hemisphere"),
        Check("stokes.hemisphere-ez-boundary", "the equator circulation term of e_z is -2 pi R",
              1e-6, lambda d: (float(ez_res(d).pieces["boundary"]), closed["ez_boundary"]),
              kind="rel", on="hemisphere"),
        Check("stokes.hemisphere-ez-curvature", "the curvature term of e_z is +2 pi R",
              1e-6, lambda d: (float(ez_res(d).pieces["curvature"]), closed["ez_curvature"]),
              kind="rel", on="hemisphere"),
        Check("stokes.closed-sphere",
              "every term of the divergence identity vanishes on a closed sphere",
              1e-8, lambda d: stokes_residual(sphere, rotation_generator(3, 0, 1),
                                              d).abs_residual,
              on="sphere"),
        Check("stokes.rank1-generic", "divergence identity for a random covector field",
              1e-6, lambda d: stokes_residual(generic, rank1, d), kind="rel"),
        Check("stokes.rank2", "divergence identity for a random rank-2 field",
              1e-6, lambda d: stokes_residual(hemi, rank2, d), kind="rel", on="hemisphere"),
        Check("stokes.gradient-corollary", "int grad_M f = boundary + curvature terms, f = z",
              1e-6, z_res, kind="rel", on="hemisphere"),
        Check("stokes.gradient-corollary-value",
              "int grad_M z over the hemisphere is 4 pi R^2 / 3 vertically",
              1e-6, lambda d: (float(np.asarray(z_res(d).lhs)[2]), closed["gradient_z"]),
              kind="rel", on="hemisphere"),
        Check("stokes.integration-by-parts",
              "int S : div_M T + int T : grad_M S balances the boundary terms",
              1e-5, lambda d: integration_by_parts(hemi, s_field, t_field, d),
              kind="rel", on="hemisphere"),
        Check("stokes.path-gradient-theorem",
              "line integral of the tangential derivative matches endpoint values",
              1e-6, path_theorem, on="helix"),
    ]


def _curl(cfg: SuiteConfig, case: GeometryCase, session: Session) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 4)
    spin = rotation_generator(3, 0, 1)
    disk = session.case("plane_disk")
    disk_atlas = session.atlas(disk)
    sph = session.case("sphere")
    f = random_polynomial(3, 0, rng, degree=2)

    def plane_uniform(d):
        curl = surface_curl(spin, disk.geometry, d)
        return _max_norm(curl.values(disk.sample_points(4, seed=cfg.seed)) - 2.0)

    def curl_of_gradient(d):
        cg = surface_curl(submanifold_gradient(f, sph.geometry, d), sph.geometry, d)
        return _max_norm(cg.values(sph.sample_points(4, seed=cfg.seed)))

    disk_res = cache(lambda d: circulation_residual(disk_atlas, spin, d))

    def gradient_circulation(d):
        sg_disk = submanifold_gradient(f, disk.geometry, d)
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
              "the circulation of the rotation field around the disk of radius R is 2 pi R^2",
              1e-8, lambda d: (float(np.asarray(disk_res(d).rhs)), disk.closed_forms["circulation"]),
              kind="rel", on="plane_disk"),
        Check("curl.circulation-hemisphere",
              "int curl u over the hemisphere equals the equator circulation",
              1e-6, lambda d: circulation_residual(session.atlas("hemisphere"), spin, d),
              kind="rel", on="hemisphere"),
        Check("curl.gradient-circulation", "a tangential gradient has zero boundary circulation",
              1e-8, gradient_circulation, on="plane_disk"),
        Check("curl.circulation-generic", "curl identity on the requested geometry",
              1e-6, lambda d: circulation_residual(session.atlas(case), spin, d),
              kind="rel", when=case.name != "plane_disk"),
    ]


def _laplacian(cfg: SuiteConfig, case: GeometryCase, session: Session) -> List[Check]:
    geom = case.geometry
    atlas = session.atlas(case)
    points = case.sample_points(4, seed=cfg.seed)
    killing_z = rotation_generator(3, 0, 1)

    def coordinate_error(d):
        got = np.stack(
            [laplacian(coordinate(3, j), geom, d).values(points) for j in range(3)], axis=-1
        )
        want = -case.curvature(points)
        return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))

    def killing(d):
        clap = covariant_laplacian(killing_z, geom, d)
        return _max_norm(clap.values(points) + killing_z.values(points) * case.closed_forms["ricci"])

    @cache
    def weak(d):
        forcing = tf_scale(covariant_laplacian(killing_z, geom, d), -1.0, name="-lap u")
        return weak_form(atlas, killing_z, killing_z, forcing, None, d)

    def symmetric(d):
        killing_x = rotation_generator(3, 1, 2)
        a_uv, _ = weak_form(atlas, killing_z, killing_x, None, None, d)
        a_vu, _ = weak_form(atlas, killing_x, killing_z, None, None, d)
        return a_uv, a_vu

    return [
        Check("laplacian.coordinate",
              "coordinates are eigenfunctions: lap_M x_j = -(2/R^2) x_j",
              (1e-4, 1e-8), coordinate_error, per_mode=True),
        Check("laplacian.killing", "the rotation field satisfies lap-cov u = -u / R^2",
              (1e-3, 1e-6), killing, per_mode=True),
        Check("laplacian.weak-form", "the Dirichlet pairing balances the manufactured load",
              1e-4, weak, kind="abs", per_mode=True),
        Check("laplacian.weak-form-energy",
              "int |grad-cov u|^2 = 8 pi R^2 / 3 for the rotation field",
              (1e-4, 1e-6), lambda d: (weak(d)[0], case.closed_forms["rotation_energy"]),
              kind="rel", per_mode=True),
        Check("laplacian.weak-symmetric", "the Dirichlet pairing is symmetric",
              1e-10, symmetric, kind="abs"),
        Check("laplacian.weak-coercive", "the Dirichlet pairing is nonnegative on the diagonal",
              -1e-12, lambda d: weak(d)[0], kind="floor"),
    ]


# -- applications -----------------------------------------------------------------


def _euler(cfg: SuiteConfig, case: GeometryCase, session: Session) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 5)
    geom = case.geometry
    atlas = session.atlas(case)
    points = case.sample_points(4, seed=cfg.seed)
    omega = 1.3
    state = rigid_rotation_state(geom, omega)
    hemi = session.case("hemisphere")
    hemi_atlas = session.atlas(hemi)
    hemi_state = rigid_rotation_state(hemi.geometry, omega)
    u = random_polynomial(3, 1, rng, degree=2)

    def flux_total(d):
        total = integrate(atlas, project_field(divergence(_flux_field(state), geom, d), geom))
        return float(np.linalg.norm(np.asarray(total)))

    balance = cache(lambda d: force_balance(hemi_atlas, hemi_state, d))

    def scaled_balance(d):
        fb = balance(d)
        piece_scale = max(float(np.linalg.norm(np.asarray(v))) for v in fb.pieces.values())
        return np.asarray(fb.lhs) / piece_scale, np.zeros(3), fb.pieces

    return [
        Check("euler.tangency", "the rotation field is tangential to the surface",
              1e-12, lambda d: _max_norm(tangency(state, points))),
        Check("euler.momentum", "steady state: du/dt + (grad-cov u).u + grad_M p = 0",
              (1e-5, 1e-8), lambda d: _max_norm(momentum_residual(state, points, 0.0, d)),
              per_mode=True),
        Check("euler.divergence-form", "steady state: du/dt + proj div_M(u (x) u + p P) = 0",
              (1e-5, 1e-8),
              lambda d: _max_norm(divergence_form_residual(state, points, 0.0, d)),
              per_mode=True),
        Check("euler.convective-identity",
              "(grad-cov u).u = proj div_M(u (x) u) for divergence-free u",
              (1e-5, 1e-8),
              lambda d: _max_norm(convective_identity_residual(state, points, 0.0, d)),
              per_mode=True),
        Check("euler.incompressible", "the rotation field is surface divergence free",
              (1e-8, 1e-10), lambda d: _max_norm(incompressibility(state, points, 0.0, d)),
              per_mode=True),
        Check("euler.flux-conservation",
              "the projected momentum flux integrates to zero on a closed surface",
              1e-6, flux_total, per_mode=True),
        Check("euler.momentum-integral",
              "the extrinsic momentum of the rotation field vanishes by symmetry",
              1e-8, lambda d: float(np.linalg.norm(extrinsic_momentum(atlas, state.velocity))),
              per_mode=True),
        Check("euler.tangent-velocity", "int P u = -int div_M(P u) x + boundary flux of positions",
              (1e-6, 1e-8), lambda d: tangent_velocity_identity(hemi_atlas, u, d),
              kind="rel", per_mode=True, on="hemisphere"),
        Check("euler.force-balance", "pressure, boundary reaction and centripetal forces cancel",
              1e-6, scaled_balance, kind="abs", per_mode=True, on="hemisphere"),
        Check("euler.force-balance-pressure",
              "the Young-Laplace force on the rotating hemisphere is w^2 pi R^3 / 2",
              1e-6, lambda d: (float(np.asarray(balance(d).pieces["young_laplace"])[2]),
                               omega**2 * hemi.closed_forms["rotation_pressure"]),
              kind="rel", per_mode=True, on="hemisphere"),
    ]


def _worst_plane(res: IdentityResult) -> float:
    """The largest residual |L_ij - R_ij| / max(|L_ij|, |R_ij|, 1) of the
    torque matrices L, R over the rotation planes i < j."""
    upper = np.triu_indices(len(res.lhs), 1)
    lhs, rhs = res.lhs[upper], res.rhs[upper]
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)))


def _stress(cfg: SuiteConfig, case: GeometryCase, session: Session) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 6)
    atlas = session.atlas(case)
    sphere = session.case("sphere")
    sph_atlas = session.atlas(sphere)
    sigma = random_polynomial(3, 2, rng, degree=2)
    pts = sphere.sample_points(5, seed=cfg.seed)
    frame = sphere.geometry.frame_at(pts)
    pw = _dot(frame.P, rng.standard_normal((len(pts), 3)), 1)

    family = _Worst("family")
    ns = rng.integers(3, 7, 1000)
    ks = rng.integers(1, ns)
    for (n, k), at in _shape_groups(ns, ks):
        raw, pressure, rows, w = _draw(rng.standard_normal, len(at), (k, n), (), (k, n), (n, n))
        random_frame = _random_frames(raw)
        P = random_frame.P
        # pressure, plus a normal row n_i (x) r_i per normal, plus P W P
        sig = pressure[:, None, None] * P + np.swapaxes(random_frame.normals, -1, -2) @ rows
        family.note("family", normal_at_tangential(sig + P @ w @ P, random_frame))

    xs = cross_stress(sphere.geometry)
    sig = xs.values(pts)
    cut_tangential = float(np.max(normal_at_tangential(sig, frame)))
    cut_asymmetry = float(np.max(np.abs(list(omega_pairings(sig, frame).values()))))

    hemi = session.case("hemisphere")
    hemi_atlas = session.atlas(hemi)

    def normal_pressure_force(d):
        nu = normal_field(hemi.geometry)
        force = stress_force(hemi_atlas, tf_outer(nu, nu, name="nn"), d)
        return force, np.array([0.0, 0.0, hemi.closed_forms["normal_pressure_force"]])

    def divfree(d):
        div_bar = divergence(transpose_field(xs), sphere.geometry, d)
        return _max_norm(div_bar.values(sphere.sample_points(4, seed=cfg.seed)))

    def contrapositive(d):
        response = normal_at_tangential(_outer(pw, frame.normals[:, 0], 1), frame)
        return float(np.max(np.abs(response - _norm(pw))))

    return [
        Check("stress.force-residual",
              "int div_M sigma-bar equals the boundary-plus-curvature force",
              (1e-6, 1e-8), lambda d: force_residual(atlas, sigma, d),
              kind="rel", per_mode=True),
        Check("stress.generator-identity",
              "rotation generators satisfy the product-rule torque identity",
              (1e-6, 1e-8),
              lambda d: _worst_plane(generator_identity(atlas, sigma, d)),
              per_mode=True),
        Check("stress.torque-equivalence",
              "m_K = int l_K . div_M sigma-bar - int omega_K : sigma-bar",
              (1e-5, 1e-8),
              lambda d: _worst_plane(torque_equivalence(atlas, sigma, d)),
              per_mode=True),
        Check("stress.normal-pressure-force",
              "sigma = n (x) n pushes the hemisphere up with force 2 pi R",
              1e-8, normal_pressure_force, kind="rel", per_mode=True, on="hemisphere"),
        Check("stress.cross-stress-divfree",
              "the cross stress is pointwise equilibrated in the bulk",
              (1e-6, 1e-8), divfree, per_mode=True, on="sphere"),
        Check("stress.cross-stress-force",
              "the cross stress exerts no net force on the closed sphere",
              1e-10, lambda d: float(np.linalg.norm(stress_force(sph_atlas, xs, d))),
              per_mode=True, on="sphere"),
        Check("stress.cross-stress-torque",
              "the cross stress exerts no net torque on the closed sphere",
              1e-10, lambda d: float(np.max(np.abs(stress_torque(sph_atlas, xs, d)))),
              per_mode=True, on="sphere"),
        Check("stress.cross-stress-tangential",
              "the cross stress sends tangential cuts to tangential tractions",
              1e-12, lambda d: cut_tangential, on="sphere"),
        Check("stress.cross-stress-asymmetric",
              "the cross stress keeps a genuinely antisymmetric tangential part",
              0.5, lambda d: cut_asymmetry, kind="floor", on="sphere"),
        Check("stress.contrapositive",
              "sigma = (P w) (x) n has normal-at-tangential response |P w|",
              1e-12, contrapositive, on="sphere"),
        Check("stress.constrained-family",
              "pressure-plus-normal-row-plus-tangential stresses stay tangential",
              1e-10, lambda d: family["family"], on="synthetic"),
    ]


def _evolving(cfg: SuiteConfig, case: GeometryCase, session: Session) -> List[Check]:
    rng = np.random.default_rng(cfg.seed + 7)
    geom = case.geometry
    atlas = session.atlas(case, max(8, cfg.order - 4))
    points = case.sample_points(3, seed=cfg.seed)
    w = case.velocity
    w2 = tf_add(w, tf_scale(rotation_generator(3, 0, 1), 0.7), name="radial+spin")
    u = random_polynomial(3, 1, rng, degree=2)
    f1 = random_polynomial(3, 1, rng, degree=2)

    def material_path(d):
        advected = advected_atlas(atlas, w2, 0.0, 0.05)
        xs, _ = advected.points(0.05)[0]
        return float(np.max(np.abs(geom.level_values(xs[:: max(1, len(xs) // 64)], 0.05))))

    gw2 = cache(lambda d: cartesian_gradient(w2, d))
    cw = cache(lambda d: projector_rate(geom, w2, d))
    gf = cache(lambda d: cartesian_gradient(f1, d))

    @cache
    def rank0(d):
        zfield = coordinate(3, 2)
        return dirichlet_rate_terms(atlas, zfield, w, d), dirichlet_rate_fd(atlas, zfield, w, d)

    def material_normal(d):
        nfield = normal_field(geom)
        dn = material_derivative(nfield, w2, d)
        n_gw = _dot(nfield.values(points), gw2(d).values(points), 1)
        return _max_norm(dn.values(points) + n_gw)

    def projector_rate_error(d):
        dp = material_derivative(projector_field(geom), w2, d)
        return _max_norm(dp.values(points) + 2.0 * cw(d).values(points))

    def tangential_rate(d):
        return _max_norm(project_field(cw(d), geom).values(points))

    def cartesian_commutator(d):
        lhs = cartesian_gradient(material_derivative(f1, w2, d), d)
        rhs = material_derivative(gf(d), w2, d)
        chain = gf(d).values(points) @ gw2(d).values(points)
        return _max_norm(lhs.values(points) - rhs.values(points) - chain)

    def submanifold_commutator(d):
        slhs = submanifold_gradient(material_derivative(f1, w2, d), geom, d)
        srhs = material_derivative(submanifold_gradient(f1, geom, d), w2, d)
        mix = submanifold_gradient(w2, geom, d).values(points) + 2.0 * cw(d).values(points)
        chain = gf(d).values(points) @ mix
        return _max_norm(slhs.values(points) - srhs.values(points) - chain)

    def rank0_rate(d):
        terms, fd_rate = rank0(d)
        return terms["total"], fd_rate, {k: v for k, v in terms.items() if k != "total"}

    def rank2_rate(d):
        t2 = project_field(
            constant(3, Tensor(3, np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])), name="ezez"),
            geom, name="P ezez P",
        )
        terms = dirichlet_rate_terms(atlas, t2, w, d)
        return terms["total"], dirichlet_rate_fd(atlas, t2, w, d)

    return [
        Check("evolve.material-path", "advected chart points stay on the moving surface",
              1e-6, material_path),
        Check("evolve.area-rate",
              "int div_M w equals the growth rate 8 pi R c of the sphere area",
              1e-6, lambda d: (float(integrate(atlas, divergence(w, geom, d))),
                               case.closed_forms["area_rate"]),
              kind="rel", per_mode=True),
        Check("evolve.reynolds-scalar", "transport theorem for the area of the expanding sphere",
              1e-7, lambda d: reynolds_residual(atlas, constant(3, scalar(1.0, 3), name="one"),
                                                w, d),
              kind="rel", per_mode=True),
        Check("evolve.reynolds-rank1",
              "transport theorem for a random vector field on the moving sphere",
              1e-5, lambda d: reynolds_residual(atlas, u, w2, d),
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
              1e-5, lambda d: (rank0(d)[0]["total"], case.closed_forms["dirichlet_rate_z"]),
              kind="rel", per_mode=True),
        Check("evolve.dirichlet-rank2",
              "three-term rate matches the advected difference at rank 2",
              1e-3, rank2_rate, kind="rel", per_mode=True),
        Check("evolve.material-consistency",
              "D T matches a centered difference along RK4 particle paths",
              (1e-5, 1e-8),
              lambda d: float(np.max(material_consistency(f1, w2, points, 0.0, d))),
              per_mode=True),
    ]


# -- registry and runner ----------------------------------------------------------


_N3_GEOMETRIES = ("sphere", "hemisphere", "torus", "plane_disk", "circle3d", "helix")

SUITES: Dict[str, Callable[[Session], List[CheckRecord]]] = {
    "tensor-algebra": Suite(_tensor_algebra),
    "projection": Suite(_projection),
    "differential-identities": Suite(_differential, "sphere", _N3_GEOMETRIES),
    "stokes": Suite(_stokes, "torus", _N3_GEOMETRIES),
    "curl": Suite(_curl, "plane_disk", ("plane_disk", "hemisphere", "sphere", "torus")),
    "laplacian": Suite(_laplacian, "sphere", ("sphere",)),
    "euler": Suite(_euler, "sphere", ("sphere", "torus")),
    "stress": Suite(_stress, "hemisphere", ("hemisphere", "sphere", "torus")),
    "evolving": Suite(_evolving, "expanding_sphere", ("expanding_sphere",)),
}

SUITE_NAMES = list(SUITES) + ["all"]


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    start = time.perf_counter()
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    session = Session(cfg)
    if cfg.geometry is not None:
        session.case(cfg.geometry)  # bad parameters fail whichever suites run
    with _frame_scope(keep=True):  # the frames at chart nodes last the run
        checks = [record for name in names for record in SUITES[name](session)]
    unknown = sorted(set(cfg.tol) - {record.id for record in checks})
    if unknown:
        raise SuiteError(f"tolerance override for unknown check id: {', '.join(unknown)}")
    return VerificationReport(
        suite=cfg.suite,
        config=asdict(cfg),
        checks=checks,
        wall_time_s=round(time.perf_counter() - start, 3),
    )
