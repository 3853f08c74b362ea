"""The benchmark's workloads: inputs made from a seed, operations, and the
check that gates every operation's output.

An operation is one call into the public tensorcalc API.  One caller issues
them in a closed loop: it waits for each result before sending the next.  A
pass is a fixed list of operations.  A verify-all pass rebuilds everything
from the seed; pointwise-stack pass ``p`` draws fresh points and fields from
``(seed, p)``, so no pass can reuse another pass's results.  Check
tolerances are the ones the matching verification suite pins, never looser.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import tensorcalc as tc
from layout import MODES, POINTS_PER_SURFACE, PROJECT_CODIM, PROJECT_GRID, PROJECTS_PER_CELL
from tensorcalc import cli

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Tolerances pinned by the verification suites (fd modes, analytic mode).
TOL_LAPLACIAN = {"fd2": 1e-4, "fd4": 1e-4, "analytic": 1e-8}  # laplacian.coordinate
TOL_CURVATURE = {"fd2": 1e-5, "fd4": 1e-5, "analytic": 1e-9}  # diff.curvature-*
TOL_KILLING = {"fd2": 1e-3, "fd4": 1e-3, "analytic": 1e-6}  # laplacian.killing
TOL_CURL = {"fd2": 1e-5, "fd4": 1e-5, "analytic": 1e-8}  # curl.curl-of-gradient
TOL_PROJECTION = 1e-12  # projection.idempotent, projection.kills-normal-slots


@dataclass
class Op:
    """One timed call and the check of its output.

    ``check`` returns one message per failed operation.  ``count`` is the
    number of operations the call holds when the library offers no finer
    hook: a verify pass runs 120 checks and is timed as one call.
    """

    group: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    count: int = 1


@dataclass
class Workload:
    """``keep_share`` is the share of a run's passes, fastest first, that
    its time metrics are taken over (see run.py)."""

    name: str
    setup: Callable[[int], object]
    build_pass: Callable[[object, int], List[Op]]
    min_passes: int
    keep_share: float
    size: str


def rel_err(got, want) -> float:
    """|got - want| over max(1, |got|, |want|), the reports' "rel" measure."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.linalg.norm(got)), float(np.linalg.norm(want)))
    return float(np.linalg.norm(got - want)) / scale


def gate(what: str, err: float, tol: float) -> List[str]:
    return [] if err <= tol else [f"{what}: residual {err:.3e} above {tol:.1e}"]


# -- verify-all ------------------------------------------------------------------

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_all_checks.json")) as _fh:
    PINNED_CHECKS: Dict[str, float] = json.load(_fh)


def _verify_setup(seed: int):
    os.makedirs(OUT_DIR, exist_ok=True)
    return seed


def _verify_check(out) -> List[str]:
    code, report = out
    got = {c["id"]: c for c in report["checks"]}
    msgs = [f"{cid}: unexpected check" for cid in got if cid not in PINNED_CHECKS]
    for cid, tol in PINNED_CHECKS.items():
        c = got.get(cid)
        if c is None:
            msgs.append(f"{cid}: missing from the report")
        elif not c["pass"]:
            msgs.append(f"{cid}: failed (residual {c['abs_residual']:.3e})")
        elif c["tolerance"] != tol:
            msgs.append(f"{cid}: tolerance {c['tolerance']} is not the pinned {tol}")
    if not msgs and (code != 0 or not report["overall_pass"]):
        msgs.append(f"verify exited {code} with overall_pass={report['overall_pass']}")
    return msgs


def _verify_pass(seed: int, p: int) -> List[Op]:
    path = os.path.join(OUT_DIR, f"verify-all-seed{seed}.json")

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--suite", "all", "--seed", str(seed), "--out", path])
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("wall_time_s")
        return code, report

    return [Op("verify", run, _verify_check, count=len(PINNED_CHECKS))]


# -- pointwise-stack ------------------------------------------------------------


def _norm_level(n: int, axes, radius: float) -> tc.LevelSet:
    """Level function |x restricted to ``axes``| - radius, exact derivatives."""
    mask = np.zeros(n)
    mask[list(axes)] = 1.0

    def value(x, t):
        return float(np.linalg.norm(mask * x)) - radius

    def gradient(x, t):
        y = mask * x
        return y / np.linalg.norm(y)

    def hessian(x, t):
        y = mask * x
        r = np.linalg.norm(y)
        yh = y / r
        return (np.diag(mask) - np.outer(yh, yh)) / r

    return tc.LevelSet(value, gradient, hessian)


def _rotation(n: int, i: int, j: int) -> np.ndarray:
    a = np.zeros((n, n))
    a[i, j], a[j, i] = -1.0, 1.0
    return a


@dataclass
class Surface:
    """A submanifold with closed forms for its curvature and Ricci curvature.

    Every surface here is Einstein (Ric = ricci(x) g), so a Killing field
    u = A x, A in ``symmetries``, has Bochner Laplacian -ricci(x) u.
    """

    name: str
    geometry: tc.LevelSetGeometry
    sample: Callable[[np.random.Generator], np.ndarray]
    kappa: Callable[[np.ndarray], np.ndarray]
    ricci: Callable[[np.ndarray], float]
    symmetries: List[np.ndarray]
    sphere_radius: float = 0.0  # > 0 when the shape operator is P / R


def _round_sphere(n: int, radius: float) -> Surface:
    geom = tc.LevelSetGeometry(n, [_norm_level(n, range(n), radius)], name=f"S{n - 1}")

    def sample(rng):
        g = rng.standard_normal(n)
        return radius * g / np.linalg.norm(g)

    return Surface(
        f"S{n - 1}", geom, sample,
        kappa=lambda x: (n - 1) * x / radius**2,
        ricci=lambda x: (n - 2) / radius**2,
        symmetries=[_rotation(n, i, j) for i in range(n) for j in range(i + 1, n)],
        sphere_radius=radius,
    )


def _clifford(r: float) -> Surface:
    geom = tc.LevelSetGeometry(
        4, [_norm_level(4, (0, 1), r), _norm_level(4, (2, 3), r)], name="clifford"
    )

    def sample(rng):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        return r * np.array([math.cos(a), math.sin(a), math.cos(b), math.sin(b)])

    return Surface(
        "clifford", geom, sample,
        kappa=lambda x: x / r**2,
        ricci=lambda x: 0.0,
        symmetries=[_rotation(4, 0, 1), _rotation(4, 2, 3)],
    )


def _torus() -> Surface:
    case = tc.get_case("torus")
    major, minor = case.params["major"], case.params["minor"]

    def sample(rng):
        a, b = rng.uniform(0.0, 2.0 * math.pi, 2)
        s = major + minor * math.cos(b)
        return np.array([s * math.cos(a), s * math.sin(a), minor * math.sin(b)])

    def kappa(x):
        s = math.hypot(x[0], x[1])
        normal = np.array([(s - major) * x[0] / s, (s - major) * x[1] / s, x[2]]) / minor
        return (1.0 / minor + (s - major) / (minor * s)) * normal

    return Surface(
        "torus", case.geometry, sample, kappa,
        ricci=lambda x: (math.hypot(x[0], x[1]) - major) / (minor**2 * math.hypot(x[0], x[1])),
        symmetries=[_rotation(3, 0, 1)],
    )


def _circle3d() -> Surface:
    case = tc.get_case("circle3d")
    radius = case.params["radius"]

    def sample(rng):
        a = rng.uniform(0.0, 2.0 * math.pi)
        return radius * np.array([math.cos(a), math.sin(a), 0.0])

    return Surface(
        "circle3d", case.geometry, sample,
        kappa=lambda x: np.array([x[0], x[1], 0.0]) / radius**2,
        ricci=lambda x: 0.0,
        symmetries=[_rotation(3, 0, 1)],
    )


def _pointwise_setup(seed: int):
    surfaces = [_torus(), _circle3d(), _round_sphere(4, 1.0), _clifford(1.0 / math.sqrt(2.0)),
                _round_sphere(5, 1.0)]
    return seed, surfaces


def _killing_field(s: Surface, rng):
    coeffs = rng.standard_normal(len(s.symmetries))
    a = sum(c * b for c, b in zip(coeffs, s.symmetries))
    a = a * (math.sqrt(2.0) / np.linalg.norm(a))  # the scale of a unit rotation
    n = s.geometry.n
    return a, tc.vector_field(n, lambda x, t: a @ x, jacobian=lambda x, t: a, name="killing")


def _stack_fields(s: Surface, rng, mode: str):
    """The operator stacks evaluated at every point of ``s`` in one mode,
    each as (operator name, field, check(x, value))."""
    geom, n, m = s.geometry, s.geometry.n, s.geometry.m
    d = tc.DiffConfig(mode=mode)
    tol_c = TOL_CURVATURE[mode]

    c = rng.standard_normal(n + 1)
    exps = np.vstack([np.zeros(n, dtype=int), np.eye(n, dtype=int)])
    linear = tc.polynomial(n, 0, exps, c, name="linear")  # Delta_M f = -c.kappa

    def check_lap(x, val):
        return gate(f"{s.name} laplacian ({mode})", rel_err(val, -c[1:] @ s.kappa(x)),
                    TOL_LAPLACIAN[mode])

    def check_kappa(x, val):
        return gate(f"{s.name} mean curvature ({mode})", rel_err(val, s.kappa(x)), tol_c)

    def shape_check(i):
        # kappa = sum_i tr(B_i) n_i, so tr B_i = n_i . kappa
        def check(x, val):
            frame = geom.frame_at(x)
            msgs = gate(f"{s.name} tr B_{i} ({mode})",
                        rel_err(np.trace(val), frame.normals[i] @ s.kappa(x)), tol_c)
            if s.sphere_radius:
                msgs += gate(f"{s.name} B = P/R ({mode})",
                             rel_err(val, frame.P / s.sphere_radius), tol_c)
            return msgs[:1]
        return check

    def check_tangent(x, val):
        ok = tc.is_tangent(geom.frame_at(x), tc.Tensor(n, val))
        return [] if ok else [f"{s.name} covariant gradient not tangent ({mode})"]

    a, killing = _killing_field(s, rng)

    def check_killing(x, val):
        return gate(f"{s.name} Bochner Laplacian of a Killing field ({mode})",
                    float(np.linalg.norm(val + s.ricci(x) * (a @ x))), TOL_KILLING[mode])

    def check_curl(x, val):
        return gate(f"{s.name} curl of a gradient ({mode})", abs(float(val)), TOL_CURL[mode])

    stacks = [("laplacian", tc.laplacian(linear, geom, d), check_lap),
              ("mean_curvature", tc.mean_curvature(geom, d), check_kappa)]
    stacks += [("shape_operator", tc.shape_operator(geom, i, d), shape_check(i))
               for i in range(m)]
    for q in (2, 3):
        field = tc.random_polynomial(n, q, rng, degree=2)
        stacks.append(("covariant_gradient", tc.covariant_gradient(field, geom, d),
                       check_tangent))
    stacks.append(("covariant_laplacian", tc.covariant_laplacian(killing, geom, d),
                   check_killing))
    if n - m == 2:
        phi = tc.random_polynomial(n, 0, rng, degree=2)
        curl = tc.surface_curl(tc.submanifold_gradient(phi, geom, d), geom, d)
        stacks.append(("surface_curl", curl, check_curl))
    return stacks


def _point_op(group, field, x, check) -> Op:
    return Op(group, lambda: field.values(x, 0.0), lambda val: check(x, val))


def _project_op(n: int, q: int, rng) -> Op:
    basis, _ = np.linalg.qr(rng.standard_normal((n, PROJECT_CODIM)))
    frame = tc.frame_from_normals(basis.T)
    t = tc.random_tensor(n, q, rng)
    s = tc.random_tensor(n, q, rng)

    def check(pt):
        worst = float(np.max(np.abs(tc.project(frame, pt).array - pt.array)))
        msgs = gate(f"project n={n} q={q} idempotent", worst, TOL_PROJECTION)
        worst = max(float(np.max(np.abs(np.tensordot(pt.array, nu, axes=([k], [0])))))
                    for nu in frame.normals for k in range(q))
        msgs += gate(f"project n={n} q={q} kills normals", worst, TOL_PROJECTION)
        err = abs(tc.frobenius(pt, s) - tc.frobenius(t, tc.project(frame, s)))
        msgs += gate(f"project n={n} q={q} self-adjoint", err / max(1.0, t.norm() * s.norm()),
                     TOL_PROJECTION)
        return msgs[:1]

    return Op(f"project.n{n}q{q}", lambda: tc.project(frame, t), check)


def _pointwise_pass(state, p: int) -> List[Op]:
    seed, surfaces = state
    rng = np.random.default_rng([seed, p])
    ops: List[Op] = []
    for s in surfaces:
        stacks = {mode: _stack_fields(s, rng, mode) for mode in MODES}
        for _ in range(POINTS_PER_SURFACE):
            x = s.sample(rng)
            for mode in MODES:
                ops += [_point_op(f"{name}.{mode}", field, x, check)
                        for name, field, check in stacks[mode]]
    for n, q in PROJECT_GRID:
        ops += [_project_op(n, q, rng) for _ in range(PROJECTS_PER_CELL)]
    return ops


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("verify-all", _verify_setup, _verify_pass, min_passes=2, keep_share=1.0,
                 size="tensorcalc verify --suite all: 120 checks per pass"),
        Workload("pointwise-stack", _pointwise_setup, _pointwise_pass, min_passes=40,
                 keep_share=0.05,
                 size=f"{POINTS_PER_SURFACE} points per geometry on torus, circle3d, S3, "
                      f"clifford, S4 x {'/'.join(MODES)}; project {PROJECTS_PER_CELL} per "
                      f"(n,q) in {' '.join(f'({n},{q})' for n, q in PROJECT_GRID)}"),
    )
}
