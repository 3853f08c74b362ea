"""Top-level acceptance gate.

Each test covers one headline capability, prints a single pass/fail line,
and pins its tolerances explicitly so regressions are loud.  Everything
here runs end to end through the public API; the last criterion shells out
to the installed command line interface.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from tensorcalc.builtins import get_case
from tensorcalc.euler import (
    divergence_form_residual,
    extrinsic_momentum,
    force_balance,
    momentum_residual,
    rigid_rotation_state,
)
from tensorcalc.evolving import dirichlet_rate_fd, dirichlet_rate_terms
from tensorcalc.fields import (
    constant,
    coordinate,
    random_polynomial,
    tf_scale,
    vector_field,
)
from tensorcalc.geometry import frame_from_normals, project
from tensorcalc.operators import (
    DiffConfig,
    cartesian_gradient,
    covariant_laplacian,
    divergence,
    laplacian,
    material_derivative,
    mean_curvature,
    project_field,
    projector_rate,
    submanifold_gradient,
    surface_curl,
)
from tensorcalc.quadrature import (
    circulation_residual,
    integrate,
    path_ftc_residual,
    stokes_residual,
    weak_form,
)
from tensorcalc.stress import (
    generator_identity,
    normal_at_tangential,
    omega_pairings,
    torque_equivalence,
)
from tensorcalc.tensor import Tensor, dot, frobenius, random_tensor

FD2 = DiffConfig(mode="fd2")
AN = DiffConfig(mode="analytic")


def _criterion(capsys, num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:02d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_frame(rng, n, m):
    return frame_from_normals(np.linalg.qr(rng.normal(size=(n, m)))[0].T)


def _rotation(scale=1.0):
    spin = np.zeros((3, 3))
    spin[1, 0], spin[0, 1] = scale, -scale
    return vector_field(
        3,
        lambda x, t: spin @ x,
        jacobian=lambda x, t: spin,
        dt=lambda x, t: np.zeros(3),
        name="rotation",
    )


def test_criterion_01_tensor_algebra_identities(capsys):
    """1000 random tensors, n <= 4 and q <= 4, four exact identities."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(2, 5))
        t = random_tensor(n, q, rng)
        a, b, v = (rng.normal(size=n) for _ in range(3))

        commute = t.insert_left(a).insert_right(b).array - t.insert_right(b).insert_left(a).array
        worst = max(worst, float(np.max(np.abs(commute))))

        s = random_tensor(n, q - 1, rng)
        paired = np.tensordot(s.array, t.array, axes=(tuple(range(q - 1)), tuple(range(q - 1))))
        mixed = float(paired @ v) - frobenius(s, t.insert_right(v))
        worst = max(worst, abs(mixed))

        mid = random_tensor(n, int(rng.integers(2, 4)), rng)
        r = random_tensor(n, int(rng.integers(1, 4)), rng)
        assoc = dot(dot(t, mid), r).array - dot(t, dot(mid, r)).array
        worst = max(worst, float(np.max(np.abs(assoc))))

        frame = _random_frame(rng, n, int(rng.integers(1, n)))
        tang = project(frame, random_tensor(n, q, rng))
        pairing = frobenius(tang, t) - frobenius(tang, project(frame, t))
        worst = max(worst, abs(pairing))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _criterion(capsys, 1, "tensor algebra identities", ok, f"worst={worst:.2e} time={elapsed:.2f}s")


def test_criterion_02_projection_oracle(capsys):
    """Slotwise projection equals multilinear evaluation on projected bases."""
    rng = np.random.default_rng(7)
    eye = np.eye(3)
    worst = 0.0
    frames = [_random_frame(rng, 3, m) for m in (1, 2)]
    frames.append(get_case("sphere").geometry.frame_at(np.array([0.6, 0.0, 0.8]), 0.0))
    for frame in frames:
        for q in (1, 2, 3):
            t = random_tensor(3, q, rng)
            proj = project(frame, t)
            oracle = np.zeros_like(proj.array)
            for idx in np.ndindex(oracle.shape):
                oracle[idx] = t.evaluate([frame.P @ eye[i] for i in idx])
            worst = max(worst, float(np.max(np.abs(proj.array - oracle))))
    ok = worst <= 1e-12
    _criterion(capsys, 2, "projection against brute-force oracle", ok, f"worst={worst:.2e}")


def test_criterion_03_plane_curl_value(capsys):
    """curl of (-y, x, 0) on the flat disk equals 2."""
    case = get_case("plane_disk")
    u = _rotation()
    worst_fd = max(
        abs(float(surface_curl(u, case.geometry, FD2).values(x, 0.0)) - 2.0)
        for x in case.sample_points(5)
    )
    worst_an = max(
        abs(float(surface_curl(u, case.geometry, AN).values(x, 0.0)) - 2.0)
        for x in case.sample_points(5)
    )
    ok = worst_fd <= 1e-8 and worst_an <= 1e-12
    _criterion(capsys, 3, "plane curl equals 2", ok, f"fd2={worst_fd:.2e} analytic={worst_an:.2e}")


def test_criterion_04_stokes_suite(rng, capsys):
    """Hemisphere pieces -2 pi and +2 pi, helix path FTC, disk circulation."""
    hemi = get_case("hemisphere").atlas(order=12, panels=2)
    height = vector_field(
        3,
        lambda x, t: np.array([0.0, 0.0, 1.0]),
        jacobian=lambda x, t: np.zeros((3, 3)),
        name="e_z",
    )
    res = stokes_residual(hemi, height, FD2)
    bnd = float(res.pieces["boundary"])
    crv = float(res.pieces["curvature"])
    r_bnd = abs(bnd + 2 * math.pi) / (2 * math.pi)
    r_crv = abs(crv - 2 * math.pi) / (2 * math.pi)

    helix_case = get_case("helix")
    ftc = path_ftc_residual(
        helix_case.atlas(order=12, panels=2),
        random_polynomial(3, 1, rng, degree=2),
        helix_case.velocity,
        FD2,
    )

    disk = get_case("plane_disk").atlas(order=12, panels=2)
    circ = circulation_residual(disk, _rotation(), FD2)
    circ_value = abs(float(circ.lhs) - 2 * math.pi) / (2 * math.pi)

    ok = (
        r_bnd <= 1e-6
        and r_crv <= 1e-6
        and res.rel_residual <= 1e-6
        and ftc.rel_residual <= 1e-6
        and circ.rel_residual <= 1e-6
        and circ_value <= 1e-6
    )
    _criterion(capsys, 4,
        "surface Stokes and path gradient theorems",
        ok,
        f"boundary={r_bnd:.2e} curvature={r_crv:.2e} total={res.rel_residual:.2e} "
        f"ftc={ftc.rel_residual:.2e} circulation={circ.rel_residual:.2e}",
    )


def test_criterion_05_mean_curvature(capsys):
    """kappa = (2/R) n on spheres R in {1, 2}; (1/R) radial on the circle."""
    worst = {"fd2": 0.0, "analytic": 0.0}
    for radius in (1.0, 2.0):
        case = get_case("sphere", radius=radius)
        pts = case.sample_points(5)
        for mode, cfg in (("fd2", FD2), ("analytic", AN)):
            kap = mean_curvature(case.geometry, cfg)
            for x in pts:
                exact = 2.0 * np.asarray(x) / radius**2
                rel = np.linalg.norm(kap.values(x, 0.0) - exact) / np.linalg.norm(exact)
                worst[mode] = max(worst[mode], float(rel))
    circle = get_case("circle3d")
    pts = circle.sample_points(5)
    for mode, cfg in (("fd2", FD2), ("analytic", AN)):
        kap = mean_curvature(circle.geometry, cfg)
        for x in pts:
            exact = np.array([x[0], x[1], 0.0])
            rel = np.linalg.norm(kap.values(x, 0.0) - exact) / np.linalg.norm(exact)
            worst[mode] = max(worst[mode], float(rel))
    ok = worst["fd2"] <= 1e-5 and worst["analytic"] <= 1e-9
    _criterion(capsys, 5, "mean curvature closed forms", ok,
        f"fd2={worst['fd2']:.2e} analytic={worst['analytic']:.2e}",
    )


def test_criterion_06_laplacians(capsys):
    """Coordinate Laplacian, the Killing field, and the weak form."""
    radius = 1.3
    case = get_case("sphere", radius=radius)
    pts = case.sample_points(4)
    worst_coord = 0.0
    for j in range(3):
        lap = laplacian(coordinate(3, j), case.geometry, FD2)
        for x in pts:
            want = -(2.0 / radius**2) * x[j]
            worst_coord = max(worst_coord, abs(float(lap.values(x, 0.0)) - want) / (2.0 / radius))

    unit = get_case("sphere")
    u = _rotation()
    lap_u = covariant_laplacian(u, unit.geometry, FD2)
    worst_killing = max(
        np.linalg.norm(lap_u.values(x, 0.0) + u.values(x, 0.0)) / np.linalg.norm(u.values(x, 0.0))
        for x in unit.sample_points(4)
    )

    atlas = unit.atlas(order=12, panels=2)
    forcing = tf_scale(covariant_laplacian(u, unit.geometry, FD2), -1.0)
    a, ell = weak_form(atlas, u, u, forcing, None, FD2)
    weak_gap = abs(a - ell)

    ok = worst_coord <= 1e-4 and worst_killing <= 1e-3 and weak_gap <= 1e-4
    _criterion(capsys, 6, "surface and covariant Laplacians", ok,
        f"coordinate={worst_coord:.2e} killing={worst_killing:.2e} weak={weak_gap:.2e}",
    )


def test_criterion_07_euler_steady_state(capsys):
    """Rigid rotation solves the surface Euler system on the sphere."""
    case = get_case("sphere")
    state = rigid_rotation_state(case.geometry, omega=1.3)
    pts = case.sample_points(4)
    worst_mom = max(np.linalg.norm(momentum_residual(state, x, 0.0, FD2)) for x in pts)
    worst_div = max(np.linalg.norm(divergence_form_residual(state, x, 0.0, FD2)) for x in pts)

    atlas = case.atlas(order=12, panels=2)
    J = np.linalg.norm(np.asarray(extrinsic_momentum(atlas, state.velocity)))

    hemi = get_case("hemisphere")
    bal = force_balance(hemi.atlas(order=12, panels=2), rigid_rotation_state(hemi.geometry, omega=1.3), FD2)
    piece_scale = max(np.linalg.norm(np.asarray(p)) for p in bal.pieces.values())
    rel_balance = np.linalg.norm(np.asarray(bal.lhs)) / piece_scale

    ok = worst_mom <= 1e-5 and worst_div <= 1e-5 and J <= 1e-8 and rel_balance <= 1e-6
    _criterion(capsys, 7, "steady Euler rigid rotation", ok,
        f"momentum={worst_mom:.2e} divform={worst_div:.2e} J={J:.2e} balance={rel_balance:.2e}",
    )


def test_criterion_08_stress_identities(rng, capsys):
    """Torque equivalence, the contrapositive stress, and the safe family."""
    case = get_case("hemisphere")
    atlas = case.atlas(order=12, panels=2)
    sigma = random_polynomial(3, 2, rng, degree=2)
    worst_plane = 0.0
    for res in (generator_identity(atlas, sigma, FD2), torque_equivalence(atlas, sigma, FD2)):
        for plane in ((0, 1), (0, 2), (1, 2)):
            lhs, rhs = res.lhs[plane], res.rhs[plane]
            worst_plane = max(worst_plane, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))

    frame = case.geometry.frame_at(np.array([0.6, 0.0, 0.8]), 0.0)
    w = rng.normal(size=3)
    contrap = np.outer(frame.P @ w, frame.normals[0])
    nat = normal_at_tangential(contrap, frame)
    nat_gap = abs(nat - np.linalg.norm(frame.P @ w))
    pairing = max(abs(v) for v in omega_pairings(contrap, frame).values())

    frame_rng = np.random.default_rng(1234)
    worst_family = 0.0
    for _ in range(1000):
        n = int(frame_rng.integers(3, 7))
        m = int(frame_rng.integers(1, n - 1))
        fr = _random_frame(frame_rng, n, m)
        sig = float(frame_rng.normal()) * fr.P
        for k in range(m):
            sig += np.outer(fr.normals[k], frame_rng.normal(size=n))
        sig += fr.P @ frame_rng.normal(size=(n, n)) @ fr.P
        worst_family = max(worst_family, normal_at_tangential(sig, fr))

    ok = (
        worst_plane <= 1e-5
        and nat_gap <= 1e-8
        and pairing > 1e-6
        and worst_family <= 1e-10
    )
    _criterion(capsys, 8, "stress torque and tangentiality", ok,
        f"planes={worst_plane:.2e} contrapositive={nat_gap:.2e} "
        f"pairing={pairing:.2e} family={worst_family:.2e}",
    )


def test_criterion_09_evolving_surface(rng, capsys):
    """Transport, commutators, projector rate, Dirichlet energy rate."""
    radius, speed = 1.0, 0.2
    case = get_case("expanding_sphere", radius=radius, speed=speed)
    geom, w = case.geometry, case.velocity
    atlas = case.atlas(order=10, panels=1)
    pts = case.sample_points(3)

    rate = float(integrate(atlas, divergence(w, geom, FD2)))
    exact_rate = 8 * math.pi * radius * speed
    rel_rate = abs(rate - exact_rate) / exact_rate

    f1 = random_polynomial(3, 1, rng, degree=2)
    gf = cartesian_gradient(f1, FD2)
    gw = cartesian_gradient(w, FD2)
    lhs = cartesian_gradient(material_derivative(f1, w, FD2), FD2)
    rhs = material_derivative(gf, w, FD2)
    worst_cart = max(
        float(
            np.max(
                np.abs(
                    lhs.values(x, 0.0)
                    - rhs.values(x, 0.0)
                    - np.tensordot(gf.values(x, 0.0), gw.values(x, 0.0), axes=([-1], [0]))
                )
            )
        )
        for x in pts
    )

    cw = projector_rate(geom, w, FD2)
    slhs = submanifold_gradient(material_derivative(f1, w, FD2), geom, FD2)
    srhs = material_derivative(submanifold_gradient(f1, geom, FD2), w, FD2)
    gmw = submanifold_gradient(w, geom, FD2)
    worst_sub = 0.0
    worst_tangential = 0.0
    for x in pts:
        mix = gmw.values(x, 0.0) + 2.0 * cw.values(x, 0.0)
        chain = np.tensordot(gf.values(x, 0.0), mix, axes=([-1], [0]))
        worst_sub = max(
            worst_sub,
            float(np.max(np.abs(slhs.values(x, 0.0) - srhs.values(x, 0.0) - chain))),
        )
        frame = geom.frame_at(x, 0.0)
        worst_tangential = max(
            worst_tangential,
            float(np.max(np.abs(project(frame, Tensor(3, cw.values(x, 0.0))).array))),
        )

    z = coordinate(3, 2)
    terms0 = dirichlet_rate_terms(atlas, z, w, FD2)
    fd0 = dirichlet_rate_fd(atlas, z, w, FD2)
    rel0 = abs(terms0["total"] - fd0) / max(1.0, abs(fd0))

    ez = np.array([0.0, 0.0, 1.0])
    t2 = project_field(constant(3, Tensor(3, np.outer(ez, ez))), geom)
    terms2 = dirichlet_rate_terms(atlas, t2, w, FD2)
    fd2_rate = dirichlet_rate_fd(atlas, t2, w, FD2)
    rel2 = abs(terms2["total"] - fd2_rate) / max(1.0, abs(fd2_rate))

    ok = (
        rel_rate <= 1e-6
        and worst_cart <= 1e-4
        and worst_sub <= 1e-4
        and worst_tangential <= 1e-6
        and rel0 <= 1e-4
        and rel2 <= 1e-3
    )
    _criterion(capsys, 9, "evolving-surface calculus", ok,
        f"area-rate={rel_rate:.2e} commutators=({worst_cart:.2e}, {worst_sub:.2e}) "
        f"tangential-C={worst_tangential:.2e} dirichlet=({rel0:.2e}, {rel2:.2e})",
    )


def test_criterion_10_cli_verify_all(tmp_path, capsys):
    """The full verification harness finishes quickly and exits zero."""
    out = tmp_path / "report.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tensorcalc.cli", "verify", "--suite", "all", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    report = json.loads(out.read_text()) if out.exists() else {}
    ids = [c["id"] for c in report.get("checks", [])]
    ok = (
        proc.returncode == 0
        and elapsed < 120.0
        and report.get("overall_pass") is True
        and len(ids) == 120
        and len(set(ids)) == len(ids)
    )
    _criterion(capsys, 10, "command line verify --suite all", ok,
        f"exit={proc.returncode} time={elapsed:.1f}s checks={len(ids)} unique={len(set(ids))}",
    )
