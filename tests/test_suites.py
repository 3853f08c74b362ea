"""The suite runner's contract: mode expansion, check ids, geometry choice,
rows that are pure functions of their DiffConfig; and the draw-loop suites
against their per-draw reference loops."""

import dataclasses
import inspect
import json
import math
import sys

import numpy as np
import pytest

from tensorcalc import builtins, suites
from tensorcalc.builtins import get_case
from tensorcalc.cli import main
from tensorcalc.euler import force_balance, rigid_rotation_state
from tensorcalc.evolving import dirichlet_rate_terms
from tensorcalc.fields import constant, coordinate, random_polynomial, tf_outer
from tensorcalc.geometry import _gram_schmidt, frame_from_normals, project
from tensorcalc.operators import DiffConfig, covariant_laplacian, divergence, normal_field
from tensorcalc.quadrature import (
    Chart, circulation_residual, gradient_residual, integrate, stokes_residual, weak_form,
)
from tensorcalc.report import make_check
from tensorcalc.stress import normal_at_tangential, rotation_generator, stress_force
from tensorcalc.suites import SuiteConfig, _project_oracle, run_suite
from tensorcalc.tensor import Tensor, dot, frobenius, outer, random_tensor


def _curl_ids(tmp_path, *flags):
    target = tmp_path / "curl.json"
    assert main(["verify", "--suite", "curl", *flags, "--out", str(target)]) == 0
    return [c["id"] for c in json.loads(target.read_text())["checks"]]


def test_analytic_mode_runs_each_per_mode_check_once(tmp_path, capsys):
    ids = _curl_ids(tmp_path, "--fd", "analytic")
    tagged = [i for i in ids if i.endswith((".fd2", ".fd4", ".analytic"))]
    assert tagged == ["curl.plane-uniform.analytic", "curl.curl-of-gradient.analytic"]
    assert len(set(ids)) == len(ids)
    capsys.readouterr()


def test_fd_mode_runs_per_mode_checks_in_both_modes(tmp_path, capsys):
    ids = _curl_ids(tmp_path, "--fd", "fd4")
    for stem in ("curl.plane-uniform", "curl.curl-of-gradient"):
        assert f"{stem}.fd4" in ids
        assert f"{stem}.analytic" in ids
    assert not any(i.endswith(".fd2") for i in ids)
    assert len(set(ids)) == len(ids)
    capsys.readouterr()


def test_single_suite_rejects_a_geometry_it_does_not_accept(tmp_path, capsys):
    target = tmp_path / "never.json"
    code = main(["verify", "--suite", "curl", "--geometry", "helix", "--out", str(target)])
    assert code == 2
    assert not target.exists()
    assert "helix" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["all", "stokes"])
def test_an_unknown_geometry_is_rejected_by_every_run(suite):
    with pytest.raises(suites.SuiteError, match=r"unknown geometry 'bogus' \(known: .*sphere"):
        run_suite(SuiteConfig(suite=suite, geometry="bogus"))


def test_the_config_block_is_the_config_with_float_tolerances():
    cfg = SuiteConfig(suite="projection", tol={"projection.idempotent": 1})
    config = run_suite(cfg).config
    assert list(config) == [f.name for f in dataclasses.fields(SuiteConfig)]
    assert config == dataclasses.asdict(cfg)
    assert json.dumps(config["tol"]) == '{"projection.idempotent": 1.0}'


def test_all_falls_back_to_the_default_geometry(monkeypatch):
    monkeypatch.setattr(
        suites, "SUITES", {name: suites.SUITES[name] for name in ("projection", "curl")}
    )
    report = run_suite(SuiteConfig(suite="all", geometry="helix"))
    ids = [c.id for c in report.checks]
    assert report.passed
    assert ids[0].startswith("projection.")
    assert "curl.circulation-disk" in ids
    assert "curl.circulation-generic" not in ids
    ran_on = {c.id: c.to_dict().get("geometry") for c in report.checks}
    assert all(ran_on[i] is None for i in ids if i.startswith("projection."))
    assert ran_on["curl.circulation-disk"] == "plane_disk"
    assert ran_on["curl.circulation-hemisphere"] == "hemisphere"
    assert ran_on["curl.curl-of-gradient.fd2"] == "sphere"
    assert "helix" not in ran_on.values()


def test_records_name_the_geometry_they_ran_on(tmp_path, capsys):
    target = tmp_path / "curl.json"
    assert main(["verify", "--suite", "curl", "--geometry", "torus", "--out", str(target)]) == 0
    ran_on = {c["id"]: c["geometry"] for c in json.loads(target.read_text())["checks"]}
    assert ran_on["curl.circulation-generic"] == "torus"
    assert ran_on["curl.circulation-disk"] == "plane_disk"
    assert ran_on["curl.curl-of-gradient.analytic"] == "sphere"
    capsys.readouterr()


ACCEPTED = [(name, geometry) for name, suite in suites.SUITES.items() for geometry in suite.accepts]


@pytest.mark.parametrize("suite,geometry", ACCEPTED)
def test_every_suite_passes_on_every_geometry_it_accepts(suite, geometry):
    report = run_suite(SuiteConfig(suite=suite, geometry=geometry))
    assert [c.id for c in report.checks if not c.passed] == []
    assert report.checks and report.passed



@pytest.mark.parametrize("radius", [2.0, 0.7])
def test_the_laplacian_rows_hold_at_every_radius(radius):
    """On a sphere of radius R the rotation field has lap-cov u = -u / R^2
    and energy 8 pi R^2 / 3, so every row runs: four per-mode rows in each
    of fd2 and analytic, and the two pairings."""
    report = run_suite(SuiteConfig(suite="laplacian", geometry="sphere",
                                   geom_params={"radius": radius}))
    assert len(report.checks) == 10
    assert [c.id for c in report.checks if not c.passed] == []


AN = DiffConfig(mode="analytic")
SPIN = rotation_generator(3, 0, 1)  # the rotation field l = x e_y - y e_x


def _rayleigh_ricci(case):
    """-<lap-cov l, l> / <l, l> for the rotation field l at sample points."""
    points = case.sample_points(6)
    lap = covariant_laplacian(SPIN, case.geometry, AN).values(points)
    return -float(np.sum(lap * SPIN.values(points)) / np.sum(SPIN.values(points) ** 2))


def _ez_pieces(case):
    ez = constant(3, Tensor(3, np.array([0.0, 0.0, 1.0])))
    return stokes_residual(case.atlas(12, 2), ez, AN).pieces


def _normal_pressure(case):
    nu = normal_field(case.geometry)
    return np.asarray(stress_force(case.atlas(12, 2), tf_outer(nu, nu), AN))[2]


def _rotation_pressure(case):
    state = rigid_rotation_state(case.geometry, 1.0)
    return np.asarray(force_balance(case.atlas(12, 2), state, AN).pieces["young_laplace"])[2]


# each closed form of each case, and the library's analytic value it stands for
CLOSED_FORMS = {
    ("hemisphere", "ez_boundary"): lambda c: _ez_pieces(c)["boundary"],
    ("hemisphere", "ez_curvature"): lambda c: _ez_pieces(c)["curvature"],
    ("hemisphere", "gradient_z"):
        lambda c: np.asarray(gradient_residual(c.atlas(12, 2), coordinate(3, 2), AN).lhs)[2],
    ("hemisphere", "normal_pressure_force"): _normal_pressure,
    ("hemisphere", "rotation_pressure"): _rotation_pressure,
    ("plane_disk", "circulation"): lambda c: circulation_residual(c.atlas(12, 2), SPIN, AN).rhs,
    ("sphere", "ricci"): _rayleigh_ricci,
    ("sphere", "rotation_energy"):
        lambda c: weak_form(c.atlas(12, 2), SPIN, SPIN, None, None, AN)[0],
    ("expanding_sphere", "area_rate"):
        lambda c: integrate(c.atlas(12, 2), divergence(c.velocity, c.geometry, AN)),
    ("expanding_sphere", "dirichlet_rate_z"): lambda c: dirichlet_rate_terms(
        c.atlas(12, 2), coordinate(3, 2), c.velocity, AN)["total"],
}
# a parameter other than the default for every case with closed forms
PARAMS = {"hemisphere": {"radius": 1.7}, "plane_disk": {"radius": 0.6},
          "sphere": {"radius": 2.0}, "expanding_sphere": {"radius": 1.5, "speed": 0.2}}


def test_the_table_names_every_closed_form_of_every_case():
    named = {(name, form) for name in builtins.available()
             for form in get_case(name).closed_forms}
    assert named == set(CLOSED_FORMS)


@pytest.mark.parametrize("name,form", CLOSED_FORMS)
def test_each_closed_form_matches_the_library_away_from_the_default(name, form):
    case = get_case(name, **PARAMS[name])
    assert case.closed_forms[form] != get_case(name).closed_forms[form]
    got = float(CLOSED_FORMS[name, form](case))
    assert got == pytest.approx(case.closed_forms[form], rel=1e-10)


def test_suites_read_every_closed_form_from_their_case():
    source = inspect.getsource(suites)
    for literal in ("math.pi", ".params[", ".params.get("):
        assert literal not in source


def test_pinned_rows_run_on_the_configured_case(monkeypatch):
    cfg = SuiteConfig(geometry="hemisphere", geom_params={"radius": 1.7})
    session = suites.Session(cfg)
    assert session.case("hemisphere") is session.case("hemisphere", radius=1.7)
    assert session.case("sphere").params == {"radius": 1.0}  # another geometry: its default
    stokes = run_suite(dataclasses.replace(cfg, suite="stokes"))
    boundary = {c.id: c for c in stokes.checks}["stokes.hemisphere-ez-boundary"]
    assert stokes.passed and boundary.rhs == pytest.approx(-2 * math.pi * 1.7)
    # euler does not accept the hemisphere: its own rows fall back to the sphere
    monkeypatch.setattr(suites, "SUITES", {"euler": suites.SUITES["euler"]})
    checks = {c.id: c for c in run_suite(dataclasses.replace(cfg, suite="all")).checks}
    pressure = checks["euler.force-balance-pressure.fd2"]
    assert pressure.passed and pressure.rhs == pytest.approx(1.3**2 * math.pi * 1.7**3 / 2)
    assert checks["euler.momentum.fd2"].geometry == "sphere"


# every row whose identity text states a closed form: the form as the text
# states it, and its value from the case's R and c and the rotation rate w = 1.3
STATED_FORMS = {
    "stokes.hemisphere-ez-boundary": ("-2 pi R", lambda R, c: -2 * math.pi * R),
    "stokes.hemisphere-ez-curvature": ("+2 pi R", lambda R, c: 2 * math.pi * R),
    "stokes.gradient-corollary-value": ("4 pi R^2 / 3", lambda R, c: 4 * math.pi * R**2 / 3),
    "curl.circulation-disk-value": ("2 pi R^2", lambda R, c: 2 * math.pi * R**2),
    "laplacian.weak-form-energy": ("8 pi R^2 / 3", lambda R, c: 8 * math.pi * R**2 / 3),
    "euler.force-balance-pressure": ("w^2 pi R^3 / 2",
                                     lambda R, c: 1.3**2 * math.pi * R**3 / 2),
    "stress.normal-pressure-force": ("force 2 pi R", lambda R, c: [0.0, 0.0, 2 * math.pi * R]),
    "evolve.area-rate": ("8 pi R c", lambda R, c: 8 * math.pi * R * c),
    "evolve.dirichlet-rank0-value": ("(8 pi / 3) R c", lambda R, c: 8 * math.pi / 3 * R * c),
}
AWAY_FROM_DEFAULTS = {"hemisphere": {"radius": 1.7}, "plane_disk": {"radius": 0.6},
                      "sphere": {"radius": 2.0},
                      "expanding_sphere": {"radius": 1.5, "speed": 0.2}}


@pytest.mark.parametrize("geometry", AWAY_FROM_DEFAULTS)
def test_identity_texts_state_the_closed_form_their_rhs_takes(geometry):
    params = AWAY_FROM_DEFAULTS[geometry]
    report = run_suite(SuiteConfig(geometry=geometry, geom_params=params))
    stated = set()
    for record in (r for r in report.checks if "pi" in r.identity):
        stem = record.id.removesuffix(".fd2").removesuffix(".analytic")
        assert stem in STATED_FORMS, record.id
        text, form = STATED_FORMS[stem]
        assert text in record.identity, record.id
        case = {"radius": 1.0, "speed": 0.1, **(params if record.geometry == geometry else {})}
        want = form(case["radius"], case["speed"])
        np.testing.assert_allclose(record.rhs, want, rtol=1e-13, atol=0, err_msg=record.id)
        stated.add(stem)
    assert stated == set(STATED_FORMS)


def test_a_nan_residual_fails_its_check():
    worst = suites._Worst("a", "b")
    worst.note("a", np.array([np.nan]))
    worst.note("b", np.array([1e-16]))
    worst.note("b", np.array([np.nan, 1e-16]))
    worst.note("b", np.array([1e-16]))
    assert math.isnan(worst["a"]) and math.isnan(worst["b"])
    assert not make_check("a", "a NaN residual", worst["a"], None, 1e-12, measure="bound").passed


def test_a_nan_draw_fails_the_constrained_family_without_raising(monkeypatch):
    """A NaN in one stress draw of every shape group makes the family's
    record NaN and failed; the other stress checks still pass."""
    draw = suites._draw

    def poisoned(normal, count, *shapes):
        out = draw(normal, count, *shapes)
        if len(shapes) == 4:  # the constrained family: raw, pressure, rows, w
            out[3][0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(suites, "_draw", poisoned)
    report = run_suite(SuiteConfig(suite="stress"))
    failed = [c for c in report.checks if not c.passed]
    assert [c.id for c in failed] == ["stress.constrained-family"]
    assert math.isnan(failed[0].lhs)


# -- one session per run ----------------------------------------------------------


@pytest.fixture
def node_builds(monkeypatch):
    """The number of chart-node computations made during the test."""
    count = [0]
    compute = Chart.points

    def counting(self, order, panels, t=0.0):
        count[0] += 1
        return compute(self, order, panels, t)

    monkeypatch.setattr(Chart, "points", counting)
    return count


def test_a_run_computes_each_chart_s_nodes_once(node_builds):
    # 11 at seed 0, one per chart of each distinct atlas (the suites' atlases
    # at two orders and the advected ones); 30 when every suite built its own
    for _ in range(2):
        node_builds[0] = 0
        assert run_suite(SuiteConfig(suite="all")).passed
        assert node_builds[0] == 11


def test_a_session_shares_cases_and_atlases_across_suites():
    session = suites.Session(SuiteConfig(order=10))
    sphere = session.case("sphere")
    assert session.case("sphere") is sphere
    assert session.case("sphere", radius=2.0) is not sphere
    atlas = session.atlas("sphere")
    assert session.atlas(sphere) is atlas
    assert atlas.order == 10
    assert session.atlas(sphere, 8) is not atlas
    assert suites.Session(session.cfg).atlas("sphere") is not atlas


def test_a_public_case_builds_a_fresh_atlas_on_every_call():
    case = get_case("hemisphere")
    assert case.atlas(order=6, panels=1) is not case.atlas(order=6, panels=1)


# -- draw-loop suites against per-draw reference loops ----------------------------
#
# The tensor-algebra, projection and stress.constrained-family rows draw each
# integer of all their draws in one call, then evaluate their draws in shape
# groups, in sorted shape order, each group's normals drawn by one call.  The
# loops below replay that order one draw at a time on the public single-tensor
# API: the integer arrays first, then the normals of each sorted shape group,
# draw by draw.  So values and final generator states must agree.  Each loop
# also returns the random directions of each group, stacked, in group order.


def _shapes(*keys):
    """(shape, draw indices) for each distinct shape of the draws, sorted."""
    rows = [tuple(int(v) for v in row) for row in zip(*keys)]
    for shape in sorted(set(rows)):
        yield shape, [i for i, row in enumerate(rows) if row == shape]


def _frame_of(raw):
    return frame_from_normals(_gram_schmidt(list(raw), 1e-8))


def _algebra_loop(rng):
    worst = dict.fromkeys(("insert", "mixed", "assoc", "pairing", "roundtrip"), -math.inf)
    ns = rng.integers(2, 5, 1000)
    qs = rng.integers(2, 5, 1000)
    mid_ranks = rng.integers(2, 4, 1000)
    r_ranks = rng.integers(1, 4, 1000)
    ms = rng.integers(1, ns)
    raws = []
    for (n, q, m), draws in _shapes(ns, qs, ms):
        group = []
        for _ in draws:
            t = random_tensor(n, q, rng)
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            s = random_tensor(n, q - 1, rng)
            big = random_tensor(n, q, rng)
            group.append(rng.standard_normal((m, n)))
            tang = random_tensor(n, q, rng)
            left = t.insert_left(u).insert_right(v)
            right = t.insert_right(v).insert_left(u)
            worst["insert"] = max(worst["insert"], float(np.max(np.abs(left.array - right.array))))
            contracted = np.tensordot(s.array, big.array, axes=(range(q - 1), range(q - 1)))
            worst["mixed"] = max(
                worst["mixed"], abs(float(contracted @ v) - frobenius(s, big.insert_right(v)))
            )
            frame = _frame_of(group[-1])
            tang = project(frame, tang)
            worst["pairing"] = max(
                worst["pairing"], abs(frobenius(tang, big) - frobenius(tang, project(frame, big)))
            )
            rebuilt = np.stack([c.array for c in t.components()])
            worst["roundtrip"] = max(worst["roundtrip"], float(np.max(np.abs(rebuilt - t.array))))
        raws.append(np.array(group))
    for (n, q, a, b), draws in _shapes(ns, qs, mid_ranks, r_ranks):
        for _ in draws:
            t = random_tensor(n, q, rng)
            mid = random_tensor(n, a, rng)
            r = random_tensor(n, b, rng)
            worst["assoc"] = max(
                worst["assoc"],
                float(np.max(np.abs(dot(dot(t, mid), r).array - dot(t, dot(mid, r)).array))),
            )
    return dict(zip(
        ("algebra.insertion-commute", "algebra.mixed-contraction", "algebra.dot-associative",
         "algebra.tangential-pairing", "algebra.component-roundtrip"),
        (worst["insert"], worst["mixed"], worst["assoc"], worst["pairing"], worst["roundtrip"]),
    )), raws


def _projection_loop(rng, seed):
    oracle = idem = slot = kill = grow = -math.inf
    n = 3
    ms = rng.integers(1, 3, 60)
    qs = rng.integers(1, 4, 60)
    positions = rng.integers(0, 3, 60)
    whiches = rng.integers(0, ms)
    raws = []
    for (m, q), draws in _shapes(ms, qs):
        group = []
        for i in draws:
            group.append(rng.standard_normal((m, n)))
            frame = _frame_of(group[-1])
            t = random_tensor(n, q, rng)
            pt = project(frame, t)
            oracle = max(oracle,
                         float(np.max(np.abs(pt.array - _project_oracle(t.array, frame.P)))))
            idem = max(idem, float(np.max(np.abs(project(frame, pt).array - pt.array))))
            for axis in range(q):
                normal_slot = np.tensordot(pt.array, frame.normals[0], axes=([axis], [0]))
                slot = max(slot, float(np.max(np.abs(normal_slot))))
            grow = max(grow, pt.norm() - t.norm())
            factors = [Tensor(n, rng.standard_normal(n)) for _ in range(3)]
            factors[positions[i]] = Tensor(n, frame.normals[whiches[i]])
            chain = outer(outer(factors[0], factors[1]), factors[2])
            kill = max(kill, project(frame, chain).norm())
        raws.append(np.array(group))
    sphere = get_case("sphere", radius=1.3)
    for x in sphere.sample_points(4, seed=seed):
        frame = sphere.geometry.frame_at(x)
        t = random_tensor(3, 3, rng)
        pt = project(frame, t)
        oracle = max(oracle, float(np.max(np.abs(pt.array - _project_oracle(t.array, frame.P)))))
    return {"projection.oracle": oracle, "projection.idempotent": idem,
            "projection.kills-normal-slots": slot,
            "projection.annihilates-normal-factors": kill, "projection.non-expansive": grow}, raws


def _constrained_family_loop(rng):
    worst = -math.inf
    ns = rng.integers(3, 7, 1000)
    ks = rng.integers(1, ns)
    raws = []
    for (n, k), draws in _shapes(ns, ks):
        group = []
        for _ in draws:
            group.append(rng.standard_normal((k, n)))
            frame = _frame_of(group[-1])
            sig = float(rng.standard_normal()) * frame.P
            for i in range(k):
                sig = sig + np.outer(frame.normals[i], rng.standard_normal(n))
            sig = sig + frame.P @ rng.standard_normal((n, n)) @ frame.P
            worst = max(worst, normal_at_tangential(sig, frame))
        raws.append(np.array(group))
    return worst, raws


@pytest.fixture
def generators(monkeypatch):
    """Every generator made by np.random.default_rng during the test, in order;
    a suite's own generator is the first one its setup makes."""
    made = []
    make = np.random.default_rng

    def recording(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    return made


@pytest.fixture
def fed(monkeypatch):
    """Every array a suite passes to ``_random_frames``, copied, in order."""
    seen = []
    frames = suites._random_frames

    def recording(raw):
        seen.append(np.array(raw))
        return frames(raw)

    monkeypatch.setattr(suites, "_random_frames", recording)
    return seen


def _fresh(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _one_call_sizes():
    """The sizes of the consecutive numbers of one draw, which a group's one
    standard_normal((L, size)) call of a draw suite stands for."""
    for n in (2, 3, 4):
        for q in (2, 3, 4):
            for m in range(1, n):
                # tensor-algebra: t, u, v, s, big, raw, tang
                yield n**q, n, n, n ** (q - 1), n**q, m * n, n**q
            for a in (2, 3):
                for b in (1, 2, 3):
                    yield n**q, n**a, n**b  # tensor-algebra: t, mid, r
    for m in (1, 2):
        for q in (1, 2, 3):
            yield 3 * m, 3**q, 3, 3, 3  # projection: raw, t, three factors
    yield 27, 27, 27, 27  # projection: a rank-3 tensor at each of four points
    for n in range(3, 7):
        for k in range(1, n):
            yield (k * n, 1, *[n] * k, n * n)  # constrained-family: raw, pressure, rows, w


@pytest.mark.parametrize("seed", [0, 1])
def test_one_standard_normal_call_equals_consecutive_calls(seed):
    # the draw suites replay one draw at a time only if this holds; numpy >= 1.24
    # is allowed, so a numpy whose stream differs fails here, not in a residual
    for sizes in _one_call_sizes():
        apart, whole = _fresh(seed), _fresh(seed)
        parts = np.concatenate([apart.standard_normal(size) for _ in range(3) for size in sizes])
        np.testing.assert_array_equal(whole.standard_normal((3, sum(sizes))).ravel(), parts)
        assert whole.bit_generator.state == apart.bit_generator.state, sizes


def _values(rows):
    return {row.stem: row.value(None) for row in rows}


def _session(seed):
    return suites.Session(SuiteConfig(seed=seed))


def _assert_fed(fed, raws):
    # bit for bit: a suite that cuts its directions from the wrong numbers fails
    assert len(fed) == len(raws)
    for got, want in zip(fed, raws):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tensor_algebra_matches_the_per_draw_loop(seed, generators, fed):
    got = _values(suites._tensor_algebra(SuiteConfig(seed=seed), None, _session(seed)))
    rng = _fresh(seed)
    want, raws = _algebra_loop(rng)
    assert list(got) == list(want)
    for stem in want:
        assert abs(got[stem] - want[stem]) <= 1e-13, stem
    assert generators[0].bit_generator.state == rng.bit_generator.state
    _assert_fed(fed, raws)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_matches_the_per_draw_loop(seed, generators, fed):
    got = _values(suites._projection(SuiteConfig(seed=seed), None, _session(seed)))
    rng = _fresh(seed + 1)
    want, raws = _projection_loop(rng, seed)
    assert list(got) == list(want)
    for stem in want:
        assert abs(got[stem] - want[stem]) <= 1e-13, stem
    assert generators[0].bit_generator.state == rng.bit_generator.state
    _assert_fed(fed, raws)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constrained_family_matches_the_per_draw_loop(seed, generators, fed):
    session = _session(seed)
    rows = suites._stress(session.cfg, session.case("hemisphere"), session)
    (family,) = [row for row in rows if row.stem == "stress.constrained-family"]
    # the stress setup draws sigma and the contrapositive's vectors first
    rng = _fresh(seed + 6)
    random_polynomial(3, 2, rng, degree=2)
    rng.standard_normal((5, 3))
    want, raws = _constrained_family_loop(rng)
    assert abs(family.value(None) - want) <= 1e-13
    assert generators[0].bit_generator.state == rng.bit_generator.state
    _assert_fed(fed, raws)


# -- rows are pure functions of their DiffConfig ----------------------------------


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_rows_draw_nothing_after_setup(name, generators):
    session = _session(0)
    suite = suites.SUITES[name]
    rows = suite.setup(session.cfg, suite.case(session), session)
    made = len(generators)
    states = [g.bit_generator.state for g in generators]
    for mode in ("fd2", "analytic"):
        for row in rows:
            if row.when:
                row.value(session.cfg.diff(mode))
    assert [g.bit_generator.state for g in generators[:made]] == states


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_records_do_not_depend_on_row_order(name):
    suite = suites.SUITES[name]
    backwards = dataclasses.replace(suite, setup=lambda *args: suite.setup(*args)[::-1])
    cfg = SuiteConfig(suite=name)
    forward, reverse = (
        {record.id: json.dumps(record.to_dict()) for record in run(suites.Session(cfg))}
        for run in (suite, backwards)
    )
    assert len(forward) > 1
    assert reverse == forward


# -- shape groups, sample points and stencils ----------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_shape_groups_match_the_sorted_distinct_keys(seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 300))
    keys = [rng.integers(0, int(rng.integers(1, 9)), count) for _ in range(int(rng.integers(1, 5)))]
    rows = list(zip(*(k.tolist() for k in keys)))
    want = [(shape, [i for i, row in enumerate(rows) if row == shape])
            for shape in sorted(set(rows))]
    got = [(shape, at.tolist()) for shape, at in suites._shape_groups(*keys)]
    assert got == want


def test_sample_points_build_no_atlas(monkeypatch):
    case = get_case("torus")
    want = case.sample_points(7, t=0.2, seed=3)
    built = []
    monkeypatch.setattr(builtins, "Atlas", lambda *args, **kwargs: built.append(args))
    got = case.sample_points(7, t=0.2, seed=3)
    assert built == []
    np.testing.assert_array_equal(got, want)
    assert not got.flags.writeable


def test_analytic_runs_take_only_the_deliberate_stencils(monkeypatch):
    # the five difference oracles of the evolving suite and nothing else: the
    # operators' time partials, the gradients of material derivatives and the
    # Jacobians of RK4-advected charts are exact
    from tensorcalc import evolving, geometry, operators, quadrature, tensor

    depth, callers = [0], []
    for name in ("_partials", "_central"):
        stencil = getattr(tensor, name)

        def counted(*args, _stencil=stencil, **kwargs):
            if depth[0] == 0:
                callers.append(sys._getframe(1).f_code.co_name)
            depth[0] += 1
            try:
                return _stencil(*args, **kwargs)
            finally:
                depth[0] -= 1

        for module in (tensor, geometry, operators, quadrature, evolving):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    assert run_suite(SuiteConfig(suite="all", fd="analytic")).passed
    assert sorted(callers) == sorted(["transport_rate_fd"] * 2 + ["dirichlet_rate_fd"] * 2
                                     + ["material_consistency"])


def test_only_parameter_errors_of_a_builder_are_usage_errors(monkeypatch):
    from tensorcalc import builtins
    from tensorcalc.geometry import GeometryError

    session = suites.Session(SuiteConfig())
    with pytest.raises(suites.SuiteError, match="has no parameter bogus"):
        session.case("sphere", bogus=1.0)
    with pytest.raises(suites.SuiteError, match="radius must be positive"):
        session.case("sphere", radius=0.0)

    def broken(radius: float = 1.0):
        raise GeometryError("a bug in the builder")

    monkeypatch.setitem(builtins.REGISTRY, "sphere", broken)
    with pytest.raises(GeometryError, match="a bug in the builder"):
        session.case("sphere", radius=2.0)
