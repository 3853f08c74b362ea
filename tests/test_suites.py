"""The suite runner's contract: mode expansion, check ids, geometry choice;
and the draw-loop suites against their per-draw reference loops."""

import json
import math

import numpy as np
import pytest

from tensorcalc import suites
from tensorcalc.builtins import get_case
from tensorcalc.cli import main
from tensorcalc.geometry import _gram_schmidt, frame_from_normals, project
from tensorcalc.stress import normal_at_tangential
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


# -- draw-loop suites against per-draw reference loops ----------------------------
#
# The tensor-algebra, projection and stress.constrained-family rows evaluate
# their random draws in shape groups.  The loops below are the same checks
# written one draw at a time on the public single-tensor API; they consume the
# generator in the same order, so values and final generator states must agree.


def _frame_one_at_a_time(rng, n, m):
    return frame_from_normals(_gram_schmidt(list(rng.standard_normal((m, n))), 1e-8))


def _algebra_loop(rng):
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
        mid = random_tensor(n, int(rng.integers(2, 4)), rng)
        r = random_tensor(n, int(rng.integers(1, 4)), rng)
        worst["assoc"] = max(
            worst["assoc"],
            float(np.max(np.abs(dot(dot(t, mid), r).array - dot(t, dot(mid, r)).array))),
        )
        frame = _frame_one_at_a_time(rng, n, int(rng.integers(1, n)))
        tang = project(frame, random_tensor(n, q, rng))
        worst["pairing"] = max(
            worst["pairing"], abs(frobenius(tang, big) - frobenius(tang, project(frame, big)))
        )
        rebuilt = np.stack([c.array for c in t.components()])
        worst["roundtrip"] = max(worst["roundtrip"], float(np.max(np.abs(rebuilt - t.array))))
    return dict(zip(
        ("algebra.insertion-commute", "algebra.mixed-contraction", "algebra.dot-associative",
         "algebra.tangential-pairing", "algebra.component-roundtrip"),
        (worst["insert"], worst["mixed"], worst["assoc"], worst["pairing"], worst["roundtrip"]),
    ))


def _projection_loop(rng, seed):
    oracle = idem = slot = kill = 0.0
    grow = -math.inf
    for _ in range(60):
        n, m = 3, int(rng.integers(1, 3))
        q = int(rng.integers(1, 4))
        frame = _frame_one_at_a_time(rng, n, m)
        t = random_tensor(n, q, rng)
        pt = project(frame, t)
        oracle = max(oracle, float(np.max(np.abs(pt.array - _project_oracle(t.array, frame.P)))))
        idem = max(idem, float(np.max(np.abs(project(frame, pt).array - pt.array))))
        for axis in range(q):
            normal_slot = np.tensordot(pt.array, frame.normals[0], axes=([axis], [0]))
            slot = max(slot, float(np.max(np.abs(normal_slot))))
        grow = max(grow, pt.norm() - t.norm())
        pos = int(rng.integers(0, 3))
        factors = [Tensor(n, rng.standard_normal(n)) for _ in range(3)]
        factors[pos] = Tensor(n, frame.normals[int(rng.integers(0, m))])
        kill = max(kill, project(frame, outer(outer(factors[0], factors[1]), factors[2])).norm())
    sphere = get_case("sphere", radius=1.3)
    for x in sphere.sample_points(4, seed=seed):
        frame = sphere.geometry.frame_at(x)
        t = random_tensor(3, 3, rng)
        pt = project(frame, t)
        oracle = max(oracle, float(np.max(np.abs(pt.array - _project_oracle(t.array, frame.P)))))
    return {"projection.oracle": oracle, "projection.idempotent": idem,
            "projection.kills-normal-slots": slot,
            "projection.annihilates-normal-factors": kill, "projection.non-expansive": grow}


def _constrained_family_loop(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n))
        frame = _frame_one_at_a_time(rng, n, k)
        sig = float(rng.standard_normal()) * frame.P
        for i in range(k):
            sig = sig + np.outer(frame.normals[i], rng.standard_normal(n))
        sig = sig + frame.P @ rng.standard_normal((n, n)) @ frame.P
        worst = max(worst, normal_at_tangential(sig, frame))
    return worst


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


def _fresh(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _one_call_sizes():
    """The sizes of the consecutive draws that one standard_normal call of a
    draw suite stands for."""
    for n in (2, 3, 4):
        for q in (2, 3, 4):
            yield n**q, n, n, n ** (q - 1), n**q  # tensor-algebra: t, u, v, s, big
            for m in range(1, n):
                yield m * n, n**q  # raw, tang
    for m in (1, 2):
        for q in (1, 2, 3):
            yield 3 * m, 3**q  # projection: raw, t
    yield 3, 3, 3  # projection: three factors
    yield 27, 27, 27, 27  # projection: a rank-3 tensor at each of four points
    for n in range(3, 7):
        for k in range(1, n):
            yield k * n, 1, k * n, n * n  # constrained-family: raw, pressure, rows, w


@pytest.mark.parametrize("seed", [0, 1])
def test_one_standard_normal_call_equals_consecutive_calls(seed):
    # the draw suites keep their streams only if this holds; numpy >= 1.24 is
    # allowed, so a numpy whose stream differs fails here, not in a residual
    for sizes in _one_call_sizes():
        apart, whole = _fresh(seed), _fresh(seed)
        parts = np.concatenate([apart.standard_normal(size) for size in sizes])
        np.testing.assert_array_equal(whole.standard_normal(sum(sizes)), parts)
        assert whole.bit_generator.state == apart.bit_generator.state, sizes


def _values(rows):
    return {row.stem: row.value(None) for row in rows}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tensor_algebra_matches_the_per_draw_loop(seed, generators):
    got = _values(suites._tensor_algebra(SuiteConfig(seed=seed), None))
    rng = _fresh(seed)
    want = _algebra_loop(rng)
    assert list(got) == list(want)
    for stem in want:
        assert abs(got[stem] - want[stem]) <= 1e-13, stem
    assert generators[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_projection_matches_the_per_draw_loop(seed, generators):
    got = _values(suites._projection(SuiteConfig(seed=seed), None))
    rng = _fresh(seed + 1)
    want = _projection_loop(rng, seed)
    assert list(got) == list(want)
    for stem in want:
        assert abs(got[stem] - want[stem]) <= 1e-13, stem
    assert generators[0].bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_constrained_family_matches_the_per_draw_loop(seed, generators):
    rows = suites._stress(SuiteConfig(seed=seed), get_case("hemisphere"))
    (family,) = [row for row in rows if row.stem == "stress.constrained-family"]
    suite_rng = generators[0]
    rng = _fresh(0)
    rng.bit_generator.state = suite_rng.bit_generator.state
    got = family.value(None)
    assert abs(got - _constrained_family_loop(rng)) <= 1e-13
    assert suite_rng.bit_generator.state == rng.bit_generator.state
