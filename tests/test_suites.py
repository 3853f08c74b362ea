"""The suite runner's contract: mode expansion, check ids, geometry choice."""

import json

import pytest

from tensorcalc import suites
from tensorcalc.cli import main
from tensorcalc.suites import SuiteConfig, run_suite


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
