"""End-to-end behavior of the command line interface."""

import json

import pytest

from tensorcalc.cli import main


def test_list_prints_suites_and_geometries(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "suites:" in out
    assert "geometries:" in out
    for name in ("tensor-algebra", "all", "sphere", "torus", "expanding_sphere"):
        assert name in out


def test_verify_writes_report_and_summary(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["verify", "--suite", "projection", "--out", str(target)])
    assert code == 0
    report = json.loads(target.read_text())
    assert report["schema"] == 1
    assert report["suite"] == "projection"
    assert report["overall_pass"] is True
    assert all(c["pass"] for c in report["checks"])
    assert {"id", "identity", "abs_residual", "rel_residual", "tolerance"} <= set(
        report["checks"][0]
    )
    out = capsys.readouterr().out
    assert "PASS: 5/5" in out


def test_verify_without_out_streams_json(capsys):
    assert main(["verify", "--suite", "projection"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "projection"


def test_unknown_geometry_is_usage_error(tmp_path, capsys):
    target = tmp_path / "never.json"
    code = main(["verify", "--suite", "stokes", "--geometry", "nosuch", "--out", str(target)])
    assert code == 2
    assert not target.exists()
    assert "error:" in capsys.readouterr().err


def test_unknown_suite_is_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_failing_tolerance_still_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "--suite",
            "projection",
            "--tol",
            "projection.idempotent=1e-30",
            "--out",
            str(target),
        ]
    )
    assert code == 1
    report = json.loads(target.read_text())
    assert report["overall_pass"] is False
    failed = [c["id"] for c in report["checks"] if not c["pass"]]
    assert failed == ["projection.idempotent"]
    assert "FAIL" in capsys.readouterr().out


def test_unknown_tol_id_is_usage_error(tmp_path, capsys):
    target = tmp_path / "never.json"
    code = main(["verify", "--suite", "projection", "--tol",
                 "projection.idempotnt=1e-30,projection.idempotent=1e-8", "--out", str(target)])
    assert code == 2
    assert not target.exists()
    err = capsys.readouterr().err
    assert "projection.idempotnt" in err
    assert "projection.idempotent," not in err


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for smoke runs\nsuite = projection\norder = 9\nseed = 5\n")
    out1 = tmp_path / "a.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    report = json.loads(out1.read_text())
    assert report["suite"] == "projection"
    assert report["config"]["order"] == 9
    assert report["config"]["seed"] == 5

    out2 = tmp_path / "b.json"
    assert main(["verify", "--config", str(cfg), "--seed", "11", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text())["config"]["seed"] == 11
    capsys.readouterr()


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert "not_a_key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["suite = nosuch", "fd = fd3", "order = x", "hx = -1",
                                  "order = 0", "panels = 0", "seed = -1"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"suite = projection\n{line}\n")
    target = tmp_path / "never.json"
    assert main(["verify", "--config", str(cfg), "--out", str(target)]) == 2
    assert not target.exists()
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "tensor-algebra", "--order", "0"],
    ["verify", "--suite", "stokes", "--panels", "0"],
    ["verify", "--suite", "tensor-algebra", "--seed", "-1"],
    ["verify", "--suite", "stokes", "--seed", "-1"],
    ["convergence", "--panels", "0"],
])
def test_bad_flag_value_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "never.out"
    assert main([*argv, "--out", str(target)]) == 2
    assert not target.exists()
    assert f"{argv[-2][2:]} must be at least" in capsys.readouterr().err


def test_reports_are_deterministic(tmp_path, capsys):
    # two runs of every suite in one interpreter: nothing carries over
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        assert main(["verify", "--suite", "all", "--seed", "3", "--out", str(p)]) == 0
    a, b = (json.loads(p.read_text()) for p in paths)
    a.pop("wall_time_s")
    b.pop("wall_time_s")
    assert a == b
    capsys.readouterr()


def test_geometry_override_changes_the_run(tmp_path, capsys):
    target = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--suite",
            "stokes",
            "--geometry",
            "torus",
            "--geom-params",
            "major=2.0,minor=0.4",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    report = json.loads(target.read_text())
    assert report["config"]["geometry"] == "torus"
    assert report["config"]["geom_params"] == {"major": 2.0, "minor": 0.4}
    capsys.readouterr()


def test_convergence_csv(tmp_path, capsys):
    target = tmp_path / "conv.csv"
    assert main(["convergence", "--out", str(target)]) == 0
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "quantity,parameter,value,residual,decreasing"
    area = [ln.split(",") for ln in lines[1:] if ln.startswith("sphere-area")]
    assert len(area) >= 4
    assert area[0][4] == ""
    assert all(row[4] == "true" for row in area[1:])
    curvature = [ln for ln in lines[1:] if ln.startswith("curvature-sphere")]
    assert len(curvature) >= 4
    capsys.readouterr()


@pytest.mark.parametrize("line", [
    "seed = 7", "geometry = nonsense", "tol = bogus.id=1", "hx = 1e-4", "order = 3",
])
def test_convergence_config_rejects_keys_it_does_not_read(tmp_path, capsys, line):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(f"{line}\n")
    target = tmp_path / "never.csv"
    assert main(["convergence", "--config", str(cfg), "--out", str(target)]) == 2
    assert not target.exists()
    err = capsys.readouterr().err
    assert line.split(" = ")[0] in err and "convergence" in err


def test_convergence_config_keys_it_reads_take_effect(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("fd = fd4\npanels = 1\n")
    paths = {name: tmp_path / f"{name}.csv" for name in ("config", "flags", "default")}
    assert main(["convergence", "--config", str(cfg), "--out", str(paths["config"])]) == 0
    assert main(["convergence", "--fd", "fd4", "--panels", "1", "--out", str(paths["flags"])]) == 0
    assert main(["convergence", "--out", str(paths["default"])]) == 0
    text = {name: path.read_text() for name, path in paths.items()}
    assert text["config"] == text["flags"] != text["default"]
    capsys.readouterr()


@pytest.mark.parametrize("flag", [
    ["--suite", "curl"], ["--geometry", "nonsense"], ["--geom-params", "radius=2"],
    ["--order", "3"], ["--hx", "1e-3"], ["--tol", "bogus.id=1"], ["--seed", "7"],
])
def test_convergence_rejects_options_it_does_not_read(tmp_path, capsys, flag):
    target = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as exc:
        main(["convergence", *flag, "--out", str(target)])
    assert exc.value.code == 2
    assert not target.exists()
    assert flag[0] in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--geometry", "torus", "--geom-params", "major=0.2,minor=0.5"],
    ["--geometry", "sphere", "--geom-params", "bogus=1"],
    ["--suite", "laplacian", "--geometry", "sphere", "--geom-params", "radius=-1"],
    ["--geom-params", "radius=2"],
])
def test_bad_geometry_parameters_are_usage_errors(tmp_path, capsys, flags):
    target = tmp_path / "never.json"
    assert main(["verify", *flags, "--out", str(target)]) == 2
    assert not target.exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
