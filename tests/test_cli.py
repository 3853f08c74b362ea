"""End-to-end behavior of the command line interface."""

import argparse
import inspect
import json
import math
import re

import numpy as np
import pytest

from tensorcalc import cli
from tensorcalc.builtins import REGISTRY
from tensorcalc.cli import build_parser, main
from tensorcalc.suites import SuiteConfig, SuiteError


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


def _parser_exits(argv):
    """main(argv) ends in the parser's usage error, SystemExit(2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 3\n")
    _parser_exits(["verify", "--config", str(cfg)])
    assert "not_a_key" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["suite = nosuch", "fd = fd3", "order = x", "hx = -1",
                                  "order = 0", "panels = 0", "seed = -1", "hx = nan", "ht = inf",
                                  "tol = projection.idempotent=nan"])
def test_bad_config_value_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"suite = projection\n{line}\n")
    target = tmp_path / "never.json"
    argv = ["verify", "--config", str(cfg), "--out", str(target)]
    if line in ("suite = nosuch", "fd = fd3", "order = x"):  # the parser's choices or type
        _parser_exits(argv)
    else:  # a value that SuiteConfig rejects
        assert main(argv) == 2
    assert not target.exists()
    err = capsys.readouterr().err
    assert "error:" in err and line.split(" = ")[0] in err


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
    "seed = 7", "geometry = nonsense", "tol = bogus.id=1", "hx = 1e-4", "ht = 1e-3", "order = 3",
])
def test_convergence_config_rejects_keys_it_does_not_read(tmp_path, capsys, line):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text(f"{line}\n")
    target = tmp_path / "never.csv"
    _parser_exits(["convergence", "--config", str(cfg), "--out", str(target)])
    assert not target.exists()
    err = capsys.readouterr().err
    assert f"unknown config key '{line.split(' = ')[0]}' for 'convergence'" in err


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
    ["--order", "3"], ["--hx", "1e-3"], ["--ht", "1e-3"], ["--tol", "bogus.id=1"],
    ["--seed", "7"],
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
    ["--suite", "laplacian", "--geometry", "sphere", "--geom-params", "radius=inf"],
    ["--suite", "stokes", "--geometry", "torus", "--geom-params", "major=inf"],
    # projection runs on no geometry: the configured case is built all the same
    ["--suite", "projection", "--geometry", "sphere", "--geom-params", "bogus=1"],
])
def test_bad_geometry_parameters_are_usage_errors(tmp_path, capsys, flags):
    target = tmp_path / "never.json"
    assert main(["verify", *flags, "--out", str(target)]) == 2
    assert not target.exists()
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def _first_parameter(name):
    return next(iter(inspect.signature(REGISTRY[name]).parameters))


@pytest.mark.parametrize("geometry,params,code", [
    *((name, None, 0) for name in REGISTRY),
    *((name, f"{_first_parameter(name)}={value}", 2) for name in REGISTRY for value in (0, -1)),
    *((name, "bogus=1", 2) for name in REGISTRY),
])
def test_every_builtin_runs_at_its_defaults_and_rejects_bad_parameters(
        tmp_path, capsys, geometry, params, code):
    target = tmp_path / "r.json"
    flags = ["--geometry", geometry] + (["--geom-params", params] if params else [])
    assert main(["verify", "--suite", "all", *flags, "--out", str(target)]) == code
    assert target.exists() == (code == 0)
    capsys.readouterr()


def test_the_evolving_suite_takes_the_default_speed_of_its_case(tmp_path, capsys):
    target = tmp_path / "r.json"
    flags = ["--geometry", "expanding_sphere", "--geom-params", "radius=1"]
    assert main(["verify", "--suite", "evolving", *flags, "--out", str(target)]) == 0
    rates = [c for c in json.loads(target.read_text())["checks"]
             if c["id"].startswith("evolve.area-rate.")]
    assert len(rates) == 2
    assert all(c["rhs"] == pytest.approx(8 * math.pi * 0.1, rel=1e-15) for c in rates)
    capsys.readouterr()


# -- one parser for flags and config files ------------------------------------------


def _options(command):
    """The options of a subcommand, from the parser's actions, ``--config`` excepted."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [a for a in commands[command]._actions
            if a.option_strings and a.dest not in ("help", "config")]


# a valid value away from the default for each option, and the flags it needs besides
GOOD = {"suite": "projection", "geometry": "torus", "geom_params": "radius=2", "order": "9",
        "hx": "2e-4", "tol": "projection.idempotent=1e-8", "seed": "7", "panels": "3",
        "fd": "fd4", "ht": "2e-4", "out": "report.out"}
NEEDS = {"geom_params": ["--geometry", "sphere"]}
OPTIONS = [(command, action) for command in ("verify", "convergence")
           for action in _options(command)]


def _bad_value(action):
    if action.choices:
        return {"fd": "fd3", "suite": "nosuch"}[action.dest]
    if action.type in (int, float):
        return "x"
    return "radius" if action.type is cli._parse_mapping else None


def _settings_of(monkeypatch, argv):
    """The SuiteConfig and ``out`` that main(argv) would run with."""
    seen = []

    def capture(args):
        seen.append((cli._suite_config(args), args.out))
        return 0

    monkeypatch.setattr(cli, "cmd_verify", capture)
    monkeypatch.setattr(cli, "cmd_convergence", capture)
    assert main(argv) == 0
    return seen[0]


def test_every_option_has_a_value_in_the_parity_tables():
    assert {action.dest for _, action in OPTIONS} == set(GOOD)


def _ids(options):
    return [f"{command}{action.option_strings[0]}" for command, action in options]


@pytest.mark.parametrize("command,action", OPTIONS, ids=_ids(OPTIONS))
def test_a_config_entry_and_its_flag_give_the_same_settings(tmp_path, monkeypatch,
                                                            command, action):
    flag, value = action.option_strings[0], GOOD[action.dest]
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{action.dest} = {value}\n")
    needs = NEEDS.get(action.dest, [])
    from_file = _settings_of(monkeypatch, [command, "--config", str(cfg), *needs])
    from_flag = _settings_of(monkeypatch, [command, flag, value, *needs])
    assert from_file == from_flag
    assert from_file != _settings_of(monkeypatch, [command, *needs])


TYPED = [(command, action) for command, action in OPTIONS if _bad_value(action)]


@pytest.mark.parametrize("command,action", TYPED, ids=_ids(TYPED))
def test_a_bad_value_ends_alike_from_a_flag_and_from_the_file(tmp_path, capsys,
                                                              command, action):
    flag, bad = action.option_strings[0], _bad_value(action)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{action.dest} = {bad}\n")
    target = tmp_path / "never.out"
    _parser_exits([command, flag, bad, "--out", str(target)])
    from_flag = capsys.readouterr().err
    _parser_exits([command, "--config", str(cfg), "--out", str(target)])
    from_file = capsys.readouterr().err
    assert from_file == from_flag
    assert from_file.startswith("usage:") and f"argument {flag}: " in from_file
    assert not target.exists()


@pytest.mark.parametrize("line", ["ord = 9", "config = x"])
def test_a_prefix_and_the_config_option_are_unknown_keys(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    target = tmp_path / "never.json"
    _parser_exits(["verify", "--config", str(cfg), "--out", str(target)])
    assert not target.exists()
    key = line.split(" = ")[0]
    assert f"unknown config key '{key}' for 'verify'" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("suite projection\n", "bad.cfg:1: expected key=value, got 'suite projection'"),
    (None, "cannot read config file"),
], ids=["no-equals-sign", "missing-file"])
def test_a_malformed_or_missing_config_file_is_a_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    if text is not None:
        cfg.write_text(text)
    target = tmp_path / "never.json"
    _parser_exits(["verify", "--config", str(cfg), "--out", str(target)])
    assert not target.exists()
    assert message in capsys.readouterr().err


def test_a_flag_is_not_matched_by_its_prefix(tmp_path, capsys):
    target = tmp_path / "never.json"
    _parser_exits(["verify", "--suite", "projection", "--ord", "9", "--out", str(target)])
    assert not target.exists()
    assert "unrecognized arguments: --ord" in capsys.readouterr().err


def test_flags_win_over_the_file(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 5\nfd = fd4\ngeometry = sphere\ngeom-params = radius=2\n")
    argv = ["verify", "--config", str(cfg), "--seed", "8", "--geom-params", "radius=3"]
    run = _settings_of(monkeypatch, argv)[0]
    assert (run.seed, run.fd, run.geometry) == (8, "fd4", "sphere")
    assert run.geom_params == {"radius": 3.0}


@pytest.mark.parametrize("settings,message", [
    ({"suite": "nosuch"}, "unknown suite 'nosuch' (known: tensor-algebra, projection,"),
    ({"order": 12.7}, "order must be an integer, got 12.7"),
    ({"panels": 2.0}, "panels must be an integer, got 2.0"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
    ({"order": True}, "order must be an integer, got True"),
    ({"panels": True}, "panels must be an integer, got True"),
    ({"seed": False}, "seed must be an integer, got False"),
    ({"hx": "abc"}, "hx must be positive and finite, got abc"),
    ({"ht": None}, "ht must be positive and finite, got None"),
    ({"tol": {"x": "abc"}}, "tolerance of 'x' must be a finite number, got 'abc'"),
    ({"tol": None}, "tol must be a dict with string keys, got None"),
    ({"tol": {1: 1e-3}}, "tol must be a dict with string keys, got {1: 0.001}"),
    ({"geometry": ["sphere"]}, "unknown geometry ['sphere'] (known: circle2d,"),
    ({"geometry": "sphere", "geom_params": [("radius", 2.0)]},
     "geom_params must be a dict with string keys, got [('radius', 2.0)]"),
    ({"geometry": "sphere", "geom_params": {1: 2.0}},
     "geom_params must be a dict with string keys, got {1: 2.0}"),
], ids=["suite", "order", "panels", "seed", "order-bool", "panels-bool", "seed-bool", "hx-text",
        "ht-none", "tol-text", "tol-none", "tol-key", "geometry-list", "geom-params-pairs",
        "geom-params-key"])
def test_suite_config_checks_every_setting(settings, message):
    with pytest.raises(SuiteError, match=re.escape(message)):
        SuiteConfig(**settings)


def test_a_mapping_option_skips_empty_items():
    assert cli._parse_mapping(" radius = 2 ,, speed=0.5,") == {"radius": 2.0, "speed": 0.5}


def test_suite_config_takes_numpy_integers():
    cfg = SuiteConfig(order=np.int64(9), panels=np.int32(3), seed=np.uint8(1))
    assert (cfg.order, cfg.panels, cfg.seed) == (9, 3, 1)
    assert all(type(v) is int for v in (cfg.order, cfg.panels, cfg.seed))
