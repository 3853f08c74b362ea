"""Check records of every kind, field by field: as ``make_check`` builds them
and as the suite runner builds them from table rows."""

import math

import numpy as np
import pytest

from tensorcalc.geometry import _norm, _project_array, frame_from_normals
from tensorcalc.quadrature import IdentityResult
from tensorcalc.report import make_check
from tensorcalc.suites import Check, SuiteConfig, _record


def _record_of(row, mode_name="fd2"):
    cfg = SuiteConfig()
    return _record(cfg, row, cfg.diff(mode_name))


def test_rel_and_abs_records_compare_two_values():
    scale = float(np.linalg.norm([3.0, 4.5]))
    rel = make_check("c.rel", "two vectors agree", np.array([3.0, 4.0]), [3.0, 4.5], 0.1,
                     details={"piece": 2.0})
    assert rel.to_dict() == {
        "id": "c.rel", "identity": "two vectors agree", "lhs": [3.0, 4.0], "rhs": [3.0, 4.5],
        "abs_residual": 0.5, "rel_residual": 0.5 / scale, "tolerance": 0.1, "measure": "rel",
        "pass": True, "details": {"piece": 2.0},
    }
    absolute = make_check("c.abs", "two numbers agree", 2.0, 2.5, 0.4, measure="abs")
    assert absolute.to_dict() == {
        "id": "c.abs", "identity": "two numbers agree", "lhs": 2.0, "rhs": 2.5,
        "abs_residual": 0.5, "rel_residual": 0.5 / 2.5, "tolerance": 0.4, "measure": "abs",
        "pass": False,
    }


def test_a_negative_bound_keeps_its_sign(rng):
    """projection.non-expansive bounds |proj T| - |T|, which is negative."""
    frame = frame_from_normals(np.linalg.qr(rng.normal(size=(3, 1)))[0].T)
    t = rng.normal(size=(3, 3))
    grow = float(_norm(_project_array(t, frame.P).ravel()) - _norm(t.ravel()))
    assert grow < 0.0
    record = make_check("projection.non-expansive", "never grows", grow, None, 1e-15,
                        measure="bound")
    assert record.to_dict() == {
        "id": "projection.non-expansive", "identity": "never grows", "lhs": grow, "rhs": 0.0,
        "abs_residual": grow, "rel_residual": grow, "tolerance": 1e-15, "measure": "abs",
        "pass": True,
    }
    assert not make_check("b", "", 2e-15, None, 1e-15, measure="bound").passed


def test_a_floor_at_its_tolerance_passes():
    record = make_check("c.floor", "stays away from zero", 0.5, None, 0.5, measure="floor")
    assert record.to_dict() == {
        "id": "c.floor", "identity": "stays away from zero", "lhs": 0.5, "rhs": 0.5,
        "abs_residual": 0.5, "rel_residual": 0.5, "tolerance": 0.5, "measure": "floor",
        "pass": True,
    }
    assert not make_check("c.floor", "", np.nextafter(0.5, 0.0), None, 0.5, measure="floor").passed
    # a floor below zero, as laplacian.weak-coercive has, passes at zero
    assert make_check("c.coercive", "", 0.0, None, -1e-12, measure="floor").passed


@pytest.mark.parametrize("measure", ["bound", "floor", "rel", "abs"])
def test_a_nan_value_fails_every_kind(measure):
    record = make_check("c.nan", "", math.nan, 0.0, 1.0, measure=measure)
    assert not record.passed
    assert math.isnan(record.lhs) and math.isnan(record.abs_residual)


def test_the_runner_builds_each_kind_with_make_check():
    pieces = {"boundary": np.array([3.0, 4.0]), "curvature": 0.25}
    rows = [
        (Check("s.bound", "below", 1e-12, lambda m: -1e-16), "fd2",
         make_check("s.bound", "below", -1e-16, None, 1e-12, measure="bound")),
        (Check("s.floor", "above", (0.1, 0.2), lambda m: 0.2, kind="floor", per_mode=True),
         "analytic", make_check("s.floor.analytic", "above", 0.2, None, 0.2, measure="floor")),
        (Check("s.rel", "equal", 1e-6, lambda m: IdentityResult(1.0, 1.0 + 1e-9, pieces),
               kind="rel"), "fd2",
         make_check("s.rel", "equal", 1.0, 1.0 + 1e-9, 1e-6,
                    details={"boundary": 5.0, "curvature": 0.25})),
        (Check("s.abs", "equal", (1e-6, 1e-8), lambda m: (2.0, 2.0), kind="abs", per_mode=True),
         "fd4", make_check("s.abs.fd4", "equal", 2.0, 2.0, 1e-6, measure="abs")),
    ]
    for row, mode_name, want in rows:
        assert _record_of(row, mode_name) == want, row.stem

