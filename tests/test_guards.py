"""Every input guard of a public entry point raises its documented error:
one row per guard, as (call, error type, message fragment)."""

import re

import numpy as np
import pytest

from tensorcalc.builtins import ParameterError, expanding_sphere, get_case
from tensorcalc.fields import (
    TensorField, constant, polynomial, scalar_field, tf_add, tf_outer, vector_field,
)
from tensorcalc.geometry import (
    GeometryError, LevelSet, LevelSetGeometry, frame_from_normals, project,
)
from tensorcalc.operators import (
    DiffConfig, divergence, material_derivative, normal_field, perp_field, projector_rate,
)
from tensorcalc.quadrature import (
    Atlas, Chart, gradient_residual, integration_by_parts, path_ftc_residual, stokes_residual,
)
from tensorcalc.stress import transpose_field
from tensorcalc.tensor import (
    ShapeError, Tensor, basis_covector, contract_left, contract_right, covector,
    from_components, scalar,
)

FD2 = DiffConfig()
SPHERE = get_case("sphere")
GEOM = SPHERE.geometry
NORTH = np.array([0.0, 0.0, 1.0])
ONE = scalar_field(3, lambda x, t: 1.0)
VEC = vector_field(3, lambda x, t: x)
MAT = constant(3, Tensor(3, np.eye(3)))
V = covector([1.0, 0.0, 0.0])
M = Tensor(3, np.eye(3))


def _squared_sphere():
    """|x|^2 - 1, whose gradient is 2x: not of unit length on the sphere."""
    level = LevelSet(lambda x, t: x @ x - 1.0, lambda x, t: 2.0 * x)
    return LevelSetGeometry(3, [level])


def _atlas():
    return SPHERE.atlas(order=2, panels=1)


GUARDS = {
    # operators
    "normal_field index": (lambda: normal_field(GEOM, 1), ShapeError, "normal index 1"),
    "divergence of a scalar": (lambda: divergence(ONE, GEOM, FD2), ShapeError,
                               "divergence needs rank >= 1"),
    "perp_field of a scalar": (lambda: perp_field(ONE, GEOM, FD2), ShapeError,
                               "perp needs rank >= 1"),
    "material velocity": (lambda: material_derivative(VEC, ONE, FD2), ShapeError,
                          "material velocity"),
    "projector_rate unit gradient": (
        lambda: projector_rate(_squared_sphere(), VEC, FD2).values(NORTH), GeometryError,
        "unit level-set gradients"),
    # quadrature
    "stokes_residual of a scalar": (lambda: stokes_residual(_atlas(), ONE, FD2), ShapeError,
                                    "divergence identity needs rank >= 1"),
    "gradient_residual of a vector": (lambda: gradient_residual(_atlas(), VEC, FD2), ShapeError,
                                      "scalar fields"),
    "integration_by_parts ranks": (lambda: integration_by_parts(_atlas(), VEC, VEC, FD2),
                                   ShapeError, "rank(S) < rank(T)"),
    "path_ftc_residual on a surface": (lambda: path_ftc_residual(_atlas(), ONE, VEC, FD2),
                                       GeometryError, "1-d manifold"),
    "Atlas of no charts": (lambda: Atlas(GEOM, [], name="bare"), ShapeError,
                           "atlas 'bare' has no charts"),
    "Atlas order": (lambda: SPHERE.atlas(order=12.7), ShapeError,
                    "atlas 'sphere': order and panels must be positive integers, "
                    "got order = 12.7"),
    "Atlas panels": (lambda: SPHERE.atlas(panels=np.float64(2.0)), ShapeError,
                     "must be positive integers, got panels = "),
    "Chart.points of a constant map": (
        lambda: Chart([0.0], [1.0], lambda u, t: np.zeros(3)).points(2, 1), GeometryError,
        "degenerate chart metric"),
    # fields
    "TensorField n": (lambda: TensorField(9, 0, lambda x, t: 1.0), ShapeError,
                      "ambient dimension"),
    "TensorField q": (lambda: TensorField(3, 9, lambda x, t: 1.0), ShapeError,
                      "rank must be"),
    "TensorField gradient rank": (lambda: TensorField(3, 0, lambda x, t: 1.0, grad=MAT),
                                  ShapeError, "must be a rank-1 field"),
    "gradient_values without a provider": (
        lambda: TensorField(3, 0, lambda x, t: 1.0).gradient_values(NORTH), ShapeError,
        "no analytic gradient"),
    "dt_values without a provider": (
        lambda: TensorField(3, 0, lambda x, t: 1.0).dt_values(NORTH), ShapeError,
        "no analytic time derivative"),
    "polynomial exponents": (lambda: polynomial(3, 0, [[1, 0]], [1.0]), ShapeError,
                             "exponents must have shape"),
    "polynomial coefficients": (lambda: polynomial(3, 1, [[1, 0, 0]], [1.0]), ShapeError,
                                "coefficient array"),
    "tf_add shapes": (lambda: tf_add(ONE, VEC), ShapeError, "cannot add"),
    "tf_outer dimensions": (lambda: tf_outer(VEC, scalar_field(2, lambda x, t: 1.0)),
                            ShapeError, "common ambient dimension"),
    # geometry
    "LevelSetGeometry n": (lambda: LevelSetGeometry(9, GEOM.levels), ShapeError,
                           "ambient dimension"),
    "LevelSetGeometry m": (lambda: LevelSetGeometry(3, GEOM.levels * 3), ShapeError,
                           "need 1 <= m < n"),
    "frame_at point dimension": (lambda: GEOM.frame_at([1.0, 0.0]), ShapeError,
                                 "does not live in R^3"),
    "project across dimensions": (lambda: project(GEOM.frame_at(NORTH), Tensor(4, np.ones(4))),
                                  ShapeError, "tensor lives in R^4"),
    "frame_from_normals m": (lambda: frame_from_normals(np.eye(3)), GeometryError,
                             "need 1 <= m < n"),
    # tensor
    "component index": (lambda: V.component(3), ShapeError, "component index 3"),
    "component of a scalar": (lambda: scalar(1.0).component(0), ShapeError, "no components"),
    "covector of a matrix": (lambda: covector(np.eye(3)), ShapeError, "1-d array"),
    "from_components empty": (lambda: from_components([]), ShapeError, "at least one"),
    "from_components count": (lambda: from_components([V, V]), ShapeError, "exactly 3"),
    "basis_covector index": (lambda: basis_covector(3, 3), ShapeError, "basis index 3"),
    "insert into a scalar": (lambda: scalar(1.0, 3).insert_left([1.0, 0.0, 0.0]), ShapeError,
                             "rank-0"),
    "value of a vector": (lambda: V.value, ShapeError, "no scalar value"),
    "contract_left ranks": (lambda: contract_left(M, V), ShapeError, "left contraction"),
    "contract_right ranks": (lambda: contract_right(V, M), ShapeError, "right contraction"),
    "evaluate arguments": (lambda: M.evaluate([[1.0, 0.0, 0.0]]), ShapeError,
                           "needs 2 arguments"),
    "transpose of a vector": (lambda: V.transpose(), ShapeError, "rank 2"),
    "Tensor attribute": (lambda: setattr(V, "n", 4), AttributeError, "immutable"),
    # stress and builtins
    "transpose_field of a vector": (lambda: transpose_field(VEC), ShapeError, "rank-2"),
    "expanding_sphere speed": (lambda: expanding_sphere(speed=np.inf), ParameterError,
                               "finite number"),
    "get_case name": (lambda: get_case("bogus"), KeyError, "unknown geometry 'bogus'"),
    "get_case parameter name": (lambda: get_case("sphere", radious=2.0), ParameterError,
                                "geometry 'sphere' has no parameter radious (it takes: radius)"),
    "get_case parameter value": (lambda: get_case("torus", major=0.2), ParameterError,
                                 "geometry 'torus': need 0 < minor < major"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_the_guard_raises_its_error(name):
    call, error, fragment = GUARDS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
