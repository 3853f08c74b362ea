"""Recursive extrinsic tensor calculus on embedded submanifolds.

Tensors over R^n are stored as complete n-ary trees (C-ordered arrays), and
every differential operator acts through the ambient coordinates of a
level-set geometry: no parametrizations, no Christoffel symbols.  The
``tensorcalc`` command line verifies the algebraic, differential, integral
and application-level identities numerically.
"""

from .tensor import (
    MAX_AMBIENT_DIM,
    MAX_RANK,
    ShapeError,
    Tensor,
    basis_covector,
    contract_left,
    contract_right,
    covector,
    dot,
    frobenius,
    from_components,
    identity,
    linear_combine,
    outer,
    random_tensor,
    scalar,
    zeros,
)
from .geometry import (
    FrameJet,
    GeometryError,
    GeometryFrame,
    LevelSet,
    LevelSetGeometry,
    frame_from_normals,
    is_tangent,
    perp,
    perp_matrix,
    project,
    tangent_basis,
)
from .fields import (
    TensorField,
    constant,
    coordinate,
    polynomial,
    position,
    random_polynomial,
    scalar_field,
    tf_add,
    tf_outer,
    tf_scale,
    vector_field,
)
from .operators import (
    DepthError,
    DiffConfig,
    cartesian_gradient,
    covariant_gradient,
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
    time_partial,
)
from .quadrature import (
    Atlas,
    BoundaryPoint,
    Chart,
    IdentityResult,
    advected_atlas,
    boundary_points,
    circulation_residual,
    gradient_residual,
    integrate,
    integrate_boundary,
    integration_by_parts,
    path_ftc_residual,
    rk4_step,
    stokes_residual,
    weak_form,
)
from .builtins import GeometryCase, available, get_case
from .euler import (
    EulerState,
    extrinsic_momentum,
    force_balance,
    momentum_residual,
    rigid_rotation_state,
    tangent_velocity_identity,
)
from .stress import (
    cross_stress,
    equilibrium_diagnostics,
    force_residual,
    normal_at_tangential,
    omega_field,
    omega_pairings,
    rotation_generator,
    stress_force,
    stress_torque,
    torque_equivalence,
    transpose_field,
)
from .evolving import (
    dirichlet_energy,
    dirichlet_rate_fd,
    dirichlet_rate_terms,
    material_consistency,
    reynolds_residual,
)
from .report import CheckRecord, VerificationReport, make_check
from .suites import SuiteConfig, SuiteError, run_suite

__version__ = "0.1.0"
