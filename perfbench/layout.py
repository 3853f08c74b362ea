"""Names and sizes shared by the workloads, the tracer and the launcher.

Imports nothing from tensorcalc, so the launcher can read it without
loading the library.
"""

MODES = ("fd2", "fd4", "analytic")

# pointwise-stack
STACK_OPS = (
    "laplacian",
    "mean_curvature",
    "shape_operator",
    "covariant_gradient",
    "covariant_laplacian",
    "surface_curl",
)
POINTS_PER_SURFACE = 3
PROJECT_GRID = ((3, 2), (4, 4), (5, 4), (5, 5), (6, 4))
PROJECT_CODIM = 2
PROJECTS_PER_CELL = 1

# constructors whose returned fields the traced run tags
OPERATOR_CTORS = (
    "cartesian_gradient",
    "time_partial",
    "submanifold_gradient",
    "divergence",
    "project_field",
    "perp_field",
    "projector_field",
    "material_derivative",
)
