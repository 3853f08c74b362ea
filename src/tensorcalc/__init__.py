"""Recursive extrinsic tensor calculus on embedded submanifolds.

Tensors over R^n are stored as complete n-ary trees (C-ordered arrays), and
every differential operator acts through the ambient coordinates of a
level-set geometry: no parametrizations, no Christoffel symbols.  The
``tensorcalc`` command line verifies the algebraic, differential, integral
and application-level identities numerically.

Each library module's ``__all__`` is the one declaration of what it makes
public; this package re-exports every name in those lists, and its own
``__all__`` is their concatenation in the order below.
"""

from . import (builtins, euler, evolving, fields, geometry, operators, quadrature, report, stress,
               suites, tensor)
from .tensor import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .fields import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .builtins import *  # noqa: F401,F403
from .euler import *  # noqa: F401,F403
from .stress import *  # noqa: F401,F403
from .evolving import *  # noqa: F401,F403
from .report import *  # noqa: F401,F403
from .suites import *  # noqa: F401,F403

__all__ = [name
           for module in (tensor, geometry, fields, operators, quadrature, builtins, euler, stress,
                          evolving, report, suites)
           for name in module.__all__]

__version__ = "0.1.0"
