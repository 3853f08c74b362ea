"""Tensor-valued fields on ambient space.

A TensorField wraps an evaluator (x, t) -> array of shape (n,)*q.  Fields
may also carry analytic providers for the spatial Jacobian (extra last
axis) and the time partial; differential operators use them in analytic
mode and fall back to finite differences otherwise.  Derived fields are
ordinary TensorFields closing over their ingredients, so operators nest.

``depth`` counts how many finite-difference layers already went into the
values; the step-size policy for further differentiation keys off it.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Callable, Optional

import numpy as np

from .tensor import MAX_AMBIENT_DIM, MAX_RANK, ShapeError, Tensor

__all__ = [
    "TensorField",
    "constant",
    "scalar_field",
    "vector_field",
    "position",
    "coordinate",
    "polynomial",
    "random_polynomial",
    "tf_scale",
    "tf_add",
    "tf_outer",
]

class TensorField:
    """Rank-q tensor field over R^n, evaluated pointwise."""

    __slots__ = ("n", "q", "_func", "_grad", "_dt", "depth", "name")

    def __init__(
        self,
        n: int,
        q: int,
        func: Callable[[np.ndarray, float], np.ndarray],
        grad: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        dt: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        depth: int = 0,
        name: str = "",
    ) -> None:
        if not 1 <= n <= MAX_AMBIENT_DIM:
            raise ShapeError(f"ambient dimension must be in [1, {MAX_AMBIENT_DIM}], got {n}")
        if not 0 <= q <= MAX_RANK:
            raise ShapeError(f"rank must be in [0, {MAX_RANK}], got {q}")
        self.n = n
        self.q = q
        self._func = func
        self._grad = grad
        self._dt = dt
        self.depth = depth
        self.name = name or "field"

    @property
    def has_gradient(self) -> bool:
        return self._grad is not None

    @property
    def has_time_derivative(self) -> bool:
        return self._dt is not None

    def values(self, x, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self._func(x, t), dtype=float)
        if out.shape != (self.n,) * self.q:
            raise ShapeError(
                f"field '{self.name}' returned shape {out.shape}, "
                f"expected {(self.n,) * self.q}"
            )
        return out

    def gradient_values(self, x, t: float = 0.0) -> np.ndarray:
        if self._grad is None:
            raise ShapeError(f"field '{self.name}' has no analytic gradient")
        return np.asarray(self._grad(np.asarray(x, dtype=float), t), dtype=float)

    def dt_values(self, x, t: float = 0.0) -> np.ndarray:
        if self._dt is None:
            raise ShapeError(f"field '{self.name}' has no analytic time derivative")
        return np.asarray(self._dt(np.asarray(x, dtype=float), t), dtype=float)

    def at(self, x, t: float = 0.0) -> Tensor:
        return Tensor(self.n, self.values(x, t))

    def __call__(self, x, t: float = 0.0) -> Tensor:
        return self.at(x, t)


# -- basic constructors -------------------------------------------------------


def constant(n: int, value: Tensor, name: str = "const") -> TensorField:
    arr = np.array(value.array)
    zero_g = np.zeros(arr.shape + (n,))
    zero_t = np.zeros(arr.shape)
    return TensorField(
        n,
        value.q,
        lambda x, t: arr,
        grad=lambda x, t: zero_g,
        dt=lambda x, t: zero_t,
        name=name,
    )


def scalar_field(n, func, grad=None, dt=None, name="scalar") -> TensorField:
    return TensorField(
        n,
        0,
        lambda x, t: np.asarray(func(x, t), dtype=float),
        grad=grad,
        dt=dt,
        name=name,
    )


def vector_field(n, func, jacobian=None, dt=None, name="vector") -> TensorField:
    """Rank-1 field; ``jacobian(x, t)[a, k]`` is d u_a / d x_k when given."""
    return TensorField(n, 1, func, grad=jacobian, dt=dt, name=name)


def position(n: int) -> TensorField:
    eye = np.eye(n)
    zero = np.zeros(n)
    return TensorField(
        n, 1, lambda x, t: x, grad=lambda x, t: eye, dt=lambda x, t: zero, name="position"
    )


def coordinate(n: int, j: int) -> TensorField:
    e = np.zeros(n)
    e[j] = 1.0
    return TensorField(
        n,
        0,
        lambda x, t: np.asarray(x[j]),
        grad=lambda x, t: e,
        dt=lambda x, t: np.asarray(0.0),
        name=f"x_{j}",
    )


# -- polynomial fields --------------------------------------------------------


def polynomial(n: int, q: int, exponents, coeffs, name: str = "poly") -> TensorField:
    """Leafwise multivariate polynomial field with exact gradients.

    ``exponents`` is an integer array (nterms, n); ``coeffs`` has shape
    (n,)*q + (nterms,).  Leaf value = sum_t coeffs[..., t] * prod_k x_k^e[t,k].
    """
    exponents = np.asarray(exponents, dtype=int)
    coeffs = np.asarray(coeffs, dtype=float)
    if exponents.ndim != 2 or exponents.shape[1] != n:
        raise ShapeError(f"exponents must have shape (nterms, {n})")
    if coeffs.shape != (n,) * q + (exponents.shape[0],):
        raise ShapeError("coefficient array does not match rank and term count")

    def func(x, t):
        powers = np.prod(x[None, :] ** exponents, axis=1)
        return coeffs @ powers

    # d/dx_k knocks one power off axis k and multiplies by the old exponent
    lowered = []
    for k in range(n):
        ek = exponents.copy()
        ek[:, k] = np.maximum(ek[:, k] - 1, 0)
        lowered.append(ek)
    lowered = np.array(lowered)  # (n, nterms, n)
    factors = exponents.T.astype(float)  # (n, nterms)

    def grad(x, t):
        out = np.empty(coeffs.shape[:-1] + (n,))
        for k in range(n):
            powers = np.prod(x[None, :] ** lowered[k], axis=1)
            out[..., k] = coeffs @ (factors[k] * powers)
        return out

    zero = np.zeros((n,) * q)
    return TensorField(n, q, func, grad=grad, dt=lambda x, t: zero, name=name)


def _multi_indices(n: int, degree: int):
    idx = [tuple([0] * n)]
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for k in combo:
                e[k] += 1
            idx.append(tuple(e))
    return np.array(sorted(set(idx)), dtype=int)


def random_polynomial(
    n: int, q: int, rng: np.random.Generator, degree: int = 2, scale: float = 1.0
) -> TensorField:
    """Seeded smooth field: every leaf a random polynomial of given degree."""
    exps = _multi_indices(n, degree)
    nt = exps.shape[0]
    coeffs = rng.standard_normal((n,) * q + (nt,)) * (scale / np.sqrt(nt))
    return polynomial(n, q, exps, coeffs, name=f"poly{q}_deg{degree}")


# -- pointwise combinators ----------------------------------------------------


def tf_scale(f: TensorField, a: float, name: str = "") -> TensorField:
    a = float(a)
    return TensorField(
        f.n,
        f.q,
        lambda x, t: a * f.values(x, t),
        grad=(lambda x, t: a * f.gradient_values(x, t)) if f.has_gradient else None,
        dt=(lambda x, t: a * f.dt_values(x, t)) if f.has_time_derivative else None,
        depth=f.depth,
        name=name or f"{a}*{f.name}",
    )


def tf_add(f: TensorField, g: TensorField, name: str = "") -> TensorField:
    if f.n != g.n or f.q != g.q:
        raise ShapeError(f"cannot add fields of shapes ({f.n},{f.q}) and ({g.n},{g.q})")
    both_grad = f.has_gradient and g.has_gradient
    both_dt = f.has_time_derivative and g.has_time_derivative
    return TensorField(
        f.n,
        f.q,
        lambda x, t: f.values(x, t) + g.values(x, t),
        grad=(lambda x, t: f.gradient_values(x, t) + g.gradient_values(x, t))
        if both_grad
        else None,
        dt=(lambda x, t: f.dt_values(x, t) + g.dt_values(x, t)) if both_dt else None,
        depth=max(f.depth, g.depth),
        name=name or f"{f.name}+{g.name}",
    )


def tf_outer(f: TensorField, g: TensorField, name: str = "") -> TensorField:
    if f.n != g.n:
        raise ShapeError("outer product needs a common ambient dimension")
    both_grad = f.has_gradient and g.has_gradient
    both_dt = f.has_time_derivative and g.has_time_derivative

    def func(x, t):
        return np.multiply.outer(f.values(x, t), g.values(x, t))

    def grad(x, t):
        term1 = np.multiply.outer(f.values(x, t), g.gradient_values(x, t))
        term2 = np.multiply.outer(f.gradient_values(x, t), g.values(x, t))
        return term1 + np.moveaxis(term2, f.q, -1)

    def dt(x, t):
        return np.multiply.outer(f.values(x, t), g.dt_values(x, t)) + np.multiply.outer(
            f.dt_values(x, t), g.values(x, t)
        )

    return TensorField(
        f.n,
        f.q + g.q,
        func,
        grad=grad if both_grad else None,
        dt=dt if both_dt else None,
        depth=max(f.depth, g.depth),
        name=name or f"{f.name}(x){g.name}",
    )
