"""Tensor-valued fields on ambient space.

A TensorField wraps an evaluator (x, t) -> array of shape (n,)*q.  Fields
may also carry an analytic gradient and time partial; differential
operators use them in analytic mode and fall back to finite differences
otherwise.  The gradient is itself a rank-(q+1) TensorField (derivative
slot last) that may carry its own gradient, so second derivatives come
from the same mechanism: ``polynomial`` fields have gradients of every
order, ``constant``, ``position`` and ``coordinate`` have constant
gradients, and ``tf_scale``, ``tf_add`` and ``tf_outer`` pass gradient
fields through.  A plain callable ``grad=`` has no second derivative.
Derived fields are ordinary TensorFields closing over their ingredients,
so operators nest.

``depth`` counts how many finite-difference layers already went into the
values; the step-size policy for further differentiation keys off it.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement
from typing import Callable, Optional, Union

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


class _Lazy:
    """A gradient field built the first time it is asked for.  Polynomials
    and constants have gradients of every order, so building them eagerly
    would make every rank up to MAX_RANK."""

    __slots__ = ("build", "field")

    def __init__(self, build: Callable[[], "TensorField"]) -> None:
        self.build = build
        self.field = None

    def get(self) -> "TensorField":
        if self.field is None:
            self.field = self.build()
        return self.field


class TensorField:
    """Rank-q tensor field over R^n, evaluated pointwise.

    ``grad`` is the analytic gradient: a rank-(q+1) TensorField, or a
    callable (x, t) -> array that becomes a gradient field with no
    gradient of its own.
    """

    __slots__ = ("n", "q", "_func", "_grad", "_dt", "depth", "name")

    def __init__(
        self,
        n: int,
        q: int,
        func: Callable[[np.ndarray, float], np.ndarray],
        grad: Union["TensorField", Callable[[np.ndarray, float], np.ndarray], None] = None,
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
        self.depth = depth
        self.name = name or "field"
        if isinstance(grad, TensorField) and (grad.n, grad.q) != (n, q + 1):
            raise ShapeError(
                f"gradient of '{self.name}' must be a rank-{q + 1} field over R^{n}, "
                f"got rank {grad.q} over R^{grad.n}"
            )
        if grad is not None and not isinstance(grad, (TensorField, _Lazy)):
            grad = _Lazy(
                partial(TensorField, n, q + 1, grad, depth=depth, name=f"grad({self.name})")
            )
        self._grad = grad
        self._dt = dt

    @property
    def has_gradient(self) -> bool:
        return self._grad is not None

    @property
    def gradient(self) -> Optional["TensorField"]:
        """The analytic gradient as a rank-(q+1) field, or None."""
        return self._grad.get() if isinstance(self._grad, _Lazy) else self._grad

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
        return self.gradient.values(x, t)

    def dt_values(self, x, t: float = 0.0) -> np.ndarray:
        if self._dt is None:
            raise ShapeError(f"field '{self.name}' has no analytic time derivative")
        return np.asarray(self._dt(np.asarray(x, dtype=float), t), dtype=float)

    def at(self, x, t: float = 0.0) -> Tensor:
        return Tensor(self.n, self.values(x, t))

    def __call__(self, x, t: float = 0.0) -> Tensor:
        return self.at(x, t)


# -- basic constructors -------------------------------------------------------


def _constant_array(n: int, arr: np.ndarray, name: str) -> TensorField:
    zero_t = np.zeros(arr.shape)
    grad = None
    if arr.ndim < MAX_RANK:
        grad = _Lazy(lambda: _constant_array(n, np.zeros(arr.shape + (n,)), f"grad({name})"))
    return TensorField(
        n, arr.ndim, lambda x, t: arr, grad=grad, dt=lambda x, t: zero_t, name=name
    )


def constant(n: int, value: Tensor, name: str = "const") -> TensorField:
    return _constant_array(n, np.array(value.array), name)


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
    """Rank-1 field; ``jacobian(x, t)[a, k]`` is d u_a / d x_k when given,
    either as a callable or as a rank-2 TensorField."""
    return TensorField(n, 1, func, grad=jacobian, dt=dt, name=name)


def position(n: int) -> TensorField:
    zero = np.zeros(n)
    return TensorField(
        n,
        1,
        lambda x, t: x,
        grad=_constant_array(n, np.eye(n), "grad(position)"),
        dt=lambda x, t: zero,
        name="position",
    )


def coordinate(n: int, j: int) -> TensorField:
    e = np.zeros(n)
    e[j] = 1.0
    return TensorField(
        n,
        0,
        lambda x, t: np.asarray(x[j]),
        grad=_constant_array(n, e, f"grad(x_{j})"),
        dt=lambda x, t: np.asarray(0.0),
        name=f"x_{j}",
    )


# -- polynomial fields --------------------------------------------------------


def polynomial(n: int, q: int, exponents, coeffs, name: str = "poly") -> TensorField:
    """Leafwise multivariate polynomial field with exact gradients of every
    order: its gradient is again a polynomial field.

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

    grad = None
    if q < MAX_RANK:
        grad = _Lazy(
            lambda: polynomial(n, q + 1, *_polynomial_gradient(exponents, coeffs),
                               name=f"grad({name})")
        )
    zero = np.zeros((n,) * q)
    return TensorField(n, q, func, grad=grad, dt=lambda x, t: zero, name=name)


def _polynomial_gradient(exponents: np.ndarray, coeffs: np.ndarray):
    """Exponent table and coefficients of the gradient of a polynomial field.

    d/dx_k knocks one power off axis k and multiplies by the old exponent;
    terms without x_k drop out, and the lowered exponents of all k share
    one table.
    """
    n = exponents.shape[1]
    hits = [np.flatnonzero(exponents[:, k]) for k in range(n)]
    lowered = []
    for k, hit in enumerate(hits):
        e = exponents[hit]
        e[:, k] -= 1
        lowered.append(e)
    table, slot = np.unique(np.concatenate(lowered), axis=0, return_inverse=True)
    slot = slot.reshape(-1)
    out = np.zeros(coeffs.shape[:-1] + (n, table.shape[0]))
    start = 0
    for k, hit in enumerate(hits):
        out[..., k, slot[start:start + len(hit)]] = coeffs[..., hit] * exponents[hit, k]
        start += len(hit)
    return table, out


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
        grad=_Lazy(lambda: tf_scale(f.gradient, a)) if f.has_gradient else None,
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
        grad=_Lazy(lambda: tf_add(f.gradient, g.gradient)) if both_grad else None,
        dt=(lambda x, t: f.dt_values(x, t) + g.dt_values(x, t)) if both_dt else None,
        depth=max(f.depth, g.depth),
        name=name or f"{f.name}+{g.name}",
    )


def _transposed(f: TensorField, axes) -> TensorField:
    """The field whose values are ``np.transpose(f, axes)``."""
    axes = tuple(axes)
    return TensorField(
        f.n,
        f.q,
        lambda x, t: np.transpose(f.values(x, t), axes),
        grad=_Lazy(lambda: _transposed(f.gradient, axes + (f.q,))) if f.has_gradient else None,
        depth=f.depth,
        name=f"{f.name}^T",
    )


def tf_outer(f: TensorField, g: TensorField, name: str = "") -> TensorField:
    if f.n != g.n:
        raise ShapeError("outer product needs a common ambient dimension")
    q = f.q + g.q
    both_grad = f.has_gradient and g.has_gradient and q < MAX_RANK
    both_dt = f.has_time_derivative and g.has_time_derivative

    def func(x, t):
        return np.multiply.outer(f.values(x, t), g.values(x, t))

    def grad():
        # f (x) grad g, plus grad f (x) g with its derivative slot moved last
        moved = (*range(f.q), *range(f.q + 1, q + 1), f.q)
        return tf_add(tf_outer(f, g.gradient), _transposed(tf_outer(f.gradient, g), moved))

    def dt(x, t):
        return np.multiply.outer(f.values(x, t), g.dt_values(x, t)) + np.multiply.outer(
            f.dt_values(x, t), g.values(x, t)
        )

    return TensorField(
        f.n,
        q,
        func,
        grad=_Lazy(grad) if both_grad else None,
        dt=dt if both_dt else None,
        depth=max(f.depth, g.depth),
        name=name or f"{f.name}(x){g.name}",
    )
