"""Tensor-valued fields on ambient space.

A TensorField wraps an evaluator over batches of points: ``X`` of shape
(..., n) gives values of shape (...) + (n,)*q, and a single point is a
batch of shape ().  ``values`` shape-checks each batch once.  Callables
passed to the public constructors (``TensorField``, ``scalar_field``,
``vector_field``: func, grad and dt) are pointwise, (x, t) -> (n,)*q, and
run behind one looping adapter that calls straight through for a single
point.  The library's own fields are batch-native (``_field``).

Fields may carry an analytic gradient and time partial; differential
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

The outermost evaluation of a field opens a frame scope
(``geometry._frame_scope``), so every frame that the nested evaluations
below it ask for is built once per point array, and raises ValueError
where its values are not finite.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement
from typing import Callable, Optional, Union

import numpy as np

from .geometry import _SCOPE, _frame_scope
from .tensor import MAX_RANK, ShapeError, Tensor, _check_limits, _looped, _outer

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


Evaluator = Callable[[np.ndarray, float], np.ndarray]


class TensorField:
    """Rank-q tensor field over R^n, evaluated on batches of points.

    ``func``, a callable ``grad`` and ``dt`` are pointwise: (x, t) with x
    of shape (n,).  ``grad`` is the analytic gradient: a rank-(q+1)
    TensorField, or a callable that becomes a gradient field with no
    gradient of its own.
    """

    __slots__ = ("n", "q", "_func", "_grad", "_dt", "depth", "name")

    def __init__(
        self,
        n: int,
        q: int,
        func: Evaluator,
        grad: Union["TensorField", Evaluator, None] = None,
        dt: Optional[Evaluator] = None,
        depth: int = 0,
        name: str = "",
    ) -> None:
        self._setup(n, q, func, grad, dt, depth, name, batched=False)

    def _setup(self, n, q, func, grad, dt, depth, name, batched: bool) -> None:
        _check_limits(n, q)
        self.n = n
        self.q = q
        self.depth = depth
        self.name = name or "field"
        if not batched:
            func = _looped(func, lambda d: (n,) * q, f"field '{self.name}'")
            if dt is not None:
                dt = _looped(dt, lambda d: (n,) * q, f"time derivative of '{self.name}'")
        self._func = func
        if isinstance(grad, TensorField) and (grad.n, grad.q) != (n, q + 1):
            raise ShapeError(
                f"gradient of '{self.name}' must be a rank-{q + 1} field over R^{n}, "
                f"got rank {grad.q} over R^{grad.n}"
            )
        if grad is not None and not isinstance(grad, (TensorField, _Lazy)):
            grad = _Lazy(
                partial(_field if batched else TensorField, n, q + 1, grad, depth=depth,
                        name=f"grad({self.name})")
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

    def _evaluate(self, evaluator, x, t: float, what: str) -> np.ndarray:
        scope = _SCOPE.get()
        if scope is None or scope.recent is None:
            # the outermost evaluation opens the frame scope, and checks what
            # every layer below it computed: a NaN or inf carries through them
            with _frame_scope():
                out = self._evaluate(evaluator, x, t, what)
            if not np.isfinite(out).all():
                at = np.argwhere(~np.isfinite(out))[0][:out.ndim - self.q]
                raise ValueError(f"{what} '{self.name}' is not finite at point {tuple(map(int, at))}"
                                 " of the batch")
            return out
        X = np.asarray(x, dtype=float)
        if X.ndim == 0 or X.shape[-1] != self.n:
            raise ShapeError(f"points of shape {X.shape} do not live in R^{self.n}")
        out = np.asarray(evaluator(X, t), dtype=float)
        if out.shape != X.shape[:-1] + (self.n,) * self.q:
            raise ShapeError(
                f"{what} '{self.name}' returned shape {out.shape} at points of shape "
                f"{X.shape}, expected {X.shape[:-1] + (self.n,) * self.q}"
            )
        return out

    def values(self, x, t: float = 0.0) -> np.ndarray:
        """Values at ``x`` of shape (..., n), shaped (...) + (n,)*q."""
        return self._evaluate(self._func, x, t, "field")

    def gradient_values(self, x, t: float = 0.0) -> np.ndarray:
        if self._grad is None:
            raise ShapeError(f"field '{self.name}' has no analytic gradient")
        return self.gradient.values(x, t)

    def dt_values(self, x, t: float = 0.0) -> np.ndarray:
        if self._dt is None:
            raise ShapeError(f"field '{self.name}' has no analytic time derivative")
        return self._evaluate(self._dt, x, t, "time derivative of")

    def at(self, x, t: float = 0.0) -> Tensor:
        """The value at a point (n,), or at points (..., n) as a batch."""
        return Tensor(self.n, self.values(x, t), lead=np.ndim(x) - 1)

    def __call__(self, x, t: float = 0.0) -> Tensor:
        return self.at(x, t)


def _field(n, q, func, grad=None, dt=None, depth=0, name="") -> TensorField:
    """A TensorField whose func, callable grad and dt are batch-native:
    points of shape (..., n) give values of shape (...) + (n,)*q."""
    f = TensorField.__new__(TensorField)
    f._setup(n, q, func, grad, dt, depth, name, batched=True)
    return f


def _zeros(shape: tuple) -> Evaluator:
    """Batch evaluator of the zero value of ``shape``."""
    return lambda X, t: np.zeros(X.shape[:-1] + shape)


# -- basic constructors -------------------------------------------------------


def _constant_array(n: int, arr: np.ndarray, name: str) -> TensorField:
    grad = None
    if arr.ndim < MAX_RANK:
        grad = _Lazy(lambda: _constant_array(n, np.zeros(arr.shape + (n,)), f"grad({name})"))
    return _field(
        n, arr.ndim, lambda X, t: np.broadcast_to(arr, X.shape[:-1] + arr.shape), grad=grad,
        dt=_zeros(arr.shape), name=name,
    )


def constant(n: int, value: Tensor, name: str = "const") -> TensorField:
    value._single()
    return _constant_array(n, np.array(value.array), name)


def scalar_field(n, func, grad=None, dt=None, name="scalar") -> TensorField:
    """Rank-0 field from a pointwise ``func(x, t)``."""
    return TensorField(n, 0, func, grad=grad, dt=dt, name=name)


def vector_field(n, func, jacobian=None, dt=None, name="vector") -> TensorField:
    """Rank-1 field from a pointwise ``func(x, t)``; ``jacobian(x, t)[a, k]``
    is d u_a / d x_k when given, either as a callable or as a rank-2
    TensorField."""
    return TensorField(n, 1, func, grad=jacobian, dt=dt, name=name)


def position(n: int) -> TensorField:
    return _field(
        n, 1, lambda X, t: X, grad=_constant_array(n, np.eye(n), "grad(position)"),
        dt=_zeros((n,)), name="position",
    )


def coordinate(n: int, j: int) -> TensorField:
    e = np.zeros(n)
    e[j] = 1.0
    return _field(
        n, 0, lambda X, t: X[..., j], grad=_constant_array(n, e, f"grad(x_{j})"),
        dt=_zeros(()), name=f"x_{j}",
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

    nterms = exponents.shape[0]
    table = coeffs.reshape(n**q, nterms).T
    axes = np.arange(n)
    top = int(exponents.max(initial=0))

    def func(X, t):
        flat = X.reshape(-1, n)
        power = np.empty(flat.shape + (top + 1,))  # power[b, k, d] = x_k^d
        power[..., 0] = 1.0
        for d in range(1, top + 1):
            power[..., d] = power[..., d - 1] * flat
        monomials = power[:, axes, exponents].prod(axis=-1)  # (batch, nterms)
        return (monomials @ table).reshape(X.shape[:-1] + (n,) * q)

    grad = None
    if q < MAX_RANK:
        grad = _Lazy(
            lambda: polynomial(n, q + 1, *_polynomial_gradient(exponents, coeffs),
                               name=f"grad({name})")
        )
    return _field(n, q, func, grad=grad, dt=_zeros((n,) * q), name=name)


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


def random_polynomial(n: int, q: int, rng: np.random.Generator, degree: int = 2) -> TensorField:
    """Seeded smooth field: every leaf a random polynomial of given degree."""
    exps = _multi_indices(n, degree)
    nt = exps.shape[0]
    coeffs = rng.standard_normal((n,) * q + (nt,)) * (1.0 / np.sqrt(nt))
    return polynomial(n, q, exps, coeffs, name=f"poly{q}_deg{degree}")


# -- combinators ----------------------------------------------------------------


def tf_scale(f: TensorField, a: float, name: str = "") -> TensorField:
    a = float(a)
    return _field(
        f.n,
        f.q,
        lambda X, t: a * f.values(X, t),
        grad=_Lazy(lambda: tf_scale(f.gradient, a)) if f.has_gradient else None,
        dt=(lambda X, t: a * f.dt_values(X, t)) if f.has_time_derivative else None,
        depth=f.depth,
        name=name or f"{a}*{f.name}",
    )


def tf_add(f: TensorField, g: TensorField, name: str = "") -> TensorField:
    if f.n != g.n or f.q != g.q:
        raise ShapeError(f"cannot add fields of shapes ({f.n},{f.q}) and ({g.n},{g.q})")
    both_grad = f.has_gradient and g.has_gradient
    both_dt = f.has_time_derivative and g.has_time_derivative
    return _field(
        f.n,
        f.q,
        lambda X, t: f.values(X, t) + g.values(X, t),
        grad=_Lazy(lambda: tf_add(f.gradient, g.gradient)) if both_grad else None,
        dt=(lambda X, t: f.dt_values(X, t) + g.dt_values(X, t)) if both_dt else None,
        depth=max(f.depth, g.depth),
        name=name or f"{f.name}+{g.name}",
    )


def _transposed(f: TensorField, axes) -> TensorField:
    """The field whose values are ``np.transpose(f, axes)`` at each point,
    with its gradient and time partial transposed alike."""
    axes = tuple(axes)

    def transposed(read):
        def ev(X, t):
            lead = X.ndim - 1
            return np.transpose(read(X, t), (*range(lead), *(lead + a for a in axes)))

        return ev

    return _field(
        f.n,
        f.q,
        transposed(f.values),
        grad=_Lazy(lambda: _transposed(f.gradient, axes + (f.q,))) if f.has_gradient else None,
        dt=transposed(f.dt_values) if f.has_time_derivative else None,
        depth=f.depth,
        name=f"{f.name}^T",
    )


def tf_outer(f: TensorField, g: TensorField, name: str = "") -> TensorField:
    if f.n != g.n:
        raise ShapeError("outer product needs a common ambient dimension")
    q = f.q + g.q
    both_grad = f.has_gradient and g.has_gradient and q < MAX_RANK
    both_dt = f.has_time_derivative and g.has_time_derivative

    def func(X, t):
        return _outer(f.values(X, t), g.values(X, t), X.ndim - 1)

    def grad():
        # f (x) grad g, plus grad f (x) g with its derivative slot moved last
        moved = (*range(f.q), *range(f.q + 1, q + 1), f.q)
        return tf_add(tf_outer(f, g.gradient), _transposed(tf_outer(f.gradient, g), moved))

    def dt(X, t):
        nl = X.ndim - 1
        return _outer(f.values(X, t), g.dt_values(X, t), nl) + _outer(
            f.dt_values(X, t), g.values(X, t), nl
        )

    return _field(
        f.n,
        q,
        func,
        grad=_Lazy(grad) if both_grad else None,
        dt=dt if both_dt else None,
        depth=max(f.depth, g.depth),
        name=name or f"{f.name}(x){g.name}",
    )
