"""Dense multilinear maps of arbitrary rank and the batched tensor algebra.

A rank-q tensor over R^n is determined by its n^q values on basis tuples.
They are stored contiguously in an array of shape (n,)*q, which is the
complete n-ary component tree of depth q laid out in lexicographic leaf
order.  Component k at the top level is the rank-(q-1) tensor obtained by
feeding basis vector e_k into the first argument slot, and it is a strided
view into the same buffer.

Every layer holds batches of tensors as arrays (...) + (n,)*q: leading
axes index points, nodes or draws, and the trailing q axes are the slots
in order.  The private primitives below take such arrays and the count
``nl`` of leading axes, and contract at every leading index in one matrix
product: ``_contract`` with its named cases ``_dot``, ``_contract_left``,
``_contract_right``, ``_frobenius`` and ``_outer``, and ``_apply_to_slot``.
Inserting a vector into the first or last slot is ``_dot`` with the vector
on that side.  ``Tensor`` is the public, immutable wrapper: one tensor,
or with ``lead`` leading axes a batch of them.  Its operations call the
primitives at ``nl = lead`` after their rank, shape and finiteness checks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "MAX_AMBIENT_DIM",
    "MAX_RANK",
    "ShapeError",
    "Tensor",
    "scalar",
    "covector",
    "from_components",
    "zeros",
    "identity",
    "basis_covector",
    "linear_combine",
    "frobenius",
    "outer",
    "contract_left",
    "contract_right",
    "dot",
    "random_tensor",
]

MAX_AMBIENT_DIM = 8
MAX_RANK = 8


class ShapeError(ValueError):
    """Operands with incompatible ambient dimension or rank."""


def _check_limits(n: int, q: int) -> None:
    if not 1 <= n <= MAX_AMBIENT_DIM:
        raise ShapeError(f"ambient dimension must be in [1, {MAX_AMBIENT_DIM}], got {n}")
    if not 0 <= q <= MAX_RANK:
        raise ShapeError(f"rank must be in [0, {MAX_RANK}], got {q}")


def _looped(func, shape, what: str = "callable"):
    """Batch evaluator over a pointwise callable ``func(x, t)``.

    Points X of shape (..., d) give values of shape (...) + ``shape(d)``,
    or, where ``shape`` is None, of the shape of the first point's value.
    Every point's value is checked against it.  A batch of shape () calls
    straight through; a larger one loops over its points."""

    def batched(X: np.ndarray, t: float):
        if X.ndim == 1:
            return func(X, t)
        flat = X.reshape(-1, X.shape[-1])
        values = [np.asarray(func(x, t), dtype=float) for x in flat]
        want = values[0].shape if values else ()
        if shape is not None:
            want = shape(X.shape[-1])
        for value in values:
            if value.shape != want:
                raise ShapeError(f"{what} returned shape {value.shape}, expected {want}")
        return np.array(values).reshape(X.shape[:-1] + want)

    return batched


def _difference(g, order: int):
    """The one stencil of the library, the centered difference of order 2 or
    4, as its numerator and its denominator in steps; ``g(s)`` is the value
    s steps away."""
    if order == 2:
        return g(1) - g(-1), 2
    return -g(2) + 8 * g(1) - 8 * g(-1) + g(-2), 12


def _central(g, h, order: int = 2):
    """Centered difference in one variable: ``g(s)`` is the value s steps of
    size h away, and h a number or an array that broadcasts against it."""
    num, span = _difference(g, order)
    return num / (span * h)


def _shift(x, e, s: int):
    """x + s e for a stencil offset s, with no product at s = +-1."""
    if s == 1:
        return x + e
    if s == -1:
        return x - e
    return x + s * e


def _partials(g, x, h, order: int = 2):
    """Centered differences of ``g`` along every axis of the points x
    (..., d), stacked as a new last axis: values (...) + V give
    (...) + V + (d,).

    ``g`` maps points (..., d) to values.  ``h`` is an array of steps per
    point and axis that broadcasts against x, such as (..., 1) or (d,)."""
    d = x.shape[-1]
    steps = h[..., None] * _identity(d)  # steps[..., k, :] = h_k e_k
    out = None
    for k in range(d):
        e = steps[..., k, :]
        col, span = _difference(lambda s: g(_shift(x, e, s)), order)
        if out is None:
            out = np.empty(np.shape(col) + (d,))
        out[..., k] = col
    return out / (span * h[(Ellipsis,) + (None,) * (out.ndim - x.ndim) + (slice(None),)])


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """The n x n identity matrix, shared and read-only."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _as_vector(n: int, v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (n,):
        raise ShapeError(f"expected a vector of length {n}, got shape {arr.shape}")
    return arr


# -- batched primitives over nl leading axes ------------------------------------


def _contract(a: np.ndarray, b: np.ndarray, k: int, nl: int) -> np.ndarray:
    """The last k slots of a against the first k slots of b, at every index
    of the nl leading axes: (L, A..., C...) and (L, C..., B...) give
    (L, A..., B...).  Sizes come from the shapes, so empty batches work."""
    sa, sb = a.shape, b.shape
    ra, rb = sa[nl:len(sa) - k], sb[nl + k:]
    c = math.prod(sb[nl:nl + k])
    out = a.reshape(sa[:nl] + (math.prod(ra), c)) @ b.reshape(sb[:nl] + (c, math.prod(rb)))
    return out.reshape(out.shape[:-2] + ra + rb)


def _dot(a: np.ndarray, b: np.ndarray, nl: int) -> np.ndarray:
    """Contraction product: the last slot of a against the first slot of b.
    With a vector b this inserts b into a's last slot; with a vector a, into
    b's first slot."""
    return _contract(a, b, 1, nl)


def _contract_left(s: np.ndarray, t: np.ndarray, nl: int) -> np.ndarray:
    """Every slot of s against the leading slots of t."""
    return _contract(s, t, s.ndim - nl, nl)


def _contract_right(t: np.ndarray, s: np.ndarray, nl: int) -> np.ndarray:
    """The trailing slots of t against every slot of s."""
    return _contract(t, s, s.ndim - nl, nl)


def _frobenius(a: np.ndarray, b: np.ndarray, nl: int) -> np.ndarray:
    """Full contraction of two tensors of equal rank, of shape (L,)."""
    return _contract(a, b, a.ndim - nl, nl)


def _outer(a: np.ndarray, b: np.ndarray, nl: int) -> np.ndarray:
    """Tensor product; the slots of a come first."""
    return _contract(a, b, 0, nl)


def _apply_to_slot(m: np.ndarray, arr: np.ndarray, slot: int, nl: int) -> np.ndarray:
    """Contract axis 1 of ``m`` (after nl leading axes) with ``arr``'s slot
    ``slot``; m's axis 0 takes the slot's place and any further axes of m
    go last."""
    ax = nl + slot
    if m.ndim == nl + 2 and ax < arr.ndim - 1:
        # a plain matrix, one product broadcast over the slots before this one and
        # no transposes; at the last slot this would be one matvec per leaf
        after = arr.shape[ax + 1:]
        out = m.reshape(m.shape[:nl] + (1,) * slot + m.shape[nl:]) @ arr.reshape(
            arr.shape[:ax + 1] + (math.prod(after),)
        )
        return out.reshape(out.shape[:ax + 1] + after)
    axes = tuple(range(arr.ndim))
    moved = arr.transpose(axes[:ax] + axes[ax + 1:] + (ax,))
    out = _dot(moved, np.swapaxes(m, nl, nl + 1), nl)
    k = arr.ndim - 1  # where m's axis 0 landed
    axes = tuple(range(out.ndim))
    return out.transpose(axes[:ax] + (k,) + axes[ax:k] + axes[k + 1:])


class Tensor:
    """Immutable rank-q tensor over R^n, or a batch of them.

    ``array[i1, ..., iq]`` is the value on the basis tuple (e_i1, ..., e_iq).
    A batch has ``lead`` leading axes before the q slots, so one ``Tensor``
    holds a whole group of tensors of one shape; the limits n <= 8 and
    q <= 8 count the slots only.  ``component``, ``components``,
    ``from_components``, arithmetic, ``dot``, ``frobenius``, ``outer``,
    ``contract_left``, ``contract_right`` and ``geometry.project`` work at
    every leading index, on operands of equal leading shape; every other
    method raises ``ShapeError`` on a batch.
    """

    __slots__ = ("n", "q", "lead", "array")

    def __init__(self, n: int, array, lead: int = 0) -> None:
        arr = np.array(array, dtype=float)
        if not 0 <= lead <= arr.ndim:
            raise ShapeError(f"{lead} leading axes on an array of {arr.ndim} axes")
        _check_limits(n, arr.ndim - lead)
        if arr.shape[lead:] != (n,) * (arr.ndim - lead):
            raise ShapeError(
                f"component array of shape {arr.shape[lead:]} is not cubical in dimension {n}"
            )
        if not np.all(np.isfinite(arr)):
            raise ShapeError("tensor components must be finite")
        self._fill(n, arr, lead)

    def _fill(self, n: int, arr: np.ndarray, lead: int) -> None:
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", arr.ndim - lead)
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "array", arr)

    @classmethod
    def _wrap(cls, n: int, arr: np.ndarray, lead: int = 0) -> "Tensor":
        # Internal fast path: arr is a fresh float array of the right shape.
        if type(arr) is not np.ndarray:  # numpy gives rank-0 results as array scalars
            arr = np.array(arr, dtype=float)
        self = object.__new__(cls)
        self._fill(n, arr, lead)
        return self

    @property
    def batch(self) -> tuple:
        """The leading shape, () for a single tensor."""
        return self.array.shape[:self.lead]

    def _single(self) -> None:
        if self.lead:
            raise ShapeError(f"this operation takes a single tensor, not a batch {self.batch}")

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- tree access ----------------------------------------------------

    def component(self, k: int) -> "Tensor":
        """Rank-(q-1) tensor at branch k of the top level (a strided view),
        at every leading index of a batch."""
        if self.q == 0:
            raise ShapeError("a rank-0 tensor has no components")
        if not 0 <= k < self.n:
            raise ShapeError(f"component index {k} out of range for dimension {self.n}")
        return Tensor._wrap(self.n, self.array[(slice(None),) * self.lead + (k,)], self.lead)

    def components(self) -> Iterator["Tensor"]:
        for k in range(self.n):
            yield self.component(k)

    @property
    def value(self) -> float:
        self._single()
        if self.q != 0:
            raise ShapeError(f"rank-{self.q} tensor has no scalar value")
        return float(self.array)

    # -- evaluation and insertions --------------------------------------

    def evaluate(self, vectors: Sequence) -> float:
        """Value on exactly q vector arguments."""
        self._single()
        if len(vectors) != self.q:
            raise ShapeError(f"rank-{self.q} tensor needs {self.q} arguments, got {len(vectors)}")
        out = self.array
        for v in vectors:
            out = _dot(_as_vector(self.n, v), out, 0)
        return float(out)

    def __call__(self, *vectors):
        """Partial left application; full application returns a float."""
        self._single()
        out = self
        for v in vectors:
            out = out.insert_left(v)
        return out.value if out.q == 0 else out

    def insert_left(self, v) -> "Tensor":
        """Feed v into the first argument slot."""
        self._single()
        if self.q == 0:
            raise ShapeError("cannot insert into a rank-0 tensor")
        return Tensor._wrap(self.n, _dot(_as_vector(self.n, v), self.array, 0))

    def insert_right(self, v) -> "Tensor":
        """Feed v into the last argument slot."""
        self._single()
        if self.q == 0:
            raise ShapeError("cannot insert into a rank-0 tensor")
        return Tensor._wrap(self.n, _dot(self.array, _as_vector(self.n, v), 0))

    # -- unary ops -------------------------------------------------------

    def transpose(self) -> "Tensor":
        """Swap the two slots of a rank-2 tensor."""
        self._single()
        if self.q != 2:
            raise ShapeError(f"transpose is defined for rank 2, got rank {self.q}")
        return Tensor._wrap(self.n, self.array.T.copy())

    def norm(self) -> float:
        self._single()
        return float(np.linalg.norm(self.array.ravel()))

    # -- arithmetic -------------------------------------------------------

    def _same_shape(self, other: "Tensor") -> None:
        _paired(self, other)
        if self.q != other.q:
            raise ShapeError(f"rank mismatch: {self.q} vs {other.q}")

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        self._same_shape(other)
        return Tensor._wrap(self.n, self.array + other.array, self.lead)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        self._same_shape(other)
        return Tensor._wrap(self.n, self.array - other.array, self.lead)

    def __neg__(self):
        return Tensor._wrap(self.n, -self.array, self.lead)

    def __mul__(self, a):
        if not isinstance(a, (int, float, np.floating, np.integer)):
            return NotImplemented
        return Tensor._wrap(self.n, self.array * float(a), self.lead)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        lead = f", lead={self.lead}" if self.lead else ""
        return f"Tensor(n={self.n}, q={self.q}{lead}, {np.array2string(self.array, precision=6)})"


def _paired(s: Tensor, t: Tensor) -> int:
    """The leading count of two operands of equal dimension and leading shape."""
    if s.n != t.n:
        raise ShapeError(f"dimension mismatch: {s.n} vs {t.n}")
    if s.batch != t.batch:
        raise ShapeError(f"leading shapes differ: {s.batch} vs {t.batch}")
    return s.lead


# -- constructors ---------------------------------------------------------


def scalar(value: float, n: int = 1) -> Tensor:
    """Rank-0 tensor."""
    return Tensor(n, np.asarray(float(value)))


def covector(values) -> Tensor:
    """Rank-1 tensor u^T acting by the dot product."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"covector needs a 1-d array, got shape {arr.shape}")
    return Tensor(arr.shape[0], arr)


def from_components(children: Sequence[Tensor]) -> Tensor:
    """Assemble a rank-(q+1) tensor from its n rank-q components, at every
    leading index of a batch."""
    if not children:
        raise ShapeError("need at least one component")
    first = children[0]
    if len(children) != first.n:
        raise ShapeError(f"need exactly {first.n} components, got {len(children)}")
    for c in children:
        first._same_shape(c)
    return Tensor(first.n, np.stack([c.array for c in children], axis=first.lead), first.lead)


def zeros(n: int, q: int) -> Tensor:
    _check_limits(n, q)
    return Tensor._wrap(n, np.zeros((n,) * q))


def identity(n: int) -> Tensor:
    _check_limits(n, 2)
    return Tensor._wrap(n, np.eye(n))


def basis_covector(n: int, k: int) -> Tensor:
    _check_limits(n, 1)
    if not 0 <= k < n:
        raise ShapeError(f"basis index {k} out of range for dimension {n}")
    e = np.zeros(n)
    e[k] = 1.0
    return Tensor._wrap(n, e)


# -- binary ops -------------------------------------------------------------


def linear_combine(a: float, t: Tensor, b: float, s: Tensor) -> Tensor:
    t._same_shape(s)
    return Tensor._wrap(t.n, float(a) * t.array + float(b) * s.array, t.lead)


def frobenius(s: Tensor, t: Tensor):
    """Full contraction of two tensors of equal shape: a float, or an array
    of the leading shape for a batch."""
    s._same_shape(t)
    out = _frobenius(s.array, t.array, s.lead)
    return out if s.lead else float(out)


def outer(s: Tensor, t: Tensor) -> Tensor:
    """Tensor product; slots of s come first."""
    nl = _paired(s, t)
    _check_limits(s.n, s.q + t.q)
    return Tensor._wrap(s.n, _outer(s.array, t.array, nl), nl)


def contract_left(s: Tensor, t: Tensor) -> Tensor:
    """Contract all slots of s against the leading slots of t (rank of s <= rank of t)."""
    nl = _paired(s, t)
    if s.q > t.q:
        raise ShapeError(f"left contraction needs rank {s.q} <= {t.q}")
    return Tensor._wrap(s.n, _contract_left(s.array, t.array, nl), nl)


def contract_right(t: Tensor, s: Tensor) -> Tensor:
    """Contract the trailing slots of t against all slots of s (rank of s <= rank of t)."""
    nl = _paired(t, s)
    if s.q > t.q:
        raise ShapeError(f"right contraction needs rank {s.q} <= {t.q}")
    return Tensor._wrap(t.n, _contract_right(t.array, s.array, nl), nl)


def dot(t: Tensor, s: Tensor) -> Tensor:
    """Contract the deepest slot of t with the first slot of s.

    Every deepest rank-1 leaf u^T of t is replaced by u^T contracted into s,
    so at rank 2 this is the matrix product.  Associative.
    """
    nl = _paired(t, s)
    if t.q < 1 or s.q < 1:
        raise ShapeError("dot needs both ranks >= 1")
    _check_limits(t.n, t.q + s.q - 2)
    return Tensor._wrap(t.n, _dot(t.array, s.array, nl), nl)


def random_tensor(n: int, q: int, rng: np.random.Generator, scale: float = 1.0) -> Tensor:
    _check_limits(n, q)
    return Tensor._wrap(n, scale * rng.standard_normal((n,) * q))
