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
on that side.  ``Tensor`` is the public, immutable single-tensor wrapper:
its operations call the primitives at ``nl = 0`` after their rank, shape
and finiteness checks.
"""

from __future__ import annotations

import math
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
    """Immutable rank-q tensor over R^n.

    ``array[i1, ..., iq]`` is the value on the basis tuple (e_i1, ..., e_iq).
    """

    __slots__ = ("n", "q", "array")

    def __init__(self, n: int, array) -> None:
        arr = np.array(array, dtype=float)
        _check_limits(n, arr.ndim)
        if arr.shape != (n,) * arr.ndim:
            raise ShapeError(
                f"component array of shape {arr.shape} is not cubical in dimension {n}"
            )
        if not np.all(np.isfinite(arr)):
            raise ShapeError("tensor components must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", arr.ndim)
        object.__setattr__(self, "array", arr)

    @classmethod
    def _wrap(cls, n: int, arr: np.ndarray) -> "Tensor":
        # Internal fast path: arr is a fresh float array of the right shape.
        self = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", arr.ndim)
        object.__setattr__(self, "array", arr)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    # -- tree access ----------------------------------------------------

    def component(self, k: int) -> "Tensor":
        """Rank-(q-1) tensor at branch k of the top level (a strided view)."""
        if self.q == 0:
            raise ShapeError("a rank-0 tensor has no components")
        if not 0 <= k < self.n:
            raise ShapeError(f"component index {k} out of range for dimension {self.n}")
        return Tensor._wrap(self.n, self.array[k])

    def components(self) -> Iterator["Tensor"]:
        for k in range(self.n):
            yield self.component(k)

    @property
    def value(self) -> float:
        if self.q != 0:
            raise ShapeError(f"rank-{self.q} tensor has no scalar value")
        return float(self.array)

    # -- evaluation and insertions --------------------------------------

    def evaluate(self, vectors: Sequence) -> float:
        """Value on exactly q vector arguments."""
        if len(vectors) != self.q:
            raise ShapeError(f"rank-{self.q} tensor needs {self.q} arguments, got {len(vectors)}")
        out = self.array
        for v in vectors:
            out = _dot(_as_vector(self.n, v), out, 0)
        return float(out)

    def __call__(self, *vectors):
        """Partial left application; full application returns a float."""
        out = self
        for v in vectors:
            out = out.insert_left(v)
        return out.value if out.q == 0 else out

    def insert_left(self, v) -> "Tensor":
        """Feed v into the first argument slot."""
        if self.q == 0:
            raise ShapeError("cannot insert into a rank-0 tensor")
        return Tensor._wrap(self.n, _dot(_as_vector(self.n, v), self.array, 0))

    def insert_right(self, v) -> "Tensor":
        """Feed v into the last argument slot."""
        if self.q == 0:
            raise ShapeError("cannot insert into a rank-0 tensor")
        return Tensor._wrap(self.n, _dot(self.array, _as_vector(self.n, v), 0))

    # -- unary ops -------------------------------------------------------

    def transpose(self) -> "Tensor":
        """Swap the two slots of a rank-2 tensor."""
        if self.q != 2:
            raise ShapeError(f"transpose is defined for rank 2, got rank {self.q}")
        return Tensor._wrap(self.n, self.array.T.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.array.ravel()))

    # -- arithmetic -------------------------------------------------------

    def _same_shape(self, other: "Tensor") -> None:
        if self.n != other.n or self.q != other.q:
            raise ShapeError(
                f"shape mismatch: (n={self.n}, q={self.q}) vs (n={other.n}, q={other.q})"
            )

    def __add__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        self._same_shape(other)
        return Tensor._wrap(self.n, self.array + other.array)

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        self._same_shape(other)
        return Tensor._wrap(self.n, self.array - other.array)

    def __neg__(self):
        return Tensor._wrap(self.n, -self.array)

    def __mul__(self, a):
        if not isinstance(a, (int, float, np.floating, np.integer)):
            return NotImplemented
        return Tensor._wrap(self.n, self.array * float(a))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Tensor(n={self.n}, q={self.q}, {np.array2string(self.array, precision=6)})"


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
    """Assemble a rank-(q+1) tensor from its n rank-q components."""
    if not children:
        raise ShapeError("need at least one component")
    n, q = children[0].n, children[0].q
    if len(children) != n:
        raise ShapeError(f"need exactly {n} components, got {len(children)}")
    for c in children:
        if c.n != n or c.q != q:
            raise ShapeError("components disagree in dimension or rank")
    return Tensor(n, np.stack([c.array for c in children]))


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
    return Tensor._wrap(t.n, float(a) * t.array + float(b) * s.array)


def frobenius(s: Tensor, t: Tensor) -> float:
    """Full contraction of two tensors of equal shape."""
    s._same_shape(t)
    return float(_frobenius(s.array, t.array, 0))


def outer(s: Tensor, t: Tensor) -> Tensor:
    """Tensor product; slots of s come first."""
    if s.n != t.n:
        raise ShapeError(f"dimension mismatch: {s.n} vs {t.n}")
    _check_limits(s.n, s.q + t.q)
    return Tensor._wrap(s.n, _outer(s.array, t.array, 0))


def contract_left(s: Tensor, t: Tensor) -> Tensor:
    """Contract all slots of s against the leading slots of t (rank of s <= rank of t)."""
    if s.n != t.n:
        raise ShapeError(f"dimension mismatch: {s.n} vs {t.n}")
    if s.q > t.q:
        raise ShapeError(f"left contraction needs rank {s.q} <= {t.q}")
    return Tensor._wrap(s.n, _contract_left(s.array, t.array, 0))


def contract_right(t: Tensor, s: Tensor) -> Tensor:
    """Contract the trailing slots of t against all slots of s (rank of s <= rank of t)."""
    if s.n != t.n:
        raise ShapeError(f"dimension mismatch: {t.n} vs {s.n}")
    if s.q > t.q:
        raise ShapeError(f"right contraction needs rank {s.q} <= {t.q}")
    return Tensor._wrap(t.n, _contract_right(t.array, s.array, 0))


def dot(t: Tensor, s: Tensor) -> Tensor:
    """Contract the deepest slot of t with the first slot of s.

    Every deepest rank-1 leaf u^T of t is replaced by u^T contracted into s,
    so at rank 2 this is the matrix product.  Associative.
    """
    if s.n != t.n:
        raise ShapeError(f"dimension mismatch: {t.n} vs {s.n}")
    if t.q < 1 or s.q < 1:
        raise ShapeError("dot needs both ranks >= 1")
    _check_limits(t.n, t.q + s.q - 2)
    return Tensor._wrap(t.n, _dot(t.array, s.array, 0))


def random_tensor(n: int, q: int, rng: np.random.Generator, scale: float = 1.0) -> Tensor:
    _check_limits(n, q)
    return Tensor._wrap(n, scale * rng.standard_normal((n,) * q))
