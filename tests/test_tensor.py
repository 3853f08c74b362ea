"""Unit tests for the dense rank-q tensor container and its contractions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc.fields import constant, position
from tensorcalc.geometry import frame_from_normals, project
from tensorcalc.tensor import (
    MAX_AMBIENT_DIM,
    MAX_RANK,
    ShapeError,
    Tensor,
    _apply_to_slot,
    _central,
    _contract,
    _contract_left,
    _contract_right,
    _dot,
    _frobenius,
    _outer,
    _partials,
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


def brute_evaluate(arr, vectors):
    """Multilinear evaluation by explicit summation over index tuples."""
    total = 0.0
    for idx in np.ndindex(arr.shape):
        term = float(arr[idx])
        for slot, i in enumerate(idx):
            term *= float(vectors[slot][i])
        total += term
    return total


@pytest.mark.parametrize("order", [2, 4])
def test_central_stencil_is_exact_on_polynomials_of_its_order(order, rng):
    """fd2 differentiates quadratics and fd4 quartics up to rounding: _central
    with a step array of shape (k, 1) against vector values (k, 3), and
    _partials along every axis of points (k, 3)."""
    x = rng.normal(size=(4, 1))
    h = np.array([[0.05], [0.1], [0.2], [0.4]])
    c = rng.normal(size=(order + 1, 3))  # p(y) = sum_d c[d] y^d, three components

    def p(y):
        return sum(c[d] * y**d for d in range(order + 1))

    want = sum(d * c[d] * x ** (d - 1) for d in range(1, order + 1))
    calls = []

    def g(s):
        calls.append(s)
        return p(x + s * h)

    got = _central(g, h, order)
    assert got.shape == (4, 3)
    assert sorted(calls) == ([-1, 1] if order == 2 else [-2, -1, 1, 2])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # _partials on points (4, 3): the values (a.y)^order and (b.y)^order + c.y,
    # with steps per point (4, 1) and per axis (3,)
    a, b, c = rng.normal(size=(3, 3))
    y = rng.normal(size=(4, 3))

    def q(Y):
        calls.append(Y.shape)
        return np.stack([(Y @ a) ** order, (Y @ b) ** order + Y @ c], axis=-1)

    want = np.stack([order * (y @ a)[:, None] ** (order - 1) * a,
                     order * (y @ b)[:, None] ** (order - 1) * b + c], axis=1)
    for steps in (h, np.array([0.05, 0.1, 0.2])):
        calls.clear()
        got = _partials(q, y, steps, order)
        assert got.shape == (4, 2, 3)
        assert calls == [(4, 3)] * (3 * order)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_evaluate_matches_brute_force(rng):
    for q in range(1, 4):
        t = random_tensor(3, q, rng)
        vs = [rng.normal(size=3) for _ in range(q)]
        np.testing.assert_allclose(t.evaluate(vs), brute_evaluate(t.array, vs), atol=1e-12)


def test_insertions_peel_evaluation_slots(rng):
    """insert_left fixes the first argument, insert_right the last one."""
    t = random_tensor(4, 3, rng)
    u, v, w = (rng.normal(size=4) for _ in range(3))
    np.testing.assert_allclose(
        t.insert_left(u).evaluate([v, w]), t.evaluate([u, v, w]), atol=1e-12
    )
    np.testing.assert_allclose(
        t.insert_right(w).evaluate([u, v]), t.evaluate([u, v, w]), atol=1e-12
    )


def test_insertion_commutation(rng):
    for q in range(2, 5):
        t = random_tensor(3, q, rng)
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        left_then_right = t.insert_left(a).insert_right(b)
        right_then_left = t.insert_right(b).insert_left(a)
        np.testing.assert_allclose(
            left_then_right.array, right_then_left.array, atol=1e-12
        )


def test_component_roundtrip(rng):
    t = random_tensor(3, 2, rng)
    rebuilt = from_components(list(t.components()))
    np.testing.assert_array_equal(rebuilt.array, t.array)
    for k in range(3):
        np.testing.assert_array_equal(t.component(k).array, t.array[k])


def test_dot_is_matrix_product_in_rank_two(rng):
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3))
    prod = dot(Tensor(3, a), Tensor(3, b))
    np.testing.assert_allclose(prod.array, a @ b, atol=1e-14)


def test_dot_with_covector_is_insert_right(rng):
    t = random_tensor(3, 3, rng)
    v = rng.normal(size=3)
    np.testing.assert_allclose(
        dot(t, covector(v)).array, t.insert_right(v).array, atol=1e-14
    )


def test_frobenius_and_outer(rng):
    a = random_tensor(3, 2, rng)
    b = random_tensor(3, 2, rng)
    np.testing.assert_allclose(frobenius(a, b), np.sum(a.array * b.array), atol=1e-13)
    ab = outer(a, b)
    assert ab.q == 4
    np.testing.assert_allclose(ab.array, np.multiply.outer(a.array, b.array), atol=1e-14)


def test_scalar_zero_identity_basics():
    s = scalar(2.5, 3)
    assert s.q == 0 and s.value == 2.5
    z = zeros(3, 2)
    assert not z.array.any()
    np.testing.assert_array_equal(identity(3).array, np.eye(3))
    np.testing.assert_array_equal(basis_covector(3, 1).array, np.array([0.0, 1.0, 0.0]))


def test_linear_combine(rng):
    a = random_tensor(3, 2, rng)
    b = random_tensor(3, 2, rng)
    c = linear_combine(2.0, a, -0.5, b)
    np.testing.assert_allclose(c.array, 2.0 * a.array - 0.5 * b.array, atol=1e-14)


def test_transpose_swaps_rank_two_slots(rng):
    t = random_tensor(3, 2, rng)
    u, v = rng.normal(size=3), rng.normal(size=3)
    np.testing.assert_allclose(
        t.transpose().evaluate([u, v]), t.evaluate([v, u]), atol=1e-12
    )


def test_norm_is_frobenius_norm(rng):
    t = random_tensor(4, 3, rng)
    np.testing.assert_allclose(t.norm(), np.linalg.norm(t.array.ravel()), atol=1e-13)


def test_shape_guards():
    with pytest.raises(ShapeError):
        Tensor(MAX_AMBIENT_DIM + 1, np.zeros((MAX_AMBIENT_DIM + 1,)))
    with pytest.raises(ShapeError):
        zeros(2, MAX_RANK + 1)
    with pytest.raises(ShapeError):
        dot(scalar(1.0, 3), scalar(2.0, 3))
    with pytest.raises(ShapeError):
        frobenius(zeros(3, 2), zeros(2, 2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 4))
def test_dot_associativity_property(seed, n):
    """(A o B) o C = A o (B o C) whenever the middle factor has rank >= 2.

    A rank-1 middle would change which slots get contracted, so the
    hypothesis on B is part of the identity, not a test convenience.
    """
    gen = np.random.default_rng(seed)
    a = random_tensor(n, int(gen.integers(1, 4)), gen)
    b = random_tensor(n, int(gen.integers(2, 4)), gen)
    c = random_tensor(n, int(gen.integers(1, 4)), gen)
    lhs = dot(dot(a, b), c)
    rhs = dot(a, dot(b, c))
    np.testing.assert_allclose(lhs.array, rhs.array, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_mixed_contraction_property(seed):
    """(S : T) . v = S : (T . v) for S of rank q and T of rank q + 1."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 5))
    q = int(gen.integers(1, 4))
    s = random_tensor(n, q, gen)
    t = random_tensor(n, q + 1, gen)
    v = gen.normal(size=n)
    contracted = np.tensordot(s.array, t.array, axes=(range(q), range(q)))
    lhs = float(contracted @ v)
    rhs = frobenius(s, t.insert_right(v))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


SLOTS = "abcdefghijklmnop"  # tensor slots; capitals index the leading axes


def einsum_contract(a, b, k, nl):
    """The last k slots of a against the first k slots of b, by np.einsum."""
    lead = "ABCD"[:nl]
    qa, qb = a.ndim - nl, b.ndim - nl
    sa, rest = SLOTS[:qa], SLOTS[qa:qa + qb - k]
    return np.einsum(f"{lead}{sa},{lead}{sa[qa - k:]}{rest}->{lead}{sa[:qa - k]}{rest}", a, b)


def einsum_apply_to_slot(m, arr, slot, nl):
    """m's axis 1 against arr's slot; m's axis 0 in its place, further axes last."""
    lead = "ABCD"[:nl]
    sa, extra = SLOTS[:arr.ndim - nl], "wv"[:m.ndim - nl - 2]
    out = sa[:slot] + "x" + sa[slot + 1:] + extra
    return np.einsum(f"{lead}x{sa[slot]}{extra},{lead}{sa}->{lead}{out}", m, arr)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, MAX_AMBIENT_DIM),
       batch=st.sampled_from([(), (3,), (2, 2), (0,)]))
def test_batched_primitives_match_einsum(data, n, batch):
    """Every batched primitive against an independent einsum oracle, over
    leading batch shapes including an empty node axis, for every rank with
    n^q <= 4096 (q <= MAX_RANK)."""
    top = MAX_RANK if n == 1 else min(MAX_RANK, int(math.log(4096, n) + 1e-9))
    qa = data.draw(st.integers(0, top), label="qa")
    qb = data.draw(st.integers(0, top), label="qb")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    nl = len(batch)
    a = gen.standard_normal(batch + (n,) * qa)
    b = gen.standard_normal(batch + (n,) * qb)
    for k in range(min(qa, qb) + 1):
        if qa + qb - 2 * k > top:
            continue
        want = einsum_contract(a, b, k, nl)
        got = {"_contract": _contract(a, b, k, nl)}
        if k == 1:
            got["_dot"] = _dot(a, b, nl)
        if k == qa:
            got["_contract_left"] = _contract_left(a, b, nl)
        if k == qb:
            got["_contract_right"] = _contract_right(a, b, nl)
        if k == qa == qb:
            got["_frobenius"] = _frobenius(a, b, nl)
        if k == 0:
            got["_outer"] = _outer(a, b, nl)
        for name, value in got.items():
            assert value.shape == want.shape, name
            np.testing.assert_allclose(value, want, rtol=1e-12, atol=1e-12, err_msg=name)
    for extra in (0, 1):
        if qa == 0 or qa + extra > top:
            continue
        m = gen.standard_normal(batch + (n,) * (2 + extra))
        for slot in range(qa):
            want = einsum_apply_to_slot(m, a, slot, nl)
            got = _apply_to_slot(m, a, slot, nl)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_dot_and_outer_reject_rank_nine(rng):
    with pytest.raises(ShapeError):
        dot(random_tensor(2, 5, rng), random_tensor(2, 6, rng))
    with pytest.raises(ShapeError):
        outer(random_tensor(2, 4, rng), random_tensor(2, 5, rng))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_public_contractions_and_arithmetic_match_einsum(data, n):
    """contract_left, contract_right, +, unary - and scalar * on single
    tensors against einsum and plain array arithmetic, for ranks 0-4."""
    qt = data.draw(st.integers(0, 4), label="qt")
    qs = data.draw(st.integers(0, qt), label="qs")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    t, u, s = random_tensor(n, qt, gen), random_tensor(n, qt, gen), random_tensor(n, qs, gen)
    a = float(gen.standard_normal())
    idx = SLOTS[:qt]
    left, right = contract_left(s, t), contract_right(t, s)
    assert left.q == right.q == qt - qs
    np.testing.assert_allclose(
        left.array, np.einsum(f"{idx[:qs]},{idx}->{idx[qs:]}", s.array, t.array),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        right.array, np.einsum(f"{idx},{idx[qt - qs:]}->{idx[:qt - qs]}", t.array, s.array),
        rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal((t + u).array, t.array + u.array)
    np.testing.assert_array_equal((-t).array, -t.array)
    np.testing.assert_array_equal((a * t).array, t.array * a)
    np.testing.assert_array_equal((t * 3).array, t.array * 3.0)
    assert (t + u).q == (-t).q == (a * t).q == qt
    with pytest.raises(TypeError):
        t + 1.0
    with pytest.raises(TypeError):
        t * t


# -- batched public tensors ---------------------------------------------------------


def _stack(results, batch):
    """The single results of a batch's tensors, stacked to its leading shape."""
    arrays = [r.array if isinstance(r, Tensor) else np.asarray(r) for r in results]
    return np.array(arrays).reshape(batch + arrays[0].shape)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, MAX_AMBIENT_DIM),
       batch=st.sampled_from([(), (3,), (2, 2)]))
def test_batched_tensor_operations_stack_their_single_results(data, n, batch):
    """Every operation on batched Tensors equals, bit for bit, the stack of
    its results on the single tensors at each leading index, and
    components() rebuilds the batch; ranks up to n^(qa+qb) <= 1024."""
    top = MAX_RANK if n == 1 else min(MAX_RANK, int(math.log(1024, n) + 1e-9))
    qa = data.draw(st.integers(0, top), label="qa")
    qb = data.draw(st.integers(0, top - qa), label="qb")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    lead = len(batch)
    arrays = [gen.standard_normal(batch + (n,) * q) for q in (qa, qa, qb)]
    a, c, b = (Tensor(n, arr, lead) for arr in arrays)
    points = list(np.ndindex(batch))
    single = {name: [Tensor(n, t.array[i]) for i in points] for name, t in zip("acb", (a, c, b))}

    def same(got, op, *names):
        want = _stack([op(*(single[x][i] for x in names)) for i in range(len(points))], batch)
        got = got.array if isinstance(got, Tensor) else np.asarray(got)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    assert (a.n, a.q, a.lead, a.batch) == (n, qa, lead, batch)
    same(a + c, lambda s, t: s + t, "a", "c")
    same(a - c, lambda s, t: s - t, "a", "c")
    same(-a, lambda s: -s, "a")
    same(2.5 * a, lambda s: 2.5 * s, "a")
    same(linear_combine(2.0, a, -0.5, c), lambda s, t: linear_combine(2.0, s, -0.5, t), "a", "c")
    same(frobenius(a, c), frobenius, "a", "c")
    same(outer(a, b), outer, "a", "b")
    if qb <= qa:
        same(contract_left(b, a), contract_left, "b", "a")
        same(contract_right(a, b), contract_right, "a", "b")
    if qa >= 1 and qb >= 1:
        same(dot(a, b), dot, "a", "b")
    if qa >= 1:
        for k in range(n):
            same(a.component(k), lambda s: s.component(k), "a")
        rebuilt = from_components(list(a.components()))
        assert rebuilt.lead == lead
        np.testing.assert_array_equal(rebuilt.array, a.array)
    if n >= 2:
        m = data.draw(st.integers(1, n - 1), label="m")
        normals = np.swapaxes(np.linalg.qr(gen.standard_normal(batch + (n, m)))[0], -1, -2)
        frames = [frame_from_normals(normals[i]) for i in points]
        got = project(frame_from_normals(normals), a)
        want = _stack([project(f, t) for f, t in zip(frames, single["a"])], batch)
        assert got.lead == lead
        np.testing.assert_array_equal(got.array, want)


def test_batched_tensor_guards(rng):
    """Mismatched leading shapes, methods that take single tensors and
    non-finite entries raise; the rank limit counts the slots only."""
    a = Tensor(3, rng.normal(size=(4, 3, 3)), lead=1)
    assert a.q == 2 and a.batch == (4,)
    others = [Tensor(3, rng.normal(size=(5, 3, 3)), lead=1), Tensor(3, rng.normal(size=(3, 3))),
              Tensor(3, rng.normal(size=(4, 1, 3, 3)), lead=2)]
    for other in others:
        for op in (lambda: a + other, lambda: a - other, lambda: dot(a, other),
                   lambda: frobenius(a, other), lambda: outer(a, other),
                   lambda: contract_left(other, a), lambda: contract_right(a, other),
                   lambda: linear_combine(1.0, a, 1.0, other),
                   lambda: from_components([other, a, a])):
            with pytest.raises(ShapeError):
                op()
    normals = np.tile([0.0, 0.0, 1.0], (5, 1, 1))
    for frame in (frame_from_normals(normals), frame_from_normals(normals[0])):
        with pytest.raises(ShapeError):
            project(frame, a)
    v = np.ones(3)
    for op in (lambda: a.value, lambda: a.evaluate([v, v]), lambda: a(v), lambda: a.insert_left(v),
               lambda: a.insert_right(v), lambda: a.transpose(), lambda: a.norm(),
               lambda: constant(3, a)):
        with pytest.raises(ShapeError):
            op()
    bad = rng.normal(size=(4, 3, 3))
    bad[2, 1, 0] = np.nan
    with pytest.raises(ShapeError):
        Tensor(3, bad, lead=1)
    with pytest.raises(ShapeError):
        Tensor(3, np.zeros((4, 3, 2)), lead=1)  # trailing axes not cubical
    with pytest.raises(ShapeError):
        Tensor(3, np.zeros(3), lead=2)
    deep = Tensor(2, np.zeros((3, 2) + (2,) * MAX_RANK), lead=2)
    assert deep.q == MAX_RANK and deep.batch == (3, 2)
    with pytest.raises(ShapeError):
        Tensor(2, np.zeros((3, 2) + (2,) * MAX_RANK), lead=1)
    with pytest.raises(ShapeError):
        Tensor(2, np.zeros((3,) + (2,) * MAX_RANK), lead=1).component(0).insert_left([1.0, 0.0])


def test_a_field_at_points_is_a_batch():
    """n points of a rank-1 field over R^n are n vectors, not one rank-2 tensor."""
    values = position(3).at(np.eye(3))
    assert (values.q, values.batch) == (1, (3,))
    np.testing.assert_array_equal(values.array, np.eye(3))
    single = position(3)(np.array([1.0, 2.0, 3.0]))
    assert (single.q, single.lead) == (1, 0)
