"""Unit tests for the dense rank-q tensor container and its contractions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcalc.tensor import (
    MAX_AMBIENT_DIM,
    MAX_RANK,
    ShapeError,
    Tensor,
    _apply_to_slot,
    _contract,
    _contract_left,
    _contract_right,
    _dot,
    _frobenius,
    _outer,
    basis_covector,
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
