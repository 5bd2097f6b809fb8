"""Hermitian linear algebra over F_{q^2}: products, projectors, row reduction."""

import numpy as np
import pytest

from designforge.ffcore import ContextMismatch, FieldElement, build_field, frobenius
from designforge.fflinalg import (
    SYM_PROJECTOR_MAX_DIM,
    BudgetExceeded,
    EvenCharacteristic,
    FFMatrix,
    FFVector,
    conj_transpose,
    frobenius_array,
    herm_inner,
    nullspace,
    outer,
    rank,
    row_echelon,
    sym_projector,
    trace,
)

FIELDS = [(3, 2), (5, 2), (7, 2)]


def _rand_vec(rng, ctx, d):
    return FFVector(ctx, rng.integers(0, ctx.p, size=(d, ctx.deg)))


def _rand_mat(rng, ctx, r, c):
    return FFMatrix(ctx, rng.integers(0, ctx.p, size=(r, c, ctx.deg)))


def _col(v: FFVector) -> FFMatrix:
    return FFMatrix(v.ctx, v.data[:, None, :])


def _tensor(x: FFVector, y: FFVector) -> FFVector:
    """x (x) y in row-major order, from scalar products."""
    prods = [(x[i] * y[j]).coeffs for i in range(len(x)) for j in range(len(y))]
    return FFVector(x.ctx, np.array(prods))


def test_shape_validation():
    ctx = build_field(3, 2)
    with pytest.raises(ValueError):
        FFVector(ctx, np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        FFMatrix(ctx, np.zeros((2, 2), dtype=np.int64))
    other = build_field(5, 2)
    with pytest.raises(ContextMismatch):
        herm_inner(FFVector(ctx, [[1, 0]]), FFVector(other, [[1, 0]]))
    with pytest.raises(ValueError):
        herm_inner(FFVector(ctx, [[1, 0]]), FFVector(ctx, [[1, 0], [0, 1]]))


def test_frobenius_array_matches_scalar():
    rng = np.random.default_rng(0)
    for p, k in FIELDS + [(2, 6)]:
        ctx = build_field(p, k)
        arr = rng.integers(0, p, size=(12, k)).astype(np.int64)
        got = frobenius_array(ctx, arr)
        for i in range(12):
            assert np.array_equal(got[i], frobenius(FieldElement(ctx, arr[i])).coeffs)


def test_herm_inner_sesquilinear():
    rng = np.random.default_rng(1)
    for p, k in FIELDS:
        ctx = build_field(p, k)
        for _ in range(15):
            x = _rand_vec(rng, ctx, 4)
            y = _rand_vec(rng, ctx, 4)
            a = ctx.from_int(int(rng.integers(1, ctx.order)))
            ip = herm_inner(x, y)
            # conjugate symmetry
            assert herm_inner(y, x) == frobenius(ip)
            ax = FFVector(ctx, np.stack([(a * x[i]).coeffs for i in range(4)]))
            ay = FFVector(ctx, np.stack([(a * y[i]).coeffs for i in range(4)]))
            assert herm_inner(ax, y) == frobenius(a) * ip
            assert herm_inner(x, ay) == a * ip
    # explicit small value: <(1,x),(x,1)> over F_9 is frob(1)*x + frob(x)*1
    ctx = build_field(3, 2)
    xval = ctx.element([0, 1])
    got = herm_inner(
        FFVector.from_elements([ctx.one(), xval]),
        FFVector.from_elements([xval, ctx.one()]),
    )
    assert got == xval + frobenius(xval)


def test_adjoint_and_outer():
    rng = np.random.default_rng(2)
    ctx = build_field(5, 2)
    for _ in range(10):
        a = _rand_mat(rng, ctx, 3, 4)
        b = _rand_mat(rng, ctx, 4, 2)
        assert conj_transpose(conj_transpose(a)) == a
        assert conj_transpose(a @ b) == conj_transpose(b) @ conj_transpose(a)
        x = _rand_vec(rng, ctx, 3)
        y = _rand_vec(rng, ctx, 3)
        m = outer(x, y)
        for i in range(3):
            for j in range(3):
                assert m.entry(i, j) == x[i] * frobenius(y[j])
        assert trace(outer(x)) == herm_inner(x, x)
        # x y* applied to z gives x <y, z>
        z = _rand_vec(rng, ctx, 3)
        lhs = m @ _col(z)
        c = herm_inner(y, z)
        rhs = _col(x) @ FFMatrix(ctx, c.coeffs[None, None, :])
        assert lhs == rhs


def test_trace_properties():
    rng = np.random.default_rng(4)
    ctx = build_field(7, 2)
    for _ in range(10):
        a = _rand_mat(rng, ctx, 3, 3)
        b = _rand_mat(rng, ctx, 3, 3)
        assert trace(a + b) == trace(a) + trace(b)
        assert trace(a @ b) == trace(b @ a)
    with pytest.raises(ValueError):
        trace(_rand_mat(rng, ctx, 2, 3))


@pytest.mark.parametrize("p,k,d", [(3, 2, 2), (5, 2, 3), (7, 2, 4)])
def test_sym_projector(p, k, d):
    ctx = build_field(p, k)
    pi = sym_projector(ctx, d)
    assert pi @ pi == pi
    assert conj_transpose(pi) == pi
    assert trace(pi) == ctx.scalar(d * (d + 1) // 2)
    assert rank(ctx, pi.data) == d * (d + 1) // 2
    rng = np.random.default_rng(d)
    x = _rand_vec(rng, ctx, d)
    y = _rand_vec(rng, ctx, d)
    xx = _col(_tensor(x, x))
    assert pi @ xx == xx
    anti = _col(_tensor(x, y)) - _col(_tensor(y, x))
    assert (pi @ anti).is_zero()


def test_sym_projector_guards():
    with pytest.raises(EvenCharacteristic):
        sym_projector(build_field(2, 6), 2)
    with pytest.raises(BudgetExceeded):
        sym_projector(build_field(3, 2), SYM_PROJECTOR_MAX_DIM + 1)


def test_row_echelon_rank_nullspace():
    rng = np.random.default_rng(6)
    for p, k in FIELDS:
        ctx = build_field(p, k)
        for _ in range(10):
            r, c = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            a = rng.integers(0, p, size=(r, c, k)).astype(np.int64)
            ech, pivots = row_echelon(ctx, a)
            assert rank(ctx, a) == len(pivots)
            ns = nullspace(ctx, a)
            assert len(pivots) + ns.shape[0] == c
            # every nullspace basis vector really is annihilated
            if ns.shape[0]:
                from designforge import kernels

                prod = kernels.matmul(a, ns.transpose(1, 0, 2), ctx.red, ctx.p)
                assert not prod.any()
            # pivot columns of the echelon form are unit columns
            for ri, pc in enumerate(pivots):
                col = ech[:, pc, :]
                assert FieldElement(ctx, col[ri]) == ctx.one()
                assert not np.any(np.delete(col, ri, axis=0))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_with_max_pivots_is_min_of_rank_and_m(p):
    # rank(a, max_pivots=m) == min(rank(a), m) whether the 2m-row prefix
    # proves it or the fallback over all rows is needed: prefixes of zero or
    # repeated rows force the fallback, and m >= C or m = 0 are clamped
    ctx = build_field(p, 2)
    rng = np.random.default_rng(p)
    for _ in range(40):
        r, c = int(rng.integers(0, 14)), int(rng.integers(1, 6))
        a = rng.integers(0, p, size=(r, c, 2)).astype(np.int64)
        for m in range(c + 3):
            zero_head = a.copy()
            zero_head[: 2 * m] = 0
            repeated_head = a.copy()
            if r:
                repeated_head[: 2 * m] = a[r - 1]
            for arr in (a, zero_head, repeated_head):
                assert rank(ctx, arr, max_pivots=m) == min(rank(ctx, arr), m)
