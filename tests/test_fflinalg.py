"""Linear algebra over F_{q^2} on coefficient arrays: the Hermitian form, projectors, row reduction."""

import numpy as np
import pytest

from designforge import kernels
from designforge.ffcore import FieldElement, build_field, frobenius
from designforge.fflinalg import (
    EvenCharacteristic,
    frobenius_array,
    nullspace,
    rank,
    row_echelon,
    sym_projector,
)

FIELDS = [(3, 2), (5, 2), (7, 2)]


def _herm(ctx, x, y) -> FieldElement:
    """<x, y> = sum_i frob(x_i) y_i of two (d, K) arrays, by the kernel's frob argument."""
    return FieldElement(ctx, kernels.dot_batch(x[None], y[None], ctx.red, ctx.p, ctx.conj_matrix())[0])


def _scaled(a: FieldElement, x) -> np.ndarray:
    """a x entrywise, from scalar products."""
    return np.stack([(a * FieldElement(a.ctx, xi)).coeffs for xi in x])


def _tensor(ctx, x, y) -> np.ndarray:
    """x (x) y in row-major order as a (d^2, K) array, from scalar products."""
    return np.stack(
        [(FieldElement(ctx, xi) * FieldElement(ctx, yj)).coeffs for xi in x for yj in y]
    )


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
            x = rng.integers(0, p, size=(4, k))
            y = rng.integers(0, p, size=(4, k))
            a = ctx.from_int(int(rng.integers(1, ctx.order)))
            ip = _herm(ctx, x, y)
            # conjugate symmetry
            assert _herm(ctx, y, x) == frobenius(ip)
            assert _herm(ctx, _scaled(a, x), y) == frobenius(a) * ip
            assert _herm(ctx, x, _scaled(a, y)) == a * ip
    # explicit small value: <(1,x),(x,1)> over F_9 is frob(1)*x + frob(x)*1
    ctx = build_field(3, 2)
    xval = ctx.element([0, 1])
    one = ctx.one()
    got = _herm(ctx, np.stack([one.coeffs, xval.coeffs]), np.stack([xval.coeffs, one.coeffs]))
    assert got == xval + frobenius(xval)


@pytest.mark.parametrize("p,k,d", [(3, 2, 2), (5, 2, 3), (7, 2, 4)])
def test_sym_projector(p, k, d):
    ctx = build_field(p, k)
    pi = sym_projector(ctx, d)
    assert pi.shape == (d * d, d * d) and pi.dtype == np.int64
    assert np.array_equal(pi @ pi % p, pi)
    # every entry lies in F_p, which frob fixes, so self-adjoint means symmetric
    assert np.array_equal(pi, pi.T)
    assert np.trace(pi) % p == d * (d + 1) // 2 % p
    lifted = np.zeros((d * d, d * d, k), dtype=np.int64)
    lifted[:, :, 0] = pi
    assert rank(ctx, lifted) == d * (d + 1) // 2
    rng = np.random.default_rng(d)
    x = rng.integers(0, p, size=(d, k))
    y = rng.integers(0, p, size=(d, k))
    xx = _tensor(ctx, x, x)
    assert np.array_equal(pi @ xx % p, xx)
    anti = (_tensor(ctx, x, y) - _tensor(ctx, y, x)) % p
    assert not np.any(pi @ anti % p)


def test_sym_projector_guards():
    with pytest.raises(EvenCharacteristic):
        sym_projector(build_field(2, 6), 2)


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
