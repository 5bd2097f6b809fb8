"""Exact linear algebra over F_{q^2} on plain coefficient arrays.

A vector is a (d, K) int64 array and a matrix an (r, c, K) one, with
K = ctx.deg coefficients per entry; stacks add leading axes.  The Hermitian
form <x, y> = sum_i frob(x_i) * y_i, conjugate-linear in the FIRST argument
so that <x, y> = frob(<y, x>), is `kernels.dot_batch` with the conjugation
matrix ctx.conj_matrix() as its `frob` argument.

Row reduction uses first-nonzero pivoting in the fixed row/column order, so
echelon forms, ranks, and nullspace bases are deterministic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .ffcore import FieldCtx, FieldElement


class LinalgError(Exception):
    pass


class EvenCharacteristic(LinalgError):
    """Raised where division by 2 is required but p = 2."""


class BudgetExceeded(LinalgError):
    """Raised when an exact computation would exceed its size budget."""


def frobenius_array(ctx: FieldCtx, arr: np.ndarray) -> np.ndarray:
    """Apply the q-power map entrywise to an (..., K) coefficient array."""
    kernels._check_exact(ctx.deg, ctx.p, "frobenius_array")
    mat = ctx.conj_matrix().astype(np.float64)
    out = (arr.reshape(-1, ctx.deg).astype(np.float64) @ mat.T).astype(np.int64)
    out %= ctx.p
    return out.reshape(arr.shape)


def sym_projector(ctx: FieldCtx, d: int) -> np.ndarray:
    """Projector (I + SWAP)/2 onto the symmetric subspace of F^d (x) F^d.

    A (d^2, d^2) int64 matrix over F_p, since every entry is 0, 1/2 or 1;
    SWAP sends index i d + j to j d + i.  Odd characteristic is required.
    """
    if ctx.p == 2:
        raise EvenCharacteristic("symmetric projector needs 1/2; p = 2 has none")
    idx = np.arange(d * d)
    i, j = np.divmod(idx, d)
    out = np.zeros((d * d, d * d), dtype=np.int64)
    out[idx, idx] += (ctx.p + 1) // 2
    out[idx, j * d + i] += (ctx.p + 1) // 2
    return out % ctx.p


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------


def row_echelon(
    ctx: FieldCtx,
    a: np.ndarray,
    max_pivots: Optional[int] = None,
):
    """Reduced row echelon form of an (R, C, K) array; returns (ech, pivots).

    Pivoting is deterministic: columns are scanned left to right and the
    first row (top to bottom) with a nonzero entry is chosen.
    """
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64) % ctx.p)
    rows, cols = a.shape[0], a.shape[1]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows or (max_pivots is not None and len(pivots) >= max_pivots):
            break
        nz = np.nonzero(np.any(a[r:, c, :] != 0, axis=1))[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = FieldElement(ctx, a[r, c]).inverse()
        a[r] = kernels.mul_batch(a[r], inv.coeffs, ctx.red, ctx.p)
        others = np.nonzero(np.any(a[:, c, :] != 0, axis=1))[0]
        others = others[others != r]
        if others.size:
            # a[r] is zero left of column c, so only columns c: change
            sub = np.ascontiguousarray(a[others, c:])
            kernels.elim_update(sub, a[others, c], a[r, c:], ctx.red, ctx.p)
            a[others, c:] = sub
        pivots.append(c)
        r += 1
    return a, pivots


def rank(ctx: FieldCtx, a: np.ndarray, max_pivots: Optional[int] = None) -> int:
    """Rank of an (R, C, K) array; with max_pivots = m, min(rank, m).

    m is clamped to C.  If the first 2m rows alone reach m pivots, that is
    exact, since a subset's rank bounds the whole set's from below;
    otherwise all rows are reduced.  2m, not m: the first d vectors of a
    Gabor frame are dependent when p divides |D|, as at d = 57.
    """
    if max_pivots is not None:
        max_pivots = min(max_pivots, a.shape[1])
        head = a[: 2 * max_pivots]
        if len(head) < len(a):
            _, pivots = row_echelon(ctx, head, max_pivots=max_pivots)
            if len(pivots) == max_pivots:
                return max_pivots
    _, pivots = row_echelon(ctx, a, max_pivots=max_pivots)
    return len(pivots)


def nullspace(ctx: FieldCtx, a: np.ndarray) -> np.ndarray:
    """Basis of the right nullspace as an (m, C, K) array (m may be 0)."""
    ech, pivots = row_echelon(ctx, a)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols, ctx.deg), dtype=np.int64)
    for bi, fc in enumerate(free):
        basis[bi, fc, 0] = 1
        for ri, pc in enumerate(pivots):
            basis[bi, pc] = (-ech[ri, fc]) % ctx.p
    return basis

