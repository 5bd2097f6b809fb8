"""Exact linear algebra over F_{q^2} with the conjugation twisted by Frobenius.

Vectors and matrices hold int64 coefficient arrays with a trailing axis of
length K = ctx.deg (one coefficient vector per entry).  The sesquilinear
inner product conjugates the FIRST argument entrywise with the q-power map:
<x, y> = sum_i frob(x_i) * y_i, so <x, y> = frob(<y, x>).

Row reduction uses first-nonzero pivoting in the fixed row/column order, so
echelon forms, ranks, and nullspace bases are deterministic.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .ffcore import ContextMismatch, FieldCtx, FieldElement


class LinalgError(Exception):
    pass


class EvenCharacteristic(LinalgError):
    """Raised where division by 2 is required but p = 2."""


class BudgetExceeded(LinalgError):
    """Raised when an exact computation would exceed its size budget."""


SYM_PROJECTOR_MAX_DIM = 16


def frobenius_array(ctx: FieldCtx, arr: np.ndarray) -> np.ndarray:
    """Apply the q-power map entrywise to an (..., K) coefficient array."""
    kernels._check_exact(ctx.deg, ctx.p, "frobenius_array")
    mat = ctx.conj_matrix().astype(np.float64)
    out = (arr.reshape(-1, ctx.deg).astype(np.float64) @ mat.T).astype(np.int64)
    out %= ctx.p
    return out.reshape(arr.shape)


class FFVector:
    """Length-d vector over a field context; data has shape (d, K)."""

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: FieldCtx, data):
        self.ctx = ctx
        arr = np.asarray(data, dtype=np.int64) % ctx.p
        if arr.ndim != 2 or arr.shape[1] != ctx.deg:
            raise ValueError(f"expected (d, {ctx.deg}) coefficients, got {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    @classmethod
    def from_elements(cls, elems) -> "FFVector":
        ctx = elems[0].ctx
        return cls(ctx, np.stack([e.coeffs for e in elems]))

    def __len__(self):
        return self.data.shape[0]

    def __getitem__(self, i: int) -> FieldElement:
        return FieldElement(self.ctx, self.data[i])

    def __eq__(self, other):
        return (
            isinstance(other, FFVector)
            and self.ctx is other.ctx
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self):
        return f"FFVector(d={len(self)}, p={self.ctx.p}, k={self.ctx.deg})"


class FFMatrix:
    """Matrix over a field context; data has shape (rows, cols, K)."""

    __slots__ = ("ctx", "data")

    def __init__(self, ctx: FieldCtx, data):
        self.ctx = ctx
        arr = np.asarray(data, dtype=np.int64) % ctx.p
        if arr.ndim != 3 or arr.shape[2] != ctx.deg:
            raise ValueError(f"expected (r, c, {ctx.deg}) coefficients, got {arr.shape}")
        self.data = np.ascontiguousarray(arr)

    @property
    def shape(self):
        return self.data.shape[:2]

    @classmethod
    def zeros(cls, ctx: FieldCtx, rows: int, cols: int) -> "FFMatrix":
        return cls(ctx, np.zeros((rows, cols, ctx.deg), dtype=np.int64))

    def _check(self, other):
        if self.ctx is not other.ctx:
            raise ContextMismatch("matrices belong to different field contexts")

    def __add__(self, other):
        self._check(other)
        return FFMatrix(self.ctx, (self.data + other.data) % self.ctx.p)

    def __sub__(self, other):
        self._check(other)
        return FFMatrix(self.ctx, (self.data - other.data) % self.ctx.p)

    def __matmul__(self, other):
        self._check(other)
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        out = kernels.matmul(self.data, other.data, self.ctx.red, self.ctx.p)
        return FFMatrix(self.ctx, out)

    def __eq__(self, other):
        return (
            isinstance(other, FFMatrix)
            and self.ctx is other.ctx
            and np.array_equal(self.data, other.data)
        )

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.ctx, self.data[i, j])

    def is_zero(self) -> bool:
        return not np.any(self.data)

    def __repr__(self):
        r, c = self.shape
        return f"FFMatrix({r}x{c}, p={self.ctx.p}, k={self.ctx.deg})"


# ---------------------------------------------------------------------------
# products and conjugation
# ---------------------------------------------------------------------------


def herm_inner(x: FFVector, y: FFVector) -> FieldElement:
    """Sesquilinear inner product, conjugate-linear in the first argument."""
    if x.ctx is not y.ctx:
        raise ContextMismatch("vectors belong to different field contexts")
    if len(x) != len(y):
        raise ValueError("length mismatch")
    ctx = x.ctx
    out = kernels.dot_batch(x.data[None], y.data[None], ctx.red, ctx.p, ctx.conj_matrix())[0]
    return FieldElement(ctx, out)


def conj_transpose(m: FFMatrix) -> FFMatrix:
    """Adjoint: (A*)_ij = frob(A_ji)."""
    swapped = np.swapaxes(m.data, 0, 1)
    return FFMatrix(m.ctx, frobenius_array(m.ctx, swapped))


def outer(x: FFVector, y: Optional[FFVector] = None) -> FFMatrix:
    """Rank-one matrix x y* (defaults to x x*)."""
    if y is None:
        y = x
    ctx = x.ctx
    yf = frobenius_array(ctx, y.data)
    return FFMatrix(ctx, kernels.mul_batch(x.data[:, None], yf, ctx.red, ctx.p))


def trace(m: FFMatrix) -> FieldElement:
    r, c = m.shape
    if r != c:
        raise ValueError("trace needs a square matrix")
    s = m.data[np.arange(r), np.arange(r)].sum(axis=0) % m.ctx.p
    return FieldElement(m.ctx, s)


def sym_projector(ctx: FieldCtx, d: int) -> FFMatrix:
    """Projector onto the symmetric subspace of F^d (x) F^d, materialized.

    Equals (I + SWAP)/2, so odd characteristic is required.  Dense
    materialization is limited to d <= SYM_PROJECTOR_MAX_DIM; larger d
    should go through the implicit symmetrization used by the block verifier.
    """
    if ctx.p == 2:
        raise EvenCharacteristic("symmetric projector needs 1/2; p = 2 has none")
    if d > SYM_PROJECTOR_MAX_DIM:
        raise BudgetExceeded(
            f"dense symmetric projector limited to d <= {SYM_PROJECTOR_MAX_DIM}, got {d}"
        )
    n = d * d
    inv2 = pow(2, ctx.p - 2, ctx.p)
    idx = np.arange(n)
    i, j = idx // d, idx % d
    swap = j * d + i
    data = np.zeros((n, n, ctx.deg), dtype=np.int64)
    data[idx, idx, 0] += inv2
    data[idx, swap, 0] += inv2
    data[:, :, 0] %= ctx.p
    return FFMatrix(ctx, data)


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

