"""Batched arithmetic kernels for extension-field coefficient vectors.

Field elements are coefficient vectors of length K (constant term first),
with entries reduced mod a prime p.  Products are schoolbook
convolutions followed by reduction with a precomputed matrix
``red`` of shape (K-1, K) whose row j holds the coefficients of
x^(K+j) mod f, where f is the (monic) field modulus of degree K.

Each kernel has one implementation in numpy: integer arithmetic for
``mul_batch``, float64 products handed to BLAS for the other five, with the
exactness bounds below checked in code.

Operands may have any integer dtype, and results are int64.  ``gather_dot``
(and so ``dot_batch``) and ``frame_operator`` read their operands as they
are and convert only a gathered chunk or a row block to float64, so a
finite ensemble's uint16 data is never copied whole.  ``mul_batch``,
``matmul`` and ``elim_update`` take their operands as int64 (a copy for
another dtype); their callers pass small or derived arrays.

``mul_batch`` takes any two (..., K) arrays whose leading axes broadcast
against each other (numpy rules) and returns an array of the broadcast
shape.  It forms the (..., 2K-1) convolutions and reduces them as one flat
(N, 2K-1) batch, so callers pass views (``c``, ``x[:, None]``) rather than
tiling or flattening their operands.

``dot_batch``, ``gather_dot``, ``matmul``, ``frame_operator`` and
``elim_update`` are built on the (K^2, K) fold matrix, whose row i*K+j is
x^(i+j) reduced mod f (the unit vector e_(i+j) when i+j < K, else
red[i+j-K]); it does the convolution and the modulus reduction together
(delayed modular reduction over BLAS, as in FFLAS-FFPACK).  The first three
make two float64 products:

1. One product over the inner index gives every coefficient-pair sum
   P[i, j] = sum_e a[e, i] * b[e, j]: a batched ``matmul`` of (m, K, D) @
   (m, D, K) for the dot kernels, one (R*K, M) @ (M, K*C) GEMM per row block
   for ``matmul``.
2. One product with the fold matrix; mod p is taken once at the end.

The conjugation frob is an F_p-linear map, given as a (K, K) matrix with
frob(v) = frob @ v, so it moves into the fold: the conjugated fold H, with
H[b*K+j, t] = sum_c frob[c, b] * fold[c*K+j, t] the coefficient t of
frob(x^b) * x^j, is one (K, K) @ (K, K^2) product, built once per field.
The dot kernels take an optional ``frob`` that conjugates their first
operand: step 2 then folds with H, and no conjugated copy of an operand is
made.

``frame_operator`` forms S[i, j] = sum_n x[n, i] * frob(x[n, j]).  Step 1 is
G = X^T X for X = x.reshape(N, D*K), of which only the part on or above the
diagonal is kept: the D coordinates are split into strips J = [j0, j1) of
ceil(D/8) coordinates, and strip J holds g_J = G[:j1*K, j0*K:j1*K].  Each
row block X_b of X, converted to float64 one at a time, adds
X_b[:, :j1*K]^T X_b[:, j0*K:j1*K] into every g_J.  Step 2 reduces a strip
mod p and folds it with H's two factors swapped (row a*K+b is then
x^a * frob(x^b)) into S[:j1, J]; the entries of S[J, :j0] fold the same tile
with (i, a) and (j, b) swapped, since G is symmetric.  No G-sized array is
made: beside x, the peak holds about G/2 of strips, one block of at most
max(D*K // 4, 1024 // (D*K)) rows (G/4 once D*K >= 64; the floor of about
1024 floats keeps tiny D*K from looping once per row) and one strip product
of at most D*K x (width*K).

``elim_update`` multiplies every row by the same pivot, and multiplying by a
fixed pivot entry is a linear map on coefficient vectors: its (K, K) matrix,
row i the coefficients of x^i * pivot[c] mod f, is the pivot contracted with
the fold matrix viewed as (K, K, K).  The update of all rows is then one
(rows, K) @ (K, cols*K) GEMM of the factors with these matrices.

Float64 holds every integer below 2^53, and all operands are residues in
[0, p), so a sum of t products of residues is exact when t*(p-1)^2 < 2^53.
The kernels enforce this and raise OverflowError rather than round:

- product step: inner length * (p-1)^2 < 2^53; a longer inner dimension is
  split into blocks with a reduction mod p after each (``frame_operator``
  reduces every strip of G mod p before its running row count, with a
  reduced entry counted as one row, would pass that length);
- fold: K^2 * (p-1)^2 < 2^53; P (or a strip of G) is reduced mod p before
  the fold.
  The same check covers ``elim_update``, whose two products (pivot with
  fold, then factors with the reduced pivot matrices) each sum K products of
  residues, and the conjugated fold H, a sum of K products reduced mod p;
- modulus reduction of a convolution (``mul_batch``): (K-1) * (p-1)^2 <
  2^53; ``fflinalg.frobenius_array``: K * (p-1)^2 < 2^53.

The supported fields (p < 2^16, K <= 64) meet every bound except the
product step over inner dimensions beyond about 2^21, which is blocked.
Integer kernels keep every intermediate well inside int64.
"""

from __future__ import annotations

import functools

import numpy as np

_EXACT = 1 << 53  # float64 holds every integer below this exactly
_GATHER_CHUNK = 1 << 16  # float elements per gathered operand chunk (cache-sized)
_MATMUL_BLOCK = 1 << 22  # float elements per row block's product and its A copy


def _check_exact(terms, p, what):
    """Raise unless a sum of `terms` products of residues mod p is exact in float64."""
    if terms * (p - 1) ** 2 >= _EXACT:
        raise OverflowError(
            f"{what}: {terms} products of residues mod {p} can reach 2^53, "
            "where float64 stops representing every integer"
        )


@functools.lru_cache(maxsize=16)
def _fold_cached(p, k, red_bytes):
    red = np.frombuffer(red_bytes, dtype=np.int64).reshape(k - 1, k)
    # x^s for s = 0 .. 2K-2: the unit vectors, then the rows of red
    powers = np.vstack([np.eye(k), red]).astype(np.float64)
    fold = powers[np.add.outer(np.arange(k), np.arange(k))].reshape(k * k, k)
    fold.flags.writeable = False
    return fold


def _fold_matrix(red, p):
    """(K^2, K) matrix whose row i*K+j is x^(i+j) reduced mod the field modulus."""
    k = red.shape[1]
    _check_exact(k * k, p, "coefficient fold")
    return _fold_cached(p, k, red.tobytes())


@functools.lru_cache(maxsize=16)
def _conj_fold_cached(p, k, red_bytes, frob_bytes):
    frob = np.frombuffer(frob_bytes, dtype=np.int64).reshape(k, k).astype(np.float64)
    fold = _fold_cached(p, k, red_bytes).reshape(k, k * k)
    # K products of residues each, inside the fold bound
    h = _mod_exact(frob.T @ fold, p).reshape(k * k, k)
    h.flags.writeable = False
    return h


def _conj_fold(frob, red, p):
    """(K^2, K) matrix whose row b*K+j is frob(x^b) * x^j reduced mod the field modulus."""
    _fold_matrix(red, p)  # the fold's exactness check
    return _conj_fold_cached(p, red.shape[1], red.tobytes(), frob.tobytes())


def _mod_exact(x, p):
    """Reduce float x, integers below 2^53, mod p in place.

    The round trip through int64 takes about a third of the time of numpy's
    float remainder.
    """
    r = x.astype(np.int64)
    r %= p
    x[...] = r
    return x


def _exact_matmul(a, b, p):
    """Float a @ b reduced mod p, exact for every inner length.

    The inner dimension is split into blocks whose sums stay below 2^53, and
    the result is reduced mod p after each block.
    """
    blk = (_EXACT - 1) // (p - 1) ** 2
    out = _mod_exact(np.matmul(a[..., :blk], b[..., :blk, :]), p)
    for lo in range(blk, a.shape[-1], blk):
        out += _mod_exact(np.matmul(a[..., lo : lo + blk], b[..., lo : lo + blk, :]), p)
        _mod_exact(out, p)
    return out


def _pair_dots(xt, yf, fold, p):
    """Folded dots of float (m, K, D) and (m, D, K) operands -> (m, K) int64."""
    m, k = xt.shape[:2]
    prod = _exact_matmul(xt, yf, p).reshape(m, k * k)
    out = (prod @ fold).astype(np.int64)
    out %= p
    return out


def _reduce(conv, red, p):
    """Reduce convolution coefficients (N, 2K-1) to (N, K) mod the modulus.

    conv is reduced mod p in place; callers pass a temporary they discard.
    """
    k = red.shape[1]
    conv %= p
    out = conv[:, :k].copy()
    if k > 1:
        _check_exact(k - 1, p, "modulus reduction")
        high = conv[:, k:].astype(np.float64)
        out += (high @ red.astype(np.float64)).astype(np.int64)
        out %= p
    return out


def backend() -> str:
    """Name of the kernel implementation, recorded in benchmark results."""
    return "numpy"


def _as_i64(a):
    # no forced layout: each kernel makes its own float copy in the order it needs
    return np.asarray(a, dtype=np.int64)


def mul_batch(a, b, red, p):
    """Entrywise products of field elements: (...,K)x(...,K) -> (...,K).

    The leading axes broadcast as in numpy, so a scalar multiple is
    mul_batch(arr, c, ...) and an outer product mul_batch(x[:, None], y, ...).
    """
    a, b, red = _as_i64(a), _as_i64(b), _as_i64(red)
    k = red.shape[1]
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    conv = np.zeros(shape + (2 * k - 1,), dtype=np.int64)
    for i in range(k):
        conv[..., i : i + k] += a[..., i : i + 1] * b
    return _reduce(conv.reshape(-1, 2 * k - 1), red, p).reshape(shape + (k,))


def dot_batch(x, y, red, p, frob=None):
    """Row-wise dot products sum_e x[n,e]*y[n,e]: (N,D,K)x(N,D,K)->(N,K).

    With a (K, K) matrix frob the first operand is conjugated:
    sum_e frob(x[n,e])*y[n,e].
    """
    idx = np.arange(len(x))
    return gather_dot(x, y, idx, idx, red, p, frob)


def gather_dot(x, y, ki, kj, red, p, frob=None):
    """dot_batch on gathered row pairs (x[ki[b]], y[kj[b]])."""
    x, y = np.asarray(x), np.asarray(y)
    ki, kj, red = _as_i64(ki), _as_i64(kj), _as_i64(red)
    fold = _fold_matrix(red, p) if frob is None else _conj_fold(_as_i64(frob), red, p)
    # gather rows in chunks and convert only the chunk: peak memory stays flat
    m = ki.shape[0]
    _, d, k = x.shape
    step = max(1, _GATHER_CHUNK // max(d * k, 1))
    out = np.empty((m, k), dtype=np.int64)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        xt = np.ascontiguousarray(x[ki[lo:hi]].transpose(0, 2, 1), dtype=np.float64)
        out[lo:hi] = _pair_dots(xt, y[kj[lo:hi]].astype(np.float64), fold, p)
    return out


def matmul(a, b, red, p):
    """Field matrix product: (R,M,K) @ (M,C,K) -> (R,C,K)."""
    a, b, red = _as_i64(a), _as_i64(b), _as_i64(red)
    rows, mid, k = a.shape
    cols = b.shape[1]
    fold_t = _fold_matrix(red, p).T
    # columns ordered (j, c), so a row block's product is (block rows, K*K, C)
    bt = np.ascontiguousarray(b.transpose(0, 2, 1), dtype=np.float64)
    bt = bt.reshape(mid, k * cols)
    step = max(1, _MATMUL_BLOCK // max(k * max(mid, k * cols), 1))
    out = np.empty((rows, cols, k), dtype=np.int64)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        at = np.ascontiguousarray(a[lo:hi].transpose(0, 2, 1), dtype=np.float64)
        prod = _exact_matmul(at.reshape((hi - lo) * k, mid), bt, p)
        folded = np.matmul(fold_t, prod.reshape(hi - lo, k * k, cols))
        out[lo:hi] = folded.transpose(0, 2, 1)
        out[lo:hi] %= p
    return out


def frame_operator(x, frob, red, p):
    """S[i,j] = sum_n x[n,i] * frob(x[n,j]): (N,D,K) -> (D,D,K).

    frob is the (K, K) matrix of an F_p-linear map, frob(v) = frob @ v.
    G = X^T X is summed as column strips on and above its diagonal; beside
    x the peak is about G/2 of strips, one float row block of at most G/4
    (or 1024 floats when D*K < 64) and one strip product of at most
    D*K x (width*K) floats.
    """
    x, frob, red = np.asarray(x), _as_i64(frob), _as_i64(red)
    n, d, k = x.shape
    dk = d * k
    # row a*K+b is x^a * frob(x^b): the conjugated fold's two factors swapped
    h = _conj_fold(frob, red, p).reshape(k, k, k).transpose(1, 0, 2).reshape(k * k, k)
    # G = X^T X for X = x.reshape(N, D*K) is kept on and above its diagonal
    # only, as column strips g_J = G[:j1*K, j0*K:j1*K] of at most eight strips
    width = max(1, -(-d // 8))
    strips = [(j0, min(j0 + width, d)) for j0 in range(0, d, width)]
    g = [np.zeros((j1 * k, (j1 - j0) * k)) for j0, j1 in strips]
    blk = (_EXACT - 1) // (p - 1) ** 2  # rows whose sum stays below 2^53
    # G/4 at most, but never below about 1024 floats per block
    step = max(1, min(_MATMUL_BLOCK // max(dk, 1), max(dk // 4, 1024 // max(dk, 1)), blk - 1))
    summed = 0  # rows in the strips since their last reduction; a residue counts as one
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        if summed + hi - lo > blk:
            for gj in g:
                _mod_exact(gj, p)
            summed = 1
        xf = x[lo:hi].reshape(hi - lo, dk).astype(np.float64)
        for (j0, j1), gj in zip(strips, g):
            gj += xf[:, : j1 * k].T @ xf[:, j0 * k : j1 * k]
        summed += hi - lo
        del xf  # before the next block is converted
    out = np.empty((d, d, k), dtype=np.int64)
    for (j0, j1), gj in zip(strips, g):
        w = j1 - j0
        t = _mod_exact(gj, p).reshape(j1, k, w, k)  # t[i, a, j - j0, b] = G[(i,a), (j,b)]
        up = t.transpose(0, 2, 1, 3).reshape(j1 * w, k * k) @ h
        out[:j1, j0:j1] = up.reshape(j1, w, k)
        # S[j, i] for i < j0 folds the same tile with (i, a) and (j, b)
        # swapped, since G[(j,a), (i,b)] = G[(i,b), (j,a)] = t[i, b, j - j0, a]
        low = t[:j0].transpose(2, 0, 3, 1).reshape(w * j0, k * k) @ h
        out[j0:j1, :j0] = low.reshape(w, j0, k)
    out %= p
    return out


def elim_update(rows, factors, pivot, red, p):
    """In-place rows[r,c] -= factors[r]*pivot[c]; the Gaussian row update."""
    if rows.dtype != np.int64 or not rows.flags.c_contiguous:
        raise ValueError("elim_update requires a C-contiguous int64 array")
    factors, pivot, red = _as_i64(factors), _as_i64(pivot), _as_i64(red)
    nr, nc, k = rows.shape
    fold = _fold_matrix(red, p).reshape(k, k, k)
    # mult[i, c, t]: coefficient t of x^i * pivot[c] mod f, so the update of
    # row r is factors[r] @ mult; both products sum K products of residues
    mult = _mod_exact(np.einsum("cj,ijt->ict", pivot.astype(np.float64), fold), p)
    prod = factors.astype(np.float64) @ mult.reshape(k, nc * k)
    # subtract in float64 straight into rows: every value is an integer below
    # 2^53, and no int64 copy of prod (as large as rows) is made
    np.subtract(rows, prod.reshape(nr, nc, k), out=rows, casting="unsafe")
    del prod
    # rows % p by floor division: numpy's integer remainder branches on each
    # entry's sign and zeroness, which are mixed here, and ran 3x slower
    rows -= rows // p * p
