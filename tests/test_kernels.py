"""Cross-checks every kernel against scalar element arithmetic."""

import tracemalloc

import numpy as np
import pytest

from designforge import kernels
from designforge.ffcore import MAX_DEGREE, FieldElement, build_field, frobenius

CASES = [(3, 2), (7, 3), (13, 1), (65521, 2)]


def _rand_elems(rng, ctx, shape):
    return rng.integers(0, ctx.p, size=shape + (ctx.deg,)).astype(np.int64)


def _as_elem(ctx, coeffs):
    return FieldElement(ctx, coeffs)


@pytest.mark.parametrize("p,k", CASES)
def test_mul_and_dot_match_scalar_oracle(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(p + k)
    a = _rand_elems(rng, ctx, (40,))
    b = _rand_elems(rng, ctx, (40,))
    x = _rand_elems(rng, ctx, (6, 5))
    y = _rand_elems(rng, ctx, (6, 5))
    want_mul = np.stack(
        [(_as_elem(ctx, a[i]) * _as_elem(ctx, b[i])).coeffs for i in range(40)]
    )
    want_dot = []
    for r in range(6):
        acc = ctx.zero()
        for i in range(5):
            acc = acc + _as_elem(ctx, x[r, i]) * _as_elem(ctx, y[r, i])
        want_dot.append(acc.coeffs)
    want_dot = np.stack(want_dot)
    assert np.array_equal(kernels.mul_batch(a, b, ctx.red, ctx.p), want_mul)
    assert np.array_equal(kernels.dot_batch(x, y, ctx.red, ctx.p), want_dot)


@pytest.mark.parametrize("p,k", CASES)
def test_gather_dot_matches_pairwise_oracle(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(2 * p + k)
    n, d = 7, 4
    x = _rand_elems(rng, ctx, (n, d))
    ki = rng.integers(0, n, size=30)
    kj = rng.integers(0, n, size=30)
    want = []
    for i, j in zip(ki, kj):
        acc = ctx.zero()
        for t in range(d):
            acc = acc + _as_elem(ctx, x[i, t]) * _as_elem(ctx, x[j, t])
        want.append(acc.coeffs)
    want = np.stack(want)
    got = kernels.gather_dot(x, x, ki, kj, ctx.red, ctx.p)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p,k", CASES)
def test_matmul_matches_entrywise_oracle(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(3 * p + k)
    a = _rand_elems(rng, ctx, (4, 3))
    b = _rand_elems(rng, ctx, (3, 5))
    want = np.zeros((4, 5, ctx.deg), dtype=np.int64)
    for i in range(4):
        for j in range(5):
            acc = ctx.zero()
            for t in range(3):
                acc = acc + _as_elem(ctx, a[i, t]) * _as_elem(ctx, b[t, j])
            want[i, j] = acc.coeffs
    assert np.array_equal(kernels.matmul(a, b, ctx.red, ctx.p), want)


@pytest.mark.parametrize("p,k", CASES)
def test_elim_update_matches_row_oracle(p, k):
    # rows[r] -= factors[r] * pivot, the inner loop of Gaussian elimination
    ctx = build_field(p, k)
    rng = np.random.default_rng(4 * p + k)
    rows = _rand_elems(rng, ctx, (5, 6))
    factors = _rand_elems(rng, ctx, (5,))
    pivot = _rand_elems(rng, ctx, (6,))
    want = np.zeros_like(rows)
    for r in range(5):
        f = _as_elem(ctx, factors[r])
        for c in range(6):
            want[r, c] = (_as_elem(ctx, rows[r, c]) - f * _as_elem(ctx, pivot[c])).coeffs
    work = rows.copy()  # updated in place
    kernels.elim_update(work, factors, pivot, ctx.red, ctx.p)
    assert np.array_equal(work, want)
    with pytest.raises(ValueError):
        kernels.elim_update(rows.astype(np.int32), factors, pivot, ctx.red, ctx.p)


def test_mul_batch_matches_scalar_oracle_on_large_batch():
    # big prime: products sit near the top of the exact int64/float window
    ctx = build_field(65521, 3)
    rng = np.random.default_rng(99)
    a = _rand_elems(rng, ctx, (500,))
    b = _rand_elems(rng, ctx, (500,))
    want = np.stack(
        [(_as_elem(ctx, a[i]) * _as_elem(ctx, b[i])).coeffs for i in range(500)]
    )
    assert np.array_equal(kernels.mul_batch(a, b, ctx.red, ctx.p), want)


# ---------------------------------------------------------------------------
# the benchmark's fields and shapes, chunk and block boundaries, views
# ---------------------------------------------------------------------------

BENCH_FIELDS = [(7, 24), (2, 18)]


def _dot_oracle(ctx, xs, ys):
    acc = ctx.zero()
    for xe, ye in zip(xs, ys):
        acc = acc + _as_elem(ctx, xe) * _as_elem(ctx, ye)
    return acc.coeffs


def _conj_dot_oracle(ctx, xs, ys):
    acc = ctx.zero()
    for xe, ye in zip(xs, ys):
        acc = acc + frobenius(_as_elem(ctx, xe)) * _as_elem(ctx, ye)
    return acc.coeffs


def _frame_oracle(ctx, x, i, j):
    acc = ctx.zero()
    for row in x:
        acc = acc + _as_elem(ctx, row[i]) * frobenius(_as_elem(ctx, row[j]))
    return acc.coeffs


@pytest.mark.parametrize("p,k", BENCH_FIELDS)
def test_gather_dot_spans_chunks(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(p * k)
    n, d = 9, 73
    step = kernels._GATHER_CHUNK // (d * k)
    m = 3 * step + 5
    x = _rand_elems(rng, ctx, (n, d))
    y = _rand_elems(rng, ctx, (n, d))
    ki = rng.integers(0, n, size=m)
    kj = rng.integers(0, n, size=m)
    got = kernels.gather_dot(x, y, ki, kj, ctx.red, ctx.p)
    conj = kernels.gather_dot(x, y, ki, kj, ctx.red, ctx.p, ctx.frob_power_matrix(k // 2))
    for r in (0, step - 1, step, 2 * step + 1, m - 1):
        assert np.array_equal(got[r], _dot_oracle(ctx, x[ki[r]], y[kj[r]])), r
        assert np.array_equal(conj[r], _conj_dot_oracle(ctx, x[ki[r]], y[kj[r]])), r


@pytest.mark.parametrize("p,k", BENCH_FIELDS)
def test_dot_kernels_conjugate_the_first_operand(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(3 * p + k)
    n, d = 6, 5
    x = _rand_elems(rng, ctx, (n, d))
    y = _rand_elems(rng, ctx, (n, d))
    ki = rng.integers(0, n, size=10)
    kj = rng.integers(0, n, size=10)
    frob = ctx.frob_power_matrix(k // 2)
    dots = kernels.dot_batch(x, y, ctx.red, ctx.p, frob)
    gd = kernels.gather_dot(x, y, ki, kj, ctx.red, ctx.p, frob)
    for r in range(n):
        assert np.array_equal(dots[r], _conj_dot_oracle(ctx, x[r], y[r])), r
    for r, (i, j) in enumerate(zip(ki, kj)):
        assert np.array_equal(gd[r], _conj_dot_oracle(ctx, x[i], y[j])), r


def test_gather_dot_converts_only_gathered_rows():
    # one pair of a (512, 64, 8) operand: no float copy of the whole operands
    ctx = build_field(7, 8)
    rng = np.random.default_rng(8)
    x = _rand_elems(rng, ctx, (512, 64))
    pair = np.array([3]), np.array([5])
    want = kernels.gather_dot(x, x, *pair, ctx.red, ctx.p)  # warms the fold cache
    tracemalloc.start()
    try:
        got = kernels.gather_dot(x, x, *pair, ctx.red, ctx.p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert peak < x.nbytes // 16, peak


def test_uint16_operands_are_converted_a_chunk_at_a_time():
    # an int64 or float64 copy of a whole uint16 operand would be 4x x.nbytes;
    # frame_operator gets N >> D*K at the same nbytes, since the strips of its
    # G (D*K)^2 would exceed x.nbytes at D*K = 512 whatever x's dtype
    ctx = build_field(7, 8)
    rng = np.random.default_rng(16)
    frob = ctx.frob_power_matrix(4)
    gathered = _rand_elems(rng, ctx, (512, 64)).astype(np.uint16)
    long = _rand_elems(rng, ctx, (4096, 8)).astype(np.uint16)
    ki, kj = rng.integers(0, 512, size=16), rng.integers(0, 512, size=16)
    calls = (
        (gathered, lambda x: kernels.gather_dot(x, x, ki, kj, ctx.red, ctx.p, frob)),
        (long, lambda x: kernels.frame_operator(x, frob, ctx.red, ctx.p)),
    )
    for x, call in calls:
        assert x.nbytes == 512 * 64 * 8 * 2
        want = call(x.astype(np.int64))  # also warms the fold caches
        tracemalloc.start()
        try:
            got = call(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < x.nbytes, peak


@pytest.mark.parametrize("p,k", BENCH_FIELDS)
def test_matmul_spans_row_blocks(p, k):
    ctx = build_field(p, k)
    rng = np.random.default_rng(p + 3 * k)
    mid, cols = 3, 40
    step = kernels._MATMUL_BLOCK // (k * k * cols)
    rows = 2 * step + 3
    a = _rand_elems(rng, ctx, (rows, mid))
    b = _rand_elems(rng, ctx, (mid, cols))
    got = kernels.matmul(a, b, ctx.red, ctx.p)
    for r, c in ((0, 0), (step - 1, 7), (step, 39), (2 * step, 1), (rows - 1, 20)):
        want = _dot_oracle(ctx, a[r], b[:, c])
        assert np.array_equal(got[r, c], want), (r, c)


@pytest.mark.parametrize("p,k", BENCH_FIELDS)
def test_frame_operator_spans_row_blocks(p, k, monkeypatch):
    ctx = build_field(p, k)
    rng = np.random.default_rng(p + 5 * k)
    n, d = 23, 3
    monkeypatch.setattr(kernels, "_MATMUL_BLOCK", 5 * d * k)  # 5 rows a block, 5 blocks
    x = _rand_elems(rng, ctx, (n, d))
    got = kernels.frame_operator(x, ctx.frob_power_matrix(k // 2), ctx.red, ctx.p)
    for i, j in np.ndindex(d, d):
        assert np.array_equal(got[i, j], _frame_oracle(ctx, x, i, j)), (i, j)


def test_frame_operator_holds_one_row_block_in_float(monkeypatch):
    # G is (D*K)^2 floats; X (N, D*K) is never converted whole
    ctx = build_field(7, 2)
    rng = np.random.default_rng(72)
    x = _rand_elems(rng, ctx, (4000, 4))
    frob = ctx.frob_power_matrix(1)
    monkeypatch.setattr(kernels, "_MATMUL_BLOCK", 64 * 4 * 2)
    want = kernels.frame_operator(x, frob, ctx.red, ctx.p)  # warms the fold cache
    tracemalloc.start()
    try:
        got = kernels.frame_operator(x, frob, ctx.red, ctx.p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert np.array_equal(got[1, 2], _frame_oracle(ctx, x, 1, 2))
    assert peak < x.nbytes // 2, peak


def test_frame_operator_row_block_no_larger_than_g():
    # default block size with N >> D*K: a float row block has at most D*K // 4 rows
    ctx = build_field(7, 4)
    rng = np.random.default_rng(84)
    n, d, k = 10_000, 16, 4
    x = _rand_elems(rng, ctx, (n, d))
    frob = ctx.frob_power_matrix(2)
    want = kernels.frame_operator(x, frob, ctx.red, ctx.p)  # warms the fold cache
    tracemalloc.start()
    try:
        got = kernels.frame_operator(x, frob, ctx.red, ctx.p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert np.array_equal(got[3, 5], _frame_oracle(ctx, x, 3, 5))
    # the strips on and above the diagonal (0.56 G at eight strips) with a
    # block of G/4 and one strip product, or while folding with the (D, D, K)
    # output: 1.12 G; a full G and a G-sized block product made it 2.3 G
    assert peak < 1.5 * (d * k) ** 2 * 8, peak


def test_frame_operator_reduces_every_strip_mid_sum(monkeypatch):
    # a 2^53 window of 36*7 + 1 gives blk = 7 rows over F_49, so the strips of
    # d = 11 (width 2, a last strip of 1) are reduced every few rows; the fold
    # sums K^2 = 4 products, 144 < 253
    ctx = build_field(7, 2)
    rng = np.random.default_rng(711)
    n, d = 40, 11
    x = _rand_elems(rng, ctx, (n, d))
    monkeypatch.setattr(kernels, "_EXACT", 36 * 7 + 1)
    got = kernels.frame_operator(x, ctx.frob_power_matrix(1), ctx.red, ctx.p)
    for i, j in np.ndindex(d, d):
        assert np.array_equal(got[i, j], _frame_oracle(ctx, x, i, j)), (i, j)


@pytest.mark.parametrize("p,k", BENCH_FIELDS)
def test_kernels_accept_views(p, k):
    # transposed, reversed and broadcast operands are read like their copies
    ctx = build_field(p, k)
    rng = np.random.default_rng(5 * p + k)
    store = _rand_elems(rng, ctx, (6, 4))
    a = store.transpose(1, 0, 2)  # (4, 6, K), not contiguous
    b = _rand_elems(rng, ctx, (6, 3))[::-1]
    row = _rand_elems(rng, ctx, (6,))
    y = np.broadcast_to(row, (4, 6, k))
    ki = np.array([0, 3, 2, 3])
    kj = np.array([1, 1, 0, 3])
    mm = kernels.matmul(a, b, ctx.red, ctx.p)
    dots = kernels.dot_batch(a, y, ctx.red, ctx.p)
    gd = kernels.gather_dot(a, y, ki, kj, ctx.red, ctx.p)
    for r in range(4):
        for c in range(3):
            assert np.array_equal(mm[r, c], _dot_oracle(ctx, a[r], b[:, c]))
        assert np.array_equal(dots[r], _dot_oracle(ctx, a[r], row))
        assert np.array_equal(gd[r], _dot_oracle(ctx, a[ki[r]], row))


def test_fold_matrix_built_once_per_field():
    ctx = build_field(7, 24)
    fold = kernels._fold_matrix(ctx.red, ctx.p)
    assert fold.shape == (24 * 24, 24)
    assert kernels._fold_matrix(ctx.red.copy(), ctx.p) is fold


# ---------------------------------------------------------------------------
# the 2^53 float window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel", ["matmul", "dot_batch", "gather_dot", "frame_operator"])
def test_long_inner_dimension_is_exact(kernel):
    # (p-2)^2 is odd, so a float sum past 2^53 would round visibly
    ctx = build_field(65521, 1)
    p = ctx.p
    mid = 2_100_001
    assert mid * (p - 2) ** 2 > 2**53
    want = [mid * (p - 2) ** 2 % p]
    col = np.full((mid, 1), p - 2, dtype=np.int64)
    if kernel == "matmul":
        got = kernels.matmul(col[None], col[:, None], ctx.red, p)[0, 0]
    elif kernel == "dot_batch":
        got = kernels.dot_batch(col[None], col[None], ctx.red, p)[0]
    elif kernel == "gather_dot":
        zero = np.zeros(1, dtype=np.int64)
        got = kernels.gather_dot(col[None], col[None], zero, zero, ctx.red, p)[0]
    else:
        # mid vectors (e) over F_{p^2}, e = (p-2)(1 + x): every entry of the
        # symmetric product X^T X is mid * (p-2)^2
        ctx = build_field(p, 2)
        e = FieldElement(ctx, [p - 2, p - 2])
        want = (ctx.scalar(mid) * e * frobenius(e)).coeffs.tolist()
        x = np.full((mid, 1, 2), p - 2, dtype=np.int64)
        got = kernels.frame_operator(x, ctx.frob_power_matrix(1), ctx.red, p)[0, 0]
    assert got.tolist() == want


def test_out_of_window_prime_raises():
    # a prime whose squared residues pass 2^53 is refused, not rounded
    p = 100_000_007
    assert (p - 1) ** 2 >= 2**53
    red = np.array([[1, 0]], dtype=np.int64)
    a = np.ones((2, 2), dtype=np.int64)
    with pytest.raises(OverflowError):
        kernels.mul_batch(a, a, red, p)
    with pytest.raises(OverflowError):
        kernels.dot_batch(a[None], a[None], red, p)
    with pytest.raises(OverflowError):
        kernels.matmul(a[None], a[:, None], red, p)


@pytest.mark.parametrize("p,k", BENCH_FIELDS)
def test_elim_update_at_rank_shapes(p, k):
    # a spanning rank of d = 57 vectors: 57 columns, a few hundred rows, some
    # rows with a zero factor, and factors read through a strided column view
    ctx = build_field(p, k)
    rng = np.random.default_rng(7 * p + k)
    nr, nc = 300, 57
    rows = _rand_elems(rng, ctx, (nr, nc))
    store = _rand_elems(rng, ctx, (nr, 4))
    store[::7, 2] = 0
    factors = store[:, 2]
    assert not factors.flags.c_contiguous
    pivot = _rand_elems(rng, ctx, (nc,))
    prods = kernels.mul_batch(factors[:, None], pivot, ctx.red, ctx.p)
    want = (rows - prods) % ctx.p
    work = rows.copy()
    kernels.elim_update(work, factors, pivot, ctx.red, ctx.p)
    assert np.array_equal(work, want)
    assert np.array_equal(work[::7], rows[::7])
    for r, c in ((1, 0), (150, 28), (nr - 1, nc - 1)):
        f = _as_elem(ctx, factors[r])
        entry = _as_elem(ctx, rows[r, c]) - f * _as_elem(ctx, pivot[c])
        assert np.array_equal(work[r, c], entry.coeffs), (r, c)


@pytest.mark.parametrize("p", [2, 3])
def test_kernels_at_max_degree(p):
    # K = MAX_DEGREE: the fold matrix is (4096, 64) and the convolutions 127 long
    ctx = build_field(p, MAX_DEGREE)
    rng = np.random.default_rng(p)
    a = _rand_elems(rng, ctx, (4,))
    b = _rand_elems(rng, ctx, (4,))
    x = _rand_elems(rng, ctx, (3, 3))
    y = _rand_elems(rng, ctx, (3, 3))
    ki = np.array([0, 2, 1, 2])
    kj = np.array([1, 2, 0, 0])
    m1 = _rand_elems(rng, ctx, (2, 3))
    m2 = _rand_elems(rng, ctx, (3, 2))
    rows = _rand_elems(rng, ctx, (2, 3))
    want_mul = [(_as_elem(ctx, a[i]) * _as_elem(ctx, b[i])).coeffs for i in range(4)]
    want_dot = [_dot_oracle(ctx, x[r], y[r]) for r in range(3)]
    want_gather = [_dot_oracle(ctx, x[i], y[j]) for i, j in zip(ki, kj)]
    want_mm = [[_dot_oracle(ctx, m1[r], m2[:, c]) for c in range(2)] for r in range(2)]
    want_elim = [
        [(_as_elem(ctx, rows[r, c]) - _as_elem(ctx, a[r]) * _as_elem(ctx, b[c])).coeffs
         for c in range(3)]
        for r in range(2)
    ]
    assert np.array_equal(kernels.mul_batch(a, b, ctx.red, ctx.p), want_mul)
    assert np.array_equal(kernels.dot_batch(x, y, ctx.red, ctx.p), want_dot)
    assert np.array_equal(kernels.gather_dot(x, y, ki, kj, ctx.red, ctx.p), want_gather)
    assert np.array_equal(kernels.matmul(m1, m2, ctx.red, ctx.p), want_mm)
    work = rows.copy()
    kernels.elim_update(work, a[:2], b[:3], ctx.red, ctx.p)
    assert np.array_equal(work, want_elim)
