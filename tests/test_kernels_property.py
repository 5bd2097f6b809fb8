"""Property tests: every kernel against scalar element arithmetic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge import ffcore, kernels
from designforge.ffcore import MAX_PRIME, FieldElement, build_field, frobenius
from designforge.fflinalg import frobenius_array


def _rand_elems(rng, ctx, shape):
    return rng.integers(0, ctx.p, size=shape + (ctx.deg,)).astype(np.int64)


def _as_elem(ctx, coeffs):
    return FieldElement(ctx, coeffs)


def _dot_oracle(ctx, xs, ys):
    acc = ctx.zero()
    for xe, ye in zip(xs, ys):
        acc = acc + _as_elem(ctx, xe) * _as_elem(ctx, ye)
    return acc.coeffs


# random small fields, p up to the largest prime below MAX_PRIME
P_TOP = MAX_PRIME - 15  # 65521, the largest prime below MAX_PRIME
PROPERTY_FIELDS = [
    (2, 1), (2, 5), (2, 8), (3, 4), (5, 3), (7, 6), (13, 2),
    (65497, 3), (65519, 2), (P_TOP, 1), (P_TOP, 2), (P_TOP, 4),
]

fields = st.sampled_from(PROPERTY_FIELDS)
even_fields = st.sampled_from([f for f in PROPERTY_FIELDS if f[1] % 2 == 0])
seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 5)
PROPERTY = settings(max_examples=25, deadline=None)


@PROPERTY
@given(st.sampled_from(PROPERTY_FIELDS + [(7, 24), (3, 64)]), seeds)
def test_scalar_product_property(field, seed):
    # FieldElement.__mul__ folds through ctx.red; the reference divides by the modulus
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    for a, b in _rand_elems(rng, ctx, (20, 2)):
        rem = ffcore._poly_divmod(np.convolve(a, b), ctx.modulus, ctx.p)[1]
        want = np.pad(rem, (0, ctx.deg - len(rem)))
        assert np.array_equal((_as_elem(ctx, a) * _as_elem(ctx, b)).coeffs, want)


@PROPERTY
@given(st.sampled_from([2, 3, 13, P_TOP]), st.integers(0, 12), st.integers(0, 6), seeds)
def test_poly_divmod_property(p, deg_a, deg_b, seed):
    # a = q*b + r with deg r < deg b, for any nonzero b, monic or not
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, deg_a + 1)
    b = rng.integers(0, p, deg_b + 1)
    b[-1] = rng.integers(1, p)
    q, r = ffcore._poly_divmod(a, b, p)
    if deg_b == 0:
        assert not np.any(r)
    else:
        assert len(r) <= deg_b  # r is trimmed, so this is deg r < deg b
    qb = np.convolve(q, b)
    total = np.zeros(max(len(qb), len(r), len(a)), dtype=np.int64)
    total[: len(qb)] += qb
    total[: len(r)] += r
    total[: len(a)] -= a
    assert not np.any(total % p)


# leading shapes of mul_batch's two operands; "n" and "m" are drawn sizes
MUL_SHAPES = [
    (("n",), ("n",)),  # flat batch
    (("n", 1), (1, "m")),  # outer product
    (("n",), ()),  # scalar multiple
    ((), ("n",)),
    ((), ()),
    ((2, 3), (3,)),
    (("n", 1, "m"), ("m",)),
    (("n", 1), (0,)),  # empty result
]


@PROPERTY
@given(fields, seeds, sizes, sizes, st.sampled_from(MUL_SHAPES))
def test_mul_batch_property(field, seed, n, m, shapes):
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    sa, sb = (tuple({"n": n, "m": m}.get(s, s) for s in sh) for sh in shapes)
    a = _rand_elems(rng, ctx, sa)
    b = _rand_elems(rng, ctx, sb)
    shape = np.broadcast_shapes(sa, sb)
    ab = np.broadcast_to(a, shape + (ctx.deg,))
    bb = np.broadcast_to(b, shape + (ctx.deg,))
    want = np.zeros(shape + (ctx.deg,), dtype=np.int64)
    for i in np.ndindex(shape):
        want[i] = (_as_elem(ctx, ab[i]) * _as_elem(ctx, bb[i])).coeffs

    got = kernels.mul_batch(a, b, ctx.red, ctx.p)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@PROPERTY
@given(fields, seeds, sizes, st.integers(0, 6))
def test_dot_batch_property(field, seed, n, d):
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    x = _rand_elems(rng, ctx, (n, d))
    y = _rand_elems(rng, ctx, (n, d))
    want = np.stack([_dot_oracle(ctx, x[r], y[r]) for r in range(n)])

    assert np.array_equal(kernels.dot_batch(x, y, ctx.red, ctx.p), want)


@PROPERTY
@given(fields, seeds, sizes, st.integers(1, 6), st.integers(0, 12))
def test_gather_dot_property(field, seed, n, d, m):
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    x = _rand_elems(rng, ctx, (n, d))
    y = _rand_elems(rng, ctx, (n, d))
    ki = rng.integers(0, n, size=m)
    kj = rng.integers(0, n, size=m)
    want = np.array([_dot_oracle(ctx, x[i], y[j]) for i, j in zip(ki, kj)]).reshape(m, ctx.deg)

    got = kernels.gather_dot(x, y, ki, kj, ctx.red, ctx.p)
    assert np.array_equal(got, want)


@PROPERTY
@given(even_fields, seeds, sizes, st.integers(1, 6), st.integers(0, 12))
def test_conjugated_dots_property(field, seed, n, d, m):
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    x = _rand_elems(rng, ctx, (n, d))
    y = _rand_elems(rng, ctx, (n, d))
    ki = rng.integers(0, n, size=m)
    kj = rng.integers(0, n, size=m)
    frob = ctx.frob_power_matrix(ctx.deg // 2)

    def oracle(xs, ys):
        acc = ctx.zero()
        for xe, ye in zip(xs, ys):
            acc = acc + frobenius(_as_elem(ctx, xe)) * _as_elem(ctx, ye)
        return acc.coeffs

    want = np.array([oracle(x[i], y[j]) for i, j in zip(ki, kj)]).reshape(m, ctx.deg)
    assert np.array_equal(kernels.gather_dot(x, y, ki, kj, ctx.red, ctx.p, frob), want)
    want_rows = np.stack([oracle(x[r], y[r]) for r in range(n)])
    assert np.array_equal(kernels.dot_batch(x, y, ctx.red, ctx.p, frob), want_rows)
    # uint16 operands, as an ensemble's data is held, give the int64 results
    x16, y16 = x.astype(np.uint16), y.astype(np.uint16)
    assert np.array_equal(kernels.gather_dot(x16, y16, ki, kj, ctx.red, ctx.p, frob), want)
    assert np.array_equal(kernels.dot_batch(x16, y16, ctx.red, ctx.p, frob), want_rows)


@PROPERTY
@given(fields, seeds, sizes, st.integers(0, 5), sizes)
def test_matmul_property(field, seed, rows, mid, cols):
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    a = _rand_elems(rng, ctx, (rows, mid))
    b = _rand_elems(rng, ctx, (mid, cols))
    want = np.array(
        [[_dot_oracle(ctx, a[r], b[:, c]) for c in range(cols)] for r in range(rows)]
    ).reshape(rows, cols, ctx.deg)

    assert np.array_equal(kernels.matmul(a, b, ctx.red, ctx.p), want)


@PROPERTY
@given(even_fields, seeds, st.integers(0, 5), st.integers(0, 12))
def test_frame_operator_property(field, seed, n, d):
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    x = _rand_elems(rng, ctx, (n, d))
    want = np.zeros((d, d, ctx.deg), dtype=np.int64)
    for i, j in np.ndindex(d, d):
        acc = ctx.zero()
        for r in range(n):
            acc = acc + _as_elem(ctx, x[r, i]) * frobenius(_as_elem(ctx, x[r, j]))
        want[i, j] = acc.coeffs

    frob = ctx.frob_power_matrix(ctx.deg // 2)
    got = kernels.frame_operator(x, frob, ctx.red, ctx.p)
    via_matmul = kernels.matmul(x.transpose(1, 0, 2), frobenius_array(ctx, x), ctx.red, ctx.p)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(got, via_matmul)
    # uint16 operands, as an ensemble's data is held, give the int64 results
    assert np.array_equal(kernels.frame_operator(x.astype(np.uint16), frob, ctx.red, ctx.p), want)


@PROPERTY
@given(fields, seeds, sizes, sizes)
def test_elim_update_property(field, seed, nr, nc):
    ctx = build_field(*field)
    rng = np.random.default_rng(seed)
    rows = _rand_elems(rng, ctx, (nr, nc))
    factors = _rand_elems(rng, ctx, (nr,))
    pivot = _rand_elems(rng, ctx, (nc,))
    want = np.array(
        [
            [
                (_as_elem(ctx, rows[r, c]) - _as_elem(ctx, factors[r]) * _as_elem(ctx, pivot[c])).coeffs
                for c in range(nc)
            ]
            for r in range(nr)
        ]
    )

    work = rows.copy()
    kernels.elim_update(work, factors, pivot, ctx.red, ctx.p)
    assert np.array_equal(work, want)
