"""Quaternion algebra, the d = 2 simplex design, fusion frames, optimizer."""

from unittest import mock

import numpy as np
import pytest

from designforge import qdesigns
from designforge.qdesigns import (
    DEFAULT_TOL,
    DimensionMismatch,
    _q_gram,
    Q_I,
    Q_J,
    Q_K,
    Q_ONE,
    QEnsemble,
    ZeroVector,
    anti_hermitian_basis,
    certify_fusion_frame,
    check_tight_q_design,
    complex_embed,
    complex_lift,
    conj_transpose,
    cross_gramian,
    design_targets,
    hermitian_basis,
    optimize_design,
    outer,
    overlap_matrix,
    q_design_moments,
    q_frame_potential,
    q_herm_inner,
    q_potential_gradient,
    qabs2,
    qconj,
    qmatmul,
    qmul,
    re_trace_inner,
    s_basis,
    simplex_design_d2,
)


def _rand_q(rng, shape=()):
    return rng.normal(size=shape + (4,))


# ---------------------------------------------------------------------------
# quaternion arithmetic
# ---------------------------------------------------------------------------


def test_hamilton_table():
    neg_one = -Q_ONE
    assert np.allclose(qmul(Q_I, Q_I), neg_one)
    assert np.allclose(qmul(Q_J, Q_J), neg_one)
    assert np.allclose(qmul(Q_K, Q_K), neg_one)
    assert np.allclose(qmul(Q_I, Q_J), Q_K)
    assert np.allclose(qmul(Q_J, Q_K), Q_I)
    assert np.allclose(qmul(Q_K, Q_I), Q_J)
    assert np.allclose(qmul(Q_J, Q_I), -Q_K)
    assert np.allclose(qmul(qmul(Q_I, Q_J), Q_K), neg_one)


def test_quaternion_identities_random():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b, c = _rand_q(rng), _rand_q(rng), _rand_q(rng)
        # associativity and the anti-homomorphism of conjugation
        assert np.allclose(qmul(qmul(a, b), c), qmul(a, qmul(b, c)))
        assert np.allclose(qconj(qmul(a, b)), qmul(qconj(b), qconj(a)))
        assert np.allclose(qabs2(qmul(a, b)), qabs2(a) * qabs2(b))
        assert qabs2(a) == pytest.approx(float(qmul(a, qconj(a))[0]))
    # broadcasting over stacks
    stack = _rand_q(rng, (5, 3))
    assert qmul(stack, stack).shape == (5, 3, 4)


def test_herm_inner_is_conjugate_linear_on_the_left():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = _rand_q(rng, (3,)), _rand_q(rng, (3,))
        q = _rand_q(rng)
        ip = q_herm_inner(x, y)
        assert np.allclose(q_herm_inner(y, x), qconj(ip))
        # right-module scaling: <x q, y> = conj(q) <x, y>, <x, y q> = <x, y> q
        xq = qmul(x, np.broadcast_to(q, (3, 4)))
        yq = qmul(y, np.broadcast_to(q, (3, 4)))
        assert np.allclose(q_herm_inner(xq, y), qmul(qconj(q), ip))
        assert np.allclose(q_herm_inner(x, yq), qmul(ip, q))
    with pytest.raises(DimensionMismatch):
        q_herm_inner(_rand_q(rng, (3,)), _rand_q(rng, (4,)))


def test_matrix_algebra_through_the_complex_lift():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = _rand_q(rng, (3, 3))
        b = _rand_q(rng, (3, 3))
        assert np.allclose(
            complex_lift(qmatmul(a, b)), complex_lift(a) @ complex_lift(b)
        )
        assert np.allclose(
            complex_lift(conj_transpose(a)), complex_lift(a).conj().T
        )
        x = _rand_q(rng, (3,))
        y = _rand_q(rng, (3,))
        assert np.allclose(
            complex_lift(conj_transpose(outer(x, y))), complex_lift(outer(y, x))
        )
        # Re tr is symmetric and cyclic
        assert re_trace_inner(a, b) == pytest.approx(re_trace_inner(b, a))
        ta = np.trace(complex_lift(conj_transpose(a)) @ complex_lift(b)).real
        assert re_trace_inner(a, b) == pytest.approx(ta / 2.0)
        # the pairing is the Euclidean inner product of the real coordinates
        assert re_trace_inner(a, b) == pytest.approx(float(np.dot(a.ravel(), b.ravel())))
        # Hermitian and anti-Hermitian parts are orthogonal
        herm, anti = a + conj_transpose(a), a - conj_transpose(a)
        assert abs(re_trace_inner(herm, anti)) < 1e-12
    # rectangular factors: the lift is multiplicative and Re tr(AB) = Re tr(BA)
    a = _rand_q(rng, (2, 3))
    b = _rand_q(rng, (3, 2))
    assert np.allclose(complex_lift(qmatmul(a, b)), complex_lift(a) @ complex_lift(b))
    tr_ab = np.trace(complex_lift(qmatmul(a, b))).real
    tr_ba = np.trace(complex_lift(qmatmul(b, a))).real
    assert tr_ab == pytest.approx(tr_ba)
    eye = np.zeros((3, 3, 4))
    eye[np.arange(3), np.arange(3), 0] = 1.0
    assert re_trace_inner(eye, eye) == pytest.approx(3.0)


def test_complex_embed_is_a_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = _rand_q(rng), _rand_q(rng)
        assert np.allclose(complex_embed(qmul(a, b)), complex_embed(a) @ complex_embed(b))
        assert np.allclose(complex_embed(qconj(a)), complex_embed(a).conj().T)
        assert np.linalg.det(complex_embed(a)).real == pytest.approx(qabs2(a))
        assert np.trace(complex_embed(a)).real == pytest.approx(2 * a[0])
    assert np.allclose(complex_embed(Q_ONE), np.eye(2))


def test_re_trace_inner_rejects_shape_mismatch():
    rng = np.random.default_rng(4)
    with pytest.raises(DimensionMismatch):
        re_trace_inner(_rand_q(rng, (2, 2)), _rand_q(rng, (3, 3)))


# ---------------------------------------------------------------------------
# ensembles and the simplex design
# ---------------------------------------------------------------------------


def test_ensemble_validation():
    with pytest.raises(ValueError):
        QEnsemble(np.ones((2, 2, 4)))
    with pytest.raises(ValueError):
        QEnsemble(np.ones((2, 2, 3)))


def test_design_targets():
    assert design_targets(2) == (pytest.approx(0.5), pytest.approx(0.3))
    assert design_targets(1) == (pytest.approx(1.0), pytest.approx(1.0))


def test_simplex_is_a_tight_design():
    ens = simplex_design_d2()
    assert (ens.n, ens.d) == (6, 2)
    sq = overlap_matrix(ens)
    off = sq[~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off - 2 / 5)) < 1e-12
    first, second = q_design_moments(ens)
    assert abs(first - 1 / 2) < 1e-12
    assert abs(second - 3 / 10) < 1e-12
    check = check_tight_q_design(ens)
    assert check
    assert check.b == pytest.approx(2 / 5, abs=1e-12)


def test_check_rejects_non_designs():
    basis = np.zeros((2, 2, 4))
    basis[0, 0, 0] = 1.0
    basis[1, 1, 0] = 1.0
    check = check_tight_q_design(QEnsemble(basis))
    assert not check
    assert check.reason == "moments off target"
    # right count, wrong angles: perturb one simplex vector
    v = simplex_design_d2().vectors.copy()
    v[3] = v[3] + 0.05
    v /= np.sqrt(np.sum(v * v, axis=(1, 2), keepdims=True))
    bad = check_tight_q_design(QEnsemble(v))
    assert not bad and bad.reason in ("moments off target", "not equiangular")
    # moments of the extreme cases in d = 3: one vector, and an orthonormal basis
    rng = np.random.default_rng(8)
    one = _rand_q(rng, (1, 3))
    one /= np.sqrt(np.sum(one * one))
    assert q_design_moments(QEnsemble(one)) == (pytest.approx(1.0), pytest.approx(1.0))
    basis = np.zeros((3, 3, 4))
    basis[np.arange(3), np.arange(3), 0] = 1.0
    assert q_design_moments(QEnsemble(basis)) == (pytest.approx(1 / 3), pytest.approx(1 / 3))


# ---------------------------------------------------------------------------
# fusion frames
# ---------------------------------------------------------------------------


def test_s_basis_is_orthogonal():
    rng = np.random.default_rng(5)
    x = _rand_q(rng, (2,))
    x /= np.sqrt(np.sum(x * x))
    sb = s_basis(x)
    assert sb.elements.shape == (3, 2, 2, 4)
    for r in range(3):
        # anti-Hermitian elements
        assert np.allclose(
            complex_lift(conj_transpose(sb.elements[r])), -complex_lift(sb.elements[r])
        )
        for c in range(3):
            ip = re_trace_inner(sb.elements[r], sb.elements[c])
            if r == c:
                assert ip == pytest.approx(1.0)
            else:
                assert abs(ip) < 1e-12
    with pytest.raises(ZeroVector):
        s_basis(np.zeros((2, 4)))
    # at e_1 the basis is i, j, k in the corner entry and zero elsewhere
    e1 = np.zeros((3, 4))
    e1[0] = Q_ONE
    corner = s_basis(e1).elements
    assert np.array_equal(corner[:, 0, 0], np.stack([Q_I, Q_J, Q_K]))
    corner[:, 0, 0] = 0.0
    assert not corner.any()


def test_cross_gramian_scale():
    rng = np.random.default_rng(6)
    x = _rand_q(rng, (2,))
    x /= np.sqrt(np.sum(x * x))
    y = _rand_q(rng, (2,))
    y /= np.sqrt(np.sum(y * y))
    g = cross_gramian(x, y)
    s = float(qabs2(q_herm_inner(x, y)))
    # G^T G = |<x,y>|^4 I: the gramian is |<x,y>|^2 times a rotation
    assert np.allclose(g.T @ g, s * s * np.eye(3), atol=1e-12)
    assert np.linalg.det(g / s) == pytest.approx(1.0)  # a proper rotation
    assert np.allclose(cross_gramian(x, x), np.eye(3), atol=1e-12)
    # entries are the pairings of the two s-bases
    sx, sy = s_basis(x).elements, s_basis(y).elements
    direct = np.array([[re_trace_inner(p, q) for q in sy] for p in sx])
    assert np.allclose(g, direct, atol=1e-12)
    # orthogonal vectors give the zero gramian
    xo = np.zeros((2, 4))
    xo[0] = Q_ONE
    yo = np.zeros((2, 4))
    yo[1] = Q_J
    assert not cross_gramian(xo, yo).any()


def _unit_stack(rng, n, d):
    v = rng.normal(size=(n, d, 4))
    return v / np.sqrt(np.sum(v * v, axis=(1, 2), keepdims=True))


@pytest.mark.parametrize("n, d", [(1, 1), (6, 2), (15, 3)])
def test_q_gram_matches_broadcast_products(n, d):
    v = _unit_stack(np.random.default_rng(n + d), n, d)
    ref = qmul(qconj(v)[:, None], v[None]).sum(axis=2)
    gram = _q_gram(v)
    assert gram.shape == (n, n, 4)
    assert np.allclose(gram, ref, rtol=0, atol=1e-14)
    assert np.allclose(overlap_matrix(QEnsemble(v)), qabs2(ref), rtol=0, atol=1e-14)


def _gramian_by_definition(x, y):
    q = qmul(qconj(x), y).sum(axis=0)
    units = (Q_I, Q_J, Q_K)
    return np.array(
        [[qmul(qmul(qmul(qconj(u), q), v), qconj(q))[0] for v in units] for u in units]
    )


def test_cross_gramian_matches_the_defining_formula():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for _ in range(5):
            x, y = _unit_stack(rng, 2, d)
            assert np.allclose(cross_gramian(x, y), _gramian_by_definition(x, y), atol=1e-14)
            assert np.allclose(cross_gramian(x, x), _gramian_by_definition(x, x), atol=1e-14)
    # an orthogonal pair: x*y = 0, so both sides vanish
    x = np.zeros((2, 4))
    x[0] = _unit_stack(rng, 1, 1)[0, 0]
    y = np.zeros((2, 4))
    y[1] = _unit_stack(rng, 1, 1)[0, 0]
    assert not cross_gramian(x, y).any()
    assert not _gramian_by_definition(x, y).any()


def _fusion_by_pairs(v, tol):
    """The certificate's isoclinic verdict, computed one pair at a time."""
    n = len(v)
    grams = np.array([[_gramian_by_definition(v[k], v[l]) for l in range(n)] for k in range(n)])
    alpha, witness, max_nonscalar, spread = None, None, 0.0, 0.0
    for k in range(n):
        for l in range(k + 1, n):
            m = grams[k, l].T @ grams[k, l]
            a_kl = float(np.trace(m) / 3.0)
            dev = float(np.max(np.abs(m - a_kl * np.eye(3))))
            max_nonscalar = max(max_nonscalar, dev)
            alpha = a_kl if alpha is None else alpha
            spread = max(spread, abs(a_kl - alpha))
            failed = dev > tol or a_kl <= tol or abs(a_kl - alpha) > tol
            if failed and witness is None:
                witness = (k, l)
    isoclinic = witness is None
    return {
        "isoclinic": isoclinic,
        "alpha": alpha if isoclinic else None,
        "witness": witness,
        "potential": float(np.sum(grams**2) / (n * n)),
        "max_nonscalar": max_nonscalar,
        "alpha_spread": spread,
    }


def _assert_fusion_matches_pairs(v, tol):
    cert = certify_fusion_frame(QEnsemble(v), tol=tol)
    ref = _fusion_by_pairs(v, tol)
    assert cert.isoclinic == ref["isoclinic"]
    assert cert.witness == ref["witness"]
    if ref["alpha"] is None:
        assert cert.alpha is None
    else:
        assert cert.alpha == pytest.approx(ref["alpha"], abs=1e-12)
    assert cert.potential == pytest.approx(ref["potential"], abs=1e-12)
    for key in ("max_nonscalar", "alpha_spread"):
        assert cert.residuals[key] == pytest.approx(ref[key], abs=1e-12)
    return cert


def test_fusion_certificate_matches_the_pairwise_loop():
    rng = np.random.default_rng(12)
    # random vectors: no two pairs share an overlap, so (0, 2) is the witness
    cert = _assert_fusion_matches_pairs(_unit_stack(rng, 8, 3), DEFAULT_TOL)
    assert cert.witness == (0, 2)
    # the simplex with its fifth vector replaced: pairs up to (0, 3) agree,
    # so the first failing pair in (k, l) order is (0, 4)
    v = simplex_design_d2().vectors.copy()
    v[4] = _unit_stack(rng, 1, 2)[0]
    cert = _assert_fusion_matches_pairs(v, DEFAULT_TOL)
    assert cert.witness == (0, 4)
    # an orthogonal pair after equiangular ones fails on alpha <= tol
    v = simplex_design_d2().vectors.copy()
    v[3] = 0.0
    v[3, 1, 0] = 1.0
    cert = _assert_fusion_matches_pairs(v, DEFAULT_TOL)
    assert cert.witness == (0, 3)
    # the simplex itself passes, and a single vector has no pairs at all
    assert _assert_fusion_matches_pairs(simplex_design_d2().vectors, DEFAULT_TOL).isoclinic
    single = _assert_fusion_matches_pairs(_unit_stack(rng, 1, 2), DEFAULT_TOL)
    assert single.isoclinic and single.alpha is None


def test_fusion_certificate_for_the_simplex():
    cert = certify_fusion_frame(simplex_design_d2())
    assert cert.isoclinic
    assert cert.alpha == pytest.approx(0.16, abs=1e-10)
    assert cert.r == 3 and cert.ambient_dim == 10
    assert cert.potential == pytest.approx(0.9, abs=1e-12)
    assert cert.target == pytest.approx(9 / 10)
    assert cert.residuals["alpha_spread"] < 1e-10
    assert cert.residuals["max_nonscalar"] < 1e-10
    assert cert.tight
    assert cert.witness is None


def test_fusion_orthogonal_subspaces_are_not_isoclinic():
    basis = np.zeros((2, 2, 4))
    basis[0, 0, 0] = 1.0
    basis[1, 1, 0] = 1.0
    cert = certify_fusion_frame(QEnsemble(basis))
    assert not cert.isoclinic
    assert cert.witness == (0, 1)
    assert cert.alpha is None


# ---------------------------------------------------------------------------
# potential and optimizer
# ---------------------------------------------------------------------------


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    v = rng.normal(size=(3, 2, 4))
    v /= np.sqrt(np.sum(v * v, axis=(1, 2), keepdims=True))
    grad = q_potential_gradient(v)
    h = 1e-6
    worst = 0.0
    for m in range(3):
        for i in range(2):
            for c in range(4):
                vp = v.copy()
                vp[m, i, c] += h
                vm = v.copy()
                vm[m, i, c] -= h
                fd = (q_frame_potential(vp) - q_frame_potential(vm)) / (2 * h)
                worst = max(worst, abs(fd - grad[m, i, c]) / max(abs(fd), 1.0))
    assert worst < 1e-6


def test_potential_of_the_simplex_attains_the_bound():
    v = simplex_design_d2().vectors
    assert q_frame_potential(v) == pytest.approx(design_targets(2)[1], abs=1e-12)


def test_optimizer_finds_the_d2_design():
    for seed in range(10):
        res = optimize_design(2, 6, seed=seed)
        assert res.converged, seed
        assert res.gap < 1e-8
        assert res.bound == pytest.approx(0.3)
        assert check_tight_q_design(res.ensemble, tol=1e-6), seed
        assert res.iterations <= 2000 and res.seed == seed
        # the Armijo line search keeps the recorded trace monotone
        tr = np.asarray(res.trace)
        assert np.all(tr[1:] <= tr[:-1] + 1e-12)


def test_optimizer_builds_one_gram_per_point():
    # every renormalized point (the start and each candidate) gets exactly one Gram,
    # which serves its potential and, once accepted, its gradient
    with mock.patch.object(qdesigns, "_q_gram", wraps=_q_gram) as grams, mock.patch.object(
        qdesigns, "_renormalize", wraps=qdesigns._renormalize
    ) as points:
        res = optimize_design(3, 15, seed=0)
    assert grams.call_count == points.call_count >= len(res.trace)


def test_optimizer_iterates_and_converges_as_recorded():
    # iteration counts and final potentials (to the last bit) of optimize_design(3, 15)
    # on seeds 0-9, as recorded when each iteration built the Gram twice
    res = [optimize_design(3, 15, seed=seed) for seed in range(10)]
    assert [r.iterations for r in res] == [444, 576, 477, 434, 491, 448, 467, 551, 524, 373]
    assert [r.potential.hex() for r in res] == [
        "0x1.24924924925f5p-3", "0x1.24924924925f0p-3", "0x1.24924924925f1p-3",
        "0x1.24924924925e9p-3", "0x1.24924924925e9p-3", "0x1.24924924925f9p-3",
        "0x1.24924924925f7p-3", "0x1.24924924925f7p-3", "0x1.24924924925f0p-3",
        "0x1.24924924925f9p-3",
    ]
    assert all(len(r.trace) == r.iterations for r in res)


def test_optimizer_degenerate_cases():
    res = optimize_design(1, 1, seed=3)
    assert res.potential == pytest.approx(1.0)
    assert res.gap == pytest.approx(0.0, abs=1e-12)
    assert res.converged
    for d, n in ((2, 0), (0, 6)):
        with pytest.raises(ValueError):
            optimize_design(d, n)
    # a run stopped by the iteration cap stays above the bound and says so
    res = optimize_design(4, 28, seed=0, iters=400)
    assert res.iterations <= 400
    assert res.gap >= 0
    assert res.converged == (res.gap <= 1e-8)


# ---------------------------------------------------------------------------
# matrix-space dimension audit
# ---------------------------------------------------------------------------


def _matrices(cells_per_element):
    """(len, 2, 2, 4) stack with the given {(i, j): quaternion} entries, zero elsewhere."""
    out = np.zeros((len(cells_per_element), 2, 2, 4))
    for r, cells in enumerate(cells_per_element):
        for (i, j), q in cells.items():
            out[r, i, j] = q
    return out


def test_matrix_bases_order_and_entries_at_d2():
    one, i, j, k = Q_ONE, Q_I, Q_J, Q_K
    herm = _matrices(
        [
            {(0, 0): one},
            {(1, 1): one},
            {(0, 1): one, (1, 0): one},
            {(0, 1): i, (1, 0): -i},
            {(0, 1): j, (1, 0): -j},
            {(0, 1): k, (1, 0): -k},
        ]
    )
    anti = _matrices(
        [
            {(0, 0): i},
            {(0, 0): j},
            {(0, 0): k},
            {(1, 1): i},
            {(1, 1): j},
            {(1, 1): k},
            {(0, 1): one, (1, 0): -one},
            {(0, 1): i, (1, 0): i},
            {(0, 1): j, (1, 0): j},
            {(0, 1): k, (1, 0): k},
        ]
    )
    assert np.array_equal(hermitian_basis(2), herm)
    assert np.array_equal(anti_hermitian_basis(2), anti)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hermitian_split_spans_everything(d):
    herm = hermitian_basis(d)
    anti = anti_hermitian_basis(d)
    assert herm.shape[0] == d + 4 * (d * (d - 1) // 2)
    assert anti.shape[0] == 3 * d + 4 * (d * (d - 1) // 2)
    assert herm.shape[0] + anti.shape[0] == 4 * d * d
    for m in herm:
        assert np.allclose(complex_lift(conj_transpose(m)), complex_lift(m))
    for m in anti:
        assert np.allclose(complex_lift(conj_transpose(m)), -complex_lift(m))
    # mutual orthogonality under the real trace pairing
    stack = np.concatenate([herm, anti])
    flat = np.stack([complex_lift(m).reshape(-1) for m in stack])
    g = np.abs(flat.conj() @ flat.T)
    g[np.arange(len(stack)), np.arange(len(stack))] = 0.0
    assert np.max(g) < 1e-12
    # and they span: the lifted stack has full real rank 4d^2
    reals = np.concatenate([flat.real, flat.imag], axis=1)
    assert np.linalg.matrix_rank(reals) == 4 * d * d
