"""Complex projective 2-designs, Choi/Kraus plumbing, and conic pruning."""

import math

import numpy as np
import pytest

from designforge.cdesigns import (
    AsymmetricTerm,
    CEnsemble,
    Channel,
    ChoiMismatch,
    NotADesign,
    NotRankOne,
    NumericalBreakdown,
    UnsupportedDimension,
    _moment_coordinates,
    caratheodory_prune,
    check_weighted_2design,
    choi_from_kraus,
    depolarizing_channel,
    design_to_kraus,
    ebr_bound_table,
    frame_potential,
    gram,
    kraus_from_choi,
    kraus_to_design,
    mub_ensemble,
    moment_matrix,
    potential_bound,
    sic_catalog,
    sic_from_fiducial,
    symmetric_projector,
    transpose_compose,
)

TOL = 1e-12


def _rand_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _best_match_overlaps(a: CEnsemble, b: CEnsemble):
    """Greedy vector matching; returns (worst overlap, worst weight gap)."""
    ov = np.abs(a.vectors.conj() @ b.vectors.T) ** 2
    used = set()
    worst_overlap, worst_w = 1.0, 0.0
    for i in range(a.n):
        j = int(np.argmax(np.where([c not in used for c in range(b.n)], ov[i], -1.0)))
        used.add(j)
        worst_overlap = min(worst_overlap, float(ov[i, j]))
        worst_w = max(worst_w, abs(float(a.weights[i] - b.weights[j])))
    return worst_overlap, worst_w


# ---------------------------------------------------------------------------
# ensembles and design moments
# ---------------------------------------------------------------------------


def test_ensemble_validation():
    with pytest.raises(ValueError):
        CEnsemble(np.array([[2.0, 0.0]]))
    with pytest.raises(ValueError):
        CEnsemble(np.array([[1.0, 0.0], [0.0, 1.0]]), weights=np.array([0.9, 0.9]))
    with pytest.raises(ValueError):
        CEnsemble(np.zeros((2, 2, 2)))


def test_potential_bound_values():
    assert potential_bound(2, 1) == pytest.approx(1 / 2)
    assert potential_bound(2, 2) == pytest.approx(1 / 3)
    assert potential_bound(3, 2) == pytest.approx(1 / 6)
    assert potential_bound(4, 2) == pytest.approx(1 / 10)


def test_sic_d2_tetrahedron():
    ens = sic_catalog(2)
    assert (ens.n, ens.d) == (4, 2)
    g2 = np.abs(gram(ens)) ** 2
    off = g2[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off - 1 / 3)) < TOL
    assert frame_potential(ens, 2) == pytest.approx(potential_bound(2, 2), abs=TOL)
    assert check_weighted_2design(ens) < TOL
    # second moment matrix is the scaled symmetric projector
    target = (2 / (2 * 3)) * symmetric_projector(2)
    assert np.max(np.abs(moment_matrix(ens) - target)) < TOL


def test_sic_d3():
    ens = sic_catalog(3)
    assert (ens.n, ens.d) == (9, 3)
    g2 = np.abs(gram(ens)) ** 2
    off = g2[~np.eye(9, dtype=bool)]
    assert np.max(np.abs(off - 1 / 4)) < TOL
    assert frame_potential(ens, 2) == pytest.approx(1 / 6, abs=TOL)
    assert check_weighted_2design(ens) < TOL
    with pytest.raises(UnsupportedDimension):
        sic_catalog(4)


def test_sic_from_fiducial_matches_catalog():
    fid = np.array([0.0, 1.0, -1.0]) / math.sqrt(2)
    orbit = sic_from_fiducial(fid)
    assert orbit.n == 9
    assert check_weighted_2design(orbit) < TOL
    with pytest.raises(NotADesign):
        sic_from_fiducial(np.array([1.0, 0.0]))


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_mub_designs(d):
    ens = mub_ensemble(d)
    assert (ens.n, ens.d) == (d * (d + 1), d)
    assert check_weighted_2design(ens) < TOL
    assert frame_potential(ens, 2) == pytest.approx(potential_bound(d, 2), abs=TOL)
    # any two vectors from different bases are unbiased
    g2 = np.abs(gram(ens)) ** 2
    for i in range(ens.n):
        for j in range(i + 1, ens.n):
            if i // d == j // d:
                assert g2[i, j] < TOL  # same basis: orthogonal
            else:
                assert abs(g2[i, j] - 1 / d) < TOL


def test_mub_unsupported_dimensions():
    for d in (4, 6, 9):
        with pytest.raises(UnsupportedDimension):
            mub_ensemble(d)


def test_symmetric_projector_properties():
    for d in range(2, 7):
        pi = symmetric_projector(d)
        assert np.max(np.abs(pi @ pi - pi)) < TOL
        assert np.max(np.abs(pi - pi.conj().T)) < TOL
        assert np.trace(pi).real == pytest.approx(d * (d + 1) / 2, abs=TOL)


def test_weighted_mixture_of_designs_is_a_design():
    rng = np.random.default_rng(5)
    sic = sic_catalog(2)
    rotated = CEnsemble(sic.vectors @ _rand_unitary(rng, 2).T, sic.weights)
    mub = mub_ensemble(2)
    mix = CEnsemble(
        np.vstack([rotated.vectors, mub.vectors]),
        np.concatenate([rotated.weights / 2, mub.weights / 2]),
    )
    assert check_weighted_2design(mix) < TOL
    # non-uniform weights that do not form a design
    bad = CEnsemble(
        mub.vectors, np.concatenate([np.full(2, 0.3), np.full(4, 0.1)])
    )
    assert check_weighted_2design(bad) > 1e-3


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


def test_depolarizing_channel():
    for d in (2, 3, 4):
        ch = depolarizing_channel(d)
        assert ch.completeness_residual() < TOL
        rho = np.eye(d) / d
        out = ch.apply(rho)
        assert np.max(np.abs(out - (rho + np.eye(d)) / (d + 1))) < TOL


def test_choi_of_transposed_depolarizing():
    for d in range(2, 9):
        got = transpose_compose(depolarizing_channel(d)).choi()
        want = (2 / (d + 1)) * symmetric_projector(d)
        assert np.max(np.abs(got - want)) < TOL


def test_transpose_compose_action_and_transport():
    rng = np.random.default_rng(9)
    kraus, _ = design_to_kraus(sic_catalog(2))
    ch = Channel(2, 2, kraus=kraus)
    # the depolarizing channel and a random channel whose Kraus operators
    # have full rank (d_in = 2, d_out = 3) transport as well as rank-one ones
    wide = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(3)]
    assert min(np.linalg.svd(r, compute_uv=False)[-1] for r in wide) > 1e-3
    for c in (ch, depolarizing_channel(2), Channel(2, 3, kraus=wide)):
        tch = transpose_compose(c)
        assert (tch.d_in, tch.d_out) == (c.d_in, c.d_out)
        for _ in range(5):
            x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.max(np.abs(tch.apply(x) - c.apply(x).T)) < 1e-12
        # transposing twice is the identity on the Choi matrix
        assert np.array_equal(transpose_compose(tch).choi(), c.choi())


def test_choi_from_apply_matches_choi_from_kraus():
    rng = np.random.default_rng(10)
    for d in (2, 3):
        kraus, _ = design_to_kraus(mub_ensemble(d))
        by_kraus = choi_from_kraus(kraus, d)
        ch = Channel(d, d, choi=by_kraus)
        assert np.array_equal(ch.choi(), by_kraus)
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        by_sum = sum(r @ x @ r.conj().T for r in kraus)
        assert np.max(np.abs(ch.apply(x) - by_sum)) < 1e-12
    # probe identity (w (x) x)^T C (y (x) z) = x^T Phi(w y^T) z on a random channel
    d = 4
    kraus = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
    ch = Channel(d, d, kraus=kraus)
    c = ch.choi()
    for _ in range(20):
        w, x, y, z = (rng.normal(size=d) + 1j * rng.normal(size=d) for _ in range(4))
        lhs = np.kron(w, x) @ c @ np.kron(y, z)
        assert abs(lhs - x @ ch.apply(np.outer(w, y)) @ z) < 1e-10
    with pytest.raises(ValueError):
        Channel(d, d)
    with pytest.raises(ValueError):
        Channel(d, d, kraus=kraus, choi=c)
    with pytest.raises(ValueError):
        Channel(d, d + 1, choi=c)


def test_channel_keeps_its_own_choi():
    # neither a write through choi() nor one to the caller's array changes the channel
    eye = np.eye(2)
    ch = depolarizing_channel(2)
    out, resid = ch.apply(eye), ch.completeness_residual()
    with pytest.raises(ValueError):
        ch.choi()[0, 0] += 1
    c = depolarizing_channel(2).choi().copy()
    given = Channel(2, 2, choi=c)
    c[0, 0] += 1
    for chan in (ch, given):
        assert np.array_equal(chan.apply(eye), out)
        assert chan.completeness_residual() == resid


def test_completeness_residual_of_a_non_trace_preserving_channel():
    # tr_out C = (sum_k R_k* R_k)^T, so the residual reads that sum's distance from I
    rng = np.random.default_rng(12)
    kraus = [rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)) for _ in range(2)]
    s = sum(r.conj().T @ r for r in kraus)
    want = float(np.max(np.abs(s - np.eye(2))))
    assert want > 0.1
    assert abs(Channel(2, 3, kraus=kraus).completeness_residual() - want) < 1e-12
    # the same value from a Choi matrix given directly, and a scaled channel
    c = choi_from_kraus(kraus, 2)
    assert abs(Channel(2, 3, choi=c).completeness_residual() - want) < 1e-12
    half = Channel(3, 3, choi=0.5 * depolarizing_channel(3).choi())
    assert abs(half.completeness_residual() - 0.5) < 1e-12


def test_kraus_from_choi_round_trip():
    sic = sic_catalog(2)
    pairs = [
        (math.sqrt(2 * w) * x.conj(), math.sqrt(2 * w) * x)
        for x, w in zip(sic.vectors, sic.weights)
    ]
    kraus = [np.outer(a, b) for a, b in pairs]
    ch = Channel(2, 2, kraus=kraus)
    recovered = kraus_from_choi(ch, pairs)
    assert np.max(np.abs(np.stack(recovered) - np.stack(kraus))) < 1e-12
    with pytest.raises(ChoiMismatch):
        kraus_from_choi(ch, pairs[:-1])
    # the design's terms, scaled to sqrt(2w) conj(x) x^T, give the depolarizing channel
    dep = depolarizing_channel(2)
    terms = [((2 * w) ** 0.25 * x.conj(), (2 * w) ** 0.25 * x) for x, w in zip(sic.vectors, sic.weights)]
    recovered = kraus_from_choi(dep, terms)
    assert np.max(np.abs(choi_from_kraus(recovered, 2) - dep.choi())) < 1e-12


# ---------------------------------------------------------------------------
# design -> Kraus -> design
# ---------------------------------------------------------------------------


def test_design_to_kraus_certificates():
    for ens, bound in [
        (sic_catalog(2), 4),
        (sic_catalog(3), 9),
        (mub_ensemble(2), 6),
        (mub_ensemble(3), 12),
        (mub_ensemble(5), 30),
        (mub_ensemble(7), 56),
    ]:
        kraus, cert = design_to_kraus(ens)
        assert len(kraus) == ens.n
        assert cert.bound == bound and cert.d == ens.d
        assert cert.ok
        assert all(v < TOL for v in cert.residuals.values())
        assert sorted(cert.residuals) == ["completeness", "moment", "reconstruction"]
        # every operator is rank one and PSD-compatible: R_k = c conj(x) x^T
        for r in kraus:
            s = np.linalg.svd(r, compute_uv=False)
            assert s[1] < 1e-12
            assert np.max(np.abs(r - r.conj().T)) < TOL
            assert np.linalg.eigvalsh(r)[0] > -TOL


def test_design_to_kraus_rejects_non_design():
    rng = np.random.default_rng(1)
    v = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    with pytest.raises(NotADesign):
        design_to_kraus(CEnsemble(v))


@pytest.mark.parametrize(
    "maker",
    [lambda: sic_catalog(2), lambda: sic_catalog(3), lambda: mub_ensemble(3), lambda: mub_ensemble(5)],
)
def test_round_trip_recovers_design(maker):
    ens = maker()
    kraus, _ = design_to_kraus(ens)
    back = kraus_to_design(kraus)
    assert back.n == ens.n
    overlap, wdev = _best_match_overlaps(ens, back)
    assert overlap > 1 - 1e-10
    assert wdev < 1e-10
    assert check_weighted_2design(back) < 1e-9


def test_kraus_to_design_error_paths():
    kraus, _ = design_to_kraus(sic_catalog(2))
    # rank-2 operator
    broken = list(kraus)
    broken[0] = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(NotRankOne):
        kraus_to_design(broken)
    # additive noise off the operator's row/column space breaks rank-oneness
    noisy = list(kraus)
    noisy[0] = kraus[0] + 1e-3 * np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotRankOne):
        kraus_to_design(noisy)
    # a rank-one but asymmetric term: sqrt(2w) conj(y) x^T with y != x
    x = sic_catalog(2).vectors[0]
    y = x + 1e-3 * np.array([0.0, 1.0])
    y = y / np.linalg.norm(y)
    tilted = list(kraus)
    tilted[0] = math.sqrt(2 * 0.25) * np.outer(y.conj(), x)
    with pytest.raises(AsymmetricTerm):
        kraus_to_design(tilted)
    # dropping a term leaves a Choi gap
    with pytest.raises(ChoiMismatch):
        kraus_to_design(kraus[:-1])
    with pytest.raises(ValueError):
        kraus_to_design([])


# ---------------------------------------------------------------------------
# Caratheodory pruning
# ---------------------------------------------------------------------------


def test_prune_mixed_design():
    rng = np.random.default_rng(5)
    sic = sic_catalog(2)
    rotated = CEnsemble(sic.vectors @ _rand_unitary(rng, 2).T, sic.weights)
    mub = mub_ensemble(2)
    mix = CEnsemble(
        np.vstack([rotated.vectors, mub.vectors]),
        np.concatenate([rotated.weights / 2, mub.weights / 2]),
    )
    assert mix.n == 10
    pruned = caratheodory_prune(mix)
    assert pruned.n <= 9  # (d(d+1)/2)^2 support bound for d = 2
    assert check_weighted_2design(pruned) < 1e-9
    assert abs(pruned.weights.sum() - 1.0) < 1e-12
    assert np.all(pruned.weights > 0)


def test_prune_merges_duplicates():
    # plain SIC and MUB share no vectors, but SIC + SIC does: exact merge
    sic = sic_catalog(2)
    doubled = CEnsemble(
        np.vstack([sic.vectors, sic.vectors]),
        np.concatenate([sic.weights / 2, sic.weights / 2]),
    )
    pruned = caratheodory_prune(doubled)
    assert pruned.n == 4
    assert check_weighted_2design(pruned) < 1e-12


def test_prune_leaves_small_ensembles_alone():
    hesse = sic_catalog(3)
    mub = mub_ensemble(3)
    mix = CEnsemble(
        np.vstack([hesse.vectors, mub.vectors]),
        np.concatenate([hesse.weights / 2, mub.weights / 2]),
    )
    pruned = caratheodory_prune(mix)
    # 21 points is already under the d = 3 support bound of 36
    assert pruned.n == 21


def _rotated_mub5_mixture(seed):
    """12 Haar-rotated copies of the d = 5 MUBs with random copy weights."""
    rng = np.random.default_rng(seed)
    base = mub_ensemble(5)
    weights = np.repeat(rng.uniform(0.5, 1.5, size=12), base.n)
    copies = [base.vectors @ _rand_unitary(rng, 5).T for _ in range(12)]
    return CEnsemble(np.concatenate(copies), weights / weights.sum())


@pytest.mark.parametrize("seed", [1, 4])
def test_prune_mub5_mixture(seed):
    mix = _rotated_mub5_mixture(seed)
    assert mix.n == 360
    pruned = caratheodory_prune(mix)
    assert pruned.n <= 225  # C(6, 2)^2
    # every pruned vector is one of the inputs, bit for bit
    same = (pruned.vectors[:, None, :] == mix.vectors[None, :, :]).all(axis=2)
    assert same.any(axis=1).all()
    assert np.all(pruned.weights > 0)
    assert abs(pruned.weights.sum() - 1.0) < 1e-12
    assert check_weighted_2design(pruned) <= 1e-9


def test_prune_checks_every_null_direction():
    mix = _rotated_mub5_mixture(3)
    # null residuals of the directions pruning uses: the same one SVD and
    # the same ratio test and elimination, one column at a time
    coords = _moment_coordinates(mix)
    rest = np.linalg.svd(coords, full_matrices=True)[0][:, coords.shape[1] :]
    weights = mix.weights.copy()
    resid = []
    while np.count_nonzero(weights > 1e-13) > 225:
        lam, rest = rest[:, 0], rest[:, 1:]
        lam = lam / np.linalg.norm(lam)
        lam = lam if lam.max() > 0.0 else -lam
        resid.append(np.linalg.norm(coords.T @ lam) / np.linalg.norm(coords))
        ratio = np.where(lam > 1e-14, weights / np.maximum(lam, 1e-300), np.inf)
        kill = int(np.argmin(ratio))
        weights = np.maximum(weights - ratio[kill] * lam, 0.0)
        weights[kill] = 0.0
        rest = rest - np.outer(lam / lam[kill], rest[kill])
    first, worst = resid[0], max(resid)
    assert worst > 2.0 * first
    # a bound the first direction meets but a later, eliminated one does not
    with pytest.raises(NumericalBreakdown):
        caratheodory_prune(mix, breakdown=math.sqrt(first * worst))
    assert caratheodory_prune(mix, breakdown=1.01 * worst).n <= 225


def test_prune_rejects_non_design():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    with pytest.raises(NotADesign):
        caratheodory_prune(CEnsemble(v))


# ---------------------------------------------------------------------------
# rank bound tables
# ---------------------------------------------------------------------------


def test_ebr_table_d2():
    rows = [(b.bound, b.rule, b.constructive) for b in ebr_bound_table(2)]
    assert rows == [
        (4, "d^2, tight design known", True),
        (5, "d^2 + d - 1, d prime power", False),
        (6, "d^2 + d, d prime power", True),
        (8, "k d^2 + 2d (k = 1)", False),
        (12, "d^2 + (p+1) d, d+1 = p^s", False),
    ]


def test_ebr_table_d3():
    rows = [(b.bound, b.constructive) for b in ebr_bound_table(3)]
    assert rows[0] == (9, True)
    assert (12, True) in rows
    assert min(r[0] for r in rows) == 9


def test_ebr_table_d4_and_d6():
    rows4 = [(b.bound, b.rule) for b in ebr_bound_table(4)]
    assert rows4[0] == (17, "d^2 + 1, d-1 prime power")
    assert [b for b, _ in rows4] == [17, 19, 20, 24, 40]
    assert not any(b.constructive for b in ebr_bound_table(4))
    rows6 = [b.bound for b in ebr_bound_table(6)]
    assert rows6 == [37, 48, 84]
