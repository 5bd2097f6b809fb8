"""Difference sets, finite-field frames, and the exact 2-design verifiers."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from designforge.ffcore import (
    NotQuadraticExtension,
    OrderDoesNotDivide,
    build_field,
    frobenius,
    root_of_unity,
)
from designforge.fflinalg import BudgetExceeded, EvenCharacteristic, FFMatrix, FFVector
from designforge import ffdesigns, fflinalg, kernels
from designforge.ffdesigns import (
    DesignError,
    DifferenceSet,
    FFEnsemble,
    InvalidDifferenceSet,
    MetadataMissing,
    NotPrimePower,
    PreconditionViolated,
    ZeroC2,
    certify_tight_2design,
    check_2design_naive,
    check_2design_psi,
    check_etf,
    check_gerzon,
    check_tight_frame,
    decomposition_check,
    gabor_ensemble,
    gram_sample_check,
    harmonic_etf,
    param_search,
    singer_difference_set,
    structural_gabor_verify,
    tight_frame_route,
    verify_difference_set,
    verify_etf,
)
from designforge.ffdesigns import DivisibilityViolated

from conftest import forged_gabor_d13


# ---------------------------------------------------------------------------
# difference sets
# ---------------------------------------------------------------------------


def test_verify_difference_set():
    assert verify_difference_set(7, (0, 1, 3)) == 1
    assert verify_difference_set(13, (0, 1, 3, 9)) == 1
    # quadratic residues mod 11 form an (11, 5, 2) difference set
    assert verify_difference_set(11, (1, 3, 4, 5, 9)) == 2
    with pytest.raises(InvalidDifferenceSet):
        verify_difference_set(7, (0, 1, 2))
    with pytest.raises(InvalidDifferenceSet):
        verify_difference_set(7, (0, 1, 1))


def test_a_modulus_beyond_the_differences_is_rejected_before_counting():
    # m(m - 1) differences cannot cover modulus - 1 residues lam >= 1 times each;
    # counting first asked for a modulus-sized list (16 MB at 10^6)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidDifferenceSet):
            DifferenceSet.create(10**6, [0, 1])
        with pytest.raises(InvalidDifferenceSet):
            verify_difference_set(10**10, (0, 1, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak
    assert verify_difference_set(3, (0, 1)) == 1  # modulus - 1 = m(m - 1) still counts


def test_difference_set_create():
    ds = DifferenceSet.create(7, (0, 1, 3))
    assert (ds.modulus, ds.elements, ds.lam) == (7, (0, 1, 3), 1)
    with pytest.raises(InvalidDifferenceSet):
        DifferenceSet.create(13, (0, 1, 2, 3))


def test_singer_known_values():
    assert singer_difference_set(2).elements == (0, 1, 3)
    assert singer_difference_set(3) == DifferenceSet(13, (0, 1, 3, 9), 1)
    assert singer_difference_set(4).elements == (0, 1, 6, 8, 18)
    assert singer_difference_set(5).elements == (0, 1, 4, 10, 12, 17)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 7, 8, 9])
def test_singer_planes(r):
    ds = singer_difference_set(r)
    assert ds.modulus == r * r + r + 1
    assert len(ds.elements) == r + 1
    assert ds.lam == 1
    assert ds.elements[0] == 0
    assert verify_difference_set(ds.modulus, ds.elements) == 1


def test_singer_rejects_non_prime_powers():
    for r in (1, 6, 10, 12):
        with pytest.raises(NotPrimePower):
            singer_difference_set(r)


# ---------------------------------------------------------------------------
# frame checks on the packaged F_9 quadruple
# ---------------------------------------------------------------------------


def test_f9_fixture_shape(f9):
    assert (f9.n, f9.d) == (4, 2)
    assert f9.ctx.order == 9
    v = f9.vector(0)
    assert isinstance(v, FFVector) and len(v) == 2
    rebuilt = FFEnsemble.from_vectors([f9.vector(i) for i in range(4)], f9.metadata)
    assert np.array_equal(rebuilt.data, f9.data)


def test_f9_is_a_zero_tight_etf(f9):
    ctx = f9.ctx
    c = check_tight_frame(f9)
    assert c is not None and c.is_zero()
    res = check_etf(f9)
    assert bool(res)
    a, b, c1 = res.params
    assert (a, b, c1) == (ctx.zero(), ctx.one(), ctx.zero())


def test_etf_counterexamples(f9):
    ctx = f9.ctx
    e1 = np.zeros((1, 2, 2), dtype=np.int64)
    e1[0, 0, 0] = 1
    mixed = FFEnsemble(ctx, np.concatenate([f9.data, e1]))
    res = check_etf(mixed)
    assert not res
    assert res.counterexample[0] == "norm"
    single = FFEnsemble(ctx, e1)
    assert check_etf(single).counterexample == ("too-few-vectors", 0, 0)


def test_orthonormal_basis_is_a_trivial_etf():
    ctx = build_field(3, 2)
    basis = np.zeros((2, 2, 2), dtype=np.int64)
    basis[0, 0, 0] = 1
    basis[1, 1, 0] = 1
    res = check_etf(FFEnsemble(ctx, basis))
    assert res.params == (ctx.one(), ctx.zero(), ctx.one())


def test_gram_sample_check(f9):
    ctx = f9.ctx
    assert gram_sample_check(f9, ctx.zero(), ctx.one(), pairs=500, seed=1)
    assert not gram_sample_check(f9, ctx.zero(), ctx.scalar(2), pairs=500, seed=1)
    assert not gram_sample_check(f9, ctx.one(), ctx.one(), pairs=500, seed=1)


def test_pair_chunks_follow_triu_order(monkeypatch):
    monkeypatch.setattr(ffdesigns, "_PAIR_CHUNK", 7)
    for n in (2, 3, 10, 17):
        chunks = list(ffdesigns._upper_pairs(n))
        assert all(len(ki) <= 7 for ki, _ in chunks)
        got = np.concatenate([ki for ki, _ in chunks]), np.concatenate([kj for _, kj in chunks])
        want = np.triu_indices(n, k=1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), n


@pytest.mark.parametrize("chunk", [1, 5, 4096])
def test_check_etf_witness_is_the_first_failing_pair(monkeypatch, chunk):
    # the forged d = 13 file: the first pair value unlike that of (0, 1), in
    # np.triu_indices order over all pairs at once, whatever the chunk size
    forged = forged_gabor_d13()
    ki, kj = np.triu_indices(forged.n, k=1)
    vals = ffdesigns._norm_values(forged, ffdesigns._pair_inner(forged, ki, kj))
    first = int(np.flatnonzero(np.any(vals != vals[0], axis=1))[0])
    monkeypatch.setattr(ffdesigns, "_PAIR_CHUNK", chunk)
    res = check_etf(forged)
    assert res.counterexample == ("angle", int(ki[first]), int(kj[first])) == ("angle", 1, 13)


def test_gram_sample_check_holds_one_chunk_of_pairs():
    # ten times the pairs, about the same peak: one chunk's products at a time
    # (before, 40 000 pairs peaked at ten times 4096 pairs' peak)
    ens = gabor_ensemble(2, 6, 3)
    a, b = structural_gabor_verify(ens).params[:2]
    peaks = []
    for pairs in (4096, 40_000):
        assert gram_sample_check(ens, a, b, pairs=pairs, seed=3)
        tracemalloc.start()
        try:
            assert gram_sample_check(ens, a, b, pairs=pairs, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_gram_sample_check_one_vector():
    # no pairs to sample, so only the norm a is checked
    ctx = build_field(7, 2)
    x = np.zeros((1, 1, 2), dtype=np.int64)
    x[0, 0, 0] = 2
    ens = FFEnsemble(ctx, x)
    assert gram_sample_check(ens, ctx.scalar(4), ctx.one(), pairs=500)
    assert not gram_sample_check(ens, ctx.scalar(3), ctx.one(), pairs=500)


def test_gram_sample_check_empty_ensemble():
    # no vector to draw: the pair and norm checks are both vacuous
    ctx = build_field(3, 2)
    ens = FFEnsemble(ctx, np.zeros((0, 2, 2), dtype=np.int64))
    assert gram_sample_check(ens, ctx.zero(), ctx.one(), pairs=500)


def test_gerzon_report(f9):
    ctx = f9.ctx
    rep = check_gerzon(f9, ctx.zero(), ctx.one())
    assert rep.bound_holds and rep.span_checked
    assert (rep.n, rep.d) == (4, 2)
    assert rep.span_dim == rep.span_expected == 3
    assert rep.unique_dependency


def test_gerzon_report_eliminates_once(monkeypatch, f9):
    # the rank and the all-ones dependency both come from one row reduction
    calls = []
    real = fflinalg.row_echelon

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(fflinalg, "row_echelon", counting)
    rep = check_gerzon(f9, f9.ctx.zero(), f9.ctx.one())
    assert rep.span_dim == 3 and rep.unique_dependency
    assert calls == [(4, 4, 2)]


def test_gerzon_report_gabor_d13():
    # n = d^2 = 169 with a = 0: the traceless Hermitian span, all-ones dependency
    ens = gabor_ensemble(2, 6, 3)
    a, b, _ = verify_etf(ens).params
    assert a.is_zero()
    rep = check_gerzon(ens, a, b)
    assert rep.bound_holds and rep.span_checked
    assert rep.span_dim == rep.span_expected == 168
    assert rep.unique_dependency is True


def test_gerzon_report_nonzero_norm():
    # one vector in d = 1, a = N(2) = 4 != 0: the whole Hermitian space, no dependency
    ctx = build_field(5, 2)
    x = np.zeros((1, 1, 2), dtype=np.int64)
    x[0, 0, 0] = 2
    rep = check_gerzon(FFEnsemble(ctx, x), ctx.scalar(4), ctx.zero())
    assert rep.bound_holds and rep.span_checked
    assert rep.span_dim == rep.span_expected == 1
    assert rep.unique_dependency is None


def test_gerzon_report_empty_ensemble():
    # d = 0 and n = 0: the bound holds and there is no span to check
    ctx = build_field(3, 2)
    ens = FFEnsemble(ctx, np.zeros((0, 0, 2), dtype=np.int64))
    rep = check_gerzon(ens, ctx.zero(), ctx.one())
    assert rep.bound_holds and not rep.span_checked
    assert rep.span_dim is None and rep.span_expected is None
    assert rep.unique_dependency is None
    assert rep.note == "empty ensemble: no span to check"


def test_gerzon_report_over_budget(monkeypatch, f9):
    monkeypatch.setattr(ffdesigns, "NAIVE_MULTIPLY_BUDGET", 1)
    rep = check_gerzon(f9, f9.ctx.zero(), f9.ctx.one())
    assert rep.bound_holds and not rep.span_checked
    assert rep.span_dim is None and rep.unique_dependency is None
    assert rep.note == "span check skipped: over elimination budget"


# ---------------------------------------------------------------------------
# the two 2-design verifiers
# ---------------------------------------------------------------------------


def test_battery_routes_agree(battery):
    for name, ens, c2 in battery:
        naive = check_2design_naive(ens)
        psi = check_2design_psi(ens)
        if c2 is None:
            assert naive is None, name
            assert psi is None, name
        else:
            assert naive is not None and psi is not None, name
            assert naive == psi, name
            assert naive.to_int() == c2, name


@pytest.mark.parametrize("n", [0, 3])
def test_design_routes_report_nothing_in_dimension_zero(f9, n):
    ens = FFEnsemble(f9.ctx, np.zeros((n, 0, 2), dtype=np.int64))
    assert check_2design_naive(ens) is None
    assert check_2design_psi(ens) is None
    assert check_tight_frame(ens) is None


def test_design_routes_run_on_two_kernels(monkeypatch, f9, battery):
    single = next(ens for name, ens, _ in battery if name == "single-f7e2")
    for ens in (f9, single):
        frame_ops = _counting_in(monkeypatch, kernels, "frame_operator")
        products = _counting_in(monkeypatch, kernels, "matmul")
        assert check_2design_naive(ens) is not None
        assert (len(frame_ops), len(products)) == (1, 0)  # T: frame operator of x (x) x
        assert check_2design_psi(ens) is not None
        assert (len(frame_ops), len(products)) == (1, 1)
        monkeypatch.undo()


def test_design_checks_reject_even_characteristic():
    ctx = build_field(2, 6)
    v = np.zeros((1, 1, 6), dtype=np.int64)
    v[0, 0, 0] = 1
    ens = FFEnsemble(ctx, v)
    with pytest.raises(EvenCharacteristic):
        check_2design_naive(ens)
    with pytest.raises(EvenCharacteristic):
        check_2design_psi(ens)


def test_design_checks_respect_budget(f9, monkeypatch):
    monkeypatch.setattr(ffdesigns, "NAIVE_MULTIPLY_BUDGET", 1)
    monkeypatch.setattr(ffdesigns, "PSI_MULTIPLY_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        check_2design_naive(f9)
    with pytest.raises(BudgetExceeded, match=r"^n d\^4 = 64 > 1$"):
        check_2design_psi(f9)


def test_certificate_shows_skipped_psi_budget(f9, monkeypatch):
    # no odd-characteristic Gabor ensemble is smaller than d = 73, so the
    # 4-vector F_9 design stands in, with the budget set below its n d^4 = 64
    monkeypatch.setattr(ffdesigns, "PSI_MULTIPLY_BUDGET", 63)
    cert = certify_tight_2design(f9)
    assert cert.is_design
    assert cert.cross_checks == ["psi-route skipped: n d^4 = 64 > 63"]


def test_frame_operator_needs_a_quadratic_extension():
    ens = FFEnsemble(build_field(3, 3), np.ones((2, 2, 3), dtype=np.int64))
    with pytest.raises(NotQuadraticExtension):
        check_tight_frame(ens)


def test_certify_f9(f9):
    ctx = f9.ctx
    cert = certify_tight_2design(f9)
    assert cert.method == "parameter-conditions"
    assert cert.is_design
    assert cert.design == (ctx.zero(), ctx.zero(), ctx.one())
    assert cert.etf == (ctx.zero(), ctx.one(), ctx.zero())
    assert cert.failures == []
    assert "psi-route agrees" in cert.cross_checks
    assert certify_tight_2design(f9) == cert  # again from the ensemble's memo


def test_certify_failure_modes(f9):
    ctx = f9.ctx
    e1 = np.zeros((1, 2, 2), dtype=np.int64)
    e1[0, 0, 0] = 1
    cert = certify_tight_2design(FFEnsemble(ctx, np.concatenate([f9.data, e1])))
    assert not cert.is_design
    assert any("not an ETF" in msg for msg in cert.failures)
    basis = np.zeros((2, 2, 2), dtype=np.int64)
    basis[0, 0, 0] = 1
    basis[1, 1, 0] = 1
    cert = certify_tight_2design(FFEnsemble(ctx, basis))
    assert cert.failures == ["n = 2 != d^2 = 4"]


def test_decomposition_audit(f9):
    ctx = f9.ctx
    c2 = check_2design_naive(f9)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = FFMatrix(ctx, rng.integers(0, 3, size=(2, 2, 2)).astype(np.int64))
        assert decomposition_check(f9, c2, a)
    with pytest.raises(ZeroC2):
        decomposition_check(f9, ctx.zero(), FFMatrix.zeros(ctx, 2, 2))


# ---------------------------------------------------------------------------
# Gabor frames and harmonic frames
# ---------------------------------------------------------------------------


def test_gabor_small_instance():
    ens = gabor_ensemble(2, 6, 3)
    ctx = ens.ctx
    assert (ens.n, ens.d) == (169, 13)
    assert ctx.p == 2 and ctx.deg == 12
    meta = ens.metadata
    assert meta["kind"] == "gabor" and meta["D"] == (0, 1, 3, 9)
    assert meta["omega"] ** 13 == ctx.one()
    res = structural_gabor_verify(ens)
    assert res.params == (ctx.zero(), ctx.one(), ctx.zero())
    # vector s*d + t is omega^{s x} on the translated support D + t
    s, t = 5, 2
    v = ens.vector(s * 13 + t)
    support = sorted((x + t) % 13 for x in meta["D"])
    for x in range(13):
        if x in support:
            assert v[x] == meta["omega"] ** (s * x)
        else:
            assert v[x].is_zero()


def test_gabor_ensemble_holds_one_copy_of_its_vectors():
    # the blocks are written into the array that becomes the data, with no reduced copy
    gabor_ensemble(2, 6, 3)  # warms the field cache
    bufsize = np.getbufsize()
    np.setbufsize(1024)  # numpy's fixed ufunc buffer (128 KiB) is 0.6 of this data
    tracemalloc.start()
    try:
        ens = gabor_ensemble(2, 6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak < 1.25 * ens.data.nbytes, peak
    with pytest.raises(ValueError):
        ens.data[0, 0, 0] = 1
    assert ens.data.dtype == np.uint16
    with pytest.raises(ValueError):  # only a fresh C-contiguous uint16 array is adopted
        FFEnsemble._adopt(ens.ctx, ens.data.transpose(1, 0, 2))
    with pytest.raises(ValueError):
        FFEnsemble._adopt(ens.ctx, ens.data.astype(np.int64))


def test_gabor_parameter_guards():
    with pytest.raises(DivisibilityViolated):
        gabor_ensemble(3, 2, 3)  # 3 does not divide r - 1 = 2
    with pytest.raises(DivisibilityViolated):
        gabor_ensemble(2, 5, 3)  # 13 does not divide 2^5 + 1


def test_structural_verify_needs_metadata(f9):
    with pytest.raises(MetadataMissing):
        structural_gabor_verify(f9)


def test_harmonic_etfs():
    # 13 | 25 + 1 and 7 | 13 + 1 put the pair values in the fixed subfield
    h13 = harmonic_etf(build_field(5, 4), singer_difference_set(3))
    assert (h13.n, h13.d) == (13, 4)
    ctx = h13.ctx
    res = check_etf(h13)
    assert res.params == (ctx.scalar(4), ctx.scalar(3), ctx.scalar(3))
    h7 = harmonic_etf(build_field(13, 2), singer_difference_set(2))
    assert (h7.n, h7.d) == (7, 3)
    ctx = h7.ctx
    assert check_etf(h7).params == (ctx.scalar(3), ctx.scalar(2), ctx.scalar(7))
    # common pair value must be Frobenius-fixed (it is a field norm)
    b = check_etf(h7).params[1]
    assert frobenius(b) == b


def test_harmonic_needs_matching_order():
    with pytest.raises(OrderDoesNotDivide):
        harmonic_etf(build_field(3, 2), singer_difference_set(3))


# ---------------------------------------------------------------------------
# parameter search
# ---------------------------------------------------------------------------


def test_param_search_small_window():
    rows = param_search(3, 6, 3)
    assert [(r.d, r.p, r.k, r.r, r.design) for r in rows] == [(13, 2, 6, 3, False)]


def test_param_search_bounds():
    assert param_search(1, 1, 1) == []
    for bad in [(0, 5, 5), (5, 0, 5), (5, 5, -1)]:
        with pytest.raises(ValueError):
            param_search(*bad)


def test_param_search_rows_satisfy_divisibility():
    for row in param_search(10, 80, 10):
        d = row.r**2 + row.r + 1
        assert row.d == d
        assert (row.r - 1) % row.p == 0
        assert (row.p**row.k + 1) % d == 0
        # k is minimal
        assert all((row.p**k + 1) % d != 0 for k in range(1, row.k))
        assert row.design == (row.p > 3)


def test_weyl_heisenberg_count_agrees_with_the_design_flag_of_the_search():
    # every odd-p row up to d = 2257; d = 3541 needs about 0.4 GB for its count array
    rows = [row for row in param_search(30, 600, 71) if row.p % 2 and row.d <= 2257]
    assert [(row.d, row.p) for row in rows] == [(73, 7), (1723, 5), (2257, 23)]
    for row in rows:
        c2 = ffdesigns._weyl_heisenberg_c2(row.p, row.d, singer_difference_set(row.r).elements)
        assert row.design and c2 is not None
    assert ffdesigns._weyl_heisenberg_c2(7, 73, singer_difference_set(8).elements) == 6


# ---------------------------------------------------------------------------
# route choice and forged metadata
# ---------------------------------------------------------------------------


def test_verify_etf_rejects_gabor_forgery():
    forged = forged_gabor_d13()
    with pytest.raises(MetadataMissing):
        structural_gabor_verify(forged)
    res = verify_etf(forged)
    assert not res
    assert res.method == "full-gram"
    assert res.counterexample == ("angle", 1, 13)
    cert = certify_tight_2design(forged)
    assert cert.method == "parameter-conditions"
    assert cert.etf is None and not cert.is_design
    assert cert.failures == ["not an ETF: counterexample ('angle', 1, 13)"]


def test_verify_etf_takes_structural_route_on_genuine_gabor():
    ens = gabor_ensemble(2, 6, 3)
    ctx = ens.ctx
    res = verify_etf(ens)
    assert res.method == "structural-gabor"
    assert res.params == (ctx.zero(), ctx.one(), ctx.zero())
    assert certify_tight_2design(ens).method == "structural-gabor"


@pytest.mark.parametrize(
    "key,value",
    [
        ("omega", lambda meta: meta["omega"] ** 2),  # also of order 13
        ("alpha", lambda meta: meta["alpha"] ** 2),
        ("D", [0, 1, 3, 8]),
        ("r", 4),
        ("p", 3),
        ("k", 5),
        ("k", "6"),
        ("r", None),
    ],
)
def test_metadata_that_does_not_rebuild_the_data_gets_full_gram(key, value):
    ens = gabor_ensemble(2, 6, 3)
    ctx = ens.ctx
    meta = dict(ens.metadata)
    meta[key] = value(meta) if callable(value) else value
    relabelled = FFEnsemble(ctx, ens.data, meta)
    with pytest.raises(MetadataMissing):
        structural_gabor_verify(relabelled)
    res = verify_etf(relabelled)
    assert res.method == "full-gram"
    assert res.params == (ctx.zero(), ctx.one(), ctx.zero())
    assert certify_tight_2design(relabelled).method == "parameter-conditions"


@pytest.mark.parametrize(
    "forge",
    [
        lambda meta: meta["D"].__setitem__(3, 8),  # inside a list the verdict read
        lambda meta: meta.update(omega=meta["omega"] ** 2),
        lambda meta: meta.update(r=4),
        lambda meta: meta.update(p=2.0),  # an equal value of another type
        lambda meta: meta.update(kind="harmonic"),
    ],
    ids=["D entry", "omega", "r", "p type", "kind"],
)
def test_metadata_forged_after_verification_is_not_trusted(forge):
    ens = gabor_ensemble(2, 6, 3)
    res = structural_gabor_verify(ens)
    assert res.method == "structural-gabor"
    with pytest.raises((TypeError, AttributeError)):  # the metadata is read-only
        forge(ens.metadata)
    assert structural_gabor_verify(ens) == res


def test_metadata_is_a_deep_copy_of_what_the_caller_passed():
    ens = gabor_ensemble(2, 6, 3)
    meta = {**ens.metadata, "D": list(ens.metadata["D"])}
    copy = FFEnsemble(ens.ctx, ens.data, meta)
    meta["D"][3] = 8
    assert structural_gabor_verify(copy).method == "structural-gabor"
    assert copy.metadata["D"] == (0, 1, 3, 9)


def test_metadata_arrays_are_copied(f9):
    arr = np.array([1, 2, 3])
    ens = FFEnsemble(f9.ctx, f9.data, {"x": arr})
    arr[0] = 99
    assert ens.metadata["x"] == (1, 2, 3)


def test_metadata_array_that_rebuilds_the_data_gets_the_structural_route():
    ens = gabor_ensemble(2, 6, 3)
    copy = FFEnsemble(ens.ctx, ens.data, {**ens.metadata, "D": np.array([0, 1, 3, 9])})
    res = verify_etf(copy)
    assert res.method == "structural-gabor"
    assert [v.to_int() for v in res.params] == [0, 1, 0]


# ---------------------------------------------------------------------------
# structural route: a and b of a rebuilt Gabor ensemble from its difference set
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,k,r", [(2, 6, 3), (2, 9, 7), (7, 12, 8)], ids=["d13", "d57", "d73"])
def test_structural_etf_values_match_the_data(p, k, r):
    # <x_0, x_0> is a, and the (q+1)-power of every other <x_0, x_j> is b
    ens = gabor_ensemble(p, k, r)
    a, b, _ = structural_gabor_verify(ens).params
    ips = ffdesigns._pair_inner(ens, np.zeros(ens.n, dtype=np.int64), np.arange(ens.n))
    assert np.array_equal(ips[0], a.coeffs)
    assert np.all(ffdesigns._norm_values(ens, ips[1:]) == b.coeffs)


def test_structural_route_forms_no_inner_product(monkeypatch):
    ens = gabor_ensemble(7, 12, 8)
    dots = _counting_in(monkeypatch, kernels, "gather_dot")
    products = _counting_in(monkeypatch, kernels, "mul_batch")
    res = structural_gabor_verify(ens)
    cert = certify_tight_2design(ens)
    assert [v.to_int() for v in res.params] == [2, 1, 6] and cert.etf == res.params
    assert (len(dots), len(products)) == (0, 0)
    assert set(ens._memo) <= {"tight", "rebuilds", "etf"}


def test_spot_check_catches_a_wrong_derived_value():
    # ACCEPTANCE 2 runs this check on the d = 73 data: it must not go slack
    ens = gabor_ensemble(7, 12, 8)
    ctx = ens.ctx
    a, b, _ = structural_gabor_verify(ens).params
    assert gram_sample_check(ens, a, b, pairs=20_000)
    assert not gram_sample_check(ens, a, b + ctx.one(), pairs=20_000)
    assert not gram_sample_check(ens, a + ctx.one(), b, pairs=20_000)


def test_etf_identities_catch_a_wrong_derived_value():
    # at d = 73 over F_7 a wrong b or a fails an identity at run time; in
    # characteristic 2 (a = c = 0, n - 1 even) both identities read 0 = 0
    ens = gabor_ensemble(7, 12, 8)
    ctx = ens.ctx
    a, b, _ = structural_gabor_verify(ens).params
    for wrong in (b + ctx.one(), ctx.zero()):
        with pytest.raises(DesignError, match="row-sum identity"):
            ffdesigns._tight_etf(ens, a, wrong, "structural-gabor")
    with pytest.raises(DesignError, match="trace identity"):
        ffdesigns._tight_etf(ens, a + ctx.one(), b, "structural-gabor")


# ---------------------------------------------------------------------------
# per-ensemble memo
# ---------------------------------------------------------------------------


def test_ensemble_data_is_read_only(f9):
    with pytest.raises(ValueError):
        f9.data[0, 0, 0] = 1


def test_conjugate_computed_once_per_ensemble(monkeypatch, f9):
    # the dot kernels conjugate inside their fold, so the ETF routes never
    # conjugate the data; only the psi route builds frob(x_k), once
    ens = gabor_ensemble(2, 6, 3)
    odd = FFEnsemble(f9.ctx, f9.data)  # a fresh memo in odd characteristic: psi runs
    seen = []
    real = ffdesigns.frobenius_array

    def counting(ctx, arr):
        seen.append(arr)
        return real(ctx, arr)

    monkeypatch.setattr(ffdesigns, "frobenius_array", counting)
    rebuilds = []
    real_parts = ffdesigns._gabor_parts
    monkeypatch.setattr(
        ffdesigns, "_gabor_parts", lambda *a: rebuilds.append(a) or real_parts(*a)
    )
    res = structural_gabor_verify(ens)
    cert = certify_tight_2design(ens)
    a, b, _ = res.params
    assert gram_sample_check(ens, a, b, pairs=500)
    assert not any(arr is ens.data for arr in seen)
    odd_cert = certify_tight_2design(odd)
    assert "psi-route agrees" in odd_cert.cross_checks
    assert sum(arr is odd.data for arr in seen) <= 1
    assert structural_gabor_verify(ens) == res
    assert certify_tight_2design(ens) == cert
    assert certify_tight_2design(odd) == odd_cert
    assert check_tight_frame(ens) == check_tight_frame(ens) == res.params[2]
    assert rebuilds == [(2, 6, 3)]


def _counting(monkeypatch, name):
    """Replace ffdesigns.<name> by a wrapper that records each call."""
    return _counting_in(monkeypatch, ffdesigns, name)


def _counting_in(monkeypatch, module, name):
    """Replace module.<name> by a wrapper that records each call."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_verified_tight_frame_is_not_row_reduced_again(monkeypatch):
    ens = gabor_ensemble(2, 6, 3)
    plain = FFEnsemble(ens.ctx, ens.data)  # c = 0, no metadata: the full Gram route
    ranks = _counting(monkeypatch, "rank")
    res = check_etf(plain)
    assert [v.to_int() for v in res.params] == [0, 1, 0]
    assert check_tight_frame(plain).is_zero()
    assert len(ranks) == 1  # the spanning check of c = 0 tightness, and only that


def test_zero_tight_span_needs_more_than_the_prefix():
    # 2d + 1 zero vectors in front: the first 2d rows have rank 0, so the
    # span check falls back to all rows and still finds the frame spanning
    ens = gabor_ensemble(2, 6, 3)
    zeros = np.zeros((2 * ens.d + 1, ens.d, ens.ctx.deg), dtype=np.int64)
    padded = FFEnsemble(ens.ctx, np.concatenate([zeros, ens.data]))
    c = check_tight_frame(padded)
    assert c is not None and c.is_zero()


def test_zero_tight_frame_that_does_not_span_is_rejected():
    # one more coordinate, zero in every vector: still sum_k x_k x_k* = 0,
    # but the vectors lie in a hyperplane
    ens = gabor_ensemble(2, 6, 3)
    data = np.concatenate([ens.data, np.zeros((ens.n, 1, ens.ctx.deg), dtype=np.int64)], axis=1)
    assert check_tight_frame(FFEnsemble(ens.ctx, data)) is None


def test_zero_tight_span_is_proved_on_a_prefix(monkeypatch):
    ens = gabor_ensemble(2, 6, 3)
    plain = FFEnsemble(ens.ctx, ens.data)  # c = 0, no metadata
    rows = []
    real = fflinalg.row_echelon

    def counting(ctx, a, max_pivots=None):
        rows.append(len(a))
        return real(ctx, a, max_pivots=max_pivots)

    monkeypatch.setattr(fflinalg, "row_echelon", counting)
    assert check_tight_frame(plain).is_zero()
    assert rows and max(rows) <= 2 * plain.d < plain.n


def test_etf_verdict_computed_once_per_ensemble(monkeypatch):
    ens = gabor_ensemble(2, 6, 3)
    plain = FFEnsemble(ens.ctx, ens.data)
    full_grams = _counting(monkeypatch, "check_etf")
    res = verify_etf(plain)
    assert verify_etf(plain) is res
    assert certify_tight_2design(plain).etf == res.params
    assert len(full_grams) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.method = "structural-gabor"


# ---------------------------------------------------------------------------
# Weyl-Heisenberg route: constants of a rebuilt Gabor ensemble from counts on D
# ---------------------------------------------------------------------------


def _gabor_system(ctx, d, window, omega):
    """x_{s d + t}[i] = omega^(s i) 1_D(i - t), built directly from the definition."""
    pows = np.stack([(omega**e).coeffs for e in range(d)])
    data = np.zeros((d, d, d, ctx.deg), dtype=np.int64)
    for s in range(d):
        for t in range(d):
            for u in window:
                i = (u + t) % d
                data[s, t, i] = pows[s * i % d]
    return data.reshape(d * d, d, ctx.deg)


@pytest.mark.parametrize("window", [(0, 1, 3, 9), (0, 1, 2, 3), (0, 1, 2, 4, 7)])
def test_weyl_heisenberg_counts_are_the_design_tensor_at_d13(window):
    # d = 13 over F_{5^4}: 13 | 25 + 1, so omega has order 13 and frob(omega) = omega^-1;
    # (0, 1, 3, 9) is the Singer set, the other two windows are not difference sets.
    # A Singer window is a design only when p | r - 1 = 2, so every verdict here is None.
    ctx, d = build_field(5, 4), 13
    omega = root_of_unity(ctx, d)
    ens = FFEnsemble(ctx, _gabor_system(ctx, d, window, omega))  # no metadata
    lifted = ffdesigns._lifted_vectors(ens)
    t = kernels.matmul(lifted.transpose(1, 0, 2), fflinalg.frobenius_array(ctx, lifted),
                       ctx.red, ctx.p)
    member = np.zeros(d, dtype=bool)
    member[list(window)] = True
    i, j, i2, j2, shift = np.ogrid[:d, :d, :d, :d, :d]
    quad = member[(i - shift) % d] & member[(j - shift) % d]
    quad = quad & member[(i2 - shift) % d] & member[(j2 - shift) % d]
    count = quad.sum(axis=-1)  # #{t : i-t, j-t, i'-t, j'-t in D}
    same_sum = ((i + j - i2 - j2) % d == 0)[..., 0]
    expected = np.zeros_like(t)
    expected[..., 0] = (d * same_sum * count % ctx.p).reshape(d * d, d * d)
    assert np.array_equal(t, expected)

    ffdesigns._weyl_heisenberg_preconditions(d, omega)
    c2 = ffdesigns._weyl_heisenberg_c2(ctx.p, d, window)
    c = d * len(window) % ctx.p
    psi = check_2design_psi(ens)
    assert (c2 is None) == (psi is None)
    assert c2 is None or ctx.scalar(c2) == psi
    assert check_tight_frame(ens) == ctx.scalar(c)  # the frame operator and, at c = 0, a rank
    assert tight_frame_route(ens) == "frame-operator"


@pytest.mark.parametrize("prk", [(2, 6, 3), (2, 9, 7)])
def test_rebuilt_gabor_tightness_runs_no_frame_operator(monkeypatch, prk):
    ens = gabor_ensemble(*prk)
    frame_ops = _counting_in(monkeypatch, kernels, "frame_operator")
    ranks = _counting(monkeypatch, "rank")
    c = check_tight_frame(ens)
    assert c is not None and c.is_zero()  # d |D| is 13 * 4 and 57 * 8, even
    assert tight_frame_route(ens) == "weyl-heisenberg"
    assert frame_ops == []
    assert len(ranks) == 1  # c = 0: the spanning check, and only that


def _without_metadata(p, k, r):
    ens = gabor_ensemble(p, k, r)
    return FFEnsemble(ens.ctx, ens.data)


@pytest.mark.parametrize(
    "build", [lambda: _without_metadata(2, 6, 3), lambda: _without_metadata(2, 9, 7),
              forged_gabor_d13],
    ids=["d13 without metadata", "d57 without metadata", "forged d13"],
)
def test_ensembles_that_do_not_rebuild_keep_the_frame_operator(monkeypatch, build):
    ens = build()
    frame_ops = _counting_in(monkeypatch, kernels, "frame_operator")
    c = check_tight_frame(ens)
    assert c is not None and c.is_zero()
    assert check_tight_frame(ens) == c
    assert tight_frame_route(ens) == "frame-operator"
    assert len(frame_ops) == 1


def test_weyl_heisenberg_route_agrees_with_the_d73_certificate(monkeypatch):
    ens = gabor_ensemble(7, 12, 8)
    cert = certify_tight_2design(ens)
    assert [v.to_int() for v in cert.design] == [2, 6, 6]
    assert cert.method == "structural-gabor"
    assert cert.cross_checks == [
        "psi-route skipped: n d^4 = 151334226289 > 1000000000",
        "weyl-heisenberg route agrees",
    ]
    assert tight_frame_route(ens) == "weyl-heisenberg"
    assert check_tight_frame(ens).to_int() == 6

    meta = ens.metadata
    assert ffdesigns._weyl_heisenberg_c2(7, 73, meta["D"]) == 6
    for k in range(len(meta["D"])):  # one element of D moved to a non-member
        moved = list(meta["D"])
        moved[k] = next(x for x in range(73) if x not in meta["D"])
        assert ffdesigns._weyl_heisenberg_c2(7, 73, moved) is None

    monkeypatch.setattr(ffdesigns, "_weyl_heisenberg_c2", lambda *a: None)
    with pytest.raises(DesignError, match="weyl-heisenberg route contradicts"):
        certify_tight_2design(ens)


def test_weyl_heisenberg_preconditions():
    ens = gabor_ensemble(2, 9, 7)  # d = 57 = 3 * 19
    ctx, meta = ens.ctx, ens.metadata
    omega = meta["omega"]
    ffdesigns._weyl_heisenberg_preconditions(57, omega)
    for bad in (ctx.one(), omega**3, omega**19):  # orders 1, 19 = d/3 and 3 = d/19
        with pytest.raises(PreconditionViolated, match="order"):
            ffdesigns._weyl_heisenberg_preconditions(57, bad)
    # 13 | 27 - 1: in F_{3^6} an omega of order 13 is fixed by frob, not inverted
    f729 = build_field(3, 6)
    with pytest.raises(PreconditionViolated, match="frob"):
        ffdesigns._weyl_heisenberg_preconditions(13, root_of_unity(f729, 13))
    # no element of a field of characteristic p has an order that p divides
    with pytest.raises(PreconditionViolated, match="order"):
        ffdesigns._weyl_heisenberg_preconditions(3, build_field(3, 2).one())


@pytest.mark.parametrize("prk,power", [((2, 6, 3), 13), ((2, 9, 7), 3)], ids=["omega=1", "order 19"])
def test_omega_of_the_wrong_order_is_refused_and_never_rebuilds(monkeypatch, prk, power):
    ens = gabor_ensemble(*prk)
    real = ffdesigns.root_of_unity
    monkeypatch.setattr(ffdesigns, "root_of_unity", lambda ctx, n: real(ctx, n) ** power)
    with pytest.raises(PreconditionViolated, match="order"):
        gabor_ensemble(*prk)
    assert not ffdesigns._rebuilds_gabor(ens)  # its rebuild is refused the same way
    frame_ops = _counting_in(monkeypatch, kernels, "frame_operator")
    c = check_tight_frame(ens)
    assert c is not None and c.is_zero()
    assert tight_frame_route(ens) == "frame-operator"
    assert len(frame_ops) == 1
    if ens.d == 13:  # the full Gram at d = 57 would form 5.3 million pair products
        assert verify_etf(ens).method == "full-gram"
