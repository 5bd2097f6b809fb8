"""End-to-end acceptance gate.

Each test prints exactly one ``ACCEPTANCE <n>: PASS|FAIL`` line on the real
stdout (bypassing capture) and then asserts, so the gate can be read off the
terminal even under ``pytest -q``.  Wall-clock budgets are part of the pass
condition.
"""

import functools
import sys
import time

import numpy as np
import pytest

import conftest
from designforge.cdesigns import (
    CEnsemble,
    Channel,
    caratheodory_prune,
    check_weighted_2design,
    depolarizing_channel,
    design_to_kraus,
    kraus_to_design,
    mub_ensemble,
    sic_catalog,
    symmetric_projector,
    transpose_compose,
)
from designforge.ffcore import build_field, frobenius
from designforge.ffdesigns import (
    certify_tight_2design,
    check_2design_naive,
    check_2design_psi,
    check_etf,
    gabor_ensemble,
    gram_sample_check,
    param_search,
    structural_gabor_verify,
)
from designforge.fflinalg import FFVector, herm_inner, sym_projector
from designforge.qdesigns import (
    anti_hermitian_basis,
    certify_fusion_frame,
    check_tight_q_design,
    complex_lift,
    conj_transpose,
    cross_gramian,
    hermitian_basis,
    optimize_design,
    q_design_moments,
    q_frame_potential,
    q_potential_gradient,
    qmatmul,
    re_trace_inner,
    simplex_design_d2,
)


def _report(num: int, ok: bool) -> None:
    conftest.ACCEPTANCE_RESULTS.append((num, ok))
    sys.__stdout__.write(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}\n")
    sys.__stdout__.flush()


def acceptance(num: int):
    """Report the verdict on real stdout, whatever happens inside."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                ok = bool(fn(*args, **kwargs))
            except Exception:
                _report(num, False)
                raise
            _report(num, ok)
            assert ok
        return wrapper

    return deco


def _ints(elements):
    return tuple(e.to_int() for e in elements)


# ---------------------------------------------------------------------------
# 1. small Gabor family: every product checked exactly
# ---------------------------------------------------------------------------


@acceptance(1)
def test_acceptance_01_gabor_d13_full_gram():
    t0 = time.perf_counter()
    ens = gabor_ensemble(2, 6, 3)
    res = check_etf(ens)  # full-Gram route: all 169^2 inner products
    elapsed = time.perf_counter() - t0
    return (
        ens.n == 169
        and ens.d == 13
        and bool(res)
        and _ints(res.params) == (0, 1, 0)
        and elapsed < 10.0
    )


# ---------------------------------------------------------------------------
# 2. d = 73 ensemble: structural verification plus the design certificate
# ---------------------------------------------------------------------------


@acceptance(2)
def test_acceptance_02_gabor_d73_certified():
    t0 = time.perf_counter()
    ens = gabor_ensemble(7, 12, 8)
    res = structural_gabor_verify(ens)
    ok = bool(res) and _ints(res.params) == (2, 1, (2 * 73) % 7)

    cert = certify_tight_2design(ens)
    ok = ok and cert.is_design and cert.method == "structural-gabor"
    a, c1, c2 = cert.design
    _, b, _ = res.params
    two = ens.ctx.from_int(2)
    ok = ok and c2 == two * (a * a - b)
    ok = ok and a * a != b
    ok = ok and a * (a * a - b) == b * c1
    ok = ok and c2.to_int() == 6

    ok = ok and gram_sample_check(ens, a, b, pairs=100_000, seed=1)
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. parameter search over the full window
# ---------------------------------------------------------------------------

SEARCH_TABLE = [
    (13, 2, 6, 3, False),
    (57, 2, 9, 7, False),
    (73, 7, 12, 8, True),
    (307, 2, 51, 17, False),
    (757, 2, 378, 27, False),
    (993, 2, 15, 31, False),
    (1723, 2, 287, 41, False),
    (1723, 5, 287, 41, True),
    (2257, 2, 90, 47, False),
    (2257, 23, 30, 47, True),
    (2451, 2, 63, 49, False),
    (3541, 2, 118, 59, False),
    (3541, 29, 590, 59, True),
    (5113, 2, 213, 71, False),
]


@acceptance(3)
def test_acceptance_03_param_search_window():
    t0 = time.perf_counter()
    rows = [(row.d, row.p, row.k, row.r, row.design) for row in param_search(30, 600, 71)]
    elapsed = time.perf_counter() - t0
    flagged = {(d, p) for d, p, k, r, des in rows if des}
    return (
        rows == SEARCH_TABLE
        and len(rows) == 14
        and flagged == {(73, 7), (1723, 5), (2257, 23), (3541, 29)}
        and elapsed < 120.0
    )


# ---------------------------------------------------------------------------
# 4. two independent design checks agree on a mixed battery
# ---------------------------------------------------------------------------


@acceptance(4)
def test_acceptance_04_routes_agree_on_battery(battery):
    t0 = time.perf_counter()
    designs = sum(1 for _, _, c2 in battery if c2 is not None)
    ok = len(battery) >= 20 and designs >= 5 and len(battery) - designs >= 5
    for name, ens, expected in battery:
        naive = check_2design_naive(ens)
        psi = check_2design_psi(ens)
        if expected is None:
            ok = ok and naive is None and psi is None
        else:
            ok = (
                ok
                and naive is not None
                and psi is not None
                and naive == psi
                and naive.to_int() == expected
            )
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. transpose-composed depolarizing channel hits the symmetric projector
# ---------------------------------------------------------------------------


@acceptance(5)
def test_acceptance_05_choi_matches_projector():
    t0 = time.perf_counter()
    worst = 0.0
    for d in range(2, 9):
        ch = transpose_compose(depolarizing_channel(d))
        target = (2.0 / (d + 1)) * symmetric_projector(d)
        worst = max(worst, float(np.max(np.abs(ch.choi() - target))))
    elapsed = time.perf_counter() - t0
    return worst < 1e-12 and elapsed < 5.0


# ---------------------------------------------------------------------------
# 6. designs compile to certified Kraus families
# ---------------------------------------------------------------------------


def _kraus_family_ok(ens, expect_count):
    kraus, cert = design_to_kraus(ens)
    if len(kraus) != expect_count or cert.bound != expect_count:
        return False
    d = ens.d
    comp = sum(r.conj().T @ r for r in kraus)
    if np.max(np.abs(comp - np.eye(d))) >= 1e-12:
        return False
    for r in kraus:
        s = np.linalg.svd(r, compute_uv=False)
        if s[1] >= 1e-12:
            return False
    # reconstruction over the full matrix basis
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            out = sum(r @ e @ r.conj().T for r in kraus)
            tgt = (e + np.trace(e) * np.eye(d)) / (d + 1)
            if np.max(np.abs(out - tgt)) >= 1e-12:
                return False
    return True


@acceptance(6)
def test_acceptance_06_kraus_compilation():
    t0 = time.perf_counter()
    ok = _kraus_family_ok(sic_catalog(2), 4)
    ok = ok and _kraus_family_ok(sic_catalog(3), 9)
    for d in (2, 3, 5, 7):
        ok = ok and _kraus_family_ok(mub_ensemble(d), d * d + d)
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 10.0


# ---------------------------------------------------------------------------
# 7. design -> Kraus -> design round trip
# ---------------------------------------------------------------------------


def _round_trip_ok(ens):
    kraus, _ = design_to_kraus(ens)
    back = kraus_to_design(kraus)
    if back.n != ens.n:
        return False
    used = set()
    for i in range(ens.n):
        best, best_j = -1.0, -1
        for j in range(back.n):
            if j in used:
                continue
            ov = abs(np.vdot(ens.vectors[i], back.vectors[j])) ** 2
            if ov > best:
                best, best_j = ov, j
        used.add(best_j)
        if best <= 1.0 - 1e-10:
            return False
        if abs(back.weights[best_j] - ens.weights[i]) >= 1e-10:
            return False
    return True


@acceptance(7)
def test_acceptance_07_round_trip():
    t0 = time.perf_counter()
    ok = _round_trip_ok(sic_catalog(2)) and _round_trip_ok(mub_ensemble(3))
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 5.0


# ---------------------------------------------------------------------------
# 8. redundant mixture prunes to at most d^4 points
# ---------------------------------------------------------------------------


@acceptance(8)
def test_acceptance_08_prune_mixture():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    sic = sic_catalog(2)
    mub = mub_ensemble(2)
    vectors = np.vstack([sic.vectors @ u.T, mub.vectors])
    weights = np.concatenate([sic.weights, mub.weights]) / 2.0
    mix = CEnsemble(vectors, weights)
    ok = check_weighted_2design(mix) < 1e-12 and mix.n == 10

    pruned = caratheodory_prune(mix)
    ok = ok and pruned.n <= 9
    ok = ok and check_weighted_2design(pruned) < 1e-9
    ok = ok and bool(np.all(pruned.weights > 0))
    ok = ok and abs(float(np.sum(pruned.weights)) - 1.0) < 1e-12
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 5.0


# ---------------------------------------------------------------------------
# 9. quaternionic simplex: moments, angles, isoclinic spread
# ---------------------------------------------------------------------------


@acceptance(9)
def test_acceptance_09_simplex_design():
    t0 = time.perf_counter()
    ens = simplex_design_d2()
    m1, m2 = q_design_moments(ens)
    ok = abs(m1 - 0.5) <= 1e-12 and abs(m2 - 0.3) <= 1e-12

    chk = check_tight_q_design(ens)
    ok = ok and chk.ok and chk.b is not None and abs(chk.b - 0.4) <= 1e-12

    pairs = 0
    for k in range(ens.n):
        for l in range(k + 1, ens.n):
            g = cross_gramian(ens.vectors[k], ens.vectors[l])
            m = g.T @ g
            if np.max(np.abs(m - 0.16 * np.eye(3))) > 1e-10:
                ok = False
            pairs += 1
    ok = ok and pairs == 15

    fusion = certify_fusion_frame(ens)
    ok = ok and fusion.isoclinic and fusion.tight
    ok = ok and fusion.alpha is not None and abs(fusion.alpha - 0.16) <= 1e-10
    ok = ok and abs(fusion.potential - 0.9) <= 1e-12 and fusion.target == 0.9
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 5.0


# ---------------------------------------------------------------------------
# 10. optimizer recovers tight designs from random starts
# ---------------------------------------------------------------------------


@acceptance(10)
def test_acceptance_10_optimizer_and_gradient():
    t0 = time.perf_counter()
    good = 0
    for seed in range(10):
        res = optimize_design(2, 6, seed=seed)
        if res.gap < 1e-8 and check_tight_q_design(res.ensemble, tol=1e-6).ok:
            good += 1
    ok = good >= 8

    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 2, 4))
    x /= np.sqrt(np.sum(x * x, axis=(1, 2)))[:, None, None]
    grad = q_potential_gradient(x)
    h = 1e-6
    worst = 0.0
    for idx in np.ndindex(x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += h
        xm[idx] -= h
        fd = (q_frame_potential(xp) - q_frame_potential(xm)) / (2 * h)
        denom = max(abs(fd), abs(grad[idx]), 1.0)
        worst = max(worst, abs(fd - grad[idx]) / denom)
    ok = ok and worst < 1e-6
    elapsed = time.perf_counter() - t0
    return ok and elapsed < 120.0


# ---------------------------------------------------------------------------
# 11. cross-module invariants, seeded
# ---------------------------------------------------------------------------


@acceptance(11)
def test_acceptance_11_module_invariants():
    t0 = time.perf_counter()
    ok = True

    # field axioms + the conjugation automorphism
    ctx = build_field(5, 2)
    rng = np.random.default_rng(13)
    elems = list(ctx.elements())
    for _ in range(25):
        a, b, c = (elems[rng.integers(len(elems))] for _ in range(3))
        ok = ok and (a + b) + c == a + (b + c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and a * b == b * a
        ok = ok and frobenius(a + b) == frobenius(a) + frobenius(b)
        ok = ok and frobenius(a * b) == frobenius(a) * frobenius(b)
        ok = ok and frobenius(frobenius(a)) == a
        if a != ctx.zero():
            ok = ok and a * a ** -1 == ctx.one()

    # Hermitian symmetry over F_9
    ctx9 = build_field(3, 2)
    for _ in range(10):
        x = FFVector(ctx9, rng.integers(0, 3, size=(3, 2)))
        y = FFVector(ctx9, rng.integers(0, 3, size=(3, 2)))
        ok = ok and herm_inner(y, x) == frobenius(herm_inner(x, y))

    # projector idempotence, both settings
    p_ff = sym_projector(ctx9, 3)
    ok = ok and (p_ff @ p_ff).data.tolist() == p_ff.data.tolist()
    p_c = symmetric_projector(3)
    ok = ok and np.max(np.abs(p_c @ p_c - p_c)) < 1e-12
    ok = ok and np.max(np.abs(p_c - p_c.conj().T)) < 1e-12

    # Choi matrix reproduces the channel action on random inputs
    kraus, _ = design_to_kraus(mub_ensemble(2))
    ch = Channel(2, 2, kraus=kraus)
    cmat = ch.choi()
    for _ in range(5):
        rho = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = np.zeros((2, 2), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                out += rho[i, j] * cmat[i * 2 : (i + 1) * 2, j * 2 : (j + 1) * 2]
        ok = ok and np.max(np.abs(out - ch.apply(rho))) < 1e-12

    # real-part trace is symmetric and cyclic for quaternion matrices
    qa = rng.standard_normal((3, 3, 4))
    qb = rng.standard_normal((3, 3, 4))
    ok = ok and abs(re_trace_inner(qa, qb) - re_trace_inner(qb, qa)) < 1e-10

    def _retr(m):
        return float(np.trace(m[..., 0]))

    ok = ok and abs(_retr(qmatmul(qa, qb)) - _retr(qmatmul(qb, qa))) < 1e-10

    # Hermitian / anti-Hermitian split: orthogonal and complete
    for d in (1, 2, 3):
        hs = hermitian_basis(d)
        ans = anti_hermitian_basis(d)
        ok = ok and len(hs) + len(ans) == 4 * d * d
        for hmat in hs:
            ok = ok and np.max(np.abs(conj_transpose(hmat) - hmat)) < 1e-12
            for amat in ans:
                ok = ok and abs(re_trace_inner(hmat, amat)) < 1e-12
        for amat in ans:
            ok = ok and np.max(np.abs(conj_transpose(amat) + amat)) < 1e-12
        stack = np.stack(
            [
                np.concatenate([complex_lift(m).real.ravel(), complex_lift(m).imag.ravel()])
                for m in list(hs) + list(ans)
            ]
        )
        ok = ok and np.linalg.matrix_rank(stack) == 4 * d * d

    elapsed = time.perf_counter() - t0
    return ok and elapsed < 120.0
