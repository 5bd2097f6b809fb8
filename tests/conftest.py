"""Shared fixtures: the packaged example designs and a reusable ensemble battery."""

import importlib.resources as resources

import numpy as np
import pytest

from designforge.ffcore import build_field, frobenius
from designforge.fflinalg import herm_inner
from designforge.ffdesigns import FFEnsemble, gabor_ensemble, harmonic_etf, singer_difference_set
from designforge.io import load_design


def fixture_path(name: str) -> str:
    ref = resources.files("designforge") / "fixtures" / "v1" / name
    with resources.as_file(ref) as p:
        return str(p)


# Verdicts recorded by tests/test_acceptance.py, echoed after the run so the
# gate is readable even when capture swallows in-test writes.
ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance gate")
    for num, ok in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}")


def forged_gabor_d13():
    """gabor_ensemble(2, 6, 3) with x_1, x_2 mixed; metadata and frame operator kept.

    y_1 = u x_1 + v x_2 and y_2 = conj(v) x_1 + conj(u) x_2 with
    rho = <x_0, x_1> conj(<x_0, x_2>), t = N(v) not in {0, 1},
    z = (t + t^2)^(q/2) for q = 64 and u = z / (conj(v) rho).  Every
    N(<x_0, y>) and the frame operator stay those of the genuine ensemble, so
    the products with x_0 cannot tell, yet the full Gram finds
    ("angle", 1, 13).
    """
    ens = gabor_ensemble(2, 6, 3)
    ctx = ens.ctx
    x1, x2 = ens.vector(1), ens.vector(2)
    rho = herm_inner(ens.vector(0), x1) * frobenius(herm_inner(ens.vector(0), x2))
    v = next(e for e in ctx.elements() if not e.is_zero() and e * frobenius(e) != ctx.one())
    t = v * frobenius(v)
    u = (t + t * t) ** 32 / (frobenius(v) * rho)
    data = ens.data.copy()
    for row, (s, w) in ((1, (u, v)), (2, (frobenius(v), frobenius(u)))):
        data[row] = [(s * x1[i] + w * x2[i]).coeffs for i in range(ens.d)]
    return FFEnsemble(ctx, data, ens.metadata)


@pytest.fixture(scope="session")
def f9():
    return load_design(fixture_path("f9_d2_design.json"))


def _unit(ctx, d, pos, value=1):
    v = np.zeros((d, ctx.deg), dtype=np.int64)
    v[pos, 0] = value
    return v


def build_battery(f9_ens):
    """22 small ensembles in odd characteristic with known 2-design outcomes.

    Returns (name, ensemble, c2) triples where c2 is the expected parameter as
    an enumeration integer, or None when the moment identity has no solution.
    """
    ctx9 = f9_ens.ctx
    out = []
    out.append(("f9-quadruple", f9_ens, 1))
    out.append(("f9-scaled", FFEnsemble(ctx9, (f9_ens.data * 2) % 3), 1))
    out.append(
        ("f9-doubled", FFEnsemble(ctx9, np.concatenate([f9_ens.data, f9_ens.data])), 2)
    )

    e1 = _unit(ctx9, 2, 0)[None]
    out.append(("f9-plus-e1", FFEnsemble(ctx9, np.concatenate([f9_ens.data, e1])), None))
    replaced = f9_ens.data.copy()
    replaced[3] = e1[0]
    out.append(("f9-one-replaced", FFEnsemble(ctx9, replaced), None))

    # d = 1: any single nonzero vector satisfies the identity with c2 = N(x)^2.
    # With x = 2 in the prime subfield, N(2) = 4 and c2 = 16 mod p.
    for p, k, c2 in [(3, 2, 1), (5, 2, 1), (7, 2, 2), (11, 2, 5), (3, 4, 1), (3, 6, 1)]:
        ctx = build_field(p, k)
        v = np.zeros((1, 1, k), dtype=np.int64)
        v[0, 0, 0] = 2
        out.append((f"single-f{p}e{k}", FFEnsemble(ctx, v), c2))

    # d = 1 with two vectors 1 and x over F_25: the norms N(1)^2 + N(x)^2
    # cancel mod 5, a degenerate success with c2 = 0.
    ctx25 = build_field(5, 2)
    v2 = np.zeros((2, 1, 2), dtype=np.int64)
    v2[0, 0, 0] = 1
    v2[1, 0, 1] = 1
    out.append(("pair-f25", FFEnsemble(ctx25, v2), 0))

    for p, k, d in [(3, 2, 2), (3, 2, 3), (5, 2, 4)]:
        ctx = build_field(p, k)
        basis = np.stack([_unit(ctx, d, i) for i in range(d)])
        out.append((f"orthobasis-d{d}-f{p}e{k}", FFEnsemble(ctx, basis), None))

    rep = np.zeros((4, 2, 2), dtype=np.int64)
    rep[:, 0, 0] = 1
    out.append(("repeated-vector", FFEnsemble(ctx9, rep), None))

    # Harmonic frames from Singer difference sets: equiangular tight frames
    # but not 2-designs in these parameters.
    out.append(
        ("harmonic-d13", harmonic_etf(build_field(5, 4), singer_difference_set(3)), None)
    )
    out.append(
        ("harmonic-d7", harmonic_etf(build_field(13, 2), singer_difference_set(2)), None)
    )

    rng = np.random.default_rng(7)
    for p, k, d, n in [(3, 2, 2, 5), (5, 2, 3, 7), (7, 2, 2, 6), (11, 2, 2, 5)]:
        ctx = build_field(p, k)
        while True:
            v = rng.integers(0, p, size=(n, d, k))
            if all((v[i] != 0).any() for i in range(n)):
                break
        out.append((f"random-f{p}e{k}-d{d}", FFEnsemble(ctx, v.astype(np.int64)), None))
    return out


@pytest.fixture(scope="session")
def battery(f9):
    return build_battery(f9)
