"""Regenerate the packaged fixture designs under src/designforge/fixtures/v1/.

Everything here is deterministic: the F_9 quadruple comes from an
exhaustive lexicographic search, and the SIC fiducials are written from
closed forms and re-verified before being saved.
"""

import itertools
import math
import os

import numpy as np

from designforge import io, kernels
from designforge.cdesigns import CEnsemble, sic_from_fiducial
from designforge.ffcore import build_field
from designforge.ffdesigns import (
    FFEnsemble,
    certify_tight_2design,
    check_2design_naive,
    check_2design_psi,
    check_etf,
)
from designforge.fflinalg import frobenius_array

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "designforge", "fixtures", "v1")


def f9_quadruple() -> FFEnsemble:
    """First norm-zero (0,1,0)-ETF quadruple in F_9^2, lexicographically."""
    ctx = build_field(3, 2)
    red, p, conj = ctx.red, ctx.p, ctx.conj_matrix()
    elems = [ctx.from_int(i).coeffs for i in range(9)]
    data = np.array(
        [[elems[i], elems[j]] for i, j in itertools.product(range(9), repeat=2) if i or j]
    )  # (80, 2, 2)
    # Hermitian norms <v, v> = sum_i frob(v_i) v_i
    norms = kernels.dot_batch(data, data, red, p, conj)
    iso = data[~norms.any(axis=1)]
    assert iso.shape[0] == 32, iso.shape
    m = iso.shape[0]
    # pairwise product norms N(<v_i, v_j>) and outer products, precomputed
    ki, kj = np.divmod(np.arange(m * m), m)
    g = kernels.gather_dot(iso, iso, ki, kj, red, p, conj)
    gg = kernels.mul_batch(g, frobenius_array(ctx, g), red, p)
    assert not gg[:, 1:].any()
    pairn = gg[:, 0].reshape(m, m)
    outers = kernels.mul_batch(iso[:, :, None], frobenius_array(ctx, iso)[:, None], red, p)
    for quad in itertools.combinations(range(m), 4):
        ok = all(pairn[a, b] == 1 for a, b in itertools.combinations(quad, 2))
        if not ok:
            continue
        if np.any(outers[list(quad)].sum(axis=0) % 3):
            continue
        ens = FFEnsemble(
            ctx,
            iso[list(quad)],
            metadata={"kind": "norm-zero-etf", "family": "f9-quadruple", "search": "exhaustive-lex"},
        )
        res = check_etf(ens)
        assert res and all(
            v.to_int() == e for v, e in zip(res.params, (0, 1, 0))
        ), "search postcondition violated"
        return ens
    raise AssertionError("no quadruple found")


def main():
    os.makedirs(OUT, exist_ok=True)

    ens = f9_quadruple()
    ctx = ens.ctx
    c2n = check_2design_naive(ens)
    c2p = check_2design_psi(ens)
    cert = certify_tight_2design(ens)
    assert c2n is not None and c2p is not None and c2n == c2p == ctx.one()
    assert cert.is_design and [v.to_int() for v in cert.design] == [0, 0, 1]
    path = os.path.join(OUT, "f9_d2_design.json")
    io.save_design(path, ens)
    print("wrote", path, "vectors:", ens.data.tolist())

    # d = 2 SIC fiducial: |<f, D f>|^2 = 1/3 on the Weyl-Heisenberg orbit
    c = 1.0 / math.sqrt(3.0)
    fid2 = np.array(
        [math.sqrt((1 + c) / 2.0), math.sqrt((1 - c) / 2.0) * np.exp(1j * math.pi / 4)]
    )
    orbit = sic_from_fiducial(fid2)
    assert orbit.n == 4
    path = os.path.join(OUT, "sic_d2_fiducial.json")
    io.save_design(path, CEnsemble(fid2[None, :], None))
    print("wrote", path)

    fid3 = np.array([0.0, 1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)
    orbit = sic_from_fiducial(fid3)
    assert orbit.n == 9
    path = os.path.join(OUT, "sic_d3_fiducial.json")
    io.save_design(path, CEnsemble(fid3[None, :], None))
    print("wrote", path)

    with open(os.path.join(OUT, "NOTES.md"), "w") as fh:
        fh.write(
            """# Fixture provenance (v1)

- `f9_d2_design.json`: the lexicographically first quadruple of norm-zero
  vectors in F_9^2 forming a (0,1,0) equiangular tight frame, found by the
  exhaustive search in `tools/make_fixtures.py`.  Certified on generation as
  a (0,0,1) projective 2-design by both dense verification routes and the
  parameter-condition certificate.
- `sic_d2_fiducial.json`: unit vector in C^2 whose Weyl-Heisenberg orbit is
  the 4-vector equiangular tight 2-design (squared overlaps 1/3); written
  from the closed form sqrt((1 +- 1/sqrt(3))/2) with a pi/4 phase.
- `sic_d3_fiducial.json`: the vector (0, 1, -1)/sqrt(2) in C^3; its orbit is
  the 9-vector equiangular tight 2-design (squared overlaps 1/4).

Fiducial orbits are re-verified every time they are expanded; nothing in
the package trusts these files blindly.  Regenerate with
`python3 tools/make_fixtures.py` — output is byte-stable.
"""
        )
    print("wrote NOTES.md")


if __name__ == "__main__":
    main()
