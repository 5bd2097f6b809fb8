"""Weighted projective 2-designs over C and the depolarizing-channel bridge.

The central identity: an ensemble {(x_k, w_k)} is a weighted 2-design iff

    sum_k w_k (x_k (x) x_k)(x_k (x) x_k)* = (2 / (d (d+1))) Pi

with Pi the projector onto the symmetric subspace of C^d (x) C^d.  Scaling
by d, the left side is the Choi matrix of the transposed depolarizing
channel, which converts designs into rank-one Kraus decompositions and back
— the size of the smallest weighted 2-design equals the entanglement
breaking rank of the depolarizing channel.

Everything here is floating point.  Default verification tolerance is 1e-9
on max-norm residuals; certificate-grade checks use 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .ffcore import factorize, is_prime, is_prime_power

DEFAULT_TOL = 1e-9
CERT_TOL = 1e-12
# relative antisymmetric part above which kraus_to_design rejects a term
ASYM_TOL = 1e-8


class CDesignError(Exception):
    pass


class NotADesign(CDesignError):
    pass


class ChoiMismatch(CDesignError):
    pass


class AsymmetricTerm(CDesignError):
    """A Kraus factor pair b (x) a that should be symmetric is not."""


class NotRankOne(CDesignError):
    pass


class NumericalBreakdown(CDesignError):
    pass


class UnsupportedDimension(CDesignError):
    pass


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


class CEnsemble:
    """Unit vectors in C^d with a probability weighting (uniform by default)."""

    __slots__ = ("vectors", "weights")

    def __init__(self, vectors, weights=None, check: bool = True):
        v = np.asarray(vectors, dtype=np.complex128)
        if v.ndim != 2:
            raise ValueError("vectors must be an (n, d) array")
        self.vectors = v
        n = v.shape[0]
        if weights is None:
            w = np.full(n, 1.0 / n) if n else np.zeros(0)
        else:
            w = np.asarray(weights, dtype=np.float64)
        self.weights = w
        if check and n:
            norms = np.linalg.norm(v, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-8:
                raise ValueError("vectors must be unit norm")
            if w.shape != (n,) or np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-8:
                raise ValueError("weights must be nonnegative and sum to 1")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def __repr__(self):
        return f"CEnsemble(n={self.n}, d={self.d})"


def gram(ens: CEnsemble) -> np.ndarray:
    return ens.vectors.conj() @ ens.vectors.T


def frame_potential(ens: CEnsemble, t: int) -> float:
    """Weighted 2t-th moment of the overlaps; 1/C(d+t-1, t) iff a t-design."""
    if t < 1:
        raise ValueError("t must be >= 1")
    g2 = np.abs(gram(ens)) ** 2
    w = ens.weights
    return float(w @ (g2**t) @ w)


def potential_bound(d: int, t: int) -> float:
    return 1.0 / math.comb(d + t - 1, t)


def symmetric_projector(d: int) -> np.ndarray:
    """(I + SWAP)/2 on C^d (x) C^d."""
    n = d * d
    idx = np.arange(n)
    swap = (idx % d) * d + idx // d
    out = np.zeros((n, n))
    out[idx, idx] += 0.5
    out[idx, swap] += 0.5
    return out


def moment_matrix(ens: CEnsemble) -> np.ndarray:
    """sum_k w_k (x_k (x) x_k)(x_k (x) x_k)* as a (d^2, d^2) matrix."""
    v = ens.vectors
    lifted = np.einsum("ki,kj->kij", v, v).reshape(ens.n, -1)
    return np.einsum("k,ka,kb->ab", ens.weights, lifted, lifted.conj())


def check_weighted_2design(ens: CEnsemble) -> float:
    """Max-norm residual against the symmetric-subspace moment identity."""
    d = ens.d
    target = (2.0 / (d * (d + 1))) * symmetric_projector(d)
    return float(np.max(np.abs(moment_matrix(ens) - target)))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


class Channel:
    """A linear map from d_in x d_in to d_out x d_out matrices, held as its
    Choi matrix C = sum_ij e_i e_j* (x) Phi(e_i e_j*), so block (i, j) is the
    image of e_i e_j*.  Give exactly one of a Kraus list or the Choi matrix.
    The channel keeps a read-only copy of C, so neither the caller's array
    nor the one `choi()` returns can change it.
    """

    def __init__(
        self,
        d_in: int,
        d_out: int,
        kraus: Optional[Sequence[np.ndarray]] = None,
        choi: Optional[np.ndarray] = None,
    ):
        if (kraus is None) == (choi is None):
            raise ValueError("need exactly one of kraus operators or a Choi matrix")
        if kraus is not None:
            # C = sum_k vec(R_k) vec(R_k)*, vec stacking columns
            vecs = np.stack(kraus).astype(np.complex128).transpose(0, 2, 1).reshape(len(kraus), -1)
            choi = vecs.T @ vecs.conj()
        choi = np.array(choi, dtype=np.complex128)
        choi.flags.writeable = False
        if choi.shape != (d_in * d_out, d_in * d_out):
            raise ValueError(f"Choi matrix of shape {choi.shape} for d_in={d_in}, d_out={d_out}")
        self.d_in = d_in
        self.d_out = d_out
        self._choi = choi

    def _blocks(self) -> np.ndarray:
        """C as (d_in, d_out, d_in, d_out): [i, a, j, b] = Phi(e_i e_j*)[a, b]."""
        return self._choi.reshape(self.d_in, self.d_out, self.d_in, self.d_out)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("ij,iajb->ab", np.asarray(x, dtype=np.complex128), self._blocks())

    def choi(self) -> np.ndarray:
        return self._choi

    def completeness_residual(self) -> float:
        """max |tr_out C - I|; for Kraus channels tr_out C = (sum_k R_k* R_k)^T."""
        tr_out = np.einsum("iaja->ij", self._blocks())
        return float(np.max(np.abs(tr_out - np.eye(self.d_in))))


def depolarizing_channel(d: int) -> Channel:
    """X -> (X + tr X . I) / (d + 1), whose Choi matrix is (I + w w*)/(d + 1)
    with w = sum_i e_i (x) e_i."""
    if d < 1:
        raise ValueError("d must be >= 1")
    w = np.eye(d).reshape(-1)
    return Channel(d, d, choi=(np.eye(d * d) + np.outer(w, w)) / (d + 1))


def transpose_compose(ch: Channel) -> Channel:
    """X -> Phi(X)^T: each Choi block Phi(e_i e_j*) is transposed."""
    n = ch.d_in * ch.d_out
    return Channel(ch.d_in, ch.d_out, choi=ch._blocks().transpose(0, 3, 2, 1).reshape(n, n))


def choi_from_kraus(kraus: Sequence[np.ndarray], d_in: int) -> np.ndarray:
    return Channel(d_in, kraus[0].shape[0], kraus=kraus).choi()


def kraus_from_choi(
    ch: Channel, rank1_terms: Sequence[Tuple[np.ndarray, np.ndarray]], tol: float = DEFAULT_TOL
) -> List[np.ndarray]:
    """Kraus list a_k b_k^T from factor pairs that must reproduce the Choi.

    The pairs (a_k, b_k) are accepted iff the Kraus list a_k b_k^T has the
    channel's Choi matrix within tol; vec(a b^T) = b (x) a.
    """
    kraus = [np.outer(a, b) for a, b in rank1_terms]
    resid = float(np.max(np.abs(choi_from_kraus(kraus, ch.d_in) - ch.choi())))
    if resid > tol:
        raise ChoiMismatch(f"terms miss the Choi matrix by {resid:.2e}")
    return kraus


# ---------------------------------------------------------------------------
# designs <-> Kraus decompositions
# ---------------------------------------------------------------------------


@dataclass
class EbrCertificate:
    """Witnessed upper bound on the entanglement breaking rank of the
    depolarizing channel: `bound` rank-one Kraus operators with recorded
    residuals (moment identity, completeness, channel reconstruction)."""

    d: int
    bound: int
    provenance: str
    residuals: Dict[str, float] = field(default_factory=dict)
    tolerance: float = CERT_TOL

    @property
    def ok(self) -> bool:
        return all(r <= self.tolerance for r in self.residuals.values())


def design_to_kraus(
    ens: CEnsemble, tol: float = DEFAULT_TOL, provenance: str = "imported"
) -> Tuple[List[np.ndarray], EbrCertificate]:
    """Rank-one Kraus decomposition of the depolarizing channel from a design.

    R_k = sqrt(d w_k) conj(x_k) x_k^T; the returned certificate records the
    moment residual of the input, Kraus completeness, and the reconstruction
    residual of X -> (X + tr X . I)/(d+1) on the full matrix-unit basis,
    read off the two Choi matrices (block (i, j) is the image of e_i e_j*).
    """
    moment_resid = check_weighted_2design(ens)
    if moment_resid > tol:
        raise NotADesign(f"moment residual {moment_resid:.2e} exceeds {tol:.1e}")
    d = ens.d
    kraus = [
        math.sqrt(d * w) * np.outer(x.conj(), x)
        for x, w in zip(ens.vectors, ens.weights)
    ]
    ch = Channel(d, d, kraus=kraus)
    completeness = ch.completeness_residual()
    recon = float(np.max(np.abs(ch.choi() - depolarizing_channel(d).choi())))
    cert = EbrCertificate(
        d=d,
        bound=ens.n,
        provenance=provenance,
        residuals={
            "moment": moment_resid,
            "completeness": completeness,
            "reconstruction": recon,
        },
    )
    return kraus, cert


def _rank1_factor(r: np.ndarray, tol: float = 1e-10) -> Tuple[np.ndarray, np.ndarray]:
    """Factor R = a b^T; raises NotRankOne when sigma_2/sigma_1 exceeds tol."""
    u, s, vh = np.linalg.svd(np.asarray(r, dtype=np.complex128))
    if s[0] == 0.0:
        raise NotRankOne("zero Kraus operator")
    if len(s) > 1 and s[1] / s[0] > tol:
        raise NotRankOne(f"second singular value ratio {s[1] / s[0]:.2e}")
    root = math.sqrt(s[0])
    return root * u[:, 0], root * vh[0]


def kraus_to_design(kraus: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CEnsemble:
    """Recover the weighted design hiding in a rank-one Kraus decomposition.

    Accepts Kraus operators a b^T for the depolarizing channel (the output
    format of design_to_kraus).  Each transported factor pair b (x) conj(a),
    a term of the transpose-composed channel, must be symmetric as a d x d
    matrix within ASYM_TOL — that is the theorem's forced structure
    sqrt(d w) x (x) x — and the terms must reassemble the transposed
    channel's Choi matrix.
    """
    if not kraus:
        raise ValueError("empty Kraus list")
    d = kraus[0].shape[0]
    terms = []
    for r in kraus:
        a, b = _rank1_factor(r)
        m = np.outer(b, a.conj())  # b (x) conj(a) reshaped to d x d
        scale = np.linalg.norm(m)
        asym = np.linalg.norm(m - m.T) / (2.0 * scale)
        if asym > ASYM_TOL:
            raise AsymmetricTerm(f"antisymmetric component {asym:.2e}")
        terms.append(0.5 * (m + m.T))
    tdz = (2.0 / (d + 1)) * symmetric_projector(d)
    # each term is exactly symmetric, so the Choi matrix's column-stacked
    # vec(m) is m.reshape(-1) and the sum is that of the outer products t t*
    resid = float(np.max(np.abs(Channel(d, d, kraus=terms).choi() - tdz)))
    if resid > tol:
        raise ChoiMismatch(f"terms miss the transposed-channel Choi by {resid:.2e}")
    vectors, weights = [], []
    for m in terms:
        u, s, vh = np.linalg.svd(m)
        x = u[:, 0]
        # unit-phase convention: first nonzero coordinate real positive
        nz = np.argmax(np.abs(x) > 1e-12)
        phase = x[nz] / abs(x[nz])
        x = x / phase
        vectors.append(x)
        weights.append(s[0] ** 2 / d)  # |m|_F = sqrt(d w)
    return CEnsemble(np.array(vectors), np.array(weights))


# ---------------------------------------------------------------------------
# Caratheodory pruning
# ---------------------------------------------------------------------------


def _sym_basis(d: int) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace as columns (d^2, m)."""
    cols = []
    for i in range(d):
        e = np.zeros((d, d))
        e[i, i] = 1.0
        cols.append(e.reshape(-1))
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d))
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2.0)
            cols.append(e.reshape(-1))
    return np.array(cols).T


def _moment_coordinates(ens: CEnsemble) -> np.ndarray:
    """Real coordinates of the moment matrices on the symmetric subspace.

    Each vector contributes the Hermitian m x m matrix z z* with
    z = B* (x (x) x); its independent real entries (diagonal, then real and
    imaginary parts above the diagonal) give an m^2-dimensional real row.
    """
    d = ens.d
    b = _sym_basis(d)
    lifted = np.einsum("ki,kj->kij", ens.vectors, ens.vectors).reshape(ens.n, -1)
    z = lifted @ b.conj()  # (n, m)
    h = np.einsum("ka,kb->kab", z, z.conj())
    m = b.shape[1]
    iu, ju = np.triu_indices(m, k=1)
    diag = h[:, np.arange(m), np.arange(m)].real
    return np.concatenate([diag, h[:, iu, ju].real, h[:, iu, ju].imag], axis=1)


def caratheodory_prune(
    ens: CEnsemble, tol: float = DEFAULT_TOL, breakdown: float = 1e-7
) -> CEnsemble:
    """Shrink a weighted 2-design to at most C(d+1, 2)^2 points.

    Projective duplicates are merged first.  When the support is still
    larger than the dimension D of the Hermitian operators on the
    symmetric subspace, one full SVD of the stacked moment coordinates
    gives an exact null basis (the last N - D left singular vectors), with
    no rank threshold.  Each null column in turn, signed so that its
    largest entry is positive, shifts weight until the first weight
    (smallest index on ties) hits zero, and that point is eliminated from
    the remaining columns, so they stay null directions on the surviving
    points (recombination).  Which points go is thus fixed by the column
    order of that one basis.  The steps stop as soon as at most D weights
    exceed 1e-13, and only those points are kept.  A null direction
    automatically preserves the total weight because every moment matrix
    has unit trace.
    """
    resid_in = check_weighted_2design(ens)
    if resid_in > tol:
        raise NotADesign(f"moment residual {resid_in:.2e} exceeds {tol:.1e}")
    d = ens.d
    target = (d * (d + 1) // 2) ** 2
    # merge projective duplicates (|<x,y>| = 1)
    overlap = np.abs(gram(ens))
    keep: List[int] = []
    wacc: List[float] = []
    assigned = np.full(ens.n, -1)
    for i in range(ens.n):
        if assigned[i] >= 0:
            continue
        dup = np.nonzero(overlap[i] > 1.0 - 1e-10)[0]
        assigned[dup] = len(keep)
        keep.append(i)
        wacc.append(float(ens.weights[dup].sum()))
    vectors = ens.vectors[keep]
    weights = np.array(wacc)
    if len(weights) > target:
        coords = _moment_coordinates(CEnsemble(vectors, weights, check=False))
        u, _, _ = np.linalg.svd(coords, full_matrices=True)
        rest = u[:, coords.shape[1]:]
        scale = max(np.linalg.norm(coords), 1e-300)
        while np.count_nonzero(weights > 1e-13) > target:
            lam, rest = rest[:, 0], rest[:, 1:]
            lam = lam / max(np.linalg.norm(lam), 1e-300)
            if lam.max() <= 0.0:
                lam = -lam
            null_resid = float(np.linalg.norm(coords.T @ lam) / scale)
            if null_resid > breakdown or lam.max() <= 1e-14:
                raise NumericalBreakdown(f"no usable null direction ({null_resid:.2e})")
            ratio = np.where(lam > 1e-14, weights / np.maximum(lam, 1e-300), np.inf)
            kill = int(np.argmin(ratio))
            weights = np.maximum(weights - ratio[kill] * lam, 0.0)
            weights[kill] = 0.0
            rest = rest - np.outer(lam / lam[kill], rest[kill])
        mask = weights > 1e-13
        vectors = vectors[mask]
        weights = weights[mask] / weights[mask].sum()
    out = CEnsemble(vectors, weights)
    resid_out = check_weighted_2design(out)
    if resid_out > max(tol, 10.0 * max(resid_in, 1e-15)):
        raise NumericalBreakdown(f"pruned residual {resid_out:.2e} degraded")
    return out


# ---------------------------------------------------------------------------
# catalogs: MUBs and SICs
# ---------------------------------------------------------------------------


def mub_ensemble(d: int) -> CEnsemble:
    """The d(d+1) vectors of a complete set of mutually unbiased bases.

    Supported: d = 2 (Pauli eigenbases) and odd primes (quadratic phases
    omega^(a x^2 + b x)).  Together the bases form a weighted 2-design with
    uniform weights.
    """
    if d == 2:
        s = 1.0 / math.sqrt(2.0)
        vecs = np.array(
            [
                [1, 0],
                [0, 1],
                [s, s],
                [s, -s],
                [s, 1j * s],
                [s, -1j * s],
            ],
            dtype=np.complex128,
        )
        return CEnsemble(vecs)
    if not is_prime(d):
        raise UnsupportedDimension(
            f"MUB catalog covers d = 2 and odd primes, not d = {d}"
        )
    omega = np.exp(2j * np.pi / d)
    x = np.arange(d)
    vecs = [np.eye(d, dtype=np.complex128)[i] for i in range(d)]
    for a in range(d):
        for b in range(d):
            vecs.append(omega ** ((a * x * x + b * x) % d) / math.sqrt(d))
    return CEnsemble(np.array(vecs))


def sic_catalog(d: int) -> CEnsemble:
    """Analytic tight 2-designs: the d=2 tetrahedron and the d=3 Hesse orbit."""
    if d == 2:
        w3 = np.exp(2j * np.pi / 3)
        vecs = [np.array([1.0, 0.0], dtype=np.complex128)]
        for j in range(3):
            vecs.append(np.array([1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0) * w3**j]))
        ens = CEnsemble(np.array(vecs))
    elif d == 3:
        fid = np.array([0.0, 1.0, -1.0], dtype=np.complex128) / math.sqrt(2.0)
        ens = sic_from_fiducial(fid)
        return ens
    else:
        raise UnsupportedDimension(f"SIC catalog covers d in {{2, 3}}, not d = {d}")
    _assert_equiangular(ens)
    return ens


def _wh_orbit(fid: np.ndarray) -> np.ndarray:
    d = fid.shape[0]
    omega = np.exp(2j * np.pi / d)
    vecs = []
    for a in range(d):
        shifted = np.roll(fid, a)
        for b in range(d):
            vecs.append(omega ** (b * np.arange(d)) * shifted)
    return np.array(vecs)


def _assert_equiangular(ens: CEnsemble, tol: float = DEFAULT_TOL):
    d = ens.d
    g2 = np.abs(gram(ens)) ** 2
    off = g2[~np.eye(ens.n, dtype=bool)]
    if np.max(np.abs(off - 1.0 / (d + 1))) > tol:
        raise NotADesign("orbit is not equiangular at 1/(d+1)")


def sic_from_fiducial(fid: np.ndarray, tol: float = DEFAULT_TOL) -> CEnsemble:
    """Weyl–Heisenberg orbit of a fiducial, verified before being trusted."""
    fid = np.asarray(fid, dtype=np.complex128)
    fid = fid / np.linalg.norm(fid)
    ens = CEnsemble(_wh_orbit(fid))
    _assert_equiangular(ens, tol)
    resid = check_weighted_2design(ens)
    if resid > tol:
        raise NotADesign(f"orbit moment residual {resid:.2e}")
    return ens


# ---------------------------------------------------------------------------
# recorded ebr bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EbrBound:
    d: int
    bound: int
    rule: str
    constructive: bool


# largest k tried by the k d^2 + 2d rule of ebr_bound_table
EBR_K_MAX = 8


def ebr_bound_table(d: int) -> List[EbrBound]:
    """Upper bounds on ebr for dimension d, smallest first.

    Recorded rules: k d^2 + 2d for the least k <= EBR_K_MAX with kd+1 a prime
    power; d^2 + (p+1)d when d+1 = p^s; d^2 + 1 when d-1 is a prime power;
    d^2 + d - 1 and d^2 + d when d is a prime power.  Constructive entries
    (witness buildable here) are the SIC dimensions {2, 3} at d^2 and the
    MUB dimensions (2 and odd primes) at d^2 + d.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    out: List[EbrBound] = []
    for k in range(1, EBR_K_MAX + 1):
        if is_prime_power(k * d + 1):
            out.append(EbrBound(d, k * d * d + 2 * d, f"k d^2 + 2d (k = {k})", False))
            break
    if is_prime_power(d + 1):
        (p,) = factorize(d + 1)
        out.append(EbrBound(d, d * d + (p + 1) * d, "d^2 + (p+1) d, d+1 = p^s", False))
    if d >= 2 and is_prime_power(d - 1):
        out.append(EbrBound(d, d * d + 1, "d^2 + 1, d-1 prime power", False))
    if is_prime_power(d):
        out.append(EbrBound(d, d * d + d - 1, "d^2 + d - 1, d prime power", False))
        constructive = d == 2 or is_prime(d)
        out.append(EbrBound(d, d * d + d, "d^2 + d, d prime power", constructive))
    if d in (2, 3):
        out.append(EbrBound(d, d * d, "d^2, tight design known", True))
    out.sort(key=lambda e: (e.bound, e.rule))
    return out
