"""Quaternionic projective 2-designs and equi-isoclinic fusion frames.

Quaternions are float64 arrays whose trailing axis holds the four real
components (1, i, j, k); vectors are (d, 4), matrices (m, n, 4), ensembles
(n, d, 4).  The quaternionic inner product x*y = sum conj(x_i) y_i is
conjugate-linear in the first slot, and d x d quaternion matrices form a
real Hilbert space under <A, B> = Re tr(A*B), which is literally the dot
product of the coordinate arrays.

The headline construction: for unit x in H^d, the real 3-space
S(x) = {x z x* : Re z = 0} has orthogonal basis (x i x*, x j x*, x k x*),
and an equiangular tight 2-design {x_k} turns {S(x_k)} into an
equi-isoclinic tight fusion frame of n = 2d^2 - d subspaces inside the
d(2d+1)-dimensional space of anti-Hermitian quaternion matrices, since
(x z x*)* = x z* x* = -x z x* when Re z = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

DEFAULT_TOL = 1e-9
# potential gap at which optimize_design stops early
GAP_TOL = 1e-14

Q_ONE = np.array([1.0, 0.0, 0.0, 0.0])
Q_I = np.array([0.0, 1.0, 0.0, 0.0])
Q_J = np.array([0.0, 0.0, 1.0, 0.0])
Q_K = np.array([0.0, 0.0, 0.0, 1.0])


class QDesignError(Exception):
    pass


class DimensionMismatch(QDesignError):
    pass


class ZeroVector(QDesignError):
    pass


# ---------------------------------------------------------------------------
# quaternion arithmetic on (..., 4) arrays
# ---------------------------------------------------------------------------


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out[..., 1:] *= -1.0
    return out


def qabs2(a: np.ndarray) -> np.ndarray:
    """Squared quaternion norm |q|^2, reducing the trailing axis."""
    a = np.asarray(a, dtype=np.float64)
    return np.sum(a * a, axis=-1)


def q_herm_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x*y = sum_i conj(x_i) y_i for (d, 4) vectors; a single quaternion."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatch(f"{x.shape} vs {y.shape}")
    return qmul(qconj(x), y).sum(axis=-2)


def qmatmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quaternion matrix product of (m, t, 4) and (t, n, 4): the Hamilton
    products a[i, s] b[s, j] of `qmul`, summed over s."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return qmul(a[:, :, None], b[None]).sum(axis=1)


def conj_transpose(a: np.ndarray) -> np.ndarray:
    return qconj(np.swapaxes(np.asarray(a, dtype=np.float64), 0, 1))


def outer(x: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """Rank-one matrix x y* from (d, 4) vectors (y defaults to x)."""
    x = np.asarray(x, dtype=np.float64)
    y = x if y is None else np.asarray(y, dtype=np.float64)
    return qmul(x[:, None, :], qconj(y)[None, :, :])


def re_trace_inner(a: np.ndarray, b: np.ndarray) -> float:
    """<A, B> = Re tr(A*B) = vec(A) . vec(B) over the real coordinates."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(), b.ravel()))


# ---------------------------------------------------------------------------
# the complex lift H -> C^{2x2}
# ---------------------------------------------------------------------------

_F1 = np.eye(2, dtype=np.complex128)
_FI = np.array([[1j, 0], [0, -1j]])
_FJ = np.array([[0, 1], [-1, 0]], dtype=np.complex128)
_FK = np.array([[0, 1j], [1j, 0]])


def complex_embed(q: np.ndarray) -> np.ndarray:
    """The algebra homomorphism a+bi+cj+dk -> [[a+bi, c+di], [-c+di, a-bi]].

    Multiplicative, additive, and trace-halving: tr f(q) = 2 Re q.
    """
    return complex_lift(np.asarray(q)[None, None])


def complex_lift(a: np.ndarray) -> np.ndarray:
    """Blockwise lift of an (m, n, 4) quaternion matrix to C^{2m x 2n},
    so that Re tr M = (1/2) tr lift(M) and lifts multiply like the
    originals."""
    a = np.asarray(a, dtype=np.float64)
    return (
        np.kron(a[..., 0], _F1)
        + np.kron(a[..., 1], _FI)
        + np.kron(a[..., 2], _FJ)
        + np.kron(a[..., 3], _FK)
    )


# ---------------------------------------------------------------------------
# ensembles and moments
# ---------------------------------------------------------------------------


class QEnsemble:
    """Unit vectors in H^d, stored as an (n, d, 4) float array."""

    __slots__ = ("vectors",)

    def __init__(self, vectors, check: bool = True):
        v = np.asarray(vectors, dtype=np.float64)
        if v.ndim != 3 or v.shape[-1] != 4:
            raise ValueError("vectors must be an (n, d, 4) array")
        self.vectors = v
        if check and v.shape[0]:
            norms = np.sqrt(np.sum(v * v, axis=(1, 2)))
            if np.max(np.abs(norms - 1.0)) > 1e-8:
                raise ValueError("vectors must be unit norm")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def __repr__(self):
        return f"QEnsemble(n={self.n}, d={self.d})"


@functools.lru_cache(maxsize=None)
def _unit_products() -> Tuple[np.ndarray, np.ndarray]:
    """The two constant (4, 16) coefficient matrices of quaternion products,
    built on first use so that importing this module multiplies no quaternions.

    b @ conj_mul holds, at (p, c), the coefficient of a_p in (conj(a) b)_c;
    x @ right_mul holds, at (r, c), the coefficient of q_r in (x q)_c.
    """
    e = np.eye(4)
    conj_mul = qmul(qconj(e)[:, None], e[None]).transpose(1, 0, 2).reshape(4, 16)
    right_mul = qmul(e[:, None, :], e[None, :, :]).reshape(4, 16)
    return conj_mul, right_mul


def _q_gram(vectors: np.ndarray) -> np.ndarray:
    """(n, n, 4) quaternion Gram x_k* x_l of an (n, d, 4) stack, as one GEMM.

    conj(a) b is linear in a with coefficients that are a fixed signed
    permutation of b, so folding those signs into the right operand turns
    the whole Gram into one (n, 4d) @ (4d, 4n) real product.
    """
    n, d = vectors.shape[:2]
    conj_mul, _ = _unit_products()
    signed = (vectors.reshape(n * d, 4) @ conj_mul).reshape(n, d, 4, 4)
    right = signed.transpose(1, 2, 0, 3).reshape(4 * d, 4 * n)
    return (vectors.reshape(n, 4 * d) @ right).reshape(n, n, 4)


def overlap_matrix(ens: QEnsemble) -> np.ndarray:
    """(n, n) matrix of squared overlaps |x_k* x_l|^2 = <x_k x_k*, x_l x_l*>."""
    return qabs2(_q_gram(ens.vectors))


def _overlap_moments(sq: np.ndarray) -> Tuple[float, float]:
    return float(sq.mean()), float((sq**2).mean())


def q_design_moments(ens: QEnsemble) -> Tuple[float, float]:
    """Double averages of <x_k x_k*, x_l x_l*> and of its square.

    A 2-design in H^d hits 1/d and 6/(2d(2d+1)); the first moment alone is
    already 1/d for every tight frame.
    """
    return _overlap_moments(overlap_matrix(ens))


def design_targets(d: int) -> Tuple[float, float]:
    return 1.0 / d, 6.0 / (2 * d * (2 * d + 1))


@dataclass
class QDesignCheck:
    ok: bool
    n: int
    d: int
    first: float
    second: float
    b: Optional[float] = None
    witness: Optional[Tuple[int, int]] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_tight_q_design(ens: QEnsemble, tol: float = DEFAULT_TOL) -> QDesignCheck:
    """Tight quaternionic 2-design test: moments on target, equiangular
    overlaps, and the tightness count n = 2d^2 - d."""
    n, d = ens.n, ens.d
    sq = overlap_matrix(ens)
    first, second = _overlap_moments(sq)
    t1, t2 = design_targets(d)
    if abs(first - t1) > tol or abs(second - t2) > tol:
        return QDesignCheck(False, n, d, first, second, reason="moments off target")
    if n > 1:
        iu, ju = np.triu_indices(n, k=1)
        vals = sq[iu, ju]
        b = float(vals[0])
        worst = int(np.argmax(np.abs(vals - b)))
        if abs(vals[worst] - b) > tol:
            return QDesignCheck(
                False, n, d, first, second, b=b,
                witness=(int(iu[worst]), int(ju[worst])),
                reason="not equiangular",
            )
    else:
        b = None
    if n != 2 * d * d - d:
        return QDesignCheck(
            False, n, d, first, second, b=b, reason=f"n != {2 * d * d - d}"
        )
    return QDesignCheck(True, n, d, first, second, b=b)


# ---------------------------------------------------------------------------
# the S(x) subspaces and their cross-Gramians
# ---------------------------------------------------------------------------


@dataclass
class SubspaceBasis:
    """Orthogonal basis (x i x*, x j x*, x k x*) of S(x)."""

    source: np.ndarray
    elements: np.ndarray  # (3, d, d, 4), anti-Hermitian


def s_basis(x: np.ndarray) -> SubspaceBasis:
    x = np.asarray(x, dtype=np.float64)
    if float(np.sum(x * x)) == 0.0:
        raise ZeroVector("S(x) needs x != 0")
    elems = np.stack([outer(qmul(x, u), x) for u in (Q_I, Q_J, Q_K)])
    return SubspaceBasis(source=x, elements=elems)


def _rotation_gramians(q: np.ndarray) -> np.ndarray:
    """(..., 3, 3) Gramians Re(conj(u) q v conj(q)) over u, v in (i, j, k)
    for (..., 4) quaternions q = a + bi + cj + dk: the rotation matrix of
    v -> q v conj(q), scaled by |q|^2, whose entries are quadratics in q."""
    a, b, c, d = (q[..., t] for t in range(4))
    aa, bb, cc, dd = a * a, b * b, c * c, d * d
    ab, ac, ad = a * b, a * c, a * d
    bc, bd, cd = b * c, b * d, c * d
    rows = (
        (aa + bb - cc - dd, 2.0 * (bc - ad), 2.0 * (bd + ac)),
        (2.0 * (bc + ad), aa - bb + cc - dd, 2.0 * (cd - ab)),
        (2.0 * (bd - ac), 2.0 * (cd + ab), aa - bb - cc + dd),
    )
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def cross_gramian(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """3x3 real Gramian G[u, v] = <x u x*, y v y*> = Re(conj(u) q v conj(q))
    with q = x*y.  Equals |x*y|^2 times a rotation (or 0 when x*y = 0)."""
    q = q_herm_inner(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    return _rotation_gramians(q)


@dataclass
class FusionCertificate:
    """Equi-isoclinic tight fusion frame certificate for {S(x_k)}.

    alpha is the common isoclinicity constant (G* G = alpha I_3 across all
    pairs), potential the fusion frame potential (1/n^2) sum ||G_kl||_F^2,
    and target its tight value r^2 / dim = 9 / (d(2d+1))."""

    n: int
    d: int
    r: int
    ambient_dim: int
    isoclinic: bool
    alpha: Optional[float]
    potential: float
    target: float
    residuals: Dict[str, float] = field(default_factory=dict)
    witness: Optional[Tuple[int, int]] = None

    @property
    def tight(self) -> bool:
        return abs(self.potential - self.target) <= self.residuals.get("tol", DEFAULT_TOL)


def certify_fusion_frame(ens: QEnsemble, tol: float = DEFAULT_TOL) -> FusionCertificate:
    """Check the bridge from an equiangular ensemble to its S(x) subspaces.

    Every pair's cross-Gramian is computed, all at once from one quaternion
    Gram; equi-isoclinicity means each GᵀG is a scalar alpha I_3 with one
    strictly positive alpha across all pairs (orthogonal subspaces —
    alpha = 0 — do not count as isoclinic).  Since G = |q|^2 R(q) with
    q = x_k* x_l and R(q) a rotation, GᵀG = |q|^4 I_3 for every pair, so
    here equi-isoclinic is the same as equiangular; `max_nonscalar` is kept
    as the numerical check of that identity.  The witness is the first
    failing pair in (k, l) order.  The fusion potential includes the
    diagonal (||G_kk||_F^2 = 3) and is compared to 9/(d(2d+1)), which it
    attains exactly when the source is a 2-design.
    """
    n, d = ens.n, ens.d
    grams = _rotation_gramians(_q_gram(ens.vectors))
    potential = float(np.sum(grams**2) / (n * n))
    ambient = d * (2 * d + 1)
    target = 9.0 / ambient
    iu, ju = np.triu_indices(n, k=1)
    pairs = grams[iu, ju]
    m = np.swapaxes(pairs, 1, 2) @ pairs
    alphas = np.trace(m, axis1=1, axis2=2) / 3.0
    devs = np.max(np.abs(m - alphas[:, None, None] * np.eye(3)), axis=(1, 2), initial=0.0)
    spread = np.abs(alphas - alphas[0]) if len(alphas) else alphas
    failing = np.nonzero((devs > tol) | (alphas <= tol) | (spread > tol))[0]
    isoclinic = len(failing) == 0
    witness = None if isoclinic else (int(iu[failing[0]]), int(ju[failing[0]]))
    alpha = float(alphas[0]) if isoclinic and len(alphas) else None
    return FusionCertificate(
        n=n,
        d=d,
        r=3,
        ambient_dim=ambient,
        isoclinic=isoclinic,
        alpha=alpha,
        potential=potential,
        target=target,
        residuals={
            "max_nonscalar": float(np.max(devs, initial=0.0)),
            "alpha_spread": float(np.max(spread, initial=0.0)),
            "potential_gap": abs(potential - target),
            "tol": tol,
        },
        witness=witness,
    )


# ---------------------------------------------------------------------------
# the d = 2 simplex design
# ---------------------------------------------------------------------------


def _regular_simplex_r4() -> np.ndarray:
    """Five unit vectors in R^4 with pairwise dot -1/4, by factoring the
    simplex Gram matrix (deterministic: eigendecomposition order)."""
    g = 1.25 * np.eye(5) - 0.25 * np.ones((5, 5))
    w, v = np.linalg.eigh(g)
    coords = v[:, 1:] * np.sqrt(w[1:])
    return coords


def simplex_design_d2() -> QEnsemble:
    """Six unit vectors in H^2 forming a tight 2-design: e_1 together with
    (sqrt(2/5), sqrt(3/5) u_j) over a regular simplex of unit quaternions
    (pairwise Re(conj(u_a) u_b) = -1/4), realizing the 5-simplex picture."""
    us = _regular_simplex_r4()
    vecs = np.zeros((6, 2, 4))
    vecs[0, 0] = Q_ONE
    vecs[1:, 0, 0] = math.sqrt(2.0 / 5.0)
    vecs[1:, 1] = math.sqrt(3.0 / 5.0) * us
    return QEnsemble(vecs)


# ---------------------------------------------------------------------------
# frame-potential optimizer
# ---------------------------------------------------------------------------


def q_frame_potential(vectors: np.ndarray) -> float:
    """(1/n^2) sum_kl <x_k x_k*, x_l x_l*>^2 for an (n, d, 4) stack."""
    return _potential(_q_gram(vectors))


def _potential(gram: np.ndarray) -> float:
    """q_frame_potential of the vectors whose _q_gram is gram."""
    sq = qabs2(gram)
    n = gram.shape[0]
    return float(np.sum(sq * sq) / (n * n))


def q_potential_gradient(vectors: np.ndarray) -> np.ndarray:
    """Euclidean gradient of q_frame_potential in the real coordinates:
    grad_m = (8/n^2) sum_l |x_m* x_l|^2 . x_l (x_l* x_m).
    """
    return _gradient(vectors, _q_gram(vectors))


def _gradient(vectors: np.ndarray, ips: np.ndarray) -> np.ndarray:
    """q_potential_gradient given the Gram ips = _q_gram(vectors).

    Right multiplication x_l q is linear in q, so with the weights
    w[m, l] = |x_m* x_l|^2 (x_l* x_m) the sum is one (n, 4n) @ (4n, 4d)
    product against the stacked coefficient matrices of the x_l.
    """
    n, d = vectors.shape[:2]
    weights = qabs2(ips)[:, :, None] * ips.transpose(1, 0, 2)
    _, right_mul = _unit_products()
    right = (vectors.reshape(n * d, 4) @ right_mul).reshape(n, d, 4, 4)
    right = right.transpose(0, 2, 1, 3).reshape(4 * n, 4 * d)
    grad = weights.reshape(n, 4 * n) @ right
    return (8.0 / (n * n)) * grad.reshape(n, d, 4)


def _renormalize(vectors: np.ndarray) -> np.ndarray:
    norms = np.sqrt(np.sum(vectors * vectors, axis=(1, 2), keepdims=True))
    return vectors / norms


@dataclass
class OptimizeResult:
    ensemble: QEnsemble
    potential: float
    bound: float
    gap: float
    converged: bool
    trace: List[float] = field(default_factory=list)
    iterations: int = 0
    seed: int = 0


def optimize_design(
    d: int,
    n: int,
    seed: int = 0,
    iters: int = 2000,
) -> OptimizeResult:
    """Projected gradient descent on the product of unit spheres in H^d.

    Minimizes the second-moment potential toward its 2-design bound
    6/(2d(2d+1)).  Steps use a Barzilai–Borwein guess with Armijo
    backtracking (halving, constant 1e-4) and renormalization as the
    retraction; the recorded trace is monotone.  Failure to reach the
    bound is reported through `converged`/`gap`, never raised.
    """
    if d < 1 or n < 1:
        raise ValueError("d and n must be >= 1")
    rng = np.random.default_rng(seed)
    x = _renormalize(rng.standard_normal((n, d, 4)))
    bound = design_targets(d)[1]
    gram = _q_gram(x)  # of the current point, shared by its potential and gradient
    f = _potential(gram)
    trace = [f]
    step = 1.0
    prev_x = None
    prev_g = None
    it = 0
    for it in range(1, iters + 1):
        g = _gradient(x, gram)
        # tangent component on each sphere
        rad = np.sum(g * x, axis=(1, 2), keepdims=True)
        r = g - rad * x
        rnorm2 = float(np.sum(r * r))
        if rnorm2 < 1e-30 or f - bound <= GAP_TOL:
            break
        if prev_x is not None:
            s = (x - prev_x).ravel()
            dg = (g - prev_g).ravel()
            denom = float(s @ dg)
            if denom > 1e-300:
                step = float(s @ s) / denom
            step = min(max(step, 1e-12), 1e6)
        accepted = False
        t = step
        for _ in range(60):
            cand = _renormalize(x - t * r)
            cand_gram = _q_gram(cand)
            fc = _potential(cand_gram)
            if fc <= f - 1e-4 * t * rnorm2:
                prev_x, prev_g = x, g
                x, f, gram = cand, fc, cand_gram
                trace.append(f)
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
    gap = f - bound
    return OptimizeResult(
        ensemble=QEnsemble(x, check=False),
        potential=f,
        bound=bound,
        gap=gap,
        converged=gap <= 1e-8,
        trace=trace,
        iterations=it,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# coordinate bases for the dimension audit
# ---------------------------------------------------------------------------


def _matrix_basis(d: int, diagonal_units, sign: float) -> np.ndarray:
    """Real basis of the quaternion d x d matrices M with M* = sign M: each
    diagonal unit at each (i, i), then for i < j each unit u at (i, j)
    with sign conj(u) at (j, i)."""
    diagonal = [(i, i, u) for i in range(d) for u in diagonal_units]
    upper = [(i, j, u) for i in range(d) for j in range(i + 1, d) for u in (Q_ONE, Q_I, Q_J, Q_K)]
    out = []
    for i, j, u in diagonal + upper:
        m = np.zeros((d, d, 4))
        m[j, i] = sign * qconj(u)  # overwritten on the diagonal, where it equals u
        m[i, j] = u
        out.append(m)
    return np.array(out)


def hermitian_basis(d: int) -> np.ndarray:
    """Real basis of Hermitian quaternion d x d matrices: d diagonal units
    plus 4 C(d,2) off-diagonal pairs; d + 4 C(d,2) = d(2d-1) elements."""
    return _matrix_basis(d, (Q_ONE,), 1.0)


def anti_hermitian_basis(d: int) -> np.ndarray:
    """Real basis of anti-Hermitian quaternion matrices: 3d diagonal
    imaginary units plus 4 C(d,2) off-diagonal pairs; 3d + 4 C(d,2)."""
    return _matrix_basis(d, (Q_I, Q_J, Q_K), -1.0)
