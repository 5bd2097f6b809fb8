"""Tight frames, equiangular systems, and projective 2-designs over F_{q^2}.

All verifications here are exact: parameters are field elements, equalities
are coefficient-array comparisons, and every "check" either reproduces the
claimed constants or reports a concrete counterexample.  The three
quantities attached to an equiangular tight frame are

    a = common Hermitian norm <x_k, x_k>,
    b = common pair value <x_k, x_l><x_l, x_k>  (a (q+1)-power, lives in F_q),
    c = tightness constant in sum_k x_k x_k* = c I.

A 2-design is a c2-tight frame of the lifted vectors x_k (x) x_k for the
symmetric subspace.  Two independent verification routes are provided on
two kernels: the dense route takes T as the frame operator of the lifted
vectors, the blockwise route a matrix product for the map's matrix Psi.
S, T and Psi are each compared with a scalar times a fixed target.  A
parameter certificate route covers ensembles far too large to verify
directly.  A Gabor ensemble that its metadata rebuilds gets a, b, c and c2
from its difference set instead, with no inner product.

An FFEnsemble's data and metadata are read-only, so a private memo can keep
every fact the claims share for the ensemble's life: the tightness
constant, whether the Gabor metadata rebuilds the data, and the ETF verdict.
`verify_etf` alone picks the ETF route (structural when that rebuild
matches exactly, else the full Gram), so the ETF and design claims share
one verdict.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .ffcore import (
    FieldCtx,
    FieldElement,
    build_field,
    factorize,
    frobenius,
    is_prime_power,
    primitive_element,
    root_of_unity,
    subfield_trace,
)
from .fflinalg import (
    BudgetExceeded,
    EvenCharacteristic,
    frobenius_array,
    rank,
    nullspace,
    sym_projector,
)

NAIVE_MULTIPLY_BUDGET = 10**8
PSI_MULTIPLY_BUDGET = 10**9
_PAIR_CHUNK = 4096  # pairs whose products and (q+1)-powers are formed at once


class DesignError(Exception):
    pass


class PreconditionViolated(DesignError):
    pass


class ZeroC2(DesignError):
    pass


class NotPrimePower(DesignError):
    pass


class DivisibilityViolated(DesignError):
    pass


class MetadataMissing(DesignError):
    pass


class InvalidDifferenceSet(DesignError):
    pass


# ---------------------------------------------------------------------------
# difference sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceSet:
    """Subset D of Z/dZ whose nonzero differences are perfectly uniform."""

    modulus: int
    elements: Tuple[int, ...]
    lam: int

    @classmethod
    def create(cls, modulus: int, elements: Sequence[int]) -> "DifferenceSet":
        elems = tuple(sorted(e % modulus for e in elements))
        if len(set(elems)) != len(elems):
            raise InvalidDifferenceSet("repeated elements")
        lam = verify_difference_set(modulus, elems)
        return cls(modulus, elems, lam)

    def __len__(self):
        return len(self.elements)


def verify_difference_set(modulus: int, elements: Sequence[int]) -> int:
    """Exhaustively count pairwise differences; return the common count.

    The m(m - 1) differences cover each of the modulus - 1 nonzero residues
    lam >= 1 times, so a larger modulus is rejected before counting, and
    the count list never outgrows the element pairs.
    """
    m = len(elements)
    if modulus - 1 > m * (m - 1):
        raise InvalidDifferenceSet(
            f"{m} elements have {m * (m - 1)} differences, fewer than the "
            f"{modulus - 1} nonzero residues mod {modulus}"
        )
    counts = [0] * modulus
    for x in elements:
        for y in elements:
            if x != y:
                counts[(x - y) % modulus] += 1
    if counts[0] != 0:
        raise InvalidDifferenceSet("elements not distinct mod modulus")
    nonzero = counts[1:]
    if not nonzero:
        raise InvalidDifferenceSet("need modulus >= 2")
    lam = nonzero[0]
    if any(c != lam for c in nonzero):
        raise InvalidDifferenceSet(
            f"difference counts not uniform: min {min(nonzero)}, max {max(nonzero)}"
        )
    return lam


def singer_difference_set(r: int) -> DifferenceSet:
    """Planar difference set mod r^2+r+1 from the trace-zero points of PG(2,r).

    Canonical form: translated so that 0 is a member and the sorted tuple is
    lexicographically least among all translates.
    """
    factors = factorize(r)
    if len(factors) != 1:
        raise NotPrimePower(f"{r} is not a prime power")
    ((p0, e),) = factors.items()
    d = r * r + r + 1
    ctx = build_field(p0, 3 * e)
    beta = primitive_element(ctx)
    raw = []
    z = ctx.one()
    for i in range(d):
        if subfield_trace(z).is_zero():
            raw.append(i)
        z = z * beta
    best = None
    for t in raw:
        cand = tuple(sorted((x - t) % d for x in raw))
        if best is None or cand < best:
            best = cand
    return DifferenceSet.create(d, best)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


class FFEnsemble:
    """A finite list of vectors in F_{q^2}^d with optional construction data.

    data has shape (n, d, K), is read-only, and the ensemble owns it.  It
    is a C-contiguous uint16 array for every field: `build_field` rejects
    p >= 2^16, so two bytes hold any residue, a quarter of int64 (the
    d = 73 ensemble's 9.3 M coefficients take 19 MB, not 75 MB).  The
    kernels convert only the chunk or row block they use.  The constructor
    stores a reduced copy of what the caller passes, so a later write to
    the caller's array changes nothing here.  Only `gabor_ensemble` and the
    canonical file reader hand over a uint16 array they have just built,
    through `_adopt`, which skips that copy.  metadata
    (when present) records how the ensemble was built, e.g. Gabor parameters
    {p, k, r, D, alpha, omega}.  It is stored as a read-only deep copy:
    mappings become MappingProxyType, and lists and numpy arrays become tuples.
    """

    __slots__ = ("ctx", "data", "metadata", "_memo")

    def __init__(self, ctx: FieldCtx, data, metadata: Optional[Mapping] = None):
        arr = np.asarray(data, dtype=np.int64) % ctx.p
        self._own(ctx, np.ascontiguousarray(arr, dtype=np.uint16), metadata)

    @classmethod
    def _adopt(cls, ctx: FieldCtx, arr: np.ndarray, metadata=None) -> "FFEnsemble":
        """An ensemble that takes arr itself as its data, with no reduction or copy.

        arr must be a C-contiguous uint16 array with entries in [0, p) that no
        caller holds or writes afterwards; it is made read-only here.
        """
        if arr.dtype != np.uint16 or not arr.flags.c_contiguous:
            raise ValueError("only a C-contiguous uint16 array can be adopted")
        ens = cls.__new__(cls)
        ens._own(ctx, arr, metadata)
        return ens

    def _own(self, ctx: FieldCtx, arr: np.ndarray, metadata) -> None:
        if arr.ndim != 3 or arr.shape[2] != ctx.deg:
            raise ValueError(f"expected (n, d, {ctx.deg}) array, got {arr.shape}")
        arr.flags.writeable = False
        self.ctx = ctx
        self.data = arr
        self.metadata = _read_only(metadata or {})
        self._memo = {}

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def __repr__(self):
        return f"FFEnsemble(n={self.n}, d={self.d}, p={self.ctx.p}, k={self.ctx.deg})"


def _read_only(v):
    """A deep copy of a metadata value that no caller can mutate (FieldElement is immutable)."""
    if isinstance(v, Mapping):
        return MappingProxyType({k: _read_only(x) for k, x in v.items()})
    if isinstance(v, np.ndarray):
        return _read_only(v.tolist())
    if isinstance(v, (list, tuple)):
        return tuple(_read_only(x) for x in v)
    return v


def _memoized(ens: FFEnsemble, key: str, compute: Callable):
    """The ensemble's value for key, computed on first use; arrays are read-only."""
    if key not in ens._memo:
        value = ens._memo[key] = compute()
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return ens._memo[key]


def _norm_values(ens: FFEnsemble, ips: np.ndarray) -> np.ndarray:
    """(q+1)-powers frob(z) * z of a batch of inner products (m, K)."""
    ctx = ens.ctx
    return kernels.mul_batch(frobenius_array(ctx, ips), ips, ctx.red, ctx.p)


def _pair_inner(ens: FFEnsemble, ki: np.ndarray, kj: np.ndarray) -> np.ndarray:
    """<x_{ki[m]}, x_{kj[m]}> for index arrays, conjugating the first slot."""
    ctx = ens.ctx
    return kernels.gather_dot(ens.data, ens.data, ki, kj, ctx.red, ctx.p, ctx.conj_matrix())


def _first_off_pair(ens: FFEnsemble, pairs, want: np.ndarray) -> Optional[Tuple[int, int]]:
    """The first pair (i, j) whose (q+1)-power of <x_i, x_j> is not want, or None.

    pairs yields (ki, kj) index chunks of at most _PAIR_CHUNK pairs, so
    the products and (q+1)-powers of one chunk are all that is held.
    """
    for ki, kj in pairs:
        bad = np.flatnonzero(np.any(_norm_values(ens, _pair_inner(ens, ki, kj)) != want, axis=1))
        if bad.size:
            return int(ki[bad[0]]), int(kj[bad[0]])
    return None


def _upper_pairs(n: int):
    """The pairs i < j of np.triu_indices(n, 1), in its order, as (ki, kj) chunks."""
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))  # row i's first pair
    total = int(starts[-1])
    for lo in range(0, total, _PAIR_CHUNK):
        t = np.arange(lo, min(lo + _PAIR_CHUNK, total))
        ki = np.searchsorted(starts, t, side="right") - 1
        yield ki, t - starts[ki] + ki + 1


def _rank_one_matrices(ens: FFEnsemble) -> np.ndarray:
    """The matrices x_k x_k* as an (n, d^2, K) array, entry i*d+j = x_k[i] frob(x_k[j])."""
    ctx, x = ens.ctx, ens.data
    xx = kernels.mul_batch(x[:, :, None], frobenius_array(ctx, x)[:, None], ctx.red, ctx.p)
    return xx.reshape(ens.n, ens.d**2, ctx.deg)


# ---------------------------------------------------------------------------
# tight frames
# ---------------------------------------------------------------------------


def check_tight_frame(ens: FFEnsemble) -> Optional[FieldElement]:
    """Return c with sum_k x_k x_k* = c I, or None if the ensemble is not tight.

    On an ensemble that its Gabor metadata rebuilds exactly, c = d |D| is
    derived from the difference set: the rebuild's construction has
    checked that omega has order d and that frob(omega) omega = 1 (see
    `_weyl_heisenberg_preconditions` and `tight_frame_route`).  Every other
    ensemble gets the exact frame operator.  When c = 0 tightness alone
    says nothing, so on either route the spanning condition is checked by
    a rank, on a prefix of the vectors when one suffices; for c != 0 it is
    implied.  In dimension 0 every c fits, so none is reported.  The
    answer is computed once per ensemble.
    """
    return _memoized(ens, "tight", lambda: _tight_constant(ens))


def tight_frame_route(ens: FFEnsemble) -> str:
    """The route `check_tight_frame` takes: "weyl-heisenberg" or "frame-operator"."""
    return "weyl-heisenberg" if _rebuilds_gabor(ens) else "frame-operator"


def _tight_constant(ens: FFEnsemble) -> Optional[FieldElement]:
    ctx, d = ens.ctx, ens.d
    if _rebuilds_gabor(ens):
        c = ctx.scalar(d * len(ens.metadata["D"]))
    else:
        s = kernels.frame_operator(ens.data, ctx.conj_matrix(), ctx.red, ctx.p)
        c = _multiple_of(ctx, s, np.eye(d, dtype=np.int64))
    if c is not None and c.is_zero() and not _spans(ctx, ens.data, d):
        return None
    return c


def _multiple_of(ctx: FieldCtx, s: np.ndarray, target: np.ndarray) -> Optional[FieldElement]:
    """c with s = c target, or None.

    s is a (D, D, K) field array and target a (D, D) array over F_p with
    target[0, 0] = 1, so c can only be s[0, 0].  An empty s has no c.
    """
    if s.size == 0:
        return None
    c = FieldElement(ctx, s[0, 0])
    return c if np.array_equal(s, target[:, :, None] * c.coeffs % ctx.p) else None


def _spans(ctx: FieldCtx, rows: np.ndarray, dim: int) -> bool:
    """Whether the rows, which lie in a space of dimension dim, span it.

    Their rank cannot exceed dim, so `rank` may stop there.
    """
    return rank(ctx, rows, max_pivots=dim) == dim


def _weyl_heisenberg_preconditions(d: int, omega: FieldElement) -> None:
    """Check what the counting identities on D need of omega.

    They are about the Gabor system x_{s d + t}[i] = omega^(s i) 1_D(i - t),
    s, t mod d.  Summing over the modulations s leaves
    sum_s omega^(s m) = d [m = 0] when omega has order exactly d, and
    x* conjugates omega^(s i) to omega^(-s i) when frob(omega) = omega^-1,
    so S = d |D| I and T = sum_k (x_k (x) x_k)(x_k (x) x_k)* has entries
    T[(i,j),(i',j')] = d [i+j = i'+j'] #{t : i-t, j-t, i'-t, j'-t in D}.
    The order of omega divides q^2 - 1, so p never divides d once it holds.
    `_gabor_parts` runs it on every construction and rebuild.
    PreconditionViolated names the check that fails.
    """
    one = omega.ctx.one()
    if omega**d != one or any(omega ** (d // ell) == one for ell in factorize(d)):
        raise PreconditionViolated(f"omega does not have order d = {d}")
    if frobenius(omega) * omega != one:
        raise PreconditionViolated("frob(omega) omega != 1")


def _weyl_heisenberg_c2(p: int, d: int, elements: Sequence[int]) -> Optional[int]:
    """c2 with T = c2 Pi for the Gabor system on the window D, or None, mod odd p.

    Valid once `_weyl_heisenberg_preconditions` holds.  Orbit reduction
    makes the d x d array C[s', j] = #{u in D : s'+u, j+u, s'-j+u in D}
    decide T = c2 Pi: d C[s', j] = (c2/2)(delta_{j,0} + delta_{j,s'}) mod p
    (Weyl-Heisenberg covariance; Renes, Blume-Kohout, Scott and Caves
    2004).  C[0, 0] = |D|, so c2 = c = d |D| whenever it exists.
    """
    if p == 2:
        raise EvenCharacteristic("c2/2 needs odd characteristic")
    support = np.zeros(d, dtype=bool)
    support[np.asarray(elements, dtype=np.int64) % d] = True
    window = np.flatnonzero(support)
    c = d * window.size % p
    # each (u, a, b) in D^3 with a + b - u in D adds 1 to C[a + b - 2u, a - u]
    u, a, b = np.meshgrid(window, window, window, indexing="ij")
    hit = support[(a + b - u) % d]
    flat = ((a + b - 2 * u) % d) * d + (a - u) % d
    counts = np.bincount(flat[hit], minlength=d * d).reshape(d, d)
    s, j = np.ogrid[:d, :d]
    half = c * (p + 1) // 2 % p
    expected = half * ((j == 0).astype(np.int64) + (j == s)) % p
    return c if np.array_equal(d * counts % p, expected) else None


# ---------------------------------------------------------------------------
# equiangular tight frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EtfCheck:
    """Outcome of an ETF verification: params or a concrete counterexample."""

    params: Optional[Tuple[FieldElement, FieldElement, FieldElement]]
    counterexample: Optional[Tuple[str, int, int]] = None
    method: str = "full-gram"  # the route: "full-gram" or "structural-gabor"

    def __bool__(self) -> bool:
        return self.params is not None


def check_etf(ens: FFEnsemble) -> EtfCheck:
    """Verify equal norms a, common pair value b, tightness c, exhaustively.

    All n^2 inner products are formed, the pair values _PAIR_CHUNK pairs
    at a time, and the first pair whose value differs from that of (0, 1)
    is the counterexample.  c and the ETF identities come from
    `_tight_etf`.
    """
    ctx = ens.ctx
    n = ens.n
    if n < 2:
        return EtfCheck(None, ("too-few-vectors", 0, 0))
    idx = np.arange(n)
    norms = _pair_inner(ens, idx, idx)
    a = FieldElement(ctx, norms[0])
    bad = np.nonzero(np.any(norms != norms[0], axis=1))[0]
    if bad.size:
        return EtfCheck(None, ("norm", 0, int(bad[0])))
    ip01 = _pair_inner(ens, np.array([0]), np.array([1]))
    b = FieldElement(ctx, _norm_values(ens, ip01)[0])
    off = _first_off_pair(ens, _upper_pairs(n), b.coeffs)
    if off is not None:
        return EtfCheck(None, ("angle", *off))
    return _tight_etf(ens, a, b, "full-gram")


def _tight_etf(ens: FFEnsemble, a: FieldElement, b: FieldElement, method: str) -> EtfCheck:
    """The ETF verdict on verified (a, b), with c from `check_tight_frame`.

    A tight frame it accepts spans F^d, so n a = c d and a(c - a) = (n-1) b
    hold for any ETF; a failure is an arithmetic bug.
    """
    ctx, n = ens.ctx, ens.n
    c = check_tight_frame(ens)
    if c is None:
        return EtfCheck(None, ("tightness", 0, 0), method)
    if ctx.scalar(n) * a != c * ctx.scalar(ens.d):
        raise DesignError("internal: trace identity n a = c dim failed")
    if a * (c - a) != ctx.scalar(n - 1) * b:
        raise DesignError("internal: row-sum identity a(c-a) = (n-1) b failed")
    return EtfCheck((a, b, c), method=method)


def gram_sample_check(
    ens: FFEnsemble,
    a: FieldElement,
    b: FieldElement,
    pairs: int = 100_000,
    seed: int = 0,
) -> bool:
    """Spot-check (a, b) on random pairs, drawn up front, _PAIR_CHUNK at a time.

    The structural route takes a rebuilt Gabor ensemble's (a, b) from D,
    so this is the check of those values on its vectors.
    """
    rng = np.random.default_rng(seed)
    n = ens.n
    if n == 0:
        return True  # no vector to draw: both checks are vacuous
    if n >= 2:  # with no pairs the b check is vacuous
        ki = rng.integers(0, n, size=pairs)
        kj = rng.integers(0, n, size=pairs)
        same = ki == kj
        kj[same] = (kj[same] + 1 + rng.integers(0, n - 1, size=int(same.sum()))) % n
        chunks = (
            (ki[lo : lo + _PAIR_CHUNK], kj[lo : lo + _PAIR_CHUNK])
            for lo in range(0, pairs, _PAIR_CHUNK)
        )
        if _first_off_pair(ens, chunks, b.coeffs) is not None:
            return False
    some = rng.integers(0, n, size=min(pairs, 4096))
    norms = _pair_inner(ens, some, some)
    return not np.any(norms != a.coeffs)


# ---------------------------------------------------------------------------
# Gerzon-type bound and span structure
# ---------------------------------------------------------------------------


@dataclass
class GerzonReport:
    n: int
    d: int
    bound_holds: bool
    span_checked: bool = False
    span_dim: Optional[int] = None
    span_expected: Optional[int] = None
    unique_dependency: Optional[bool] = None
    note: str = ""


def check_gerzon(ens: FFEnsemble, a: FieldElement, b: FieldElement) -> GerzonReport:
    """n <= d^2 for an (a, b)-equiangular system with a^2 != b.

    At n = d^2 the rank-one matrices are additionally checked to span the
    Hermitian space (a != 0) or the traceless Hermitian space with the
    all-ones vector as the unique dependency (a = 0).  The span check is
    skipped above the elimination budget.  The entries of x_k x_k* are ranked
    over F_{q^2} as they are: the diagonal lies in F_q, and each off-diagonal
    pair (e, frob(e)) with e = u + alpha v is an invertible F_{q^2}-linear
    image of the F_q coordinates (u, v), so rank and dependencies are those
    of the Hermitian span over F_q.
    """
    if a * a == b:
        raise PreconditionViolated("a^2 = b carries no bound")
    n, d = ens.n, ens.d
    report = GerzonReport(n=n, d=d, bound_holds=n <= d * d)
    if not report.bound_holds or n != d * d:
        return report
    if n == 0:
        report.note = "empty ensemble: no span to check"
        return report
    if n * d**4 > NAIVE_MULTIPLY_BUDGET:
        report.note = "span check skipped: over elimination budget"
        return report
    ctx = ens.ctx
    # one elimination: rank(xx) = n minus the number of dependencies among the rows
    ns = nullspace(ctx, _rank_one_matrices(ens).transpose(1, 0, 2))
    report.span_checked = True
    report.span_dim = n - ns.shape[0]
    if a.is_zero():
        report.span_expected = d * d - 1
        # nullspace writes 1 at the free column, so a multiple of all-ones is all-ones
        report.unique_dependency = ns.shape[0] == 1 and bool(np.all(ns[0] == ctx.one().coeffs))
    else:
        report.span_expected = d * d
    return report


# ---------------------------------------------------------------------------
# 2-design verification (two independent routes on two kernels)
# ---------------------------------------------------------------------------


def _lifted_vectors(ens: FFEnsemble) -> np.ndarray:
    """x_k (x) x_k as an (n, d^2, K) array."""
    ctx, x = ens.ctx, ens.data
    out = kernels.mul_batch(x[:, :, None], x[:, None], ctx.red, ctx.p)
    return out.reshape(ens.n, ens.d**2, ctx.deg)


def check_2design_naive(ens: FFEnsemble) -> Optional[FieldElement]:
    """Dense route: T = sum_k (x_k (x) x_k)(x_k (x) x_k)* compared to c2 Pi.

    T is the frame operator of the lifted vectors.
    """
    ctx = ens.ctx
    if ctx.p == 2:
        raise EvenCharacteristic("2-design verification needs odd characteristic")
    n, d = ens.n, ens.d
    if n * d**4 > NAIVE_MULTIPLY_BUDGET:
        raise BudgetExceeded(f"naive route cost n d^4 = {n * d ** 4} over budget")
    lifted = _lifted_vectors(ens)
    t = kernels.frame_operator(lifted, ctx.conj_matrix(), ctx.red, ctx.p)
    c2 = _multiple_of(ctx, t, sym_projector(ctx, d))
    if c2 is not None and c2.is_zero() and not _spans(ctx, lifted, d * (d + 1) // 2):
        return None  # the lifted vectors lie in Sym
    return c2


def check_2design_psi(ens: FFEnsemble) -> Optional[FieldElement]:
    """Blockwise route via the map A -> sum_k (x_k* A x_k) x_k x_k*.

    On the matrix units the map must return (c2/2)(e_j e_i* + delta_ij I),
    so the (d^2, d^2) matrix Psi of the map must be c2 times
    (SWAP + [i = j][i' = j'])/2, Pi with its indices realigned.
    Mathematically equivalent to the dense route and organized as d^2
    blocks; the cost is the same (d^2, n) @ (n, d^2) product.
    """
    ctx = ens.ctx
    if ctx.p == 2:
        raise EvenCharacteristic("2-design verification needs odd characteristic")
    n, d = ens.n, ens.d
    if n * d**4 > PSI_MULTIPLY_BUDGET:
        raise BudgetExceeded(f"n d^4 = {n * d ** 4} > {PSI_MULTIPLY_BUDGET}")
    # the rank-one matrices are also the blocks' coefficients
    x = _rank_one_matrices(ens)
    psi = kernels.matmul(x.transpose(1, 0, 2), x, ctx.red, ctx.p)  # (d^2, d^2, K)
    i, j = np.divmod(np.arange(d * d), d)
    # ints before the sum: bool + bool would be OR
    pattern = ((j * d + i)[:, None] == i * d + j).astype(np.int64) + np.outer(i == j, i == j)
    c2 = _multiple_of(ctx, psi, pattern * ((ctx.p + 1) // 2) % ctx.p)
    if c2 is not None and c2.is_zero() and not _spans(ctx, _lifted_vectors(ens), d * (d + 1) // 2):
        return None
    return c2


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


@dataclass
class FFCertificate:
    """Verified claims about one ensemble, with exact parameter values.

    Every value reported here was recomputed from the ensemble by the
    method named in `method`; failure reasons are recorded rather than
    raised so that partial claims (e.g. ETF without design) survive.
    """

    n: int
    d: int
    method: str = ""
    etf: Optional[Tuple[FieldElement, FieldElement, FieldElement]] = None
    design: Optional[Tuple[FieldElement, FieldElement, FieldElement]] = None
    failures: List[str] = field(default_factory=list)
    cross_checks: List[str] = field(default_factory=list)

    @property
    def is_design(self) -> bool:
        return self.design is not None


def certify_tight_2design(ens: FFEnsemble) -> FFCertificate:
    """Parameter-condition route to a design certificate.

    An ETF whose (a, b, c1) satisfy a^2 != b together with
    a(a^2 - b) = b c1 (for a != 0) or d = -1 mod p (for a = 0) is an
    (a, c1, c2)-design with c2 = 2(a^2 - b).  ETF parameters come from
    `verify_etf`, the memoized verdict that the ETF claim reports too.
    Within budget the blockwise route re-verifies c2.  On an ensemble that
    its Gabor metadata rebuilds (the structural route), whose construction
    checked omega, the Weyl-Heisenberg count array on D re-verifies c2 at
    any size, and its tightness constant c1 = d |D| comes from D too
    (`check_tight_frame`).  A route that disagrees raises DesignError.
    """
    ctx = ens.ctx
    n, d = ens.n, ens.d
    res = verify_etf(ens)
    method = res.method if res.method == "structural-gabor" else "parameter-conditions"
    cert = FFCertificate(n=n, d=d, method=method)
    if not res:
        cert.failures.append(f"not an ETF: counterexample {res.counterexample}")
        return cert
    a, b, c1 = res.params
    cert.etf = (a, b, c1)
    if ctx.p == 2:
        cert.failures.append(
            "even characteristic: design criterion needs odd q (EvenCharacteristic)"
        )
        return cert
    if n != d * d:
        cert.failures.append(f"n = {n} != d^2 = {d * d}")
        return cert
    if a * a == b:
        cert.failures.append("a^2 = b: degenerate angle, no design conclusion")
        return cert
    if not a.is_zero():
        if a * (a * a - b) != b * c1:
            cert.failures.append("parameter identity a(a^2-b) = b c1 fails")
            return cert
    else:
        if (d + 1) % ctx.p != 0:
            cert.failures.append(f"a = 0 needs d = -1 mod p; d = {d}, p = {ctx.p}")
            return cert
    c2 = ctx.scalar(2) * (a * a - b)
    cert.design = (a, c1, c2)
    # soundness invariants of the certificate route
    if a.is_zero() != c1.is_zero():
        raise DesignError("internal: a = 0 iff c1 = 0 violated on a certified design")
    try:
        got = check_2design_psi(ens)
    except BudgetExceeded as exc:
        cert.cross_checks.append(f"psi-route skipped: {exc}")
    else:
        if got is None or got != c2:
            raise DesignError("internal: blockwise route contradicts certificate")
        cert.cross_checks.append("psi-route agrees")
    if method == "structural-gabor":
        wh_c2 = _weyl_heisenberg_c2(ctx.p, d, ens.metadata["D"])
        if wh_c2 is None or ctx.scalar(wh_c2) != c2:
            raise DesignError("internal: weyl-heisenberg route contradicts certificate")
        cert.cross_checks.append("weyl-heisenberg route agrees")
    return cert


def decomposition_check(ens: FFEnsemble, c2: FieldElement, a_mat: np.ndarray) -> bool:
    """Audit the reconstruction A = (2/c2) sum_k x_k x_k* A x_k x_k* - tr(A) I.

    a_mat is a (d, d, K) coefficient array.
    """
    if c2.is_zero():
        raise ZeroC2("reconstruction needs c2 != 0")
    ctx, d = ens.ctx, ens.d
    a = np.asarray(a_mat, dtype=np.int64) % ctx.p
    xs = ens.data
    xf = frobenius_array(ctx, xs)
    t1 = kernels.matmul(xf, a, ctx.red, ctx.p)  # (n, d, K)
    w = kernels.dot_batch(t1, xs, ctx.red, ctx.p)  # w_k = x_k* A x_k
    scaled = kernels.mul_batch(w[:, None], xs, ctx.red, ctx.p)
    m = kernels.matmul(scaled.transpose(1, 0, 2), xf, ctx.red, ctx.p)  # sum_k w_k x_k x_k*
    factor = ctx.scalar(2) / c2
    rhs = kernels.mul_batch(m, factor.coeffs, ctx.red, ctx.p)
    diag = np.arange(d)
    rhs[diag, diag] = (rhs[diag, diag] - a[diag, diag].sum(axis=0)) % ctx.p
    return np.array_equal(rhs, a)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def gabor_ensemble(p: int, k: int, r: int) -> FFEnsemble:
    """Time-frequency shifts of a difference-set indicator in F_{q^2}^d.

    d = r^2 + r + 1; requires p | r - 1 and d | p^k + 1.  The vector at
    index s*d + t is (M^s T^t 1_D)(x) = omega^{s x} 1_D(x - t) where omega
    has order d in F_{q^2}.  The construction checks that order and
    frob(omega) omega = 1 (`_weyl_heisenberg_preconditions`), which the
    Weyl-Heisenberg identities and `structural_gabor_verify` rely on.
    """
    ctx, pows, support, meta = _gabor_parts(p, k, r)
    d = support.shape[0]
    vecs = np.empty((d, d, d, ctx.deg), dtype=np.uint16)  # fresh, entries in [0, p)
    for s in range(d):
        _gabor_block(pows, support, s, out=vecs[s])
    return FFEnsemble._adopt(ctx, vecs.reshape(d * d, d, ctx.deg), meta)


def _powers(z: FieldElement, m: int) -> np.ndarray:
    """z^0, ..., z^(m-1) as an (m, K) uint16 array, the dtype of ensemble data."""
    pows = np.zeros((m, z.ctx.deg), dtype=np.uint16)
    w = z.ctx.one()
    for i in range(m):
        pows[i] = w.coeffs
        w = w * z
    return pows


def _gabor_parts(p: int, k: int, r: int):
    """(ctx, pows, support, metadata) of gabor_ensemble(p, k, r).

    pows[m] = omega^m and support[t, x] = 1_D(x - t), both uint16, the
    dtype of ensemble data; `_gabor_block` makes one block of d vectors.
    """
    d = r * r + r + 1
    if (r - 1) % p != 0:
        raise DivisibilityViolated(f"p = {p} does not divide r - 1 = {r - 1}")
    if (p**k + 1) % d != 0:
        raise DivisibilityViolated(f"d = {d} does not divide p^k + 1")
    ds = singer_difference_set(r)
    ctx = build_field(p, 2 * k)
    alpha = primitive_element(ctx)
    omega = root_of_unity(ctx, d)
    _weyl_heisenberg_preconditions(d, omega)
    pows = _powers(omega, d)
    support = np.zeros((d, d), dtype=np.uint16)
    for t in range(d):
        support[t, (np.asarray(ds.elements) + t) % d] = 1
    meta = {
        "kind": "gabor",
        "p": p,
        "k": k,
        "r": r,
        "D": ds.elements,
        "alpha": alpha,
        "omega": omega,
    }
    return ctx, pows, support, meta


def _gabor_block(pows: np.ndarray, support: np.ndarray, s: int, out=None) -> np.ndarray:
    """The vectors s*d + t, t < d, as a (d, d, K) array: omega^{s x} 1_D(x - t)."""
    d = support.shape[0]
    return np.multiply(pows[s * np.arange(d) % d], support[:, :, None], out=out)


def _rebuilds_gabor(ens: FFEnsemble) -> bool:
    """True when the metadata is of kind "gabor" and gabor_ensemble(p, k, r)
    from it reproduces ens exactly.

    Data and metadata are read-only, so the verdict holds for the ensemble's life.
    """
    return _memoized(ens, "rebuilds", lambda: _rebuild_matches(ens))


def _rebuild_matches(ens: FFEnsemble) -> bool:
    meta, d = ens.metadata, ens.d
    if meta.get("kind") != "gabor":
        return False
    p, k, r = (meta.get(key) for key in ("p", "k", "r"))
    if not all(isinstance(v, int) for v in (p, k, r)):
        return False
    if (r * r + r + 1, d * d, p, 2 * k) != (d, ens.n, ens.ctx.p, ens.ctx.deg):
        return False
    try:
        ctx, pows, support, ref_meta = _gabor_parts(p, k, r)
    except (DivisibilityViolated, NotPrimePower, PreconditionViolated):
        return False
    same_meta = all(ref_meta[key] == meta.get(key) for key in ("D", "alpha", "omega"))
    if ctx is not ens.ctx or not same_meta:
        return False
    blocks = ens.data.reshape(d, d, d, ctx.deg)  # one block of d vectors per phase s
    return all(np.array_equal(blocks[s], _gabor_block(pows, support, s)) for s in range(d))


def structural_gabor_verify(ens: FFEnsemble) -> EtfCheck:
    """ETF parameters of a rebuilt Gabor ensemble from its difference set.

    x_{s d + t}[i] = omega^(s i) 1_D(i - t), and D has lam = 1 (a Singer
    set is planar), so a = <x_k, x_k> = |D|.  For t != t' the supports
    D + t and D + t' meet in lam points, so <x_k, x_l> is one power of
    omega, whose (q+1)-power is 1.  For t = t' and e = s' - s != 0 it is
    sum_{u,v in D} omega^(e(u-v)) = |D| + lam sum_{m != 0} omega^(e m)
    = |D| - lam, as the d-th roots of unity sum to 0.  The two agree:
    b = |D| - lam = r = 1 mod p.  Each fact is checked in code.
    `_gabor_parts`, which every rebuild runs, checks that omega has order
    d and frob(omega) omega = 1 (`_weyl_heisenberg_preconditions`) and
    that p | r - 1; the rebuild checks that the data is the construction
    (same field, D, alpha, omega and vectors), else MetadataMissing is
    raised; `DifferenceSet.create` counts lam.  c = d |D| comes from
    `check_tight_frame`, and `_tight_etf` asserts the ETF identities.  No
    inner product is formed; `gram_sample_check` tests (a, b) on the data.
    """
    if ens.metadata.get("kind") != "gabor":
        raise MetadataMissing("structural verification needs Gabor metadata")
    if not _rebuilds_gabor(ens):
        raise MetadataMissing("Gabor metadata does not rebuild the ensemble's data")
    ctx, ds = ens.ctx, DifferenceSet.create(ens.d, ens.metadata["D"])
    return _tight_etf(ens, ctx.scalar(len(ds)), ctx.scalar(len(ds) - ds.lam), "structural-gabor")


def verify_etf(ens: FFEnsemble) -> EtfCheck:
    """ETF verification by the cheapest sound route, named in the result's method.

    The structural route when Gabor metadata rebuilds the data, the full
    Gram (`check_etf`) for every other ensemble.  The verdict is computed
    once per ensemble.
    """
    return _memoized(
        ens, "etf", lambda: structural_gabor_verify(ens) if _rebuilds_gabor(ens) else check_etf(ens)
    )


def harmonic_etf(ctx: FieldCtx, ds: DifferenceSet) -> FFEnsemble:
    """Columns of the character table restricted to difference-set rows.

    d vectors in F_{q^2}^{|D|}; an (|D|, |D|-lambda, d)-ETF as residues.
    """
    d = ds.modulus
    omega = root_of_unity(ctx, d)
    pows = _powers(omega, d)
    rows = np.asarray(ds.elements)
    cols = np.arange(d)
    data = pows[np.outer(rows, cols) % d]  # (|D|, d, K)
    return FFEnsemble(ctx, data.transpose(1, 0, 2), {"kind": "harmonic", "D": ds.elements})


# ---------------------------------------------------------------------------
# parameter search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchRow:
    d: int
    p: int
    k: int
    r: int
    design: bool


def _primes_upto(m: int) -> List[int]:
    sieve = np.ones(m + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(m**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    return [int(i) for i in np.nonzero(sieve)[0]]


def param_search(p_max: int, k_max: int, r_max: int) -> List[SearchRow]:
    """All (p, k, r) with p | r-1 and r^2+r+1 | p^k+1, k minimal, in bounds.

    The design flag marks p > 3: those instances meet the parameter
    conditions of the certificate route (4 = a^2 != b = 1 needs p > 3, and
    a(a^2-b) = b c1 holds identically for this family).
    """
    if p_max < 1 or k_max < 1 or r_max < 1:
        raise ValueError("bounds must be positive")
    rows = []
    primes = _primes_upto(p_max)
    for r in filter(is_prime_power, range(2, r_max + 1)):
        d = r * r + r + 1
        for p in primes:
            if (r - 1) % p != 0:
                continue
            found = None
            v = p % d
            for k in range(1, k_max + 1):
                if v == d - 1:
                    found = k
                    break
                v = (v * p) % d
            if found is not None:
                rows.append(SearchRow(d=d, p=p, k=found, r=r, design=p > 3))
    rows.sort(key=lambda row: (row.d, row.p))
    return rows
