"""Finite-field tower F_p < F_q < F_{q^2} with exact, deterministic arithmetic.

A field context represents F_{p^k} as F_p[x]/(f) where f is the first monic
irreducible polynomial of degree k in ascending base-p integer order of its
coefficient vector (constant term least significant).  Elements are length-k
coefficient vectors of residues mod p, constant term first.

Reduction mod f goes through one matrix, `red`, whose row j is x^(k+j) mod
f: a product's high coefficients fold back through it (`_mulmod`, and every
kernel).  Division appears only in Euclid (`_poly_euclid`), which gives
inverses and the gcd of the irreducibility test, and powers are one
square-and-multiply (`_power`).

Quadratic towers are handled by building F_{q^2} = F_{p^(2k)} as a single
degree-2k extension of F_p; the subfield F_q is the fixed field of the
q-power map, which is F_p-linear and applied through a precomputed matrix.
Cubic towers (used for the trace construction of planar difference sets)
work the same way with the r-power map.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Optional

import numpy as np

MAX_DEGREE = 64
MAX_PRIME = 1 << 16


class FieldError(Exception):
    """Base class for field-construction and arithmetic failures."""


class NonPrimeModulus(FieldError):
    pass


class DegreeZero(FieldError):
    pass


class SizeBudgetExceeded(FieldError):
    pass


class ZeroInverse(FieldError):
    pass


class ContextMismatch(FieldError):
    pass


class NotQuadraticExtension(FieldError):
    pass


class NotCubicExtension(FieldError):
    pass


class OrderDoesNotDivide(FieldError):
    pass


class FactorizationBudgetExceeded(FieldError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (dense int64 coefficient arrays, constant first)
# ---------------------------------------------------------------------------


def _poly_trim(a: np.ndarray) -> np.ndarray:
    nz = np.nonzero(a)[0]
    if nz.size == 0:
        return a[:1] * 0
    return a[: nz[-1] + 1]


def _poly_divmod(a: np.ndarray, b: np.ndarray, p: int):
    """(q, r) with a = q*b + r and deg r < deg b over F_p; b must be nonzero."""
    b = _poly_trim(b % p)
    r = _poly_trim(a % p)
    q = np.zeros(max(len(r) - len(b) + 1, 1), dtype=np.int64)
    inv_lead = pow(int(b[-1]), p - 2, p)
    while len(r) >= len(b) and np.any(r):
        shift = len(r) - len(b)
        q[shift] = r[-1] * inv_lead % p
        r[shift:] = (r[shift:] - q[shift] * b) % p
        r = _poly_trim(r)
    return q, r


def _poly_euclid(a: np.ndarray, f: np.ndarray, p: int):
    """(g, s): g a gcd of a and f, and s*a = g mod f with deg s < deg f."""
    r0, r1 = _poly_trim(a % p), _poly_trim(f % p)
    s0 = np.array([1], dtype=np.int64)
    s1 = np.array([0], dtype=np.int64)
    while np.any(r1):
        q, r = _poly_divmod(r0, r1, p)
        conv = np.convolve(q, s1) % p
        new_s = np.zeros(max(len(s0), len(conv)), dtype=np.int64)
        new_s[: len(s0)] += s0
        new_s[: len(conv)] -= conv
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim(new_s % p)
    return r0, s0


def _reduction_matrix(f: np.ndarray, p: int) -> np.ndarray:
    """Rows x^(k+j) mod the monic f of degree k, for j < k - 1.

    Row 0 is x^k = -(f - x^k); row j is x times row j - 1, a shift whose
    carried-out top coefficient folds back in through row 0.
    """
    k = len(f) - 1
    red = np.zeros((max(k - 1, 0), k), dtype=np.int64)
    red[:1] = -f[:k] % p
    for j in range(1, k - 1):
        red[j, 1:] = red[j - 1, :-1]
        red[j] = (red[j] + red[j - 1, -1] * red[0]) % p
    return red


def _mulmod(a: np.ndarray, b: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """a*b in F_p[x]/(f) with red = _reduction_matrix(f, p), before the final mod p."""
    k = red.shape[1]
    # x^(k+j) mod f is red[j]; each sum is at most (k-1)(p-1)^2 + p, inside int64
    conv = np.convolve(a, b) % p
    return conv[:k] + conv[k:] @ red


def _power(base, e: int, one, mul):
    """base^e for e >= 0 by square-and-multiply, with mul as the product."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


def _frobenius_matrix(red: np.ndarray, p: int) -> np.ndarray:
    """Matrix of e -> e^p on F_p[x]/(f) in the coefficient basis (columns)."""
    k = red.shape[1]
    cols = np.eye(k, dtype=np.int64)
    if k == 1:
        return cols

    def mul(a, b):
        return _mulmod(a, b, red, p) % p

    # column i is x^(i*p) = (x^p)^i
    xp = _power(cols[1], p, cols[0], mul)
    for i in range(1, k):
        cols[:, i] = mul(cols[:, i - 1], xp)
    return cols


def _is_irreducible(f: np.ndarray, p: int) -> bool:
    """Rabin test: x^(p^k) = x mod f and gcd(x^(p^(k/l)) - x, f) = 1."""
    k = len(f) - 1
    if k == 1:
        return True
    mp = _frobenius_matrix(_reduction_matrix(f, p), p)
    x = np.zeros(k, dtype=np.int64)
    x[1] = 1
    xs = [x]  # xs[j] = x^(p^j) mod f
    for _ in range(k):
        xs.append(mp @ xs[-1] % p)
    if not np.array_equal(xs[k], x):
        return False
    for ell in factorize(k):
        diff = (xs[k // ell] - x) % p
        if not np.any(diff) or len(_poly_euclid(diff, f, p)[0]) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# primality (Miller-Rabin) and factorization (trial division, budgeted Pollard rho)
# ---------------------------------------------------------------------------

_TRIAL_LIMIT = 100_000
_RHO_ROUNDS = 64
_RHO_ITER_BUDGET = 1 << 22


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases: exact for every n < 3.1e23."""
    if n < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % sp == 0:
            return n == sp
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_power(n: int) -> bool:
    """True iff n = p^s for a prime p and s >= 1."""
    return n >= 2 and len(factorize(n)) == 1


def _pollard_rho(n: int) -> Optional[int]:
    if n % 2 == 0:
        return 2
    for c in range(1, _RHO_ROUNDS + 1):
        x = y = 2
        d = 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
            count += 1
            if count > _RHO_ITER_BUDGET:
                d = 1
                break
        if d != 1 and d != n:
            return d
    return None


def factorize(n: int) -> dict:
    """Prime factorization {prime: exponent}; trial division then Pollard rho.

    Raises FactorizationBudgetExceeded when the rho iteration budget runs out
    before the cofactor splits.
    """
    factors: dict = {}
    d = 2
    while d <= _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        split = _pollard_rho(m)
        if split is None:
            raise FactorizationBudgetExceeded(
                f"could not split composite {m} within the rho budget"
            )
        stack.append(split)
        stack.append(m // split)
    return factors


# ---------------------------------------------------------------------------
# field context and elements
# ---------------------------------------------------------------------------


class FieldElement:
    """Immutable element of a FieldCtx; length-k coefficient vector mod p."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldCtx", coeffs: np.ndarray):
        self.ctx = ctx
        arr = np.asarray(coeffs, dtype=np.int64) % ctx.p
        if arr.shape != (ctx.deg,):
            raise ValueError(f"expected {ctx.deg} coefficients, got {arr.shape}")
        arr.flags.writeable = False
        self.coeffs = arr

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine FieldElement with {type(other)!r}")
        if other.ctx is not self.ctx:
            raise ContextMismatch("elements belong to different field contexts")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.ctx, (self.coeffs + other.coeffs) % self.ctx.p)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.ctx, (self.coeffs - other.coeffs) % self.ctx.p)

    def __neg__(self):
        return FieldElement(self.ctx, (-self.coeffs) % self.ctx.p)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.ctx, _mulmod(self.coeffs, other.coeffs, self.ctx.red, self.ctx.p))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroInverse("zero has no multiplicative inverse")
        # s*self = g mod f, where g is a nonzero constant since f is irreducible
        ctx = self.ctx
        g, s = _poly_euclid(self.coeffs, ctx.modulus, ctx.p)
        out = np.zeros(ctx.deg, dtype=np.int64)
        out[: len(s)] = s * pow(int(g[0]), ctx.p - 2, ctx.p)
        return FieldElement(ctx, out)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("exponent must be an int")
        if e < 0:
            return self.inverse() ** (-e)
        return _power(self, e, self.ctx.one(), FieldElement.__mul__)

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx is other.ctx and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs.tobytes()))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def to_int(self) -> int:
        """Position in the ascending base-p enumeration (constant term first)."""
        val = 0
        for c in reversed(self.coeffs.tolist()):
            val = val * self.ctx.p + int(c)
        return val

    def __repr__(self):
        return f"FieldElement(p={self.ctx.p}, k={self.ctx.deg}, coeffs={self.coeffs.tolist()})"


class FieldCtx:
    """Immutable context for F_{p^k}; construct through build_field()."""

    __slots__ = (
        "p",
        "deg",
        "modulus",
        "red",
        "order",
        "_frob_pow_cache",
        "_order_factors",
        "_primitive",
    )

    def __init__(self, p: int, deg: int, modulus: np.ndarray):
        self.p = p
        self.deg = deg
        modulus = modulus.astype(np.int64)
        modulus.flags.writeable = False
        self.modulus = modulus
        self.order = p**deg
        red = _reduction_matrix(modulus, p)
        red.flags.writeable = False
        self.red = red
        self._frob_pow_cache = {}
        self._order_factors = None
        self._primitive = None

    # -- constructors ------------------------------------------------------

    def element(self, coeffs) -> FieldElement:
        return FieldElement(self, np.asarray(coeffs, dtype=np.int64))

    def zero(self) -> FieldElement:
        return FieldElement(self, np.zeros(self.deg, dtype=np.int64))

    def one(self) -> FieldElement:
        c = np.zeros(self.deg, dtype=np.int64)
        c[0] = 1
        return FieldElement(self, c)

    def scalar(self, n: int) -> FieldElement:
        c = np.zeros(self.deg, dtype=np.int64)
        c[0] = n % self.p
        return FieldElement(self, c)

    def from_int(self, n: int) -> FieldElement:
        """Element at position n in ascending base-p enumeration order."""
        if n < 0 or n >= self.order:
            raise ValueError(f"enumeration index {n} out of range")
        c = np.zeros(self.deg, dtype=np.int64)
        for i in range(self.deg):
            c[i] = n % self.p
            n //= self.p
        return FieldElement(self, c)

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in ascending enumeration order."""
        for n in range(self.order):
            yield self.from_int(n)

    # -- Frobenius machinery -------------------------------------------------

    def frob_power_matrix(self, m: int) -> np.ndarray:
        """Matrix of e -> e^(p^m) in the coefficient basis."""
        m = m % self.deg
        if m not in self._frob_pow_cache:
            eye = np.eye(self.deg, dtype=np.int64)
            frob = _frobenius_matrix(self.red, self.p)
            mat = _power(frob, m, eye, lambda a, b: a @ b % self.p)
            mat.flags.writeable = False
            self._frob_pow_cache[m] = mat
        return self._frob_pow_cache[m]

    def conj_matrix(self) -> np.ndarray:
        """Matrix of the conjugation e -> e^q on ctx = F_{q^2}; raises
        NotQuadraticExtension when the extension degree is odd."""
        if self.deg % 2 != 0:
            raise NotQuadraticExtension(
                f"F_{self.p}^{self.deg} is not a quadratic extension"
            )
        return self.frob_power_matrix(self.deg // 2)

    def order_factors(self) -> dict:
        if self._order_factors is None:
            self._order_factors = factorize(self.order - 1)
        return self._order_factors

    def serialize(self) -> dict:
        return {"p": self.p, "k": self.deg, "modulus": self.modulus.tolist()}

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.deg}, modulus={self.modulus.tolist()})"


@functools.lru_cache(maxsize=None)
def build_field(p: int, k: int) -> FieldCtx:
    """Construct F_{p^k} with the deterministic smallest-enumeration modulus."""
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if k < 1:
        raise DegreeZero(f"extension degree must be >= 1, got {k}")
    if k > MAX_DEGREE or p >= MAX_PRIME:
        raise SizeBudgetExceeded(
            f"supported sizes are degree <= {MAX_DEGREE} over p < 2^16; "
            f"got p={p}, k={k}"
        )
    if k == 1:
        modulus = np.array([0, 1], dtype=np.int64)
        return FieldCtx(p, 1, modulus)
    # Candidates come in runs of p that share every coefficient but the
    # constant term c0.  f = g + c0 has a root in F_p exactly when c0 is some
    # -g(a), so one vectorized pass over F_p rules those out before the
    # irreducibility test (for p = 2 mod 3 every x^3 + c0 has a root).
    # The first run is the binomials x^k + c0.  Some x^k - a is irreducible
    # only if every prime factor of k divides p - 1 and p = 1 mod 4 when
    # 4 | k (Lidl-Niederreiter, Thm 3.75); otherwise that run is skipped.
    binomials = all((p - 1) % r == 0 for r in factorize(k))
    binomials = binomials and (k % 4 != 0 or p % 4 == 1)
    pts = np.arange(p, dtype=np.int64)
    for upper in range(0 if binomials else 1, p ** (k - 1)):
        digits = np.zeros(k + 1, dtype=np.int64)
        n = upper
        for i in range(1, k):
            digits[i] = n % p
            n //= p
        digits[k] = 1
        g = np.zeros(p, dtype=np.int64)
        for coef in digits[:0:-1]:  # Horner for g(a) = f(a) - c0
            g = (g + coef) * pts % p
        has_root = np.zeros(p, dtype=bool)
        has_root[-g % p] = True
        for c0 in np.flatnonzero(~has_root):
            digits[0] = c0
            if _is_irreducible(digits, p):
                return FieldCtx(p, k, digits)
    raise FieldError(f"no irreducible of degree {k} found")  # pragma: no cover


def frobenius(e: FieldElement) -> FieldElement:
    """The q-power map on F_{q^2} (conjugation); requires even degree."""
    ctx = e.ctx
    return FieldElement(ctx, (ctx.conj_matrix() @ e.coeffs) % ctx.p)


def fixed_by_frobenius(e: FieldElement) -> bool:
    """True when e lies in the index-2 subfield F_q of ctx = F_{q^2}."""
    return frobenius(e) == e


def primitive_element(ctx: FieldCtx) -> FieldElement:
    """First multiplicative generator in ascending enumeration order.

    Order is certified by checking alpha^((q-1)/l) != 1 for every prime l
    dividing the group order, which requires factoring it (trial division
    plus Pollard rho; FactorizationBudgetExceeded if the budget runs out).
    """
    if ctx._primitive is not None:
        return ctx._primitive
    m = ctx.order - 1
    if m == 1:
        ctx._primitive = ctx.one()
        return ctx._primitive
    primes = sorted(ctx.order_factors())
    exponents = [m // ell for ell in primes]
    one = ctx.one()
    for n in range(1, ctx.order):
        cand = ctx.from_int(n)
        if cand.is_zero():
            continue
        if all((cand**e) != one for e in exponents):
            ctx._primitive = cand
            return cand
    raise FieldError("no primitive element found")  # pragma: no cover


def root_of_unity(ctx: FieldCtx, n: int) -> FieldElement:
    """Element of exact multiplicative order n (requires n | p^k - 1)."""
    m = ctx.order - 1
    if n < 1 or m % n != 0:
        raise OrderDoesNotDivide(f"{n} does not divide group order {m}")
    alpha = primitive_element(ctx)
    return alpha ** (m // n)


def subfield_trace(e: FieldElement) -> FieldElement:
    """Trace onto the index-3 subfield: e + e^r + e^(r^2) for ctx = F_{r^3}."""
    ctx = e.ctx
    if ctx.deg % 3 != 0:
        raise NotCubicExtension(
            f"trace needs a cubic tower; degree {ctx.deg} is not divisible by 3"
        )
    mr = ctx.frob_power_matrix(ctx.deg // 3)
    c1 = (mr @ e.coeffs) % ctx.p
    c2 = (mr @ c1) % ctx.p
    return FieldElement(ctx, (e.coeffs + c1 + c2) % ctx.p)
