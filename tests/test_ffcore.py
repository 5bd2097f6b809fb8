"""Field construction, element arithmetic, conjugation, and factoring."""

import numpy as np
import pytest

from designforge import ffcore
from designforge.ffcore import (
    MAX_DEGREE,
    MAX_PRIME,
    ContextMismatch,
    DegreeZero,
    FieldElement,
    NonPrimeModulus,
    NotCubicExtension,
    NotQuadraticExtension,
    OrderDoesNotDivide,
    SizeBudgetExceeded,
    ZeroInverse,
    build_field,
    factorize,
    fixed_by_frobenius,
    frobenius,
    is_prime,
    is_prime_power,
    primitive_element,
    root_of_unity,
    subfield_trace,
)
from designforge.ffdesigns import _primes_upto

FIELDS = [(3, 2), (5, 2), (7, 2), (2, 6), (13, 2), (3, 4)]


def test_f9_construction():
    ctx = build_field(3, 2)
    assert ctx.p == 3 and ctx.deg == 2 and ctx.order == 9
    # smallest irreducible in enumeration order: x^2 + 1 over F_3
    assert ctx.modulus.tolist() == [1, 0, 1]
    assert ctx.serialize() == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    # contexts are cached and identity-comparable
    assert build_field(3, 2) is ctx


def test_f9_known_products():
    ctx = build_field(3, 2)
    x = ctx.element([0, 1])
    one = ctx.one()
    # (1 + x)^2 = 1 + 2x + x^2 = 2x since x^2 = -1
    assert ((one + x) ** 2) == ctx.element([0, 2])
    assert x * x == ctx.element([2, 0])


def test_rejected_parameters():
    with pytest.raises(NonPrimeModulus):
        build_field(4, 2)
    with pytest.raises(NonPrimeModulus):
        build_field(1, 1)
    with pytest.raises(DegreeZero):
        build_field(3, 0)
    with pytest.raises(SizeBudgetExceeded):
        build_field(3, MAX_DEGREE + 1)
    with pytest.raises(SizeBudgetExceeded):
        build_field(65537, 1)
    # largest supported prime is fine
    assert build_field(65521, 1).order == 65521


def test_enumeration_round_trip():
    ctx = build_field(3, 2)
    seen = []
    for e in ctx.elements():
        assert ctx.from_int(e.to_int()) == e
        seen.append(e.to_int())
    assert seen == list(range(9))
    with pytest.raises(ValueError):
        ctx.from_int(9)
    with pytest.raises(ValueError):
        ctx.from_int(-1)


def test_field_axioms_random():
    rng = np.random.default_rng(42)
    for p, k in FIELDS:
        ctx = build_field(p, k)
        one, zero = ctx.one(), ctx.zero()
        for _ in range(40):
            a = ctx.from_int(int(rng.integers(ctx.order)))
            b = ctx.from_int(int(rng.integers(ctx.order)))
            c = ctx.from_int(int(rng.integers(ctx.order)))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == zero
            assert a - b == a + (-b)
            if not a.is_zero():
                assert a * a.inverse() == one
                assert (a * b) / a == b
                # multiplicative group order
                assert a ** (ctx.order - 1) == one
                assert a**-1 == a.inverse()


def test_zero_inverse_and_context_mixing():
    ctx = build_field(3, 2)
    other = build_field(5, 2)
    with pytest.raises(ZeroInverse):
        ctx.zero().inverse()
    with pytest.raises(ContextMismatch):
        ctx.one() + other.one()
    with pytest.raises(TypeError):
        ctx.one() + 1


def test_frobenius_is_the_conjugation_automorphism():
    rng = np.random.default_rng(3)
    for p, k in [(3, 2), (5, 2), (7, 2), (3, 4), (2, 6)]:
        ctx = build_field(p, k)
        q = ctx.p ** (ctx.deg // 2)
        for _ in range(25):
            a = ctx.from_int(int(rng.integers(ctx.order)))
            b = ctx.from_int(int(rng.integers(ctx.order)))
            assert frobenius(a + b) == frobenius(a) + frobenius(b)
            assert frobenius(a * b) == frobenius(a) * frobenius(b)
            # e -> e^q, an involution whose fixed field is F_q
            assert frobenius(a) == a**q
            assert frobenius(frobenius(a)) == a
        fixed = sum(fixed_by_frobenius(e) for e in ctx.elements())
        assert fixed == q


def test_frobenius_known_value():
    ctx = build_field(3, 2)
    e = ctx.element([1, 1])
    assert frobenius(e) == ctx.element([1, 2])


def test_frobenius_needs_even_degree():
    ctx = build_field(3, 3)
    with pytest.raises(NotQuadraticExtension):
        frobenius(ctx.one())
    with pytest.raises(NotQuadraticExtension):
        ctx.conj_matrix()


def test_primitive_element_orders():
    # 3 generates F_7^* (2 has order 3); over extensions the certified
    # generator must have exact order q - 1.
    f7 = build_field(7, 1)
    assert primitive_element(f7) == f7.scalar(3)
    for p, k in [(3, 2), (5, 2), (3, 4), (2, 6)]:
        ctx = build_field(p, k)
        g = primitive_element(ctx)
        m = ctx.order - 1
        assert g**m == ctx.one()
        for ell in factorize(m):
            assert g ** (m // ell) != ctx.one()


def test_root_of_unity():
    ctx = build_field(2, 12)
    w = root_of_unity(ctx, 13)
    assert w**13 == ctx.one()
    for divisor_check in range(1, 13):
        assert w**divisor_check != ctx.one()
    # group order is 4095 = 3^2 * 5 * 7 * 13
    with pytest.raises(OrderDoesNotDivide):
        root_of_unity(ctx, 11)
    with pytest.raises(OrderDoesNotDivide):
        root_of_unity(ctx, 0)


def test_subfield_trace_f27():
    ctx = build_field(3, 3)
    kernel = 0
    for e in ctx.elements():
        t = subfield_trace(e)
        # image lies in F_3: t^3 = t
        assert t**3 == t
        if t.is_zero():
            kernel += 1
    assert kernel == 9
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = ctx.from_int(int(rng.integers(27)))
        b = ctx.from_int(int(rng.integers(27)))
        assert subfield_trace(a + b) == subfield_trace(a) + subfield_trace(b)
    with pytest.raises(NotCubicExtension):
        subfield_trace(build_field(3, 2).one())


def test_factorize_known_and_random():
    assert factorize(4095) == {3: 2, 5: 1, 7: 1, 13: 1}
    assert factorize(2**31 - 1) == {2**31 - 1: 1}
    assert factorize(1) == {}
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 10**6))
        fac = factorize(n)
        prod = 1
        for prime, exp in fac.items():
            assert all(prime % d for d in range(2, int(prime**0.5) + 1))
            prod *= prime**exp
        assert prod == n


def test_is_prime_matches_sieve_on_supported_range():
    # every p that build_field accepts: the sieve and Miller-Rabin agree, and
    # each composite is refused before any field work
    primes = set(_primes_upto(MAX_PRIME - 1))
    for n in range(MAX_PRIME):
        assert is_prime(n) == (n in primes), n
        if n not in primes:
            with pytest.raises(NonPrimeModulus):
                build_field(n, 1)


def test_is_prime_power_matches_sieve():
    limit = 4096
    powers = set()
    for p in _primes_upto(limit):
        q = p
        while q <= limit:
            powers.add(q)
            q *= p
    for n in range(-1, limit + 1):
        assert is_prime_power(n) == (n in powers), n


def _first_irreducible_plain(p, k):
    # the ascending enumeration, every candidate through the irreducibility test
    for n in range(p**k):
        digits = [(n // p**i) % p for i in range(k)] + [1]
        f = np.array(digits, dtype=np.int64)
        if ffcore._is_irreducible(f, p):
            return f.tolist()
    raise AssertionError("no irreducible found")


@pytest.mark.parametrize("p", [2, 5, 11, 17])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_root_sieve_keeps_the_enumeration_order(p, k):
    # p = 2 mod 3, where every x^3 + c has a root and the sieve skips a whole run
    assert build_field(p, k).modulus.tolist() == _first_irreducible_plain(p, k)


@pytest.mark.parametrize(
    "p,k,modulus",
    [
        (7, 24, [4, 3, 1] + [0] * 21 + [1]),
        (2, 18, [1, 0, 0, 1] + [0] * 14 + [1]),
        (2, 12, [1, 0, 0, 1] + [0] * 8 + [1]),
        (5, 4, [2, 0, 0, 0, 1]),
    ],
)
def test_recorded_moduli(p, k, modulus):
    # recorded values: the sieve test above compares build_field with
    # _is_irreducible, so a fault in both would pass it
    assert build_field(p, k).modulus.tolist() == modulus


def test_cubic_extension_of_a_prime_two_mod_three():
    p = 65519
    assert p % 3 == 2
    a = np.arange(p, dtype=np.int64)
    # cubing permutes F_p, so every x^3 + c0 has a root; x^3 + x has the root 0
    assert np.unique(a**3 % p).size == p
    # x^3 + x + 1 has no root, so it is irreducible and comes first
    assert np.all((a**3 + a + 1) % p != 0)
    ctx = build_field(p, 3)
    assert ctx.modulus.tolist() == [1, 1, 0, 1]
    x = ctx.element([0, 1, 0])
    assert x**3 == -(x + ctx.one())
    assert x ** (p**3 - 1) == ctx.one()


@pytest.mark.parametrize("p,k", [(7, 4), (5, 6), (3, 4), (2, 5), (11, 6)])
def test_skipped_binomials_are_reducible(p, k):
    # 4 | k with p = 3 mod 4, or a prime factor of k that misses p - 1: no
    # x^k + c is irreducible (Lidl-Niederreiter, Thm 3.75), so build_field
    # starts past them and still returns the first irreducible in order
    for c in range(p):
        f = np.array([c] + [0] * (k - 1) + [1], dtype=np.int64)
        assert not ffcore._is_irreducible(f, p), c
    assert build_field(p, k).modulus.tolist() == _first_irreducible_plain(p, k)


def test_quartic_extension_of_a_prime_three_mod_four():
    p = 65519
    assert p % 4 == 3
    # the binomials are skipped; x^4 + x + c is reducible for every c < 13
    for c in range(13):
        assert not ffcore._is_irreducible(np.array([c, 1, 0, 0, 1]), p), c
    ctx = build_field(p, 4)
    assert ctx.modulus.tolist() == [13, 1, 0, 0, 1]
    x = ctx.element([0, 1, 0, 0])
    assert x ** (p**4 - 1) == ctx.one()


def test_element_immutability_and_hash():
    ctx = build_field(3, 2)
    e = ctx.element([1, 2])
    with pytest.raises(ValueError):
        e.coeffs[0] = 0
    assert len({ctx.element([1, 2]), e, ctx.one()}) == 2


def test_coefficients_reduced_mod_p():
    ctx = build_field(5, 2)
    assert ctx.element([7, -1]) == ctx.element([2, 4])
    assert ctx.scalar(12) == ctx.scalar(2)
    with pytest.raises(ValueError):
        FieldElement(ctx, np.array([1, 2, 3]))
