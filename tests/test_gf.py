"""Finite field construction and arithmetic."""

import itertools
import random

import pytest

from galoisplane.errors import (
    BoundExceeded,
    DivisionByZero,
    InternalCheckFailed,
    NotIrreducible,
    NotPrime,
    SpecMismatch,
)
from galoisplane import gf
from galoisplane.gf import (
    FieldSpec,
    make_field,
    parse_field,
    product_nonzero,
)


def test_prime_field_basics():
    spec = make_field(7)
    assert (spec.p, spec.k, spec.q) == (7, 1, 7)
    assert spec.to_text() == "q=7"
    a = spec.from_int(3)
    b = spec.from_int(5)
    assert (a + b).to_int() == 1
    assert (a * b).to_int() == 1
    assert (a - b).to_int() == 5
    assert (-a).to_int() == 4
    assert a.inv().to_int() == 5
    assert (a / b).to_int() == (a * b.inv()).to_int()


def test_extension_field_lex_least_modulus():
    # lex-least monic irreducible, constant term first
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(5, 2).modulus == (1, 1, 1)


def test_field_element_codes_roundtrip():
    for spec in (make_field(7), make_field(3, 2), make_field(2, 3)):
        for code in range(spec.q):
            assert spec.from_int(code).to_int() == code
        assert len(spec.elements()) == spec.q


def test_exhaustive_field_axioms_q9():
    spec = make_field(3, 2)
    elems = spec.elements()
    assert len(elems) == 9
    zero, one = spec.zero(), spec.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a != zero:
            assert a * a.inv() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


def test_associativity_of_multiplication_sampled():
    rng = random.Random(20260819)
    for spec in (make_field(11), make_field(2, 4), make_field(7, 2)):
        for _ in range(300):
            a, b, c = (spec.from_int(rng.randrange(spec.q)) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_frobenius_is_additive():
    # (a+b)^p == a^p + b^p in characteristic p
    for spec in (make_field(3, 2), make_field(2, 3), make_field(5, 2)):
        p = spec.p
        for a in spec.elements():
            for b in spec.elements():
                assert (a + b) ** p == a ** p + b ** p


def test_power_and_inverse():
    spec = make_field(13)
    for code in range(1, 13):
        a = spec.from_int(code)
        assert a ** (spec.q - 1) == spec.one()
        assert a ** -1 == a.inv()
        assert a ** 0 == spec.one()


def test_op_tables_match_element_arithmetic():
    """The tables are read off the kernel; the element operators are the
    reference, at small orders and at the planes' largest, GF(121) and
    GF(128)."""
    for spec in (make_field(5), make_field(2, 3), make_field(3, 2),
                 make_field(11, 2), make_field(2, 7)):
        add, mul, neg, inv = spec.op_tables()
        elems = spec.elements()
        q = spec.q
        assert inv[0] == -1
        for i in range(q):
            assert neg[i] == (-elems[i]).to_int()
            if i:
                assert inv[i] == elems[i].inv().to_int()
            for j in range(q):
                assert add[i][j] == (elems[i] + elems[j]).to_int()
                assert mul[i][j] == (elems[i] * elems[j]).to_int()


def test_op_tables_bound():
    with pytest.raises(BoundExceeded):
        make_field(521).op_tables()


def test_division_by_zero():
    spec = make_field(5)
    with pytest.raises(DivisionByZero):
        spec.zero().inv()
    with pytest.raises(DivisionByZero):
        spec.one() / spec.zero()
    assert issubclass(DivisionByZero, ZeroDivisionError)


def test_mixed_spec_rejected():
    a = make_field(5).one()
    b = make_field(7).one()
    with pytest.raises(SpecMismatch):
        a + b


def test_guarded_construction():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotPrime):
        make_field(1)
    with pytest.raises(NotIrreducible):
        # x^2 - 1 = (x-1)(x+1) over GF(5)
        make_field(5, 2, modulus=(4, 0, 1))
    with pytest.raises(BoundExceeded):
        make_field(2, 15)
    with pytest.raises(BoundExceeded):
        make_field(16411)


def test_custom_modulus_accepted():
    # x^2 + x + 2 is irreducible over GF(3)
    spec = make_field(3, 2, modulus=(2, 1, 1))
    assert spec.q == 9
    x = spec.element((0, 1))
    assert x * x == spec.element((-2, -1))


def test_parse_field_forms():
    assert parse_field("q=7") == make_field(7)
    assert parse_field("q=9") == make_field(3, 2)
    assert parse_field("q=3^2") == make_field(3, 2)
    assert parse_field("q=3^2:1,0,1") == make_field(3, 2, modulus=(1, 0, 1))
    assert parse_field("q=8").q == 8
    for bad in ("q=6", "7", "q=", "q=4^2", "q=0"):
        with pytest.raises(Exception):
            parse_field(bad)


def test_to_text_roundtrip():
    for spec in (make_field(13), make_field(2, 4), make_field(3, 3)):
        assert parse_field(spec.to_text()) == spec


def test_product_of_nonzero_elements():
    for spec in (make_field(2), make_field(7), make_field(3, 2), make_field(2, 4)):
        assert product_nonzero(spec) == -spec.one()


def test_product_nonzero_folds_codes_without_making_elements(monkeypatch):
    """Over GF(2^14) and GF(16381) the fold runs on the kernel's codes: a
    handful of FieldElements (the result and the -1 it is checked against),
    not one per factor."""
    specs = [make_field(2, 14), make_field(16381)]
    for spec in specs:
        spec.one() + spec.one()  # build the kernel
    made = []
    original = gf.FieldElement.__init__

    def counted(self, spec, code):
        made.append(code)
        original(self, spec, code)

    monkeypatch.setattr(gf.FieldElement, "__init__", counted)
    for spec in specs:
        made.clear()
        result = product_nonzero(spec)
        assert 0 < len(made) <= 3
        assert result == -spec.one()


def test_product_nonzero_self_check_raises():
    # an uninterned spec whose log table sends every code to log 0: the fold
    # returns 1, and the check against -1 must reject it
    spec = FieldSpec(7, 1, (0, 1))
    antilog, log, zech, log_m1 = spec._build_kernel()
    spec._kernel = (antilog, [-1] + [0] * 6, zech, log_m1)
    with pytest.raises(InternalCheckFailed, match="expected -1"):
        product_nonzero(spec)


def test_element_negative_int_coercion():
    spec = make_field(7)
    assert spec.element(-1) == -spec.one()
    assert spec.element(-3).to_int() == 4


# fields no other test reaches, and a supplied modulus
_ORACLE_FIELDS = [(2, 7, None), (2, 10, None), (2, 14, None), (3, 8, None),
                  (5, 6, None), (127, 2, None), (16381, 1, None), (3, 2, (2, 1, 1))]


@pytest.mark.parametrize("p, k, modulus", _ORACLE_FIELDS,
                         ids=[f"{p}^{k}" + (f":{m}" if m else "") for p, k, m in _ORACLE_FIELDS])
def test_arithmetic_against_sympy_galoistools(p, k, modulus):
    """+ - * / neg inv ** on seeded samples, read through `coeffs` and
    recomputed as polynomials over GF(p) by sympy's galoistools."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    spec = make_field(p, k, modulus)
    q = spec.q
    mod = [ZZ(c) for c in reversed(spec.modulus)]
    assert gt.gf_irreducible_p(mod, p, ZZ)

    def poly(x):
        # highest degree first, as galoistools writes polynomials
        return gt.gf_strip([ZZ(c) for c in reversed(x.coeffs)])

    def mul(f, g):
        return gt.gf_rem(gt.gf_mul(f, g, p, ZZ), mod, p, ZZ)

    def power(f, e):
        acc = [ZZ(1)]
        for _ in range(e):
            acc = mul(acc, f)
        return acc

    one = [ZZ(1)]
    rng = random.Random(q)
    special = [0, 1, p - 1, q - 1]
    pairs = [(a, rng.randrange(q)) for a in special] + [(rng.randrange(q), b) for b in special]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(60)]
    for a_code, b_code in pairs:
        a, b = spec.from_int(a_code), spec.from_int(b_code)
        fa, fb = poly(a), poly(b)
        assert poly(a + b) == gt.gf_add(fa, fb, p, ZZ)
        assert poly(a - b) == gt.gf_sub(fa, fb, p, ZZ)
        assert poly(-a) == gt.gf_sub([], fa, p, ZZ)
        assert poly(a * b) == mul(fa, fb)
        if b_code:
            assert mul(poly(a / b), fb) == fa
            assert mul(poly(b.inv()), fb) == one
        e = rng.randrange(1, 40)
        assert poly(a ** e) == power(fa, e)
        assert poly(a ** 0) == one
        if a_code:
            assert mul(poly(a ** -e), power(fa, e)) == one
            assert poly(a ** (q - 1)) == one



_DEFAULT_MODULUS_FIELDS = sorted({(p, k) for p, k, _ in _ORACLE_FIELDS})


@pytest.mark.parametrize("p, k", _DEFAULT_MODULUS_FIELDS,
                         ids=[f"{p}^{k}" for p, k in _DEFAULT_MODULUS_FIELDS])
def test_default_modulus_is_the_lex_least_irreducible(p, k):
    """Every monic candidate lex-smaller than the default modulus (tails
    compared constant term first) is reducible by sympy's galoistools, and
    the default modulus itself is irreducible."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    def irreducible(coeffs):
        # galoistools writes polynomials highest degree first
        return gt.gf_irreducible_p([ZZ(c) for c in reversed(coeffs)], p, ZZ)

    modulus = make_field(p, k).modulus
    assert len(modulus) == k + 1 and modulus[-1] == 1
    assert irreducible(modulus)
    tail = modulus[:-1]
    smaller = 0
    for cand in itertools.product(range(p), repeat=k):
        if cand >= tail:
            break
        assert not irreducible(cand + (1,)), cand
        smaller += 1
    assert smaller == sum(c * p ** (k - 1 - i) for i, c in enumerate(tail))


def test_kernel_is_built_on_first_arithmetic_only():
    # construction, enumeration and code conversion stay table-free, so a
    # field that is only enumerated never pays for its kernel
    spec = make_field(3, 7)
    assert len(spec.elements()) == 2187
    assert spec.from_int(5).coeffs == (2, 1, 0, 0, 0, 0, 0)
    assert spec._kernel is None
    assert spec.one() + spec.one() == spec.from_int(2)
    assert spec._kernel is not None
