"""Exact arithmetic in finite fields GF(p^k).

Representation conventions:

- An element is its integer code.  The code of the polynomial
  c0 + c1*x + ... + c(k-1)*x^(k-1), reduced modulo a fixed monic irreducible
  modulus of degree k, is sum(c_i * p**i); `coeffs` reads the digits back.
  Enumeration is in code order, so 0 comes first and the prime subfield
  occupies codes 0..p-1.
- The modulus is a vector of k+1 coefficients, constant term first, leading
  coefficient 1.  When none is supplied, the lexicographically smallest monic
  irreducible polynomial is selected by exhaustive enumeration, comparing
  coefficient tuples constant term first.  For k = 1 that is the polynomial x.
- All arithmetic, prime and extension fields alike, runs on one kernel per
  field, built on first use from the powers of g, the nonzero element of
  least code whose powers have period q-1: the antilog table over two
  periods, the log table, the Zech logarithms zech[n] = log(1 + g^n) (-1
  where 1 + g^n = 0) and log(-1) (Lidl & Niederreiter, Finite Fields,
  section 10.3).  Each of + - * / neg inv ** is then a table lookup, and the
  op tables, negative-int coercion and the Wilson self-check make the same
  lookups on codes: in the library only row reduction uses the operators.
- Field construction is capped (default 2**14): everything downstream works
  by exhaustive enumeration, so unbounded orders only produce silent hangs.

make_field interns specs: equal (p, k, modulus) always returns the identical
FieldSpec object.
"""

from __future__ import annotations

from itertools import product as _cartesian

from .errors import (
    BoundExceeded,
    DivisionByZero,
    InternalCheckFailed,
    NotIrreducible,
    NotPrime,
    SpecMismatch,
)

DEFAULT_MAX_ORDER = 2 ** 14

# Op tables are q*q ints apiece; past this order they cost more than they save.
_TABLE_MAX_ORDER = 512


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_mul(f, g, p: int) -> list[int]:
    """Product of two coefficient sequences over GF(p), constant term first."""
    prod = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] = (prod[i + j] + a * b) % p
    return prod


def _poly_rem(f: list[int], d: tuple[int, ...], p: int) -> list[int]:
    """Remainder of f modulo d over GF(p); d is monic so no leading inverse is needed."""
    r = list(f)
    deg_d = len(d) - 1
    for i in range(len(r) - 1, deg_d - 1, -1):
        c = r[i]
        if c:
            r[i] = 0
            for j in range(deg_d):
                r[i - deg_d + j] = (r[i - deg_d + j] - c * d[j]) % p
    return r[:deg_d]


def _code(coeffs, p: int) -> int:
    """Integer code sum(coeffs[i] * p**i) of a coefficient sequence."""
    code = 0
    for c in reversed(coeffs):
        code = code * p + c
    return code


def _digits(code: int, p: int, k: int) -> list[int]:
    """The k base-p digits of code, constant term first."""
    out = []
    for _ in range(k):
        code, d = divmod(code, p)
        out.append(d)
    return out


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Exhaustive divisor check: no monic divisor of degree 1..k//2 divides coeffs."""
    k = len(coeffs) - 1
    if k < 1:
        return False
    f = list(coeffs)
    for deg in range(1, k // 2 + 1):
        for tail in _cartesian(range(p), repeat=deg):
            divisor = tail + (1,)
            if not any(_poly_rem(f, divisor, p)):
                return False
    return True


def _lex_least_irreducible(p: int, k: int) -> tuple[int, ...]:
    for tail in _cartesian(range(p), repeat=k):
        cand = tail + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise InternalCheckFailed(f"no irreducible polynomial of degree {k} over GF({p})")


class FieldSpec:
    """Immutable description of GF(p^k): characteristic, degree, modulus.

    Equality and hashing are by (p, k, modulus).  Construct through
    make_field, which also interns specs so equal inputs share one object.
    """

    __slots__ = ("p", "k", "q", "modulus", "_elements", "_tables", "_kernel")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = modulus
        self._elements = None
        self._tables = None
        self._kernel = None

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self.to_text()!r})"

    def to_text(self) -> str:
        """Textual form q=p^k:c0,...,ck; the modulus is omitted for prime fields."""
        if self.k == 1:
            return f"q={self.p}"
        mods = ",".join(str(c) for c in self.modulus)
        return f"q={self.p}^{self.k}:{mods}"

    def zero(self) -> FieldElement:
        return FieldElement(self, 0)

    def one(self) -> FieldElement:
        return FieldElement(self, 1)

    def from_int(self, code: int) -> FieldElement:
        """Element with the given integer code in [0, q)."""
        if not 0 <= code < self.q:
            raise ValueError(f"element code {code} out of range for GF({self.q})")
        return FieldElement(self, code)

    def element(self, value) -> FieldElement:
        """Coerce an int code, a negative int (additive inverse of its magnitude),
        a coefficient sequence, or an element of this same spec."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise SpecMismatch(f"element of {value.spec!r} used with {self!r}")
            return value
        if isinstance(value, int):
            if value < 0:
                # additive inverse of the element coded by the magnitude: its
                # digits negated, reduced mod p by the coefficient path below
                if -value >= self.q:
                    raise ValueError(f"element code {value} out of range for GF({self.q})")
                return self.element([-d for d in _digits(-value, self.p, self.k)])
            return self.from_int(value)
        if isinstance(value, (list, tuple)):
            if len(value) != self.k:
                raise ValueError(f"expected {self.k} coefficients, got {len(value)}")
            return FieldElement(self, _code([int(c) % self.p for c in value], self.p))
        raise TypeError(f"cannot coerce {value!r} to an element of GF({self.q})")

    def elements(self) -> tuple:
        """All q elements in code order (cached)."""
        if self._elements is None:
            self._elements = tuple(FieldElement(self, n) for n in range(self.q))
        return self._elements

    def op_tables(self):
        """Integer-code operation tables (add, mul, neg, inv) for small fields,
        filled with the operators' kernel lookups, so no element is made.

        inv[0] is -1 as a sentinel; callers in the geometry layer only index
        it with nonzero codes.
        """
        if self._tables is None:
            q = self.q
            if q > _TABLE_MAX_ORDER:
                raise BoundExceeded(
                    f"op tables supported only for q <= {_TABLE_MAX_ORDER}, got q={q}"
                )
            antilog, log, zech, log_m1 = self._kernel or self._build_kernel()
            logs = log[1:]
            # the Zech step of __add__: g^la + g^lb = g^la * (1 + g^(lb - la))
            add = [list(range(q))] + [[a] + [antilog[la + z] if z >= 0 else 0 for z in [
                zech[lb - la] for lb in logs]] for a, la in enumerate(logs, 1)]
            mul = [[0] * q] + [[0] + [antilog[la + lb] for lb in logs] for la in logs]
            neg = [0] + [antilog[la + log_m1] for la in logs]
            inv = [-1] + [antilog[q - 1 - la] for la in logs]
            self._tables = (add, mul, neg, inv)
        return self._tables

    def _build_kernel(self) -> tuple:
        """(antilog, log, zech, log(-1)) on codes; see the module docstring.

        The antilog table holds the codes of g^0 .. g^(2q-3), so that a sum
        of two logs indexes it unreduced; zech has one period, so len(zech)
        is q - 1.  log[0] is -1, which also marks the Zech entries where
        1 + g^n = 0.
        """
        p, q = self.p, self.q
        for g in range(1, q):
            g_coeffs = _digits(g, p, self.k)
            while not g_coeffs[-1]:
                g_coeffs.pop()
            powers, f = [1], [1]
            while True:
                f = _poly_rem(_poly_mul(f, g_coeffs, p), self.modulus, p)
                code = _code(f, p)
                if code == 1:
                    break
                powers.append(code)
            if len(powers) == q - 1:
                break
        log = [-1] * q
        for n, c in enumerate(powers):
            log[c] = n
        # 1 + c changes only the constant digit of c
        zech = [log[c - c % p + (c % p + 1) % p] for c in powers]
        self._kernel = (powers * 2, log, zech, log[p - 1])
        return self._kernel


class FieldElement:
    """One element of GF(p^k), held as its integer code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The k polynomial coefficients, constant term first."""
        return tuple(_digits(self.code, self.spec.p, self.spec.k))

    def _check(self, other) -> FieldElement:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise SpecMismatch(f"mixed specs {self.spec!r} and {other.spec!r}")
        return other

    def __add__(self, other):
        a, b = self.code, self._check(other).code
        if not b:
            return self
        if not a:
            return other
        antilog, log, zech, _ = self.spec._kernel or self.spec._build_kernel()
        la = log[a]
        # g^la + g^lb = g^la * (1 + g^(lb - la)); a negative index wraps a period
        z = zech[log[b] - la]
        return FieldElement(self.spec, antilog[la + z] if z >= 0 else 0)

    def __sub__(self, other):
        a, b = self.code, self._check(other).code
        if not b:
            return self
        antilog, log, zech, log_m1 = self.spec._kernel or self.spec._build_kernel()
        lnb = log[b] + log_m1
        if not a:
            return FieldElement(self.spec, antilog[lnb])
        la = log[a]
        z = zech[(lnb - la) % len(zech)]
        return FieldElement(self.spec, antilog[la + z] if z >= 0 else 0)

    def __neg__(self):
        if not self.code:
            return self
        antilog, log, _, log_m1 = self.spec._kernel or self.spec._build_kernel()
        return FieldElement(self.spec, antilog[log[self.code] + log_m1])

    def __mul__(self, other):
        a, b = self.code, self._check(other).code
        if not a:
            return self
        if not b:
            return other
        antilog, log, _, _ = self.spec._kernel or self.spec._build_kernel()
        return FieldElement(self.spec, antilog[log[a] + log[b]])

    def __truediv__(self, other):
        a, b = self.code, self._check(other).code
        if not b:
            raise DivisionByZero(f"inverse of zero in GF({self.spec.q})")
        if not a:
            return self
        antilog, log, zech, _ = self.spec._kernel or self.spec._build_kernel()
        return FieldElement(self.spec, antilog[log[a] - log[b] + len(zech)])

    def __pow__(self, e: int):
        if not self.code:
            if e < 0:
                raise DivisionByZero(f"inverse of zero in GF({self.spec.q})")
            return FieldElement(self.spec, 0 if e else 1)
        antilog, log, zech, _ = self.spec._kernel or self.spec._build_kernel()
        return FieldElement(self.spec, antilog[log[self.code] * e % len(zech)])

    def inv(self) -> FieldElement:
        """Multiplicative inverse, g^(q-1-log(self))."""
        if not self.code:
            raise DivisionByZero(f"inverse of zero in GF({self.spec.q})")
        antilog, log, zech, _ = self.spec._kernel or self.spec._build_kernel()
        return FieldElement(self.spec, antilog[len(zech) - log[self.code]])

    def is_zero(self) -> bool:
        return not self.code

    def __bool__(self):
        return self.code != 0

    def to_int(self) -> int:
        """Integer code sum(coeffs[i] * p**i)."""
        return self.code

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.code == other.code and (
            other.spec is self.spec or other.spec == self.spec
        )

    def __hash__(self):
        return hash(self.code)

    def __repr__(self):
        return f"GF({self.spec.q}):{self.code}"

    def __str__(self):
        return str(self.code)


_spec_cache: dict[tuple, FieldSpec] = {}


def make_field(p: int, k: int = 1, modulus=None, *, max_order: int = DEFAULT_MAX_ORDER) -> FieldSpec:
    """Construct (or fetch the interned) GF(p^k) spec.

    modulus, when given, is a sequence of k+1 coefficients, constant term
    first, and must be monic and irreducible.  Otherwise the lex-least monic
    irreducible polynomial of degree k is selected.
    """
    if not isinstance(p, int) or not isinstance(k, int):
        raise TypeError("p and k must be integers")
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree k must be >= 1")
    q = p ** k
    if q > max_order:
        raise BoundExceeded(f"field order {q} exceeds the cap {max_order}")
    if modulus is not None:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1:
            raise NotIrreducible(
                f"modulus must have {k + 1} coefficients (degree {k}), got {len(mod)}"
            )
        if mod[-1] != 1:
            raise NotIrreducible("modulus must be monic")
        if not _is_irreducible(mod, p):
            raise NotIrreducible(f"modulus {list(mod)} is reducible over GF({p})")
    else:
        key0 = (p, k, None)
        cached = _spec_cache.get(key0)
        if cached is not None:
            return cached
        mod = _lex_least_irreducible(p, k)
    key = (p, k, mod)
    spec = _spec_cache.get(key)
    if spec is None:
        spec = FieldSpec(p, k, mod)
        _spec_cache[key] = spec
        if modulus is None:
            _spec_cache[(p, k, None)] = spec
    return spec


def product_nonzero(spec: FieldSpec) -> FieldElement:
    """Product over all nonzero elements; self-checks that it equals -1.

    The codes 1..q-1 are folded on the kernel with __mul__'s own lookup,
    antilog[log(a) + log(b)], and checked against p - 1, the code of -1.
    """
    antilog, log, _, _ = spec._kernel or spec._build_kernel()
    acc = 1
    for lc in log[1:]:
        acc = antilog[log[acc] + lc]
    result = FieldElement(spec, acc)
    if acc != spec.p - 1:
        raise InternalCheckFailed(
            f"product of nonzero elements of GF({spec.q}) returned {result!r}, expected -1"
        )
    return result


def _prime_power(n: int):
    """(p, k) with p prime and p**k == n, or None."""
    if n < 2:
        return None
    p = n
    for d in range(2, n + 1):
        if d * d > n:
            break
        if n % d == 0:
            p = d
            break
    k = 0
    m = n
    while m % p == 0 and m > 1:
        m //= p
        k += 1
    if m != 1 or not _is_prime(p):
        return None
    return p, k


def parse_field(text: str, *, max_order: int = DEFAULT_MAX_ORDER) -> FieldSpec:
    """Parse 'q=7', 'q=9', 'q=3^2', or 'q=3^2:2,2,1' into a field spec."""
    s = text.strip()
    if not s.startswith("q="):
        raise ValueError(f"field text must start with 'q=': {text!r}")
    body = s[2:]
    modulus = None
    if ":" in body:
        body, modtext = body.split(":", 1)
        try:
            modulus = [int(c) for c in modtext.split(",")]
        except ValueError:
            raise ValueError(f"bad modulus coefficients in {text!r}") from None
    if "^" in body:
        base, _, exp = body.partition("^")
        try:
            p, k = int(base), int(exp)
        except ValueError:
            raise ValueError(f"bad p^k in {text!r}") from None
    else:
        try:
            n = int(body)
        except ValueError:
            raise ValueError(f"bad field order in {text!r}") from None
        pk = _prime_power(n)
        if pk is None:
            raise NotPrime(f"{n} is not a prime power")
        p, k = pk
    return make_field(p, k, modulus, max_order=max_order)
