"""Independent arithmetic for generating inputs and checking answers.

Nothing here imports galoisplane.  Prime fields use plain `% p`.  Extension
fields take their modulus and their multiplication from
`sympy.polys.galoistools`: the lex-least monic irreducible modulus is found
with `gf_irreducible_p`, and the powers of a primitive element are computed
with `gf_mul` and `gf_rem`, which gives log and antilog tables.

Elements are integer codes sum(c_i * p**i) with the constant term c_0 first,
the convention galoisplane documents for its own codes, so the two can be
compared value by value.
"""

from __future__ import annotations

from itertools import product


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with p prime and p**k == q."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, m = 0, q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


class Field:
    """GF(p^k) on integer codes."""

    def __init__(self, p: int, k: int = 1):
        self.p, self.k, self.q = p, k, p ** k
        self.minus_one = p - 1
        if k == 1:
            self.modulus = (0, 1)
            return
        self.modulus = self._lex_least_irreducible()
        self._exp, self._log = self._log_tables()

    # sympy's dense polynomials list the leading coefficient first
    def _poly(self, code: int) -> list[int]:
        digits = self.digits(code)
        while digits and digits[-1] == 0:
            digits.pop()
        return digits[::-1]

    def _code(self, poly) -> int:
        code = 0
        for c in poly:
            code = code * self.p + int(c)
        return code

    # sympy is imported on first use, so that importing this module adds
    # nothing to the set-up time of a run
    def _lex_least_irreducible(self) -> tuple[int, ...]:
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_irreducible_p

        # candidates in the order galoisplane's docs define: coefficient
        # tuples compared constant term first
        for tail in product(range(self.p), repeat=self.k):
            ascending = tail + (1,)
            if gf_irreducible_p([ZZ(c) for c in reversed(ascending)], self.p, ZZ):
                return ascending
        raise ValueError(f"no irreducible polynomial of degree {self.k} over GF({self.p})")

    def _log_tables(self):
        from sympy.polys.domains import ZZ
        from sympy.polys.galoistools import gf_mul, gf_rem

        p, q = self.p, self.q
        mod = [ZZ(c) for c in reversed(self.modulus)]
        for g in range(2, q):
            gen = self._poly(g)
            exp = [1]
            cur = [ZZ(1)]
            for _ in range(q - 2):
                cur = gf_rem(gf_mul(cur, gen, p, ZZ), mod, p, ZZ)
                code = self._code(cur)
                if code == 1:
                    break
                exp.append(code)
            if len(exp) == q - 1:
                log = [0] * q
                for i, code in enumerate(exp):
                    log[code] = i
                return exp, log
        raise ValueError(f"no primitive element found in GF({q})")

    def digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return out

    def from_digits(self, digits) -> int:
        code = 0
        for c in reversed(tuple(digits)):
            code = code * self.p + c
        return code

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.from_digits((x + y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self.from_digits(-x % self.p for x in self.digits(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[-self._log[a] % (self.q - 1)]


def code_of(element, p: int) -> int:
    """Integer code of a galoisplane element, read from its coefficient vector."""
    code = 0
    for c in reversed(element.coeffs):
        code = code * p + c
    return code


def det3(F: Field, r0, r1, r2) -> int:
    a, b, c = r0
    d, e, f = r1
    g, h, i = r2
    m, s = F.mul, F.sub
    return F.add(
        s(m(a, s(m(e, i), m(f, h))), m(b, s(m(d, i), m(f, g)))),
        m(c, s(m(d, h), m(e, g))),
    )


def dot(F: Field, u, v) -> int:
    return F.add(F.add(F.mul(u[0], v[0]), F.mul(u[1], v[1])), F.mul(u[2], v[2]))


def mat_vec(F: Field, m, v) -> tuple:
    return tuple(dot(F, row, v) for row in m)


def canonical(F: Field, v) -> tuple:
    """Scale a nonzero vector so its first nonzero entry is 1."""
    for x in v:
        if x:
            s = F.inv(x)
            return tuple(F.mul(s, y) for y in v)
    raise ValueError("zero vector")


def random_invertible(F: Field, rng) -> tuple:
    while True:
        m = tuple(tuple(rng.randrange(F.q) for _ in range(3)) for _ in range(3))
        if det3(F, *m):
            return m


def plane_points(F: Field) -> list[tuple]:
    """Every point of PG(2, q) as a canonical triple."""
    q = F.q
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)]
    pts.append((0, 0, 1))
    return pts


def standard_conic(F: Field) -> tuple:
    """Coefficients of y^2 - xz in the order (x^2, y^2, z^2, xy, xz, yz)."""
    return (0, 1, 0, 0, F.minus_one, 0)


def standard_conic_points(F: Field) -> list[tuple]:
    """The q+1 points (1, t, t^2) and (0, 0, 1) of y^2 = xz."""
    return [(1, t, F.mul(t, t)) for t in range(F.q)] + [(0, 0, 1)]


def evaluate_conic(F: Field, c, v) -> int:
    x, y, z = v
    m = F.mul
    terms = (m(c[0], m(x, x)), m(c[1], m(y, y)), m(c[2], m(z, z)),
             m(c[3], m(x, y)), m(c[4], m(x, z)), m(c[5], m(y, z)))
    acc = 0
    for t in terms:
        acc = F.add(acc, t)
    return acc


def half_discriminant(F: Field, c) -> int:
    """4abc + def - af^2 - be^2 - cd^2: nonzero exactly when the conic is
    nonsingular, in every characteristic."""
    a, b, cc, d, e, f = c
    m = F.mul
    four_abc = m(m(F.add(F.add(1, 1), F.add(1, 1)), a), m(b, cc))
    acc = F.add(four_abc, m(m(d, e), f))
    for x, y in ((a, f), (b, e), (cc, d)):
        acc = F.sub(acc, m(x, m(y, y)))
    return acc


def point_text(v) -> str:
    return "[" + ":".join(str(x) for x in v) + "]"
