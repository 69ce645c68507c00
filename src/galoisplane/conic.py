"""Conics in PG(2, q).

A conic is stored as its canonical coefficient tuple (a, b, c, d, e, f) for

    a*x^2 + b*y^2 + c*z^2 + d*xy + e*xz + f*yz,

scaled so the first nonzero coefficient is 1 (proportional tuples cut out the
same variety).  The monomial order (x^2, y^2, z^2, xy, xz, yz) is fixed and
shared with the least-squares style fitting code.

The variety is found row by row of the plane enumeration, not point by point:
on each row (1, y, *), on (0, 1, *) and at (0, 0, 1) the form is a
quadratic in z, solved from the plane's root tables, so a variety costs O(q)
table lookups rather than q^2 + q + 1 evaluations.

Non-degeneracy is judged two ways and the verdict is their conjunction:

  * combinatorial: the variety is nonempty and meets every line in at most 2
    points (3 points on a line force the whole line into the variety, since a
    quadratic on a line with 3 roots vanishes identically);
  * differential (odd characteristic only): the gradient vanishes nowhere on
    the variety.  Like the variety, the scan runs on integer codes with the
    field's op tables, so it too costs O(q) lookups.

The two criteria disagree exactly on single-point varieties, where the
combinatorial test has nothing to object to but the gradient dies at the
unique point.  In even characteristic the gradient test is skipped and the
verdict is the combinatorial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (
    Degenerate,
    EvenCharacteristic,
    NotOnVariety,
    SpecMismatch,
    ZeroVector,
)
from .gf import FieldElement, FieldSpec
from .linalg import Mat
from .pg2 import (
    Collineation,
    ProjLine,
    ProjPoint,
    canonicalize_line,
    line_span_points,
    plane,
    point_sort_key,
)

MONOMIALS = ("x^2", "y^2", "z^2", "xy", "xz", "yz")


class Conic:
    """A conic, as a canonical 6-tuple of coefficients."""

    __slots__ = ("coeffs", "_variety", "_report")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != 6:
            raise ZeroVector(f"a conic needs 6 coefficients, got {len(coeffs)}")
        spec = coeffs[0].spec
        for x in coeffs[1:]:
            if x.spec != spec:
                raise SpecMismatch("conic coefficients from different field specs")
        for x in coeffs:
            if not x.is_zero():
                if x != spec.one():
                    s = x.inv()
                    coeffs = tuple(s * y for y in coeffs)
                break
        else:
            raise ZeroVector("all six conic coefficients are zero")
        self.coeffs = coeffs
        self._variety = None
        self._report = None

    @property
    def spec(self) -> FieldSpec:
        return self.coeffs[0].spec

    def evaluate(self, p: ProjPoint) -> FieldElement:
        x, y, z = p.coords
        a, b, c, d, e, f = self.coeffs
        return a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + f * y * z

    def variety(self) -> tuple:
        if self._variety is None:
            self._variety = variety_of(self)
        return self._variety

    def nondegeneracy(self) -> "NondegeneracyReport":
        if self._report is None:
            self._report = is_nondegenerate(self)
        return self._report

    def to_text(self) -> str:
        return "[" + ":".join(str(x.to_int()) for x in self.coeffs) + "]"

    def to_ints(self) -> tuple:
        return tuple(x.to_int() for x in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Conic):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("conic", self.coeffs))

    def __repr__(self):
        return f"Conic({self.to_text()} over GF({self.spec.q}))"


def parse_conic(spec: FieldSpec, text: str) -> Conic:
    """Six coefficients, colon- or comma-separated, optionally bracketed."""
    s = text.strip()
    if (s.startswith("(") and s.endswith(")")) or (s.startswith("[") and s.endswith("]")):
        s = s[1:-1]
    parts = s.split(":") if ":" in s else s.split(",")
    if len(parts) != 6:
        raise ValueError(f"expected six coefficients in {text!r}")
    return Conic(tuple(spec.element(int(tok)) for tok in parts))


def evaluate(conic: Conic, p: ProjPoint) -> FieldElement:
    return conic.evaluate(p)


def variety_of(conic: Conic) -> tuple:
    """All plane points on the conic, in canonical enumeration order.

    One quadratic per row of the enumeration: the points (1, y, z) satisfy
    c*z^2 + (e + f*y)*z + (a + b*y^2 + d*y) = 0, the points (0, 1, z) satisfy
    c*z^2 + f*z + b = 0, and (0, 0, 1) lies on the conic iff c = 0.  A row
    whose three coefficients vanish holds all q of its points; a linear row
    has one root.  For c2*z^2 + c1*z + c0 with c2 and c1 nonzero, the
    substitution z = (c1/c2)*w gives w^2 + w = -c0*c2/c1^2, which the plane's
    table of w^2 + w solves in every characteristic (Lidl & Niederreiter,
    Finite Fields); with c1 = 0 the root is a square root, read off the
    plane's square-root table.  Each row's roots are sorted, so the points
    come out in plane order by index.
    """
    spec = conic.spec
    q = spec.q
    pl = plane(spec)
    add, mul, neg, inv = spec.op_tables()
    square_roots, unit_roots = pl.square_roots, pl.unit_roots
    a, b, c, d, e, f = (x.code for x in conic.coeffs)
    all_z = range(q)

    def roots(c2, c1, c0):
        if c2 == 0:
            if c1:
                return (neg[mul[c0][inv[c1]]],)
            return () if c0 else all_z
        if c1 == 0:
            return square_roots[neg[mul[c0][inv[c2]]]]
        r = mul[c1][inv[c2]]
        return sorted(mul[r][w] for w in unit_roots[neg[mul[mul[c0][c2]][inv[mul[c1][c1]]]]])

    points = pl.points
    out = []
    for y in range(q):
        base = y * q
        c0 = add[add[a][mul[b][mul[y][y]]]][mul[d][y]]
        out.extend(points[base + z] for z in roots(c, add[e][mul[f][y]], c0))
    base = q * q
    out.extend(points[base + z] for z in roots(c, f, b))
    if c == 0:
        out.append(points[base + q])
    return tuple(out)


def gradient(conic: Conic, p: ProjPoint) -> tuple:
    """The gradient of the defining form at a point; odd characteristic only."""
    spec = conic.spec
    if spec.p == 2:
        raise EvenCharacteristic("the gradient criterion needs odd characteristic")
    x, y, z = p.coords
    a, b, c, d, e, f = conic.coeffs
    two = spec.element(2)
    return (
        two * a * x + d * y + e * z,
        two * b * y + d * x + f * z,
        two * c * z + e * x + f * y,
    )


def tangent_at(conic: Conic, p: ProjPoint) -> ProjLine:
    """The tangent line at a variety point, read off the gradient."""
    if not conic.evaluate(p).is_zero():
        raise NotOnVariety(f"{p.to_text()} is not on the conic {conic.to_text()}")
    g = gradient(conic, p)
    if all(x.is_zero() for x in g):
        raise Degenerate(f"gradient vanishes at {p.to_text()}, no unique tangent")
    return canonicalize_line(g)


def line_conic_intersect(conic: Conic, l: ProjLine) -> list:
    """Points of the line on the conic, sorted in plane enumeration order."""
    hits = [p for p in line_span_points(l) if conic.evaluate(p).is_zero()]
    hits.sort(key=point_sort_key)
    return hits


def combinatorial_tangents(conic: Conic, p: ProjPoint) -> list:
    """Lines through p meeting the variety only at p, in any characteristic.

    For a non-degenerate conic this is a single line per variety point; for
    degenerate ones it may be empty or contain several lines.
    """
    if not conic.evaluate(p).is_zero():
        raise NotOnVariety(f"{p.to_text()} is not on the conic {conic.to_text()}")
    pl = plane(conic.spec)
    return pl.tangents(pl.index(p), pl.mask(conic.variety()))


@dataclass(frozen=True)
class NondegeneracyReport:
    """Both non-degeneracy criteria for one conic, plus their conjunction."""

    q: int
    variety_size: int
    max_points_on_a_line: int
    combinatorial_ok: bool
    gradient_ok: Optional[bool]
    line_witness: Optional[ProjLine]
    gradient_witness: Optional[ProjPoint]

    @property
    def verdict(self) -> bool:
        if self.gradient_ok is None:
            return self.combinatorial_ok
        return self.combinatorial_ok and self.gradient_ok


def is_nondegenerate(conic: Conic) -> NondegeneracyReport:
    """Run both non-degeneracy criteria over the full plane.

    The plane's per-line counts of the variety points give the maximum
    number on any line; `line_witness` is the lowest-index line holding that
    many, when it is 3 or more.  The gradient is evaluated at each variety
    point on the field's op-table codes; `gradient_witness` is the first
    point, in plane order, where it vanishes.
    """
    spec = conic.spec
    pl = plane(spec)
    pts = variety_of(conic)
    counts = pl.line_counts([pl.index(p) for p in pts])
    max_on_line = max(counts.values(), default=0)
    line_witness = None
    if max_on_line >= 3:
        line_witness = pl.lines[min(li for li, k in counts.items() if k == max_on_line)]
    combinatorial_ok = len(pts) > 0 and max_on_line <= 2

    gradient_ok: Optional[bool]
    gradient_witness = None
    if spec.p == 2:
        gradient_ok = None
    else:
        # `gradient` on codes: (2a*x + d*y + e*z, d*x + 2b*y + f*z, e*x + f*y + 2c*z)
        add, mul, _, _ = spec.op_tables()
        a, b, c, d, e, f = (x.code for x in conic.coeffs)
        r2a, r2b, r2c = mul[add[a][a]], mul[add[b][b]], mul[add[c][c]]
        rd, re, rf = mul[d], mul[e], mul[f]
        gradient_ok = True
        for p in pts:
            x, y, z = (t.code for t in p.coords)
            if not (
                add[add[r2a[x]][rd[y]]][re[z]]
                or add[add[rd[x]][r2b[y]]][rf[z]]
                or add[add[re[x]][rf[y]]][r2c[z]]
            ):
                gradient_ok = False
                gradient_witness = p
                break

    return NondegeneracyReport(
        q=spec.q,
        variety_size=len(pts),
        max_points_on_a_line=max_on_line,
        combinatorial_ok=combinatorial_ok,
        gradient_ok=gradient_ok,
        line_witness=line_witness,
        gradient_witness=gradient_witness,
    )


def upper_matrix(conic: Conic) -> Mat:
    """Upper-triangular matrix U with f(v) = v^T U v; valid in any characteristic."""
    spec = conic.spec
    zero = spec.zero()
    a, b, c, d, e, f = conic.coeffs
    return Mat.from_rows([
        (a, d, e),
        (zero, b, f),
        (zero, zero, c),
    ])


def symmetric_matrix(conic: Conic) -> Mat:
    """The symmetric Gram matrix; odd characteristic only (needs 1/2)."""
    spec = conic.spec
    if spec.p == 2:
        raise EvenCharacteristic("the symmetric matrix needs odd characteristic")
    half = spec.element(2).inv()
    a, b, c, d, e, f = conic.coeffs
    return Mat.from_rows([
        (a, half * d, half * e),
        (half * d, b, half * f),
        (half * e, half * f, c),
    ])


def transform_conic(t: Collineation, conic: Conic) -> Conic:
    """Push a conic forward through a collineation.

    Contract: p lies on the input conic iff t.apply(p) lies on the result.
    Uses the substitution x -> S x with S the inverse matrix of t, folding
    S^T U S back to the 6 coefficients, so it works in every characteristic.
    """
    s = t.inverse().matrix
    b = s.transpose() @ upper_matrix(conic) @ s
    return Conic((
        b.at(0, 0),
        b.at(1, 1),
        b.at(2, 2),
        b.at(0, 1) + b.at(1, 0),
        b.at(0, 2) + b.at(2, 0),
        b.at(1, 2) + b.at(2, 1),
    ))
