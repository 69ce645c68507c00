"""Conics in PG(2, q).

A conic holds its field spec and the integer codes of its canonical
coefficient tuple (a, b, c, d, e, f) for

    a*x^2 + b*y^2 + c*z^2 + d*xy + e*xz + f*yz,

scaled once, at construction, so the first nonzero coefficient is 1
(proportional tuples cut out the same variety); `coeffs` is a read-only view
of the codes as field elements.  The monomial order (x^2, y^2, z^2, xy, xz,
yz), `MONOMIALS`, is fixed; `_PAIRS` holds the index pair of each monomial.

The form is the upper matrix U = [[a, d, e], [0, b, f], [0, 0, c]] on codes,
f(v) = v . (U v) in every characteristic, and its gradient is (U + U^T) v,
with U + U^T built on codes by `_gradient_matrix`.  `evaluate`, `gradient`
and `line_conic_intersect` compute with these matrices, and `_pair_sum`
builds the coefficients of a sum of line pairs (l . x)(m . x), for
`transform_conic` and `segre`'s fit oracles, all on codes at every field
order; elements appear only in what they return.

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
    field's op tables, so it too costs O(q) lookups, through `pg2._code_map`
    of `_gradient_matrix`, as `segre.reconstruct_conic` checks an oval.

The two criteria disagree exactly on single-point varieties, where the
combinatorial test has nothing to object to but the gradient dies at the
unique point.  In even characteristic the gradient test is skipped and the
verdict is the combinatorial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import Degenerate, EvenCharacteristic, NotOnVariety
from .gf import FieldElement, FieldSpec
from .linalg import Mat, _dot, _elements, _inv, _mat_vec, _rows, _same_field, _scale
from .pg2 import (
    Collineation,
    ProjLine,
    ProjPoint,
    _Codes,
    _canonical_codes,
    _code_map,
    _element_codes,
    plane,
)

_ALL_ZERO = "all six conic coefficients are zero"

MONOMIALS = ("x^2", "y^2", "z^2", "xy", "xz", "yz")
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))  # (i, j) of each x_i x_j above


class Conic(_Codes):
    """A conic, as the canonical code 6-tuple of its coefficients."""

    __slots__ = ("_variety", "_report")
    _tag = "conic"

    def __init__(self, coeffs):
        self.spec, self.codes = _element_codes(coeffs, 6, "conic coefficients", _ALL_ZERO)

    coeffs = property(_Codes._elements, doc="The coefficients as field elements.")

    def evaluate(self, p: ProjPoint) -> FieldElement:
        """The form at p, v . (U v) on codes."""
        _same_field("conic and point", self.spec, p.spec)
        v = p.codes
        return FieldElement(self.spec, _dot(self.spec, v, _mat_vec(upper_matrix(self), v)))

    def variety(self) -> tuple:
        if getattr(self, "_variety", None) is None:  # the slot is unset until then
            self._variety = variety_of(self)
        return self._variety

    def nondegeneracy(self) -> "NondegeneracyReport":
        if getattr(self, "_report", None) is None:
            self._report = is_nondegenerate(self)
        return self._report

    def to_ints(self) -> tuple:
        return self.codes


def parse_conic(spec: FieldSpec, text: str) -> Conic:
    """Six coefficients, colon- or comma-separated, optionally bracketed."""
    s = text.strip()
    if (s.startswith("(") and s.endswith(")")) or (s.startswith("[") and s.endswith("]")):
        s = s[1:-1]
    parts = s.split(":") if ":" in s else s.split(",")
    if len(parts) != 6:
        raise ValueError(f"expected six coefficients in {text!r}")
    try:
        return Conic(tuple(spec.element(int(tok)) for tok in parts))
    except ValueError as exc:
        raise ValueError(f"bad coefficient in {text!r}: {exc}") from None


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
    a, b, c, d, e, f = conic.codes
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
    """The gradient (U + U^T) v of the form at a point; odd characteristic only."""
    spec = conic.spec
    if spec.p == 2:
        raise EvenCharacteristic("the gradient criterion needs odd characteristic")
    _same_field("conic and point", spec, p.spec)
    return _elements(spec, _mat_vec(_gradient_matrix(conic), p.codes))


def _gradient_matrix(conic: Conic) -> Mat:
    """U + U^T on codes, the matrix of v -> grad f(v); its diagonal 2a, 2b, 2c
    scales by 2 % p, the code of 2 (zero in characteristic 2)."""
    spec = conic.spec
    a, b, c, d, e, f = conic.codes
    a2, b2, c2 = _scale(spec, (a, b, c), 2 % spec.p)
    return Mat._of(spec, 3, 3, (a2, d, e, d, b2, f, e, f, c2))


def tangent_at(conic: Conic, p: ProjPoint) -> ProjLine:
    """The tangent line at a variety point, read off the gradient."""
    if not conic.evaluate(p).is_zero():
        raise NotOnVariety(f"{p.to_text()} is not on the conic {conic.to_text()}")
    g = gradient(conic, p)
    if all(x.is_zero() for x in g):
        raise Degenerate(f"gradient vanishes at {p.to_text()}, no unique tangent")
    return ProjLine(g)


def line_conic_intersect(conic: Conic, l: ProjLine) -> list:
    """Points of the line on the conic, sorted in plane enumeration order.

    The line's q+1 points are listed on codes, canonical and in that order as
    in `Plane.__init__`, and the form is tested at each: no plane is built.
    """
    spec = conic.spec
    _same_field("conic and line", spec, l.spec)
    a, b, c = l.codes
    m1 = spec.p - 1  # the code of -1, the constant polynomial p - 1
    if c or b:
        # -a/w and -b/w, for w = c or, when c = 0, w = b
        na, nb = _scale(spec, _scale(spec, (a, b), m1), _inv(spec, c or b))
    if c:
        pts = [(1, y, _dot(spec, (na, nb), (1, y))) for y in range(spec.q)] + [(0, 1, nb)]
    elif b:
        pts = [(1, na, z) for z in range(spec.q)] + [(0, 0, 1)]
    else:
        pts = [(0, 1, z) for z in range(spec.q)] + [(0, 0, 1)]
    u = upper_matrix(conic)
    return [ProjPoint._of(spec, v) for v in pts if not _dot(spec, v, _mat_vec(u, v))]


def combinatorial_tangents(conic: Conic, p: ProjPoint) -> list:
    """Lines through p meeting the variety only at p, in any characteristic, in
    ascending line index: p's entry of one `Plane.tangents` call over it.

    For a non-degenerate conic this is a single line per variety point; for
    degenerate ones it may be empty or contain several lines.
    """
    if not conic.evaluate(p).is_zero():
        raise NotOnVariety(f"{p.to_text()} is not on the conic {conic.to_text()}")
    pl = plane(conic.spec)
    indices = [pl.index(x) for x in conic.variety()]
    return [pl.lines[li] for li in pl.tangents(indices)[indices.index(pl.index(p))]]


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

    The plane's one lines-met count, `Plane._holds_no_three`, decides whether
    some line holds three variety points; when none does, the most on a line
    is min(|V|, 2).  Only when one does, the degenerate case, are the
    per-line counts built: they give the maximum number on any line, and
    `line_witness`, the lowest-index line holding that many.  Either way the
    plane reads the |V| rows of the variety points, |V|(q + 1) incidences.
    The gradient is evaluated at each variety point on the field's op-table
    codes, by `_code_map` of `_gradient_matrix`; `gradient_witness` is the
    first point, in plane order, where it vanishes.
    """
    spec = conic.spec
    pl = plane(spec)
    pts = variety_of(conic)
    indices = [pl.index(p) for p in pts]
    line_witness = None
    if pl._holds_no_three(indices):
        max_on_line = min(len(pts), 2)
    else:
        counts = pl.line_counts(indices)
        max_on_line = max(counts.values())
        line_witness = pl.lines[min(li for li, k in counts.items() if k == max_on_line)]
    combinatorial_ok = len(pts) > 0 and max_on_line <= 2

    gradient_ok = gradient_witness = None
    if spec.p != 2:
        grad = _code_map(_gradient_matrix(conic))
        gradient_witness = next((p for p in pts if not any(grad(*p.codes))), None)
        gradient_ok = gradient_witness is None

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
    a, b, c, d, e, f = conic.codes
    return Mat._of(conic.spec, 3, 3, (a, d, e, 0, b, f, 0, 0, c))


def symmetric_matrix(conic: Conic) -> Mat:
    """The symmetric Gram matrix (U + U^T) / 2; odd characteristic only."""
    spec = conic.spec
    if spec.p == 2:
        raise EvenCharacteristic("the symmetric matrix needs odd characteristic")
    return Mat._of(spec, 3, 3, _scale(spec, _gradient_matrix(conic).codes, _inv(spec, 2)))


def transform_conic(t: Collineation, conic: Conic) -> Conic:
    """Push a conic forward through a collineation: `_pullback` through t^-1.

    Contract: p lies on the input conic iff t.apply(p) lies on the result.
    """
    return _pullback(t.inverse().matrix, conic)


def _pair_sum(spec: FieldSpec, *pairs) -> tuple:
    """The monomial codes of the sum over line pairs (l, m) of (l . x)(m . x):
    l_i m_i at x_i^2, l_i m_j + l_j m_i at x_i x_j, each one kernel dot product."""
    return tuple(_dot(spec, [x for l, _ in pairs for x in (l[i], l[j] if i < j else 0)],
                      [y for _, m in pairs for y in (m[j], m[i])])
                 for i, j in _PAIRS)


def _pullback(s: Mat, conic: Conic) -> Conic:
    """The conic f(S x) for an invertible S, in every characteristic: with s_i
    the rows of S, f(S x) is the sum of u (s_i . x)(s_j . x) over the terms
    u x_i x_j of f, one `_pair_sum` over the pairs (u s_i, s_j)."""
    spec = conic.spec
    _same_field("matrices", spec, s.spec)
    rows = _rows(s)
    codes = _pair_sum(spec, *[(_scale(spec, rows[i], u), rows[j])
                              for u, (i, j) in zip(conic.codes, _PAIRS) if u])
    return Conic._of(spec, _canonical_codes(spec, codes, _ALL_ZERO))
