"""The projective plane PG(2, q) over GF(q).

Points and lines are canonical homogeneous coordinate triples: the unique
scalar multiple whose first nonzero entry is 1.  A point (a, b, c) lies on a
line [u, v, w] iff the dot product vanishes.  Joins and meets are computed as
nullspaces of the 2x3 matrix whose rows are the two given triples.

Plane enumeration order is fixed: points (1, y, z) with y then z running
through the field's code order, then (0, 1, z), then (0, 0, 1); lines use the
same triple order for their coefficient vectors.

The Plane class caches the whole incidence structure (point and line lists,
per-line point indices, per-point line indices, line bitmasks) in integer-code
space and counts incidences of point sets on it, so that search and
verification loops run on plain ints: `line_hits` gives per line the
positions of the points it holds, `line_counts` only how many (one Counter
over the lines through the points, so the counting runs in C).  It also holds
two root tables of q entries each, built in O(q) from the field's operation
tables: per code s, the ascending codes w with w*w = s (`square_roots`) and
with w*w + w = s (`unit_roots`).  Together they solve any quadratic over the
field, in every characteristic (see `conic.variety_of`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .errors import (
    BoundExceeded,
    DegenerateFrame,
    EqualLines,
    EqualPoints,
    Singular,
    SpecMismatch,
    ZeroVector,
)
from .gf import FieldElement, FieldSpec
from .linalg import Mat, det3, inverse3, mat_vec, nullspace

PLANE_MAX_ORDER = 128


def _canonical_coords(v):
    v = tuple(v)
    if len(v) != 3:
        raise ZeroVector(f"expected 3 coordinates, got {len(v)}")
    spec = v[0].spec
    for x in v[1:]:
        if x.spec != spec:
            raise SpecMismatch("coordinates from different field specs")
    for x in v:
        if not x.is_zero():
            if x == spec.one():
                return v
            s = x.inv()
            return tuple(s * y for y in v)
    raise ZeroVector("the zero vector has no canonical form")


class ProjPoint:
    """A point of PG(2, q): a canonical homogeneous coordinate triple."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = coords

    @property
    def spec(self) -> FieldSpec:
        return self.coords[0].spec

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(("pt", self.coords))

    def to_text(self) -> str:
        return "[" + ":".join(str(x.to_int()) for x in self.coords) + "]"

    def __repr__(self):
        return f"ProjPoint({self.to_text()} over GF({self.spec.q}))"


class ProjLine:
    """A line of PG(2, q): a canonical coefficient triple [u:v:w]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = coeffs

    @property
    def spec(self) -> FieldSpec:
        return self.coeffs[0].spec

    def __eq__(self, other):
        if not isinstance(other, ProjLine):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("ln", self.coeffs))

    def to_text(self) -> str:
        return "[" + ":".join(str(x.to_int()) for x in self.coeffs) + "]"

    def __repr__(self):
        return f"ProjLine({self.to_text()} over GF({self.spec.q}))"


def canonicalize(v) -> ProjPoint:
    """Scale a nonzero coordinate triple so its first nonzero entry is 1."""
    if isinstance(v, ProjPoint):
        return v
    return ProjPoint(_canonical_coords(v))


def canonicalize_line(v) -> ProjLine:
    if isinstance(v, ProjLine):
        return v
    return ProjLine(_canonical_coords(v))


def _dot(u, v) -> FieldElement:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def incident(p: ProjPoint, l: ProjLine) -> bool:
    return _dot(p.coords, l.coeffs).is_zero()


def join(p: ProjPoint, r: ProjPoint) -> ProjLine:
    """The unique line through two distinct points (2x3 nullspace)."""
    if p == r:
        raise EqualPoints(f"join needs distinct points, got {p.to_text()} twice")
    basis = nullspace(Mat.from_rows([p.coords, r.coords]))
    if len(basis) != 1:
        raise EqualPoints("points do not span a line")
    return ProjLine(basis[0])


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines (2x3 nullspace, dually)."""
    if l == m:
        raise EqualLines(f"meet needs distinct lines, got {l.to_text()} twice")
    basis = nullspace(Mat.from_rows([l.coeffs, m.coeffs]))
    if len(basis) != 1:
        raise EqualLines("lines do not meet in a single point")
    return ProjPoint(basis[0])


def collinear(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> bool:
    """True iff the three points lie on one line (repeats count as collinear)."""
    return det3(Mat.from_rows([a.coords, b.coords, c.coords])).is_zero()


def point_sort_key(p: ProjPoint):
    """Key realizing the canonical plane enumeration order."""
    a, b, c = p.coords
    if not a.is_zero():
        return (0, b.to_int(), c.to_int())
    if not b.is_zero():
        return (1, c.to_int(), 0)
    return (2, 0, 0)


def iter_point_codes(spec: FieldSpec):
    """Integer-code triples of all plane points, canonical enumeration order."""
    q = spec.q
    for y in range(q):
        for z in range(q):
            yield (1, y, z)
    for z in range(q):
        yield (0, 1, z)
    yield (0, 0, 1)


def _point_from_codes(spec: FieldSpec, codes) -> ProjPoint:
    return ProjPoint(tuple(spec.from_int(c) for c in codes))


def iter_points(spec: FieldSpec):
    for codes in iter_point_codes(spec):
        yield _point_from_codes(spec, codes)


class Plane:
    """Cached incidence structure of PG(2, q); built once per field spec."""

    __slots__ = (
        "spec", "n", "points", "lines", "point_index", "line_index",
        "line_points", "point_lines", "line_masks", "square_roots", "unit_roots",
    )

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        q = spec.q
        self.n = q * q + q + 1
        add, mul, neg, inv = spec.op_tables()

        code_triples = list(iter_point_codes(spec))
        cpi = {t: i for i, t in enumerate(code_triples)}
        self.points = tuple(_point_from_codes(spec, t) for t in code_triples)
        self.lines = tuple(ProjLine(p.coords) for p in self.points)
        self.point_index = {p: i for i, p in enumerate(self.points)}
        self.line_index = {l: i for i, l in enumerate(self.lines)}

        # Points on each line, via an explicit spanning pair for the
        # orthogonal complement of the coefficient triple.  The generated
        # triples come out canonical already.
        line_points = []
        for (a, b, c) in code_triples:
            if c:
                ic = inv[c]
                s1 = (1, 0, neg[mul[ic][a]])
                s2 = (0, 1, neg[mul[ic][b]])
            elif b:
                ib = inv[b]
                s1 = (1, neg[mul[ib][a]], 0)
                s2 = (0, 0, 1)
            else:
                s1 = (0, 1, 0)
                s2 = (0, 0, 1)
            pts = []
            for t in range(q):
                combo = (
                    add[s1[0]][mul[t][s2[0]]],
                    add[s1[1]][mul[t][s2[1]]],
                    add[s1[2]][mul[t][s2[2]]],
                )
                pts.append(cpi[combo])
            pts.append(cpi[s2])
            line_points.append(tuple(sorted(pts)))
        self.line_points = tuple(line_points)

        by_point = [[] for _ in range(self.n)]
        for li, pts in enumerate(self.line_points):
            for pi in pts:
                by_point[pi].append(li)
        self.point_lines = tuple(tuple(ls) for ls in by_point)
        self.line_masks = tuple(
            sum(1 << pi for pi in pts) for pts in self.line_points
        )

        # Per code s, the ascending codes w with w*w = s and with w*w + w = s.
        square_roots = [[] for _ in range(q)]
        unit_roots = [[] for _ in range(q)]
        for w in range(q):
            w2 = mul[w][w]
            square_roots[w2].append(w)
            unit_roots[add[w2][w]].append(w)
        self.square_roots = tuple(map(tuple, square_roots))
        self.unit_roots = tuple(map(tuple, unit_roots))

    def index(self, p: ProjPoint) -> int:
        """Index of a point, looked up by its canonical form if p is not canonical."""
        i = self.point_index.get(p)
        if i is None:
            if p.spec != self.spec:
                raise SpecMismatch("point and plane from different field specs")
            i = self.point_index[canonicalize(p.coords)]
        return i

    def mask(self, points) -> int:
        """Bitmask of the indices of the given points."""
        m = 0
        for p in points:
            m |= 1 << self.index(p)
        return m

    def line_hits(self, indices) -> dict:
        """Per line through any of the given point indices, a bitmask of their positions.

        Bit k of line li's mask is set iff indices[k] lies on li; lines absent
        from the dict hold none of the points.
        """
        point_lines = self.point_lines
        hits = {}
        for pos, i in enumerate(indices):
            bit = 1 << pos
            for li in point_lines[i]:
                hits[li] = hits.get(li, 0) | bit
        return hits

    def line_counts(self, indices) -> Counter:
        """Per line through any of the given point indices, how many of them it holds."""
        point_lines = self.point_lines
        return Counter(chain.from_iterable(point_lines[i] for i in indices))

    def tangents(self, i: int, mask: int) -> list:
        """The lines through point i that meet the point bitmask nowhere else."""
        others = mask & ~(1 << i)
        line_masks = self.line_masks
        return [self.lines[li] for li in self.point_lines[i]
                if not line_masks[li] & others]

    def pair_line(self, i: int, j: int) -> int:
        """Index of the unique line through points i and j (i != j)."""
        if i == j:
            raise EqualPoints(f"pair_line needs distinct points, got index {i} twice")
        line_masks = self.line_masks
        return next(li for li in self.point_lines[i] if line_masks[li] >> j & 1)


_plane_cache: dict[FieldSpec, Plane] = {}


def plane(spec: FieldSpec, *, max_order: int = PLANE_MAX_ORDER) -> Plane:
    """The cached incidence structure for PG(2, q); bounded because it is dense."""
    if spec.q > max_order:
        raise BoundExceeded(f"plane enumeration capped at q <= {max_order}, got q={spec.q}")
    got = _plane_cache.get(spec)
    if got is None:
        got = Plane(spec)
        _plane_cache[spec] = got
    return got


def enumerate_plane(spec: FieldSpec):
    """(points, lines) of PG(2, q) in canonical enumeration order."""
    pl = plane(spec)
    return list(pl.points), list(pl.lines)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exhaustive projective plane axiom check."""

    q: int
    n_points: int
    n_lines: int
    counts_ok: bool
    line_degrees_ok: bool
    point_degrees_ok: bool
    joins_unique: bool
    meets_unique: bool
    quadrilateral_ok: bool

    @property
    def ok(self) -> bool:
        return (self.counts_ok and self.line_degrees_ok and self.point_degrees_ok
                and self.joins_unique and self.meets_unique and self.quadrilateral_ok)


def _meet_pairwise_once(families) -> bool:
    """True iff every two of the index sets share exactly one element."""
    sets = [frozenset(f) for f in families]
    return all(
        len(sets[a] & sets[b]) == 1
        for a in range(len(sets)) for b in range(a + 1, len(sets))
    )


def verify_axioms(spec: FieldSpec, *, max_order: int = 13) -> AxiomReport:
    """Exhaustively check the projective plane axioms and counting facts.

    Mathematical failures are reported, not raised; only the size bound
    raises.
    """
    q = spec.q
    if q > max_order:
        raise BoundExceeded(f"axiom verification capped at q <= {max_order}, got q={q}")
    pl = plane(spec)
    n_expected = q * q + q + 1

    counts_ok = len(pl.points) == n_expected and len(pl.lines) == n_expected
    line_degrees_ok = all(len(pts) == q + 1 for pts in pl.line_points)
    point_degrees_ok = all(len(ls) == q + 1 for ls in pl.point_lines)

    joins_unique = _meet_pairwise_once(pl.point_lines)
    meets_unique = _meet_pairwise_once(pl.line_points)

    one, zero = spec.one(), spec.zero()
    quad = [
        ProjPoint((one, zero, zero)),
        ProjPoint((zero, one, zero)),
        ProjPoint((zero, zero, one)),
        ProjPoint((one, one, one)),
    ]
    quadrilateral_ok = True
    for i in range(4):
        for j in range(i + 1, 4):
            for t in range(j + 1, 4):
                if collinear(quad[i], quad[j], quad[t]):
                    quadrilateral_ok = False

    return AxiomReport(
        q=q,
        n_points=len(pl.points),
        n_lines=len(pl.lines),
        counts_ok=counts_ok,
        line_degrees_ok=line_degrees_ok,
        point_degrees_ok=point_degrees_ok,
        joins_unique=joins_unique,
        meets_unique=meets_unique,
        quadrilateral_ok=quadrilateral_ok,
    )


class Collineation:
    """An invertible 3x3 matrix acting on points; lines move by inverse-transpose."""

    __slots__ = ("matrix", "_inv", "_inv_t")

    def __init__(self, matrix: Mat):
        if matrix.rows != 3 or matrix.cols != 3:
            raise Singular(f"collineation needs a 3x3 matrix, got {matrix.rows}x{matrix.cols}")
        if det3(matrix).is_zero():
            raise Singular("collineation matrix is singular")
        self.matrix = matrix
        self._inv = None
        self._inv_t = None

    @classmethod
    def _trusted(cls, matrix: Mat) -> "Collineation":
        """A Collineation of a 3x3 matrix known to be invertible; no det3 check."""
        t = cls.__new__(cls)
        t.matrix = matrix
        t._inv = None
        t._inv_t = None
        return t

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Collineation":
        return cls(Mat.identity(spec, 3))

    @classmethod
    def diagonal(cls, diag) -> "Collineation":
        return cls(Mat.diagonal(diag))

    def inverse(self) -> "Collineation":
        if self._inv is None:
            self._inv = Collineation._trusted(inverse3(self.matrix))
            self._inv._inv = self
        return self._inv

    def apply(self, p: ProjPoint) -> ProjPoint:
        return canonicalize(mat_vec(self.matrix, p.coords))

    def apply_line(self, l: ProjLine) -> ProjLine:
        if self._inv_t is None:
            self._inv_t = self.inverse().matrix.transpose()
        return canonicalize_line(mat_vec(self._inv_t, l.coeffs))

    def __matmul__(self, other: "Collineation") -> "Collineation":
        if not isinstance(other, Collineation):
            return NotImplemented
        return Collineation._trusted(self.matrix @ other.matrix)

    def __repr__(self):
        return f"Collineation({self.matrix!r})"


def frame_transform(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> Collineation:
    """The collineation sending a, b, c, d to (1,0,0), (0,1,0), (0,0,1), (1,1,1).

    Columns [a|b|c] are rescaled by lam = [a|b|c]^-1 d so they sum to d, and
    the rescaled matrix is inverted by rescaling the rows of [a|b|c]^-1.  The
    four points must be in general position (no three collinear).
    """
    m = Mat.from_rows([
        (a.coords[0], b.coords[0], c.coords[0]),
        (a.coords[1], b.coords[1], c.coords[1]),
        (a.coords[2], b.coords[2], c.coords[2]),
    ])
    try:
        m_inv = inverse3(m)
    except Singular:
        raise DegenerateFrame("first three frame points are collinear") from None
    lam = mat_vec(m_inv, d.coords)
    if any(x.is_zero() for x in lam):
        raise DegenerateFrame("fourth frame point lies on a side of the base triangle")
    # (m diag(lam))^-1 = diag(lam)^-1 m^-1: row i of m_inv scaled by 1/lam_i
    return Collineation._trusted(Mat.from_rows(
        [x / lam[i] for x in m_inv.row(i)] for i in range(3)
    ))


def _code_map(m: Mat):
    """The map (x, y, z) -> m @ (x, y, z) on integer codes, via the op tables.

    The image is not scaled to canonical form, so callers use it only where
    the result is unchanged by a nonzero scalar: coordinate ratios, and
    identities homogeneous in the point.  Raises BoundExceeded above the
    op-table cap (q = 512).
    """
    add, mul, _, _ = m.spec.op_tables()
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = (mul[x.code] for x in m.entries)

    def image(x: int, y: int, z: int) -> tuple:
        return (
            add[add[r00[x]][r01[y]]][r02[z]],
            add[add[r10[x]][r11[y]]][r12[z]],
            add[add[r20[x]][r21[y]]][r22[z]],
        )

    return image


def line_span_points(l: ProjLine) -> list[ProjPoint]:
    """The q+1 points of a line, by explicit parametrization of its span."""
    spec = l.spec
    a, b, c = l.coeffs
    zero, one = spec.zero(), spec.one()
    if not c.is_zero():
        ic = c.inv()
        s1 = (one, zero, -(ic * a))
        s2 = (zero, one, -(ic * b))
    elif not b.is_zero():
        ib = b.inv()
        s1 = (one, -(ib * a), zero)
        s2 = (zero, zero, one)
    else:
        s1 = (zero, one, zero)
        s2 = (zero, zero, one)
    pts = []
    for t in spec.elements():
        combo = (s1[0] + t * s2[0], s1[1] + t * s2[1], s1[2] + t * s2[2])
        pts.append(canonicalize(combo))
    pts.append(canonicalize(s2))
    return pts


def parse_point(spec: FieldSpec, text: str) -> ProjPoint:
    return canonicalize(_parse_triple(spec, text))


def parse_line(spec: FieldSpec, text: str) -> ProjLine:
    return canonicalize_line(_parse_triple(spec, text))


def _parse_triple(spec: FieldSpec, text: str):
    s = text.strip()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    parts = s.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected three ':'-separated entries in {text!r}")
    try:
        return tuple(spec.element(int(tok)) for tok in parts)
    except ValueError as exc:
        raise ValueError(f"bad coordinate in {text!r}: {exc}") from None
