"""The projective plane PG(2, q) over GF(q).

Points and lines hold their field spec and the integer codes of their
canonical homogeneous coordinate triple: the unique scalar multiple whose
first nonzero entry is 1.  The constructors scale and validate once; the
plane's own points and lines, and join and meet results, are built straight
from codes already canonical.  `coords` and `coeffs` are read-only views of
the codes as the field's elements.  A point (a, b, c) lies on a line
[u, v, w] iff the dot product vanishes, and three points are collinear iff
a . (b x c) does; `incident` and `collinear` compute both on the codes with
the dot and cross products of `linalg`, which run on the field's
log/antilog/Zech kernel and so serve every field order.  Collineations act on
codes too, and `apply` and `apply_line` rescale their images with the
constructors' own routine, `_canonical_codes`.  Joins and meets stay
nullspaces of the 2x3 matrix whose rows are the two given triples, because
perfbench's tracer test pins one join to one nullspace call.

Plane enumeration order is fixed: points (1, y, z) with y then z running
through the field's code order, then (0, 1, z), then (0, 0, 1); lines use the
same triple order for their coefficient vectors.  Incidence, the dot product,
is symmetric, so under this numbering the plane is self-dual: the lines
through point i are the points of line i, in the same ascending order.

The Plane class caches the incidence structure in integer-code space: the
point and line lists, built in O(n), and the points per line, read also as
lines per point.  Rows and masks are built on first read: each line's row
comes from a closed form on the op tables when it is first indexed, so a
plane costs O(n) at set-up, not O(n*q), and a request pays only for the
lines it reads.  The plane counts incidences of point sets on the rows, so
that search, tangent and verification loops run on plain ints, and a count
over a point set reads only its points' rows: `line_hits` gives per line the
positions of the points it holds, `line_counts` only how many (one Counter
over the lines through the points, so the counting runs in C), `tangents`
per point the lines counted once, read off one such count, for every tangent
question, and `_holds_no_three` whether any line holds three, from the
number of lines met (one set, for arcs and conics).  Only the arc search
reads line bitmasks, built on its first use.  The plane also holds two root
tables of q entries each, built in O(q) from the field's operation tables:
per code s, the ascending codes w with w*w = s (`square_roots`) and with
w*w + w = s (`unit_roots`).  Together they solve any quadratic over the
field, in every characteristic (see `conic.variety_of`).
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations, compress, count

from .errors import (
    BoundExceeded,
    DegenerateFrame,
    EqualLines,
    EqualPoints,
    Singular,
    SpecMismatch,
    ZeroVector,
)
from .gf import FieldSpec
from .linalg import Mat, det3, inverse3, nullspace
from .linalg import _codes, _cross, _dot, _elements, _inv, _mat_vec, _rows, _same_field, _scale

PLANE_MAX_ORDER = 128


_NO_CANONICAL_FORM = "the zero vector has no canonical form"


def _element_codes(v, n: int, noun: str = "coordinates", zero: str = _NO_CANONICAL_FORM) -> tuple:
    """(spec, canonical codes) of n field elements over one field.

    Raises ZeroVector for a wrong count or an all-zero input and SpecMismatch
    for entries over different fields; `noun` and `zero` word the messages.
    """
    v = tuple(v)
    if len(v) != n:
        raise ZeroVector(f"expected {n} {noun}, got {len(v)}")
    spec = v[0].spec
    return spec, _canonical_codes(spec, _codes(spec, v, noun), zero)


def _canonical_codes(spec: FieldSpec, codes: tuple, zero: str = _NO_CANONICAL_FORM) -> tuple:
    """The codes scaled so the first nonzero entry is 1; ZeroVector, worded by
    `zero`, for an all-zero input."""
    for x in codes:
        if x:
            return codes if x == 1 else _scale(spec, codes, _inv(spec, x))
    raise ZeroVector(zero)


class _Codes:
    """A field spec and canonical codes: the body of points, lines and conics.

    Equality and hashing are by the codes, and equal codes over different
    fields stay unequal.  A point never equals a line.
    """

    __slots__ = ("spec", "codes")

    @classmethod
    def _of(cls, spec: FieldSpec, codes: tuple):
        """The object of a code tuple known to be canonical; no checks."""
        t = cls.__new__(cls)
        t.spec = spec
        t.codes = codes
        return t

    def _elements(self) -> tuple:
        return _elements(self.spec, self.codes)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.codes == other.codes and (
            other.spec is self.spec or other.spec == self.spec
        )

    def __hash__(self):
        return hash((self._tag, self.codes))

    def to_text(self) -> str:
        return "[" + ":".join(map(str, self.codes)) + "]"

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()} over GF({self.spec.q}))"


class ProjPoint(_Codes):
    """A point of PG(2, q): the canonical code triple of its coordinates."""

    __slots__ = ()
    _tag = "pt"

    def __init__(self, coords):
        self.spec, self.codes = _element_codes(coords, 3)

    coords = property(_Codes._elements, doc="The coordinates as field elements.")


class ProjLine(_Codes):
    """A line of PG(2, q): the canonical code triple of its coefficients [u:v:w]."""

    __slots__ = ()
    _tag = "ln"

    def __init__(self, coeffs):
        self.spec, self.codes = _element_codes(coeffs, 3)

    coeffs = property(_Codes._elements, doc="The coefficients as field elements.")


def canonicalize(v) -> ProjPoint:
    """Scale a nonzero coordinate triple so its first nonzero entry is 1."""
    return v if isinstance(v, ProjPoint) else ProjPoint(v)


def canonicalize_line(v) -> ProjLine:
    return v if isinstance(v, ProjLine) else ProjLine(v)


def incident(p: ProjPoint, l: ProjLine) -> bool:
    _same_field("point and line", p.spec, l.spec)
    return not _dot(p.spec, p.codes, l.codes)


def join(p: ProjPoint, r: ProjPoint) -> ProjLine:
    """The unique line through two distinct points (2x3 nullspace)."""
    if p == r:
        raise EqualPoints(f"join needs distinct points, got {p.to_text()} twice")
    _same_field("points", p.spec, r.spec)
    basis = nullspace(Mat._of(p.spec, 2, 3, p.codes + r.codes))
    if len(basis) != 1:
        raise EqualPoints("points do not span a line")
    a, b, c = basis[0]
    return ProjLine._of(p.spec, (a.code, b.code, c.code))


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines (2x3 nullspace, dually)."""
    if l == m:
        raise EqualLines(f"meet needs distinct lines, got {l.to_text()} twice")
    _same_field("lines", l.spec, m.spec)
    basis = nullspace(Mat._of(l.spec, 2, 3, l.codes + m.codes))
    if len(basis) != 1:
        raise EqualLines("lines do not meet in a single point")
    a, b, c = basis[0]
    return ProjPoint._of(l.spec, (a.code, b.code, c.code))


def collinear(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> bool:
    """True iff the three points lie on one line (repeats count as collinear),
    that is iff the code determinant a . (b x c) vanishes."""
    spec = a.spec
    _same_field("points", spec, b.spec, c.spec)
    return not _dot(spec, a.codes, _cross(spec, b.codes, c.codes))


def point_sort_key(p: ProjPoint):
    """Key realizing the canonical plane enumeration order."""
    a, b, c = p.codes
    if a:
        return (0, b, c)
    if b:
        return (1, c, 0)
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


def iter_points(spec: FieldSpec):
    for codes in iter_point_codes(spec):
        yield ProjPoint._of(spec, codes)


class _LineRows(Sequence):
    """Per line index, the ascending indices of the line's points: a read-only
    sequence whose rows are built on first read and kept in `_rows`.  It takes
    int indices, negative ones as a tuple does, but no slices.

    Line i has the code triple of point i.  The points on [a:b:c], as indices
    ((1, y, z) is y*q + z, (0, 1, z) is q*q + z), are (1, y, -(a + b*y)/c) per
    y and (0, 1, -b/c) if c != 0; else (1, -a/b, z) per z and (0, 0, 1) if
    b != 0; else (0, 1, z) and (0, 0, 1).  Entries come from one index list,
    so all rows share n ints.  It holds the op tables and index lists but not
    the plane, so a plane and its rows form no reference cycle.
    """

    __slots__ = ("_rows", "_by_y", "_tail", "_ops")

    def __init__(self, spec: FieldSpec):
        q = spec.q
        qq = q * q
        index = list(range(qq + q + 1))
        self._by_y = [index[y * q:y * q + q] for y in range(q)]  # [y][z]: (1, y, z)
        self._tail = index[qq:]                                  # [z]: (0, 1, z); [q]: (0, 0, 1)
        self._ops = spec.op_tables()
        self._rows = [None] * len(index)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i) -> tuple:
        i = operator.index(i)
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = self._build(i % len(self._rows))
        return row

    def __iter__(self):
        return map(self.__getitem__, range(len(self._rows)))

    def _build(self, i: int) -> tuple:
        by_y, tail = self._by_y, self._tail
        add, mul, neg, inv = self._ops
        q = len(by_y)
        if i < q * q:
            a, b, c = 1, i // q, i % q
        elif i < q * q + q:
            a, b, c = 0, 1, i - q * q
        else:
            a, b, c = 0, 0, 1
        if c:
            m = mul[neg[inv[c]]]
            pts = list(map(operator.getitem, by_y, map(add[m[a]].__getitem__, mul[m[b]])))
            pts.append(tail[m[b]])
            return tuple(pts)
        if b:
            return tuple(by_y[mul[neg[inv[b]]][a]]) + (tail[-1],)
        return tuple(tail)


class Plane:
    """Cached incidence structure of PG(2, q), built once per spec in O(n);
    line rows and masks on first read.

    `point_lines` is `line_points`: lines take the points' triple order, incidence is symmetric."""

    __slots__ = (
        "spec", "n", "points", "lines", "point_index",
        "line_points", "point_lines", "_line_masks", "square_roots", "unit_roots",
    )

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        q = spec.q
        self.n = q * q + q + 1

        code_triples = list(iter_point_codes(spec))
        self.points = tuple(ProjPoint._of(spec, t) for t in code_triples)
        self.lines = tuple(ProjLine._of(spec, t) for t in code_triples)
        self.point_index = {p: i for i, p in enumerate(self.points)}
        self.line_points = self.point_lines = _LineRows(spec)
        self._line_masks = None

        # Per code s, the ascending codes w with w*w = s and with w*w + w = s.
        add, mul, _, _ = spec.op_tables()
        square_roots = [[] for _ in range(q)]
        unit_roots = [[] for _ in range(q)]
        for w in range(q):
            w2 = mul[w][w]
            square_roots[w2].append(w)
            unit_roots[add[w2][w]].append(w)
        self.square_roots = tuple(map(tuple, square_roots))
        self.unit_roots = tuple(map(tuple, unit_roots))

    @property
    def line_masks(self) -> tuple:
        """Per line, the n-bit mask of its point indices; built on first read."""
        if self._line_masks is None:
            # bits set in a byte buffer: a sum of q+1 n-bit shifts costs O(q*n)
            nbytes, masks = (self.n + 7) // 8, []
            for pts in self.line_points:
                buf = bytearray(nbytes)
                for pi in pts:
                    buf[pi >> 3] |= 1 << (pi & 7)
                masks.append(int.from_bytes(buf, "little"))
            self._line_masks = tuple(masks)
        return self._line_masks

    def index(self, p: ProjPoint) -> int:
        """Index of a point of this plane."""
        i = self.point_index.get(p)
        if i is None:
            if not isinstance(p, ProjPoint):
                raise TypeError(f"expected a ProjPoint, got {type(p).__name__}")
            raise SpecMismatch("point and plane from different field specs")
        return i

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

    def tangents(self, indices) -> list:
        """Per given (distinct) point index, in order, the indices of the lines
        through it holding no other given point, in ascending line index.

        One Counter walks the given points' rows, each after a marker key
        n + k for the point at position k, which no line index takes.  A key
        enters the count where it is first met, so a line counted once was
        inserted while its one point's row was walked: it sits after that
        point's marker, among the lines first met there, in row order.  A
        point's tangents are thus the keys counted once between its marker
        and the next; no row of a tangent line is read.
        """
        n, rows = self.n, self.point_lines
        # zip(count(n)) gives the markers (n,), (n + 1,), ..., one before each row
        marked_rows = zip(zip(count(n)), map(rows.__getitem__, indices))
        counts = Counter(chain.from_iterable(chain.from_iterable(marked_rows)))
        out = []
        for key in compress(counts, map((1).__eq__, counts.values())):
            if key < n:
                out[-1].append(key)
            else:
                out.append([])
        return out

    def _holds_no_three(self, indices) -> bool:
        """True iff no line holds three of the given distinct point indices.

        For k distinct points with m_l of them on line l, each pair lies on one
        line, so the sum of C(m_l, 2) is C(k, 2), while the lines met number
        k(q + 1) minus the sum of (m_l - 1).  As m - 1 <= C(m, 2), with equality
        iff m <= 2, the lines met number k(q + 1) - C(k, 2) exactly when no
        line holds three of the points: one C-level set of the lines met.
        """
        k = len(indices)
        lines_met = set(chain.from_iterable(map(self.point_lines.__getitem__, indices)))
        return len(lines_met) == k * (self.spec.q + 1) - k * (k - 1) // 2

    def pair_line(self, i: int, j: int) -> int:
        """Index of the unique line through points i and j (i != j)."""
        if i == j:
            raise EqualPoints(f"pair_line needs distinct points, got index {i} twice")
        return set(self.point_lines[i]).intersection(self.point_lines[j]).pop()


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
    raises.  By duality, joins and meets read one table on a built plane;
    each attribute is still checked, so that a doctored one is caught.
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

    quad = [ProjPoint._of(spec, v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]
    quadrilateral_ok = not any(collinear(*t) for t in combinations(quad, 3))

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
    """An invertible 3x3 matrix acting on points; lines move by inverse-transpose.

    Equal means equal matrices, so a nonzero multiple compares unequal.  No
    inverse is kept: each `inverse` or `apply_line` call makes one inverse3."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Mat):
        if matrix.rows != 3 or matrix.cols != 3:
            raise Singular(f"collineation needs a 3x3 matrix, got {matrix.rows}x{matrix.cols}")
        if det3(matrix).is_zero():
            raise Singular("collineation matrix is singular")
        self.matrix = matrix

    @classmethod
    def _trusted(cls, matrix: Mat) -> "Collineation":
        """A Collineation of a 3x3 matrix known to be invertible; no det3 check."""
        t = cls.__new__(cls)
        t.matrix = matrix
        return t

    @classmethod
    def identity(cls, spec: FieldSpec) -> "Collineation":
        return cls(Mat.identity(spec, 3))

    @classmethod
    def diagonal(cls, diag) -> "Collineation":
        return cls(Mat.diagonal(diag))

    def inverse(self) -> "Collineation":
        return Collineation._trusted(inverse3(self.matrix))

    def apply(self, p: ProjPoint) -> ProjPoint:
        _same_field("collineation and point", self.matrix.spec, p.spec)
        return ProjPoint._of(p.spec, _canonical_codes(p.spec, _mat_vec(self.matrix, p.codes)))

    def apply_line(self, l: ProjLine) -> ProjLine:
        inv_t = self.inverse().matrix.transpose()
        _same_field("collineation and line", inv_t.spec, l.spec)
        return ProjLine._of(l.spec, _canonical_codes(l.spec, _mat_vec(inv_t, l.codes)))

    def __matmul__(self, other: "Collineation") -> "Collineation":
        if not isinstance(other, Collineation):
            return NotImplemented
        return Collineation._trusted(self.matrix @ other.matrix)

    def __eq__(self, other):
        if not isinstance(other, Collineation):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"Collineation({self.matrix!r})"


def frame_transform(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint) -> Collineation:
    """The collineation sending a, b, c, d to (1,0,0), (0,1,0), (0,0,1), (1,1,1).

    Columns [a|b|c] are rescaled by lam = [a|b|c]^-1 d so they sum to d, and
    the rescaled matrix is inverted by rescaling the rows of [a|b|c]^-1; no
    inverse of the result is kept.  The four points must be in general
    position (no three collinear).  All of it runs on codes.
    """
    spec = a.spec
    _same_field("frame points", spec, b.spec, c.spec, d.spec)
    # [a|b|c] transposed has rows a, b, c
    try:
        m_inv = inverse3(Mat._of(spec, 3, 3, a.codes + b.codes + c.codes).transpose())
    except Singular:
        raise DegenerateFrame("first three frame points are collinear") from None
    lam = _mat_vec(m_inv, d.codes)
    if not all(lam):
        raise DegenerateFrame("fourth frame point lies on a side of the base triangle")
    # (m diag(lam))^-1 = diag(lam)^-1 m^-1: row i of m_inv scaled by 1/lam_i
    return Collineation._trusted(Mat._of(spec, 3, 3, tuple(chain.from_iterable(
        _scale(spec, r, _inv(spec, x)) for r, x in zip(_rows(m_inv), lam)))))


def _code_map(m: Mat):
    """The map (x, y, z) -> m @ (x, y, z) on integer codes, via the op tables.

    The image is exact but not canonical: the tangent-frame slope scan reads
    its coordinate ratios, and the gradient scans of `conic.is_nondegenerate`
    and `segre.reconstruct_conic` the gradients of `conic._gradient_matrix`.
    Raises BoundExceeded above the op-table cap (q = 512).
    """
    add, mul, _, _ = m.spec.op_tables()
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = map(mul.__getitem__, m.codes)

    def image(x: int, y: int, z: int) -> tuple:
        return (
            add[add[r00[x]][r01[y]]][r02[z]],
            add[add[r10[x]][r11[y]]][r12[z]],
            add[add[r20[x]][r21[y]]][r22[z]],
        )

    return image


def parse_point(spec: FieldSpec, text: str) -> ProjPoint:
    return ProjPoint(_parse_triple(spec, text))


def parse_line(spec: FieldSpec, text: str) -> ProjLine:
    return ProjLine(_parse_triple(spec, text))


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
