"""Ovals in PG(2, q), q odd: tangent slopes, the lemma of tangents, and
constructive recovery of the unique conic through a maximal oval.

Frame convention: a base triple (b1, b2, b3) of oval points plus an auxiliary
fourth oval point are mapped to the standard frame e1, e2, e3, (1,1,1).  In
frame coordinates the non-side lines through the base points form three
pencils

    through e1:  x2 = a*x3   coefficients (0, 1, -a)
    through e2:  x3 = a*x1   coefficients (-a, 0, 1)
    through e3:  x1 = a*x2   coefficients (1, -a, 0)

with a running over the nonzero field elements.  Each non-base oval point c
hits one slope in each pencil (c2/c3, c3/c1, c1/c2 respectively); the q - 2
of them hit pairwise distinct nonzero slopes, so exactly one slope per pencil
is left over.  The leftover slopes k1, k2, k3 are the tangent slopes at the
base points, and the lemma of tangents says k1*k2*k3 = -1.

Rescaling by diag(1, -k3, k1*k3) moves all three tangent slopes to -1, which
pins the conic through the oval down to x1*x2 + x2*x3 + x3*x1 in the rescaled
frame; pulling that back gives the conic in original coordinates.

The loops over the oval's points run on the field's integer codes, not on
field elements: each point is mapped through the frame matrix's codes with
the op tables, and its image is never scaled to canonical form.  The slopes
are ratios of its coordinates, and the containment check and the tangent
cross identities are homogeneous in the point (and in its tangent), so a
nonzero scalar changes none of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .arcs import Arc, is_arc
from .conic import Conic, is_nondegenerate, transform_conic
from .errors import (
    Degenerate,
    DegenerateTriangle,
    DivisionByZero,
    EqualPoints,
    EvenOrder,
    Inconsistent,
    InternalCheckFailed,
    NotAnOval,
    NotInPerspective,
    NotMaximalOval,
    PointsNotOnOval,
    RelationViolated,
    SegreRelationViolated,
    SharedSide,
    UnderDetermined,
    VerificationFailed,
)
from .gf import FieldSpec
from .linalg import Mat, _rows, _scale, nullspace
from .pg2 import (
    Collineation,
    ProjLine,
    ProjPoint,
    _code_map,
    collinear,
    frame_transform,
    incident,
    join,
    meet,
    plane,
)


def _check_triangle(tri, label: str):
    if len(tri) != 3:
        raise DegenerateTriangle(f"{label} needs 3 points, got {len(tri)}")
    a, b, c = tri
    if a == b or a == c or b == c:
        raise DegenerateTriangle(f"{label} has a repeated vertex")
    if collinear(a, b, c):
        raise DegenerateTriangle(f"{label} vertices are collinear")


def perspective_center(tri1, tri2) -> Optional[ProjPoint]:
    """Common point of the three vertex joins, or None if not concurrent.

    Vertices correspond by position.  Coinciding corresponding vertices are
    rejected (their join is undefined).
    """
    _check_triangle(tri1, "first triangle")
    _check_triangle(tri2, "second triangle")
    joins = []
    for a, b in zip(tri1, tri2):
        if a == b:
            raise EqualPoints(
                f"corresponding vertices coincide at {a.to_text()}, join undefined"
            )
        joins.append(join(a, b))
    # two joins may coincide; with non-degenerate triangles never all three
    if joins[0] == joins[1]:
        return meet(joins[0], joins[2]) if joins[0] != joins[2] else None
    c = meet(joins[0], joins[1])
    return c if incident(c, joins[2]) else None


@dataclass(frozen=True)
class DesarguesResult:
    """Center, side meets, and axis of a pair of triangles in perspective.

    `meets` holds the intersections of corresponding sides in the order
    (side 12, side 13, side 23).
    """

    center: ProjPoint
    meets: tuple
    axis: ProjLine


_SIDE_PAIRS = ((0, 1), (0, 2), (1, 2))


def desargues_axis(tri1, tri2) -> DesarguesResult:
    """Check the two triangles are in perspective and return the axis.

    The meets of corresponding sides are computed independently of the
    center; their collinearity is then certified rather than assumed.
    """
    center = perspective_center(tri1, tri2)
    if center is None:
        raise NotInPerspective("vertex joins are not concurrent")
    sides1 = [join(tri1[i], tri1[j]) for i, j in _SIDE_PAIRS]
    sides2 = [join(tri2[i], tri2[j]) for i, j in _SIDE_PAIRS]
    for i in range(3):
        if sides1[i] == sides2[i]:
            raise SharedSide(
                f"corresponding sides {sides1[i].to_text()} coincide, meet undefined"
            )
    meets = tuple(meet(sides1[i], sides2[i]) for i in range(3))
    first, second = meets[0], None
    for m in meets[1:]:
        if m != first:
            second = m
            break
    if second is None:
        raise InternalCheckFailed("all three side meets coincide")
    axis = join(first, second)
    for m in meets:
        if not incident(m, axis):
            raise VerificationFailed("side meets are not collinear")
    return DesarguesResult(center=center, meets=meets, axis=axis)


def sample_perspective_triangles(spec: FieldSpec, rng, *, max_tries: int = 5000):
    """A random pair of disjoint triangles in perspective from a point.

    The second triangle slides each vertex along its line to the center:
    s_i = p_i + t_i * c with t_i nonzero.  Degenerate draws are rejected.
    """
    if spec.q < 3:
        raise Degenerate("perspective sampling needs q >= 3")
    pl = plane(spec)
    pts = pl.points
    n = len(pts)
    for _ in range(max_tries):
        c = pts[rng.randrange(n)]
        p = tuple(pts[rng.randrange(n)] for _ in range(3))
        if len(set(p)) != 3 or collinear(*p):
            continue
        if c in p or any(collinear(c, p[i], p[j]) for i, j in _SIDE_PAIRS):
            continue
        t = [spec.from_int(1 + rng.randrange(spec.q - 1)) for _ in range(3)]
        cc = c.coords
        s = tuple(
            ProjPoint(tuple(x + t[i] * y for x, y in zip(p[i].coords, cc)))
            for i in range(3)
        )
        if len(set(s)) != 3 or collinear(*s) or (set(s) & set(p)):
            continue
        # a shared side: s_i and s_j both on the side through p_i and p_j
        if any(collinear(p[i], p[j], s[i]) and collinear(p[i], p[j], s[j])
               for i, j in _SIDE_PAIRS):
            continue
        return p, s
    raise InternalCheckFailed("could not sample a perspective pair; q too small?")


@dataclass(frozen=True)
class TangentFrame:
    """An oval with a base triple mapped to the standard frame.

    `transform` sends the base points to e1, e2, e3; `slopes` are the pencil
    slopes (k1, k2, k3) of the tangents at the base points in frame
    coordinates; `tangents` are those tangent lines in original coordinates.
    """

    oval: Arc
    base: tuple
    transform: Collineation
    slopes: tuple
    tangents: tuple

    @property
    def spec(self) -> FieldSpec:
        return self.oval.spec


def _pencil_line(spec: FieldSpec, which: int, slope) -> ProjLine:
    zero, one = spec.zero(), spec.one()
    if which == 1:
        return ProjLine((zero, one, -slope))
    if which == 2:
        return ProjLine((-slope, zero, one))
    return ProjLine((one, -slope, zero))


def tangent_frame(oval: Arc, base) -> TangentFrame:
    """Map a base triple of oval points to the frame and extract tangent slopes.

    The missing slope in each base-point pencil is the tangent slope there;
    the product of the three is checked to be -1.  The frame images and
    their slopes are computed on the field's op-table codes, so this needs
    q <= 512 (BoundExceeded above); every oval built on the plane has
    q <= 128, so only a trusted `Arc` can get there.  A non-base point on a
    side of the base triangle (possible only for a trusted `Arc` that is no
    arc) has a zero frame coordinate and raises DivisionByZero.
    """
    spec = oval.spec
    q = spec.q
    if q % 2 == 0:
        raise EvenOrder(f"tangent slopes need odd q, got q={q}")
    if oval.size != q + 1:
        raise NotAnOval(f"need an oval of q+1={q + 1} points, got {oval.size}")
    base = tuple(base)
    if len(base) != 3 or len(set(base)) != 3:
        raise EqualPoints("base must be three distinct points")
    for b in base:
        if b not in oval.points:
            raise PointsNotOnOval(f"base point {b.to_text()} is not on the oval")

    _, mul, neg, inv = spec.op_tables()

    rest = [p for p in oval.points if p not in base]
    t0 = frame_transform(base[0], base[1], base[2], rest[0])
    image = _code_map(t0.matrix)

    # the slopes are ratios of coordinates, so the images need no scaling
    seen1, seen2, seen3 = set(), set(), set()
    for p in rest:
        c1, c2, c3 = image(*p.codes)
        if not (c1 and c2 and c3):
            # a point on a side of the base triangle: the oval is no arc
            raise DivisionByZero(f"inverse of zero in GF({q})")
        seen1.add(mul[c2][inv[c3]])
        seen2.add(mul[c3][inv[c1]])
        seen3.add(mul[c1][inv[c2]])

    slopes = []
    nonzero = set(range(1, q))
    for seen in (seen1, seen2, seen3):
        missing = nonzero - seen
        if len(missing) != 1:
            raise SegreRelationViolated(
                f"expected one free slope per pencil, got {len(missing)}"
            )
        slopes.append(missing.pop())
    product = mul[mul[slopes[0]][slopes[1]]][slopes[2]]
    if product != neg[1]:
        raise SegreRelationViolated(f"slope product {product} is not -1")
    slopes = tuple(spec.from_int(k) for k in slopes)

    t0_inv = t0.inverse()
    tangents = tuple(
        t0_inv.apply_line(_pencil_line(spec, i + 1, slopes[i])) for i in range(3)
    )
    return TangentFrame(
        oval=oval, base=base, transform=t0, slopes=slopes, tangents=tangents
    )


@dataclass(frozen=True)
class LemmaResult:
    """The perspective of the base triangle with the tangent triangle.

    `center_frame` is the perspective center in frame coordinates, with
    closed form (1, k1*k2, -k2); written with the tangents the other way
    round (x3 = m1*x2, x1 = m2*x3, x2 = m3*x1, so m_i = 1/k_i) it reads
    (1, -m3, m1*m3).  `center` is the same point mapped back to original
    coordinates.  `reciprocal_center` is a second concurrency
    point, (1, -k3, k1*k3): the pencil lines whose parameters are the
    products of the other two slopes (equivalently, the reciprocals -1/k_i
    of the true join parameters -k_i) all pass through it exactly when
    k1*k2*k3 = -1, so its existence certifies the slope relation.  The two
    points coincide only when k2 and k3 are both square roots of 1, for
    instance on a normalized frame where every slope is -1.
    """

    tangent_triangle: tuple
    joins: tuple
    center_frame: ProjPoint
    center: ProjPoint
    reciprocal_center: ProjPoint


def lemma_of_tangents(frame: TangentFrame) -> LemmaResult:
    """Perspective center of the base and tangent triangles, two ways.

    The closed form (1, k1*k2, -k2) is cross-checked against the center
    computed independently from joins and meets; disagreement raises.  In
    the reciprocal slopes m_i = 1/k_i of the tangents (x3 = m1*x2 at e1,
    x1 = m2*x3 at e2, x2 = m3*x1 at e3) the same center reads
    (1, -m3, m1*m3).  The concurrency of the reciprocal-parameter pencil
    lines through (1, -k3, k1*k3) is verified as a second certificate of
    the relation.
    """
    spec = frame.spec
    k1, k2, k3 = frame.slopes
    one = spec.one()
    # vertices of the tangent triangle, s_i opposite the base point e_i
    s1 = ProjPoint((k3, one, k2 * k3))
    s2 = ProjPoint((k1 * k3, k1, one))
    s3 = ProjPoint((one, k1 * k2, k2))
    e1, e2, e3 = (ProjPoint._of(spec, v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    closed = ProjPoint((one, k1 * k2, -k2))
    computed = perspective_center((e1, e2, e3), (s1, s2, s3))
    if computed is None or computed != closed:
        raise SegreRelationViolated(
            "closed-form perspective center disagrees with the computed one"
        )
    joins = tuple(_pencil_line(spec, i + 1, -k) for i, k in enumerate((k1, k2, k3)))
    for ln in joins:
        if not incident(closed, ln):
            raise SegreRelationViolated("center is off one of the vertex joins")

    reciprocal = ProjPoint((one, -k3, k1 * k3))
    reciprocal_lines = (
        _pencil_line(spec, 1, k2 * k3),
        _pencil_line(spec, 2, k1 * k3),
        _pencil_line(spec, 3, k1 * k2),
    )
    for ln in reciprocal_lines:
        if not incident(reciprocal, ln):
            raise SegreRelationViolated(
                "reciprocal-parameter lines are not concurrent"
            )

    center = frame.transform.inverse().apply(closed)
    return LemmaResult(
        tangent_triangle=(s1, s2, s3),
        joins=joins,
        center_frame=closed,
        center=center,
        reciprocal_center=reciprocal,
    )


def normalize_tangents(frame: TangentFrame) -> TangentFrame:
    """Rescale the frame so all three tangent slopes become -1.

    diag(1, -k3, k1*k3) sends slopes (k1, k2, k3) to (-1, -1, -1); a diagonal
    rescale by (d1, d2, d3) multiplies the pencil slopes by d2/d3, d3/d1,
    d1/d2 respectively.
    """
    spec = frame.spec
    k1, k2, k3 = (k.code for k in frame.slopes)
    m1 = spec.p - 1  # the code of -1, the constant polynomial p - 1
    minus_k3, k1k3 = _scale(spec, (m1, k1), k3)
    if _scale(spec, (k1k3,), k2) != (m1,):
        raise RelationViolated("slope product is not -1; frame is inconsistent")
    d = Mat._of(spec, 3, 3, (1, 0, 0, 0, minus_k3, 0, 0, 0, k1k3))
    combined = Collineation._trusted(d @ frame.transform.matrix)
    minus_one = spec.from_int(m1)
    new_frame = TangentFrame(
        oval=frame.oval,
        base=frame.base,
        transform=combined,
        slopes=(minus_one, minus_one, minus_one),
        tangents=frame.tangents,
    )
    return new_frame


def frame_conic(spec: FieldSpec) -> Conic:
    """x1*x2 + x2*x3 + x3*x1, the conic with all frame tangent slopes -1."""
    return Conic._of(spec, (0, 0, 0, 1, 1, 1))


def _monomial_row(p: ProjPoint):
    x, y, z = p.coords
    return (x * x, y * y, z * z, x * y, x * z, y * z)


def fit_conic_nullspace(points) -> Conic:
    """The unique conic through at least 5 points in general position.

    The linear system is one monomial row per point; a 1-dimensional
    nullspace gives the conic.  Three collinear input points would make any
    fit non-unique or degenerate, so they are rejected up front.
    """
    pts = []
    for p in points:
        if p not in pts:
            pts.append(p)
    if len(pts) < 5:
        raise UnderDetermined(f"need at least 5 distinct points, got {len(pts)}")
    if not is_arc(pts)[0]:
        raise UnderDetermined("three of the points are collinear; no unique conic")
    rows = [_monomial_row(p) for p in pts]
    basis = nullspace(Mat.from_rows(rows))
    if len(basis) == 0:
        raise Inconsistent("no conic passes through all the given points")
    if len(basis) > 1:
        raise UnderDetermined("conic through the points is not unique")
    return Conic(basis[0])


def _pencil_oracle(points) -> Conic:
    """Unique non-degenerate conic through 4 points in general position.

    Used as the independent reference at q = 3, where an oval has only 4
    points: the nullspace is then a pencil, and exactly one member is
    non-degenerate by both criteria.
    """
    pts = list(points)
    if len(pts) != 4:
        raise UnderDetermined(f"pencil oracle needs exactly 4 points, got {len(pts)}")
    spec = pts[0].spec
    rows = [_monomial_row(p) for p in pts]
    basis = nullspace(Mat.from_rows(rows))
    if len(basis) != 2:
        raise UnderDetermined("expected a pencil of conics through 4 points")
    f, g = basis
    members = []
    for t in spec.elements():
        coeffs = tuple(f[i] + t * g[i] for i in range(6))
        if any(not c.is_zero() for c in coeffs):
            members.append(Conic(coeffs))
    members.append(Conic(g))
    winners = [c for c in members if is_nondegenerate(c).verdict]
    if len(winners) != 1:
        raise Inconsistent(
            f"expected exactly one non-degenerate pencil member, got {len(winners)}"
        )
    return winners[0]


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable record of one conic reconstruction.

    `conic` and `oracle_conic` are 6-tuples of integer element codes in the
    monomial order (x^2, y^2, z^2, xy, xz, yz); points are "[a:b:c]" strings.
    """

    field: str
    oval: tuple
    base_triple: tuple
    frame_matrix: tuple
    slopes: tuple
    conic: tuple
    oracle_conic: tuple
    identities_ok: bool
    all_points_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "field": self.field,
            "oval": list(self.oval),
            "base_triple": list(self.base_triple),
            "frame_matrix": [list(row) for row in self.frame_matrix],
            "slopes": list(self.slopes),
            "conic": list(self.conic),
            "oracle_conic": list(self.oracle_conic),
            "identities_ok": self.identities_ok,
            "all_points_ok": self.all_points_ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def reconstruct_conic(oval: Arc, base=None) -> tuple:
    """Recover the conic through a maximal oval and certify it.

    Returns (conic, certificate).  The conic comes from pulling the frame
    conic back through the normalized frame transform; it is verified to
    contain every oval point, to satisfy the tangent cross identities at
    every non-base point, and to coincide with an independently fitted
    conic.  Both per-point checks run on the field's op-table codes.  When a
    check fails, the VerificationFailed raised carries the certificate built
    so far as its `certificate`.
    """
    spec = oval.spec
    q = spec.q
    if q % 2 == 0:
        raise EvenOrder(f"conic reconstruction needs odd q, got q={q}")
    if oval.size != q + 1:
        raise NotMaximalOval(
            f"need a maximal oval of q+1={q + 1} points, got {oval.size}"
        )
    if base is None:
        base = oval.points[:3]
    frame0 = tangent_frame(oval, base)
    norm = normalize_tangents(frame0)
    t = norm.transform
    g = frame_conic(spec)
    conic = transform_conic(t.inverse(), g)

    # the form, on codes, as x*(a*x + d*y + e*z) + y*(b*y + f*z) + z*(c*z)
    add, mul, _, _ = spec.op_tables()
    ra, rb, rc, rd, re, rf = (mul[c] for c in conic.codes)
    all_points_ok = True
    for p in oval.points:
        x, y, z = p.codes
        hx = add[add[ra[x]][rd[y]]][re[z]]
        hy = add[rb[y]][rf[z]]
        if add[add[mul[x][hx]][mul[y][hy]]][mul[z][rc[z]]]:
            all_points_ok = False
            break

    # the tangents are the lines holding exactly one oval point
    pl = plane(spec)
    oval_mask = pl.mask(oval.points)
    indices = [pl.index(p) for p in oval.points]
    line_masks = pl.line_masks
    tangent_of = {
        (line_masks[li] & oval_mask).bit_length() - 1: li
        for li, k in pl.line_counts(indices).items()
        if k == 1
    }

    # Each identity is bilinear in the point c and its tangent b, so scaling
    # either image by a nonzero factor scales both sides alike: the images
    # need no canonical form.
    image = _code_map(t.matrix)
    line_image = _code_map(t.inverse().matrix.transpose())
    identities_ok = True
    base_set = set(norm.base)
    for p, i in zip(oval.points, indices):
        if p in base_set:
            continue
        c0, c1, c2 = image(*p.codes)
        b0, b1, b2 = line_image(*pl.lines[tangent_of[i]].codes)
        s01, s02, s12 = add[c0][c1], add[c0][c2], add[c1][c2]
        if (
            mul[b2][s02] != mul[b1][s01]
            or mul[b2][s12] != mul[b0][s01]
            or mul[b0][s02] != mul[b1][s12]
        ):
            identities_ok = False
            break

    if q == 3:
        oracle = _pencil_oracle(oval.points)
    else:
        oracle = fit_conic_nullspace(oval.points[:5])

    cert = Certificate(
        field=spec.to_text(),
        oval=tuple(p.to_text() for p in oval.points),
        base_triple=tuple(p.to_text() for p in frame0.base),
        frame_matrix=tuple(_rows(t.matrix)),
        slopes=tuple(k.to_int() for k in frame0.slopes),
        conic=conic.to_ints(),
        oracle_conic=oracle.to_ints(),
        identities_ok=identities_ok,
        all_points_ok=all_points_ok,
    )

    if not all_points_ok:
        failure = "reconstructed conic misses an oval point"
    elif not identities_ok:
        failure = "a tangent cross identity fails"
    elif conic != oracle:
        failure = "reconstructed conic disagrees with the fit oracle"
    elif not is_nondegenerate(conic).verdict:
        failure = "reconstructed conic is degenerate"
    else:
        return conic, cert
    raise VerificationFailed(failure, certificate=cert)
