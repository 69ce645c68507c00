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
field elements.  The slope scan maps each point through the frame matrix
with the op tables; its slopes are coordinate ratios, so the image needs no
scaling.  The certificate's checks (see `reconstruct_conic`) say that the
oval's tangent at each point is the conic's, which holds in every frame, so
they run in the oval's own coordinates, one gradient (U + U^T) p per point,
and no frame transform is inverted; both scans map points with
`pg2._code_map`.  They read no variety: the q = 3 oracle counts its pencil's
non-degenerate members, and non-degeneracy is det(U + U^T) != 0.

An `Arc` keeps the last frame `tangent_frame` built on it, for one base, so
the chain tangent_frame -> lemma_of_tangents -> reconstruct_conic on one arc
and base scans the oval once.  The lemma's tangent triangle, centres and
pencil lines, the fit oracles' line pairs and pencil members, and the
Desargues sampler work on codes on the field's log/antilog/Zech kernel, at
every field order; only the joins and meets of `perspective_center`, the
lemma's independent centre, row-reduce elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .arcs import Arc, is_arc
from .conic import Conic, _gradient_matrix, _pullback
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
from .linalg import Mat, _cross, _dot, _mat_vec, _rows, _scale, det3
from .pg2 import (
    Collineation,
    ProjLine,
    ProjPoint,
    _canonical_codes,
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
        t = [1 + rng.randrange(spec.q - 1) for _ in range(3)]
        # a coordinate x of p_i and y of c gives x + t_i * y = (x, y) . (1, t_i)
        s = tuple(ProjPoint._of(spec, _canonical_codes(spec, tuple(
            _dot(spec, (x, y), (1, ti)) for x, y in zip(pi.codes, c.codes))))
            for pi, ti in zip(p, t))
        if len(set(s)) != 3 or collinear(*s) or (set(s) & set(p)):
            continue
        # No side is shared: s_i != p_i both lie on the line c p_i, so s_i on
        # the side p_i p_j would make that side the line c p_i, through c.
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


def _pencil_line(spec: FieldSpec, which: int, slope: int) -> ProjLine:
    """The line of slope code `slope` in the pencil through e_which."""
    (minus,) = _scale(spec, (slope,), spec.p - 1)  # p - 1 is the code of -1
    codes = ((0, 1, minus), (minus, 0, 1), (1, minus, 0))[which - 1]
    return ProjLine._of(spec, _canonical_codes(spec, codes))


def tangent_frame(oval: Arc, base) -> TangentFrame:
    """Map a base triple of oval points to the frame and extract tangent slopes.

    The missing slope in each base-point pencil is the tangent slope there;
    the product of the three is checked to be -1.  The frame images and
    their slopes are computed on the field's op-table codes, and the
    tangents are the leftover pencil lines l pulled back as t0^T l, with no
    inverse of t0.  This needs q <= 512 (BoundExceeded above); every oval
    built on the plane has q <= 128, so only a trusted `Arc` can get there.
    A non-base point on a side of the base triangle (only a trusted `Arc`
    that is no arc has one) has a zero frame coordinate: DivisionByZero.

    The arc memoises the last frame built on it: called again with the same
    base, this runs the argument checks and returns an equal frame without
    a second scan.  A scan that raises leaves the memo as it was.
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
    memo = oval._frame
    if memo is not None and memo[0] == base:
        _, t0, slopes, tangents = memo
        return TangentFrame(oval=oval, base=base, transform=t0, slopes=slopes, tangents=tangents)

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

    # a frame line l pulls back to the line t0^T l
    t0_t = t0.matrix.transpose()
    lines = (_pencil_line(spec, i + 1, k).codes for i, k in enumerate(slopes))
    tangents = tuple(ProjLine._of(spec, _canonical_codes(spec, _mat_vec(t0_t, l))) for l in lines)
    slopes = tuple(spec.from_int(k) for k in slopes)
    oval._frame = (base, t0, slopes, tangents)
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

    The closed form (1, k1*k2, -k2), (1, -m3, m1*m3) in the reciprocal
    slopes (see `LemmaResult`), is cross-checked against the center
    computed independently from joins and meets; disagreement raises.  The
    concurrency of the reciprocal-parameter pencil lines through
    (1, -k3, k1*k3) is verified as a second certificate of the relation.
    The center maps back as the meet of two joins pulled back through t0^T,
    with no inverse of t0.
    """
    spec = frame.spec
    k1, k2, k3 = (k.code for k in frame.slopes)
    k1k2, k1k3 = _scale(spec, (k2, k3), k1)
    (k2k3,) = _scale(spec, (k3,), k2)
    minus = _scale(spec, (k1, k2, k3), spec.p - 1)  # p - 1 is the code of -1

    def point(*codes) -> ProjPoint:
        return ProjPoint._of(spec, _canonical_codes(spec, codes))

    # vertices of the tangent triangle, s_i opposite the base point e_i
    s1 = point(k3, 1, k2k3)
    s2 = point(k1k3, k1, 1)
    s3 = point(1, k1k2, k2)
    e1, e2, e3 = (ProjPoint._of(spec, v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    closed = point(1, k1k2, minus[1])
    computed = perspective_center((e1, e2, e3), (s1, s2, s3))
    if computed is None or computed != closed:
        raise SegreRelationViolated(
            "closed-form perspective center disagrees with the computed one"
        )
    joins = tuple(_pencil_line(spec, i + 1, mk) for i, mk in enumerate(minus))
    for ln in joins:
        if not incident(closed, ln):
            raise SegreRelationViolated("center is off one of the vertex joins")

    reciprocal = point(1, minus[2], k1k3)
    reciprocal_lines = (
        _pencil_line(spec, 1, k2k3),
        _pencil_line(spec, 2, k1k3),
        _pencil_line(spec, 3, k1k2),
    )
    for ln in reciprocal_lines:
        if not incident(reciprocal, ln):
            raise SegreRelationViolated(
                "reciprocal-parameter lines are not concurrent"
            )

    # (t0^T u) x (t0^T v) = det t0 * t0^-1 (u x v)
    t0_t = frame.transform.matrix.transpose()
    center = point(*_cross(spec, *(_mat_vec(t0_t, ln.codes) for ln in joins[:2])))
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
    return TangentFrame(
        oval=frame.oval,
        base=frame.base,
        transform=combined,
        slopes=(minus_one, minus_one, minus_one),
        tangents=frame.tangents,
    )


def frame_conic(spec: FieldSpec) -> Conic:
    """x1*x2 + x2*x3 + x3*x1, the conic with all frame tangent slopes -1."""
    return Conic._of(spec, (0, 0, 0, 1, 1, 1))


def _line_pairs(spec: FieldSpec, a, b, c, d) -> tuple:
    """The line pairs (ab, cd) and (ac, bd) through four points, as code triples."""
    ab, cd, ac, bd = (_cross(spec, u.codes, v.codes) for u, v in ((a, b), (c, d), (a, c), (b, d)))
    return (ab, cd), (ac, bd)


def _pair_sum(spec: FieldSpec, *pairs) -> tuple:
    """The monomial codes of the sum over line pairs (l, m) of (l . x)(m . x):
    l_i m_i at x_i^2, l_i m_j + l_j m_i at x_i x_j, each one kernel dot product."""
    return tuple(_dot(spec, [x for l, _ in pairs for x in (l[i], l[j] if i < j else 0)],
                      [y for _, m in pairs for y in (m[j], m[i])])
                 for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)))


def fit_conic_nullspace(points) -> Conic:
    """The unique conic through at least 5 points in general position.

    No nullspace, despite the name: the conics through a, b, c, d are the
    pencil of the line pairs f = (ab)(cd) and g = (ac)(bd), and g(e) f - f(e) g
    is its member through e.  With no three points collinear (checked first),
    e is on none of the four lines, so f(e) and g(e) are nonzero, and f and g
    share no line: the member is exact and nonzero.  Each further point must
    lie on it.
    """
    pts = list(dict.fromkeys(points))
    if len(pts) < 5:
        raise UnderDetermined(f"need at least 5 distinct points, got {len(pts)}")
    if not is_arc(pts)[0]:
        raise UnderDetermined("three of the points are collinear; no unique conic")
    spec = pts[0].spec
    (ab, cd), (ac, bd) = _line_pairs(spec, *pts[:4])
    ab_e, cd_e, ac_e, bd_e = (_dot(spec, l, pts[4].codes) for l in (ab, cd, ac, bd))
    # g(e) f - f(e) g: the pairs (ac.e ab)(bd.e cd), (ab.e ac)(-cd.e bd); -1 has code p - 1
    pairs = ((_scale(spec, ab, ac_e), _scale(spec, cd, bd_e)),
             (_scale(spec, ac, ab_e), _scale(spec, _scale(spec, bd, cd_e), spec.p - 1)))
    for p in pts[5:]:  # the member at p: the sum over its pairs of (l . p)(m . p)
        if _dot(spec, *([_dot(spec, line, p.codes) for line in pair] for pair in zip(*pairs))):
            raise Inconsistent("no conic passes through all the given points")
    return Conic._of(spec, _canonical_codes(spec, _pair_sum(spec, *pairs)))


def _pencil_oracle(points) -> Conic:
    """Unique non-degenerate conic through 4 points in general position.

    Used as the independent reference at q = 3, where an oval has only 4
    points.  Their conics are the pencil of f = (ab)(cd) and g = (ac)(bd)
    unless one repeats or all are collinear (f or g is then zero, or the two
    proportional).  If three are collinear, every member holds their line;
    else q - 2 members are non-degenerate, all but the line pairs (ab)(cd),
    (ac)(bd) and (ad)(bc).  At q = 3 it is whichever of f + g and f - g is
    not (ad)(bc).
    """
    pts = list(points)
    if len(pts) != 4:
        raise UnderDetermined(f"pencil oracle needs exactly 4 points, got {len(pts)}")
    spec = pts[0].spec
    (ab, cd), (ac, bd) = pairs = _line_pairs(spec, *pts)
    f, g = (_pair_sum(spec, pair) for pair in pairs)
    if not (any(f) and any(g)) or _canonical_codes(spec, f) == _canonical_codes(spec, g):
        raise UnderDetermined("expected a pencil of conics through 4 points")
    count = spec.q - 2 if is_arc(pts)[0] else 0
    if count != 1:
        raise Inconsistent(f"expected exactly one non-degenerate pencil member, got {count}")
    ad, bc = (_cross(spec, pts[i].codes, pts[j].codes) for i, j in ((0, 3), (1, 2)))
    # f + g, f - g and (ad)(bc); -1 has code p - 1
    plus, minus, ad_bc = (_canonical_codes(spec, _pair_sum(spec, *ps)) for ps in (
        pairs, ((ab, cd), (ac, _scale(spec, bd, spec.p - 1))), ((ad, bc),)))
    return Conic._of(spec, minus if plus == ad_bc else plus)


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

    Returns (conic, certificate).  The conic f is the frame conic g pulled
    back through the normalized frame transform T, with no inverse of T; it
    is verified to contain every oval point, to satisfy the tangent cross
    identities at every non-base point, to coincide with an independently
    fitted conic, and to be non-degenerate.  A failed check raises
    VerificationFailed with the certificate built so far as `certificate`.

    Both per-point checks take one gradient grad f(p) = (U + U^T) p on the
    op-table codes, in the oval's own coordinates: p is on the conic iff
    p . grad f(p) = 2 f(p) vanishes (q is odd), and each oval tangent B at p
    (one `Plane.tangents` call lists them; an oval has one per point) is the
    conic's iff B x grad f(p) = 0.  The latter are the frame identities
    b x grad g(c) = 0 at c = T p, b = T^-T B pulled back: f is a multiple
    lam * g(T x), so grad g(c) = T^-T grad f(p) / lam, and
    (T^-T u) x (T^-T v) = det(T^-1) * T (u x v) for invertible T.  Last, f
    is non-degenerate iff det(U + U^T) != 0: a kernel vector p has a zero
    gradient and 2 f(p) = 0, and a non-singular form has a zero
    (Chevalley-Warning), so it is x^2 - yz in some frame.
    """
    spec = oval.spec
    q = spec.q
    if q % 2 == 0:
        raise EvenOrder(f"conic reconstruction needs odd q, got q={q}")
    if oval.size != q + 1:
        raise NotMaximalOval(
            f"need a maximal oval of q+1={q + 1} points, got {oval.size}"
        )
    frame0 = tangent_frame(oval, oval.points[:3] if base is None else base)
    t = normalize_tangents(frame0).transform
    conic = _pullback(t.matrix, frame_conic(spec))

    pl = plane(spec)
    tangents = pl.tangents([pl.index(p) for p in oval.points])

    add, mul, _, _ = spec.op_tables()
    gradient_matrix = _gradient_matrix(conic)
    grad = _code_map(gradient_matrix)
    all_points_ok = identities_ok = True
    base_set = set(frame0.base)
    for p, tl in zip(oval.points, tangents):
        x, y, z = p.codes
        g0, g1, g2 = grad(x, y, z)
        # p . grad f(p) = 2 f(p), and B x grad f(p) for each tangent B at p
        all_points_ok = all_points_ok and not add[add[mul[x][g0]][mul[y][g1]]][mul[z][g2]]
        if identities_ok and p not in base_set:
            for li in tl:
                b0, b1, b2 = pl.lines[li].codes
                identities_ok = identities_ok and (
                    mul[b1][g2] == mul[b2][g1] and mul[b2][g0] == mul[b0][g2]
                    and mul[b0][g1] == mul[b1][g0])

    oracle = _pencil_oracle(oval.points) if q == 3 else fit_conic_nullspace(oval.points[:5])

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
    elif det3(gradient_matrix).is_zero():
        failure = "reconstructed conic is degenerate"
    else:
        return conic, cert
    raise VerificationFailed(failure, certificate=cert)
