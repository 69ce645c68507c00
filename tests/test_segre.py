"""Desargues configurations, the tangent-slope lemma, and constructive
conic reconstruction with its certificates."""

import collections
import dataclasses
import gc
import itertools
import json
import pickle
import random
import sys

import pytest

from galoisplane.arcs import Arc, is_arc, search_maximal_arcs, tangent_lines
from galoisplane.conic import (
    Conic,
    combinatorial_tangents,
    gradient,
    is_nondegenerate,
    parse_conic,
    tangent_at,
    transform_conic,
    variety_of,
)
from galoisplane import segre
from galoisplane.errors import (
    BoundExceeded,
    DegenerateTriangle,
    DivisionByZero,
    EqualPoints,
    EvenOrder,
    Inconsistent,
    NotAnOval,
    NotInPerspective,
    NotMaximalOval,
    PointsNotOnOval,
    RelationViolated,
    SharedSide,
    SpecMismatch,
    UnderDetermined,
    VerificationFailed,
)
from galoisplane import linalg, pg2
from galoisplane.gf import FieldElement, FieldSpec, make_field, product_nonzero
from galoisplane.linalg import Mat, nullspace
from galoisplane.pg2 import (
    Collineation,
    Plane,
    ProjPoint,
    canonicalize,
    canonicalize_line,
    collinear,
    incident,
    join,
    meet,
    parse_point,
    plane,
)
from galoisplane.segre import (
    Certificate,
    desargues_axis,
    fit_conic_nullspace,
    frame_conic,
    lemma_of_tangents,
    normalize_tangents,
    perspective_center,
    reconstruct_conic,
    sample_perspective_triangles,
    tangent_frame,
)


def _pt(spec, *codes):
    return canonicalize(tuple(spec.from_int(c) for c in codes))


def _ln(spec, *codes):
    return canonicalize_line(tuple(spec.from_int(c) for c in codes))


def _standard_triangle(spec):
    return (_pt(spec, 1, 0, 0), _pt(spec, 0, 1, 0), _pt(spec, 0, 0, 1))


def _classic_pair(spec):
    q = spec.q
    tri1 = _standard_triangle(spec)
    tri2 = (
        _pt(spec, q - 1, 1, 1),
        _pt(spec, 1, q - 1, 1),
        _pt(spec, 1, 1, q - 1),
    )
    return tri1, tri2


def _oval(spec):
    return Arc(parse_conic(spec, "[1:0:0:0:0:-1]").variety())


# pencil lines through the three frame points, by slope; used as an
# independent construction against the library's internal one
def _l1(spec, a):
    return canonicalize_line((spec.zero(), spec.one(), -a))


def _l2(spec, a):
    return canonicalize_line((-a, spec.zero(), spec.one()))


def _l3(spec, a):
    return canonicalize_line((spec.one(), -a, spec.zero()))


def test_perspective_center_classic():
    spec = make_field(5)
    tri1, tri2 = _classic_pair(spec)
    c = perspective_center(tri1, tri2)
    assert c == _pt(spec, 1, 1, 1)


def test_perspective_center_none_when_not_perspective():
    spec = make_field(5)
    tri1, tri2 = _classic_pair(spec)
    # scrambling the vertex correspondence breaks the concurrency
    assert perspective_center(tri1, (tri2[1], tri2[2], tri2[0])) is None


def test_perspective_center_degenerate_triangle():
    spec = make_field(5)
    flat = (_pt(spec, 1, 0, 0), _pt(spec, 0, 1, 0), _pt(spec, 1, 1, 0))
    with pytest.raises(DegenerateTriangle):
        perspective_center(flat, _classic_pair(spec)[1])


def test_perspective_center_shared_vertex():
    spec = make_field(5)
    tri1, _ = _classic_pair(spec)
    with pytest.raises(EqualPoints):
        perspective_center(tri1, tri1)


def _join_meet_center(tri1, tri2):
    """perspective_center as the public join and meet compute it: the
    reference for the code cross products."""
    segre._check_triangle(tri1, "first triangle")
    segre._check_triangle(tri2, "second triangle")
    joins = []
    for a, b in zip(tri1, tri2):
        if a == b:
            raise EqualPoints(
                f"corresponding vertices coincide at {a.to_text()}, join undefined")
        joins.append(join(a, b))
    if joins[0] == joins[1]:
        return meet(joins[0], joins[2]) if joins[0] != joins[2] else None
    c = meet(joins[0], joins[1])
    return c if incident(c, joins[2]) else None


def _center_outcome(fn, tri1, tri2):
    try:
        c = fn(tri1, tri2)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return None if c is None else (c.spec, c.codes)


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)],
                         ids=["q3", "q4", "q5", "q7", "q8", "q9"])
def test_perspective_center_matches_join_meet_reference(p, k):
    """On seeded random triangle pairs, sampled perspective pairs and their
    scrambles, pairs whose first two joins coincide, and pairs with one or
    all vertices of the second triangle over another field, the code cross
    products give the reference's point, None, or exception type and
    message."""
    spec = make_field(p, k)
    pts = plane(spec).points
    foreign = _standard_triangle(make_field(11))
    rng = random.Random(1000 * p + k)
    pairs = []
    for _ in range(150):
        pairs.append(tuple(tuple(rng.choice(pts) for _ in range(3)) for _ in range(2)))
        tri1, tri2 = sample_perspective_triangles(spec, rng)
        pairs += [(tri1, tri2), (tri1, (tri2[1], tri2[2], tri2[0]))]
        # b0 and b1 on the side a0 a1, so the joins a0 b0 and a1 b1 are that side
        side = [x for x in pts if collinear(tri1[0], tri1[1], x)]
        pairs.append((tri1, (rng.choice(side), rng.choice(side), rng.choice(pts))))
        i = rng.randrange(3)  # the whole second triangle, or one vertex, over GF(11)
        pairs.append((tri1, foreign if i == 0 else tri2[:i] + (foreign[i],) + tri2[i + 1:]))
    seen = collections.Counter()
    for tri1, tri2 in pairs:
        got = _center_outcome(perspective_center, tri1, tri2)
        assert got == _center_outcome(_join_meet_center, tri1, tri2), (tri1, tri2)
        if got is None:
            kind = "none"
        elif isinstance(got[0], type):
            kind = got[0].__name__ + (" repeated" if "repeated" in got[1] else "")
        elif join(tri1[0], tri2[0]) == join(tri1[1], tri2[1]):
            kind = "coinciding joins"
        else:
            kind = "point"
        seen[kind] += 1
    assert set(seen) == {"none", "point", "coinciding joins", "EqualPoints", "SpecMismatch",
                         "DegenerateTriangle", "DegenerateTriangle repeated"}, seen


def test_perspective_center_errors_keep_their_messages():
    spec = make_field(5)
    tri1, tri2 = _classic_pair(spec)
    flat = (_pt(spec, 1, 0, 0), _pt(spec, 0, 1, 0), _pt(spec, 1, 1, 0))
    cases = [
        ((tri1, (_pt(spec, 1, 1, 1), tri1[1], _pt(spec, 1, 2, 3))), EqualPoints,
         "corresponding vertices coincide at [0:1:0], join undefined"),
        ((tri1, _standard_triangle(make_field(7))), SpecMismatch,
         "points from different field specs"),
        ((tri1, (tri2[0], tri2[1], tri2[0])), DegenerateTriangle,
         "second triangle has a repeated vertex"),
        ((flat, tri2), DegenerateTriangle, "first triangle vertices are collinear"),
        ((tri1, tri2[:2]), DegenerateTriangle, "second triangle needs 3 points, got 2"),
    ]
    for args, exc_type, message in cases:
        with pytest.raises(exc_type) as info:
            perspective_center(*args)
        assert type(info.value) is exc_type and str(info.value) == message


def test_desargues_axis_classic_frozen():
    spec = make_field(5)
    result = desargues_axis(*_classic_pair(spec))
    assert result.center == _pt(spec, 1, 1, 1)
    got = [m.to_text() for m in result.meets]
    assert got == ["[1:4:0]", "[1:0:4]", "[0:1:4]"]
    assert result.axis == _ln(spec, 1, 1, 1)


def test_desargues_meets_sit_on_their_sides():
    """meets[0] is side12 x side12', meets[1] side13, meets[2] side23."""
    spec = make_field(7)
    rng = random.Random(17)
    side_pairs = ((0, 1), (0, 2), (1, 2))
    for _ in range(50):
        tri1, tri2 = sample_perspective_triangles(spec, rng)
        result = desargues_axis(tri1, tri2)
        for m, (i, j) in zip(result.meets, side_pairs):
            assert incident(m, join(tri1[i], tri1[j]))
            assert incident(m, join(tri2[i], tri2[j]))
            assert incident(m, result.axis)
        assert collinear(*result.meets)


def test_desargues_axis_not_in_perspective():
    spec = make_field(5)
    tri1, tri2 = _classic_pair(spec)
    with pytest.raises(NotInPerspective):
        desargues_axis(tri1, (tri2[1], tri2[2], tri2[0]))


def test_desargues_axis_shared_side():
    spec = make_field(5)
    tri1 = _standard_triangle(spec)
    # both triangles contain the side z = 0
    tri2 = (_pt(spec, 1, 3, 0), _pt(spec, 3, 1, 0), _pt(spec, 1, 1, 1))
    assert perspective_center(tri1, tri2) is not None
    with pytest.raises(SharedSide):
        desargues_axis(tri1, tri2)


def test_sampler_produces_valid_configurations():
    for p, k in ((3, 1), (2, 2), (5, 1), (3, 2)):
        spec = make_field(p, k)
        rng = random.Random(100 + p * k)
        for _ in range(20):
            tri1, tri2 = sample_perspective_triangles(spec, rng)
            c = perspective_center(tri1, tri2)
            assert c is not None
            result = desargues_axis(tri1, tri2)
            assert result.center == c


def test_sampler_is_deterministic():
    spec = make_field(7)
    a = sample_perspective_triangles(spec, random.Random(42))
    b = sample_perspective_triangles(spec, random.Random(42))
    assert a == b


# (q, seed) -> vertex codes of the two triangles and the next 16 random
# bits, recorded from the sampler that tested shared sides with two joins
_SAMPLED_PAIRS = {
    (7, 1): ([(1, 5, 1), (0, 1, 5), (0, 1, 2)], [(1, 3, 1), (1, 6, 5), (1, 2, 3)], 32468),
    (7, 2): ([(0, 1, 5), (1, 0, 3), (1, 0, 5)], [(0, 1, 2), (1, 3, 0), (1, 2, 3)], 48232),
    (7, 3): ([(1, 5, 2), (1, 4, 6), (1, 1, 1)], [(1, 1, 3), (1, 0, 3), (1, 6, 1)], 41007),
    (7, 4): ([(1, 2, 5), (1, 0, 6), (1, 6, 4)], [(1, 2, 6), (1, 3, 2), (1, 1, 2)], 5904),
    (7, 5): ([(1, 6, 2), (0, 1, 4), (1, 6, 5)], [(1, 5, 1), (0, 1, 5), (1, 0, 6)], 55073),
    (7, 42): ([(1, 1, 0), (1, 0, 1), (1, 6, 5)], [(1, 4, 2), (1, 1, 6), (1, 3, 5)], 9144),
    (128, 1): ([(1, 16, 19), (1, 65, 38), (1, 30, 23)],
               [(1, 9, 99), (1, 35, 17), (1, 9, 70)], 30949),
    (128, 2): ([(1, 78, 113), (1, 64, 51), (1, 54, 41)],
               [(1, 101, 111), (1, 97, 113), (1, 122, 99)], 44646),
    (128, 3): ([(1, 33, 49), (1, 94, 90), (1, 121, 45)],
               [(1, 16, 68), (1, 26, 76), (1, 76, 126)], 39688),
}


@pytest.mark.parametrize("q, seed", sorted(_SAMPLED_PAIRS))
def test_sampler_pairs_and_draws_are_pinned(q, seed):
    spec = make_field(7) if q == 7 else make_field(2, 7)
    rng = random.Random(seed)
    tri1, tri2 = sample_perspective_triangles(spec, rng)
    got = ([x.codes for x in tri1], [x.codes for x in tri2], rng.getrandbits(16))
    assert got == _SAMPLED_PAIRS[q, seed]


def test_tangent_frame_worked_example():
    """Base (e1, e2, e3) on the conic xy + xz + yz over GF(5)."""
    spec = make_field(5)
    oval = Arc(parse_conic(spec, "[0:0:0:1:1:1]").variety())
    frame = tangent_frame(oval, _standard_triangle(spec))
    assert tuple(k.to_int() for k in frame.slopes) == (3, 2, 4)
    k1, k2, k3 = frame.slopes
    assert k1 * k2 * k3 == -spec.one()


def test_tangent_frame_default_base_frozen():
    spec = make_field(5)
    frame = tangent_frame(_oval(spec), _oval(spec).points[:3])
    assert tuple(k.to_int() for k in frame.slopes) == (4, 3, 2)


def test_tangent_frame_maps_base_to_reference_triangle():
    spec = make_field(7)
    oval = _oval(spec)
    base = (oval.points[1], oval.points[4], oval.points[6])
    frame = tangent_frame(oval, base)
    images = [frame.transform.apply(p) for p in base]
    assert images == list(_standard_triangle(spec))


def test_tangent_frame_tangents_touch_once():
    spec = make_field(7)
    oval = _oval(spec)
    base = (oval.points[0], oval.points[2], oval.points[5])
    frame = tangent_frame(oval, base)
    for p, t in zip(base, frame.tangents):
        assert incident(p, t)
        assert sum(1 for r in oval.points if incident(r, t)) == 1


def test_tangent_frame_slope_product_many_bases():
    spec = make_field(7)
    oval = _oval(spec)
    minus_one = -spec.one()
    for base in itertools.permutations(oval.points[:4], 3):
        frame = tangent_frame(oval, base)
        k1, k2, k3 = frame.slopes
        assert k1 * k2 * k3 == minus_one


def test_tangent_frame_guards():
    spec5 = make_field(5)
    oval5 = _oval(spec5)
    with pytest.raises(EvenOrder):
        spec4 = make_field(2, 2)
        oval4 = Arc(parse_conic(spec4, "[1:0:0:0:0:1]").variety())
        tangent_frame(oval4, oval4.points[:3])
    with pytest.raises(NotAnOval):
        tangent_frame(Arc(oval5.points[:5]), oval5.points[:3])
    with pytest.raises(EqualPoints):
        p = oval5.points[0]
        tangent_frame(oval5, (p, p, oval5.points[1]))
    with pytest.raises(PointsNotOnOval):
        tangent_frame(oval5, (_pt(spec5, 1, 0, 0),) + tuple(oval5.points[:2]))


def test_noncanonical_base_point_is_on_the_oval():
    # [2:2:2] is the point [1:1:1] of x^2 = yz over GF(5)
    spec = make_field(5)
    oval = _oval(spec)
    unit = _pt(spec, 1, 1, 1)
    two = spec.from_int(2)
    scaled = ProjPoint((two, two, two))
    assert unit in oval and scaled in oval
    others = tuple(p for p in oval.points if p != unit)[:2]
    frame = tangent_frame(oval, (scaled,) + others)
    assert frame.base == (unit,) + others
    assert frame.slopes == tangent_frame(oval, (unit,) + others).slopes
    got = reconstruct_conic(oval, (scaled,) + others)[1].to_json()
    assert got == reconstruct_conic(oval, (unit,) + others)[1].to_json()


def test_lemma_closed_form_center():
    spec = make_field(5)
    oval = _oval(spec)
    frame = tangent_frame(oval, oval.points[:3])
    res = lemma_of_tangents(frame)
    k1, k2, k3 = frame.slopes
    one = spec.one()
    assert res.center_frame == canonicalize((one, k1 * k2, -k2))
    assert res.reciprocal_center == canonicalize((one, -k3, k1 * k3))


def test_lemma_tangent_triangle_is_meet_of_tangents():
    """s1 = L2(k2) ^ L3(k3) and cyclically, in frame coordinates."""
    spec = make_field(7)
    oval = _oval(spec)
    frame = tangent_frame(oval, (oval.points[3], oval.points[0], oval.points[7]))
    res = lemma_of_tangents(frame)
    k1, k2, k3 = frame.slopes
    s1, s2, s3 = res.tangent_triangle
    assert s1 == meet(_l2(spec, k2), _l3(spec, k3))
    assert s2 == meet(_l3(spec, k3), _l1(spec, k1))
    assert s3 == meet(_l1(spec, k1), _l2(spec, k2))


def test_lemma_joins_connect_vertices():
    spec = make_field(7)
    oval = _oval(spec)
    frame = tangent_frame(oval, oval.points[:3])
    res = lemma_of_tangents(frame)
    e = _standard_triangle(spec)
    for i in range(3):
        assert res.joins[i] == join(e[i], res.tangent_triangle[i])
        assert incident(res.center_frame, res.joins[i])


def test_lemma_center_maps_back():
    spec = make_field(5)
    oval = _oval(spec)
    frame = tangent_frame(oval, oval.points[:3])
    res = lemma_of_tangents(frame)
    assert frame.transform.apply(res.center) == res.center_frame


def test_lemma_reciprocal_concurrency():
    """The reciprocal-parameter pencil lines all pass through
    (1, -k3, k1*k3); their parameters are -1/k_i of the join parameters."""
    spec = make_field(7)
    oval = _oval(spec)
    rng = random.Random(23)
    for _ in range(25):
        base = tuple(rng.sample(oval.points, 3))
        frame = tangent_frame(oval, base)
        res = lemma_of_tangents(frame)
        k1, k2, k3 = frame.slopes
        for l in (_l1(spec, k2 * k3), _l2(spec, k1 * k3), _l3(spec, k1 * k2)):
            assert incident(res.reciprocal_center, l)
        # and each reciprocal parameter is -1/k_i, by the product relation
        assert k2 * k3 == -k1.inv()
        assert k1 * k3 == -k2.inv()
        assert k1 * k2 == -k3.inv()


def test_normalize_tangents_slopes_become_minus_one():
    spec = make_field(7)
    oval = _oval(spec)
    for base in (oval.points[:3], (oval.points[5], oval.points[1], oval.points[2])):
        frame = tangent_frame(oval, base)
        norm = normalize_tangents(frame)
        minus_one = -spec.one()
        assert norm.slopes == (minus_one, minus_one, minus_one)
        assert norm.base == frame.base
        assert norm.tangents == frame.tangents
        images = [norm.transform.apply(p) for p in base]
        assert images == list(_standard_triangle(spec))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (11, 2)],
                         ids=["q3", "q5", "q7", "q9", "q13", "q121"])
def test_normalize_tangents_is_the_diagonal_product(p, k):
    """normalize_tangents rescales rows 1 and 2 of the frame matrix; its
    transform equals the reference product diag(1, -k3, k1*k3) @ t0, on
    frames of seeded images of the standard oval with random bases."""
    spec = make_field(p, k)
    rng = random.Random(spec.q)
    elems = spec.elements()
    std = _oval(spec).points
    for _ in range(8):
        while True:
            m = Mat(spec, 3, 3, tuple(rng.choice(elems) for _ in range(9)))
            if not linalg.det3(m).is_zero():
                break
        pts = [Collineation(m).apply(v) for v in std]
        frame = tangent_frame(Arc(pts), tuple(rng.sample(pts, 3)))
        k1, k2, k3 = frame.slopes
        d = Mat.diagonal((spec.one(), -k3, k1 * k3))
        norm = normalize_tangents(frame)
        assert norm.transform.matrix == d @ frame.transform.matrix
        assert norm.slopes == (-spec.one(),) * 3


def test_normalize_tangents_rejects_an_inconsistent_frame():
    """A hand-built frame is checked: over every slope triple at q = 5, those
    whose product is not -1 raise RelationViolated, and the others pass."""
    spec = make_field(5)
    oval = _oval(spec)
    frame = tangent_frame(oval, oval.points[:3])
    for slopes in itertools.product(spec.elements()[1:], repeat=3):
        hand_built = dataclasses.replace(frame, slopes=slopes)
        k1, k2, k3 = slopes
        if k1 * k2 * k3 == -spec.one():
            assert normalize_tangents(hand_built).slopes == (-spec.one(),) * 3
            continue
        with pytest.raises(RelationViolated) as info:
            normalize_tangents(hand_built)
        assert str(info.value) == "slope product is not -1; frame is inconsistent"


def test_frame_conic_reference():
    spec = make_field(5)
    g = frame_conic(spec)
    assert g.to_ints() == (0, 0, 0, 1, 1, 1)
    for p in _standard_triangle(spec):
        assert g.evaluate(p).is_zero()


def test_fit_conic_nullspace_recovers():
    for q in (5, 7, 9):
        spec = make_field(3, 2) if q == 9 else make_field(q)
        conic = parse_conic(spec, "[1:0:0:0:0:-1]")
        pts = conic.variety()
        assert fit_conic_nullspace(pts[:5]) == conic
        assert fit_conic_nullspace(pts) == conic


def test_fit_conic_nullspace_underdetermined():
    spec = make_field(7)
    pts = parse_conic(spec, "[1:0:0:0:0:-1]").variety()
    with pytest.raises(UnderDetermined):
        fit_conic_nullspace(pts[:4])
    with pytest.raises(UnderDetermined):
        # three collinear points leave a pencil
        flat = [_pt(spec, 1, 0, 0), _pt(spec, 1, 1, 0), _pt(spec, 1, 2, 0),
                _pt(spec, 0, 0, 1), _pt(spec, 1, 1, 1)]
        fit_conic_nullspace(flat)


def test_fit_conic_nullspace_inconsistent():
    spec = make_field(7)
    pts = list(parse_conic(spec, "[1:0:0:0:0:-1]").variety()[:5])
    for cand in parse_conic(spec, "[0:0:0:1:1:1]").variety():
        if cand in pts:
            continue
        ok, _ = is_arc(pts + [cand])
        if ok:
            with pytest.raises(Inconsistent):
                fit_conic_nullspace(pts + [cand])
            return
    raise AssertionError("no sixth point found off the conic")


def _outcome(fn, *args):
    """What fn returns, as codes, or the type and message of what it raises."""
    try:
        return fn(*args).codes
    except (UnderDetermined, Inconsistent) as exc:
        return type(exc), str(exc)


def _reference_fit(points):
    """The conic through the points by row reduction of element rows, with
    the fit's checks and messages; collinear triples found by `collinear`."""
    pts = []
    for p in points:
        if p not in pts:
            pts.append(p)
    if len(pts) < 5:
        raise UnderDetermined(f"need at least 5 distinct points, got {len(pts)}")
    if any(collinear(*t) for t in itertools.combinations(pts, 3)):
        raise UnderDetermined("three of the points are collinear; no unique conic")
    basis = nullspace(_element_rows(pts))
    if not basis:
        raise Inconsistent("no conic passes through all the given points")
    (v,) = basis
    return parse_conic(pts[0].spec, ":".join(str(x.to_int()) for x in v))


@pytest.mark.parametrize("p, k", [(5, 1), (7, 1), (2, 3), (3, 2), (13, 1), (5, 2),
                                  (11, 2), (2, 7), (131, 1), (3, 5)])
def test_fit_matches_row_reduction(p, k):
    """The closed-form fit agrees with row reduction, conic or exception type
    and message, on seeded sets of 5-7 points of a random conic, as they are,
    with the last one moved at random, cut to four distinct with repeats,
    with a collinear triple, and at random; at q up to 128 and, above the
    largest plane, at q = 131 and 243, where `is_arc` compares determinants."""
    spec = make_field(p, k, max_order=243)
    q = spec.q
    rng = random.Random(q)
    elems = spec.elements()

    def point():
        while True:
            v = tuple(rng.choice(elems) for _ in range(3))
            if any(v):
                return canonicalize(v)

    on = [canonicalize((spec.one(), x, x * x)) for x in elems] + [_pt(spec, 0, 0, 1)]
    seen = set()
    for i in range(50):
        while True:
            m = Mat(spec, 3, 3, tuple(rng.choice(elems) for _ in range(9)))
            if not linalg.det3(m).is_zero():
                break
        pts = [Collineation(m).apply(v) for v in rng.sample(on, rng.randrange(5, min(q, 7) + 1))]
        kind = i % 5
        if kind == 1:  # a random point, on no line through two others if one is found
            for _ in range(q):
                pts[-1] = point()
                if not any(collinear(pts[-1], *t) for t in itertools.combinations(pts[:-1], 2)):
                    break
        elif kind == 2:
            pts = pts[:4] + [rng.choice(pts[:4]) for _ in pts[4:]]
        elif kind == 3:
            pts[2] = canonicalize(tuple(x + y for x, y in zip(pts[0].coords, pts[1].coords)))
        elif kind == 4:
            pts = [point() for _ in pts]
        got = _outcome(fit_conic_nullspace, pts)
        assert got == _outcome(_reference_fit, pts), pts
        seen.add(got[1][:7] if got[0] in (UnderDetermined, Inconsistent) else "a conic")
    # at q = 5 six points with no three collinear are on a conic
    assert seen == {"a conic", "need at", "three o"} | ({"no coni"} if q > 5 else set())


def test_pencil_oracle_exhaustive_q3():
    """At q = 3 the oracle's conic through each of the 234 four-point arcs is
    the only non-degenerate conic of the 364 through them; three collinear
    points (468 sets) leave only line pairs, and four collinear points (13)
    or a repeated point more than a pencil."""
    spec = make_field(3)
    pl = plane(spec)
    canonical = [v for v in itertools.product(range(3), repeat=6)
                 if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    assert len(canonical) == 364
    conics = [(c, set(c.variety())) for c in
              (parse_conic(spec, ":".join(map(str, v))) for v in canonical)
              if is_nondegenerate(c).verdict]
    outcomes = collections.Counter()
    for pts in itertools.combinations(pl.points, 4):
        if is_arc(pts)[0]:
            (expected,) = (c for c, var in conics if var.issuperset(pts))
            assert segre._pencil_oracle(pts) == expected
            outcomes["arc"] += 1
        elif collinear(*pts[:3]) and collinear(*pts[1:]):
            with pytest.raises(UnderDetermined, match="expected a pencil"):
                segre._pencil_oracle(pts)
            outcomes["four collinear"] += 1
        else:
            with pytest.raises(Inconsistent, match="member, got 0$"):
                segre._pencil_oracle(pts)
            outcomes["three collinear"] += 1
    assert outcomes == {"arc": 234, "three collinear": 468, "four collinear": 13}
    with pytest.raises(UnderDetermined, match="expected a pencil"):
        segre._pencil_oracle(pl.points[:3] + pl.points[1:2])


def _sweep_pencil_oracle(points):
    """The oracle as a sweep: every one of the q + 1 pencil members f + t*g
    and g through `is_nondegenerate`, with the oracle's checks and messages."""
    pts = list(points)
    if len(pts) != 4:
        raise UnderDetermined(f"pencil oracle needs exactly 4 points, got {len(pts)}")
    a, b, c, d = pts
    spec = a.spec
    if a == b or c == d or a == c or b == d:  # a line of f or g is undefined
        raise UnderDetermined("expected a pencil of conics through 4 points")

    def pair(u, v, w, x):  # the monomial coefficients of (uv . x)(wx . x)
        (l0, l1, l2), (m0, m1, m2) = join(u, v).coeffs, join(w, x).coeffs
        return (l0 * m0, l1 * m1, l2 * m2, l0 * m1 + l1 * m0, l0 * m2 + l2 * m0, l1 * m2 + l2 * m1)

    f, g = pair(a, b, c, d), pair(a, c, b, d)
    if all(fi * gj == fj * gi for fi, gi in zip(f, g) for fj, gj in zip(f, g)):
        raise UnderDetermined("expected a pencil of conics through 4 points")
    members = [tuple(x + t * y for x, y in zip(f, g)) for t in spec.elements()] + [g]
    winners = [c for c in (Conic(m) for m in members) if is_nondegenerate(c).verdict]
    if len(winners) != 1:
        raise Inconsistent(f"expected exactly one non-degenerate pencil member, got {len(winners)}")
    return winners[0]


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)])
def test_pencil_oracle_matches_member_sweep(p, k):
    """The closed-form member count and choice agree with a sweep of all
    q + 1 pencil members through `is_nondegenerate`, conic or exception type
    and message, on seeded four-point sets in shuffled order: arcs, three
    collinear, four collinear, and an arc with a repeated point."""
    spec = make_field(p, k)
    q = spec.q
    pl = plane(spec)
    rng = random.Random(2600 + q)

    def on_line(a, b):  # a point of the line ab other than a and b
        t = rng.choice(spec.elements()[1:])
        return canonicalize(tuple(x + t * y for x, y in zip(a.coords, b.coords)))

    seen = collections.Counter()
    for i in range(60):
        a, b = rng.sample(pl.points, 2)
        kind = ("arc", "three collinear", "four collinear", "repeated")[i % 4]
        if kind == "four collinear":
            pts = [a, b] + rng.sample([x for x in pl.points if collinear(a, b, x) and x not in (a, b)], 2)
        else:
            while True:
                pts = [a, b] + rng.sample(pl.points, 2)
                if is_arc(pts)[0]:
                    break
            if kind == "three collinear":
                pts[2] = on_line(a, b)
            elif kind == "repeated":
                pts[3] = rng.choice(pts[:3])
        rng.shuffle(pts)
        got = _outcome(segre._pencil_oracle, pts)
        assert got == _outcome(_sweep_pencil_oracle, pts), (kind, pts)
        seen[kind, got[1] if isinstance(got[0], type) else "a conic"] += 1
    member = f"expected exactly one non-degenerate pencil member, got {q - 2}"
    assert set(seen) == {("arc", "a conic" if q == 3 else member),
                         ("three collinear", "expected exactly one non-degenerate pencil member, got 0"),
                         ("four collinear", "expected a pencil of conics through 4 points"),
                         ("repeated", "expected a pencil of conics through 4 points")}


def test_reconstruct_reference_conic():
    for q in (5, 7):
        spec = make_field(q)
        conic_in = parse_conic(spec, "[1:0:0:0:0:-1]")
        got, cert = reconstruct_conic(Arc(conic_in.variety()))
        assert got == conic_in
        assert cert.identities_ok and cert.all_points_ok
        assert got.to_ints() == cert.conic == cert.oracle_conic


def test_reconstruct_extension_field():
    spec = make_field(3, 2)
    conic_in = parse_conic(spec, "[0:0:0:1:1:1]")
    got, cert = reconstruct_conic(Arc(conic_in.variety()))
    assert got == conic_in
    assert cert.identities_ok and cert.all_points_ok


def test_reconstruct_base_independent_exhaustive():
    spec = make_field(5)
    oval = _oval(spec)
    want = parse_conic(spec, "[1:0:0:0:0:-1]")
    for base in itertools.permutations(oval.points, 3):
        got, cert = reconstruct_conic(oval, base)
        assert got == want
        assert cert.base_triple == tuple(p.to_text() for p in base)


def test_reconstruct_certificate_contents():
    spec = make_field(5)
    oval = _oval(spec)
    got, cert = reconstruct_conic(oval)
    assert cert.field == "q=5"
    assert cert.oval == tuple(p.to_text() for p in oval.points)
    assert cert.base_triple == tuple(p.to_text() for p in oval.points[:3])
    assert cert.slopes == (4, 3, 2)
    assert len(cert.frame_matrix) == 3
    assert all(len(row) == 3 for row in cert.frame_matrix)
    d = cert.to_json_dict()
    assert list(d.keys()) == [
        "field", "oval", "base_triple", "frame_matrix", "slopes",
        "conic", "oracle_conic", "identities_ok", "all_points_ok",
    ]
    parsed = json.loads(cert.to_json())
    assert parsed == d
    assert cert.to_json() == cert.to_json()


def test_reconstruct_certificate_frame_matrix_is_the_transform():
    spec = make_field(7)
    oval = _oval(spec)
    got, cert = reconstruct_conic(oval)
    # the stored matrix re-applies: base points land on the reference triangle
    rows = [[spec.from_int(v) for v in row] for row in cert.frame_matrix]
    t = Collineation(Mat.from_rows(rows))
    images = [t.apply(p) for p in oval.points[:3]]
    assert images == list(_standard_triangle(spec))


def test_reconstruct_guards():
    spec = make_field(5)
    oval = _oval(spec)
    with pytest.raises(NotMaximalOval):
        reconstruct_conic(Arc(oval.points[:5]))
    with pytest.raises(EvenOrder):
        spec4 = make_field(2, 2)
        reconstruct_conic(Arc(parse_conic(spec4, "[1:0:0:0:0:1]").variety()))


def test_reconstruct_every_oval_q3():
    spec = make_field(3)
    ovals = search_maximal_arcs(spec, 4)
    assert len(ovals) == 234
    for oval in ovals:
        got, cert = reconstruct_conic(oval)
        assert cert.identities_ok and cert.all_points_ok
        assert {p.to_text() for p in got.variety()} == \
            {p.to_text() for p in oval.points}
        assert is_nondegenerate(got).verdict


def test_reconstruct_makes_one_tangents_call(monkeypatch):
    # every oval tangent comes from one Plane.tangents call over the oval
    calls = []
    original = Plane.tangents

    def counted(self, indices):
        calls.append(list(indices))
        return original(self, indices)

    monkeypatch.setattr(Plane, "tangents", counted)
    spec = make_field(13)
    arc = Arc(parse_conic(spec, "[1:0:0:0:0:-1]").variety())
    reconstruct_conic(arc)
    pl = plane(spec)
    assert calls == [[pl.index(p) for p in arc.points]]


def test_only_the_arc_search_builds_line_masks(monkeypatch):
    """The certify chain, validation, Desargues, both tangent routines and
    pair_line run on index tuples; the arc search alone builds the line
    bitmasks, on its first use of the plane."""
    monkeypatch.setattr(pg2, "_plane_cache", {})
    spec = make_field(5, 2)
    pl = plane(spec)
    conic = parse_conic(spec, "[1:0:0:0:0:-1]")
    arc = Arc(conic.variety())
    base = (arc.points[7], arc.points[2], arc.points[19])
    frame = tangent_frame(arc, base)
    lemma_of_tangents(frame)
    reconstruct_conic(arc, base)
    assert is_nondegenerate(conic).verdict and is_arc(arc.points)[0]
    rng = random.Random(25)
    for _ in range(5):
        desargues_axis(*sample_perspective_triangles(spec, rng))
    for p in arc.points[:6]:
        assert tangent_lines(arc, p) == combinatorial_tangents(conic, p)
    assert pl.lines[pl.pair_line(3, 200)] == join(pl.points[3], pl.points[200])
    assert pl._line_masks is None

    small = plane(make_field(5))
    assert small._line_masks is None
    search_maximal_arcs(small.spec, 6, limit=1)
    masks = small._line_masks
    assert len(masks) == small.n and small.line_masks is masks
    for li, mask in enumerate(masks):
        assert mask.bit_count() == 6
        assert {i for i in range(small.n) if mask >> i & 1} == set(small.line_points[li])


def test_certify_chain_leaves_no_reference_cycle():
    """With the collector off, frame, lemma and reconstruction on fresh arcs
    leave nothing for gc.collect(): every object is freed by its refcount."""
    spec = make_field(7)
    points = _oval(spec).points
    rng = random.Random(7)

    def chain():
        arc = Arc(points)
        base = tuple(rng.sample(points, 3))
        lemma_of_tangents(tangent_frame(arc, base))
        reconstruct_conic(arc, base)

    chain()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            chain()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tangent_frame_point_on_a_base_side_raises_division_by_zero():
    # A trusted 6-point non-arc at q=5: base [1:2:3], [0:1:0], [0:0:1]; the
    # first non-base point [1:0:0] completes the frame, and the second,
    # [1:2:0], lies on the side y = 2x through [1:2:3] and [0:0:1], so one
    # of its frame coordinates is zero.
    spec = make_field(5)
    pts = [_pt(spec, *v) for v in
           ((1, 0, 0), (1, 2, 0), (1, 2, 3), (1, 3, 2), (0, 1, 0), (0, 0, 1))]
    oval = Arc(pts, _trusted=True)
    base = (_pt(spec, 1, 2, 3), _pt(spec, 0, 1, 0), _pt(spec, 0, 0, 1))
    assert [p.to_text() for p in oval.points if p not in base][:2] == \
        ["[1:0:0]", "[1:2:0]"]
    with pytest.raises(DivisionByZero, match="inverse of zero in GF\\(5\\)"):
        tangent_frame(oval, base)


def test_tangent_frame_above_the_op_table_cap_raises_bound_exceeded():
    # No oval built on the plane gets here (q <= 128); a trusted Arc over
    # GF(521) does, and the op tables stop at q = 512.
    spec = make_field(521)
    one = spec.one()
    pts = [ProjPoint((one, t, t * t)) for t in spec.elements()]
    pts.append(ProjPoint((spec.zero(), spec.zero(), one)))
    oval = Arc(pts, _trusted=True)
    with pytest.raises(BoundExceeded, match="q <= 512"):
        tangent_frame(oval, oval.points[:3])


def test_verification_failure_carries_the_certificate(monkeypatch):
    spec = make_field(7)
    oval = _oval(spec)
    _, good = reconstruct_conic(oval)
    other = parse_conic(spec, "[1:1:1:0:0:0]")
    monkeypatch.setattr(segre, "fit_conic_nullspace", lambda points: other)
    with pytest.raises(VerificationFailed, match="disagrees with the fit oracle") as info:
        reconstruct_conic(oval)
    cert = info.value.certificate
    assert isinstance(cert, Certificate)
    assert cert.oracle_conic == other.to_ints()
    assert cert.to_json_dict() == dict(good.to_json_dict(),
                                       oracle_conic=list(other.to_ints()))
    # raised by a check that builds no certificate, it carries none
    assert VerificationFailed("side meets are not collinear").certificate is None


@pytest.mark.parametrize("q", [3, 7])
def test_tangent_identity_failure_carries_the_certificate(monkeypatch, q):
    """A plane whose `tangents` reports a secant at one non-base point fails
    the cross identity.  No honest input reaches this check: the conic is
    non-degenerate, so once it holds all q + 1 oval points they are its
    variety, and the line meeting the oval only at p is its tangent at p."""
    spec = make_field(q)
    oval = _oval(spec)
    _, good = reconstruct_conic(oval)
    pl = plane(spec)
    p, other = oval.points[3], oval.points[0]  # a non-base point and a base point
    secant = pl.pair_line(pl.index(p), pl.index(other))
    real = Plane.tangents

    def doctored(self, indices):
        out = real(self, indices)
        out[3] = [secant]
        return out

    monkeypatch.setattr(Plane, "tangents", doctored)
    with pytest.raises(VerificationFailed, match="^a tangent cross identity fails$") as info:
        reconstruct_conic(oval)
    cert = info.value.certificate
    assert (cert.identities_ok, cert.all_points_ok) == (False, True)
    assert cert.conic == cert.oracle_conic
    assert cert.to_json_dict() == dict(good.to_json_dict(), identities_ok=False)


def test_degenerate_conic_failure_carries_the_certificate(monkeypatch):
    """A determinant routine that reports zero makes the last check fail with
    every other check passing.  No honest input reaches this check: the conic
    is the frame conic, whose U + U^T has determinant 2, pulled back through
    an invertible T and scaled, so its determinant is a nonzero multiple of
    2 det(T)^2, nonzero at odd q."""
    spec = make_field(7)
    oval = _oval(spec)
    _, good = reconstruct_conic(oval)
    monkeypatch.setattr(segre, "det3", lambda m: m.spec.zero())
    with pytest.raises(VerificationFailed, match="^reconstructed conic is degenerate$") as info:
        reconstruct_conic(oval)
    cert = info.value.certificate
    assert cert.identities_ok and cert.all_points_ok and cert.conic == cert.oracle_conic
    assert cert.to_json() == good.to_json()


def test_reconstruction_reads_no_variety(monkeypatch):
    """The certificate's checks read no variety: the q = 3 oracle counts its
    pencil's non-degenerate members in closed form, and non-degeneracy is a
    determinant, so `reconstruct_conic` calls neither `variety_of` nor
    `is_nondegenerate`."""
    import galoisplane.conic as conic_module

    assert not hasattr(segre, "is_nondegenerate")
    ovals = [_oval(make_field(*pk)) for pk in ((3, 1), (7, 1), (11, 2))]
    calls = []
    real = conic_module.variety_of
    monkeypatch.setattr(conic_module, "variety_of", lambda c: calls.append(c) or real(c))
    for oval in ovals:
        conic, _ = reconstruct_conic(Arc(oval.points))
        assert calls == [], oval.spec.q
        assert conic.variety() == oval.points and calls == [conic]  # the patch is live
        calls.clear()


_ELEMENT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
                "__pow__", "inv")


def _count_element_ops(fn, *args):
    counter = [0]
    with pytest.MonkeyPatch.context() as mp:
        for name in _ELEMENT_OPS:
            original = getattr(FieldElement, name)

            def counted(*a, _original=original):
                counter[0] += 1
                return _original(*a)

            mp.setattr(FieldElement, name, counted)
        fn(*args)
    return counter[0]


def _element_rows(points):
    """The fit's monomial matrix, built from element products."""
    return Mat.from_rows([(x * x, y * y, z * z, x * y, x * z, y * z)
                          for x, y, z in (p.coords for p in points)])


def test_element_operations_do_not_grow_with_q():
    """The per-point loops and the fit run on codes: one reconstruction and
    one tangent frame of the standard conic make no FieldElement operator
    call at q=11 nor at q=121.  Each counted call gets a fresh Arc, so no
    memoised frame hides the scan."""
    for q in (11, 121):
        spec = make_field(11, 1 if q == 11 else 2)
        oval = _oval(spec)
        base = oval.points[:3]
        reconstruct_conic(oval, base)  # warm the field's tables and plane
        for fn in (reconstruct_conic, tangent_frame):
            assert _count_element_ops(fn, Arc(oval.points, _trusted=True), base) == 0, (q, fn)


def test_lemma_and_oracles_make_no_element_arithmetic():
    """The lemma builds its triangle, centres and pencil lines on codes, its
    independent perspective_center takes joins and their meet as code cross
    products, and the fit oracles build their line pairs and pencil members
    on codes: none of them makes a FieldElement operation."""
    for spec in (make_field(3), make_field(7), make_field(3, 2), make_field(11, 2)):
        oval = _oval(spec)
        frame = tangent_frame(oval, oval.points[:3])
        res = lemma_of_tangents(frame)
        assert _count_element_ops(lemma_of_tangents, frame) == 0, spec.q
        assert _count_element_ops(
            perspective_center, _standard_triangle(spec), res.tangent_triangle) == 0, spec.q
        pts = oval.points[:4] if spec.q == 3 else oval.points[:5]
        oracle = segre._pencil_oracle if spec.q == 3 else fit_conic_nullspace
        assert _count_element_ops(oracle, pts) == 0, spec.q


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)],
                         ids=["q3", "q5", "q7", "q9", "q11", "q13"])
def test_certify_chain_makes_no_nullspace_call(monkeypatch, p, k):
    """Arc -> tangent_frame -> lemma_of_tangents -> reconstruct_conic, the
    body of `segre verify` per oval, row-reduces nothing: every binding of
    `linalg.nullspace` in the package is counted, and stays at zero over
    seeded images of the standard oval and bases."""
    spec = make_field(p, k)
    rng = random.Random(p * k)
    std = _oval(spec).points
    ovals = []
    for _ in range(4):
        while True:
            m = Mat(spec, 3, 3, tuple(spec.from_int(rng.randrange(spec.q)) for _ in range(9)))
            if linalg.det3(m):
                break
        t = Collineation(m)
        pts = [t.apply(v) for v in std]
        rng.shuffle(pts)
        ovals.append((pts, tuple(rng.sample(pts, 3))))
    calls = []
    real = linalg.nullspace
    for module in [m for name, m in sys.modules.items() if name.startswith("galoisplane")]:
        if getattr(module, "nullspace", None) is real:
            monkeypatch.setattr(module, "nullspace", lambda m: calls.append(m) or real(m))
    for pts, base in ovals:
        arc = Arc(pts)
        lemma_of_tangents(tangent_frame(arc, base))
        conic, _ = reconstruct_conic(arc, base)
        assert all(conic.evaluate(v).is_zero() for v in pts)
    assert calls == [], spec.q
    join(*std[:2])
    assert len(calls) == 1  # the counter is live


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (11, 2)], ids=["q7", "q9", "q121"])
def test_code_paths_make_no_element_arithmetic(p, k):
    """Outside row reduction the library works on codes: a cold op-table
    build (which also leaves the element list unbuilt), the Wilson check,
    the Desargues sampler, varieties and non-degeneracy reports (of the
    standard conic and of a line pair, whose gradient vanishes), the
    plane's tangents and lines-met count and `is_arc` over both varieties,
    the perspective centres of sampled pairs and of their scrambles,
    gradients and tangents, a conic pushed through a collineation, a tangent
    frame on a fresh arc, a parsed conic with negative coefficients, the fit
    through seven oval points and the pencil oracle's sweep make no
    FieldElement operator call."""
    spec = make_field(p, k)
    cold = FieldSpec(spec.p, spec.k, spec.modulus)
    assert _count_element_ops(cold.op_tables) == 0
    assert cold._elements is None
    assert _count_element_ops(product_nonzero, spec) == 0
    q = spec.q
    rng = random.Random(q)
    assert _count_element_ops(lambda: [sample_perspective_triangles(spec, rng)
                                       for _ in range(5)]) == 0
    pairs = [sample_perspective_triangles(spec, rng) for _ in range(5)]
    pairs += [(t1, (t2[1], t2[2], t2[0])) for t1, t2 in pairs]  # mostly not in perspective
    assert _count_element_ops(lambda: [perspective_center(*pair) for pair in pairs]) == 0
    std = _oval(spec)  # x^2 - yz
    assert _count_element_ops(parse_conic, spec, "[1:0:0:0:0:-1]") == 0
    assert _count_element_ops(parse_conic, spec, f"[-1:-{q - 1}:0:-2:0:-1]") == 0
    conics = (parse_conic(spec, "[1:0:0:0:0:-1]"), parse_conic(spec, "[0:0:0:1:0:0]"))
    # det = 2 - e for e the element of code 3, so never 0
    t = Collineation(Mat(spec, 3, 3, tuple(map(spec.from_int, (2, 1, 3, 0, 1, 2, 1, 0, 0)))))
    pl = plane(spec)
    for c in conics:
        assert _count_element_ops(variety_of, c) == 0
        assert _count_element_ops(is_nondegenerate, c) == 0
        assert _count_element_ops(transform_conic, t, c) == 0
        pts = variety_of(c)
        indices = [pl.index(v) for v in pts]
        assert _count_element_ops(pl.tangents, indices) == 0
        assert _count_element_ops(pl._holds_no_three, indices) == 0
        assert _count_element_ops(is_arc, pts) == 0
    pt = std.points[1]
    assert _count_element_ops(gradient, conics[0], pt) == 0
    assert _count_element_ops(tangent_at, conics[0], pt) == 0
    assert _count_element_ops(
        tangent_frame, Arc(std.points, _trusted=True), std.points[:3]) == 0
    assert _count_element_ops(fit_conic_nullspace, std.points[:7]) == 0

    def sweep_pencil():  # q - 2 of a pencil's q + 1 members are not line pairs
        with pytest.raises(Inconsistent, match=f"got {q - 2}$"):
            segre._pencil_oracle(std.points[:4])
    assert _count_element_ops(sweep_pencil) == 0


def _count_frame_scans(monkeypatch):
    scans = []
    real = segre.frame_transform

    def counted(*points):
        scans.append(points)
        return real(*points)

    monkeypatch.setattr(segre, "frame_transform", counted)
    return scans


def test_certify_chain_scans_the_frame_once(monkeypatch):
    spec = make_field(7)
    oval = _oval(spec)
    base = (oval.points[4], oval.points[1], oval.points[6])
    scans = _count_frame_scans(monkeypatch)
    arc = Arc(oval.points)
    frame = tangent_frame(arc, base)
    lemma_of_tangents(frame)
    conic, cert = reconstruct_conic(arc, base)
    assert len(scans) == 1
    assert tangent_frame(arc, list(base)) == frame
    assert len(scans) == 1
    # the memoised frame certifies exactly what a fresh scan does
    monkeypatch.undo()
    assert reconstruct_conic(Arc(oval.points), base) == (conic, cert)


def test_frame_memo_holds_one_base_of_one_arc(monkeypatch):
    spec = make_field(3, 2)
    oval = _oval(spec)
    first, second = oval.points[:3], oval.points[2:5]
    scans = _count_frame_scans(monkeypatch)
    arc = Arc(oval.points)
    frame = tangent_frame(arc, first)
    other = tangent_frame(arc, second)         # another base scans again
    assert tangent_frame(arc, first) == frame  # and the one slot moved on
    assert len(scans) == 3
    twin = Arc(oval.points)
    assert twin == arc
    assert tangent_frame(twin, first) == frame  # an equal Arc keeps its own memo
    assert len(scans) == 4
    assert tangent_frame(twin, second) == other
    assert len(scans) == 5
    # the base is ordered: the same three points in another order are
    # another frame
    swapped = (first[1], first[0], first[2])
    assert tangent_frame(arc, swapped).transform != frame.transform
    assert len(scans) == 6


def test_arc_equality_hash_and_pickle_ignore_the_frame_memo():
    spec = make_field(5)
    arc = Arc(_oval(spec).points)
    fresh = Arc(arc.points)
    frame = tangent_frame(arc, arc.points[:3])
    assert arc._frame is not None and fresh._frame is None
    assert arc == fresh and hash(arc) == hash(fresh)
    copy = pickle.loads(pickle.dumps(arc))
    assert copy == arc and hash(copy) == hash(arc) and copy._frame is None
    assert len(pickle.dumps(arc)) == len(pickle.dumps(fresh))
    assert tangent_frame(copy, arc.points[:3]) == frame


def test_failed_scan_stores_no_frame():
    spec = make_field(5)
    pts = [_pt(spec, *v) for v in
           ((1, 0, 0), (1, 2, 0), (1, 2, 3), (1, 3, 2), (0, 1, 0), (0, 0, 1))]
    oval = Arc(pts, _trusted=True)
    base = (_pt(spec, 1, 2, 3), _pt(spec, 0, 1, 0), _pt(spec, 0, 0, 1))
    for _ in range(2):
        with pytest.raises(DivisionByZero):
            tangent_frame(oval, base)
        assert oval._frame is None


def test_fault_after_a_memoised_frame_carries_the_certificate(monkeypatch):
    spec = make_field(7)
    oval = _oval(spec)
    _, good = reconstruct_conic(Arc(oval.points))
    other = parse_conic(spec, "[1:1:1:0:0:0]")
    for warm in (False, True):
        arc = Arc(oval.points)
        if warm:
            lemma_of_tangents(tangent_frame(arc, arc.points[:3]))
        with monkeypatch.context() as mp:
            mp.setattr(segre, "fit_conic_nullspace", lambda points: other)
            with pytest.raises(VerificationFailed, match="fit oracle") as info:
                reconstruct_conic(arc)
        assert info.value.certificate.to_json_dict() == dict(
            good.to_json_dict(), oracle_conic=list(other.to_ints()))


def test_equal_scans_give_equal_frames():
    """A Collineation compares by matrix, so two scans of equal arcs with one
    base give equal frames, and equal transforms hash alike."""
    spec = make_field(7)
    pts = _oval(spec).points
    base = pts[2:5]
    first, second = tangent_frame(Arc(pts), base), tangent_frame(Arc(pts), base)
    assert first.transform is not second.transform
    assert tangent_frame(Arc(pts), base) == tangent_frame(Arc(pts), base)
    assert hash(first) == hash(second) and hash(first.transform) == hash(second.transform)
    other = tangent_frame(Arc(pts), pts[:3])
    assert other != first and other.transform != first.transform
    assert first.transform != first.transform.matrix  # never equal to a bare Mat


def _frame_reference(oval, cert):
    """The frame-coordinate checks of a certificate's transform T, written
    with the public Collineation.apply/apply_line and element arithmetic:
    (all points ok, identities ok).  A point p is on the conic iff the frame
    conic x1*x2 + x2*x3 + x3*x1 vanishes at c = T p; at a non-base point with
    tangent B (the one line through p holding no other oval point), the
    identities say b = T^-T B is parallel to the frame conic's gradient
    (c2 + c3, c1 + c3, c1 + c2) at c."""
    spec = oval.spec
    t = Collineation(Mat.from_rows([[spec.from_int(v) for v in row]
                                    for row in cert.frame_matrix]))
    base = {parse_point(spec, text) for text in cert.base_triple}
    pl = plane(spec)
    on_oval = {pl.index(p) for p in oval.points}
    points_ok = identities_ok = True
    for p in oval.points:
        c0, c1, c2 = t.apply(p).coords
        if not (c0 * c1 + c1 * c2 + c2 * c0).is_zero():
            points_ok = False
        if p in base:
            continue
        (tangent,) = [pl.lines[li] for li in pl.point_lines[pl.index(p)]
                      if len(on_oval.intersection(pl.line_points[li])) == 1]
        b0, b1, b2 = t.apply_line(tangent).coeffs
        g0, g1, g2 = c1 + c2, c0 + c2, c0 + c1
        if not all(v.is_zero() for v in (b1 * g2 - b2 * g1, b2 * g0 - b0 * g2,
                                         b0 * g1 - b1 * g0)):
            identities_ok = False
    return points_ok, identities_ok


def test_pulled_back_checks_match_the_frame_coordinate_checks(monkeypatch):
    """reconstruct_conic checks containment and the tangent identities in the
    oval's own coordinates; they agree with the frame-coordinate checks on
    every oval of PG(2, 5), the ordered base positions cycling through all
    120, and still agree, both False, when normalize_tangents is perturbed
    by diag(1, 1, 2)."""
    spec = make_field(5)
    two = spec.from_int(2)
    real = segre.normalize_tangents

    def perturbed(frame):
        norm = real(frame)
        d = Mat.diagonal((spec.one(), spec.one(), two))
        return dataclasses.replace(norm, transform=Collineation(d @ norm.transform.matrix))

    ovals = search_maximal_arcs(spec, 6)
    assert len(ovals) == 3100
    positions = list(itertools.permutations(range(6), 3))
    for n, oval in enumerate(ovals):
        base = tuple(oval.points[i] for i in positions[n % len(positions)])
        _, cert = reconstruct_conic(oval, base)
        assert (cert.all_points_ok, cert.identities_ok) == (True, True)
        assert _frame_reference(oval, cert) == (True, True)
        with monkeypatch.context() as mp:
            mp.setattr(segre, "normalize_tangents", perturbed)
            with pytest.raises(VerificationFailed, match="misses an oval point") as info:
                reconstruct_conic(oval, base)
        bad = info.value.certificate
        assert bad.frame_matrix != cert.frame_matrix
        assert (bad.all_points_ok, bad.identities_ok) == (False, False)
        assert _frame_reference(oval, bad) == (False, False)


def test_certify_chain_inverts_one_matrix(monkeypatch):
    """frame, lemma and reconstruction on a fresh arc invert one matrix, the
    base triangle's in frame_transform: the normalised frame is pulled back
    through its own matrix, and the tangents through the transpose."""
    calls = []
    real = linalg.inverse3

    def counted(m):
        calls.append(m)
        return real(m)

    for module in (linalg, pg2):
        monkeypatch.setattr(module, "inverse3", counted)
    spec = make_field(7)
    oval = _oval(spec)
    base = (oval.points[4], oval.points[1], oval.points[6])
    arc = Arc(oval.points)
    lemma_of_tangents(tangent_frame(arc, base))
    reconstruct_conic(arc, base)
    assert calls == [Mat.from_rows([p.coords for p in base]).transpose()]
