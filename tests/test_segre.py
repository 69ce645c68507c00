"""Desargues configurations, the tangent-slope lemma, and constructive
conic reconstruction with its certificates."""

import itertools
import json
import random

import pytest

from galoisplane.arcs import Arc, is_arc, search_maximal_arcs
from galoisplane.conic import is_nondegenerate, parse_conic
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
    SharedSide,
    UnderDetermined,
    VerificationFailed,
)
from galoisplane.gf import FieldElement, make_field
from galoisplane.linalg import Mat
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


def test_reconstruct_builds_the_oval_mask_once(monkeypatch):
    sizes = []
    original = Plane.mask

    def counted(self, points):
        sizes.append(len(points))
        return original(self, points)

    monkeypatch.setattr(Plane, "mask", counted)
    spec = make_field(13)
    reconstruct_conic(Arc(parse_conic(spec, "[1:0:0:0:0:-1]").variety()))
    assert sizes == [14]


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


def test_element_operations_do_not_grow_with_q():
    """The per-point loops run on codes: one reconstruction and one tangent
    frame of the standard conic, base at the same positions, make as many
    FieldElement operator calls at q=121 as at q=11."""
    counts = {}
    for q in (11, 121):
        spec = make_field(11, 1 if q == 11 else 2)
        oval = _oval(spec)
        base = oval.points[:3]
        reconstruct_conic(oval, base)  # warm the field's tables and plane
        counts[q] = (
            _count_element_ops(reconstruct_conic, oval, base),
            _count_element_ops(tangent_frame, oval, base),
        )
    assert counts[11] == counts[121]
    assert all(n > 0 for n in counts[11])
