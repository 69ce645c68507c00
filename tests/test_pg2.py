"""Incidence geometry of PG(2, q): points, lines, the plane cache,
collineations, and frame transforms."""

import itertools
import random

import pytest

from galoisplane.errors import (
    BoundExceeded,
    DegenerateFrame,
    EqualLines,
    EqualPoints,
    Singular,
    SpecMismatch,
    ZeroVector,
)
from galoisplane import gf, pg2
from galoisplane.gf import make_field
from galoisplane.linalg import Mat, det3, inverse3, mat_vec
from galoisplane.pg2 import (
    Collineation,
    Plane,
    ProjLine,
    ProjPoint,
    canonicalize,
    canonicalize_line,
    collinear,
    enumerate_plane,
    frame_transform,
    incident,
    iter_points,
    join,
    meet,
    parse_line,
    parse_point,
    plane,
    point_sort_key,
    verify_axioms,
)


def _e(spec, *codes):
    return tuple(spec.from_int(c) for c in codes)


def test_canonicalize_first_nonzero_is_one():
    spec = make_field(5)
    for v in ((0, 0, 3), (0, 2, 1), (4, 1, 0), (2, 2, 2)):
        p = canonicalize(_e(spec, *v))
        nz = [c for c in p.coords if not c.is_zero()]
        assert nz[0] == spec.one()


def test_canonicalize_scalar_invariant_exhaustive():
    spec = make_field(5)
    for p in iter_points(spec):
        for s in range(1, 5):
            scaled = tuple(c * spec.from_int(s) for c in p.coords)
            assert canonicalize(scaled) == p


def test_zero_vector_rejected():
    spec = make_field(5)
    z = spec.zero()
    with pytest.raises(ZeroVector):
        canonicalize((z, z, z))
    with pytest.raises(ZeroVector):
        canonicalize_line((z, z, z))


def test_constructors_normalise_to_canonical_codes():
    spec = make_field(5)
    two = spec.from_int(2)
    for cls in (ProjPoint, ProjLine):
        scaled, unit = cls((two, two, two)), cls(_e(spec, 1, 1, 1))
        assert scaled.codes == unit.codes == (1, 1, 1)
        assert scaled.to_text() == "[1:1:1]"
        assert scaled == unit and hash(scaled) == hash(unit)
    assert ProjPoint((two, two, two)).coords == _e(spec, 1, 1, 1)
    assert ProjLine((two, two, two)).coeffs == _e(spec, 1, 1, 1)
    assert ProjPoint(_e(spec, 0, 3, 4)).codes == (0, 1, 3)
    assert ProjLine(_e(spec, 0, 0, 4)).codes == (0, 0, 1)


def test_constructors_reject_zero_wrong_length_and_mixed_specs():
    f5, f7 = make_field(5), make_field(7)
    for cls in (ProjPoint, ProjLine):
        with pytest.raises(ZeroVector):
            cls(_e(f5, 0, 0, 0))
        with pytest.raises(ZeroVector):
            cls(_e(f5, 1, 2))
        with pytest.raises(ZeroVector):
            cls(_e(f5, 1, 2, 3, 4))
        with pytest.raises(SpecMismatch):
            cls(_e(f5, 1, 2) + _e(f7, 3))


def test_points_and_lines_never_equal_across_kinds_or_fields():
    f5, f7 = make_field(5), make_field(7)
    p5, l5, p7 = ProjPoint(_e(f5, 1, 2, 3)), ProjLine(_e(f5, 1, 2, 3)), ProjPoint(_e(f7, 1, 2, 3))
    assert p5.codes == l5.codes == p7.codes
    assert p5 != l5 and l5 != p5
    assert p5 != p7
    assert len({p5, l5, p7}) == 3


def test_coords_and_coeffs_are_read_only_views():
    spec = make_field(3, 2)
    p, l = ProjPoint(_e(spec, 1, 2, 3)), ProjLine(_e(spec, 0, 1, 5))
    assert all(x is spec.elements()[c] for x, c in zip(p.coords, p.codes))
    assert all(x is spec.elements()[c] for x, c in zip(l.coeffs, l.codes))
    with pytest.raises(AttributeError):
        p.coords = _e(spec, 1, 0, 0)
    with pytest.raises(AttributeError):
        l.coeffs = _e(spec, 1, 0, 0)
    with pytest.raises(AttributeError):
        p.extra = 1


def test_plane_build_creates_no_field_element(monkeypatch):
    """With warm op tables, a plane is built on integer codes alone."""
    specs = [make_field(7), make_field(3, 2)]
    for spec in specs:
        spec.op_tables()
    made = []
    original = gf.FieldElement.__init__

    def counted(self, spec, code):
        made.append(code)
        original(self, spec, code)

    monkeypatch.setattr(gf.FieldElement, "__init__", counted)
    for spec in specs:
        pl = Plane(spec)
        assert len(pl.points) == spec.q * spec.q + spec.q + 1
    assert made == []


def test_point_enumeration_order_and_count():
    spec = make_field(3)
    pts = list(iter_points(spec))
    assert len(pts) == 13
    assert pts == sorted(pts, key=point_sort_key)
    assert pts[0] == canonicalize(_e(spec, 1, 0, 0))
    assert pts[-1] == canonicalize(_e(spec, 0, 0, 1))


def test_join_meet_exhaustive_q3():
    spec = make_field(3)
    pts = list(iter_points(spec))
    for p, r in itertools.combinations(pts, 2):
        l = join(p, r)
        assert incident(p, l) and incident(r, l)
    lines = [canonicalize_line(p.coords) for p in pts]
    for l, m in itertools.combinations(lines, 2):
        x = meet(l, m)
        assert incident(x, l) and incident(x, m)


def test_join_meet_duality():
    spec = make_field(7)
    rng = random.Random(5)
    pts = list(iter_points(spec))
    for _ in range(200):
        p, r = rng.sample(pts, 2)
        l = join(p, r)
        m = canonicalize_line(_e(spec, 1, rng.randrange(7), rng.randrange(7)))
        if l == m:
            continue
        x = meet(l, m)
        assert incident(x, l)


def test_equal_points_and_lines_rejected():
    spec = make_field(5)
    p = canonicalize(_e(spec, 1, 2, 3))
    with pytest.raises(EqualPoints):
        join(p, canonicalize(_e(spec, 2, 4, 1)))
    l = canonicalize_line(_e(spec, 1, 1, 1))
    with pytest.raises(EqualLines):
        meet(l, canonicalize_line(_e(spec, 3, 3, 3)))


def test_collinear_matches_join_membership():
    spec = make_field(5)
    pts = list(iter_points(spec))
    rng = random.Random(6)
    for _ in range(300):
        a, b, c = rng.sample(pts, 3)
        assert collinear(a, b, c) == incident(c, join(a, b))


def _det3_zero(a, b, c):
    return det3(Mat.from_rows([a.coords, b.coords, c.coords])).is_zero()


def _element_dot_zero(p, l):
    (x, y, z), (u, v, w) = p.coords, l.coeffs
    return (x * u + y * v + z * w).is_zero()


@pytest.mark.parametrize("p, k", [(2, 2), (5, 1)])
def test_code_collinear_and_incident_agree_with_elements_exhaustive(p, k):
    pl = plane(make_field(p, k))
    for a, b, c in itertools.product(pl.points, repeat=3):
        assert collinear(a, b, c) == _det3_zero(a, b, c), (a, b, c)
    for pt in pl.points:
        for l in pl.lines:
            assert incident(pt, l) == _element_dot_zero(pt, l), (pt, l)


@pytest.mark.parametrize("p, k", [(3, 2), (11, 2), (2, 7), (521, 1), (16381, 1), (2, 14)])
def test_code_collinear_and_incident_agree_with_elements_sampled(p, k):
    """Random triples with zero coordinates mixed in, plus collinear triples
    and incident pairs built with element arithmetic, up to GF(2^14)."""
    spec = make_field(p, k)
    q = spec.q
    rng = random.Random(q)

    def coord():
        return spec.from_int(rng.choice((0, 0, 1, rng.randrange(q))))

    def point():
        while True:
            v = (coord(), coord(), coord())
            if any(v):
                return ProjPoint(v)

    def element_cross(a, b):
        (a0, a1, a2), (b0, b1, b2) = a.coords, b.coords
        return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)

    seen = {True: 0, False: 0}
    for _ in range(300):
        a, b, c = point(), point(), point()
        got = collinear(a, b, c)
        assert got == _det3_zero(a, b, c), (a, b, c)
        seen[got] += 1
        s, t = coord(), coord()
        on_ab = tuple(s * x + t * y for x, y in zip(a.coords, b.coords))
        if any(on_ab):
            assert collinear(a, b, ProjPoint(on_ab)) and collinear(ProjPoint(on_ab), b, a)
        l = ProjLine((coord(), coord(), spec.one()))
        assert incident(c, l) == _element_dot_zero(c, l), (c, l)
        if a != b:
            ab = ProjLine(element_cross(a, b))
            assert incident(a, ab) and incident(b, ab)
            assert incident(c, ab) == got
    assert seen[True] and seen[False]


def test_code_collinear_and_incident_reject_mixed_fields():
    five, nine, nine_other = make_field(5), make_field(3, 2), make_field(3, 2, (2, 1, 1))
    p5 = canonicalize(_e(five, 1, 2, 3))
    q5 = canonicalize(_e(five, 0, 1, 4))
    for other in (canonicalize(_e(nine, 1, 2, 3)), canonicalize(_e(nine_other, 1, 2, 3))):
        for triple in ((other, p5, q5), (p5, other, q5), (p5, q5, other)):
            with pytest.raises(SpecMismatch):
                collinear(*triple)
    with pytest.raises(SpecMismatch):
        incident(p5, canonicalize_line(_e(make_field(7), 1, 2, 3)))
    # equal codes over two moduli of GF(9) are still different fields
    with pytest.raises(SpecMismatch):
        incident(canonicalize(_e(nine, 1, 2, 3)), canonicalize_line(_e(nine_other, 1, 0, 0)))


def test_plane_counts():
    for q, p, k in ((2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (9, 3, 2)):
        spec = make_field(p, k)
        pl = plane(spec)
        n = q * q + q + 1
        assert len(pl.points) == n
        assert len(pl.lines) == n
        assert all(len(row) == q + 1 for row in pl.line_points)
        assert all(len(row) == q + 1 for row in pl.point_lines)


def test_plane_cache_identity():
    spec = make_field(7)
    assert plane(spec) is plane(spec)


def test_plane_line_points_match_span():
    """Each line's cached point indices are exactly the points incident with
    it by the code dot product, checked over every point-line pair."""
    for p, k in ((2, 2), (3, 1), (2, 3), (3, 2), (2, 4), (5, 2)):
        pl = plane(make_field(p, k))
        for li, l in enumerate(pl.lines):
            on = tuple(i for i, x in enumerate(pl.points) if incident(x, l))
            assert pl.line_points[li] == on


def test_plane_pair_line_agrees_with_join():
    spec = make_field(5)
    pl = plane(spec)
    rng = random.Random(7)
    n = len(pl.points)
    for _ in range(300):
        i, j = rng.sample(range(n), 2)
        li = pl.pair_line(i, j)
        assert pl.lines[li] == join(pl.points[i], pl.points[j])
    with pytest.raises(EqualPoints):
        pl.pair_line(3, 3)


def test_plane_pair_line_dict_fallback_agrees_with_join():
    # the line is read off the first point's line masks, at any order
    pl = plane(make_field(2, 5))
    rng = random.Random(32)
    for _ in range(100):
        i, j = rng.sample(range(pl.n), 2)
        li = pl.pair_line(i, j)
        assert pl.lines[li] == join(pl.points[i], pl.points[j])
        assert pl.pair_line(j, i) == li


def test_plane_index_canonicalizes():
    spec = make_field(5)
    pl = plane(spec)
    two = spec.from_int(2)
    assert pl.index(ProjPoint((two, two, two))) == pl.point_index[canonicalize(_e(spec, 1, 1, 1))]
    assert [pl.index(p) for p in pl.points] == list(range(pl.n))
    with pytest.raises(SpecMismatch):
        pl.index(canonicalize(_e(make_field(7), 1, 1, 1)))


def test_plane_index_rejects_non_points_with_type_error():
    pl = plane(make_field(5))
    with pytest.raises(TypeError, match="expected a ProjPoint, got ProjLine"):
        pl.index(pl.lines[3])
    with pytest.raises(TypeError, match="expected a ProjPoint, got tuple"):
        pl.index((1, 1, 1))
    # a point over another field is a field mismatch, not a type error
    with pytest.raises(SpecMismatch):
        pl.index(canonicalize(_e(make_field(3, 2), 1, 1, 1)))


def test_plane_line_masks():
    for p, k in ((3, 1), (2, 2), (2, 3), (3, 2)):
        pl = plane(make_field(p, k))
        for li, mask in enumerate(pl.line_masks):
            assert mask.bit_count() == pl.spec.q + 1
            assert {i for i in range(pl.n) if mask >> i & 1} == set(pl.line_points[li])


def test_plane_line_counts_match_line_hits():
    rng = random.Random(12)
    for p, k in ((2, 1), (3, 1), (2, 3), (5, 1)):
        spec = make_field(p, k)
        pl = plane(spec)
        for size in (0, 1, 3, 7):
            indices = rng.sample(range(pl.n), size)
            hits = pl.line_hits(indices)
            assert pl.line_counts(indices) == {li: m.bit_count() for li, m in hits.items()}


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2), (2, 3)])
def test_plane_root_tables(p, k):
    spec = make_field(p, k)
    pl = plane(spec)
    add, mul, _, _ = spec.op_tables()
    for s in range(spec.q):
        assert pl.square_roots[s] == tuple(w for w in range(spec.q) if mul[w][w] == s)
        assert pl.unit_roots[s] == tuple(
            w for w in range(spec.q) if add[mul[w][w]][w] == s)


def test_plane_bound():
    with pytest.raises(BoundExceeded):
        plane(make_field(131))


def test_enumerate_plane():
    pts, lines = enumerate_plane(make_field(3))
    assert len(pts) == 13 and len(lines) == 13


def test_axioms_small_orders():
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        report = verify_axioms(make_field(p, k))
        assert report.ok, report
        q = p ** k
        assert report.n_points == q * q + q + 1
        assert report.n_lines == report.n_points


@pytest.fixture
def doctored_plane():
    """A private q = 3 plane swapped into the plane cache, restored afterwards."""
    spec = make_field(3)
    saved = pg2._plane_cache.get(spec)
    pl = Plane(spec)
    pg2._plane_cache[spec] = pl
    try:
        yield spec, pl
    finally:
        if saved is None:
            pg2._plane_cache.pop(spec, None)
        else:
            pg2._plane_cache[spec] = saved


@pytest.mark.parametrize("family, flag", [
    ("point_lines", "joins_unique"),   # points 0 and 1 then share q+1 lines
    ("line_points", "meets_unique"),   # lines 0 and 1 then share q+1 points
])
def test_axioms_report_non_unique_joins_and_meets(doctored_plane, family, flag):
    spec, pl = doctored_plane
    rows = list(getattr(pl, family))
    rows[0] = rows[1]
    setattr(pl, family, tuple(rows))
    report = verify_axioms(spec)
    assert not report.ok
    failed = [name for name in ("counts_ok", "line_degrees_ok", "point_degrees_ok",
                                "joins_unique", "meets_unique", "quadrilateral_ok")
              if not getattr(report, name)]
    assert failed == [flag]


def test_axioms_bound():
    with pytest.raises(BoundExceeded):
        verify_axioms(make_field(17))
    assert verify_axioms(make_field(17), max_order=17).ok


def test_collineation_identity_and_compose():
    spec = make_field(7)
    t = Collineation.identity(spec)
    p = canonicalize(_e(spec, 1, 2, 3))
    assert t.apply(p) == p
    rng = random.Random(8)
    for _ in range(30):
        entries = [spec.from_int(rng.randrange(7)) for _ in range(9)]
        m = Mat(spec, 3, 3, tuple(entries))
        try:
            u = Collineation(m)
        except Singular:
            continue
        assert (u @ u.inverse()).apply(p) == p
        assert u.inverse().apply(u.apply(p)) == p


def test_collineation_rejects_singular():
    spec = make_field(5)
    z = spec.zero()
    m = Mat(spec, 3, 3, tuple([z] * 9))
    with pytest.raises(Singular):
        Collineation(m)
    rank_two = Mat(spec, 3, 3, _e(spec, 1, 2, 3, 2, 4, 1, 0, 1, 1))
    with pytest.raises(Singular):
        Collineation(rank_two)


def test_collineation_builds_invertible_results_without_det3(monkeypatch):
    # inverses, products and frame transforms are invertible by construction;
    # only the public constructor checks the determinant
    spec = make_field(7)
    t = Collineation(Mat(spec, 3, 3, _e(spec, 1, 2, 0, 0, 1, 3, 4, 0, 1)))
    u = Collineation(Mat(spec, 3, 3, _e(spec, 2, 0, 1, 1, 1, 0, 0, 4, 1)))
    pts = [canonicalize(_e(spec, *v)) for v in ((1, 0, 2), (0, 1, 3), (1, 1, 0), (1, 0, 0))]
    calls = []
    original = pg2.det3
    monkeypatch.setattr(pg2, "det3", lambda m: calls.append(m) or original(m))
    p = pts[0]
    assert t.inverse().apply(t.apply(p)) == p
    assert (t @ u).apply(p) == t.apply(u.apply(p))
    frame = frame_transform(*pts)
    assert frame.apply(pts[3]) == canonicalize(_e(spec, 1, 1, 1))
    assert calls == []
    Collineation(t.matrix)
    assert len(calls) == 1


def test_collineation_preserves_incidence():
    spec = make_field(5)
    pl = plane(spec)
    rng = random.Random(9)
    found = 0
    while found < 20:
        entries = tuple(spec.from_int(rng.randrange(5)) for _ in range(9))
        try:
            t = Collineation(Mat(spec, 3, 3, entries))
        except Singular:
            continue
        found += 1
        for _ in range(40):
            p = pl.points[rng.randrange(len(pl.points))]
            l = pl.lines[rng.randrange(len(pl.lines))]
            assert incident(p, l) == incident(t.apply(p), t.apply_line(l))


def test_collineation_line_action_composes():
    spec = make_field(3, 2)
    rng = random.Random(10)
    l = canonicalize_line(_e(spec, 1, 3, 7))
    mats = []
    while len(mats) < 2:
        entries = tuple(spec.from_int(rng.randrange(9)) for _ in range(9))
        try:
            mats.append(Collineation(Mat(spec, 3, 3, entries)))
        except Singular:
            continue
    t, u = mats
    assert (t @ u).apply_line(l) == t.apply_line(u.apply_line(l))


def test_frame_transform_standard_frame():
    """Any four points in general position map to e1, e2, e3, unit."""
    spec = make_field(5)
    pl = plane(spec)
    rng = random.Random(11)
    e1 = canonicalize(_e(spec, 1, 0, 0))
    e2 = canonicalize(_e(spec, 0, 1, 0))
    e3 = canonicalize(_e(spec, 0, 0, 1))
    unit = canonicalize(_e(spec, 1, 1, 1))
    done = 0
    while done < 25:
        a, b, c, d = rng.sample(pl.points, 4)
        if collinear(a, b, c) or collinear(a, b, d) \
                or collinear(a, c, d) or collinear(b, c, d):
            continue
        done += 1
        t = frame_transform(a, b, c, d)
        assert t.apply(a) == e1
        assert t.apply(b) == e2
        assert t.apply(c) == e3
        assert t.apply(d) == unit


def test_frame_transform_matches_inverse_of_scaled_columns(monkeypatch):
    """One inverse3 plus a row rescale equals inverting [a|b|c] diag(lam),
    and the first inverse() returns [a|b|c] diag(lam) without an inverse3."""
    calls = []
    monkeypatch.setattr(pg2, "inverse3", lambda m: calls.append(m) or inverse3(m))
    for p, k in ((5, 1), (2, 3), (3, 2)):
        spec = make_field(p, k)
        pl = plane(spec)
        rng = random.Random(100 + spec.q)
        done = 0
        while done < 20:
            a, b, c, d = rng.sample(pl.points, 4)
            if any(collinear(*t) for t in itertools.combinations((a, b, c, d), 3)):
                continue
            done += 1
            m = Mat.from_rows(zip(a.coords, b.coords, c.coords))
            lam = mat_vec(inverse3(m), d.coords)
            scaled = Mat.from_rows(
                [lam[j] * m.at(i, j) for j in range(3)] for i in range(3)
            )
            calls.clear()
            t = frame_transform(a, b, c, d)
            assert t.matrix == inverse3(scaled) and len(calls) == 1
            calls.clear()
            assert t.inverse().matrix == scaled == inverse3(t.matrix)
            assert t.inverse().inverse() is t
            assert calls == []


def test_frame_transform_degenerate_rejected():
    spec = make_field(5)
    a = canonicalize(_e(spec, 1, 0, 0))
    b = canonicalize(_e(spec, 0, 1, 0))
    c = canonicalize(_e(spec, 1, 1, 0))  # collinear with a, b
    d = canonicalize(_e(spec, 1, 1, 1))
    with pytest.raises(DegenerateFrame, match="first three frame points are collinear"):
        frame_transform(a, b, c, d)
    # fourth point on a side
    c2 = canonicalize(_e(spec, 0, 0, 1))
    d2 = canonicalize(_e(spec, 1, 1, 0))
    with pytest.raises(DegenerateFrame):
        frame_transform(a, b, c2, d2)


def test_parse_and_to_text_roundtrip():
    spec = make_field(7)
    p = parse_point(spec, "[1:2:3]")
    assert p.coords == _e(spec, 1, 2, 3)
    assert parse_point(spec, p.to_text()) == p
    l = parse_line(spec, "[0:1:6]")
    assert parse_line(spec, l.to_text()) == l
    assert parse_point(spec, "[2:4:6]") == p  # canonicalized
    with pytest.raises(ZeroVector):
        parse_point(spec, "[0:0:0]")
    with pytest.raises(ValueError):
        parse_point(spec, "[1:2]")


def test_point_line_text_forms():
    spec = make_field(5)
    assert canonicalize(_e(spec, 2, 0, 4)).to_text() == "[1:0:2]"
    assert canonicalize_line(_e(spec, 0, 3, 3)).to_text() == "[0:1:1]"
