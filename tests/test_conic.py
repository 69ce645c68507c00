"""Conics: varieties, gradients, tangents, degeneracy, and transformation
under collineations."""

import itertools
import random

import pytest

from galoisplane.conic import (
    Conic,
    _gradient_matrix,
    combinatorial_tangents,
    evaluate,
    gradient,
    is_nondegenerate,
    line_conic_intersect,
    parse_conic,
    symmetric_matrix,
    tangent_at,
    transform_conic,
    upper_matrix,
    variety_of,
)
from galoisplane.errors import (
    Degenerate,
    EvenCharacteristic,
    NotOnVariety,
    SpecMismatch,
    ZeroVector,
)
from galoisplane.gf import make_field
from galoisplane.linalg import Mat, det3, mat_vec
from galoisplane.errors import Singular
from galoisplane.pg2 import (
    Collineation,
    Plane,
    ProjLine,
    ProjPoint,
    _code_map,
    canonicalize,
    incident,
    iter_points,
    meet,
    plane,
    point_sort_key,
)


def _conic(spec, *ints):
    return Conic(tuple(spec.element(v) for v in ints))


def _pt(spec, *codes):
    return canonicalize(tuple(spec.from_int(c) for c in codes))


def test_parse_conic_forms():
    spec = make_field(5)
    want = _conic(spec, 1, 0, 0, 0, 0, -1)
    assert parse_conic(spec, "[1:0:0:0:0:-1]") == want
    assert parse_conic(spec, "1,0,0,0,0,4") == want
    assert parse_conic(spec, "(1:0:0:0:0:4)") == want
    assert parse_conic(spec, "[2:0:0:0:0:3]") == want  # scalar multiple
    with pytest.raises(ZeroVector):
        parse_conic(spec, "[0:0:0:0:0:0]")
    with pytest.raises(ValueError):
        parse_conic(spec, "[1:2:3]")


def test_conic_normalises_to_canonical_codes():
    spec = make_field(5)
    c = _conic(spec, 0, 2, 4, 0, 0, 1)
    assert c.codes == c.to_ints() == (0, 1, 2, 0, 0, 3)
    assert c.to_text() == "[0:1:2:0:0:3]"
    assert c.coeffs == tuple(spec.from_int(v) for v in c.codes)
    assert all(x is spec.elements()[v] for x, v in zip(c.coeffs, c.codes))
    assert c == _conic(spec, 0, 1, 2, 0, 0, 3)
    assert hash(c) == hash(_conic(spec, 0, 1, 2, 0, 0, 3))
    with pytest.raises(AttributeError):
        c.coeffs = c.coeffs


def test_conic_rejects_bad_input_and_stays_apart_across_fields():
    f5, f7 = make_field(5), make_field(7)
    with pytest.raises(ZeroVector):
        _conic(f5, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ZeroVector):
        _conic(f5, 1, 0, 0, 0, 0)
    with pytest.raises(SpecMismatch):
        Conic(tuple(f5.element(v) for v in (1, 0, 0, 0, 0)) + (f7.element(1),))
    assert _conic(f5, 1, 0, 0, 0, 0, 1) != _conic(f7, 1, 0, 0, 0, 0, 1)


def test_conic_canonical_and_text():
    spec = make_field(7)
    c = _conic(spec, 0, 0, 0, 3, 3, 6)
    assert c.to_ints() == (0, 0, 0, 1, 1, 2)
    assert c.to_text() == "[0:0:0:1:1:2]"
    assert hash(c) == hash(_conic(spec, 0, 0, 0, 1, 1, 2))


def test_evaluate_matches_formula():
    spec = make_field(7)
    rng = random.Random(3)
    for _ in range(100):
        coeffs = [rng.randrange(7) for _ in range(6)]
        if not any(coeffs):
            coeffs[0] = 1
        c = _conic(spec, *coeffs)
        x, y, z = (rng.randrange(7) for _ in range(3))
        if not (x or y or z):
            x = 1
        p = _pt(spec, x, y, z)
        xe, ye, ze = p.coords
        a, b, cc, d, e, f = c.coeffs
        want = (a * xe * xe + b * ye * ye + cc * ze * ze
                + d * xe * ye + e * xe * ze + f * ye * ze)
        assert evaluate(c, p) == want
        assert c.evaluate(p) == want


def test_variety_frozen_values():
    spec = make_field(5)
    c = _conic(spec, 1, 0, 0, 0, 0, -1)  # x^2 - yz
    got = {p.to_text() for p in c.variety()}
    assert got == {"[0:1:0]", "[0:0:1]", "[1:1:1]", "[1:2:3]", "[1:3:2]", "[1:4:4]"}
    g = _conic(spec, 0, 0, 0, 1, 1, 1)  # xy + xz + yz
    got2 = {p.to_text() for p in g.variety()}
    assert got2 == {"[1:0:0]", "[0:1:0]", "[0:0:1]", "[1:1:2]", "[1:2:1]", "[1:3:3]"}


def test_variety_enumeration_order_canonical():
    spec = make_field(5)
    c = _conic(spec, 1, 0, 0, 0, 0, -1)
    pts = list(iter_points(spec))
    order = {p: i for i, p in enumerate(pts)}
    var = c.variety()
    assert list(var) == sorted(var, key=order.__getitem__)
    assert variety_of(c) == var


_ORDERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
           9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3), 32: (2, 5),
           121: (11, 2), 125: (5, 3), 128: (2, 7)}


def _evaluated_variety(c):
    """Reference: the plane points where the form vanishes, in plane order."""
    return tuple(p for p in plane(c.spec).points if c.evaluate(p).is_zero())


def _random_conic(spec, rng):
    while True:
        coeffs = [rng.randrange(spec.q) for _ in range(6)]
        if any(coeffs):
            return Conic(tuple(spec.from_int(v) for v in coeffs))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 121, 128])
def test_variety_matches_evaluation_at_every_point(q):
    spec = make_field(*_ORDERS[q])
    rng = random.Random(1000 + q)
    for _ in range(3 if q > 100 else 25):
        c = _random_conic(spec, rng)
        assert variety_of(c) == _evaluated_variety(c), c


def test_variety_row_branches_match_evaluation():
    # each monomial alone, x^2 + y^2 with -1 a non-square (one point, q=7)
    # and x^2 + y^2 = (x + y)^2 in characteristic 2 (a double line, q=8)
    for q in (7, 8, 9):
        spec = make_field(*_ORDERS[q])
        for i in range(6):
            c = _conic(spec, *(int(j == i) for j in range(6)))
            assert variety_of(c) == _evaluated_variety(c), (q, c)
    single = _conic(make_field(7), 1, 1, 0, 0, 0, 0)
    assert [p.to_text() for p in variety_of(single)] == ["[0:0:1]"]
    double = _conic(make_field(2, 3), 1, 1, 0, 0, 0, 0)
    assert variety_of(double) == _evaluated_variety(double)
    assert len(variety_of(double)) == 9


def _half_discriminant(c):
    """4abc + def - af^2 - be^2 - cd^2: zero iff the conic is degenerate."""
    a, b, cc, d, e, f = c.coeffs
    abc = a * b * cc
    return abc + abc + abc + abc + d * e * f - a * f * f - b * e * e - cc * d * d


def _degenerate_conic(spec, rng):
    """A random conic with the z^2 coefficient solved for a zero discriminant."""
    while True:
        a, b, _, d, e, f = _random_conic(spec, rng).coeffs
        rest = d * e * f - a * f * f - b * e * e
        ab = a * b
        slope = ab + ab + ab + ab - d * d
        if not slope.is_zero():
            return Conic((a, b, -rest / slope, d, e, f))


@pytest.mark.parametrize("q", [121, 125, 128])
def test_nondegeneracy_matches_discriminant_at_large_q(q):
    # half the conics random, half solved onto the degenerate locus
    spec = make_field(*_ORDERS[q])
    rng = random.Random(2000 + q)
    seen = set()
    for i in range(40):
        c = _degenerate_conic(spec, rng) if i % 2 else _random_conic(spec, rng)
        report = is_nondegenerate(c)
        if _half_discriminant(c).is_zero():
            # only a lone point (two conjugate lines) passes, in characteristic 2
            lone = report.variety_size == 1
            assert report.verdict is (spec.p == 2 and lone), c
            seen.add("single point" if lone else "lines")
        else:
            assert report.verdict is True, c
            assert report.variety_size == q + 1, c
            assert report.max_points_on_a_line == 2, c
            seen.add("non-degenerate")
    assert seen == {"single point", "lines", "non-degenerate"}


def test_variety_size_nondegenerate_sampled():
    rng = random.Random(4)
    for p, k in ((5, 1), (7, 1), (3, 2)):
        spec = make_field(p, k)
        q = spec.q
        found = 0
        while found < 30:
            coeffs = [rng.randrange(q) for _ in range(6)]
            if not any(coeffs):
                continue
            c = Conic(tuple(spec.from_int(v) for v in coeffs))
            if not is_nondegenerate(c).verdict:
                continue
            found += 1
            assert len(c.variety()) == q + 1


def test_gradient_values_and_even_char_guard():
    spec = make_field(5)
    c = _conic(spec, 1, 0, 0, 0, 0, -1)
    p = _pt(spec, 1, 1, 1)
    g = gradient(c, p)
    assert tuple(v.to_int() for v in g) == (2, 4, 4)  # (2, -1, -1)
    spec2 = make_field(2, 2)
    c2 = _conic(spec2, 1, 0, 0, 0, 0, 1)
    with pytest.raises(EvenCharacteristic):
        gradient(c2, _pt(spec2, 0, 1, 0))


def test_tangent_at_known_values():
    spec = make_field(5)
    c = _conic(spec, 1, 0, 0, 0, 0, -1)
    assert tangent_at(c, _pt(spec, 1, 1, 1)).to_text() == "[1:2:2]"
    assert tangent_at(c, _pt(spec, 0, 0, 1)).to_text() == "[0:1:0]"
    with pytest.raises(NotOnVariety):
        tangent_at(c, _pt(spec, 1, 1, 0))


def test_tangent_at_degenerate_singular_point():
    spec = make_field(7)
    c = _conic(spec, 1, 1, 0, 0, 0, 0)  # x^2 + y^2, singular at (0,0,1)
    p = _pt(spec, 0, 0, 1)
    assert c.evaluate(p).is_zero()
    with pytest.raises(Degenerate):
        tangent_at(c, p)


def test_tangent_meets_variety_once():
    spec = make_field(7)
    c = _conic(spec, 1, 0, 0, 0, 0, -1)
    for p in c.variety():
        t = tangent_at(c, p)
        assert line_conic_intersect(c, t) == [p]


def test_line_conic_intersect_brute_force():
    spec = make_field(5)
    pl = plane(spec)
    c = _conic(spec, 1, 2, 0, 0, 1, 3)
    var = set(c.variety())
    for li, l in enumerate(pl.lines):
        want = sorted(
            (pl.points[i] for i in pl.line_points[li] if pl.points[i] in var),
            key=lambda p: pl.point_index[p],
        )
        assert line_conic_intersect(c, l) == want


def _line_points_by_cross(l):
    """The q+1 points of l as its meets l x m with the lines m through a
    base point e_i off l, on elements: an enumeration independent of the
    library's parametrization of a line."""
    spec = l.spec
    one, zero = spec.one(), spec.zero()
    i = next(n for n, x in enumerate(l.coeffs) if not x.is_zero())
    j, k = (n for n in range(3) if n != i)
    u = l.coeffs
    pts = []
    for t in list(spec.elements()) + [None]:
        m = [zero, zero, zero]
        m[j], m[k] = (zero, one) if t is None else (one, t)
        pts.append(ProjPoint((
            u[1] * m[2] - u[2] * m[1],
            u[2] * m[0] - u[0] * m[2],
            u[0] * m[1] - u[1] * m[0],
        )))
    return pts


@pytest.mark.parametrize("p, k", [(3, 2), (2, 3), (131, 1), (2, 8), (3, 5)])
def test_line_conic_intersect_above_the_plane_cap(p, k):
    """Without a plane, at and above PLANE_MAX_ORDER = 128 too: the hits on
    seeded random lines, on lines through two conic points, and on a line
    lying in a line-pair conic, against an element evaluation at each point
    of the line."""
    spec = make_field(p, k)
    q = spec.q
    rng = random.Random(q)
    one = spec.one()

    def element():
        return spec.from_int(rng.choice((0, 1, rng.randrange(q))))

    def form(conic, pt):
        a, b, c, d, e, f = conic.coeffs
        x, y, z = pt.coords
        return a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + f * y * z

    u = (one, element(), element())
    v = (element(), one, element())
    pair = Conic((u[0] * v[0], u[1] * v[1], u[2] * v[2],
                  u[0] * v[1] + u[1] * v[0], u[0] * v[2] + u[2] * v[0],
                  u[1] * v[2] + u[2] * v[1]))
    conics = [Conic((one, element(), element(), element(), element(), element())), pair]
    lines = [ProjLine(u)] + [ProjLine((element(), element(), one)) for _ in range(12)]
    lines += [ProjLine((element(), one, spec.zero())), ProjLine((one, spec.zero(), spec.zero()))]
    sizes = set()
    for conic in conics:
        for l in lines:
            want = sorted((x for x in _line_points_by_cross(l) if form(conic, x).is_zero()),
                          key=point_sort_key)
            got = line_conic_intersect(conic, l)
            assert got == want, (conic, l)
            sizes.add(len(got))
    assert q + 1 in sizes and len(sizes) > 1


def test_combinatorial_tangents_match_gradient():
    for p, k in ((5, 1), (7, 1), (3, 2)):
        spec = make_field(p, k)
        c = _conic(spec, 1, 0, 0, 0, 0, -1)
        assert is_nondegenerate(c).verdict
        for pt in c.variety():
            assert combinatorial_tangents(c, pt) == [tangent_at(c, pt)]


def test_combinatorial_tangents_even_characteristic():
    # gradient is unavailable in characteristic 2 but counting still works
    spec = make_field(2, 2)
    c = _conic(spec, 1, 0, 0, 0, 0, 1)  # x^2 + yz
    report = is_nondegenerate(c)
    assert report.gradient_ok is None
    assert report.combinatorial_ok and report.verdict
    assert len(c.variety()) == 5
    for pt in c.variety():
        tl = combinatorial_tangents(c, pt)
        assert len(tl) == 1
    # all five tangents pass through the nucleus
    nuclei = {combinatorial_tangents(c, pt)[0] for pt in c.variety()}
    lines = sorted(nuclei, key=lambda l: l.to_text())
    common = meet(lines[0], lines[1])
    assert all(incident(common, l) for l in lines)


def test_combinatorial_tangents_requires_variety_point():
    spec = make_field(5)
    c = _conic(spec, 1, 0, 0, 0, 0, -1)
    with pytest.raises(NotOnVariety):
        combinatorial_tangents(c, _pt(spec, 1, 0, 0))


def _lines_scan_report(pl, pts):
    """Reference: (max points on a line, its lowest-index line or None below
    3), by intersecting every one of the n line rows with the variety."""
    var = {pl.point_index[p] for p in pts}
    max_on_line, witness = 0, None
    for li, row in enumerate(pl.line_points):
        k = len(var.intersection(row))
        if k > max_on_line:
            max_on_line = k
            if k >= 3:
                witness = pl.lines[li]
    return max_on_line, witness


def _report_fields(report):
    return report.max_points_on_a_line, report.line_witness


def test_nondegeneracy_line_counts_match_full_scan():
    rng = random.Random(41)
    witnessed = 0
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        spec = make_field(p, k)
        pl = plane(spec)
        for _ in range(60):
            coeffs = [rng.randrange(spec.q) for _ in range(6)]
            if not any(coeffs):
                continue
            c = Conic(tuple(spec.from_int(v) for v in coeffs))
            got = _report_fields(is_nondegenerate(c))
            assert got == _lines_scan_report(pl, c.variety()), (spec.q, coeffs)
            witnessed += got[1] is not None
    assert witnessed > 0
    spec = make_field(7)
    for ints in ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (1, 1, 0, 0, 0, 0)):
        c = _conic(spec, *ints)
        assert _report_fields(is_nondegenerate(c)) == \
            _lines_scan_report(plane(spec), c.variety()), ints


def _scan_report_fields(c, pts):
    """Reference: the report's max_points_on_a_line, line_witness,
    combinatorial_ok and variety_size from a full line scan of pts."""
    max_on_line, witness = _lines_scan_report(plane(c.spec), pts)
    return max_on_line, witness, bool(pts) and max_on_line <= 2, len(pts)


def _combinatorial_fields(report):
    return (report.max_points_on_a_line, report.line_witness,
            report.combinatorial_ok, report.variety_size)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_nondegeneracy_report_matches_full_scan_on_every_conic(q):
    """Every canonical coefficient tuple (zeros, a leading 1, then any codes),
    its variety found by evaluating the form at each plane point from the
    points' monomial codes on the op tables."""
    spec = make_field(*_ORDERS[q])
    add, mul, _, _ = spec.op_tables()
    points = plane(spec).points
    monomials = [[mul[x][x], mul[y][y], mul[z][z], mul[x][y], mul[x][z], mul[y][z]]
                 for x, y, z in (p.codes for p in points)]

    def form_vanishes(coeffs, m):
        acc = 0
        for a, v in zip(coeffs, m):
            acc = add[acc][mul[a][v]]
        return not acc

    conics = [Conic._of(spec, (0,) * lead + (1,) + rest)
              for lead in range(6) for rest in itertools.product(range(q), repeat=5 - lead)]
    assert len(conics) == (q ** 6 - 1) // (q - 1)
    witnessed = 0
    for c in conics:
        pts = tuple(p for p, m in zip(points, monomials) if form_vanishes(c.codes, m))
        got = _combinatorial_fields(is_nondegenerate(c))
        assert got == _scan_report_fields(c, pts), c
        if q % 2:  # non-degenerate iff det(U + U^T) != 0
            assert det3(_gradient_matrix(c)).is_zero() != is_nondegenerate(c).verdict, c
        witnessed += got[1] is not None
    assert 0 < witnessed < len(conics)


@pytest.mark.parametrize("q", [121, 128])
def test_nondegeneracy_report_matches_full_scan_at_large_q(q):
    # seeded degenerate and random conics; the degenerate ones carry witnesses
    spec = make_field(*_ORDERS[q])
    rng = random.Random(2400 + q)
    witnessed = 0
    for i in range(4):
        c = _degenerate_conic(spec, rng) if i % 2 else _random_conic(spec, rng)
        got = _combinatorial_fields(is_nondegenerate(c))
        assert got == _scan_report_fields(c, c.variety()), c
        if q % 2:  # non-degenerate iff det(U + U^T) != 0
            assert det3(_gradient_matrix(c)).is_zero() != is_nondegenerate(c).verdict, c
        witnessed += got[1] is not None
    assert witnessed > 0


def test_nondegenerate_conic_builds_no_line_count(monkeypatch):
    # a conic whose variety holds no three collinear points needs no Counter
    calls = []
    real = Plane.line_counts
    monkeypatch.setattr(Plane, "line_counts",
                        lambda pl, indices: calls.append(1) or real(pl, indices))
    for q in (3, 4, 7, 121, 128):
        spec = make_field(*_ORDERS[q])
        report = is_nondegenerate(_conic(spec, 1, 0, 0, 0, 0, q - 1))  # x^2 - yz
        assert report.combinatorial_ok and report.max_points_on_a_line == 2
    assert calls == []
    assert not is_nondegenerate(_conic(spec, 0, 0, 0, 1, 0, 0)).combinatorial_ok  # xy
    assert calls == [1]


def test_nondegeneracy_report_of_empty_variety(monkeypatch):
    # every ternary quadratic form over GF(q) has a projective zero
    # (Chevalley-Warning), so the empty variety is supplied by hand
    import galoisplane.conic as conic_module

    monkeypatch.setattr(conic_module, "variety_of", lambda conic: ())
    spec = make_field(3)
    report = is_nondegenerate(_conic(spec, 1, 1, 1, 0, 0, 0))
    assert _report_fields(report) == _lines_scan_report(plane(spec), ()) == (0, None)
    assert report.variety_size == 0 and not report.combinatorial_ok


def test_combinatorial_tangents_match_brute_force_on_degenerate_conics():
    spec = make_field(5)
    pl = plane(spec)
    for ints in ((0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0)):  # xy, x^2
        c = _conic(spec, *ints)
        var = c.variety()
        for p in var:
            want = [l for l in pl.lines
                    if incident(p, l) and sum(incident(v, l) for v in var) == 1]
            assert combinatorial_tangents(c, p) == want, (ints, p)


def test_degenerate_double_line():
    spec = make_field(5)
    c = _conic(spec, 1, 0, 0, 0, 0, 0)  # x^2: the line x=0 doubled
    report = is_nondegenerate(c)
    assert not report.verdict
    assert not report.combinatorial_ok
    assert report.max_points_on_a_line == 6
    assert len(c.variety()) == 6


def test_degenerate_line_pair():
    spec = make_field(5)
    c = _conic(spec, 0, 0, 0, 1, 0, 0)  # xy
    report = is_nondegenerate(c)
    assert not report.verdict
    assert len(c.variety()) == 11  # two lines sharing a point


def test_single_point_variety_disagreement():
    # x^2 + y^2 over GF(7): -1 is not a square, variety is one point.
    # Counting alone cannot see the defect; the gradient does.
    spec = make_field(7)
    c = _conic(spec, 1, 1, 0, 0, 0, 0)
    report = is_nondegenerate(c)
    assert [p.to_text() for p in c.variety()] == ["[0:0:1]"]
    assert report.combinatorial_ok
    assert report.gradient_ok is False
    assert not report.verdict


def test_upper_matrix_reproduces_form():
    rng = random.Random(5)
    for p, k in ((5, 1), (2, 2)):
        spec = make_field(p, k)
        q = spec.q
        for _ in range(40):
            coeffs = [rng.randrange(q) for _ in range(6)]
            if not any(coeffs):
                continue
            c = Conic(tuple(spec.from_int(v) for v in coeffs))
            u = upper_matrix(c)
            for _ in range(10):
                v = tuple(spec.from_int(rng.randrange(q)) for _ in range(3))
                if all(x.is_zero() for x in v):
                    continue
                lhs = sum(
                    (v[i] * u.at(i, j) * v[j] for i in range(3) for j in range(3)),
                    spec.zero(),
                )
                pcan = canonicalize(v)
                s = next(x for x in pcan.coords if not x.is_zero())
                # evaluate is quadratic: f(sv) = s^2 f(v)
                assert c.evaluate(canonicalize(v)).is_zero() == lhs.is_zero()


def test_symmetric_matrix_odd_char_only():
    spec = make_field(5)
    c = _conic(spec, 1, 2, 3, 4, 0, 1)
    m = symmetric_matrix(c)
    assert m == m.transpose()
    with pytest.raises(EvenCharacteristic):
        symmetric_matrix(_conic(make_field(2, 2), 1, 0, 0, 0, 0, 1))


def test_transform_conic_variety_contract():
    rng = random.Random(6)
    for p, k in ((5, 1), (3, 2), (2, 2)):
        spec = make_field(p, k)
        q = spec.q
        pl = plane(spec)
        c = _conic(spec, 1, 0, 0, 0, 0, -1) if p != 2 \
            else _conic(spec, 1, 0, 0, 0, 0, 1)
        done = 0
        while done < 15:
            entries = tuple(spec.from_int(rng.randrange(q)) for _ in range(9))
            try:
                t = Collineation(Mat(spec, 3, 3, entries))
            except Singular:
                continue
            done += 1
            image = transform_conic(t, c)
            for pt in pl.points:
                assert c.evaluate(pt).is_zero() == image.evaluate(t.apply(pt)).is_zero()


def test_transform_conic_roundtrip():
    spec = make_field(7)
    rng = random.Random(7)
    c = _conic(spec, 1, 3, 0, 2, 0, 6)
    while True:
        entries = tuple(spec.from_int(rng.randrange(7)) for _ in range(9))
        try:
            t = Collineation(Mat(spec, 3, 3, entries))
            break
        except Singular:
            continue
    assert transform_conic(t.inverse(), transform_conic(t, c)) == c


def test_transform_preserves_nondegeneracy():
    spec = make_field(5)
    c = _conic(spec, 1, 0, 0, 0, 0, -1)
    t = Collineation.diagonal(tuple(spec.from_int(v) for v in (1, 2, 3)))
    assert is_nondegenerate(transform_conic(t, c)).verdict


def test_gradient_scan_matches_gradient():
    """`is_nondegenerate` scans the gradient on codes; its verdict and
    witness agree with `gradient` evaluated point by point, on products of
    two linear forms (line pairs and double lines, whose gradient vanishes
    somewhere) and on seeded random conics, over prime and extension fields."""
    rng = random.Random(47)
    seen = set()
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (11, 2)):
        spec = make_field(p, k)
        q = spec.q
        for trial in range(16):
            if trial % 2:
                ints = [rng.randrange(q) for _ in range(6)]
            else:
                u = [spec.from_int(rng.randrange(q)) for _ in range(3)]
                v = [spec.from_int(rng.randrange(q)) for _ in range(3)]
                prod = (u[0] * v[0], u[1] * v[1], u[2] * v[2],
                        u[0] * v[1] + u[1] * v[0], u[0] * v[2] + u[2] * v[0],
                        u[1] * v[2] + u[2] * v[1])
                ints = [x.to_int() for x in prod]
            if not any(ints):
                continue
            c = _conic(spec, *ints)
            expected = next((pt for pt in c.variety()
                             if all(g.is_zero() for g in gradient(c, pt))), None)
            report = is_nondegenerate(c)
            assert report.gradient_ok is (expected is None), (q, ints)
            assert report.gradient_witness == expected, (q, ints)
            seen.add(report.gradient_ok)
    assert seen == {True, False}


def test_gradient_matrix_map_matches_gradient_and_symmetric_matrix():
    """The op-table map of U + U^T, which the non-degeneracy scan and the
    oval certificate read, gives at every variety point of seeded conics
    the codes of `gradient` and of 2 * symmetric_matrix * p, the latter in
    element arithmetic, at odd q from 3 to 121."""
    rng = random.Random(53)
    for p, k in ((3, 1), (5, 1), (3, 2), (5, 2), (11, 2)):
        spec = make_field(p, k)
        two = spec.one() + spec.one()
        conics = [_conic(spec, 1, 0, 0, 0, 0, -1)]
        while len(conics) < 6:
            ints = [rng.randrange(spec.q) for _ in range(6)]
            if any(ints):
                conics.append(_conic(spec, *ints))
        for c in conics:
            grad = _code_map(_gradient_matrix(c))
            s = symmetric_matrix(c)
            for pt in c.variety():
                got = grad(*pt.codes)
                assert got == tuple(g.to_int() for g in gradient(c, pt))
                assert got == tuple((two * g).to_int() for g in mat_vec(s, pt.coords))
