"""Arcs, ovals, tangent counting, and the exhaustive search."""

import itertools
import random
import sys

import pytest

from galoisplane.arcs import Arc, is_arc, search_maximal_arcs, tangent_lines
from galoisplane.conic import combinatorial_tangents, parse_conic
from galoisplane.errors import (
    BoundExceeded,
    Degenerate,
    EqualPoints,
    PointNotOnArc,
    SpecMismatch,
)
from galoisplane.gf import make_field
from galoisplane.pg2 import (
    ProjPoint,
    canonicalize,
    collinear,
    incident,
    plane,
    point_sort_key,
)
from galoisplane.segre import fit_conic_nullspace, reconstruct_conic


def _oval(spec):
    return parse_conic(spec, "[1:0:0:0:0:-1]").variety()


def _pt(spec, *codes):
    return canonicalize(tuple(spec.from_int(c) for c in codes))


def test_is_arc_on_conic_points():
    spec = make_field(7)
    ok, witness = is_arc(_oval(spec))
    assert ok and witness is None


def test_is_arc_collinear_witness():
    spec = make_field(5)
    pts = [_pt(spec, 1, 0, 0), _pt(spec, 0, 1, 0), _pt(spec, 1, 1, 0),
           _pt(spec, 0, 0, 1)]
    ok, witness = is_arc(pts)
    assert not ok
    a, b, c = witness
    assert collinear(a, b, c)
    assert {a, b, c} <= set(pts)


def _is_arc_by_determinants(pts):
    # reference: the first equal pair, else the first collinear triple, in
    # combinations order, each triple tested by its determinant
    for a, b in itertools.combinations(range(len(pts)), 2):
        if pts[a] == pts[b]:
            return False, (pts[a], pts[b])
    for a, b, c in itertools.combinations(pts, 3):
        if collinear(a, b, c):
            return False, (a, b, c)
    return True, None


def _spec(q):
    return {4: make_field(2, 2), 8: make_field(2, 3), 9: make_field(3, 2)}.get(q) \
        or make_field(q)


def test_is_arc_witness_matches_determinant_scan_on_small_subsets():
    points = plane(make_field(3)).points
    checked = 0
    for k in (3, 4):
        for subset in itertools.combinations(points, k):
            assert is_arc(subset) == _is_arc_by_determinants(subset), subset
            checked += 1
    assert checked == 286 + 715


def test_is_arc_witness_matches_determinant_scan_on_shuffled_lists():
    # conic subsets, plus a point off the conic, plus a repeat; then plane
    # subsets carrying several collinear triples, and draws with replacement
    # from a few points carrying several equal pairs
    rng = random.Random(20231)
    for q in (4, 5, 7, 8, 9, 11, 13):
        spec = _spec(q)
        points = plane(spec).points
        oval = list(_oval(spec))
        on_oval = set(oval)
        off = [p for p in points if p not in on_oval]
        for trial in range(40):
            kind = trial % 5
            if kind <= 2:
                pts = rng.sample(oval, rng.randint(3, len(oval)))
                if kind >= 1:
                    pts.append(rng.choice(off))
                if kind == 2:
                    pts.append(rng.choice(pts))
                rng.shuffle(pts)
            elif kind == 3:
                pts = rng.sample(points, rng.randint(6, 12))
            else:
                pool = rng.sample(points, 5)
                pts = [rng.choice(pool) for _ in range(rng.randint(4, 10))]
            assert is_arc(pts) == _is_arc_by_determinants(pts), (q, trial)


def test_is_arc_above_plane_cap():
    spec = make_field(131)
    frame = [_pt(spec, 1, 0, 0), _pt(spec, 0, 1, 0), _pt(spec, 0, 0, 1),
             _pt(spec, 1, 1, 1)]
    assert Arc(frame).size == 4
    with pytest.raises(Degenerate):
        Arc(frame[:2] + [_pt(spec, 1, 1, 0)])
    moment = [_pt(spec, 1, t, t * t) for t in range(5)]
    assert fit_conic_nullspace(moment) == parse_conic(spec, "[0:1:0:0:-1:0]")


def test_is_arc_malformed_input():
    f5, f7 = make_field(5), make_field(7)
    with pytest.raises(SpecMismatch):
        is_arc([_pt(f5, 1, 0, 0), _pt(f5, 0, 1, 0), _pt(f7, 0, 0, 1)])
    # ProjPoint normalises [2:2:2] to [1:1:1], so the two points repeat
    two = f5.from_int(2)
    scaled, unit = ProjPoint((two, two, two)), _pt(f5, 1, 1, 1)
    assert is_arc([scaled, unit]) == (False, (scaled, unit))


def test_arc_stores_noncanonical_points_canonically():
    # [2:2:2] is the point [1:1:1]; an Arc given either is the same arc
    spec = make_field(5)
    conic = parse_conic(spec, "[1:0:0:0:0:-1]")
    unit = _pt(spec, 1, 1, 1)
    two = spec.from_int(2)
    scaled = ProjPoint((two, two, two))
    pts = list(conic.variety())
    arc = Arc(pts)
    scaled_arc = Arc([scaled if p == unit else p for p in pts])
    assert scaled_arc == arc and hash(scaled_arc) == hash(arc)
    assert scaled_arc.points == arc.points
    for a in (arc, scaled_arc):
        assert tangent_lines(a, scaled) == tangent_lines(arc, unit)
    assert combinatorial_tangents(conic, scaled) == combinatorial_tangents(conic, unit)
    assert reconstruct_conic(scaled_arc)[1].to_json() == reconstruct_conic(arc)[1].to_json()

    big = make_field(131)
    seven = big.from_int(7)
    frame = [_pt(big, 1, 0, 0), _pt(big, 0, 1, 0), _pt(big, 0, 0, 1)]
    assert Arc(frame + [ProjPoint((seven, seven, seven))]) == Arc(frame + [_pt(big, 1, 1, 1)])


def test_arc_validation_runs_no_determinant_scan(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return collinear(*args)

    for module in list(sys.modules.values()):
        if module and module.__name__.startswith("galoisplane") \
                and getattr(module, "collinear", None) is collinear:
            monkeypatch.setattr(module, "collinear", counted)
    Arc(_oval(make_field(13)))
    fit_conic_nullspace(_oval(make_field(7)))
    assert calls == []


def test_arc_constructor_sorts_and_validates():
    spec = make_field(5)
    pts = list(_oval(spec))
    arc = Arc(reversed(pts))
    assert list(arc.points) == sorted(pts, key=point_sort_key)
    assert arc.size == 6
    assert arc.is_oval() and not arc.is_hyperoval()
    assert _pt(spec, 1, 1, 1) in arc
    assert _pt(spec, 1, 0, 0) not in arc
    with pytest.raises(EqualPoints):
        Arc(pts + [pts[0]])
    with pytest.raises(Degenerate):
        Arc([_pt(spec, 1, 0, 0), _pt(spec, 0, 1, 0), _pt(spec, 1, 1, 0)])


def test_tangent_count_depends_on_arc_size():
    # an n-arc has q + 2 - n tangents at each of its points
    spec = make_field(7)
    oval = list(_oval(spec))
    for n in (3, 5, 8):
        arc = Arc(oval[:n])
        p = arc.points[0]
        tl = tangent_lines(arc, p)
        assert len(tl) == spec.q + 2 - n
        for l in tl:
            assert incident(p, l)
            assert sum(1 for r in arc.points if incident(r, l)) == 1


def test_tangent_lines_requires_membership():
    spec = make_field(5)
    arc = Arc(_oval(spec))
    with pytest.raises(PointNotOnArc):
        tangent_lines(arc, _pt(spec, 1, 0, 0))
    with pytest.raises(SpecMismatch):
        tangent_lines(arc, _pt(make_field(7), 1, 1, 1))


def test_search_counts_q3():
    spec = make_field(3)
    arcs = search_maximal_arcs(spec, 4)
    assert len(arcs) == 234
    seen = set()
    for a in arcs:
        assert a.size == 4
        key = frozenset(a.points)
        assert key not in seen
        seen.add(key)


def test_search_first_arc_is_lex_min():
    spec = make_field(3)
    first = search_maximal_arcs(spec, 4, limit=1)[0]
    assert [p.to_text() for p in first.points] == \
        ["[1:0:0]", "[1:0:1]", "[1:1:0]", "[1:1:1]"]


def test_search_limit():
    spec = make_field(5)
    arcs = search_maximal_arcs(spec, 6, limit=7)
    assert len(arcs) == 7


def test_search_no_overfull_arcs_odd_q():
    for p in (3, 5):
        spec = make_field(p)
        assert search_maximal_arcs(spec, p + 2) == []


def test_search_hyperoval_even_q():
    spec = make_field(2, 2)
    found = search_maximal_arcs(spec, 6, limit=1)
    assert len(found) == 1
    hyper = found[0]
    assert hyper.is_hyperoval()
    for a, b, c in itertools.combinations(hyper.points, 3):
        assert not collinear(a, b, c)


def test_search_guards():
    spec = make_field(5)
    with pytest.raises(BoundExceeded):
        search_maximal_arcs(make_field(3, 2), 10)
    with pytest.raises(Degenerate):
        search_maximal_arcs(spec, 0)
    with pytest.raises(Degenerate):
        search_maximal_arcs(spec, 6, limit=0)
    # explicit override unlocks larger orders
    found = search_maximal_arcs(make_field(3, 2), 10, limit=1, max_order=9)
    assert len(found) == 1 and found[0].size == 10


def test_arc_text_and_equality():
    spec = make_field(3)
    a = search_maximal_arcs(spec, 4, limit=1)[0]
    b = Arc(a.points)
    assert a == b and hash(a) == hash(b)
    assert a.to_text() == " ".join(p.to_text() for p in a.points)


def _arc_indices_by_brute_force(pl, k):
    # every k-subset of the plane in combinations order, kept if it is an arc
    return [idx for idx in itertools.combinations(range(pl.n), k)
            if is_arc([pl.points[i] for i in idx])[0]]


def test_search_matches_brute_force_in_order():
    for q in (2, 3, 4):
        spec = _spec(q)
        pl = plane(spec)
        for size in range(1, q + 3):
            expected = _arc_indices_by_brute_force(pl, size)
            for limit in (None, 1, 7):
                got = [tuple(pl.index(p) for p in a.points)
                       for a in search_maximal_arcs(spec, size, limit)]
                assert got == expected[:limit], (q, size, limit)


def test_search_limit_is_a_prefix_of_plane_points_in_order():
    spec = make_field(5)
    pl = plane(spec)
    complete = search_maximal_arcs(spec, 6)
    assert len(complete) == 3100
    for arc in complete:
        assert all(pl.points[pl.index(p)] is p for p in arc.points)
        assert list(arc.points) == sorted(arc.points, key=point_sort_key)
    for k in (1, 2, 7, 100, 3099, 3100, 5000):
        assert search_maximal_arcs(spec, 6, limit=k) == complete[:k], k
