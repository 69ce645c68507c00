"""Arcs in PG(2, q): point sets with no 3 collinear.

An arc of size q+1 is an oval, size q+2 a hyperoval (even q only).  The
search routine enumerates arcs of a requested size as bitmask index sets over
the cached plane, extending only with indices above the last chosen one, so
results come out in lexicographic order of index tuples and each arc is
produced exactly once.  A candidate's exclusions are read off per-point
secant rows, built for each point when it is first chosen; a sibling loop
ends as soon as too few candidates remain, and the last point of each arc is
emitted straight from the candidate mask.  Plane index order is the
`point_sort_key` order, so the found arcs need no sorting.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BoundExceeded, EqualPoints, Degenerate, PointNotOnArc
from .gf import FieldSpec
from .linalg import _same_field
from .pg2 import (
    PLANE_MAX_ORDER,
    ProjPoint,
    collinear,
    plane,
    point_sort_key,
)

SEARCH_MAX_ORDER = 7


def is_arc(points) -> tuple:
    """(True, None) if no two equal and no three collinear, else (False, witness).

    The witness is the first equal pair, else the first collinear triple, in
    `itertools.combinations` order over the input positions.  Up to
    PLANE_MAX_ORDER each point is looked up in the cached plane, and the
    plane's one lines-met count, `Plane._holds_no_three` (the number of lines
    the distinct points meet), decides arc-ness.  Only when some line holds
    three are the plane's per-line masks of input positions built for the
    witness: a line holding three or more carries a collinear triple, its
    three lowest positions first.
    Above that order no plane exists, and every pair is compared and every
    triple's determinant tested.
    """
    pts = list(points)
    if not pts:
        return True, None
    spec = pts[0].spec
    _same_field("arc points", spec, *[p.spec for p in pts])
    if spec.q > PLANE_MAX_ORDER:
        return _is_arc_by_determinants(pts)

    pl = plane(spec)
    indices = [pl.index(p) for p in pts]
    if len(set(indices)) != len(indices):
        first_pos = {}
        duplicate = None
        for pos, i in enumerate(indices):
            first = first_pos.setdefault(i, pos)
            if first != pos and (duplicate is None or first < duplicate[0]):
                duplicate = (first, pos)
        return False, (pts[duplicate[0]], pts[duplicate[1]])
    if pl._holds_no_three(indices):
        return True, None

    witness = None
    for m in pl.line_hits(indices).values():
        if m.bit_count() >= 3:
            lowest = []
            for _ in range(3):
                low = m & -m
                lowest.append(low.bit_length() - 1)
                m ^= low
            lowest = tuple(lowest)
            if witness is None or lowest < witness:
                witness = lowest
    return False, tuple(pts[k] for k in witness)


def _is_arc_by_determinants(pts: list) -> tuple:
    """is_arc by comparing every pair and testing every triple's determinant."""
    for a, b in combinations(range(len(pts)), 2):
        if pts[a] == pts[b]:
            return False, (pts[a], pts[b])
    for a, b, c in combinations(pts, 3):
        if collinear(a, b, c):
            return False, (a, b, c)
    return True, None


class Arc:
    """An arc, held as a tuple of canonical points in plane enumeration order.

    `_frame` is a one-slot memo for `segre.tangent_frame`: the base, transform,
    slopes and tangents of the last frame built on this arc, or None.  It holds
    the parts rather than the frame, which refers back to the arc, and equality,
    hashing and pickling ignore it.
    """

    __slots__ = ("points", "_frame")

    def __init__(self, points, *, _trusted: bool = False):
        pts = tuple(points)
        if not pts:
            raise Degenerate("an arc needs at least one point")
        _same_field("arc points", pts[0].spec, *[p.spec for p in pts])
        if not _trusted:
            ok, witness = is_arc(pts)
            if not ok:
                if len(witness) == 2:
                    raise EqualPoints(f"duplicate arc point {witness[0].to_text()}")
                raise Degenerate(
                    "three arc points are collinear: "
                    + " ".join(p.to_text() for p in witness)
                )
        self.points = tuple(sorted(pts, key=point_sort_key))
        self._frame = None

    @classmethod
    def _from_sorted(cls, points: tuple) -> "Arc":
        """An Arc of points already canonical, sorted and known to be an arc."""
        arc = cls.__new__(cls)
        arc.points = points
        arc._frame = None
        return arc

    def __getstate__(self):
        return self.points

    def __setstate__(self, points):
        self.points = points
        self._frame = None

    @property
    def spec(self) -> FieldSpec:
        return self.points[0].spec

    @property
    def size(self) -> int:
        return len(self.points)

    def is_oval(self) -> bool:
        return self.size == self.spec.q + 1

    def is_hyperoval(self) -> bool:
        return self.size == self.spec.q + 2

    def __contains__(self, p) -> bool:
        return p in self.points

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __eq__(self, other):
        if not isinstance(other, Arc):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(("arc", self.points))

    def to_text(self) -> str:
        return " ".join(p.to_text() for p in self.points)

    def __repr__(self):
        return f"Arc({self.size} points over GF({self.spec.q}))"


def tangent_lines(arc: Arc, p: ProjPoint) -> list:
    """Lines through an arc point meeting the arc only there, in ascending
    line index: the point's entry of one `Plane.tangents` call over the arc.

    An arc of size n has exactly q + 2 - n tangents at each of its points:
    of the q + 1 lines through p, the n - 1 secants to the other arc points
    are pairwise distinct because no line carries 3 arc points.
    """
    pl = plane(arc.spec)
    i, indices = pl.index(p), [pl.index(x) for x in arc.points]
    if i not in indices:
        raise PointNotOnArc(f"{p.to_text()} is not a point of the arc")
    return [pl.lines[li] for li in pl.tangents(indices)[indices.index(i)]]


def search_maximal_arcs(spec: FieldSpec, target_size: int, limit=None,
                        *, max_order: int = SEARCH_MAX_ORDER) -> list:
    """All arcs of exactly target_size, as Arc objects, in index-lex order.

    Exhaustive depth-first search over point indices; stops once `limit`
    arcs are found, so a limited search returns a prefix of the complete
    one.  A node holds the chosen points and the candidate mask of larger
    indices that keep them an arc.  Choosing candidate j removes from the
    remaining candidates every point on a secant through j, read off the
    secant rows of the chosen points: row i maps each index k to the mask
    of points off the line through i and k, and is built when i is first
    chosen.  A sibling loop stops once fewer candidates remain than points
    are needed, a child with too few candidates is never entered, and at
    the last point every candidate completes an arc and is emitted
    directly.  The default order cap keeps the exhaustive search
    affordable; raise `max_order` explicitly for a larger field.
    """
    if spec.q > max_order:
        raise BoundExceeded(
            f"arc search capped at q <= {max_order}, got q={spec.q}; "
            "pass a larger max_order to override"
        )
    if target_size < 1:
        raise Degenerate(f"target arc size must be positive, got {target_size}")
    if limit is not None and limit < 1:
        raise Degenerate(f"limit must be positive when given, got {limit}")

    pl = plane(spec)
    n, points = pl.n, pl.points
    line_masks, line_points, point_lines = pl.line_masks, pl.line_points, pl.point_lines
    full = (1 << n) - 1
    secant_rows = [None] * n
    results = []
    rows: list[list] = []   # secant rows of the chosen points
    head: list = []         # the chosen points

    def secant_row(i: int) -> list:
        row = secant_rows[i]
        if row is None:
            row = secant_rows[i] = [0] * n
            for li in point_lines[i]:
                off = full ^ line_masks[li]
                for k in line_points[li]:
                    row[k] = off
        return row

    def extend(cand: int, need: int) -> bool:
        # cand: the indices above the last chosen one that extend the chosen
        # points to a larger arc; need: how many more points the arc takes
        if need == 1:
            chosen = tuple(head)
            while cand:
                low = cand & -cand
                cand ^= low
                results.append(Arc._from_sorted(chosen + (points[low.bit_length() - 1],)))
                if len(results) == limit:
                    return True
            return False
        left = cand.bit_count()
        while left >= need:
            low = cand & -cand
            j = low.bit_length() - 1
            cand ^= low
            left -= 1
            nxt = cand
            for row in rows:
                nxt &= row[j]
            if nxt.bit_count() >= need - 1:
                rows.append(secant_row(j))
                head.append(points[j])
                stop = extend(nxt, need - 1)
                head.pop()
                rows.pop()
                if stop:
                    return True
        return False

    extend(full, target_size)
    return results
