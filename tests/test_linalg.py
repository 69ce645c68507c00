"""Exact matrix arithmetic, determinants, rank, and nullspaces."""

import itertools
import random

import pytest

from galoisplane.conic import Conic, gradient, line_conic_intersect, transform_conic
from galoisplane.errors import BadShape, Singular, SpecMismatch
from galoisplane.gf import FieldElement, make_field
from galoisplane.linalg import Mat, det3, inverse3, mat_vec, nullspace, rank
from galoisplane.pg2 import (
    Collineation,
    ProjLine,
    ProjPoint,
    collinear,
    frame_transform,
    incident,
)


def _random_mat(spec, rng, rows, cols):
    return Mat(
        spec, rows, cols,
        tuple(spec.from_int(rng.randrange(spec.q)) for _ in range(rows * cols)),
    )


def test_from_rows_and_accessors():
    spec = make_field(5)
    e = spec.element
    m = Mat.from_rows([[e(1), e(2), e(3)], [e(0), e(1), e(4)]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.at(0, 2) == e(3)
    assert m.row(1) == (e(0), e(1), e(4))
    assert m.col(1) == (e(2), e(1))
    assert m.transpose().at(2, 0) == e(3)
    assert m.transpose().transpose() == m


def test_ragged_rows_rejected():
    spec = make_field(5)
    e = spec.element
    with pytest.raises(BadShape):
        Mat.from_rows([[e(1), e(2)], [e(3)]])


def test_matmul_matches_by_hand():
    spec = make_field(7)
    e = spec.element
    a = Mat.from_rows([[e(1), e(2)], [e(3), e(4)]])
    b = Mat.from_rows([[e(5), e(6)], [e(0), e(1)]])
    ab = a @ b
    assert ab == Mat.from_rows([[e(5), e(1)], [e(1), e(1)]])


def test_matmul_associative_sampled():
    rng = random.Random(11)
    for spec in (make_field(5), make_field(2, 2)):
        for _ in range(50):
            a = _random_mat(spec, rng, 3, 3)
            b = _random_mat(spec, rng, 3, 3)
            c = _random_mat(spec, rng, 3, 3)
            assert (a @ b) @ c == a @ (b @ c)


def test_identity_and_diagonal():
    spec = make_field(5)
    e = spec.element
    i3 = Mat.identity(spec)
    d = Mat.diagonal((e(2), e(3), e(4)))
    assert i3 @ d == d
    assert d @ i3 == d
    assert det3(d) == e(2) * e(3) * e(4)


def test_det3_known_values():
    spec = make_field(7)
    e = spec.element
    m = Mat.from_rows([
        [e(1), e(2), e(3)],
        [e(4), e(5), e(6)],
        [e(0), e(1), e(2)],
    ])
    # 1*(10-6) - 2*(8-0) + 3*(4-0) = 0 mod 7
    assert det3(m) == spec.zero()
    assert det3(Mat.identity(spec)) == spec.one()


def test_det3_multiplicative_sampled():
    rng = random.Random(12)
    spec = make_field(11)
    for _ in range(100):
        a = _random_mat(spec, rng, 3, 3)
        b = _random_mat(spec, rng, 3, 3)
        assert det3(a @ b) == det3(a) * det3(b)


def test_inverse3_roundtrip_sampled():
    rng = random.Random(13)
    for spec in (make_field(5), make_field(3, 2)):
        i3 = Mat.identity(spec)
        found = 0
        while found < 40:
            m = _random_mat(spec, rng, 3, 3)
            if det3(m).is_zero():
                continue
            found += 1
            inv = inverse3(m)
            assert m @ inv == i3
            assert inv @ m == i3


def test_inverse3_singular_rejected():
    spec = make_field(5)
    e = spec.element
    # second row is twice the first
    m = Mat.from_rows([
        [e(1), e(2), e(3)],
        [e(2), e(4), e(1)],
        [e(0), e(1), e(2)],
    ])
    assert det3(m).is_zero()
    with pytest.raises(Singular):
        inverse3(m)


def test_shape_guards():
    spec = make_field(5)
    rng = random.Random(1)
    m23 = _random_mat(spec, rng, 2, 3)
    with pytest.raises(BadShape):
        det3(m23)
    with pytest.raises(BadShape):
        inverse3(m23)


def test_mat_vec():
    spec = make_field(7)
    e = spec.element
    m = Mat.from_rows([[e(1), e(0), e(2)], [e(0), e(1), e(3)]])
    v = (e(1), e(1), e(1))
    assert mat_vec(m, v) == (e(3), e(4))


def test_rank_and_nullspace_known():
    spec = make_field(5)
    e = spec.element
    # rank 2, nullity 1
    m = Mat.from_rows([
        [e(1), e(0), e(2)],
        [e(0), e(1), e(3)],
    ])
    assert rank(m) == 2
    ns = nullspace(m)
    assert len(ns) == 1
    v = ns[0]
    assert v[0] == spec.one()  # first nonzero normalized
    assert mat_vec(m, v) == (spec.zero(), spec.zero())


def test_nullspace_dimensions_sampled():
    rng = random.Random(14)
    spec = make_field(7)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        m = _random_mat(spec, rng, rows, 4)
        r = rank(m)
        ns = nullspace(m)
        assert r + len(ns) == 4  # rank-nullity
        zero = tuple(spec.zero() for _ in range(rows))
        for v in ns:
            assert mat_vec(m, v) == zero
            nz = [c for c in v if not c.is_zero()]
            assert nz and nz[0] == spec.one()


def test_zero_matrix_nullspace():
    spec = make_field(3)
    m = Mat(spec, 2, 3, tuple(spec.zero() for _ in range(6)))
    assert rank(m) == 0
    assert len(nullspace(m)) == 3


def _mat(spec, rows, cols, *codes):
    return Mat(spec, rows, cols, tuple(spec.from_int(c) for c in codes))


def test_mat_equality_and_hash_compare_the_field():
    f5, f7 = make_field(5), make_field(7)
    nine, nine_other = make_field(3, 2), make_field(3, 2, (2, 1, 1))
    a = _mat(f5, 2, 2, 1, 2, 3, 4)
    assert a == _mat(f5, 2, 2, 1, 2, 3, 4) and hash(a) == hash(_mat(f5, 2, 2, 1, 2, 3, 4))
    assert a.codes == _mat(f7, 2, 2, 1, 2, 3, 4).codes
    assert a != _mat(f7, 2, 2, 1, 2, 3, 4)
    assert _mat(nine, 1, 2, 1, 5) != _mat(nine_other, 1, 2, 1, 5)
    assert _mat(f5, 1, 4, 1, 2, 3, 4) != _mat(f5, 4, 1, 1, 2, 3, 4)


def test_mat_rejects_an_entry_from_another_field():
    f5, f7 = make_field(5), make_field(7)
    with pytest.raises(SpecMismatch):
        Mat(f5, 1, 2, (f5.one(), f7.one()))
    with pytest.raises(SpecMismatch):
        Mat(f5, 1, 1, (f7.one(),))
    with pytest.raises(SpecMismatch):
        Mat.from_rows([[f5.one(), f5.zero()], [f5.zero(), f7.one()]])


def test_matmul_rejects_mixed_fields():
    f5, f7 = make_field(5), make_field(7)
    with pytest.raises(SpecMismatch):
        Mat.identity(f5) @ Mat.identity(f7)
    with pytest.raises(SpecMismatch):
        Mat.identity(make_field(3, 2)) @ Mat.identity(make_field(3, 2, (2, 1, 1)))


def test_mat_vec_rejects_a_vector_from_another_field():
    f5, f7 = make_field(5), make_field(7)
    with pytest.raises(SpecMismatch):
        mat_vec(Mat.identity(f5), (f7.one(), f7.zero(), f7.zero()))
    with pytest.raises(SpecMismatch):
        mat_vec(Mat.identity(f5), (f5.one(), f7.zero(), f5.zero()))


def test_code_paths_reject_mixed_fields():
    """Collineations, frames and conic forms run on codes, so they check the
    field of their arguments themselves."""
    f5, f7 = make_field(5), make_field(7)
    t = Collineation.identity(f5)
    p7 = ProjPoint((f7.one(), f7.one(), f7.zero()))
    l7 = ProjLine((f7.one(), f7.one(), f7.zero()))
    e5 = [ProjPoint(tuple(f5.from_int(c) for c in v))
          for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    c5 = Conic(tuple(f5.from_int(c) for c in (0, 0, 0, 1, 1, 1)))
    with pytest.raises(SpecMismatch):
        t.apply(p7)
    with pytest.raises(SpecMismatch):
        t.apply_line(l7)
    with pytest.raises(SpecMismatch):
        frame_transform(*e5, p7)
    with pytest.raises(SpecMismatch):
        c5.evaluate(p7)
    with pytest.raises(SpecMismatch):
        gradient(c5, p7)
    with pytest.raises(SpecMismatch):
        line_conic_intersect(c5, l7)
    with pytest.raises(SpecMismatch):
        transform_conic(Collineation.identity(f7), c5)


def _ref_det(m):
    a, b, c, d, e, f, g, h, i = m.entries
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _ref_inverse(m):
    """Cofactor inverse, row major, on elements."""
    a, b, c, d, e, f, g, h, i = m.entries
    s = _ref_det(m).inv()
    cof = (
        e * i - f * h, c * h - b * i, b * f - c * e,
        f * g - d * i, a * i - c * g, c * d - a * f,
        d * h - e * g, b * g - a * h, a * e - b * d,
    )
    return tuple(s * x for x in cof)


def _ref_mat_vec(m, v):
    zero = m.spec.zero()
    return tuple(
        sum((m.at(i, t) * v[t] for t in range(m.cols)), zero) for i in range(m.rows)
    )


def _ref_matmul(x, y):
    """Row-major entries of x @ y, each a sum of element products."""
    zero = x.spec.zero()
    return tuple(
        sum((x.at(i, t) * y.at(t, j) for t in range(x.cols)), zero)
        for i in range(x.rows) for j in range(y.cols)
    )


def _ref_form(conic, p):
    a, b, c, d, e, f = conic.coeffs
    x, y, z = p.coords
    return a * x * x + b * y * y + c * z * z + d * x * y + e * x * z + f * y * z


@pytest.mark.parametrize("p, k", [(5, 1), (3, 2), (2, 3), (11, 2), (2, 10), (1031, 1)])
def test_code_kernel_matches_element_reference(p, k):
    """det3, inverse3, @ and mat_vec against element cofactor and sum
    references, on seeded random matrices with zeros mixed in, up to fields
    above the op-table cap (q = 512); then the transform_conic contract and
    Collineation round trips on sampled points."""
    spec = make_field(p, k)
    q = spec.q
    one, zero = spec.one(), spec.zero()
    rng = random.Random(5000 + q)

    def entry():
        return spec.from_int(rng.choice((0, 1, rng.randrange(q), rng.randrange(q))))

    def mat(rows, cols):
        return Mat(spec, rows, cols, tuple(entry() for _ in range(rows * cols)))

    seen = {True: 0, False: 0}
    for _ in range(40):
        m, n, r = mat(3, 3), mat(3, 3), mat(2, 3)
        assert det3(m) == _ref_det(m)
        assert (m @ n).entries == _ref_matmul(m, n)
        assert (r @ m).entries == _ref_matmul(r, m)
        v = tuple(entry() for _ in range(3))
        assert mat_vec(m, v) == _ref_mat_vec(m, v)
        assert mat_vec(r, v) == _ref_mat_vec(r, v)
        singular = det3(m).is_zero()
        seen[singular] += 1
        if singular:
            with pytest.raises(Singular):
                inverse3(m)
        else:
            assert inverse3(m).entries == _ref_inverse(m)
    # a third row that is a multiple of the first
    s = entry()
    row0 = (one, entry(), entry())
    dependent = Mat.from_rows([row0, (entry(), entry(), entry()), tuple(s * x for x in row0)])
    assert det3(dependent).is_zero()
    with pytest.raises(Singular):
        inverse3(dependent)
    assert seen[False]

    while True:
        m = mat(3, 3)
        if not det3(m).is_zero():
            break
    t = Collineation(m)
    # x*y + y*z + z*x holds (1, s, -s/(1 + s)) for every s != -1
    conic = Conic((zero, zero, zero, one, one, one))
    image = transform_conic(t, conic)
    on_conic = 0
    for _ in range(30):
        s = spec.from_int(rng.randrange(q))
        if not (one + s).is_zero():
            pt = ProjPoint((one, s, -(s / (one + s))))
            assert _ref_form(conic, pt).is_zero() and _ref_form(image, t.apply(pt)).is_zero()
            on_conic += 1
        other = ProjPoint((entry(), entry(), one))
        moved = t.apply(other)
        assert moved == ProjPoint(_ref_mat_vec(m, other.coords))
        assert _ref_form(conic, other).is_zero() == _ref_form(image, moved).is_zero()
        assert image.evaluate(moved) == _ref_form(image, moved)
        assert t.inverse().apply(moved) == other
        assert t.apply(t.inverse().apply(other)) == other
        line = ProjLine((entry(), one, entry()))
        assert t.inverse().apply_line(t.apply_line(line)) == line
        assert incident(other, line) == incident(moved, t.apply_line(line))
    assert on_conic
    assert transform_conic(t.inverse(), image) == conic


ELEMENT_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__", "inv")


@pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (2, 3), (2, 10)])
def test_linear_algebra_and_conic_forms_make_no_element_arithmetic(monkeypatch, p, k):
    """Mat, det3, inverse3, mat_vec, frame_transform, Collineation,
    transform_conic, Conic.evaluate and gradient work on codes only: with
    every FieldElement operation counted, they make none."""
    spec = make_field(p, k)
    e = spec.from_int
    rng = random.Random(spec.q)

    def point():
        return ProjPoint((e(1), e(rng.randrange(spec.q)), e(rng.randrange(spec.q))))

    while True:
        a, b, c, d = point(), point(), point(), point()
        if not any(collinear(*t) for t in itertools.combinations((a, b, c, d), 3)):
            break
    while True:
        m = Mat(spec, 3, 3, tuple(e(rng.randrange(spec.q)) for _ in range(9)))
        if not det3(m).is_zero():
            break
    conic = Conic(tuple(e(x) for x in (1, 0, 0, 0, 0, 1)))
    line = ProjLine((e(1), e(1), e(0)))
    calls = []

    def counting(name, original):
        def op(*args):
            calls.append(name)
            return original(*args)
        return op

    for name in ELEMENT_OPS:
        monkeypatch.setattr(FieldElement, name, counting(name, getattr(FieldElement, name)))
    spec.one() + spec.one()
    assert calls == ["__add__"]  # the counting is live
    calls.clear()

    t = frame_transform(a, b, c, d)
    for pt in (a, b, c, d):
        t.inverse().apply(t.apply(pt))
    t.apply_line(line)
    u = Collineation(m)
    u.inverse().apply_line(u.apply_line(line))
    (u @ t).apply(a)
    inverse3(m)
    det3(m)
    mat_vec(m, a.coords)
    m.transpose() @ m
    image = transform_conic(u, conic)
    image.evaluate(u.apply(a))
    conic.evaluate(b)
    line_conic_intersect(conic, line)
    if p != 2:
        gradient(conic, b)
    assert calls == []
