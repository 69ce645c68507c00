"""Exact dense linear algebra over a finite field.

Sizes here are tiny (2x3 and 3x3 for geometry, nx6 for conic fitting), so
everything is plain Gaussian elimination with deterministic pivoting: columns
are processed left to right and the pivot is the first row, in order, with a
nonzero entry.  Nullspace bases are normalized so each vector's first nonzero
entry is 1.
"""

from __future__ import annotations

from .errors import BadShape, Singular, SpecMismatch
from .gf import FieldElement, FieldSpec


class Mat:
    """Immutable row-major matrix of field elements."""

    __slots__ = ("spec", "rows", "cols", "entries")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries: tuple):
        if rows < 1 or cols < 1 or len(entries) != rows * cols:
            raise BadShape(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [tuple(r) for r in rows]
        if not rows or not rows[0]:
            raise BadShape("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise BadShape("ragged rows")
        flat = tuple(e for r in rows for e in r)
        spec = flat[0].spec
        for e in flat:
            if e.spec is not spec and e.spec != spec:
                raise SpecMismatch("matrix entries from different field specs")
        return cls(spec, len(rows), width, flat)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int = 3) -> "Mat":
        one, zero = spec.one(), spec.zero()
        return cls(spec, n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag) -> "Mat":
        diag = tuple(diag)
        spec = diag[0].spec
        zero = spec.zero()
        n = len(diag)
        return cls(spec, n, n, tuple(diag[i] if i == j else zero for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> FieldElement:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def transpose(self) -> "Mat":
        return Mat(
            self.spec,
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise BadShape(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                acc = self.spec.zero()
                for t in range(self.cols):
                    acc = acc + r[t] * other.at(t, j)
                out.append(acc)
        return Mat(self.spec, self.rows, other.cols, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        rows = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols} [{rows}])"


def mat_vec(m: Mat, v) -> tuple:
    """m @ v for a length-cols vector of elements."""
    v = tuple(v)
    if len(v) != m.cols:
        raise BadShape(f"vector length {len(v)} does not match {m.rows}x{m.cols}")
    out = []
    for i in range(m.rows):
        acc = m.spec.zero()
        r = m.row(i)
        for t in range(m.cols):
            acc = acc + r[t] * v[t]
        out.append(acc)
    return tuple(out)


def det3(m: Mat) -> FieldElement:
    """Cofactor-expansion determinant of a 3x3 matrix."""
    if m.rows != 3 or m.cols != 3:
        raise BadShape(f"det3 needs a 3x3 matrix, got {m.rows}x{m.cols}")
    a, b, c, d, e, f, g, h, i = m.entries
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse3(m: Mat) -> Mat:
    """Adjugate-over-determinant inverse of a 3x3 matrix."""
    if m.rows != 3 or m.cols != 3:
        raise BadShape(f"inverse3 needs a 3x3 matrix, got {m.rows}x{m.cols}")
    det = det3(m)
    if det.is_zero():
        raise Singular("matrix is singular")
    s = det.inv()
    a, b, c, d, e, f, g, h, i = m.entries
    cof = (
        e * i - f * h, c * h - b * i, b * f - c * e,
        f * g - d * i, a * i - c * g, c * d - a * f,
        d * h - e * g, b * g - a * h, a * e - b * d,
    )
    return Mat(m.spec, 3, 3, tuple(s * x for x in cof))


def _rref(m: Mat):
    """Reduced row echelon form; returns (rows as lists, pivot column list)."""
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    r = 0
    for j in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if not work[i][j].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv_p = work[r][j].inv()
        work[r] = [inv_p * x for x in work[r]]
        for i in range(m.rows):
            if i != r and not work[i][j].is_zero():
                factor = work[i][j]
                work[i] = [x - factor * y for x, y in zip(work[i], work[r])]
        pivots.append(j)
        r += 1
        if r == m.rows:
            break
    return work, pivots


def rank(m: Mat) -> int:
    return len(_rref(m)[1])


def nullspace(m: Mat) -> list[tuple]:
    """Basis of the right nullspace, free columns in ascending order.

    Each basis vector is normalized so its first nonzero entry is 1, which
    makes the output deterministic and directly usable as projective
    coordinates.
    """
    work, pivots = _rref(m)
    spec = m.spec
    zero, one = spec.zero(), spec.one()
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [zero] * m.cols
        vec[free] = one
        for r_i, p_col in enumerate(pivots):
            vec[p_col] = -work[r_i][free]
        # normalize first nonzero to 1
        for x in vec:
            if not x.is_zero():
                s = x.inv()
                vec = [s * y for y in vec]
                break
        basis.append(tuple(vec))
    return basis
