"""Exact dense linear algebra over a finite field.

A matrix holds its field spec and its entries' codes, row major; `entries`,
`at`, `row` and `col` are views of them as field elements.  This module owns
code vector arithmetic (dot and cross products, scaling) on the field's
log/antilog/Zech kernel (Lidl & Niederreiter, Finite Fields, section 10.3),
which serves every field order: `det3` is r0 . (r1 x r2), `inverse3` scales
the row cross products by 1/det, `@` and `mat_vec` are dot products, and each
raises SpecMismatch for inputs over different fields itself.

Sizes here are tiny (2x3 and 3x3 for geometry, nx6 for conic fitting), so
row reduction is plain Gaussian elimination, deterministically pivoted: columns
are processed left to right and the pivot is the first row, in order, with a
nonzero entry.  Nullspace bases are normalized so each vector's first nonzero
entry is 1.  `_rref` does element arithmetic on the `row` views, so only the
public `nullspace` and `rank`, and `pg2.join` and `pg2.meet` through
`nullspace`, still row-reduce elements.  The certify path takes cross and
dot products instead; of the library's routines only `segre.desargues_axis`
calls `join` and `meet`.  They stay so because perfbench's tracer test pins
one `join` to one `nullspace` call that makes element operations; row
reduction moves to codes, and `join` and `meet` to cross products, once that
test is re-pointed.
"""

from __future__ import annotations

from itertools import chain

from .errors import BadShape, Singular, SpecMismatch
from .gf import FieldElement, FieldSpec


def _same_field(noun: str, spec: FieldSpec, *specs) -> None:
    """Raise SpecMismatch, worded by `noun`, unless each of `specs` is `spec`."""
    for s in specs:
        if s is not spec and s != spec:
            raise SpecMismatch(f"{noun} from different field specs")


def _codes(spec: FieldSpec, elems, noun: str = "matrix entries") -> tuple:
    """The codes of field elements over `spec`; SpecMismatch for any other field."""
    _same_field(noun, spec, *[e.spec for e in elems])
    return tuple([e.code for e in elems])


def _elements(spec: FieldSpec, codes) -> tuple:
    """The field elements with the given codes: the views of code tuples."""
    elems = spec.elements()
    return tuple([elems[c] for c in codes])


def _log_sum(kernel, logs) -> int:
    """Code of the sum of g^t over the logs t, by __add__'s Zech step per term."""
    antilog, _, zech, _ = kernel
    n = len(zech)
    acc = -1  # log of the partial sum; -1 while it is zero
    for t in logs:
        if acc < 0:
            acc = t
        else:
            z = zech[(t - acc) % n]
            acc = acc + z if z >= 0 else -1
    return antilog[acc % n] if acc >= 0 else 0


def _dot(spec: FieldSpec, u, v) -> int:
    """Code of the dot product of two code vectors; products are log sums."""
    kernel = spec._kernel or spec._build_kernel()
    log = kernel[1]
    return _log_sum(kernel, [log[a] + log[b] for a, b in zip(u, v) if a and b])


def _cross(spec: FieldSpec, u, v) -> tuple:
    """Code triple of the cross product u x v of two code triples."""
    kernel = spec._kernel or spec._build_kernel()
    log, log_m1 = kernel[1], kernel[3]
    out = []
    for i, j in ((1, 2), (2, 0), (0, 1)):
        # u_i v_j - u_j v_i, the minus a factor g^log(-1)
        logs = [log[u[i]] + log[v[j]]] if u[i] and v[j] else []
        if u[j] and v[i]:
            logs.append(log[u[j]] + log[v[i]] + log_m1)
        out.append(_log_sum(kernel, logs))
    return tuple(out)


def _scale(spec: FieldSpec, v, s: int) -> tuple:
    """Codes of s times each entry of the code vector v."""
    if not s:
        return (0,) * len(v)
    antilog, log, _, _ = spec._kernel or spec._build_kernel()
    ls = log[s]
    return tuple([antilog[log[x] + ls] if x else 0 for x in v])


def _inv(spec: FieldSpec, s: int) -> int:
    """Code of 1/s for a nonzero code s, g^(q-1-log(s)) as in FieldElement.inv."""
    antilog, log, zech, _ = spec._kernel or spec._build_kernel()
    return antilog[len(zech) - log[s]]


class Mat:
    """Immutable row-major matrix held as codes; equal codes over two fields differ."""

    __slots__ = ("spec", "rows", "cols", "codes")

    def __init__(self, spec: FieldSpec, rows: int, cols: int, entries: tuple):
        if rows < 1 or cols < 1 or len(entries) != rows * cols:
            raise BadShape(f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self.codes = _codes(spec, entries)

    @classmethod
    def _of(cls, spec: FieldSpec, rows: int, cols: int, codes: tuple) -> "Mat":
        """The matrix of a row-major code tuple of length rows*cols; no checks."""
        m = cls.__new__(cls)
        m.spec, m.rows, m.cols, m.codes = spec, rows, cols, codes
        return m

    @classmethod
    def from_rows(cls, rows) -> "Mat":
        rows = [tuple(r) for r in rows]
        if not rows or not rows[0]:
            raise BadShape("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise BadShape("ragged rows")
        flat = tuple(e for r in rows for e in r)
        return cls(flat[0].spec, len(rows), width, flat)

    @classmethod
    def identity(cls, spec: FieldSpec, n: int = 3) -> "Mat":
        return cls._of(spec, n, n, tuple(int(i == j) for i in range(n) for j in range(n)))

    @classmethod
    def diagonal(cls, diag) -> "Mat":
        diag = tuple(diag)
        spec = diag[0].spec
        zero = spec.zero()
        n = len(diag)
        return cls(spec, n, n, tuple(diag[i] if i == j else zero for i in range(n) for j in range(n)))

    entries = property(lambda m: _elements(m.spec, m.codes), doc="The entries, as elements.")

    def at(self, i: int, j: int) -> FieldElement:
        return self.spec.elements()[self.codes[i * self.cols + j]]

    def row(self, i: int) -> tuple:
        return _elements(self.spec, self.codes[i * self.cols:(i + 1) * self.cols])

    def col(self, j: int) -> tuple:
        return _elements(self.spec, self.codes[j::self.cols])

    def transpose(self) -> "Mat":
        codes, cols = self.codes, self.cols
        return Mat._of(
            self.spec,
            cols,
            self.rows,
            tuple(chain.from_iterable(codes[j::cols] for j in range(cols))),
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise BadShape(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        spec = self.spec
        _same_field("matrices", spec, other.spec)
        columns = [other.codes[j::other.cols] for j in range(other.cols)]
        return Mat._of(spec, self.rows, other.cols, tuple(
            _dot(spec, r, c) for r in _rows(self) for c in columns
        ))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols, self.codes) == (other.rows, other.cols, other.codes) and (
            other.spec is self.spec or other.spec == self.spec
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.codes))

    def __repr__(self):
        rows = "; ".join(" ".join(map(str, r)) for r in _rows(self))
        return f"Mat({self.rows}x{self.cols} [{rows}])"


def _rows(m: Mat) -> list:
    """The rows of m as code tuples."""
    codes, n = m.codes, m.cols
    return [codes[i:i + n] for i in range(0, len(codes), n)]


def _mat_vec(m: Mat, v) -> tuple:
    """Codes of m @ v for a code vector v of length m.cols."""
    spec = m.spec
    return tuple([_dot(spec, r, v) for r in _rows(m)])


def mat_vec(m: Mat, v) -> tuple:
    """m @ v for a length-cols vector of elements."""
    v = tuple(v)
    if len(v) != m.cols:
        raise BadShape(f"vector length {len(v)} does not match {m.rows}x{m.cols}")
    return _elements(m.spec, _mat_vec(m, _codes(m.spec, v, "matrix and vector")))


def det3(m: Mat) -> FieldElement:
    """Determinant of a 3x3 matrix, r0 . (r1 x r2) on the codes of its rows."""
    if m.rows != 3 or m.cols != 3:
        raise BadShape(f"det3 needs a 3x3 matrix, got {m.rows}x{m.cols}")
    spec = m.spec
    r0, r1, r2 = _rows(m)
    return FieldElement(spec, _dot(spec, r0, _cross(spec, r1, r2)))


def inverse3(m: Mat) -> Mat:
    """Adjugate-over-determinant inverse of a 3x3 matrix: the adjugate's
    columns are r1 x r2, r2 x r0 and r0 x r1, as r_i . (r_j x r_k) is det for
    (i, j, k) in cyclic order and 0 when i repeats j or k."""
    if m.rows != 3 or m.cols != 3:
        raise BadShape(f"inverse3 needs a 3x3 matrix, got {m.rows}x{m.cols}")
    spec = m.spec
    r0, r1, r2 = _rows(m)
    adj_cols = (_cross(spec, r1, r2), _cross(spec, r2, r0), _cross(spec, r0, r1))
    det = _dot(spec, r0, adj_cols[0])
    if not det:
        raise Singular("matrix is singular")
    adj = tuple(chain.from_iterable(zip(*adj_cols)))
    return Mat._of(spec, 3, 3, _scale(spec, adj, _inv(spec, det)))


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
