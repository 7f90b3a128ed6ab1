"""Dense complex matrices with sparse internal storage, and antilinear maps.

Matrices are the universal operator carrier (Dirac operators, gradings,
representation images, twist unitaries).  The external contract is that of a
dense rows x cols matrix; internally only nonzero entries are kept, because
every operator in this domain is permutation- or block-diagonal-sparse and
exact rational products would otherwise dominate the runtime.

Instances are immutable after construction; all operations are pure.
"""

from __future__ import annotations

from . import scalars
from .scalars import QI, as_scalar, conj, is_zero


class Matrix:
    """Complex matrix over QI (exact) or complex (float) scalars."""

    __slots__ = ("nrows", "ncols", "_e", "_byrow")

    def __init__(self, nrows: int, ncols: int, entries: dict | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimension")
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        cleaned = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if not _stored_zero(v):
                    cleaned[(i, j)] = v
        object.__setattr__(self, "_e", cleaned)
        object.__setattr__(self, "_byrow", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows, exact: bool = True) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                s = as_scalar(v, exact)
                if not _stored_zero(s):
                    entries[(i, j)] = s
        return cls(nrows, ncols, entries)

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None) -> "Matrix":
        return cls(nrows, nrows if ncols is None else ncols)

    @classmethod
    def identity(cls, n: int, exact: bool = True) -> "Matrix":
        one = as_scalar(1, exact)
        return cls(n, n, {(i, i): one for i in range(n)})

    @classmethod
    def diagonal(cls, values, exact: bool = True) -> "Matrix":
        vals = [as_scalar(v, exact) for v in values]
        n = len(vals)
        return cls(n, n, {(i, i): v for i, v in enumerate(vals) if not _stored_zero(v)})

    @classmethod
    def unit(cls, nrows: int, ncols: int, i: int, j: int, value=1, exact: bool = True) -> "Matrix":
        return cls(nrows, ncols, {(i, j): as_scalar(value, exact)})

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, items, exact: bool = True) -> "Matrix":
        entries = {}
        for i, j, v in items:
            s = as_scalar(v, exact)
            if (i, j) in entries:
                s = entries[(i, j)] + s
            entries[(i, j)] = s
        return cls(nrows, ncols, entries)

    # -- access ------------------------------------------------------------

    def get(self, i: int, j: int):
        """Entry (i, j); absent entries read as plain int 0."""
        return self._e.get((i, j), 0)

    def entries(self):
        """Iterator over nonzero ((i, j), value) pairs."""
        return self._e.items()

    def nnz(self) -> int:
        return len(self._e)

    def tolist(self) -> list:
        return [[self._e.get((i, j), 0) for j in range(self.ncols)] for i in range(self.nrows)]

    def _rows(self):
        by = object.__getattribute__(self, "_byrow")
        if by is None:
            by = {}
            for (i, j), v in self._e.items():
                by.setdefault(i, []).append((j, v))
            object.__setattr__(self, "_byrow", by)
        return by

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        entries = dict(self._e)
        for k, v in other._e.items():
            if k in entries:
                entries[k] = entries[k] + v
            else:
                entries[k] = v
        return Matrix(self.nrows, self.ncols, entries)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        entries = dict(self._e)
        for k, v in other._e.items():
            if k in entries:
                entries[k] = entries[k] - v
            else:
                entries[k] = -v
        return Matrix(self.nrows, self.ncols, entries)

    def __neg__(self) -> "Matrix":
        return Matrix(self.nrows, self.ncols, {k: -v for k, v in self._e.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        rows = other._rows()
        acc: dict = {}
        for (i, k), a in self._e.items():
            row = rows.get(k)
            if row is None:
                continue
            for j, b in row:
                key = (i, j)
                cur = acc.get(key)
                if cur is None:
                    acc[key] = a * b
                else:
                    acc[key] = cur + a * b
        return Matrix(self.nrows, other.ncols, acc)

    def scale(self, factor) -> "Matrix":
        """Multiply every entry by a scalar (real or complex)."""
        return Matrix(self.nrows, self.ncols, {k: v * factor for k, v in self._e.items()})

    def __rmul__(self, factor):
        if isinstance(factor, Matrix):
            return NotImplemented
        return self.scale(factor)

    def conj(self) -> "Matrix":
        return Matrix(self.nrows, self.ncols, {k: conj(v) for k, v in self._e.items()})

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows, {(j, i): v for (i, j), v in self._e.items()})

    def adjoint(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows, {(j, i): conj(v) for (i, j), v in self._e.items()})

    def trace(self):
        t = 0
        for (i, j), v in self._e.items():
            if i == j:
                t = t + v
        return t

    def kron(self, other: "Matrix") -> "Matrix":
        entries = {}
        for (i, j), a in self._e.items():
            for (k, l), b in other._e.items():
                entries[(i * other.nrows + k, j * other.ncols + l)] = a * b
        return Matrix(self.nrows * other.nrows, self.ncols * other.ncols, entries)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(is_zero(v) for v in self._e.values())

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return (self - other).is_zero()

    __hash__ = None

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_unitary(self) -> bool:
        return self.is_square() and (self @ self.adjoint() - Matrix.identity(self.nrows, self._exact())).is_zero()

    def max_abs(self) -> float:
        return max((scalars.abs_float(v) for v in self._e.values()), default=0.0)

    def _exact(self) -> bool:
        for v in self._e.values():
            return isinstance(v, QI)
        return True

    def _same_shape(self, other: "Matrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, nnz={len(self._e)})"


def _stored_zero(v) -> bool:
    # Only exact zeros are dropped from storage; float-mode near-zeros are
    # kept so that tolerance decisions happen in one place (scalars.is_zero).
    if isinstance(v, QI):
        return not v
    return v == 0


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def sign_relation(left: Matrix, right: Matrix):
    """(s, 0.0) when left = s * right for s = +1 (tried first) or -1, else
    (None, min(max|left - right|, max|left + right|)), the distance to the
    nearer sign.  Both signs hold exactly when left is zero."""
    diff = left - right
    if diff.is_zero():
        return 1, 0.0
    total = left + right
    if total.is_zero():
        return -1, 0.0
    return None, min(diff.max_abs(), total.max_abs())


def support_union(mats) -> list:
    """Sorted list of positions where any of the matrices is nonzero."""
    positions = set()
    for m in mats:
        positions.update(k for k, _ in m.entries())
    return sorted(positions)


def real_vector(m: Matrix, positions) -> tuple:
    """Flatten a matrix over given positions into (re, im) real coordinates."""
    out = []
    for pos in positions:
        v = m._e.get(pos, 0)
        out.append(scalars.real_part(v))
        out.append(scalars.imag_part(v))
    return tuple(out)


class Antilinear:
    """Antilinear operator J: v -> U @ conj(v), with U unitary.

    The (U, entrywise conjugation) normal form is mandatory: it makes
    composition with linear operators total and testable.  Composing with a
    linear map A gives the linear map J A J^{-1} = U conj(A) U*.
    """

    __slots__ = ("U",)

    def __init__(self, U: Matrix, check: bool = True):
        if not U.is_square():
            raise ValueError("antilinear operator needs a square unitary")
        if check and not U.is_unitary():
            raise ValueError("U is not unitary")
        object.__setattr__(self, "U", U)

    def __setattr__(self, name, value):
        raise AttributeError("Antilinear is immutable")

    @property
    def dim(self) -> int:
        return self.U.nrows

    def conjugate_operator(self, a: Matrix) -> Matrix:
        """J a J^{-1} for a linear operator a on the same space."""
        if a.nrows != self.dim or a.ncols != self.dim:
            raise ValueError("dimension mismatch with antilinear operator")
        return self.U @ a.conj() @ self.U.adjoint()

    def squared(self) -> Matrix:
        """J^2 as a linear operator: U conj(U)."""
        return self.U @ self.U.conj()

    def square_sign(self) -> int | None:
        """+1 or -1 when J^2 = +-I, else None."""
        return sign_relation(self.squared(), Matrix.identity(self.dim, self.U._exact()))[0]

    def __eq__(self, other):
        if not isinstance(other, Antilinear):
            return NotImplemented
        return self.U == other.U

    __hash__ = None

    def __repr__(self):
        return f"Antilinear(dim={self.dim})"
