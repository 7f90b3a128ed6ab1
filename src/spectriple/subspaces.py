"""Real-linear subspace computations: nullspace, span, intersection.

Everything here operates on real coordinate vectors (entries are exact
rationals or floats), dense sequences or sparse dicts coordinate -> value.

real_nullspace solves constraint rows.  kernel is the one route from column
images (commutants, pullbacks, intersections, the algebra center) to the
coefficients c with sum_i c_i columns_i = 0: it transposes the columns into
rows, in increasing coordinate order, and hands them to real_nullspace.

The elimination keeps rows sparse (dict col -> value): constraint systems in
this domain have a handful of nonzeros per row, and the reduced echelon form
stays sparse as well.  Rank decisions in float mode use the global tolerance
scaled by the row magnitude at insertion time; in exact mode they are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scalars


def _items(vec):
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def _row_to_dict(row) -> dict:
    return {j: v for j, v in _items(row) if v != 0}


def _negated(vec) -> dict:
    return {j: -v for j, v in _items(vec)}


class Echelon:
    """Incremental reduced row echelon form over the reals."""

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, dict] = {}  # pivot column -> normalized row
        self.inexact = False  # set once any float row enters

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _threshold(self, row: dict) -> float:
        scale = max((scalars.abs_float(v) for v in row.values()), default=0.0)
        return scalars.get_tolerance() * max(1.0, scale)

    def reduce(self, row) -> dict:
        """Return the residue of a row after elimination by current pivots.

        Pivot rows carry no entries at other pivot columns (the form is kept
        fully reduced), so eliminating each pivot column present in the row
        once is a complete reduction.
        """
        row = _row_to_dict(row)
        if row and max(row) >= self.width:
            raise ValueError("row wider than the echelon")
        exact = not self.inexact and all(scalars.is_exact(v) for v in row.values())
        tol = 0.0 if exact else self._threshold(row)
        for hit in sorted(set(row) & set(self.pivots)):
            c = row.pop(hit)
            if not exact and scalars.abs_float(c) <= tol:
                continue
            for j, v in self.pivots[hit].items():
                if j == hit:
                    continue
                cur = row.get(j, 0) - c * v
                if cur == 0:
                    row.pop(j, None)
                else:
                    row[j] = cur
        if not exact:
            for j in [j for j, v in row.items() if scalars.abs_float(v) <= tol]:
                del row[j]
        return row

    def add(self, row) -> bool:
        """Insert a row; returns True when it increases the rank."""
        residue = self.reduce(row)
        if not residue:
            return False
        if not all(scalars.is_exact(v) for v in residue.values()):
            self.inexact = True
        lead = min(residue)
        inv = residue[lead]
        normalized = {j: scalars.div(v, inv) for j, v in residue.items()}
        # keep the form reduced: clear the new pivot column from earlier rows
        for prow in self.pivots.values():
            c = prow.pop(lead, None)
            if c is None or c == 0:
                continue
            for j, v in normalized.items():
                if j == lead:
                    continue
                cur = prow.get(j, 0) - c * v
                if cur == 0:
                    prow.pop(j, None)
                else:
                    prow[j] = cur
        self.pivots[lead] = normalized
        return True

    def contains(self, row) -> bool:
        residue = self.reduce(row)
        if not residue:
            return True
        if not self.inexact and all(scalars.is_exact(v) for v in residue.values()):
            return False
        return all(scalars.abs_float(v) <= self._threshold(residue) for v in residue.values())

    def nullspace(self) -> list[tuple]:
        """Basis of the solution space of all inserted rows."""
        pivot_cols = set(self.pivots)
        basis = []
        one = 1
        for f in range(self.width):
            if f in pivot_cols:
                continue
            vec = [0] * self.width
            vec[f] = one
            for p, prow in self.pivots.items():
                c = prow.get(f)
                if c is not None:
                    vec[p] = -c
            basis.append(tuple(vec))
        return basis


def real_nullspace(rows, width: int) -> "RealSubspaceBasis":
    """Basis of {x in R^width : L x = 0} for L given as an iterable of rows.

    Duplicate rows are skipped cheaply; an empty row list yields the full
    space.  Exact in exact mode; tolerance-thresholded in float mode.
    """
    ech = Echelon(width)
    seen = set()
    for row in rows:
        d = _row_to_dict(row)
        if not d:
            continue
        key = tuple(sorted(d.items()))
        if key in seen:
            continue
        seen.add(key)
        ech.add(d)
    return RealSubspaceBasis(width, tuple(ech.nullspace()))


def kernel(columns) -> "RealSubspaceBasis":
    """Basis of {c : sum_i c_i columns_i = 0}, one coefficient per column.

    Coordinates where every column vanishes give no row.
    """
    columns = list(columns)
    rows: dict = {}
    for i, col in enumerate(columns):
        for k, v in _items(col):
            if v != 0:
                rows.setdefault(k, {})[i] = v
    return real_nullspace((rows[k] for k in sorted(rows)), len(columns))


@dataclass(frozen=True)
class RealSubspaceBasis:
    """A list of linearly independent real vectors spanning a subspace."""

    ambient: int
    vectors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for v in self.vectors:
            if len(v) != self.ambient:
                raise ValueError("basis vector has wrong ambient dimension")

    @classmethod
    def spanned_by(cls, ambient: int, vectors) -> "RealSubspaceBasis":
        """Filter a generating family down to an independent subfamily."""
        ech = Echelon(ambient)
        kept = []
        for v in vectors:
            if ech.add(v):
                kept.append(tuple(v))
        return cls(ambient, tuple(kept))

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def echelon(self) -> Echelon:
        ech = Echelon(self.ambient)
        for v in self.vectors:
            ech.add(v)
        return ech

    def contains(self, vector) -> bool:
        return self.echelon().contains(vector)

    def contains_all(self, other: "RealSubspaceBasis") -> bool:
        ech = self.echelon()
        return all(ech.contains(v) for v in other.vectors)

    def equals(self, other: "RealSubspaceBasis") -> bool:
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        return self.contains_all(other)


def subspace_sum_dim(b1: RealSubspaceBasis, b2: RealSubspaceBasis) -> int:
    if b1.ambient != b2.ambient:
        raise ValueError("ambient dimension mismatch")
    ech = b1.echelon()
    for v in b2.vectors:
        ech.add(v)
    return ech.rank


def intersect_coefficients(b1: RealSubspaceBasis, b2: RealSubspaceBasis) -> list[tuple]:
    """Pairs (x, y) with sum_i x_i u_i = sum_j y_j v_j, spanning all solutions:
    the kernel of the columns [U | -V]."""
    if b1.ambient != b2.ambient:
        raise ValueError("ambient dimension mismatch")
    sols = kernel(list(b1.vectors) + [_negated(v) for v in b2.vectors])
    return [(s[:b1.dim], s[b1.dim:]) for s in sols.vectors]


def subspace_intersect(b1: RealSubspaceBasis, b2: RealSubspaceBasis) -> RealSubspaceBasis:
    """Basis of span(b1) n span(b2)."""
    vectors = [tuple(sum((c * u[k] for c, u in zip(x, b1.vectors)), 0) for k in range(b1.ambient))
               for x, _ in intersect_coefficients(b1, b2)]
    return RealSubspaceBasis.spanned_by(b1.ambient, vectors)


def solve_real_linear(columns, target):
    """Coefficients c with sum_i c_i columns_i = target, or None.

    Solved as the kernel of [columns | -target], normalized to weight 1 on
    the target; when the columns are independent the result is unique.
    """
    r = len(columns)
    for s in kernel(list(columns) + [_negated(target)]).vectors:
        t = s[r]
        if not scalars.is_zero(t):
            return tuple(scalars.div(c, t) for c in s[:r])
    return None
