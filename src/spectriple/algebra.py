"""Structured real *-algebras: direct sums of matrix blocks over R, C, H.

An algebra is an ordered list of block kinds; an element is a real
coordinate vector laid out summand by summand, each block row-major by
entry, each entry as 1, 2 or 4 real coordinates: x0 (R), x0 + x1 i (C),
x0 + x1 i + x2 j + x3 k (H).

Element operations act on these coordinates directly.  The involution x*
and the entrywise conjugation conj(x) are signed coordinate permutations,
tabulated once per block kind.  Products multiply n x n matrices whose
entries are real numbers, complex numbers, or quaternions written as pairs
of complex numbers p = x0 + i x1, q = x2 + i x3 with
    (p, q)(r, t) = (p r - q conj(t), p t + q conj(r)),
which is the product in the 2x2 complex embedding
    x0 + x1 i + x2 j + x3 k  ->  [[p, q], [-conj(q), conj(p)]].
Only Representation.from_plan, which places block entries on Hilbert
slots, builds those dense complex blocks (AlgebraElement.blocks()).

Products are summand-local: basis elements of different summands multiply
to zero, so an element product only forms the blocks where both factors are
nonzero, and single-block basis products come from a memoized table.

Representations embed coordinate vectors real-linearly into operators; they
are validated eagerly at construction (star-compatibility on basis elements,
multiplicativity on basis pairs), because every downstream theorem check
assumes it is acting through an actual *-homomorphism.  Every basis pair is
checked exactly: a cross-summand pair as pi(e_k) pi(e_l) = 0, a same-summand
pair against the image of the tabulated product e_k e_l.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

from . import scalars
from .matrices import Matrix, _stored_zero, real_coords
from .scalars import QI, conj, is_zero
from .subspaces import Echelon, RealSubspaceBasis, kernel, solve_real_linear

# real coordinates per matrix entry of each block family
_PER_ENTRY = {"R": 1, "C": 2, "H": 4}


@dataclass(frozen=True)
class BlockKind:
    """One matrix block: n x n matrices over R, C or the quaternions."""

    family: str
    n: int = 1

    def __post_init__(self):
        if self.family not in _PER_ENTRY:
            raise ValueError(f"unknown block family {self.family!r}")
        if self.n < 1:
            raise ValueError("block size must be positive")

    @property
    def per_entry(self) -> int:
        return _PER_ENTRY[self.family]

    @cached_property
    def real_dim(self) -> int:
        return self.per_entry * self.n * self.n

    @property
    def matrix_dim(self) -> int:
        """Size of the complex matrix realizing one block element."""
        return 2 * self.n if self.family == "H" else self.n

    def label(self) -> str:
        return self.family if self.n == 1 else f"M{self.n}({self.family})"


def parse_kind(label: str) -> BlockKind:
    label = label.strip()
    if label in _PER_ENTRY:
        return BlockKind(label)
    if label.startswith("M") and label.endswith(")") and "(" in label:
        size, family = label[1:-1].split("(")
        return BlockKind(family.strip(), int(size))
    raise ValueError(f"cannot parse block kind {label!r}")


@dataclass(frozen=True)
class AlgebraSpec:
    summands: tuple

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))

    @cached_property
    def slices(self) -> tuple:
        """The coordinate slice of each summand."""
        out, pos = [], 0
        for k in self.summands:
            out.append(slice(pos, pos + k.real_dim))
            pos += k.real_dim
        return tuple(out)

    @cached_property
    def real_dimension(self) -> int:
        return self.slices[-1].stop if self.summands else 0

    def offsets(self) -> list[int]:
        return [s.start for s in self.slices]

    def doubled(self) -> "AlgebraSpec":
        return AlgebraSpec(self.summands + self.summands)

    def labels(self) -> list[str]:
        return [k.label() for k in self.summands]

    def __len__(self):
        return len(self.summands)


# -- block operations on real coordinates ------------------------------------


def _block_from_coords(kind: BlockKind, coords, exact: bool):
    n = kind.n
    mk = (lambda re, im: QI(re, im)) if exact else (lambda re, im: complex(re, im))
    if kind.family == "R":
        return [[mk(coords[i * n + j], 0) for j in range(n)] for i in range(n)]
    if kind.family == "C":
        return [[mk(coords[2 * (i * n + j)], coords[2 * (i * n + j) + 1]) for j in range(n)] for i in range(n)]
    out = [[None] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            x0, x1, x2, x3 = coords[4 * (i * n + j): 4 * (i * n + j) + 4]
            a, b = mk(x0, x1), mk(x2, x3)
            out[2 * i][2 * j] = a
            out[2 * i][2 * j + 1] = b
            out[2 * i + 1][2 * j] = -conj(b)
            out[2 * i + 1][2 * j + 1] = conj(a)
    return out


# Signs of one entry's coordinates under x -> x* (entry conjugate) and under
# x -> conj(x) (conjugate in the 2x2 embedding: conj(p), conj(q) for H).
_STAR_SIGNS = {"R": (False,), "C": (False, True), "H": (False, True, True, True)}
_CONJ_SIGNS = {"R": (False,), "C": (False, True), "H": (False, True, False, True)}


@lru_cache(maxsize=None)
def _star_table(kind: BlockKind) -> tuple:
    """(source coordinate, negate) for each coordinate of x* on one block."""
    n, per, signs = kind.n, kind.per_entry, _STAR_SIGNS[kind.family]
    return tuple((per * (j * n + i) + c, neg)
                 for i in range(n) for j in range(n) for c, neg in enumerate(signs))


@lru_cache(maxsize=None)
def _conj_table(kind: BlockKind) -> tuple:
    """(source coordinate, negate) for each coordinate of conj(x) on one block."""
    signs = _CONJ_SIGNS[kind.family]
    return tuple((c, signs[c % kind.per_entry]) for c in range(kind.real_dim))


def _permute(block, table) -> list:
    return [-block[s] if neg else block[s] for s, neg in table]


def conj_block(kind: BlockKind, block) -> list:
    """Coordinates of the entrywise conjugate of one block of this kind."""
    return _permute(block, _conj_table(kind))


# The products below add their terms in the order of the dense complex
# matrix product of the blocks, starting from 0, so that float results are
# bit-identical to it; exact results are put in scalars' normal form.


def _r_product(n, x, y) -> list:
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = acc + x[i * n + k] * y[k * n + j]
            out.append(acc)
    return out


def _c_product(n, x, y) -> list:
    out = []
    for i in range(n):
        for j in range(n):
            re = im = 0
            for k in range(n):
                a = 2 * (i * n + k)
                b = 2 * (k * n + j)
                a0, a1, b0, b1 = x[a], x[a + 1], y[b], y[b + 1]
                re = re + (a0 * b0 - a1 * b1)
                im = im + (a0 * b1 + a1 * b0)
            out += (re, im)
    return out


def _h_product(n, x, y) -> list:
    out = []
    for i in range(n):
        for j in range(n):
            u0 = u1 = v0 = v1 = 0
            for k in range(n):
                a0, a1, a2, a3 = x[4 * (i * n + k): 4 * (i * n + k) + 4]
                b0, b1, b2, b3 = y[4 * (k * n + j): 4 * (k * n + j) + 4]
                # p r, then q (-conj t)
                u0 = u0 + (a0 * b0 - a1 * b1)
                u1 = u1 + (a0 * b1 + a1 * b0)
                u0 = u0 + (a2 * -b2 - a3 * b3)
                u1 = u1 + (a2 * b3 + a3 * -b2)
                # p t, then q conj(r)
                v0 = v0 + (a0 * b2 - a1 * b3)
                v1 = v1 + (a0 * b3 + a1 * b2)
                v0 = v0 + (a2 * b0 - a3 * -b1)
                v1 = v1 + (a2 * -b1 + a3 * b0)
            out += (u0, u1, v0, v1)
    return out


_PRODUCTS = {"R": _r_product, "C": _c_product, "H": _h_product}


def _block_product(kind: BlockKind, x, y, exact: bool) -> list:
    """Coordinates of the product of two blocks of one kind."""
    out = _PRODUCTS[kind.family](kind.n, x, y)
    if exact:
        return [c if type(c) is int else scalars._normal(c) for c in out]
    return out


@lru_cache(maxsize=None)
def _block_basis_products(kind: BlockKind, exact: bool) -> tuple:
    """Coordinates of e_i e_j for the basis of one block: table[i][j]."""
    basis = [e.coords for e in basis_elements(AlgebraSpec((kind,)), exact)]
    return tuple(tuple(tuple(_block_product(kind, a, b, exact)) for b in basis) for a in basis)


@dataclass(frozen=True)
class AlgebraElement:
    spec: AlgebraSpec
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.spec.real_dimension:
            raise ValueError("coordinate vector has wrong length")

    def _exact(self) -> bool:
        # one mode per element: read its first coordinate
        return not self.coords or scalars.is_exact(self.coords[0])

    def blocks(self) -> list:
        """Dense complex blocks, quaternions through their 2x2 embedding."""
        exact = self._exact()
        return [_block_from_coords(k, self.coords[sl], exact)
                for k, sl in zip(self.spec.summands, self.spec.slices)]

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_spec(other)
        return AlgebraElement(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_spec(other)
        return AlgebraElement(self.spec, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.spec, tuple(-a for a in self.coords))

    def scale(self, factor) -> "AlgebraElement":
        """Multiply by a real scalar."""
        return AlgebraElement(self.spec, tuple(factor * a for a in self.coords))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Blockwise product; C blocks commute, H and M_n(C) need not.

        A summand where either factor vanishes is zero in the product and is
        not multiplied.
        """
        self._same_spec(other)
        exact = self._exact() and other._exact()
        zero = scalars.RATIONAL_ZERO if exact else 0.0
        coords = []
        for kind, sl in zip(self.spec.summands, self.spec.slices):
            xa, xb = self.coords[sl], other.coords[sl]
            if any(xa) and any(xb):
                coords.extend(_block_product(kind, xa, xb, exact))
            else:
                coords.extend((zero,) * kind.real_dim)
        return AlgebraElement(self.spec, tuple(coords))

    def star(self) -> "AlgebraElement":
        """The involution: blockwise conjugate transpose."""
        return self._permuted(_star_table)

    def conj(self) -> "AlgebraElement":
        """Blockwise entrywise conjugation (a real-linear automorphism)."""
        return self._permuted(_conj_table)

    def _permuted(self, table) -> "AlgebraElement":
        return AlgebraElement(self.spec, tuple(chain.from_iterable(
            _permute(self.coords[sl], table(k)) for k, sl in zip(self.spec.summands, self.spec.slices))))

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.spec == other.spec and (self - other).is_zero()

    __hash__ = None

    def _same_spec(self, other):
        if self.spec != other.spec:
            raise ValueError("algebra spec mismatch")


def zero_element(spec: AlgebraSpec, exact: bool = True) -> AlgebraElement:
    z = scalars.RATIONAL_ZERO if exact else 0.0
    return AlgebraElement(spec, (z,) * spec.real_dimension)


def identity_element(spec: AlgebraSpec, exact: bool = True) -> AlgebraElement:
    one = scalars.RATIONAL_ONE if exact else 1.0
    zero = scalars.RATIONAL_ZERO if exact else 0.0
    coords = []
    for kind in spec.summands:
        for i in range(kind.n):
            for j in range(kind.n):
                coords.append(one if i == j else zero)
                coords.extend((zero,) * (kind.per_entry - 1))
    return AlgebraElement(spec, tuple(coords))


def basis_element(spec: AlgebraSpec, k: int, exact: bool = True) -> AlgebraElement:
    one = scalars.RATIONAL_ONE if exact else 1.0
    zero = scalars.RATIONAL_ZERO if exact else 0.0
    coords = [zero] * spec.real_dimension
    coords[k] = one
    return AlgebraElement(spec, tuple(coords))


def basis_elements(spec: AlgebraSpec, exact: bool = True) -> list[AlgebraElement]:
    return [basis_element(spec, k, exact) for k in range(spec.real_dimension)]


def random_element(spec: AlgebraSpec, rng, exact: bool = True, span: int = 3) -> AlgebraElement:
    if exact:
        coords = tuple(
            scalars.rational(rng.randint(-span, span), rng.randint(1, span))
            for _ in range(spec.real_dimension)
        )
    else:
        coords = tuple(rng.uniform(-span, span) for _ in range(spec.real_dimension))
    return AlgebraElement(spec, coords)


def center_basis(spec: AlgebraSpec, exact: bool = True) -> RealSubspaceBasis:
    """Basis of {x : x e_k = e_k x for all basis elements e_k}."""
    basis = basis_elements(spec, exact)
    return kernel([tuple(chain.from_iterable((e_j * e_k - e_k * e_j).coords for e_k in basis))
                   for e_j in basis])


# -- representations ---------------------------------------------------------


@dataclass(frozen=True)
class Placement:
    """One block action: which Hilbert slots a summand's entries land on.

    The block element B of summand `summand` (or its entrywise conjugate when
    `conj` is set, e.g. conjugate-component slots) contributes B[r][c] at
    position (rows[r], cols[c]).
    """

    summand: int
    rows: tuple
    cols: tuple
    conj: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))


class RepresentationError(ValueError):
    pass


class Representation:
    """Real-linear embedding of an algebra into operators on C^dim."""

    __slots__ = ("spec", "dim", "basis_matrices", "plan", "_injective")

    def __init__(self, spec: AlgebraSpec, dim: int, basis_matrices, plan=None, validate: bool = True):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_matrices", tuple(basis_matrices))
        object.__setattr__(self, "plan", tuple(plan) if plan is not None else None)
        object.__setattr__(self, "_injective", None)
        if len(self.basis_matrices) != spec.real_dimension:
            raise RepresentationError("one basis matrix per real coordinate is required")
        for m in self.basis_matrices:
            if m.nrows != dim or m.ncols != dim:
                raise RepresentationError("basis matrix has wrong dimension")
        if validate:
            self.validate()

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    @classmethod
    def from_plan(cls, spec: AlgebraSpec, dim: int, placements, exact: bool = True,
                  validate: bool = True) -> "Representation":
        placements = tuple(placements)
        for p in placements:
            if not 0 <= p.summand < len(spec.summands):
                raise RepresentationError(f"placement references missing summand {p.summand}")
            md = spec.summands[p.summand].matrix_dim
            if len(p.rows) != md or len(p.cols) != md:
                raise RepresentationError(
                    f"placement for summand {p.summand} needs {md} rows/cols"
                )
        mats = []
        for k in range(spec.real_dimension):
            e = basis_element(spec, k, exact)
            blocks = e.blocks()
            items = []
            for p in placements:
                block = blocks[p.summand]
                for r, i in enumerate(p.rows):
                    for c, j in enumerate(p.cols):
                        v = conj(block[r][c]) if p.conj else block[r][c]
                        if not _stored_zero(v):
                            items.append((i, j, v))
            mats.append(Matrix.from_entries(dim, dim, items, exact))
        return cls(spec, dim, mats, plan=placements, validate=validate)

    def validate(self) -> None:
        """Check star-compatibility and multiplicativity on basis pairs.

        Each pair (k, l) forms the one product pi(e_k) pi(e_l).  When e_k and
        e_l lie in different summands, e_k e_l = 0 and the product must be
        zero; otherwise it must equal the image of e_k e_l, read from the
        block's basis-product table.
        """
        exact = self._exact()
        mats = self.basis_matrices
        for k, e in enumerate(basis_elements(self.spec, exact)):
            if self.apply(e.star()) != mats[k].adjoint():
                raise RepresentationError(f"star-compatibility fails on basis element {k}")
        zero = scalars.RATIONAL_ZERO if exact else 0.0
        summands, d = self.spec.summands, self.spec.real_dimension
        # (summand, offset, local index) of every basis coordinate
        owner = [(s, off, i) for s, off in enumerate(self.spec.offsets())
                 for i in range(summands[s].real_dim)]
        for k, (sk, off, i) in enumerate(owner):
            ma = mats[k]
            table = _block_basis_products(summands[sk], exact)
            for l, (sl, _, j) in enumerate(owner):
                prod = ma @ mats[l]
                if sk != sl:
                    ok = prod.is_zero()
                else:
                    local = table[i][j]
                    coords = (zero,) * off + local + (zero,) * (d - off - len(local))
                    ok = self.apply(AlgebraElement(self.spec, coords)) == prod
                if not ok:
                    raise RepresentationError(f"multiplicativity fails on basis pair ({k}, {l})")

    def _exact(self) -> bool:
        for m in self.basis_matrices:
            for _, v in m.entries():
                return isinstance(v, QI)
        return True

    def apply(self, elem: AlgebraElement) -> Matrix:
        if elem.spec != self.spec:
            raise ValueError("element spec does not match representation")
        acc: dict = {}
        for x, mat in zip(elem.coords, self.basis_matrices):
            if x == 0:
                continue
            for key, v in mat.entries():
                cur = acc.get(key)
                acc[key] = x * v if cur is None else cur + x * v
        return Matrix(self.dim, self.dim, acc)

    def is_injective(self) -> bool:
        cached = object.__getattribute__(self, "_injective")
        if cached is None:
            ech = Echelon(2 * self.dim * self.dim)
            for m in self.basis_matrices:
                ech.add(real_coords(m))
            cached = ech.rank == self.spec.real_dimension
            object.__setattr__(self, "_injective", cached)
        return cached

    def pullback(self, m: Matrix) -> AlgebraElement | None:
        """The element x with apply(x) = m, or None when m is not in the image."""
        coeffs = solve_real_linear([real_coords(b) for b in self.basis_matrices], real_coords(m))
        if coeffs is None:
            return None
        if not self._exact():
            # solver output keeps plain-integer entries; one mode per element
            coeffs = tuple(float(c) for c in coeffs)
        elem = AlgebraElement(self.spec, coeffs)
        if self.apply(elem) != m:
            return None
        return elem

    def __eq__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.dim == other.dim
            and all(a == b for a, b in zip(self.basis_matrices, other.basis_matrices))
        )

    __hash__ = None

    def __repr__(self):
        return f"Representation({'+'.join(self.spec.labels())} on C^{self.dim})"

