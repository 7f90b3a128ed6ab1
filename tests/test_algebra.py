import random

import pytest

from spectriple import scalars
from spectriple.algebra import (AlgebraElement, AlgebraSpec, BlockKind, Placement,
                                Representation, RepresentationError, _block_basis_products,
                                basis_element, basis_elements, center_basis,
                                identity_element, parse_kind, random_element, zero_element)
from spectriple.matrices import Matrix
from spectriple.scalars import QI, RATIONAL_ZERO, conj, is_zero
from spectriple.twist import TwistData

from conftest import qi

SM_LIKE = AlgebraSpec((BlockKind("C"), BlockKind("H"), BlockKind("C", 3)))


def test_block_real_dimensions():
    assert BlockKind("R").real_dim == 1
    assert BlockKind("C").real_dim == 2
    assert BlockKind("H").real_dim == 4
    assert BlockKind("C", 3).real_dim == 18
    assert BlockKind("R", 2).real_dim == 4
    assert BlockKind("H", 2).real_dim == 16


def test_kind_labels_roundtrip():
    for kind in (BlockKind("R"), BlockKind("C"), BlockKind("H"),
                 BlockKind("C", 3), BlockKind("R", 2), BlockKind("H", 2)):
        assert parse_kind(kind.label()) == kind
    with pytest.raises(ValueError):
        parse_kind("M3(X)")


def test_doubling_concatenates():
    assert SM_LIKE.real_dimension == 24
    assert SM_LIKE.doubled().real_dimension == 48
    assert SM_LIKE.doubled().labels() == ["C", "H", "M3(C)", "C", "H", "M3(C)"]


def test_quaternion_units_multiply_like_quaternions():
    spec = AlgebraSpec((BlockKind("H"),))
    one, i, j, k = (basis_element(spec, n) for n in range(4))
    # 2x2 embedding oracle: i*j = k, j*k = i, k*i = j, i*i = -1
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert i * i == -one
    assert j * j == -one
    assert (i * j) * k == -one


def test_identity_and_blockwise_product():
    rng = random.Random(2)
    e = identity_element(SM_LIKE)
    a = random_element(SM_LIKE, rng)
    b = random_element(SM_LIKE, rng)
    assert e * a == a and a * e == a
    # direct sums multiply blockwise
    ab = a * b
    for blk_ab, blk_a, blk_b in zip(ab.blocks(), a.blocks(), b.blocks()):
        n = len(blk_a)
        for r in range(n):
            for c in range(n):
                acc = QI(0)
                for m in range(n):
                    acc = acc + blk_a[r][m] * blk_b[m][c]
                assert acc == blk_ab[r][c]


def test_star_is_an_involution_and_antihomomorphism():
    rng = random.Random(4)
    for _ in range(20):
        a = random_element(SM_LIKE, rng)
        b = random_element(SM_LIKE, rng)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()


def test_matrix_quaternion_and_real_blocks():
    spec = AlgebraSpec((BlockKind("R", 2), BlockKind("H", 2)))
    assert spec.real_dimension == 4 + 16
    rng = random.Random(5)
    for _ in range(10):
        a, b = random_element(spec, rng), random_element(spec, rng)
        assert (a * b).star() == b.star() * a.star()
        assert (a * b) * a == a * (b * a)
    e = identity_element(spec)
    assert e * e == e
    blocks = e.blocks()
    assert len(blocks[0]) == 2 and len(blocks[1]) == 4  # H embeds 2n x 2n


def test_center_dimensions():
    assert center_basis(AlgebraSpec((BlockKind("C", 3),))).dim == 2
    assert center_basis(AlgebraSpec((BlockKind("C", 1),))).dim == 2
    assert center_basis(AlgebraSpec((BlockKind("R", 2),))).dim == 1
    assert center_basis(AlgebraSpec((BlockKind("H"),))).dim == 1
    assert center_basis(SM_LIKE).dim == 5  # 2 + 1 + 2


def test_scalar_representation_on_c1():
    spec = AlgebraSpec((BlockKind("C"),))
    rep = Representation.from_plan(spec, 1, [Placement(0, (0,), (0,))])
    one, i = rep.basis_matrices
    assert one == Matrix.identity(1)
    assert i.get(0, 0) == qi(0, 1)


def test_conjugate_slot_representation_is_multiplicative():
    # z acting as diag(z, conj z): checked on z = i
    spec = AlgebraSpec((BlockKind("C"),))
    plan = [Placement(0, (0,), (0,)), Placement(0, (1,), (1,), conj=True)]
    rep = Representation.from_plan(spec, 2, plan)
    i_mat = rep.apply(basis_element(spec, 1))
    assert i_mat.get(0, 0) == qi(0, 1)
    assert i_mat.get(1, 1) == qi(0, -1)
    assert (i_mat @ i_mat + Matrix.identity(2)).is_zero()


def test_invalid_plan_is_rejected():
    spec = AlgebraSpec((BlockKind("C"),))
    # z + conj(z) on one slot is not multiplicative (i maps to 0)
    plan = [Placement(0, (0,), (0,)), Placement(0, (0,), (0,), conj=True)]
    with pytest.raises(RepresentationError, match="multiplicativity"):
        Representation.from_plan(spec, 1, plan)
    with pytest.raises(RepresentationError, match="summand"):
        Representation.from_plan(spec, 1, [Placement(3, (0,), (0,))])


def test_representation_homomorphism_on_random_elements():
    rng = random.Random(8)
    plan = [Placement(0, (0,), (0,)), Placement(0, (1,), (1,), conj=True),
            Placement(1, (2, 3), (2, 3))]
    spec = AlgebraSpec((BlockKind("C"), BlockKind("H")))
    rep = Representation.from_plan(spec, 4, plan)
    for _ in range(15):
        a, b = random_element(spec, rng), random_element(spec, rng)
        assert rep.apply(a * b) == rep.apply(a) @ rep.apply(b)
        assert rep.apply(a.star()) == rep.apply(a).adjoint()


def test_pullback_inverts_apply():
    rng = random.Random(9)
    plan = [Placement(0, (0,), (0,)), Placement(1, (1, 2), (1, 2))]
    spec = AlgebraSpec((BlockKind("R"), BlockKind("H")))
    rep = Representation.from_plan(spec, 3, plan)
    assert rep.is_injective()
    for _ in range(10):
        x = random_element(spec, rng)
        assert rep.pullback(rep.apply(x)) == x
    assert rep.pullback(Matrix.unit(3, 3, 0, 2)) is None


def test_zero_and_basis_elements():
    z = zero_element(SM_LIKE)
    assert z.is_zero()
    assert len(basis_elements(SM_LIKE)) == 24
    assert sum(1 for e in basis_elements(SM_LIKE) if not e.is_zero()) == 24


def test_float_mode_elements():
    spec = AlgebraSpec((BlockKind("C"),))
    a = AlgebraElement(spec, (0.5, 0.25))
    b = AlgebraElement(spec, (2.0, 0.0))
    assert (a * b).coords == (1.0, 0.5)


# -- summand-local products ---------------------------------------------------

BLOCK_KINDS = (BlockKind("R"), BlockKind("C"), BlockKind("H"), BlockKind("C", 2), BlockKind("C", 3))


# Dense reference: the element operations as they were computed on the 2x2
# complex embedding, kept here so that the reference shares no code with
# the coordinate rules it checks.


def _mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(m)), 0) for j in range(p)] for i in range(n)]


def _mat_adjoint(a):
    return [[conj(a[j][i]) for j in range(len(a))] for i in range(len(a[0]))]


def _mat_conj(a):
    return [[conj(v) for v in row] for row in a]


def _coords_from_block(kind: BlockKind, block):
    n = kind.n
    coords = []
    if kind.family == "R":
        for i in range(n):
            for j in range(n):
                v = block[i][j]
                if not is_zero(scalars.imag_part(v)):
                    raise ValueError("real block acquired an imaginary part")
                coords.append(scalars.real_part(v))
    elif kind.family == "C":
        for i in range(n):
            for j in range(n):
                v = block[i][j]
                coords.extend((scalars.real_part(v), scalars.imag_part(v)))
    else:
        for i in range(n):
            for j in range(n):
                a = block[2 * i][2 * j]
                b = block[2 * i][2 * j + 1]
                if not is_zero(block[2 * i + 1][2 * j] + conj(b)) or not is_zero(
                    block[2 * i + 1][2 * j + 1] - conj(a)
                ):
                    raise ValueError("block left the quaternionic form")
                coords.extend(
                    (scalars.real_part(a), scalars.imag_part(a), scalars.real_part(b), scalars.imag_part(b))
                )
    return coords


def _from_blocks(spec: AlgebraSpec, blocks) -> AlgebraElement:
    coords = []
    for kind, block in zip(spec.summands, blocks):
        coords.extend(_coords_from_block(kind, block))
    return AlgebraElement(spec, tuple(coords))


def _dense_product(a, b):
    """Reference product: multiply every block densely, zero blocks included."""
    return _from_blocks(a.spec, [_mat_mul(x, y) for x, y in zip(a.blocks(), b.blocks())])


def _with_zero_summands(elem, rng, exact):
    coords = list(elem.coords)
    zero = RATIONAL_ZERO if exact else 0.0
    for kind, off in zip(elem.spec.summands, elem.spec.offsets()):
        if rng.random() < 0.4:
            coords[off: off + kind.real_dim] = [zero] * kind.real_dim
    return AlgebraElement(elem.spec, coords)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_element_product_matches_dense_blockwise_reference(exact):
    rng = random.Random(11)
    for _ in range(60):
        spec = AlgebraSpec(tuple(rng.choice(BLOCK_KINDS) for _ in range(rng.randint(1, 4))))
        a = _with_zero_summands(random_element(spec, rng, exact), rng, exact)
        b = _with_zero_summands(random_element(spec, rng, exact), rng, exact)
        got, want = a * b, _dense_product(a, b)
        assert got.coords == want.coords
        assert [type(c) for c in got.coords] == [type(c) for c in want.coords]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_block_basis_products_equal_dense_products(exact):
    for kind in BLOCK_KINDS + (BlockKind("R", 2), BlockKind("H", 2)):
        spec = AlgebraSpec((kind,))
        basis = basis_elements(spec, exact)
        table = _block_basis_products(kind, exact)
        assert table == tuple(tuple(_dense_product(a, b).coords for b in basis) for a in basis)


# -- coordinate rules against the dense reference ---------------------------

COORDINATE_KINDS = (BlockKind("R"), BlockKind("C"), BlockKind("H"), BlockKind("R", 2),
                    BlockKind("C", 2), BlockKind("C", 3), BlockKind("H", 2))


def _same_coords(got, want):
    assert got.coords == want.coords
    assert [type(c) for c in got.coords] == [type(c) for c in want.coords]


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_coordinate_rules_match_dense_reference(exact):
    rng = random.Random(12)
    for kind in COORDINATE_KINDS:
        spec = AlgebraSpec((kind,))
        basis = basis_elements(spec, exact)
        table = _block_basis_products(kind, exact)
        assert table == tuple(tuple(_dense_product(a, b).coords for b in basis) for a in basis)
    for _ in range(60):
        spec = AlgebraSpec(tuple(rng.choice(COORDINATE_KINDS) for _ in range(rng.randint(1, 3))))
        a = _with_zero_summands(random_element(spec, rng, exact), rng, exact)
        b = _with_zero_summands(random_element(spec, rng, exact), rng, exact)
        _same_coords(a.star(), _from_blocks(spec, [_mat_adjoint(x) for x in a.blocks()]))
        _same_coords(a.conj(), _from_blocks(spec, [_mat_conj(x) for x in a.blocks()]))
        _same_coords(a * b, _dense_product(a, b))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_twist_with_conjugation_flags_is_a_star_automorphism(exact):
    h, c2 = BlockKind("H"), BlockKind("C", 2)
    spec = AlgebraSpec((h, c2, h, c2, c2))
    rho = TwistData((2, 4, 0, 1, 3), (True, True, False, False, True))
    rng = random.Random(13)
    for _ in range(20):
        x, y = random_element(spec, rng, exact), random_element(spec, rng, exact)
        assert rho.apply(x * y) == rho.apply(x) * rho.apply(y)
        assert rho.apply(x.star()) == rho.apply(x).star()
        assert rho.apply_inverse(rho.apply(x)).coords == x.coords
        assert rho.apply(rho.apply_inverse(x)).coords == x.coords


def test_offsets_agree_with_cached_slices():
    for spec in (SM_LIKE, SM_LIKE.doubled(), AlgebraSpec(COORDINATE_KINDS), AlgebraSpec(())):
        pos = 0
        for kind, off, sl in zip(spec.summands, spec.offsets(), spec.slices):
            assert off == sl.start == pos
            assert sl.stop - sl.start == kind.real_dim
            pos += kind.real_dim
        assert len(spec.slices) == len(spec.summands)
        assert spec.real_dimension == pos
        assert spec.slices is spec.slices
        fresh = AlgebraSpec(spec.summands)
        assert fresh == spec and hash(fresh) == hash(spec)


def test_two_summands_on_one_slot_fail_on_the_first_cross_pair():
    spec = AlgebraSpec((BlockKind("C"), BlockKind("C")))
    plan = [Placement(0, (0,), (0,)), Placement(1, (0,), (0,))]
    with pytest.raises(RepresentationError, match=r"multiplicativity fails on basis pair \(0, 2\)$"):
        Representation.from_plan(spec, 1, plan)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_same_summand_violations_are_rejected(exact):
    # H with j and k swapped: star-compatible, but i j = k maps to -j
    spec = AlgebraSpec((BlockKind("H"),))
    mats = Representation.from_plan(spec, 2, [Placement(0, (0, 1), (0, 1))], exact).basis_matrices
    with pytest.raises(RepresentationError, match=r"basis pair \(1, 2\)$"):
        Representation(spec, 2, [mats[0], mats[1], mats[3], mats[2]])
    # M2(C) acting by transposition is an anti-homomorphism: E00 E01 = E01 maps to E10
    spec = AlgebraSpec((BlockKind("C", 2),))
    mats = Representation.from_plan(spec, 2, [Placement(0, (0, 1), (0, 1))], exact).basis_matrices
    with pytest.raises(RepresentationError, match=r"basis pair \(0, 2\)$"):
        Representation(spec, 2, [m.transpose() for m in mats])
