from fractions import Fraction

import pytest

from spectriple.algebra import AlgebraSpec, BlockKind, Placement, Representation
from spectriple.fuzz import generate_cases
from spectriple.matrices import Antilinear, Matrix
from spectriple.realpart import (_real_part_flags, intersect_with_opposite, real_part,
                                 structure_label, verify_doubling_dichotomy, verify_real_part)
from spectriple.subspaces import RealSubspaceBasis, subspace_sum_dim
from spectriple.triple import FiniteRealTriple
from spectriple.twist import TwistData, TwistError, identity_twist, twist_by_grading

from conftest import SIGMA1, mat


def test_complex_line_with_conjugation_gives_reals():
    spec = AlgebraSpec((BlockKind("C"),))
    rep = Representation.from_plan(spec, 1, [Placement(0, (0,), (0,))])
    t = FiniteRealTriple(spec, rep, Matrix.zeros(1), None, Antilinear(Matrix.identity(1)))
    rp = real_part(t)
    assert rp.real_dimension == 1
    assert rp.basis.contains((Fraction(1), Fraction(0)))
    assert all(rp.flags.values())
    assert structure_label(t, rp.basis) == "R"


def test_swap_conjugation_pairs_the_two_lines(conjugate_pair_toy):
    # diag(z, w) with J = swap o conj commutes iff w = conj(z)
    rp = real_part(conjugate_pair_toy)
    assert rp.real_dimension == 2
    expected = RealSubspaceBasis.spanned_by(4, [
        tuple(map(Fraction, (1, 0, 1, 0))),
        tuple(map(Fraction, (0, 1, 0, -1))),
    ])
    assert rp.basis.equals(expected)
    assert all(rp.flags.values())
    assert structure_label(conjugate_pair_toy, rp.basis) == "C"


def test_real_part_requires_real_structure(ko0_toy):
    bare = FiniteRealTriple(ko0_toy.spec, ko0_toy.rep, ko0_toy.dirac)
    with pytest.raises(ValueError, match="real structure"):
        real_part(bare)


def test_real_part_elements_satisfy_star_identities(ko6_toy):
    # J a* J^{-1} = a* and a° = a* hold on the computed basis
    rp = real_part(ko6_toy)
    j = ko6_toy.real_structure
    for u in rp.elements(ko6_toy):
        m_star = ko6_toy.rep.apply(u.star())
        assert j.conjugate_operator(m_star) == m_star


def test_ko6_toy_exhibits_strict_containment(ko6_toy):
    rp = real_part(ko6_toy)
    inter = intersect_with_opposite(ko6_toy)
    assert rp.real_dimension == 1
    assert inter.dim == 2
    # A_J sits inside A n A°
    assert all(inter.contains(v) for v in rp.basis.vectors)
    assert structure_label(ko6_toy, inter) == "C"


def test_commutative_conjugation_intersection_is_everything():
    # slotwise conjugation on a commutative algebra: A° = A
    spec = AlgebraSpec((BlockKind("C"), BlockKind("C")))
    plan = [Placement(0, (0,), (0,)), Placement(1, (1,), (1,))]
    rep = Representation.from_plan(spec, 2, plan)
    t = FiniteRealTriple(spec, rep, Matrix.zeros(2), None, Antilinear(Matrix.identity(2)))
    inter = intersect_with_opposite(t)
    assert inter.dim == spec.real_dimension


def test_intersection_requires_injective_representation():
    # the second summand acts as zero: the representation is not injective
    spec = AlgebraSpec((BlockKind("C"), BlockKind("C")))
    lossy = Representation.from_plan(spec, 1, [Placement(0, (0,), (0,))])
    t = FiniteRealTriple(spec, lossy, Matrix.zeros(1), None, Antilinear(Matrix.identity(1)))
    with pytest.raises(ValueError, match="injective"):
        intersect_with_opposite(t)


def test_verify_real_part_on_toys(ko0_toy, ko6_toy):
    for toy in (ko0_toy, ko6_toy):
        doubled, rho = twist_by_grading(toy)
        report = verify_real_part(doubled, rho)
        assert report.ok, report.render()


def test_incompatible_twist_is_rejected(conjugate_pair_toy):
    # R implements the flip, but this J fails both signs of J R = +- R J
    j_bad = Antilinear(mat([[0, 1j], [1, 0]]), check=True)
    t = FiniteRealTriple(conjugate_pair_toy.spec, conjugate_pair_toy.rep,
                         conjugate_pair_toy.dirac, None, j_bad)
    rho = TwistData((1, 0), R=SIGMA1)
    with pytest.raises(TwistError, match="compatible"):
        real_part(t, rho)


def test_dichotomy_ko0_toy(ko0_toy):
    report = verify_doubling_dichotomy(ko0_toy)
    assert report.ok, report.render()
    assert report.data["branch"] == "doubled real part"
    assert report.data["doubled_real_dimension"] == 2
    assert report.data["initial_real_part_dimension"] == 1


def test_dichotomy_ko6_toy(ko6_toy):
    report = verify_doubling_dichotomy(ko6_toy)
    assert report.ok, report.render()
    assert report.data["branch"] == "intersection with the opposite"
    assert report.data["doubled_real_dimension"] == 2
    assert report.data["intersection_dimension"] == 2
    assert report.data["initial_real_part_dimension"] == 1


def test_real_part_contained_in_intersection_on_fuzz_cases():
    for case in generate_cases(31, 10):
        rp = real_part(case.triple)
        inter = intersect_with_opposite(case.triple)
        ambient = case.triple.spec.real_dimension
        assert subspace_sum_dim(rp.basis, inter) == inter.dim  # A_J subset of A n A°
        assert rp.real_dimension <= inter.dim <= ambient


def test_failing_subtriple_checks_name_the_real_part_basis_element(conjugate_pair_toy):
    # A_J has the basis (1, 0, 1, 0), (0, -1, 0, 1); a grading sigma1 commutes
    # with pi of the first, I, but not with pi of the second, diag(-i, i):
    # the commutator is [[0, 2i], [-2i, 0]]
    t = FiniteRealTriple(conjugate_pair_toy.spec, conjugate_pair_toy.rep, Matrix.zeros(2), SIGMA1,
                         conjugate_pair_toy.real_structure)
    checks = {c.name: c for c in verify_real_part(t).checks}
    grading = checks["subtriple_grading_commutes"]
    assert (grading.passed, grading.residual, grading.detail) == (False, 2.0, "real-part basis element 1")
    for name in ("subtriple_commutes_with_j", "subtriple_opposite_equals_star"):
        assert checks[name].passed and checks[name].residual == 0.0
    assert checks["subtriple_opposite_equals_star"].detail == "a° = pi(a*) on the real part"


def test_real_part_flags_tell_commutative_from_noncommutative_spans():
    # the flags of H itself and of its subalgebra C = span{1, i}
    spec = AlgebraSpec((BlockKind("H"),))
    rep = Representation.from_plan(spec, 2, [Placement(0, (0, 1), (0, 1))])
    t = FiniteRealTriple(spec, rep, Matrix.zeros(2), None, Antilinear(Matrix.identity(2)))
    rho = identity_twist(spec)
    whole = RealSubspaceBasis.spanned_by(4, [tuple(int(i == k) for i in range(4)) for k in range(4)])
    line = RealSubspaceBasis.spanned_by(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert _real_part_flags(t, whole, rho) == {"is_subalgebra": True, "is_commutative": False,
                                               "is_central": False, "is_star_closed": True,
                                               "is_rho_stable": True}
    assert _real_part_flags(t, line, rho) == {"is_subalgebra": True, "is_commutative": True,
                                              "is_central": False, "is_star_closed": True,
                                              "is_rho_stable": True}
