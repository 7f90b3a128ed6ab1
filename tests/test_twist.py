import os
import random
from fractions import Fraction

import pytest

from spectriple.algebra import AlgebraSpec, BlockKind, Placement, Representation, basis_elements
from spectriple.docio import load_document, parse_document
from spectriple.fuzz import generate_cases
from spectriple.matrices import Antilinear, Matrix
from spectriple.triple import (FiniteRealTriple, check_axioms, check_first_order,
                               check_twisted_first_order, inferred_signs)
from spectriple.realpart import verify_real_part
from spectriple.standard_model import YukawaParams, build_fiber_triple, sflip_identification
from spectriple.twist import (TwistData, TwistError, check_compatibility, compatibility_sign,
                              identity_twist, twist_by_grading, twisted_commutator, twisted_image)

from conftest import SIGMA1, mat, qi


def diag_pair_rep():
    spec = AlgebraSpec((BlockKind("C"), BlockKind("C")))
    plan = [Placement(0, (0,), (0,)), Placement(1, (1,), (1,))]
    return spec, Representation.from_plan(spec, 2, plan)


def test_identity_twist_gives_plain_commutator():
    spec, rep = diag_pair_rep()
    d = SIGMA1
    a = rep.apply(basis_elements(spec)[0])
    assert twisted_commutator(d, a, None) == d @ a - a @ d
    assert twisted_commutator(d, a, identity_twist(spec)) == d @ a - a @ d
    assert twisted_commutator(d, a, identity_twist(spec), rep) == d @ a - a @ d


def test_twisted_image_is_the_operator_itself_under_the_identity():
    spec, rep = diag_pair_rep()
    e = basis_elements(spec)[0]
    m = rep.apply(e)

    def moved(move):
        return rep.apply(move(e))

    for inverse in (False, True):
        assert twisted_image(identity_twist(spec), m, None, inverse) is m
        assert twisted_image(TwistData((1, 0)), m, moved, inverse) == rep.apply(basis_elements(spec)[2])


def test_untwisted_checks_are_the_identity_twist(ko6_toy):
    plain = check_first_order(ko6_toy)
    twisted = check_twisted_first_order(ko6_toy, identity_twist(ko6_toy.spec))
    assert plain.title == "first-order condition"
    assert twisted.title == "twisted first-order condition"
    assert [(c.passed, c.residual, c.detail) for c in plain.checks] == \
        [(c.passed, c.residual, c.detail) for c in twisted.checks[:1]]
    assert (twisted.checks[1].name, twisted.checks[1].residual) == ("twist_displacement", 0.0)
    rp = verify_real_part(ko6_toy)
    assert rp.ok
    assert next(c for c in rp.checks if c.name == "subtriple_first_order").detail == "untwisted variant"


def test_swap_twist_commutator_oracle():
    # D = diag(1,-1), a = diag(x, y), rho = slot swap: [D, a]_rho = (x - y) I
    spec, rep = diag_pair_rep()
    d = mat([[1, 0], [0, -1]])
    rho = TwistData((1, 0))
    x, y = qi(3, 1), qi(-2, 5)
    from spectriple.algebra import AlgebraElement

    a = AlgebraElement(spec, (x.real, x.imag, y.real, y.imag))
    result = twisted_commutator(d, rep.apply(a), rho, rep)
    expected = Matrix.identity(2).scale(x - y)
    assert result == expected


def test_fixed_point_reduces_to_commutator():
    spec, rep = diag_pair_rep()
    d = SIGMA1
    rho = TwistData((1, 0))
    from spectriple.algebra import AlgebraElement

    a = AlgebraElement(spec, tuple(map(Fraction, (2, 1, 2, 1))))  # rho(a) = a
    assert twisted_commutator(d, rep.apply(a), rho, rep) == d @ rep.apply(a) - rep.apply(a) @ d


def test_perm_twist_requires_representation_or_inner_unitary():
    spec, rep = diag_pair_rep()
    rho = TwistData((1, 0))
    with pytest.raises(TwistError):
        twisted_commutator(SIGMA1, Matrix.identity(2), rho)
    with pytest.raises(TwistError):
        # not an algebra image
        twisted_commutator(SIGMA1, SIGMA1, rho, rep)


def test_twist_validation_rejects_unlike_summands():
    spec = AlgebraSpec((BlockKind("C"), BlockKind("H")))
    rho = TwistData((1, 0))
    plan = [Placement(0, (0,), (0,)), Placement(1, (1, 2), (1, 2))]
    rep = Representation.from_plan(spec, 3, plan)
    with pytest.raises(TwistError):
        rho.validate(spec, rep)


def test_twist_data_is_involution_bookkeeping():
    assert TwistData((1, 0)).is_involution()
    assert not TwistData((1, 2, 0)).is_involution()
    assert TwistData((0,), (True,)).is_involution()


def test_twist_by_grading_collapses_on_diagonal_elements(ko0_toy):
    doubled, rho = twist_by_grading(ko0_toy)
    from spectriple.algebra import AlgebraElement

    k = ko0_toy.spec.real_dimension
    rng = random.Random(1)
    for _ in range(10):
        coords = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k))
        a = AlgebraElement(ko0_toy.spec, coords)
        pair = AlgebraElement(doubled.spec, coords + coords)
        assert doubled.rep.apply(pair) == ko0_toy.rep.apply(a)


def test_twist_by_grading_flip_is_involutive(ko0_toy):
    doubled, rho = twist_by_grading(ko0_toy)
    assert rho.is_involution()
    assert rho.R @ rho.R == Matrix.identity(2)
    for e in basis_elements(doubled.spec):
        assert rho.apply(rho.apply(e)) == e


def test_twist_by_grading_preserves_signs_and_conditions(ko0_toy):
    doubled, rho = twist_by_grading(ko0_toy)
    assert inferred_signs(doubled).as_tuple() == inferred_signs(ko0_toy).as_tuple()
    assert check_axioms(doubled).ok
    assert check_first_order(ko0_toy).ok
    assert check_twisted_first_order(doubled, rho).ok


def test_twist_by_grading_requires_grading(conjugate_pair_toy):
    with pytest.raises(TwistError):
        twist_by_grading(conjugate_pair_toy)


def test_twist_by_grading_rejects_unequal_eigenspaces():
    spec = AlgebraSpec((BlockKind("R"),))
    plan = [Placement(0, (i,), (i,)) for i in range(3)]
    rep = Representation.from_plan(spec, 3, plan)
    grading = Matrix.diagonal([1, 1, -1])
    t = FiniteRealTriple(spec, rep, Matrix.zeros(3), grading, Antilinear(Matrix.identity(3)))
    with pytest.raises(TwistError, match="unequal"):
        twist_by_grading(t)


def test_grading_collapse_identity(ko6_toy):
    # the flip twist against an anticommuting Dirac operator reduces to
    # graded ordinary commutators: [D, pi2(a, a')]_rho =
    # P+ [D, pi(a')] + P- [D, pi(a)]
    from spectriple.algebra import AlgebraElement
    from spectriple.twist import eigenprojections

    doubled, rho = twist_by_grading(ko6_toy)
    p_plus, p_minus = eigenprojections(ko6_toy.grading, True)
    rng = random.Random(3)
    k = ko6_toy.spec.real_dimension
    d = ko6_toy.dirac
    for _ in range(10):
        ca = tuple(Fraction(rng.randint(-3, 3)) for _ in range(k))
        cb = tuple(Fraction(rng.randint(-3, 3)) for _ in range(k))
        pair = AlgebraElement(doubled.spec, ca + cb)
        m = doubled.rep.apply(pair)
        m_rho = doubled.rep.apply(rho.apply(pair))
        lhs = d @ m - m_rho @ d
        ma = ko6_toy.rep.apply(AlgebraElement(ko6_toy.spec, ca))
        mb = ko6_toy.rep.apply(AlgebraElement(ko6_toy.spec, cb))
        rhs = p_plus @ (d @ mb - mb @ d) + p_minus @ (d @ ma - ma @ d)
        assert lhs == rhs


def test_compatibility_sign_examples():
    # R = I: J R = R J for any J
    spec, rep = diag_pair_rep()
    rho_id = TwistData((0, 1), R=Matrix.identity(2))
    assert compatibility_sign(Antilinear(SIGMA1), rho_id) == 1
    # R = swap, J = diag(1,-1) o conj: anticommute
    j = Antilinear(mat([[1, 0], [0, -1]]))
    rho = TwistData((1, 0), R=SIGMA1)
    assert compatibility_sign(j, rho) == -1
    # J with an off phase fails both signs
    j_bad = Antilinear(mat([[1, 0], [0, 1j]]))
    assert compatibility_sign(j_bad, rho) is None


def test_failed_twist_checks_name_the_offending_basis_element():
    # R = diag(2, 1) does not implement the swap: the summand-0 basis
    # elements 0 and 1 are off by 4, the summand-1 elements 2 and 3 by 1,
    # so the offender is element 1, the last of the two worst
    spec, rep = diag_pair_rep()
    rho = TwistData((1, 0), R=mat([[2, 0], [0, 1]]))
    validation = {c.name: c for c in rho.validate(spec, rep).checks}
    compat = {c.name: c for c in check_compatibility(Antilinear(Matrix.identity(2)), rho, rep).checks}
    for check in (validation["inner_implements_twist"], compat["opposite_twist_exchange"]):
        assert (check.passed, check.residual, check.detail) == (False, 4.0, "basis element 1")
    assert compat["real_structure_twist_sign"].passed
    assert not compat["formulations_agree"].passed


def test_check_compatibility_report(ko6_toy):
    doubled, rho = twist_by_grading(ko6_toy)
    report = check_compatibility(ko6_toy.real_structure, rho, doubled.rep)
    assert report.ok
    assert report.data["eps_triple"] == 1


def test_compatibility_needs_inner_twist():
    with pytest.raises(TwistError):
        compatibility_sign(Antilinear(Matrix.identity(2)), TwistData((1, 0)))


def test_twisted_first_order_on_fuzz_doubles():
    for case in generate_cases(5, 8):
        assert check_first_order(case.triple).ok
        doubled, rho = twist_by_grading(case.triple)
        assert check_twisted_first_order(doubled, rho).ok


def test_failed_twist_sign_reports_its_distance():
    # J = diag(1, i) o conj against the swap R = sigma1: J R and R J differ
    # by [[0, 1 - i], [i - 1, 0]] and sum to [[0, 1 + i], [1 + i, 0]]
    spec, rep = diag_pair_rep()
    rho = TwistData((1, 0), R=SIGMA1)
    report = check_compatibility(Antilinear(mat([[1, 0], [0, 1j]])), rho, rep)
    sign = {c.name: c for c in report.checks}["real_structure_twist_sign"]
    assert not sign.passed
    assert sign.residual == pytest.approx(2 ** 0.5)
    assert sign.detail == "J R = +-R J fails for both signs"


def _doubling_inputs(exact: bool):
    """Both fixture documents, four fuzz cases per KO class and the
    standard-model fiber (with its s-flip identification), in one mode."""
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    for name in ("ko0_toy.json", "ko6_toy.json"):
        doc = load_document(os.path.join(fixtures, name))
        doc["mode"] = "exact" if exact else "float"
        yield parse_document(doc).triple, None
    for ko in (0, 2, 4, 6):
        for case in generate_cases(40 + ko, 4, ko=ko, exact=exact):
            yield case.triple, None
    p = YukawaParams.random(random.Random(5), exact)
    yield build_fiber_triple(p), sflip_identification(exact)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_split_plan_rebuilds_the_projected_representation(exact):
    # twist_by_grading attaches its split plan without rebuilding from it;
    # the plan must give exactly the projected matrices P+- pi(e_k)
    planned = 0
    for t, identification in _doubling_inputs(exact):
        doubled, _ = twist_by_grading(t, identification)
        if doubled.rep.plan is None:
            continue
        planned += 1
        rebuilt = Representation.from_plan(doubled.spec, doubled.dim, doubled.rep.plan, exact,
                                           validate=False)
        assert rebuilt.basis_matrices == doubled.rep.basis_matrices
    assert planned == 19
