"""Float-backend coverage: the same code paths under the global tolerance."""

import pytest

from spectriple.algebra import AlgebraSpec, BlockKind, Placement, Representation, basis_elements
from spectriple.fuzz import generate_cases
from spectriple.matrices import Antilinear, Matrix
from spectriple.realpart import real_part, verify_doubling_dichotomy
from spectriple.standard_model import YukawaParams, build_internal_triple, internal_representation
from spectriple.triple import FiniteRealTriple, check_axioms, check_first_order, check_order_zero


def float_ko6_toy():
    spec = AlgebraSpec((BlockKind("C"),))
    plan = [Placement(0, (0,), (0,)), Placement(0, (1,), (1,))]
    rep = Representation.from_plan(spec, 2, plan, exact=False)
    sigma1 = Matrix.from_rows([[0.0, 1.0], [1.0, 0.0]], exact=False)
    sigma3 = Matrix.from_rows([[1.0, 0.0], [0.0, -1.0]], exact=False)
    return FiniteRealTriple(spec, rep, sigma1, sigma3, Antilinear(sigma1))


def test_float_toy_axioms_and_real_part():
    t = float_ko6_toy()
    report = check_axioms(t)
    assert report.ok, report.render()
    assert report.data["ko_dimension"] == 6
    rp = real_part(t)
    assert rp.real_dimension == 1
    assert all(rp.flags.values())


def test_float_dichotomy():
    report = verify_doubling_dichotomy(float_ko6_toy())
    assert report.ok, report.render()
    assert report.data["branch"] == "intersection with the opposite"


def test_float_fuzz_cases_pass_checkers():
    for case in generate_cases(5, 6, exact=False):
        assert check_axioms(case.triple).ok
        assert check_order_zero(case.triple).ok
        assert check_first_order(case.triple).ok


def test_float_standard_model_internal():
    p = YukawaParams(0.5 + 0.1j, 1 / 3 + 0j, 2 / 3 + 0j, 0.6 + 0j, 1.0)
    t = build_internal_triple(p)
    report = check_axioms(t)
    assert report.ok, report.render()
    assert report.data["ko_dimension"] == 6
    rp = real_part(t)
    assert rp.real_dimension == 1


def test_float_perturbation_below_tolerance_still_passes():
    t = float_ko6_toy()
    jittered = Matrix.from_rows([[1e-12, 1.0], [1.0, -1e-13]], exact=False)
    t2 = FiniteRealTriple(t.spec, t.rep, jittered, t.grading, t.real_structure)
    assert check_axioms(t2).ok


def test_float_j_squared_residual_is_the_distance_to_plus_minus_identity():
    # U = [[0, 1], [i, 0]] is unitary with J^2 = U conj(U) = diag(-i, i),
    # at distance sqrt(2) from both I and -I, while max|J^2| is 1
    t = float_ko6_toy()
    u = Matrix.from_rows([[0.0, 1.0], [1j, 0.0]], exact=False)
    t2 = FiniteRealTriple(t.spec, t.rep, t.dirac, t.grading, Antilinear(u))
    check = next(c for c in check_axioms(t2).checks if c.name == "j_squared_plus_minus_identity")
    assert not check.passed
    assert abs(check.residual - 2 ** 0.5) < 1e-12
    assert check.detail == "J^2 is not +-I"


def test_float_violation_above_tolerance_fails():
    t = float_ko6_toy()
    broken = Matrix.from_rows([[1e-3, 1.0], [1.0, 0.0]], exact=False)
    t2 = FiniteRealTriple(t.spec, t.rep, broken, t.grading, t.real_structure)
    report = check_axioms(t2)
    assert not report.ok
    assert any(c.name == "grading_anticommutes_dirac" and not c.passed for c in report.checks)


@pytest.mark.parametrize("exact", [True, False])
def test_pullback_coordinates_stay_in_the_representation_mode(exact):
    rep = internal_representation(exact)
    for e in basis_elements(rep.spec, exact):
        x = rep.pullback(rep.apply(e))
        assert x.coords == e.coords
        if exact:
            assert not any(isinstance(c, float) for c in x.coords)
        else:
            assert all(type(c) is float for c in x.coords)
