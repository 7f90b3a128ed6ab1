"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything runs in exact arithmetic, so every equality below is tolerance
zero; residuals reported by the checkers are identically 0.  The randomized
campaigns are deterministic (fixed seeds) and cover at least 100 triples per
even KO-dimension pair.
"""

import random
import time

import pytest

from spectriple.algebra import AlgebraElement, basis_elements
from spectriple.fuzz import generate_cases
from spectriple.matrices import commutator
from spectriple.oneforms import omega1_span
from spectriple.realpart import (intersect_with_opposite, real_part, verify_doubling_dichotomy,
                                 verify_real_part)
from spectriple.standard_model import (YukawaParams, build_fiber_triple, build_internal_triple,
                                       build_twisted_sm, fiber_majorana, verify_sm_real_part)
from spectriple.triple import check_axioms, inferred_signs
from spectriple.twist import check_compatibility, eigenprojections, twist_by_grading

CAMPAIGN_PER_CLASS = 56  # 112 per KO pair {0,4} / {2,6}


def gate(number: int, ok: bool, text: str) -> bool:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} -- {text}")
    return ok


@pytest.fixture(scope="module")
def campaign():
    """Deterministic fuzz corpus: doubled triples with their dichotomy and
    real-part reports, grouped by KO class."""
    cases = []
    for ko, seed in ((0, 100), (4, 104), (2, 102), (6, 106)):
        for case in generate_cases(seed, CAMPAIGN_PER_CLASS, ko=ko):
            doubled, rho = twist_by_grading(case.triple)
            cases.append({
                "ko": ko,
                "triple": case.triple,
                "doubled": doubled,
                "rho": rho,
                "dichotomy": verify_doubling_dichotomy(case.triple),
                "real_part": verify_real_part(doubled, rho),
            })
    return cases


def test_criterion_1_sm_real_part_and_runtime():
    rng = random.Random(2024)
    elapsed = []
    ok = True
    for _ in range(2):
        params = YukawaParams.random(rng)
        start = time.perf_counter()
        report = verify_sm_real_part(params)
        elapsed.append(time.perf_counter() - start)
        ok &= report.ok
        ok &= report.data["twisted_real_dimension"] == 1
        named = {c.name: c.passed for c in report.checks}
        ok &= named["twisted_basis_is_scalar_pattern"]
        ok &= named["twist_fixes_real_part"]
    ok &= max(elapsed) < 5.0
    assert gate(1, ok, f"twisted SM real part: dim 1, scalar pattern, twist-fixed; "
                       f"slowest run {max(elapsed):.2f}s < 5s")


def test_criterion_2_intersection_equals_real_part():
    fiber = build_fiber_triple(YukawaParams.exact())
    a_j = real_part(fiber)
    inter = intersect_with_opposite(fiber)
    ok = a_j.real_dimension == 1 and inter.dim == 1 and inter.equals(a_j.basis)
    assert gate(2, ok, "SM fiber: A n A° = A_J as subspaces, both of dimension 1, "
                       "computed by independent solvers")


def test_criterion_3_dichotomy_campaign(campaign, ko6_toy):
    per_pair = {(0, 4): 0, (2, 6): 0}
    correct = {(0, 4): 0, (2, 6): 0}
    for case in campaign:
        pair = (0, 4) if case["ko"] in (0, 4) else (2, 6)
        per_pair[pair] += 1
        report = case["dichotomy"]
        branch_expected = ("doubled real part" if case["ko"] in (0, 4)
                          else "intersection with the opposite")
        if report.ok and report.data["branch"] == branch_expected:
            correct[pair] += 1
    ok = all(per_pair[p] >= 100 and correct[p] == per_pair[p] for p in per_pair)

    rp = real_part(ko6_toy)
    inter = intersect_with_opposite(ko6_toy)
    strict = rp.real_dimension == 1 and inter.dim == 2 and all(
        inter.contains(v) for v in rp.basis.vectors
    )
    ok &= strict
    assert gate(3, ok, f"dichotomy: {correct[(0, 4)]}/{per_pair[(0, 4)]} branch-correct on "
                       f"KO {{0,4}}, {correct[(2, 6)]}/{per_pair[(2, 6)]} on KO {{2,6}}; "
                       f"KO-6 toy strict containment dims 1 < 2")


def test_campaign_classes_carry_dirac_operators(campaign):
    """Each KO class of the campaign mostly checks nonzero Dirac operators;
    a generator that returned D = 0 would leave the first order and JD = DJ
    vacuous on that class."""
    nonzero = {ko: 0 for ko in (0, 2, 4, 6)}
    for case in campaign:
        nonzero[case["ko"]] += not case["triple"].dirac.is_zero()
    print(f"nonzero Dirac operators per KO class: {nonzero}")
    assert nonzero[0] >= 50
    assert nonzero[4] >= 50 and nonzero[6] >= 50


def test_criterion_4_real_part_suite(campaign):
    total = len(campaign)
    passed = sum(1 for case in campaign if case["real_part"].ok)
    flag_names = ("is_subalgebra", "is_commutative", "is_central", "is_star_closed",
                  "is_rho_stable", "one_forms_twist_commutation")
    flags_ok = all(
        all(c.passed for c in case["real_part"].checks if c.name in flag_names)
        for case in campaign
    )
    ok = passed == total and flags_ok
    assert gate(4, ok, f"real-part properties and one-form twist commutation: "
                       f"{passed}/{total} twisted triples fully pass")


def _majorana_twist_case(p: YukawaParams) -> dict:
    """The twisted Majorana span on the SM fiber, with both premises of the
    proof that it vanishes checked on the fiber model itself.

    The flip twist collapses to graded ordinary commutators,
    D pi(a, a') - pi(rho(a, a')) D = P+ [D, pi(a')] + P- [D, pi(a)], so every
    twisted one-form is P- w + P+ w' for untwisted one-forms w, w'; a Dirac
    block commuting with pi(A) therefore spans nothing, twisted or not.
    """
    fiber = build_fiber_triple(p)
    doubled, rho = build_twisted_sm(p)
    d_maj = fiber_majorana(p)
    p_plus, p_minus = eigenprojections(fiber.grading, True)
    half = fiber.spec.real_dimension

    def collapses(d, e, m):
        pi_a = fiber.rep.apply(AlgebraElement(fiber.spec, e.coords[:half]))
        pi_a_prime = fiber.rep.apply(AlgebraElement(fiber.spec, e.coords[half:]))
        lhs = d @ m - doubled.rep.apply(rho.apply(e)) @ d
        return lhs == p_plus @ commutator(d, pi_a_prime) + p_minus @ commutator(d, pi_a)

    return {
        "majorana_nonzero": not d_maj.is_zero(),
        "commuting": sum(commutator(d_maj, m).is_zero() for m in fiber.rep.basis_matrices),
        "collapsing": sum(
            collapses(d_maj, e, m) and collapses(fiber.dirac, e, m)
            for e, m in zip(basis_elements(doubled.spec), doubled.rep.basis_matrices)
        ),
        "untwisted": omega1_span(fiber, dirac=d_maj).dimension,
        "twisted": omega1_span(doubled, rho=rho, dirac=d_maj).dimension,
        "full_untwisted": omega1_span(fiber).dimension,
        "full_twisted": omega1_span(doubled, rho=rho).dimension,
    }


def test_criterion_5_majorana_block_spans():
    # Twisting the fiber by its grading does not make the Majorana block
    # generate one-forms (README, "A negative result"): the span is 0, and
    # the test checks the two premises of that proof as well as the value.
    c1 = _majorana_twist_case(YukawaParams.exact())
    c0 = _majorana_twist_case(YukawaParams.exact(k_r="0"))
    # 24 fiber basis matrices, 48 doubled basis elements
    ok = c1["majorana_nonzero"]
    ok &= all(c["commuting"] == 24 and c["collapsing"] == 48 for c in (c1, c0))
    ok &= all(c["untwisted"] == 0 and c["twisted"] == 0 for c in (c1, c0))
    ok &= all(c["full_untwisted"] > 0 and c["full_twisted"] == 2 * c["full_untwisted"]
              for c in (c1, c0))
    assert gate(5, ok, f"Majorana block nonzero {c1['majorana_nonzero']} (want True), "
                       f"commutes with {c1['commuting']}/24 and k_R=0 {c0['commuting']}/24 "
                       f"fiber basis matrices (want 24/24); untwisted {c1['untwisted']} (want 0), "
                       f"twisted {c1['twisted']} (want 0), k_R=0 gives "
                       f"{c0['untwisted']}/{c0['twisted']} (want 0/0); collapse identity "
                       f"{c1['collapsing']}/48 and k_R=0 {c0['collapsing']}/48 (want 48/48); "
                       f"full-D spans {c1['full_untwisted']}/{c1['full_twisted']} and k_R=0 "
                       f"{c0['full_untwisted']}/{c0['full_twisted']} (want u/2u, u > 0)")


def test_criterion_6_sign_regression(campaign):
    internal = check_axioms(build_internal_triple(YukawaParams.exact()))
    fiber = check_axioms(build_fiber_triple(YukawaParams.exact()))
    ok = internal.data["signs"] == {"eps": 1, "eps_prime": 1, "eps_dprime": -1}
    ok &= internal.data["ko_dimension"] == 6
    ok &= fiber.data["signs"] == {"eps": -1, "eps_prime": 1, "eps_dprime": -1}
    ok &= fiber.data["ko_dimension"] == 2

    preserved = all(
        inferred_signs(case["doubled"]).as_tuple() == inferred_signs(case["triple"]).as_tuple()
        for case in campaign
    )
    ok &= preserved
    assert gate(6, ok, "internal SM (+1,+1,-1) -> KO 6, fiber (-1,+1,-1) -> KO 2; "
                       f"twist preserves signs on {len(campaign)}/{len(campaign)} fuzz cases")


def test_criterion_7_compatibility_equivalence(campaign):
    agree = 0
    for case in campaign:
        report = check_compatibility(case["triple"].real_structure, case["rho"],
                                     case["doubled"].rep)
        named = {c.name: c.passed for c in report.checks}
        sign_exists = named["real_structure_twist_sign"]
        exchange = named["opposite_twist_exchange"]
        if sign_exists == exchange:
            agree += 1
    ok = agree == len(campaign)
    assert gate(7, ok, f"J R = eps''' R J holds iff rho(a°) = (rho(a))° on every basis "
                       f"element: {agree}/{len(campaign)} fuzz cases agree")
