import random
from fractions import Fraction

import pytest

from spectriple.algebra import AlgebraElement, Representation, random_element
from spectriple.matrices import Matrix, commutator
from spectriple.realpart import real_part, verify_doubling_dichotomy, verify_real_part
from spectriple.scalars import QI
from spectriple.standard_model import (FIBER_DIM, INTERNAL_DIM, SM_SPEC, SMIndex, SMModels, YukawaParams,
                                       build_fiber_triple, build_internal_triple, build_sm_models,
                                       build_twisted_sm, doubled_block_placements, fiber_index,
                                       gamma_f_sign, internal_grading, internal_index,
                                       internal_majorana, sflip_identification,
                                       verify_sm_real_part)
from spectriple.triple import (check_axioms, check_first_order, check_order_zero,
                               check_twisted_first_order, inferred_signs, ko_dimension,
                               opposite_action)
from spectriple.twist import check_compatibility


def test_index_bijections():
    seen = set()
    for flat in range(INTERNAL_DIM):
        idx = SMIndex.from_flat(flat)
        assert idx.flat() == flat
        seen.add((idx.c, idx.i, idx.alpha))
    assert len(seen) == 32
    seen.clear()
    for flat in range(FIBER_DIM):
        idx = SMIndex.from_flat(flat, fiber=True)
        assert idx.flat() == flat
        seen.add((idx.c, idx.sdot, idx.s, idx.i, idx.alpha))
    assert len(seen) == 128


def test_flavour_labels():
    assert SMIndex.from_flat(internal_index(0, 0, 0)).label() == "C=0 I=0 nu_R"
    assert SMIndex.from_flat(internal_index(1, 2, 3)).label() == "C=1 I=2 d_L"


def test_grading_squares_to_identity_and_is_traceless():
    g = internal_grading()
    assert (g @ g - Matrix.identity(INTERNAL_DIM)).is_zero()
    # direct count over the 32 slots: 8 right particles and 8 left
    # antiparticles at +1, the other 16 at -1
    assert g.trace() == 0
    plus = sum(1 for f in range(INTERNAL_DIM)
               if gamma_f_sign(SMIndex.from_flat(f).c, SMIndex.from_flat(f).alpha) == 1)
    assert plus == 16


def test_fiber_grading_slot_enumeration():
    # the +1 eigenspace is exactly: right-handed with (C=0, dotted flavour)
    # or (C=1, undotted), and left-handed with the two cases swapped
    fiber = build_fiber_triple()
    for flat in range(FIBER_DIM):
        idx = SMIndex.from_flat(flat, fiber=True)
        dotted = idx.alpha < 2
        in_plus = ((idx.s == 0 and ((idx.c == 0 and dotted) or (idx.c == 1 and not dotted)))
                   or (idx.s == 1 and ((idx.c == 0 and not dotted) or (idx.c == 1 and dotted))))
        assert fiber.grading.get(flat, flat) == (1 if in_plus else -1)


def test_majorana_block_commutes_with_algebra():
    p = YukawaParams.exact()
    t = build_internal_triple(p)
    d_maj = internal_majorana(p)
    for m in t.rep.basis_matrices:
        assert commutator(d_maj, m).is_zero()


def test_internal_triple_passes_everything():
    t = build_internal_triple()
    report = check_axioms(t)
    assert report.ok, report.render()
    assert report.data["ko_dimension"] == 6
    assert inferred_signs(t).as_tuple() == (1, 1, -1)
    assert check_order_zero(t).ok
    assert check_first_order(t).ok


def test_degenerate_parameters_still_pass():
    p = YukawaParams.exact(y_nu="0", y_e="0", y_u="0", y_d="0", k_r="0")
    t = build_internal_triple(p)
    assert t.dirac.is_zero()
    assert check_axioms(t).ok


def test_fiber_triple_signs():
    t = build_fiber_triple()
    report = check_axioms(t)
    assert report.ok, report.render()
    assert report.data["ko_dimension"] == 2
    j = t.real_structure
    assert j.square_sign() == -1
    assert (j.U @ t.grading.conj() + t.grading @ j.U).is_zero()  # J Gamma = -Gamma J
    assert check_order_zero(t).ok
    assert check_first_order(t).ok


def test_twisted_sm_block_pattern_and_conditions():
    p = YukawaParams.exact()
    doubled, rho = build_twisted_sm(p)
    assert doubled.spec.real_dimension == 48
    assert check_twisted_first_order(doubled, rho).ok
    compat = check_compatibility(doubled.real_structure, rho, doubled.rep)
    assert compat.ok and compat.data["eps_triple"] == 1


def test_doubled_action_collapses_on_equal_pairs():
    p = YukawaParams.exact()
    fiber = build_fiber_triple(p)
    doubled, _ = build_twisted_sm(p)
    rng = random.Random(12)
    for _ in range(5):
        a = random_element(SM_SPEC, rng)
        pair = AlgebraElement(doubled.spec, a.coords + a.coords)
        assert doubled.rep.apply(pair) == fiber.rep.apply(a)


def test_real_structure_exchanges_and_conjugates_the_c_blocks():
    # J pi(x) J^{-1} equals the entrywise conjugate with C flipped
    p = YukawaParams.exact()
    doubled, _ = build_twisted_sm(p)
    rng = random.Random(14)

    def c_flip(flat):
        idx = SMIndex.from_flat(flat, fiber=True)
        return fiber_index(1 - idx.c, idx.sdot, idx.s, idx.i, idx.alpha)

    for _ in range(3):
        x = random_element(doubled.spec, rng)
        m = doubled.rep.apply(x)
        conjugated = doubled.real_structure.conjugate_operator(m)
        expected = Matrix(FIBER_DIM, FIBER_DIM,
                          {(c_flip(i), c_flip(j)): v.conjugate() for (i, j), v in m.entries()})
        assert conjugated == expected


def test_twist_exchanges_primed_and_unprimed_components():
    doubled, rho = build_twisted_sm()
    k = SM_SPEC.real_dimension
    rng = random.Random(15)
    x = random_element(doubled.spec, rng)
    swapped = rho.apply(x)
    assert swapped.coords == x.coords[k:] + x.coords[:k]


def test_verify_sm_real_part_passes():
    report = verify_sm_real_part()
    assert report.ok, report.render()
    assert report.data["twisted_real_dimension"] == 1
    assert report.data["fiber_intersection_dimension"] == 1
    assert report.data["fiber_real_part_structure"] == "R"


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_verify_sm_real_part_given_the_models_gives_the_same_report(exact):
    p = YukawaParams.random(random.Random(31), exact)
    models = build_sm_models(p)
    assert isinstance(models, SMModels)
    assert verify_sm_real_part(models).to_dict() == verify_sm_real_part(p).to_dict()


def test_models_doubled_representation_is_the_block_plan():
    rng = random.Random(32)
    for _ in range(2):
        models = build_sm_models(YukawaParams.random(rng))
        expected = Representation.from_plan(SM_SPEC.doubled(), FIBER_DIM, doubled_block_placements(),
                                            validate=False)
        assert models.doubled.rep == expected


@pytest.mark.slow
def test_fiber_dichotomy_takes_intersection_branch():
    # KO 2: the doubled real part coincides with the copy of A n A°
    fiber = build_fiber_triple()
    report = verify_doubling_dichotomy(fiber, sflip_identification())
    assert report.ok, report.render()
    assert report.data["branch"] == "intersection with the opposite"
    assert report.data["doubled_real_dimension"] == 1
    assert report.data["intersection_dimension"] == 1


@pytest.mark.slow
def test_twisted_real_part_full_verification():
    doubled, rho = build_twisted_sm()
    report = verify_real_part(doubled, rho)
    assert report.ok, report.render()
    assert report.data["real_dimension"] == 1
    assert report.data["structure"] == "R"


def test_real_part_independent_of_yukawa_parameters():
    rng = random.Random(99)
    results = []
    for _ in range(2):
        p = YukawaParams.random(rng)
        doubled, rho = build_twisted_sm(p)
        rp = real_part(doubled, rho)
        results.append(rp)
        assert rp.real_dimension == 1
    assert results[0].basis.equals(results[1].basis)


def test_opposite_action_swaps_q_and_m_sectors():
    # on the internal model a° acts on particles through the antiparticle
    # pattern: J (star, then conjugate) puts plain c on the nu_R slot,
    # where pi(a) itself would put c as well but pi(b) for b in the M-sector
    # pattern; the quark slots of a° carry the transposed colour block
    p = YukawaParams.exact()
    t = build_internal_triple(p)
    coords = [Fraction(0)] * SM_SPEC.real_dimension
    coords[0], coords[1] = Fraction(2), Fraction(3)  # c = 2 + 3i
    m01_re = 6 + 2 * (0 * 3 + 1)  # m[0][1] real coordinate offset
    coords[m01_re] = Fraction(5)  # m = 5 E_01
    a = AlgebraElement(SM_SPEC, tuple(coords))
    op = opposite_action(t, a)
    # particle lepton slots now carry c itself (conjugated twice)
    slot = internal_index(0, 0, 0)
    assert op.get(slot, slot) == QI(2, 3)
    # particle quark slots carry the transpose of m: entry (I=2, I=1)
    r = internal_index(0, 2, 0)
    cidx = internal_index(0, 1, 0)
    assert op.get(r, cidx) == QI(5)
    assert op.get(cidx, r) == 0
