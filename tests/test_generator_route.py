"""Order zero and (twisted) first order decided on algebra generators give
the reports of the sweep over every basis pair, passing and failing.

The oracle below is that full sweep, written out here: Report.sweep over
basis_pairs of every coordinate basis element.  The checkers must match its
Report.to_dict() exactly, in exact and in float mode.
"""

import json
import os
import random

import pytest

from spectriple.algebra import basis_elements
from spectriple.docio import DocumentError, emit_document, parse_document
from spectriple.matrices import Antilinear, Matrix, commutator
from spectriple.reports import Report
from spectriple.scalars import QI, as_scalar
from spectriple.standard_model import YukawaParams, build_sm_models
from spectriple.triple import basis_pairs, check_first_order, check_order_zero, check_twisted_first_order
from spectriple.twist import identity_twist

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def full_basis_reports(t, rho=None) -> list[dict]:
    """Order zero and (twisted) first order swept over every basis pair."""
    basis = basis_elements(t.spec, t.rep._exact())
    mats, j = t.rep.basis_matrices, t.real_structure
    twist = identity_twist(t.spec) if rho is None else rho

    def opposite(x):
        return j.conjugate_operator(t.rep.apply(x.star()))

    order_zero = Report("order-zero condition")
    order_zero.sweep("order_zero", basis_pairs(mats, [opposite(e) for e in basis], commutator))

    moved = mats if rho is None else [t.rep.apply(rho.apply(e)) for e in basis]
    brackets = [t.dirac @ m - m_rho @ t.dirac for m, m_rho in zip(mats, moved)]
    opposites = [(opposite(e), opposite(twist.apply_inverse(e))) for e in basis]
    title, name = (("first-order condition", "first_order") if rho is None
                   else ("twisted first-order condition", "twisted_first_order"))
    first_order = Report(title)
    first_order.sweep(name, basis_pairs(brackets, opposites, lambda x, pair: x @ pair[0] - pair[1] @ x))
    if rho is not None:
        first_order.add("twist_displacement", True, max((m - m_rho).max_abs() for m, m_rho in zip(mats, moved)),
                        "max |pi(a) - pi(rho(a))| over basis")
    return [order_zero.to_dict(), first_order.to_dict()]


def checked_reports(t, rho=None) -> list[dict]:
    first = check_first_order(t) if rho is None else check_twisted_first_order(t, rho)
    return [check_order_zero(t).to_dict(), first.to_dict()]


def agree(t, rho=None) -> bool:
    """Assert the checkers' reports equal the oracle's; returns whether they pass."""
    expected = full_basis_reports(t, rho)
    assert checked_reports(t, rho) == expected
    return all(r["ok"] for r in expected)


@pytest.fixture(scope="module", params=["exact", "float"])
def models(request):
    if request.param == "exact":
        return build_sm_models(YukawaParams.exact())
    return build_sm_models(YukawaParams(0.5 + 0j, 1 / 3 + 0j, 2 / 3 + 0j, 0.6 + 0j, 1.0))


def with_dirac(t, d: Matrix):
    return type(t)(t.spec, t.rep, d, t.grading, t.real_structure, t.signs)


def selfadjoint_mutation(t, rng) -> Matrix:
    """D plus v E_ik + conj(v) E_ki for a random slot pair and a small Gaussian rational v."""
    exact = t.rep._exact()
    i, k = rng.sample(range(t.dim), 2)
    re, im = rng.randint(-3, 3) or 1, rng.randint(-3, 3)
    v = QI(re, im) if exact else complex(re, im)
    bump = Matrix.from_entries(t.dim, t.dim, [(i, k, v)], exact)
    return t.dirac + bump + bump.adjoint()


def test_passing_standard_model_triples(models):
    assert agree(models.internal)
    assert agree(models.fiber)
    assert agree(models.doubled, models.rho)


@pytest.mark.parametrize("name", ["ko0_toy", "ko6_toy"])
def test_passing_fixtures(name):
    with open(os.path.join(FIXTURES, f"{name}.json")) as f:
        assert agree(parse_document(json.load(f)).triple)


def test_selfadjoint_dirac_mutations(models):
    rng = random.Random(2020)
    # each of these twelve breaks first order
    assert not any(agree(with_dirac(models.internal, selfadjoint_mutation(models.internal, rng)))
                   for _ in range(12))


def test_twisted_dirac_mutation(models):
    rng = random.Random(7)
    assert not any(agree(with_dirac(models.doubled, selfadjoint_mutation(models.doubled, rng)), models.rho)
                   for _ in range(2))


def test_real_structure_that_breaks_order_zero(models):
    # J composed with a swap of slots 0 and 5 is still antiunitary, so the
    # generator route is tried, fails, and the full sweep names the offender
    t = models.internal
    one = as_scalar(1, t.rep._exact())
    swap = Matrix(t.dim, t.dim, {**{(s, s): one for s in range(t.dim) if s not in (0, 5)},
                                 (0, 5): one, (5, 0): one})
    broken = type(t)(t.spec, t.rep, t.dirac, t.grading, Antilinear(t.real_structure.U @ swap), t.signs)
    assert not agree(broken)
    assert not check_order_zero(broken).ok


def test_non_unitary_real_structure(models):
    t = models.internal
    exact = t.rep._exact()
    doc = json.loads(json.dumps(emit_document(t, "exact" if exact else "float")))
    entry = doc["real_structure"]["u"]["entries"][0]
    entry[2] = ["2", "0"] if exact else [2.0, 0.0]
    with pytest.raises(DocumentError):
        parse_document(doc)
    if not exact:
        # within the float tolerance a document's U parses without being exactly unitary
        entry[2] = [1 + 1e-12, 0.0]
        parsed = parse_document(doc).triple
        u = parsed.real_structure.U
        assert u.is_unitary() and (u @ u.adjoint() - Matrix.identity(t.dim, False)).max_abs() > 0
        assert agree(parsed)
    # built without the unitarity check, J takes the full sweep
    scale = Matrix(t.dim, t.dim, {(s, s): as_scalar(2 if s == 6 else 1, exact) for s in range(t.dim)})
    u = t.real_structure.U @ scale
    broken = type(t)(t.spec, t.rep, t.dirac, t.grading, Antilinear(u, check=False), t.signs)
    assert not u.is_unitary()
    assert not agree(broken)
