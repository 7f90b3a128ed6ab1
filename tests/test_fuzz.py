import dataclasses
from fractions import Fraction

from spectriple.fuzz import EVEN_KO, _dirac_space, generate_cases
from spectriple.matrices import Matrix, commutator
from spectriple.scalars import QI_I
from spectriple.triple import check_axioms, check_first_order, check_order_zero, opposite_images


def test_generator_is_deterministic():
    a = generate_cases(42, 8)
    b = generate_cases(42, 8)
    assert [c.ko for c in a] == [c.ko for c in b]
    for x, y in zip(a, b):
        assert x.triple.dirac == y.triple.dirac
        assert x.triple.real_structure.U == y.triple.real_structure.U
        assert [m.tolist() for m in x.triple.rep.basis_matrices] == [
            m.tolist() for m in y.triple.rep.basis_matrices
        ]


def test_all_generated_triples_are_valid():
    for case in generate_cases(7, 24):
        report = check_axioms(case.triple)
        assert report.ok, report.render()
        assert report.data["ko_dimension"] == case.ko
        assert check_order_zero(case.triple).ok
        assert check_first_order(case.triple).ok


def test_requested_ko_class_is_respected():
    for ko in EVEN_KO:
        for case in generate_cases(3, 4, ko=ko):
            assert case.ko == ko
            assert check_axioms(case.triple).data["ko_dimension"] == ko


def test_generated_dirac_operators_are_often_nonzero():
    cases = generate_cases(11, 30)
    nonzero = sum(1 for c in cases if not c.triple.dirac.is_zero())
    assert nonzero >= 15


def _reference_dirac_dimension(t) -> int:
    """Dimension of the admissible Dirac space of t from all 2 n^2 real unknowns.

    Every axiom on D is a real-linear map evaluated at the unit operators
    E_ik and i E_ik: selfadjointness, grading anticommutation, J D = eps' D J
    and [[D, pi(e_a)], e_b°] over all basis pairs.  Each real coordinate of
    each map gives one constraint row, ranked by a dense Fraction
    elimination written here.
    """
    n, j, g = t.dim, t.real_structure.U, t.grading
    eps_prime = t.signs.eps_prime
    opposites = opposite_images(t)
    unknowns = [Matrix.unit(n, n, i, k, unit) for i in range(n) for k in range(n)
                for unit in (1, QI_I)]

    def images(d):
        yield d - d.adjoint()
        yield g @ d + d @ g
        yield j @ d.conj() - (d @ j).scale(eps_prime)
        for a in t.rep.basis_matrices:
            bracket = commutator(d, a)
            for b in opposites:
                yield commutator(bracket, b)

    columns = [[Fraction(part) for m in images(d) for i in range(n) for k in range(n)
                for part in (m.get(i, k).real, m.get(i, k).imag)] for d in unknowns]
    rows = [list(row) for row in zip(*columns) if any(row)]
    rank = 0
    for col in range(len(unknowns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / head[col]
                rows[r] = [x - f * y for x, y in zip(rows[r], head)]
        rank += 1
    return len(unknowns) - rank


def test_dirac_space_matches_the_all_unknowns_reference():
    """The generator's solve (support rule plus kernel) against the dense
    reference, on small cases of every KO class; every basis operator must
    also pass the axiom and first-order checkers."""
    seen = {ko: 0 for ko in EVEN_KO}
    for ko in EVEN_KO:
        for case in generate_cases(500 + ko, 24, ko=ko):
            t = case.triple
            if t.dim > 4 or seen[ko] == 4:
                continue
            seen[ko] += 1
            basis = _dirac_space(t.rep, t.grading, t.real_structure)
            assert len(basis) == _reference_dirac_dimension(t), (ko, seen[ko])
            for d in basis:
                candidate = dataclasses.replace(t, dirac=d)
                assert check_axioms(candidate).ok
                assert check_first_order(candidate).ok
    assert seen == {ko: 4 for ko in EVEN_KO}
