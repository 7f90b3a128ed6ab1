import random
from fractions import Fraction

import pytest

from spectriple.subspaces import (Echelon, RealSubspaceBasis, intersect_coefficients, kernel,
                                  real_nullspace, solve_real_linear, subspace_intersect,
                                  subspace_sum_dim)


def frac_rows(rows):
    return [[Fraction(v) for v in row] for row in rows]


def test_nullspace_of_zero_map_is_everything():
    basis = real_nullspace([], 4)
    assert basis.dim == 4


def test_nullspace_of_identity_is_trivial():
    rows = frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert real_nullspace(rows, 3).dim == 0


def test_nullspace_single_difference_row():
    basis = real_nullspace(frac_rows([[1, -1]]), 2)
    assert basis.dim == 1
    (v,) = basis.vectors
    assert v[0] == v[1] != 0


def test_integer_rows_stay_exact():
    # int/int pivot normalization must not fall into float arithmetic
    basis = real_nullspace([[3, -1]], 2)
    assert basis.dim == 1
    (v,) = basis.vectors
    assert 3 * v[0] - v[1] == 0
    rng = random.Random(5)
    for _ in range(20):
        rows = [[rng.randint(-7, 7) for _ in range(4)] for _ in range(3)]
        for v in real_nullspace(rows, 4).vectors:
            for row in rows:
                assert sum(c * x for c, x in zip(row, v)) == 0


def test_nullspace_vectors_annihilate_rows():
    rng = random.Random(11)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
        for v in real_nullspace(rows, m).vectors:
            for row in rows:
                assert sum(c * x for c, x in zip(row, v)) == 0


def test_float_mode_residuals_below_scaled_tolerance():
    rng = random.Random(13)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(2, 6)
        rows = [[rng.uniform(-4, 4) for _ in range(m)] for _ in range(n)]
        scale = max(max(abs(v) for v in row) for row in rows)
        for v in real_nullspace(rows, m).vectors:
            vnorm = max(abs(x) for x in v)
            for row in rows:
                assert abs(sum(c * x for c, x in zip(row, v))) <= 1e-9 * max(1.0, scale * vnorm)


def test_intersection_of_identical_spans():
    b = RealSubspaceBasis.spanned_by(3, [tuple(map(Fraction, v)) for v in [(1, 0, 1), (0, 1, 0)]])
    inter = subspace_intersect(b, b)
    assert inter.dim == b.dim
    assert inter.equals(b)


def test_intersection_of_orthogonal_lines_is_zero():
    b1 = RealSubspaceBasis.spanned_by(2, [(Fraction(1), Fraction(0))])
    b2 = RealSubspaceBasis.spanned_by(2, [(Fraction(0), Fraction(1))])
    assert subspace_intersect(b1, b2).dim == 0


def test_intersection_of_planes_is_common_line():
    f = Fraction
    b1 = RealSubspaceBasis.spanned_by(3, [(f(1), f(0), f(0)), (f(0), f(1), f(0))])
    b2 = RealSubspaceBasis.spanned_by(3, [(f(0), f(1), f(0)), (f(0), f(0), f(1))])
    inter = subspace_intersect(b1, b2)
    assert inter.dim == 1
    assert inter.contains((f(0), f(1), f(0)))


def test_ambient_mismatch_raises():
    b1 = RealSubspaceBasis.spanned_by(2, [(Fraction(1), Fraction(0))])
    b2 = RealSubspaceBasis.spanned_by(3, [(Fraction(1), Fraction(0), Fraction(0))])
    with pytest.raises(ValueError):
        subspace_intersect(b1, b2)
    with pytest.raises(ValueError):
        intersect_coefficients(b1, b2)


def test_grassmann_identity_on_random_subspaces():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(1, 6)

        def draw_basis():
            vecs = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n))
                    for _ in range(rng.randint(0, n))]
            return RealSubspaceBasis.spanned_by(n, vecs)

        b1, b2 = draw_basis(), draw_basis()
        inter = subspace_intersect(b1, b2)
        assert b1.dim + b2.dim == subspace_sum_dim(b1, b2) + inter.dim


def test_solve_real_linear():
    f = Fraction
    cols = [(f(1), f(0), f(2)), (f(0), f(1), f(1))]
    target = (f(3), f(4), f(10))
    coeffs = solve_real_linear(cols, target)
    assert coeffs == (f(3), f(4))
    assert solve_real_linear(cols, (f(1), f(0), f(0))) is None


def test_echelon_contains():
    ech = Echelon(3)
    ech.add({0: Fraction(1), 1: Fraction(1)})
    ech.add({1: Fraction(1), 2: Fraction(1)})
    assert ech.contains({0: Fraction(1), 2: Fraction(-1)})
    assert not ech.contains({0: Fraction(1), 2: Fraction(1)})


def test_spanned_by_filters_dependent_vectors():
    f = Fraction
    basis = RealSubspaceBasis.spanned_by(2, [(f(1), f(1)), (f(2), f(2)), (f(1), f(0))])
    assert basis.dim == 2


# -- kernel against an independent dense reference ---------------------------


def _reference_rank(rows) -> int:
    """Rank by dense Fraction Gauss-Jordan elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][c]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _random_columns(rng, m):
    """Columns in R^m: random, zero, repeated and dependent ones, half as sparse dicts."""
    columns = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.choice(("random", "random", "zero", "repeat", "combination"))
        if kind == "zero" or (kind != "random" and not columns):
            col = [Fraction(0)] * m
        elif kind == "repeat":
            col = list(rng.choice(columns))
        elif kind == "combination":
            col = [Fraction(0)] * m
            for other in rng.sample(columns, rng.randint(1, len(columns))):
                c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                col = [a + c * b for a, b in zip(col, other)]
        else:
            col = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else Fraction(0)
                   for _ in range(m)]
        columns.append(col)
    return columns


def test_kernel_matches_dense_reference_on_random_systems():
    rng = random.Random(23)
    for _ in range(300):
        m = rng.randint(1, 8)
        dense = _random_columns(rng, m)
        given = [tuple(c) if rng.random() < 0.5 else {k: v for k, v in enumerate(c) if v != 0}
                 for c in dense]
        basis = kernel(given)
        assert basis.ambient == len(dense)
        # the columns as the rows of the transposed system, one per coordinate
        rows = [[col[k] for col in dense] for k in range(m)]
        assert basis.dim == len(dense) - _reference_rank(rows)
        for v in basis.vectors:
            assert all(sum(c * x for c, x in zip(row, v)) == 0 for row in rows)
        assert _reference_rank([list(v) for v in basis.vectors]) == basis.dim
