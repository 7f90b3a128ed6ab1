import random
from fractions import Fraction

import pytest

from spectriple.matrices import Antilinear, Matrix, commutator, sign_relation
from spectriple.scalars import QI

from conftest import SIGMA1, mat, qi


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return Matrix.from_rows(
        [[QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
             Fraction(rng.randint(-5, 5), rng.randint(1, 4))) for _ in range(m)]
         for _ in range(n)]
    )


def test_product_shape_rules():
    a = random_matrix(random.Random(0), 2, 3)
    b = random_matrix(random.Random(1), 3, 2)
    assert (a @ b).nrows == 2 and (a @ b).ncols == 2
    with pytest.raises(ValueError):
        _ = b @ b


def test_adjoint_antihomomorphism():
    rng = random.Random(3)
    for _ in range(25):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.transpose().transpose() == a


def test_antilinear_with_identity_is_conjugation():
    j = Antilinear(Matrix.identity(2))
    a = mat([[1, 1j], [2, -3j]])
    assert j.conjugate_operator(a) == a.conj()
    real = mat([[1, 2], [3, 4]])
    assert j.conjugate_operator(real) == real


def test_antilinear_swap_on_diag_i():
    # hand-multiplied 2x2: swap * conj(diag(i, -i)) * swap = diag(i, -i)
    j = Antilinear(SIGMA1)
    a = mat([[1j, 0], [0, -1j]])
    assert j.conjugate_operator(a) == a


def test_antilinear_applied_twice_is_conjugation_by_j_squared():
    rng = random.Random(5)
    for _ in range(10):
        u = _random_signed_permutation(rng, 4)
        j = Antilinear(u)
        a = random_matrix(rng, 4)
        twice = j.conjugate_operator(j.conjugate_operator(a))
        j2 = j.squared()
        assert twice == j2 @ a @ j2.adjoint()


def _random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    entries = {}
    for i, p in enumerate(perm):
        entries[(p, i)] = QI(rng.choice((1, -1)))
    return Matrix(n, n, entries)


def test_antilinear_rejects_non_unitary():
    with pytest.raises(ValueError):
        Antilinear(mat([[1, 0], [0, 2]]))


def test_dimension_mismatch_errors():
    j = Antilinear(Matrix.identity(2))
    with pytest.raises(ValueError):
        j.conjugate_operator(Matrix.identity(3))


def test_square_sign():
    assert Antilinear(Matrix.identity(3)).square_sign() == 1
    e = mat([[0, -1], [1, 0]])
    assert Antilinear(e).square_sign() == -1
    assert Antilinear(mat([[0, 1], [1j, 0]])).square_sign() is None


def test_sign_relation():
    a = mat([[1, 2], [0, -1]])
    assert sign_relation(a, a) == (1, 0.0)
    assert sign_relation(a, -a) == (-1, 0.0)
    # both signs hold for zero operators; +1 is reported
    assert sign_relation(Matrix.zeros(2), Matrix.zeros(2)) == (1, 0.0)
    # otherwise the residual is the distance to the nearer sign
    b = mat([[1, 2], [0, 1]])
    assert sign_relation(a, b) == (None, 2.0)
    assert sign_relation(a, -b) == (None, 2.0)


def test_kron_and_trace():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    k = a.kron(b)
    assert k.nrows == 4
    assert k.get(0, 1) == qi(1)
    assert k.get(0, 3) == qi(2)
    assert a.trace() == qi(5)
    assert commutator(a, Matrix.identity(2)).is_zero()


def test_float_mode_equality_uses_tolerance():
    a = Matrix.from_rows([[1.0, 0.0], [0.0, 1.0]], exact=False)
    b = Matrix.from_rows([[1.0 + 1e-13, 0.0], [0.0, 1.0]], exact=False)
    assert a == b
    c = Matrix.from_rows([[1.0 + 1e-3, 0.0], [0.0, 1.0]], exact=False)
    assert a != c
