"""Twisting automorphisms, twisted commutators and the twist by grading.

A twist permutes the summands of a block algebra (optionally composing with
entrywise conjugation per summand) and may carry a unitary R implementing it
on operators, rho(O) = R O R*.  Twists are validated against a concrete
representation: the regularity rule rho(a*) = (rho^{-1}(a))* must hold, and
R, when present, must actually implement the permutation.

The untwisted case is the identity twist: rho=None means identity_twist(spec).
twisted_image is the one place a twist moves pi(x), and returns pi(x) itself
under the identity; twisted_bracket and opposite_pair build x m - rho(m) x
and (b°, rho°(b°)) for every checker.

The twist by grading doubles the algebra, lets the two copies act on the
+1 / -1 eigenspaces of the grading, and twists by the flip of the copies.
The flip is inner: R exchanges the eigenspaces through an explicit unitary
identification, which the caller may supply; the default pairs the +1 and -1
basis slots of a diagonal grading in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import TYPE_CHECKING

from . import scalars
from .algebra import AlgebraElement, AlgebraSpec, Placement, Representation
from .algebra import basis_elements, conj_block
from .matrices import Antilinear, Matrix, sign_relation
from .reports import Report

if TYPE_CHECKING:
    from .triple import FiniteRealTriple


class TwistError(ValueError):
    pass


@dataclass(frozen=True)
class TwistData:
    """Algebra automorphism: summand permutation, conjugation flags, inner R.

    apply() sends summand slot i to the block drawn from slot perm[i]; when
    conj[i] is set that block is entrywise conjugated.
    """

    perm: tuple
    conj: tuple = ()
    R: Matrix | None = None

    def __post_init__(self):
        perm = tuple(self.perm)
        object.__setattr__(self, "perm", perm)
        conj = tuple(self.conj) if self.conj else (False,) * len(perm)
        object.__setattr__(self, "conj", conj)
        if sorted(perm) != list(range(len(perm))):
            raise TwistError("perm is not a permutation")
        if len(conj) != len(perm):
            raise TwistError("one conjugation flag per summand is required")

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.perm)) and not any(self.conj)

    def is_involution(self) -> bool:
        return all(self.perm[self.perm[i]] == i for i in range(len(self.perm))) and all(
            self.conj[i] == self.conj[self.perm[i]] for i in range(len(self.perm))
        )

    def _check_spec(self, spec: AlgebraSpec):
        if len(self.perm) != len(spec.summands):
            raise TwistError("twist permutation does not match the algebra")
        for i, p in enumerate(self.perm):
            if spec.summands[i] != spec.summands[p]:
                raise TwistError(f"twist maps unlike summands {p} -> {i}")

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        return self._move(elem, inverse=False)

    def apply_inverse(self, elem: AlgebraElement) -> AlgebraElement:
        return self._move(elem, inverse=True)

    def _move(self, elem: AlgebraElement, inverse: bool) -> AlgebraElement:
        self._check_spec(elem.spec)
        kinds, slices = elem.spec.summands, elem.spec.slices
        out = [None] * len(self.perm)
        for i, p in enumerate(self.perm):
            source, target = (i, p) if inverse else (p, i)
            part = elem.coords[slices[source]]
            if self.conj[i]:
                part = conj_block(kinds[source], part)
            out[target] = part
        return AlgebraElement(elem.spec, tuple(chain.from_iterable(out)))

    def validate(self, spec: AlgebraSpec, rep: Representation) -> Report:
        """Regularity rho(a*) = (rho^{-1} a)* and, when R is given, that R
        is unitary and implements rho on the representation."""
        report = Report("twist data")
        self._check_spec(spec)
        basis = basis_elements(spec, rep._exact())
        regular = all((self.apply(e.star()) - self.apply_inverse(e).star()).is_zero() for e in basis)
        report.add("regularity", regular, detail="rho(a*) = (rho^-1(a))* on basis")
        if self.R is not None:
            report.add("inner_unitary", self.R.is_unitary())
            radj = self.R.adjoint()
            report.sweep("inner_implements_twist",
                         ((f"basis element {k}", rep.apply(self.apply(e)) - self.R @ m @ radj)
                          for k, (e, m) in enumerate(zip(basis, rep.basis_matrices))),
                         "pi(rho(a)) = R pi(a) R* on basis")
        return report


def identity_twist(spec: AlgebraSpec) -> TwistData:
    return TwistData(tuple(range(len(spec.summands))))


def twisted_image(rho: TwistData, m: Matrix, image, inverse: bool = False) -> Matrix:
    """pi(rho(x)) from m = pi(x) (pi(rho^{-1}(x)) if inverse), as image(move).

    The identity twist returns m itself without calling image: the one
    identity shortcut, so untwisted checks cost no more than before."""
    if rho.is_identity():
        return m
    return image(rho.apply_inverse if inverse else rho.apply)


def twisted_bracket(x: Matrix, m: Matrix, m_rho: Matrix) -> Matrix:
    """[x, m]_rho = x m - m_rho x, given m_rho = rho(m) (or rho°(m) for m = b°)."""
    return x @ m - m_rho @ x


def opposite_pair(rep: Representation, rho: TwistData, x: AlgebraElement,
                  j: Antilinear | None = None) -> tuple[Matrix, Matrix]:
    """(x°, rho°(x°)) with x° = J pi(x*) J^{-1} and rho°(x°) = (rho^{-1}(x))°.

    Without J, x° is pi(x*), its form on elements commuting with J.
    """
    def opposite(y: AlgebraElement) -> Matrix:
        m = rep.apply(y.star())
        return m if j is None else j.conjugate_operator(m)

    o = opposite(x)
    return o, twisted_image(rho, o, lambda move: opposite(move(x)), inverse=True)


def twisted_commutator(d: Matrix, a_matrix: Matrix, rho: TwistData | None = None,
                       rep: Representation | None = None) -> Matrix:
    """[D, a]_rho = D a - rho(a) D.

    With no twist (the identity twist) this is the ordinary commutator.
    rho acts on the operator through R when present; otherwise the matrix
    must be recognized as pi(x) so the permutation can act on coordinates.
    """
    if d.nrows != d.ncols or a_matrix.nrows != a_matrix.ncols or d.nrows != a_matrix.nrows:
        raise ValueError("twisted commutator needs square operators of equal size")
    if rho is None:
        rho = identity_twist(rep.spec if rep is not None else AlgebraSpec(()))

    def move_operator(move):
        if rho.R is not None:
            return rho.R @ a_matrix @ rho.R.adjoint()
        if rep is None:
            raise TwistError("a permutation-only twist needs the representation to act on operators")
        x = rep.pullback(a_matrix)
        if x is None:
            raise TwistError("operator is not in the image of the representation")
        return rep.apply(move(x))

    return twisted_bracket(d, a_matrix, twisted_image(rho, a_matrix, move_operator))


def eigenprojections(grading: Matrix, exact: bool) -> tuple[Matrix, Matrix]:
    ident = Matrix.identity(grading.nrows, exact)
    half = scalars.QI(scalars.rational(1, 2)) if exact else 0.5
    return (ident + grading).scale(half), (ident - grading).scale(half)


def _grading_signs(grading: Matrix, exact: bool) -> list[int] | None:
    """Diagonal of a diagonal grading as +-1 (0 where zero); None if not of that form."""
    one = scalars.as_scalar(1, exact)
    signs = [0] * grading.nrows
    for (i, j), v in grading.entries():
        if i != j:
            return None
        if scalars.is_zero(v - one):
            signs[i] = 1
        elif scalars.is_zero(v + one):
            signs[i] = -1
        else:
            return None
    return signs


def default_identification(grading: Matrix, exact: bool) -> Matrix:
    """Pair the +1 and -1 slots of a diagonal grading in index order."""
    signs = _grading_signs(grading, exact)
    if signs is None or 0 in signs:
        raise TwistError("default identification needs a diagonal +-1 grading; "
                         "supply one explicitly")
    plus = [i for i, s in enumerate(signs) if s == 1]
    minus = [i for i, s in enumerate(signs) if s == -1]
    if len(plus) != len(minus):
        raise TwistError("grading eigenspaces have unequal dimensions")
    one = scalars.as_scalar(1, exact)
    return Matrix(grading.nrows, grading.ncols, {(p, m): one for p, m in zip(plus, minus)})


def twist_by_grading(t: FiniteRealTriple, identification: Matrix | None = None
                     ) -> tuple[FiniteRealTriple, TwistData]:
    """Double the algebra onto the grading eigenspaces and twist by the flip.

    Returns the doubled triple (same Hilbert space, Dirac operator, grading
    and real structure) and the flip twist with its implementing unitary
    R = W + W*, where W is the supplied partial isometry identifying the -1
    eigenspace with the +1 eigenspace.  The identification must carry the
    representation on one eigenspace to the one on the other; this is
    validated and is an error otherwise.  _split_plan's plan is attached
    unrebuilt: it gives exactly the projected matrices P+- pi(e_k).
    """
    if t.grading is None:
        raise TwistError("twist by grading needs a graded triple")
    exact = t.rep._exact()
    p_plus, p_minus = eigenprojections(t.grading, exact)
    dim_plus = p_plus.trace()
    dim_minus = p_minus.trace()
    if not scalars.is_zero(dim_plus - dim_minus):
        raise TwistError("grading eigenspaces have unequal dimensions")

    w = default_identification(t.grading, exact) if identification is None else identification
    if not (w - p_plus @ w @ p_minus).is_zero():
        raise TwistError("identification must map the -1 eigenspace onto the +1 eigenspace")
    r = w + w.adjoint()
    if not r.is_unitary():
        raise TwistError("identification does not yield a unitary flip")

    doubled_spec = t.spec.doubled()
    mats = [p_plus @ m for m in t.rep.basis_matrices] + [p_minus @ m for m in t.rep.basis_matrices]
    rep2 = Representation(doubled_spec, t.dim, mats, plan=_split_plan(t, exact), validate=True)

    ns = len(t.spec.summands)
    rho = TwistData(tuple(range(ns, 2 * ns)) + tuple(range(ns)), R=r)
    validation = rho.validate(doubled_spec, rep2)
    if not validation.ok:
        raise TwistError(
            "identification is not compatible with the representation: "
            + "; ".join(c.name for c in validation.failures())
        )

    return replace(t, spec=doubled_spec, rep=rep2), rho


def _split_plan(t: FiniteRealTriple, exact: bool):
    """Assignment plan for the doubled representation, when one exists.

    A placement lying entirely inside one grading eigenspace is assigned to
    the corresponding copy of the algebra.  No rebuild is needed to check it
    (the tests do): with a diagonal +-1 grading, P+- keeps exactly the rows
    of the placements it assigns to its copy.  Returns None when the grading
    is not diagonal, a placement straddles the eigenspaces, or the input
    representation carries no plan.
    """
    if t.rep.plan is None:
        return None
    signs = _grading_signs(t.grading, exact)
    if signs is None:
        return None
    ns = len(t.spec.summands)
    out = []
    for p in t.rep.plan:
        row_signs = {signs[i] for i in p.rows}
        if row_signs == {1}:
            out.append(p)
        elif row_signs == {-1}:
            out.append(Placement(p.summand + ns, p.rows, p.cols, p.conj))
        else:
            return None
    return tuple(out)


def compatibility_sign(j: Antilinear, rho: TwistData) -> int | None:
    """The sign s with J R = s R J, or None when neither sign works."""
    return _compatibility_relation(j, rho)[0]


def _compatibility_relation(j: Antilinear, rho: TwistData):
    """matrices.sign_relation of J R against R J: (sign or None, distance)."""
    if rho.R is None:
        raise TwistError("compatibility needs an inner twist (R present)")
    return sign_relation(j.U @ rho.R.conj(), rho.R @ j.U)


def check_compatibility(j: Antilinear, rho: TwistData, rep: Representation) -> Report:
    """Compatibility of the real structure with an inner twist.

    Two formulations are verified and compared: the sign relation
    J R = eps''' R J, and the exchange rule rho(a°) = (rho(a))° on every
    basis element (rho acting on operators through R).  The report records
    eps''' when the sign relation holds.
    """
    report = Report("twist / real-structure compatibility")
    sign, residual = _compatibility_relation(j, rho)
    report.add("real_structure_twist_sign", sign is not None, residual,
               detail=f"J R = {sign:+d} R J" if sign is not None else "J R = +-R J fails for both signs")
    if sign is not None:
        report.data["eps_triple"] = sign

    radj = rho.R.adjoint()

    def exchange(e: AlgebraElement) -> Matrix:
        lhs = rho.R @ j.conjugate_operator(rep.apply(e.star())) @ radj
        return lhs - j.conjugate_operator(rep.apply(rho.apply(e).star()))

    exchange_ok = report.sweep(
        "opposite_twist_exchange",
        ((f"basis element {k}", exchange(e)) for k, e in enumerate(basis_elements(rep.spec, rep._exact()))),
        "rho(a°) = (rho(a))° on basis").passed
    report.add("formulations_agree", (sign is not None) == exchange_ok, 0.0,
               "sign relation holds iff the opposite-action exchange holds")
    return report
