"""Finite real spectral triples and their axiom checkers.

The aggregate is an algebra represented on a finite-dimensional Hilbert
space together with a selfadjoint operator, an optional grading and an
optional real structure.  Compact resolvent and boundedness requirements are
automatic in finite dimension and are therefore documented, not checked.

Axiom failures are report entries, never exceptions: the checkers exist
precisely to describe invalid inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, AlgebraSpec, Representation, basis_elements
from .matrices import Antilinear, Matrix, commutator
from .reports import Report

# Even KO-dimension sign table, fixed as a convention:
#   dim 0: (+1, +1, +1)   dim 2: (-1, +1, -1)
#   dim 4: (-1, +1, +1)   dim 6: (+1, +1, -1)
# Both anchor points available in this setting (a KO-6 internal space, a KO-2
# product, and the grading/real-structure dichotomy between {0, 4} and
# {2, 6}) are consistent with exactly this table.
KO_TABLE = {(1, 1, 1): 0, (-1, 1, -1): 2, (-1, 1, 1): 4, (1, 1, -1): 6}


@dataclass(frozen=True)
class KOSigns:
    eps: int
    eps_prime: int
    eps_dprime: int | None = None

    def __post_init__(self):
        for name in ("eps", "eps_prime"):
            if getattr(self, name) not in (1, -1):
                raise ValueError(f"{name} must be +1 or -1")
        if self.eps_dprime not in (1, -1, None):
            raise ValueError("eps_dprime must be +1, -1 or absent")

    def as_tuple(self):
        return (self.eps, self.eps_prime, self.eps_dprime)


def ko_dimension(signs: KOSigns) -> int:
    if signs.eps_dprime is None:
        raise ValueError("KO dimension of a graded triple needs all three signs")
    key = (signs.eps, signs.eps_prime, signs.eps_dprime)
    if key not in KO_TABLE:
        raise ValueError(f"sign combination {key} outside the even KO table")
    return KO_TABLE[key]


@dataclass(frozen=True)
class FiniteRealTriple:
    """Algebra, representation, Dirac operator, optional grading and J."""

    spec: AlgebraSpec
    rep: Representation
    dirac: Matrix
    grading: Matrix | None = None
    real_structure: Antilinear | None = None
    signs: KOSigns | None = None

    def __post_init__(self):
        n = self.rep.dim
        for m, what in ((self.dirac, "Dirac operator"), (self.grading, "grading")):
            if m is not None and (m.nrows, m.ncols) != (n, n):
                raise ValueError(f"{what} has wrong dimension")
        if self.real_structure is not None and self.real_structure.dim != n:
            raise ValueError("real structure has wrong dimension")
        if self.rep.spec != self.spec:
            raise ValueError("representation spec mismatch")

    @property
    def dim(self) -> int:
        return self.rep.dim


def _sign_of(left: Matrix, right: Matrix):
    """Sign s with left = s * right, if one of +-1 works; else (None, residual)."""
    plus = (left - right).max_abs()
    if (left - right).is_zero():
        return 1, 0.0
    if (left + right).is_zero():
        return -1, 0.0
    return None, min(plus, (left + right).max_abs())


def check_axioms(t: FiniteRealTriple) -> Report:
    """Verify selfadjointness, grading and real-structure relations.

    Signs are inferred when the triple carries none and each relation holds
    for a unique choice; the inferred KOSigns land in report.data["signs"].
    """
    report = Report("axioms")
    d = t.dirac
    report.add("dirac_selfadjoint", d.is_hermitian(), (d - d.adjoint()).max_abs())

    if t.grading is not None:
        g = t.grading
        ident = Matrix.identity(t.dim, t.rep._exact())
        report.add("grading_selfadjoint", g.is_hermitian(), (g - g.adjoint()).max_abs())
        report.add("grading_squares_to_identity", (g @ g - ident).is_zero(), (g @ g - ident).max_abs())
        anti = g @ d + d @ g
        report.add("grading_anticommutes_dirac", anti.is_zero(), anti.max_abs())
        worst, offender = 0.0, ""
        ok = True
        for k, m in enumerate(t.rep.basis_matrices):
            c = commutator(g, m)
            if not c.is_zero():
                ok = False
                if c.max_abs() > worst:
                    worst, offender = c.max_abs(), f"basis element {k}"
        report.add("grading_commutes_algebra", ok, worst, offender)

    inferred = None
    if t.real_structure is not None:
        j = t.real_structure
        report.add("real_structure_unitary", j.U.is_unitary(),
                   (j.U @ j.U.adjoint() - Matrix.identity(t.dim, t.rep._exact())).max_abs())

        eps = j.square_sign()
        report.add("j_squared_plus_minus_identity", eps is not None,
                   0.0 if eps is not None else j.squared().max_abs(),
                   f"J^2 = {eps:+d} I" if eps is not None else "J^2 is not +-I")

        eps_prime, res_p = _sign_of(j.U @ d.conj(), d @ j.U)
        ambiguous_p = eps_prime == 1 and (j.U @ d.conj() + d @ j.U).is_zero()
        report.add("j_dirac_sign", eps_prime is not None, res_p,
                   _sign_detail("JD", "DJ", eps_prime, ambiguous_p))

        eps_dprime, res_g = (None, 0.0)
        if t.grading is not None:
            eps_dprime, res_g = _sign_of(j.U @ t.grading.conj(), t.grading @ j.U)
            ambiguous_g = eps_dprime == 1 and (j.U @ t.grading.conj() + t.grading @ j.U).is_zero()
            report.add("j_grading_sign", eps_dprime is not None, res_g,
                       _sign_detail("JG", "GJ", eps_dprime, ambiguous_g))

        if eps is not None and eps_prime is not None and (t.grading is None or eps_dprime is not None):
            inferred = KOSigns(eps, eps_prime, eps_dprime)
            report.data["signs"] = {"eps": eps, "eps_prime": eps_prime, "eps_dprime": eps_dprime}
            if t.grading is not None:
                try:
                    report.data["ko_dimension"] = ko_dimension(inferred)
                except ValueError as exc:
                    report.add("ko_classification", False, 0.0, str(exc))
        if t.signs is not None and inferred is not None:
            match = t.signs.as_tuple() == inferred.as_tuple()
            report.add("declared_signs_match", match, 0.0,
                       f"declared {t.signs.as_tuple()}, computed {inferred.as_tuple()}")
    return report


def _sign_detail(lhs: str, rhs: str, sign, ambiguous: bool) -> str:
    if sign is None:
        return f"{lhs} = +-{rhs} fails for both signs"
    note = " (ambiguous: operator is zero)" if ambiguous else ""
    return f"{lhs} = {sign:+d} {rhs}{note}"


def inferred_signs(t: FiniteRealTriple) -> KOSigns:
    """Signs declared on the triple, or inferred by check_axioms."""
    if t.signs is not None:
        return t.signs
    report = check_axioms(t)
    data = report.data.get("signs")
    if data is None:
        raise ValueError("real-structure signs are not defined for this triple")
    return KOSigns(data["eps"], data["eps_prime"], data["eps_dprime"])


def opposite_action(t: FiniteRealTriple, a: AlgebraElement) -> Matrix:
    """The opposite-algebra action a° = J pi(a*) J^{-1}."""
    if t.real_structure is None:
        raise ValueError("opposite action needs a real structure")
    return t.real_structure.conjugate_operator(t.rep.apply(a.star()))


def opposite_images(t: FiniteRealTriple) -> list[Matrix]:
    """a° for every coordinate basis element (real-linear in the element)."""
    j = t.real_structure
    return [j.conjugate_operator(t.rep.apply(e.star())) for e in basis_elements(t.spec, t.rep._exact())]


def _pair_sweep(report: Report, name: str, lefts, rights, combine) -> None:
    worst, offender, ok = 0.0, "", True
    for k, a in enumerate(lefts):
        for l, b in enumerate(rights):
            c = combine(a, b)
            if not c.is_zero():
                ok = False
                if c.max_abs() >= worst:
                    worst, offender = c.max_abs(), f"basis pair ({k}, {l})"
    report.add(name, ok, worst, offender)


def check_order_zero(t: FiniteRealTriple) -> Report:
    """[pi(a), b°] = 0 on all basis pairs (bilinear, hence on all pairs)."""
    if t.real_structure is None:
        raise ValueError("order-zero condition needs a real structure")
    report = Report("order-zero condition")
    _pair_sweep(report, "order_zero", t.rep.basis_matrices, opposite_images(t), commutator)
    return report


def check_first_order(t: FiniteRealTriple) -> Report:
    """[[D, pi(a)], b°] = 0 on all basis pairs."""
    if t.real_structure is None:
        raise ValueError("first-order condition needs a real structure")
    report = Report("first-order condition")
    d = t.dirac
    brackets = [commutator(d, m) for m in t.rep.basis_matrices]
    _pair_sweep(report, "first_order", brackets, opposite_images(t), commutator)
    return report


def check_twisted_first_order(t: FiniteRealTriple, rho) -> Report:
    """[[D, a]_rho, b°]_rho° = 0 on all basis pairs.

    The opposite twist acts by rho°(b°) = (rho^{-1}(b))°; with b° realized
    through J this is J pi((rho^{-1} b)*) J^{-1}.
    """
    if t.real_structure is None:
        raise ValueError("twisted first-order condition needs a real structure")
    report = Report("twisted first-order condition")
    d = t.dirac
    exact = t.rep._exact()
    basis = basis_elements(t.spec, exact)
    j = t.real_structure

    twisted = []
    displacement = 0.0
    for e, m in zip(basis, t.rep.basis_matrices):
        m_rho = t.rep.apply(rho.apply(e))
        twisted.append(d @ m - m_rho @ d)
        displacement = max(displacement, (m - m_rho).max_abs())
    opposites = []
    for e in basis:
        b_op = j.conjugate_operator(t.rep.apply(e.star()))
        b_op_rho = j.conjugate_operator(t.rep.apply(rho.apply_inverse(e).star()))
        opposites.append((b_op, b_op_rho))

    worst, offender, ok = 0.0, "", True
    for k, tk in enumerate(twisted):
        for l, (b_op, b_op_rho) in enumerate(opposites):
            c = tk @ b_op - b_op_rho @ tk
            if not c.is_zero():
                ok = False
                if c.max_abs() >= worst:
                    worst, offender = c.max_abs(), f"basis pair ({k}, {l})"
    report.add("twisted_first_order", ok, worst, offender)
    # boundedness of [D, a]_rho is automatic here; the interesting size is
    # how far the twist moves the algebra
    report.add("twist_displacement", True, displacement, "max |pi(a) - pi(rho(a))| over basis")
    return report
