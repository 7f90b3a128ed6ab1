"""Finite real spectral triples and their axiom checkers.

The aggregate is an algebra represented on a finite-dimensional Hilbert
space together with a selfadjoint operator, an optional grading and an
optional real structure.  Compact resolvent and boundedness requirements are
automatic in finite dimension and are therefore documented, not checked.

Axiom failures are report entries, never exceptions: the checkers exist
precisely to describe invalid inputs.  Sign relations go through
matrices.sign_relation and sweeps through Report.sweep.  The untwisted
first-order condition is the twisted one with the identity twist: both
checks report one sweep, and neither calls the other.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, AlgebraSpec, Representation, basis_elements
from .matrices import Antilinear, Matrix, commutator, sign_relation
from .reports import Report
from .twist import TwistData, identity_twist, opposite_pair, twisted_bracket, twisted_image

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


def check_axioms(t: FiniteRealTriple) -> Report:
    """Verify selfadjointness, grading and real-structure relations.

    Signs are inferred when the triple carries none and each relation holds
    for a unique choice; the inferred KOSigns land in report.data["signs"].
    """
    report = Report("axioms")
    d = t.dirac
    _zero_check(report, "dirac_selfadjoint", d - d.adjoint())

    if t.grading is not None:
        g = t.grading
        _zero_check(report, "grading_selfadjoint", g - g.adjoint())
        _zero_check(report, "grading_squares_to_identity", g @ g - Matrix.identity(t.dim, t.rep._exact()))
        _zero_check(report, "grading_anticommutes_dirac", g @ d + d @ g)
        report.sweep("grading_commutes_algebra",
                     ((f"basis element {k}", commutator(g, m)) for k, m in enumerate(t.rep.basis_matrices)))

    inferred = None
    if t.real_structure is not None:
        j = t.real_structure
        ident = Matrix.identity(t.dim, t.rep._exact())
        _zero_check(report, "real_structure_unitary", j.U @ j.U.adjoint() - ident)

        eps, res_j = sign_relation(j.squared(), ident)
        report.add("j_squared_plus_minus_identity", eps is not None, res_j,
                   f"J^2 = {eps:+d} I" if eps is not None else "J^2 is not +-I")
        eps_prime = _sign_check(report, "j_dirac_sign", "JD", "DJ", j.U @ d.conj(), d @ j.U)
        eps_dprime = None
        if t.grading is not None:
            eps_dprime = _sign_check(report, "j_grading_sign", "JG", "GJ",
                                     j.U @ t.grading.conj(), t.grading @ j.U)

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


def _zero_check(report: Report, name: str, residual: Matrix) -> None:
    """Report whether a residual matrix is zero, with its largest entry."""
    report.add(name, residual.is_zero(), residual.max_abs())


def _sign_check(report: Report, name: str, lhs: str, rhs: str, left: Matrix, right: Matrix):
    """Report whether left = +-right; returns the sign, or None."""
    sign, residual = sign_relation(left, right)
    if sign is None:
        detail = f"{lhs} = +-{rhs} fails for both signs"
    else:
        # both signs hold exactly when the operator is zero
        note = " (ambiguous: operator is zero)" if left.is_zero() else ""
        detail = f"{lhs} = {sign:+d} {rhs}{note}"
    report.add(name, sign is not None, residual, detail)
    return sign


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
    return [opposite_action(t, e) for e in basis_elements(t.spec, t.rep._exact())]


def basis_pairs(lefts, rights, combine, what: str = "basis pair"):
    """Lazy (label, combine(a, b)) over lefts x the sequence rights, labelled "<what> (k, l)"."""
    for k, a in enumerate(lefts):
        for l, b in enumerate(rights):
            yield f"{what} ({k}, {l})", combine(a, b)


def check_order_zero(t: FiniteRealTriple) -> Report:
    """[pi(a), b°] = 0 on all basis pairs (bilinear, hence on all pairs)."""
    if t.real_structure is None:
        raise ValueError("order-zero condition needs a real structure")
    report = Report("order-zero condition")
    report.sweep("order_zero", basis_pairs(t.rep.basis_matrices, opposite_images(t), commutator))
    return report


def first_order_sweep(report: Report, name: str, t: FiniteRealTriple, rho: TwistData, elements,
                      images, opposites, what: str = "basis pair", detail: str = "") -> list:
    """Sweep [[D, a]_rho, b°]_rho° = 0 over elements a (with images pi(a))
    and opposite pairs (b°, rho°(b°)); returns the pairs (pi(a), pi(rho(a)))."""
    moved = [(m, twisted_image(rho, m, lambda move: t.rep.apply(move(x))))
             for x, m in zip(elements, images)]
    brackets = [twisted_bracket(t.dirac, m, m_rho) for m, m_rho in moved]
    report.sweep(name, basis_pairs(brackets, opposites, lambda tk, pair: twisted_bracket(tk, *pair), what),
                 detail)
    return moved


def _first_order(t: FiniteRealTriple, rho: TwistData, title: str, name: str):
    """The basis sweep behind both first-order checks, with
    rho°(b°) = (rho^{-1}(b))° = J pi((rho^{-1} b)*) J^{-1}."""
    if t.real_structure is None:
        raise ValueError(f"{title} needs a real structure")
    report = Report(title)
    basis = basis_elements(t.spec, t.rep._exact())
    opposites = [opposite_pair(t.rep, rho, e, t.real_structure) for e in basis]
    return report, first_order_sweep(report, name, t, rho, basis, t.rep.basis_matrices, opposites)


def check_first_order(t: FiniteRealTriple) -> Report:
    """[[D, pi(a)], b°] = 0 on all basis pairs."""
    return _first_order(t, identity_twist(t.spec), "first-order condition", "first_order")[0]


def check_twisted_first_order(t: FiniteRealTriple, rho: TwistData) -> Report:
    """[[D, a]_rho, b°]_rho° = 0 on all basis pairs, and how far rho moves pi(A)."""
    report, images = _first_order(t, rho, "twisted first-order condition", "twisted_first_order")
    displacement = max(((m - m_rho).max_abs() for m, m_rho in images), default=0.0)
    # boundedness of [D, a]_rho is automatic here; the interesting size is
    # how far the twist moves the algebra
    report.add("twist_displacement", True, displacement, "max |pi(a) - pi(rho(a))| over basis")
    return report
