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

Order zero and (twisted) first order are decided exactly on the basis
elements algebra.generator_indices names, whose products span A.  With
a° = J pi(a*) J^{-1} and J's U unitary, a -> a° is antimultiplicative,
(ab)° = b° a°, and rho°((ab)°) = rho°(b°) rho°(a°).  Then
    [pi(ab), c°] = pi(a) [pi(b), c°] + [pi(a), c°] pi(b),
    [pi(a), (cd)°] = d° [pi(a), c°] + [pi(a), d°] c°,
and, writing F(a, c) = [[D, a]_rho, c°]_rho°,
    F(a, cd) = F(a, d) c° + rho°(d°) F(a, c),
    F(ab, c) = F(a, c) pi(b) + pi(rho(a)) F(b, c)   given order zero on A x A.
So in each slot the elements on which a condition holds form a
subalgebra, and a condition that holds on generator pairs holds on all
pairs.  The generator route runs when (1) the generators are fewer than
the basis, (2) U is unitary, and (3), for first order, order zero holds on
the generator pairs.  Otherwise, and whenever the generator sweep fails,
the full basis sweep runs, so a failure reports the same worst residual
and offending basis pair as before.  twist_displacement stays a maximum
over the whole basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, AlgebraSpec, Representation, basis_elements, generator_indices
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


def basis_pairs(lefts, rights, combine, what: str = "basis pair", indices=None):
    """Lazy (label, combine(a, b)) over lefts x the sequence rights, labelled
    "<what> (k, l)" with k and l numbered by indices (default 0, 1, ...)."""
    indices = range(len(rights)) if indices is None else indices
    for k, a in zip(indices, lefts):
        for l, b in zip(indices, rights):
            yield f"{what} ({k}, {l})", combine(a, b)


def _vanish(pairs) -> bool:
    """Whether every residual of lazy (label, residual) pairs is zero; stops at the first that is not."""
    return all(residual.is_zero() for _, residual in pairs)


def _sweep_pairs(report: Report, name: str, t: FiniteRealTriple, pairs, first_order: bool = False) -> None:
    """Report the sweep pairs(indices), deciding it on generator_indices when
    that is exact (module docstring): a passing generator sweep is the
    passing check; otherwise the full sweep runs and names the offender."""
    gens = generator_indices(t.spec)
    every = range(t.spec.real_dimension)
    if (len(gens) < len(every) and t.real_structure.U.is_unitary()
            and (not first_order or _vanish(_order_zero_pairs(t, gens))) and _vanish(pairs(gens))):
        report.add(name, True)
    else:
        report.sweep(name, pairs(every))


def _order_zero_pairs(t: FiniteRealTriple, indices):
    """Lazy [pi(e_k), e_l°] over the basis pairs (k, l) with k, l in indices."""
    basis = basis_elements(t.spec, t.rep._exact())
    opposites = [opposite_action(t, basis[l]) for l in indices]
    return basis_pairs([t.rep.basis_matrices[k] for k in indices], opposites, commutator, indices=indices)


def check_order_zero(t: FiniteRealTriple) -> Report:
    """[pi(a), b°] = 0 on all basis pairs (bilinear, hence on all pairs)."""
    if t.real_structure is None:
        raise ValueError("order-zero condition needs a real structure")
    report = Report("order-zero condition")
    _sweep_pairs(report, "order_zero", t, lambda indices: _order_zero_pairs(t, indices))
    return report


def twisted_images(t: FiniteRealTriple, rho: TwistData, elements, images) -> list:
    """(pi(a), pi(rho(a))) for elements a with images pi(a)."""
    return [(m, twisted_image(rho, m, lambda move: t.rep.apply(move(x)))) for x, m in zip(elements, images)]


def first_order_pairs(t: FiniteRealTriple, moved, opposites, what: str = "basis pair", indices=None):
    """Lazy [[D, a]_rho, b°]_rho° over pairs (pi(a), pi(rho(a))) x opposite
    pairs (b°, rho°(b°)), labelled as basis_pairs labels them."""
    brackets = [twisted_bracket(t.dirac, m, m_rho) for m, m_rho in moved]
    return basis_pairs(brackets, opposites, lambda tk, pair: twisted_bracket(tk, *pair), what, indices)


def _first_order(t: FiniteRealTriple, rho: TwistData, title: str, name: str):
    """The basis sweep behind both first-order checks, with
    rho°(b°) = (rho^{-1}(b))° = J pi((rho^{-1} b)*) J^{-1}; returns the
    report and (pi(e_k), pi(rho(e_k))) for every basis element."""
    if t.real_structure is None:
        raise ValueError(f"{title} needs a real structure")
    report = Report(title)
    basis = basis_elements(t.spec, t.rep._exact())
    moved = twisted_images(t, rho, basis, t.rep.basis_matrices)

    def pairs(indices):
        opposites = [opposite_pair(t.rep, rho, basis[l], t.real_structure) for l in indices]
        return first_order_pairs(t, [moved[k] for k in indices], opposites, indices=indices)

    _sweep_pairs(report, name, t, pairs, first_order=True)
    return report, moved


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
