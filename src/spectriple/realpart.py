"""Real parts of (twisted) spectral triples and the doubling dichotomy.

The real part A_J is the set of algebra elements whose action commutes with
the real structure; it is computed exactly as the real nullspace of
pi(x) U = U conj(pi(x)) over algebra coordinates.  The intersection of the
algebra with its opposite is computed independently, as a subspace
intersection of operator images, so the two can be compared as subspaces.

verify_real_part checks the subalgebra / centrality / stability properties
of A_J together with twist-commutation against one-forms.
verify_doubling_dichotomy twists a graded triple by its grading and decides,
from the KO signs, whether the doubled real part is the doubling of A_J
(grading and real structure commute) or a copy of A n A° (they anticommute),
verifying exact subspace equality either way.  A twist's compatibility with
the real structure is decided once, by real_part, and read from its result.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oneforms, scalars
from .algebra import AlgebraElement, basis_elements, identity_element
from .matrices import commutator, real_coords
from .reports import Report
from .subspaces import RealSubspaceBasis, kernel, solve_real_linear
from .triple import (FiniteRealTriple, basis_pairs, check_axioms, first_order_pairs, inferred_signs,
                     ko_dimension, twisted_images)
from .twist import TwistData, TwistError, check_compatibility, identity_twist, opposite_pair, twist_by_grading

FLAG_NAMES = ("is_subalgebra", "is_commutative", "is_central", "is_star_closed", "is_rho_stable")


@dataclass(frozen=True)
class RealPartResult:
    """A_J with its flags; compatibility is real_part's passing
    check_compatibility report, None under the identity twist."""

    basis: RealSubspaceBasis
    real_dimension: int
    flags: dict
    compatibility: Report | None

    def elements(self, t: FiniteRealTriple) -> list[AlgebraElement]:
        return [AlgebraElement(t.spec, v) for v in self.basis.vectors]


def real_part(t: FiniteRealTriple, rho: TwistData | None = None) -> RealPartResult:
    """A_J = {a : a J = J a}, with its structural flags.

    When a twist is supplied it must be inner and compatible with the real
    structure; stability of A_J under the twist is then part of the result.
    With no twist (the identity twist) A_J is trivially stable.
    """
    if t.real_structure is None:
        raise ValueError("real structure required")
    if rho is None:
        rho = identity_twist(t.spec)
    compat = None if rho.R is None else check_compatibility(t.real_structure, rho, t.rep)
    if compat is not None and not compat.ok:
        raise TwistError("twist is not compatible with the real structure")

    u = t.real_structure.U
    commutators = (real_coords(m @ u - u @ m.conj()) for m in t.rep.basis_matrices)
    basis = _cast_basis(kernel(commutators), t.rep._exact())
    flags = _real_part_flags(t, basis, rho)
    return RealPartResult(basis, basis.dim, flags, compat)


def _cast_basis(basis: RealSubspaceBasis, exact: bool) -> RealSubspaceBasis:
    """Normalize solver output to the triple's scalar backend.

    Nullspace vectors carry plain-integer unit entries; in float mode those
    must become floats so downstream element arithmetic stays in one mode.
    """
    if exact:
        return basis
    return RealSubspaceBasis(basis.ambient,
                             tuple(tuple(float(x) for x in v) for v in basis.vectors))


def _real_part_flags(t: FiniteRealTriple, basis: RealSubspaceBasis, rho: TwistData) -> dict:
    span = basis.echelon()
    elements = [AlgebraElement(t.spec, v) for v in basis.vectors]
    algebra_basis = basis_elements(t.spec, t.rep._exact())

    products = [[u * v for v in elements] for u in elements]
    is_subalgebra = all(span.contains(p.coords) for row in products for p in row)
    is_commutative = all(products[i][j] == products[j][i]
                         for i in range(len(elements)) for j in range(i + 1, len(elements)))
    is_central = all((u * e - e * u).is_zero() for u in elements for e in algebra_basis)
    is_star_closed = all(span.contains(u.star().coords) for u in elements)
    is_rho_stable = all(span.contains(rho.apply(u).coords) for u in elements)
    return {
        "is_subalgebra": is_subalgebra,
        "is_commutative": is_commutative,
        "is_central": is_central,
        "is_star_closed": is_star_closed,
        "is_rho_stable": is_rho_stable,
    }


def intersect_with_opposite(t: FiniteRealTriple) -> RealSubspaceBasis:
    """A n A° as a subspace of the algebra (in algebra coordinates).

    Solved as the kernel of the operator images [pi(e_k) | -J pi(e_k) J^{-1}]:
    the elements of span{pi(e_k)} n span{J pi(e_k) J^{-1}} are exactly the
    pi(x) whose coefficient vector x this returns.  Requires an injective representation.
    """
    if t.real_structure is None:
        raise ValueError("real structure required")
    if not t.rep.is_injective():
        raise ValueError("intersection with the opposite needs an injective representation")
    images = t.rep.basis_matrices
    opposites = [-t.real_structure.conjugate_operator(m) for m in images]
    k = t.spec.real_dimension
    xs = [s[:k] for s in kernel(map(real_coords, list(images) + opposites)).vectors]
    return _cast_basis(RealSubspaceBasis.spanned_by(k, xs), t.rep._exact())


def structure_label(t: FiniteRealTriple, basis: RealSubspaceBasis) -> str:
    """Structural identification of a commutative real subalgebra.

    Decided from the dimension, commutativity, and the minimal polynomial of
    a generic element over the unital hull; enough to distinguish R, C and
    split sums at the dimensions that occur here.
    """
    if basis.dim == 0:
        return "0"
    elements = [AlgebraElement(t.spec, v) for v in basis.vectors]
    commutative = all((u * v - v * u).is_zero() for u in elements for v in elements)
    if not commutative:
        return f"noncommutative, dim {basis.dim}"
    if basis.dim == 1:
        return "R"
    if basis.dim == 2:
        one = scalars.RATIONAL_ONE if t.rep._exact() else 1.0
        g = elements[0] + elements[1].scale(one + one)
        ident = identity_element(t.spec, t.rep._exact())
        sq = g * g
        cols = [ident.coords, g.coords]
        coeffs = solve_real_linear(cols, sq.coords)
        if coeffs is not None:
            beta, alpha = coeffs
            disc = alpha * alpha + 4 * beta
            if scalars.is_zero(disc) or disc < 0:
                return "C"
            return "R + R"
    return f"commutative, dim {basis.dim}"


def verify_real_part(t: FiniteRealTriple, rho: TwistData | None = None,
                     rp: RealPartResult | None = None) -> Report:
    """Check that A_J behaves as a real part should.

    Verifies the structural flags, that (A_J, H, D) with the same grading,
    real structure and twist is again a valid (twisted) triple, and that
    every element of A_J twist-commutes with all generated one-forms.
    rp must be real_part(t, rho) when given; None computes it.
    """
    report = Report("real part verification")
    if rho is None:
        rho, variant = identity_twist(t.spec), "untwisted variant"
    else:
        variant = "twisted variant"
    if rp is None:
        rp = real_part(t, rho)
    report.data["real_dimension"] = rp.real_dimension
    report.data["structure"] = structure_label(t, rp.basis)
    for name in FLAG_NAMES:
        report.add(name, rp.flags[name])

    elements = rp.elements(t)
    images = [t.rep.apply(u) for u in elements]
    j = t.real_structure

    if t.grading is not None:
        report.sweep("subtriple_grading_commutes", _per_element(commutator(t.grading, m) for m in images))
    report.sweep("subtriple_commutes_with_j", _per_element(m @ j.U - j.U @ m.conj() for m in images))

    # the pairs (pi(a*), pi((rho^{-1} a)*)) serve all three conditions below
    pairs = [opposite_pair(t.rep, rho, u) for u in elements]
    opposites = [j.conjugate_operator(star) for star, _ in pairs]
    report.sweep("subtriple_opposite_equals_star",
                 _per_element(o - star for o, (star, _) in zip(opposites, pairs)),
                 "a° = pi(a*) on the real part")

    report.sweep("subtriple_order_zero", basis_pairs(images, opposites, commutator, "real-part basis pair"))
    moved = twisted_images(t, rho, elements, images)
    report.sweep("subtriple_first_order", first_order_pairs(t, moved, pairs, "real-part basis pair"), variant)

    report.extend(oneforms.check_twist_commutation(t, rho, elements), prefix="one_forms_")
    return report


def _per_element(residuals):
    """Lazy (label, residual) pairs for a sweep over the real-part basis."""
    return ((f"real-part basis element {k}", r) for k, r in enumerate(residuals))


def verify_doubling_dichotomy(t: FiniteRealTriple, twisted=None) -> Report:
    """Twist a graded real triple by its grading and test the dichotomy.

    With grading and real structure commuting (KO 0, 4) the doubled real
    part must equal pairs of A_J elements; with them anticommuting (KO 2, 6)
    it must equal {(a, J a J^{-1}) : a in A n A°}.  Equality is exact
    subspace equality in the doubled coordinates.

    twisted must be the (doubled, rho) that twist_by_grading returned for t;
    it is not re-checked.  None twists t by the default identification.
    """
    report = Report("doubling dichotomy")
    signs = inferred_signs(t)
    if signs.eps_dprime is None:
        raise ValueError("the dichotomy needs a graded triple with all KO signs")
    ko = ko_dimension(signs)
    report.data["ko_dimension"] = ko

    doubled, rho = twist_by_grading(t) if twisted is None else twisted
    rp2 = real_part(doubled, rho)  # raises TwistError when the twist is incompatible
    report.add("twist_compatible", rp2.compatibility.ok,
               detail=f"eps_triple = {rp2.compatibility.data.get('eps_triple')}")

    axioms = check_axioms(doubled)
    report.add("doubled_axioms", axioms.ok)
    if "signs" in axioms.data:
        report.add("doubled_signs_preserved",
                   tuple(axioms.data["signs"].values()) == signs.as_tuple(),
                   detail=str(axioms.data["signs"]))

    k = t.spec.real_dimension
    a_j = real_part(t)
    inter = intersect_with_opposite(t)
    report.data["doubled_real_dimension"] = rp2.real_dimension
    report.data["initial_real_part_dimension"] = a_j.real_dimension
    report.data["intersection_dimension"] = inter.dim

    zeros = (0,) * k
    if signs.eps_dprime == 1:
        report.data["branch"] = "doubled real part"
        expected_vectors = [tuple(v) + zeros for v in a_j.basis.vectors]
        expected_vectors += [zeros + tuple(v) for v in a_j.basis.vectors]
    else:
        report.data["branch"] = "intersection with the opposite"
        expected_vectors = []
        partner_ok = True
        for x in inter.vectors:
            a = AlgebraElement(t.spec, x)
            conjugated = t.real_structure.conjugate_operator(t.rep.apply(a))
            partner = t.rep.pullback(conjugated)
            if partner is None:
                partner_ok = False
                continue
            expected_vectors.append(tuple(x) + tuple(partner.coords))
        report.add("opposite_partner_in_algebra", partner_ok,
                   detail="J a J^{-1} lies in the algebra for a in A n A°")

    expected = RealSubspaceBasis.spanned_by(2 * k, expected_vectors)
    report.add("real_part_matches_branch", rp2.basis.equals(expected),
               detail=f"doubled dim {rp2.real_dimension}, expected dim {expected.dim}")
    report.add("initial_real_part_contained",
               all(rp2.basis.contains(tuple(v) + tuple(v)) for v in a_j.basis.vectors),
               detail="(a, a) in the doubled real part for a in A_J")
    return report
