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
verifying exact subspace equality either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oneforms, scalars
from .algebra import AlgebraElement, basis_elements, identity_element
from .matrices import commutator, real_vector, support_union
from .reports import Report
from .subspaces import RealSubspaceBasis, intersect_coefficients, real_nullspace, solve_real_linear
from .triple import (FiniteRealTriple, basis_pairs, check_axioms, first_order_sweep, inferred_signs,
                     ko_dimension)
from .twist import TwistData, TwistError, check_compatibility, identity_twist, opposite_pair, twist_by_grading

FLAG_NAMES = ("is_subalgebra", "is_commutative", "is_central", "is_star_closed", "is_rho_stable")


@dataclass(frozen=True)
class RealPartResult:
    basis: RealSubspaceBasis
    real_dimension: int
    flags: dict

    def elements(self, t: FiniteRealTriple) -> list[AlgebraElement]:
        return [AlgebraElement(t.spec, v) for v in self.basis.vectors]


def _commutation_rows(t: FiniteRealTriple):
    """Constraint rows (over algebra coordinates) of pi(x) J = J pi(x)."""
    u = t.real_structure.U
    diffs = [m @ u - u @ m.conj() for m in t.rep.basis_matrices]
    rows = []
    for pos in support_union(diffs):
        row_re, row_im = {}, {}
        for j, m in enumerate(diffs):
            v = m.get(*pos)
            if v == 0:
                continue
            re, im = scalars.real_part(v), scalars.imag_part(v)
            if re != 0:
                row_re[j] = re
            if im != 0:
                row_im[j] = im
        if row_re:
            rows.append(row_re)
        if row_im:
            rows.append(row_im)
    return rows, t.spec.real_dimension


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
    if rho.R is not None:
        compat = check_compatibility(t.real_structure, rho, t.rep)
        if not compat.ok:
            raise TwistError("twist is not compatible with the real structure")

    rows, k = _commutation_rows(t)
    basis = _cast_basis(real_nullspace(rows, k), t.rep._exact())
    flags = _real_part_flags(t, basis, rho)
    return RealPartResult(basis, basis.dim, flags)


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

    Solved through the concatenated system on operator images: the elements
    of span{pi(e_k)} n span{J pi(e_k) J^{-1}} are exactly the pi(x) whose
    coefficient vector x this returns.  Requires an injective representation.
    """
    if t.real_structure is None:
        raise ValueError("real structure required")
    if not t.rep.is_injective():
        raise ValueError("intersection with the opposite needs an injective representation")
    j = t.real_structure
    images = list(t.rep.basis_matrices)
    opposites = [j.conjugate_operator(m) for m in images]
    positions = support_union(images + opposites)
    ambient = 2 * len(positions)
    b1 = RealSubspaceBasis(ambient, tuple(real_vector(m, positions) for m in images))
    b2 = RealSubspaceBasis(ambient, tuple(real_vector(m, positions) for m in opposites))
    xs = [x for x, _ in intersect_coefficients(b1, b2)]
    return _cast_basis(RealSubspaceBasis.spanned_by(t.spec.real_dimension, xs), t.rep._exact())


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
        coeffs = solve_real_linear(cols, sq.coords, len(sq.coords))
        if coeffs is not None:
            beta, alpha = coeffs
            disc = alpha * alpha + 4 * beta
            if scalars.is_zero(disc) or disc < 0:
                return "C"
            return "R + R"
    return f"commutative, dim {basis.dim}"


def verify_real_part(t: FiniteRealTriple, rho: TwistData | None = None) -> Report:
    """Check that A_J behaves as a real part should.

    Verifies the structural flags, that (A_J, H, D) with the same grading,
    real structure and twist is again a valid (twisted) triple, and that
    every element of A_J twist-commutes with all generated one-forms.
    """
    report = Report("real part verification")
    if rho is None:
        rho, variant = identity_twist(t.spec), "untwisted variant"
    else:
        variant = "twisted variant"
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
    first_order_sweep(report, "subtriple_first_order", t, rho, elements, images, pairs,
                      "real-part basis pair", variant)

    report.extend(oneforms.check_twist_commutation(t, rho, elements), prefix="one_forms_")
    return report


def _per_element(residuals):
    """Lazy (label, residual) pairs for a sweep over the real-part basis."""
    return ((f"real-part basis element {k}", r) for k, r in enumerate(residuals))


def verify_doubling_dichotomy(t: FiniteRealTriple, identification=None) -> Report:
    """Twist a graded real triple by its grading and test the dichotomy.

    With grading and real structure commuting (KO 0, 4) the doubled real
    part must equal pairs of A_J elements; with them anticommuting (KO 2, 6)
    it must equal {(a, J a J^{-1}) : a in A n A°}.  Equality is exact
    subspace equality in the doubled coordinates.
    """
    report = Report("doubling dichotomy")
    signs = inferred_signs(t)
    if signs.eps_dprime is None:
        raise ValueError("the dichotomy needs a graded triple with all KO signs")
    ko = ko_dimension(signs)
    report.data["ko_dimension"] = ko

    doubled, rho = twist_by_grading(t, identification)
    compat = check_compatibility(t.real_structure, rho, doubled.rep)
    report.add("twist_compatible", compat.ok,
               detail=f"eps_triple = {compat.data.get('eps_triple')}")

    axioms = check_axioms(doubled)
    report.add("doubled_axioms", axioms.ok)
    if "signs" in axioms.data:
        report.add("doubled_signs_preserved",
                   tuple(axioms.data["signs"].values()) == signs.as_tuple(),
                   detail=str(axioms.data["signs"]))

    rp2 = real_part(doubled, rho)
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
