"""Twisted one-forms: generation, span measurement, twist-commutation.

One-forms are sums a [D, b]_rho over algebra elements.  Their real span is
measured over all basis pairs, which by bilinearity spans the whole space of
generated one-forms.  Spans are taken over the reals, matching the real
algebras in use; a complex span can differ.

No selfadjointness is imposed on generated one-forms: the raw span is
reported.  An untwisted one-form is the twisted one with the identity twist:
rho=None means identity_twist(spec), and the bracket [D, b]_rho comes from
twist.twisted_bracket in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import basis_elements
from .matrices import Matrix, real_coords
from .reports import Report
from .subspaces import Echelon
from .triple import FiniteRealTriple
from .twist import TwistData, identity_twist, opposite_pair, twisted_bracket, twisted_image


def one_form(t: FiniteRealTriple, pairs, rho: TwistData | None = None,
             dirac: Matrix | None = None) -> Matrix:
    """sum_i pi(a_i) [D, pi(b_i)]_rho for pairs of algebra elements."""
    if rho is None:
        rho = identity_twist(t.spec)
    d = t.dirac if dirac is None else dirac
    total = Matrix.zeros(t.dim, t.dim)
    for a, b in pairs:
        if a.spec != t.spec or b.spec != t.spec:
            raise ValueError("one-form pair outside the triple's algebra")
        mb = t.rep.apply(b)
        mb_rho = twisted_image(rho, mb, lambda move: t.rep.apply(move(b)))
        total = total + t.rep.apply(a) @ twisted_bracket(d, mb, mb_rho)
    return total


@dataclass(frozen=True)
class OneFormSpan:
    dimension: int
    generators: tuple

    def contains(self, m: Matrix) -> bool:
        ech = Echelon(2 * m.nrows * m.ncols)
        for _, g in self.generators:
            ech.add(real_coords(g))
        return ech.contains(real_coords(m))


def omega1_span(t: FiniteRealTriple, rho: TwistData | None = None,
                dirac: Matrix | None = None) -> OneFormSpan:
    """Real span of {pi(a) [D, pi(b)]_rho} over all algebra basis pairs.

    Returns the dimension and one generating pair (k, l) per independent
    direction.  An alternative Dirac operator may be supplied to probe the
    span of a single block of D.
    """
    if rho is None:
        rho = identity_twist(t.spec)
    d = t.dirac if dirac is None else dirac
    basis = basis_elements(t.spec, t.rep._exact())
    brackets = [twisted_bracket(d, m, twisted_image(rho, m, lambda move: t.rep.apply(move(e))))
                for e, m in zip(basis, t.rep.basis_matrices)]

    ech = Echelon(2 * t.dim * t.dim)
    generators = []
    for k, ma in enumerate(t.rep.basis_matrices):
        for l, br in enumerate(brackets):
            w = ma @ br
            if w.nnz() and ech.add(real_coords(w)):
                generators.append(((k, l), w))
    return OneFormSpan(ech.rank, tuple(generators))


def check_twist_commutation(t: FiniteRealTriple, rho: TwistData | None,
                            elements) -> Report:
    """[omega, a°]_rho° = 0 for a in the given (real-part) elements.

    a° is realized as pi(a*), the form it takes on elements commuting with
    the real structure, and rho°(a°) = pi((rho^{-1} a)*).  omega runs over
    the one-form generators of all basis pairs.
    """
    if rho is None:
        rho = identity_twist(t.spec)
    report = Report("one-form twist commutation")
    elements = list(elements)
    if not elements:
        report.add("twist_commutation", True, detail="vacuous: no elements to test")
        return report

    span = omega1_span(t, rho)
    opposites = (opposite_pair(t.rep, rho, a) for a in elements)
    report.sweep("twist_commutation",
                 ((f"generator pair {key}", twisted_bracket(w, *pair))
                  for pair in opposites for key, w in span.generators))
    report.data["span_dimension"] = span.dimension
    return report
