"""One-generation standard-model internal space and its twist by grading.

Hilbert space slots are labelled by a multi-index:

  C     0 = particle, 1 = antiparticle
  I     lepto-colour: 0 = lepton, 1..3 = quark colours
  alpha flavour: 0, 1 are the right-handed (dotted) slots, 2, 3 the
        left-handed ones; for leptons (nu_R, e_R, nu_L, e_L), for quarks
        (u_R, d_R, u_L, d_L)

and, for the 128-dimensional fiber model, two spinor indices:

  sdot  0 = particle, 1 = antiparticle half of the spinor
  s     0 = right (r), 1 = left (l) chirality

The flat ordering is C outermost, then sdot, s, then I, then alpha, so the
fiber matrices display the particle/antiparticle block structure literally.

The algebra is C + H + M3(C): the complex scalar acts on right flavours
(conjugated on the second one), the quaternion on left flavour doublets, and
on antiparticles the lepto-colour index carries diag(c, m).  The Dirac
operator holds one Yukawa coupling per flavour pair (conjugated on the
antiparticle block) plus a single real Majorana entry k_R linking the
right-handed neutrino slot to its antiparticle; this layout is not assumed
correct but verified: selfadjointness, order zero, first order and the
Majorana-block commutation are all part of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import scalars
from .algebra import AlgebraSpec, BlockKind, Placement, Representation, identity_element
from .matrices import Antilinear, Matrix
from .realpart import RealPartResult, intersect_with_opposite, real_part, structure_label
from .reports import Report
from .scalars import QI, as_scalar, conj, rational
from .triple import FiniteRealTriple, KOSigns, check_axioms
from .twist import TwistData, twist_by_grading

INTERNAL_DIM = 32
FIBER_DIM = 128

FLAVOUR_LABELS = {
    0: ("nu_R", "e_R", "nu_L", "e_L"),
    1: ("u_R", "d_R", "u_L", "d_L"),
}


@dataclass(frozen=True)
class SMIndex:
    """Multi-index of one Hilbert slot; s/sdot present only in the fiber."""

    c: int
    i: int
    alpha: int
    s: int | None = None
    sdot: int | None = None

    def __post_init__(self):
        if self.c not in (0, 1) or not 0 <= self.i < 4 or not 0 <= self.alpha < 4:
            raise ValueError("index out of range")
        if (self.s is None) != (self.sdot is None):
            raise ValueError("fiber indices s and sdot come together")
        if self.s is not None and (self.s not in (0, 1) or self.sdot not in (0, 1)):
            raise ValueError("index out of range")

    def flat(self) -> int:
        if self.s is None:
            return internal_index(self.c, self.i, self.alpha)
        return fiber_index(self.c, self.sdot, self.s, self.i, self.alpha)

    @classmethod
    def from_flat(cls, flat: int, fiber: bool = False) -> "SMIndex":
        if fiber:
            alpha = flat % 4
            i = (flat // 4) % 4
            s = (flat // 16) % 2
            sdot = (flat // 32) % 2
            c = flat // 64
            return cls(c, i, alpha, s, sdot)
        alpha = flat % 4
        i = (flat // 4) % 4
        c = flat // 16
        return cls(c, i, alpha)

    def label(self) -> str:
        name = FLAVOUR_LABELS[0 if self.i == 0 else 1][self.alpha]
        parts = [f"C={self.c}", f"I={self.i}", name]
        if self.s is not None:
            parts.append("rl"[self.s] + ("~" if self.sdot else ""))
        return " ".join(parts)


def internal_index(c: int, i: int, alpha: int) -> int:
    return (c * 4 + i) * 4 + alpha


def fiber_index(c: int, sdot: int, s: int, i: int, alpha: int) -> int:
    return (((c * 2 + sdot) * 2 + s) * 4 + i) * 4 + alpha


def gamma_f_sign(c: int, alpha: int) -> int:
    """+1 on right particles and left antiparticles, -1 otherwise."""
    right = alpha < 2
    return 1 if right == (c == 0) else -1


def gamma5_sign(s: int) -> int:
    return 1 if s == 0 else -1


@dataclass(frozen=True)
class YukawaParams:
    """Yukawa couplings (complex) and the real Majorana mass k_R."""

    y_nu: object
    y_e: object
    y_u: object
    y_d: object
    k_r: object

    @classmethod
    def exact(cls, y_nu="1/2", y_e="1/3", y_u="2/3", y_d="3/5", k_r="1") -> "YukawaParams":
        return cls(*(_parse_exact_complex(v) for v in (y_nu, y_e, y_u, y_d)),
                   k_r=rational(Fraction(str(k_r))))

    @classmethod
    def random(cls, rng, exact: bool = True) -> "YukawaParams":
        def draw():
            re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            im = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            return QI(re, im) if exact else complex(re, im)

        k = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        return cls(draw(), draw(), draw(), draw(), rational(k) if exact else float(k))

    def is_exact(self) -> bool:
        return scalars.is_exact(self.y_nu)


def _parse_exact_complex(value) -> QI:
    if isinstance(value, QI):
        return value
    if isinstance(value, str):
        if "," in value:
            re, im = value.split(",")
            return QI(Fraction(re.strip()), Fraction(im.strip()))
        return QI(Fraction(value.strip()))
    return QI(Fraction(value))


# -- internal (32-dimensional) model ----------------------------------------

SM_SPEC = AlgebraSpec((BlockKind("C", 1), BlockKind("H", 1), BlockKind("C", 3)))


def internal_placements() -> list[Placement]:
    places = []
    for i in range(4):
        # particles: flavour structure diag(c, conj c) on right, q on left
        places.append(Placement(0, (internal_index(0, i, 0),), (internal_index(0, i, 0),)))
        places.append(Placement(0, (internal_index(0, i, 1),), (internal_index(0, i, 1),), conj=True))
        left = (internal_index(0, i, 2), internal_index(0, i, 3))
        places.append(Placement(1, left, left))
    for alpha in range(4):
        # antiparticles: lepto-colour structure diag(c, m), flavour spectator
        places.append(Placement(0, (internal_index(1, 0, alpha),), (internal_index(1, 0, alpha),)))
        colour = tuple(internal_index(1, i, alpha) for i in (1, 2, 3))
        places.append(Placement(2, colour, colour))
    return places


def internal_representation(exact: bool = True) -> Representation:
    return Representation.from_plan(SM_SPEC, INTERNAL_DIM, internal_placements(), exact)


def internal_dirac(p: YukawaParams, majorana_only: bool = False) -> Matrix:
    exact = p.is_exact()
    entries = []
    if not majorana_only:
        for i in range(4):
            y1 = p.y_nu if i == 0 else p.y_u
            y2 = p.y_e if i == 0 else p.y_d
            for alpha, y in ((0, y1), (1, y2)):
                r = internal_index(0, i, alpha)
                l = internal_index(0, i, alpha + 2)
                entries += [(r, l, y), (l, r, conj(y))]
                # antiparticle block is the conjugate of the particle block
                rbar = internal_index(1, i, alpha)
                lbar = internal_index(1, i, alpha + 2)
                entries += [(rbar, lbar, conj(y)), (lbar, rbar, y)]
    nu_r = internal_index(0, 0, 0)
    nu_r_bar = internal_index(1, 0, 0)
    entries += [(nu_r, nu_r_bar, p.k_r), (nu_r_bar, nu_r, p.k_r)]
    return Matrix.from_entries(INTERNAL_DIM, INTERNAL_DIM, entries, exact)


def internal_majorana(p: YukawaParams) -> Matrix:
    return internal_dirac(p, majorana_only=True)


def internal_grading(exact: bool = True) -> Matrix:
    values = []
    for flat in range(INTERNAL_DIM):
        idx = SMIndex.from_flat(flat)
        values.append(gamma_f_sign(idx.c, idx.alpha))
    return Matrix.diagonal(values, exact)


def internal_real_structure(exact: bool = True) -> Antilinear:
    """Particle <-> antiparticle swap composed with conjugation."""
    one = as_scalar(1, exact)
    entries = {}
    for flat in range(INTERNAL_DIM):
        idx = SMIndex.from_flat(flat)
        entries[(internal_index(1 - idx.c, idx.i, idx.alpha), flat)] = one
    return Antilinear(Matrix(INTERNAL_DIM, INTERNAL_DIM, entries))


def build_internal_triple(p: YukawaParams | None = None) -> FiniteRealTriple:
    p = YukawaParams.exact() if p is None else p
    exact = p.is_exact()
    return FiniteRealTriple(
        SM_SPEC,
        internal_representation(exact),
        internal_dirac(p),
        internal_grading(exact),
        internal_real_structure(exact),
        KOSigns(1, 1, -1),
    )


# -- fiber (128-dimensional) model ------------------------------------------


def gamma5(exact: bool = True) -> Matrix:
    return Matrix.diagonal([gamma5_sign(flat % 2) for flat in range(4)], exact)


def spin_real_structure(exact: bool = True) -> Matrix:
    """U with U conj(U) = -I, commuting with gamma5: the sdot swap with a sign."""
    one = as_scalar(1, exact)
    entries = {}
    for s in range(2):
        entries[(0 * 2 + s, 1 * 2 + s)] = one
        entries[(1 * 2 + s, 0 * 2 + s)] = -one
    return Matrix(4, 4, entries)


def lift_to_fiber(internal: Matrix, spin: Matrix) -> Matrix:
    """Operator acting as `spin` on (sdot, s) and `internal` on (C, I, alpha)."""
    entries = {}
    for (fi, fj), vi in internal.entries():
        ci, rest = divmod(fi, 16)
        ii, ai = divmod(rest, 4)
        cj, rest = divmod(fj, 16)
        ij, aj = divmod(rest, 4)
        for (si, sj), vs in spin.entries():
            sdi, ssi = divmod(si, 2)
            sdj, ssj = divmod(sj, 2)
            entries[(fiber_index(ci, sdi, ssi, ii, ai), fiber_index(cj, sdj, ssj, ij, aj))] = vi * vs
    return Matrix(FIBER_DIM, FIBER_DIM, entries)


def fiber_placements() -> list[Placement]:
    places = []
    for p in internal_placements():
        for sdot in range(2):
            for s in range(2):
                rows = tuple(_lift_slot(r, sdot, s) for r in p.rows)
                cols = tuple(_lift_slot(c, sdot, s) for c in p.cols)
                places.append(Placement(p.summand, rows, cols, p.conj))
    return places


def _lift_slot(flat: int, sdot: int, s: int) -> int:
    c, rest = divmod(flat, 16)
    i, alpha = divmod(rest, 4)
    return fiber_index(c, sdot, s, i, alpha)


def build_fiber_triple(p: YukawaParams | None = None) -> FiniteRealTriple:
    """Fiberwise product model: D = gamma5 x D_F, grading gamma5 x gamma_F,
    real structure J_M x J_F (the manifold Dirac term is out of scope)."""
    p = YukawaParams.exact() if p is None else p
    exact = p.is_exact()
    rep = Representation.from_plan(SM_SPEC, FIBER_DIM, fiber_placements(), exact)
    g5 = gamma5(exact)
    dirac = lift_to_fiber(internal_dirac(p), g5)
    grading = lift_to_fiber(internal_grading(exact), g5)
    u = lift_to_fiber(internal_real_structure(exact).U, spin_real_structure(exact))
    return FiniteRealTriple(SM_SPEC, rep, dirac, grading, Antilinear(u), KOSigns(-1, 1, -1))


def fiber_majorana(p: YukawaParams) -> Matrix:
    return lift_to_fiber(internal_majorana(p), gamma5(p.is_exact()))


def sflip_identification(exact: bool = True) -> Matrix:
    """Unitary identification of the grading eigenspaces: same C I alpha
    content, opposite chirality."""
    one = as_scalar(1, exact)
    entries = {}
    for flat in range(FIBER_DIM):
        idx = SMIndex.from_flat(flat, fiber=True)
        if gamma5_sign(idx.s) * gamma_f_sign(idx.c, idx.alpha) == -1:
            target = fiber_index(idx.c, idx.sdot, 1 - idx.s, idx.i, idx.alpha)
            entries[(target, flat)] = one
    return Matrix(FIBER_DIM, FIBER_DIM, entries)


def doubled_block_placements() -> list[Placement]:
    """The doubled action written directly from its block description.

    Chirality selects which copy acts: unprimed components (first copy of
    the algebra) carry the label r, primed ones (second copy, summand index
    shifted by 3) the label l.  On particles the flavour blocks are
    diag(c_s, conj(c_s)) on the right slots and q_{sbar} on the left
    doublet; on antiparticles the lepto-colour blocks are diag(c_sbar,
    m_sbar) over the right flavours and diag(c_s, m_s) over the left ones.
    """

    def c_summand(s):
        return 0 if s == 0 else 3

    def q_summand(s):
        return 1 if s == 0 else 4

    def m_summand(s):
        return 2 if s == 0 else 5

    places = []
    for sdot in range(2):
        for s in range(2):
            sbar = 1 - s
            for i in range(4):
                r0 = (fiber_index(0, sdot, s, i, 0),)
                r1 = (fiber_index(0, sdot, s, i, 1),)
                left = (fiber_index(0, sdot, s, i, 2), fiber_index(0, sdot, s, i, 3))
                places.append(Placement(c_summand(s), r0, r0))
                places.append(Placement(c_summand(s), r1, r1, conj=True))
                places.append(Placement(q_summand(sbar), left, left))
            for alpha in range(4):
                lep = (fiber_index(1, sdot, s, 0, alpha),)
                colour = tuple(fiber_index(1, sdot, s, i, alpha) for i in (1, 2, 3))
                src = sbar if alpha < 2 else s
                places.append(Placement(c_summand(src), lep, lep))
                places.append(Placement(m_summand(src), colour, colour))
    return places


def build_twisted_sm(p: YukawaParams | None = None) -> tuple[FiniteRealTriple, TwistData]:
    """Twist the fiber model by its grading through the s-flip identification."""
    p = YukawaParams.exact() if p is None else p
    return twist_by_grading(build_fiber_triple(p), sflip_identification(p.is_exact()))


class SMModels(NamedTuple):
    """The standard-model models for one parameter set, each built once:
    the internal triple, the fiber triple and the fiber twisted by its
    grading (doubled triple and twist).  Immutable, like the triples."""

    internal: FiniteRealTriple
    fiber: FiniteRealTriple
    doubled: FiniteRealTriple
    rho: TwistData


def build_sm_models(p: YukawaParams | None = None) -> SMModels:
    """Build the internal and fiber triples and twist the fiber once.  The
    tests, not each run, check the twist against doubled_block_placements."""
    p = YukawaParams.exact() if p is None else p
    fiber = build_fiber_triple(p)
    return SMModels(build_internal_triple(p), fiber,
                    *twist_by_grading(fiber, sflip_identification(p.is_exact())))


def verify_sm_real_part(p: YukawaParams | SMModels | None = None, rp: RealPartResult | None = None) -> Report:
    """End-to-end real-part computation for the twisted standard model.

    Checks: the twisted real part is one-dimensional and spanned by the
    scalar pattern (lambda, lambda, lambda I_2, lambda I_2, lambda I_3,
    lambda I_3); the twist fixes it; and, independently, A n A° of the
    untwisted fiber triple equals its A_J, both one-dimensional.  Given
    parameters (or none, for the defaults), the models are built here.
    rp must be real_part(doubled, rho) of the given models; None computes it.
    """
    models = p if isinstance(p, SMModels) else build_sm_models(p)
    internal, fiber, doubled, rho = models
    report = Report("standard model real part")

    internal_axioms = check_axioms(internal)
    report.add("internal_axioms", internal_axioms.ok)
    report.add("internal_ko_dimension", internal_axioms.data.get("ko_dimension") == 6,
               detail=f"signs {internal_axioms.data.get('signs')}")

    fiber_axioms = check_axioms(fiber)
    report.add("fiber_axioms", fiber_axioms.ok)
    report.add("fiber_ko_dimension", fiber_axioms.data.get("ko_dimension") == 2,
               detail=f"signs {fiber_axioms.data.get('signs')}")

    if rp is None:
        rp = real_part(doubled, rho)  # raises TwistError when the twist is incompatible
    report.add("twist_compatible", rp.compatibility.ok,
               detail=f"eps_triple = {rp.compatibility.data.get('eps_triple')}")
    report.data["twisted_real_dimension"] = rp.real_dimension
    report.add("twisted_real_dimension_is_1", rp.real_dimension == 1)
    for name, value in rp.flags.items():
        report.add(f"twisted_{name}", value)

    scalar_pattern = False
    rho_fixed = False
    if rp.real_dimension == 1:
        elem = rp.elements(doubled)[0]
        scalar_pattern = _is_scalar_pattern(elem)
        rho_fixed = (rho.apply(elem) - elem).is_zero()
    report.add("twisted_basis_is_scalar_pattern", scalar_pattern,
               detail="(lambda, lambda, lambda I2, lambda I2, lambda I3, lambda I3)")
    report.add("twist_fixes_real_part", rho_fixed,
               detail="the real part is untwisted: rho restricts to the identity")

    a_j = real_part(fiber)
    inter = intersect_with_opposite(fiber)
    report.data["fiber_real_part_dimension"] = a_j.real_dimension
    report.data["fiber_intersection_dimension"] = inter.dim
    report.add("fiber_real_part_dimension_is_1", a_j.real_dimension == 1)
    report.add("intersection_equals_real_part",
               inter.equals(a_j.basis) and inter.dim == 1,
               detail="A n A° = A_J, computed independently")
    report.data["fiber_real_part_structure"] = structure_label(fiber, a_j.basis)
    return report


def _is_scalar_pattern(elem) -> bool:
    """True when every summand block is lambda * identity with one lambda."""
    ident = identity_element(elem.spec, elem._exact())
    lam = None
    for x, e in zip(elem.coords, ident.coords):
        if e != 0:
            lam = scalars.div(x, e)
            break
    if lam is None:
        return False
    return (elem - ident.scale(lam)).is_zero()
