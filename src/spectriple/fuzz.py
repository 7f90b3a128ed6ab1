"""Randomized generation of valid finite real graded spectral triples.

Rejection sampling on all axioms at once essentially never succeeds, so the
generator works constructively:

  1. sample a commutative block algebra (R and C summands) acting diagonally,
     with identical slot patterns on the two grading eigenspaces so the flip
     identification always intertwines the representation;
  2. pick the real structure from a catalogue of block swaps realizing each
     even KO sign pair;
  3. solve, exactly, for the space of Dirac operators that are selfadjoint,
     anticommute with the grading, commute with J and satisfy the
     first-order condition (a support rule on the entries, then the axiom
     checker's own maps solved by subspaces.kernel; see _dirac_space), and
     draw a random rational element of that space.

Everything is deterministic given the seed.  Hilbert dimensions stay small
(2 h0 with h0 <= 4); the point is exact verification, not scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import scalars
from .algebra import AlgebraSpec, BlockKind, Placement, Representation
from .algebra import basis_elements
from .matrices import Antilinear, Matrix, real_coords
from .scalars import QI, QI_I, rational
from .subspaces import kernel
from .triple import FiniteRealTriple, KOSigns

EVEN_KO = (0, 2, 4, 6)

_KO_SIGNS = {0: (1, 1, 1), 2: (-1, 1, -1), 4: (-1, 1, 1), 6: (1, 1, -1)}


@dataclass(frozen=True)
class FuzzCase:
    ko: int
    triple: FiniteRealTriple


def _real_structure(ko: int, h0: int, exact: bool = True) -> Antilinear:
    """Block-swap catalogue realizing each even KO sign pair on C^{2 h0}."""
    one = scalars.as_scalar(1, exact)
    n = 2 * h0
    entries = {}
    if ko == 0:
        for i in range(n):
            entries[(i, i)] = one
    elif ko == 2:
        for j in range(h0):
            entries[(j, h0 + j)] = -one
            entries[(h0 + j, j)] = one
    elif ko == 4:
        if h0 % 2:
            raise ValueError("KO 4 needs an even eigenspace dimension")
        for base in (0, h0):
            for j in range(0, h0, 2):
                entries[(base + j, base + j + 1)] = -one
                entries[(base + j + 1, base + j)] = one
    elif ko == 6:
        for j in range(h0):
            entries[(j, h0 + j)] = one
            entries[(h0 + j, j)] = one
    else:
        raise ValueError("only even KO dimensions occur for graded triples")
    return Antilinear(Matrix(n, n, entries))


def _dirac_space(rep: Representation, grading: Matrix, j: Antilinear) -> list[Matrix]:
    """Exact basis of Dirac operators compatible with all axioms.

    With a diagonal representation and grading, the grading anticommutation
    and the first-order condition become a support rule: entry (i, k) may be
    nonzero only when slots i and k carry opposite grading signs and the
    algebra or its opposite cannot separate them.  The unknowns are the real
    and imaginary parts of the allowed entries; selfadjointness and JD = DJ
    are the maps d - d* and U conj(d) - d U that check_axioms evaluates, one
    real-coordinate column per unknown, and kernel solves them.
    """
    n = rep.dim
    exact = rep._exact()
    if any(i != k for m in rep.basis_matrices for (i, k), _ in m.entries()):
        raise ValueError("the support shortcut needs a diagonal representation")
    opposites = [j.conjugate_operator(rep.apply(e.star())) for e in basis_elements(rep.spec, exact)]
    alg = [[m.get(i, i) for m in rep.basis_matrices] for i in range(n)]
    opp = [[m.get(i, i) for m in opposites] for i in range(n)]
    sign = [grading.get(i, i) for i in range(n)]
    allowed = [(i, k) for i in range(n) for k in range(n)
               if sign[i] != sign[k] and (alg[i] == alg[k] or opp[i] == opp[k])]
    parts = (scalars.as_scalar(1, exact), scalars.as_scalar(QI_I, exact))
    unknowns = [Matrix(n, n, {ik: p}) for ik in allowed for p in parts]

    def conditions(d: Matrix) -> dict:
        out = real_coords(d - d.adjoint())
        out.update((2 * n * n + c, v) for c, v in real_coords(j.U @ d.conj() - d @ j.U).items())
        return out

    mats = []
    for vec in kernel(map(conditions, unknowns)).vectors:
        entries = {ik: QI(re, im) if exact else complex(re, im)
                   for ik, re, im in zip(allowed, vec[::2], vec[1::2])}
        mats.append(Matrix(n, n, entries))
    return mats


def generate_case(rng: random.Random, ko: int | None = None, exact: bool = True) -> FuzzCase:
    if ko is None:
        ko = rng.choice(EVEN_KO)
    if ko not in EVEN_KO:
        raise ValueError("only even KO dimensions occur for graded triples")
    h0 = rng.choice((2, 4)) if ko == 4 else rng.choice((1, 2, 3, 4))
    n = 2 * h0

    n_summands = rng.randint(1, min(3, h0))
    kinds = tuple(BlockKind(rng.choice(("R", "C", "C"))) for _ in range(n_summands))
    spec = AlgebraSpec(kinds)

    # identical slot patterns on both eigenspaces; every summand used
    pattern = [(s, rng.random() < 0.5) for s in range(n_summands)]
    pattern += [(rng.randrange(n_summands), rng.random() < 0.5) for _ in range(h0 - n_summands)]
    rng.shuffle(pattern)
    placements = []
    for slot, (summand, cflag) in enumerate(pattern):
        conj = cflag and kinds[summand].family == "C"
        for base in (0, h0):
            placements.append(Placement(summand, (base + slot,), (base + slot,), conj))
    rep = Representation.from_plan(spec, n, placements, exact)

    grading = Matrix.diagonal([1] * h0 + [-1] * h0, exact)
    j = _real_structure(ko, h0, exact)

    dirac_basis = _dirac_space(rep, grading, j)
    dirac = Matrix.zeros(n, n)
    for m in dirac_basis:
        c = rational(rng.randint(-3, 3), rng.randint(1, 3)) if exact else rng.uniform(-3, 3)
        if c != 0:
            dirac = dirac + m.scale(QI(c) if exact else complex(c))

    signs = KOSigns(*_KO_SIGNS[ko])
    triple = FiniteRealTriple(spec, rep, dirac, grading, j, signs)
    return FuzzCase(ko, triple)


def generate_cases(seed: int, count: int, ko: int | None = None, exact: bool = True):
    rng = random.Random(seed)
    return [generate_case(rng, ko, exact) for _ in range(count)]
