"""Randomized generation of valid finite real graded spectral triples.

Rejection sampling on all axioms at once essentially never succeeds, so the
generator works constructively:

  1. sample a commutative block algebra (R and C summands) acting diagonally,
     with identical slot patterns on the two grading eigenspaces so the flip
     identification always intertwines the representation;
  2. pick the real structure from a catalogue of block swaps realizing each
     even KO sign pair;
  3. solve, exactly, the real-linear system cutting out the space of Dirac
     operators that are selfadjoint, anticommute with the grading, commute
     with J, and satisfy the first-order condition, then draw a random
     rational element of that space.

Everything is deterministic given the seed.  Hilbert dimensions stay small
(2 h0 with h0 <= 4); the point is exact verification, not scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import scalars
from .algebra import AlgebraSpec, BlockKind, Placement, Representation
from .algebra import basis_elements
from .matrices import Antilinear, Matrix
from .scalars import QI, rational
from .subspaces import real_nullspace
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

    The unknown is a full complex n x n matrix (2 n^2 real variables);
    selfadjointness, grading anticommutation, J commutation and the
    first-order condition are all real-linear constraints on it.  With a
    diagonal representation the first-order condition degenerates to a
    support condition: entry (i, j) survives only if the algebra or its
    opposite cannot separate the slots i and j.
    """
    n = rep.dim
    exact = rep._exact()
    basis = basis_elements(rep.spec, exact)
    if any(i != k for m in rep.basis_matrices for (i, k), _ in m.entries()):
        raise ValueError("the support shortcut needs a diagonal representation")

    def var(i, k, part):
        return 2 * (i * n + k) + part

    alg_diag = [[m.get(i, i) for m in rep.basis_matrices] for i in range(n)]
    opposites = [j.conjugate_operator(rep.apply(e.star())) for e in basis]
    opp_diag = [[m.get(i, i) for m in opposites] for i in range(n)]

    rows = []
    gdiag = [grading.get(i, i) for i in range(n)]
    umap = {}
    for (r, c), v in j.U.entries():
        umap[r] = (c, v)

    for i in range(n):
        for k in range(n):
            # grading anticommutation kills same-eigenspace entries
            if gdiag[i] == gdiag[k]:
                rows.append({var(i, k, 0): 1})
                rows.append({var(i, k, 1): 1})
                continue
            # first order: slots must be indistinguishable to A or to A°
            alg_equal = alg_diag[i] == alg_diag[k]
            opp_equal = opp_diag[i] == opp_diag[k]
            if not (alg_equal or opp_equal):
                rows.append({var(i, k, 0): 1})
                rows.append({var(i, k, 1): 1})
    # selfadjointness: real diagonal, conjugate-symmetric off-diagonal
    for i in range(n):
        rows.append({var(i, i, 1): 1})
        for k in range(i + 1, n):
            rows.append({var(i, k, 0): 1, var(k, i, 0): -1})
            rows.append({var(i, k, 1): 1, var(k, i, 1): 1})
    # J D = D J, i.e. U conj(D) = D U for the signed-permutation U:
    # (U conj D)[i, k] = s_i conj(D[c_i, k]) and (D U)[i, k] = s'_k D[i, r_k]
    winv = {c: (r, v) for r, (c, v) in umap.items()}
    for i in range(n):
        ci, si = umap[i]
        s1 = 1 if _is_positive(si) else -1
        for k in range(n):
            rk, sk = winv[k]
            s2 = 1 if _is_positive(sk) else -1
            rows.append(_merge_row({var(ci, k, 0): s1, var(i, rk, 0): -s2}))
            rows.append(_merge_row({var(ci, k, 1): -s1, var(i, rk, 1): -s2}))

    sol = real_nullspace(rows, 2 * n * n)
    mats = []
    for vec in sol.vectors:
        entries = {}
        for i in range(n):
            for k in range(n):
                re, im = vec[var(i, k, 0)], vec[var(i, k, 1)]
                if re != 0 or im != 0:
                    entries[(i, k)] = QI(re, im) if exact else complex(re, im)
        mats.append(Matrix(n, n, entries))
    return mats


def _is_positive(v) -> bool:
    return scalars.real_part(v) > 0


def _merge_row(row: dict) -> dict:
    out = {}
    for k, v in row.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v != 0}


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
