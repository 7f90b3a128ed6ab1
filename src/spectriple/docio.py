"""JSON document format for triples, twists and reports.

One document carries a whole (possibly twisted) triple: scalar mode, the
algebra as block-kind labels, the representation (assignment plan when
available, explicit basis matrices otherwise), the Dirac operator, optional
grading, real structure, KO signs, twist and eigenspace identification.

Complex entries are two-element arrays [re, im]; exact rationals are
canonical "p/q" strings (plain integers allowed), floats are finite JSON
numbers.  A matrix is either dense, a list of rows, or sparse,
{"shape": [n, m], "entries": [[i, j, [re, im]], ...]} with absent entries
zero.  Emission writes the sparse form exactly when fewer than half the
entries are nonzero, with its entries sorted by (i, j) and no zero written;
parsing accepts either form wherever a matrix goes.  The twist unitary and
the identification are hilbert_dim x hilbert_dim.  parse and emit are
mutually inverse on canonical documents, which the shipped fixtures are.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraSpec, Placement, Representation, parse_kind
from .matrices import Antilinear, Matrix
from .scalars import QI, rational
from .triple import FiniteRealTriple, KOSigns
from .twist import TwistData

VERSION = "1"


class DocumentError(ValueError):
    pass


def _emit_scalar(v, mode: str):
    if mode == "exact":
        return [str(v.real), str(v.imag)]
    return [float(v.real), float(v.imag)]


def _parse_scalar(pair, mode: str, where: str):
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise DocumentError(f"{where}: complex entries are [re, im] pairs")
    re, im = pair
    if mode == "exact":
        try:
            return QI(_parse_rational(re), _parse_rational(im))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"{where}: bad exact rational: {exc}") from None
    try:
        v = complex(float(re), float(im))
    except (TypeError, ValueError):
        raise DocumentError(f"{where}: bad float entry {pair!r}") from None
    if not cmath.isfinite(v):
        raise DocumentError(f"{where}: float entries must be finite, got {pair!r}")
    return v


def _parse_rational(x):
    """An exact rational from its document text.  Plain ASCII integers, by
    far the most common entries, skip the Fraction parser; every other
    string, accepted or rejected, goes through it."""
    text = str(x)
    digits = text[1:] if text[:1] == "-" else text
    if digits.isascii() and digits.isdigit():
        return int(text)
    return rational(Fraction(text))


def _emit_matrix(m: Matrix, mode: str) -> list | dict:
    """Sparse when fewer than half the entries are nonzero, dense otherwise."""
    if 2 * m.nnz() < m.nrows * m.ncols:
        return {
            "shape": [m.nrows, m.ncols],
            "entries": [[i, j, _emit_scalar(v, mode)] for (i, j), v in sorted(m.entries())],
        }
    zero = _emit_scalar(QI(0), "exact") if mode == "exact" else [0.0, 0.0]
    out = [[list(zero) for _ in range(m.ncols)] for _ in range(m.nrows)]
    for (i, j), v in m.entries():
        out[i][j] = _emit_scalar(v, mode)
    return out


def _parse_matrix(value, mode: str, where: str, dim: int | None = None) -> Matrix:
    """A dense or sparse matrix; with dim given it must be dim x dim."""
    if isinstance(value, dict):
        m = _parse_sparse(value, mode, where)
    else:
        m = _parse_dense(value, mode, where)
    if dim is not None and (m.nrows, m.ncols) != (dim, dim):
        raise DocumentError(f"{where}: expected {dim}x{dim} (hilbert_dim), got {m.nrows}x{m.ncols}")
    return m


def _parse_dense(rows, mode: str, where: str) -> Matrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise DocumentError(f"{where}: a matrix is a non-empty list of rows or a sparse object")
    ncols = len(rows[0])
    entries = {}
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise DocumentError(f"{where}: row {i} has {len(row)} entries, expected {ncols}")
        for j, pair in enumerate(row):
            entries[(i, j)] = _parse_scalar(pair, mode, f"{where}[{i}][{j}]")
    return Matrix(len(rows), ncols, entries)  # zeros are not stored


def _parse_sparse(obj: dict, mode: str, where: str) -> Matrix:
    """{"shape": [n, m], "entries": [[i, j, [re, im]], ...]}; absent entries are 0."""
    for key in obj:
        if key not in ("shape", "entries"):
            raise DocumentError(f"{where}: unexpected key {key!r} in a sparse matrix")
    if len(obj) != 2:
        raise DocumentError(f"{where}: a sparse matrix needs 'shape' and 'entries'")
    shape, items = obj["shape"], obj["entries"]
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(x) is int and x > 0 for x in shape)):
        raise DocumentError(f"{where}.shape: expected two positive integers, got {shape!r}")
    nrows, ncols = shape
    if not isinstance(items, list):
        raise DocumentError(f"{where}.entries: expected a list of [i, j, [re, im]]")
    entries = {}
    for k, item in enumerate(items):
        at = f"{where}.entries[{k}]"
        if not isinstance(item, list) or len(item) != 3:
            raise DocumentError(f"{at}: an entry is [i, j, [re, im]]")
        i, j, pair = item
        if type(i) is not int or type(j) is not int:
            raise DocumentError(f"{at}: indices must be integers, got ({i!r}, {j!r})")
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise DocumentError(f"{at}: index ({i}, {j}) outside {nrows}x{ncols}")
        if (i, j) in entries:
            raise DocumentError(f"{at}: duplicate index ({i}, {j})")
        entries[(i, j)] = _parse_scalar(pair, mode, at)
    return Matrix(nrows, ncols, entries)


def _emit_plan(plan) -> list:
    return [
        {"summand": p.summand, "rows": list(p.rows), "cols": list(p.cols), "conj": p.conj}
        for p in plan
    ]


def _typed(value, kind: type, where: str):
    """value itself when its type is exactly kind (so no bool passes as an int)."""
    if type(value) is not kind:
        expected = "true or false" if kind is bool else "an integer"
        raise DocumentError(f"{where}: expected {expected}, got {value!r}")
    return value


def _parse_plan(items, spec: AlgebraSpec, dim: int, where: str) -> list[Placement]:
    if not isinstance(items, list):
        raise DocumentError(f"{where}: a plan is a list of placements")
    out = []
    for k, item in enumerate(items):
        try:
            summand, rows, cols = item["summand"], tuple(item["rows"]), tuple(item["cols"])
            conj = item.get("conj", False)
        except (KeyError, TypeError) as exc:
            raise DocumentError(f"{where}[{k}]: bad placement: {exc}") from None
        p = Placement(_typed(summand, int, f"{where}[{k}].summand"), rows, cols,
                      _typed(conj, bool, f"{where}[{k}].conj"))
        if not 0 <= summand < len(spec.summands):
            raise DocumentError(f"{where}[{k}].summand: {summand} outside 0..{len(spec.summands) - 1}")
        for key, slots in (("rows", rows), ("cols", cols)):
            if len(slots) != spec.summands[summand].matrix_dim:
                raise DocumentError(f"{where}[{k}].{key}: summand {summand} needs "
                                    f"{spec.summands[summand].matrix_dim}, got {len(slots)}")
        for slot in p.rows + p.cols:
            if type(slot) is not int or not 0 <= slot < dim:
                raise DocumentError(f"{where}[{k}]: slot {slot!r} outside 0..{dim - 1}")
        out.append(p)
    return out


@dataclass
class ParsedDocument:
    mode: str
    triple: FiniteRealTriple
    twist: TwistData | None
    identification: Matrix | None
    metadata: dict


def emit_document(t: FiniteRealTriple, mode: str, twist: TwistData | None = None,
                  identification: Matrix | None = None, metadata: dict | None = None) -> dict:
    doc = {
        "version": VERSION,
        "mode": mode,
        "metadata": metadata or {},
        "hilbert_dim": t.dim,
        "algebra": t.spec.labels(),
    }
    if t.rep.plan is not None:
        doc["representation"] = {"plan": _emit_plan(t.rep.plan)}
    else:
        doc["representation"] = {"matrices": [_emit_matrix(m, mode) for m in t.rep.basis_matrices]}
    doc["dirac"] = _emit_matrix(t.dirac, mode)
    doc["grading"] = _emit_matrix(t.grading, mode) if t.grading is not None else None
    doc["real_structure"] = (
        {"u": _emit_matrix(t.real_structure.U, mode)} if t.real_structure is not None else None
    )
    doc["signs"] = (
        {"eps": t.signs.eps, "eps_prime": t.signs.eps_prime, "eps_dprime": t.signs.eps_dprime}
        if t.signs is not None
        else None
    )
    doc["twist"] = (
        {
            "perm": list(twist.perm),
            "conj": list(twist.conj),
            "r": _emit_matrix(twist.R, mode) if twist.R is not None else None,
        }
        if twist is not None
        else None
    )
    doc["identification"] = _emit_matrix(identification, mode) if identification is not None else None
    return doc


def parse_document(doc: dict) -> ParsedDocument:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    if doc.get("version") != VERSION:
        raise DocumentError(f"unsupported document version {doc.get('version')!r}")
    mode = doc.get("mode")
    if mode not in ("exact", "float"):
        raise DocumentError("mode must be 'exact' or 'float'")
    exact = mode == "exact"

    labels = doc.get("algebra")
    if not isinstance(labels, list) or not all(isinstance(lbl, str) for lbl in labels):
        raise DocumentError("algebra must be a list of block-kind labels")
    try:
        spec = AlgebraSpec(tuple(parse_kind(lbl) for lbl in labels))
    except ValueError as exc:
        raise DocumentError(f"algebra: {exc}") from None

    dim = doc.get("hilbert_dim")
    if not isinstance(dim, int) or dim <= 0:
        raise DocumentError("hilbert_dim must be a positive integer")

    rep_spec = doc.get("representation")
    if not isinstance(rep_spec, dict):
        raise DocumentError("representation must be an object")
    if "plan" in rep_spec:
        plan = _parse_plan(rep_spec["plan"], spec, dim, "representation.plan")
        rep = Representation.from_plan(spec, dim, plan, exact)
    elif "matrices" in rep_spec:
        mats = [
            _parse_matrix(m, mode, f"representation.matrices[{k}]")
            for k, m in enumerate(rep_spec["matrices"])
        ]
        rep = Representation(spec, dim, mats)
    else:
        raise DocumentError("representation needs a 'plan' or 'matrices'")

    if "dirac" not in doc:
        raise DocumentError("document has no Dirac operator")
    dirac = _parse_matrix(doc["dirac"], mode, "dirac")
    grading = _parse_matrix(doc["grading"], mode, "grading") if doc.get("grading") is not None else None
    real_structure = None
    if doc.get("real_structure") is not None:
        rs = doc["real_structure"]
        if not isinstance(rs, dict) or "u" not in rs:
            raise DocumentError("real_structure must be an object with a 'u' matrix")
        u = _parse_matrix(rs["u"], mode, "real_structure.u")
        if not u.is_unitary():
            raise DocumentError("real_structure.u is not unitary")
        real_structure = Antilinear(u, check=False)

    signs = None
    if doc.get("signs") is not None:
        s = doc["signs"]
        if not isinstance(s, dict):
            raise DocumentError("signs must be an object")
        eps, eps_prime = (_typed(s.get(key), int, f"signs.{key}") for key in ("eps", "eps_prime"))
        eps_dprime = s.get("eps_dprime")
        if eps_dprime is not None:
            _typed(eps_dprime, int, "signs.eps_dprime")
        try:
            signs = KOSigns(eps, eps_prime, eps_dprime)
        except ValueError as exc:
            raise DocumentError(f"signs: {exc}") from None

    twist = None
    if doc.get("twist") is not None:
        tw = doc["twist"]
        if not (isinstance(tw, dict) and isinstance(tw.get("perm"), list)
                and isinstance(tw.get("conj", []), (list, type(None)))):
            raise DocumentError("twist must be an object with a 'perm' list and a 'conj' list")
        perm = tuple(_typed(x, int, f"twist.perm[{k}]") for k, x in enumerate(tw["perm"]))
        conjflags = tuple(_typed(x, bool, f"twist.conj[{k}]") for k, x in enumerate(tw.get("conj") or ()))
        r = _parse_matrix(tw["r"], mode, "twist.r", dim) if tw.get("r") is not None else None
        twist = TwistData(perm, conjflags, r)

    identification = (
        _parse_matrix(doc["identification"], mode, "identification", dim)
        if doc.get("identification") is not None
        else None
    )

    try:
        triple = FiniteRealTriple(spec, rep, dirac, grading, real_structure, signs)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None
    return ParsedDocument(mode, triple, twist, identification, doc.get("metadata") or {})


def load_document(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_document(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
